//! Bidirectional term interning.
//!
//! Every distinct [`Term`] is assigned a dense `u32` [`TermId`] the first
//! time it is seen. Quads are then stored and joined purely over ids, which
//! keeps the indexes compact and comparisons cheap — the standard
//! dictionary-encoding design for RDF stores.
//!
//! # One entry per term, a quoted triple as three ids
//!
//! Entries are stored **once**, id-indexed. An IRI, blank node or literal
//! is stored as its [`Term`]. A quoted triple `<< s p o >>` is stored as
//! the three [`TermId`]s of its constituents, which the dictionary interns
//! before it — so a nested quoted triple is three ids like any other, and
//! no constituent is ever copied. The similarity edges' RDF-star
//! annotations are most of a LiDS dictionary's terms: as deep-cloned
//! `Box<Triple>`s they cost 488 B each (a 72 B slot plus a 216 B box of
//! private copies of two column IRIs and the predicate IRI), as ids the
//! slot alone.
//!
//! The reverse map goes through a 64-bit *key* instead of a second owned
//! copy of the term: a stored term's content hash, or a quoted triple's
//! tag plus its three ids. A key maps to the (almost always one) ids whose
//! entries collide on it, and lookups confirm against the entry. Probing a
//! quoted triple therefore hashes 12 bytes and compares three `u32`s,
//! whatever its constituents spell, and lets callers probe by borrowed
//! content (see [`Dictionary::id_of_iri`], [`Dictionary::id_of_quoted`])
//! without allocating a scratch `Term`.
//!
//! [`Dictionary::term`] lends a stored term and builds a quoted triple's
//! `Term` on demand; nothing caches the built term, so decoding every quad
//! of a store leaves the dictionary as it was. Callers working in id space
//! destructure a quoted triple with [`Dictionary::quoted`] instead.
//!
//! # Append-only and structurally shared
//!
//! A dictionary only grows, and its clones share everything that has not
//! grown since. The store clones its snapshot — dictionary included — on
//! the first write after a reader pinned the previous one, so `Clone` must
//! cost what the *delta* interns, not what the lake holds (0.45 M
//! heap-owning terms took 100–160 ms to deep-copy and ≈ 100 ms to free):
//!
//! - **Entries** live in fixed-size chunks of `CHUNK` slots, each behind an
//!   `Arc`. A full chunk is sealed and never written again; an append
//!   `make_mut`s the growing tail chunk only, which copies it (< `CHUNK`
//!   slots) when a clone still shares it and writes in place otherwise.
//! - **The key → id map** is a frozen `base` behind an `Arc` plus a small
//!   owned `recent` map. While nobody shares the base (bootstrap, deltas
//!   with no reader attached) new entries go straight into it; while a
//!   clone does, they go into `recent`, which is folded into a private copy
//!   of the base once it outgrows `1 / FOLD_DIV` of it — so a clone copies
//!   at most that fraction of the map, and a base is copied once per
//!   `len / FOLD_DIV` terms interned under sharing.
//!
//! A base is written only while unshared, so every holder of a shared base
//! descends from the state it describes: its entries name ids that every
//! holder has, with the same terms.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use crate::term::{Term, Triple};

/// Slots per chunk. A power of two, so `id → (chunk, offset)` is a shift
/// and a mask. Cloning copies `len / CHUNK` pointers; appending to a clone
/// copies at most one chunk.
const CHUNK: usize = 1024;
const _: () = assert!(CHUNK.is_power_of_two());

/// `recent` is folded into the base once it holds more than
/// `base.len() / FOLD_DIV` keys.
const FOLD_DIV: usize = 8;

/// Dense identifier of an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One dictionary entry.
#[derive(Debug, Clone)]
enum Slot {
    /// An IRI, blank node or literal — never a quoted triple.
    Term(Term),
    /// A quoted triple: its subject, predicate and object, interned first.
    Quoted([TermId; 3]),
}

/// Ids whose entries share one 64-bit key. Genuine collisions are
/// vanishingly rare, so the single-id case avoids a heap allocation.
#[derive(Debug, Clone)]
enum Bucket {
    One(TermId),
    Many(Vec<TermId>),
}

type Buckets = HashMap<u64, Bucket>;

/// What one allocated map slot costs: key + bucket + 1 control byte
/// (SwissTable layout).
const MAP_ENTRY_BYTES: usize = std::mem::size_of::<u64>() + std::mem::size_of::<Bucket>() + 1;

/// File `id` under `key`, beside any ids already colliding there.
fn push_id(map: &mut Buckets, key: u64, id: TermId) {
    match map.entry(key) {
        Entry::Vacant(e) => {
            e.insert(Bucket::One(id));
        }
        Entry::Occupied(mut e) => match e.get_mut() {
            Bucket::One(first) => {
                let first = *first;
                e.insert(Bucket::Many(vec![first, id]));
            }
            Bucket::Many(ids) => ids.push(id),
        },
    }
}

/// Bijective mapping between [`Term`]s and [`TermId`]s.
///
/// `Clone` is what the store's copy-on-write snapshots pay per publish: it
/// copies the chunk pointers, the `recent` map and a pointer to the base —
/// no term — and shares the hasher state, so hashes computed against a
/// clone stay valid against the original (and vice versa). Clones then
/// grow independently: what one interns is invisible to the other.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    /// Entries `0..full.len() * CHUNK`, in sealed chunks of exactly `CHUNK`.
    full: Vec<Arc<[Slot]>>,
    /// The entries after those: fewer than `CHUNK`, still growing.
    tail: Arc<Vec<Slot>>,
    /// Key → ids, frozen while any clone shares it.
    base: Arc<Buckets>,
    /// Key → ids interned while the base was shared. A key may sit in
    /// both maps (a collision that straddles them).
    recent: Buckets,
    hasher: RandomState,
}

impl Dictionary {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `term`, returning its id (existing or freshly assigned).
    ///
    /// A quoted triple interns its constituents first, in subject,
    /// predicate, object order, and is then keyed by their ids (see
    /// [`Dictionary::intern_quoted`]); so evaluators working purely over
    /// ids can destructure a stored quoted triple with
    /// [`Dictionary::quoted`] and join on its constituents.
    pub fn intern(&mut self, term: &Term) -> TermId {
        match term {
            Term::Quoted(q) => {
                let [s, p, o] = [&q.subject, &q.predicate, &q.object].map(|t| self.intern(t));
                self.intern_quoted(s, p, o)
            }
            _ => self.intern_leaf(self.hash_term(term), Cow::Borrowed(term)),
        }
    }

    /// Intern an owned term without cloning it. Same semantics as
    /// [`Dictionary::intern`].
    pub fn intern_owned(&mut self, term: Term) -> TermId {
        match term {
            Term::Quoted(q) => {
                let Triple { subject, predicate, object } = *q;
                let s = self.intern_owned(subject);
                let p = self.intern_owned(predicate);
                let o = self.intern_owned(object);
                self.intern_quoted(s, p, o)
            }
            term => self.intern_leaf(self.hash_term(&term), Cow::Owned(term)),
        }
    }

    /// Intern a term that is not a quoted triple under its content hash,
    /// cloning it only when it is new.
    fn intern_leaf(&mut self, hash: u64, term: Cow<'_, Term>) -> TermId {
        match self.find_term(hash, &term) {
            Some(id) => id,
            None => self.push_new(hash, Slot::Term(term.into_owned())),
        }
    }

    /// Append an entry known to be absent, whose constituents (if it is a
    /// quoted triple) are known to be interned.
    fn push_new(&mut self, key: u64, slot: Slot) -> TermId {
        let Ok(raw) = u32::try_from(self.len()) else {
            // ids are dense u32s by design; 2^32 interned terms is beyond
            // any supported store size
            panic!("dictionary overflow: more than u32::MAX interned terms")
        };
        let id = TermId(raw);
        let tail = Arc::make_mut(&mut self.tail);
        tail.push(slot);
        if tail.len() == CHUNK {
            // sealed by moving the entries out, so the tail keeps its buffer
            self.full.push(tail.drain(..).collect());
        }
        let shared = Arc::get_mut(&mut self.base).is_none();
        if shared && self.recent.len() <= self.base.len() / FOLD_DIV {
            push_id(&mut self.recent, key, id);
        } else {
            // One map again: in place when nobody else reads the base, in
            // a private copy when `recent` has outgrown its share of it.
            let base = Arc::make_mut(&mut self.base);
            for (key, bucket) in self.recent.drain() {
                match bucket {
                    Bucket::One(id) => push_id(base, key, id),
                    Bucket::Many(ids) => ids.into_iter().for_each(|id| push_id(base, key, id)),
                }
            }
            push_id(base, key, id);
        }
        id
    }

    /// Ids filed under `key`, checked against `matches` on the entry.
    fn find(&self, key: u64, matches: impl Fn(&Slot) -> bool) -> Option<TermId> {
        let probe = |map: &Buckets| match map.get(&key)? {
            Bucket::One(id) => matches(self.slot(*id)).then_some(*id),
            Bucket::Many(ids) => ids.iter().copied().find(|id| matches(self.slot(*id))),
        };
        probe(&self.base).or_else(|| probe(&self.recent))
    }

    /// The id of a stored (non-quoted) term under its content hash.
    fn find_term(&self, hash: u64, term: &Term) -> Option<TermId> {
        self.find(hash, |slot| matches!(slot, Slot::Term(t) if t == term))
    }

    /// Look up an id without interning. A quoted triple over a constituent
    /// the dictionary lacks is `None`.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        match term {
            Term::Quoted(q) => self.id_of_quoted(
                self.id_of(&q.subject)?,
                self.id_of(&q.predicate)?,
                self.id_of(&q.object)?,
            ),
            _ => self.find_term(self.hash_term(term), term),
        }
    }

    /// Look up the id of `Term::Iri(iri)` without allocating the term.
    pub fn id_of_iri(&self, iri: &str) -> Option<TermId> {
        let mut h = self.hasher.build_hasher();
        write_iri(&mut h, iri);
        self.find(h.finish(), |slot| matches!(slot, Slot::Term(Term::Iri(s)) if s == iri))
    }

    /// Id of the quoted triple `<< s p o >>` over three interned terms, if
    /// it is interned: one probe keyed and compared by the three ids, so
    /// nothing is decoded, hashed as text or allocated.
    pub fn id_of_quoted(&self, s: TermId, p: TermId, o: TermId) -> Option<TermId> {
        self.find_quoted(self.key_quoted([s, p, o]), [s, p, o])
    }

    /// Intern the quoted triple `<< s p o >>` over three interned terms:
    /// the id [`Dictionary::intern`] gives the built term, without building
    /// it. Panics on a foreign id.
    pub fn intern_quoted(&mut self, s: TermId, p: TermId, o: TermId) -> TermId {
        let ids = [s, p, o];
        assert!(ids.iter().all(|id| id.index() < self.len()), "foreign constituent id");
        let key = self.key_quoted(ids);
        match self.find_quoted(key, ids) {
            Some(id) => id,
            None => self.push_new(key, Slot::Quoted(ids)),
        }
    }

    /// The constituents of a quoted triple's id, in subject, predicate,
    /// object order; `None` for any other term. Panics on a foreign id.
    pub fn quoted(&self, id: TermId) -> Option<[TermId; 3]> {
        match self.slot(id) {
            Slot::Quoted(ids) => Some(*ids),
            Slot::Term(_) => None,
        }
    }

    fn find_quoted(&self, key: u64, ids: [TermId; 3]) -> Option<TermId> {
        self.find(key, |slot| matches!(slot, Slot::Quoted(q) if *q == ids))
    }

    /// A quoted triple's map key: its tag, then its three ids.
    fn key_quoted(&self, ids: [TermId; 3]) -> u64 {
        let mut h = self.hasher.build_hasher();
        h.write_u8(QUOTED_TAG);
        for id in ids {
            h.write_u32(id.0);
        }
        h.finish()
    }

    fn hash_term(&self, term: &Term) -> u64 {
        let mut h = self.hasher.build_hasher();
        write_term(&mut h, term);
        h.finish()
    }

    fn slot(&self, id: TermId) -> &Slot {
        match self.full.get(id.index() / CHUNK) {
            Some(chunk) => &chunk[id.index() % CHUNK],
            None => &self.tail[id.index() % CHUNK],
        }
    }

    /// The term an entry stands for: lent when stored, built when quoted.
    fn decode<'a>(&'a self, slot: &'a Slot) -> Cow<'a, Term> {
        match slot {
            Slot::Term(term) => Cow::Borrowed(term),
            Slot::Quoted(ids) => {
                let [s, p, o] = ids.map(|id| self.term(id).into_owned());
                Cow::Owned(Term::quoted(s, p, o))
            }
        }
    }

    /// Resolve an id back to its term: borrowed, except a quoted triple,
    /// which is built from its constituents on every call. Panics on a
    /// foreign id.
    pub fn term(&self, id: TermId) -> Cow<'_, Term> {
        self.decode(self.slot(id))
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.full.len() * CHUNK + self.tail.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over `(id, term)` pairs in interning order, terms as
    /// [`Dictionary::term`] gives them.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, Cow<'_, Term>)> {
        self.full
            .iter()
            .flat_map(|chunk| chunk.iter())
            .chain(self.tail.iter())
            .enumerate()
            .map(|(i, slot)| (TermId(i as u32), self.decode(slot)))
    }

    /// Approximate heap footprint in bytes (for the memory meter).
    ///
    /// Each entry counts what it allocates: its slot plus, for a stored
    /// term, that term's strings — a quoted triple's slot holds its three
    /// ids and nothing else. The reverse maps hold only `(u64, Bucket)`
    /// entries, so their cost is per-slot bookkeeping rather than a second
    /// copy of every term. This is what the dictionary reaches, not what
    /// it owns alone: chunks and base shared with a clone count in full.
    pub fn approx_bytes(&self) -> u64 {
        let slots = self.full.len() * CHUNK + self.tail.capacity();
        let mut total = (slots * std::mem::size_of::<Slot>()) as u64;
        let entries = self.full.iter().flat_map(|chunk| chunk.iter()).chain(self.tail.iter());
        total += entries.map(slot_payload_bytes).sum::<u64>();
        // Reverse maps: every allocated slot costs `MAP_ENTRY_BYTES`;
        // Many-buckets add their spilled id vectors.
        for map in [&*self.base, &self.recent] {
            total += (map.capacity() * MAP_ENTRY_BYTES) as u64;
            for bucket in map.values() {
                if let Bucket::Many(ids) = bucket {
                    total += (ids.capacity() * std::mem::size_of::<TermId>()) as u64;
                }
            }
        }
        total
    }
}

/// Variant tag a quoted triple's hash starts with.
const QUOTED_TAG: u8 = 3;

/// Feed a term's content to a hasher with variant tags and terminators, so
/// prefix-sharing values of different shapes cannot alias.
fn write_term<H: Hasher>(h: &mut H, term: &Term) {
    match term {
        Term::Iri(s) => write_iri(h, s),
        Term::BNode(s) => {
            h.write_u8(1);
            h.write(s.as_bytes());
            h.write_u8(0xff);
        }
        Term::Literal(l) => {
            h.write_u8(2);
            h.write(l.lexical.as_bytes());
            h.write_u8(0xff);
            h.write(l.datatype.as_bytes());
            h.write_u8(0xff);
            match &l.language {
                Some(lang) => {
                    h.write_u8(1);
                    h.write(lang.as_bytes());
                    h.write_u8(0xff);
                }
                None => h.write_u8(0),
            }
        }
        Term::Quoted(q) => {
            h.write_u8(QUOTED_TAG);
            write_term(h, &q.subject);
            write_term(h, &q.predicate);
            write_term(h, &q.object);
        }
    }
}

fn write_iri<H: Hasher>(h: &mut H, iri: &str) {
    h.write_u8(0);
    h.write(iri.as_bytes());
    h.write_u8(0xff);
}

/// Heap bytes an entry owns beyond its slot.
fn slot_payload_bytes(slot: &Slot) -> u64 {
    let len = match slot {
        Slot::Term(Term::Iri(s) | Term::BNode(s)) => s.len(),
        Slot::Term(Term::Literal(l)) => {
            l.lexical.len() + l.datatype.len() + l.language.as_ref().map_or(0, String::len)
        }
        Slot::Term(Term::Quoted(_)) | Slot::Quoted(_) => 0,
    };
    len as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("http://a"));
        let b = d.intern(&Term::iri("http://a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("x"));
        let b = d.intern(&Term::string("x"));
        let c = d.intern(&Term::BNode("x".into()));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn roundtrip_resolution() {
        let mut d = Dictionary::new();
        let term = Term::quoted(Term::iri("s"), Term::iri("p"), Term::double(0.93));
        let id = d.intern(&term);
        assert_eq!(*d.term(id), term);
        assert_eq!(d.id_of(&term), Some(id));
    }

    #[test]
    fn iter_in_order() {
        let mut d = Dictionary::new();
        d.intern(&Term::iri("a"));
        d.intern(&Term::iri("b"));
        let collected: Vec<_> = d.iter().map(|(id, _)| id.0).collect();
        assert_eq!(collected, vec![0, 1]);
    }

    #[test]
    fn intern_owned_matches_intern() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("a"));
        assert_eq!(d.intern_owned(Term::iri("a")), a);
        let q = Term::quoted(Term::iri("x"), Term::iri("p"), Term::iri("y"));
        let qid = d.intern_owned(q.clone());
        // inner terms were interned first, in s/p/o order
        assert!(d.id_of(&Term::iri("x")).unwrap() < qid);
        assert!(d.id_of(&Term::iri("p")).unwrap() < qid);
        assert!(d.id_of(&Term::iri("y")).unwrap() < qid);
        assert_eq!(d.id_of(&q), Some(qid));
    }

    #[test]
    fn quoted_by_ids_is_quoted_by_term() {
        let mut d = Dictionary::new();
        let s = d.intern(&Term::iri("s"));
        let p = d.intern(&Term::iri("p"));
        let o = d.intern(&Term::double(0.5));
        assert_eq!(d.id_of_quoted(s, p, o), None);
        let q = d.intern_quoted(s, p, o);
        let built = Term::quoted(Term::iri("s"), Term::iri("p"), Term::double(0.5));
        assert_eq!(*d.term(q), built);
        assert_eq!(d.quoted(q), Some([s, p, o]));
        assert_eq!(d.quoted(s), None);
        assert_eq!(d.id_of(&built), Some(q));
        assert_eq!(d.intern_owned(built), q);
        assert_eq!(d.id_of_quoted(s, p, o), Some(q));
        assert_eq!(d.intern_quoted(s, p, o), q);
        // the other orientation is another term
        assert_eq!(d.id_of_quoted(o, p, s), None);
        // and a triple interned by term resolves by ids
        let other = d.intern_owned(Term::quoted(Term::iri("a"), Term::iri("p"), Term::iri("s")));
        let a = d.id_of(&Term::iri("a")).unwrap();
        assert_eq!(d.id_of_quoted(a, p, s), Some(other));
        assert_eq!(d.len(), 6);
    }

    /// A quoted triple `depth` levels deep, each level quoting the one
    /// inside as its subject (odd levels) or object (even levels).
    fn nested(depth: usize, i: usize) -> Term {
        (0..depth).fold(Term::iri(format!("http://example.org/s/{i}")), |inner, level| {
            let p = Term::iri(format!("http://example.org/p/{level}"));
            let leaf = Term::double(i as f64 / 8.0);
            if level % 2 == 0 {
                Term::quoted(inner, p, leaf)
            } else {
                Term::quoted(leaf, p, inner)
            }
        })
    }

    /// `term` interned bottom-up through ids alone: leaves by term, every
    /// quoted level by [`Dictionary::intern_quoted`].
    fn intern_by_ids(d: &mut Dictionary, term: &Term) -> TermId {
        match term {
            Term::Quoted(q) => {
                let s = intern_by_ids(d, &q.subject);
                let p = intern_by_ids(d, &q.predicate);
                let o = intern_by_ids(d, &q.object);
                d.intern_quoted(s, p, o)
            }
            leaf => d.intern(leaf),
        }
    }

    #[test]
    fn nested_quoted_by_term_is_by_ids_and_decodes_back() {
        let (mut by_term, mut by_ids) = (Dictionary::new(), Dictionary::new());
        for i in 0..24 {
            let term = nested(1 + i % 4, i);
            let id = by_term.intern(&term);
            assert_eq!(intern_by_ids(&mut by_ids, &term), id, "{term}");
            assert_eq!(*by_term.term(id), term);
            assert_eq!(by_term.id_of(&term), Some(id));
            assert_eq!(by_term.intern_owned(term.clone()), id);
            let Term::Quoted(q) = &term else { unreachable!("nested terms are quoted") };
            let parts = [&q.subject, &q.predicate, &q.object].map(|t| by_term.id_of(t));
            assert_eq!(by_term.quoted(id).map(|ids| ids.map(Some)), Some(parts));
        }
        assert_eq!(by_term.len(), by_ids.len());
        let listed = |d: &Dictionary| d.iter().map(|(_, t)| t.into_owned()).collect::<Vec<_>>();
        assert_eq!(listed(&by_term), listed(&by_ids));
    }

    #[test]
    fn quoted_over_a_missing_constituent_is_absent_and_interns_nothing() {
        let mut d = Dictionary::new();
        let inner = Term::quoted(Term::iri("s"), Term::iri("p"), Term::iri("o"));
        d.intern(&nested(3, 0));
        d.intern(&inner);
        let len = d.len();
        let absent = Term::iri("absent");
        for term in [
            Term::quoted(Term::iri("s"), Term::iri("p"), absent.clone()),
            Term::quoted(absent.clone(), Term::iri("p"), Term::iri("o")),
            Term::quoted(inner.clone(), absent.clone(), Term::iri("o")),
            Term::quoted(Term::quoted(absent.clone(), Term::iri("p"), Term::iri("o")), Term::iri("p"), inner),
        ] {
            assert_eq!(d.id_of(&term), None, "{term}");
            assert_eq!(d.len(), len);
        }
        assert_eq!(d.id_of(&absent), None);
    }

    #[test]
    fn id_of_iri_matches_id_of() {
        let mut d = Dictionary::new();
        let id = d.intern(&Term::iri("http://kglids.org/resource/x"));
        d.intern(&Term::string("http://kglids.org/resource/x"));
        assert_eq!(d.id_of_iri("http://kglids.org/resource/x"), Some(id));
        assert_eq!(d.id_of_iri("missing"), None);
    }

    #[test]
    fn approx_bytes_tracks_growth() {
        let mut d = Dictionary::new();
        let empty = d.approx_bytes();
        for i in 0..100 {
            d.intern(&Term::iri(format!("http://example.org/term/{i}")));
        }
        assert!(d.approx_bytes() > empty);
    }

    /// A quoted triple allocates its slot and its map entry, nothing more:
    /// its constituents' strings belong to their own entries.
    #[test]
    fn approx_bytes_counts_a_quoted_triple_as_its_slot() {
        let mut d = Dictionary::new();
        // two sealed chunks, so the next entries land in the tail's kept
        // buffer and the map's spare capacity
        let columns: Vec<TermId> = (0..2 * CHUNK - 1)
            .map(|i| {
                let iri = format!("http://kglids.org/resource/lake/dataset_{i}/table.csv/column_{i}");
                d.intern(&Term::iri(iri))
            })
            .collect();
        let sim = d.intern(&Term::iri("http://kglids.org/ontology/data/hasLabelSimilarity"));
        let before = d.approx_bytes();
        for i in 0..1000 {
            d.intern_quoted(columns[i], sim, columns[i + 1000]);
        }
        let grown = d.approx_bytes() - before;
        let bound = 1000 * (std::mem::size_of::<Slot>() + MAP_ENTRY_BYTES) as u64;
        assert!(grown <= bound, "1,000 quoted triples grew approx_bytes by {grown} > {bound}");
    }

    /// The `i`-th term of the layout tests' universe: IRIs, plain and
    /// typed literals, quoted triples and quoted triples quoting those by
    /// turns (a quoted triple also interns its three constituents).
    fn nth(i: usize) -> Term {
        match i % 5 {
            0 => Term::iri(format!("http://example.org/t/{i}")),
            1 => Term::string(format!("value {i}")),
            2 => Term::double(i as f64 + 0.5),
            3 => Term::quoted(
                Term::iri(format!("http://example.org/t/{}", i - 3)),
                Term::iri("http://example.org/similar"),
                Term::iri(format!("http://example.org/q/{i}")),
            ),
            _ => Term::quoted(nth(i - 1), Term::iri("http://example.org/certainty"), nth(i - 2)),
        }
    }

    /// Term chunks of `b` (the tail included) that `a` does not share.
    fn chunks_not_shared(a: &Dictionary, b: &Dictionary) -> usize {
        let sealed = (0..b.full.len())
            .filter(|&i| a.full.get(i).is_none_or(|c| !Arc::ptr_eq(c, &b.full[i])))
            .count();
        sealed + usize::from(!Arc::ptr_eq(&a.tail, &b.tail))
    }

    #[test]
    fn clone_shares_all_but_what_it_interns() {
        let mut original = Dictionary::new();
        let mut i = 0;
        while original.len() < 20 * CHUNK + 100 {
            original.intern(&nth(i));
            i += 1;
        }
        let (len, next) = (original.len(), i);
        let mut clone = original.clone();
        assert_eq!(chunks_not_shared(&original, &clone), 0);

        // k new terms, fewer than the fold threshold: O(k / CHUNK) chunks
        // copied or added, the reverse map's base not touched
        while clone.len() < len + 2 * CHUNK + 50 {
            clone.intern(&nth(i));
            i += 1;
        }
        let k = clone.len() - len;
        assert!(k <= len / FOLD_DIV);
        assert!(chunks_not_shared(&original, &clone) <= k.div_ceil(CHUNK) + 1);
        assert!(Arc::ptr_eq(&original.base, &clone.base));
        assert_eq!(clone.recent.len(), k);

        // past the threshold the clone folds into a base of its own
        while clone.len() <= len + len / FOLD_DIV + 1 {
            clone.intern(&nth(i));
            i += 1;
        }
        assert!(!Arc::ptr_eq(&original.base, &clone.base));
        assert!(clone.recent.is_empty());

        // the original never noticed
        assert_eq!(original.len(), len);
        assert!(original.recent.is_empty());
        let ids: Vec<u32> = original.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, (0..len as u32).collect::<Vec<_>>());
        for j in next..i {
            assert_eq!(original.id_of(&nth(j)), None, "original resolves {:?}", nth(j));
        }
        // and the clone resolves old and new alike, both ways
        assert_eq!(clone.iter().count(), clone.len());
        for j in 0..i {
            let id = clone.id_of(&nth(j)).unwrap();
            assert_eq!(*clone.term(id), nth(j));
            if j < next {
                assert_eq!(original.id_of(&nth(j)), Some(id));
            }
        }
    }

    #[test]
    fn unshared_dictionary_keeps_one_map() {
        let mut d = Dictionary::new();
        for i in 0..3 * CHUNK {
            d.intern(&nth(i));
        }
        assert!(d.recent.is_empty());
        // a clone that is dropped again leaves only stragglers behind, and
        // the next insert absorbs them in place
        let pin = d.clone();
        d.intern(&Term::iri("while-shared"));
        assert_eq!(d.recent.len(), 1);
        let base = Arc::as_ptr(&d.base);
        drop(pin);
        d.intern(&Term::iri("alone-again"));
        assert!(d.recent.is_empty());
        assert_eq!(Arc::as_ptr(&d.base), base);
        assert!(d.id_of(&Term::iri("while-shared")).is_some());
    }

    /// Distinct terms filed under one forced hash (`Bucket::Many`), with
    /// the collision group split between a shared base and `recent`, then
    /// folded.
    #[test]
    fn colliding_hashes_resolve_by_content() {
        const H: u64 = 42;
        let (a, b, c) = (Term::iri("a"), Term::string("a"), Term::iri("c"));
        let intern = |d: &mut Dictionary, term: &Term| d.intern_leaf(H, Cow::Borrowed(term));
        let mut d = Dictionary::new();
        let ia = intern(&mut d, &a);
        let ib = intern(&mut d, &b);
        assert_ne!(ia, ib);
        assert_eq!(intern(&mut d, &a), ia);
        assert_eq!(d.find_term(H, &b), Some(ib));
        assert_eq!(d.find_term(H, &c), None);

        // the base now shared, a third collider lands in `recent`
        let frozen = d.clone();
        let ic = d.intern_leaf(H, Cow::Owned(c.clone()));
        assert!(matches!(d.recent.get(&H), Some(Bucket::One(id)) if *id == ic));
        assert_eq!(intern(&mut d, &c), ic);
        for (term, id) in [(&a, ia), (&b, ib), (&c, ic)] {
            assert_eq!(d.find_term(H, term), Some(id));
        }
        assert_eq!(frozen.find_term(H, &c), None);
        assert_eq!(frozen.find_term(H, &b), Some(ib));

        // unshared again: the straddling group merges into one bucket
        drop(frozen);
        let other = d.intern_leaf(H + 1, Cow::Owned(Term::iri("other")));
        assert!(d.recent.is_empty());
        assert!(matches!(d.base.get(&H), Some(Bucket::Many(ids)) if ids.len() == 3));
        for (term, id) in [(&a, ia), (&b, ib), (&c, ic)] {
            assert_eq!(d.find_term(H, term), Some(id));
            assert_eq!(*d.term(id), *term);
        }
        assert_eq!(d.len(), other.index() + 1);
    }

    /// Reference dictionary: a plain vector and a term-keyed map.
    #[derive(Debug, Clone, Default)]
    struct Model {
        terms: Vec<Term>,
        ids: HashMap<Term, u32>,
    }

    impl Model {
        fn intern(&mut self, term: &Term) -> u32 {
            if let Some(&id) = self.ids.get(term) {
                return id;
            }
            if let Term::Quoted(q) = term {
                self.intern(&q.subject);
                self.intern(&q.predicate);
                self.intern(&q.object);
            }
            let id = self.terms.len() as u32;
            self.terms.push(term.clone());
            self.ids.insert(term.clone(), id);
            id
        }
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// Intern `count` universe terms from `from` on into dictionary `dict`.
        Intern { dict: usize, from: usize, count: usize },
        /// Clone dictionary `dict` (the clone joins the pool).
        Clone { dict: usize },
        /// Drop dictionary `dict`, unsharing whatever it alone shared.
        Drop { dict: usize },
    }

    const UNIVERSE: usize = 6000;

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            4 => (0usize..8, 0..UNIVERSE, 1usize..700)
                .prop_map(|(dict, from, count)| Step::Intern { dict, from, count }),
            2 => (0usize..8).prop_map(|dict| Step::Clone { dict }),
            1 => (0usize..8).prop_map(|dict| Step::Drop { dict }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any interleaving of intern / clone / intern-on-clone / drop —
        /// tail copies, `recent` spills, folds and in-place absorbs
        /// included — leaves every dictionary equal to its own model.
        #[test]
        fn prop_clones_grow_independently(
            steps in proptest::collection::vec(step_strategy(), 1..30),
        ) {
            let mut pool: Vec<(Dictionary, Model)> = vec![Default::default()];
            for step in steps {
                match step {
                    Step::Intern { dict, from, count } => {
                        let slot = dict % pool.len();
                        let (d, m) = &mut pool[slot];
                        for i in from..(from + count).min(UNIVERSE) {
                            prop_assert_eq!(d.intern(&nth(i)).0, m.intern(&nth(i)));
                        }
                    }
                    Step::Clone { dict } => {
                        let copy = pool[dict % pool.len()].clone();
                        pool.push(copy);
                    }
                    Step::Drop { dict } => {
                        if pool.len() > 1 {
                            pool.swap_remove(dict % pool.len());
                        }
                    }
                }
            }
            for (d, m) in &pool {
                prop_assert_eq!(d.len(), m.terms.len());
                prop_assert_eq!(d.is_empty(), m.terms.is_empty());
                let listed: Vec<(u32, Term)> =
                    d.iter().map(|(id, t)| (id.0, t.into_owned())).collect();
                let expected: Vec<(u32, Term)> =
                    m.terms.iter().enumerate().map(|(i, t)| (i as u32, t.clone())).collect();
                prop_assert_eq!(listed, expected);
                for i in 0..UNIVERSE {
                    let term = nth(i);
                    prop_assert_eq!(d.id_of(&term).map(|id| id.0), m.ids.get(&term).copied());
                }
            }
        }

        #[test]
        fn prop_intern_bijection(strings in proptest::collection::vec("[a-z]{1,8}", 1..50)) {
            let mut d = Dictionary::new();
            let ids: Vec<_> = strings.iter().map(|s| d.intern(&Term::iri(s.clone()))).collect();
            for (s, id) in strings.iter().zip(&ids) {
                prop_assert_eq!(d.term(*id).into_owned(), Term::iri(s.clone()));
                prop_assert_eq!(d.id_of(&Term::iri(s.clone())), Some(*id));
                prop_assert_eq!(d.id_of_iri(s), Some(*id));
            }
            let unique: std::collections::HashSet<_> = strings.iter().collect();
            prop_assert_eq!(d.len(), unique.len());
        }
    }
}
