//! Dictionary-encoded quad store: four index orderings, each a sorted run,
//! and a fifth run for RDF-star annotations.
//!
//! # Representation
//!
//! Every ordering (`SPOG`, `POSG`, `OSPG`, `GSPO`) is an immutable *base
//! run* — an `Arc<[[u32; 4]]>` of ascending keys, shared by every snapshot
//! that has not outlived it — plus a small *overlay* of keys added since
//! and tombstones over base keys, both sorted too (`adds ∩ base = ∅`,
//! `dels ⊆ base`, live = `(base ∖ dels) ∪ adds`; the private `run` module
//! keeps the invariants). A read is a cursor over the base slice that
//! consults the overlay once per overlay key; a range count is binary
//! searches; a write merges a sorted batch into the overlay — adding a
//! tombstoned key lifts the tombstone, removing an overlay add drops it,
//! so an add and its removal leave no trace.
//!
//! A quad whose subject is a quoted triple — an *annotation*, in the LiDS
//! graph a similarity edge's `<< a p b >> k:withCertainty v` — lives in
//! none of the four. It is one 24-byte key `[s, p, o, q, v, g]` of a fifth
//! run with the same base, overlay, fold and copy-on-write rules: the
//! quoted triple's constituents, then the quad's predicate, object and
//! graph ([`EncodedAnnotation`]). The triple itself is never interned, an
//! annotation costs one key instead of four plus a dictionary entry, and
//! the annotations of one triple are one seek
//! ([`StoreSnapshot::match_annotations`]). Where a quad lives depends on
//! its subject alone: not on whether its triple is asserted, interned as
//! an object or nested elsewhere, nor on the path it was written by. A
//! quoted triple in object position, or nested inside an annotated one,
//! is a dictionary term. [`StoreSnapshot::len`], `iter`,
//! `contains` and the decoded matchers see both layouts;
//! [`StoreSnapshot::match_ids`], the cursors and the range estimates are
//! the four runs'.
//!
//! # Snapshot isolation
//!
//! All store data — the dictionary and the five runs — lives in an
//! immutable [`StoreSnapshot`] behind an `Arc`. The [`QuadStore`] is a thin
//! *writer handle* over that `Arc`:
//!
//! - Reads go through `Deref<Target = StoreSnapshot>`, so every read
//!   method is callable on both a live store and a detached snapshot.
//! - [`QuadStore::snapshot`] is one `Arc` clone: O(1), no index copy.
//! - Writes go through one `Arc::make_mut` (`QuadStore::write`): with no
//!   snapshot outstanding (refcount 1) they mutate in place; with a
//!   snapshot held, the *first* write clones the snapshot and then mutates
//!   the private clone, so snapshot holders keep reading the frozen
//!   version. Either way the write itself is the same overlay merge. A
//!   write that changes nothing — a duplicate insert, a removal of absent
//!   quads — is recognised on the shared snapshot and copies nothing.
//! - Concurrent serving uses detached [`StoreReader`] handles
//!   ([`QuadStore::reader`]): the writer *publishes* each committed
//!   version into a shared `SnapshotCell` slot at the end of every
//!   mutating call, and readers on other threads pick up the latest
//!   published snapshot with one mutex-guarded `Arc` clone — no lock is
//!   held during query execution, and a superseded snapshot is never freed
//!   under the lock.
//!
//! # What a copy costs, and what a fold costs
//!
//! The clone bumps five base refcounts and copies the overlays plus
//! O(delta) of dictionary (the [`Dictionary`] is append-only and shares
//! its term chunks and its frozen hash map with its clones; see its module
//! docs) — nothing that grows with the lake. Releasing a superseded
//! snapshot frees its overlays, whatever dictionary only it still held,
//! and a base run only when it was the last to share it.
//!
//! What does grow with the lake is paid rarely: at a *publish point* — the
//! end of a mutating call outside a delta, or [`QuadStore::commit_delta`] —
//! an overlay holding more than 1/`FOLD_DIVISOR` of the base's keys is
//! *folded*, each ordering's base and overlay merged into a fresh base in
//! one linear pass; snapshots that share the old base keep it. So is one
//! whose upkeep has outweighed a fold: every write merges past the overlay,
//! and once the writes since the last fold have together passed
//! `FOLD_UPKEEP` × base overlay entries the publish point folds as well. A
//! store that only grows by batches folds once per 1/`FOLD_DIVISOR` of
//! growth, a constant per quad written; one that takes a delta and its
//! inverse by turns folds once in some hundreds of deltas; a loop of point
//! writes folds every ≈ 11·√base of them.
//! [`QuadStore::cow_stats`] counts clones and folds and their seconds.
//!
//! # Writing in id space
//!
//! There is one way a term becomes an id: [`Dictionary::intern`] (and
//! [`Dictionary::id_of`] to ask without interning). [`QuadStore::insert`]
//! and [`QuadStore::extend`] take decoded [`Quad`]s and probe the
//! dictionary once per term occurrence, in `s p o g` order — an
//! annotation's quoted subject is its three constituents — interning on
//! the private copy only what the shared snapshot lacks. An emitter that
//! knows its terms — the similarity-edge emitter names a few thousand
//! column IRIs hundreds of times each — skips even that: it interns each
//! term once through [`QuadStore::intern`] /
//! [`QuadStore::intern_default_graph`], assembles [`EncodedQuad`]s and,
//! for each edge's certainty, an [`EncodedAnnotation`] from the ids it
//! already holds, and loads both with [`QuadStore::extend_encoded`]. Every
//! write path ends in the same private `apply`. A four-id quad whose
//! subject id is an interned quoted triple is routed to the annotation run
//! on the way in, whatever path wrote it. Removal mirrors it: victims
//! collected with [`StoreSnapshot::match_ids`] and
//! [`StoreSnapshot::match_annotations`] go to [`QuadStore::retract_encoded`]
//! without a decode/encode round trip. `TermId`s then follow the emitter's
//! interning order rather than first occurrence in a batch; nothing may
//! depend on either.
//!
//! # Batch your writes
//!
//! A batch of n quads costs O(n log n) to sort plus one pass over the
//! overlay. A single [`QuadStore::insert`] or [`QuadStore::remove`] is a
//! batch of one: it moves the overlay's tail in all four orderings and
//! pays its share of the folds that keep that tail short — O(√n)
//! amortised where a B-tree paid O(log n), about twice a B-tree's point
//! insert at a million quads. Loops over more than a few thousand quads
//! belong in [`QuadStore::extend`] / [`QuadStore::retract`] or their
//! `_encoded` twins (a quarter of the loop's time at that size); calls that
//! should reach readers together go between [`QuadStore::begin_delta`] and
//! [`QuadStore::commit_delta`] — where nothing folds until the commit, so
//! a long loop of point writes inside one delta is O(overlay) each.

use std::borrow::Cow;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lids_exec::{parallel_map_with, ParallelConfig};

use crate::dictionary::{Dictionary, TermId};
use crate::pattern::QuadPattern;
use crate::run::{Key, Run, RunIter, RunKey};
use crate::term::{GraphName, Quad, Term};

/// A quad encoded as four term ids: `[subject, predicate, object, graph]`.
///
/// The graph slot holds the id of the graph IRI term, or the default-graph sentinel
/// for the default graph.
pub type EncodedQuad = [u32; 4];

/// A quad whose subject is a quoted triple — in the LiDS graph, a
/// similarity edge's `<< a p b >> k:withCertainty v` — encoded as six ids:
/// `[s, p, o, q, v, g]`, the quoted triple's constituents, then the
/// quad's predicate, object and graph. The quoted triple itself has no id.
pub type EncodedAnnotation = [u32; 6];

/// A quad pattern over term ids: `None` positions are wildcards.
///
/// This is the fully-resolved form of a [`QuadPattern`] — constants are
/// already dictionary ids, so matching ([`StoreSnapshot::match_ids`]) and
/// cardinality estimation ([`StoreSnapshot::estimate_pattern`]) never touch
/// [`Term`] values. The graph slot holds the id of the graph IRI term
/// (the default graph's sentinel IRI included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodedPattern {
    pub subject: Option<TermId>,
    pub predicate: Option<TermId>,
    pub object: Option<TermId>,
    pub graph: Option<TermId>,
}

impl EncodedPattern {
    /// The all-wildcard pattern.
    pub fn any() -> Self {
        Self::default()
    }

    fn ids(&self) -> [Option<u32>; 4] {
        [
            self.subject.map(|t| t.0),
            self.predicate.map(|t| t.0),
            self.object.map(|t| t.0),
            self.graph.map(|t| t.0),
        ]
    }
}

/// One (index, permuted pattern, ordering) contender for an encoded
/// pattern's scan.
type IndexCandidate<'a> = (&'a Run, [Option<u32>; 4], IndexOrder);

/// A chosen index plus the range bounds for one encoded pattern.
struct ScanPlan<'a> {
    index: &'a Run,
    lo: [u32; 4],
    hi: [u32; 4],
    prefix_len: usize,
    /// Bound positions in index key order, for filtering past the prefix.
    residual: [Option<u32>; 4],
    /// Which of the four orderings was chosen.
    order: IndexOrder,
}

/// One of the four index orderings a [`QuadStore`] maintains.
///
/// Names spell the key order: `Spog` keys are `[s, p, o, g]`, `Posg`
/// keys `[p, o, s, g]`, `Ospg` keys `[o, s, p, g]`, `Gspo` keys
/// `[g, s, p, o]`. [`IndexOrder::key`]/[`IndexOrder::decode`] convert a
/// quad between `[s, p, o, g]` form and the ordering's key form, and
/// [`IndexOrder::positions`] exposes the permutation itself so callers
/// (the vectorized join operators) can place a join key into an index
/// prefix generically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexOrder {
    Spog,
    Posg,
    Ospg,
    Gspo,
}

impl IndexOrder {
    /// All four orderings, in declaration order.
    pub const ALL: [IndexOrder; 4] = [
        IndexOrder::Spog,
        IndexOrder::Posg,
        IndexOrder::Ospg,
        IndexOrder::Gspo,
    ];

    /// `positions()[i]` is the `[s, p, o, g]` slot stored at key
    /// position `i` of this ordering.
    pub const fn positions(self) -> [usize; 4] {
        match self {
            IndexOrder::Spog => [0, 1, 2, 3],
            IndexOrder::Posg => [1, 2, 0, 3],
            IndexOrder::Ospg => [2, 0, 1, 3],
            IndexOrder::Gspo => [3, 0, 1, 2],
        }
    }

    /// Permute a quad `[s, p, o, g]` into this ordering's key form.
    pub fn key(self, quad: EncodedQuad) -> [u32; 4] {
        let pos = self.positions();
        [quad[pos[0]], quad[pos[1]], quad[pos[2]], quad[pos[3]]]
    }

    /// Permute an index key back to `[s, p, o, g]`.
    pub fn decode(self, key: [u32; 4]) -> EncodedQuad {
        let pos = self.positions();
        let mut quad = [0u32; 4];
        for (i, &p) in pos.iter().enumerate() {
            quad[p] = key[i];
        }
        quad
    }
}

/// How many cursor operations pass between loads of an attached
/// interrupt flag — cheap enough to leave on, responsive enough that a
/// cancelled query stops scanning within a few dozen keys.
const INTERRUPT_STRIDE: u32 = 64;

/// The overlay is folded into the base at a publish point once it holds
/// more than `1 / FOLD_DIVISOR` of the base's keys, or once the writes since
/// the last fold have together merged past `FOLD_UPKEEP` times the base's
/// keys in overlay entries. Measured, not tuned per deployment: see
/// DESIGN.md ("When the overlay folds") for both sweeps.
const FOLD_DIVISOR: usize = 8;
const FOLD_UPKEEP: usize = 64;

/// Ceiling on what a cardinality estimate reports; see
/// [`StoreSnapshot::estimate_pattern_exact`].
const ESTIMATE_WALK_CAP: usize = 4096;

/// A forward-only, seekable cursor over one sorted index run.
///
/// Obtained from [`StoreSnapshot::run_cursor`]; yields raw index keys in the
/// chosen [`IndexOrder`] (use [`IndexOrder::decode`] to recover
/// `[s, p, o, g]`). [`RunCursor::seek_ge`] skips ahead by doubling steps and
/// a binary search inside the last one, so sort-merge consumers pay
/// O(log d) for a target d keys away — near O(1) on the correlated runs
/// merge joins walk. Seeking backwards is a no-op: the cursor never moves
/// left.
///
/// A cursor may carry an interrupt flag
/// ([`RunCursor::with_interrupt`]): once the flag flips, the cursor
/// reports itself exhausted within `INTERRUPT_STRIDE` operations, so a
/// cancelled or over-deadline query stops galloping without the caller
/// reaching a batch-boundary check first. The caller is responsible for
/// turning the early exhaustion into a typed error.
pub struct RunCursor<'a> {
    /// The keys after `current`.
    rest: RunIter<'a>,
    current: Option<Key>,
    interrupt: Option<Arc<AtomicBool>>,
    ops: u32,
}

impl<'a> RunCursor<'a> {
    fn new(run: &'a Run) -> Self {
        let mut rest = run.iter();
        let current = rest.next();
        RunCursor { rest, current, interrupt: None, ops: 0 }
    }

    /// Attach a cooperative interrupt flag (see the type docs).
    pub fn with_interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// Strided interrupt probe; exhausts the cursor when the flag is set.
    fn interrupted(&mut self) -> bool {
        let Some(flag) = &self.interrupt else {
            return false;
        };
        self.ops = self.ops.wrapping_add(1);
        if self.ops.is_multiple_of(INTERRUPT_STRIDE) && flag.load(Ordering::Relaxed) {
            self.current = None;
            return true;
        }
        false
    }

    /// The key the cursor is positioned on, or `None` once exhausted.
    pub fn current(&self) -> Option<[u32; 4]> {
        self.current
    }

    /// Move to the next key in the run.
    pub fn advance(&mut self) {
        if self.interrupted() {
            return;
        }
        self.current = self.rest.next();
    }

    /// Position the cursor on the first key `>= target` at or after the
    /// current position (never moves backwards).
    pub fn seek_ge(&mut self, target: [u32; 4]) {
        if self.interrupted() {
            return;
        }
        if self.current.is_some_and(|cur| cur < target) {
            self.rest.skip_to(&target);
            self.current = self.rest.next();
        }
    }
}

/// One immutable version of the store: the dictionary and the four index
/// orderings, each a sorted run of the quad's ids permuted so a range scan
/// over a bound prefix enumerates matches:
/// - `Spog`: subject-bound scans and full scans
/// - `Posg`: predicate(+object)-bound scans — the workhorse for `?x rdf:type C`
/// - `Ospg`: object-bound scans — reverse traversal
/// - `Gspo`: graph-scoped scans — per-pipeline named-graph queries
///
/// plus the annotation run, keyed `[s, p, o, q, v, g]` (module docs).
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    dict: Dictionary,
    /// Indexed by `IndexOrder as usize`; all four hold the same quads,
    /// none of them with a quoted-triple subject.
    runs: [Run; 4],
    /// Every quad whose subject is a quoted triple, and nothing else.
    notes: Run<EncodedAnnotation>,
    /// Live annotations per predicate id, ascending: a scan asks this
    /// before it looks at `notes`.
    note_predicates: Vec<(u32, usize)>,
    /// Process-unique identity, so caches keyed on a store never confuse
    /// two stores that happen to share an address. Shared by every
    /// snapshot of one store lineage.
    id: u64,
    /// Bumped on every mutation; `(id, generation)` validates any state
    /// derived from a snapshot of this store (compiled query plans).
    generation: u64,
}

/// Mutex-guarded slot the writer publishes committed snapshots into and
/// detached [`StoreReader`]s load from. The lock is held only for the
/// duration of one `Arc` clone or store — never across query execution.
///
/// The slot is empty whenever no reader handle exists: the writer skips
/// publication then, which both reclaims superseded snapshots promptly
/// and keeps the copy-on-write path cold for single-threaded use.
#[derive(Debug)]
struct SnapshotCell {
    slot: Mutex<Option<Arc<StoreSnapshot>>>,
}

impl SnapshotCell {
    fn load(&self) -> Option<Arc<StoreSnapshot>> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn store(&self, snap: Option<Arc<StoreSnapshot>>) {
        let superseded = {
            let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::replace(&mut *slot, snap)
        };
        // Freed, when this was its last reference, with the lock released:
        // no reader's `load` waits on a deallocation.
        drop(superseded);
    }
}

/// A detached read handle onto a [`QuadStore`], safe to move to other
/// threads while the owning store keeps mutating.
///
/// [`StoreReader::snapshot`] returns the latest snapshot the writer
/// *published* — every mutating [`QuadStore`] call publishes its result
/// before returning, so a reader observes exactly the sequence of
/// committed store states, never a half-applied batch. Cloning a reader
/// is cheap and yields an equivalent handle.
#[derive(Debug, Clone)]
pub struct StoreReader {
    cell: Arc<SnapshotCell>,
}

impl StoreReader {
    /// The latest published snapshot: one mutex-guarded `Arc` clone.
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        match self.cell.load() {
            Some(snap) => snap,
            // The writer only empties the cell when no reader handle
            // exists, and `QuadStore::reader` fills it before handing
            // the cell out.
            None => unreachable!("snapshot cell empty while a StoreReader exists"),
        }
    }
}

/// Writer handle over the store's current [`StoreSnapshot`].
///
/// Derefs to [`StoreSnapshot`], so all read methods are available
/// directly; mutating methods copy-on-write when a snapshot is shared
/// (see the module docs for the full protocol).
#[derive(Debug)]
pub struct QuadStore {
    snap: Arc<StoreSnapshot>,
    published: Arc<SnapshotCell>,
    /// `Some(base_generation)` while a delta is open
    /// ([`QuadStore::begin_delta`]): publication is suppressed and the
    /// commit collapses all interim generation bumps to `base + 1`.
    delta: Option<u64>,
    /// Overlay entries the writes since the last fold had to merge past,
    /// summed: what keeping the overlay has cost, against what a fold would.
    shifted: usize,
    cow: CowStats,
}

/// What keeping readers isolated has cost a [`QuadStore`] so far: how
/// many writes found their snapshot shared and had to copy it first (the
/// four overlays plus O(delta) of dictionary) with the seconds those
/// copies took, and how many publish points folded the overlay into fresh
/// base runs with the seconds of those passes. Freeing what either
/// supersedes falls to whoever drops it last and is not counted here.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CowStats {
    pub clones: u64,
    pub secs: f64,
    pub folds: u64,
    pub fold_secs: f64,
}

impl Deref for QuadStore {
    type Target = StoreSnapshot;

    fn deref(&self) -> &StoreSnapshot {
        &self.snap
    }
}

impl Default for QuadStore {
    fn default() -> Self {
        static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);
        QuadStore {
            snap: Arc::new(StoreSnapshot {
                dict: Dictionary::default(),
                runs: Default::default(),
                notes: Run::default(),
                note_predicates: Vec::new(),
                id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
                generation: 0,
            }),
            published: Arc::new(SnapshotCell { slot: Mutex::new(None) }),
            delta: None,
            shifted: 0,
            cow: CowStats::default(),
        }
    }
}

/// Sentinel graph IRI used internally for the default graph.
const DEFAULT_GRAPH_IRI: &str = "urn:lids:default-graph";

impl StoreSnapshot {
    /// Number of quads in the store, annotations included.
    pub fn len(&self) -> usize {
        self.run(IndexOrder::Spog).len() + self.notes.len()
    }

    /// True when the store holds no quads.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overlay entries (adds plus tombstones) not yet folded into the
    /// base runs: what the next copy-on-write clone copies per ordering,
    /// plus the annotation run's.
    pub fn overlay_len(&self) -> usize {
        self.run(IndexOrder::Spog).overlay_len() + self.notes.overlay_len()
    }

    fn run(&self, order: IndexOrder) -> &Run {
        &self.runs[order as usize]
    }

    /// Number of distinct interned terms (≈ distinct nodes + literals).
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// Access the dictionary (read-only).
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Process-unique store identity (stable for the store's lifetime).
    pub fn store_id(&self) -> u64 {
        self.id
    }

    /// Mutation counter: any insert/remove/bulk-load bumps it, so
    /// `(store_id, generation)` keys cached state derived from the store
    /// — a compiled query plan is valid exactly while the pair matches.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The IRI whose id fills the graph slot of a quad in `graph`.
    fn graph_iri(graph: &GraphName) -> &str {
        match graph {
            GraphName::Default => DEFAULT_GRAPH_IRI,
            GraphName::Named(iri) => iri,
        }
    }

    fn graph_of(&self, id: TermId) -> GraphName {
        match &*self.dict.term(id) {
            Term::Iri(iri) if iri == DEFAULT_GRAPH_IRI => GraphName::Default,
            Term::Iri(iri) => GraphName::Named(iri.clone()),
            other => panic!("graph slot held non-IRI term {other:?}"),
        }
    }

    /// True when every id of every row names a term of this dictionary.
    fn ids_in_range<const N: usize>(&self, encoded: &[[u32; N]]) -> bool {
        let terms = self.dict.len() as u32;
        encoded.iter().all(|q| q.iter().all(|&id| id < terms))
    }

    /// Move every quad whose subject id is a quoted triple into `notes`,
    /// as an annotation over the triple's constituents: where a quad is
    /// stored never depends on how it was written.
    fn route(&self, quads: &mut Vec<EncodedQuad>, notes: &mut Vec<EncodedAnnotation>) {
        quads.retain(|&[s, p, o, g]| match self.dict.quoted(TermId(s)) {
            Some([a, b, c]) => {
                notes.push([a.0, b.0, c.0, p, o, g]);
                false
            }
            None => true,
        });
    }

    /// Worker count for a batch of `n` quads: one thread per ~2k quads,
    /// capped at available parallelism. Small batches get 1 (fully serial —
    /// `parallel_map_with` spawns nothing for a single thread) without
    /// asking: the parallelism query reads cgroup files, and a point write
    /// is a batch of one.
    fn ingest_threads(n: usize) -> usize {
        const SHARD_MIN: usize = 2048;
        if n < 2 * SHARD_MIN {
            return 1;
        }
        ParallelConfig::default().threads.min(n / SHARD_MIN)
    }

    /// Apply a [`split`] of quads to the four overlays and one of
    /// annotations to the annotation run. The quads arrive ascending in
    /// SPOG order; the other three orderings permute and sort them (in
    /// parallel for a large batch) — the base runs are never consulted
    /// again, so the write costs O(batch + overlay).
    fn shift(
        &mut self,
        adding: bool,
        quads: Halves<Key>,
        notes: Halves<EncodedAnnotation>,
        threads: usize,
    ) {
        self.generation += 1;
        for note in notes.0.iter().chain(&notes.1) {
            let counts = &mut self.note_predicates;
            match counts.binary_search_by_key(&note[3], |&(q, _)| q) {
                Ok(i) if adding => counts[i].1 += 1,
                Ok(i) if counts[i].1 > 1 => counts[i].1 -= 1,
                Ok(i) => _ = counts.remove(i),
                Err(i) => counts.insert(i, (note[3], 1)),
            }
        }
        self.notes.shift(adding, &notes.0, &notes.1);
        let (join, leave) = quads;
        let permuted = |order: IndexOrder, keys: &[Key]| {
            let mut run: Vec<Key> = keys.iter().map(|&quad| order.key(quad)).collect();
            run.sort_unstable();
            run
        };
        let halves: Vec<(Vec<Key>, Vec<Key>)> = parallel_map_with(
            ParallelConfig { threads: threads.min(3), chunk: 1 },
            &IndexOrder::ALL[1..],
            |&order| (permuted(order, &join), permuted(order, &leave)),
        );
        self.runs[0].shift(adding, &join, &leave);
        for (run, (join, leave)) in self.runs[1..].iter_mut().zip(&halves) {
            run.shift(adding, join, leave);
        }
    }

    /// Check that every run keeps its invariants (ascending, adds outside
    /// the base, tombstones inside it) and that the four orderings hold
    /// the same quads, none with a quoted subject, and that the
    /// annotation run's predicate counts add up. Test and debug aid.
    pub fn validate_indexes(&self) -> bool {
        let spog = self.run(IndexOrder::Spog);
        let mut counts = std::collections::BTreeMap::new();
        for [.., q, _, _] in self.notes.iter() {
            *counts.entry(q).or_insert(0) += 1;
        }
        self.notes.is_consistent()
            && counts.into_iter().eq(self.note_predicates.iter().copied())
            && spog.iter().all(|[s, ..]| self.dict.quoted(TermId(s)).is_none())
            && self.runs.iter().all(|run| run.is_consistent() && run.len() == spog.len())
            && spog.iter().all(|quad| {
                IndexOrder::ALL[1..].iter().all(|&order| self.run(order).contains(&order.key(quad)))
            })
    }

    /// `quad` as an annotation's ids, when its subject is a quoted triple;
    /// `None` otherwise or when it names a term the dictionary has never
    /// seen.
    pub fn encode_annotation(&self, quad: &Quad) -> Option<EncodedAnnotation> {
        let Term::Quoted(t) = &quad.subject else {
            return None;
        };
        let id = |term: &Term| self.dict.id_of(term).map(|id| id.0);
        let [s, p, o] = [id(&t.subject)?, id(&t.predicate)?, id(&t.object)?];
        Some([s, p, o, id(&quad.predicate)?, id(&quad.object)?, self.graph_id(&quad.graph)?.0])
    }

    /// The quad an annotation of this store stands for. Panics on a
    /// foreign id.
    pub fn decode_annotation(&self, [s, p, o, q, v, g]: EncodedAnnotation) -> Quad {
        let [s, p, o] = [s, p, o].map(|id| self.dict.term(TermId(id)).into_owned());
        Quad { subject: Term::quoted(s, p, o), ..self.decode_quad([0, q, v, g]) }
    }

    /// The batch as ids in the layout each quad is stored in: four-id
    /// quads, and annotations. A quad naming a term the dictionary has
    /// never seen cannot be present and is left out.
    fn encode_all<'q>(
        &self,
        quads: impl IntoIterator<Item = &'q Quad>,
    ) -> (Vec<EncodedQuad>, Vec<EncodedAnnotation>) {
        let (mut plain, mut notes) = (Vec::new(), Vec::new());
        for quad in quads {
            match quad.subject {
                Term::Quoted(_) => notes.extend(self.encode_annotation(quad)),
                _ => plain.extend(self.encode_quad(quad)),
            }
        }
        (plain, notes)
    }

    /// `quad` as ids. `None` when it names a term the dictionary has never
    /// seen — such a quad cannot be in the store.
    pub fn encode_quad(&self, quad: &Quad) -> Option<EncodedQuad> {
        let s = self.dict.id_of(&quad.subject)?;
        let p = self.dict.id_of(&quad.predicate)?;
        let o = self.dict.id_of(&quad.object)?;
        let g = self.graph_id(&quad.graph)?;
        Some([s.0, p.0, o.0, g.0])
    }

    /// The quad an id tuple of this store stands for. Panics on a foreign
    /// id.
    pub fn decode_quad(&self, [s, p, o, g]: EncodedQuad) -> Quad {
        Quad {
            subject: self.dict.term(TermId(s)).into_owned(),
            predicate: self.dict.term(TermId(p)).into_owned(),
            object: self.dict.term(TermId(o)).into_owned(),
            graph: self.graph_of(TermId(g)),
        }
    }

    /// True when the quad is present.
    pub fn contains(&self, quad: &Quad) -> bool {
        if let Term::Quoted(_) = quad.subject {
            return self.encode_annotation(quad).is_some_and(|key| self.notes.contains(&key));
        }
        self.encode_quad(quad).is_some_and(|key| self.run(IndexOrder::Spog).contains(&key))
    }

    /// Resolve a term id (delegates to [`Dictionary::term`]: borrowed,
    /// except a quoted triple, which is built on demand).
    pub fn term(&self, id: TermId) -> Cow<'_, Term> {
        self.dict.term(id)
    }

    /// Id of a term if it is interned.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.dict.id_of(term)
    }

    /// Encode a decoded pattern's constants to ids. Returns `None` when a
    /// bound term is not interned — such a pattern matches nothing.
    pub fn encode_pattern(&self, pattern: &QuadPattern) -> Option<EncodedPattern> {
        let resolve = |t: &Option<Term>| match t {
            None => Some(None),
            Some(t) => self.dict.id_of(t).map(Some),
        };
        Some(EncodedPattern {
            subject: resolve(&pattern.subject)?,
            predicate: resolve(&pattern.predicate)?,
            object: resolve(&pattern.object)?,
            graph: match &pattern.graph {
                None => None,
                Some(g) => Some(self.graph_id(g)?),
            },
        })
    }

    /// Id of the sentinel IRI standing in for the default graph, if any
    /// default-graph quad has been inserted.
    pub fn default_graph_id(&self) -> Option<TermId> {
        self.dict.id_of_iri(DEFAULT_GRAPH_IRI)
    }

    /// Id a [`GraphName`] occupies in the graph slot, if interned.
    pub fn graph_id(&self, graph: &GraphName) -> Option<TermId> {
        self.dict.id_of_iri(Self::graph_iri(graph))
    }

    /// The four (index, permuted pattern, ordering) candidates for a
    /// pattern's ids in `[s, p, o, g]` order.
    fn candidates(&self, ids: [Option<u32>; 4]) -> [IndexCandidate<'_>; 4] {
        IndexOrder::ALL.map(|order| (self.run(order), order.positions().map(|p| ids[p]), order))
    }

    /// Pick the index with the longest bound prefix for `ids` (in
    /// `[s, p, o, g]` order) and compute its range bounds.
    ///
    /// Equal-length prefixes (e.g. a `(p, g)` pattern reaches prefix 1 in
    /// both posg and gspo) are tie-broken by range size, counted up to
    /// `TIE_SCAN_CAP` entries: the smallest wins, so a selective object
    /// bound beats an unselective subject bound instead of falling back
    /// to declaration order.
    fn plan(&self, ids: [Option<u32>; 4]) -> ScanPlan<'_> {
        let candidates = self.candidates(ids);
        let prefix = |key: &[Option<u32>; 4]| key.iter().take_while(|b| b.is_some()).count();
        let lens = [
            prefix(&candidates[0].1),
            prefix(&candidates[1].1),
            prefix(&candidates[2].1),
            prefix(&candidates[3].1),
        ];
        let best_len = lens.iter().copied().max().unwrap_or(0);
        let mut best = lens.iter().position(|&l| l == best_len).unwrap_or(0);
        let contenders = lens.iter().filter(|&&l| l == best_len).count();
        // With 0 bound positions every index is a full scan, and with all 4
        // bound every range is a membership probe — only partial prefixes
        // are worth the comparison.
        if contenders > 1 && best_len > 0 && best_len < 4 {
            const TIE_SCAN_CAP: usize = 64;
            let mut best_count = usize::MAX;
            for (i, (index, key, _)) in candidates.iter().enumerate() {
                if lens[i] != best_len {
                    continue;
                }
                let (lo, hi) = Self::range_bounds(key, best_len);
                let count = index.count(&lo, &hi).min(TIE_SCAN_CAP);
                if count < best_count {
                    best_count = count;
                    best = i;
                }
            }
        }
        let (index, key, order) = candidates[best];
        let (lo, hi) = Self::range_bounds(&key, best_len);
        ScanPlan { index, lo, hi, prefix_len: best_len, residual: key, order }
    }

    /// A seekable forward cursor over one index ordering's sorted run.
    pub fn run_cursor(&self, order: IndexOrder) -> RunCursor<'_> {
        RunCursor::new(self.run(order))
    }

    fn range_bounds(key: &[Option<u32>; 4], prefix_len: usize) -> ([u32; 4], [u32; 4]) {
        let mut lo = [0u32; 4];
        let mut hi = [u32::MAX; 4];
        // prefix_len counts the leading bound positions, so the take()'d
        // entries are all Some
        for (i, bound) in key.iter().take(prefix_len).enumerate() {
            if let Some(v) = bound {
                lo[i] = *v;
                hi[i] = *v;
            }
        }
        (lo, hi)
    }

    /// Match an id-level pattern, returning encoded quads `[s, p, o, g]`.
    ///
    /// Pure id-domain scan: chooses the index whose key order puts the
    /// bound positions first, range-scans it, and filters any bound
    /// positions that fall outside the prefix. No term decoding happens.
    /// Annotations are not four-id quads and are not among the matches:
    /// [`StoreSnapshot::match_annotations`] scans them.
    pub fn match_ids<'a>(
        &'a self,
        pattern: &EncodedPattern,
    ) -> impl Iterator<Item = EncodedQuad> + 'a {
        let ScanPlan { index, lo, hi, prefix_len, residual, order } = self.plan(pattern.ids());
        index
            .range(&lo, &hi)
            .filter(move |k| {
                residual
                    .iter()
                    .enumerate()
                    .skip(prefix_len)
                    .all(|(i, b)| b.is_none_or(|v| k[i] == v))
            })
            .map(move |k| order.decode(k))
    }

    /// Cardinality estimate for an id-level pattern: the number of index
    /// entries inside the best index range. See
    /// [`StoreSnapshot::estimate_pattern_exact`] for the exactness contract.
    pub fn estimate_pattern(&self, pattern: &EncodedPattern) -> usize {
        self.estimate_pattern_exact(pattern).0
    }

    /// Cardinality estimate plus whether it is exact.
    ///
    /// When some index ordering's key prefix covers *every* bound
    /// position, the range size counts exactly the matching quads — the
    /// sorted runs are duplicate-free, so the count is returned with
    /// `exact = true`. The four orderings guarantee this for any single
    /// bound position, any bound `(p,o)`/`(s,p)`/`(o,s)`/`(g,s)` pair,
    /// `(s,p,o)` triples, and fully-bound patterns.
    ///
    /// Otherwise every ordering leaves some bound position outside its
    /// prefix; the estimate is the *minimum* range size over the
    /// longest-prefix contenders — an upper bound (`exact = false`),
    /// since residual positions are not filtered. Taking the minimum
    /// over range counts replaces the previous single-range count,
    /// whose capped tie-break probe could settle on a far larger range.
    ///
    /// A range count is binary searches over the run, whatever its size,
    /// but estimates stay capped at `ESTIMATE_WALK_CAP` — the contract the
    /// join orderer's plans were settled under, from when a count was a
    /// bounded walk: a range at least that large reports the cap with
    /// `exact = false` — at that magnitude the join orderer only needs
    /// "huge", not the digits. The all-wildcard pattern answers from the
    /// runs' length directly. Like [`StoreSnapshot::match_ids`], this
    /// counts the four runs only: see
    /// [`StoreSnapshot::estimate_annotations`] for the rest.
    pub fn estimate_pattern_exact(&self, pattern: &EncodedPattern) -> (usize, bool) {
        let ids = pattern.ids();
        let bound = ids.iter().filter(|b| b.is_some()).count();
        if bound == 0 {
            return (self.run(IndexOrder::Spog).len(), true);
        }
        let capped_count =
            |index: &Run, lo: Key, hi: Key| index.count(&lo, &hi).min(ESTIMATE_WALK_CAP);
        let candidates = self.candidates(ids);
        let prefix = |key: &[Option<u32>; 4]| key.iter().take_while(|b| b.is_some()).count();
        // exact pass: a prefix covering all bound positions counts the
        // true cardinality (any covering ordering gives the same number)
        for (index, key, _) in &candidates {
            if prefix(key) == bound {
                let (lo, hi) = Self::range_bounds(key, bound);
                let count = capped_count(index, lo, hi);
                return (count, count < ESTIMATE_WALK_CAP);
            }
        }
        // no covering prefix: tightest upper bound among the contenders
        let best_len = candidates.iter().map(|(_, key, _)| prefix(key)).max().unwrap_or(0);
        let mut best = usize::MAX;
        for (index, key, _) in &candidates {
            if prefix(key) != best_len {
                continue;
            }
            let (lo, hi) = Self::range_bounds(key, best_len);
            best = best.min(capped_count(index, lo, hi));
        }
        (best, false)
    }

    /// Match a pattern, returning encoded quads `[s, p, o, g]`.
    ///
    /// Resolves the pattern's constant terms to ids (an unresolvable bound
    /// term matches nothing) and delegates to [`StoreSnapshot::match_ids`].
    pub fn match_encoded<'a>(
        &'a self,
        pattern: &QuadPattern,
    ) -> Box<dyn Iterator<Item = EncodedQuad> + 'a> {
        match self.encode_pattern(pattern) {
            Some(encoded) => Box::new(self.match_ids(&encoded)),
            None => Box::new(std::iter::empty()),
        }
    }

    /// Match a pattern, returning decoded [`Quad`]s.
    pub fn match_pattern<'a>(
        &'a self,
        pattern: &QuadPattern,
    ) -> impl Iterator<Item = Quad> + 'a {
        let notes = self.annotation_pattern(pattern).into_iter();
        let notes = notes.flat_map(move |ids| self.match_annotations(ids));
        self.match_encoded(pattern)
            .map(move |quad| self.decode_quad(quad))
            .chain(notes.map(move |note| self.decode_annotation(note)))
    }

    /// A decoded pattern's constants as annotation ids, `[s, p, o, q, v,
    /// g]`; `None` when no annotation can match it.
    fn annotation_pattern(&self, pattern: &QuadPattern) -> Option<[Option<u32>; 6]> {
        let id = |term: Option<&Term>| match term {
            None => Some(None),
            Some(term) => self.dict.id_of(term).map(|id| Some(id.0)),
        };
        let [s, p, o] = match &pattern.subject {
            None => [None; 3],
            Some(Term::Quoted(t)) => {
                [id(Some(&t.subject))?, id(Some(&t.predicate))?, id(Some(&t.object))?]
            }
            Some(_) => return None,
        };
        let g = match &pattern.graph {
            None => None,
            Some(graph) => Some(self.graph_id(graph)?.0),
        };
        let q = id(pattern.predicate.as_ref())?;
        // a predicate no annotation carries spares the walk
        if q.is_some_and(|q| self.estimate_annotations(Some(TermId(q))) == 0) {
            return None;
        }
        Some([s, p, o, q, id(pattern.object.as_ref())?, g])
    }

    /// Annotations matching ids in `[s, p, o, q, v, g]` order (`None` a
    /// wildcard): a range over the bound prefix, the rest filtered per
    /// key. With the quoted triple's constituents bound, one seek.
    pub fn match_annotations(
        &self,
        pattern: [Option<u32>; 6],
    ) -> impl Iterator<Item = EncodedAnnotation> + '_ {
        let prefix = pattern.iter().take_while(|id| id.is_some()).count();
        let (mut lo, mut hi) = ([0; 6], [u32::MAX; 6]);
        for (i, &id) in pattern.iter().take(prefix).flatten().enumerate() {
            (lo[i], hi[i]) = (id, id);
        }
        self.notes.range(&lo, &hi).filter(move |key| {
            pattern.iter().zip(key).skip(prefix).all(|(id, k)| id.is_none_or(|id| id == *k))
        })
    }

    /// Live annotations whose predicate is `predicate` (all of them for
    /// `None`), capped like [`StoreSnapshot::estimate_pattern`]. Zero is
    /// exact: a scan with that predicate can skip the annotation run.
    pub fn estimate_annotations(&self, predicate: Option<TermId>) -> usize {
        let count = match predicate {
            None => self.notes.len(),
            Some(p) => self.note_predicates.iter().find(|&&(q, _)| q == p.0).map_or(0, |&(_, n)| n),
        };
        count.min(ESTIMATE_WALK_CAP)
    }

    /// All quads in the store.
    pub fn iter(&self) -> impl Iterator<Item = Quad> + '_ {
        self.match_pattern(&QuadPattern::any())
    }

    /// Distinct named graphs in the store.
    ///
    /// Skip-scans gspo: after reading one graph id it range-jumps to the
    /// first key of the next graph, so the cost is O(#graphs · log n)
    /// rather than a walk over every index entry — plus one walk over the
    /// annotation run.
    pub fn named_graphs(&self) -> Vec<String> {
        let mut ids: Vec<u32> = Vec::new();
        for [.., g] in self.notes.iter() {
            if !ids.contains(&g) {
                ids.push(g);
            }
        }
        let mut cursor = self.run_cursor(IndexOrder::Gspo);
        while let Some([gid, ..]) = cursor.current() {
            ids.push(gid);
            let Some(next) = gid.checked_add(1) else {
                break;
            };
            cursor.seek_ge([next, 0, 0, 0]);
        }
        ids.sort_unstable();
        ids.dedup();
        let graphs = ids.into_iter().map(|gid| self.graph_of(TermId(gid)));
        graphs.filter_map(|graph| match graph {
            GraphName::Named(g) => Some(g),
            GraphName::Default => None,
        })
        .collect()
    }

    /// Approximate footprint in bytes: the runs as they are (base plus
    /// overlay, four orderings) and the dictionary.
    pub fn approx_bytes(&self) -> u64 {
        let runs = self.runs.iter().map(Run::bytes).sum::<u64>() + self.notes.bytes();
        runs + self.dict.approx_bytes()
    }
}

impl QuadStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// The store's current state as an immutable snapshot: one `Arc`
    /// clone, no index copy. The snapshot stays frozen while the store
    /// keeps mutating (the first write after acquisition clones the
    /// overlays, not the base runs; see the module docs).
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        Arc::clone(&self.snap)
    }

    /// The private copy every mutation writes to: the current snapshot in
    /// place when nobody else holds it, a clone of it (counted in
    /// [`QuadStore::cow_stats`]) when a reader does. Mutators call this
    /// only once they know the write changes something, so a no-op never
    /// pays the clone or bumps the generation.
    fn write(&mut self) -> &mut StoreSnapshot {
        // The last reader handle may have gone since the last publication
        // (a server over this store shut down): what it left in the slot
        // pins the current snapshot for nobody, and would cost a copy.
        if Arc::strong_count(&self.snap) > 1 && Arc::strong_count(&self.published) == 1 {
            self.published.store(None);
        }
        if Arc::strong_count(&self.snap) == 1 {
            return Arc::make_mut(&mut self.snap);
        }
        let t = Instant::now();
        let snap = Arc::make_mut(&mut self.snap);
        self.cow.clones += 1;
        self.cow.secs += t.elapsed().as_secs_f64();
        snap
    }

    /// Copy-on-write clones and overlay folds this store has paid since it
    /// was created.
    pub fn cow_stats(&self) -> CowStats {
        self.cow
    }

    /// A detached read handle that tracks this store across future
    /// mutations, safe to hand to other threads. Creating (or keeping)
    /// a reader switches the writer into publish mode: every mutating
    /// call ends by publishing its committed snapshot, and the first
    /// write after a publication clones the snapshot's overlays.
    pub fn reader(&self) -> StoreReader {
        self.published.store(Some(Arc::clone(&self.snap)));
        StoreReader { cell: Arc::clone(&self.published) }
    }

    /// A publish point: fold the overlay if it has outgrown its share of
    /// the base or cost more upkeep than the fold would, then publish the
    /// current snapshot for detached readers. With no reader
    /// handle alive, empties the slot instead — superseded snapshots are
    /// reclaimed and the next write stays copy-free.
    fn publish(&mut self) {
        // Only a snapshot this writer holds alone can have changed since
        // the last publish point; a shared one was judged there.
        if let Some(snap) = Arc::get_mut(&mut self.snap) {
            let base = snap.run(IndexOrder::Spog).base_len() + snap.notes.base_len();
            let overlay = snap.overlay_len();
            let upkeep = overlay > 0 && self.shifted > base * FOLD_UPKEEP;
            if overlay * FOLD_DIVISOR > base || upkeep {
                let t = Instant::now();
                if snap.run(IndexOrder::Spog).overlay_len() > 0 {
                    for run in &mut snap.runs {
                        *run = run.folded();
                    }
                }
                if snap.notes.overlay_len() > 0 {
                    snap.notes = snap.notes.folded();
                }
                self.shifted = 0;
                self.cow.folds += 1;
                self.cow.fold_secs += t.elapsed().as_secs_f64();
            }
        }
        let readers = Arc::strong_count(&self.published) > 1;
        self.published.store(readers.then(|| Arc::clone(&self.snap)));
    }

    /// Publication gate every mutator goes through: while a delta is
    /// open, committed-but-unpublished states stay private to the writer
    /// so detached readers see whole deltas or nothing.
    fn maybe_publish(&mut self) {
        self.shifted += self.snap.overlay_len();
        if self.delta.is_none() {
            self.publish();
        }
    }

    /// Open a delta: suppress snapshot publication until
    /// [`QuadStore::commit_delta`], so any number of mutating calls land
    /// on detached readers as one atomic batch. Panics on nested deltas.
    pub fn begin_delta(&mut self) {
        assert!(self.delta.is_none(), "begin_delta: delta already open");
        self.delta = Some(self.snap.generation);
    }

    /// True while a delta opened by [`QuadStore::begin_delta`] is
    /// uncommitted.
    pub fn delta_open(&self) -> bool {
        self.delta.is_some()
    }

    /// Commit the open delta: collapse every interim generation bump to
    /// exactly `base + 1` (so `(store_id, generation)`-keyed caches are
    /// invalidated once per delta, not once per internal batch) and
    /// publish the result as one snapshot. A delta that mutated nothing
    /// leaves the generation untouched. No-op when no delta is open.
    pub fn commit_delta(&mut self) {
        let Some(base) = self.delta.take() else {
            return;
        };
        if self.snap.generation != base {
            self.write().generation = base + 1;
        }
        self.publish();
    }

    /// Insert a quad. Returns `true` when it was not already present.
    pub fn insert(&mut self, quad: &Quad) -> bool {
        let (mut quads, mut notes) = (Vec::new(), Vec::new());
        self.resolve(quad, &mut quads, &mut notes);
        self.apply(quads, notes, true) > 0
    }

    /// Insert a triple into the default graph.
    pub fn insert_triple(&mut self, subject: Term, predicate: Term, object: Term) -> bool {
        self.insert(&Quad::new(subject, predicate, object))
    }

    /// Bulk-insert a batch of quads, returning how many were new.
    ///
    /// Equivalent to calling [`QuadStore::insert`] on each quad in order —
    /// the same [`TermId`] for every term included — but the batch is one
    /// write: [`QuadStore::intern_quads`], then one sorted merge into the
    /// overlays, published as one snapshot, so concurrent readers never
    /// observe it half-applied.
    pub fn extend(&mut self, quads: impl IntoIterator<Item = Quad>) -> usize {
        let (quads, notes) = self.intern_quads(quads);
        self.apply(quads, notes, true)
    }

    /// The batch as ids in the layout each quad is stored in — four-id
    /// quads, and annotations — interning every term the dictionary lacks:
    /// [`QuadStore::extend`] without the write, for callers that time or
    /// load the ids themselves ([`QuadStore::extend_encoded`]). Like
    /// [`QuadStore::intern`] it adds no quad, so it neither bumps the
    /// generation nor publishes.
    pub fn intern_quads(
        &mut self,
        quads: impl IntoIterator<Item = Quad>,
    ) -> (Vec<EncodedQuad>, Vec<EncodedAnnotation>) {
        let (mut plain, mut notes) = (Vec::new(), Vec::new());
        for quad in quads {
            self.resolve(&quad, &mut plain, &mut notes);
        }
        (plain, notes)
    }

    /// Push `quad`'s ids onto `quads`, or onto `notes` when its subject is
    /// a quoted triple. One dictionary probe per term, in `s p o g` order
    /// (an annotation's: its triple's three constituents, then `p o g`),
    /// which is the order a term first met gets its id in. The probes read
    /// the shared snapshot; only a term it lacks is interned, on the
    /// writer's private copy, so a batch that names no new term copies
    /// nothing. The graph is probed by its borrowed IRI: its term is built
    /// only to intern a graph the dictionary lacks.
    fn resolve(
        &mut self,
        quad: &Quad,
        quads: &mut Vec<EncodedQuad>,
        notes: &mut Vec<EncodedAnnotation>,
    ) {
        let (p, o) = (&quad.predicate, &quad.object);
        let terms: &[&Term] = match &quad.subject {
            Term::Quoted(t) => &[&t.subject, &t.predicate, &t.object, p, o],
            s => &[s, p, o],
        };
        let mut ids = [0u32; 6];
        for (id, term) in ids.iter_mut().zip(terms) {
            *id = match self.snap.dict.id_of(term) {
                Some(id) => id.0,
                None => self.write().dict.intern(term).0,
            };
        }
        let graph = StoreSnapshot::graph_iri(&quad.graph);
        ids[terms.len()] = match self.snap.dict.id_of_iri(graph) {
            Some(id) => id.0,
            None => self.write().dict.intern_owned(Term::iri(graph)).0,
        };
        match (terms.len(), ids) {
            (3, [s, p, o, g, ..]) => quads.push([s, p, o, g]),
            (_, note) => notes.push(note),
        }
    }

    /// Bulk-insert already-encoded quads and annotations in one write: the
    /// load every id-space emitter ends with (see [`QuadStore::intern`]),
    /// and the write [`QuadStore::extend`] ends with.
    ///
    /// Every id must come from **this** store's dictionary and the graph
    /// slot must hold a graph IRI id — i.e. tuples shaped like the output
    /// of [`StoreSnapshot::match_ids`] / [`StoreSnapshot::match_annotations`]
    /// on this same store. Returns how many were new; a batch that is all
    /// present leaves the store, its generation and its readers' snapshot
    /// exactly as they were.
    pub fn extend_encoded(
        &mut self,
        quads: Vec<EncodedQuad>,
        notes: Vec<EncodedAnnotation>,
    ) -> usize {
        assert!(
            self.snap.ids_in_range(&quads) && self.snap.ids_in_range(&notes),
            "extend_encoded: id outside this store's dictionary"
        );
        self.apply(quads, notes, true)
    }

    /// Write an encoded batch — add it or drop it — and publish. Returns
    /// how many quads that changed. What the batch changes is decided on
    /// the shared snapshot, so one that changes nothing (every quad
    /// already present, or none) copies nothing and leaves the store, its
    /// generation and its readers' snapshot exactly as they were.
    fn apply(
        &mut self,
        mut quads: Vec<EncodedQuad>,
        mut notes: Vec<EncodedAnnotation>,
        adding: bool,
    ) -> usize {
        self.snap.route(&mut quads, &mut notes);
        let threads = StoreSnapshot::ingest_threads(quads.len());
        let quads = split(self.snap.run(IndexOrder::Spog), quads, adding);
        let notes = split(&self.snap.notes, notes, adding);
        let changed = quads.0.len() + quads.1.len() + notes.0.len() + notes.1.len();
        if changed > 0 {
            self.write().shift(adding, quads, notes, threads);
            self.maybe_publish();
        }
        changed
    }

    /// Intern a term on the writer's private copy and return its id, for
    /// callers that assemble [`EncodedQuad`]s themselves and load them
    /// with [`QuadStore::extend_encoded`] — a term is then hashed once
    /// where the caller first names it, not once per quad it occurs in.
    ///
    /// A write like any other: under a reader the first call copies the
    /// snapshot. Interning alone adds no quad, so it neither bumps the
    /// generation nor publishes; the terms reach readers with the next
    /// publication.
    pub fn intern(&mut self, term: Term) -> TermId {
        self.write().dict.intern_owned(term)
    }

    /// [`QuadStore::intern`] for the id that stands for the default graph
    /// in an [`EncodedQuad`]'s graph slot.
    pub fn intern_default_graph(&mut self) -> TermId {
        self.intern(Term::iri(DEFAULT_GRAPH_IRI))
    }

    /// Remove a quad. Returns `true` when it was present.
    pub fn remove(&mut self, quad: &Quad) -> bool {
        let (quads, notes) = self.snap.encode_all([quad]);
        self.apply(quads, notes, false) > 0
    }

    /// Batch-retract quads, returning how many were present and left.
    ///
    /// Equivalent to calling [`QuadStore::remove`] on each quad, but one
    /// write: one dictionary resolution pass (quads naming unknown terms
    /// are skipped — they cannot be present), then one sorted batch that
    /// drops overlay adds and tombstones base keys, published as one
    /// snapshot. Retraction never shrinks the dictionary; term ids stay
    /// stable.
    pub fn retract(&mut self, quads: impl IntoIterator<Item = Quad>) -> usize {
        let quads: Vec<Quad> = quads.into_iter().collect();
        let (encoded, notes) = self.snap.encode_all(&quads);
        self.apply(encoded, notes, false)
    }

    /// Batch-retract already-encoded quads and annotations in one write:
    /// the fast path for retraction sets collected from this same store
    /// (e.g. via [`StoreSnapshot::match_ids`] and
    /// [`StoreSnapshot::match_annotations`]). Every id must come from
    /// **this** store's dictionary. Returns how many were present and left.
    pub fn retract_encoded(
        &mut self,
        quads: Vec<EncodedQuad>,
        notes: Vec<EncodedAnnotation>,
    ) -> usize {
        assert!(
            self.snap.ids_in_range(&quads) && self.snap.ids_in_range(&notes),
            "retract_encoded: id outside this store's dictionary"
        );
        self.apply(quads, notes, false)
    }
}

/// A write's two halves against one run; see [`Run::split`].
type Halves<K> = (Vec<K>, Vec<K>);

/// Sort and deduplicate a batch of keys and split it against `run` into
/// what writing it would change. Both halves empty: the write is a no-op.
fn split<K: RunKey>(run: &Run<K>, mut batch: Vec<K>, adding: bool) -> Halves<K> {
    batch.sort_unstable();
    batch.dedup();
    run.split(&batch, adding)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(s: &str, p: &str, o: &str) -> Quad {
        Quad::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    #[test]
    fn insert_contains_remove() {
        let mut store = QuadStore::new();
        let quad = q("s", "p", "o");
        assert!(store.insert(&quad));
        assert!(!store.insert(&quad));
        assert!(store.contains(&quad));
        assert_eq!(store.len(), 1);
        assert!(store.remove(&quad));
        assert!(!store.contains(&quad));
        assert!(store.is_empty());
    }

    #[test]
    fn default_and_named_graphs_are_distinct() {
        let mut store = QuadStore::new();
        let t = (Term::iri("s"), Term::iri("p"), Term::iri("o"));
        store.insert(&Quad::new(t.0.clone(), t.1.clone(), t.2.clone()));
        store.insert(&Quad::in_graph(t.0, t.1, t.2, GraphName::named("g1")));
        assert_eq!(store.len(), 2);
        assert_eq!(store.named_graphs(), vec!["g1".to_string()]);
    }

    #[test]
    fn pattern_scans_each_binding_combination() {
        let mut store = QuadStore::new();
        store.insert(&q("s1", "p1", "o1"));
        store.insert(&q("s1", "p2", "o2"));
        store.insert(&q("s2", "p1", "o1"));
        store.insert(&Quad::in_graph(
            Term::iri("s3"),
            Term::iri("p1"),
            Term::iri("o1"),
            GraphName::named("g"),
        ));

        let by_s = store
            .match_pattern(&QuadPattern::any().with_subject(Term::iri("s1")))
            .count();
        assert_eq!(by_s, 2);

        let by_p = store
            .match_pattern(&QuadPattern::any().with_predicate(Term::iri("p1")))
            .count();
        assert_eq!(by_p, 3);

        let by_o = store
            .match_pattern(&QuadPattern::any().with_object(Term::iri("o1")))
            .count();
        assert_eq!(by_o, 3);

        let by_g = store
            .match_pattern(&QuadPattern::any().with_graph(GraphName::named("g")))
            .count();
        assert_eq!(by_g, 1);

        let by_po = store
            .match_pattern(
                &QuadPattern::any()
                    .with_predicate(Term::iri("p1"))
                    .with_object(Term::iri("o1")),
            )
            .count();
        assert_eq!(by_po, 3);

        let all = store.match_pattern(&QuadPattern::any()).count();
        assert_eq!(all, 4);
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let mut store = QuadStore::new();
        store.insert(&q("s", "p", "o"));
        let none = store
            .match_pattern(&QuadPattern::any().with_subject(Term::iri("missing")))
            .count();
        assert_eq!(none, 0);
    }

    #[test]
    fn rdf_star_annotation_roundtrip() {
        let mut store = QuadStore::new();
        let edge = Term::quoted(Term::iri("colA"), Term::iri("similar"), Term::iri("colB"));
        store.insert(&Quad::new(edge.clone(), Term::iri("score"), Term::double(0.93)));
        let hits: Vec<Quad> = store
            .match_pattern(&QuadPattern::any().with_subject(edge.clone()))
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].object.as_literal().unwrap().as_f64(), Some(0.93));
    }

    /// Store shape for the estimate tests: 3 quads share p1/o1, subjects
    /// differ, one quad lives in a named graph.
    fn estimate_store() -> QuadStore {
        let mut store = QuadStore::new();
        store.insert(&q("s1", "p1", "o1"));
        store.insert(&q("s1", "p2", "o2"));
        store.insert(&q("s2", "p1", "o1"));
        store.insert(&Quad::in_graph(
            Term::iri("s3"),
            Term::iri("p1"),
            Term::iri("o1"),
            GraphName::named("g"),
        ));
        store
    }

    fn enc(store: &QuadStore, s: Option<&str>, p: Option<&str>, o: Option<&str>) -> EncodedPattern {
        let id = |t: Option<&str>| t.map(|t| store.id_of(&Term::iri(t)).unwrap());
        EncodedPattern { subject: id(s), predicate: id(p), object: id(o), graph: None }
    }

    #[test]
    fn estimate_subject_prefix_uses_spog() {
        let store = estimate_store();
        assert_eq!(store.estimate_pattern(&enc(&store, Some("s1"), None, None)), 2);
        // (s, p) is an spog prefix too: exact
        assert_eq!(store.estimate_pattern(&enc(&store, Some("s1"), Some("p1"), None)), 1);
    }

    #[test]
    fn estimate_predicate_prefix_uses_posg() {
        let store = estimate_store();
        assert_eq!(store.estimate_pattern(&enc(&store, None, Some("p1"), None)), 3);
        // (p, o) is a posg prefix: exact
        assert_eq!(store.estimate_pattern(&enc(&store, None, Some("p1"), Some("o1"))), 3);
        assert_eq!(store.estimate_pattern(&enc(&store, None, Some("p2"), Some("o2"))), 1);
    }

    #[test]
    fn estimate_object_prefix_uses_ospg() {
        let store = estimate_store();
        assert_eq!(store.estimate_pattern(&enc(&store, None, None, Some("o1"))), 3);
        // (o, s) is an ospg prefix: exact
        assert_eq!(store.estimate_pattern(&enc(&store, Some("s2"), None, Some("o1"))), 1);
    }

    #[test]
    fn estimate_graph_prefix_uses_gspo() {
        let store = estimate_store();
        let g = store.graph_id(&GraphName::named("g")).unwrap();
        let pattern = EncodedPattern { graph: Some(g), ..EncodedPattern::any() };
        assert_eq!(store.estimate_pattern(&pattern), 1);
        // (g, s) is a gspo prefix: exact
        let s3 = store.id_of(&Term::iri("s3")).unwrap();
        let pattern = EncodedPattern { subject: Some(s3), graph: Some(g), ..EncodedPattern::any() };
        assert_eq!(store.estimate_pattern(&pattern), 1);
    }

    #[test]
    fn estimate_fully_unbound_is_store_len() {
        let store = estimate_store();
        assert_eq!(store.estimate_pattern(&EncodedPattern::any()), store.len());
        assert_eq!(QuadStore::new().estimate_pattern(&EncodedPattern::any()), 0);
    }

    #[test]
    fn estimate_fully_bound_is_membership() {
        let store = estimate_store();
        let mut present = enc(&store, Some("s1"), Some("p1"), Some("o1"));
        present.graph = store.graph_id(&GraphName::Default);
        assert_eq!(store.estimate_pattern(&present), 1);
        // bound to existing ids but no such quad
        let mut absent = enc(&store, Some("s2"), Some("p2"), Some("o2"));
        absent.graph = store.graph_id(&GraphName::Default);
        assert_eq!(store.estimate_pattern(&absent), 0);
    }

    #[test]
    fn estimate_agrees_with_match_ids_on_prefix_patterns() {
        let store = estimate_store();
        for pattern in [
            EncodedPattern::any(),
            enc(&store, Some("s1"), None, None),
            enc(&store, None, Some("p1"), None),
            enc(&store, None, None, Some("o1")),
            enc(&store, None, Some("p1"), Some("o1")),
        ] {
            assert_eq!(
                store.estimate_pattern(&pattern),
                store.match_ids(&pattern).count(),
                "pattern {pattern:?}"
            );
        }
    }

    #[test]
    fn quoted_inner_terms_are_resolvable() {
        // the dictionary interns quoted constituents so id-level evaluators
        // can destructure stored quoted triples
        let mut store = QuadStore::new();
        let edge = Term::quoted(Term::iri("colA"), Term::iri("similar"), Term::iri("colB"));
        store.insert(&Quad::new(edge, Term::iri("score"), Term::double(0.93)));
        assert!(store.id_of(&Term::iri("colA")).is_some());
        assert!(store.id_of(&Term::iri("similar")).is_some());
        assert!(store.id_of(&Term::iri("colB")).is_some());
    }

    #[test]
    fn extend_matches_sequential_insert() {
        let mut quads: Vec<Quad> = Vec::new();
        for i in 0..40 {
            quads.push(q(&format!("s{}", i % 7), &format!("p{}", i % 3), &format!("o{i}")));
        }
        // duplicates, a named graph, and a quoted annotation
        quads.push(q("s0", "p0", "o0"));
        quads.push(quads[0].clone());
        quads.push(Quad::in_graph(
            Term::iri("s9"),
            Term::iri("p9"),
            Term::iri("o9"),
            GraphName::named("g"),
        ));
        quads.push(Quad::new(
            Term::quoted(Term::iri("a"), Term::iri("sim"), Term::iri("b")),
            Term::iri("score"),
            Term::double(0.5),
        ));

        let mut seq = QuadStore::new();
        let mut fresh = 0;
        for quad in &quads {
            fresh += usize::from(seq.insert(quad));
        }
        let mut bulk = QuadStore::new();
        assert_eq!(bulk.extend(quads.clone()), fresh);

        assert_eq!(bulk.len(), seq.len());
        assert_eq!(bulk.term_count(), seq.term_count());
        for (id, term) in seq.dictionary().iter() {
            assert_eq!(bulk.dictionary().term(id), term, "TermId {} diverged", id.0);
        }
        let seq_ids: Vec<EncodedQuad> = seq.match_ids(&EncodedPattern::any()).collect();
        let bulk_ids: Vec<EncodedQuad> = bulk.match_ids(&EncodedPattern::any()).collect();
        assert_eq!(seq_ids, bulk_ids);
        assert!(bulk.validate_indexes());
    }

    #[test]
    fn extend_is_incremental() {
        let mut seq = QuadStore::new();
        let mut bulk = QuadStore::new();
        let first: Vec<Quad> = (0..10).map(|i| q(&format!("s{i}"), "p", "o")).collect();
        let second: Vec<Quad> = (5..15).map(|i| q(&format!("s{i}"), "p", "o")).collect();
        for quad in first.iter().chain(&second) {
            seq.insert(quad);
        }
        assert_eq!(bulk.extend(first), 10);
        assert_eq!(bulk.extend(second), 5);
        assert_eq!(bulk.len(), seq.len());
        for (id, term) in seq.dictionary().iter() {
            assert_eq!(bulk.dictionary().term(id), term);
        }
        assert!(bulk.validate_indexes());
    }

    #[test]
    fn extend_empty_batch_is_noop() {
        let mut store = estimate_store();
        let (before, generation) = (store.len(), store.generation());
        assert_eq!(store.extend(Vec::new()), 0);
        assert_eq!((store.len(), store.generation()), (before, generation));
    }

    #[test]
    fn extend_encoded_fast_path_roundtrips() {
        let src = estimate_store();
        let encoded: Vec<EncodedQuad> = src.match_ids(&EncodedPattern::any()).collect();
        // re-adding the store's own quads: all duplicates
        let mut again = estimate_store();
        assert_eq!(again.extend_encoded(encoded.clone(), Vec::new()), 0);
        assert_eq!(again.len(), src.len());
        assert!(again.validate_indexes());
    }

    #[test]
    fn interned_ids_load_what_decoded_quads_load() {
        let edge = |a: &str, b: &str| Term::quoted(Term::iri(a), Term::iri("sim"), Term::iri(b));
        let mut decoded = QuadStore::new();
        decoded.extend([
            q("a", "sim", "b"),
            Quad::new(edge("a", "b"), Term::iri("score"), Term::double(0.5)),
            q("b", "sim", "a"),
            Quad::new(edge("b", "a"), Term::iri("score"), Term::double(0.5)),
        ]);

        // the same four quads, each term interned once
        let mut ids = estimate_store();
        let base = ids.len();
        let generation = ids.generation();
        let [a, b, sim, score] = ["a", "b", "sim", "score"].map(|t| ids.intern(Term::iri(t)));
        let half = ids.intern(Term::double(0.5));
        let g = ids.intern_default_graph();
        assert_eq!(Some(g), ids.default_graph_id());
        // interning adds no quad and invalidates nothing
        assert_eq!((ids.len(), ids.generation()), (base, generation));
        let terms = ids.term_count();
        let quads = [[a, sim, b, g], [b, sim, a, g]].map(|quad| quad.map(|t| t.0));
        let notes = [[a, sim, b, score, half, g], [b, sim, a, score, half, g]];
        assert_eq!(ids.extend_encoded(quads.to_vec(), notes.map(|n| n.map(|t| t.0)).to_vec()), 4);
        assert!(ids.generation() > generation);
        assert!(ids.validate_indexes());
        // the annotated triples are never interned, on either side
        assert_eq!(ids.term_count(), terms);
        assert_eq!(decoded.term_count(), 6);
        for quad in decoded.iter() {
            assert!(ids.contains(&quad), "{quad} not loaded");
            let back = match quad.subject {
                Term::Quoted(_) => ids.encode_annotation(&quad).map(|k| ids.decode_annotation(k)),
                _ => ids.encode_quad(&quad).map(|k| ids.decode_quad(k)),
            };
            assert_eq!(back, Some(quad));
        }
        assert_eq!(ids.len(), base + decoded.len());
        assert_eq!(ids.estimate_annotations(Some(score)), 2);
        assert_eq!(ids.estimate_annotations(Some(sim)), 0);
    }

    #[test]
    #[should_panic(expected = "outside this store's dictionary")]
    fn extend_encoded_rejects_foreign_ids() {
        let mut store = estimate_store();
        store.extend_encoded(vec![[0, 1, 2, 9999]], Vec::new());
    }

    #[test]
    fn plan_tie_break_prefers_selective_index() {
        // (p, g) bound reaches prefix 1 in both posg and gspo; make the
        // graph side far more selective and check the estimate follows it.
        let mut store = QuadStore::new();
        for i in 0..50 {
            store.insert(&q(&format!("s{i}"), "p", &format!("o{i}")));
        }
        store.insert(&Quad::in_graph(
            Term::iri("s"),
            Term::iri("p"),
            Term::iri("o"),
            GraphName::named("g"),
        ));
        let p = store.id_of(&Term::iri("p")).unwrap();
        let g = store.graph_id(&GraphName::named("g")).unwrap();
        let pattern =
            EncodedPattern { predicate: Some(p), graph: Some(g), ..EncodedPattern::any() };
        // gspo's graph range holds 1 entry, posg's predicate range 51
        assert_eq!(store.estimate_pattern(&pattern), 1);
        assert_eq!(store.match_ids(&pattern).count(), 1);
    }

    #[test]
    fn named_graphs_skip_scan_finds_all_graphs() {
        let mut store = QuadStore::new();
        for i in 0..20 {
            store.insert(&q(&format!("s{i}"), "p", "o"));
            store.insert(&Quad::in_graph(
                Term::iri(format!("s{i}")),
                Term::iri("p"),
                Term::iri("o"),
                GraphName::named(format!("g{i:02}")),
            ));
        }
        let mut graphs = store.named_graphs();
        graphs.sort();
        let expected: Vec<String> = (0..20).map(|i| format!("g{i:02}")).collect();
        assert_eq!(graphs, expected);
    }

    #[test]
    fn index_order_key_decode_roundtrip() {
        let quad: EncodedQuad = [7, 11, 13, 17];
        for order in IndexOrder::ALL {
            assert_eq!(order.decode(order.key(quad)), quad, "{order:?}");
        }
        // the documented permutations hold
        assert_eq!(IndexOrder::Posg.key(quad), [11, 13, 7, 17]);
        assert_eq!(IndexOrder::Ospg.key(quad), [13, 7, 11, 17]);
        assert_eq!(IndexOrder::Gspo.key(quad), [17, 7, 11, 13]);
    }

    #[test]
    fn run_cursor_walks_and_seeks() {
        let mut store = QuadStore::new();
        for i in 0..100u32 {
            store.insert(&q(&format!("s{i:03}"), "p", &format!("o{i:03}")));
        }
        let mut cursor = store.run_cursor(IndexOrder::Spog);
        // full walk agrees with a plain scan
        let mut walked = 0usize;
        let mut check = store.run_cursor(IndexOrder::Spog);
        while check.current().is_some() {
            walked += 1;
            check.advance();
        }
        assert_eq!(walked, store.len());
        // seek lands on the first key >= target, both for near targets
        // (gallop) and far targets (re-range)
        let keys: Vec<[u32; 4]> = store.match_ids(&EncodedPattern::any()).collect();
        let near = keys[2];
        cursor.seek_ge(near);
        assert_eq!(cursor.current(), Some(near));
        let far = keys[90];
        cursor.seek_ge(far);
        assert_eq!(cursor.current(), Some(far));
        // seeking backwards never rewinds
        cursor.seek_ge(keys[5]);
        assert_eq!(cursor.current(), Some(far));
        // between-keys target lands on the next key
        let mut between = keys[40];
        between[3] += 1;
        cursor.seek_ge([0, 0, 0, 0]); // no-op (backwards)
        assert_eq!(cursor.current(), Some(far));
        let mut fresh = store.run_cursor(IndexOrder::Spog);
        fresh.seek_ge(between);
        assert_eq!(fresh.current(), Some(keys[41]));
        // past-the-end exhausts
        fresh.seek_ge([u32::MAX, u32::MAX, u32::MAX, u32::MAX]);
        assert_eq!(fresh.current(), None);
    }

    #[test]
    fn run_cursor_interrupt_flag_exhausts_within_stride() {
        let mut store = QuadStore::new();
        for i in 0..500u32 {
            store.insert(&q(&format!("s{i:03}"), "p", &format!("o{i:03}")));
        }
        let flag = Arc::new(AtomicBool::new(false));
        let mut cursor =
            store.run_cursor(IndexOrder::Spog).with_interrupt(Arc::clone(&flag));
        // flag clear: behaves like a plain cursor
        for _ in 0..10 {
            assert!(cursor.current().is_some());
            cursor.advance();
        }
        flag.store(true, Ordering::Relaxed);
        let mut steps = 0usize;
        while cursor.current().is_some() {
            cursor.advance();
            steps += 1;
            assert!(steps <= INTERRUPT_STRIDE as usize + 1, "cursor ignored interrupt");
        }
        // seeks on an interrupted cursor stay exhausted
        cursor.seek_ge([0, 0, 0, 0]);
        assert_eq!(cursor.current(), None);
    }

    #[test]
    fn generation_bumps_on_every_mutation_path() {
        let mut store = QuadStore::new();
        let g0 = store.generation();
        store.insert(&q("s", "p", "o"));
        let g1 = store.generation();
        assert!(g1 > g0);
        // duplicate insert: no index change, generation stays
        store.insert(&q("s", "p", "o"));
        assert_eq!(store.generation(), g1);
        store.extend(vec![q("s2", "p", "o")]);
        let g2 = store.generation();
        assert!(g2 > g1);
        store.remove(&q("s", "p", "o"));
        assert!(store.generation() > g2);
        // distinct stores never share an identity
        assert_ne!(QuadStore::new().store_id(), QuadStore::new().store_id());
    }

    #[test]
    fn estimate_exact_flag_tracks_prefix_coverage() {
        let store = estimate_store();
        // covered combinations are exact
        assert_eq!(store.estimate_pattern_exact(&enc(&store, Some("s1"), None, None)), (2, true));
        assert_eq!(
            store.estimate_pattern_exact(&enc(&store, None, Some("p1"), Some("o1"))),
            (3, true)
        );
        assert_eq!(store.estimate_pattern_exact(&EncodedPattern::any()), (4, true));
        // (s, o) is covered by ospg's (o, s) prefix
        assert_eq!(
            store.estimate_pattern_exact(&enc(&store, Some("s2"), None, Some("o1"))),
            (1, true)
        );
        // (p, g) is covered by no ordering: upper bound, not exact
        let p1 = store.id_of(&Term::iri("p1")).unwrap();
        let g = store.graph_id(&GraphName::named("g")).unwrap();
        let pg = EncodedPattern { predicate: Some(p1), graph: Some(g), ..EncodedPattern::any() };
        let (est, exact) = store.estimate_pattern_exact(&pg);
        assert!(!exact);
        assert!(est >= store.match_ids(&pg).count());
    }

    #[test]
    fn estimate_uncovered_pattern_takes_tightest_contender() {
        // (p, g) bound: posg and gspo both reach prefix 1. Make both
        // ranges larger than any probe cap so only full counting can
        // tell them apart, with the graph side far more selective.
        let mut store = QuadStore::new();
        for i in 0..200 {
            store.insert(&q(&format!("s{i}"), "p", &format!("o{i}")));
        }
        for i in 0..70 {
            store.insert(&Quad::in_graph(
                Term::iri(format!("s{i}")),
                Term::iri("p"),
                Term::iri("o"),
                GraphName::named("g"),
            ));
        }
        let p = store.id_of(&Term::iri("p")).unwrap();
        let g = store.graph_id(&GraphName::named("g")).unwrap();
        let pattern =
            EncodedPattern { predicate: Some(p), graph: Some(g), ..EncodedPattern::any() };
        // posg's p-range holds 270 entries, gspo's g-range 70: the
        // estimate must follow the tighter contender
        let (est, exact) = store.estimate_pattern_exact(&pattern);
        assert!(!exact);
        assert_eq!(est, 70);
        assert_eq!(store.match_ids(&pattern).count(), 70);
    }

    #[test]
    fn decoded_quads_match_inserted() {
        let mut store = QuadStore::new();
        let quad = Quad::in_graph(
            Term::iri("s"),
            Term::iri("p"),
            Term::string("val"),
            GraphName::named("g"),
        );
        store.insert(&quad);
        let got: Vec<Quad> = store.iter().collect();
        assert_eq!(got, vec![quad]);
    }

    #[test]
    fn snapshot_is_frozen_at_acquisition() {
        let mut store = QuadStore::new();
        store.insert(&q("s1", "p", "o1"));
        let snap = store.snapshot();
        store.insert(&q("s2", "p", "o2"));
        store.remove(&q("s1", "p", "o1"));
        // the pinned snapshot still sees exactly the state at acquisition
        assert_eq!(snap.len(), 1);
        assert!(snap.contains(&q("s1", "p", "o1")));
        assert!(!snap.contains(&q("s2", "p", "o2")));
        assert!(snap.validate_indexes());
        // the live store moved on
        assert_eq!(store.len(), 1);
        assert!(store.contains(&q("s2", "p", "o2")));
        assert!(store.generation() > snap.generation());
    }

    #[test]
    fn snapshot_matches_live_store_without_writes() {
        let mut store = QuadStore::new();
        store.extend([q("a", "p", "b"), q("c", "p", "d")]);
        let snap = store.snapshot();
        assert_eq!(snap.len(), store.len());
        assert_eq!(snap.generation(), store.generation());
        let snap_quads: Vec<Quad> = snap.iter().collect();
        let live_quads: Vec<Quad> = store.iter().collect();
        assert_eq!(snap_quads, live_quads);
    }

    #[test]
    fn reader_observes_committed_batches() {
        let mut store = QuadStore::new();
        let reader = store.reader();
        assert_eq!(reader.snapshot().len(), 0);
        store.extend([q("a", "p", "b"), q("c", "p", "d")]);
        // a fresh snapshot through the handle sees the committed batch
        assert_eq!(reader.snapshot().len(), 2);
        store.insert(&q("e", "p", "f"));
        assert_eq!(reader.snapshot().len(), 3);
        store.remove(&q("a", "p", "b"));
        assert_eq!(reader.snapshot().len(), 2);
        // clones of the handle share the same publication cell
        let other = reader.clone();
        store.insert(&q("g", "p", "h"));
        assert_eq!(other.snapshot().len(), 3);
    }

    #[test]
    fn snapshot_acquisition_does_not_copy_indexes() {
        let mut store = QuadStore::new();
        for i in 0..500 {
            store.insert(&q(&format!("s{i}"), "p", "o"));
        }
        // O(1) acquisition: both Arcs point at the same allocation
        let a = store.snapshot();
        let b = store.snapshot();
        assert!(std::ptr::eq(a.as_ref(), b.as_ref()));
        // and no copy happens on *write* either until a snapshot is held
        drop((a, b));
        let before = store.snapshot();
        store.insert(&q("x", "p", "y"));
        // `before` was outstanding, so the write went to a new version
        assert!(!std::ptr::eq(before.as_ref(), store.snapshot().as_ref()));
        assert_eq!(before.len(), 500);
        assert_eq!(store.len(), 501);
    }

    /// The base run allocations of a snapshot, one per ordering.
    fn bases(snap: &StoreSnapshot) -> [*const Key; 4] {
        IndexOrder::ALL.map(|order| snap.run(order).base().as_ptr())
    }

    #[test]
    fn small_write_under_a_pin_shares_all_four_base_runs() {
        let mut store = QuadStore::new();
        store.extend((0..400).map(|i| q(&format!("s{i}"), "p", "o")));
        let pinned = store.snapshot();
        // below the fold threshold, additions and tombstones alike
        store.extend((400..410).map(|i| q(&format!("s{i}"), "p", "o")));
        store.retract((0..10).map(|i| q(&format!("s{i}"), "p", "o")));
        assert_eq!(store.cow_stats().clones, 1);
        assert_eq!(store.overlay_len(), 20);
        for (pin, live) in IndexOrder::ALL.map(|order| (pinned.run(order), store.run(order))) {
            assert!(Arc::ptr_eq(pin.base(), live.base()));
        }
        assert_eq!((pinned.len(), pinned.overlay_len()), (400, 0));
        assert_eq!(store.len(), 400);
    }

    #[test]
    fn fold_under_a_pin_leaves_the_pins_runs_untouched() {
        let mut store = QuadStore::new();
        store.extend((0..400).map(|i| q(&format!("s{i}"), "p", "o")));
        store.retract((0..10).map(|i| q(&format!("s{i}"), "p", "o")));
        let pinned = store.snapshot();
        let (before, quads) = (bases(&pinned), pinned.iter().collect::<Vec<Quad>>());
        let folds = store.cow_stats().folds;
        // far above the threshold: the publish point folds
        store.extend((400..800).map(|i| q(&format!("s{i}"), "p", "o")));
        assert_eq!(store.cow_stats().folds, folds + 1);
        assert_eq!((store.len(), store.overlay_len()), (790, 0));
        assert!(bases(&store).iter().zip(&before).all(|(live, pin)| live != pin));
        // the pin still holds its base runs and its ten tombstones
        assert_eq!(bases(&pinned), before);
        assert_eq!((pinned.len(), pinned.overlay_len()), (390, 10));
        assert_eq!(pinned.iter().collect::<Vec<Quad>>(), quads);
        assert!(pinned.validate_indexes() && store.validate_indexes());
    }

    #[test]
    fn point_writes_fold_before_the_overlay_grows_long() {
        let mut store = QuadStore::new();
        store.extend((0..40_000).map(|i| q(&format!("s{i}"), "p", "o")));
        // its size alone would let the overlay reach 5,000 entries; the
        // upkeep rule folds once 64 × 40,000 have been merged past
        for i in 40_000..43_000 {
            store.insert(&q(&format!("s{i}"), "p", "o"));
            assert!(store.overlay_len() < 2264);
        }
        assert_eq!((store.cow_stats().folds, store.len()), (1, 43_000));
        assert!(store.validate_indexes());
    }

    #[test]
    fn batch_retract_matches_per_quad_remove() {
        // big enough that its tombstones fold at the publish point (more
        // than base/8) and — via the small tail batch below — small enough
        // that they stay in the overlay too
        let quads: Vec<Quad> = (0..600)
            .map(|i| q(&format!("s{}", i % 30), &format!("p{}", i % 7), &format!("o{i}")))
            .collect();
        let victims: Vec<Quad> = quads.iter().step_by(3).cloned().collect();

        let mut batch = QuadStore::new();
        batch.extend(quads.clone());
        assert_eq!(batch.retract(victims.clone()), victims.len());

        let mut serial = QuadStore::new();
        serial.extend(quads.clone());
        for v in &victims {
            assert!(serial.remove(v));
        }

        let dump = |s: &QuadStore| {
            let mut v: Vec<String> = s.iter().map(|q| q.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(dump(&batch), dump(&serial));
        assert!(batch.validate_indexes());

        // small tail: run < set/8 stays below the fold threshold;
        // stride 99 from index 1 never lands on an already-removed victim
        let tail: Vec<Quad> = quads.iter().skip(1).step_by(99).cloned().collect();
        assert!(tail.len() < batch.len() / 8);
        assert_eq!(batch.retract(tail.clone()), tail.len());
        for v in &tail {
            serial.remove(v);
        }
        assert_eq!(dump(&batch), dump(&serial));
    }

    #[test]
    fn retract_skips_absent_and_unknown_quads() {
        let mut store = QuadStore::new();
        store.extend([q("a", "p", "b"), q("c", "p", "d")]);
        let removed = store.retract([
            q("a", "p", "b"),          // present
            q("a", "p", "b"),          // batch-internal duplicate
            q("c", "p", "never-seen"), // unknown term: skipped at encode
            q("a", "p", "d"),          // known terms, quad absent
        ]);
        assert_eq!(removed, 1);
        assert_eq!(store.len(), 1);
        assert!(store.contains(&q("c", "p", "d")));
    }

    #[test]
    fn retract_encoded_drops_collected_ids() {
        let mut store = QuadStore::new();
        store.extend((0..50).map(|i| q(&format!("s{i}"), "p", "o")));
        let p = store.id_of(&Term::iri("p")).unwrap();
        let pattern = EncodedPattern { predicate: Some(p), ..EncodedPattern::default() };
        let hits: Vec<EncodedQuad> = store.match_ids(&pattern).collect();
        assert_eq!(store.retract_encoded(hits, Vec::new()), 50);
        assert!(store.is_empty());
        assert!(store.validate_indexes());
    }

    #[test]
    fn delta_publishes_once_and_bumps_generation_once() {
        let mut store = QuadStore::new();
        store.insert(&q("seed", "p", "o"));
        let reader = store.reader();
        let base = store.generation();

        store.begin_delta();
        assert!(store.delta_open());
        store.extend([q("a", "p", "b"), q("c", "p", "d")]);
        store.retract([q("seed", "p", "o")]);
        store.insert(&q("e", "p", "f"));
        // several mutations later the reader still sees the pre-delta state
        assert_eq!(reader.snapshot().len(), 1);
        assert!(store.generation() > base + 1);

        store.commit_delta();
        assert!(!store.delta_open());
        // whole delta at once, one generation bump
        assert_eq!(reader.snapshot().len(), 3);
        assert_eq!(store.generation(), base + 1);
        assert_eq!(reader.snapshot().generation(), base + 1);
    }

    #[test]
    fn empty_delta_leaves_generation_untouched() {
        let mut store = QuadStore::new();
        store.insert(&q("a", "p", "b"));
        let base = store.generation();
        store.begin_delta();
        store.commit_delta();
        assert_eq!(store.generation(), base);
        // nor does a delta whose retraction finds nothing to withdraw
        store.begin_delta();
        store.retract([q("a", "p", "never")]);
        store.commit_delta();
        assert_eq!(store.generation(), base);
    }

    /// Writes that change nothing decide so on the shared snapshot: under
    /// a pinned reader they copy nothing, publish nothing and leave the
    /// generation (hence every compiled plan) valid.
    #[test]
    fn noop_writes_neither_copy_nor_bump_generation() {
        let mut store = QuadStore::new();
        let edge = Term::quoted(Term::iri("a"), Term::iri("p"), Term::iri("b"));
        let note = Quad::new(edge, Term::iri("score"), Term::double(0.5));
        store.extend([q("a", "p", "b"), q("c", "p", "d"), note.clone()]);
        let reader = store.reader();
        let before = store.snapshot();
        let generation = store.generation();
        let b = store.id_of(&Term::iri("b")).unwrap().0;

        assert!(!store.insert(&q("a", "p", "b")));
        assert!(!store.remove(&q("a", "p", "d")));
        assert!(!store.remove(&q("a", "p", "never-seen")));
        assert_eq!(store.retract([q("a", "p", "d"), q("x", "y", "z")]), 0);
        assert_eq!(store.retract_encoded(vec![[b, b, b, b]], Vec::new()), 0);
        assert_eq!(store.retract_encoded(Vec::new(), Vec::new()), 0);
        let present: Vec<EncodedQuad> = store.match_ids(&EncodedPattern::any()).collect();
        let twice: Vec<EncodedQuad> = present.iter().chain(&present).copied().collect();
        assert_eq!(store.extend_encoded(twice, Vec::new()), 0);
        assert_eq!(store.extend_encoded(Vec::new(), Vec::new()), 0);
        // decoded quads that are all present: every term found on the
        // shared snapshot, nothing interned, nothing merged
        let present = [q("c", "p", "d"), note.clone(), q("a", "p", "b"), q("c", "p", "d")];
        assert_eq!(store.extend(present.clone()), 0);
        assert_eq!(store.intern_quads(present).0.len(), 3);
        store.begin_delta();
        store.retract([q("c", "p", "b")]);
        store.commit_delta();

        assert!(Arc::ptr_eq(&before, &store.snapshot()));
        assert!(Arc::ptr_eq(&before, &reader.snapshot()));
        assert_eq!(store.generation(), generation);
        assert_eq!(store.cow_stats(), CowStats::default());

        // the first write that does change something pays exactly one clone
        assert!(store.remove(&q("a", "p", "b")));
        assert!(!Arc::ptr_eq(&before, &store.snapshot()));
        assert_eq!(store.cow_stats().clones, 1);
        assert_eq!(before.len(), 3);
        // with the pins gone the next publish empties the slot (which
        // still holds the last published snapshot), and writes are in
        // place again
        drop((before, reader));
        store.insert(&q("e", "p", "f"));
        let clones = store.cow_stats().clones;
        store.insert(&q("g", "p", "h"));
        assert_eq!(store.cow_stats().clones, clones);
    }
}
