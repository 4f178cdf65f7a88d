//! Property tests: the sorted-run store against the representation it
//! replaced. Two `BTreeSet`s of id tuples are the oracle — `[u32; 4]` quads
//! and `[u32; 6]` annotations (quads whose subject is a quoted triple); every
//! write path (single, decoded batch, encoded batch, inside and outside a
//! delta, with and without a pinned snapshot or an attached reader) is
//! applied to both, with batch sizes on either side of the fold threshold,
//! and after every operation every read path must agree with the oracle —
//! on the live store and on every snapshot pinned earlier.
//!
//! The universe's annotated triples are also asserted quads of it (so an
//! annotation is written before its asserted quad, after it, or without it,
//! and outlives its removal), carry several values each, nest a quoted
//! constituent, and two of them are also objects of other quads.

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

use lids_rdf::{
    EncodedAnnotation, EncodedPattern, EncodedQuad, GraphName, IndexOrder, Quad, QuadPattern,
    QuadStore, StoreSnapshot, Term, TermId,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The oracle: what the four runs and the annotation run should hold.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    quads: BTreeSet<EncodedQuad>,
    notes: BTreeSet<EncodedAnnotation>,
}

/// A stored quad as ids, in the layout its subject decides.
#[derive(Debug, Clone, Copy)]
enum Key {
    Quad(EncodedQuad),
    Note(EncodedAnnotation),
}

impl Model {
    fn len(&self) -> usize {
        self.quads.len() + self.notes.len()
    }

    fn insert(&mut self, key: Key) -> bool {
        match key {
            Key::Quad(quad) => self.quads.insert(quad),
            Key::Note(note) => self.notes.insert(note),
        }
    }

    fn remove(&mut self, key: &Key) -> bool {
        match key {
            Key::Quad(quad) => self.quads.remove(quad),
            Key::Note(note) => self.notes.remove(note),
        }
    }
}

/// A quad of the test universe: indices into its subjects, predicates,
/// objects and graphs.
type Spec = (u8, u8, u8, u8);

#[derive(Debug, Clone)]
enum Op {
    Insert(Spec),
    Remove(Spec),
    Extend(Vec<Spec>),
    Retract(Vec<Spec>),
    ExtendEncoded(Vec<Spec>),
    RetractEncoded(Vec<Spec>),
    /// Pin the current snapshot; it must read the same from then on.
    Pin,
    /// Open a delta, or commit the open one.
    ToggleDelta,
}

fn spec() -> impl Strategy<Value = Spec> {
    (0u8..16, 0u8..4, 0u8..14, 0u8..3)
}

/// Batches on both sides of the fold threshold of a store holding up to
/// ~1.7 k quads: a handful of quads never folds, a few hundred always do.
fn batch() -> impl Strategy<Value = Vec<Spec>> {
    prop_oneof![
        proptest::collection::vec(spec(), 1..5),
        proptest::collection::vec(spec(), 30..250),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => spec().prop_map(Op::Insert),
        2 => spec().prop_map(Op::Remove),
        2 => batch().prop_map(Op::Extend),
        2 => batch().prop_map(Op::Retract),
        2 => batch().prop_map(Op::ExtendEncoded),
        2 => batch().prop_map(Op::RetractEncoded),
        1 => Just(Op::Pin),
        1 => Just(Op::ToggleDelta),
    ]
}

fn graph_name(g: u8) -> GraphName {
    if g == 0 {
        GraphName::Default
    } else {
        GraphName::named(format!("g{g}"))
    }
}

/// `<< s{k} p0 o{k} >>`: the triple the universe quad `(k, 0, k, 0)` asserts.
fn asserted(k: u8) -> Term {
    Term::quoted(Term::iri(format!("s{k}")), Term::iri("p0"), Term::iri(format!("o{k}")))
}

/// Subjects 12–14 are annotated triples asserted in the universe, 15 one
/// that nests `asserted(0)`; objects 12 and 13 quote the triples subjects 12
/// and 13 annotate.
fn quad((s, p, o, g): Spec) -> Quad {
    let subject = match s {
        12..15 => asserted(s - 12),
        15 => Term::quoted(asserted(0), Term::iri("p1"), Term::iri("o1")),
        _ => Term::iri(format!("s{s}")),
    };
    let object = match o {
        12 | 13 => asserted(o - 12),
        _ => Term::iri(format!("o{o}")),
    };
    Quad::in_graph(subject, Term::iri(format!("p{p}")), object, graph_name(g))
}

/// `spec` as ids of `snap`, if every term it names is interned.
fn key(snap: &StoreSnapshot, spec: Spec) -> Option<Key> {
    let quad = quad(spec);
    match quad.subject {
        Term::Quoted(_) => snap.encode_annotation(&quad).map(Key::Note),
        _ => snap.encode_quad(&quad).map(Key::Quad),
    }
}

/// The id tuple of a universe quad, interning whatever it names first: the
/// way an id-space emitter addresses the store.
fn interned(store: &mut QuadStore, spec: Spec) -> Key {
    let quad = quad(spec);
    let graph = match &quad.graph {
        GraphName::Default => store.intern_default_graph(),
        GraphName::Named(iri) => store.intern(Term::iri(iri)),
    };
    let [p, o] = [quad.predicate, quad.object].map(|term| store.intern(term).0);
    match quad.subject {
        Term::Quoted(t) => {
            let [a, b, c] = [t.subject, t.predicate, t.object].map(|term| store.intern(term).0);
            Key::Note([a, b, c, p, o, graph.0])
        }
        s => Key::Quad([store.intern(s).0, p, o, graph.0]),
    }
}

/// Keys as an encoded write: quads, and annotations — except that an
/// annotation whose quoted triple has an id of its own travels as a
/// four-id quad, which the store must route to the annotation run.
fn encoded(snap: &StoreSnapshot, keys: &[Key]) -> (Vec<EncodedQuad>, Vec<EncodedAnnotation>) {
    let (mut quads, mut notes) = (Vec::new(), Vec::new());
    for key in keys {
        match *key {
            Key::Quad(quad) => quads.push(quad),
            Key::Note([a, b, c, p, o, g]) => {
                match snap.dictionary().id_of_quoted(TermId(a), TermId(b), TermId(c)) {
                    Some(id) => quads.push([id.0, p, o, g]),
                    None => notes.push([a, b, c, p, o, g]),
                }
            }
        }
    }
    (quads, notes)
}

/// Apply `op` to the store and the oracle, checking that both report the
/// same number of quads changed.
fn apply(store: &mut QuadStore, model: &mut Model, op: &Op) -> Result<(), TestCaseError> {
    match op {
        Op::Insert(spec) => {
            let fresh = store.insert(&quad(*spec));
            let key = key(store, *spec).expect("inserted quads encode");
            prop_assert_eq!(fresh, model.insert(key));
        }
        Op::Remove(spec) => {
            let removed = store.remove(&quad(*spec));
            let key = key(store, *spec);
            prop_assert_eq!(removed, key.is_some_and(|key| model.remove(&key)));
        }
        Op::Extend(specs) => {
            let added = store.extend(specs.iter().map(|&spec| quad(spec)));
            let before = model.len();
            for &spec in specs {
                model.insert(key(store, spec).expect("extended quads encode"));
            }
            prop_assert_eq!(added, model.len() - before);
        }
        Op::Retract(specs) => {
            let keys: Vec<Key> = specs.iter().filter_map(|&spec| key(store, spec)).collect();
            let removed = store.retract(specs.iter().map(|&spec| quad(spec)));
            let before = model.len();
            keys.iter().for_each(|key| _ = model.remove(key));
            prop_assert_eq!(removed, before - model.len());
        }
        Op::ExtendEncoded(specs) => {
            let keys: Vec<Key> = specs.iter().map(|&spec| interned(store, spec)).collect();
            let (quads, notes) = encoded(store, &keys);
            let added = store.extend_encoded(quads, notes);
            let before = model.len();
            keys.into_iter().for_each(|key| _ = model.insert(key));
            prop_assert_eq!(added, model.len() - before);
        }
        Op::RetractEncoded(specs) => {
            let keys: Vec<Key> = specs.iter().filter_map(|&spec| key(store, spec)).collect();
            let (quads, notes) = encoded(store, &keys);
            let removed = store.retract_encoded(quads, notes);
            let before = model.len();
            keys.iter().for_each(|key| _ = model.remove(key));
            prop_assert_eq!(removed, before - model.len());
        }
        Op::Pin => {}
        Op::ToggleDelta => {
            if store.delta_open() {
                store.commit_delta();
            } else {
                store.begin_delta();
            }
        }
    }
    Ok(())
}

/// `probe` with only the positions of `mask` bound (bit i = position i of
/// `[s, p, o, g]`).
fn masked(probe: EncodedQuad, mask: u8) -> EncodedPattern {
    let at = |i: usize| (mask & (1 << i) != 0).then_some(TermId(probe[i]));
    EncodedPattern { subject: at(0), predicate: at(1), object: at(2), graph: at(3) }
}

fn matches(pattern: &EncodedPattern, quad: &EncodedQuad) -> bool {
    [pattern.subject, pattern.predicate, pattern.object, pattern.graph]
        .iter()
        .zip(quad)
        .all(|(bound, id)| bound.is_none_or(|t| t.0 == *id))
}

/// What `estimate_pattern_exact` promises for `pattern`, from the oracle:
/// the exact count when some ordering's key prefix covers every bound
/// position, otherwise the smallest prefix range among the orderings with
/// the longest bound prefix, flagged inexact. (The universe is smaller
/// than the estimate's walk cap, which therefore never shows.)
fn expected_estimate(model: &BTreeSet<EncodedQuad>, pattern: &EncodedPattern) -> (usize, bool) {
    let ids = [pattern.subject, pattern.predicate, pattern.object, pattern.graph];
    let bound = ids.iter().flatten().count();
    if bound == 0 {
        return (model.len(), true);
    }
    let prefix_of =
        |order: IndexOrder| order.positions().iter().take_while(|&&p| ids[p].is_some()).count();
    let in_prefix = |order: IndexOrder, len: usize| {
        let positions = order.positions();
        model
            .iter()
            .filter(|quad| positions[..len].iter().all(|&p| ids[p].is_some_and(|t| t.0 == quad[p])))
            .count()
    };
    if let Some(order) = IndexOrder::ALL.into_iter().find(|&order| prefix_of(order) == bound) {
        return (in_prefix(order, bound), true);
    }
    let best = IndexOrder::ALL.into_iter().map(prefix_of).max().unwrap_or(0);
    let tightest = IndexOrder::ALL
        .into_iter()
        .filter(|&order| prefix_of(order) == best)
        .map(|order| in_prefix(order, best))
        .min()
        .unwrap_or(0);
    (tightest, false)
}

/// Every read path of `snap` against the oracle.
fn check(snap: &StoreSnapshot, model: &Model, rng: &mut SmallRng) -> Result<(), TestCaseError> {
    prop_assert_eq!(snap.len(), model.len());
    prop_assert_eq!(snap.is_empty(), model.len() == 0);
    prop_assert!(snap.validate_indexes());

    // match_ids and the estimate, all 16 bound masks, around a stored quad
    // and around a random tuple of ids (mostly absent)
    let terms = snap.term_count().max(1) as u32;
    let mut probes = vec![[0u32; 4].map(|_| rng.gen_range(0..terms))];
    if !model.quads.is_empty() {
        probes.extend(model.quads.iter().nth(rng.gen_range(0..model.quads.len())));
    }
    for probe in probes {
        for mask in 0..16u8 {
            let pattern = masked(probe, mask);
            let mut got: Vec<EncodedQuad> = snap.match_ids(&pattern).collect();
            got.sort_unstable();
            let want: Vec<EncodedQuad> =
                model.quads.iter().filter(|quad| matches(&pattern, quad)).copied().collect();
            prop_assert_eq!(&got, &want, "match_ids {:?}", pattern);
            prop_assert_eq!(
                snap.estimate_pattern_exact(&pattern),
                expected_estimate(&model.quads, &pattern),
                "estimate {:?}",
                pattern
            );
        }
    }

    // match_annotations, all 64 bound masks, around a stored annotation
    // and around random ids; the per-predicate estimate
    let mut probes = vec![[0u32; 6].map(|_| rng.gen_range(0..terms))];
    if !model.notes.is_empty() {
        probes.extend(model.notes.iter().nth(rng.gen_range(0..model.notes.len())));
    }
    for probe in probes {
        for mask in 0..64u8 {
            let pattern: [Option<u32>; 6] =
                std::array::from_fn(|i| (mask & (1 << i) != 0).then_some(probe[i]));
            let got: Vec<EncodedAnnotation> = snap.match_annotations(pattern).collect();
            let want: Vec<EncodedAnnotation> = model
                .notes
                .iter()
                .filter(|note| {
                    pattern.iter().zip(*note).all(|(id, k)| id.is_none_or(|id| id == *k))
                })
                .copied()
                .collect();
            prop_assert_eq!(&got, &want, "match_annotations {:?}", pattern);
        }
        let with_predicate = model.notes.iter().filter(|note| note[3] == probe[3]).count();
        prop_assert_eq!(snap.estimate_annotations(Some(TermId(probe[3]))), with_predicate);
    }
    prop_assert_eq!(snap.estimate_annotations(None), model.notes.len());

    // the decoded view: every quad of either layout, once; a quoted
    // subject bound in a decoded pattern finds its annotations
    let decoded: BTreeSet<String> = model
        .quads
        .iter()
        .map(|&quad| snap.decode_quad(quad))
        .chain(model.notes.iter().map(|&note| snap.decode_annotation(note)))
        .map(|quad| quad.to_string())
        .collect();
    let mut iterated: Vec<String> = snap.iter().map(|quad| quad.to_string()).collect();
    iterated.sort();
    prop_assert_eq!(&iterated, &decoded.iter().cloned().collect::<Vec<_>>());
    if let Some(&note) = model.notes.iter().next() {
        let quad = snap.decode_annotation(note);
        prop_assert!(snap.contains(&quad));
        let by_subject = QuadPattern::any().with_subject(quad.subject.clone());
        let got = snap.match_pattern(&by_subject).count();
        prop_assert_eq!(got, model.notes.iter().filter(|n| n[..3] == note[..3]).count());
    }

    let mut graphs: Vec<String> = snap.named_graphs();
    graphs.sort();
    let graph_ids = model.quads.iter().map(|q| q[3]).chain(model.notes.iter().map(|n| n[5]));
    let want: BTreeSet<String> = graph_ids
        .filter_map(|g| snap.term(TermId(g)).as_iri().map(str::to_string))
        .filter(|iri| iri.starts_with('g'))
        .collect();
    prop_assert_eq!(graphs, want.into_iter().collect::<Vec<_>>());

    // each ordering: a random advance / seek_ge walk against the oracle's
    // `range(target..)`
    for order in IndexOrder::ALL {
        let keys: BTreeSet<[u32; 4]> = model.quads.iter().map(|&quad| order.key(quad)).collect();
        let mut cursor = snap.run_cursor(order);
        let mut want = keys.first().copied();
        prop_assert_eq!(cursor.current(), want);
        while let Some(at) = want {
            if rng.gen_range(0..3) == 0 {
                cursor.advance();
                want = keys.range((Bound::Excluded(at), Bound::Unbounded)).next().copied();
            } else {
                // near (a step or two ahead in the last positions), far
                // (any key), or behind the cursor (must not move)
                let target = match rng.gen_range(0..4) {
                    0 => {
                        let step = rng.gen_range(0..3);
                        [at[0], at[1], at[2].saturating_add(step), rng.gen_range(0..terms)]
                    }
                    1 => [at[0], at[1].saturating_add(1), 0, 0],
                    2 => [at[0].saturating_sub(1), 0, 0, 0],
                    _ => [0u32; 4].map(|_| rng.gen_range(0..=terms)),
                };
                cursor.seek_ge(target);
                if at < target {
                    want = keys.range(target..).next().copied();
                }
            }
            prop_assert_eq!(cursor.current(), want, "{:?} walk", order);
        }
        cursor.advance();
        prop_assert_eq!(cursor.current(), None);
    }
    Ok(())
}

/// The cheap part of [`check`], for the snapshots pinned along the way.
fn still_reads(snap: &StoreSnapshot, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(snap.len(), model.len());
    let scanned: Vec<EncodedQuad> = snap.match_ids(&EncodedPattern::any()).collect();
    prop_assert_eq!(scanned, model.quads.iter().copied().collect::<Vec<_>>());
    let scanned: Vec<EncodedAnnotation> = snap.match_annotations([None; 6]).collect();
    prop_assert_eq!(scanned, model.notes.iter().copied().collect::<Vec<_>>());
    Ok(())
}

fn run_ops(ops: &[Op], seed: u64) -> Result<(), TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut store = QuadStore::new();
    let mut model = Model::default();
    let mut pins: Vec<(Arc<StoreSnapshot>, Model)> = Vec::new();
    // half the cases write under an attached reader, which must see the
    // state of the last publish point: every write outside a delta, whole
    // deltas otherwise
    let reader = (seed & 1 == 1).then(|| store.reader());
    let mut published = model.clone();
    for op in ops {
        apply(&mut store, &mut model, op)?;
        if matches!(op, Op::Pin) {
            pins.push((store.snapshot(), model.clone()));
        }
        check(&store, &model, &mut rng)?;
        if !store.delta_open() {
            published = model.clone();
        }
        if let Some(reader) = &reader {
            still_reads(&reader.snapshot(), &published)?;
        }
        for (pin, frozen) in &pins {
            still_reads(pin, frozen)?;
        }
    }
    store.commit_delta();
    check(&store, &model, &mut rng)?;
    for (pin, frozen) in &pins {
        check(pin, frozen, &mut rng)?;
    }
    Ok(())
}

/// Raised in release, where `scripts/check.sh` runs this suite.
const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 512 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn store_matches_reference_set(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        seed in any::<u64>(),
    ) {
        run_ops(&ops, seed)?;
    }

    #[test]
    fn nquads_roundtrip_arbitrary_store(specs in proptest::collection::vec(spec(), 1..40)) {
        let mut store = QuadStore::new();
        for &spec in &specs {
            store.insert(&quad(spec));
        }
        let doc = lids_rdf::nquads::write_document(store.iter().collect::<Vec<_>>().iter());
        let parsed = lids_rdf::nquads::parse_document(&doc).unwrap();
        let mut back = QuadStore::new();
        for q in &parsed {
            back.insert(q);
        }
        prop_assert_eq!(back.len(), store.len());
        for q in store.iter() {
            prop_assert!(back.contains(&q));
        }
    }
}

/// The three overlay histories random operations only probably reach, each
/// followed by the full read check: an add and its removal cancel in the
/// overlay, a removal and the re-add lift the tombstone, and a fold under
/// a pinned snapshot leaves the pin reading what it read.
#[test]
fn overlay_edits_cancel_and_folds_spare_pins() {
    let specs = |subjects: std::ops::Range<u8>| -> Vec<Spec> {
        subjects.flat_map(|s| (0..12).map(move |o| (s, s % 4, o, s % 3))).collect()
    };
    let extend = |specs: Vec<Spec>| Op::Extend(specs);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut store = QuadStore::new();
    let mut model = Model::default();
    let mut step = |store: &mut QuadStore, model: &mut Model, op: Op| {
        apply(store, model, &op).expect("store and oracle agree on the count");
        check(store, model, &mut rng).expect("store and oracle agree on every read");
    };

    // 480 quads: a first fill goes straight to the base
    step(&mut store, &mut model, extend(specs(0..40)));
    assert_eq!(store.overlay_len(), 0);

    // far below the threshold: the add stays in the overlay, and removing
    // it again empties the overlay instead of leaving tombstones
    step(&mut store, &mut model, extend(specs(40..41)));
    assert_eq!(store.overlay_len(), 12);
    step(&mut store, &mut model, Op::RetractEncoded(specs(40..41)));
    assert_eq!(store.overlay_len(), 0);

    // a removal from the base is a tombstone; the re-add lifts it
    step(&mut store, &mut model, Op::Retract(specs(3..4)));
    assert_eq!(store.overlay_len(), 12);
    step(&mut store, &mut model, Op::ExtendEncoded(specs(3..4)));
    assert_eq!(store.overlay_len(), 0);
    step(&mut store, &mut model, Op::Remove((5, 1, 0, 2)));
    step(&mut store, &mut model, Op::Insert((5, 1, 0, 2)));
    assert_eq!(store.overlay_len(), 0);

    // a fold while a snapshot is pinned: the pin keeps its runs
    step(&mut store, &mut model, Op::Retract(specs(0..1)));
    let (pin, frozen) = (store.snapshot(), model.clone());
    assert_eq!(pin.overlay_len(), 12);
    let folds = store.cow_stats().folds;
    step(&mut store, &mut model, extend(specs(50..70)));
    assert_eq!(store.cow_stats().folds, folds + 1);
    assert_eq!((store.overlay_len(), pin.overlay_len()), (0, 12));
    check(&pin, &frozen, &mut rng).expect("the pinned snapshot reads what it read");
    assert_eq!(pin.len() + 240, store.len());
}

/// The annotation cases by name, each followed by the full read check: an
/// annotation written before its asserted quad, beside it and without it;
/// the asserted quad removed alone while the annotation stays; two values
/// on one triple; a nested quoted constituent; and one quoted triple that
/// is both an interned object and an annotated subject, written through
/// every path.
#[test]
fn annotations_live_apart_from_their_asserted_quads() {
    let mut rng = SmallRng::seed_from_u64(11);
    let mut store = QuadStore::new();
    let mut model = Model::default();
    let mut step = |store: &mut QuadStore, model: &mut Model, op: Op| {
        apply(store, model, &op).expect("store and oracle agree on the count");
        check(store, model, &mut rng).expect("store and oracle agree on every read");
    };
    let note = |store: &QuadStore, spec| store.contains(&quad(spec));

    // before its asserted quad, then the quad, then a second value
    step(&mut store, &mut model, Op::Insert((12, 1, 0, 0)));
    step(&mut store, &mut model, Op::Insert((0, 0, 0, 0)));
    step(&mut store, &mut model, Op::Extend(vec![(12, 1, 1, 0), (12, 2, 3, 1)]));
    assert_eq!(store.len(), 4);
    // the asserted quad removed alone: the annotations stay
    step(&mut store, &mut model, Op::Remove((0, 0, 0, 0)));
    assert!(note(&store, (12, 1, 0, 0)) && note(&store, (12, 1, 1, 0)));
    // an annotation whose triple is never asserted, and a nested one
    step(&mut store, &mut model, Op::ExtendEncoded(vec![(14, 3, 2, 2), (15, 1, 4, 0)]));
    // the same triple as an interned object: the annotations it already
    // had stay in the annotation run, later ones land there too, whether
    // written decoded or as a four-id quad over its id
    step(&mut store, &mut model, Op::Insert((5, 2, 12, 0)));
    assert!(store.id_of(&asserted(0)).is_some());
    step(&mut store, &mut model, Op::ExtendEncoded(vec![(12, 3, 5, 0)]));
    step(&mut store, &mut model, Op::Insert((12, 0, 6, 1)));
    assert_eq!(store.match_ids(&EncodedPattern::any()).count(), 1);
    step(&mut store, &mut model, Op::RetractEncoded(vec![(12, 1, 0, 0), (12, 3, 5, 0)]));
    step(&mut store, &mut model, Op::Retract(vec![(15, 1, 4, 0), (12, 0, 6, 1)]));
    assert!(note(&store, (12, 1, 1, 0)) && !note(&store, (12, 1, 0, 0)));
    assert_eq!(store.len(), 4);
}
