//! Property tests: the sorted-run store against the representation it
//! replaced. A `BTreeSet<[u32; 4]>` of id tuples is the oracle; every write
//! path (single, decoded batch, encoded batch, inside and outside a delta,
//! with and without a pinned snapshot or an attached reader) is applied to
//! both, with batch sizes on either side of the fold threshold, and after
//! every operation every read path must agree with the oracle — on the live
//! store and on every snapshot pinned earlier.

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

use lids_rdf::{
    EncodedPattern, EncodedQuad, GraphName, IndexOrder, Quad, QuadStore, StoreSnapshot, Term,
    TermId,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Model = BTreeSet<EncodedQuad>;
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
    (0u8..12, 0u8..4, 0u8..12, 0u8..3)
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

fn quad((s, p, o, g): Spec) -> Quad {
    Quad::in_graph(
        Term::iri(format!("s{s}")),
        Term::iri(format!("p{p}")),
        Term::iri(format!("o{o}")),
        graph_name(g),
    )
}

/// The id tuple of a universe quad, interning whatever it names first: the
/// way an id-space emitter addresses the store.
fn interned(store: &mut QuadStore, (s, p, o, g): Spec) -> EncodedQuad {
    let graph = match graph_name(g) {
        GraphName::Default => store.intern_default_graph(),
        GraphName::Named(iri) => store.intern(Term::iri(iri)),
    };
    [
        store.intern(Term::iri(format!("s{s}"))).0,
        store.intern(Term::iri(format!("p{p}"))).0,
        store.intern(Term::iri(format!("o{o}"))).0,
        graph.0,
    ]
}

/// Apply `op` to the store and the oracle, checking that both report the
/// same number of quads changed.
fn apply(store: &mut QuadStore, model: &mut Model, op: &Op) -> Result<(), TestCaseError> {
    match op {
        Op::Insert(spec) => {
            let fresh = store.insert(&quad(*spec));
            let key = store.encode_quad(&quad(*spec)).expect("inserted quads encode");
            prop_assert_eq!(fresh, model.insert(key));
        }
        Op::Remove(spec) => {
            let removed = store.remove(&quad(*spec));
            let key = store.encode_quad(&quad(*spec));
            prop_assert_eq!(removed, key.is_some_and(|key| model.remove(&key)));
        }
        Op::Extend(specs) => {
            let added = store.extend(specs.iter().map(|&spec| quad(spec)));
            let before = model.len();
            model.extend(specs.iter().filter_map(|&spec| store.encode_quad(&quad(spec))));
            prop_assert_eq!(added, model.len() - before);
        }
        Op::Retract(specs) => {
            let keys: Vec<EncodedQuad> =
                specs.iter().filter_map(|&spec| store.encode_quad(&quad(spec))).collect();
            let stats = store.retract(specs.iter().map(|&spec| quad(spec)));
            prop_assert_eq!(stats.quads_in, specs.len());
            let before = model.len();
            model.retain(|key| !keys.contains(key));
            prop_assert_eq!(stats.quads_removed, before - model.len());
        }
        Op::ExtendEncoded(specs) => {
            let keys: Vec<EncodedQuad> = specs.iter().map(|&spec| interned(store, spec)).collect();
            let added = store.extend_encoded(keys.iter().copied());
            let before = model.len();
            model.extend(keys);
            prop_assert_eq!(added, model.len() - before);
        }
        Op::RetractEncoded(specs) => {
            let keys: Vec<EncodedQuad> =
                specs.iter().filter_map(|&spec| store.encode_quad(&quad(spec))).collect();
            let removed = store.retract_encoded(keys.iter().copied());
            let before = model.len();
            model.retain(|key| !keys.contains(key));
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
fn expected_estimate(model: &Model, pattern: &EncodedPattern) -> (usize, bool) {
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
    prop_assert_eq!(snap.is_empty(), model.is_empty());
    prop_assert!(snap.validate_indexes());

    // match_ids and the estimate, all 16 bound masks, around a stored quad
    // and around a random tuple of ids (mostly absent)
    let terms = snap.term_count().max(1) as u32;
    let mut probes = vec![[0u32; 4].map(|_| rng.gen_range(0..terms))];
    if !model.is_empty() {
        probes.extend(model.iter().nth(rng.gen_range(0..model.len())));
    }
    for probe in probes {
        for mask in 0..16u8 {
            let pattern = masked(probe, mask);
            let mut got: Vec<EncodedQuad> = snap.match_ids(&pattern).collect();
            got.sort_unstable();
            let want: Vec<EncodedQuad> =
                model.iter().filter(|quad| matches(&pattern, quad)).copied().collect();
            prop_assert_eq!(&got, &want, "match_ids {:?}", pattern);
            prop_assert_eq!(
                snap.estimate_pattern_exact(&pattern),
                expected_estimate(model, &pattern),
                "estimate {:?}",
                pattern
            );
        }
    }

    let mut graphs: Vec<String> = snap.named_graphs();
    graphs.sort();
    let want: BTreeSet<String> = model
        .iter()
        .filter_map(|&key| match snap.decode_quad(key).graph {
            GraphName::Named(iri) => Some(iri),
            GraphName::Default => None,
        })
        .collect();
    prop_assert_eq!(graphs, want.into_iter().collect::<Vec<_>>());

    // each ordering: a random advance / seek_ge walk against the oracle's
    // `range(target..)`
    for order in IndexOrder::ALL {
        let keys: BTreeSet<[u32; 4]> = model.iter().map(|&quad| order.key(quad)).collect();
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
    prop_assert_eq!(scanned, model.iter().copied().collect::<Vec<_>>());
    Ok(())
}

fn run_ops(ops: &[Op], seed: u64) -> Result<(), TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut store = QuadStore::new();
    let mut model = Model::new();
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
    let mut model = Model::new();
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
