//! Differential property test for the bulk loader: `QuadStore::extend`
//! (and its two halves, `intern_quads` then `extend_encoded`) must be
//! **bit-identical** to a sequential `insert` loop — same quads,
//! same four index permutations, and the same insert-order-dense `TermId`
//! for every term, since the SPARQL evaluator joins purely over ids.
//!
//! Batches are drawn from a small alphabet so duplicates (batch-internal
//! and cross-batch) are common, and include quoted triples and named
//! graphs — the two term shapes with non-trivial interning order. Quoted
//! triples sit in subject and object position and nest one level (a quoted
//! triple quoting another as its subject or object): the dictionary keys
//! one by its constituents' ids, which the bulk loader must intern first,
//! in the order a sequential loop would. A quad with a quoted subject is an
//! annotation, which interns its triple's constituents and never the
//! triple: each batch also carries one annotated triple's family — the
//! asserted quad, two annotations with different values, the triple as an
//! object, an annotation nesting it — in a drawn order.

use lids_rdf::{EncodedAnnotation, EncodedPattern, EncodedQuad, GraphName, Quad, QuadStore, Term};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

fn leaf_strategy() -> BoxedStrategy<Term> {
    let iri = (0u8..12).prop_map(|i| Term::iri(format!("http://x/{i}")));
    let literal = prop_oneof![
        (0u8..6).prop_map(|i| Term::string(format!("v{i}"))),
        (0u8..6).prop_map(|i| Term::double(f64::from(i) / 4.0)),
    ];
    let bnode = (0u8..4).prop_map(|i| Term::BNode(format!("b{i}")));
    prop_oneof![4 => iri.boxed(), 2 => literal.boxed(), 1 => bnode.boxed()].boxed()
}

/// `<< s p o >>` over leaves, or one level deeper: a quoted triple whose
/// subject or object is itself quoted.
fn quoted_strategy() -> BoxedStrategy<Term> {
    let flat = (leaf_strategy(), leaf_strategy(), leaf_strategy())
        .prop_map(|(s, p, o)| Term::quoted(s, p, o))
        .boxed();
    let quoted_subject = (flat.clone(), leaf_strategy(), leaf_strategy())
        .prop_map(|(s, p, o)| Term::quoted(s, p, o));
    let quoted_object = (leaf_strategy(), leaf_strategy(), flat.clone())
        .prop_map(|(s, p, o)| Term::quoted(s, p, o));
    prop_oneof![3 => flat, 1 => quoted_subject.boxed(), 1 => quoted_object.boxed()].boxed()
}

fn term_strategy() -> BoxedStrategy<Term> {
    prop_oneof![6 => leaf_strategy(), 1 => quoted_strategy()].boxed()
}

/// Objects are quoted more often than other positions.
fn object_strategy() -> BoxedStrategy<Term> {
    prop_oneof![3 => leaf_strategy(), 1 => quoted_strategy()].boxed()
}

fn graph_strategy() -> impl Strategy<Value = GraphName> {
    prop_oneof![
        3 => Just(GraphName::Default),
        2 => (0u8..3).prop_map(|i| GraphName::named(format!("http://g/{i}"))),
    ]
}

fn quad_strategy() -> impl Strategy<Value = Quad> {
    (term_strategy(), term_strategy(), object_strategy(), graph_strategy())
        .prop_map(|(s, p, o, g)| Quad::in_graph(s, p, o, g))
}

/// One annotated triple's family, a drawn subset in a drawn order.
fn family_strategy() -> impl Strategy<Value = Vec<Quad>> {
    let parts = (leaf_strategy(), leaf_strategy(), leaf_strategy(), leaf_strategy());
    // each member's rank in the drawn order; members ranked 0 are left out
    let ranks = proptest::collection::vec(0u8..8, 6);
    (parts, ranks).prop_map(
        |((s, p, o, v), ranks)| {
            let triple = Term::quoted(s.clone(), p.clone(), o.clone());
            let score = Term::iri("http://x/score");
            let family = [
                Quad::new(s, p.clone(), o),
                Quad::new(triple.clone(), score.clone(), v),
                Quad::new(triple.clone(), score.clone(), Term::double(0.5)),
                Quad::new(Term::iri("http://x/about"), p.clone(), triple.clone()),
                Quad::new(
                    Term::quoted(triple.clone(), p, Term::iri("http://x/by")),
                    score.clone(),
                    Term::double(0.25),
                ),
                Quad::in_graph(triple, score, Term::double(0.5), GraphName::named("http://g/1")),
            ];
            let mut order: Vec<usize> = (0..6).filter(|&i| ranks[i] > 0).collect();
            order.sort_by_key(|&i| ranks[i]);
            order.into_iter().map(|i| family[i].clone()).collect()
        },
    )
}

/// Random quads with one family spliced in at a drawn position.
fn batch_strategy(max: usize) -> impl Strategy<Value = Vec<Quad>> {
    let quads = proptest::collection::vec(quad_strategy(), 0..max);
    (quads, family_strategy(), any::<usize>()).prop_map(
        |(mut quads, family, at)| {
            let at = at % (quads.len() + 1);
            quads.splice(at..at, family);
            quads
        },
    )
}

/// The two stores agree bit for bit: dictionary (ids AND interning order),
/// quad set in encoded form, and internally consistent secondary indexes.
fn assert_identical(seq: &QuadStore, bulk: &QuadStore) {
    assert_eq!(bulk.len(), seq.len(), "quad count diverged");
    assert_eq!(bulk.term_count(), seq.term_count(), "term count diverged");
    for (id, term) in seq.dictionary().iter() {
        assert_eq!(bulk.dictionary().term(id), term, "TermId {} diverged", id.0);
    }
    let seq_ids: Vec<EncodedQuad> = seq.match_ids(&EncodedPattern::any()).collect();
    let bulk_ids: Vec<EncodedQuad> = bulk.match_ids(&EncodedPattern::any()).collect();
    assert_eq!(seq_ids, bulk_ids, "encoded quad sets diverged");
    let seq_notes: Vec<EncodedAnnotation> = seq.match_annotations([None; 6]).collect();
    let bulk_notes: Vec<EncodedAnnotation> = bulk.match_annotations([None; 6]).collect();
    assert_eq!(seq_notes, bulk_notes, "annotation sets diverged");
    assert!(seq.validate_indexes(), "sequential store indexes inconsistent");
    assert!(bulk.validate_indexes(), "bulk store indexes inconsistent");
}

/// Raised in release, where `scripts/check.sh` runs this suite.
const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 1024 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn extend_matches_sequential_insert(quads in batch_strategy(120)) {
        let mut seq = QuadStore::new();
        let mut fresh = 0usize;
        for quad in &quads {
            fresh += usize::from(seq.insert(quad));
        }
        let mut bulk = QuadStore::new();
        prop_assert_eq!(bulk.extend(quads.clone()), fresh);
        assert_identical(&seq, &bulk);
        // the same load in two steps, as the platform's ingest stages take
        // it: ids first, then the encoded write
        let mut encoded = QuadStore::new();
        let (ids, notes) = encoded.intern_quads(quads.clone());
        prop_assert_eq!(ids.len() + notes.len(), quads.len());
        prop_assert_eq!(encoded.extend_encoded(ids, notes), fresh);
        assert_identical(&seq, &encoded);
    }

    #[test]
    fn split_batches_match_one_batch(
        quads in batch_strategy(120),
        split_at in 0usize..120,
    ) {
        let split = split_at.min(quads.len());
        let mut seq = QuadStore::new();
        for quad in &quads {
            seq.insert(quad);
        }
        // incremental path: first batch bulk-builds, second merges into
        // the populated trees and an already-warm dictionary
        let mut bulk = QuadStore::new();
        bulk.extend(quads[..split].to_vec());
        bulk.extend(quads[split..].to_vec());
        assert_identical(&seq, &bulk);
    }

    #[test]
    fn extend_encoded_reinserts_are_noops(quads in batch_strategy(60)) {
        let mut store = QuadStore::new();
        store.extend(quads);
        let before = store.len();
        let generation = store.generation();
        let encoded: Vec<EncodedQuad> = store.match_ids(&EncodedPattern::any()).collect();
        let notes: Vec<EncodedAnnotation> = store.match_annotations([None; 6]).collect();
        prop_assert_eq!(store.extend_encoded(encoded, notes), 0);
        prop_assert_eq!(store.len(), before);
        prop_assert_eq!(store.generation(), generation);
        prop_assert!(store.validate_indexes());
    }
}

/// One deterministic large-ish batch that crosses the parallel threshold,
/// so the index merge's threaded permutation sorts run in CI even though
/// proptest batches stay small.
#[test]
fn parallel_path_matches_sequential_insert() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(7);
    let mut quads: Vec<Quad> = Vec::new();
    for _ in 0..30_000 {
        let s = Term::iri(format!("http://x/s{}", rng.gen_range(0..2000)));
        let p = Term::iri(format!("http://x/p{}", rng.gen_range(0..20)));
        let o = match rng.gen_range(0..3) {
            0 => Term::iri(format!("http://x/o{}", rng.gen_range(0..2000))),
            1 => Term::string(format!("v{}", rng.gen_range(0..500))),
            _ => Term::quoted(
                Term::iri(format!("http://x/a{}", rng.gen_range(0..100))),
                Term::iri("http://x/sim"),
                Term::iri(format!("http://x/b{}", rng.gen_range(0..100))),
            ),
        };
        let g = if rng.gen_bool(0.3) {
            GraphName::named(format!("http://g/{}", rng.gen_range(0..50)))
        } else {
            GraphName::Default
        };
        quads.push(Quad::in_graph(s, p, o, g));
    }
    let mut seq = QuadStore::new();
    for quad in &quads {
        seq.insert(quad);
    }
    let mut bulk = QuadStore::new();
    assert!(bulk.extend(quads) > 0);
    assert_identical(&seq, &bulk);
}
