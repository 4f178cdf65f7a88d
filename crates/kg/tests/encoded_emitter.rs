//! The schema emitter has one body and two targets. These tests hold the
//! id-space target (`EncodedBatch` + `extend_encoded`, how the platform
//! writes) to the decoded one (`Vec<Quad>` + `extend`, the reference) over
//! any schedule of linking batches, and the id-space retraction set to the
//! quad-level collection it replaced.

use std::collections::BTreeSet;

use lids_embed::{FineGrainedType, WordEmbeddings};
use lids_exec::{ErrorKind, LidsError};
use lids_kg::abstraction::PipelineMetadata;
use lids_kg::ontology::{object_prop, res};
use lids_kg::provenance::{artifact_iri, QUARANTINE_GRAPH};
use lids_kg::{
    abstract_pipeline, build_data_global_schema, emit_metadata, emit_quarantine,
    retraction_ids, retraction_quads, AbstractionStats, Edge, EncodedBatch, LibraryDocs,
    LinkIndex, LinkingConfig, LinkingMode, QuarantineRecord, SchemaConfig,
};
use lids_profiler::{ColumnMeta, ColumnProfile, ColumnStats};
use lids_rdf::{GraphName, Quad, QuadPattern, QuadStore, StoreSnapshot, Term};
use proptest::prelude::*;

/// Sorted decoded quad strings — the dictionary-independent fingerprint.
fn dump(store: &QuadStore) -> Vec<String> {
    let mut quads: Vec<String> = store.iter().map(|q| q.to_string()).collect();
    quads.sort();
    quads
}

const DIM: usize = 4;

/// One column: which table it sits in, which label and type it has, and
/// the seed of its content (few seeds, so θ- and β-edges do fire).
#[derive(Debug, Clone)]
struct ColumnSpec {
    table: usize,
    label: usize,
    fgt: usize,
    content: usize,
}

fn column_strategy() -> impl Strategy<Value = ColumnSpec> {
    (0usize..6, 0usize..5, 0usize..3, 0usize..4)
        .prop_map(|(table, label, fgt, content)| ColumnSpec { table, label, fgt, content })
}

/// Profiles of a lake of up to six tables in three datasets, grouped by
/// table like the profiler's output.
fn profiles_of(mut specs: Vec<ColumnSpec>) -> Vec<ColumnProfile> {
    const LABELS: [&str; 5] = ["age", "height", "city", "is_active", "score"];
    const TYPES: [FineGrainedType; 3] =
        [FineGrainedType::Int, FineGrainedType::Float, FineGrainedType::Boolean];
    specs.sort_by_key(|spec| spec.table);
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let fgt = TYPES[spec.fgt];
            let boolean = fgt == FineGrainedType::Boolean;
            let mut embedding = vec![0.05f32; DIM];
            embedding[spec.content] = 1.0;
            ColumnProfile {
                meta: ColumnMeta {
                    dataset: format!("d{}", spec.table / 2),
                    table: format!("t{}", spec.table),
                    column: format!("{}_{i}", LABELS[spec.label]),
                },
                fgt,
                stats: ColumnStats {
                    count: 40,
                    nulls: i % 3,
                    distinct: 10 + i,
                    min: (!boolean).then_some(spec.content as f64),
                    max: (!boolean).then_some(spec.content as f64 + 9.5),
                    mean: (!boolean).then_some(spec.content as f64 + 4.0),
                    std_dev: None,
                    true_ratio: boolean.then_some(0.25 * spec.content as f64),
                    avg_length: None,
                },
                embedding: if boolean { Vec::new() } else { embedding },
            }
        })
        .collect()
}

/// Run `emit` against an id-space batch on `store` and load the result.
fn load_encoded(store: &mut QuadStore, emit: impl FnOnce(&mut EncodedBatch<'_>)) {
    let mut batch = EncodedBatch::new(store);
    emit(&mut batch);
    let (quads, notes) = batch.into_ids();
    store.extend_encoded(quads, notes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the lake and however it is cut into linking batches, one
    /// index links it to the quads of one fill, pruned or exact, and the
    /// emitter loads the same decoded quads through either target — into
    /// an empty store, and into one that already holds every other quad
    /// (so about half the terms resolve instead of being interned).
    #[test]
    fn both_targets_load_equal_stores(
        specs in proptest::collection::vec(column_strategy(), 2..28),
        cutoff in prop_oneof![Just(0usize), Just(192usize)],
        cuts in proptest::collection::vec(0usize..28, 0..4),
    ) {
        let profiles = profiles_of(specs);
        let we = WordEmbeddings::new();
        let config = |mode| SchemaConfig {
            linking: LinkingConfig { mode, bucket_cutoff: cutoff, ..Default::default() },
            ..Default::default()
        };

        // the lake cut into batches at `cuts`, empty batches included
        let mut bounds: Vec<usize> =
            cuts.iter().map(|&c| c.min(profiles.len())).chain([0, profiles.len()]).collect();
        bounds.sort_unstable();
        let batches: Vec<&[ColumnProfile]> =
            bounds.windows(2).map(|w| &profiles[w[0]..w[1]]).collect();
        let mut index = LinkIndex::new(config(LinkingMode::Pruned));
        let mut linked: Vec<Vec<Edge>> = Vec::new();
        for batch in &batches {
            let (link, edges) = index.link_columns(batch, &we);
            prop_assert_eq!(link.label_edges + link.content_edges, edges.len());
            linked.push(edges);
        }

        let mut quads: Vec<Quad> = Vec::new();
        let mut triples = 0;
        for (batch, edges) in batches.iter().zip(&linked) {
            triples += index.emit_columns(&mut quads, batch, edges);
        }
        let edges: usize = linked.iter().map(Vec::len).sum();
        prop_assert_eq!(quads.len(), triples + 4 * edges);
        let mut reference = QuadStore::new();
        reference.extend(quads.iter().cloned());
        for mode in [LinkingMode::Pruned, LinkingMode::Exact] {
            let mut one_fill = QuadStore::new();
            build_data_global_schema(&mut one_fill, &profiles, &config(mode), &we);
            prop_assert_eq!(dump(&one_fill), dump(&reference));
        }

        let half: Vec<Quad> = quads.iter().step_by(2).cloned().collect();
        for preload in [Vec::new(), half] {
            let mut store = QuadStore::new();
            store.extend(preload);
            let mut encoded_triples = 0;
            for (batch, edges) in batches.iter().zip(&linked) {
                load_encoded(&mut store, |sink| {
                    encoded_triples += index.emit_columns(sink, batch, edges);
                });
            }
            prop_assert_eq!(encoded_triples, triples);
            prop_assert!(store.validate_indexes());
            prop_assert_eq!(dump(&store), dump(&reference));
        }
    }
}

/// The quad-level collection `retraction_quads` ran before it became
/// "collect ids, then decode": term patterns, every hit decoded, every
/// annotation subject rebuilt as a quoted term.
fn reference_retraction(
    snap: &StoreSnapshot,
    dataset: &str,
    profiles: &[ColumnProfile],
) -> Vec<Quad> {
    let mut out: Vec<Quad> = Vec::new();
    emit_metadata(&mut out, profiles);
    let preds = [
        Term::iri(object_prop::iri(object_prop::HAS_CONTENT_SIMILARITY)),
        Term::iri(object_prop::iri(object_prop::HAS_LABEL_SIMILARITY)),
    ];
    for p in profiles {
        let c = Term::iri(res::column(&p.meta.dataset, &p.meta.table, &p.meta.column));
        for pred in &preds {
            let outgoing: Vec<Quad> = snap
                .match_pattern(
                    &QuadPattern::any().with_subject(c.clone()).with_predicate(pred.clone()),
                )
                .collect();
            let incoming: Vec<Quad> = snap
                .match_pattern(
                    &QuadPattern::any().with_predicate(pred.clone()).with_object(c.clone()),
                )
                .collect();
            for quad in outgoing.into_iter().chain(incoming) {
                let star = Term::quoted(
                    quad.subject.clone(),
                    quad.predicate.clone(),
                    quad.object.clone(),
                );
                out.extend(snap.match_pattern(&QuadPattern::any().with_subject(star)));
                out.push(quad);
            }
        }
    }
    let about = Term::iri(object_prop::iri(object_prop::ABOUT_DATASET));
    let ds = Term::iri(res::dataset(dataset));
    let pipelines: Vec<Term> = snap
        .match_pattern(&QuadPattern::any().with_predicate(about).with_object(ds))
        .map(|q| q.subject)
        .collect();
    for pipe in pipelines {
        out.extend(snap.match_pattern(
            &QuadPattern::any().with_subject(pipe.clone()).with_graph(GraphName::Default),
        ));
        if let Some(iri) = pipe.as_iri() {
            out.extend(snap.match_pattern(&QuadPattern::any().with_graph(GraphName::named(iri))));
        }
    }
    let prefix = format!("{}/", artifact_iri(dataset));
    out.extend(
        snap.match_pattern(&QuadPattern::any().with_graph(GraphName::named(QUARANTINE_GRAPH)))
            .filter(|q| q.subject.as_iri().is_some_and(|iri| iri.starts_with(&prefix))),
    );
    out
}

/// A lake where removing `d0` must withdraw every kind of quad a dataset
/// contributes: metadata, edges to other datasets, edges between two of
/// its own columns (its tables `t0` and `t1` share labels and content),
/// two pipelines with named graphs and verified reads, and quarantine
/// records — next to a dataset that keeps all of the same.
#[test]
fn retraction_ids_decode_to_the_quad_level_collection() {
    let specs: Vec<ColumnSpec> = (0..6)
        .flat_map(|table| {
            [(0, 0, 1), (1, 1, 2), (3, 2, 2)]
                .map(|(label, fgt, content)| ColumnSpec { table, label, fgt, content })
        })
        .collect();
    let profiles = profiles_of(specs);
    let we = WordEmbeddings::new();
    let config = SchemaConfig::default();
    let mut store = QuadStore::new();
    let mut index = LinkIndex::new(config);
    let (_, edges) = index.link_columns(&profiles, &we);
    load_encoded(&mut store, |batch| {
        index.emit_columns(batch, &profiles, &edges);
    });

    let docs = LibraryDocs::builtin();
    let mut abstraction = AbstractionStats::default();
    for (dataset, id) in [("d0", "p1"), ("d0", "p2"), ("d1", "p1")] {
        let own = profiles.iter().find(|p| p.meta.dataset == dataset).expect("dataset has columns");
        let metadata = PipelineMetadata {
            id: id.into(),
            dataset: dataset.into(),
            title: format!("{id} on {dataset}"),
            author: "casey".into(),
            votes: 3,
            score: 0.5,
            task: "classification".into(),
        };
        let source = format!(
            "import pandas as pd\ndf = pd.read_csv('{dataset}/{}.csv')\nx = df['{}']\n",
            own.meta.table, own.meta.column
        );
        abstract_pipeline(&mut store, &mut abstraction, &docs, &metadata, &source)
            .expect("script parses");
    }
    let error = LidsError::new(ErrorKind::CsvMalformed, "unterminated quote");
    for artifact_id in ["d0/broken.csv", "d0/p9", "d1/broken.csv"] {
        let record = QuarantineRecord { artifact_id, artifact_kind: "table", error: &error };
        emit_quarantine(&mut store, &record);
    }

    let own: Vec<ColumnProfile> =
        profiles.iter().filter(|p| p.meta.dataset == "d0").cloned().collect();
    let quads = |quads: Vec<Quad>| -> BTreeSet<String> {
        quads.iter().map(|q| q.to_string()).collect()
    };
    let expected = quads(reference_retraction(&store, "d0", &own));
    // the lake has what the test is about
    let between_own = |line: &&String| line.matches("/d0/").count() >= 2 && line.contains("Similarity");
    assert!(expected.iter().any(|line| between_own(&line)), "no edge between two columns of d0");
    assert!(expected.iter().any(|line| line.contains("readsTable")));
    assert!(expected.iter().any(|line| line.contains(QUARANTINE_GRAPH)));

    let (ids, notes) = retraction_ids(&store, "d0", &own);
    let decoded = ids.iter().map(|&quad| store.decode_quad(quad));
    let notes_decoded = notes.iter().map(|&note| store.decode_annotation(note));
    let decoded: Vec<Quad> = decoded.chain(notes_decoded).collect();
    assert_eq!(quads(decoded), expected);
    assert_eq!(quads(retraction_quads(&store, "d0", &own)), expected);

    // and dropping the ids leaves exactly what dropping the quads leaves
    let mut by_quads = QuadStore::new();
    by_quads.extend(store.iter());
    let removed = by_quads.retract(reference_retraction(&store, "d0", &own));
    assert_eq!(store.retract_encoded(ids, notes), removed);
    assert_eq!(removed, expected.len());
    assert!(store.validate_indexes());
    assert_eq!(dump(&store), dump(&by_quads));
    assert!(!dump(&store).iter().any(|line| line.contains("/d0/")));
}
