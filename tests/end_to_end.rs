//! End-to-end integration: bootstrap the platform over a generated lake
//! and pipeline corpus, then exercise every public interface against
//! ground truth and direct store scans.

use kglids_repro::datagen::pipelines::{generate_corpus, CorpusSpec};
use kglids_repro::datagen::LakeSpec;
use kglids_repro::kg::abstraction::PipelineMetadata;
use kglids_repro::kg::linker::LinkStats;
use kglids_repro::kg::ontology::object_prop;
use kglids_repro::kglids::discovery::UnionMode;
use kglids_repro::kglids::{KgLidsBuilder, PipelineScript};
use kglids_repro::ml::precision_recall_at_k;
use kglids_repro::profiler::table::Dataset;
use kglids_repro::rdf::{QuadPattern, Term};

fn lake_platform() -> (
    kglids_repro::datagen::Lake,
    kglids_repro::kglids::KgLids,
) {
    let lake = LakeSpec::tus_small().scaled(0.25).generate();
    let (platform, _) = KgLidsBuilder::new()
        .with_dataset(Dataset::new(lake.name.clone(), lake.tables.clone()))
        .bootstrap();
    (lake, platform)
}

#[test]
fn union_search_beats_chance_on_generated_lake() {
    let (lake, platform) = lake_platform();
    let k = lake.avg_unionable().max(1.0) as usize;
    let mut recall_sum = 0.0;
    for q in &lake.query_tables {
        let retrieved: Vec<String> = platform
            .discovery()
            .k(k)
            .mode(UnionMode::ContentAndLabel)
            .unionable_tables(&lake.name, q)
            .unwrap()
            .into_iter()
            .map(|h| h.table)
            .collect();
        let (_, r) = precision_recall_at_k(&retrieved, &lake.unionable[q], k);
        recall_sum += r;
    }
    let mean_recall = recall_sum / lake.query_tables.len() as f64;
    // families share column names and distributions: recall should be high
    assert!(mean_recall > 0.5, "mean recall {mean_recall}");
}

#[test]
fn sparql_results_match_direct_store_scans() {
    let (_, platform) = lake_platform();
    // count Table-typed nodes two ways
    let via_sparql = platform
        .query(
            "PREFIX k: <http://kglids.org/ontology/> \
             SELECT (COUNT(?t) AS ?n) WHERE { ?t a k:Table . }",
        )
        .unwrap()
        .get_f64(0, "n")
        .unwrap() as usize;
    let via_scan = platform
        .store()
        .match_pattern(
            &QuadPattern::any()
                .with_predicate(Term::iri(
                    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                ))
                .with_object(Term::iri("http://kglids.org/ontology/Table")),
        )
        .count();
    assert_eq!(via_sparql, via_scan);
    assert!(via_scan > 10);
}

#[test]
fn similarity_edges_carry_rdf_star_scores() {
    let (_, platform) = lake_platform();
    let df = platform
        .query(
            "PREFIX k: <http://kglids.org/ontology/> \
             SELECT ?a ?b ?s WHERE { \
                ?a k:hasContentSimilarity ?b . \
                << ?a k:hasContentSimilarity ?b >> k:withCertainty ?s . \
             } LIMIT 20",
        )
        .unwrap();
    assert!(!df.is_empty(), "no annotated similarity edges");
    for i in 0..df.len() {
        let score = df.get_f64(i, "s").unwrap();
        assert!((0.0..=1.0 + 1e-6).contains(&score), "score {score}");
    }
}

#[test]
fn corpus_bootstrap_links_pipelines_to_datasets() {
    let spec = CorpusSpec::synthetic(4, 3, 31);
    let pipelines = generate_corpus(&spec);
    let datasets = lids_bench_free_sketch_tables(&spec);
    let scripts: Vec<PipelineScript> = pipelines
        .iter()
        .map(|p| PipelineScript { metadata: p.metadata.clone(), source: p.source.clone() })
        .collect();
    let (platform, stats) = KgLidsBuilder::new()
        .with_datasets(datasets)
        .with_pipelines(scripts)
        .bootstrap();
    assert_eq!(stats.pipelines_abstracted, 12);
    assert_eq!(stats.pipelines_failed, 0);
    // the graph linker's outcome and the store it leaves, as they were
    // when predictions went through the store as literals
    assert_eq!(
        stats.links,
        LinkStats { tables_linked: 12, columns_linked: 13, predictions_dropped: 0 }
    );
    let store = platform.store();
    // each similarity annotation is a key of the store's annotation run,
    // its quoted triple no dictionary term: 1,373 terms less one per
    // annotation
    assert_eq!((store.len(), store.term_count()), (3274, 645));
    assert_eq!(store.estimate_annotations(None), 1373 - 645);
    // predictions stay in memory: none reached the dictionary
    let predicted = Term::iri(object_prop::iri(object_prop::PREDICTED_READ));
    assert_eq!(store.id_of(&predicted), None);
    let prediction = |term: &Term| {
        term.as_literal().is_some_and(|l| {
            l.lexical.starts_with("table:") || l.lexical.starts_with("column:")
        })
    };
    assert!(!store.dictionary().iter().any(|(_, term)| prediction(&term)));

    // every pipeline is its own named graph
    assert_eq!(platform.store().named_graphs().len(), 12);

    // the Figure 4 query works and pandas dominates
    let libs = platform.get_top_k_libraries_used(10).unwrap();
    assert_eq!(libs.get(0, "library"), Some("pandas"));
    assert_eq!(libs.get_f64(0, "pipelines"), Some(12.0));
}

/// Local copy of the bench helper (integration tests avoid dev-only deps).
fn lids_bench_free_sketch_tables(spec: &CorpusSpec) -> Vec<Dataset> {
    use kglids_repro::profiler::table::{Column, Table};
    spec.datasets
        .iter()
        .map(|sketch| {
            let tables = sketch
                .tables
                .iter()
                .map(|(name, columns)| {
                    let cols = columns
                        .iter()
                        .enumerate()
                        .map(|(j, cname)| {
                            let values: Vec<String> = (0..30)
                                .map(|i| {
                                    if j == 0 {
                                        format!("c{}", i % 2)
                                    } else {
                                        format!("{:.2}", (i * (j + 2)) as f64 * 0.3)
                                    }
                                })
                                .collect();
                            Column::new(cname.clone(), values)
                        })
                        .collect();
                    Table::new(name.clone(), cols)
                })
                .collect();
            Dataset::new(sketch.name.clone(), tables)
        })
        .collect()
}

#[test]
fn automation_round_trip_on_unseen_data() {
    use kglids_repro::ml::MlFrame;
    let spec = CorpusSpec::synthetic(6, 4, 77);
    let pipelines = generate_corpus(&spec);
    let datasets = lids_bench_free_sketch_tables(&spec);
    let scripts: Vec<PipelineScript> = pipelines
        .iter()
        .map(|p| PipelineScript { metadata: p.metadata.clone(), source: p.source.clone() })
        .collect();
    let (platform, _) = KgLidsBuilder::new()
        .with_datasets(datasets)
        .with_pipelines(scripts)
        .bootstrap();

    let task = &kglids_repro::datagen::tasks::cleaning_datasets(0.1)[1];
    let frame = MlFrame::from_table(&task.table, &task.target).unwrap();
    assert!(frame.has_missing());
    let ranked = platform.recommend_cleaning_operations(&task.table).unwrap();
    assert!(!ranked.is_empty());
    let cleaned = platform.apply_cleaning_operations(ranked[0].0, &frame);
    assert!(!cleaned.has_missing());

    let rec = platform.recommend_transformations(&task.table).unwrap();
    let transformed = platform.apply_transformations(&rec, &cleaned);
    assert_eq!(transformed.rows(), cleaned.rows());

    // AutoML knowledge base harvests estimators from the corpus
    let automl = platform.automl().unwrap();
    assert!(!automl.is_empty());
    let emb = platform.embed_table(&task.table);
    let result = automl.fit_with_budget(&frame.drop_missing(), &emb, 2, true, 5);
    assert!(result.evaluations <= 2);
    assert!(result.best_f1 >= 0.0);
}

#[test]
fn pipeline_metadata_queryable_by_votes() {
    let md = |id: &str, votes: u32| PipelineMetadata {
        id: id.into(),
        dataset: "d".into(),
        title: id.into(),
        author: "a".into(),
        votes,
        score: 0.5,
        task: "classification".into(),
    };
    let script = |id: &str, votes: u32| PipelineScript {
        metadata: md(id, votes),
        source: "import pandas as pd\ndf = pd.read_csv('d/t.csv')\n".into(),
    };
    let (platform, _) = KgLidsBuilder::new()
        .with_pipelines([script("low", 3), script("high", 300), script("mid", 30)])
        .bootstrap();
    let df = platform
        .query(
            "PREFIX k: <http://kglids.org/ontology/> \
             SELECT ?p ?v WHERE { ?p a k:Pipeline ; k:hasVotes ?v . } ORDER BY DESC(?v)",
        )
        .unwrap();
    assert_eq!(df.len(), 3);
    assert!(df.get(0, "p").unwrap().contains("high"));
    assert_eq!(df.get_f64(0, "v"), Some(300.0));
}
