//! Incremental maintenance (§2.1: "as more datasets and pipelines are
//! added, KGLiDS continuously and incrementally maintains our KG"), through
//! the one ingest path: what `KgLids::apply_delta` adds is linked, embedded
//! and discoverable at once, what it cannot ingest is quarantined, and what
//! it removes leaves no trace.

use kglids_repro::kg::abstraction::PipelineMetadata;
use kglids_repro::kg::linker::LinkStats;
use kglids_repro::kg::ontology::{object_prop, res};
use kglids_repro::kglids::{DeltaBatch, KgLids, KgLidsBuilder, PipelineScript};
use kglids_repro::profiler::table::{Column, Dataset, Table};
use kglids_repro::rdf::Term;

fn ages_dataset(name: &str, table: &str) -> Dataset {
    let values: Vec<String> = (20..60).map(|i| i.to_string()).collect();
    Dataset::new(name, vec![Table::new(table, vec![Column::new("age", values)])])
}

fn metadata(id: &str, dataset: &str) -> PipelineMetadata {
    PipelineMetadata {
        id: id.into(),
        dataset: dataset.into(),
        title: "late pipeline".into(),
        author: "zed".into(),
        votes: 5,
        score: 0.6,
        task: "classification".into(),
    }
}

#[test]
fn incremental_dataset_links_to_existing() {
    let (mut platform, _) =
        KgLidsBuilder::new().with_dataset(ages_dataset("base", "people")).bootstrap();
    let before_cols = platform.profiles().len();

    let stats = platform
        .apply_delta(DeltaBatch::new().add_dataset(ages_dataset("newcomer", "patients")));
    assert_eq!(stats.columns_profiled, 1);
    assert!(stats.relink_candidates >= 1);
    // identical age columns → content + label edges across datasets
    assert!(stats.content_edges >= 1, "{stats:?}");
    assert!(stats.label_edges >= 1);
    assert_eq!(platform.profiles().len(), before_cols + 1);

    // discovery sees the new table immediately
    let ranked = platform.discovery().k(5).unionable_tables("base", "people").unwrap();
    assert!(ranked.iter().any(|h| h.table == "patients"));
    // and so does keyword search
    let hits = platform.search_tables(&[&["newcomer"]]).unwrap();
    assert_eq!(hits.len(), 1);
}

#[test]
fn incremental_dataset_embeddings_registered() {
    let mut platform = KgLids::empty();
    platform.apply_delta(DeltaBatch::new().add_dataset(ages_dataset("solo", "t")));
    assert!(platform.table_embedding("solo", "t").is_some());
    assert!(platform.dataset_embedding("solo").is_some());
    assert!(platform.dataset_embedding_missing("solo").is_some());
}

#[test]
fn incremental_pipeline_links_against_schema() {
    let (mut platform, _) =
        KgLidsBuilder::new().with_dataset(ages_dataset("titanic", "train")).bootstrap();
    let late = PipelineScript {
        metadata: metadata("late", "titanic"),
        source: "import pandas as pd\ndf = pd.read_csv('titanic/train.csv')\nx = df['age']\n"
            .into(),
    };
    let stats = platform.apply_delta(DeltaBatch::new().add_pipelines([late]));
    assert_eq!(stats.pipelines_failed, 0);
    assert_eq!(
        stats.links,
        LinkStats { tables_linked: 1, columns_linked: 1, predictions_dropped: 0 }
    );
    // the predictions never reach the store: it holds the quads it held
    // when they passed through it, and fewer terms
    let predicted = Term::iri(object_prop::iri(object_prop::PREDICTED_READ));
    let store = platform.store();
    assert_eq!(store.id_of(&predicted), None);
    assert_eq!((store.len(), store.term_count()), (290, 236));
    // the pipeline shows up in library queries
    let libs = platform.get_top_k_libraries_used(3);
    assert_eq!(libs.get(0, "library"), Some("pandas"));
}

#[test]
fn broken_pipeline_is_quarantined_not_dropped() {
    let mut platform = KgLids::empty();
    let broken =
        PipelineScript { metadata: metadata("bad", "d"), source: "def broken(:\n".into() };
    let stats = platform.apply_delta(DeltaBatch::new().add_pipelines([broken]));
    assert_eq!(stats.pipelines_failed, 1);
    // the failure is recorded, typed, and visible as provenance
    let report = platform.quarantine_report();
    assert_eq!(report.len(), 1);
    assert_eq!(report.quarantined[0].artifact, "d/bad");
    assert_eq!(report.quarantined[0].error.kind(), kglids_repro::exec::ErrorKind::PyParseError);
    assert!(platform
        .ask(
            "PREFIX p: <http://kglids.org/provenance/> \
             ASK { GRAPH <http://kglids.org/provenance/quarantine> \
             { ?a a p:QuarantinedArtifact . } }"
        )
        .unwrap());
}

#[test]
fn no_edges_for_unrelated_types() {
    let (mut platform, _) =
        KgLidsBuilder::new().with_dataset(ages_dataset("base", "people")).bootstrap();
    // a text dataset: same label never matches "age", types differ
    let text = Dataset::new(
        "texts",
        vec![Table::new(
            "reviews",
            vec![Column::new(
                "comment",
                (0..20).map(|i| format!("great product number {i} works well")).collect(),
            )],
        )],
    );
    let stats = platform.apply_delta(DeltaBatch::new().add_dataset(text));
    assert_eq!(stats.relink_candidates, 0); // different fine-grained type
    assert_eq!(stats.content_edges, 0);
}

#[test]
fn remove_dataset_restores_prior_graph() {
    let (mut platform, _) =
        KgLidsBuilder::new().with_dataset(ages_dataset("base", "people")).bootstrap();
    let mut before: Vec<String> = platform.store().iter().map(|q| q.to_string()).collect();
    before.sort();

    platform.apply_delta(DeltaBatch::new().add_dataset(ages_dataset("guest", "visitors")));
    assert!(platform.table_embedding("guest", "visitors").is_some());
    let delta = platform.apply_delta(DeltaBatch::new().remove_dataset("guest"));
    assert_eq!(delta.datasets_removed, 1);
    assert!(delta.quads_retracted > 0);

    let mut after: Vec<String> = platform.store().iter().map(|q| q.to_string()).collect();
    after.sort();
    assert_eq!(before, after, "retraction must restore the prior graph");
    assert!(platform.table_embedding("guest", "visitors").is_none());
    assert!(platform.dataset_embedding("guest").is_none());
}

/// A retracted dataset's IRIs stay in the dictionary, which never
/// forgets; a pipeline added after the dataset is gone links nothing.
#[test]
fn pipeline_of_a_retracted_dataset_links_nothing() {
    let (mut platform, _) = KgLidsBuilder::new()
        .with_datasets([ages_dataset("titanic", "train"), ages_dataset("base", "people")])
        .bootstrap();
    platform.apply_delta(DeltaBatch::new().remove_dataset("titanic"));
    let table = Term::iri(res::table("titanic", "train"));
    assert!(platform.store().id_of(&table).is_some());
    let late = PipelineScript {
        metadata: metadata("late", "titanic"),
        source: "import pandas as pd\ndf = pd.read_csv('titanic/train.csv')\nx = df['age']\n"
            .into(),
    };
    let stats = platform.apply_delta(DeltaBatch::new().add_pipelines([late]));
    assert_eq!(stats.pipelines_abstracted, 1);
    assert_eq!(
        stats.links,
        LinkStats { tables_linked: 0, columns_linked: 0, predictions_dropped: 2 }
    );
    for predicate in [object_prop::READS_TABLE, object_prop::READS_COLUMN] {
        let predicate = Term::iri(object_prop::iri(predicate));
        assert!(!platform.store().iter().any(|q| q.predicate == predicate));
    }
}

/// Table and column names that need IRI encoding link by the IRI the
/// schema stage mints for them.
#[test]
fn names_that_need_encoding_link() {
    let values = |n: usize| (0..20).map(|i| (i * n).to_string()).collect::<Vec<_>>();
    let houses = Dataset::new(
        "houses",
        vec![Table::new(
            "Sale Prices",
            vec![Column::new("Sale Price", values(1000)), Column::new("Rooms", values(1))],
        )],
    );
    let script = PipelineScript {
        metadata: metadata("prices", "houses"),
        source: "import pandas as pd\n\
                 df = pd.read_csv('houses/Sale Prices.csv')\n\
                 p = df['Sale Price']\n\
                 r = df['Rooms']\n"
            .into(),
    };
    let (_, stats) =
        KgLidsBuilder::new().with_dataset(houses).with_pipelines([script]).bootstrap();
    assert_eq!(stats.pipelines_abstracted, 1);
    assert_eq!(
        stats.links,
        LinkStats { tables_linked: 1, columns_linked: 2, predictions_dropped: 0 }
    );
}
