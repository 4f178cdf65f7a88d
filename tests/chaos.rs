//! Chaos suite: bootstrap a data lake whose artifacts have been damaged by
//! the seeded fault injector and assert the platform degrades gracefully —
//! it never panics, quarantines exactly the corrupted artifacts with the
//! right error kinds, records queryable provenance, and builds the same
//! graph it would have built from a lake that never contained the damaged
//! artifacts.

use std::collections::{HashMap, HashSet};

use kglids_repro::datagen::faults::{Corruptor, FaultKind};
use kglids_repro::datagen::pipelines::{generate_corpus, CorpusSpec};
use kglids_repro::datagen::LakeSpec;
use kglids_repro::kg::provenance::{push_quarantine, QuarantineRecord, QUARANTINE_GRAPH};
use kglids_repro::exec::ErrorKind;
use kglids_repro::kglids::{ArtifactKind, DeltaBatch, KgLids, KgLidsBuilder, PipelineScript};
use kglids_repro::profiler::{write_csv, RawDataset, RawTable};
use kglids_repro::rdf::{GraphName, Quad, QuadStore};

const SEED: u64 = 2024;

/// The lake serialized to raw CSV bytes, plus the pipeline corpus.
fn artifacts() -> (String, Vec<RawTable>, Vec<PipelineScript>) {
    let lake = LakeSpec::tus_small().scaled(0.15).generate();
    let tables: Vec<RawTable> = lake
        .tables
        .iter()
        .map(|t| RawTable::new(t.name.clone(), write_csv(t).into_bytes()))
        .collect();
    let corpus = generate_corpus(&CorpusSpec::synthetic(3, 2, SEED));
    let scripts: Vec<PipelineScript> = corpus
        .iter()
        .map(|p| PipelineScript { metadata: p.metadata.clone(), source: p.source.clone() })
        .collect();
    (lake.name, tables, scripts)
}

fn bootstrap(
    lake: &str,
    tables: Vec<RawTable>,
    scripts: Vec<PipelineScript>,
) -> (KgLids, kglids_repro::kglids::BootstrapStats) {
    KgLidsBuilder::new()
        .with_raw_dataset(RawDataset::new(lake, tables))
        .with_pipelines(scripts)
        .bootstrap()
}

/// All quads outside the quarantine provenance graph, as sorted strings.
fn content_quads(platform: &KgLids) -> Vec<String> {
    let quarantine = GraphName::named(QUARANTINE_GRAPH);
    let mut quads: Vec<String> = platform
        .store()
        .iter()
        .filter(|q| q.graph != quarantine)
        .map(|q| q.to_string())
        .collect();
    quads.sort();
    quads
}

#[test]
fn corrupted_lake_quarantines_exactly_the_damaged_artifacts() {
    let (lake, clean_tables, clean_scripts) = artifacts();
    assert!(clean_tables.len() > 5, "lake too small for the chaos plan");

    // Damage one table per CSV fault kind (5 distinct kinds) plus one
    // pipeline script (PySyntax) — 6 fault kinds total.
    let mut corruptor = Corruptor::new(SEED);
    let mut tables = clean_tables.clone();
    let mut expected: HashMap<String, FaultKind> = HashMap::new();
    for (slot, kind) in FaultKind::CSV.into_iter().enumerate() {
        let table = &mut tables[slot];
        table.bytes = corruptor.corrupt_csv(&table.bytes, kind);
        expected.insert(format!("{lake}/{}", table.name), kind);
    }
    let mut scripts = clean_scripts.clone();
    scripts[0].source = corruptor.corrupt_py(&scripts[0].source);
    expected.insert(
        format!("{}/{}", scripts[0].metadata.dataset, scripts[0].metadata.id),
        FaultKind::PySyntax,
    );

    let (platform, stats) = bootstrap(&lake, tables, scripts);

    // exactly the corrupted artifacts are quarantined, with the error
    // kind each fault maps to
    let quarantined: HashSet<String> = stats
        .report
        .quarantined
        .iter()
        .map(|e| e.artifact.clone())
        .collect();
    let planted: HashSet<String> = expected.keys().cloned().collect();
    assert_eq!(quarantined, planted);
    for (artifact, fault) in &expected {
        let entry = stats.report.entry(artifact).expect("quarantined");
        assert_eq!(
            entry.error.kind(),
            fault.expected_error(),
            "{artifact} ({fault}): {}",
            entry.error
        );
        let kind = if *fault == FaultKind::PySyntax {
            ArtifactKind::Pipeline
        } else {
            ArtifactKind::Table
        };
        assert_eq!(entry.kind, kind, "{artifact}");
    }
    assert_eq!(stats.pipelines_failed, 1);
    assert_eq!(stats.pipelines_abstracted, clean_scripts.len() - 1);

    // provenance is queryable over SPARQL in the quarantine named graph
    let df = platform
        .query(&format!(
            "PREFIX prov: <http://kglids.org/provenance/> \
             SELECT ?a ?kind WHERE {{ \
                GRAPH <{QUARANTINE_GRAPH}> {{ \
                    ?a a prov:QuarantinedArtifact ; prov:errorKind ?kind . \
                }} \
             }}"
        ))
        .expect("provenance query");
    assert_eq!(df.len(), expected.len());
    let kinds: HashSet<String> = (0..df.len())
        .filter_map(|i| df.get(i, "kind").map(str::to_string))
        .collect();
    assert_eq!(
        kinds,
        HashSet::from([
            "CsvMalformed".to_string(),
            "EncodingError".to_string(),
            "PyParseError".to_string(),
        ])
    );
}

/// The bootstrap path accumulates all quarantine records into one batch
/// and bulk-loads it; the provenance that lands in the store must be
/// exactly what per-record emission would have produced.
#[test]
fn quarantine_provenance_lands_batched_and_complete() {
    let (lake, clean_tables, clean_scripts) = artifacts();
    let mut corruptor = Corruptor::new(SEED + 2);
    let mut tables = clean_tables.clone();
    for (slot, kind) in FaultKind::CSV.into_iter().enumerate() {
        tables[slot].bytes = corruptor.corrupt_csv(&tables[slot].bytes, kind);
    }
    let mut scripts = clean_scripts.clone();
    scripts[0].source = corruptor.corrupt_py(&scripts[0].source);

    let (platform, stats) = bootstrap(&lake, tables, scripts);
    assert!(!stats.report.quarantined.is_empty());

    // reference: one push_quarantine batch over the report, bulk-loaded
    // into a fresh store — the same call sequence bootstrap uses
    let mut batch: Vec<Quad> = Vec::new();
    for entry in &stats.report.quarantined {
        push_quarantine(
            &mut batch,
            &QuarantineRecord {
                artifact_id: &entry.artifact,
                artifact_kind: entry.kind.name(),
                error: &entry.error,
            },
        );
    }
    assert_eq!(batch.len(), stats.report.quarantined.len() * 4);
    let mut reference = QuadStore::new();
    reference.extend(batch);

    let quarantine = GraphName::named(QUARANTINE_GRAPH);
    let mut stored: Vec<String> = platform
        .store()
        .iter()
        .filter(|q| q.graph == quarantine)
        .map(|q| q.to_string())
        .collect();
    stored.sort();
    let mut expected: Vec<String> = reference.iter().map(|q| q.to_string()).collect();
    expected.sort();
    assert_eq!(stored, expected);
}

#[test]
fn corrupted_bootstrap_equals_clean_bootstrap_minus_quarantined() {
    let (lake, clean_tables, clean_scripts) = artifacts();

    let mut corruptor = Corruptor::new(SEED + 1);
    let mut tables = clean_tables.clone();
    let mut dropped_tables: HashSet<String> = HashSet::new();
    for (slot, kind) in FaultKind::CSV.into_iter().enumerate() {
        let table = &mut tables[slot];
        table.bytes = corruptor.corrupt_csv(&table.bytes, kind);
        dropped_tables.insert(table.name.clone());
    }
    let mut scripts = clean_scripts.clone();
    scripts[0].source = corruptor.corrupt_py(&scripts[0].source);
    let dropped_pipeline =
        (scripts[0].metadata.dataset.clone(), scripts[0].metadata.id.clone());

    let (corrupted, stats) = bootstrap(&lake, tables, scripts);
    assert_eq!(stats.report.len(), dropped_tables.len() + 1);

    // reference: a lake that never contained the damaged artifacts
    let surviving_tables: Vec<RawTable> = clean_tables
        .iter()
        .filter(|t| !dropped_tables.contains(&t.name))
        .cloned()
        .collect();
    let surviving_scripts: Vec<PipelineScript> = clean_scripts
        .iter()
        .filter(|s| (s.metadata.dataset.as_str(), s.metadata.id.as_str())
            != (dropped_pipeline.0.as_str(), dropped_pipeline.1.as_str()))
        .cloned()
        .collect();
    let (reference, ref_stats) = bootstrap(&lake, surviving_tables, surviving_scripts);
    assert!(ref_stats.report.is_clean());

    assert_eq!(content_quads(&corrupted), content_quads(&reference));
}

#[test]
fn clean_lake_bootstrap_reports_clean() {
    let (lake, tables, scripts) = artifacts();
    let (_, stats) = bootstrap(&lake, tables, scripts);
    assert!(stats.report.is_clean(), "{}", stats.report);
    assert_eq!(stats.pipelines_failed, 0);
    assert!(stats.report.summary().contains("clean"));
}

#[test]
fn every_fault_kind_alone_never_panics_and_quarantines_one_artifact() {
    let (lake, clean_tables, clean_scripts) = artifacts();
    for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
        let mut corruptor = Corruptor::new(100 + i as u64);
        let mut tables = clean_tables.clone();
        let mut scripts = clean_scripts.clone();
        let artifact = if kind == FaultKind::PySyntax {
            scripts[1].source = corruptor.corrupt_py(&scripts[1].source);
            format!("{}/{}", scripts[1].metadata.dataset, scripts[1].metadata.id)
        } else {
            tables[3].bytes = corruptor.corrupt_csv(&tables[3].bytes, kind);
            format!("{lake}/{}", tables[3].name)
        };
        let (_, stats) = bootstrap(&lake, tables, scripts);
        assert_eq!(stats.report.len(), 1, "{kind}");
        let entry = stats.report.entry(&artifact).expect("quarantined");
        assert_eq!(entry.error.kind(), kind.expected_error(), "{kind}");
    }
}

/// A script nested past the Python parser's depth budget is a typed parse
/// error: one delta carrying it quarantines that script, and the batch's
/// other scripts land as a bootstrap would have loaded them. 1,500 nested
/// blocks (1.1 MB, mostly indentation) overflowed the isolated worker's
/// stack and aborted the whole process while suites did not count toward
/// the budget; `catch_unwind` cannot catch a stack overflow.
#[test]
fn a_delta_with_a_deeply_nested_script_quarantines_it_and_lands_the_rest() {
    let (lake, tables, scripts) = artifacts();
    let depth = 1_500;
    let mut source = String::new();
    for level in 0..depth {
        source.push_str(&" ".repeat(level));
        source.push_str("if x:\n");
    }
    source.push_str(&" ".repeat(depth));
    source.push_str("pass\n");
    let mut bomb = scripts[0].clone();
    bomb.metadata.id = "nested_bomb".into();
    bomb.source = source;
    let artifact = format!("{}/{}", bomb.metadata.dataset, bomb.metadata.id);

    let (mut platform, _) = bootstrap(&lake, tables.clone(), Vec::new());
    let mut batch = scripts.clone();
    batch.insert(batch.len() / 2, bomb);
    let delta = platform.apply_delta(DeltaBatch::new().add_pipelines(batch));

    assert_eq!(delta.pipelines_failed, 1);
    assert_eq!(delta.pipelines_abstracted, scripts.len());
    assert_eq!(delta.report.len(), 1, "{}", delta.report);
    let entry = delta.report.entry(&artifact).expect("the nested script is quarantined");
    assert_eq!(entry.error.kind(), ErrorKind::PyParseError);
    assert!(entry.error.message().contains("nesting too deep"), "{}", entry.error);

    let (reference, _) = bootstrap(&lake, tables, scripts);
    assert_eq!(content_quads(&platform), content_quads(&reference));
}
