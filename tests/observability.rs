//! Observability integration: the explain path reports a complete plan
//! for the discovery star query, the bootstrap span tree reaches
//! `BootstrapStats`, the `lids-obs/v1` snapshot is well-formed, and the
//! instrumented evaluator stays within the overhead budget.

use kglids_repro::kglids::{
    DeltaBatch, DeltaStats, KgLidsBuilder, PipelineScript, SEARCH_TABLES_QUERY,
};
use kglids_repro::kg::abstraction::PipelineMetadata;
use kglids_repro::obs::{AttrValue, SpanSnapshot};
use kglids_repro::profiler::table::{Column, Dataset, Table};
use kglids_repro::rdf::{Quad, QuadStore, Term};
use kglids_repro::sparql::{evaluate_governed, parse_query, EvalOptions, ExplainReport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::time::Instant;

fn platform() -> kglids_repro::kglids::KgLids {
    let ages: Vec<String> = (20..50).map(|i| i.to_string()).collect();
    let cities: Vec<String> = (0..30)
        .map(|i| ["London", "Paris", "Tokyo"][i % 3].to_string())
        .collect();
    let script = PipelineScript {
        metadata: PipelineMetadata {
            id: "p1".into(),
            dataset: "health".into(),
            title: "t".into(),
            author: "a".into(),
            votes: 1,
            score: 0.5,
            task: "classification".into(),
        },
        source: "import pandas as pd\ndf = pd.read_csv('health/patients.csv')\n".into(),
    };
    KgLidsBuilder::new()
        .with_datasets([
            Dataset::new(
                "health",
                vec![Table::new(
                    "patients",
                    vec![Column::new("age", ages.clone()), Column::new("city", cities.clone())],
                )],
            ),
            Dataset::new(
                "census",
                vec![Table::new("people", vec![Column::new("age", ages)])],
            ),
        ])
        .with_pipelines([script])
        .bootstrap()
        .0
}

#[test]
fn explain_reports_est_and_actual_for_star_query() {
    let platform = platform();
    let report = platform.explain(SEARCH_TABLES_QUERY).unwrap();
    assert!(!report.patterns.is_empty());
    assert!(report.rows > 0, "star query matched nothing");
    // every triple pattern of the discovery star join reports an estimated
    // AND an actual cardinality, and was actually executed
    for p in &report.patterns {
        assert!(p.satisfiable, "{}", p.pattern);
        assert!(p.order.is_some(), "{} never executed", p.pattern);
        assert!(p.estimated_rows > 0, "{} missing estimate", p.pattern);
        assert!(p.actual_rows > 0, "{} missing actual rows", p.pattern);
    }
    // executed positions are per-BGP, so each is within bounds and the
    // star join's first pattern (position 0) exists
    assert!(report.patterns.iter().any(|p| p.order == Some(0)));
    for p in &report.patterns {
        assert!(p.order.unwrap_or(0) < report.patterns.len());
    }
    // the rendering carries both cardinalities per pattern
    let text = report.to_string();
    assert!(text.contains("est "), "{text}");
    assert!(text.contains("actual "), "{text}");
    // and matches the plain evaluation
    let rows = platform.query(SEARCH_TABLES_QUERY).unwrap().len();
    assert_eq!(report.rows, rows);
}

#[test]
fn operator_and_plan_cache_counters_exported() {
    let platform = platform();
    platform.query(SEARCH_TABLES_QUERY).unwrap();
    let first = platform.plan_cache_stats();
    assert!(first.parses >= 1);
    platform.query(SEARCH_TABLES_QUERY).unwrap();
    let second = platform.plan_cache_stats();
    // second execution of an identical query does not parse
    assert_eq!(second.parses, first.parses, "identical query re-parsed");
    assert_eq!(second.hits_text, first.hits_text + 1);

    let metrics = platform.obs().metrics.snapshot();
    // plan-cache gauges carry the cache's monotonic totals
    assert_eq!(metrics.gauge("sparql.plan_cache.parses"), Some(second.parses as f64));
    assert_eq!(metrics.gauge("sparql.plan_cache.hits"), Some(second.hits() as f64));
    // the discovery star join runs on the vectorized operators
    let leapfrog = metrics.counter("query.ops.leapfrog").unwrap_or(0);
    let probe = metrics.counter("query.ops.probe").unwrap_or(0);
    let merge = metrics.counter("query.ops.merge").unwrap_or(0);
    assert!(leapfrog > 0, "star query should leapfrog its root star");
    assert!(leapfrog + probe + merge >= 2);

    // snapshot stability: serializing twice without new queries is
    // byte-identical and carries the new metric families
    let a = platform.obs_snapshot_json();
    let b = platform.obs_snapshot_json();
    assert_eq!(a, b);
    assert!(a.contains("query.ops.leapfrog"));
    assert!(a.contains("sparql.plan_cache.hits"));
}

#[test]
fn explain_labels_operators_for_star_query() {
    let platform = platform();
    let report = platform.explain(SEARCH_TABLES_QUERY).unwrap();
    // every executed pattern carries an operator label
    for p in &report.patterns {
        if p.order.is_some() {
            assert!(p.operator.is_some(), "{} executed without operator", p.pattern);
        }
    }
    assert!(report.leapfrog_joins > 0, "star join should record a leapfrog execution");
    let text = report.to_string();
    assert!(text.contains("leapfrog"), "{text}");

    // the similarity text `Discovery::ranked_tables` issues for
    // unionable-tables / joinable-tables: its RDF-star pattern runs on the
    // same operators as the three plain ones
    let table = kglids_repro::kg::ontology::res::table("health", "patients");
    let hops = format!(
        "<{table}> k:hasColumn ?ca . \
         ?ca k:hasContentSimilarity ?cb . \
         ?cb k:isPartOf ?other ."
    );
    let prefix = "PREFIX k: <http://kglids.org/ontology/>";
    let edges = platform.query(&format!("{prefix} SELECT ?ca ?cb WHERE {{ {hops} }}")).unwrap();
    assert!(!edges.is_empty(), "the fixture links health/patients to census/people");
    let report = platform
        .explain(&format!(
            "{prefix} SELECT ?other ?s WHERE {{ {hops} \
             << ?ca k:hasContentSimilarity ?cb >> k:withCertainty ?s . }}"
        ))
        .unwrap();
    assert_eq!(report.patterns.len(), 4);
    for p in &report.patterns {
        assert!(matches!(p.operator, Some("probe" | "merge")), "{} ran {:?}", p.pattern, p.operator);
    }
    let quoted = report.patterns.iter().find(|p| p.pattern.starts_with("<<")).unwrap();
    assert_eq!(quoted.actual_rows, edges.len() as u64, "one score per similarity edge");
    assert_eq!(report.rows, edges.len());
}

#[test]
fn bootstrap_trace_and_snapshot_schema() {
    let ages: Vec<String> = (20..30).map(|i| i.to_string()).collect();
    let (platform, stats) = KgLidsBuilder::new()
        .with_dataset(Dataset::new(
            "d",
            vec![Table::new("t", vec![Column::new("age", ages)])],
        ))
        .bootstrap();
    let root = stats.trace.root("bootstrap").expect("root span");
    assert!(root.closed);
    for stage in ["parse", "profile", "link.schema", "abstract", "link.pipelines", "embed"] {
        assert!(root.child(stage).is_some(), "missing stage span {stage}");
    }
    // one query, so the snapshot carries a populated latency histogram
    platform.query(SEARCH_TABLES_QUERY).unwrap();
    let json = platform.obs_snapshot_json();
    let Ok(Value::Object(snapshot)) = serde_json::from_str(&json) else {
        panic!("snapshot is not a JSON object: {json}")
    };
    assert_eq!(snapshot.get("schema"), Some(&Value::String("lids-obs/v1".into())));
    let Some(Value::Object(sections)) = snapshot.get("metrics") else {
        panic!("snapshot has no metrics object: {json}")
    };
    for section in ["counters", "gauges", "histograms"] {
        assert!(sections.get(section).is_some(), "missing section {section}");
    }
    let metrics = platform.obs().metrics.snapshot();
    for counter in ["bootstrap.triples", "bootstrap.columns_profiled", "query.count"] {
        assert!(metrics.counter(counter) > Some(0), "counter {counter}");
    }
    assert!(metrics.gauge("memory.peak_bytes").is_some());
    assert!(metrics.histogram("query.wall_us").is_some());
    // what a scraper relies on: no empty histogram, bucket bounds strictly
    // increasing
    for (name, hist) in &metrics.histograms {
        assert!(hist.count > 0, "{name} is empty");
        assert!(hist.buckets.windows(2).all(|w| w[0].0 < w[1].0), "{name}: {:?}", hist.buckets);
    }
}

/// One ingest path, one query path: a bootstrap and a delta are the same
/// stage sequence under differently named roots, and the empty-query
/// guard answers the same typed error whichever handle is asked.
#[test]
fn bootstrap_and_delta_share_stages_and_handles_share_the_query_guard() {
    let ages: Vec<String> = (20..30).map(|i| i.to_string()).collect();
    let dataset = |name: &str| {
        Dataset::new(name, vec![Table::new("t", vec![Column::new("age", ages.clone())])])
    };
    let (mut platform, stats) = KgLidsBuilder::new().with_dataset(dataset("d")).bootstrap();
    let delta = platform.apply_delta(DeltaBatch::new().add_dataset(dataset("e")));
    let stages = |root: &SpanSnapshot| -> Vec<String> {
        root.children.iter().map(|stage| stage.name.clone()).collect()
    };
    let bootstrap = stats.trace.root("bootstrap").expect("bootstrap root");
    let delta = delta.trace.root("delta").expect("delta root");
    assert_eq!(stages(bootstrap), stages(delta));
    assert_eq!(
        stages(delta),
        ["retract", "parse", "profile", "link.schema", "abstract", "link.pipelines", "embed", "commit"]
    );

    let reader = platform.reader();
    for err in [
        platform.explain("").unwrap_err(),
        reader.explain(" \n").unwrap_err(),
        platform.query("").unwrap_err(),
        reader.query("\t").unwrap_err(),
    ] {
        assert_eq!(err.kind(), kglids_repro::exec::ErrorKind::InvalidArgument, "{err}");
    }
}

/// Every delta opens a span tree; a lake that churns for the life of the
/// process must not keep them all, nor hand every tree since bootstrap
/// back with each delta's stats.
#[test]
fn a_churning_lake_keeps_a_bounded_trace() {
    let ages: Vec<String> = (20..30).map(|i| i.to_string()).collect();
    let dataset = |name: &str| {
        Dataset::new(name, vec![Table::new("t", vec![Column::new("age", ages.clone())])])
    };
    let (mut platform, _) = KgLidsBuilder::new().with_dataset(dataset("d")).bootstrap();
    let mut kept = Vec::new();
    for i in 0..200 {
        let stats = platform.apply_delta(if i % 2 == 0 {
            DeltaBatch::new().add_dataset(dataset("guest"))
        } else {
            DeltaBatch::new().remove_dataset("guest")
        });
        // a delta reports its own tree, not every tree since bootstrap
        assert_eq!(stats.trace.roots.len(), 1);
        assert_eq!(stats.trace.roots[0].name, "delta");
        kept.push(platform.obs().tracer.snapshot().roots.len());
    }
    // the tracer settles at the bootstrap tree plus a fixed number of the
    // most recent delta trees
    let settled = kept[100];
    assert!(settled < 100, "tracer holds {settled} trees after 100 deltas");
    assert!(kept[100..].iter().all(|&roots| roots == settled), "tracer keeps growing: {kept:?}");
    let trees = platform.obs().tracer.snapshot().roots;
    assert_eq!(trees[0].name, "bootstrap");
    assert!(trees[1..].iter().all(|r| r.name == "delta" && r.closed));
}

/// An `ingest` span covers the bulk load it reports on: its wall time is
/// at least the phase timings (`encode_secs` + `index_secs`) it carries,
/// in a bootstrap and — where a copy-on-write clone precedes the phases —
/// in a delta applied under a pinned reader.
#[test]
fn ingest_span_times_the_load_it_reports() {
    fn check(stage: &SpanSnapshot) {
        let ingest = stage.child("ingest").expect("ingest span");
        let phases: f64 = ["encode_secs", "index_secs"]
            .iter()
            .map(|key| match ingest.attr(key) {
                Some(AttrValue::F64(secs)) => *secs,
                other => panic!("ingest span carries {key} = {other:?}"),
            })
            .sum();
        assert!(phases > 0.0, "ingest span of {} loaded nothing", stage.name);
        assert!(
            ingest.wall_secs >= phases,
            "ingest span of {} lasted {} s, its phases {phases} s",
            stage.name,
            ingest.wall_secs
        );
    }
    let column = |name: &str| Column::new(name, (0..200).map(|i| (i * 7).to_string()).collect());
    let dataset =
        |name: &str| Dataset::new(name, vec![Table::new("t", vec![column("age"), column("size")])]);
    // a lake wide enough that one small dataset is a small delta
    let wide = |name: &str| {
        let columns = (0..24).map(|i| column(&format!("c{i}"))).collect();
        Dataset::new(name, vec![Table::new("t", columns)])
    };
    let (mut platform, stats) =
        KgLidsBuilder::new().with_datasets([dataset("d"), wide("w")]).bootstrap();
    check(stats.trace.root("bootstrap").and_then(|r| r.child("link.schema")).expect("stage"));

    let reader = platform.reader();
    let pinned = reader.snapshot();
    // one column unlike any in the lake: metadata quads, no edges
    let note = Column::new("note", (0..200).map(|i| format!("remark {}", i % 17)).collect());
    let small = Dataset::new("e", vec![Table::new("t", vec![note])]);
    let delta = platform.apply_delta(DeltaBatch::new().add_dataset(small));
    check(delta.trace.roots.last().and_then(|r| r.child("link.schema")).expect("stage"));
    // the pinned snapshot forced exactly one clone, at the delta's first write
    assert_eq!(delta.cow_clones, 1);
    assert!(delta.cow_secs > 0.0 && delta.cow_secs <= delta.linking_secs);
    let metrics = platform.obs().metrics.snapshot();
    assert_eq!(metrics.gauge("store.cow.clones"), Some(1.0));
    assert_eq!(metrics.gauge("store.cow.secs"), Some(delta.cow_secs));
    assert!(pinned.len() < platform.store().len());
    // what replaced the tree copy: one small dataset stays in the overlay
    // (the clone above copied that, not the lake), and only a delta that
    // outgrows the fold threshold pays the pass over the base runs
    let overlay = platform.store().overlay_len();
    assert_eq!((delta.folds, delta.fold_secs), (0, 0.0));
    assert!(overlay >= delta.quads_added && overlay * 8 <= platform.store().len());
    assert_eq!(metrics.gauge("store.overlay_quads"), Some(overlay as f64));
    let big = platform.apply_delta(DeltaBatch::new().add_dataset(wide("x")));
    assert!(big.quads_added * 8 > pinned.len());
    assert_eq!(big.folds, 1);
    assert!(big.fold_secs > 0.0);
    assert_eq!(platform.store().overlay_len(), 0);
    let metrics = platform.obs().metrics.snapshot();
    assert_eq!(metrics.gauge("store.folds"), Some(2.0), "the bootstrap's first fill, and this");
    assert_eq!(metrics.gauge("store.overlay_quads"), Some(0.0));
}

/// The trace is the one clock: every stage's `*_secs` in the stats is
/// that stage's span's wall time, in a bootstrap and in a delta that
/// removes one dataset and adds another with a pipeline.
#[test]
fn stage_seconds_are_their_spans() {
    fn check(root: &SpanSnapshot, stats: &DeltaStats) {
        for (secs, stage) in [
            (stats.retraction_secs, "retract"),
            (stats.parse_secs, "parse"),
            (stats.profiling_secs, "profile"),
            (stats.linking_secs, "link.schema"),
            (stats.abstraction_secs, "abstract"),
            (stats.pipeline_linking_secs, "link.pipelines"),
        ] {
            let span = root.child(stage).unwrap_or_else(|| panic!("missing stage span {stage}"));
            assert!(span.closed, "{stage} left open");
            assert_eq!(secs, span.wall_secs, "{stage}: stats and span disagree");
        }
    }
    let ages: Vec<String> = (20..30).map(|i| i.to_string()).collect();
    let dataset = |name: &str| {
        Dataset::new(name, vec![Table::new("t", vec![Column::new("age", ages.clone())])])
    };
    let (mut platform, stats) =
        KgLidsBuilder::new().with_datasets([dataset("d"), dataset("e")]).bootstrap();
    let bootstrap = stats.trace.root("bootstrap").expect("bootstrap root");
    for (secs, stage) in [
        (stats.ingestion_secs, "parse"),
        (stats.profiling_secs, "profile"),
        (stats.schema_secs, "link.schema"),
        (stats.abstraction_secs, "abstract"),
        (stats.linking_secs, "link.pipelines"),
    ] {
        assert_eq!(Some(secs), bootstrap.child(stage).map(|s| s.wall_secs), "{stage}");
    }
    let script = PipelineScript {
        metadata: PipelineMetadata {
            id: "p1".into(),
            dataset: "f".into(),
            title: "t".into(),
            author: "a".into(),
            votes: 1,
            score: 0.5,
            task: "classification".into(),
        },
        source: "import pandas as pd\ndf = pd.read_csv('f/t.csv')\n".into(),
    };
    let delta = platform.apply_delta(
        DeltaBatch::new().remove_dataset("e").add_dataset(dataset("f")).add_pipelines([script]),
    );
    assert!(delta.quads_retracted > 0 && delta.pipelines_abstracted == 1);
    check(delta.trace.root("delta").expect("delta root"), &delta);
}

/// The `retract` twin: the span covers the removal it reports on — its
/// wall time is at least the victim collection plus the index drop it
/// carries, under a pinned reader too (the clone precedes the drop) — and
/// what follows the stages of a delta, the embedding rebuild and the
/// commit, has spans of its own.
#[test]
fn retract_span_times_the_removal_it_reports() {
    let column = |name: &str| Column::new(name, (0..200).map(|i| (i * 7).to_string()).collect());
    let dataset =
        |name: &str| Dataset::new(name, vec![Table::new("t", vec![column("age"), column("size")])]);
    let (mut platform, _) =
        KgLidsBuilder::new().with_datasets([dataset("d"), dataset("e")]).bootstrap();
    let reader = platform.reader();
    let pinned = reader.snapshot();
    let delta = platform.apply_delta(DeltaBatch::new().remove_dataset("e"));

    let root = delta.trace.roots.last().expect("delta root span");
    let retract = root.child("retract").expect("retract span");
    let secs = |key: &str| match retract.attr(key) {
        Some(AttrValue::F64(secs)) => *secs,
        other => panic!("retract span carries {key} = {other:?}"),
    };
    let (collect, index) = (secs("collect_secs"), secs("index_secs"));
    assert!(collect > 0.0 && index > 0.0, "collect {collect} s, index {index} s");
    assert!(
        retract.wall_secs >= collect + index,
        "retract span lasted {} s, its phases {} s",
        retract.wall_secs,
        collect + index
    );
    assert!(delta.retraction_secs >= collect + index);
    // similarity edges between d and e are collected from both endpoints'
    // scans once each, so victims (duplicates included) >= quads dropped
    let count = |key: &str| retract.counts.iter().find(|(k, _)| k == key).map(|(_, n)| *n);
    assert_eq!(count("quads_retracted"), Some(delta.quads_retracted as u64));
    assert!(count("victims") >= count("quads_retracted") && delta.quads_retracted > 0);
    // the pinned snapshot forced exactly one clone, inside the index drop
    assert_eq!(delta.cow_clones, 1);
    assert!(delta.cow_secs > 0.0 && delta.cow_secs <= index);
    assert_eq!(pinned.len(), platform.store().len() + delta.quads_retracted);

    for stage in ["embed", "commit"] {
        assert!(root.child(stage).is_some_and(|span| span.closed), "missing stage span {stage}");
    }
}

/// Conformance-style corpus: the instrumented evaluator must stay within
/// 10% of the uninstrumented one. Interleaved min-of-N per attempt, with
/// retries, so scheduler noise can't fail the build spuriously. Subjects and
/// objects share one namespace, so the three-hop chain really joins (tens
/// of thousands of rows through probe, merge and the projection decode) and
/// explain's per-query constants — pattern texts, estimates, the counter
/// table — amortise: the ratio measures what instrumentation adds per row.
#[test]
fn instrumentation_overhead_within_budget() {
    let mut rng = SmallRng::seed_from_u64(42);
    let mut store = QuadStore::new();
    for _ in 0..1400 {
        store.insert(&Quad::new(
            Term::iri(format!("n{}", rng.gen_range(0..40))),
            Term::iri(format!("p{}", rng.gen_range(0..4))),
            Term::iri(format!("n{}", rng.gen_range(0..40))),
        ));
    }
    let query = parse_query(
        "SELECT ?x ?y ?z WHERE { ?x <p0> ?y . ?y <p1> ?z . ?z <p2> ?w . }",
    )
    .unwrap();
    // one entry point runs both legs; only the report request differs
    let run = |report: Option<&mut ExplainReport>| {
        evaluate_governed(&store, &query, EvalOptions::default(), None, None, report).unwrap()
    };
    // warm up both paths once
    let plain_rows = run(None).len();
    let mut report = ExplainReport::default();
    assert_eq!(plain_rows, run(Some(&mut report)).len());
    assert_eq!(report.rows, plain_rows);
    assert!(plain_rows > 5_000, "the chain must join: {plain_rows} rows");

    let mut best = f64::INFINITY;
    for _attempt in 0..10 {
        let mut plain_min = f64::INFINITY;
        let mut instr_min = f64::INFINITY;
        for i in 0..8 {
            // alternate which path runs first so cache/scheduler effects
            // don't systematically favour one side
            for leg in 0..2 {
                if (i + leg) % 2 == 0 {
                    let t = Instant::now();
                    let s = run(None);
                    plain_min = plain_min.min(t.elapsed().as_secs_f64());
                    assert_eq!(s.len(), plain_rows);
                } else {
                    let t = Instant::now();
                    let s = run(Some(&mut report));
                    instr_min = instr_min.min(t.elapsed().as_secs_f64());
                    assert_eq!(s.len(), plain_rows);
                }
            }
        }
        best = best.min(instr_min / plain_min.max(1e-9));
        if best < 1.10 {
            return;
        }
    }
    panic!("instrumentation overhead {best:.3}x exceeds 1.10x budget");
}
