//! Differential tests of incremental maintenance: any interleaving of
//! `apply_delta` adds and removals must leave the store bit-identical
//! (decoded quad sets — dictionary ids may differ) to a from-scratch
//! bootstrap of the equivalent final lake. Bootstrap and every delta link
//! through one path — exact kernels behind a lossless triangle-inequality
//! candidate bound — so this holds for every lake, not just easy ones.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kglids_repro::datagen::{synthetic_profiles, Corruptor, ProfileLakeSpec};
use kglids_repro::embed::{FineGrainedType, WordEmbeddings};
use kglids_repro::kg::abstraction::PipelineMetadata;
use kglids_repro::kg::{LinkIndex, LinkingConfig, LinkingMode, SchemaConfig};
use kglids_repro::kg::linker::LinkStats;
use kglids_repro::kglids::{DeltaBatch, DeltaStats, KgLids, KgLidsBuilder, PipelineScript};
use kglids_repro::obs::AttrValue;
use kglids_repro::profiler::table::{Column, Dataset, Table};
use kglids_repro::profiler::ColumnProfile;
use kglids_repro::rdf::QuadStore;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sorted decoded quad strings — the dictionary-independent fingerprint.
fn dump(store: &QuadStore) -> Vec<String> {
    let mut quads: Vec<String> = store.iter().map(|q| q.to_string()).collect();
    quads.sort();
    quads
}

fn dump_platform(platform: &KgLids) -> Vec<String> {
    dump(platform.store())
}

/// A small mixed-type dataset: labels drawn from a shared pool so
/// cross-dataset label and content edges actually fire.
fn gen_dataset(name: &str, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let labels = ["age", "height", "name", "active", "score", "city", "id"];
    let tables = (0..2 + (seed % 3) as usize)
        .map(|t| {
            let cols = (0..2 + ((seed + t as u64) % 3) as usize)
                .map(|c| {
                    let label = labels[rng.gen_range(0..labels.len())];
                    let values: Vec<String> = match label {
                        "age" | "id" => {
                            (0..30).map(|_| rng.gen_range(18..90).to_string()).collect()
                        }
                        "height" | "score" => (0..30)
                            .map(|_| format!("{:.2}", rng.gen_range(1.0f64..200.0)))
                            .collect(),
                        "active" => (0..30)
                            .map(|_| if rng.gen_bool(0.5) { "true" } else { "false" }.into())
                            .collect(),
                        // text columns miss a few values (§4.2 embeddings)
                        _ => (0..30)
                            .map(|i| match i % 10 {
                                9 => String::new(),
                                _ => format!("entry {i} of {name}"),
                            })
                            .collect(),
                    };
                    Column::new(format!("{label}_{c}"), values)
                })
                .collect();
            Table::new(format!("t{t}"), cols)
        })
        .collect();
    Dataset::new(name, tables)
}

/// Whether the delta's `link.pipelines` stage scanned the store for
/// predictions (it reports so on its span).
fn link_scanned(stats: &DeltaStats) -> bool {
    let delta = stats.trace.roots.last().expect("delta root span");
    let span = delta.child("link.pipelines").expect("link.pipelines span");
    match span.attr("scanned") {
        Some(AttrValue::Bool(scanned)) => *scanned,
        other => panic!("link.pipelines reports scanned = {other:?}"),
    }
}

fn pipeline_for(dataset: &Dataset, id: &str, score: f64) -> PipelineScript {
    let table = &dataset.tables[0];
    let column = &table.columns[0].name;
    PipelineScript {
        metadata: PipelineMetadata {
            id: id.into(),
            dataset: dataset.name.clone(),
            title: format!("{id} on {}", dataset.name),
            author: "casey".into(),
            votes: 3,
            score,
            task: "classification".into(),
        },
        source: format!(
            "import pandas as pd\ndf = pd.read_csv('{}/{}.csv')\nx = df['{}']\n",
            dataset.name, table.name, column
        ),
    }
}

/// The table and dataset embeddings (plain and §4.2) a platform holds for
/// `dataset`, as bit patterns.
fn embedding_bits(platform: &KgLids, dataset: &Dataset) -> Vec<Option<Vec<u32>>> {
    let bits = |e: Option<&[f32]>| e.map(|e| e.iter().map(|x| x.to_bits()).collect());
    let mut all = vec![
        bits(platform.dataset_embedding(&dataset.name)),
        bits(platform.dataset_embedding_missing(&dataset.name)),
    ];
    let tables = dataset.tables.iter();
    all.extend(tables.map(|t| bits(platform.table_embedding(&dataset.name, &t.name))));
    all
}

/// The tentpole guarantee, across 10 random lakes and a nontrivial
/// interleaving: bootstrap {d0,d1,d2} → +d3 → (−d2, +d4) must equal a
/// from-scratch bootstrap of {d0,d1,d3,d4}, with the plan-cache
/// generation bumping exactly once per delta — in the store, and in the
/// embeddings derived from the profiles, which each delta refreshes for
/// the datasets it touched only.
#[test]
fn delta_interleavings_match_full_bootstrap() {
    let mut missing_value_embeddings_differ = false;
    for seed in 0..10u64 {
        let ds: Vec<Dataset> =
            (0..5).map(|i| gen_dataset(&format!("ds{i}"), seed * 31 + i)).collect();
        let pipes: Vec<PipelineScript> = ds
            .iter()
            .enumerate()
            .map(|(i, d)| pipeline_for(d, &format!("p{i}"), 0.5 + i as f64 / 10.0))
            .collect();

        // from-scratch bootstrap of the final lake {d0, d1, d3, d4}
        let (full, _) = KgLidsBuilder::new()
            .with_datasets([ds[0].clone(), ds[1].clone(), ds[3].clone(), ds[4].clone()])
            .with_pipelines([
                pipes[0].clone(),
                pipes[1].clone(),
                pipes[3].clone(),
                pipes[4].clone(),
            ])
            .bootstrap();

        // incremental: {d0, d1, d2} then +d3, then (−d2, +d4)
        let (mut platform, _) = KgLidsBuilder::new()
            .with_datasets([ds[0].clone(), ds[1].clone(), ds[2].clone()])
            .with_pipelines([pipes[0].clone(), pipes[1].clone(), pipes[2].clone()])
            .bootstrap();

        let base = platform.store().generation();
        let d1 = platform.apply_delta(
            DeltaBatch::new().add_dataset(ds[3].clone()).add_pipelines([pipes[3].clone()]),
        );
        assert_eq!(d1.generation, base + 1, "seed {seed}: delta must bump gen once");

        let d2 = platform.apply_delta(
            DeltaBatch::new()
                .remove_dataset("ds2")
                .add_dataset(ds[4].clone())
                .add_pipelines([pipes[4].clone()]),
        );
        assert_eq!(d2.generation, base + 2, "seed {seed}: mixed delta bumps gen once");
        assert_eq!(d2.datasets_removed, 1);
        assert!(d2.quads_retracted > 0, "seed {seed}: removal must retract quads");

        assert_eq!(
            dump_platform(&full),
            dump_platform(&platform),
            "seed {seed}: incremental store differs from full rebuild"
        );
        for d in &ds {
            let rebuilt = embedding_bits(&full, d);
            let name = &d.name;
            assert_eq!(rebuilt, embedding_bits(&platform, d), "seed {seed}: embeddings of {name}");
            assert_eq!(rebuilt.iter().all(Option::is_none), name == "ds2", "seed {seed}: {name}");
            missing_value_embeddings_differ |= rebuilt[0] != rebuilt[1];
        }

        // an empty delta leaves the generation untouched
        let d3 = platform.apply_delta(DeltaBatch::new());
        assert_eq!(d3.generation, base + 2, "seed {seed}: empty delta must not publish");
    }
    assert!(missing_value_embeddings_differ, "no lake had a column with missing values");
}

/// Retraction leaves the store equal to a never-ingested baseline, and no
/// ghost quarantine entries survive — including provenance of artifacts
/// that were quarantined while the dataset was being added.
#[test]
fn retraction_equals_never_ingested_baseline_including_quarantine() {
    let keep = gen_dataset("keep", 7);
    let gone = gen_dataset("gone", 8);
    let keep_pipe = pipeline_for(&keep, "kp", 0.7);
    let gone_pipe = pipeline_for(&gone, "gp", 0.6);
    // a broken pipeline of the doomed dataset: quarantined on add,
    // withdrawn (report + provenance + gauge) on removal
    let mut corruptor = Corruptor::new(99);
    let broken = PipelineScript {
        source: corruptor.corrupt_py(&gone_pipe.source),
        metadata: PipelineMetadata { id: "gp_broken".into(), ..gone_pipe.metadata.clone() },
    };

    let (baseline, _) = KgLidsBuilder::new()
        .with_dataset(keep.clone())
        .with_pipelines([keep_pipe.clone()])
        .bootstrap();

    let (mut platform, _) = KgLidsBuilder::new()
        .with_dataset(keep.clone())
        .with_pipelines([keep_pipe.clone()])
        .bootstrap();
    let added = platform.apply_delta(
        DeltaBatch::new()
            .add_dataset(gone.clone())
            .add_pipelines([gone_pipe.clone(), broken.clone()]),
    );
    assert_eq!(added.pipelines_abstracted, 1);
    assert_eq!(added.pipelines_failed, 1, "broken script quarantined, batch kept");
    assert!(link_scanned(&added), "an abstracted pipeline leaves predictions to link");
    assert!(added.links.tables_linked > 0);
    assert_eq!(platform.quarantine_report().len(), 1);
    assert_eq!(
        platform.obs().metrics.snapshot().gauge("ingest.quarantine.artifacts"),
        Some(1.0)
    );

    // a removal-only delta abstracts no pipeline, and every earlier pass
    // consumed its predictions: the Graph Linker has nothing to scan for
    let removed = platform.apply_delta(DeltaBatch::new().remove_dataset("gone"));
    assert!(removed.quads_retracted > 0);
    assert!(!link_scanned(&removed), "removal-only delta scanned for predictions");
    assert_eq!(removed.links, LinkStats::default());
    assert_eq!(
        dump_platform(&baseline),
        dump_platform(&platform),
        "retraction must leave the store equal to a never-ingested baseline"
    );
    // no ghosts: ledger, gauge, and provenance graph are all clean
    assert!(platform.quarantine_report().is_clean());
    assert_eq!(
        platform.obs().metrics.snapshot().gauge("ingest.quarantine.artifacts"),
        Some(0.0)
    );
    assert!(!platform
        .ask(
            "PREFIX p: <http://kglids.org/provenance/> \
             ASK { GRAPH <http://kglids.org/provenance/quarantine> \
             { ?a a p:QuarantinedArtifact . } }"
        )
        .unwrap());
}

/// Bootstrap is the first delta: the builder and `KgLids::empty()` + one
/// delta of the whole lake run the same stage sequence, the link index of
/// either starts empty and is filled in one batch, and the two platforms
/// are indistinguishable — store, profiles, quarantine ledger — now and
/// after one more delta on top of each.
#[test]
fn bootstrap_equals_one_delta_into_an_empty_platform() {
    let lake: Vec<Dataset> = (0..4).map(|i| gen_dataset(&format!("d{i}"), 40 + i)).collect();
    let mut pipelines: Vec<PipelineScript> =
        lake.iter().enumerate().map(|(i, d)| pipeline_for(d, &format!("p{i}"), 0.5)).collect();
    let mut corruptor = Corruptor::new(17);
    pipelines.push(PipelineScript {
        source: corruptor.corrupt_py(&pipelines[0].source),
        metadata: PipelineMetadata { id: "broken".into(), ..pipelines[0].metadata.clone() },
    });

    let (mut built, bootstrap) = KgLidsBuilder::new()
        .with_datasets(lake.clone())
        .with_pipelines(pipelines.clone())
        .bootstrap();
    let mut grown = KgLids::empty();
    let mut whole_lake = DeltaBatch::new().add_pipelines(pipelines);
    whole_lake.add_datasets = lake;
    let delta = grown.apply_delta(whole_lake);

    // one linker for both, with equal work counters
    let (batch, first) = (bootstrap.schema, delta.schema);
    assert_eq!(
        (batch.pairs_compared, batch.candidates_generated, batch.pairs_pruned),
        (first.pairs_compared, first.candidates_generated, first.pairs_pruned)
    );
    assert_eq!((batch.label_edges, batch.content_edges), (delta.label_edges, delta.content_edges));
    assert_eq!(bootstrap.pipelines_failed, 1);
    assert_eq!(delta.pipelines_failed, 1);

    let ledger = |p: &KgLids| -> Vec<(String, String, u32)> {
        let entries = &p.quarantine_report().quarantined;
        entries.iter().map(|e| (e.artifact.clone(), e.error.to_string(), e.retries)).collect()
    };
    assert_eq!(dump_platform(&built), dump_platform(&grown));
    assert_eq!(built.profiles(), grown.profiles());
    assert_eq!(ledger(&built), ledger(&grown));
    assert_eq!(ledger(&built).len(), 1);

    // the filled index serves later deltas the same on both, and a delta
    // scores only pairs with a new endpoint: no old-old pair again
    let extra = gen_dataset("extra", 77);
    let extra_pipe = pipeline_for(&extra, "late", 0.4);
    for platform in [&mut built, &mut grown] {
        let stats = platform.apply_delta(
            DeltaBatch::new().add_dataset(extra.clone()).add_pipelines([extra_pipe.clone()]),
        );
        let live = platform.profiles().len();
        assert!(stats.relink_candidates > 0);
        assert!(stats.relink_candidates <= stats.columns_profiled * live, "{stats:?}");
    }
    assert_eq!(dump_platform(&built), dump_platform(&grown));
    assert_eq!(built.profiles(), grown.profiles());
}

/// A syntactically broken script inside a `DeltaBatch` quarantines that
/// script (typed `PyParseError` + provenance quad) without dropping the
/// rest of the batch — `lids_datagen::faults` py-syntax corruption.
#[test]
fn broken_pipeline_in_delta_is_quarantined_without_dropping_batch() {
    let d = gen_dataset("lake", 21);
    let good = pipeline_for(&d, "good", 0.9);
    let mut corruptor = Corruptor::new(4);
    let broken = PipelineScript {
        source: corruptor.corrupt_py(&good.source),
        metadata: PipelineMetadata { id: "bad".into(), ..good.metadata.clone() },
    };

    let (mut platform, _) = KgLidsBuilder::new().bootstrap();
    let stats = platform.apply_delta(
        DeltaBatch::new()
            .add_dataset(d.clone())
            .add_pipelines([good.clone(), broken]),
    );
    assert_eq!(stats.pipelines_abstracted, 1);
    assert_eq!(stats.pipelines_failed, 1);
    assert_eq!(stats.report.quarantined.len(), 1);
    let entry = &stats.report.quarantined[0];
    assert_eq!(entry.artifact, "lake/bad");
    assert_eq!(entry.error.kind(), kglids_repro::exec::ErrorKind::PyParseError);
    // the good pipeline of the same batch made it into the graph...
    assert!(platform
        .ask("PREFIX k: <http://kglids.org/ontology/> ASK { ?p a k:Pipeline . }")
        .unwrap());
    // ...and the failure is recorded as provenance
    assert!(platform
        .ask(
            "PREFIX p: <http://kglids.org/provenance/> \
             ASK { GRAPH <http://kglids.org/provenance/quarantine> \
             { ?a p:errorKind ?k . } }"
        )
        .unwrap());
}

/// Live readers observe whole deltas or nothing: a polling thread must
/// only ever see (base generation, base size) or (base+1, final size),
/// never a torn intermediate.
#[test]
fn readers_see_whole_deltas_or_nothing() {
    let (mut platform, _) =
        KgLidsBuilder::new().with_dataset(gen_dataset("base", 3)).bootstrap();
    let reader = platform.reader();
    let base_gen = reader.snapshot().generation();
    let base_len = reader.snapshot().len();
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let snap = reader.snapshot();
                seen.push((snap.generation(), snap.len()));
            }
            seen
        })
    };
    for i in 0..3 {
        platform.apply_delta(
            DeltaBatch::new().add_dataset(gen_dataset(&format!("extra{i}"), 40 + i)),
        );
    }
    let final_gen = platform.store().generation();
    let final_len = platform.store().len();
    stop.store(true, Ordering::Relaxed);
    let seen = poller.join().expect("poller thread");
    assert_eq!(final_gen, base_gen + 3, "three deltas, three bumps");
    // every observation is a committed delta boundary: generations only
    // ever step by whole deltas, and a given generation always pairs with
    // one single store size
    let mut sizes: std::collections::HashMap<u64, std::collections::HashSet<usize>> =
        Default::default();
    sizes.entry(base_gen).or_default().insert(base_len);
    sizes.entry(final_gen).or_default().insert(final_len);
    for (g, l) in seen {
        assert!((base_gen..=final_gen).contains(&g), "unknown generation {g}");
        sizes.entry(g).or_default().insert(l);
    }
    for (g, ls) in sizes {
        assert_eq!(ls.len(), 1, "generation {g} observed with torn sizes {ls:?}");
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// Random interleavings of adds and removals over a pool of datasets:
    /// whatever survives must equal a from-scratch bootstrap of exactly
    /// the surviving set, and every applied (non-empty) delta bumps the
    /// plan-cache generation exactly once.
    #[test]
    fn random_add_remove_sequences_match_bootstrap(
        seed in 0u64..1000,
        ops in proptest::collection::vec((0usize..6, proptest::prelude::any::<bool>()), 1..7),
    ) {
        let pool: Vec<Dataset> =
            (0..6).map(|i| gen_dataset(&format!("pool{i}"), seed * 61 + i)).collect();
        let (mut platform, _) = KgLidsBuilder::new().bootstrap();
        let mut present: Vec<usize> = Vec::new();
        for (idx, add) in ops {
            // re-adding a present dataset is a documented caller error;
            // removing an absent one is a no-op we skip to keep the model
            // aligned — the interleaving itself stays arbitrary.
            let batch = if add && !present.contains(&idx) {
                present.push(idx);
                DeltaBatch::new().add_dataset(pool[idx].clone())
            } else if !add && present.contains(&idx) {
                present.retain(|p| *p != idx);
                DeltaBatch::new().remove_dataset(&pool[idx].name)
            } else {
                continue;
            };
            let before = platform.store().generation();
            let stats = platform.apply_delta(batch);
            proptest::prop_assert_eq!(stats.generation, before + 1);
        }
        let (full, _) = KgLidsBuilder::new()
            .with_datasets(present.iter().map(|i| pool[*i].clone()))
            .bootstrap();
        proptest::prop_assert_eq!(dump_platform(&full), dump_platform(&platform));
    }
}

/// The kg-level linker differential at scale: any schedule of batches
/// through one `LinkIndex` — all at once, one column at a time, chunks that
/// double (each outgrows the rows before it, so cells are rebuilt mid-fill
/// with new rows inside them), or a three-quarter prefix then chunks of 7
/// (new rows scored as pending singletons against cells) — emits the quads
/// of one fill under `LinkingMode::Exact`. Lakes carry HNSW and cell
/// geometry at `bucket_cutoff` 0 (everything pruned) and at the default,
/// there on a text-skewed lake whose dominant bucket outgrows the cutoff
/// while it fills, beside buckets that stay under it.
#[test]
fn any_chunk_schedule_equals_one_fill_equals_exact() {
    let we = WordEmbeddings::new();
    let fill = |profiles: &[ColumnProfile], linking: LinkingConfig, chunks: &[usize]| {
        let mut index = LinkIndex::new(SchemaConfig { linking, ..Default::default() });
        let mut out = Vec::new();
        let mut rest = profiles;
        for &size in chunks {
            let (batch, tail) = rest.split_at(size.min(rest.len()));
            index.add_columns(&mut out, batch, &we);
            rest = tail;
        }
        index.add_columns(&mut out, rest, &we);
        let mut store = QuadStore::new();
        store.extend(out);
        dump(&store)
    };
    for (seed, cutoff, dominant_share) in
        [(11u64, 0usize, 0.0), (12, 0, 0.0), (13, 192, 0.85), (14, 8, 0.0)]
    {
        let profiles = synthetic_profiles(&ProfileLakeSpec {
            seed,
            tables: 60,
            columns_per_table: 5,
            tables_per_dataset: 3,
            dominant_share,
            ..Default::default()
        });
        let exact = LinkingConfig { mode: LinkingMode::Exact, ..Default::default() };
        let expected = fill(&profiles, exact, &[]);
        let pruned = LinkingConfig {
            mode: LinkingMode::Pruned,
            bucket_cutoff: cutoff,
            init_k: 4,
            ..Default::default()
        };
        let n = profiles.len();
        let doubling: Vec<usize> =
            std::iter::successors(Some(1), |s| Some(s * 2)).take_while(|&s| s < n).collect();
        let prefix: Vec<usize> =
            std::iter::once(n * 3 / 4).chain(std::iter::repeat_n(7, n / 28)).collect();
        for chunks in [Vec::new(), vec![1; n], doubling, prefix] {
            assert_eq!(
                fill(&profiles, pruned, &chunks),
                expected,
                "seed {seed} cutoff {cutoff}: schedule {chunks:?} differs from one exact fill"
            );
        }
    }
}

/// `LinkingMode::Exact` holds for every batch, not just the first: fed in
/// chunks until its dominant bucket is far past the cutoff, an exact index
/// builds no HNSW and no cells, and scores exactly the content-eligible
/// cross-table pairs with a new endpoint.
#[test]
fn exact_index_stays_exhaustive_past_the_cutoff() {
    let we = WordEmbeddings::new();
    let profiles = synthetic_profiles(&ProfileLakeSpec {
        seed: 13,
        tables: 120,
        columns_per_table: 5,
        tables_per_dataset: 3,
        dominant_share: 0.85,
        ..Default::default()
    });
    let linking = LinkingConfig { mode: LinkingMode::Exact, ..Default::default() };
    let mut index = LinkIndex::new(SchemaConfig { linking, ..Default::default() });
    let eligible = |p: &ColumnProfile| match p.fgt {
        FineGrainedType::Boolean => p.stats.true_ratio.is_some(),
        _ => !p.embedding.is_empty(),
    };
    let pair = |i: usize, j: usize| {
        let (a, b) = (&profiles[i], &profiles[j]);
        a.fgt == b.fgt
            && eligible(a)
            && eligible(b)
            && (&a.meta.dataset, &a.meta.table) != (&b.meta.dataset, &b.meta.table)
    };
    let (first, rest) = profiles.split_at(150);
    let (mut seen, mut largest) = (0, 0);
    for batch in std::iter::once(first).chain(rest.chunks(25)) {
        let (stats, _) = index.link_columns(batch, &we);
        assert_eq!((stats.cell_rebuilds, stats.hnsw.searches), (0, 0), "columns {seen}..");
        let new_pairs =
            (seen..seen + batch.len()).flat_map(|j| (0..j).map(move |i| (i, j)));
        let expected = new_pairs.filter(|&(i, j)| pair(i, j)).count();
        assert_eq!(stats.candidates_generated, expected, "columns {seen}..");
        assert!(stats.buckets.iter().all(|b| b.strategy == "exact-scan"));
        largest = stats.buckets.iter().map(|b| b.rows).max().unwrap_or(largest);
        seen += batch.len();
    }
    // the probe's point: far past the cutoff a pruned index would prune
    assert!(largest > 2 * LinkingConfig::default().bucket_cutoff, "largest bucket {largest}");
}
