//! Data-discovery experiments: Table 1 (benchmark stats), Table 2
//! (preprocessing/query time), Figure 5 (P@k/R@k per system), and Figure 6
//! (embedding-model ablation).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use kglids::discovery::UnionMode;
use kglids::{KgLids, KgLidsBuilder};
use lids_baselines::starmie::StarmieConfig;
use lids_baselines::{Santos, Starmie};
use lids_datagen::Lake;
use lids_embed::{ColrModels, CoarseModels, FineGrainedType, WordEmbeddings};
use lids_ml::precision_recall_at_k;
use lids_profiler::{profile_table, ColumnProfile, ProfilerConfig};

use crate::corpus::lake_as_dataset;

/// One system's run on one benchmark.
#[derive(Debug, Clone)]
pub struct SystemRun {
    pub system: String,
    pub preprocess_secs: f64,
    pub avg_query_secs: f64,
    /// `(k, mean precision@k, mean recall@k)` over the query tables.
    pub pr_curve: Vec<(usize, f64, f64)>,
}

/// The full discovery experiment on one lake.
#[derive(Debug, Clone)]
pub struct DiscoveryResult {
    pub benchmark: String,
    pub runs: Vec<SystemRun>,
}

/// Mean P@k / R@k over query tables for a ranked-retrieval function.
fn pr_curve(
    lake: &Lake,
    ks: &[usize],
    mut retrieve: impl FnMut(&lids_profiler::Table, usize) -> Vec<String>,
) -> (Vec<(usize, f64, f64)>, f64) {
    let max_k = ks.iter().copied().max().unwrap_or(10);
    let mut per_k: HashMap<usize, (f64, f64)> = HashMap::new();
    let mut querying = Duration::ZERO;
    for q in &lake.query_tables {
        let table = lake.tables.iter().find(|t| &t.name == q).expect("query table in lake");
        let truth = &lake.unionable[q];
        let start = Instant::now();
        let retrieved = retrieve(table, max_k);
        querying += start.elapsed();
        for &k in ks {
            let (p, r) = precision_recall_at_k(&retrieved, truth, k);
            let entry = per_k.entry(k).or_insert((0.0, 0.0));
            entry.0 += p;
            entry.1 += r;
        }
    }
    let n = lake.query_tables.len().max(1) as f64;
    let mut curve: Vec<(usize, f64, f64)> = per_k
        .into_iter()
        .map(|(k, (p, r))| (k, p / n, r / n))
        .collect();
    curve.sort_by_key(|(k, _, _)| *k);
    (curve, querying.as_secs_f64() / n)
}

/// Run KGLiDS + Starmie + SANTOS on one lake (Figure 5 + Table 2 data).
pub fn run_discovery(lake: &Lake, ks: &[usize]) -> DiscoveryResult {
    let mut runs = Vec::new();

    // The CoLR models are pre-trained once, independent of any data lake
    // ("our models are independently pre-trained on open datasets") —
    // warm the process-wide cache so no benchmark's preprocessing time
    // absorbs it.
    let _ = ColrModels::pretrained();

    // ---- KGLiDS: profile + schema = preprocessing; SPARQL = query ----
    let start = Instant::now();
    let (platform, _) = KgLidsBuilder::new()
        .with_dataset(lake_as_dataset(lake))
        .bootstrap();
    let preprocess = start.elapsed().as_secs_f64();
    let (curve, avg_query) = pr_curve(lake, ks, |table, k| {
        platform
            .discovery()
            .k(k)
            .mode(UnionMode::ContentAndLabel)
            .unionable_tables(&lake.name, &table.name)
            .unwrap_or_default()
            .into_iter()
            .map(|h| h.table)
            .collect()
    });
    runs.push(SystemRun {
        system: "KGLiDS".into(),
        preprocess_secs: preprocess,
        avg_query_secs: avg_query,
        pr_curve: curve,
    });

    // ---- Starmie: per-lake training = preprocessing ----
    let start = Instant::now();
    let starmie = Starmie::preprocess(lake, StarmieConfig::default());
    let preprocess = start.elapsed().as_secs_f64();
    let (curve, avg_query) = pr_curve(lake, ks, |table, k| starmie.query(table, k));
    runs.push(SystemRun {
        system: "Starmie".into(),
        preprocess_secs: preprocess,
        avg_query_secs: avg_query,
        pr_curve: curve,
    });

    // ---- SANTOS: per-value KB matching = preprocessing ----
    let start = Instant::now();
    let santos = Santos::preprocess(lake);
    let preprocess = start.elapsed().as_secs_f64();
    let (curve, avg_query) = pr_curve(lake, ks, |table, k| santos.query(table, k));
    runs.push(SystemRun {
        system: "SANTOS".into(),
        preprocess_secs: preprocess,
        avg_query_secs: avg_query,
        pr_curve: curve,
    });

    DiscoveryResult { benchmark: lake.name.clone(), runs }
}

/// Figure 6: KGLiDS ablation arms on the TUS-shape benchmark.
pub fn run_ablation(lake: &Lake, ks: &[usize]) -> Vec<SystemRun> {
    let mut runs = Vec::new();
    let add_platform_run =
        |name: &str, platform: &KgLids, mode: UnionMode, runs: &mut Vec<SystemRun>| {
            let (curve, avg_query) = pr_curve(lake, ks, |table, k| {
                platform
                    .discovery()
                    .k(k)
                    .mode(mode)
                    .unionable_tables(&lake.name, &table.name)
                    .unwrap_or_default()
                    .into_iter()
                    .map(|h| h.table)
                    .collect()
            });
            runs.push(SystemRun {
                system: name.into(),
                preprocess_secs: 0.0,
                avg_query_secs: avg_query,
                pr_curve: curve,
            });
        };

    // full system: CoLR + label
    let (full, _) = KgLidsBuilder::new().with_dataset(lake_as_dataset(lake)).bootstrap();
    add_platform_run("CoLR + label", &full, UnionMode::ContentAndLabel, &mut runs);
    // fine-grained CoLR only (raw values, no column names)
    add_platform_run("CoLR only (fine-grained)", &full, UnionMode::ContentOnly, &mut runs);

    // coarse-grained embedding models (Mueller & Smola-style, 3 models)
    let coarse = coarse_profiles(lake);
    let (coarse_platform, _) = KgLidsBuilder::new().with_custom_profiles(coarse).bootstrap();
    add_platform_run(
        "Coarse-grained only",
        &coarse_platform,
        UnionMode::ContentOnly,
        &mut runs,
    );

    // 10% sampling vs full columns (profiling-cost ablation)
    let full_sample_cfg = ProfilerConfig { sample_fraction: 1.0, min_sample: usize::MAX >> 1, ..Default::default() };
    let (full_sample, _) = KgLidsBuilder::new()
        .with_dataset(lake_as_dataset(lake))
        .with_profiler_config(full_sample_cfg)
        .bootstrap();
    add_platform_run(
        "CoLR + label (full columns)",
        &full_sample,
        UnionMode::ContentAndLabel,
        &mut runs,
    );

    runs
}

/// Profiles with coarse-grained (3-model) embeddings replacing CoLR.
///
/// The coarse arm also loses the fine-grained typing itself: without the
/// 7-type inference, column comparisons are only restricted to the three
/// coarse buckets, so numeric columns compare against all numerics and all
/// text-ish columns against each other — "our fine-grained types
/// drastically cut false positives in column similarity prediction".
fn coarse_profiles(lake: &Lake) -> Vec<ColumnProfile> {
    let we = WordEmbeddings::new();
    let models = ColrModels::pretrained();
    let coarse = CoarseModels::new(0xC0A);
    let cfg = ProfilerConfig::default();
    let mut profiles = Vec::new();
    for table in &lake.tables {
        for mut p in profile_table(&lake.name, table, models, &we, &cfg, None) {
            if p.fgt != FineGrainedType::Boolean {
                let col = table.column(&p.meta.column).expect("column exists");
                let values: Vec<&str> = col.non_null().take(256).collect();
                p.embedding = coarse.embed_column(p.fgt, values.into_iter());
                // collapse to the coarse bucket's representative type
                p.fgt = match p.fgt {
                    FineGrainedType::Int | FineGrainedType::Float => FineGrainedType::Float,
                    _ => FineGrainedType::String,
                };
            }
            profiles.push(p);
        }
    }
    profiles
}

/// Table 1: benchmark statistics including the fine-grained type breakdown
/// "obtained using our data profiler".
#[derive(Debug, Clone)]
pub struct LakeStats {
    pub benchmark: String,
    pub size_mib: f64,
    pub tables: usize,
    pub query_tables: usize,
    pub avg_unionable: f64,
    pub avg_rows: f64,
    pub total_columns: usize,
    /// `(type label, count)` in canonical order.
    pub type_breakdown: Vec<(String, usize)>,
}

/// Compute Table 1's row for a lake.
pub fn lake_stats(lake: &Lake) -> LakeStats {
    let we = WordEmbeddings::new();
    let mut counts: HashMap<FineGrainedType, usize> = HashMap::new();
    for table in &lake.tables {
        for col in &table.columns {
            let fgt = lids_profiler::infer_fine_grained_type(col, &we);
            *counts.entry(fgt).or_insert(0) += 1;
        }
    }
    LakeStats {
        benchmark: lake.name.clone(),
        size_mib: lake.approx_bytes() as f64 / (1024.0 * 1024.0),
        tables: lake.tables.len(),
        query_tables: lake.query_tables.len(),
        avg_unionable: lake.avg_unionable(),
        avg_rows: lake.avg_rows(),
        total_columns: lake.column_count(),
        type_breakdown: FineGrainedType::ALL
            .iter()
            .map(|t| (t.label().to_string(), counts.get(t).copied().unwrap_or(0)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lids_datagen::LakeSpec;

    #[test]
    fn discovery_experiment_produces_all_systems() {
        let lake = LakeSpec::santos_small().scaled(0.4).generate();
        let result = run_discovery(&lake, &[1, 3]);
        assert_eq!(result.runs.len(), 3);
        for run in &result.runs {
            assert_eq!(run.pr_curve.len(), 2);
            assert!(run.preprocess_secs >= 0.0);
            for (_, p, r) in &run.pr_curve {
                assert!((0.0..=1.0).contains(p));
                assert!((0.0..=1.0).contains(r));
            }
        }
        // KGLiDS finds at least some of the family (shape check)
        let kglids = &result.runs[0];
        assert!(kglids.pr_curve.iter().any(|(_, p, _)| *p > 0.0));
    }

    #[test]
    fn lake_stats_cover_all_types() {
        let lake = LakeSpec::tus_small().scaled(0.2).generate();
        let stats = lake_stats(&lake);
        assert_eq!(stats.type_breakdown.len(), 7);
        let total: usize = stats.type_breakdown.iter().map(|(_, n)| n).sum();
        assert_eq!(total, stats.total_columns);
        assert!(stats.size_mib > 0.0);
    }

    #[test]
    fn ablation_runs_all_arms() {
        let lake = LakeSpec::tus_small().scaled(0.15).generate();
        let runs = run_ablation(&lake, &[2]);
        assert_eq!(runs.len(), 4);
        let full = runs.iter().find(|r| r.system == "CoLR + label").unwrap();
        let coarse = runs.iter().find(|r| r.system == "Coarse-grained only").unwrap();
        // the full system should not lose to the coarse ablation (shape)
        assert!(full.pr_curve[0].1 >= coarse.pr_curve[0].1 - 0.15);
    }
}
