//! Shared workload builders for the experiments.

use kglids::{KgLids, KgLidsBuilder, PipelineScript};
use lids_datagen::pipelines::{generate_corpus, CorpusSpec, DatasetSketch, GeneratedPipeline};
use lids_datagen::Lake;
use lids_profiler::table::{Column, Dataset, Table};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Wrap a lake as one KGLiDS dataset (the data-lake deployment of §6.1).
pub fn lake_as_dataset(lake: &Lake) -> Dataset {
    Dataset::new(lake.name.clone(), lake.tables.clone())
}

/// Generate small concrete tables for a corpus's dataset sketches so the
/// graph linker has real schemas to verify against. Value styles follow
/// the sketch's `character` (mirroring the missingness mechanisms of the
/// task datasets) so the dataset embeddings carry the signal that the
/// planted preprocessing choices correlate with.
pub fn sketch_tables(sketches: &[DatasetSketch], rows: usize, seed: u64) -> Vec<Dataset> {
    let mut rng = SmallRng::seed_from_u64(seed);
    sketches
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
                            let values: Vec<String> = (0..rows)
                                .map(|i| {
                                    if j == 0 {
                                        // target column: small class space
                                        return format!("c{}", i % 2);
                                    }
                                    let t = i as f64 / rows as f64;
                                    let v = match sketch.character {
                                        // 0: sparse counts (fillna-with-zero territory)
                                        0 => rng.gen_range(0..20) as f64,
                                        // 1: smooth row-order trends (interpolate)
                                        1 => (t * (j + 1) as f64 * std::f64::consts::TAU).sin()
                                            * 2.0
                                            + rng.gen_range(-0.1..0.1),
                                        // 2: well-behaved gaussian-ish (mean imputation)
                                        2 => rng.gen_range(-1.0..1.0),
                                        // 3: clustered (kNN imputation)
                                        3 => (i % 4) as f64 * 3.0 + rng.gen_range(-0.4..0.4),
                                        // 4: inter-feature correlation (iterative)
                                        _ => (i % 13) as f64 * (j + 1) as f64
                                            + rng.gen_range(-0.1..0.1),
                                    };
                                    // pipelines impute because the data has
                                    // gaps: inject missingness into half the
                                    // feature columns
                                    if j % 2 == 1 && rng.gen_bool(0.12) {
                                        "NA".to_string()
                                    } else {
                                        format!("{v:.3}")
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

/// A corpus plus the platform bootstrapped from it (datasets + pipelines) —
/// the "top-1000 Kaggle datasets, 13.8k pipelines" deployment scaled down.
pub struct CorpusPlatform {
    pub platform: KgLids,
    pub pipelines: Vec<GeneratedPipeline>,
}

/// Bootstrap a platform over a synthetic corpus.
pub fn corpus_platform(n_datasets: usize, pipelines_per_dataset: usize, seed: u64) -> CorpusPlatform {
    let spec = CorpusSpec::synthetic(n_datasets, pipelines_per_dataset, seed);
    let pipelines = generate_corpus(&spec);
    let datasets = sketch_tables(&spec.datasets, 40, seed ^ 0xF0);
    let scripts: Vec<PipelineScript> = pipelines
        .iter()
        .map(|p| PipelineScript {
            metadata: p.metadata.clone(),
            source: p.source.clone(),
        })
        .collect();
    let (platform, _) = KgLidsBuilder::new()
        .with_datasets(datasets)
        .with_pipelines(scripts)
        .bootstrap();
    CorpusPlatform { platform, pipelines }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_platform_bootstraps() {
        let cp = corpus_platform(4, 3, 7);
        assert_eq!(cp.pipelines.len(), 12);
        assert!(cp.platform.triple_count() > 500);
        // Figure 4 data available
        let libs = cp.platform.get_top_k_libraries_used(10).unwrap();
        assert_eq!(libs.get(0, "library"), Some("pandas"));
    }

    #[test]
    fn lake_wraps_to_dataset() {
        let lake = lids_datagen::LakeSpec::santos_small().scaled(0.2).generate();
        let ds = lake_as_dataset(&lake);
        assert_eq!(ds.tables.len(), lake.tables.len());
    }
}
