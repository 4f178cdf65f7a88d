//! On-demand automation (§4): train the cleaning/transformation GNNs from
//! a pipeline corpus, then clean and transform an unseen dataset and run
//! the budgeted AutoML pipeline — measuring the downstream effect.
//!
//! ```text
//! cargo run --release --example pipeline_automation
//! ```

use lids_bench::cleaning::downstream_f1;
use lids_bench::corpus::corpus_platform;
use lids_bench::transform::downstream_accuracy;
use lids_datagen::tasks::{cleaning_datasets, transform_datasets};
use lids_ml::MlFrame;

fn main() {
    // a platform bootstrapped over a synthetic Kaggle-style corpus
    println!("bootstrapping corpus platform (12 datasets × 5 pipelines)...");
    let cp = corpus_platform(12, 5, 2026);
    println!("LiDS graph: {} triples\n", cp.platform.triple_count());

    // ---- cleaning an unseen dataset ----
    let dataset = &cleaning_datasets(0.4)[6]; // "titanic"
    let frame = MlFrame::from_table(&dataset.table, &dataset.target).unwrap();
    println!(
        "unseen dataset '{}': {} rows, {} missing cells",
        dataset.name,
        frame.rows(),
        frame.missing_count()
    );
    let ranked = cp
        .platform
        .recommend_cleaning_operations(&dataset.table)
        .expect("harvest queries run");
    println!("cleaning recommendations (GNN ranking):");
    for (op, p) in &ranked {
        println!("  {:<18} {:.3}", op.label(), p);
    }
    let baseline = frame.drop_missing();
    let base_f1 = if baseline.rows() > 10 {
        downstream_f1(&baseline, 5, 1)
    } else {
        0.0
    };
    let best_op = ranked[0].0;
    let cleaned = cp.platform.apply_cleaning_operations(best_op, &frame);
    let clean_f1 = downstream_f1(&cleaned, 5, 1);
    println!("downstream RF F1: drop-nulls baseline {base_f1:.2} -> {} {clean_f1:.2}\n", best_op.label());

    // ---- transforming an unseen dataset ----
    let dataset = &transform_datasets(0.4)[2]; // "wine" (mixed scales)
    let frame = MlFrame::from_table(&dataset.table, &dataset.target).unwrap();
    let rec = cp
        .platform
        .recommend_transformations(&dataset.table)
        .expect("harvest queries run");
    println!(
        "unseen dataset '{}': recommended scaling = {}",
        dataset.name,
        rec.scaling.label()
    );
    let raw_acc = downstream_accuracy(&frame, 5, 1);
    let transformed = cp.platform.apply_transformations(&rec, &frame);
    let new_acc = downstream_accuracy(&transformed, 5, 1);
    println!("downstream kNN accuracy: raw {raw_acc:.2} -> transformed {new_acc:.2}\n");

    // ---- AutoML with hyperparameter priors ----
    let automl = lids_bench::automl_exp::build_knowledge(&cp.platform, 0.3, 8);
    let task = &lids_datagen::tasks::automl_datasets(0.4)[3];
    let frame = MlFrame::from_table(&task.table, &task.target).unwrap();
    let embedding = cp.platform.embed_table(&task.table);
    let with_priors = automl.fit_with_budget(&frame, &embedding, 3, true, 7);
    let without = automl.fit_with_budget(&frame, &embedding, 3, false, 7);
    println!("AutoML on '{}' (budget: 3 evaluations):", task.name);
    println!(
        "  Pip_LiDS (with priors)  F1 {:.3} via {:?} {:?}",
        with_priors.best_f1, with_priors.best_config.model, with_priors.best_config.params
    );
    println!(
        "  Pip_G4C  (no priors)    F1 {:.3} via {:?} {:?}",
        without.best_f1, without.best_config.model, without.best_config.params
    );
}
