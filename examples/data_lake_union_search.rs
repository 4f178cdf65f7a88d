//! Data-lake union search (§6.1): generate a TUS-style benchmark lake with
//! known ground truth, bootstrap KGLiDS over it, and measure P@k/R@k of
//! the different similarity modes against the ground truth.
//!
//! ```text
//! cargo run --release --example data_lake_union_search
//! ```

use kglids::discovery::UnionMode;
use kglids::KgLidsBuilder;
use lids_datagen::LakeSpec;
use lids_ml::precision_recall_at_k;
use lids_profiler::table::Dataset;

fn main() {
    let lake = LakeSpec::tus_small().scaled(0.4).generate();
    println!(
        "lake '{}': {} tables, {} columns, {} query tables, avg family {:.0}",
        lake.name,
        lake.tables.len(),
        lake.column_count(),
        lake.query_tables.len(),
        lake.avg_unionable()
    );

    let (platform, stats) = KgLidsBuilder::new()
        .with_dataset(Dataset::new(lake.name.clone(), lake.tables.clone()))
        .bootstrap();
    let schema = stats.schema;
    println!(
        "bootstrap: {:.2}s profiling + {:.2}s schema | {} column pairs compared, {} label + {} content edges",
        stats.profiling_secs, stats.schema_secs,
        schema.pairs_compared, schema.label_edges, schema.content_edges
    );
    println!("{}\n", stats.report.summary());

    let k = lake.avg_unionable().max(1.0) as usize;
    for (label, mode) in [
        ("CoLR + label (full system)", UnionMode::ContentAndLabel),
        ("CoLR only (anonymised lake)", UnionMode::ContentOnly),
        ("label only", UnionMode::LabelOnly),
    ] {
        let mut p_sum = 0.0;
        let mut r_sum = 0.0;
        for q in &lake.query_tables {
            let retrieved: Vec<String> = platform
                .discovery()
                .k(k)
                .mode(mode)
                .unionable_tables(&lake.name, q)
                .expect("in-domain discovery options")
                .into_iter()
                .map(|h| h.table)
                .collect();
            let truth = &lake.unionable[q];
            let (p, r) = precision_recall_at_k(&retrieved, truth, k);
            p_sum += p;
            r_sum += r;
        }
        let n = lake.query_tables.len() as f64;
        println!(
            "{label:<30} P@{k} {:.3}  R@{k} {:.3}",
            p_sum / n,
            r_sum / n
        );
    }

    // drill into one query, via the fluent discovery API
    let q = &lake.query_tables[0];
    println!("\ntop-5 unionable tables for '{q}':");
    let hits = platform
        .discovery()
        .k(5)
        .unionable_tables(&lake.name, q)
        .expect("in-domain discovery options");
    for hit in hits {
        let relevant = lake.unionable[q].contains(&hit.table);
        println!(
            "  {:<24} score {:>7.2}  {}",
            hit.table,
            hit.score,
            if relevant { "(relevant)" } else { "" }
        );
    }
}
