//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro --all [--scale 0.5]          # everything
//! repro --table2 --fig5              # specific experiments
//! repro --quick                      # everything at a small scale
//! ```
//!
//! Experiments: table1 table2 table3 table4 table5 table6
//!              fig4 fig5 fig6 fig7 fig8 fig9

use std::time::Duration;

use lids_bench::abstraction::{library_bar_chart, run_g4c_abstraction, run_kglids_abstraction};
use lids_bench::automl_exp::run_automl;
use lids_bench::cleaning::run_cleaning;
use lids_bench::corpus::corpus_platform;
use lids_bench::discovery::{lake_stats, run_ablation, run_discovery};
use lids_bench::text_table;
use lids_bench::transform::{run_transform, AutoLearnOutcome};
use lids_datagen::pipelines::{generate_corpus, CorpusSpec};
use lids_datagen::LakeSpec;

struct Options {
    scale: f64,
    experiments: Vec<String>,
}

fn parse_args() -> Options {
    let mut scale = 0.5;
    let mut experiments: Vec<String> = Vec::new();
    let all: Vec<String> = [
        "table1", "table2", "table3", "table4", "table5", "table6", "fig4", "fig5", "fig6",
        "fig7", "fig8", "fig9",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => experiments = all.clone(),
            "--quick" => {
                experiments = all.clone();
                scale = 0.25;
            }
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a number");
            }
            flag if flag.starts_with("--") => {
                let name = flag.trim_start_matches("--").to_string();
                if all.contains(&name) {
                    experiments.push(name);
                } else {
                    eprintln!("unknown flag {flag}");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("unexpected argument {other}");
                std::process::exit(2);
            }
        }
    }
    if experiments.is_empty() {
        experiments = all;
    }
    Options { scale, experiments }
}

fn main() {
    let opts = parse_args();
    let want = |name: &str| opts.experiments.iter().any(|e| e == name);
    let scale = opts.scale;
    println!("== KGLiDS reproduction harness (scale {scale}) ==\n");

    // shared lakes (discovery experiments)
    let lakes = || {
        vec![
            LakeSpec::d3l_small().scaled(scale),
            LakeSpec::tus_small().scaled(scale),
            LakeSpec::santos_small().scaled(scale),
            LakeSpec::santos_large().scaled(scale * 0.5),
        ]
    };

    if want("table1") {
        println!("--- Table 1: Data discovery benchmarks ---");
        let mut rows = Vec::new();
        let mut type_rows: Vec<Vec<String>> = Vec::new();
        let mut benchmarks = Vec::new();
        for spec in lakes() {
            let lake = spec.generate();
            let stats = lake_stats(&lake);
            rows.push(vec![
                stats.benchmark.clone(),
                format!("{:.2}", stats.size_mib),
                stats.tables.to_string(),
                stats.query_tables.to_string(),
                format!("{:.1}", stats.avg_unionable),
                format!("{:.0}", stats.avg_rows),
                stats.total_columns.to_string(),
            ]);
            benchmarks.push(stats);
        }
        println!(
            "{}",
            text_table(
                &["benchmark", "size_MiB", "tables", "queries", "avg_union", "avg_rows", "cols"],
                &rows
            )
        );
        // type breakdown block
        for (i, (label, _)) in benchmarks[0].type_breakdown.iter().enumerate() {
            type_rows.push(
                std::iter::once(format!("{label} cols."))
                    .chain(benchmarks.iter().map(|b| b.type_breakdown[i].1.to_string()))
                    .collect(),
            );
        }
        let mut header = vec!["type"];
        let names: Vec<&str> = benchmarks.iter().map(|b| b.benchmark.as_str()).collect();
        header.extend(names);
        println!("{}", text_table(&header, &type_rows));
    }

    if want("table2") || want("fig5") {
        println!("--- Table 2 + Figure 5: discovery performance & accuracy ---");
        for spec in lakes() {
            let lake = spec.generate();
            // k sweep ≈ the paper's per-benchmark maxima, scaled to family size
            let family = lake.avg_unionable().max(2.0) as usize;
            let ks: Vec<usize> = [1, family / 2, family, family * 2]
                .into_iter()
                .filter(|&k| k >= 1)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let result = run_discovery(&lake, &ks);
            println!("benchmark: {}", result.benchmark);
            let rows: Vec<Vec<String>> = result
                .runs
                .iter()
                .map(|r| {
                    vec![
                        r.system.clone(),
                        format!("{:.2}", r.preprocess_secs),
                        format!("{:.4}", r.avg_query_secs),
                    ]
                })
                .collect();
            println!("{}", text_table(&["system", "preprocess_s", "avg_query_s"], &rows));
            if want("fig5") {
                for run in &result.runs {
                    let curve: Vec<Vec<String>> = run
                        .pr_curve
                        .iter()
                        .map(|(k, p, r)| {
                            vec![k.to_string(), format!("{p:.3}"), format!("{r:.3}")]
                        })
                        .collect();
                    println!("{} P@k / R@k:", run.system);
                    println!("{}", text_table(&["k", "precision", "recall"], &curve));
                }
            }
        }
    }

    if want("fig6") {
        println!("--- Figure 6: ablation on the TUS-shape benchmark ---");
        let lake = LakeSpec::tus_small().scaled(scale).generate();
        let family = lake.avg_unionable().max(2.0) as usize;
        let ks: Vec<usize> = vec![1, (family / 2).max(1), family];
        for run in run_ablation(&lake, &ks) {
            let curve: Vec<Vec<String>> = run
                .pr_curve
                .iter()
                .map(|(k, p, r)| vec![k.to_string(), format!("{p:.3}"), format!("{r:.3}")])
                .collect();
            println!("{}:", run.system);
            println!("{}", text_table(&["k", "precision", "recall"], &curve));
        }
    }

    // shared pipeline corpus (abstraction + automation experiments)
    let corpus_size = ((40.0 * scale).round() as usize).max(6);
    let pipelines_per = ((8.0 * scale).round() as usize).max(3);

    if want("table3") || want("table4") {
        println!("--- Table 3 + Table 4: pipeline abstraction vs GraphGen4Code ---");
        let corpus = generate_corpus(&CorpusSpec::synthetic(corpus_size, pipelines_per, 42));
        println!("corpus: {} pipelines", corpus.len());
        let lids = run_kglids_abstraction(&corpus);
        let g4c = run_g4c_abstraction(&corpus);
        let rows = vec![
            vec![
                "No. triples".into(),
                lids.triples.to_string(),
                g4c.triples.to_string(),
            ],
            vec![
                "No. unique nodes".into(),
                lids.unique_nodes.to_string(),
                g4c.unique_nodes.to_string(),
            ],
            vec![
                "Size (MiB)".into(),
                format!("{:.2}", lids.size_mib),
                format!("{:.2}", g4c.size_mib),
            ],
            vec![
                "Analysis time (s)".into(),
                format!("{:.3}", lids.analysis_secs),
                format!("{:.3}", g4c.analysis_secs),
            ],
        ];
        println!("{}", text_table(&["statistic", "KGLiDS", "GraphGen4Code"], &rows));

        if want("table4") {
            let fmt_breakdown = |run: &lids_bench::abstraction::AbstractionRun| {
                let total = run.breakdown.iter().map(|(_, n)| n).sum::<u64>().max(1);
                run.breakdown
                    .iter()
                    .map(|(label, n)| {
                        vec![
                            label.clone(),
                            n.to_string(),
                            format!("{:.1}%", 100.0 * *n as f64 / total as f64),
                        ]
                    })
                    .collect::<Vec<_>>()
            };
            println!("KGLiDS modelled aspects:");
            println!("{}", text_table(&["aspect", "triples", "share"], &fmt_breakdown(&lids)));
            println!("GraphGen4Code modelled aspects:");
            println!("{}", text_table(&["aspect", "triples", "share"], &fmt_breakdown(&g4c)));
        }
    }

    if want("fig4") || want("table5") || want("fig7") || want("table6") || want("fig8") || want("fig9") {
        println!("(bootstrapping corpus platform: {corpus_size} datasets × {pipelines_per} pipelines)");
        let cp = corpus_platform(corpus_size, pipelines_per, 42);

        if want("fig4") {
            println!("--- Figure 4: top-10 libraries in the corpus ---");
            let libs = cp
                .platform
                .get_top_k_libraries_used(10)
                .expect("the corpus platform answers unlimited queries");
            println!("{}", library_bar_chart(&libs));
        }

        if want("table5") || want("fig7") {
            println!("--- Table 5 + Figure 7: data cleaning vs HoloClean ---");
            let folds = if scale < 0.4 { 5 } else { 10 };
            let limit = (10.0e6 * scale) as u64 + 500_000;
            let rows = run_cleaning(&cp.platform, scale, folds, limit);
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        format!("{} - {}", r.id, r.name),
                        r.rows.to_string(),
                        format!("{:.2}", r.baseline_f1),
                        r.holoclean_f1
                            .map(|f| format!("{f:.2}"))
                            .unwrap_or_else(|| "OOM".into()),
                        format!("{:.2} ({})", r.kglids_f1, r.kglids_op.label()),
                    ]
                })
                .collect();
            println!(
                "{}",
                text_table(&["dataset", "rows", "baseline", "HoloClean", "KGLiDS"], &table)
            );
            if want("fig7") {
                let perf: Vec<Vec<String>> = rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.id.to_string(),
                            format!("{:.3}", r.holoclean_secs),
                            format!("{:.3}", r.kglids_secs),
                            format!("{:.2}", r.holoclean_mem_mib),
                            format!("{:.2}", r.kglids_mem_mib),
                        ]
                    })
                    .collect();
                println!(
                    "{}",
                    text_table(
                        &["id", "HC_time_s", "KGLiDS_time_s", "HC_mem_MiB", "KGLiDS_mem_MiB"],
                        &perf
                    )
                );
            }
        }

        if want("table6") || want("fig8") {
            println!("--- Table 6 + Figure 8: transformation vs AutoLearn ---");
            let budget = Duration::from_secs_f64(0.9 * scale * scale + 0.01);
            let limit = (8.0e6 * scale * scale) as u64 + 400_000;
            let rows = run_transform(&cp.platform, scale, 5, budget, limit);
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    let al = match &r.autolearn {
                        AutoLearnOutcome::Accuracy(a) => format!("{a:.2}"),
                        AutoLearnOutcome::Timeout => "TO".into(),
                        AutoLearnOutcome::OutOfMemory => "OOM".into(),
                    };
                    vec![
                        format!("{} - {}", r.id, r.name),
                        r.rows.to_string(),
                        format!("{:.2}", r.baseline_acc),
                        al,
                        format!("{:.2}", r.kglids_acc),
                    ]
                })
                .collect();
            println!(
                "{}",
                text_table(&["dataset", "rows", "baseline", "AutoLearn", "KGLiDS"], &table)
            );
            if want("fig8") {
                let perf: Vec<Vec<String>> = rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.id.to_string(),
                            format!("{:.3}", r.autolearn_secs),
                            format!("{:.3}", r.kglids_secs),
                            format!("{:.2}", r.autolearn_mem_mib),
                            format!("{:.2}", r.kglids_mem_mib),
                        ]
                    })
                    .collect();
                println!(
                    "{}",
                    text_table(
                        &["id", "AL_time_s", "KGLiDS_time_s", "AL_mem_MiB", "KGLiDS_mem_MiB"],
                        &perf
                    )
                );
            }
        }

        if want("fig9") {
            println!("--- Figure 9: Pip_LiDS vs Pip_G4C (AutoML) ---");
            let result = run_automl(&cp.platform, scale, 3);
            let rows: Vec<Vec<String>> = result
                .rows
                .iter()
                .map(|r| {
                    vec![
                        r.id.to_string(),
                        format!("{:.2}", r.lids_f1),
                        format!("{:.2}", r.g4c_f1),
                        format!("{:+.2}", r.delta),
                    ]
                })
                .collect();
            println!(
                "{}",
                text_table(&["dataset", "Pip_LiDS_F1", "Pip_G4C_F1", "delta"], &rows)
            );
            println!(
                "wins {} / losses {} / ties {}  |  paired t-test p = {:.4}\n",
                result.wins, result.losses, result.ties, result.p_value
            );
        }
    }

    println!("== done ==");
}
