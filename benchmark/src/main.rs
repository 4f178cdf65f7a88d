//! `lids-e2e` — the end-to-end benchmark of the KGLiDS stack.
//!
//! `lids-e2e --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! [--smoke]` generates the inputs from the seed, runs the workload,
//! checks its outputs and prints every metric by name with unit, sample
//! count and bound; the last line of standard output is the JSON result.
//! `--trace 0` (the default) reports the end-to-end metrics; `--trace 1`
//! repeats the workload with spans recorded, replays requests layer by
//! layer in process, reports the per-layer metrics and writes the spans to
//! `benchmark/out/trace-<workload>.json`.

mod deck;
mod inputs;
mod layers;
mod loadgen;
mod report;
mod stats;
mod trace;
mod workloads;

use inputs::LakeSize;
use trace::Trace;
use workloads::RunConfig;

/// Measured seconds of a full run (`run_seconds` in `BENCHMARK.json`) and
/// of a `--smoke` run.
const FULL_SECONDS: f64 = 36.0;
const SMOKE_SECONDS: f64 = 9.0;
const DEFAULT_SEED: u64 = 42;

fn die(msg: &str) -> ! {
    eprintln!("lids-e2e: {msg}");
    eprintln!(
        "usage: lids-e2e --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs a number"))
            }
            "--seconds" => {
                let s: f64 = value()
                    .parse()
                    .unwrap_or_else(|_| die("--seconds needs a number"));
                if !(1.0..=60.0).contains(&s) {
                    die("--seconds must be between 1 and 60");
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace needs 0 or 1"),
                }
            }
            "--smoke" => smoke = true,
            _ => die(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| die("--workload is required"));
    let names: Vec<&str> = match workload.as_str() {
        "all" => workloads::NAMES.to_vec(),
        one => vec![one],
    };
    let cfg = RunConfig {
        seed,
        seconds: seconds.unwrap_or(if smoke { SMOKE_SECONDS } else { FULL_SECONDS }),
        size: if smoke {
            LakeSize::Smoke
        } else {
            LakeSize::Full
        },
    };
    let catalogue = if traced {
        report::per_layer()
    } else {
        report::end_to_end()
    };

    let mut correct = true;
    for name in names {
        let trace = Trace::new(traced);
        let Some(mut outcome) = workloads::run(name, &cfg, &trace) else {
            die(&format!("unknown workload {name}"));
        };
        if traced {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
            let path = format!("{dir}/trace-{name}.json");
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, trace.to_json(name, seed)));
            outcome.check(written.is_ok(), || {
                format!("cannot write {path}: {written:?}")
            });
        }
        report::print(name, &catalogue, &mut outcome);
        correct &= outcome.correct();
    }
    if !correct {
        std::process::exit(1);
    }
}
