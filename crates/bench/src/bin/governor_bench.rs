//! `governor_bench` — smoke/measurement harness for query-side resource
//! governance: run the seeded adversarial workload (cross-product stars,
//! unbound scans, deep OPTIONAL towers) under a tight governor and
//! verify every case *terminates* — typed resource error, truncated
//! partial, or completion — with zero panics and none past the hard
//! wall; then measure the governed-off overhead of the governance
//! checkpoints on the representative discovery star query (armed with
//! generous limits vs not armed at all).
//!
//! Usage: `governor_bench [--tables N] [--iters N] [--out PATH] [--smoke]`

use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use lids_datagen::AdversarialSuite;
use lids_rdf::{Quad, QuadStore, Term};
use lids_sparql::{EvalOptions, PlanCache, SparqlError};
use lids_exec::QueryLimits;
use serde_json::{Map, Number, Value};

const SEED: u64 = 41;
/// Per-case wall ceiling: deadline (250ms) plus slack for checkpoint
/// granularity on slow CI machines.
const HARD_WALL: Duration = Duration::from_secs(10);

fn num(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

struct Args {
    tables: usize,
    iters: usize,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args =
        Args { tables: 200, iters: 30, out: "BENCH_governor.json".into(), smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tables" => {
                args.tables = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--tables needs a number"));
            }
            "--iters" => {
                args.iters = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--iters needs a number"));
            }
            "--out" => {
                args.out = it.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "--smoke" => args.smoke = true,
            other => die(&format!("unknown flag {other}")),
        }
    }
    if args.smoke {
        args.tables = args.tables.min(60);
        args.iters = args.iters.min(5);
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("governor_bench: {msg}");
    std::process::exit(2);
}

/// A column-profile store (the discovery access pattern), so the
/// overhead leg measures a realistic query.
fn build_store(tables: usize) -> QuadStore {
    let pred = |p: &str| Term::iri(format!("http://kglids/{p}"));
    let mut quads = Vec::with_capacity(tables * 25 * 5 + tables);
    for t in 0..tables {
        let table = Term::iri(format!("http://table/{t}"));
        quads.push(Quad::new(
            table.clone(),
            pred("dataset"),
            Term::iri(format!("http://dataset/{}", t % 10)),
        ));
        for col in 0..25usize {
            let column = Term::iri(format!("http://table/{t}/col/{col}"));
            quads.push(Quad::new(column.clone(), pred("type"), pred("Column")));
            quads.push(Quad::new(
                column.clone(),
                pred("name"),
                Term::string(format!("col_{col}")),
            ));
            quads.push(Quad::new(
                column.clone(),
                pred("dtype"),
                Term::iri(format!("http://kglids/dt/{}", col % 5)),
            ));
            quads.push(Quad::new(column.clone(), pred("table"), table.clone()));
            quads.push(Quad::new(
                column,
                pred("distinct"),
                Term::integer(((t * 25 + col) % 1000) as i64),
            ));
        }
    }
    let mut store = QuadStore::new();
    store.extend(quads);
    store
}

const STAR_QUERY: &str = "SELECT ?c ?n ?tbl ?d WHERE { \
     ?c <http://kglids/type> <http://kglids/Column> . \
     ?c <http://kglids/name> ?n . \
     ?c <http://kglids/dtype> <http://kglids/dt/2> . \
     ?c <http://kglids/table> ?tbl . \
     ?tbl <http://kglids/dataset> ?d . \
     ?c <http://kglids/distinct> ?dc . FILTER(?dc > 900) }";

fn main() {
    let args = parse_args();
    eprintln!("building store ({} tables × 25 columns)…", args.tables);
    let store = build_store(args.tables);
    eprintln!("{} quads", store.len());
    let cache = PlanCache::new();

    // ---- leg 1: adversarial smoke — every case must terminate ----
    let queries = AdversarialSuite::new(SEED).generate(9);
    let limits = QueryLimits {
        deadline: Some(Duration::from_millis(250)),
        memory_budget_bytes: Some(1 << 20),
        ..QueryLimits::default()
    };
    let (mut typed_errors, mut completed, mut truncated, mut aborts) = (0u64, 0u64, 0u64, 0u64);
    let mut max_case_secs = 0.0f64;
    for q in &queries {
        let start = Instant::now();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let prepared = cache.prepare(&q.text)?;
            let governor = limits.arm();
            prepared.execute_governed(&store, EvalOptions::default(), governor.as_ref(), None)
        }));
        let elapsed = start.elapsed();
        max_case_secs = max_case_secs.max(elapsed.as_secs_f64());
        let verdict = match outcome {
            Err(_) => {
                aborts += 1;
                "PANIC".to_string()
            }
            Ok(_) if elapsed > HARD_WALL => {
                aborts += 1;
                "PAST-WALL".to_string()
            }
            Ok(Err(SparqlError::Governed(trip))) => {
                typed_errors += 1;
                format!("governed: {trip:?}")
            }
            Ok(Err(other)) => {
                aborts += 1;
                format!("untyped error: {other}")
            }
            Ok(Ok(s)) => {
                completed += 1;
                if s.truncated {
                    truncated += 1;
                }
                format!("{} rows", s.rows.len())
            }
        };
        eprintln!("{}: {verdict} in {:.1}ms", q.name, elapsed.as_secs_f64() * 1e3);
    }
    let cases = queries.len() as u64;
    let terminated = cases - aborts;

    // ---- leg 2: governed-off overhead on the star query ----
    let prepared =
        cache.prepare(STAR_QUERY).unwrap_or_else(|e| die(&format!("prepare: {e}")));
    let baseline_rows = prepared
        .execute(&store)
        .unwrap_or_else(|e| die(&format!("star query: {e}")))
        .rows
        .len();
    // generous limits: the governor is armed (checkpoints run) but
    // never trips — this is the cost a guardrailed deployment pays on
    // well-behaved queries
    let generous = QueryLimits {
        deadline: Some(Duration::from_secs(120)),
        memory_budget_bytes: Some(4 << 30),
        ..QueryLimits::default()
    };
    let mut baseline_secs = f64::INFINITY;
    let mut governed_secs = f64::INFINITY;
    for _ in 0..args.iters.max(1) {
        let t = Instant::now();
        let s = prepared
            .execute(&store)
            .unwrap_or_else(|e| die(&format!("ungoverned leg: {e}")));
        assert_eq!(s.rows.len(), baseline_rows);
        baseline_secs = baseline_secs.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let governor = generous.arm();
        let s = prepared
            .execute_governed(&store, EvalOptions::default(), governor.as_ref(), None)
            .unwrap_or_else(|e| die(&format!("governed leg: {e}")));
        assert_eq!(s.rows.len(), baseline_rows);
        governed_secs = governed_secs.min(t.elapsed().as_secs_f64());
    }
    let overhead_ratio = governed_secs / baseline_secs.max(1e-12);
    eprintln!(
        "star query: ungoverned {:.3}ms, governed {:.3}ms → overhead {:.3}x",
        baseline_secs * 1e3,
        governed_secs * 1e3,
        overhead_ratio
    );

    let mut report = Map::new();
    report.insert("bench".into(), Value::String("governor".into()));
    report.insert("smoke".into(), Value::Bool(args.smoke));
    report.insert("quads".into(), Value::Number(Number::U64(store.len() as u64)));
    report.insert("cases".into(), Value::Number(Number::U64(cases)));
    report.insert("terminated".into(), Value::Number(Number::U64(terminated)));
    report.insert("typed_errors".into(), Value::Number(Number::U64(typed_errors)));
    report.insert("completed".into(), Value::Number(Number::U64(completed)));
    report.insert("truncated".into(), Value::Number(Number::U64(truncated)));
    report.insert("aborts".into(), Value::Number(Number::U64(aborts)));
    report.insert("max_case_secs".into(), num(max_case_secs));
    report.insert("baseline_secs".into(), num(baseline_secs));
    report.insert("governed_secs".into(), num(governed_secs));
    report.insert("overhead_ratio".into(), num(overhead_ratio));
    let rendered = Value::Object(report).to_string();
    std::fs::write(&args.out, &rendered)
        .unwrap_or_else(|e| die(&format!("write {}: {e}", args.out)));
    println!("{rendered}");
    if aborts > 0 {
        die(&format!("{aborts} adversarial case(s) failed to terminate cleanly"));
    }
}
