//! The two workloads.
//!
//! Both set the lake up the same way (generate → bootstrap from raw CSV and
//! scripts → serve), three times, and report the median as `setup_s` and
//! the bootstrap rate. They differ in how the store is used afterwards:
//!
//! - `ingest_serve`: deltas are applied with **no reader attached** (the
//!   store mutates in place), then the static store is served over
//!   `Backend::Platform` to two clients, first in a closed loop (capacity),
//!   then in an open loop at a fixed rate (latency from the due time).
//! - `churn`: the store is served over `Backend::Reader` to one closed-loop
//!   client **while** a writer applies deltas with 0.45 s of rest between
//!   them, so every publish pays the copy-on-write clone and every
//!   generation a recompile.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kglids::{BootstrapStats, DeltaBatch, DeltaStats, KgLids, KgLidsBuilder};
use lids_rdf::QuadStore;
use lids_server::{Backend, Client, LidsServer, ServerConfig};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::deck::{
    count_items, fnv1a, split_body, Class, Deck, Expected, Source, CHURN_MIX, SERVE_MIX,
};
use crate::inputs::{generate, Inputs, LakeSize};
use crate::layers;
use crate::loadgen::{self, Checked, Exchange, Pacing};
use crate::report::{end_to_end, Metrics, Outcome};
use crate::stats::{median, percentile, spread_pct, window_medians, window_rates, Sample, WINDOWS};
use crate::trace::{SpanId, Trace};

pub const NAMES: [&str; 2] = ["ingest_serve", "churn"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `ServerConfig::workers`: one per core of the reference machine.
const SERVER_WORKERS: usize = 2;
/// Open-loop arrival rate of `ingest_serve`, about a quarter of capacity.
const OPEN_LOOP_RPS: f64 = 120.0;
/// The `churn` writer rests this long after each delta (a delta under a
/// reader takes ≈ 340 ms, so the writer is busy a little under half the time).
const WRITER_THINK: Duration = Duration::from_millis(450);
/// Tables the `churn` deck queries: 2 texts each plus the star text stay
/// below 64 texts, so its plan cache never evicts.
const CHURN_DECK_TABLES: usize = 20;
/// Shares of `--seconds` the phases of `ingest_serve` take.
const WRITE_SHARE: f64 = 0.30;
const CLOSED_SHARE: f64 = 0.35;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub size: LakeSize,
}

/// Run one workload. `None` if `workload` is not one of [`NAMES`].
pub fn run(workload: &str, cfg: &RunConfig, trace: &Trace) -> Option<Outcome> {
    let workload_fn = match workload {
        "ingest_serve" => ingest_serve,
        "churn" => churn,
        _ => return None,
    };
    // start this workload's peak-RSS count afresh (`--workload all` runs
    // several in one process); where the kernel refuses, the peak is the
    // process's
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let mut out = Outcome::default();
    trace.span(workload, None, 0, |root| {
        workload_fn(cfg, trace, root, &mut out)
    });
    out.metrics.set("peak_rss_mb", peak_rss_mb(), 1);
    Some(out)
}

/// Progress on standard error, with seconds since the process started.
fn progress(what: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let start = START.get_or_init(Instant::now);
    eprintln!("[{:7.2}s] {what}", start.elapsed().as_secs_f64());
}

// ---------------------------------------------------------------- set-up

/// Order-independent fingerprint of a store: quad count and the wrapping
/// sum of the hashes of its decoded quads (dictionary ids may differ
/// between two equal stores; decoded quads may not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    quads: usize,
    sum: u64,
}

fn fingerprint(store: &QuadStore) -> Fingerprint {
    let sum = store.iter().fold(0u64, |sum, q| {
        sum.wrapping_add(fnv1a(q.to_string().as_bytes()))
    });
    Fingerprint {
        quads: store.len(),
        sum,
    }
}

struct Lake {
    inputs: Inputs,
    platform: KgLids,
    baseline: Fingerprint,
    bootstrap: BootstrapStats,
}

fn bootstrap(inputs: &Inputs) -> (KgLids, BootstrapStats) {
    KgLidsBuilder::new()
        .with_raw_datasets(inputs.base.iter().map(|d| d.raw.clone()))
        .with_pipelines(inputs.base.iter().flat_map(|d| d.scripts.iter().cloned()))
        .bootstrap()
}

pub fn start_server(backend: Backend) -> LidsServer {
    LidsServer::start(
        backend,
        "127.0.0.1:0",
        ServerConfig {
            workers: SERVER_WORKERS,
            ..ServerConfig::default()
        },
    )
    .expect("loopback port binds")
}

/// Everything before the first timed phase, [`SETUPS`] times over: generate
/// the inputs, bootstrap the lake, start a server over it and get its first
/// answer. Each bootstrap must produce the same store.
fn set_up(cfg: &RunConfig, trace: &Trace, root: Option<SpanId>, out: &mut Outcome) -> Lake {
    let mut totals = Vec::new();
    let mut bootstraps = Vec::new();
    let mut lake: Option<Lake> = None;
    for i in 0..SETUPS {
        // free the previous lake first: two at once would double peak RSS
        let previous = lake.take().map(|l| l.baseline);
        let (inputs, platform, stats) = trace.span("setup", root, i as u64, |me| {
            let t0 = Instant::now();
            let inputs = trace.span("datagen.generate", me, i as u64, |_| {
                generate(cfg.seed, cfg.size)
            });
            let t1 = Instant::now();
            let (platform, stats) = trace.span("core.bootstrap", me, i as u64, |span| {
                let (platform, stats) = bootstrap(&inputs);
                trace.attach_program(span, stats.trace.root("bootstrap"));
                (platform, stats)
            });
            bootstraps.push(t1.elapsed().as_secs_f64());
            let platform = Arc::new(platform);
            let server = trace.span("server.start", me, i as u64, |_| {
                let server = start_server(Backend::Platform(Arc::clone(&platform)));
                let health = Client::connect(server.addr().to_string()).healthz();
                out.check(health.is_ok(), || format!("set-up {i}: /healthz failed"));
                server
            });
            totals.push(t0.elapsed().as_secs_f64());
            server.shutdown();
            let platform = Arc::try_unwrap(platform)
                .unwrap_or_else(|_| panic!("a stopped server holds no platform"));
            (inputs, platform, stats)
        });
        let baseline = fingerprint(platform.store());
        out.check(platform.store().validate_indexes(), || {
            format!("bootstrap {i}: the store's four indexes disagree")
        });
        out.check(
            stats.report.is_empty() && stats.pipelines_failed == 0,
            || {
                format!(
                    "bootstrap {i}: {} artifacts quarantined",
                    stats.report.len()
                )
            },
        );
        out.check(previous.is_none_or(|p| p == baseline), || {
            format!("bootstrap {i}: store differs from the previous bootstrap's")
        });
        progress(&format!(
            "set-up {i}: {:.2}s ({} columns, {} quads)",
            totals[i],
            inputs.base_columns(),
            baseline.quads
        ));
        lake = Some(Lake {
            inputs,
            platform,
            baseline,
            bootstrap: stats,
        });
    }
    let lake = lake.expect("at least one set-up");
    out.metrics.set("setup_s", median(&totals), SETUPS);
    out.metrics.set(
        "core.bootstrap_cols_per_s",
        lake.inputs.base_columns() as f64 / median(&bootstraps),
        SETUPS,
    );
    lake
}

// ---------------------------------------------------------------- deltas

/// One applied delta.
struct DeltaRecord {
    /// Adds a churn dataset (with its scripts) or removes it again.
    add: bool,
    /// Index into `Inputs::churn`.
    dataset: usize,
    wall: Duration,
    stats: DeltaStats,
}

/// Apply add/remove deltas of the churn datasets, in `order`, until `phase`
/// is over, resting for `think` after each; always ends on a remove, so the
/// lake ends as it began.
///
/// The writer is a closed loop with think time, not a fixed-rate schedule:
/// under a reader, a writer that once falls behind a schedule never rests
/// again, its deltas slow down 2–3× (every clone then allocates fresh memory
/// while readers still free the last one), and it never catches up. That
/// cliff is real, but a benchmark that sits on it reports which side of it
/// a run fell, not how fast the program is.
fn write_deltas(
    platform: &mut KgLids,
    inputs: &Inputs,
    order: &[usize],
    phase: Duration,
    think: Duration,
    trace: &Trace,
    parent: Option<SpanId>,
) -> Vec<DeltaRecord> {
    let start = Instant::now();
    let mut records = Vec::new();
    for k in 0.. {
        let add = k % 2 == 0;
        if add && start.elapsed() >= phase {
            break;
        }
        let dataset = order[(k / 2) % order.len()];
        let d = &inputs.churn[dataset];
        let delta = if add {
            DeltaBatch::new()
                .add_raw_dataset(d.raw.clone())
                .add_pipelines(d.scripts.clone())
        } else {
            DeltaBatch::new().remove_dataset(d.raw.name.clone())
        };
        let name = if add {
            "core.apply_delta.add"
        } else {
            "core.apply_delta.remove"
        };
        let t = Instant::now();
        let stats = trace.span(name, parent, k as u64, |span| {
            let stats = platform.apply_delta(delta);
            trace.attach_program(span, stats.trace.roots.last());
            stats
        });
        records.push(DeltaRecord {
            add,
            dataset,
            wall: t.elapsed(),
            stats,
        });
        std::thread::sleep(think);
    }
    records
}

/// Delta metrics shared by both workloads: the two gated times and the
/// stage shares `DeltaStats` reports.
fn report_deltas(records: &[DeltaRecord], phase: Duration, out: &mut Outcome) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    for r in records {
        out.check(
            r.stats.report.is_empty() && r.stats.pipelines_failed == 0,
            || {
                format!(
                    "delta on churn dataset {}: artifacts quarantined",
                    r.dataset
                )
            },
        );
    }
    let adds: Vec<&DeltaRecord> = records.iter().filter(|r| r.add).collect();
    let removes: Vec<&DeltaRecord> = records.iter().filter(|r| !r.add).collect();
    // the churn datasets differ in size, so each is judged on its own: its
    // fastest delta of the run (interference only ever slows one down; over
    // 8 runs of identical code the fastest spread half as much as the
    // median), then the mean over the datasets
    let typical = |name: &str, rs: &[&DeltaRecord]| -> f64 {
        let mut walls: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for r in rs {
            walls.entry(r.dataset).or_default().push(ms(r.wall));
        }
        for (dataset, w) in &walls {
            let rendered: Vec<String> = w.iter().map(|v| format!("{v:.2}")).collect();
            println!("deltas {name} dataset {dataset}: {}", rendered.join(" "));
        }
        let fastest = |w: &Vec<f64>| w.iter().copied().fold(f64::INFINITY, f64::min);
        walls.values().map(fastest).sum::<f64>() / walls.len().max(1) as f64
    };
    let m = &mut out.metrics;
    m.set("delta_add_ms", typical("delta_add_ms", &adds), adds.len());
    m.set(
        "delta_remove_ms",
        typical("delta_remove_ms", &removes),
        removes.len(),
    );

    let stage = |rs: &[&DeltaRecord], f: &dyn Fn(&DeltaStats) -> f64| {
        median(&rs.iter().map(|r| f(&r.stats) * 1e3).collect::<Vec<f64>>())
    };
    m.set(
        "core.delta.profiling_ms",
        stage(&adds, &|s| s.profiling_secs),
        adds.len(),
    );
    m.set(
        "core.delta.linking_ms",
        stage(&adds, &|s| s.linking_secs),
        adds.len(),
    );
    m.set(
        "core.delta.abstraction_ms",
        stage(&adds, &|s| s.abstraction_secs),
        adds.len(),
    );
    m.set(
        "core.delta.retraction_ms",
        stage(&removes, &|s| s.retraction_secs),
        removes.len(),
    );
    // what the stages do not cover: embedding-store rebuild and publish
    let unattributed: Vec<f64> = records
        .iter()
        .map(|r| {
            let s = &r.stats;
            let stages = s.profiling_secs + s.linking_secs + s.abstraction_secs + s.retraction_secs;
            ms(r.wall) - stages * 1e3
        })
        .collect();
    m.set(
        "core.delta.unattributed_ms",
        median(&unattributed),
        records.len(),
    );
    let candidates: Vec<f64> = adds
        .iter()
        .map(|r| r.stats.relink_candidates as f64)
        .collect();
    m.set("kg.relink_candidates", median(&candidates), adds.len());
    let busy: f64 = records.iter().map(|r| r.wall.as_secs_f64()).sum();
    m.set(
        "loadgen.writer_duty_pct",
        busy / phase.as_secs_f64() * 100.0,
        records.len(),
    );
}

fn churn_order(inputs: &Inputs, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..inputs.churn.len()).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0xC4u64));
    order
}

// ---------------------------------------------------------------- reads

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s).
fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // the command name (field 2) may contain spaces; fields resume after ')'
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn samples(exchanges: &[Exchange], class: Option<Class>) -> Vec<Sample> {
    exchanges
        .iter()
        .filter(|e| e.verified && class.is_none_or(|c| e.class == c))
        .map(|e| Sample {
            at: e.done,
            value: e.latency_ms(),
        })
        .collect()
}

/// Latencies (ms) of the verified exchanges of one class.
fn latencies(exchanges: &[Exchange], class: Class) -> Vec<f64> {
    samples(exchanges, Some(class))
        .iter()
        .map(|s| s.value)
        .collect()
}

/// Count a phase's exchanges and record one span per request.
fn account(
    exchanges: &[Exchange],
    phase_start: Instant,
    name: &str,
    trace: &Trace,
    root: Option<SpanId>,
    out: &mut Outcome,
) {
    out.attempted += exchanges.len() as u64;
    let bad = exchanges.iter().filter(|e| !e.verified).count();
    out.failed += bad as u64;
    if bad > 0 {
        let statuses: Vec<u16> = exchanges
            .iter()
            .filter(|e| !e.verified)
            .take(5)
            .map(|e| e.status)
            .collect();
        out.problems.push(format!(
            "{name}: {bad} of {} responses failed, were refused or were wrong (statuses {statuses:?})",
            exchanges.len()
        ));
    }
    if trace.enabled() {
        let end = exchanges.iter().map(|e| e.done).max().unwrap_or_default();
        let phase = trace.record(name, root, 0, phase_start, phase_start + end);
        for (id, e) in exchanges.iter().enumerate() {
            let span = format!("wire.{}", e.class.name());
            trace.record(
                &span,
                phase,
                id as u64,
                phase_start + e.due,
                phase_start + e.done,
            );
        }
    }
}

/// Per-class latency tails of a phase (ungated; the sample count is
/// reported beside each).
fn report_tails(exchanges: &[Exchange], m: &mut Metrics) {
    for class in Class::ALL {
        let lat = latencies(exchanges, class);
        for (tail, q) in [("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99)] {
            let name = format!("loadgen.{}.{tail}", class.name());
            m.set(&name, percentile(&lat, q), lat.len());
        }
    }
}

/// The gated value of a windowed series, and its window spread.
///
/// The value is that of the *best* window. On a shared host interference
/// only ever slows a window down, so the least disturbed window is the one
/// closest to the program's own speed; over 20 runs of identical code the
/// best window spread a third less than the median window did
/// (`REPEATABILITY.md`). What the other windows lost is the window spread.
fn gate(name: &str, per_window: &[f64], n: usize, m: &mut Metrics) {
    let rendered: Vec<String> = per_window.iter().map(|v| format!("{v:.4}")).collect();
    println!("windows {name} {}", rendered.join(" "));
    let higher = end_to_end()
        .iter()
        .any(|d| d.name == name && d.better == "higher");
    let best = if higher { f64::max } else { f64::min };
    m.set(
        name,
        per_window.iter().copied().reduce(best).unwrap_or(0.0),
        n,
    );
    m.set(
        &format!("loadgen.window_spread_pct.{name}"),
        spread_pct(per_window),
        per_window.len(),
    );
}

/// Typed-client round trips per class in the deck check. The typed decode
/// of a large answer is slow (quadratic in rows), and every timed response
/// is compared with the in-process answer anyway.
const TYPED_CHECKS_PER_CLASS: usize = 4;

/// Ask the in-process API every distinct request once, untimed, and record
/// what a correct response looks like. With a `client`, also issue the
/// first few requests of each class through the typed client and compare
/// the decoded answers.
fn expectations(
    deck: &Deck,
    source: &Source<'_>,
    mut client: Option<&mut Client>,
    out: &mut Outcome,
) -> Vec<Expected> {
    let mut typed: HashMap<Class, usize> = HashMap::new();
    deck.requests
        .iter()
        .map(|request| match source.answer(request) {
            Ok(answer) => {
                let seen = typed.entry(request.class).or_default();
                *seen += 1;
                if let Some(client) = client
                    .as_deref_mut()
                    .filter(|_| *seen <= TYPED_CHECKS_PER_CLASS)
                {
                    let typed = answer.check_typed(client, request);
                    out.check(typed.is_ok(), || typed.clone().unwrap_err());
                }
                Expected::of(&answer)
            }
            Err(e) => {
                out.check(false, || e);
                Expected {
                    payload_hash: 0,
                    items: 0,
                }
            }
        })
        .collect()
}

// ---------------------------------------------------------------- workloads

fn ingest_serve(cfg: &RunConfig, trace: &Trace, root: Option<SpanId>, out: &mut Outcome) {
    let Lake {
        inputs,
        mut platform,
        baseline,
        bootstrap,
    } = set_up(cfg, trace, root, out);
    let seconds = Duration::from_secs_f64(cfg.seconds);

    // phase W: deltas with no reader attached; the store mutates in place
    let write_phase = seconds.mul_f64(WRITE_SHARE);
    let order = churn_order(&inputs, cfg.seed);
    let records = trace.span("phase.write", root, 0, |span| {
        write_deltas(
            &mut platform,
            &inputs,
            &order,
            write_phase,
            Duration::ZERO,
            trace,
            span,
        )
    });
    progress(&format!("phase write: {} deltas", records.len()));

    // serve the static store
    let platform = Arc::new(platform);
    let server = start_server(Backend::Platform(Arc::clone(&platform)));
    let addr = server.addr().to_string();
    let deck = Deck::build(&inputs, &inputs.tables, SERVE_MIX, cfg.seed);
    let expected = expectations(
        &deck,
        &Source::Platform(&platform),
        Some(&mut Client::connect(addr.clone())),
        out,
    );
    let check = |request: usize, status: u16, body: &str| -> Checked {
        match split_body(body).filter(|_| status == 200) {
            Some(parts) => Checked {
                verified: fnv1a(parts.payload.as_bytes()) == expected[request].payload_hash,
                generation: parts.generation,
                items: 0,
            },
            None => Checked::default(),
        }
    };
    progress(&format!(
        "deck checked: {} distinct requests",
        deck.requests.len()
    ));

    // the two read phases take turns, [`WINDOWS`] rounds of a slice each, so
    // that both sample the same stretch of the run and a slow spell of the
    // machine moves one window of each metric, not one metric
    let slice = |share: f64| seconds.mul_f64(share / WINDOWS as f64);
    let closed_slice = slice(CLOSED_SHARE);
    let open_slice = slice(1.0 - WRITE_SHARE - CLOSED_SHARE);
    let clients = loadgen::generator_threads();
    let (mut closed_all, mut open_all) = (Vec::new(), Vec::new());
    let (mut rates, mut cpus) = (Vec::new(), Vec::new());
    let mut p50s: HashMap<Class, Vec<f64>> = HashMap::new();
    for round in 0..WINDOWS {
        // phase A: closed loop → capacity and CPU per request
        let cpu = process_cpu_secs();
        let started = Instant::now();
        let first = closed_all.len();
        let closed = loadgen::run(
            &addr,
            &deck,
            first,
            clients,
            Pacing::Closed,
            closed_slice,
            &check,
        );
        let cpu = process_cpu_secs() - cpu;
        account(&closed, started, "phase.closed", trace, root, out);
        let verified = closed.iter().filter(|e| e.verified).count();
        rates.push(verified as f64 / closed_slice.as_secs_f64());
        cpus.push(cpu * 1e3 / verified.max(1) as f64);
        closed_all.extend(closed);

        // phase B: open loop at a fixed rate → latency from the due time
        let started = Instant::now();
        let pacing = Pacing::Open {
            rate_per_s: OPEN_LOOP_RPS,
        };
        let open = loadgen::run(
            &addr,
            &deck,
            open_all.len(),
            clients,
            pacing,
            open_slice,
            &check,
        );
        account(&open, started, "phase.open", trace, root, out);
        for class in [Class::Unionable, Class::Star] {
            p50s.entry(class)
                .or_default()
                .push(median(&latencies(&open, class)));
        }
        open_all.extend(open);
        progress(&format!(
            "round {round}: {} closed-loop and {} open-loop requests so far",
            closed_all.len(),
            open_all.len()
        ));
    }
    let served = server.obs().snapshot().metrics;
    server.shutdown();

    report_deltas(&records, write_phase, out);
    out.check(fingerprint(platform.store()) == baseline, || {
        "store after the add/remove cycles differs from the bootstrap".to_string()
    });
    let verified = closed_all.iter().filter(|e| e.verified).count();
    gate("read_rps", &rates, verified, &mut out.metrics);
    gate("read_cpu_ms_per_req", &cpus, verified, &mut out.metrics);
    out.metrics
        .set("loadgen.closed_rps", median(&rates), verified);
    for (name, class) in [
        ("unionable_p50_ms", Class::Unionable),
        ("star_p50_ms", Class::Star),
    ] {
        gate(
            name,
            &p50s[&class],
            latencies(&open_all, class).len(),
            &mut out.metrics,
        );
    }
    report_tails(&open_all, &mut out.metrics);
    let late: Vec<f64> = open_all
        .iter()
        .map(|e| (e.sent - e.due).as_secs_f64() * 1e3)
        .collect();
    out.metrics.set(
        "loadgen.late_start_p99_ms",
        percentile(&late, 0.99),
        late.len(),
    );
    out.metrics.set(
        "loadgen.open_achieved_rps",
        open_all.len() as f64 / (open_slice.as_secs_f64() * WINDOWS as f64),
        open_all.len(),
    );

    if trace.enabled() {
        let observed = observed_p50s(&open_all);
        layers::measure(
            &layers::Context {
                inputs: &inputs,
                platform: &platform,
                seed: cfg.seed,
                bootstrap: &bootstrap,
                served: &served,
                observed: &observed,
            },
            trace,
            root,
            out,
        );
    }
}

/// Client-observed p50 per class, in µs, for the budget-closure lines.
fn observed_p50s(exchanges: &[Exchange]) -> HashMap<Class, f64> {
    Class::ALL
        .into_iter()
        .map(|class| (class, percentile(&latencies(exchanges, class), 0.5) * 1e3))
        .collect()
}

fn churn(cfg: &RunConfig, trace: &Trace, root: Option<SpanId>, out: &mut Outcome) {
    let Lake {
        inputs,
        mut platform,
        baseline,
        bootstrap,
    } = set_up(cfg, trace, root, out);
    let phase = Duration::from_secs_f64(cfg.seconds);

    let tables = &inputs.tables[..CHURN_DECK_TABLES.min(inputs.tables.len())];
    let deck = Deck::build(&inputs, tables, CHURN_MIX, cfg.seed);
    let order = churn_order(&inputs, cfg.seed);

    // what each request must answer on the base lake plus each churn
    // dataset (untimed, and before a reader makes deltas expensive)
    let mut with_dataset: HashMap<usize, Vec<Expected>> = HashMap::new();
    for &dataset in &order {
        let d = &inputs.churn[dataset];
        platform.apply_delta(
            DeltaBatch::new()
                .add_raw_dataset(d.raw.clone())
                .add_pipelines(d.scripts.clone()),
        );
        with_dataset.insert(
            dataset,
            expectations(&deck, &Source::Platform(&platform), None, out),
        );
        platform.apply_delta(DeltaBatch::new().remove_dataset(d.raw.name.clone()));
    }

    // a reader pins every published snapshot from here on, so each delta
    // pays the copy-on-write clone
    let reader = platform.reader();
    let server = start_server(Backend::Reader(reader.clone()));
    let addr = server.addr().to_string();
    let base_expected = expectations(
        &deck,
        &Source::Reader(&reader),
        Some(&mut Client::connect(addr.clone())),
        out,
    );
    progress(&format!(
        "deck checked: {} distinct requests",
        deck.requests.len()
    ));

    // timed: one closed-loop client beside one writer
    let first_generation = platform.store().generation();
    let check = |_request: usize, status: u16, body: &str| -> Checked {
        match split_body(body).filter(|_| status == 200) {
            Some(parts) => Checked {
                verified: true,
                generation: parts.generation,
                items: count_items(parts.payload),
            },
            None => Checked::default(),
        }
    };
    let started = Instant::now();
    let (mut exchanges, records, cpu_at) = trace.span("phase.churn", root, 0, |span| {
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                write_deltas(
                    &mut platform,
                    &inputs,
                    &order,
                    phase,
                    WRITER_THINK,
                    trace,
                    span,
                )
            });
            // process CPU time at every window boundary
            let sampler = scope.spawn(|| {
                (0..=WINDOWS)
                    .map(|w| {
                        let due = phase.mul_f64(w as f64 / WINDOWS as f64);
                        std::thread::sleep(due.saturating_sub(started.elapsed()));
                        process_cpu_secs()
                    })
                    .collect::<Vec<f64>>()
            });
            let exchanges = loadgen::run(&addr, &deck, 0, 1, Pacing::Closed, phase, &check);
            (
                exchanges,
                writer.join().expect("writer thread panicked"),
                sampler.join().expect("sampler thread panicked"),
            )
        })
    });

    // a response is whole only if its generation never runs backwards on
    // the connection and its item count is the one of that generation's
    // lake; anything else is a torn read
    let mut lake_at: HashMap<u64, Option<usize>> = HashMap::new();
    lake_at.insert(first_generation, None);
    for r in &records {
        lake_at.insert(r.stats.generation, r.add.then_some(r.dataset));
    }
    let mut last_generation = 0;
    for e in &mut exchanges {
        let want = lake_at.get(&e.generation).map(|state| match state {
            None => base_expected[e.request].items,
            Some(dataset) => with_dataset[dataset][e.request].items,
        });
        e.verified &= want == Some(e.items) && e.generation >= last_generation;
        last_generation = last_generation.max(e.generation);
    }
    progress(&format!(
        "phase churn: {} requests, {} deltas",
        exchanges.len(),
        records.len()
    ));
    account(&exchanges, started, "phase.churn.reads", trace, root, out);
    report_deltas(&records, phase, out);
    out.check(fingerprint(platform.store()) == baseline, || {
        "store after the add/remove deltas differs from the bootstrap".to_string()
    });

    let verified = samples(&exchanges, None);
    let rates = window_rates(&verified, phase);
    gate("read_rps", &rates, verified.len(), &mut out.metrics);
    // readers' and writer's CPU together, per verified response
    let window_secs = phase.as_secs_f64() / WINDOWS as f64;
    let cpus: Vec<f64> = cpu_at
        .windows(2)
        .zip(&rates)
        .map(|(cpu, rate)| (cpu[1] - cpu[0]) * 1e3 / (rate * window_secs).max(1.0))
        .collect();
    gate(
        "read_cpu_ms_per_req",
        &cpus,
        verified.len(),
        &mut out.metrics,
    );
    out.metrics
        .set("loadgen.closed_rps", median(&rates), verified.len());
    // a reader backend has no discovery endpoint: the union class here is
    // the SPARQL text the endpoint issues
    for (name, class) in [
        ("unionable_p50_ms", Class::Union2hop),
        ("star_p50_ms", Class::Star),
    ] {
        let s = samples(&exchanges, Some(class));
        gate(name, &window_medians(&s, phase), s.len(), &mut out.metrics);
    }
    report_tails(&exchanges, &mut out.metrics);
    // no open loop here
    out.metrics.set("loadgen.late_start_p99_ms", 0.0, 0);
    out.metrics.set("loadgen.open_achieved_rps", 0.0, 0);

    let served = server.obs().snapshot().metrics;
    server.shutdown();
    if trace.enabled() {
        let platform = Arc::new(platform);
        let observed = observed_p50s(&exchanges);
        layers::measure(
            &layers::Context {
                inputs: &inputs,
                platform: &platform,
                seed: cfg.seed,
                bootstrap: &bootstrap,
                served: &served,
                observed: &observed,
            },
            trace,
            root,
            out,
        );
    }
}
