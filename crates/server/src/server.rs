//! The threaded HTTP server: a bounded worker pool over snapshot reads.
//!
//! Concurrency model: one acceptor thread pushes accepted connections
//! into a bounded `sync_channel`; a fixed pool of worker threads pulls
//! connections and serves them with keep-alive. When the queue is full
//! the acceptor answers 503 inline and drops the connection — overload
//! sheds load instead of queueing unboundedly. Shutdown is graceful:
//! the flag flips, the acceptor is unblocked by a self-connect and
//! stops, workers finish their in-flight request (answering with
//! `Connection: close`), drain any queued connections, and join.
//!
//! Every read endpoint answers from one pinned store snapshot
//! ([`LidsReader::snapshot`]) through the platform's one governed query
//! path — the copy-on-write snapshot layer is what makes "many network
//! clients + one live writer" safe without a read lock. Either
//! [`Backend`] becomes a [`LidsReader`] at [`LidsServer::start`]; no
//! handler knows which it was.

use crate::api::{
    query_response_body, ErrorResponse, ExplainResponse, HealthResponse, PathsRequest,
    PathsResponse, QueryRequest, SearchRequest, TableHitsRequest, TableHitsResponse, WireJoinPath,
    WirePattern, WireTableHit, API_VERSION,
};
use crate::http::{self, HttpReadError, HttpRequest};
use kglids::{ErrorKind, KgLids, LidsError, LidsReader, UnionMode};
use lids_obs::Obs;
use serde::Serialize;
use std::io::BufReader;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the server serves from. Both answer every endpoint: queries,
/// explain and discovery are SPARQL over a pinned snapshot either way.
#[derive(Clone)]
pub enum Backend {
    /// A platform nobody is writing to, shared as is.
    Platform(Arc<KgLids>),
    /// A detached reader ([`KgLids::reader`]), for serving the latest
    /// published generation while a writer applies deltas.
    Reader(LidsReader),
}

impl From<Backend> for LidsReader {
    fn from(backend: Backend) -> LidsReader {
        match backend {
            Backend::Platform(platform) => platform.reader(),
            Backend::Reader(reader) => reader,
        }
    }
}

/// Server tuning knobs. `Default` is sized for tests and small fleets.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Accepted connections waiting for a worker before the acceptor
    /// starts answering 503.
    pub queue_depth: usize,
    /// Largest request body accepted (→ 413 beyond it).
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 4, queue_depth: 64, max_body_bytes: 1 << 20 }
    }
}

/// A running server. Bind with [`LidsServer::start`], stop with
/// [`LidsServer::shutdown`] (also runs on drop).
pub struct LidsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    obs: Arc<Obs>,
    /// Requests left to fail by fault injection
    /// ([`LidsServer::inject_handler_panics`]).
    faults: Arc<AtomicU64>,
}

/// How often an idle keep-alive connection polls the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

impl LidsServer {
    /// Bind `addr` (use `"127.0.0.1:0"` for an ephemeral test port) and
    /// start accepting.
    pub fn start(backend: Backend, addr: &str, config: ServerConfig) -> std::io::Result<LidsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let backend = LidsReader::from(backend);
        let shutdown = Arc::new(AtomicBool::new(false));
        let obs = Arc::new(Obs::new());
        let next_id = Arc::new(AtomicU64::new(1));
        let faults = Arc::new(AtomicU64::new(0));
        let (tx, rx) = sync_channel::<TcpStream>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let backend = backend.clone();
                let obs = Arc::clone(&obs);
                let shutdown = Arc::clone(&shutdown);
                let next_id = Arc::clone(&next_id);
                let faults = Arc::clone(&faults);
                let max_body = config.max_body_bytes;
                std::thread::spawn(move || {
                    loop {
                        let conn = {
                            match rx.lock() {
                                Ok(rx) => rx.recv(),
                                Err(_) => break,
                            }
                        };
                        match conn {
                            Ok(stream) => {
                                serve_connection(
                                    stream, &backend, &obs, &shutdown, &next_id, &faults,
                                    max_body,
                                );
                            }
                            // acceptor gone and queue drained: shutdown
                            Err(_) => break,
                        }
                    }
                })
            })
            .collect();

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let obs = Arc::clone(&obs);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    match tx.try_send(stream) {
                        Ok(()) => obs.metrics.counter_add("server.accepted", 1),
                        Err(TrySendError::Full(mut stream)) => {
                            // shed load: answer 503 without occupying a worker
                            obs.metrics.counter_add("server.rejected_queue_full", 1);
                            let body = error_body(
                                "req-0",
                                "Overloaded",
                                "connection queue full; retry",
                                503,
                            );
                            let _ = http::write_response(&mut stream, 503, &body, false);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                // dropping tx here lets workers drain the queue then exit
            })
        };

        Ok(LidsServer { addr, shutdown, acceptor: Some(acceptor), workers, obs, faults })
    }

    /// Fault injection: the handlers of the next `n` requests panic. A
    /// panicking handler answers 500 `Internal`, bumps
    /// `server.handler_panics` and leaves its worker serving.
    pub fn inject_handler_panics(&self, n: u64) {
        self.faults.store(n, Ordering::SeqCst);
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's own observability handle: the `server.*` half of
    /// what `/metrics` serves (the other half is the backend's registry).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Stop accepting, drain in-flight requests, join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // unblock the acceptor's blocking accept
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for LidsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn error_body(request_id: &str, error: &str, message: &str, status: u16) -> String {
    let resp = ErrorResponse {
        api: API_VERSION.to_string(),
        request_id: request_id.to_string(),
        error: error.to_string(),
        message: message.to_string(),
        status: u64::from(status),
    };
    serde_json::to_string(&resp)
        .unwrap_or_else(|_| format!("{{\"error\":\"{error}\",\"status\":{status}}}"))
}

/// Serve one connection until the peer closes, a framing error ends it,
/// or shutdown begins.
fn serve_connection(
    stream: TcpStream,
    backend: &LidsReader,
    obs: &Obs,
    shutdown: &AtomicBool,
    next_id: &AtomicU64,
    faults: &AtomicU64,
    max_body: usize,
) {
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    // small request/response exchanges; never trade latency for batching
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    loop {
        match http::read_request(&mut reader, max_body) {
            Ok(req) => {
                let request_id = format!("req-{}", next_id.fetch_add(1, Ordering::Relaxed));
                let started = Instant::now();
                // a panicking handler costs its request, not its worker
                let handled = catch_unwind(AssertUnwindSafe(|| {
                    let take = |n: u64| n.checked_sub(1);
                    let fault = faults.fetch_update(Ordering::SeqCst, Ordering::SeqCst, take);
                    assert!(fault.is_err(), "injected handler fault");
                    handle(backend, obs, &req, &request_id)
                }));
                let (status, body, label) = handled.unwrap_or_else(|_| {
                    obs.metrics.counter_add("server.handler_panics", 1);
                    let body = error_body(&request_id, "Internal", "request handler panicked", 500);
                    (500, body, "panic")
                });
                obs.metrics.counter_add("server.requests", 1);
                obs.metrics.counter_add(
                    match status {
                        200..=299 => "server.responses_2xx",
                        400..=499 => "server.responses_4xx",
                        _ => "server.responses_5xx",
                    },
                    1,
                );
                obs.metrics
                    .observe_duration(&format!("server.latency_us.{label}"), started.elapsed());
                // in-flight requests finish during shutdown, but the
                // connection is told to close
                let keep = req.keep_alive && !shutdown.load(Ordering::SeqCst);
                if http::write_response(reader.get_mut(), status, &body, keep).is_err() || !keep {
                    return;
                }
            }
            Err(HttpReadError::Idle) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(HttpReadError::Closed) => return,
            Err(HttpReadError::Malformed(m)) => {
                obs.metrics.counter_add("server.responses_4xx", 1);
                let body = error_body("req-0", "Malformed", &m, 400);
                let _ = http::write_response(reader.get_mut(), 400, &body, false);
                return;
            }
            Err(HttpReadError::TooLarge { what, limit }) => {
                obs.metrics.counter_add("server.responses_4xx", 1);
                let body = error_body(
                    "req-0",
                    "PayloadTooLarge",
                    &format!("{what} exceeds {limit} bytes"),
                    413,
                );
                let _ = http::write_response(reader.get_mut(), 413, &body, false);
                return;
            }
            Err(HttpReadError::Io(_)) => return,
        }
    }
}

fn to_json<T: Serialize>(request_id: &str, value: &T) -> (u16, String) {
    match serde_json::to_string(value) {
        Ok(body) => (200, body),
        Err(e) => (
            500,
            error_body(request_id, "Internal", &format!("response serialization: {e}"), 500),
        ),
    }
}

fn lids_error_response(request_id: &str, e: &LidsError) -> (u16, String) {
    let status = e.kind().http_status();
    (status, error_body(request_id, e.kind().name(), e.message(), status))
}

fn parse_body<T: for<'de> serde::Deserialize<'de>>(
    body: &[u8],
    request_id: &str,
) -> Result<T, (u16, String)> {
    let text = std::str::from_utf8(body).map_err(|_| {
        (400, error_body(request_id, "JsonMalformed", "request body is not UTF-8", 400))
    })?;
    serde_json::from_str::<T>(text).map_err(|e| {
        (400, error_body(request_id, "JsonMalformed", &format!("request body: {e}"), 400))
    })
}

/// Route and execute one request. Returns `(status, body, metric label)`.
fn handle(
    backend: &LidsReader,
    obs: &Obs,
    req: &HttpRequest,
    request_id: &str,
) -> (u16, String, &'static str) {
    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/healthz") => {
            let snapshot = backend.snapshot();
            let resp = HealthResponse {
                api: API_VERSION.to_string(),
                status: "ok".to_string(),
                generation: snapshot.generation(),
                triples: snapshot.len() as u64,
            };
            let (status, body) = to_json(request_id, &resp);
            (status, body, "healthz")
        }
        ("GET", "/metrics") => {
            // this server's registry and span trees, plus the metrics of
            // the platform behind the backend (`query.*`, `ingest.delta.*`,
            // `store.cow.*`, …) — the name families are disjoint
            let mut snapshot = obs.snapshot();
            snapshot.metrics.merge(backend.obs().metrics.snapshot());
            (200, snapshot.to_json(), "metrics")
        }
        ("POST", "/v1/query") => {
            let (status, body) = handle_query(backend, &req.body, request_id);
            (status, body, "query")
        }
        ("POST", "/v1/explain") => {
            let (status, body) = handle_explain(backend, &req.body, request_id);
            (status, body, "explain")
        }
        ("POST", "/v1/discovery/unionable-tables") => {
            let (status, body) = handle_table_hits(backend, &req.body, request_id, true);
            (status, body, "unionable_tables")
        }
        ("POST", "/v1/discovery/joinable-tables") => {
            let (status, body) = handle_table_hits(backend, &req.body, request_id, false);
            (status, body, "joinable_tables")
        }
        ("POST", "/v1/discovery/paths") => {
            let (status, body) = handle_paths(backend, &req.body, request_id);
            (status, body, "paths")
        }
        ("POST", "/v1/discovery/search") => {
            let (status, body) = handle_search(backend, &req.body, request_id);
            (status, body, "search")
        }
        (_, target) => (
            404,
            error_body(request_id, "NotFound", &format!("no route for {target}"), 404),
            "other",
        ),
    }
}

/// Server-side wall time of a request so far, microseconds.
fn elapsed_us(started: Instant) -> u64 {
    started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

fn handle_query(backend: &LidsReader, body: &[u8], request_id: &str) -> (u16, String) {
    let started = Instant::now();
    let req: QueryRequest = match parse_body(body, request_id) {
        Ok(req) => req,
        Err(err) => return err,
    };
    let options = req.limits.clone().unwrap_or_default().to_eval_options();
    let snapshot = backend.snapshot();
    // the answer stays ids until its cells are written into the body
    match backend.solutions_at(&snapshot, &req.query, options) {
        Ok(answer) => {
            let rows = answer.rows.iter().map(|row| row.iter().map(|&cell| answer.text(cell)));
            let body = query_response_body(
                request_id,
                &answer.columns,
                rows,
                answer.truncated,
                snapshot.generation(),
                elapsed_us(started),
            );
            (200, body)
        }
        Err(e) => lids_error_response(request_id, &e),
    }
}

/// `/v1/explain` takes the body `/v1/query` takes and makes the same run:
/// the same limits, the same refusals; the plan is answered instead of
/// the rows.
fn handle_explain(backend: &LidsReader, body: &[u8], request_id: &str) -> (u16, String) {
    let req: QueryRequest = match parse_body(body, request_id) {
        Ok(req) => req,
        Err(err) => return err,
    };
    let options = req.limits.unwrap_or_default().to_eval_options();
    match backend.explain_at(&backend.snapshot(), &req.query, options) {
        Ok(report) => {
            let resp = ExplainResponse {
                api: API_VERSION.to_string(),
                request_id: request_id.to_string(),
                reorder_joins: report.reorder_joins,
                rows: report.rows as u64,
                wall_secs: report.wall_secs,
                patterns: report
                    .patterns
                    .iter()
                    .map(|p| WirePattern {
                        pattern: p.pattern.clone(),
                        estimated_rows: p.estimated_rows as u64,
                        actual_rows: p.actual_rows,
                        scans: p.scans,
                        order: p.order.map(|o| o as u64),
                        operator: p.operator.map(str::to_string),
                        satisfiable: p.satisfiable,
                    })
                    .collect(),
                decoded_terms: report.decoded_terms,
                merge_joins: report.merge_joins,
                probe_joins: report.probe_joins,
                leapfrog_joins: report.leapfrog_joins,
                truncated: report.truncated,
            };
            to_json(request_id, &resp)
        }
        Err(e) => lids_error_response(request_id, &e),
    }
}

fn handle_table_hits(
    backend: &LidsReader,
    body: &[u8],
    request_id: &str,
    unionable: bool,
) -> (u16, String) {
    let started = Instant::now();
    let req: TableHitsRequest = match parse_body(body, request_id) {
        Ok(req) => req,
        Err(err) => return err,
    };
    let mut d = backend.discovery();
    if let Some(k) = req.k {
        d = d.k(k as usize);
    }
    if let Some(min_score) = req.min_score {
        d = d.min_score(min_score);
    }
    if let Some(mode) = &req.mode {
        match UnionMode::parse(mode) {
            Some(mode) => d = d.mode(mode),
            None => {
                return (
                    400,
                    error_body(
                        request_id,
                        ErrorKind::InvalidArgument.name(),
                        &format!("unknown union mode: {mode}"),
                        400,
                    ),
                )
            }
        }
    }
    if let Some(limits) = &req.limits {
        match limits.to_query_limits() {
            Ok(limits) => d = d.limits(limits),
            Err(e) => return lids_error_response(request_id, &e),
        }
    }
    let generation = d.generation();
    let hits = if unionable {
        d.unionable_tables(&req.dataset, &req.table)
    } else {
        d.joinable_tables(&req.dataset, &req.table)
    };
    match hits {
        Ok(hits) => {
            let resp = TableHitsResponse {
                api: API_VERSION.to_string(),
                request_id: request_id.to_string(),
                hits: hits
                    .into_iter()
                    .map(|h| WireTableHit { dataset: h.dataset, table: h.table, score: h.score })
                    .collect(),
                generation,
                elapsed_us: elapsed_us(started),
            };
            to_json(request_id, &resp)
        }
        Err(e) => lids_error_response(request_id, &e),
    }
}

fn handle_paths(backend: &LidsReader, body: &[u8], request_id: &str) -> (u16, String) {
    let started = Instant::now();
    let req: PathsRequest = match parse_body(body, request_id) {
        Ok(req) => req,
        Err(err) => return err,
    };
    let mut d = backend.discovery();
    if let Some(hops) = req.hops {
        d = d.hops(hops as usize);
    }
    if let Some(limits) = &req.limits {
        match limits.to_query_limits() {
            Ok(limits) => d = d.limits(limits),
            Err(e) => return lids_error_response(request_id, &e),
        }
    }
    let generation = d.generation();
    let from = (req.from_dataset.as_str(), req.from_table.as_str());
    let to = (req.to_dataset.as_str(), req.to_table.as_str());
    let paths = if req.shortest.unwrap_or(false) {
        d.shortest_path(from, to).map(|p| p.into_iter().collect::<Vec<_>>())
    } else {
        d.paths(from, to)
    };
    match paths {
        Ok(paths) => {
            let resp = PathsResponse {
                api: API_VERSION.to_string(),
                request_id: request_id.to_string(),
                paths: paths.into_iter().map(|p| WireJoinPath { tables: p.tables }).collect(),
                generation,
                elapsed_us: elapsed_us(started),
            };
            to_json(request_id, &resp)
        }
        Err(e) => lids_error_response(request_id, &e),
    }
}

fn handle_search(backend: &LidsReader, body: &[u8], request_id: &str) -> (u16, String) {
    let started = Instant::now();
    let req: SearchRequest = match parse_body(body, request_id) {
        Ok(req) => req,
        Err(err) => return err,
    };
    let mut d = backend.discovery();
    if let Some(limits) = &req.limits {
        match limits.to_query_limits() {
            Ok(limits) => d = d.limits(limits),
            Err(e) => return lids_error_response(request_id, &e),
        }
    }
    let generation = d.generation();
    let groups: Vec<Vec<&str>> =
        req.conditions.iter().map(|g| g.iter().map(String::as_str).collect()).collect();
    let refs: Vec<&[&str]> = groups.iter().map(Vec::as_slice).collect();
    match d.search(&refs) {
        Ok(df) => {
            let rows = df.rows.iter().map(|row| row.iter());
            let body = query_response_body(
                request_id,
                &df.columns,
                rows,
                df.truncated,
                generation,
                elapsed_us(started),
            );
            (200, body)
        }
        Err(e) => lids_error_response(request_id, &e),
    }
}
