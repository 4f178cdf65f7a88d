//! The load generator: raw pre-rendered requests over keep-alive
//! connections, in a closed loop (a client sends its next request when the
//! previous one completes) or an open loop (requests are due on a fixed
//! schedule and are timed from their due time).
//!
//! Responses are checked by a caller-supplied function that never decodes
//! the body, so the generator stays far from being the bottleneck.

use std::time::{Duration, Instant};

use lids_server::Client;

use crate::deck::{Class, Deck};

/// One request/response exchange as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Exchange {
    /// Index into the deck's `requests`.
    pub request: usize,
    pub class: Class,
    /// When the request was due, from the phase start (closed loop: when
    /// the client was ready to send it).
    pub due: Duration,
    /// When it was actually sent.
    pub sent: Duration,
    /// When the whole response had arrived.
    pub done: Duration,
    pub status: u16,
    /// Generation and item count, for the checks that need them later.
    pub generation: u64,
    pub items: usize,
    /// The response passed the caller's check.
    pub verified: bool,
}

impl Exchange {
    /// Latency in ms, from the due time.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }
}

/// What a check learns from one response.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checked {
    pub verified: bool,
    pub generation: u64,
    pub items: usize,
}

/// Threads the generator may use on this machine: one per core, two at
/// most (the server's two workers need the cores as much as we do).
pub fn generator_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// How requests are paced.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// A client sends its next request when the previous one completes.
    Closed,
    /// Request `i` is due at `i ÷ rate`, whatever happened to the ones
    /// before it; a client that falls behind sends at once, and the wait
    /// counts as latency.
    Open { rate_per_s: f64 },
}

/// Drive `deck` against the server at `addr` for `phase` over `clients`
/// keep-alive connections; request `i` of the phase is deck position
/// `first + i`, and connection `c` takes every `i` with `i mod clients =
/// c`. Returns the exchanges in completion order.
pub fn run(
    addr: &str,
    deck: &Deck,
    first: usize,
    clients: usize,
    pacing: Pacing,
    phase: Duration,
    check: &(dyn Fn(usize, u16, &str) -> Checked + Sync),
) -> Vec<Exchange> {
    assert!(
        clients >= 1 && clients <= generator_threads(),
        "load must fit the machine"
    );
    let start = Instant::now();
    let mut all: Vec<Exchange> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut out = Vec::new();
                    for i in (c..).step_by(clients) {
                        let due = match pacing {
                            Pacing::Closed => start.elapsed(),
                            Pacing::Open { rate_per_s } => {
                                Duration::from_secs_f64(i as f64 / rate_per_s)
                            }
                        };
                        if due >= phase {
                            break;
                        }
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        out.push(exchange(&mut client, deck, first + i, due, start, check));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    all.sort_by_key(|e| e.done);
    all
}

fn exchange(
    client: &mut Client,
    deck: &Deck,
    at: usize,
    due: Duration,
    start: Instant,
    check: &(dyn Fn(usize, u16, &str) -> Checked + Sync),
) -> Exchange {
    let request = deck.order[at % deck.order.len()];
    let r = &deck.requests[request];
    let sent = start.elapsed();
    let (status, checked) = match client.request_raw("POST", r.class.path(), &r.body) {
        Ok((status, body)) => (status, check(request, status, &body)),
        // a transport failure is a failed request, not a reason to stop
        Err(_) => (0, Checked::default()),
    };
    Exchange {
        request,
        class: r.class,
        due,
        sent,
        done: start.elapsed(),
        status,
        generation: checked.generation,
        items: checked.items,
        verified: checked.verified,
    }
}
