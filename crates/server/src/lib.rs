//! `lids-server` — the network front end over the snapshot layer.
//!
//! KGLiDS is meant to be *served*: discovery and SPARQL queries arrive
//! from many concurrent data-science clients over the network, not from
//! in-process callers. This crate puts an HTTP/1.1 edge in front of the
//! platform using nothing but `std::net` and the vendored `serde_json`
//! (the workspace's offline ethos — zero external dependencies):
//!
//! - [`api`] — the `lids-api/v1` wire protocol as typed serde structs,
//!   shared by the server and the blocking [`client::Client`] helper, so
//!   the protocol is an API, not ad-hoc JSON.
//! - [`http`] — a minimal, bounded HTTP/1.1 reader/writer: request-line +
//!   headers + `Content-Length` bodies, keep-alive, typed framing errors
//!   that map onto 400/413 responses.
//! - [`server`] — [`server::LidsServer`]: a bounded worker pool serving
//!   SPARQL (`POST /v1/query`, `/v1/explain`) and typed discovery
//!   (`/v1/discovery/*`) against [`kglids::LidsReader`] snapshots, plus
//!   `GET /healthz` and `GET /metrics` (the `lids-obs` JSON snapshot).
//!   Graceful shutdown drains in-flight requests; per-request ids and
//!   latency histograms ride the obs registry.
//! - [`client`] — a small blocking client over one keep-alive connection,
//!   with typed responses and typed API errors.
//!
//! Error mapping is the platform's own taxonomy: a handler failure
//! surfaces as [`kglids::LidsError`], and
//! [`lids_exec::ErrorKind::http_status`] decides 400 vs 503 vs 500 — the
//! server adds no parallel error vocabulary.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod api;
pub mod client;
pub mod http;
pub mod server;

pub use api::{
    ErrorResponse, ExplainResponse, HealthResponse, PathsRequest, PathsResponse, QueryRequest,
    QueryResponse, SearchRequest, TableHitsRequest, TableHitsResponse, WireLimits, API_VERSION,
};
pub use client::{Client, ClientError};
pub use server::{Backend, LidsServer, ServerConfig};
