//! The `lids-api/v1` wire protocol: typed serde structs shared by the
//! server and the blocking client, so both sides speak the same schema
//! and a protocol change is a type change, not a string drift.
//!
//! Every response carries the `api` version tag and the server-assigned
//! `request_id` (for correlating client observations with server-side
//! metrics/logs). Read responses also carry the store snapshot
//! `generation` they were answered from — the client-side handle for
//! snapshot-isolation assertions: generations are monotone per
//! connection-free server, and a whole ingest batch publishes as one
//! generation bump, so a client can detect torn reads without any
//! server cooperation.

use kglids::{DataFrame, ErrorKind, EvalOptions, LidsError, LidsResult, QueryLimits};
use serde::{Deserialize, Serialize};
use serde_json::write_escaped_str;
use std::time::Duration;

/// Version tag stamped on every response.
pub const API_VERSION: &str = "lids-api/v1";

/// Per-request resource-governance limits — the wire form of
/// [`QueryLimits`] plus an explicit row cap. All fields
/// optional; unset limits fall back to the server's platform guardrails.
/// The row cap applies to ad-hoc queries only: a discovery answer is
/// whole or an error, so a discovery request carrying one is refused.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WireLimits {
    /// Wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Logical memory budget in bytes.
    pub memory_budget_bytes: Option<u64>,
    /// Row cap: intermediate binding sets larger than this are truncated
    /// (the response is marked `truncated`) rather than failed. Ad-hoc
    /// queries only.
    pub row_cap: Option<u64>,
}

impl WireLimits {
    /// The in-process [`QueryLimits`] these wire limits express, for a
    /// discovery request. A row cap is `InvalidArgument`: a discovery
    /// ranking over a truncated answer would pass for a whole one.
    pub fn to_query_limits(&self) -> LidsResult<QueryLimits> {
        if self.row_cap.is_some() {
            return Err(LidsError::new(
                ErrorKind::InvalidArgument,
                "limits.row_cap applies to /v1/query only: a discovery answer is whole or an error",
            ));
        }
        Ok(QueryLimits {
            deadline: self.deadline_ms.map(Duration::from_millis),
            memory_budget_bytes: self.memory_budget_bytes,
            ..QueryLimits::default()
        })
    }

    /// The [`EvalOptions`] these wire limits express (for the ad-hoc
    /// query path, which takes options rather than limits).
    pub fn to_eval_options(&self) -> EvalOptions {
        EvalOptions {
            deadline: self.deadline_ms.map(Duration::from_millis),
            memory_budget: self.memory_budget_bytes,
            row_cap: self.row_cap.map(|c| c as usize),
            ..EvalOptions::default()
        }
    }
}

/// `POST /v1/query` — ad-hoc SPARQL.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    pub query: String,
    pub limits: Option<WireLimits>,
}

/// Rows answering a query or search: the wire form of a [`DataFrame`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryResponse {
    pub api: String,
    pub request_id: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// True when an explicit row cap truncated the result.
    pub truncated: bool,
    /// Store-snapshot generation the query executed against.
    pub generation: u64,
    /// Server-side wall time for the request, microseconds.
    pub elapsed_us: u64,
}

impl QueryResponse {
    /// The response rows as the in-process [`DataFrame`] they came from.
    pub fn to_dataframe(&self) -> DataFrame {
        DataFrame {
            columns: self.columns.clone(),
            rows: self.rows.clone(),
            truncated: self.truncated,
        }
    }
}

/// The body of a [`QueryResponse`], written cell by cell: what the server
/// sends for an answer it holds as ids or as a [`DataFrame`], without
/// building the response struct (a `String` per cell) and serde's tree of
/// it first. `rows` yields each row's cells as text, an unbound cell as
/// `""`.
///
/// The contract is byte parity: the body is exactly
/// `serde_json::to_string(&QueryResponse { .. })` of the same answer — the
/// field order of the struct, the vendored `serde_json`'s own escaping —
/// which the typed [`crate::Client`] decodes and the e2e suite compares.
pub(crate) fn query_response_body<R, C>(
    request_id: &str,
    columns: &[String],
    rows: R,
    truncated: bool,
    generation: u64,
    elapsed_us: u64,
) -> String
where
    R: Iterator<Item = C>,
    C: Iterator,
    C::Item: AsRef<str>,
{
    let cells = rows.size_hint().0 * columns.len();
    let mut out = String::with_capacity(256 + cells * 32);
    out.push_str("{\"api\":");
    write_escaped_str(&mut out, API_VERSION);
    out.push_str(",\"request_id\":");
    write_escaped_str(&mut out, request_id);
    out.push_str(",\"columns\":");
    write_strings(&mut out, columns.iter());
    out.push_str(",\"rows\":[");
    for (i, row) in rows.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_strings(&mut out, row);
    }
    out.push_str("],\"truncated\":");
    out.push_str(if truncated { "true" } else { "false" });
    out.push_str(&format!(",\"generation\":{generation},\"elapsed_us\":{elapsed_us}}}"));
    out
}

/// A JSON array of strings.
fn write_strings<S: AsRef<str>>(out: &mut String, items: impl Iterator<Item = S>) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped_str(out, item.as_ref());
    }
    out.push(']');
}

/// `POST /v1/explain` — instrumented evaluation. The query runs under the
/// platform's guardrails like `POST /v1/query`, and a trip is the same
/// typed 503.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExplainRequest {
    pub query: String,
}

/// One triple pattern of an explain plan.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WirePattern {
    pub pattern: String,
    pub estimated_rows: u64,
    pub actual_rows: u64,
    pub scans: u64,
    pub order: Option<u64>,
    pub operator: Option<String>,
    pub satisfiable: bool,
}

/// `POST /v1/explain` response: the executed plan — per pattern the join
/// operator (`"probe"`, `"merge"` or `"leapfrog"`), estimated and actual
/// rows; evaluator-wide decode and per-operator join counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExplainResponse {
    pub api: String,
    pub request_id: String,
    pub reorder_joins: bool,
    pub rows: u64,
    pub wall_secs: f64,
    pub patterns: Vec<WirePattern>,
    pub decoded_terms: u64,
    pub merge_joins: u64,
    pub probe_joins: u64,
    pub leapfrog_joins: u64,
    pub truncated: bool,
}

/// `POST /v1/discovery/unionable-tables` and `/joinable-tables`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TableHitsRequest {
    pub dataset: String,
    pub table: String,
    /// Keep at most `k` hits (server default 10).
    pub k: Option<u64>,
    /// Drop hits scoring below this floor.
    pub min_score: Option<f64>,
    /// Similarity mode: `"content-and-label"`, `"content-only"`, or
    /// `"label-only"` (unionable-tables only; joinable is content-only
    /// by definition).
    pub mode: Option<String>,
    pub limits: Option<WireLimits>,
}

/// One scored table hit.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WireTableHit {
    pub dataset: String,
    pub table: String,
    pub score: f64,
}

/// Ranked hits answering a discovery search.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TableHitsResponse {
    pub api: String,
    pub request_id: String,
    pub hits: Vec<WireTableHit>,
    pub generation: u64,
    pub elapsed_us: u64,
}

/// `POST /v1/discovery/paths` — join paths between two tables.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PathsRequest {
    pub from_dataset: String,
    pub from_table: String,
    pub to_dataset: String,
    pub to_table: String,
    /// Maximum intermediate joins (server default 2).
    pub hops: Option<u64>,
    /// When true, return only the BFS-shortest path.
    pub shortest: Option<bool>,
    pub limits: Option<WireLimits>,
}

/// One join path (table names, endpoints included).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WireJoinPath {
    pub tables: Vec<String>,
}

/// Join paths answering a path-discovery request.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PathsResponse {
    pub api: String,
    pub request_id: String,
    pub paths: Vec<WireJoinPath>,
    pub generation: u64,
    pub elapsed_us: u64,
}

/// `POST /v1/discovery/search` — §5 keyword table search. The outer list
/// is a disjunction of conjunctive keyword groups. Answered with a
/// [`QueryResponse`] (the search result is a DataFrame).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchRequest {
    pub conditions: Vec<Vec<String>>,
    pub limits: Option<WireLimits>,
}

/// Every non-2xx response: the platform's typed error on the wire.
/// `error` is the stable [`kglids::ErrorKind`] name; `status` repeats the
/// HTTP status so the body alone is self-describing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    pub api: String,
    pub request_id: String,
    pub error: String,
    pub message: String,
    pub status: u64,
}

/// `GET /healthz`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    pub api: String,
    pub status: String,
    pub generation: u64,
    pub triples: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_limits_round_trip_and_defaults() {
        let limits = WireLimits {
            deadline_ms: Some(250),
            memory_budget_bytes: None,
            row_cap: Some(1000),
        };
        let json = serde_json::to_string(&limits).unwrap();
        let back: WireLimits = serde_json::from_str(&json).unwrap();
        assert_eq!(back, limits);
        // missing fields deserialize to None
        let sparse: WireLimits = serde_json::from_str("{\"deadline_ms\": 5}").unwrap();
        assert_eq!(sparse.deadline_ms, Some(5));
        assert_eq!(sparse.memory_budget_bytes, None);
        assert_eq!(sparse.row_cap, None);
        let err = limits.to_query_limits().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument);
        let q = WireLimits { row_cap: None, ..limits.clone() }.to_query_limits().unwrap();
        assert_eq!(q.deadline, Some(Duration::from_millis(250)));
        assert_eq!(q.memory_budget_bytes, None);
        let o = limits.to_eval_options();
        assert_eq!(o.row_cap, Some(1000));
    }

    #[test]
    fn query_request_requires_query_field() {
        let ok: QueryRequest = serde_json::from_str("{\"query\": \"ASK {}\"}").unwrap();
        assert_eq!(ok.query, "ASK {}");
        assert!(ok.limits.is_none());
        // a body without `query` is a schema violation, not an empty query
        assert!(serde_json::from_str::<QueryRequest>("{\"limits\": {}}").is_err());
    }

    #[test]
    fn query_response_round_trips_dataframe() {
        let resp = QueryResponse {
            api: API_VERSION.into(),
            request_id: "req-1".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![vec!["1".into(), "x".into()], vec!["2".into(), String::new()]],
            truncated: false,
            generation: 7,
            elapsed_us: 42,
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: QueryResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
        let df = back.to_dataframe();
        assert_eq!(df.get(1, "a"), Some("2"));
        assert_eq!(df.len(), 2);
    }

    #[test]
    fn written_body_is_the_serialized_response() {
        let resp = QueryResponse {
            api: API_VERSION.into(),
            request_id: "req-\"7\"".into(),
            columns: vec!["a\\b".into(), "n".into()],
            rows: vec![
                vec!["quote \" slash \\ tab \t".into(), String::new()],
                vec!["line\nfeed\r bell \u{7} esc \u{1b}".into(), "é😀 << a b c >> _:b".into()],
            ],
            truncated: true,
            generation: 7,
            elapsed_us: 42,
        };
        let written = query_response_body(
            &resp.request_id,
            &resp.columns,
            resp.rows.iter().map(|row| row.iter()),
            resp.truncated,
            resp.generation,
            resp.elapsed_us,
        );
        assert_eq!(written, serde_json::to_string(&resp).unwrap());
        // no rows, no columns (an ASK, an empty search)
        let empty = QueryResponse { api: API_VERSION.into(), ..QueryResponse::default() };
        let none: [&[String]; 0] = [];
        let written = query_response_body("", &[], none.iter().map(|row| row.iter()), false, 0, 0);
        assert_eq!(written, serde_json::to_string(&empty).unwrap());
    }

    #[test]
    fn error_response_carries_kind_name() {
        let err = ErrorResponse {
            api: API_VERSION.into(),
            request_id: "req-9".into(),
            error: "SparqlError".into(),
            message: "parse error at byte 0".into(),
            status: 400,
        };
        let json = serde_json::to_string(&err).unwrap();
        assert!(json.contains("\"SparqlError\""));
        let back: ErrorResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.status, 400);
    }

    #[test]
    fn discovery_requests_round_trip() {
        let req = TableHitsRequest {
            dataset: "census".into(),
            table: "people".into(),
            k: Some(5),
            min_score: Some(0.25),
            mode: Some("content-only".into()),
            limits: Some(WireLimits { deadline_ms: Some(100), ..WireLimits::default() }),
        };
        let back: TableHitsRequest =
            serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back, req);

        let paths = PathsRequest {
            from_dataset: "a".into(),
            from_table: "t1".into(),
            to_dataset: "b".into(),
            to_table: "t2".into(),
            hops: Some(3),
            shortest: Some(true),
            limits: None,
        };
        let back: PathsRequest =
            serde_json::from_str(&serde_json::to_string(&paths).unwrap()).unwrap();
        assert_eq!(back, paths);

        let search = SearchRequest {
            conditions: vec![vec!["heart".into(), "failure".into()], vec!["patients".into()]],
            limits: None,
        };
        let back: SearchRequest =
            serde_json::from_str(&serde_json::to_string(&search).unwrap()).unwrap();
        assert_eq!(back, search);
    }
}
