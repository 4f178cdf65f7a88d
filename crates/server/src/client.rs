//! A small blocking client over one keep-alive connection.
//!
//! Speaks exactly the [`crate::api`] wire types, so anything the server
//! can answer the client can decode — the e2e parity tests and the
//! network serving bench both drive the server through this.
//!
//! One [`Client`] owns at most one TCP connection. It connects lazily,
//! reuses the connection across requests (keep-alive), drops it when
//! the server answers `Connection: close`, and retries a failed *write*
//! once on a fresh connection (the server may have closed an idle
//! keep-alive socket between requests).

use crate::api::{
    ErrorResponse, ExplainResponse, HealthResponse, PathsRequest, PathsResponse, QueryRequest,
    QueryResponse, SearchRequest, TableHitsRequest, TableHitsResponse, WireLimits,
};
use crate::http;
use serde::{Deserialize, Serialize};
use std::io::{BufReader, Write};
use std::net::TcpStream;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, or write).
    Io(std::io::Error),
    /// The peer answered bytes that are not the protocol.
    Protocol(String),
    /// The server answered a well-formed API error (4xx/5xx).
    Api(ErrorResponse),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Api(e) => {
                write!(f, "api error {} ({}): {}", e.status, e.error, e.message)
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Blocking keep-alive client for one `lids-server`.
pub struct Client {
    addr: String,
    conn: Option<TcpStream>,
}

impl Client {
    /// A client for `addr` (e.g. `"127.0.0.1:8080"` or the string form
    /// of [`crate::LidsServer::addr`]). Does not connect yet.
    pub fn connect(addr: impl Into<String>) -> Client {
        Client { addr: addr.into(), conn: None }
    }

    fn stream(&mut self) -> Result<&mut TcpStream, ClientError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            // small request/response exchanges; don't batch under Nagle
            let _ = stream.set_nodelay(true);
            self.conn = Some(stream);
        }
        match self.conn.as_mut() {
            Some(stream) => Ok(stream),
            None => Err(ClientError::Protocol("connection vanished".to_string())),
        }
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(), ClientError> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            self.addr,
            body.len(),
        );
        self.stream()?.write_all(request.as_bytes()).map_err(ClientError::Io)
    }

    /// One request/response exchange: `(status, body)`.
    pub fn request_raw(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), ClientError> {
        if self.send(method, path, body).is_err() {
            // the server may have dropped an idle keep-alive connection;
            // retry once on a fresh one
            self.conn = None;
            self.send(method, path, body)?;
        }
        let stream = match self.conn.take() {
            Some(stream) => stream,
            None => return Err(ClientError::Protocol("no connection after send".to_string())),
        };
        let mut reader = BufReader::new(stream);
        let (status, body, keep_alive) = http::read_response(&mut reader).map_err(|e| match e {
            http::HttpReadError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other.to_string()),
        })?;
        if keep_alive {
            self.conn = Some(reader.into_inner());
        }
        Ok((status, body))
    }

    fn call<Req: Serialize, Resp: for<'de> Deserialize<'de>>(
        &mut self,
        path: &str,
        req: &Req,
    ) -> Result<Resp, ClientError> {
        let body = serde_json::to_string(req)
            .map_err(|e| ClientError::Protocol(format!("request serialization: {e}")))?;
        let (status, body) = self.request_raw("POST", path, &body)?;
        decode(status, &body)
    }

    /// `POST /v1/query`.
    pub fn query(
        &mut self,
        query: &str,
        limits: Option<WireLimits>,
    ) -> Result<QueryResponse, ClientError> {
        self.call("/v1/query", &QueryRequest { query: query.to_string(), limits })
    }

    /// `POST /v1/explain`: the run `POST /v1/query` makes with the same
    /// arguments, its executed plan answered instead of its rows.
    pub fn explain(
        &mut self,
        query: &str,
        limits: Option<WireLimits>,
    ) -> Result<ExplainResponse, ClientError> {
        self.call("/v1/explain", &QueryRequest { query: query.to_string(), limits })
    }

    /// `POST /v1/discovery/unionable-tables`.
    pub fn unionable_tables(
        &mut self,
        req: &TableHitsRequest,
    ) -> Result<TableHitsResponse, ClientError> {
        self.call("/v1/discovery/unionable-tables", req)
    }

    /// `POST /v1/discovery/joinable-tables`.
    pub fn joinable_tables(
        &mut self,
        req: &TableHitsRequest,
    ) -> Result<TableHitsResponse, ClientError> {
        self.call("/v1/discovery/joinable-tables", req)
    }

    /// `POST /v1/discovery/paths`.
    pub fn paths(&mut self, req: &PathsRequest) -> Result<PathsResponse, ClientError> {
        self.call("/v1/discovery/paths", req)
    }

    /// `POST /v1/discovery/search`.
    pub fn search(&mut self, req: &SearchRequest) -> Result<QueryResponse, ClientError> {
        self.call("/v1/discovery/search", req)
    }

    /// `GET /healthz`.
    pub fn healthz(&mut self) -> Result<HealthResponse, ClientError> {
        let (status, body) = self.request_raw("GET", "/healthz", "")?;
        decode(status, &body)
    }

    /// `GET /metrics` — the raw `lids-obs/v1` JSON snapshot.
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        let (status, body) = self.request_raw("GET", "/metrics", "")?;
        if status == 200 {
            Ok(body)
        } else {
            Err(api_error(status, &body))
        }
    }
}

fn api_error(status: u16, body: &str) -> ClientError {
    match serde_json::from_str::<ErrorResponse>(body) {
        Ok(err) => ClientError::Api(err),
        Err(_) => ClientError::Protocol(format!("status {status} with undecodable body: {body}")),
    }
}

fn decode<Resp: for<'de> Deserialize<'de>>(
    status: u16,
    body: &str,
) -> Result<Resp, ClientError> {
    if status == 200 {
        serde_json::from_str(body)
            .map_err(|e| ClientError::Protocol(format!("response decode: {e}")))
    } else {
        Err(api_error(status, body))
    }
}
