//! The request deck: query classes, pre-rendered bodies, the seeded
//! shuffle, and the checks that decide whether a response counts.
//!
//! A response body is `{"api":…,"request_id":…,<payload>,"generation":N,
//! "elapsed_us":M}`. The request id, generation and elapsed time differ
//! between two correct answers; the payload between them may not. Timed
//! paths therefore compare the payload's hash (static store) or its item
//! count (store under churn) with what the in-process API answered, and
//! never decode the body.

use kglids::{DataFrame, KgLids, LidsReader, TableHit, SEARCH_TABLES_QUERY};
use lids_kg::ontology::{object_prop, res};
use lids_server::api::WireTableHit;
use lids_server::{
    Client, QueryRequest, QueryResponse, SearchRequest, TableHitsRequest, TableHitsResponse,
    API_VERSION,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::inputs::{Inputs, TableRef};

/// A homogeneous class of requests: one endpoint, one query shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// SPARQL: the columns of one table (sub-millisecond; never gated).
    Point,
    /// `POST /v1/discovery/unionable-tables`.
    Unionable,
    /// `POST /v1/discovery/joinable-tables`.
    Joinable,
    /// `POST /v1/discovery/search` with one keyword.
    Search,
    /// SPARQL: `SEARCH_TABLES_QUERY`, every table with its columns.
    Star,
    /// SPARQL: the text `unionable_tables` issues for content similarity.
    Union2hop,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Point,
        Class::Unionable,
        Class::Joinable,
        Class::Search,
        Class::Star,
        Class::Union2hop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Unionable => "unionable",
            Class::Joinable => "joinable",
            Class::Search => "search",
            Class::Star => "star",
            Class::Union2hop => "union2hop",
        }
    }

    pub fn path(self) -> &'static str {
        match self {
            Class::Point | Class::Star | Class::Union2hop => "/v1/query",
            Class::Unionable => "/v1/discovery/unionable-tables",
            Class::Joinable => "/v1/discovery/joinable-tables",
            Class::Search => "/v1/discovery/search",
        }
    }
}

/// What a request asks, in the form the in-process API takes it.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    Sparql(String),
    TableHits(TableRef),
    Search(String),
}

/// One distinct request: its class, its arguments and its wire body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub class: Class,
    pub call: Call,
    pub body: String,
}

impl Request {
    fn new(class: Class, call: Call) -> Request {
        let body = match &call {
            Call::Sparql(query) => to_json(&QueryRequest {
                query: query.clone(),
                limits: None,
            }),
            Call::TableHits(t) => to_json(&TableHitsRequest {
                dataset: t.dataset.clone(),
                table: t.table.clone(),
                ..TableHitsRequest::default()
            }),
            Call::Search(keyword) => to_json(&SearchRequest {
                conditions: vec![vec![keyword.clone()]],
                limits: None,
            }),
        };
        Request { class, call, body }
    }
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("wire structs serialize")
}

/// SPARQL: the columns of one table and their labels.
pub fn point_query(t: &TableRef) -> String {
    format!(
        "PREFIX k: <http://kglids.org/ontology/> \
         PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> \
         SELECT ?c ?l WHERE {{ <{}> k:hasColumn ?c . ?c rdfs:label ?l . }}",
        res::table(&t.dataset, &t.table)
    )
}

/// The text `KgLids::unionable_tables_impl` issues for content similarity,
/// character for character, so that it shares the discovery path's plan.
pub fn union2hop_query(t: &TableRef) -> String {
    let t_iri = res::table(&t.dataset, &t.table);
    let pred = object_prop::HAS_CONTENT_SIMILARITY;
    format!(
        "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT ?other ?s WHERE {{ \
                    <{t_iri}> k:hasColumn ?ca . \
                    ?ca k:{pred} ?cb . \
                    ?cb k:isPartOf ?other . \
                    << ?ca k:{pred} ?cb >> k:withCertainty ?s . \
                 }}"
    )
}

/// How many requests of each class one table contributes to a deck.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub point: usize,
    pub unionable: usize,
    pub joinable: usize,
    pub search: usize,
    pub star: usize,
    pub union2hop: usize,
}

/// `ingest_serve`: every endpoint; about 3 distinct SPARQL texts per table
/// (point, label and content similarity), which overflows the plan cache's
/// 512-text tier on the full lake.
pub const SERVE_MIX: Mix = Mix {
    point: 4,
    unionable: 2,
    joinable: 2,
    search: 2,
    star: 1,
    union2hop: 1,
};

/// `churn`: SPARQL only (a reader backend has no discovery endpoints).
pub const CHURN_MIX: Mix = Mix {
    point: 5,
    unionable: 0,
    joinable: 0,
    search: 0,
    star: 2,
    union2hop: 3,
};

/// The distinct requests of a workload and the order they are issued in.
#[derive(Debug, Clone, PartialEq)]
pub struct Deck {
    pub requests: Vec<Request>,
    /// Indices into `requests`, shuffled by the seed.
    pub order: Vec<usize>,
}

impl Deck {
    /// Build the deck over `tables`: per table, `mix` copies of each class;
    /// identical requests are stored once and referenced from `order`.
    pub fn build(inputs: &Inputs, tables: &[TableRef], mix: Mix, seed: u64) -> Deck {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xDEC4);
        let mut requests: Vec<Request> = Vec::new();
        let mut order: Vec<usize> = Vec::new();
        let mut push = |request: Request, copies: usize, order: &mut Vec<usize>| {
            if copies == 0 {
                return;
            }
            // unionable and joinable requests of one table share a body
            let same = |r: &Request| r.class == request.class && r.body == request.body;
            let at = requests.iter().position(same).unwrap_or_else(|| {
                requests.push(request);
                requests.len() - 1
            });
            order.extend(std::iter::repeat_n(at, copies));
        };
        for t in tables {
            push(
                Request::new(Class::Point, Call::Sparql(point_query(t))),
                mix.point,
                &mut order,
            );
            push(
                Request::new(Class::Unionable, Call::TableHits(t.clone())),
                mix.unionable,
                &mut order,
            );
            push(
                Request::new(Class::Joinable, Call::TableHits(t.clone())),
                mix.joinable,
                &mut order,
            );
            for _ in 0..mix.search {
                let keyword = &inputs.keywords[rng.gen_range(0..inputs.keywords.len())];
                push(
                    Request::new(Class::Search, Call::Search(keyword.clone())),
                    1,
                    &mut order,
                );
            }
            push(
                Request::new(Class::Star, Call::Sparql(SEARCH_TABLES_QUERY.to_string())),
                mix.star,
                &mut order,
            );
            push(
                Request::new(Class::Union2hop, Call::Sparql(union2hop_query(t))),
                mix.union2hop,
                &mut order,
            );
        }
        order.shuffle(&mut rng);
        Deck { requests, order }
    }
}

/// Where the in-process answers come from.
pub enum Source<'a> {
    Platform(&'a KgLids),
    Reader(&'a LidsReader),
}

/// What the in-process API answered for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Frame(DataFrame),
    Hits(Vec<TableHit>),
}

impl Source<'_> {
    pub fn answer(&self, request: &Request) -> Result<Answer, String> {
        let fail = |e: kglids::LidsError| format!("{} in process: {e}", request.class.name());
        match (self, &request.call) {
            (Source::Platform(p), Call::Sparql(q)) => p.query(q).map(Answer::Frame).map_err(fail),
            (Source::Reader(r), Call::Sparql(q)) => r.query(q).map(Answer::Frame).map_err(fail),
            (Source::Platform(p), Call::TableHits(t)) => {
                let d = p.discovery();
                let hits = if request.class == Class::Unionable {
                    d.unionable_tables(&t.dataset, &t.table)
                } else {
                    d.joinable_tables(&t.dataset, &t.table)
                };
                hits.map(Answer::Hits).map_err(fail)
            }
            (Source::Platform(p), Call::Search(keyword)) => p
                .discovery()
                .search(&[&[keyword.as_str()]])
                .map(Answer::Frame)
                .map_err(fail),
            (Source::Reader(_), _) => Err("a reader backend answers SPARQL only".to_string()),
        }
    }
}

impl Answer {
    /// Number of rows or hits.
    pub fn items(&self) -> usize {
        match self {
            Answer::Frame(df) => df.len(),
            Answer::Hits(hits) => hits.len(),
        }
    }

    /// The response the server builds for this answer (with a blank request
    /// id and zero generation and elapsed time).
    pub fn into_wire(self) -> WireResponse {
        match self {
            Answer::Frame(df) => WireResponse::Frame(QueryResponse {
                api: API_VERSION.to_string(),
                request_id: String::new(),
                columns: df.columns,
                rows: df.rows,
                truncated: df.truncated,
                generation: 0,
                elapsed_us: 0,
            }),
            Answer::Hits(hits) => WireResponse::Hits(TableHitsResponse {
                api: API_VERSION.to_string(),
                request_id: String::new(),
                hits: hits
                    .into_iter()
                    .map(|h| WireTableHit {
                        dataset: h.dataset,
                        table: h.table,
                        score: h.score,
                    })
                    .collect(),
                generation: 0,
                elapsed_us: 0,
            }),
        }
    }

    /// The body of that response.
    pub fn render(&self) -> String {
        self.clone().into_wire().to_json()
    }

    /// Issue `request` through the typed client and compare the decoded
    /// response with this answer, field for field.
    pub fn check_typed(&self, client: &mut Client, request: &Request) -> Result<(), String> {
        let name = request.class.name();
        let fail = |e: lids_server::ClientError| format!("{name} over the wire: {e}");
        let same = match (&request.call, self) {
            (Call::Sparql(q), Answer::Frame(df)) => {
                let wire = client.query(q, None).map_err(fail)?;
                wire.to_dataframe() == *df
            }
            (Call::Search(keyword), Answer::Frame(df)) => {
                let req = SearchRequest {
                    conditions: vec![vec![keyword.clone()]],
                    limits: None,
                };
                client.search(&req).map_err(fail)?.to_dataframe() == *df
            }
            (Call::TableHits(t), Answer::Hits(hits)) => {
                let req = TableHitsRequest {
                    dataset: t.dataset.clone(),
                    table: t.table.clone(),
                    ..TableHitsRequest::default()
                };
                let wire = if request.class == Class::Unionable {
                    client.unionable_tables(&req)
                } else {
                    client.joinable_tables(&req)
                }
                .map_err(fail)?;
                wire.hits.len() == hits.len()
                    && wire.hits.iter().zip(hits).all(|(w, h)| {
                        w.dataset == h.dataset
                            && w.table == h.table
                            && w.score.to_bits() == h.score.to_bits()
                    })
            }
            _ => false,
        };
        if same {
            Ok(())
        } else {
            Err(format!(
                "{name}: typed wire answer differs from the in-process answer"
            ))
        }
    }
}

/// A typed response, as the server serializes it.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    Frame(QueryResponse),
    Hits(TableHitsResponse),
}

impl WireResponse {
    pub fn to_json(&self) -> String {
        match self {
            WireResponse::Frame(r) => to_json(r),
            WireResponse::Hits(r) => to_json(r),
        }
    }

    /// Decode `body` the way the typed client decodes this kind of
    /// response.
    pub fn decode_like(&self, body: &str) -> Result<WireResponse, serde_json::Error> {
        match self {
            WireResponse::Frame(_) => serde_json::from_str(body).map(WireResponse::Frame),
            WireResponse::Hits(_) => serde_json::from_str(body).map(WireResponse::Hits),
        }
    }
}

/// The parts of a response body that the checks read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyParts<'a> {
    pub payload: &'a str,
    pub generation: u64,
    pub elapsed_us: u64,
}

/// Split a 200 response body into payload, generation and elapsed time
/// without decoding it. `None` if the body is not in the wire shape.
pub fn split_body(body: &str) -> Option<BodyParts<'_>> {
    const ID: &str = "\"request_id\":\"";
    const GENERATION: &str = ",\"generation\":";
    const ELAPSED: &str = ",\"elapsed_us\":";
    let id_at = body.find(ID)? + ID.len();
    let payload_at = id_at + body[id_at..].find("\",")? + 2;
    let generation_at = body.rfind(GENERATION)?;
    let elapsed_at = body.rfind(ELAPSED)?;
    if generation_at < payload_at || elapsed_at < generation_at {
        return None;
    }
    Some(BodyParts {
        payload: &body[payload_at..generation_at],
        generation: body[generation_at + GENERATION.len()..elapsed_at]
            .parse()
            .ok()?,
        elapsed_us: body[elapsed_at + ELAPSED.len()..]
            .strip_suffix('}')?
            .parse()
            .ok()?,
    })
}

/// Rows or hits in a payload, counted from its separators: the outer array
/// of a frame's `rows` or a hit list's `hits` has one `],[` or `},{` less
/// than it has items. Lake labels and IRIs contain neither.
pub fn count_items(payload: &str) -> usize {
    let (list, separator) = match payload.find("\"rows\":[") {
        Some(at) => (&payload[at + 8..], "],["),
        None => match payload.find("\"hits\":[") {
            Some(at) => (&payload[at + 8..], "},{"),
            None => return 0,
        },
    };
    if list.starts_with(']') {
        0
    } else {
        list.matches(separator).count() + 1
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a correct response to one request looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub payload_hash: u64,
    pub items: usize,
}

impl Expected {
    pub fn of(answer: &Answer) -> Expected {
        let body = answer.render();
        let parts = split_body(&body).expect("rendered body is in the wire shape");
        Expected {
            payload_hash: fnv1a(parts.payload.as_bytes()),
            items: answer.items(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate, LakeSize};

    #[test]
    fn deck_is_determined_by_the_seed() {
        let inputs = generate(3, LakeSize::Smoke);
        let a = Deck::build(&inputs, &inputs.tables, SERVE_MIX, 3);
        let b = Deck::build(&inputs, &inputs.tables, SERVE_MIX, 3);
        let c = Deck::build(&inputs, &inputs.tables, SERVE_MIX, 4);
        assert_eq!(a, b);
        assert_ne!(a.order, c.order);
        assert_eq!(a.order.len(), inputs.tables.len() * 12);
        // one star text, one point and one union2hop text per table
        let count = |class| a.requests.iter().filter(|r| r.class == class).count();
        assert_eq!(count(Class::Star), 1);
        assert_eq!(count(Class::Point), inputs.tables.len());
        assert_eq!(count(Class::Unionable), inputs.tables.len());
        assert_eq!(count(Class::Joinable), inputs.tables.len());
        assert_eq!(count(Class::Union2hop), inputs.tables.len());
        let churn = Deck::build(&inputs, &inputs.tables[..5], CHURN_MIX, 3);
        assert_eq!(churn.requests.len(), 11);
        assert!(churn
            .requests
            .iter()
            .all(|r| matches!(r.call, Call::Sparql(_))));
    }

    #[test]
    fn body_splits_into_payload_generation_and_elapsed() {
        let frame = Answer::Frame(DataFrame {
            columns: vec!["a".into(), "b".into()],
            rows: vec![
                vec!["1".into(), "x".into()],
                vec!["2".into(), String::new()],
            ],
            truncated: false,
        });
        let rendered = frame.render();
        let parts = split_body(&rendered).expect("wire shape");
        assert_eq!(parts.generation, 0);
        assert_eq!(parts.elapsed_us, 0);
        assert_eq!(
            parts.payload,
            "\"columns\":[\"a\",\"b\"],\"rows\":[[\"1\",\"x\"],[\"2\",\"\"]],\"truncated\":false"
        );
        assert_eq!(count_items(parts.payload), 2);

        // the same payload under another request id, generation and time
        let served = rendered
            .replace("\"request_id\":\"\"", "\"request_id\":\"req-4711\"")
            .replace(
                "\"generation\":0,\"elapsed_us\":0",
                "\"generation\":17,\"elapsed_us\":4211",
            );
        let parts2 = split_body(&served).expect("wire shape");
        assert_eq!(parts2.payload, parts.payload);
        assert_eq!(parts2.generation, 17);
        assert_eq!(parts2.elapsed_us, 4211);
        assert_eq!(
            Expected::of(&frame).payload_hash,
            fnv1a(parts2.payload.as_bytes())
        );

        assert_eq!(split_body("{\"error\":\"Overloaded\"}"), None);
        assert_eq!(split_body(""), None);
    }

    #[test]
    fn items_are_counted_without_decoding() {
        let empty = Answer::Frame(DataFrame::new(vec!["a".into()]));
        assert_eq!(count_items(split_body(&empty.render()).unwrap().payload), 0);
        let hits = Answer::Hits(vec![
            TableHit {
                dataset: "d".into(),
                table: "t1".into(),
                score: 1.5,
            },
            TableHit {
                dataset: "d".into(),
                table: "t2".into(),
                score: 0.25,
            },
            TableHit {
                dataset: "e".into(),
                table: "t3".into(),
                score: 0.125,
            },
        ]);
        let rendered = hits.render();
        assert_eq!(count_items(split_body(&rendered).unwrap().payload), 3);
        assert_eq!(
            count_items(split_body(&Answer::Hits(vec![]).render()).unwrap().payload),
            0
        );
        assert_eq!(count_items("\"paths\":[]"), 0);
    }
}
