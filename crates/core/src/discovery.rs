//! Data-discovery interfaces (§5): keyword search, unionable/joinable
//! discovery, and join-path discovery. The discovery queries run as SPARQL
//! against the LiDS graph, leveraging the store's indexes (§6.1.2).
//!
//! The [`Discovery`] builder is the one entry point: shared options (`k`,
//! `min_score`, similarity `mode`, path `hops`) plus per-call resource
//! governance ([`Discovery::limits`]) set once and applied to every
//! search, with every result surfaced as a typed [`LidsResult`]. A search
//! is SPARQL over one pinned [`StoreSnapshot`] plus the two thresholds the
//! lake is linked under, so [`KgLids::discovery`] and
//! [`LidsReader::discovery`] build the same thing — the platform over its
//! own store, a reader over the latest published generation.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use lids_exec::{ErrorKind, LidsError, LidsResult, QueryLimits};
use lids_kg::ontology::{decode_segment, object_prop, res};
use lids_profiler::Table;
use lids_rdf::{StoreSnapshot, Term, TermId};
use lids_sparql::results::UNBOUND;
use lids_sparql::{EvalOptions, Solutions};
use lids_vector::cosine_similarity;

use crate::dataframe::DataFrame;
use crate::platform::KgLids;
#[cfg(doc)]
use crate::query::QueryGuardrails;
use crate::query::{LidsReader, QueryEnv};

/// Which similarity edges drive union search — the configurations of the
/// Figure 6 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnionMode {
    /// CoLR content + label similarity (the full system, best accuracy).
    #[default]
    ContentAndLabel,
    /// CoLR content similarity only ("Fine-Grained" in Figure 6 — for
    /// anonymised lakes without column names).
    ContentOnly,
    /// Label similarity only.
    LabelOnly,
}

impl UnionMode {
    /// Stable lower-case label (the `lids-api/v1` wire encoding).
    pub fn label(&self) -> &'static str {
        match self {
            UnionMode::ContentAndLabel => "content-and-label",
            UnionMode::ContentOnly => "content-only",
            UnionMode::LabelOnly => "label-only",
        }
    }

    /// Parse a wire label back into a mode.
    pub fn parse(label: &str) -> Option<UnionMode> {
        match label {
            "content-and-label" => Some(UnionMode::ContentAndLabel),
            "content-only" => Some(UnionMode::ContentOnly),
            "label-only" => Some(UnionMode::LabelOnly),
            _ => None,
        }
    }
}

/// The star query behind table search: every table with its
/// label, dataset, and (through OPTIONAL) column labels. Public so tests
/// and benchmarks can run/explain the exact discovery workload.
pub const SEARCH_TABLES_QUERY: &str =
    "PREFIX k: <http://kglids.org/ontology/> \
     PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> \
     SELECT ?table ?name ?dataset ?col WHERE { \
        ?table a k:Table ; rdfs:label ?name ; k:isPartOf ?d . \
        ?d rdfs:label ?dataset . \
        OPTIONAL { ?table k:hasColumn ?c . ?c rdfs:label ?col . } \
     } ORDER BY ?table";

/// One table returned by a discovery search, with its ranking score.
#[derive(Debug, Clone, PartialEq)]
pub struct TableHit {
    pub dataset: String,
    pub table: String,
    pub score: f64,
}

/// One matched (unionable) column pair between two tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnHit {
    pub column_a: String,
    pub column_b: String,
    /// Which similarity produced the match: `"label"` or `"content"`.
    pub kind: &'static str,
    pub score: f64,
}

/// A join path: a chain of tables where consecutive tables share a
/// content-similar (joinable) column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPath {
    /// Table names along the path, endpoints included.
    pub tables: Vec<String>,
}

impl JoinPath {
    /// Number of joins along the path (tables minus one).
    pub fn hops(&self) -> usize {
        self.tables.len().saturating_sub(1)
    }
}

impl std::fmt::Display for JoinPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.tables.join(" -> "))
    }
}

/// Parse a `res/<dataset>/<table>` IRI into a scored [`TableHit`], its
/// names decoded as the caller gave them.
fn table_hit(iri: &str, score: f64) -> TableHit {
    let mut parts = iri.rsplit('/');
    let table = decode_segment(parts.next().unwrap_or(iri));
    let dataset = decode_segment(parts.next().unwrap_or(""));
    TableHit { dataset, table, score }
}

/// Fluent entry point for the §5 discovery operations
/// ([`KgLids::discovery`], [`LidsReader::discovery`]): shared options
/// (`k`, `min_score`, similarity `mode`, path `hops`) set once, then
/// applied to every search. Resource governance rides along the same way —
/// [`Self::limits`] threads a [`QueryLimits`] (deadline, memory budget,
/// cancellation) through every SPARQL query a search runs, exactly like
/// `query_with` takes [`EvalOptions`] on the ad-hoc path.
///
/// A `Discovery` is a view of one store generation, pinned when it is
/// obtained: a union search is two SPARQL queries, and under a live
/// writer both must see the same lake. [`Self::generation`] names it;
/// obtain a fresh `Discovery` to see newer writes.
#[derive(Clone)]
pub struct Discovery<'a> {
    snapshot: Arc<StoreSnapshot>,
    env: &'a QueryEnv,
    /// Where table embeddings live — the two embedding-backed searches
    /// ([`Self::paths_for`], [`Self::most_similar_table`]) need it.
    platform: Option<&'a KgLids>,
    k: usize,
    min_score: f64,
    mode: UnionMode,
    hops: usize,
    limits: QueryLimits,
}

impl<'a> Discovery<'a> {
    fn new(snapshot: Arc<StoreSnapshot>, env: &'a QueryEnv, platform: Option<&'a KgLids>) -> Self {
        Discovery {
            snapshot,
            env,
            platform,
            k: 10,
            min_score: 0.0,
            mode: UnionMode::default(),
            hops: 2,
            limits: QueryLimits::default(),
        }
    }

    /// The store generation every search of this `Discovery` answers from.
    pub fn generation(&self) -> u64 {
        self.snapshot.generation()
    }

    /// Keep at most `k` results per search (default 10).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Drop results scoring below `min_score` (default 0.0 — keep all).
    pub fn min_score(mut self, min_score: f64) -> Self {
        self.min_score = min_score;
        self
    }

    /// Which similarity edges drive union search (default
    /// [`UnionMode::ContentAndLabel`]).
    pub fn mode(mut self, mode: UnionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Maximum intermediate joins for path discovery (default 2).
    pub fn hops(mut self, hops: usize) -> Self {
        self.hops = hops;
        self
    }

    /// Resource-governance limits (deadline, memory budget, cancellation)
    /// applied to every SPARQL query this discovery runs. Defaults to
    /// unlimited; the platform's [`QueryGuardrails`] still fill unset
    /// limits.
    pub fn limits(mut self, limits: QueryLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Reject out-of-domain options with a typed
    /// [`ErrorKind::InvalidArgument`] instead of silently returning
    /// nothing: `k == 0` can never return a result, and a NaN `min_score`
    /// makes every comparison false. `min_score = ∞` stays valid (an
    /// intentionally impossible floor).
    fn validate(&self) -> LidsResult<()> {
        if self.k == 0 {
            return Err(LidsError::new(
                ErrorKind::InvalidArgument,
                "discovery k must be at least 1 (k = 0 can never match)",
            ));
        }
        if self.min_score.is_nan() {
            return Err(LidsError::new(
                ErrorKind::InvalidArgument,
                "discovery min_score must not be NaN",
            ));
        }
        Ok(())
    }

    /// One platform-authored SPARQL query on the pinned snapshot, under
    /// this discovery's limits, with every failure — parse, evaluation,
    /// or governed stop — surfaced as a typed [`LidsError`] rather than a
    /// panic. This is what lets a network front end map a discovery
    /// failure to the right HTTP status. The answer stays ids over the
    /// snapshot's dictionary: a search groups and compares cells and
    /// decodes only what it returns. No row cap is set, so an answer is
    /// whole or an error.
    fn solutions(&self, sparql: &str) -> LidsResult<Solutions<'_>> {
        self.env.query(&self.snapshot, sparql, EvalOptions::default(), Some(&self.limits), None)
    }

    /// The dictionary id of a table's IRI, if the lake has ever named it.
    fn table_id(&self, dataset: &str, table: &str) -> Option<u32> {
        self.snapshot.dictionary().id_of_iri(&res::table(dataset, table)).map(|id| id.0)
    }

    /// The IRI behind a cell the joins bound to a node.
    fn iri(&self, cell: u32) -> &str {
        match self.snapshot.term(TermId(cell)) {
            Cow::Borrowed(Term::Iri(iri)) => iri,
            _ => "",
        }
    }

    /// Tables unionable with `(dataset, table)`, best first: "the
    /// similarity score between two tables is based on both the number of
    /// similar columns and the similarity scores between them."
    pub fn unionable_tables(&self, dataset: &str, table: &str) -> LidsResult<Vec<TableHit>> {
        self.validate()?;
        self.ranked_tables(dataset, table, self.mode)
    }

    /// Tables joinable with `(dataset, table)` (content similarity only).
    pub fn joinable_tables(&self, dataset: &str, table: &str) -> LidsResult<Vec<TableHit>> {
        self.validate()?;
        self.ranked_tables(dataset, table, UnionMode::ContentOnly)
    }

    fn ranked_tables(&self, dataset: &str, table: &str, mode: UnionMode) -> LidsResult<Vec<TableHit>> {
        let t_iri = res::table(dataset, table);
        let probe = self.table_id(dataset, table);
        let preds: &[&str] = match mode {
            UnionMode::ContentAndLabel => {
                &[object_prop::HAS_LABEL_SIMILARITY, object_prop::HAS_CONTENT_SIMILARITY]
            }
            UnionMode::ContentOnly => &[object_prop::HAS_CONTENT_SIMILARITY],
            UnionMode::LabelOnly => &[object_prop::HAS_LABEL_SIMILARITY],
        };
        // per `?other` cell: matched columns and their summed sharpness
        let mut scores: HashMap<u32, (usize, f64)> = HashMap::new();
        for pred in preds {
            // Edge scores are rescaled by *sharpness above the
            // materialisation threshold*: an edge at exactly α/θ carries no
            // evidence (it barely cleared the bar), a perfect match carries
            // full weight. This keeps borderline content edges from
            // drowning out exact label matches when combining both kinds.
            let threshold = if *pred == object_prop::HAS_LABEL_SIMILARITY {
                self.env.alpha
            } else {
                self.env.theta
            };
            let q = format!(
                "PREFIX k: <http://kglids.org/ontology/> \
                 SELECT ?other ?s WHERE {{ \
                    <{t_iri}> k:hasColumn ?ca . \
                    ?ca k:{pred} ?cb . \
                    ?cb k:isPartOf ?other . \
                    << ?ca k:{pred} ?cb >> k:withCertainty ?s . \
                 }}"
            );
            let rows = self.solutions(&q)?;
            for row in rows.rows.iter() {
                let &[other, s] = row else { continue };
                if Some(other) == probe || other == UNBOUND {
                    continue;
                }
                let s: f64 = rows.text(s).parse().unwrap_or(0.0);
                let sharpness = ((s - threshold) / (1.0 - threshold).max(1e-9)).clamp(0.0, 1.0);
                let entry = scores.entry(other).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += sharpness;
            }
        }
        let mut ranked: Vec<TableHit> = scores
            .into_iter()
            // "based on both the number of similar columns and the
            // similarity scores between them"
            .map(|(other, (n, total))| table_hit(self.iri(other), 0.25 * n as f64 + total))
            .collect();
        // ties broken by name, so the answer is a function of the snapshot
        // (equal twins are common: a re-uploaded table scores the same)
        ranked.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (&a.dataset, &a.table).cmp(&(&b.dataset, &b.table)))
        });
        ranked.truncate(self.k);
        ranked.retain(|h| h.score >= self.min_score);
        Ok(ranked)
    }

    /// §5 "Discover Unionable Columns": matched (unionable) column pairs
    /// between two tables, with similarity kind and score.
    pub fn unionable_columns(
        &self,
        a: (&str, &str),
        b: (&str, &str),
    ) -> LidsResult<Vec<ColumnHit>> {
        self.validate()?;
        let a_iri = res::table(a.0, a.1);
        let b_iri = res::table(b.0, b.1);
        let mut out = Vec::new();
        for (pred, kind) in [
            (object_prop::HAS_LABEL_SIMILARITY, "label"),
            (object_prop::HAS_CONTENT_SIMILARITY, "content"),
        ] {
            let q = format!(
                "PREFIX k: <http://kglids.org/ontology/> \
                 PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> \
                 SELECT ?la ?lb ?s WHERE {{ \
                    <{a_iri}> k:hasColumn ?ca . \
                    ?ca k:{pred} ?cb . \
                    ?cb k:isPartOf <{b_iri}> . \
                    << ?ca k:{pred} ?cb >> k:withCertainty ?s . \
                    ?ca rdfs:label ?la . ?cb rdfs:label ?lb . \
                 }} ORDER BY DESC(?s)"
            );
            let rows = self.solutions(&q)?;
            for row in rows.rows.iter() {
                let &[la, lb, s] = row else { continue };
                let score: f64 = rows.text(s).parse().unwrap_or(0.0);
                if score >= self.min_score {
                    out.push(ColumnHit {
                        column_a: rows.text(la).into_owned(),
                        column_b: rows.text(lb).into_owned(),
                        kind,
                        score,
                    });
                }
            }
        }
        Ok(out)
    }

    /// §5 "Join Path Discovery": paths of content-similar (joinable)
    /// tables from `from` to `to`, up to the configured number of
    /// intermediate joins, shortest first. Each path is a list of table
    /// names.
    pub fn paths(&self, from: (&str, &str), to: (&str, &str)) -> LidsResult<Vec<JoinPath>> {
        self.validate()?;
        let adjacency = self.join_graph()?;
        // a table the lake has never named joins nothing
        let (Some(start), Some(goal)) = (self.table_id(from.0, from.1), self.table_id(to.0, to.1))
        else {
            return Ok(Vec::new());
        };
        let mut paths: Vec<JoinPath> = Vec::new();
        let mut stack: Vec<(u32, Vec<u32>)> = vec![(start, vec![start])];
        while let Some((node, path)) = stack.pop() {
            if node == goal && path.len() > 1 {
                paths.push(self.join_path(&path));
                continue;
            }
            if path.len() > self.hops + 1 {
                continue;
            }
            if let Some(next) = adjacency.get(&node) {
                for n in next {
                    if !path.contains(n) {
                        let mut p = path.clone();
                        p.push(*n);
                        stack.push((*n, p));
                    }
                }
            }
        }
        paths.sort_by_key(|p| p.tables.len());
        Ok(paths)
    }

    /// The table names along a path of table cells.
    fn join_path(&self, path: &[u32]) -> JoinPath {
        JoinPath { tables: path.iter().map(|&t| short_name(self.iri(t))).collect() }
    }

    /// Join paths from an *unseen* DataFrame to `to`: embed the frame,
    /// find its most similar profiled table, and search paths from there
    /// (§5 `get_path_to_table(df, hops)`). Platform-only, like
    /// [`Self::most_similar_table`].
    pub fn paths_for(&self, df: &Table, to: (&str, &str)) -> LidsResult<Vec<JoinPath>> {
        match self.most_similar_table(df)? {
            Some(hit) => self.paths((&hit.dataset, &hit.table), to),
            None => Ok(Vec::new()),
        }
    }

    /// §5 "shortest path between two given tables": BFS over the join
    /// graph.
    pub fn shortest_path(
        &self,
        from: (&str, &str),
        to: (&str, &str),
    ) -> LidsResult<Option<JoinPath>> {
        self.validate()?;
        let adjacency = self.join_graph()?;
        // a table is at distance zero from itself, in the lake or not
        if from == to {
            return Ok(Some(JoinPath { tables: vec![to.1.to_string()] }));
        }
        let (Some(start), Some(goal)) = (self.table_id(from.0, from.1), self.table_id(to.0, to.1))
        else {
            return Ok(None);
        };
        let mut queue = VecDeque::from([vec![start]]);
        let mut visited: HashSet<u32> = HashSet::from([start]);
        while let Some(path) = queue.pop_front() {
            // paths are seeded non-empty and only ever grow
            let Some(node) = path.last() else { continue };
            if *node == goal {
                return Ok(Some(self.join_path(&path)));
            }
            if let Some(next) = adjacency.get(node) {
                for n in next {
                    if visited.insert(*n) {
                        let mut p = path.clone();
                        p.push(*n);
                        queue.push_back(p);
                    }
                }
            }
        }
        Ok(None)
    }

    /// The most similar profiled table to an unseen one (by
    /// table-embedding cosine) — the first step of path discovery for
    /// unseen DataFrames; equal scores (a table uploaded twice) go to the
    /// first by `(dataset, table)`. Table embeddings live on the platform,
    /// not in the snapshot: on a `Discovery` obtained from a [`LidsReader`]
    /// this is a typed [`ErrorKind::InvalidArgument`].
    pub fn most_similar_table(&self, table: &Table) -> LidsResult<Option<TableHit>> {
        self.validate()?;
        let Some(platform) = self.platform else {
            return Err(LidsError::new(
                ErrorKind::InvalidArgument,
                "table embeddings live on the platform: use KgLids::discovery for this search",
            ));
        };
        let probe = platform.embed_table(table);
        Ok(platform
            .embeddings
            .table_embeddings
            .iter()
            .map(|((d, t), e)| TableHit {
                dataset: d.clone(),
                table: t.clone(),
                score: cosine_similarity(&probe, e) as f64,
            })
            .max_by(|a, b| {
                a.score
                    .partial_cmp(&b.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| (&b.dataset, &b.table).cmp(&(&a.dataset, &a.table)))
            }))
    }

    /// §5 "Search Tables Based on Specific Columns": keyword search with
    /// conjunctive/disjunctive conditions expressed as nested lists — the
    /// outer list is a disjunction of conjunctive groups, e.g.
    /// `[["heart", "disease"], ["patients"]]` = (heart AND disease) OR
    /// patients. Conditions match table, dataset, and column labels.
    pub fn search(&self, conditions: &[&[&str]]) -> LidsResult<DataFrame> {
        self.validate()?;
        // One star join per table with the column labels pulled in through
        // OPTIONAL; ORDER BY keeps each table's rows contiguous so they can
        // be folded in a single pass.
        let rows = self.solutions(SEARCH_TABLES_QUERY)?;

        let mut out = DataFrame::new(vec![
            "dataset".into(),
            "table".into(),
            "table_iri".into(),
        ]);
        let mut i = 0;
        while i < rows.len() {
            let &[table, name, dataset, _] = rows.rows.row(i) else { break };
            let mut cols: Vec<String> = Vec::new();
            let mut j = i;
            // a table's rows are one run of its cell
            while j < rows.len() && rows.rows.row(j)[0] == table {
                // a table without columns leaves the OPTIONAL unbound
                let col = rows.text(rows.rows.row(j)[3]);
                if !col.is_empty() {
                    cols.push(col.to_lowercase());
                }
                j += 1;
            }
            let (name, dataset) = (rows.text(name), rows.text(dataset));
            let lower_name = name.to_lowercase();
            let lower_dataset = dataset.to_lowercase();
            let matches = conditions.is_empty()
                || conditions.iter().any(|group| {
                    group.iter().all(|kw| {
                        let kw = kw.to_lowercase();
                        lower_name.contains(&kw)
                            || lower_dataset.contains(&kw)
                            || cols.iter().any(|c| c.contains(&kw))
                    })
                });
            if matches {
                out.push(vec![
                    dataset.into_owned(),
                    name.into_owned(),
                    rows.text(table).into_owned(),
                ]);
            }
            i = j;
        }
        Ok(out)
    }

    /// Adjacency over tables connected by content-similar columns, by the
    /// tables' dictionary ids.
    fn join_graph(&self) -> LidsResult<HashMap<u32, Vec<u32>>> {
        let rows = self.solutions(
            "PREFIX k: <http://kglids.org/ontology/> \
             SELECT DISTINCT ?ta ?tb WHERE { \
                ?ca k:hasContentSimilarity ?cb . \
                ?ca k:isPartOf ?ta . ?cb k:isPartOf ?tb . \
             }",
        )?;
        let mut adjacency: HashMap<u32, Vec<u32>> = HashMap::new();
        for row in rows.rows.iter() {
            let &[a, b] = row else { continue };
            if a != b {
                adjacency.entry(a).or_default().push(b);
            }
        }
        Ok(adjacency)
    }
}

impl KgLids {
    /// Fluent discovery with shared options — `platform.discovery().k(5)
    /// .min_score(0.5).unionable_tables("lake", "people")` — over the
    /// platform's current state.
    pub fn discovery(&self) -> Discovery<'_> {
        Discovery::new(self.store.snapshot(), &self.env, Some(self))
    }

    /// §5 keyword table search (see [`Discovery::search`] for the
    /// condition semantics). Returns a typed [`LidsResult`] like every
    /// other query path; a governed stop (deadline, budget) surfaces as
    /// its `ErrorKind`, never a panic.
    pub fn search_tables(&self, conditions: &[&[&str]]) -> LidsResult<DataFrame> {
        self.discovery().search(conditions)
    }

    /// §5 "Discover Unionable Columns" (see
    /// [`Discovery::unionable_columns`]).
    pub fn find_unionable_columns(
        &self,
        a: (&str, &str),
        b: (&str, &str),
    ) -> LidsResult<Vec<ColumnHit>> {
        self.discovery().unionable_columns(a, b)
    }
}

impl LidsReader {
    /// Fluent discovery over the latest published snapshot — every search
    /// but the two embedding-backed ones ([`Discovery::paths_for`],
    /// [`Discovery::most_similar_table`]), under a live writer too.
    pub fn discovery(&self) -> Discovery<'_> {
        Discovery::new(self.store.snapshot(), &self.env, None)
    }
}

/// The name a resource IRI ends in (a table's, a dataset's), decoded as
/// the caller gave it.
pub(crate) fn short_name(iri: &str) -> String {
    decode_segment(iri.rsplit('/').next().unwrap_or(iri))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::KgLidsBuilder;
    use lids_profiler::table::{Column, Dataset};
    use std::time::Duration;

    fn platform() -> KgLids {
        lake().bootstrap().0
    }

    /// Three tables: A and B share an `age` column (same values → content
    /// + label similar); B and C share a `city` column.
    fn lake() -> KgLidsBuilder {
        let ages: Vec<String> = (20..60).map(|i| i.to_string()).collect();
        let cities: Vec<String> = (0..40)
            .map(|i| ["London", "Paris", "Tokyo", "Cairo"][i % 4].to_string())
            .collect();
        let salaries: Vec<String> = (0..40).map(|i| (30_000 + i * 500).to_string()).collect();
        let ds = |name: &str, table: &str, cols: Vec<Column>| {
            Dataset::new(name, vec![lids_profiler::Table::new(table, cols)])
        };
        KgLidsBuilder::new()
            .with_datasets([
                ds(
                    "health",
                    "patients",
                    vec![
                        Column::new("age", ages.clone()),
                        Column::new("salary", salaries.clone()),
                    ],
                ),
                ds(
                    "census",
                    "people",
                    vec![
                        Column::new("age", ages.clone()),
                        Column::new("city", cities.clone()),
                    ],
                ),
                ds("travel", "trips", vec![Column::new("city", cities)]),
            ])
    }

    #[test]
    fn keyword_search_with_and_or() {
        let p = platform();
        // (age AND city) OR travel — through the fluent entry point
        let hits = p.discovery().search(&[&["age", "city"], &["travel"]]).unwrap();
        let tables: Vec<&str> = hits.column("table");
        assert!(tables.contains(&"people"));
        assert!(tables.contains(&"trips"));
        assert!(!tables.contains(&"patients"));
        // empty conditions return everything; the non-fluent form is the
        // same code path and now speaks LidsResult too
        assert_eq!(p.search_tables(&[]).unwrap().len(), 3);
    }

    #[test]
    fn discovery_queries_parse_once_per_shape() {
        let p = platform();
        p.search_tables(&[&["age"]]).unwrap();
        let first = p.plan_cache_stats();
        assert!(first.parses >= 1, "first call must parse the discovery query");
        p.search_tables(&[&["city"]]).unwrap();
        p.discovery().search(&[&["age", "city"], &["travel"]]).unwrap();
        let after = p.plan_cache_stats();
        assert_eq!(after.parses, first.parses, "repeat discovery calls must not re-parse");
        assert_eq!(after.hits(), first.hits() + 2);
    }

    #[test]
    fn unionable_columns_between_tables() {
        let p = platform();
        let hits = p.find_unionable_columns(("health", "patients"), ("census", "people")).unwrap();
        assert!(!hits.is_empty());
        assert!(hits
            .iter()
            .any(|h| h.column_a == "age" && h.column_b == "age" && h.score > 0.0));
        assert!(hits.iter().all(|h| h.kind == "label" || h.kind == "content"));
    }

    #[test]
    fn unionable_tables_ranked() {
        let p = platform();
        let ranked = p.discovery().k(5).unionable_tables("health", "patients").unwrap();
        assert!(!ranked.is_empty());
        assert_eq!(ranked[0].table, "people");
        assert_eq!(ranked[0].dataset, "census");
        assert!(ranked[0].score > 0.0);
    }

    #[test]
    fn join_path_two_hops() {
        let p = platform();
        // patients —age— people —city— trips
        let paths = p
            .discovery()
            .hops(2)
            .paths(("health", "patients"), ("travel", "trips"))
            .unwrap();
        assert!(!paths.is_empty(), "no join path found");
        assert_eq!(paths[0].tables, vec!["patients", "people", "trips"]);
        assert_eq!(paths[0].hops(), 2);
        assert_eq!(paths[0].to_string(), "patients -> people -> trips");
        let shortest = p
            .discovery()
            .shortest_path(("health", "patients"), ("travel", "trips"))
            .unwrap()
            .unwrap();
        assert_eq!(shortest.tables.len(), 3);
    }

    #[test]
    fn discovery_builder_applies_options() {
        let p = platform();
        let all = p.discovery().unionable_tables("health", "patients").unwrap();
        assert!(!all.is_empty());
        // k=1 truncates
        assert_eq!(
            p.discovery().k(1).unionable_tables("health", "patients").unwrap().len(),
            1
        );
        // an impossible score floor filters everything (∞ is valid input)
        assert!(p
            .discovery()
            .min_score(f64::INFINITY)
            .unionable_tables("health", "patients")
            .unwrap()
            .is_empty());
        // mode + hops thread through to the underlying searches
        let joinable = p
            .discovery()
            .mode(UnionMode::ContentOnly)
            .joinable_tables("health", "patients")
            .unwrap();
        assert!(joinable.iter().any(|h| h.table == "people"));
        assert!(p
            .discovery()
            .hops(0)
            .paths(("health", "patients"), ("travel", "trips"))
            .unwrap()
            .is_empty());
        let paths = p.discovery().paths(("health", "patients"), ("travel", "trips")).unwrap();
        assert_eq!(paths[0].tables.last().map(String::as_str), Some("trips"));
        let shortest =
            p.discovery().shortest_path(("health", "patients"), ("travel", "trips")).unwrap();
        assert_eq!(shortest.unwrap().hops(), 2);
        let cols = p
            .discovery()
            .unionable_columns(("health", "patients"), ("census", "people"))
            .unwrap();
        assert!(cols.iter().any(|h| h.column_a == "age"));
    }

    #[test]
    fn discovery_limits_govern_searches() {
        let p = platform();
        // an already-expired deadline trips every SPARQL the search runs
        let err = p
            .discovery()
            .limits(QueryLimits {
                deadline: Some(Duration::ZERO),
                ..QueryLimits::default()
            })
            .unionable_tables("health", "patients")
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::QueryTimeout);
        let err = p
            .discovery()
            .limits(QueryLimits {
                deadline: Some(Duration::ZERO),
                ..QueryLimits::default()
            })
            .search(&[&["age"]])
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::QueryTimeout);
        // a cancelled token stops path discovery with the typed kind
        let cancel = lids_exec::CancelToken::new();
        cancel.cancel();
        let err = p
            .discovery()
            .limits(QueryLimits { cancel: Some(cancel), ..QueryLimits::default() })
            .paths(("health", "patients"), ("travel", "trips"))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::QueryCancelled);
        // generous limits leave results identical to ungoverned runs
        let governed = p
            .discovery()
            .limits(QueryLimits {
                deadline: Some(Duration::from_secs(60)),
                memory_budget_bytes: Some(256 << 20),
                ..QueryLimits::default()
            })
            .unionable_tables("health", "patients")
            .unwrap();
        let plain = p.discovery().unionable_tables("health", "patients").unwrap();
        assert_eq!(governed, plain);
    }

    /// A discovery answer is whole or an error: a budget the search's
    /// limits set trips typed, never a ranking of part of the answer.
    #[test]
    fn discovery_budget_trip_is_a_typed_error() {
        let p = platform();
        let tight = || {
            p.discovery()
                .limits(QueryLimits { memory_budget_bytes: Some(16), ..QueryLimits::default() })
        };
        let err = tight().unionable_tables("census", "people").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::QueryBudgetExceeded, "{err}");
        let err = tight().search(&[]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::QueryBudgetExceeded, "{err}");
    }

    /// A caller's limits stay with the caller: searches that trip their own
    /// expired deadline or cancelled token leave every later unlimited
    /// search, on any table, and the ad-hoc path answering as a fresh
    /// platform does.
    #[test]
    fn caller_limits_stay_with_the_caller() {
        let fresh = platform();
        let p = platform();
        let expired = QueryLimits { deadline: Some(Duration::ZERO), ..QueryLimits::default() };
        let cancel = lids_exec::CancelToken::new();
        cancel.cancel();
        let cancelled = QueryLimits { cancel: Some(cancel), ..QueryLimits::default() };
        for _ in 0..3 {
            let err = p
                .discovery()
                .limits(expired.clone())
                .unionable_tables("health", "patients")
                .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::QueryTimeout);
            let err = p.discovery().limits(cancelled.clone()).search(&[&["age"]]).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::QueryCancelled);
        }
        assert_eq!(
            p.discovery().unionable_tables("census", "people").unwrap(),
            fresh.discovery().unionable_tables("census", "people").unwrap()
        );
        assert_eq!(
            p.discovery().search(&[&["age"]]).unwrap(),
            fresh.discovery().search(&[&["age"]]).unwrap()
        );
        assert_eq!(
            p.query(SEARCH_TABLES_QUERY).unwrap(),
            fresh.query(SEARCH_TABLES_QUERY).unwrap()
        );
    }

    #[test]
    fn out_of_domain_options_are_typed_errors() {
        let p = platform();
        // k = 0 can never return a result → typed argument error
        let err = p.discovery().k(0).unionable_tables("health", "patients").unwrap_err();
        assert_eq!(err.kind(), lids_exec::ErrorKind::InvalidArgument);
        // NaN min_score poisons every comparison → typed argument error
        let err = p
            .discovery()
            .min_score(f64::NAN)
            .joinable_tables("health", "patients")
            .unwrap_err();
        assert_eq!(err.kind(), lids_exec::ErrorKind::InvalidArgument);
        let err = p
            .discovery()
            .min_score(f64::NAN)
            .unionable_columns(("health", "patients"), ("census", "people"))
            .unwrap_err();
        assert_eq!(err.kind(), lids_exec::ErrorKind::InvalidArgument);
        let err =
            p.discovery().k(0).paths(("health", "patients"), ("travel", "trips")).unwrap_err();
        assert_eq!(err.kind(), lids_exec::ErrorKind::InvalidArgument);
        // boundary cases that must stay valid
        assert!(p.discovery().k(1).min_score(0.0).unionable_tables("health", "patients").is_ok());
        assert!(p
            .discovery()
            .min_score(f64::INFINITY)
            .shortest_path(("health", "patients"), ("travel", "trips"))
            .is_ok());
    }

    #[test]
    fn no_path_when_disconnected() {
        let p = platform();
        assert!(p
            .discovery()
            .shortest_path(("health", "patients"), ("nope", "missing"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn join_path_for_unseen_dataframe() {
        let p = platform();
        // an unseen frame resembling `patients`/`people` (age column)
        let probe = lids_profiler::Table::new(
            "probe",
            vec![Column::new("age", (22..58).map(|i| i.to_string()).collect())],
        );
        let paths = p.discovery().hops(2).paths_for(&probe, ("travel", "trips")).unwrap();
        assert!(!paths.is_empty(), "no join path from most-similar table");
        assert_eq!(paths[0].tables.last().map(|s| s.as_str()), Some("trips"));
    }

    #[test]
    fn most_similar_table_finds_twin() {
        let p = platform();
        let probe = lids_profiler::Table::new(
            "probe",
            vec![Column::new("age", (25..55).map(|i| i.to_string()).collect())],
        );
        let hit = p.discovery().most_similar_table(&probe).unwrap().unwrap();
        assert!(hit.score > 0.5);
        assert!(hit.dataset == "health" || hit.dataset == "census");
    }

    /// The same table under two dataset names scores the same; which twin
    /// wins — and with it where `paths_for` starts — must not depend on the
    /// hash seed of one platform's embedding map.
    #[test]
    fn most_similar_table_breaks_ties_by_name() {
        let ages: Vec<String> = (20..60).map(|i| i.to_string()).collect();
        let upload = |dataset: &str| {
            let age = Column::new("age", ages.clone());
            Dataset::new(dataset, vec![lids_profiler::Table::new("people", vec![age])])
        };
        let probe = lids_profiler::Table::new("probe", vec![Column::new("age", ages.clone())]);
        for _ in 0..12 {
            let (p, _) = KgLidsBuilder::new()
                .with_datasets([upload("second_upload"), upload("first_upload")])
                .bootstrap();
            let hit = p.discovery().most_similar_table(&probe).unwrap().unwrap();
            assert_eq!((hit.dataset.as_str(), hit.table.as_str()), ("first_upload", "people"));
        }
    }

    #[test]
    fn content_only_mode_still_finds_unionable() {
        let p = platform();
        let ranked = p
            .discovery()
            .k(5)
            .mode(UnionMode::ContentOnly)
            .unionable_tables("health", "patients")
            .unwrap();
        assert!(ranked.iter().any(|h| h.table == "people"));
    }

    /// Names that need IRI encoding come back as the caller gave them, so
    /// a hit fed back into a search finds its way home.
    #[test]
    fn names_that_need_encoding_come_back_as_given() {
        let ages: Vec<String> = (20..60).map(|i| i.to_string()).collect();
        let table = |dataset: &str, table: &str| {
            let age = Column::new("age", ages.clone());
            Dataset::new(dataset, vec![lids_profiler::Table::new(table, vec![age])])
        };
        let (p, _) = KgLidsBuilder::new()
            .with_datasets([table("heart failure", "sale prices"), table("census", "people")])
            .bootstrap();
        let name = |hit: &TableHit| (hit.dataset.clone(), hit.table.clone());
        let hits = p.discovery().unionable_tables("census", "people").unwrap();
        assert_eq!(name(&hits[0]), ("heart failure".into(), "sale prices".into()));
        let back = p.discovery().unionable_tables(&hits[0].dataset, &hits[0].table).unwrap();
        assert_eq!(name(&back[0]), ("census".into(), "people".into()));
        let paths = p.discovery().paths(("census", "people"), ("heart failure", "sale prices"));
        assert_eq!(paths.unwrap()[0].tables, ["people", "sale prices"]);
        let found = p.discovery().search(&[&["sale"]]).unwrap();
        assert_eq!(found.get(0, "dataset"), Some("heart failure"));
        assert_eq!(found.get(0, "table"), Some("sale prices"));
    }

    #[test]
    fn union_mode_wire_labels_round_trip() {
        for mode in [UnionMode::ContentAndLabel, UnionMode::ContentOnly, UnionMode::LabelOnly] {
            assert_eq!(UnionMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(UnionMode::parse("bogus"), None);
    }
}
