//! Data Global Schema — Algorithm 3's configuration, statistics and
//! emission.
//!
//! The dataset side of the LiDS graph is a metadata subgraph (dataset →
//! table → column hierarchy plus statistics) and similarity edges between
//! column pairs of the same fine-grained type from different tables. Label
//! similarity uses word embeddings with threshold `α`; content similarity
//! uses the *true ratio* for booleans (threshold `β`) and CoLR cosine for
//! everything else (threshold `θ`). Similarity edges are RDF-star-annotated
//! with their score.
//!
//! Which pairs are similar is decided by one linker,
//! [`crate::incremental::LinkIndex`]: a first fill and every later delta
//! take the same path ([`SchemaConfig`] and [`LinkingConfig`] tune it,
//! [`SchemaStats`] reports it). This module holds what surrounds it.
//!
//! # Linking decides, emission writes
//!
//! The linker ends in a list of [`Edge`]s — two column ids, a predicate, a
//! score — and builds no quad. Writing is a second step with one body
//! (metadata subgraph, then four quads per edge), generic over a
//! [`QuadSink`]:
//!
//! - [`EncodedBatch`] is how the platform writes. Similarity edges are
//!   ≈ 98 % of a lake's quads and name the same few thousand column IRIs
//!   over and over, so each column IRI, the two predicates and
//!   `withCertainty` are interned once and each edge interns only its
//!   score literal. Its two asserted quads are `[u32; 4]` tuples and its
//!   two annotations `[a, p, b, withCertainty, score, g]` keys of the
//!   store's annotation run, loaded together with
//!   `QuadStore::extend_encoded`: the quoted triple is never interned, and no
//!   [`Quad`] or quoted `Term` exists at any point.
//! - `Vec<Quad>` is the reference: [`data_global_schema_quads_seeded`] and
//!   [`build_data_global_schema`] emit decoded quads for
//!   `QuadStore::extend`, which is what tests, the benches' per-layer
//!   replays and anything that wants N-Quads use. Both targets load the
//!   same decoded store (`tests/encoded_emitter.rs`); `TermId`s may differ.

use lids_embed::WordEmbeddings;
use lids_profiler::ColumnProfile;
use lids_rdf::{EncodedAnnotation, EncodedQuad, Quad, QuadStore, Term, TermId};
use lids_vector::SearchStats;

use crate::incremental::LinkIndex;
use crate::ontology::{class, data_prop, object_prop, res, Vocab};

/// How content-similarity candidates are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkingMode {
    /// Exhaustive scan over every same-type cross-table pair with a new
    /// endpoint: no index, no cells.
    Exact,
    /// Index-pruned candidates, each verified by the exact kernel.
    Pruned,
}

/// Tuning for the linker's candidate stage.
#[derive(Debug, Clone, Copy)]
pub struct LinkingConfig {
    /// Candidate-generation strategy.
    pub mode: LinkingMode,
    /// Buckets with at most this many live rows use the exact scan even
    /// under [`LinkingMode::Pruned`] — below it the index build costs more
    /// than the pairs it saves.
    pub bucket_cutoff: usize,
    /// Initial `k` for the adaptive radius search over-fetch.
    pub init_k: usize,
}

impl Default for LinkingConfig {
    fn default() -> Self {
        LinkingConfig {
            mode: LinkingMode::Pruned,
            bucket_cutoff: 192,
            init_k: 16,
        }
    }
}

/// Similarity thresholds (`α`, `β`, `θ` in Algorithm 3) plus engine tuning.
#[derive(Debug, Clone, Copy)]
pub struct SchemaConfig {
    /// Label-similarity threshold.
    pub alpha: f32,
    /// Boolean true-ratio similarity threshold.
    pub beta: f64,
    /// Content (CoLR cosine) similarity threshold.
    pub theta: f32,
    /// Candidate-generation strategy and tuning.
    pub linking: LinkingConfig,
}

impl Default for SchemaConfig {
    fn default() -> Self {
        SchemaConfig {
            alpha: 0.75,
            beta: 0.9,
            theta: 0.9,
            linking: LinkingConfig::default(),
        }
    }
}

/// What one linking batch did ([`LinkIndex::link_columns`]); every pair
/// counted has at least one of the batch's columns as an endpoint, so on a
/// first fill the counters cover the whole lake.
#[derive(Debug, Clone, Default)]
pub struct SchemaStats {
    /// Columns in the batch.
    pub columns: usize,
    /// Logical same-type cross-table pairs (the exact scan's workload).
    pub pairs_compared: usize,
    /// Content pairs that reached the exact scorer (a delta's
    /// `relink_candidates`).
    pub candidates_generated: usize,
    /// Content pairs the candidate stage ruled out without scoring.
    pub pairs_pruned: usize,
    pub label_edges: usize,
    pub content_edges: usize,
    pub metadata_triples: usize,
    /// Buckets whose cell geometry was rebuilt.
    pub cell_rebuilds: usize,
    /// Per-fine-grained-type breakdown of the content pass over the
    /// buckets the batch touched, ordered by type label (deterministic
    /// across runs and thread counts).
    pub buckets: Vec<BucketStats>,
    /// ANN work counters aggregated over every bucket's cell rebuild.
    pub hnsw: SearchStats,
}

/// Content-pass breakdown for one fine-grained-type bucket.
#[derive(Debug, Clone, Default)]
pub struct BucketStats {
    /// Fine-grained type label (`"int"`, `"named_entity"`, …).
    pub fgt: &'static str,
    /// Live columns in the bucket eligible for content comparison.
    pub rows: usize,
    /// Cross-table pairs with a new endpoint the exact scan would score.
    pub eligible_pairs: usize,
    /// Pairs that reached the exact scorer.
    pub candidates: usize,
    /// Pairs the candidate stage ruled out without scoring.
    pub pruned: usize,
    /// Candidate-generation strategy taken: `"exact-scan"`,
    /// `"true-ratio-window"`, or `"hnsw"`.
    pub strategy: &'static str,
    /// ANN work of the bucket's cell rebuild (zero when there was none).
    pub hnsw: SearchStats,
}

/// One similarity edge the linker decided on, between two column ids of
/// its [`LinkIndex`].
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    pub(crate) a: u32,
    pub(crate) b: u32,
    /// Short object-property name: [`object_prop::HAS_LABEL_SIMILARITY`] or
    /// [`object_prop::HAS_CONTENT_SIMILARITY`].
    pub(crate) predicate: &'static str,
    pub(crate) score: f64,
}

/// Where the schema emitter puts its quads. There is one emitter body
/// (behind [`LinkIndex::emit_columns`]) and two targets: a
/// `Vec<Quad>` of decoded quads — the reference that tests, the N-Quads
/// route and per-layer replays load with [`QuadStore::extend`] — and an
/// [`EncodedBatch`] of id tuples over one store's dictionary, which is how
/// the platform writes.
pub trait QuadSink {
    /// An IRI node as this sink names it, obtained once and reused in every
    /// edge the node takes part in.
    type Node: Clone;

    /// The handle of the node with this IRI.
    fn node(&mut self, iri: &str) -> Self::Node;

    /// One default-graph triple of the metadata subgraph.
    fn triple(&mut self, subject: Term, predicate: Term, object: Term);

    /// One similarity edge, as four default-graph quads: `a pred b` and
    /// `b pred a` (symmetric, for cheap BGP queries), each annotated
    /// RDF-star style with `<< … >> certainty score` — an annotation the
    /// store keeps in its annotation run.
    fn edge(
        &mut self,
        a: &Self::Node,
        pred: &Self::Node,
        b: &Self::Node,
        certainty: &Self::Node,
        score: f64,
    );
}

impl QuadSink for Vec<Quad> {
    type Node = Term;

    fn node(&mut self, iri: &str) -> Term {
        Term::iri(iri)
    }

    fn triple(&mut self, subject: Term, predicate: Term, object: Term) {
        self.push(Quad::new(subject, predicate, object));
    }

    /// The reverse direction reuses the forward quads' terms via an
    /// in-place swap instead of fresh string allocations.
    fn edge(&mut self, a: &Term, pred: &Term, b: &Term, certainty: &Term, score: f64) {
        let mut plain = Quad::new(a.clone(), pred.clone(), b.clone());
        let mut star = Quad::new(
            Term::quoted(a.clone(), pred.clone(), b.clone()),
            certainty.clone(),
            Term::double(score),
        );
        self.push(plain.clone());
        self.push(star.clone());
        std::mem::swap(&mut plain.subject, &mut plain.object);
        if let Term::Quoted(t) = &mut star.subject {
            std::mem::swap(&mut t.subject, &mut t.object);
        }
        self.push(plain);
        self.push(star);
    }
}

/// The id-space target: terms are interned into `store`'s dictionary where
/// the emitter first names them and quads accumulate as id tuples, to be
/// loaded with one [`QuadStore::extend_encoded`]. Per edge that is one score
/// literal, two quads and two annotation keys over the ids in hand — no
/// term is hashed once per quad it occurs in, no quoted triple is
/// interned, and no [`Quad`] is ever built.
///
/// Nothing touches the store before the first node, triple or edge, so an
/// emitter with nothing to say costs a reader-pinned store no copy.
pub struct EncodedBatch<'a> {
    store: &'a mut QuadStore,
    graph: Option<TermId>,
    quads: Vec<EncodedQuad>,
    notes: Vec<EncodedAnnotation>,
}

impl<'a> EncodedBatch<'a> {
    pub fn new(store: &'a mut QuadStore) -> Self {
        EncodedBatch { store, graph: None, quads: Vec::new(), notes: Vec::new() }
    }

    /// The accumulated quads and annotations, for [`QuadStore::extend_encoded`]
    /// on the store this batch was opened on.
    pub fn into_ids(self) -> (Vec<EncodedQuad>, Vec<EncodedAnnotation>) {
        (self.quads, self.notes)
    }

    fn graph(&mut self) -> u32 {
        let store = &mut *self.store;
        self.graph.get_or_insert_with(|| store.intern_default_graph()).0
    }

    fn push(&mut self, [s, p, o]: [TermId; 3]) {
        let g = self.graph();
        self.quads.push([s.0, p.0, o.0, g]);
    }
}

impl QuadSink for EncodedBatch<'_> {
    type Node = TermId;

    fn node(&mut self, iri: &str) -> TermId {
        self.store.intern(Term::iri(iri))
    }

    fn triple(&mut self, subject: Term, predicate: Term, object: Term) {
        let spo = [subject, predicate, object].map(|term| self.store.intern(term));
        self.push(spo);
    }

    fn edge(&mut self, &a: &TermId, &pred: &TermId, &b: &TermId, &certainty: &TermId, score: f64) {
        let score = self.store.intern(Term::double(score));
        let g = self.graph();
        self.push([a, pred, b]);
        self.push([b, pred, a]);
        let [a, pred, b, certainty, score] = [a, pred, b, certainty, score].map(|id| id.0);
        self.notes.push([a, pred, b, certainty, score, g]);
        self.notes.push([b, pred, a, certainty, score, g]);
    }
}

/// Build the data global schema into the store's default graph:
/// [`data_global_schema_quads_seeded`] + [`QuadStore::extend`].
pub fn build_data_global_schema(
    store: &mut QuadStore,
    profiles: &[ColumnProfile],
    config: &SchemaConfig,
    we: &WordEmbeddings,
) -> SchemaStats {
    let mut batch = Vec::new();
    let (stats, _) = data_global_schema_quads_seeded(&mut batch, profiles, config, we);
    store.extend(batch);
    stats
}

/// Link `profiles` as the first fill of a new [`LinkIndex`] and append
/// their metadata subgraph and similarity edges (default graph) to `out`.
/// Returns the fill's statistics and the filled index, which later batches
/// link against (it is its own seed: [`LinkIndex::from_seed`]).
pub fn data_global_schema_quads_seeded(
    out: &mut Vec<Quad>,
    profiles: &[ColumnProfile],
    config: &SchemaConfig,
    we: &WordEmbeddings,
) -> (SchemaStats, LinkIndex) {
    let mut index = LinkIndex::new(*config);
    let stats = index.add_columns(out, profiles, we);
    (stats, index)
}

/// Emit the metadata triples of one column profile (Algorithm 3 lines
/// 2–5): the dataset/table hierarchy nodes on first sight, then the
/// column node with its type and statistics. Shared by linking emission
/// and retraction-set regeneration, so the two always agree on the exact
/// quad shapes. Returns how many triples it emitted.
fn emit_profile_metadata<S: QuadSink>(
    sink: &mut S,
    vocab: &Vocab,
    p: &ColumnProfile,
    seen_datasets: &mut std::collections::HashSet<String>,
    seen_tables: &mut std::collections::HashSet<(String, String)>,
) -> usize {
    let mut triples = 0usize;
    let mut emit = |s: Term, pr: Term, o: Term| {
        sink.triple(s, pr, o);
        triples += 1;
    };
    let is_part_of = vocab.obj(object_prop::IS_PART_OF);
    let has_table = vocab.obj(object_prop::HAS_TABLE);
    let has_column = vocab.obj(object_prop::HAS_COLUMN);
    let d_iri = res::dataset(&p.meta.dataset);
    if seen_datasets.insert(p.meta.dataset.clone()) {
        emit(Term::iri(d_iri.clone()), vocab.rdf_type.clone(), vocab.class(class::DATASET));
        emit(Term::iri(d_iri.clone()), vocab.rdfs_label.clone(), Term::string(p.meta.dataset.clone()));
    }
    let t_iri = res::table(&p.meta.dataset, &p.meta.table);
    if seen_tables.insert((p.meta.dataset.clone(), p.meta.table.clone())) {
        emit(Term::iri(t_iri.clone()), vocab.rdf_type.clone(), vocab.class(class::TABLE));
        emit(Term::iri(t_iri.clone()), vocab.rdfs_label.clone(), Term::string(p.meta.table.clone()));
        emit(Term::iri(t_iri.clone()), is_part_of.clone(), Term::iri(d_iri.clone()));
        emit(Term::iri(d_iri.clone()), has_table.clone(), Term::iri(t_iri.clone()));
    }
    let c_iri = res::column(&p.meta.dataset, &p.meta.table, &p.meta.column);
    let c = Term::iri(c_iri);
    emit(c.clone(), vocab.rdf_type.clone(), vocab.class(class::COLUMN));
    emit(c.clone(), vocab.rdfs_label.clone(), Term::string(p.meta.column.clone()));
    emit(c.clone(), is_part_of.clone(), Term::iri(t_iri.clone()));
    emit(Term::iri(t_iri), has_column.clone(), c.clone());
    emit(c.clone(), vocab.data(data_prop::HAS_DATA_TYPE), Term::string(p.fgt.label()));
    emit(c.clone(), vocab.data(data_prop::HAS_TOTAL_VALUE_COUNT), Term::integer(p.stats.count as i64));
    emit(c.clone(), vocab.data(data_prop::HAS_MISSING_VALUE_COUNT), Term::integer(p.stats.nulls as i64));
    emit(
        c.clone(),
        vocab.data(data_prop::HAS_DISTINCT_VALUE_COUNT),
        Term::integer(p.stats.distinct as i64),
    );
    if let Some(v) = p.stats.mean {
        emit(c.clone(), vocab.data(data_prop::HAS_MEAN_VALUE), Term::double(v));
    }
    if let Some(v) = p.stats.min {
        emit(c.clone(), vocab.data(data_prop::HAS_MIN_VALUE), Term::double(v));
    }
    if let Some(v) = p.stats.max {
        emit(c.clone(), vocab.data(data_prop::HAS_MAX_VALUE), Term::double(v));
    }
    if let Some(v) = p.stats.true_ratio {
        emit(c, vocab.data(data_prop::HAS_TRUE_RATIO), Term::double(v));
    }
    triples
}

/// The metadata subgraph of `profiles`, in order, with fresh dedup state
/// (every dataset and table node comes out on first sight). Returns how
/// many triples it emitted.
pub fn emit_metadata<S: QuadSink>(sink: &mut S, profiles: &[ColumnProfile]) -> usize {
    let vocab = Vocab::new();
    let mut seen_datasets: std::collections::HashSet<String> = Default::default();
    let mut seen_tables: std::collections::HashSet<(String, String)> = Default::default();
    profiles
        .iter()
        .map(|p| emit_profile_metadata(sink, &vocab, p, &mut seen_datasets, &mut seen_tables))
        .sum()
}

/// The one emitter body: the metadata subgraph of `profiles`, then `edges`,
/// whose endpoint positions `iri_of` resolves to column IRIs. Each position
/// among `0..positions` that an edge touches becomes a sink node once.
/// Returns how many metadata triples it emitted.
pub(crate) fn emit_quads<'a, S: QuadSink>(
    sink: &mut S,
    profiles: &[ColumnProfile],
    edges: &[Edge],
    positions: usize,
    iri_of: impl Fn(usize) -> &'a str,
) -> usize {
    let triples = emit_metadata(sink, profiles);
    if edges.is_empty() {
        return triples;
    }
    // Predicate and annotation nodes are shared by every edge.
    let label = sink.node(&object_prop::iri(object_prop::HAS_LABEL_SIMILARITY));
    let content = sink.node(&object_prop::iri(object_prop::HAS_CONTENT_SIMILARITY));
    let certainty = sink.node(&data_prop::iri(data_prop::WITH_CERTAINTY));
    let mut nodes: Vec<Option<S::Node>> = vec![None; positions];
    for edge in edges {
        for i in [edge.a as usize, edge.b as usize] {
            if nodes[i].is_none() {
                nodes[i] = Some(sink.node(iri_of(i)));
            }
        }
        let (Some(a), Some(b)) = (&nodes[edge.a as usize], &nodes[edge.b as usize]) else {
            unreachable!("both endpoints were resolved just above")
        };
        let pred =
            if edge.predicate == object_prop::HAS_LABEL_SIMILARITY { &label } else { &content };
        sink.edge(a, pred, b, &certainty, edge.score);
    }
    triples
}

#[cfg(test)]
mod tests {
    use super::*;
    use lids_embed::ColrModels;
    use lids_profiler::{profile_table, ProfilerConfig};
    use lids_profiler::table::{Column, Table};
    use lids_rdf::QuadPattern;

    fn profiles() -> Vec<ColumnProfile> {
        let models = ColrModels::untrained(3);
        let we = WordEmbeddings::new();
        let cfg = ProfilerConfig::default();
        let t1 = Table::new(
            "patients",
            vec![
                Column::new("age", (20..24).map(|i| i.to_string()).collect()),
                Column::new("smoker", vec!["true".into(), "false".into(), "true".into(), "true".into()]),
            ],
        );
        let t2 = Table::new(
            "clients",
            vec![
                Column::new("age", (20..24).map(|i| i.to_string()).collect()),
                Column::new("is_smoker", vec!["true".into(), "true".into(), "true".into(), "false".into()]),
            ],
        );
        let mut ps = profile_table("health", &t1, &models, &we, &cfg, None);
        ps.extend(profile_table("bank", &t2, &models, &we, &cfg, None));
        ps
    }

    #[test]
    fn metadata_hierarchy_built() {
        let mut store = QuadStore::new();
        let stats = build_data_global_schema(
            &mut store,
            &profiles(),
            &SchemaConfig::default(),
            &WordEmbeddings::new(),
        );
        assert_eq!(stats.columns, 4);
        assert!(stats.metadata_triples > 10);
        // column → table → dataset chain
        let col = res::column("health", "patients", "age");
        let tbl = res::table("health", "patients");
        let part_of: Vec<_> = store
            .match_pattern(
                &QuadPattern::any()
                    .with_subject(Term::iri(col))
                    .with_predicate(Term::iri(object_prop::iri(object_prop::IS_PART_OF))),
            )
            .collect();
        assert_eq!(part_of[0].object.as_iri().unwrap(), tbl);
    }

    #[test]
    fn identical_columns_get_content_edges() {
        let mut store = QuadStore::new();
        let stats = build_data_global_schema(
            &mut store,
            &profiles(),
            &SchemaConfig::default(),
            &WordEmbeddings::new(),
        );
        // the two `age` columns have identical values → cosine 1 ≥ θ
        assert!(stats.content_edges >= 1);
        let a = res::column("health", "patients", "age");
        let b = res::column("bank", "clients", "age");
        let edge = store
            .match_pattern(
                &QuadPattern::any()
                    .with_subject(Term::iri(a.clone()))
                    .with_predicate(Term::iri(object_prop::iri(
                        object_prop::HAS_CONTENT_SIMILARITY,
                    )))
                    .with_object(Term::iri(b.clone())),
            )
            .count();
        assert_eq!(edge, 1);
        // RDF-star annotation present with score ≈ 1
        let score = store
            .match_pattern(
                &QuadPattern::any().with_subject(Term::quoted(
                    Term::iri(a),
                    Term::iri(object_prop::iri(object_prop::HAS_CONTENT_SIMILARITY)),
                    Term::iri(b),
                )),
            )
            .next()
            .unwrap();
        let v = score.object.as_literal().unwrap().as_f64().unwrap();
        assert!(v > 0.99);
    }

    #[test]
    fn label_similarity_edges() {
        let mut store = QuadStore::new();
        let stats = build_data_global_schema(
            &mut store,
            &profiles(),
            &SchemaConfig::default(),
            &WordEmbeddings::new(),
        );
        // age/age exact label match across tables
        assert!(stats.label_edges >= 1);
    }

    #[test]
    fn boolean_similarity_uses_true_ratio() {
        let mut store = QuadStore::new();
        // smoker 0.75 vs is_smoker 0.75 → sim 1.0 ≥ β
        build_data_global_schema(
            &mut store,
            &profiles(),
            &SchemaConfig::default(),
            &WordEmbeddings::new(),
        );
        let a = res::column("health", "patients", "smoker");
        let b = res::column("bank", "clients", "is_smoker");
        let edge = store
            .match_pattern(
                &QuadPattern::any()
                    .with_subject(Term::iri(a))
                    .with_predicate(Term::iri(object_prop::iri(
                        object_prop::HAS_CONTENT_SIMILARITY,
                    )))
                    .with_object(Term::iri(b)),
            )
            .count();
        assert_eq!(edge, 1);
    }

    #[test]
    fn same_table_pairs_skipped() {
        let mut store = QuadStore::new();
        let stats = build_data_global_schema(
            &mut store,
            &profiles(),
            &SchemaConfig::default(),
            &WordEmbeddings::new(),
        );
        // 2 int columns + 2 boolean columns, cross-table only → 1 + 1 pairs
        assert_eq!(stats.pairs_compared, 2);
    }

    #[test]
    fn high_thresholds_suppress_edges() {
        let mut store = QuadStore::new();
        let stats = build_data_global_schema(
            &mut store,
            &profiles(),
            &SchemaConfig { alpha: 1.1, beta: 1.1, theta: 1.1, ..Default::default() },
            &WordEmbeddings::new(),
        );
        assert_eq!(stats.label_edges + stats.content_edges, 0);
    }

    #[test]
    fn exact_and_pruned_agree_on_sample() {
        // tiny cutoff + pruned mode forces the HNSW and sliding-window
        // candidate paths; the edge sets must match the exact mode
        let ps = profiles();
        let we = WordEmbeddings::new();
        let mut exact_store = QuadStore::new();
        let exact_cfg = SchemaConfig {
            linking: LinkingConfig { mode: LinkingMode::Exact, ..Default::default() },
            ..Default::default()
        };
        let exact_stats = build_data_global_schema(&mut exact_store, &ps, &exact_cfg, &we);

        let mut pruned_store = QuadStore::new();
        let pruned_cfg = SchemaConfig {
            linking: LinkingConfig {
                mode: LinkingMode::Pruned,
                bucket_cutoff: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let pruned_stats = build_data_global_schema(&mut pruned_store, &ps, &pruned_cfg, &we);

        assert_eq!(exact_stats.label_edges, pruned_stats.label_edges);
        assert_eq!(exact_stats.content_edges, pruned_stats.content_edges);
        assert_eq!(exact_stats.pairs_compared, pruned_stats.pairs_compared);
        let mut a: Vec<String> = exact_store.iter().map(|q| q.to_string()).collect();
        let mut b: Vec<String> = pruned_store.iter().map(|q| q.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn pruned_counters_account_for_all_pairs() {
        let ps = profiles();
        let mut store = QuadStore::new();
        let cfg = SchemaConfig {
            linking: LinkingConfig {
                mode: LinkingMode::Pruned,
                bucket_cutoff: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let stats = build_data_global_schema(&mut store, &ps, &cfg, &we_default());
        assert!(stats.candidates_generated + stats.pairs_pruned <= stats.pairs_compared);
        assert!(stats.content_edges >= 1);
    }

    fn we_default() -> WordEmbeddings {
        WordEmbeddings::new()
    }

    #[test]
    fn bucket_stats_cover_content_pass() {
        let ps = profiles();
        let mut store = QuadStore::new();
        // default config: both buckets are tiny → exact scan everywhere
        let stats =
            build_data_global_schema(&mut store, &ps, &SchemaConfig::default(), &we_default());
        assert_eq!(stats.buckets.len(), 2);
        let labels: Vec<&str> = stats.buckets.iter().map(|b| b.fgt).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        assert_eq!(labels, sorted, "buckets ordered by type label");
        for b in &stats.buckets {
            assert_eq!(b.strategy, "exact-scan");
            assert_eq!(b.rows, 2);
            assert_eq!(b.eligible_pairs, 1);
            assert_eq!(b.candidates, 1);
            assert_eq!(b.pruned, 0);
            assert_eq!(b.hnsw, SearchStats::default());
        }
        let eligible: usize = stats.buckets.iter().map(|b| b.eligible_pairs).sum();
        assert_eq!(eligible, stats.pairs_compared);

        // cutoff 0 forces the pruned strategies; the HNSW bucket must
        // report ANN work and the per-bucket counters must reconcile with
        // the aggregate candidate/pruned totals
        let mut store2 = QuadStore::new();
        let cfg = SchemaConfig {
            linking: LinkingConfig {
                mode: LinkingMode::Pruned,
                bucket_cutoff: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let pruned = build_data_global_schema(&mut store2, &ps, &cfg, &we_default());
        assert_eq!(pruned.buckets.len(), 2);
        let strategies: Vec<&str> = pruned.buckets.iter().map(|b| b.strategy).collect();
        assert!(strategies.contains(&"hnsw"), "int bucket should use hnsw: {strategies:?}");
        assert!(strategies.contains(&"true-ratio-window"), "{strategies:?}");
        let hnsw_bucket = pruned.buckets.iter().find(|b| b.strategy == "hnsw").unwrap();
        assert!(hnsw_bucket.hnsw.searches > 0);
        assert!(hnsw_bucket.hnsw.dist_evals > 0);
        assert_eq!(pruned.hnsw, hnsw_bucket.hnsw, "aggregate sums the one hnsw bucket");
        let cand: usize = pruned.buckets.iter().map(|b| b.candidates).sum();
        let pru: usize = pruned.buckets.iter().map(|b| b.pruned).sum();
        assert_eq!(cand, pruned.candidates_generated);
        assert_eq!(pru, pruned.pairs_pruned);
    }
}
