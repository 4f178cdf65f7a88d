//! Data Global Schema construction — Algorithm 3.
//!
//! Builds the dataset side of the LiDS graph from column profiles: a
//! metadata subgraph (dataset → table → column hierarchy plus statistics)
//! and similarity edges between column pairs of the same fine-grained type
//! from different tables. Label similarity uses word embeddings with
//! threshold `α`; content similarity uses the *true ratio* for booleans
//! (threshold `β`) and CoLR cosine for everything else (threshold `θ`).
//! Similarity edges are RDF-star-annotated with their score.
//!
//! The pairwise pass is a staged similarity engine rather than a flat
//! O(n²) loop over materialised pairs:
//!
//! 1. **Embedding preparation** — every distinct column label is embedded
//!    exactly once ([`LabelEmbeddingCache`]) and each bucket's CoLR
//!    vectors are pre-normalized into a [`RowMatrix`], so cosine reduces
//!    to a dot product ([`dot_lanes`]).
//! 2. **Candidate generation** — per fine-grained-type bucket. Buckets at
//!    or below [`LinkingConfig::bucket_cutoff`] (and everything under
//!    [`LinkingMode::Exact`]) take the exact blocked scan
//!    ([`scan_pairs_above`]); larger buckets under
//!    [`LinkingMode::Pruned`] query a sharded HNSW index
//!    ([`ShardedHnsw`]) with a radius of `1 − θ` plus a safety margin,
//!    group the hits into connected components, and bound component
//!    pairs with the triangle inequality on centroids — pairs outside
//!    the bound provably contain no θ-edge, so the filter is lossless
//!    even though HNSW itself is approximate. Boolean buckets prune with
//!    a sorted sliding window over the true ratio instead of an index.
//! 3. **Exact scoring** — every surviving pair is scored with the same
//!    [`dot_lanes`] kernel (or the same true-ratio formula) and the same
//!    α/β/θ gates as the exact path, so pruning is *only* a candidate
//!    filter: the emitted edge set and RDF-star scores are identical in
//!    both modes, bit for bit.
//!
//! Label edges keep the exhaustive pass but computed over label
//! *equivalence classes*: one cached similarity per distinct label pair,
//! fanned out to the matching column pairs.
//!
//! # Linking decides, emission writes
//!
//! The stages above end in a list of [`Edge`]s — two column positions, a
//! predicate, a score ([`link_schema`]) — and build no quad. Writing is a
//! second step with one body, [`emit_schema`] (metadata subgraph, then four
//! quads per edge), generic over a [`QuadSink`]:
//!
//! - [`EncodedBatch`] is how the platform writes. Similarity edges are
//!   ≈ 98 % of a lake's quads and name the same few thousand column IRIs
//!   over and over, so each column IRI, the two predicates and
//!   `withCertainty` are interned once, each edge interns its score literal
//!   and its two quoted triples — each stored as the three ids in hand,
//!   keyed by them, so no IRI is copied or re-hashed — and the quads are
//!   `[u32; 4]` tuples loaded with `QuadStore::extend_encoded`. No [`Quad`]
//!   or quoted `Term` exists at any point.
//! - `Vec<Quad>` is the reference: [`data_global_schema_quads_seeded`] and
//!   [`build_data_global_schema`] emit decoded quads for
//!   `QuadStore::extend`, which is what tests, the benches' per-layer
//!   replays and anything that wants N-Quads use. Both targets load the
//!   same decoded store (`tests/encoded_emitter.rs`); `TermId`s may differ.

use std::time::Instant;

use lids_embed::{FineGrainedType, LabelEmbeddingCache, WordEmbeddings};
use lids_exec::parallel_blocks;
use lids_profiler::ColumnProfile;
use lids_rdf::{EncodedQuad, Quad, QuadStore, Term, TermId};
use lids_vector::{
    dot_lanes, scan_pairs_above, HnswConfig, Metric, RowMatrix, SearchStats, ShardedHnsw,
};

use crate::ontology::{class, data_prop, object_prop, res, Vocab};

/// How content-similarity candidates are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkingMode {
    /// Exhaustive blocked scan over every same-type cross-table pair.
    Exact,
    /// Index-pruned candidates, each verified by the exact kernel.
    Pruned,
}

/// Tuning for the staged similarity engine.
#[derive(Debug, Clone, Copy)]
pub struct LinkingConfig {
    /// Candidate-generation strategy.
    pub mode: LinkingMode,
    /// Buckets with at most this many rows use the exact scan even under
    /// [`LinkingMode::Pruned`] — below it the index build costs more than
    /// the pairs it saves.
    pub bucket_cutoff: usize,
    /// Rows per worker task in the blocked passes.
    pub block: usize,
    /// HNSW `M` (max connections per node on upper layers).
    pub hnsw_m: usize,
    /// HNSW construction beam width.
    pub hnsw_ef_construction: usize,
    /// HNSW search beam width.
    pub hnsw_ef_search: usize,
    /// Independent HNSW shards built in parallel.
    pub shards: usize,
    /// Initial `k` for the adaptive radius search over-fetch.
    pub init_k: usize,
}

impl Default for LinkingConfig {
    /// ANN recall only shapes the candidate components (the
    /// triangle-inequality bound makes the filter lossless regardless), so
    /// the defaults favour a cheap index over a high-recall one.
    fn default() -> Self {
        LinkingConfig {
            mode: LinkingMode::Pruned,
            bucket_cutoff: 192,
            block: 64,
            hnsw_m: 8,
            hnsw_ef_construction: 32,
            hnsw_ef_search: 16,
            shards: 4,
            init_k: 16,
        }
    }
}

/// Widens the HNSW radius (`1 − θ`) so float noise between the index
/// metric and the [`dot_lanes`] re-check cannot drop a true candidate;
/// the exact gate then discards anything the margin let through.
pub(crate) const RADIUS_MARGIN: f32 = 1e-3;

/// Widens the boolean sliding window (`1 − β`) the same way; `β` is f64
/// so a much smaller slack suffices.
const WINDOW_MARGIN: f64 = 1e-9;

/// Fixed level-assignment seed so pruned runs are reproducible.
pub(crate) const HNSW_SEED: u64 = 0x11d5;

/// Slack added to the Euclidean equivalent of the θ-ball (`√(2(1−θ))`) and
/// to each component radius in the triangle-inequality bound, absorbing
/// f32 rounding in centroid/radius computation. The bound only decides
/// which component pairs are *enumerated*; the exact θ gate still decides
/// every edge, so over-wide margins cost speed, never correctness.
pub(crate) const GEOM_MARGIN: f32 = 1e-4;

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

/// Construction statistics.
#[derive(Debug, Clone, Default)]
pub struct SchemaStats {
    pub columns: usize,
    /// Logical same-type cross-table pairs (the exact pass's workload).
    pub pairs_compared: usize,
    /// Content pairs that reached the exact scorer.
    pub candidates_generated: usize,
    /// Content pairs the candidate stage ruled out without scoring.
    pub pairs_pruned: usize,
    pub label_edges: usize,
    pub content_edges: usize,
    pub metadata_triples: usize,
    /// Wall-clock seconds of the label-similarity pass.
    pub label_secs: f64,
    /// Wall-clock seconds of the content-similarity pass.
    pub content_secs: f64,
    /// Per-fine-grained-type breakdown of the content pass, ordered by
    /// type label (deterministic across runs and thread counts).
    pub buckets: Vec<BucketStats>,
    /// ANN work counters aggregated over every HNSW-pruned bucket.
    pub hnsw: SearchStats,
}

/// Content-pass breakdown for one fine-grained-type bucket.
#[derive(Debug, Clone, Default)]
pub struct BucketStats {
    /// Fine-grained type label (`"int"`, `"named_entity"`, …).
    pub fgt: &'static str,
    /// Columns in the bucket eligible for content comparison.
    pub rows: usize,
    /// Cross-table pairs the exact pass would score.
    pub eligible_pairs: usize,
    /// Pairs that reached the exact scorer.
    pub candidates: usize,
    /// Pairs the candidate stage ruled out without scoring.
    pub pruned: usize,
    /// Candidate-generation strategy taken: `"exact-scan"`,
    /// `"true-ratio-window"`, or `"hnsw"`.
    pub strategy: &'static str,
    /// ANN work counters (all zero unless the strategy was `"hnsw"`).
    pub hnsw: SearchStats,
}

/// One similarity edge the linking stages decided on. The endpoints are
/// positions: profile indexes out of the batch pass, column ids out of
/// [`crate::incremental::LinkIndex`].
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
/// ([`emit_schema`] and its incremental twin) and two targets: a
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
    /// RDF-star style with `<< … >> certainty score`.
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
/// loaded with one [`QuadStore::extend_encoded`]. Per edge that is one
/// score literal and two quoted triples, each a 12-byte probe over the ids
/// in hand and on a miss a dictionary slot holding them — no term is
/// hashed once per quad it occurs in, and no [`Quad`] is ever built.
///
/// Nothing touches the store before the first node, triple or edge, so an
/// emitter with nothing to say costs a reader-pinned store no copy.
pub struct EncodedBatch<'a> {
    store: &'a mut QuadStore,
    graph: Option<TermId>,
    quads: Vec<EncodedQuad>,
}

impl<'a> EncodedBatch<'a> {
    pub fn new(store: &'a mut QuadStore) -> Self {
        EncodedBatch { store, graph: None, quads: Vec::new() }
    }

    /// The accumulated id tuples, for [`QuadStore::extend_encoded`] on the
    /// store this batch was opened on.
    pub fn into_quads(self) -> Vec<EncodedQuad> {
        self.quads
    }

    fn push(&mut self, [s, p, o]: [TermId; 3]) {
        let store = &mut *self.store;
        let g = *self.graph.get_or_insert_with(|| store.intern_default_graph());
        self.quads.push([s.0, p.0, o.0, g.0]);
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
        let forward = self.store.intern_quoted(a, pred, b);
        let backward = self.store.intern_quoted(b, pred, a);
        self.push([a, pred, b]);
        self.push([forward, certainty, score]);
        self.push([b, pred, a]);
        self.push([backward, certainty, score]);
    }
}

/// Build the data global schema into the store's default graph.
///
/// Convenience wrapper over [`data_global_schema_quads`] +
/// [`QuadStore::extend`].
pub fn build_data_global_schema(
    store: &mut QuadStore,
    profiles: &[ColumnProfile],
    config: &SchemaConfig,
    we: &WordEmbeddings,
) -> SchemaStats {
    let mut batch = Vec::new();
    let stats = data_global_schema_quads(&mut batch, profiles, config, we);
    store.extend(batch);
    stats
}

/// Emit the metadata triples of one column profile (Algorithm 3 lines
/// 2–5): the dataset/table hierarchy nodes on first sight, then the
/// column node with its type and statistics. Shared by the batch schema
/// pass, the incremental delta path, and retraction-set regeneration, so
/// the three always agree on the exact quad shapes. Returns how many
/// triples it emitted.
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
pub(crate) fn emit_metadata<S: QuadSink>(sink: &mut S, profiles: &[ColumnProfile]) -> usize {
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

/// Append the data global schema quads (default graph) to a batch.
pub fn data_global_schema_quads(
    out: &mut Vec<Quad>,
    profiles: &[ColumnProfile],
    config: &SchemaConfig,
    we: &WordEmbeddings,
) -> SchemaStats {
    data_global_schema_quads_seeded(out, profiles, config, we).0
}

/// [`data_global_schema_quads`], additionally handing back the stage-1/2
/// linking structures ([`LinkSeed`]) the pass built — the interned label
/// cache, dense table ids, and each bucket's pre-normalized matrix plus
/// (for HNSW-pruned buckets) the sharded index and candidate components —
/// so an incremental maintainer can keep linking new columns against them
/// instead of rebuilding from scratch.
pub fn data_global_schema_quads_seeded(
    out: &mut Vec<Quad>,
    profiles: &[ColumnProfile],
    config: &SchemaConfig,
    we: &WordEmbeddings,
) -> (SchemaStats, LinkSeed) {
    let (mut stats, seed, edges) = link_schema(profiles, config, we);
    stats.metadata_triples = emit_schema(out, profiles, &edges);
    (stats, seed)
}

/// Emit what [`link_schema`] decided over `profiles` (the same slice):
/// their metadata subgraph, then `edges`. Returns the number of metadata
/// triples, the pass's [`SchemaStats::metadata_triples`].
pub fn emit_schema<S: QuadSink>(sink: &mut S, profiles: &[ColumnProfile], edges: &[Edge]) -> usize {
    let col_iris: Vec<String> = profiles
        .iter()
        .map(|p| res::column(&p.meta.dataset, &p.meta.table, &p.meta.column))
        .collect();
    emit_quads(sink, profiles, edges, col_iris.len(), |i| &col_iris[i])
}

/// The linking half of the batch pass (Algorithm 3 lines 6–19): which
/// column pairs are similar, with what score — no quad is built. Returns
/// the statistics (all but `metadata_triples`, which emission counts), the
/// [`LinkSeed`], and the edges for [`emit_schema`].
pub fn link_schema(
    profiles: &[ColumnProfile],
    config: &SchemaConfig,
    we: &WordEmbeddings,
) -> (SchemaStats, LinkSeed, Vec<Edge>) {
    let mut stats = SchemaStats { columns: profiles.len(), ..Default::default() };

    // ---- pairwise similarity (Algorithm 3 lines 6–19) ----

    // Stage 1: embedding preparation. Dense table ids, and one cached
    // label embedding per *distinct* label.
    let mut table_ids: std::collections::HashMap<(&str, &str), u32> = Default::default();
    let table_of: Vec<u32> = profiles
        .iter()
        .map(|p| {
            let next = table_ids.len() as u32;
            *table_ids
                .entry((p.meta.dataset.as_str(), p.meta.table.as_str()))
                .or_insert(next)
        })
        .collect();
    let mut cache = LabelEmbeddingCache::new();
    let label_of: Vec<lids_embed::LabelId> = profiles
        .iter()
        .map(|p| cache.intern(we, &p.meta.column))
        .collect();

    let mut by_type: std::collections::HashMap<FineGrainedType, Vec<usize>> = Default::default();
    for (i, p) in profiles.iter().enumerate() {
        by_type.entry(p.fgt).or_default().push(i);
    }
    for members in by_type.values() {
        stats.pairs_compared += cross_table_pair_count(members, &table_of);
    }

    let lk = &config.linking;
    let mut edges: Vec<Edge> = Vec::new();

    // Label pass: exact and exhaustive (Algorithm 3 lines 11–12), computed
    // over *equivalence classes*. Label similarity depends only on the two
    // label strings, so columns are grouped by interned label id, each
    // distinct label pair is scored once from the cache, and the score
    // fans out to every cross-table column pair in the two groups. Same
    // edge set and scores as the naive n² loop — a lake with n columns but
    // d distinct labels pays O(d²) cosines instead of O(n²).
    let label_start = Instant::now();
    for members in by_type.values() {
        let mut by_label: std::collections::HashMap<lids_embed::LabelId, Vec<usize>> =
            Default::default();
        for &i in members {
            by_label.entry(label_of[i]).or_default().push(i);
        }
        let groups: Vec<(lids_embed::LabelId, Vec<usize>)> = by_label.into_iter().collect();
        let found = parallel_blocks(groups.len(), 1.max(lk.block / 8), |range| {
            let mut out = Vec::new();
            for pos in range {
                let (la, ga) = &groups[pos];
                for (lb, gb) in groups[pos..].iter() {
                    let sim = cache.similarity(*la, *lb);
                    if sim < config.alpha {
                        continue;
                    }
                    if la == lb {
                        for (x, &i) in ga.iter().enumerate() {
                            for &j in &ga[x + 1..] {
                                if table_of[i] != table_of[j] {
                                    out.push((i, j, sim));
                                }
                            }
                        }
                    } else {
                        for &i in ga {
                            for &j in gb {
                                if table_of[i] != table_of[j] {
                                    out.push((i, j, sim));
                                }
                            }
                        }
                    }
                }
            }
            out
        });
        for (i, j, sim) in found.into_iter().flatten() {
            edges.push(Edge {
                a: i as u32,
                b: j as u32,
                predicate: object_prop::HAS_LABEL_SIMILARITY,
                score: sim as f64,
            });
        }
    }
    stats.label_edges = edges.len();
    stats.label_secs = label_start.elapsed().as_secs_f64();

    // Content pass: candidate generation + exact re-check (lines 13–18).
    // Buckets run in type-label order so the per-bucket stats (and any
    // tie-broken float accumulation) are reproducible run to run.
    let content_start = Instant::now();
    let mut captures: Vec<BucketCapture> = Vec::new();
    let mut bucket_order: Vec<(&FineGrainedType, &Vec<usize>)> = by_type.iter().collect();
    bucket_order.sort_by_key(|(fgt, _)| fgt.label());
    for (fgt, members) in bucket_order {
        if *fgt == FineGrainedType::Boolean {
            boolean_content(profiles, members, &table_of, config, &mut edges, &mut stats, fgt.label());
        } else {
            embeddable_content(profiles, members, &table_of, config, &mut edges, &mut stats, *fgt, &mut captures);
        }
    }
    for b in &stats.buckets {
        stats.hnsw.merge(&b.hnsw);
    }
    stats.content_secs = content_start.elapsed().as_secs_f64();

    stats.content_edges = edges.len() - stats.label_edges;
    let seed = LinkSeed {
        cache,
        table_ids: table_ids
            .into_iter()
            .map(|((d, t), id)| ((d.to_string(), t.to_string()), id))
            .collect(),
        table_of,
        label_of,
        buckets: captures,
    };
    (stats, seed, edges)
}

/// The stage-1/2 structures one batch schema pass built, handed over via
/// [`data_global_schema_quads_seeded`] so incremental maintenance links
/// against the *same* label cache, table-id assignment, matrices, and
/// indexes the batch pass used.
pub struct LinkSeed {
    /// Interned label embeddings: one entry per distinct column label.
    pub cache: LabelEmbeddingCache,
    /// Dense table ids in first-appearance order (the cross-table gate's
    /// identity space).
    pub table_ids: std::collections::HashMap<(String, String), u32>,
    /// Profile index → its table id.
    pub table_of: Vec<u32>,
    /// Profile index → its interned label.
    pub label_of: Vec<lids_embed::LabelId>,
    /// Per-embeddable-bucket matrices/indexes, in type-label order.
    pub buckets: Vec<BucketCapture>,
}

/// One embeddable bucket's content-pass structures, kept alive after the
/// batch pass.
pub struct BucketCapture {
    pub fgt: FineGrainedType,
    /// Bucket row → profile index (rows with a non-empty embedding).
    pub rows: Vec<usize>,
    /// Pre-normalized CoLR vectors, one row per entry of `rows`.
    pub matrix: RowMatrix,
    /// The sharded HNSW the pruned path built (`None` for exact-scan
    /// buckets at or below the cutoff).
    pub hnsw: Option<ShardedHnsw>,
    /// The candidate components plus centroid geometry the pruned path
    /// derived (`None` for exact-scan buckets).
    pub cells: Option<CellSet>,
}

/// A partition of a bucket's rows into components with centroid/radius
/// geometry: the lossless triangle-inequality candidate filter. For a
/// query vector `q`, every stored row within the θ-ball of `q` lives in a
/// cell whose centroid is within `r_max + radius` of `q`.
pub struct CellSet {
    /// Row ids per cell; every covered row appears in exactly one cell.
    pub members: Vec<Vec<u32>>,
    /// Flat `cells × dim` centroid matrix.
    pub centroids: Vec<f32>,
    /// Max member distance to the centroid, plus `GEOM_MARGIN`.
    pub radii: Vec<f32>,
    /// Squared centroid norms, for the sqrt-free bound check.
    pub norms_sq: Vec<f32>,
    pub dim: usize,
}

/// Insert one similarity edge: both directions materialised (symmetric,
/// for cheap BGP queries), each RDF-star-annotated with its score.
/// `predicate` is the short object-property name, e.g.
/// [`object_prop::HAS_CONTENT_SIMILARITY`].
pub fn insert_similarity_edge(
    store: &mut QuadStore,
    a_iri: &str,
    b_iri: &str,
    predicate: &str,
    score: f64,
) {
    let mut batch = EncodedBatch::new(store);
    let [a, b] = [a_iri, b_iri].map(|iri| batch.node(iri));
    let pred = batch.node(&object_prop::iri(predicate));
    let certainty = batch.node(&data_prop::iri(data_prop::WITH_CERTAINTY));
    batch.edge(&a, &pred, &b, &certainty, score);
    let quads = batch.into_quads();
    store.extend_encoded(quads);
}

/// Euclidean distance between two raw f32 vectors.
pub(crate) fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f32>()
        .sqrt()
}

/// Connected components over `n` nodes and undirected `edges` (union-find
/// with path halving). Every node appears in exactly one component;
/// isolated nodes come back as singletons. Components are ordered by their
/// smallest member so downstream iteration is deterministic.
pub(crate) fn components(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for &(a, b) in edges {
        let ra = find(&mut parent, a);
        let rb = find(&mut parent, b);
        if ra != rb {
            parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }
    let mut groups: std::collections::HashMap<u32, Vec<u32>> = Default::default();
    for i in 0..n as u32 {
        groups.entry(find(&mut parent, i)).or_default().push(i);
    }
    let mut out: Vec<Vec<u32>> = groups.into_values().collect();
    out.sort_by_key(|g| g[0]);
    out
}

/// Cross-table pairs among `rows`: all pairs minus the same-table ones,
/// counted from per-table tallies in O(|rows|).
fn cross_table_pair_count(rows: &[usize], table_of: &[u32]) -> usize {
    let mut per_table: std::collections::HashMap<u32, usize> = Default::default();
    for &i in rows {
        *per_table.entry(table_of[i]).or_insert(0) += 1;
    }
    let total = rows.len() * rows.len().saturating_sub(1) / 2;
    let same: usize = per_table.values().map(|&m| m * (m - 1) / 2).sum();
    total - same
}

/// Content similarity for a boolean bucket: `1 − |true_ratio_a −
/// true_ratio_b| ≥ β`. Pruned mode sorts by true ratio and slides a
/// `1 − β` window (plus margin) as the candidate filter; candidates are
/// re-checked with the exact original predicate, so both modes emit the
/// same edges.
#[allow(clippy::too_many_arguments)]
fn boolean_content(
    profiles: &[ColumnProfile],
    members: &[usize],
    table_of: &[u32],
    config: &SchemaConfig,
    edges: &mut Vec<Edge>,
    stats: &mut SchemaStats,
    fgt: &'static str,
) {
    let rows: Vec<usize> = members
        .iter()
        .copied()
        .filter(|&i| profiles[i].stats.true_ratio.is_some())
        .collect();
    if rows.len() < 2 {
        return;
    }
    let ratio = |i: usize| profiles[i].stats.true_ratio.unwrap_or_default();
    let eligible = cross_table_pair_count(&rows, table_of);
    let lk = &config.linking;

    let push = |out: &mut Vec<Edge>, i: usize, j: usize, score: f64| {
        out.push(Edge {
            a: i as u32,
            b: j as u32,
            predicate: object_prop::HAS_CONTENT_SIMILARITY,
            score,
        });
    };

    if lk.mode == LinkingMode::Exact || rows.len() <= lk.bucket_cutoff {
        stats.candidates_generated += eligible;
        stats.buckets.push(BucketStats {
            fgt,
            rows: rows.len(),
            eligible_pairs: eligible,
            candidates: eligible,
            strategy: "exact-scan",
            ..Default::default()
        });
        let found = parallel_blocks(rows.len(), lk.block, |range| {
            let mut out = Vec::new();
            for pos in range {
                let i = rows[pos];
                for &j in &rows[pos + 1..] {
                    if table_of[i] == table_of[j] {
                        continue;
                    }
                    let sim = 1.0 - (ratio(i) - ratio(j)).abs();
                    if sim >= config.beta {
                        out.push((i, j, sim));
                    }
                }
            }
            out
        });
        for (i, j, sim) in found.into_iter().flatten() {
            push(edges, i, j, sim);
        }
    } else {
        let mut order = rows.clone();
        order.sort_by(|&a, &b| ratio(a).total_cmp(&ratio(b)));
        let window = (1.0 - config.beta) + WINDOW_MARGIN;
        let found = parallel_blocks(order.len(), lk.block, |range| {
            let mut out = Vec::new();
            let mut cand = 0usize;
            for pos in range {
                let i = order[pos];
                let ta = ratio(i);
                for &j in &order[pos + 1..] {
                    if ratio(j) - ta > window {
                        break;
                    }
                    if table_of[i] == table_of[j] {
                        continue;
                    }
                    cand += 1;
                    // the exact original gate, not the windowed one
                    let sim = 1.0 - (ta - ratio(j)).abs();
                    if sim >= config.beta {
                        out.push((i, j, sim));
                    }
                }
            }
            (out, cand)
        });
        let mut candidates = 0usize;
        for (hits, cand) in found {
            candidates += cand;
            for (i, j, sim) in hits {
                push(edges, i, j, sim);
            }
        }
        stats.candidates_generated += candidates;
        stats.pairs_pruned += eligible.saturating_sub(candidates);
        stats.buckets.push(BucketStats {
            fgt,
            rows: rows.len(),
            eligible_pairs: eligible,
            candidates,
            pruned: eligible.saturating_sub(candidates),
            strategy: "true-ratio-window",
            ..Default::default()
        });
    }
}

/// Content similarity for an embeddable bucket: CoLR cosine `≥ θ` over
/// pre-normalized vectors. Small buckets (or [`LinkingMode::Exact`]) take
/// the exact blocked scan; large buckets under [`LinkingMode::Pruned`]
/// generate candidates from a sharded HNSW radius query and re-check each
/// with the same [`dot_lanes`] kernel the exact scan uses.
#[allow(clippy::too_many_arguments)]
fn embeddable_content(
    profiles: &[ColumnProfile],
    members: &[usize],
    table_of: &[u32],
    config: &SchemaConfig,
    edges: &mut Vec<Edge>,
    stats: &mut SchemaStats,
    fgt_type: FineGrainedType,
    captures: &mut Vec<BucketCapture>,
) {
    let fgt = fgt_type.label();
    let rows: Vec<usize> = members
        .iter()
        .copied()
        .filter(|&i| !profiles[i].embedding.is_empty())
        .collect();
    if rows.is_empty() {
        return;
    }
    let dim = profiles[rows[0]].embedding.len();
    let mut m = RowMatrix::with_capacity(dim, rows.len());
    for &i in &rows {
        m.push_normalized(&profiles[i].embedding);
    }
    if rows.len() < 2 {
        // no pairs to score, but the row must stay linkable against
        captures.push(BucketCapture { fgt: fgt_type, rows, matrix: m, hnsw: None, cells: None });
        return;
    }
    let eligible = cross_table_pair_count(&rows, table_of);
    let lk = &config.linking;

    let hits: Vec<(u32, u32, f32)>;
    if lk.mode == LinkingMode::Exact || rows.len() <= lk.bucket_cutoff {
        stats.candidates_generated += eligible;
        stats.buckets.push(BucketStats {
            fgt,
            rows: rows.len(),
            eligible_pairs: eligible,
            candidates: eligible,
            strategy: "exact-scan",
            ..Default::default()
        });
        hits = scan_pairs_above(&m, config.theta, lk.block, |i, j| {
            table_of[rows[i as usize]] != table_of[rows[j as usize]]
        });
        captures.push(BucketCapture { fgt: fgt_type, rows: rows.clone(), matrix: m, hnsw: None, cells: None });
    } else {
        // Stage 2a: ANN seeding. Radius queries over the sharded HNSW
        // surface nearly every θ-pair; each unordered pair has two chances
        // to be seen (from either endpoint's query).
        let index = ShardedHnsw::build(
            &m,
            HnswConfig {
                m: lk.hnsw_m,
                ef_construction: lk.hnsw_ef_construction,
                ef_search: lk.hnsw_ef_search,
                metric: Metric::Cosine,
                seed: HNSW_SEED,
            },
            lk.shards,
        );
        let radius = (1.0 - config.theta) + RADIUS_MARGIN;
        let seeded = parallel_blocks(m.len(), lk.block, |range| {
            let mut out = Vec::new();
            let mut ann = SearchStats::default();
            for i in range {
                for hit in index.search_radius_with_stats(m.row(i), radius, lk.init_k, &mut ann) {
                    let j = hit.id as usize;
                    if j != i {
                        out.push((i.min(j) as u32, i.max(j) as u32));
                    }
                }
            }
            (out, ann)
        });
        let mut ann = SearchStats::default();
        let mut seeds: Vec<(u32, u32)> = Vec::new();
        for (block, block_ann) in seeded {
            ann.merge(&block_ann);
            seeds.extend(block);
        }

        // Stage 2b: group the seeds into connected components, then bound
        // component pairs with the triangle inequality. On pre-normalized
        // vectors `cos(a,b) ≥ θ ⇔ ‖a−b‖ ≤ √(2(1−θ))`, so for components
        // A, B with centroids c_A, c_B and radii r_A, r_B, any cross pair
        // satisfies `‖a−b‖ ≥ ‖c_A−c_B‖ − r_A − r_B`. Component pairs whose
        // centroid distance exceeds `R + r_A + r_B` provably contain no
        // θ-pair and are pruned; every other pair of columns is scored
        // exactly. ANN recall therefore affects only *speed* (worse recall
        // → more fragmented components → more cross-checks), never the
        // emitted edge set.
        let comps = components(m.len(), &seeds);
        let r_max = ((2.0 * (1.0 - config.theta as f64)).sqrt() + GEOM_MARGIN as f64) as f32;
        let dim = m.dim();
        let mut centroids: Vec<f32> = vec![0.0; comps.len() * dim];
        let mut radii: Vec<f32> = vec![0.0; comps.len()];
        for (c, members) in comps.iter().enumerate() {
            let centroid = &mut centroids[c * dim..(c + 1) * dim];
            for &i in members {
                for (acc, x) in centroid.iter_mut().zip(m.row(i as usize)) {
                    *acc += x;
                }
            }
            for x in centroid.iter_mut() {
                *x /= members.len() as f32;
            }
            radii[c] = members
                .iter()
                .map(|&i| euclidean(&centroids[c * dim..(c + 1) * dim], m.row(i as usize)))
                .fold(0.0f32, f32::max)
                + GEOM_MARGIN;
        }
        // Squared centroid norms let the bound check below run on the
        // lane-parallel dot kernel: ‖c_A−c_B‖² = ‖c_A‖² + ‖c_B‖² − 2·c_A·c_B,
        // compared against the squared threshold so no sqrt is needed.
        let norms_sq: Vec<f32> = (0..comps.len())
            .map(|c| {
                let v = &centroids[c * dim..(c + 1) * dim];
                dot_lanes(v, v)
            })
            .collect();

        let found = parallel_blocks(comps.len(), 1.max(lk.block / 8), |range| {
            let mut out = Vec::new();
            let mut cand = 0usize;
            let score_pair = |out: &mut Vec<(u32, u32, f32)>, cand: &mut usize, i: u32, j: u32| {
                if table_of[rows[i as usize]] == table_of[rows[j as usize]] {
                    return;
                }
                *cand += 1;
                // the scan's kernel: scores are bit-identical to the
                // exact path by construction
                let score = dot_lanes(m.row(i as usize), m.row(j as usize)).clamp(-1.0, 1.0);
                if score >= config.theta {
                    out.push((i.min(j), i.max(j), score));
                }
            };
            for a in range {
                let ca = &centroids[a * dim..(a + 1) * dim];
                for (x, &i) in comps[a].iter().enumerate() {
                    for &j in &comps[a][x + 1..] {
                        score_pair(&mut out, &mut cand, i, j);
                    }
                }
                for b in a + 1..comps.len() {
                    let cb = &centroids[b * dim..(b + 1) * dim];
                    let t = r_max + radii[a] + radii[b];
                    let d2 = norms_sq[a] + norms_sq[b] - 2.0 * dot_lanes(ca, cb);
                    if d2 > t * t {
                        continue;
                    }
                    for &i in &comps[a] {
                        for &j in &comps[b] {
                            score_pair(&mut out, &mut cand, i, j);
                        }
                    }
                }
            }
            (out, cand)
        });
        let mut candidates = 0usize;
        let mut all = Vec::new();
        for (block, cand) in found {
            candidates += cand;
            all.extend(block);
        }
        hits = all;
        stats.candidates_generated += candidates;
        stats.pairs_pruned += eligible.saturating_sub(candidates);
        stats.buckets.push(BucketStats {
            fgt,
            rows: rows.len(),
            eligible_pairs: eligible,
            candidates,
            pruned: eligible.saturating_sub(candidates),
            strategy: "hnsw",
            hnsw: ann,
        });
        captures.push(BucketCapture {
            fgt: fgt_type,
            rows: rows.clone(),
            matrix: m,
            hnsw: Some(index),
            cells: Some(CellSet { members: comps, centroids, radii, norms_sq, dim }),
        });
    }

    for (i, j, score) in hits {
        edges.push(Edge {
            a: rows[i as usize] as u32,
            b: rows[j as usize] as u32,
            predicate: object_prop::HAS_CONTENT_SIMILARITY,
            score: score as f64,
        });
    }
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

    #[test]
    fn shared_edge_helper_inserts_both_directions() {
        let mut store = QuadStore::new();
        insert_similarity_edge(
            &mut store,
            "urn:a",
            "urn:b",
            object_prop::HAS_CONTENT_SIMILARITY,
            0.95,
        );
        let pred = Term::iri(object_prop::iri(object_prop::HAS_CONTENT_SIMILARITY));
        for (s, o) in [("urn:a", "urn:b"), ("urn:b", "urn:a")] {
            let plain = store
                .match_pattern(
                    &QuadPattern::any()
                        .with_subject(Term::iri(s))
                        .with_predicate(pred.clone())
                        .with_object(Term::iri(o)),
                )
                .count();
            assert_eq!(plain, 1, "{s} → {o}");
            let star = store
                .match_pattern(&QuadPattern::any().with_subject(Term::quoted(
                    Term::iri(s),
                    pred.clone(),
                    Term::iri(o),
                )))
                .next()
                .unwrap();
            assert_eq!(star.object.as_literal().unwrap().as_f64().unwrap(), 0.95);
        }
    }
}
