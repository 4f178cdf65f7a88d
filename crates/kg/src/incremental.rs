//! Incremental maintenance of the data global schema.
//!
//! [`LinkIndex`] keeps the batch schema pass's stage-1/2 structures alive
//! after bootstrap — the interned label cache, the dense table-id
//! assignment, and each embeddable bucket's pre-normalized [`RowMatrix`],
//! sharded HNSW, and candidate-component geometry (adopted verbatim via
//! [`crate::schema::data_global_schema_quads_seeded`]) — so a delta of new
//! columns links against the existing lake without re-scoring old-old
//! pairs. An index that has never held a column ([`LinkIndex::new`]) runs
//! that batch pass itself on its first [`LinkIndex::link_columns`] and
//! adopts the seed: bootstrap is the first delta, and which pass a delta
//! takes is decided here, from the index's own state.
//!
//! # Exactness
//!
//! Incremental linking emits *exactly* the edges a from-scratch rebuild
//! over the final profile set would emit, because both sides of the PR 3
//! guarantee carry over:
//!
//! 1. **The kernels are identical and symmetric.** Label similarity is
//!    the cached decision tree of [`LabelEmbeddingCache::similarity`]
//!    (depends only on the two label strings); boolean content is
//!    `1 − |ratio_a − ratio_b|`; embeddable content is
//!    [`dot_lanes`]` (a, b).clamp(-1, 1)` over vectors normalized once by
//!    [`RowMatrix::push_normalized`]. None depends on insertion order or
//!    on which endpoint plays "query".
//! 2. **The candidate filter is lossless.** A new column `q` is scored
//!    against every live column its fine-grained-type bucket could pair
//!    it with: small buckets scan exhaustively; large buckets use the
//!    cell bound — for cosine `≥ θ` on unit vectors, `‖q − r‖ ≤
//!    √(2(1−θ))`, and any covered row `r` lives in a cell with centroid
//!    `c` and radius `ρ ≥ ‖r − c‖`, so `‖q − c‖ ≤ √(2(1−θ)) + ρ` by the
//!    triangle inequality. Cells outside that bound (with the same float
//!    margins the batch pass uses) provably hold no θ-partner; rows not
//!    yet covered by cells are scored unconditionally. HNSW recall
//!    therefore affects cell *shape* (speed), never the edge set.
//!
//! Since [`QuadSink::edge`] materialises each edge symmetrically (both
//! directions plus both RDF-star annotations), the emitted quad set is
//! independent of pair orientation, and the store deduplicates re-emitted
//! metadata — so `apply_delta` and full rebuild converge on bit-identical
//! decoded quad sets (pinned by the `incremental_differential` suite).
//!
//! # Linking decides, emission writes
//!
//! [`LinkIndex::link_columns`] only decides: it returns the delta's
//! similarity edges as `(column id, column id, predicate, score)` and
//! builds no quad. [`LinkIndex::emit_columns`] writes them — with the new
//! columns' metadata — through the one emitter body of
//! [`crate::schema`] into a [`QuadSink`]: an
//! [`crate::schema::EncodedBatch`] of id tuples on the platform's write
//! path, a `Vec<Quad>` ([`LinkIndex::add_columns`]) for tests and replays.
//!
//! Retraction runs the other way, and in id space throughout:
//! [`retraction_ids`] regenerates a removed dataset's metadata quads and
//! resolves them to ids, collects its similarity edges and RDF-star
//! annotations, its pipelines' named graphs and default-graph metadata,
//! and its quarantine provenance records with id-level scans, producing
//! the batch a single [`lids_rdf::QuadStore::retract_encoded`] withdraws.
//! [`retraction_quads`] is that batch decoded.

// This module sits on the always-on ingestion path: a panic here would
// take down delta ingest for every live reader, so recoverable paths may
// not unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{HashMap, HashSet};

use lids_embed::{FineGrainedType, LabelEmbeddingCache, LabelId, WordEmbeddings};
use lids_profiler::ColumnProfile;
use lids_rdf::{EncodedPattern, EncodedQuad, Quad, StoreSnapshot, TermId};
use lids_vector::{dot_lanes, HnswConfig, Metric, RowMatrix, SearchStats, ShardedHnsw};

use crate::ontology::{object_prop, res};
use crate::provenance::{artifact_iri, QUARANTINE_GRAPH};
use crate::schema::{
    components, emit_metadata, emit_quads, euclidean, link_schema, CellSet, Edge, LinkSeed, QuadSink,
    SchemaConfig, SchemaStats, GEOM_MARGIN, HNSW_SEED, RADIUS_MARGIN,
};

/// Identity of one column the index has ever seen (dead ones stay, so row
/// and column ids remain stable).
struct ColRef {
    dataset: String,
    iri: String,
    table: u32,
    label: LabelId,
    fgt: FineGrainedType,
    true_ratio: Option<f64>,
    /// Row index inside its type's [`EmbedBucket`], when the column has a
    /// content embedding.
    row: Option<u32>,
}

/// One embeddable fine-grained-type bucket's persistent structures.
struct EmbedBucket {
    /// Pre-normalized vectors, append-only; dead rows keep their slot.
    matrix: RowMatrix,
    /// Row → global column id.
    cols: Vec<u32>,
    row_alive: Vec<bool>,
    /// Sharded HNSW over the rows, incrementally extended and
    /// tombstone-filtered. Built lazily once the bucket outgrows the
    /// exact-scan cutoff.
    hnsw: Option<ShardedHnsw>,
    /// Cell geometry covering rows `< cell_rows`; rows at or past
    /// `cell_rows` are *pending* and always scored exactly.
    cells: Option<CellSet>,
    cell_rows: usize,
}

impl EmbedBucket {
    fn new(dim: usize) -> Self {
        EmbedBucket {
            matrix: RowMatrix::new(dim),
            cols: Vec::new(),
            row_alive: Vec::new(),
            hnsw: None,
            cells: None,
            cell_rows: 0,
        }
    }
}

/// Work counters for one [`LinkIndex::add_columns`] call.
#[derive(Debug, Clone, Default)]
pub struct DeltaLinkStats {
    pub columns_added: usize,
    pub metadata_triples: usize,
    pub label_edges: usize,
    pub content_edges: usize,
    /// Column pairs that reached the exact scorer (the delta's
    /// `relink_candidates`).
    pub candidates: usize,
    /// Buckets whose cell geometry was recomputed this call.
    pub cell_rebuilds: usize,
    /// ANN work spent on cell rebuilds (on the batch pass: on candidate
    /// generation).
    pub hnsw: SearchStats,
    /// The batch pass's own statistics, when this call took it (see
    /// [`LinkIndex::link_columns`]).
    pub batch: Option<SchemaStats>,
}

/// The persistent linking index: everything stage 2 needs to link a new
/// column against the current lake, kept alive across deltas.
pub struct LinkIndex {
    config: SchemaConfig,
    cache: LabelEmbeddingCache,
    table_ids: HashMap<(String, String), u32>,
    cols: Vec<ColRef>,
    alive: Vec<bool>,
    /// Live columns grouped by interned label, per fine-grained type —
    /// the label pass's equivalence classes.
    label_groups: HashMap<FineGrainedType, HashMap<LabelId, Vec<u32>>>,
    embed: HashMap<FineGrainedType, EmbedBucket>,
}

impl LinkIndex {
    /// An index that has never held a column — what a platform starts
    /// from. Its first [`LinkIndex::link_columns`] is a batch pass.
    pub fn new(config: SchemaConfig) -> Self {
        LinkIndex {
            config,
            cache: LabelEmbeddingCache::new(),
            table_ids: HashMap::new(),
            cols: Vec::new(),
            alive: Vec::new(),
            label_groups: HashMap::new(),
            embed: HashMap::new(),
        }
    }

    /// Adopt the structures a batch schema pass built over `profiles`
    /// (the same slice, in the same order, that produced `seed`).
    pub fn from_seed(seed: LinkSeed, profiles: &[ColumnProfile], config: SchemaConfig) -> Self {
        let mut cols: Vec<ColRef> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| ColRef {
                dataset: p.meta.dataset.clone(),
                iri: res::column(&p.meta.dataset, &p.meta.table, &p.meta.column),
                table: seed.table_of[i],
                label: seed.label_of[i],
                fgt: p.fgt,
                true_ratio: p.stats.true_ratio,
                row: None,
            })
            .collect();
        let mut label_groups: HashMap<FineGrainedType, HashMap<LabelId, Vec<u32>>> =
            HashMap::new();
        for (i, col) in cols.iter().enumerate() {
            label_groups
                .entry(col.fgt)
                .or_default()
                .entry(col.label)
                .or_default()
                .push(i as u32);
        }
        let mut embed: HashMap<FineGrainedType, EmbedBucket> = HashMap::new();
        for capture in seed.buckets {
            let cell_rows = if capture.cells.is_some() { capture.matrix.len() } else { 0 };
            let mut bucket = EmbedBucket {
                matrix: capture.matrix,
                cols: Vec::with_capacity(capture.rows.len()),
                row_alive: vec![true; capture.rows.len()],
                hnsw: capture.hnsw,
                cells: capture.cells,
                cell_rows,
            };
            for (row, &pi) in capture.rows.iter().enumerate() {
                bucket.cols.push(pi as u32);
                cols[pi].row = Some(row as u32);
            }
            embed.insert(capture.fgt, bucket);
        }
        let alive = vec![true; cols.len()];
        LinkIndex { config, cache: seed.cache, table_ids: seed.table_ids, cols, alive, label_groups, embed }
    }

    /// Live (non-retracted) columns currently indexed.
    pub fn live_columns(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Link a batch of new column profiles against the lake: appends
    /// their metadata quads and every similarity edge involving a new
    /// column to `out`, and registers the columns for future deltas.
    /// [`LinkIndex::link_columns`] + [`LinkIndex::emit_columns`] with a
    /// `Vec<Quad>` as the target.
    pub fn add_columns(
        &mut self,
        out: &mut Vec<Quad>,
        profiles: &[ColumnProfile],
        we: &WordEmbeddings,
    ) -> DeltaLinkStats {
        let (mut stats, edges) = self.link_columns(profiles, we);
        stats.metadata_triples = self.emit_columns(out, profiles, &edges);
        stats
    }

    /// Emit what [`LinkIndex::link_columns`] decided over `profiles` (the
    /// same slice): their metadata subgraph (idempotent against what
    /// bootstrap already emitted; the store deduplicates), then `edges`.
    /// Returns the number of metadata triples.
    pub fn emit_columns<S: QuadSink>(
        &self,
        sink: &mut S,
        profiles: &[ColumnProfile],
        edges: &[Edge],
    ) -> usize {
        emit_quads(sink, profiles, edges, self.cols.len(), |c| &self.cols[c].iri)
    }

    /// The linking half of a delta: scores each new column against the
    /// lake and registers it for future deltas — no quad is built. Returns
    /// the work counters (all but `metadata_triples`, which emission
    /// counts) and every similarity edge involving a new column, endpoints
    /// as column ids, for [`LinkIndex::emit_columns`]. Columns are
    /// processed in order, so intra-batch pairs are covered exactly once
    /// (each column is scored against all columns registered before it).
    ///
    /// An index that has never held a column has no structure to link
    /// against, and every row of its first batch would be pending: scored
    /// serially against all rows before it. That batch is the batch pass's
    /// problem — [`link_schema`], parallel and pruned — whose seed the
    /// index then adopts. Profile positions are column ids there, so the
    /// edges read the same either way, and which pass ran shows only in
    /// [`DeltaLinkStats::batch`].
    pub fn link_columns(
        &mut self,
        profiles: &[ColumnProfile],
        we: &WordEmbeddings,
    ) -> (DeltaLinkStats, Vec<Edge>) {
        if self.cols.is_empty() {
            let (batch, seed, edges) = link_schema(profiles, &self.config, we);
            *self = LinkIndex::from_seed(seed, profiles, self.config);
            let stats = DeltaLinkStats {
                columns_added: profiles.len(),
                label_edges: batch.label_edges,
                content_edges: batch.content_edges,
                candidates: batch.candidates_generated,
                hnsw: batch.hnsw,
                batch: Some(batch),
                ..Default::default()
            };
            return (stats, edges);
        }
        let mut stats = DeltaLinkStats { columns_added: profiles.len(), ..Default::default() };
        let mut edges: Vec<Edge> = Vec::new();
        let r_max =
            ((2.0 * (1.0 - self.config.theta as f64)).sqrt() + GEOM_MARGIN as f64) as f32;
        let mut touched: HashSet<FineGrainedType> = HashSet::new();

        for p in profiles {
            let iri = res::column(&p.meta.dataset, &p.meta.table, &p.meta.column);
            let next_table = self.table_ids.len() as u32;
            let table = *self
                .table_ids
                .entry((p.meta.dataset.clone(), p.meta.table.clone()))
                .or_insert(next_table);
            let label = self.cache.intern(we, &p.meta.column);
            let cid = self.cols.len() as u32;

            // Label pass: one cached similarity per distinct live label,
            // fanned out to that label's cross-table columns.
            if let Some(groups) = self.label_groups.get(&p.fgt) {
                for (&lid, members) in groups {
                    let sim = self.cache.similarity(label, lid);
                    if sim < self.config.alpha {
                        continue;
                    }
                    for &c in members {
                        let col = &self.cols[c as usize];
                        if self.alive[c as usize] && col.table != table {
                            stats.label_edges += 1;
                            edges.push(Edge {
                                a: cid,
                                b: c,
                                predicate: object_prop::HAS_LABEL_SIMILARITY,
                                score: sim as f64,
                            });
                        }
                    }
                }
            }

            // Content pass.
            if p.fgt == FineGrainedType::Boolean {
                if let Some(ratio) = p.stats.true_ratio {
                    for (c, col) in self.cols.iter().enumerate() {
                        if !self.alive[c]
                            || col.fgt != FineGrainedType::Boolean
                            || col.table == table
                        {
                            continue;
                        }
                        let Some(other) = col.true_ratio else { continue };
                        stats.candidates += 1;
                        // the batch pass's exact gate and score
                        let sim = 1.0 - (ratio - other).abs();
                        if sim >= self.config.beta {
                            stats.content_edges += 1;
                            edges.push(Edge {
                                a: cid,
                                b: c as u32,
                                predicate: object_prop::HAS_CONTENT_SIMILARITY,
                                score: sim,
                            });
                        }
                    }
                }
            } else if !p.embedding.is_empty() {
                touched.insert(p.fgt);
                let bucket = self
                    .embed
                    .entry(p.fgt)
                    .or_insert_with(|| EmbedBucket::new(p.embedding.len()));
                let row = bucket.matrix.len();
                bucket.matrix.push_normalized(&p.embedding);
                bucket.cols.push(cid);
                bucket.row_alive.push(true);
                if let Some(h) = bucket.hnsw.as_mut() {
                    h.add(row as u64, bucket.matrix.row(row));
                }
                let q = bucket.matrix.row(row);
                // Candidates: cell-bounded rows plus everything pending.
                let candidate_rows: Vec<usize> = match &bucket.cells {
                    None => (0..row).collect(),
                    Some(cells) => {
                        let qq = dot_lanes(q, q);
                        let dim = cells.dim;
                        let mut cand: Vec<usize> = Vec::new();
                        for (ci, members) in cells.members.iter().enumerate() {
                            let centroid = &cells.centroids[ci * dim..(ci + 1) * dim];
                            // the batch pass's component-pair bound with
                            // the query as a singleton of radius
                            // GEOM_MARGIN
                            let t = r_max + cells.radii[ci] + GEOM_MARGIN;
                            let d2 = qq + cells.norms_sq[ci] - 2.0 * dot_lanes(q, centroid);
                            if d2 > t * t {
                                continue;
                            }
                            cand.extend(members.iter().map(|&r| r as usize));
                        }
                        cand.extend(bucket.cell_rows..row);
                        cand
                    }
                };
                for j in candidate_rows {
                    if !bucket.row_alive[j] {
                        continue;
                    }
                    let cj = bucket.cols[j] as usize;
                    if self.cols[cj].table == table {
                        continue;
                    }
                    stats.candidates += 1;
                    // the scan's kernel: scores are bit-identical to the
                    // batch path by construction
                    let score = dot_lanes(q, bucket.matrix.row(j)).clamp(-1.0, 1.0);
                    if score >= self.config.theta {
                        stats.content_edges += 1;
                        edges.push(Edge {
                            a: cid,
                            b: cj as u32,
                            predicate: object_prop::HAS_CONTENT_SIMILARITY,
                            score: score as f64,
                        });
                    }
                }
            }

            // Register for future deltas (and for later columns of this
            // same batch).
            self.label_groups.entry(p.fgt).or_default().entry(label).or_default().push(cid);
            let row = self.embed.get(&p.fgt).and_then(|b| {
                (b.cols.last() == Some(&cid)).then(|| (b.cols.len() - 1) as u32)
            });
            self.cols.push(ColRef {
                dataset: p.meta.dataset.clone(),
                iri,
                table,
                label,
                fgt: p.fgt,
                true_ratio: p.stats.true_ratio,
                row,
            });
            self.alive.push(true);
        }

        for fgt in touched {
            self.maybe_rebuild(fgt, &mut stats);
        }
        (stats, edges)
    }

    /// Tombstone every column of `dataset`: drops it from the label
    /// groups, marks its matrix rows dead, and tombstones its HNSW
    /// entries. Returns how many columns were retracted.
    pub fn remove_dataset(&mut self, dataset: &str) -> usize {
        let mut removed = 0usize;
        for cid in 0..self.cols.len() {
            if !self.alive[cid] || self.cols[cid].dataset != dataset {
                continue;
            }
            self.alive[cid] = false;
            removed += 1;
            let col = &self.cols[cid];
            if let Some(groups) = self.label_groups.get_mut(&col.fgt) {
                if let Some(members) = groups.get_mut(&col.label) {
                    members.retain(|&c| c != cid as u32);
                    if members.is_empty() {
                        groups.remove(&col.label);
                    }
                }
            }
            if let Some(row) = col.row {
                if let Some(bucket) = self.embed.get_mut(&col.fgt) {
                    bucket.row_alive[row as usize] = false;
                    if let Some(h) = bucket.hnsw.as_mut() {
                        h.remove(row as u64);
                    }
                }
            }
        }
        removed
    }

    /// Recompute a bucket's cell geometry when enough rows are pending
    /// that per-query exact scans of the pending tail start to dominate.
    /// Cells are a pure candidate filter, so the policy here trades speed
    /// only — correctness never depends on when (or whether) this runs.
    fn maybe_rebuild(&mut self, fgt: FineGrainedType, stats: &mut DeltaLinkStats) {
        let lk = self.config.linking;
        let Some(bucket) = self.embed.get_mut(&fgt) else {
            return;
        };
        let n = bucket.matrix.len();
        let live = bucket.row_alive.iter().filter(|a| **a).count();
        if live <= lk.bucket_cutoff {
            return;
        }
        let pending = n - if bucket.cells.is_some() { bucket.cell_rows } else { 0 };
        if pending * 2 <= n {
            return;
        }
        if bucket.hnsw.is_none() {
            // first time past the cutoff: build the index, then tombstone
            // already-dead rows
            let mut h = ShardedHnsw::build(
                &bucket.matrix,
                HnswConfig {
                    m: lk.hnsw_m,
                    ef_construction: lk.hnsw_ef_construction,
                    ef_search: lk.hnsw_ef_search,
                    metric: Metric::Cosine,
                    seed: HNSW_SEED,
                },
                lk.shards,
            );
            for (r, alive) in bucket.row_alive.iter().enumerate() {
                if !alive {
                    h.remove(r as u64);
                }
            }
            bucket.hnsw = Some(h);
        }
        let Some(h) = bucket.hnsw.as_ref() else {
            return;
        };
        let radius = (1.0 - self.config.theta) + RADIUS_MARGIN;
        let mut seeds: Vec<(u32, u32)> = Vec::new();
        for i in 0..n {
            if !bucket.row_alive[i] {
                continue;
            }
            for hit in h.search_radius_with_stats(bucket.matrix.row(i), radius, lk.init_k, &mut stats.hnsw) {
                let j = hit.id as usize;
                if j != i {
                    seeds.push((i.min(j) as u32, i.max(j) as u32));
                }
            }
        }
        let dim = bucket.matrix.dim();
        let mut members_out: Vec<Vec<u32>> = Vec::new();
        let mut centroids: Vec<f32> = Vec::new();
        let mut radii: Vec<f32> = Vec::new();
        let mut norms_sq: Vec<f32> = Vec::new();
        for comp in components(n, &seeds) {
            let live_members: Vec<u32> =
                comp.into_iter().filter(|&r| bucket.row_alive[r as usize]).collect();
            if live_members.is_empty() {
                continue;
            }
            let mut centroid = vec![0.0f32; dim];
            for &r in &live_members {
                for (acc, x) in centroid.iter_mut().zip(bucket.matrix.row(r as usize)) {
                    *acc += x;
                }
            }
            for x in centroid.iter_mut() {
                *x /= live_members.len() as f32;
            }
            let radius_c = live_members
                .iter()
                .map(|&r| euclidean(&centroid, bucket.matrix.row(r as usize)))
                .fold(0.0f32, f32::max)
                + GEOM_MARGIN;
            norms_sq.push(dot_lanes(&centroid, &centroid));
            radii.push(radius_c);
            centroids.extend_from_slice(&centroid);
            members_out.push(live_members);
        }
        bucket.cells = Some(CellSet { members: members_out, centroids, radii, norms_sq, dim });
        bucket.cell_rows = n;
        stats.cell_rebuilds += 1;
    }
}

/// Collect every quad a dataset's removal must withdraw, as id tuples of
/// `snap` — the batch one [`lids_rdf::QuadStore::retract_encoded`] drops:
///
/// - its metadata subgraph, regenerated from the retained `profiles` via
///   the same emitter bootstrap used (dataset/table/column hierarchy and
///   statistics) and resolved against the dictionary — a regenerated quad
///   naming a term the store never saw cannot be present and is left out;
/// - every similarity edge incident to one of its columns, in both
///   directions, plus the matching RDF-star score annotations, whose
///   quoted subject costs one dictionary probe by the edge's own ids;
/// - each of its pipelines (found via `aboutDataset`): the default-graph
///   metadata quads and the pipeline's entire named graph (statements and
///   verified `readsTable`/`readsColumn` edges), scanned by graph id;
/// - its quarantine provenance records (artifact ids prefixed
///   `<dataset>/` inside [`QUARANTINE_GRAPH`]).
///
/// No term is decoded or re-hashed on the way, bar the quarantine
/// subjects' prefix test. The result may contain duplicates (an edge
/// between two removed columns is collected from both endpoints); batch
/// retraction deduplicates.
pub fn retraction_ids(
    snap: &StoreSnapshot,
    dataset: &str,
    profiles: &[ColumnProfile],
) -> Vec<EncodedQuad> {
    let dict = snap.dictionary();

    // metadata subgraph, regenerated with fresh dedup state
    let mut metadata: Vec<Quad> = Vec::new();
    emit_metadata(&mut metadata, profiles);
    let mut out: Vec<EncodedQuad> =
        metadata.iter().filter_map(|quad| snap.encode_quad(quad)).collect();

    // similarity edges touching this dataset's columns, plus their
    // RDF-star annotations
    let preds = [object_prop::HAS_CONTENT_SIMILARITY, object_prop::HAS_LABEL_SIMILARITY]
        .map(|name| dict.id_of_iri(&object_prop::iri(name)));
    for profile in profiles {
        let meta = &profile.meta;
        let column = res::column(&meta.dataset, &meta.table, &meta.column);
        let Some(c) = dict.id_of_iri(&column) else { continue };
        for pred in preds.into_iter().flatten() {
            let outgoing =
                EncodedPattern { subject: Some(c), predicate: Some(pred), ..Default::default() };
            let incoming =
                EncodedPattern { predicate: Some(pred), object: Some(c), ..Default::default() };
            for quad in snap.match_ids(&outgoing).chain(snap.match_ids(&incoming)) {
                let [s, p, o, _] = quad.map(TermId);
                if let Some(star) = dict.id_of_quoted(s, p, o) {
                    let annotations = EncodedPattern { subject: Some(star), ..Default::default() };
                    out.extend(snap.match_ids(&annotations));
                }
                out.push(quad);
            }
        }
    }

    // pipelines about this dataset: default-graph metadata + named graph
    // (whose id in the graph slot is the pipeline IRI's own)
    let about = dict.id_of_iri(&object_prop::iri(object_prop::ABOUT_DATASET));
    let ds = dict.id_of_iri(&res::dataset(dataset));
    if let (Some(about), Some(ds)) = (about, ds) {
        let default_graph = snap.default_graph_id();
        let of_dataset =
            EncodedPattern { predicate: Some(about), object: Some(ds), ..Default::default() };
        for [pipe, ..] in snap.match_ids(&of_dataset) {
            let pipe = TermId(pipe);
            if default_graph.is_some() {
                let metadata =
                    EncodedPattern { subject: Some(pipe), graph: default_graph, ..Default::default() };
                out.extend(snap.match_ids(&metadata));
            }
            if snap.term(pipe).as_iri().is_some() {
                let graph = EncodedPattern { graph: Some(pipe), ..Default::default() };
                out.extend(snap.match_ids(&graph));
            }
        }
    }

    // quarantine provenance whose artifact id starts with "<dataset>/"
    if let Some(quarantine) = dict.id_of_iri(QUARANTINE_GRAPH) {
        let prefix = format!("{}/", artifact_iri(dataset));
        let records = EncodedPattern { graph: Some(quarantine), ..Default::default() };
        out.extend(snap.match_ids(&records).filter(|&[s, ..]| {
            snap.term(TermId(s)).as_iri().is_some_and(|iri| iri.starts_with(&prefix))
        }));
    }
    out
}

/// [`retraction_ids`], decoded: the removal batch as [`Quad`]s, for
/// callers without a store to retract from in id space.
pub fn retraction_quads(
    snap: &StoreSnapshot,
    dataset: &str,
    profiles: &[ColumnProfile],
) -> Vec<Quad> {
    retraction_ids(snap, dataset, profiles).into_iter().map(|quad| snap.decode_quad(quad)).collect()
}
