//! Algorithm 3's linker: [`LinkIndex`], the one implementation of the
//! similarity half of the data global schema.
//!
//! The index holds every column it has linked: the interned label cache,
//! dense table ids, each fine-grained type's label classes and, per
//! embeddable type, a bucket of pre-normalized CoLR vectors — plus, once the
//! bucket outgrows [`LinkingConfig::bucket_cutoff`] under
//! [`LinkingMode::Pruned`], a sharded HNSW and the cell geometry derived from
//! it. [`LinkIndex::link_columns`] takes one path for every batch, from the
//! first fill of an empty index to a one-column delta:
//!
//! 1. **Register** the new columns: table ids, interned labels, label
//!    classes, bucket rows and HNSW inserts.
//! 2. **Refresh the cells** of each touched bucket that is past the cutoff
//!    and more than half *pending* (rows its cells do not cover yet):
//!    radius queries over the HNSW from every live row, the hits grouped
//!    into connected components, each component given a centroid, a radius
//!    and a squared norm. A first fill is all pending, so it builds them.
//! 3. **Score** only the pairs with at least one new endpoint, in parallel
//!    blocks:
//!    - label classes pairwise: one cached similarity per pair of classes,
//!      gated by `α` and fanned out to their cross-table columns;
//!    - booleans by `1 − |ratio_a − ratio_b| ≥ β`, through a sliding
//!      true-ratio window of width `1 − β` in a large pruned bucket;
//!    - embeddable columns by [`dot_lanes`] cosine `≥ θ`, over the cell
//!      pairs the triangle-inequality bound admits, each pending row a
//!      singleton cell. A bucket without cells (at or below the cutoff, or
//!      any bucket under [`LinkingMode::Exact`]) pairs every new row with
//!      every live row.
//!
//! A first fill therefore does a from-scratch pass's work pair for pair,
//! and a delta never scores an old–old pair again.
//!
//! # Exactness
//!
//! Any schedule of batches emits *exactly* the edges one fill of the final
//! profile set emits, and [`LinkingMode::Pruned`] exactly those of
//! [`LinkingMode::Exact`]:
//!
//! 1. **The kernels are identical and symmetric.** Label similarity is the
//!    cached decision tree of [`LabelEmbeddingCache::similarity`] (it
//!    depends only on the two label strings); boolean content is
//!    `1 − |ratio_a − ratio_b|`; embeddable content is
//!    [`dot_lanes`]` (a, b).clamp(-1, 1)` over vectors normalized once by
//!    [`RowMatrix::push_normalized`]. None depends on batch boundaries or
//!    on which endpoint is new.
//! 2. **The candidate filter is lossless.** For cosine `≥ θ` on unit
//!    vectors, `‖a − b‖ ≤ √(2(1−θ))`. A row in a cell with centroid `c` and
//!    radius `ρ` is within `ρ` of `c`, so by the triangle inequality two
//!    cells whose centroids lie further apart than `√(2(1−θ)) + ρ_A + ρ_B`
//!    (plus a float margin) hold no θ-pair between them. HNSW recall
//!    therefore shapes the cells (speed), never the edge set. The boolean
//!    window is widened the same way, and every candidate meets the exact
//!    `α`/`β`/`θ` gate.
//! 3. **Every pair with a new endpoint is enumerated once.** A group's
//!    members ascend, so its new members are a suffix; a pair of groups is
//!    visited from the first one holding new members.
//!
//! Since [`QuadSink::edge`] materialises each edge symmetrically (both
//! directions plus both RDF-star annotations), the emitted quad set is
//! independent of pair orientation, and the store deduplicates re-emitted
//! metadata — so `apply_delta` and a full rebuild converge on identical
//! decoded quad sets (pinned by the `incremental_differential` suite).
//!
//! # Linking decides, emission writes
//!
//! [`LinkIndex::link_columns`] only decides: it returns the batch's
//! similarity edges as `(column id, column id, predicate, score)` and
//! builds no quad. [`LinkIndex::emit_columns`] writes them — with the new
//! columns' metadata — through the one emitter body of [`crate::schema`]
//! into a [`QuadSink`]: an [`crate::schema::EncodedBatch`] of id tuples on
//! the platform's write path, a `Vec<Quad>` ([`LinkIndex::add_columns`])
//! for tests and replays.
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

use std::collections::HashMap;

use lids_embed::{FineGrainedType, LabelEmbeddingCache, LabelId, WordEmbeddings};
use lids_exec::parallel_blocks;
use lids_profiler::ColumnProfile;
use lids_rdf::{EncodedAnnotation, EncodedPattern, EncodedQuad, Quad, StoreSnapshot, TermId};
use lids_vector::{dot_lanes, HnswConfig, Metric, RowMatrix, SearchStats, ShardedHnsw};

use crate::ontology::{object_prop, res};
use crate::provenance::{artifact_iri, QUARANTINE_GRAPH};
#[cfg(doc)]
use crate::schema::{data_global_schema_quads_seeded, LinkingConfig};
use crate::schema::{
    emit_metadata, emit_quads, BucketStats, Edge, LinkingMode, QuadSink, SchemaConfig, SchemaStats,
};

/// Widens the HNSW radius (`1 − θ`) so float noise between the index
/// metric and the [`dot_lanes`] re-check cannot drop a true candidate;
/// the exact gate then discards anything the margin let through.
const RADIUS_MARGIN: f32 = 1e-3;

/// Widens the boolean sliding window (`1 − β`) the same way; `β` is f64
/// so a much smaller slack suffices.
const WINDOW_MARGIN: f64 = 1e-9;

/// Fixed level-assignment seed so pruned runs are reproducible.
const HNSW_SEED: u64 = 0x11d5;

/// The HNSW index shape. ANN recall only shapes the candidate components
/// (the triangle-inequality bound makes the filter lossless regardless),
/// so it favours a cheap index over a high-recall one: `M` (max
/// connections per node on upper layers), the construction and search
/// beam widths, and the independent shards built in parallel.
const HNSW_M: usize = 8;
const HNSW_EF_CONSTRUCTION: usize = 32;
const HNSW_EF_SEARCH: usize = 16;
const HNSW_SHARDS: usize = 4;

/// Rows (or pair groups) per worker task in the blocked passes.
const BLOCK: usize = 64;

/// Slack added to the Euclidean equivalent of the θ-ball (`√(2(1−θ))`) and
/// to each cell radius in the triangle-inequality bound, absorbing f32
/// rounding in centroid/radius computation; a pending row is a singleton
/// cell of exactly this radius. The bound only decides which cell pairs
/// are *enumerated*; the exact θ gate still decides every edge, so
/// over-wide margins cost speed, never correctness.
const GEOM_MARGIN: f32 = 1e-4;

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
    /// tombstone-filtered. Built with the bucket's first cells.
    hnsw: Option<ShardedHnsw>,
    /// Cell geometry covering the live rows `< cell_rows`; rows at or past
    /// `cell_rows` are *pending*.
    cells: Option<CellSet>,
    cell_rows: usize,
}

/// A partition of a bucket's live rows into cells, each with its centroid,
/// its radius (max member distance to the centroid, plus `GEOM_MARGIN`)
/// and its squared centroid norm, for the sqrt-free bound check.
struct CellSet {
    /// Member rows per cell, ascending.
    members: Vec<Vec<u32>>,
    /// Flat `cells × dim` centroid matrix.
    centroids: Vec<f32>,
    radii: Vec<f32>,
    norms_sq: Vec<f32>,
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

    /// Bring the cells up to date before a batch is scored — the one place
    /// cell geometry is built. Under [`LinkingMode::Pruned`], a bucket past
    /// the cutoff with more than half its rows pending covers every live
    /// row anew: radius queries over the HNSW (built over the bucket on
    /// first use, dead rows tombstoned) from each live row surface nearly
    /// every θ-pair, the hits are grouped into connected components, and
    /// each component gets its centroid, radius and squared norm. Returns
    /// the ANN work of a rebuild, `None` when the cells stood.
    fn refresh_cells(&mut self, config: &SchemaConfig) -> Option<SearchStats> {
        let lk = &config.linking;
        let live = self.row_alive.iter().filter(|a| **a).count();
        let pending = self.matrix.len() - self.cell_rows;
        if lk.mode != LinkingMode::Pruned
            || live <= lk.bucket_cutoff.max(1)
            || pending * 2 <= self.matrix.len()
        {
            return None;
        }
        let (matrix, alive) = (&self.matrix, &self.row_alive);
        let hnsw: &ShardedHnsw = self.hnsw.get_or_insert_with(|| {
            let hnsw_config = HnswConfig {
                m: HNSW_M,
                ef_construction: HNSW_EF_CONSTRUCTION,
                ef_search: HNSW_EF_SEARCH,
                metric: Metric::Cosine,
                seed: HNSW_SEED,
            };
            let mut h = ShardedHnsw::build(matrix, hnsw_config, HNSW_SHARDS);
            for (r, _) in alive.iter().enumerate().filter(|(_, alive)| !**alive) {
                h.remove(r as u64);
            }
            h
        });
        let n = matrix.len();
        let radius = (1.0 - config.theta) + RADIUS_MARGIN;
        let seeded = parallel_blocks(n, BLOCK, |range| {
            let mut out = Vec::new();
            let mut ann = SearchStats::default();
            for i in range.filter(|&i| alive[i]) {
                let hits = hnsw.search_radius_with_stats(matrix.row(i), radius, lk.init_k, &mut ann);
                for j in hits.into_iter().map(|hit| hit.id as usize).filter(|&j| j != i) {
                    out.push((i.min(j) as u32, i.max(j) as u32));
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

        let dim = matrix.dim();
        let mut cells = CellSet {
            members: Vec::new(),
            centroids: Vec::new(),
            radii: Vec::new(),
            norms_sq: Vec::new(),
        };
        for mut members in components(n, &seeds) {
            members.retain(|&r| alive[r as usize]);
            if members.is_empty() {
                continue;
            }
            let mut centroid = vec![0.0f32; dim];
            for &r in &members {
                for (acc, x) in centroid.iter_mut().zip(matrix.row(r as usize)) {
                    *acc += x;
                }
            }
            for x in centroid.iter_mut() {
                *x /= members.len() as f32;
            }
            let radius = members
                .iter()
                .map(|&r| euclidean(&centroid, matrix.row(r as usize)))
                .fold(0.0f32, f32::max)
                + GEOM_MARGIN;
            // ‖c_A−c_B‖² = ‖c_A‖² + ‖c_B‖² − 2·c_A·c_B lets the bound run
            // on the lane-parallel dot kernel, without a sqrt
            cells.norms_sq.push(dot_lanes(&centroid, &centroid));
            cells.radii.push(radius);
            cells.centroids.extend_from_slice(&centroid);
            cells.members.push(members);
        }
        self.cells = Some(cells);
        self.cell_rows = n;
        Some(ann)
    }
}

/// One cell as the content pass enumerates it: member rows, ascending, and
/// the geometry of the triangle-inequality bound.
struct Cell<'a> {
    members: &'a [u32],
    centroid: &'a [f32],
    radius: f32,
    norm_sq: f32,
}

impl<'a> Cell<'a> {
    /// Row `r` alone: its own centroid, radius `GEOM_MARGIN`.
    fn singleton(matrix: &'a RowMatrix, r: &'a u32) -> Self {
        let row = matrix.row(*r as usize);
        Cell {
            members: std::slice::from_ref(r),
            centroid: row,
            radius: GEOM_MARGIN,
            norm_sq: dot_lanes(row, row),
        }
    }
}

/// The persistent linking index: every column linked so far, with the
/// structures a new column is linked against, kept alive across deltas.
pub struct LinkIndex {
    config: SchemaConfig,
    cache: LabelEmbeddingCache,
    table_ids: HashMap<(String, String), u32>,
    cols: Vec<ColRef>,
    alive: Vec<bool>,
    /// Live columns grouped by interned label, per fine-grained type —
    /// the label pass's equivalence classes. Members ascend.
    label_groups: HashMap<FineGrainedType, HashMap<LabelId, Vec<u32>>>,
    embed: HashMap<FineGrainedType, EmbedBucket>,
}

impl LinkIndex {
    /// An index that has never held a column — what a platform starts
    /// from. Its first [`LinkIndex::link_columns`] is the first fill.
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

    /// The index [`data_global_schema_quads_seeded`] filled with
    /// `profiles` under `config`, handed back: a filled index is its own
    /// seed.
    pub fn from_seed(seed: LinkIndex, profiles: &[ColumnProfile], config: SchemaConfig) -> Self {
        debug_assert!(
            seed.cols.len() == profiles.len() && seed.config.linking.mode == config.linking.mode,
            "a seed is the index filled with these profiles under this config"
        );
        seed
    }

    /// Link a batch of new column profiles against the lake: appends
    /// their metadata quads and every similarity edge involving a new
    /// column to `out`, and registers the columns for future batches.
    /// [`LinkIndex::link_columns`] + [`LinkIndex::emit_columns`] with a
    /// `Vec<Quad>` as the target.
    pub fn add_columns(
        &mut self,
        out: &mut Vec<Quad>,
        profiles: &[ColumnProfile],
        we: &WordEmbeddings,
    ) -> SchemaStats {
        let (mut stats, edges) = self.link_columns(profiles, we);
        stats.metadata_triples = self.emit_columns(out, profiles, &edges);
        stats
    }

    /// Emit what [`LinkIndex::link_columns`] decided over `profiles` (the
    /// same slice): their metadata subgraph (idempotent against what an
    /// earlier batch already emitted; the store deduplicates), then
    /// `edges`. Returns the number of metadata triples.
    pub fn emit_columns<S: QuadSink>(
        &self,
        sink: &mut S,
        profiles: &[ColumnProfile],
        edges: &[Edge],
    ) -> usize {
        emit_quads(sink, profiles, edges, self.cols.len(), |c| &self.cols[c].iri)
    }

    /// The linking half of Algorithm 3 (lines 6–19) for a batch of new
    /// columns — the module docs' three steps. Registers the columns and
    /// returns the statistics (all but `metadata_triples`, which emission
    /// counts) plus every similarity edge with a new endpoint, endpoints as
    /// column ids, for [`LinkIndex::emit_columns`]. No quad is built.
    pub fn link_columns(
        &mut self,
        profiles: &[ColumnProfile],
        we: &WordEmbeddings,
    ) -> (SchemaStats, Vec<Edge>) {
        // Column ids (and each bucket's rows) from here on are new.
        let from = self.cols.len() as u32;
        let mut fresh_rows: HashMap<FineGrainedType, u32> = HashMap::new();
        for p in profiles {
            let cid = self.cols.len() as u32;
            let next_table = self.table_ids.len() as u32;
            let table = *self
                .table_ids
                .entry((p.meta.dataset.clone(), p.meta.table.clone()))
                .or_insert(next_table);
            let label = self.cache.intern(we, &p.meta.column);
            self.label_groups.entry(p.fgt).or_default().entry(label).or_default().push(cid);
            let mut row = None;
            if p.fgt != FineGrainedType::Boolean && !p.embedding.is_empty() {
                let bucket = self
                    .embed
                    .entry(p.fgt)
                    .or_insert_with(|| EmbedBucket::new(p.embedding.len()));
                let r = bucket.matrix.len();
                bucket.matrix.push_normalized(&p.embedding);
                bucket.cols.push(cid);
                bucket.row_alive.push(true);
                if let Some(h) = bucket.hnsw.as_mut() {
                    h.add(r as u64, bucket.matrix.row(r));
                }
                fresh_rows.entry(p.fgt).or_insert(r as u32);
                row = Some(r as u32);
            }
            self.cols.push(ColRef {
                dataset: p.meta.dataset.clone(),
                iri: res::column(&p.meta.dataset, &p.meta.table, &p.meta.column),
                table,
                label,
                fgt: p.fgt,
                true_ratio: p.stats.true_ratio,
                row,
            });
            self.alive.push(true);
        }

        let mut stats = SchemaStats { columns: profiles.len(), ..Default::default() };
        // Types in label order, so bucket stats come out the same every run.
        let mut types: Vec<FineGrainedType> = profiles.iter().map(|p| p.fgt).collect();
        types.sort_by_key(|fgt| fgt.label());
        types.dedup();
        let mut edges: Vec<Edge> = Vec::new();
        for fgt in types {
            let Some(classes) = self.label_groups.get(&fgt) else { continue };
            let members = classes.values().flatten();
            stats.pairs_compared +=
                fresh_cross_pairs(members.map(|&c| (self.cols[c as usize].table, c >= from)));
            let label = self.label_pass(classes, from);
            stats.label_edges += label.len();
            edges.extend(label);
            let content = if fgt == FineGrainedType::Boolean {
                self.boolean_pass(from)
            } else if let Some(&row) = fresh_rows.get(&fgt) {
                let ann = self.embed.get_mut(&fgt).and_then(|b| b.refresh_cells(&self.config));
                stats.cell_rebuilds += usize::from(ann.is_some());
                self.embeddable_pass(fgt, row, ann.unwrap_or_default())
            } else {
                None
            };
            if let Some((bucket, found)) = content {
                stats.candidates_generated += bucket.candidates;
                stats.pairs_pruned += bucket.pruned;
                stats.hnsw.merge(&bucket.hnsw);
                stats.content_edges += found.len();
                edges.extend(found);
                stats.buckets.push(bucket);
            }
        }
        (stats, edges)
    }

    /// Label edges with an endpoint `>= from` among one type's label
    /// classes (Algorithm 3 lines 11–12): label similarity depends only on
    /// the two label strings, so each pair of classes is scored once from
    /// the cache and the score fans out to their cross-table column pairs.
    fn label_pass(&self, classes: &HashMap<LabelId, Vec<u32>>, from: u32) -> Vec<Edge> {
        let classes: Vec<(LabelId, &[u32])> =
            classes.iter().map(|(&label, members)| (label, members.as_slice())).collect();
        let has_new: Vec<bool> =
            classes.iter().map(|(_, members)| members.last().is_some_and(|&c| c >= from)).collect();
        let block = BLOCK / 8;
        let found = group_pairs(&has_new, block, |a, b, out: &mut Vec<Edge>| {
            let ((la, ga), (lb, gb)) = (classes[a], classes[b]);
            let sim = self.cache.similarity(la, lb);
            if sim < self.config.alpha {
                return;
            }
            member_pairs(ga, gb, a == b, from, |i, j| {
                if self.cols[i as usize].table != self.cols[j as usize].table {
                    out.push(Edge {
                        a: i,
                        b: j,
                        predicate: object_prop::HAS_LABEL_SIMILARITY,
                        score: sim as f64,
                    });
                }
            });
        });
        found.concat()
    }

    /// Boolean content edges with an endpoint `>= from`:
    /// `1 − |ratio_a − ratio_b| ≥ β`. A bucket past the cutoff under
    /// [`LinkingMode::Pruned`] sorts by true ratio and pairs each new row
    /// only within a `1 − β` window (plus margin); otherwise the window is
    /// unbounded. Either way each candidate meets the exact gate.
    fn boolean_pass(&self, from: u32) -> Option<(BucketStats, Vec<Edge>)> {
        let lk = &self.config.linking;
        let mut rows: Vec<(f64, u32)> = (0..self.cols.len())
            .filter(|&c| self.alive[c] && self.cols[c].fgt == FineGrainedType::Boolean)
            .filter_map(|c| self.cols[c].true_ratio.map(|ratio| (ratio, c as u32)))
            .collect();
        if rows.len() < 2 || rows.last().is_none_or(|&(_, c)| c < from) {
            return None;
        }
        let eligible = fresh_cross_pairs(
            rows.iter().map(|&(_, c)| (self.cols[c as usize].table, c >= from)),
        );
        let windowed = lk.mode == LinkingMode::Pruned && rows.len() > lk.bucket_cutoff;
        let width = if windowed {
            rows.sort_by(|a, b| a.0.total_cmp(&b.0));
            (1.0 - self.config.beta) + WINDOW_MARGIN
        } else {
            f64::INFINITY
        };
        let fresh: Vec<usize> = (0..rows.len()).filter(|&k| rows[k].1 >= from).collect();
        let found = parallel_blocks(fresh.len(), BLOCK, |range| {
            let (mut out, mut candidates) = (Vec::new(), 0usize);
            let mut score = |(ra, a): (f64, u32), (rb, b): (f64, u32)| {
                if self.cols[a as usize].table == self.cols[b as usize].table {
                    return;
                }
                candidates += 1;
                // the exact gate, not the windowed one
                let sim = 1.0 - (ra - rb).abs();
                if sim >= self.config.beta {
                    let predicate = object_prop::HAS_CONTENT_SIMILARITY;
                    out.push(Edge { a, b, predicate, score: sim });
                }
            };
            for &k in &fresh[range] {
                let here = rows[k];
                // later rows, new or old; earlier rows only when old (an
                // earlier new row reaches this one from its own side)
                for &there in rows[k + 1..].iter().take_while(|there| there.0 - here.0 <= width) {
                    score(here, there);
                }
                for &there in rows[..k].iter().rev().take_while(|there| here.0 - there.0 <= width) {
                    if there.1 < from {
                        score(there, here);
                    }
                }
            }
            (out, candidates)
        });
        let strategy = if windowed { "true-ratio-window" } else { "exact-scan" };
        let ann = SearchStats::default();
        Some(collect_bucket(FineGrainedType::Boolean, rows.len(), eligible, strategy, ann, found))
    }

    /// Embeddable content edges of one bucket with an endpoint at a row
    /// `>= from_row`: [`dot_lanes`] cosine `≥ θ` over the cell pairs the
    /// triangle-inequality bound admits. On pre-normalized vectors
    /// `cos(a,b) ≥ θ ⇔ ‖a−b‖ ≤ √(2(1−θ))`, and a cross pair of cells A, B
    /// satisfies `‖a−b‖ ≥ ‖c_A−c_B‖ − ρ_A − ρ_B`, so a cell pair whose
    /// centroids lie further apart than `√(2(1−θ)) + ρ_A + ρ_B` holds no
    /// θ-pair. Pending rows are singleton cells; a bucket without cells
    /// makes every live row a singleton and skips the bound.
    fn embeddable_pass(
        &self,
        fgt: FineGrainedType,
        from_row: u32,
        ann: SearchStats,
    ) -> Option<(BucketStats, Vec<Edge>)> {
        let bucket = self.embed.get(&fgt)?;
        let matrix = &bucket.matrix;
        let live: Vec<u32> =
            (0..matrix.len() as u32).filter(|&r| bucket.row_alive[r as usize]).collect();
        if live.len() < 2 {
            return None;
        }
        let table = |r: usize| self.cols[bucket.cols[r] as usize].table;
        let eligible = fresh_cross_pairs(live.iter().map(|&r| (table(r as usize), r >= from_row)));
        let cells: Vec<Cell> = match &bucket.cells {
            Some(set) => {
                let dim = matrix.dim();
                let built = set.members.iter().enumerate().map(|(c, members)| Cell {
                    members,
                    centroid: &set.centroids[c * dim..(c + 1) * dim],
                    radius: set.radii[c],
                    norm_sq: set.norms_sq[c],
                });
                let pending = live.iter().filter(|&&r| r as usize >= bucket.cell_rows);
                built.chain(pending.map(|r| Cell::singleton(matrix, r))).collect()
            }
            None => live.iter().map(|r| Cell::singleton(matrix, r)).collect(),
        };
        let bounded = bucket.cells.is_some();
        let has_new: Vec<bool> =
            cells.iter().map(|cell| cell.members.last().is_some_and(|&r| r >= from_row)).collect();
        let theta = self.config.theta;
        let r_max = ((2.0 * (1.0 - theta as f64)).sqrt() + GEOM_MARGIN as f64) as f32;
        let block = if bounded { BLOCK / 8 } else { BLOCK };
        let found = group_pairs(&has_new, block, |a, b, acc: &mut (Vec<Edge>, usize)| {
            let (out, candidates) = acc;
            let (ca, cb) = (&cells[a], &cells[b]);
            if bounded && a != b {
                let t = r_max + ca.radius + cb.radius;
                let d2 = ca.norm_sq + cb.norm_sq - 2.0 * dot_lanes(ca.centroid, cb.centroid);
                if d2 > t * t {
                    return;
                }
            }
            member_pairs(ca.members, cb.members, a == b, from_row, |i, j| {
                let (i, j) = (i as usize, j as usize);
                if !bucket.row_alive[i] || !bucket.row_alive[j] || table(i) == table(j) {
                    return;
                }
                *candidates += 1;
                let score = dot_lanes(matrix.row(i), matrix.row(j)).clamp(-1.0, 1.0);
                if score >= theta {
                    out.push(Edge {
                        a: bucket.cols[i],
                        b: bucket.cols[j],
                        predicate: object_prop::HAS_CONTENT_SIMILARITY,
                        score: score as f64,
                    });
                }
            });
        });
        let strategy = if bounded { "hnsw" } else { "exact-scan" };
        Some(collect_bucket(fgt, live.len(), eligible, strategy, ann, found))
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
}

/// One content bucket's counters and edges, from its per-block
/// `(edges, candidates)`.
fn collect_bucket(
    fgt: FineGrainedType,
    rows: usize,
    eligible_pairs: usize,
    strategy: &'static str,
    hnsw: SearchStats,
    found: Vec<(Vec<Edge>, usize)>,
) -> (BucketStats, Vec<Edge>) {
    let candidates = found.iter().map(|(_, c)| c).sum::<usize>();
    let edges = found.into_iter().flat_map(|(edges, _)| edges).collect();
    let pruned = eligible_pairs.saturating_sub(candidates);
    let fgt = fgt.label();
    (BucketStats { fgt, rows, eligible_pairs, candidates, pruned, strategy, hnsw }, edges)
}

/// Visit every unordered pair of groups — each group with itself included
/// — of which at least one holds a new member, exactly once:
/// `visit(a, b, acc)` with `a` the first of the two that holds one. Runs
/// in parallel tasks of `block` such groups; returns each task's
/// accumulator.
fn group_pairs<R, F>(has_new: &[bool], block: usize, visit: F) -> Vec<R>
where
    R: Default + Send,
    F: Fn(usize, usize, &mut R) + Sync,
{
    let fresh: Vec<usize> = (0..has_new.len()).filter(|&g| has_new[g]).collect();
    parallel_blocks(fresh.len(), block, |range| {
        let mut acc = R::default();
        for &a in &fresh[range] {
            let earlier_old = (0..a).filter(|&b| !has_new[b]);
            for b in (a..has_new.len()).chain(earlier_old) {
                visit(a, b, &mut acc);
            }
        }
        acc
    })
}

/// Call `f(i, j)` once for every pair of `a` × `b` — of two members of
/// `a` when `same` — with at least one member `>= from`. Members ascend,
/// so a group's new members are a suffix. Pairs come `i`-major, the order
/// a from-scratch scan lists them in: the emitter mints each edge's
/// quoted-triple ids in edge order, and a column's edges minted together
/// are read together (a query over a lake's first tables pays ≈ 25 % more
/// when they are minted `j`-major).
fn member_pairs(a: &[u32], b: &[u32], same: bool, from: u32, mut f: impl FnMut(u32, u32)) {
    let old = |group: &[u32]| group.partition_point(|&m| m < from);
    let (old_a, old_b) = (old(a), old(b));
    if same {
        for (x, &i) in a.iter().enumerate() {
            for &j in &a[(x + 1).max(old_a)..] {
                f(i, j);
            }
        }
    } else {
        for &i in &a[old_a..] {
            for &j in b {
                f(i, j);
            }
        }
        for &i in &a[..old_a] {
            for &j in &b[old_b..] {
                f(i, j);
            }
        }
    }
}

/// Cross-table pairs with at least one new endpoint among members given as
/// `(table, is_new)`: all cross-table pairs minus the old ones, both
/// counted from per-table tallies.
fn fresh_cross_pairs(members: impl Iterator<Item = (u32, bool)>) -> usize {
    let pairs = |k: usize| k * k.saturating_sub(1) / 2;
    let mut per_table: HashMap<u32, (usize, usize)> = HashMap::new();
    for (table, new) in members {
        let (all, old) = per_table.entry(table).or_default();
        *all += 1;
        *old += usize::from(!new);
    }
    let (all, old) = per_table.values().fold((0, 0), |(n, o), &(a, b)| (n + a, o + b));
    let same_table: usize = per_table.values().map(|&(a, b)| pairs(a) - pairs(b)).sum();
    pairs(all) - pairs(old) - same_table
}

/// Euclidean distance between two raw f32 vectors.
fn euclidean(a: &[f32], b: &[f32]) -> f32 {
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
/// with path halving). Every node appears in exactly one component, its
/// members ascending; isolated nodes come back as singletons. Components
/// are ordered by their smallest member so iteration is deterministic.
fn components(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
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
    let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
    for i in 0..n as u32 {
        groups.entry(find(&mut parent, i)).or_default().push(i);
    }
    let mut out: Vec<Vec<u32>> = groups.into_values().collect();
    out.sort_by_key(|g| g[0]);
    out
}

/// Collect every quad a dataset's removal must withdraw, as id tuples of
/// `snap` — quads and annotations, the batch one
/// [`lids_rdf::QuadStore::retract_encoded`] drops:
///
/// - its metadata subgraph, regenerated from the retained `profiles` via
///   the same emitter bootstrap used (dataset/table/column hierarchy and
///   statistics) and resolved against the dictionary — a regenerated quad
///   naming a term the store never saw cannot be present and is left out;
/// - every similarity edge incident to one of its columns, in both
///   directions, plus the matching RDF-star score annotations: one seek
///   on the edge's `(s, p, o)` in the store's annotation run;
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
) -> (Vec<EncodedQuad>, Vec<EncodedAnnotation>) {
    let dict = snap.dictionary();
    let mut notes = Vec::new();

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
                let [s, p, o, _] = quad.map(Some);
                notes.extend(snap.match_annotations([s, p, o, None, None, None]));
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
    (out, notes)
}

/// [`retraction_ids`], decoded: the removal batch as [`Quad`]s, for
/// callers without a store to retract from in id space.
pub fn retraction_quads(
    snap: &StoreSnapshot,
    dataset: &str,
    profiles: &[ColumnProfile],
) -> Vec<Quad> {
    let (quads, notes) = retraction_ids(snap, dataset, profiles);
    let quads = quads.into_iter().map(|quad| snap.decode_quad(quad));
    quads.chain(notes.into_iter().map(|note| snap.decode_annotation(note))).collect()
}
