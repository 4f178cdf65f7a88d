//! `lids-vector` — the embedding store.
//!
//! KGLiDS "uses an embedding store, i.e., Faiss, to index the generated
//! embeddings and enable several methods for similarity search based on
//! approximate nearest neighbour operations" (Section 2.2). This crate is
//! that store: dense-vector primitives, an exact [`BruteForceIndex`], and a
//! from-scratch [`HnswIndex`] (Hierarchical Navigable Small World graphs,
//! Malkov & Yashunin) — the same index family Starmie uses, which the paper
//! contrasts against in Section 6.1.2.

pub mod brute;
pub mod hnsw;
pub mod metric;
pub mod ops;
pub mod sharded;

pub use brute::BruteForceIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use metric::Metric;
pub use ops::{
    cosine_similarity, dot, dot_lanes, l2_distance, l2_norm, mean_vector, normalize, RowMatrix,
};
pub use sharded::ShardedHnsw;

/// Identifier of a vector within an index. Callers map these to columns,
/// tables, or datasets.
pub type VecId = u64;

/// A search hit: vector id plus its distance under the index metric
/// (smaller = closer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    pub id: VecId,
    pub distance: f32,
}

/// Work counters for ANN search, accumulated by the `*_with_stats`
/// entry points ([`HnswIndex::search_with_stats`],
/// [`HnswIndex::search_radius_with_stats`], and the [`ShardedHnsw`]
/// equivalents). Plain-old-data: callers sum them across queries and
/// feed the totals into observability (`lids-kg` folds them into its
/// per-bucket linking stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Graph nodes expanded: beam-search pops plus greedy descent moves.
    pub hops: u64,
    /// Distance evaluations — the inner-loop unit of ANN work.
    pub dist_evals: u64,
    /// Layer-0 beam searches issued (radius search may issue several
    /// per query while doubling `k`).
    pub searches: u64,
}

impl SearchStats {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.hops += other.hops;
        self.dist_evals += other.dist_evals;
        self.searches += other.searches;
    }
}

/// Common interface of the exact and approximate indexes.
pub trait VectorIndex {
    /// Insert a vector under `id`. Panics on dimension mismatch.
    fn add(&mut self, id: VecId, vector: &[f32]);
    /// The `k` nearest stored vectors to `query`, closest first.
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor>;
    /// Number of stored vectors.
    fn len(&self) -> usize;
    /// True when no vectors are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
