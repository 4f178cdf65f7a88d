//! Sharded HNSW: independent shards built in parallel.
//!
//! HNSW insertion is inherently serial (each insert searches the graph
//! built so far), which makes single-index construction the bottleneck the
//! moment the rest of the pipeline is parallel. Dealing vectors round-robin
//! across `S` independent shards cuts the serial depth by `S` — shards
//! build concurrently under [`lids_exec::parallel_map_with`] — at the price of
//! querying every shard. For the radius-candidate workload of the
//! similarity linker (many queries, each parallelised anyway) that trade is
//! a clear win, and it is the same recipe Faiss applies with its sharded
//! `IndexShards` wrapper.

use std::collections::HashSet;

use lids_exec::{parallel_map_with, ParallelConfig};

use crate::hnsw::{HnswConfig, HnswIndex};
use crate::ops::RowMatrix;
use crate::{Neighbor, SearchStats, VectorIndex};

/// A set of independently-built HNSW shards searched together. Vector ids
/// are the row indices of the matrix the index was built over.
pub struct ShardedHnsw {
    shards: Vec<HnswIndex>,
    /// Tombstoned ids: still in the shard graphs (HNSW deletion would
    /// degrade the navigability the graphs were built for) but filtered
    /// out of every search result.
    dead: HashSet<u64>,
}

impl ShardedHnsw {
    /// Build over the rows of `m` (id = row index), dealing rows
    /// round-robin to `shards` shards and building the shards in parallel.
    /// The deal is deterministic: results do not depend on thread count.
    pub fn build(m: &RowMatrix, config: HnswConfig, shards: usize) -> Self {
        let shards = shards.clamp(1, m.len().max(1));
        let shard_ids: Vec<usize> = (0..shards).collect();
        // one shard per claim: the default chunk of 16 would hand every
        // shard to the first worker
        let config_one = ParallelConfig { chunk: 1, ..Default::default() };
        let built = parallel_map_with(config_one, &shard_ids, |&s| {
            let mut idx = HnswIndex::new(m.dim(), config);
            let mut i = s;
            while i < m.len() {
                idx.add(i as u64, m.row(i));
                i += shards;
            }
            idx
        });
        ShardedHnsw { shards: built, dead: HashSet::new() }
    }

    /// Incrementally insert one vector, routed to shard `id % shards`.
    ///
    /// When ids are assigned densely in insertion order (id = row index,
    /// exactly how [`ShardedHnsw::build`] deals rows), adding rows
    /// `n0..n` one at a time onto an index built over the first `n0` rows
    /// reproduces the per-shard insertion sequences of a from-scratch
    /// build over all `n` rows — so the incremental index is
    /// *graph-identical* to the batch one (each shard's seeded level RNG
    /// consumes draws in the same order). Pinned by a test below.
    pub fn add(&mut self, id: u64, vector: &[f32]) {
        let shard = (id as usize) % self.shards.len();
        self.shards[shard].add(id, vector);
    }

    /// Tombstone a vector: it stays in the shard graph (still usable as a
    /// routing waypoint) but never appears in search results again.
    /// Returns `false` when the id was already tombstoned.
    pub fn remove(&mut self, id: u64) -> bool {
        self.dead.insert(id)
    }

    /// Total stored vectors across shards, tombstoned ones included.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Number of tombstoned ids.
    pub fn dead_len(&self) -> usize {
        self.dead.len()
    }

    /// True when no vectors are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// All stored vectors within `radius` of `query`: the union of each
    /// shard's [`HnswIndex::search_radius`] (unsorted; ids are unique by
    /// construction since every row lives in exactly one shard).
    pub fn search_radius(&self, query: &[f32], radius: f32, init_k: usize) -> Vec<Neighbor> {
        let mut stats = SearchStats::default();
        self.search_radius_with_stats(query, radius, init_k, &mut stats)
    }

    /// [`Self::search_radius`] with per-shard work counters summed into
    /// `stats`.
    pub fn search_radius_with_stats(
        &self,
        query: &[f32],
        radius: f32,
        init_k: usize,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .search_radius_with_stats(query, radius, init_k, stats)
                    .into_iter()
                    .filter(|n| !self.dead.contains(&n.id)),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Metric;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn cluster_matrix() -> RowMatrix {
        // two tight cosine clusters plus noise rows
        let mut rng = SmallRng::seed_from_u64(17);
        let dim = 16;
        let mut m = RowMatrix::new(dim);
        let centers: Vec<Vec<f32>> = (0..2)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        for i in 0..60 {
            let mut v: Vec<f32> = centers[i % 2].clone();
            for x in v.iter_mut() {
                *x += rng.gen_range(-0.01f32..0.01);
            }
            m.push_normalized(&v);
        }
        for _ in 0..20 {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            m.push_normalized(&v);
        }
        m
    }

    #[test]
    fn shards_cover_all_rows() {
        let m = cluster_matrix();
        let idx = ShardedHnsw::build(&m, HnswConfig::default(), 4);
        assert_eq!(idx.shard_count(), 4);
        assert_eq!(idx.len(), m.len());
        assert!(!idx.is_empty());
    }

    #[test]
    fn radius_union_matches_exhaustive_scan() {
        let m = cluster_matrix();
        let radius = 0.02;
        let idx = ShardedHnsw::build(
            &m,
            HnswConfig { metric: Metric::Cosine, ..Default::default() },
            4,
        );
        for probe in [0usize, 1, 33, 61] {
            let query = m.row(probe).to_vec();
            let got: std::collections::HashSet<u64> =
                idx.search_radius(&query, radius, 8).into_iter().map(|h| h.id).collect();
            let want: std::collections::HashSet<u64> = (0..m.len())
                .filter(|&j| Metric::Cosine.distance(&query, m.row(j)) <= radius)
                .map(|j| j as u64)
                .collect();
            assert_eq!(got, want, "probe {probe}");
        }
    }

    #[test]
    fn single_shard_equals_plain_hnsw() {
        let m = cluster_matrix();
        let sharded = ShardedHnsw::build(&m, HnswConfig::default(), 1);
        let mut plain = crate::hnsw::HnswIndex::new(m.dim(), HnswConfig::default());
        for i in 0..m.len() {
            plain.add(i as u64, m.row(i));
        }
        let mut a: Vec<u64> =
            sharded.search_radius(m.row(5), 0.05, 4).into_iter().map(|h| h.id).collect();
        let mut b: Vec<u64> =
            plain.search_radius(m.row(5), 0.05, 4).into_iter().map(|h| h.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_matrix() {
        let m = RowMatrix::new(4);
        let idx = ShardedHnsw::build(&m, HnswConfig::default(), 8);
        assert!(idx.is_empty());
        assert!(idx.search_radius(&[0.0; 4], 1.0, 4).is_empty());
    }

    #[test]
    fn incremental_add_is_graph_identical_to_batch_build() {
        let m = cluster_matrix();
        let config = HnswConfig { metric: Metric::Cosine, ..Default::default() };
        let batch = ShardedHnsw::build(&m, config, 4);

        // build over a prefix, then add the remaining rows one at a time
        let split = 50;
        let mut prefix = RowMatrix::new(m.dim());
        for i in 0..split {
            prefix.push(m.row(i)); // rows are already normalized
        }
        let mut incremental = ShardedHnsw::build(&prefix, config, 4);
        for i in split..m.len() {
            incremental.add(i as u64, m.row(i));
        }
        assert_eq!(incremental.len(), batch.len());

        // identical graphs answer identically: same ids, bitwise-equal
        // distances, for every probe and radius tried
        for probe in [0usize, 7, 40, 55, 79] {
            for radius in [0.01f32, 0.05, 0.3] {
                let key = |mut v: Vec<crate::Neighbor>| {
                    v.sort_by_key(|n| n.id);
                    v.into_iter().map(|n| (n.id, n.distance.to_bits())).collect::<Vec<_>>()
                };
                let a = key(batch.search_radius(m.row(probe), radius, 8));
                let b = key(incremental.search_radius(m.row(probe), radius, 8));
                assert_eq!(a, b, "probe {probe} radius {radius}");
            }
        }
    }

    #[test]
    fn tombstoned_ids_never_surface() {
        let m = cluster_matrix();
        let mut idx = ShardedHnsw::build(
            &m,
            HnswConfig { metric: Metric::Cosine, ..Default::default() },
            4,
        );
        let query = m.row(0).to_vec();
        let before: std::collections::HashSet<u64> =
            idx.search_radius(&query, 0.05, 8).into_iter().map(|n| n.id).collect();
        assert!(before.contains(&0));
        assert!(idx.remove(0));
        assert!(!idx.remove(0), "second tombstone of the same id");
        assert!(idx.remove(2));
        assert_eq!(idx.dead_len(), 2);
        let after: std::collections::HashSet<u64> =
            idx.search_radius(&query, 0.05, 8).into_iter().map(|n| n.id).collect();
        assert!(!after.contains(&0));
        assert!(!after.contains(&2));
        // everything else within the radius is still found
        let mut expect = before.clone();
        expect.remove(&0);
        expect.remove(&2);
        assert_eq!(after, expect);
    }
}
