//! HNSW recall and invariants as property tests against the exact index.

use lids_vector::{
    BruteForceIndex, HnswConfig, HnswIndex, Metric, RowMatrix, ShardedHnsw, VectorIndex,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recall_at_10_above_085(seed in 0u64..50, n in 100usize..400) {
        let dim = 12;
        let mut rng = SmallRng::seed_from_u64(seed);
        let vectors: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let mut hnsw = HnswIndex::new(dim, HnswConfig { ef_search: 96, ..Default::default() });
        let mut brute = BruteForceIndex::new(dim, Metric::Cosine);
        for (i, v) in vectors.iter().enumerate() {
            hnsw.add(i as u64, v);
            brute.add(i as u64, v);
        }
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in vectors.iter().step_by(n / 8 + 1) {
            let truth: std::collections::HashSet<u64> =
                brute.search(q, 10).into_iter().map(|h| h.id).collect();
            let approx = hnsw.search(q, 10);
            prop_assert!(approx.windows(2).all(|w| w[0].distance <= w[1].distance));
            hits += approx.iter().filter(|h| truth.contains(&h.id)).count();
            total += truth.len();
        }
        let recall = hits as f64 / total as f64;
        prop_assert!(recall > 0.85, "recall {recall}");
    }

    /// The shards of a sharded build go to worker threads one each, and
    /// what the workers build does not depend on how many there are: a
    /// build on the default threads answers every search exactly like one
    /// made on this thread alone (a seed shard each, then every other row
    /// added in order — graph-identical to the batch deal).
    #[test]
    fn sharded_build_is_independent_of_thread_count(seed in 0u64..50, n in 8usize..300) {
        let (dim, shards) = (10, 4);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = RowMatrix::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            m.push_normalized(&v);
        }
        let parallel = ShardedHnsw::build(&m, HnswConfig::default(), shards);
        let mut seeds = RowMatrix::new(dim);
        for i in 0..shards {
            seeds.push(m.row(i));
        }
        let mut serial = ShardedHnsw::build(&seeds, HnswConfig::default(), shards);
        for i in shards..n {
            serial.add(i as u64, m.row(i));
        }
        for i in 0..n {
            let search = |index: &ShardedHnsw| index.search_radius(m.row(i), 0.8, 10);
            prop_assert_eq!(search(&parallel), search(&serial), "row {}", i);
        }
    }

    #[test]
    fn search_never_returns_duplicates(seed in 0u64..50) {
        let dim = 8;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut hnsw = HnswIndex::new(dim, HnswConfig::default());
        for i in 0..200u64 {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            hnsw.add(i, &v);
        }
        let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let hits = hnsw.search(&q, 20);
        let ids: std::collections::HashSet<u64> = hits.iter().map(|h| h.id).collect();
        prop_assert_eq!(ids.len(), hits.len());
        prop_assert!(hits.len() <= 20);
    }
}
