//! Differential test of the staged similarity engine: for any profile
//! set, pruned linking must emit *exactly* the edge set and RDF-star
//! scores of the exact exhaustive pass. Pruning is a candidate filter,
//! never a semantic gate — α/β/θ decide, in both modes, and both modes
//! score through the same kernel, so the stores must match to the bit.

use kglids_repro::datagen::{synthetic_profiles, ProfileLakeSpec};
use kglids_repro::embed::WordEmbeddings;
use kglids_repro::kg::{build_data_global_schema, LinkingConfig, LinkingMode, SchemaConfig};
use kglids_repro::rdf::QuadStore;

/// Derive a small but structurally varied lake from one seed: every
/// fine-grained type, clustered embeddings, duplicate labels, occasional
/// missing embeddings/ratios.
fn spec_for(seed: u64) -> ProfileLakeSpec {
    ProfileLakeSpec {
        seed,
        tables: 4 + (seed % 13) as usize,
        columns_per_table: 2 + (seed % 4) as usize,
        tables_per_dataset: 1 + (seed % 3) as usize,
        embedding_dim: 16 + (seed % 3) as usize * 16,
        clusters: 1 + (seed % 4) as usize,
        noise: 0.01 + (seed % 5) as f32 * 0.02,
        dominant_share: if seed.is_multiple_of(3) { 0.6 } else { 0.0 },
    }
}

fn build(
    profiles: &[kglids_repro::profiler::ColumnProfile],
    we: &WordEmbeddings,
    linking: LinkingConfig,
) -> (Vec<String>, kglids_repro::kg::SchemaStats) {
    let mut store = QuadStore::new();
    let config = SchemaConfig { linking, ..Default::default() };
    let stats = build_data_global_schema(&mut store, profiles, &config, we);
    let mut quads: Vec<String> = store.iter().map(|q| q.to_string()).collect();
    quads.sort();
    (quads, stats)
}

/// Both modes over one lake: equal stores, equal edge counts, consistent
/// work counters. Returns the pruned pass's stats.
fn assert_pruned_matches_exact(
    profiles: &[kglids_repro::profiler::ColumnProfile],
    we: &WordEmbeddings,
    pruned: LinkingConfig,
    lake: &str,
) -> kglids_repro::kg::SchemaStats {
    let (exact_quads, exact_stats) =
        build(profiles, we, LinkingConfig { mode: LinkingMode::Exact, ..Default::default() });
    let (pruned_quads, pruned_stats) = build(profiles, we, pruned);
    assert_eq!(exact_quads, pruned_quads, "{lake}: pruned store differs from exact");
    assert_eq!(exact_stats.label_edges, pruned_stats.label_edges, "{lake}");
    assert_eq!(exact_stats.content_edges, pruned_stats.content_edges, "{lake}");
    assert_eq!(exact_stats.pairs_compared, pruned_stats.pairs_compared, "{lake}");
    // counters are consistent: every candidate was an eligible pair,
    // and pruning only ever removes pairs
    assert!(
        pruned_stats.candidates_generated + pruned_stats.pairs_pruned
            <= pruned_stats.pairs_compared,
        "{lake}: {pruned_stats:?}"
    );
    assert!(
        pruned_stats.candidates_generated <= exact_stats.candidates_generated,
        "{lake}: pruned scored more pairs than exact"
    );
    pruned_stats
}

#[test]
fn pruned_emits_identical_edges_across_100_random_lakes() {
    let we = WordEmbeddings::new();
    for seed in 0..100u64 {
        let profiles = synthetic_profiles(&spec_for(seed));
        // cutoff 0 forces the HNSW / sliding-window candidate paths even
        // on tiny buckets; small init_k stresses the adaptive over-fetch
        let pruned = LinkingConfig {
            mode: LinkingMode::Pruned,
            bucket_cutoff: 0,
            init_k: 2,
        };
        assert_pruned_matches_exact(&profiles, &we, pruned, &format!("seed {seed}"));
    }
}

/// The configuration the platform ships, where its candidate stage is
/// weakest. A text-skewed lake puts one bucket far above the default cutoff
/// beside small ones below it, so one pass mixes exact-scan and HNSW
/// buckets; and each type is a single loose cluster at the production
/// width whose pairwise similarities straddle θ, so the default (cheap,
/// low-recall) index misses θ-pairs from both endpoints and leaves them in
/// different seed components. Those edges exist only if the
/// triangle-inequality bound over component pairs is lossless — halve
/// `r_max` in `LinkIndex`'s content pass and this fails. 3,000 columns:
/// seconds in release, where `scripts/check.sh` runs it.
#[test]
fn default_config_mixes_strategies_and_matches_exact() {
    let profiles = synthetic_profiles(&ProfileLakeSpec {
        seed: 2024,
        tables: 500,
        columns_per_table: 6,
        tables_per_dataset: 4,
        embedding_dim: 300,
        clusters: 1,
        noise: 0.278,
        dominant_share: 0.85,
    });
    let stats = assert_pruned_matches_exact(
        &profiles,
        &WordEmbeddings::new(),
        LinkingConfig::default(),
        "default config",
    );
    assert!(stats.content_edges > 0 && stats.pairs_pruned > 0, "{stats:?}");
    for strategy in ["exact-scan", "hnsw"] {
        assert!(
            stats.buckets.iter().any(|b| b.strategy == strategy && b.eligible_pairs > 0),
            "no {strategy} bucket: {:?}",
            stats.buckets
        );
    }
}

#[test]
fn pruned_actually_prunes_on_clustered_lakes() {
    // sanity: on a lake with well-separated clusters the candidate stage
    // must discard a meaningful share of pairs, otherwise the engine is
    // exact-with-extra-steps
    let we = WordEmbeddings::new();
    let profiles = synthetic_profiles(&ProfileLakeSpec {
        seed: 42,
        tables: 24,
        columns_per_table: 6,
        clusters: 6,
        ..Default::default()
    });
    let (_, stats) = build(
        &profiles,
        &we,
        LinkingConfig { mode: LinkingMode::Pruned, bucket_cutoff: 0, ..Default::default() },
    );
    assert!(stats.pairs_pruned > 0, "{stats:?}");
    assert!(stats.pairs_pruned > stats.candidates_generated, "{stats:?}");
}
