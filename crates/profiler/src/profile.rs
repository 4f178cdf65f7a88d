//! Column profiles and the Algorithm 2 driver.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use lids_embed::features::fxhash;
use lids_embed::{ColrModels, FineGrainedType, WordEmbeddings};
use lids_exec::MemoryMeter;

use crate::stats::{collect_stats, ColumnStats};
use crate::table::{Column, Table};
use crate::types::infer_fine_grained_type;

/// Table and dataset membership of a column (`M` in Algorithm 2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnMeta {
    pub dataset: String,
    pub table: String,
    pub column: String,
}

impl ColumnMeta {
    /// Unique path string `dataset/table/column`.
    pub fn path(&self) -> String {
        format!("{}/{}/{}", self.dataset, self.table, self.column)
    }
}

/// A column profile (`CP = {M, fgt, S, E}` in Algorithm 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnProfile {
    pub meta: ColumnMeta,
    /// Fine-grained type, serialised as its stable label.
    #[serde(with = "fgt_serde")]
    pub fgt: FineGrainedType,
    pub stats: ColumnStats,
    /// 300-dimensional CoLR embedding (empty for boolean columns, which are
    /// compared via `true_ratio`).
    pub embedding: Vec<f32>,
}

mod fgt_serde {
    use lids_embed::FineGrainedType;
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(fgt: &FineGrainedType, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(fgt.label())
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<FineGrainedType, D::Error> {
        let label = String::deserialize(d)?;
        FineGrainedType::from_label(&label)
            .ok_or_else(|| serde::de::Error::custom(format!("unknown type label {label}")))
    }
}

/// Profiling configuration.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Sampling fraction of column values for embedding (paper: 10%).
    pub sample_fraction: f64,
    /// Minimum sample size (paper: 1000); whole column when smaller.
    pub min_sample: usize,
    /// Seed for the deterministic sampler.
    pub seed: u64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig { sample_fraction: 0.1, min_sample: 1000, seed: 0xDA7A }
    }
}

impl ProfilerConfig {
    /// Sample size for a column of `len` non-null values:
    /// `min(len, max(fraction·len, min_sample))` (Algorithm 2, line 8).
    pub fn sample_size(&self, len: usize) -> usize {
        let target = ((len as f64 * self.sample_fraction) as usize).max(self.min_sample);
        target.min(len)
    }
}

/// Profile one column: infer its type, collect stats, and embed a sample.
pub fn profile_column(
    meta: ColumnMeta,
    column: &Column,
    models: &ColrModels,
    we: &WordEmbeddings,
    config: &ProfilerConfig,
) -> ColumnProfile {
    let fgt = infer_fine_grained_type(column, we);
    let stats = collect_stats(column, fgt);

    let embedding = if fgt == FineGrainedType::Boolean {
        Vec::new()
    } else {
        let values: Vec<&str> = column.non_null().collect();
        let k = config.sample_size(values.len());
        if k == values.len() {
            models.embed_column(fgt, values.into_iter())
        } else {
            // deterministic per-column sample
            let mut rng =
                SmallRng::seed_from_u64(config.seed ^ fxhash(meta.path().as_bytes()));
            let sample: Vec<&str> = values
                .choose_multiple(&mut rng, k)
                .copied()
                .collect();
            models.embed_column(fgt, sample.into_iter())
        }
    };

    ColumnProfile { meta, fgt, stats, embedding }
}

/// Profile all columns of a table, in column order. Charges profile
/// footprints to `meter` when provided.
///
/// This is serial: Algorithm 2's worker map is the caller's, one table per
/// claim (the platform's isolated map), so a table is one unit of work and
/// its columns never spread threads of their own.
pub fn profile_table(
    dataset: &str,
    table: &Table,
    models: &ColrModels,
    we: &WordEmbeddings,
    config: &ProfilerConfig,
    meter: Option<&MemoryMeter>,
) -> Vec<ColumnProfile> {
    let profiles: Vec<ColumnProfile> = table
        .columns
        .iter()
        .map(|column| {
            profile_column(
                ColumnMeta {
                    dataset: dataset.to_string(),
                    table: table.name.clone(),
                    column: column.name.clone(),
                },
                column,
                models,
                we,
                config,
            )
        })
        .collect();
    if let Some(m) = meter {
        for p in &profiles {
            m.alloc(p.approx_bytes());
        }
    }
    profiles
}

impl ColumnProfile {
    /// Logical footprint: fixed-size embedding + small stats block. This is
    /// the "compact representation … regardless of the actual dataset size"
    /// the paper credits for KGLiDS's flat memory curves.
    pub fn approx_bytes(&self) -> u64 {
        (self.embedding.len() * 4) as u64
            + std::mem::size_of::<ColumnStats>() as u64
            + self.meta.path().len() as u64
    }

    /// Serialise to the JSON document Algorithm 2 dumps.
    pub fn to_json(&self) -> String {
        // A plain struct of numbers/strings cannot fail to serialise.
        #[allow(clippy::expect_used)]
        serde_json::to_string(self).expect("profile serialises")
    }

    /// Parse a profile back from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;

    fn models() -> ColrModels {
        ColrModels::untrained(42)
    }

    fn meta(c: &str) -> ColumnMeta {
        ColumnMeta { dataset: "d".into(), table: "t".into(), column: c.into() }
    }

    #[test]
    fn profiles_numeric_column() {
        let col = Column::new("age", (0..50).map(|i| i.to_string()).collect());
        let p = profile_column(meta("age"), &col, &models(), &WordEmbeddings::new(), &ProfilerConfig::default());
        assert_eq!(p.fgt, FineGrainedType::Int);
        assert_eq!(p.embedding.len(), lids_embed::EMBEDDING_DIM);
        assert_eq!(p.stats.count, 50);
    }

    #[test]
    fn boolean_columns_skip_embeddings() {
        let col = Column::new("alive", vec!["true".into(), "false".into(), "true".into()]);
        let p = profile_column(meta("alive"), &col, &models(), &WordEmbeddings::new(), &ProfilerConfig::default());
        assert_eq!(p.fgt, FineGrainedType::Boolean);
        assert!(p.embedding.is_empty());
        assert!((p.stats.true_ratio.unwrap() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sample_size_rule() {
        let cfg = ProfilerConfig::default();
        assert_eq!(cfg.sample_size(100), 100); // below min: whole column
        assert_eq!(cfg.sample_size(5_000), 1_000); // min dominates
        assert_eq!(cfg.sample_size(50_000), 5_000); // 10% dominates
    }

    #[test]
    fn sampling_is_deterministic() {
        let values: Vec<String> = (0..4000).map(|i| format!("{}", i % 97)).collect();
        let col = Column::new("c", values);
        let cfg = ProfilerConfig { min_sample: 100, ..Default::default() };
        let m = models();
        let we = WordEmbeddings::new();
        let a = profile_column(meta("c"), &col, &m, &we, &cfg);
        let b = profile_column(meta("c"), &col, &m, &we, &cfg);
        assert_eq!(a.embedding, b.embedding);
    }

    #[test]
    fn json_roundtrip() {
        let col = Column::new("city", vec!["London".into(), "Paris".into(), "Tokyo".into()]);
        let p = profile_column(meta("city"), &col, &models(), &WordEmbeddings::new(), &ProfilerConfig::default());
        let back = ColumnProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(back.fgt, p.fgt);
        assert_eq!(back.meta, p.meta);
        assert_eq!(back.embedding, p.embedding);
    }

    #[test]
    fn table_profiling_covers_all_columns() {
        let t = Table::new(
            "t",
            vec![
                Column::new("a", vec!["1".into(), "2".into()]),
                Column::new("b", vec!["x1".into(), "x2".into()]),
            ],
        );
        let meter = MemoryMeter::new();
        let ps = profile_table(
            "d",
            &t,
            &models(),
            &WordEmbeddings::new(),
            &ProfilerConfig::default(),
            Some(&meter),
        );
        assert_eq!(ps.len(), 2);
        assert!(meter.peak() > 0);
        assert_eq!(ps[0].meta.path(), "d/t/a");
    }
}
