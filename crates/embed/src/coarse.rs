//! Coarse-grained embedding models for the Figure 6 ablation.
//!
//! "We developed coarse-grained embedding models inspired by Mueller & Smola, which
//! introduced an embedding-based method through three coarse-grained
//! models" (Section 6.1.3). Instead of seven type-specialised networks,
//! three models cover numeric, string, and other columns — the ablation
//! shows the fine-grained CoLR models beat them on precision and recall.

use crate::colr::{embed_values, EMBEDDING_DIM};
use crate::mlp::Mlp;
use crate::types::FineGrainedType;

/// The three coarse buckets of Mueller & Smola-style models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarseBucket {
    Numeric,
    Textual,
    Other,
}

impl CoarseBucket {
    /// Map a fine-grained type into its coarse bucket.
    pub fn of(fgt: FineGrainedType) -> Self {
        match fgt {
            FineGrainedType::Int | FineGrainedType::Float => CoarseBucket::Numeric,
            FineGrainedType::NamedEntity
            | FineGrainedType::NaturalLanguage
            | FineGrainedType::String => CoarseBucket::Textual,
            FineGrainedType::Boolean | FineGrainedType::Date => CoarseBucket::Other,
        }
    }

    fn index(self) -> usize {
        match self {
            CoarseBucket::Numeric => 0,
            CoarseBucket::Textual => 1,
            CoarseBucket::Other => 2,
        }
    }

    /// The representative fine-grained type whose feature extractor the
    /// bucket reuses (coarse models cannot specialise per type — that is
    /// exactly what the ablation measures).
    fn feature_type(self) -> FineGrainedType {
        match self {
            CoarseBucket::Numeric => FineGrainedType::Float,
            CoarseBucket::Textual => FineGrainedType::String,
            CoarseBucket::Other => FineGrainedType::String,
        }
    }
}

/// Three shared networks instead of seven specialised ones.
#[derive(Debug, Clone)]
pub struct CoarseModels {
    nets: Vec<Mlp>,
}

impl CoarseModels {
    /// Deterministic coarse models.
    pub fn new(seed: u64) -> Self {
        let nets = (0..3)
            .map(|i| {
                Mlp::new(
                    crate::features::FEATURE_DIM,
                    crate::colr::HIDDEN_DIM,
                    EMBEDDING_DIM,
                    seed ^ ((i as u64) << 16),
                )
            })
            .collect();
        CoarseModels { nets }
    }

    /// Embed a column with the bucket model of its (known) fine type.
    pub fn embed_column<'a>(
        &self,
        fgt: FineGrainedType,
        values: impl Iterator<Item = &'a str>,
    ) -> Vec<f32> {
        let bucket = CoarseBucket::of(fgt);
        embed_values(&self.nets[bucket.index()], bucket.feature_type(), values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping() {
        assert_eq!(CoarseBucket::of(FineGrainedType::Int), CoarseBucket::Numeric);
        assert_eq!(CoarseBucket::of(FineGrainedType::NamedEntity), CoarseBucket::Textual);
        assert_eq!(CoarseBucket::of(FineGrainedType::Date), CoarseBucket::Other);
    }

    #[test]
    fn coarse_conflates_types_that_fine_distinguishes() {
        // A named-entity column and a generic-string column use the SAME
        // coarse network and feature extractor — the source of the ablation
        // gap — while CoLR uses different ones.
        let coarse = CoarseModels::new(5);
        let ne = coarse.embed_column(FineGrainedType::NamedEntity, ["London"].into_iter());
        let st = coarse.embed_column(FineGrainedType::String, ["London"].into_iter());
        assert_eq!(ne, st);
    }

    proptest::proptest! {
        /// The coarse models pool through the same kernel: the mean of the
        /// per-value embeddings of the bucket's network, bit for bit.
        #[test]
        fn embed_column_is_the_mean_of_value_embeddings_bit_for_bit(
            type_index in 0usize..FineGrainedType::ALL.len(),
            values in proptest::collection::vec(crate::mlp::tests::cell(), 0..300),
        ) {
            use crate::mlp::tests::{bits, reference_column};
            let fgt = FineGrainedType::ALL[type_index];
            let coarse = CoarseModels::new(5);
            let bucket = CoarseBucket::of(fgt);
            let got = coarse.embed_column(fgt, values.iter().map(String::as_str));
            let want = reference_column(&coarse.nets[bucket.index()], bucket.feature_type(), &values);
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn embeddings_are_unit_length() {
        let coarse = CoarseModels::new(5);
        let e = coarse.embed_column(FineGrainedType::Float, ["1.5", "2.5"].into_iter());
        let n: f32 = e.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-4);
    }
}
