//! CoLR — Column Learned Representations (Section 3.2).
//!
//! One network per fine-grained type maps a value's features to a
//! 300-dimensional embedding; a column's embedding is the average over a
//! value sample (Algorithm 2, lines 8–10), L2-normalised so cosine
//! similarity is an inner product. The average is one pass per value with
//! no allocation: each value's output is added into one running sum in
//! value order (`Mlp::mean_output`), which is bit for bit the mean of the
//! per-value embeddings. Table embeddings concatenate per-type
//! averages of column embeddings (Equation 1) over the six embeddable
//! types, giving the 1800-dimensional vectors the GNN models consume.

use std::sync::OnceLock;

use lids_vector::ops::{mean_vector, normalize};

use crate::features::{extract, FEATURE_DIM};
use crate::mlp::Mlp;
use crate::train::{train_colr, TrainConfig};
use crate::types::FineGrainedType;

/// CoLR embedding dimensionality (the paper's 300).
pub const EMBEDDING_DIM: usize = 300;

/// Hidden width of each CoLR network.
pub const HIDDEN_DIM: usize = 32;

/// Table embedding dimensionality: six embeddable types × 300 (Section 4.2).
pub const TABLE_EMBEDDING_DIM: usize = 6 * EMBEDDING_DIM;

/// The set of per-type CoLR models (`H_{θ,T}` in Algorithm 2).
#[derive(Debug, Clone)]
pub struct ColrModels {
    nets: Vec<Mlp>,
}

static PRETRAINED: OnceLock<ColrModels> = OnceLock::new();

impl ColrModels {
    /// Freshly initialised (untrained) models; deterministic per seed.
    pub fn untrained(seed: u64) -> Self {
        let nets = FineGrainedType::ALL
            .iter()
            .enumerate()
            .map(|(i, _)| Mlp::new(FEATURE_DIM, HIDDEN_DIM, EMBEDDING_DIM, seed ^ (i as u64) << 8))
            .collect();
        ColrModels { nets }
    }

    /// The process-wide pre-trained models.
    ///
    /// The paper pre-trains CoLR once on open datasets so that, unlike
    /// Starmie, no per-data-lake training is needed. Here the equivalent
    /// happens lazily on first use: a short, deterministic training run on
    /// synthetic column pairs (see [`crate::train`]), cached for the
    /// process lifetime.
    pub fn pretrained() -> &'static ColrModels {
        PRETRAINED.get_or_init(|| {
            let mut models = ColrModels::untrained(0xC01A);
            train_colr(&mut models, &TrainConfig::fast());
            models
        })
    }

    /// The network for one fine-grained type.
    pub fn net(&self, fgt: FineGrainedType) -> &Mlp {
        &self.nets[fgt.index()]
    }

    /// Mutable access for the trainer.
    pub(crate) fn net_mut(&mut self, fgt: FineGrainedType) -> &mut Mlp {
        &mut self.nets[fgt.index()]
    }

    /// Embed one value.
    pub fn embed_value(&self, fgt: FineGrainedType, value: &str) -> Vec<f32> {
        self.net(fgt).forward(&extract(fgt, value)).1
    }

    /// Embed a column: mean of value embeddings, L2-normalised.
    /// Returns a zero vector for an empty iterator.
    pub fn embed_column<'a>(
        &self,
        fgt: FineGrainedType,
        values: impl Iterator<Item = &'a str>,
    ) -> Vec<f32> {
        embed_values(self.net(fgt), fgt, values)
    }
}

/// A column's embedding under `net`, with the feature extractor of
/// `features`: the mean of the values' outputs, L2-normalised (the zero
/// vector for no values). Shared by the CoLR and the coarse models.
pub(crate) fn embed_values<'a>(
    net: &Mlp,
    features: FineGrainedType,
    values: impl Iterator<Item = &'a str>,
) -> Vec<f32> {
    let mut mean = net.mean_output(values.map(|v| extract(features, v)), |_, _| {});
    normalize(&mut mean);
    mean
}

/// Equation 1: a table embedding is the concatenation, over the six
/// embeddable fine-grained types, of the mean of that type's column
/// embeddings (zero block when the table has no column of the type).
pub fn table_embedding(columns: &[(FineGrainedType, &[f32])]) -> Vec<f32> {
    let mut out = Vec::with_capacity(TABLE_EMBEDDING_DIM);
    for fgt in FineGrainedType::EMBEDDABLE {
        let members = columns.iter().filter(|(t, _)| *t == fgt).map(|(_, e)| *e);
        out.extend_from_slice(&mean_vector(members, EMBEDDING_DIM));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lids_vector::cosine_similarity;

    #[test]
    fn embed_value_shape() {
        let m = ColrModels::untrained(1);
        let e = m.embed_value(FineGrainedType::Int, "42");
        assert_eq!(e.len(), EMBEDDING_DIM);
        assert!(e.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn embed_column_is_normalised() {
        let m = ColrModels::untrained(1);
        let vals = ["10", "20", "30", "40"];
        let e = m.embed_column(FineGrainedType::Int, vals.iter().copied());
        let norm: f32 = e.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn empty_column_embeds_to_zero() {
        let m = ColrModels::untrained(1);
        let e = m.embed_column(FineGrainedType::String, std::iter::empty());
        assert!(e.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identical_columns_have_cosine_one() {
        let m = ColrModels::untrained(1);
        let vals = ["alpha", "beta", "gamma"];
        let a = m.embed_column(FineGrainedType::String, vals.iter().copied());
        let b = m.embed_column(FineGrainedType::String, vals.iter().copied());
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn table_embedding_layout() {
        let m = ColrModels::untrained(1);
        let c1 = m.embed_column(FineGrainedType::Int, ["1", "2"].into_iter());
        let c2 = m.embed_column(FineGrainedType::String, ["a", "b"].into_iter());
        let t = table_embedding(&[(FineGrainedType::Int, &c1), (FineGrainedType::String, &c2)]);
        assert_eq!(t.len(), TABLE_EMBEDDING_DIM);
        // Int block is first, String block is last; Float/Date/NE/NL blocks zero
        assert_eq!(&t[..EMBEDDING_DIM], c1.as_slice());
        assert_eq!(&t[5 * EMBEDDING_DIM..], c2.as_slice());
        assert!(t[EMBEDDING_DIM..2 * EMBEDDING_DIM].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn table_embedding_averages_same_type() {
        let a = vec![1.0f32; EMBEDDING_DIM];
        let b = vec![3.0f32; EMBEDDING_DIM];
        let t = table_embedding(&[(FineGrainedType::Float, &a), (FineGrainedType::Float, &b)]);
        // Float is the second embeddable block
        assert!((t[EMBEDDING_DIM] - 2.0).abs() < 1e-6);
    }

    /// The trained weights, pinned: any build profile, target or code
    /// change that moves a single bit of a pre-trained embedding fails
    /// here instead of shifting every similarity edge downstream.
    #[test]
    fn pretrained_embeddings_are_pinned() {
        let models = ColrModels::pretrained();
        // FNV-1a over the bit patterns of one value per type
        let mut fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
        for fgt in FineGrainedType::ALL {
            for x in models.embed_value(fgt, "Cardiff 2023-04-01 42.5") {
                for byte in x.to_bits().to_le_bytes() {
                    fingerprint = (fingerprint ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        let moved = "CoLR pre-trained embeddings moved";
        assert_eq!(fingerprint, 0xe685_abd0_66ef_a02f, "{moved}: {fingerprint:#018x}");
    }

    proptest::proptest! {
        /// The column kernel is the mean of the per-value embeddings, bit
        /// for bit, under every type's trained model.
        #[test]
        fn embed_column_is_the_mean_of_value_embeddings_bit_for_bit(
            type_index in 0usize..FineGrainedType::ALL.len(),
            values in proptest::collection::vec(crate::mlp::tests::cell(), 0..300),
        ) {
            use crate::mlp::tests::{bits, reference_column};
            let fgt = FineGrainedType::ALL[type_index];
            let models = ColrModels::pretrained();
            let got = models.embed_column(fgt, values.iter().map(String::as_str));
            let want = reference_column(models.net(fgt), fgt, &values);
            proptest::prop_assert_eq!(bits(&got), bits(&want));
            if values.is_empty() {
                proptest::prop_assert!(got.iter().all(|x| x.to_bits() == 0));
            }
        }
    }

    #[test]
    fn pretrained_is_cached_and_deterministic() {
        let a = ColrModels::pretrained();
        let b = ColrModels::pretrained();
        assert!(std::ptr::eq(a, b));
    }
}
