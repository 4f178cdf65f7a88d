//! CoLR training: the paper's pair objective on synthetic columns.
//!
//! "The input is column pairs, predicting similarity (binary target) with
//! binary cross-entropy loss" (Section 3.2). The original models were
//! trained on 5,500 Kaggle/OpenML tables; the substitution here generates
//! synthetic column pairs per fine-grained type — positives are two samples
//! of the same underlying variable (possibly rescaled, the paper's
//! `area_sq_ft` vs `area_sq_m` case), negatives come from different
//! variables — and optimises `BCE(sigmoid(α·cos(E_a, E_b) + β), y)` with
//! gradients flowing through the cosine, the mean-pooling, and the MLP.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::colr::ColrModels;
use crate::features::{extract, FEATURE_DIM};
use crate::mlp::MlpGrads;
use crate::types::FineGrainedType;

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Pairs generated per fine-grained type per epoch.
    pub pairs_per_type: usize,
    /// Values sampled per synthetic column.
    pub values_per_column: usize,
    pub epochs: usize,
    pub learning_rate: f32,
    /// Logit scale α in `sigmoid(α·cos + β)`.
    pub scale: f32,
    /// Logit offset β.
    pub offset: f32,
    pub seed: u64,
}

impl TrainConfig {
    /// The quick deterministic run behind [`ColrModels::pretrained`].
    pub fn fast() -> Self {
        TrainConfig {
            pairs_per_type: 48,
            values_per_column: 20,
            epochs: 3,
            learning_rate: 0.02,
            scale: 5.0,
            offset: -2.0,
            seed: 0xBEEF,
        }
    }
}

/// One synthetic training pair.
pub struct Pair {
    pub fgt: FineGrainedType,
    pub left: Vec<String>,
    pub right: Vec<String>,
    pub positive: bool,
}

/// Train the models in place; returns the mean loss of the final epoch.
pub fn train_colr(models: &mut ColrModels, config: &TrainConfig) -> f32 {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut last_epoch_loss = 0.0;
    for _epoch in 0..config.epochs {
        let mut total = 0.0f32;
        let mut count = 0usize;
        for fgt in FineGrainedType::EMBEDDABLE {
            for i in 0..config.pairs_per_type {
                let pair = generate_pair(fgt, i % 2 == 0, config.values_per_column, &mut rng);
                total += train_step(models, &pair, config);
                count += 1;
            }
        }
        last_epoch_loss = total / count.max(1) as f32;
    }
    last_epoch_loss
}

/// Generate a synthetic pair for a type. `positive` pairs sample the same
/// generator (with unit rescaling for numerics); negatives mix generators.
pub fn generate_pair(
    fgt: FineGrainedType,
    positive: bool,
    n: usize,
    rng: &mut SmallRng,
) -> Pair {
    let gen_a = rng.gen_range(0..GENERATORS_PER_TYPE);
    let gen_b = if positive {
        gen_a
    } else {
        (gen_a + 1 + rng.gen_range(0..GENERATORS_PER_TYPE - 1)) % GENERATORS_PER_TYPE
    };
    let scale = if positive && fgt.is_numeric() && rng.gen_bool(0.5) {
        [0.3048f64, 10.0, 0.0929, 2.2046][rng.gen_range(0..4)]
    } else {
        1.0
    };
    let left = (0..n).map(|_| generate_value(fgt, gen_a, 1.0, rng)).collect();
    let right = (0..n).map(|_| generate_value(fgt, gen_b, scale, rng)).collect();
    Pair { fgt, left, right, positive }
}

const GENERATORS_PER_TYPE: usize = 4;

fn generate_value(fgt: FineGrainedType, gen: usize, scale: f64, rng: &mut SmallRng) -> String {
    match fgt {
        FineGrainedType::Int => {
            let v: i64 = match gen {
                0 => rng.gen_range(0..100),
                1 => rng.gen_range(1900..2030),
                2 => rng.gen_range(10_000..1_000_000),
                _ => rng.gen_range(-50..50),
            };
            format!("{}", (v as f64 * scale).round() as i64)
        }
        FineGrainedType::Float => {
            let v: f64 = match gen {
                0 => rng.gen_range(0.0..1.0),
                1 => rng.gen_range(10.0..100.0),
                2 => rng.gen_range(-3.0f64..3.0).exp() * 1000.0,
                _ => rng.gen_range(-1.0..1.0) * 0.01,
            };
            format!("{:.4}", v * scale)
        }
        FineGrainedType::Date => {
            let (ylo, yhi) = match gen {
                0 => (1950, 1980),
                1 => (1980, 2000),
                2 => (2000, 2015),
                _ => (2015, 2026),
            };
            format!(
                "{}-{:02}-{:02}",
                rng.gen_range(ylo..yhi),
                rng.gen_range(1..13),
                rng.gen_range(1..29)
            )
        }
        FineGrainedType::NamedEntity => {
            const POOLS: [&[&str]; 4] = [
                &["London", "Paris", "Tokyo", "Cairo", "Lagos", "Lima", "Oslo", "Rome"],
                &["Alice Smith", "Bob Jones", "Carol White", "David Brown", "Eve Adams"],
                &["Acme Corp", "Globex Inc", "Initech", "Umbrella Ltd", "Hooli"],
                &["Canada", "Brazil", "Egypt", "Japan", "Kenya", "Norway", "Peru"],
            ];
            POOLS[gen][rng.gen_range(0..POOLS[gen].len())].to_string()
        }
        FineGrainedType::NaturalLanguage => {
            const VOCAB: [&[&str]; 4] = [
                &["great", "product", "loved", "it", "works", "well", "recommend"],
                &["patient", "shows", "symptoms", "of", "acute", "chronic", "condition"],
                &["the", "match", "ended", "with", "a", "late", "goal", "victory"],
                &["stock", "prices", "rose", "amid", "market", "uncertainty", "today"],
            ];
            let words = VOCAB[gen];
            (0..rng.gen_range(4..9))
                .map(|_| words[rng.gen_range(0..words.len())])
                .collect::<Vec<_>>()
                .join(" ")
        }
        FineGrainedType::String | FineGrainedType::Boolean => {
            let (alphabet, len): (&[u8], usize) = match gen {
                0 => (b"0123456789", 6),                  // numeric ids
                1 => (b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", 3),  // codes
                2 => (b"abcdef0123456789", 8),            // hex
                _ => (b"ABCDEFGHIJ0123456789-", 10),      // mixed skus
            };
            (0..len)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
                .collect()
        }
    }
}

/// One SGD step on a pair; returns the BCE loss.
fn train_step(models: &mut ColrModels, pair: &Pair, config: &TrainConfig) -> f32 {
    let net = models.net(pair.fgt);

    // Forward: mean-pool, keeping per-value features and pre-activations.
    let forward_column = |values: &[String]| {
        let mut feats = Vec::with_capacity(values.len());
        let mut pre = Vec::with_capacity(values.len());
        let inputs = values.iter().map(|v| extract(pair.fgt, v));
        let mean = net.mean_output(inputs, |f, z1| {
            feats.push(f);
            pre.push(z1.to_vec());
        });
        (feats, pre, mean)
    };

    let (feats_a, pre_a, ea) = forward_column(&pair.left);
    let (feats_b, pre_b, eb) = forward_column(&pair.right);

    let na: f32 = ea.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
    let nb: f32 = eb.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
    let dot: f32 = ea.iter().zip(&eb).map(|(x, y)| x * y).sum();
    let cos = (dot / (na * nb)).clamp(-1.0, 1.0);

    let y = if pair.positive { 1.0f32 } else { 0.0 };
    let logit = config.scale * cos + config.offset;
    let p = 1.0 / (1.0 + (-logit).exp());
    let loss = -(y * p.max(1e-7).ln() + (1.0 - y) * (1.0 - p).max(1e-7).ln());

    // dL/dcos
    let dcos = (p - y) * config.scale;
    // dcos/dE_a = E_b/(na*nb) - cos*E_a/na^2 ; symmetric for E_b.
    let grad_ea: Vec<f32> = ea
        .iter()
        .zip(&eb)
        .map(|(&a, &b)| dcos * (b / (na * nb) - cos * a / (na * na)))
        .collect();
    let grad_eb: Vec<f32> = ea
        .iter()
        .zip(&eb)
        .map(|(&a, &b)| dcos * (a / (na * nb) - cos * b / (nb * nb)))
        .collect();

    // Mean-pool distributes the gradient equally over values.
    let mut total = MlpGrads::zeros(net);
    let mut backprop_column =
        |feats: &[[f32; FEATURE_DIM]], pre: &[Vec<f32>], grad: &[f32]| {
            let inv = 1.0 / feats.len().max(1) as f32;
            let per_value: Vec<f32> = grad.iter().map(|g| g * inv).collect();
            for (f, z1) in feats.iter().zip(pre) {
                let g = net.backward(f, z1, &per_value);
                total.add(&g);
            }
        };
    backprop_column(&feats_a, &pre_a, &grad_ea);
    backprop_column(&feats_b, &pre_b, &grad_eb);

    models.net_mut(pair.fgt).apply(&total, config.learning_rate);
    loss
}

/// Evaluate pair-classification accuracy of the models on freshly generated
/// pairs (used by tests and the ablation bench).
pub fn pair_accuracy(models: &ColrModels, pairs_per_type: usize, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut correct = 0usize;
    let mut total = 0usize;
    for fgt in FineGrainedType::EMBEDDABLE {
        for i in 0..pairs_per_type {
            let pair = generate_pair(fgt, i % 2 == 0, 16, &mut rng);
            let ea = models.embed_column(fgt, pair.left.iter().map(|s| s.as_str()));
            let eb = models.embed_column(fgt, pair.right.iter().map(|s| s.as_str()));
            let cos = lids_vector::cosine_similarity(&ea, &eb);
            let predicted = cos > 0.5;
            if predicted == pair.positive {
                correct += 1;
            }
            total += 1;
        }
    }
    correct as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_reduces_loss() {
        let mut models = ColrModels::untrained(7);
        let cfg = TrainConfig {
            pairs_per_type: 12,
            values_per_column: 10,
            epochs: 1,
            ..TrainConfig::fast()
        };
        let first = train_colr(&mut models, &cfg);
        let mut cfg2 = cfg.clone();
        cfg2.epochs = 3;
        let mut models2 = ColrModels::untrained(7);
        let last = train_colr(&mut models2, &cfg2);
        assert!(last <= first * 1.2, "loss did not trend down: {first} -> {last}");
    }

    #[test]
    fn trained_beats_chance_on_pairs() {
        let mut models = ColrModels::untrained(3);
        train_colr(&mut models, &TrainConfig::fast());
        let acc = pair_accuracy(&models, 16, 99);
        assert!(acc > 0.6, "pair accuracy {acc}");
    }

    #[test]
    fn generators_are_type_consistent() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..20 {
            let v = generate_value(FineGrainedType::Int, 0, 1.0, &mut rng);
            assert!(v.parse::<i64>().is_ok());
            let f = generate_value(FineGrainedType::Float, 1, 1.0, &mut rng);
            assert!(f.parse::<f64>().is_ok());
            let d = generate_value(FineGrainedType::Date, 2, 1.0, &mut rng);
            assert!(crate::features::parse_date_parts(&d).is_some());
        }
    }

    #[test]
    fn positive_pairs_share_generator_negative_do_not() {
        let mut rng = SmallRng::seed_from_u64(11);
        let pos = generate_pair(FineGrainedType::NamedEntity, true, 12, &mut rng);
        assert!(pos.positive);
        let neg = generate_pair(FineGrainedType::NamedEntity, false, 12, &mut rng);
        assert!(!neg.positive);
    }
}
