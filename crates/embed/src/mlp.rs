//! A small two-layer perceptron with manual backpropagation.
//!
//! This is the network behind each CoLR model: `feature -> ReLU hidden ->
//! embedding`. Training happens in [`crate::train`]; this module knows
//! forward, backward, SGD application and the mean-pool of a column.
//!
//! Both weight matrices are stored input-major, so a layer is one kernel,
//! `accumulate`: each input (or hidden unit) is added into all outputs at
//! once, a contiguous `acc[o] += w[k][o] · x[k]` that vectorises. Every
//! output still sums its products in `k` order from `0.0` and then adds its
//! bias, the one serial chain per output that a row-major dot product
//! would run, so the bits are those of `b + Σ_k w·x` summed left to right.
//! Exact zeros among the inputs and the ReLU outputs are skipped: they
//! would add `±0`, which changes no sum.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Dense 2-layer MLP: `out = W2 · relu(W1 · x + b1) + b2`.
#[derive(Debug, Clone)]
pub struct Mlp {
    pub in_dim: usize,
    pub hidden: usize,
    pub out_dim: usize,
    /// `in_dim × hidden`, input-major: row `k` holds input `k`'s weight
    /// into every hidden unit.
    pub w1: Vec<f32>,
    pub b1: Vec<f32>,
    /// `hidden × out_dim`, input-major: row `h` holds hidden unit `h`'s
    /// weight into every output.
    pub w2: Vec<f32>,
    pub b2: Vec<f32>,
}

/// Parameter gradients matching [`Mlp`]'s layout.
#[derive(Debug, Clone)]
pub struct MlpGrads {
    pub w1: Vec<f32>,
    pub b1: Vec<f32>,
    pub w2: Vec<f32>,
    pub b2: Vec<f32>,
}

impl MlpGrads {
    /// Zero gradients shaped for `net`.
    pub fn zeros(net: &Mlp) -> Self {
        MlpGrads {
            w1: vec![0.0; net.w1.len()],
            b1: vec![0.0; net.b1.len()],
            w2: vec![0.0; net.w2.len()],
            b2: vec![0.0; net.b2.len()],
        }
    }

    /// Accumulate another gradient in place.
    pub fn add(&mut self, other: &MlpGrads) {
        for (a, b) in self.w1.iter_mut().zip(&other.w1) {
            *a += b;
        }
        for (a, b) in self.b1.iter_mut().zip(&other.b1) {
            *a += b;
        }
        for (a, b) in self.w2.iter_mut().zip(&other.w2) {
            *a += b;
        }
        for (a, b) in self.b2.iter_mut().zip(&other.b2) {
            *a += b;
        }
    }

    /// Scale all gradients by `s`.
    pub fn scale(&mut self, s: f32) {
        for g in self
            .w1
            .iter_mut()
            .chain(&mut self.b1)
            .chain(&mut self.w2)
            .chain(&mut self.b2)
        {
            *g *= s;
        }
    }
}

/// `acc[o] += w[k][o] · x[k]` for `k` in order, `w` input-major with rows
/// of `acc.len()`.
///
/// A zero `x[k]` is skipped: its products are `±0` (the weights are
/// finite), and adding `±0` leaves a sum that started at `+0.0` unchanged,
/// so the skip moves no bit.
fn accumulate(w: &[f32], x: impl Iterator<Item = f32>, acc: &mut [f32]) {
    for (row, xk) in w.chunks_exact(acc.len()).zip(x) {
        if xk == 0.0 {
            continue;
        }
        for (a, wk) in acc.iter_mut().zip(row) {
            *a += wk * xk;
        }
    }
}

/// Xavier-uniform `outputs × inputs` weights drawn output by output (the
/// draw order of a row-major matrix) and stored input-major.
fn xavier(rng: &mut SmallRng, inputs: usize, outputs: usize) -> Vec<f32> {
    let lim = (6.0f32 / (inputs + outputs) as f32).sqrt();
    let mut w = vec![0.0; inputs * outputs];
    for o in 0..outputs {
        for k in 0..inputs {
            w[k * outputs + o] = rng.gen_range(-lim..lim);
        }
    }
    w
}

impl Mlp {
    /// Xavier-initialised network, deterministic for a given seed.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let w1 = xavier(&mut rng, in_dim, hidden);
        let w2 = xavier(&mut rng, hidden, out_dim);
        Mlp { in_dim, hidden, out_dim, w1, b1: vec![0.0; hidden], w2, b2: vec![0.0; out_dim] }
    }

    /// Forward pass into caller buffers: the hidden pre-activations into
    /// `z1` (`hidden` long), the output into `out` (`out_dim` long).
    fn forward_into(&self, x: &[f32], z1: &mut [f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.in_dim);
        z1.fill(0.0);
        accumulate(&self.w1, x.iter().copied(), z1);
        for (z, b) in z1.iter_mut().zip(&self.b1) {
            *z += b;
        }
        // ReLU: a unit at or below zero adds nothing (`max` maps -0.0 and
        // NaN to a zero, which the kernel skips)
        out.fill(0.0);
        accumulate(&self.w2, z1.iter().map(|z| z.max(0.0)), out);
        for (o, b) in out.iter_mut().zip(&self.b2) {
            *o += b;
        }
    }

    /// Forward pass returning `(hidden_pre_activation, output)`.
    pub fn forward(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut z1 = vec![0.0; self.hidden];
        let mut out = vec![0.0; self.out_dim];
        self.forward_into(x, &mut z1, &mut out);
        (z1, out)
    }

    /// The mean of the outputs over `inputs`: each output is added into one
    /// running sum in input order, then the sum is scaled by `1/n` (the
    /// zero vector when there are no inputs). `visit` sees every input with
    /// its hidden pre-activations, which the trainer keeps for
    /// backpropagation. This is the one mean-pool of the crate.
    pub(crate) fn mean_output<X: AsRef<[f32]>>(
        &self,
        inputs: impl Iterator<Item = X>,
        mut visit: impl FnMut(X, &[f32]),
    ) -> Vec<f32> {
        let mut z1 = vec![0.0; self.hidden];
        let mut out = vec![0.0; self.out_dim];
        let mut sum = vec![0.0f32; self.out_dim];
        let mut n = 0usize;
        for x in inputs {
            self.forward_into(x.as_ref(), &mut z1, &mut out);
            for (s, o) in sum.iter_mut().zip(&out) {
                *s += o;
            }
            visit(x, &z1);
            n += 1;
        }
        if n > 0 {
            let inv = 1.0 / n as f32;
            for s in &mut sum {
                *s *= inv;
            }
        }
        sum
    }

    /// Backward pass given the input, the stored pre-activations, and the
    /// loss gradient w.r.t. the output. Returns parameter gradients.
    pub fn backward(&self, x: &[f32], z1: &[f32], grad_out: &[f32]) -> MlpGrads {
        let mut grads = MlpGrads::zeros(self);
        // layer 2: dW2[h][o] = relu(z1[h]) · g[o]
        grads.b2.copy_from_slice(grad_out);
        for (row, z) in grads.w2.chunks_exact_mut(self.out_dim).zip(z1) {
            let a = z.max(0.0);
            for (gw, g) in row.iter_mut().zip(grad_out) {
                *gw = g * a;
            }
        }
        // grad into hidden (through ReLU): each unit sums over the outputs
        // in order
        let mut grad_h = vec![0.0f32; self.hidden];
        for (o, g) in grad_out.iter().enumerate() {
            for (gh, row) in grad_h.iter_mut().zip(self.w2.chunks_exact(self.out_dim)) {
                *gh += g * row[o];
            }
        }
        for (gh, &z) in grad_h.iter_mut().zip(z1) {
            if z <= 0.0 {
                *gh = 0.0;
            }
        }
        // layer 1: dW1[k][h] = x[k] · grad_h[h]
        grads.b1.copy_from_slice(&grad_h);
        for (row, xk) in grads.w1.chunks_exact_mut(self.hidden).zip(x) {
            for (gw, g) in row.iter_mut().zip(&grad_h) {
                *gw = g * xk;
            }
        }
        grads
    }

    /// SGD step: `param -= lr * grad`.
    pub fn apply(&mut self, grads: &MlpGrads, lr: f32) {
        for (p, g) in self.w1.iter_mut().zip(&grads.w1) {
            *p -= lr * g;
        }
        for (p, g) in self.b1.iter_mut().zip(&grads.b1) {
            *p -= lr * g;
        }
        for (p, g) in self.w2.iter_mut().zip(&grads.w2) {
            *p -= lr * g;
        }
        for (p, g) in self.b2.iter_mut().zip(&grads.b2) {
            *p -= lr * g;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::features::extract;
    use crate::types::FineGrainedType;
    use lids_vector::ops::{mean_vector, normalize};

    /// The forward pass as row-major dot products: every output sums
    /// `w · x` over all inputs, zeros included, in input order from `0.0`,
    /// then adds its bias.
    fn reference_forward(net: &Mlp, x: &[f32]) -> Vec<f32> {
        let z1: Vec<f32> = (0..net.hidden)
            .map(|h| {
                let mut acc = 0.0f32;
                for (k, xk) in x.iter().enumerate() {
                    acc += net.w1[k * net.hidden + h] * xk;
                }
                net.b1[h] + acc
            })
            .collect();
        (0..net.out_dim)
            .map(|o| {
                let mut acc = 0.0f32;
                for (h, z) in z1.iter().enumerate() {
                    acc += net.w2[h * net.out_dim + o] * z.max(0.0);
                }
                net.b2[o] + acc
            })
            .collect()
    }

    /// A column's embedding the long way: one output vector per value,
    /// then `normalize(mean_vector(..))`.
    pub(crate) fn reference_column(net: &Mlp, features: FineGrainedType, values: &[String]) -> Vec<f32> {
        let outputs: Vec<Vec<f32>> =
            values.iter().map(|v| reference_forward(net, &extract(features, v))).collect();
        let mut mean = mean_vector(outputs.iter().map(Vec::as_slice), net.out_dim);
        normalize(&mut mean);
        mean
    }

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Cell values of every shape the feature extractors tell apart:
    /// integers, decimals, dates, words, and arbitrary text.
    pub(crate) fn cell() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        prop_oneof![
            "-?[0-9]{1,7}",
            "-?[0-9]{1,4}\\.[0-9]{1,4}",
            "[0-9]{4}-[0-9]{2}-[0-9]{2}( [0-9]{2}:[0-9]{2})?",
            "[A-Z][a-z]{2,9}( [a-z]{2,8}){0,4}",
            ".{0,24}",
        ]
    }

    #[test]
    fn forward_matches_row_major_reference_bit_for_bit() {
        let net = Mlp::new(5, 7, 3, 9);
        for x in [[0.5f32, -0.25, 0.0, 2.0, -0.0], [0.0; 5], [1e-30, -3.5, 7.25, 0.0, 1.0]] {
            assert_eq!(bits(&net.forward(&x).1), bits(&reference_forward(&net, &x)));
        }
    }

    #[test]
    fn forward_shapes() {
        let net = Mlp::new(4, 8, 3, 1);
        let (z1, out) = net.forward(&[0.1, -0.2, 0.3, 0.4]);
        assert_eq!(z1.len(), 8);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn deterministic_init() {
        let a = Mlp::new(4, 8, 3, 42);
        let b = Mlp::new(4, 8, 3, 42);
        assert_eq!(a.w1, b.w1);
        let c = Mlp::new(4, 8, 3, 43);
        assert_ne!(a.w1, c.w1);
    }

    /// Numerical gradient check on a scalar loss `L = sum(out)`.
    #[test]
    fn gradient_check() {
        let mut net = Mlp::new(3, 5, 2, 7);
        let x = [0.5f32, -0.3, 0.8];
        let (z1, _) = net.forward(&x);
        let grad_out = vec![1.0f32; 2]; // dL/dout for L = sum(out)
        let grads = net.backward(&x, &z1, &grad_out);

        let eps = 1e-3f32;
        let loss = |net: &Mlp| -> f32 { net.forward(&x).1.iter().sum() };
        // check a sample of w1 and w2 entries
        for idx in [0usize, 3, 7, 11] {
            let orig = net.w1[idx];
            net.w1[idx] = orig + eps;
            let lp = loss(&net);
            net.w1[idx] = orig - eps;
            let lm = loss(&net);
            net.w1[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grads.w1[idx]).abs() < 1e-2,
                "w1[{idx}] numeric {numeric} analytic {}",
                grads.w1[idx]
            );
        }
        for idx in [0usize, 4, 9] {
            let orig = net.w2[idx];
            net.w2[idx] = orig + eps;
            let lp = loss(&net);
            net.w2[idx] = orig - eps;
            let lm = loss(&net);
            net.w2[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grads.w2[idx]).abs() < 1e-2,
                "w2[{idx}] numeric {numeric} analytic {}",
                grads.w2[idx]
            );
        }
    }

    #[test]
    fn sgd_reduces_simple_loss() {
        // teach the net to output zero for a fixed input
        let mut net = Mlp::new(2, 6, 2, 3);
        let x = [1.0f32, -1.0];
        let loss_of = |out: &[f32]| out.iter().map(|o| o * o).sum::<f32>();
        let initial = loss_of(&net.forward(&x).1);
        for _ in 0..200 {
            let (z1, out) = net.forward(&x);
            let grad_out: Vec<f32> = out.iter().map(|o| 2.0 * o).collect();
            let grads = net.backward(&x, &z1, &grad_out);
            net.apply(&grads, 0.05);
        }
        let fin = loss_of(&net.forward(&x).1);
        assert!(fin < initial * 0.1, "loss {initial} -> {fin}");
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let net = Mlp::new(2, 3, 1, 5);
        let x = [1.0f32, 2.0];
        let (z1, _) = net.forward(&x);
        let g1 = net.backward(&x, &z1, &[1.0]);
        let mut acc = MlpGrads::zeros(&net);
        acc.add(&g1);
        acc.add(&g1);
        acc.scale(0.5);
        for (a, b) in acc.w1.iter().zip(&g1.w1) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
