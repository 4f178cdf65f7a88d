//! Dense-vector primitives.

/// Dot product of two equal-length vectors.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn l2_norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Euclidean distance.
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

/// Cosine similarity in [-1, 1]; zero vectors yield 0.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// Normalize to unit length in place; zero vectors are left untouched.
pub fn normalize(a: &mut [f32]) {
    let n = l2_norm(a);
    if n > 0.0 {
        for x in a.iter_mut() {
            *x /= n;
        }
    }
}

/// Dot product with four independent accumulators so the compiler can keep
/// the multiply-adds in flight (plain `dot` is latency-bound on one chain).
///
/// This is the scoring kernel of the similarity engine: the exact blocked
/// scan and the HNSW-candidate re-check both call it, so a pair's score is
/// bit-identical no matter which path produced the candidate.
pub fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0f32;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// A dense row-major matrix of equal-length vectors — the memory layout of
/// one fine-grained-type bucket in the similarity engine.
#[derive(Debug, Clone)]
pub struct RowMatrix {
    dim: usize,
    data: Vec<f32>,
}

impl RowMatrix {
    /// An empty matrix of `dim`-wide rows.
    pub fn new(dim: usize) -> Self {
        RowMatrix { dim, data: Vec::new() }
    }

    /// An empty matrix with room for `rows` rows.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        RowMatrix { dim, data: Vec::with_capacity(dim * rows) }
    }

    /// Append a row. Panics on dimension mismatch.
    pub fn push(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "dimension mismatch");
        self.data.extend_from_slice(row);
    }

    /// Append a row scaled to unit L2 length (zero rows stay zero), so
    /// cosine over stored rows reduces to [`dot_lanes`].
    pub fn push_normalized(&mut self, row: &[f32]) {
        let start = self.data.len();
        self.push(row);
        normalize(&mut self.data[start..]);
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// Element-wise mean of a set of equal-length vectors.
/// Returns a zero vector of `dim` when the set is empty.
pub fn mean_vector<'a>(vectors: impl Iterator<Item = &'a [f32]>, dim: usize) -> Vec<f32> {
    let mut sum = vec![0.0f32; dim];
    let mut count = 0usize;
    for v in vectors {
        debug_assert_eq!(v.len(), dim);
        for (s, x) in sum.iter_mut().zip(v) {
            *s += x;
        }
        count += 1;
    }
    if count > 0 {
        let inv = 1.0 / count as f32;
        for s in &mut sum {
            *s *= inv;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(l2_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn normalize_unit_length() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn dot_lanes_matches_dot() {
        for len in [0usize, 1, 3, 4, 7, 8, 300] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).cos()).collect();
            assert!((dot_lanes(&a, &b) - dot(&a, &b)).abs() < 1e-4);
        }
    }

    #[test]
    fn row_matrix_basics() {
        let mut m = RowMatrix::with_capacity(2, 3);
        assert!(m.is_empty());
        m.push(&[1.0, 2.0]);
        m.push_normalized(&[3.0, 4.0]);
        m.push_normalized(&[0.0, 0.0]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert!((l2_norm(m.row(1)) - 1.0).abs() < 1e-6);
        assert_eq!(m.row(2), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn row_matrix_rejects_wrong_dim() {
        RowMatrix::new(3).push(&[1.0]);
    }

    #[test]
    fn mean_of_vectors() {
        let a = [1.0f32, 3.0];
        let b = [3.0f32, 5.0];
        let m = mean_vector([a.as_slice(), b.as_slice()].into_iter(), 2);
        assert_eq!(m, vec![2.0, 4.0]);
        let empty = mean_vector(std::iter::empty(), 3);
        assert_eq!(empty, vec![0.0; 3]);
    }

    proptest! {
        #[test]
        fn prop_cosine_bounded(
            a in proptest::collection::vec(-100.0f32..100.0, 8),
            b in proptest::collection::vec(-100.0f32..100.0, 8),
        ) {
            let c = cosine_similarity(&a, &b);
            prop_assert!((-1.0..=1.0).contains(&c));
        }

        #[test]
        fn prop_l2_triangle_inequality(
            a in proptest::collection::vec(-10.0f32..10.0, 4),
            b in proptest::collection::vec(-10.0f32..10.0, 4),
            c in proptest::collection::vec(-10.0f32..10.0, 4),
        ) {
            let ab = l2_distance(&a, &b);
            let bc = l2_distance(&b, &c);
            let ac = l2_distance(&a, &c);
            prop_assert!(ac <= ab + bc + 1e-3);
        }
    }
}
