//! Sparse matrix–vector products against the graph adjacency matrix.
//!
//! The adjacency matrix is never materialized: `y = A·x` streams the CSR
//! neighbor rows, which is what lets the paper's Section II machinery run on
//! 10⁸-edge graphs "without explicitly constructing the vectors".

use oca_graph::CsrGraph;

/// Computes `out = A·x` where `A` is the adjacency matrix of `graph`.
///
/// Each row is summed into four independent accumulators, so the adds of
/// a long row overlap instead of waiting on one another.
///
/// # Panics
/// Panics if `x` and `out` don't both have length `graph.node_count()`.
pub fn adj_matvec(graph: &CsrGraph, x: &[f64], out: &mut [f64]) {
    let n = graph.node_count();
    assert_eq!(x.len(), n, "input vector length mismatch");
    assert_eq!(out.len(), n, "output vector length mismatch");
    for (o, row) in out.iter_mut().zip(graph.rows()) {
        let mut acc = [0.0f64; 4];
        let mut quads = row.chunks_exact(4);
        for q in &mut quads {
            acc[0] += x[q[0].index()];
            acc[1] += x[q[1].index()];
            acc[2] += x[q[2].index()];
            acc[3] += x[q[3].index()];
        }
        let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for &u in quads.remainder() {
            sum += x[u.index()];
        }
        *o = sum;
    }
}

/// Euclidean norm.
pub fn norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Dot product.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Normalizes `x` in place; returns the prior norm. Leaves zero vectors
/// untouched and returns 0.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm(x);
    if n > 0.0 {
        for v in x.iter_mut() {
            *v /= n;
        }
    }
    n
}

/// Rayleigh quotient `xᵀAx / xᵀx` of the adjacency matrix at `x`.
///
/// Returns 0 for the zero vector.
pub fn rayleigh_quotient(graph: &CsrGraph, x: &[f64], scratch: &mut [f64]) -> f64 {
    let denom = dot(x, x);
    if denom == 0.0 {
        return 0.0;
    }
    adj_matvec(graph, x, scratch);
    dot(x, scratch) / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::from_edges;

    #[test]
    fn matvec_on_triangle() {
        let g = from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        adj_matvec(&g, &x, &mut y);
        assert_eq!(y, [5.0, 4.0, 3.0]);
    }

    #[test]
    fn matvec_sums_long_rows_with_a_remainder() {
        // Hub 0 has 9 neighbors: two full quads of accumulators plus one
        // leftover; the leaves have rows of length 1.
        let g = from_edges(10, (1..10u32).map(|v| (0, v)));
        let x: Vec<f64> = (0..10).map(f64::from).collect();
        let mut y = vec![0.0; 10];
        adj_matvec(&g, &x, &mut y);
        assert_eq!(y[0], 45.0);
        assert!(y[1..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn norm_dot_normalize() {
        let mut x = [3.0, 4.0];
        assert_eq!(norm(&x), 5.0);
        assert_eq!(dot(&x, &[1.0, 1.0]), 7.0);
        let prior = normalize(&mut x);
        assert_eq!(prior, 5.0);
        assert!((norm(&x) - 1.0).abs() < 1e-12);

        let mut z = [0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, [0.0, 0.0]);
    }

    #[test]
    fn rayleigh_quotient_bounds() {
        // K2 eigenvalues are ±1; any Rayleigh quotient lies within.
        let g = from_edges(2, [(0, 1)]);
        let mut scratch = [0.0; 2];
        let rq = rayleigh_quotient(&g, &[1.0, 1.0], &mut scratch);
        assert!((rq - 1.0).abs() < 1e-12);
        let rq = rayleigh_quotient(&g, &[1.0, -1.0], &mut scratch);
        assert!((rq + 1.0).abs() < 1e-12);
        assert_eq!(rayleigh_quotient(&g, &[0.0, 0.0], &mut scratch), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn matvec_length_mismatch_panics() {
        let g = from_edges(2, [(0, 1)]);
        let mut y = [0.0; 2];
        adj_matvec(&g, &[1.0], &mut y);
    }
}
