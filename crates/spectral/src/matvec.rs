//! Sparse matrix–vector products against the graph adjacency matrix.
//!
//! The adjacency matrix is never materialized: `y = A·x` streams the CSR
//! neighbor rows, which is what lets the paper's Section II machinery run on
//! 10⁸-edge graphs "without explicitly constructing the vectors".
//!
//! [`adj_matvec_threaded`] splits the rows over worker threads. Each
//! output entry is one row's sum, computed by the same code at any worker
//! count, so the split product is bit-identical to [`adj_matvec`]. The
//! reductions over whole vectors ([`dot`], [`norm`]) stay sequential folds
//! in index order: splitting them would reorder their additions.

use oca_graph::{CsrGraph, NodeId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The most rows one lease of a split mat-vec covers. On LFR-200k a block
/// of this size is about 80k adjacency entries, so a lease costs one
/// cursor `fetch_add` per ~0.2 ms of gathers.
const BLOCK_ROWS: usize = 4096;

/// Computes `out = A·x` where `A` is the adjacency matrix of `graph`.
///
/// Each row is summed into four independent accumulators, so the adds of
/// a long row overlap instead of waiting on one another.
///
/// # Panics
/// Panics if `x` and `out` don't both have length `graph.node_count()`.
pub fn adj_matvec(graph: &CsrGraph, x: &[f64], out: &mut [f64]) {
    adj_matvec_threaded(graph, x, out, 1);
}

/// [`adj_matvec`] on `threads` workers, bit-identical to it at any count.
///
/// The caller's thread is worker 0 and `std::thread::scope` spawns the
/// rest; at one worker (`threads` 0 counts as 1) no thread is spawned.
/// Workers lease blocks of consecutive rows from one atomic cursor, so a
/// worker slowed by a busy core simply takes fewer blocks. A block is at
/// most 4096 rows, and smaller on graphs too small to give every worker
/// about four.
///
/// # Panics
/// Panics if `x` and `out` don't both have length `graph.node_count()`.
pub fn adj_matvec_threaded(graph: &CsrGraph, x: &[f64], out: &mut [f64], threads: usize) {
    let n = graph.node_count();
    assert_eq!(x.len(), n, "input vector length mismatch");
    assert_eq!(out.len(), n, "output vector length mismatch");
    let threads = threads.max(1);
    let block = (n / (threads * 4)).clamp(1, BLOCK_ROWS);
    // The cursor hands each block to exactly one worker, so every lock is
    // taken once and never contended; it only carries the `&mut` to the
    // thread that leased it. The cursor publishes nothing but block
    // numbers (`Relaxed`): the sums reach the caller through the locks
    // and the scope's join.
    let blocks: Vec<Mutex<&mut [f64]>> = out.chunks_mut(block).map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let b = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = blocks.get(b) else { break };
        let mut rows_out = slot.lock().expect("no worker panics holding a block");
        let lo = b * block;
        sum_rows(graph.row_block(lo..lo + rows_out.len()), x, &mut rows_out);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(blocks.len()) {
            scope.spawn(work);
        }
        work();
    });
}

/// `out[i] = Σ x[u]` over the `i`-th row of `rows`: the one row sum every
/// mat-vec uses, at any worker count.
fn sum_rows<'a>(rows: impl Iterator<Item = &'a [NodeId]>, x: &[f64], out: &mut [f64]) {
    for (o, row) in out.iter_mut().zip(rows) {
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
