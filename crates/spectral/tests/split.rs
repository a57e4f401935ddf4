//! The row-block split of the mat-vec against the one-worker loop.
//!
//! Every output entry of `A·x` is one row's sum, computed by the same
//! code whichever worker leases the row's block, so the split product,
//! and with it `λ_min` and `λ_max`, must be bit-equal to the one-worker
//! result at any worker count: compared with `to_bits`, not a tolerance.

use oca_graph::{from_edges, CsrGraph};
use oca_spectral::{
    adj_matvec, adj_matvec_threaded, lambda_max, lambda_max_threaded, lambda_min,
    lambda_min_threaded, PowerConfig, PowerResult,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORKERS: [usize; 5] = [1, 2, 3, 4, 8];

/// A random graph on `n` nodes: sparse G(n, p) edges, `hubs` stars that
/// each reach a random share of the nodes, and about a fifth of the
/// nodes left isolated (no edge touches them).
fn hub_graph(n: usize, p: f64, hubs: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let live: Vec<u32> = (0..n as u32)
        .filter(|_| rng.random::<f64>() >= 0.2)
        .collect();
    let mut edges = Vec::new();
    for (i, &u) in live.iter().enumerate() {
        for &v in &live[i + 1..] {
            if rng.random::<f64>() < p {
                edges.push((u, v));
            }
        }
    }
    if !live.is_empty() {
        for _ in 0..hubs {
            let hub = live[rng.random_range(0..live.len())];
            let reach = rng.random::<f64>();
            edges.extend(
                live.iter()
                    .filter(|&&v| v != hub && rng.random::<f64>() < reach)
                    .map(|&v| (hub, v)),
            );
        }
    }
    from_edges(n, edges)
}

fn random_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random::<f64>() - 0.5).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn same_result(a: &PowerResult, b: &PowerResult) -> bool {
    a.eigenvalue.to_bits() == b.eigenvalue.to_bits()
        && a.iterations == b.iterations
        && a.converged == b.converged
}

/// The mat-vec, `λ_min` and `λ_max` at every worker count in [`WORKERS`]
/// against the one-argument (one-worker) entry points.
fn assert_split_matches(g: &CsrGraph, seed: u64) {
    let n = g.node_count();
    let x = random_vector(n, seed);
    let mut reference = vec![0.0; n];
    adj_matvec(g, &x, &mut reference);
    let config = PowerConfig::default();
    let min = lambda_min(g, &config);
    let max = lambda_max(g, &config);
    for workers in WORKERS {
        let mut out = vec![f64::NAN; n];
        adj_matvec_threaded(g, &x, &mut out, workers);
        assert_eq!(bits(&out), bits(&reference), "n {n}, workers {workers}");
        let split_min = lambda_min_threaded(g, &config, workers);
        assert!(
            same_result(&split_min, &min),
            "n {n}, workers {workers}: λ_min {split_min:?} vs {min:?}"
        );
        let split_max = lambda_max_threaded(g, &config, workers);
        assert!(
            same_result(&split_max, &max),
            "n {n}, workers {workers}: λ_max {split_max:?} vs {max:?}"
        );
    }
}

proptest! {
    /// Small graphs give every worker several blocks (blocks shrink to
    /// about a quarter of a worker's share of the rows), and one case in
    /// four has fewer rows than the largest worker count.
    #[test]
    fn split_matvec_and_extremes_are_bit_equal_to_one_worker(
        size in (0u32..4, 0usize..120),
        shape in (0.0f64..0.1, 0usize..4, 0u64..u64::MAX)
    ) {
        let ((tiny, n), (p, hubs, seed)) = (size, shape);
        let n = if tiny == 0 { n % 8 } else { n };
        assert_split_matches(&hub_graph(n, p, hubs, seed), seed);
    }
}

#[test]
fn empty_and_edgeless_graphs_split_to_nothing() {
    for g in [CsrGraph::empty(0), CsrGraph::empty(5)] {
        assert_split_matches(&g, 1);
    }
}

/// Blocks of the full 4096 rows: a hub-heavy sparse graph of 150k rows,
/// where every worker count here leases several of them, for the
/// mat-vec; and a 40k-row one, full-size at two workers, for `λ_min`.
#[test]
fn full_size_blocks_split_bit_equal() {
    let sparse = |n: usize, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let n32 = n as u32;
        let mut edges: Vec<(u32, u32)> = (0..n32)
            .filter(|v| v % 7 != 0)
            .flat_map(|u| [(u, rng.random_range(0..n32)), (u, rng.random_range(0..n32))])
            .filter(|&(u, v)| u != v && v % 7 != 0)
            .collect();
        for hub in [1u32, n32 / 2 + 1, n32 - 2] {
            edges.extend((0..n32).step_by(11).filter(|&v| v != hub).map(|v| (hub, v)));
        }
        from_edges(n, edges)
    };
    let big = sparse(150_000, 3);
    let x = random_vector(big.node_count(), 4);
    let mut reference = vec![0.0; big.node_count()];
    adj_matvec(&big, &x, &mut reference);
    for workers in WORKERS {
        let mut out = vec![f64::NAN; big.node_count()];
        adj_matvec_threaded(&big, &x, &mut out, workers);
        assert_eq!(bits(&out), bits(&reference), "workers {workers}");
    }

    let medium = sparse(40_000, 5);
    let config = PowerConfig::default();
    let min = lambda_min(&medium, &config);
    assert!(min.converged, "{min:?}");
    for workers in WORKERS {
        let split = lambda_min_threaded(&medium, &config, workers);
        assert!(
            same_result(&split, &min),
            "workers {workers}: {split:?} vs {min:?}"
        );
    }
}
