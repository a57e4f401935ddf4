//! The spectral solve's public surface, under the power method's names.
//!
//! The paper (Section II) computes the most negative adjacency eigenvalue
//! `λ_min` "using the well-known power method". This crate solves for it
//! with the Lanczos iteration instead (the private `lanczos` module, whose
//! docs give the stopping rule and error side). [`PowerConfig`],
//! [`PowerResult`], [`lambda_min`] and [`lambda_max`] keep their names and
//! now configure, report and run that solve.

use crate::lanczos;
use oca_graph::CsrGraph;

/// Convergence configuration for the Lanczos solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConfig {
    /// Maximum number of Lanczos steps (one adjacency mat-vec each) before
    /// giving up with the best estimate.
    pub max_iterations: usize,
    /// Relative Ritz residual at which the solve stops: the residual
    /// `‖A·y − θ·y‖` of the extreme Ritz pair, over `max(|θ|, 1)`.
    pub tolerance: f64,
    /// Seed for the random starting vector (deterministic runs).
    pub seed: u64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            max_iterations: 300,
            // The residual is also the margin the estimate is pushed out
            // by: on LFR-200k, 1e-4 takes about 120 steps and leaves `c`
            // 9e-5 relative below −1/λ_min (0.1211809 against 0.1211916).
            tolerance: 1e-4,
            seed: 0x0CA_5EED,
        }
    }
}

/// Result of a Lanczos solve.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerResult {
    /// The eigenvalue estimate: the extreme Ritz value moved outward by its
    /// residual norm.
    pub eigenvalue: f64,
    /// Lanczos steps performed (one adjacency mat-vec each).
    pub iterations: usize,
    /// Whether the residual met the tolerance within the step budget.
    pub converged: bool,
}

/// Estimates the largest adjacency eigenvalue `λ_max` (an upper bound up
/// to rounding once converged).
///
/// Returns 0 for graphs with no nodes or no edges.
pub fn lambda_max(graph: &CsrGraph, config: &PowerConfig) -> PowerResult {
    lambda_max_threaded(graph, config, 1)
}

/// Estimates the most negative adjacency eigenvalue `λ_min` (a lower bound
/// up to rounding once converged).
///
/// Returns 0 for graphs with no nodes or no edges.
pub fn lambda_min(graph: &CsrGraph, config: &PowerConfig) -> PowerResult {
    lambda_min_threaded(graph, config, 1)
}

/// [`lambda_max`] with each mat-vec split over `threads` workers
/// ([`crate::adj_matvec_threaded`]); the result is bit-identical to
/// [`lambda_max`]'s at any count.
pub fn lambda_max_threaded(graph: &CsrGraph, config: &PowerConfig, threads: usize) -> PowerResult {
    lanczos::solve(graph, config, -1.0, threads)
}

/// [`lambda_min`] with each mat-vec split over `threads` workers
/// ([`crate::adj_matvec_threaded`]); the result is bit-identical to
/// [`lambda_min`]'s at any count.
pub fn lambda_min_threaded(graph: &CsrGraph, config: &PowerConfig, threads: usize) -> PowerResult {
    lanczos::solve(graph, config, 1.0, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::from_edges;

    const TOL: f64 = 1e-6;

    fn cfg() -> PowerConfig {
        PowerConfig::default()
    }

    /// A tight-tolerance config for tests that compare against exact
    /// spectra.
    fn tight() -> PowerConfig {
        PowerConfig {
            tolerance: 1e-10,
            ..cfg()
        }
    }

    #[test]
    fn k2_extremes_are_plus_minus_one() {
        let g = from_edges(2, [(0, 1)]);
        let hi = lambda_max(&g, &cfg());
        let lo = lambda_min(&g, &cfg());
        assert!(hi.converged && lo.converged);
        assert!((hi.eigenvalue - 1.0).abs() < TOL, "{}", hi.eigenvalue);
        assert!((lo.eigenvalue + 1.0).abs() < TOL, "{}", lo.eigenvalue);
    }

    #[test]
    fn complete_graph_spectrum() {
        // K5: λ_max = 4, λ_min = −1.
        let mut edges = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        let g = from_edges(5, edges);
        assert!((lambda_max(&g, &cfg()).eigenvalue - 4.0).abs() < TOL);
        assert!((lambda_min(&g, &cfg()).eigenvalue + 1.0).abs() < TOL);
    }

    #[test]
    fn star_graph_spectrum() {
        // K_{1,4}: λ_max = 2, λ_min = −2 (bipartite; breaks naive power method).
        let g = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert!((lambda_max(&g, &cfg()).eigenvalue - 2.0).abs() < TOL);
        assert!((lambda_min(&g, &cfg()).eigenvalue + 2.0).abs() < TOL);
    }

    #[test]
    fn path_p3_spectrum() {
        // P3: eigenvalues ±√2, 0.
        let g = from_edges(3, [(0, 1), (1, 2)]);
        let s = 2.0f64.sqrt();
        assert!((lambda_max(&g, &cfg()).eigenvalue - s).abs() < TOL);
        assert!((lambda_min(&g, &cfg()).eigenvalue + s).abs() < TOL);
    }

    #[test]
    fn cycle_c4_bipartite() {
        // C4: eigenvalues 2, 0, 0, −2.
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!((lambda_max(&g, &cfg()).eigenvalue - 2.0).abs() < TOL);
        assert!((lambda_min(&g, &cfg()).eigenvalue + 2.0).abs() < TOL);
    }

    #[test]
    fn edgeless_graph_returns_zero() {
        let g = oca_graph::CsrGraph::empty(5);
        assert_eq!(lambda_max(&g, &cfg()).eigenvalue, 0.0);
        assert_eq!(lambda_min(&g, &cfg()).eigenvalue, 0.0);
    }

    #[test]
    fn disconnected_components_take_extreme_over_all() {
        // Triangle (λ ∈ {2, −1, −1}) plus K2 (λ ∈ {1, −1}).
        let g = from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]);
        assert!((lambda_max(&g, &cfg()).eigenvalue - 2.0).abs() < TOL);
        assert!((lambda_min(&g, &cfg()).eigenvalue + 1.0).abs() < TOL);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let a = lambda_min(&g, &cfg());
        let b = lambda_min(&g, &cfg());
        assert_eq!(a, b);
    }

    /// The cycle C_n has eigenvalues 2·cos(2πk/n); for even n the minimum
    /// is −2 and for odd n it is 2·cos(π(n−1)/n). A long cycle needs many
    /// steps, so this exercises the recurrence well past the point where
    /// a finite-precision basis has lost orthogonality.
    #[test]
    fn long_cycles_bracket_the_exact_extremes() {
        for n in [60u32, 61, 200] {
            let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            let g = from_edges(n as usize, edges);
            let exact_min = if n % 2 == 0 {
                -2.0
            } else {
                2.0 * (std::f64::consts::PI * f64::from(n - 1) / f64::from(n)).cos()
            };
            let lo = lambda_min(&g, &tight());
            let hi = lambda_max(&g, &tight());
            assert!(lo.converged && hi.converged, "n = {n}");
            assert!(
                lo.eigenvalue <= exact_min + 1e-12,
                "n = {n}: {}",
                lo.eigenvalue
            );
            assert!(
                lo.eigenvalue >= exact_min - 1e-8,
                "n = {n}: {}",
                lo.eigenvalue
            );
            assert!(hi.eigenvalue >= 2.0 - 1e-12, "n = {n}: {}", hi.eigenvalue);
            assert!(hi.eigenvalue <= 2.0 + 1e-8, "n = {n}: {}", hi.eigenvalue);
        }
    }

    /// A step budget cut below an unreachable tolerance still reports an
    /// estimate from the bottom of the spectrum, never a positive
    /// "minimum".
    #[test]
    fn starved_budget_never_returns_the_wrong_spectrum_end() {
        for seed in [1u64, 2, 3] {
            let g = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
            let starved = PowerConfig {
                max_iterations: 4,
                tolerance: 1e-12,
                seed,
            };
            let r = lambda_min(&g, &starved);
            assert!(
                r.eigenvalue < 0.0,
                "seed {seed}: λ_min estimate {} is on the wrong end",
                r.eigenvalue
            );
        }
    }

    #[test]
    fn iteration_budget_is_respected() {
        let edges: Vec<(u32, u32)> = (0..100u32).map(|i| (i, (i + 1) % 100)).collect();
        let g = from_edges(100, edges);
        let tight = PowerConfig {
            max_iterations: 3,
            ..tight()
        };
        let r = lambda_min(&g, &tight);
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
        // Even unconverged, the estimate is the smallest Ritz value pushed
        // down by its residual, on the negative end of the spectrum.
        assert!(r.eigenvalue < 0.0);
    }
}
