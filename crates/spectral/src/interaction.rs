//! The interaction strength `c` of the virtual vector representation.
//!
//! Section II of the paper: in a virtual vector representation, adjacent
//! nodes have inner product `c ∈ [0, 1)` and non-adjacent nodes are
//! orthogonal. Larger `c` separates communities better, and the largest
//! admissible value is `c = −1/λ_min`.

use crate::power::{lambda_min_threaded, PowerConfig, PowerResult};
use oca_graph::CsrGraph;

/// Largest representable interaction strength; Definition 1 requires `c < 1`.
pub const MAX_C: f64 = 1.0 - 1e-9;

/// Fallback used for degenerate graphs (no edges), where `λ_min = 0` and the
/// paper's formula is undefined. Any `c ∈ (0,1)` behaves identically there
/// because there are no internal edges to weight.
pub const DEFAULT_C: f64 = 0.5;

/// The interaction strength together with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionStrength {
    /// The value of `c` to plug into the fitness function.
    pub c: f64,
    /// The `λ_min` estimate it was derived from (0 for degenerate graphs).
    pub lambda_min: f64,
    /// The underlying Lanczos diagnostics (steps, convergence).
    pub power: PowerResult,
}

/// Computes `c = −1/λ_min`, clamped into `(0, MAX_C]`.
///
/// For any graph with at least one edge, interlacing with the `K2` spectrum
/// gives `λ_min ≤ −1`, hence `c ∈ (0, 1]`; the clamp only trims the exact
/// `λ_min = −1` case (disjoint unions of cliques) to stay strictly below 1.
/// The Lanczos estimate is already pushed below the true `λ_min` by its
/// residual, so `c` errs on the admissible side and needs no back-off.
pub fn interaction_strength(graph: &CsrGraph, config: &PowerConfig) -> InteractionStrength {
    interaction_strength_threaded(graph, config, 1)
}

/// [`interaction_strength`] with the solve's mat-vecs split over
/// `threads` workers ([`crate::lambda_min_threaded`]): the same `c`, to
/// the bit, at any count.
pub fn interaction_strength_threaded(
    graph: &CsrGraph,
    config: &PowerConfig,
    threads: usize,
) -> InteractionStrength {
    let power = lambda_min_threaded(graph, config, threads);
    let lam = power.eigenvalue;
    let c = if lam >= -f64::EPSILON {
        DEFAULT_C
    } else {
        (-1.0 / lam).clamp(f64::EPSILON, MAX_C)
    };
    InteractionStrength {
        c,
        lambda_min: lam,
        power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::from_edges;

    fn cfg() -> PowerConfig {
        PowerConfig::default()
    }

    #[test]
    fn k2_gives_c_close_to_one() {
        let g = from_edges(2, [(0, 1)]);
        let s = interaction_strength(&g, &cfg());
        assert!((s.lambda_min + 1.0).abs() < 1e-6);
        assert!(s.c <= MAX_C);
        assert!(s.c > 0.999, "c = {}", s.c);
    }

    #[test]
    fn star_gives_c_half() {
        // K_{1,4}: λ_min = −2 ⇒ c = 0.5.
        let g = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let s = interaction_strength(&g, &cfg());
        assert!((s.c - 0.5).abs() < 1e-6, "c = {}", s.c);
    }

    #[test]
    fn edgeless_graph_falls_back() {
        let g = oca_graph::CsrGraph::empty(4);
        let s = interaction_strength(&g, &cfg());
        assert_eq!(s.c, DEFAULT_C);
        assert_eq!(s.lambda_min, 0.0);
    }

    #[test]
    fn c_always_in_unit_interval() {
        for (n, edges) in [
            (3, vec![(0u32, 1u32), (1, 2), (0, 2)]),
            (6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
            (4, vec![(0, 1), (2, 3)]),
        ] {
            let g = from_edges(n, edges);
            let s = interaction_strength(&g, &cfg());
            assert!(s.c > 0.0 && s.c < 1.0, "c = {} out of (0,1)", s.c);
        }
    }
}
