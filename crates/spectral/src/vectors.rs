//! Explicit virtual vector representations (Definition 1 of the paper).
//!
//! The algorithm never materializes the vectors — that is the whole point
//! of the closed-form fitness — but *constructing* them for small graphs
//! is the ground truth everything else is checked against: given `c`, the
//! Gram matrix `G = I + c·A` is positive semidefinite exactly when
//! `c ≤ −1/λ_min`, and any factor `V` with `VᵀV = G` gives unit vectors
//! with `⟨v_i, v_j⟩ = c` on edges and `0` on non-edges. This module builds
//! such a factor by eigen-free Cholesky (with pivots checked), so tests can
//! verify `ϕ(S) = ‖Σ v_i‖² = |S| + 2·c·Ein(S)` numerically.

use oca_graph::{CsrGraph, NodeId};

/// An explicit virtual vector representation: one `n`-dimensional vector
/// per node (rows of the upper-triangular Cholesky factor).
#[derive(Debug, Clone)]
pub struct VectorRepresentation {
    n: usize,
    /// Column-major: `vectors[j]` is node j's vector (length n).
    vectors: Vec<Vec<f64>>,
    c: f64,
}

/// Why a representation could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum VectorError {
    /// `c` exceeds the admissible maximum: `I + cA` is not PSD
    /// (a Cholesky pivot went negative beyond tolerance).
    NotPositiveSemidefinite {
        /// The failing pivot column.
        column: usize,
        /// The pivot value.
        pivot: f64,
    },
    /// `c` outside `[0, 1)`.
    InvalidC(f64),
}

impl std::fmt::Display for VectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VectorError::NotPositiveSemidefinite { column, pivot } => write!(
                f,
                "I + cA is not PSD: pivot {pivot:.3e} at column {column} (c too large)"
            ),
            VectorError::InvalidC(c) => write!(f, "c = {c} outside [0, 1)"),
        }
    }
}

impl std::error::Error for VectorError {}

impl VectorRepresentation {
    /// Builds the representation via Cholesky factorization of `I + cA`.
    ///
    /// Dense `O(n³)`; intended for validation on small graphs only.
    pub fn build(graph: &CsrGraph, c: f64) -> Result<Self, VectorError> {
        if !(0.0..1.0).contains(&c) {
            return Err(VectorError::InvalidC(c));
        }
        let n = graph.node_count();
        // Dense Gram matrix.
        let mut gram = vec![vec![0.0f64; n]; n];
        for (i, row) in gram.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        for (u, v) in graph.edges() {
            gram[u.index()][v.index()] = c;
            gram[v.index()][u.index()] = c;
        }
        // Cholesky with PSD tolerance: L such that L·Lᵀ = G; node vectors
        // are the rows of L (then ⟨row_i, row_j⟩ = G_ij).
        let mut l = vec![vec![0.0f64; n]; n];
        const TOL: f64 = 1e-9;
        for j in 0..n {
            let mut diag = gram[j][j];
            for ljk in &l[j][..j] {
                diag -= ljk * ljk;
            }
            if diag < -TOL {
                return Err(VectorError::NotPositiveSemidefinite {
                    column: j,
                    pivot: diag,
                });
            }
            let diag = diag.max(0.0).sqrt();
            l[j][j] = diag;
            for i in (j + 1)..n {
                let mut acc = gram[i][j];
                for (lik, ljk) in l[i][..j].iter().zip(&l[j][..j]) {
                    acc -= lik * ljk;
                }
                l[i][j] = if diag > TOL { acc / diag } else { 0.0 };
            }
        }
        Ok(VectorRepresentation { n, vectors: l, c })
    }

    /// The interaction strength used.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the representation is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The vector of one node.
    pub fn vector(&self, v: NodeId) -> &[f64] {
        &self.vectors[v.index()]
    }

    /// Inner product of two node vectors.
    pub fn inner(&self, u: NodeId, v: NodeId) -> f64 {
        self.vectors[u.index()]
            .iter()
            .zip(&self.vectors[v.index()])
            .map(|(a, b)| a * b)
            .sum()
    }

    /// `ϕ(S) = ‖Σ_{i∈S} v_i‖²`, computed from the explicit vectors —
    /// the quantity the paper's Section II reasons about.
    pub fn phi(&self, members: &[NodeId]) -> f64 {
        let mut sum = vec![0.0f64; self.n];
        for &v in members {
            for (acc, x) in sum.iter_mut().zip(&self.vectors[v.index()]) {
                *acc += x;
            }
        }
        sum.iter().map(|x| x * x).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::from_edges;

    const TOL: f64 = 1e-8;

    #[test]
    fn inner_products_match_definition_one() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let c = 0.4; // C4 has λ_min = −2, so c ≤ 0.5 is admissible.
        let rep = VectorRepresentation::build(&g, c).unwrap();
        for u in g.nodes() {
            assert!((rep.inner(u, u) - 1.0).abs() < TOL, "unit vectors");
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let want = if g.has_edge(u, v) { c } else { 0.0 };
                assert!(
                    (rep.inner(u, v) - want).abs() < TOL,
                    "⟨{u:?},{v:?}⟩ = {} want {want}",
                    rep.inner(u, v)
                );
            }
        }
    }

    #[test]
    fn phi_matches_closed_form() {
        let g = from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        // λ_min of this graph is ≥ −2.2 or so; c = 0.3 is safe.
        let c = 0.3;
        let rep = VectorRepresentation::build(&g, c).unwrap();
        let cases: Vec<Vec<u32>> = vec![
            vec![0],
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
            vec![0, 1, 2, 3, 4],
            vec![0, 3],
            vec![1, 3, 4],
        ];
        for ids in cases {
            let members: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
            let mut flags = vec![false; 5];
            for &v in &members {
                flags[v.index()] = true;
            }
            let ein = g.internal_edges(&members, &flags);
            let closed = members.len() as f64 + 2.0 * c * ein as f64;
            let explicit = rep.phi(&members);
            assert!(
                (explicit - closed).abs() < TOL,
                "S = {ids:?}: explicit {explicit} vs closed {closed}"
            );
        }
    }

    #[test]
    fn admissibility_boundary() {
        // K2: λ_min = −1, so c < 1 is always admissible …
        let g = from_edges(2, [(0, 1)]);
        assert!(VectorRepresentation::build(&g, 0.999).is_ok());
        // … but the star K_{1,4} has λ_min = −2: c = 0.6 > 0.5 must fail.
        let star = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let err = VectorRepresentation::build(&star, 0.6).unwrap_err();
        assert!(matches!(err, VectorError::NotPositiveSemidefinite { .. }));
        assert!(VectorRepresentation::build(&star, 0.49).is_ok());
    }

    #[test]
    fn spectral_c_is_always_admissible() {
        // The whole point of c = −1/λ_min: representations exist.
        use crate::interaction::interaction_strength;
        use crate::power::PowerConfig;
        for (n, edges) in [
            (4usize, vec![(0u32, 1u32), (1, 2), (2, 3), (3, 0)]),
            (5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]),
            (
                6,
                vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
            ),
        ] {
            let g = from_edges(n, edges);
            let c = interaction_strength(&g, &PowerConfig::default()).c;
            assert!(
                VectorRepresentation::build(&g, c).is_ok(),
                "spectral c = {c} should be admissible"
            );
        }
    }

    #[test]
    fn invalid_c_rejected() {
        let g = from_edges(2, [(0, 1)]);
        assert_eq!(
            VectorRepresentation::build(&g, 1.5).unwrap_err(),
            VectorError::InvalidC(1.5)
        );
        assert_eq!(
            VectorRepresentation::build(&g, -0.1).unwrap_err(),
            VectorError::InvalidC(-0.1)
        );
    }

    #[test]
    fn example_one_of_the_paper() {
        // Figure 1's insight: connected pairs sum to longer vectors than
        // disconnected pairs.
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]); // path x-y-z-t
        let rep = VectorRepresentation::build(&g, 0.4).unwrap();
        let connected = rep.phi(&[NodeId(1), NodeId(2)]); // y+z
        let disconnected = rep.phi(&[NodeId(0), NodeId(3)]); // x+t
        assert!(connected > disconnected);
        assert!((disconnected - 2.0).abs() < TOL, "orthogonal sum");
    }
}
