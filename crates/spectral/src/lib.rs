//! # oca-spectral — sparse spectral estimation for OCA
//!
//! Section II of the OCA paper embeds a graph into a vector space whose
//! interaction strength `c` must satisfy `c = −1/λ_min`, where `λ_min` is
//! the most negative eigenvalue of the adjacency matrix, "efficiently
//! calculated using the well-known power method". This crate computes it
//! with a Lanczos iteration instead, which converges in far fewer
//! mat-vecs on clustered spectra and bounds its own error: streaming CSR
//! matrix–vector products, one three-vector Lanczos loop for either
//! spectral extreme with a residual stopping rule, and the clamped
//! interaction strength. The configuration and result types keep the
//! power method's names, [`PowerConfig`] and [`PowerResult`].
//!
//! The `_threaded` entry points ([`interaction_strength_threaded`],
//! [`lambda_min_threaded`], [`lambda_max_threaded`],
//! [`adj_matvec_threaded`]) split each mat-vec's rows over worker
//! threads and return results bit-identical to the one-worker functions,
//! which are the same loop at one worker.
//!
//! ```
//! use oca_graph::from_edges;
//! use oca_spectral::{interaction_strength, PowerConfig};
//!
//! // A 4-star: λ_min = −2, so c = 1/2.
//! let g = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
//! let s = interaction_strength(&g, &PowerConfig::default());
//! assert!((s.c - 0.5).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod interaction;
mod lanczos;
pub mod matvec;
pub mod power;
pub mod vectors;

pub use interaction::{
    interaction_strength, interaction_strength_threaded, InteractionStrength, DEFAULT_C, MAX_C,
};
pub use matvec::{adj_matvec, adj_matvec_threaded, dot, norm, normalize, rayleigh_quotient};
pub use power::{
    lambda_max, lambda_max_threaded, lambda_min, lambda_min_threaded, PowerConfig, PowerResult,
};
pub use vectors::{VectorError, VectorRepresentation};
