//! The Lanczos iteration (Lanczos 1950) for the extreme adjacency
//! eigenvalues. It reaches the clustered bottom of an LFR spectrum in a
//! fraction of the mat-vecs a power iteration needs:
//!
//! * the three-term recurrence `β_j v_{j+1} = A·v_j − α_j v_j − β_{j−1} v_{j−1}`
//!   builds the tridiagonal `T_j`, keeping only three `n`-vectors — no
//!   basis is stored and nothing is reorthogonalized;
//! * after every step, Sturm bisection finds the extreme eigenvalue `θ` of
//!   `T_j` and the bottom entry `s` of its unit eigenvector, both in `O(j)`;
//! * `β_j·|s|` is the residual norm `‖A·y − θ·y‖` of the Ritz pair, a
//!   bound on the distance from `θ` to the spectrum that survives the lost
//!   orthogonality of a finite-precision run (Paige 1980). The loop stops
//!   once it is at most `tolerance·max(|θ|, 1)`.
//!
//! The reported eigenvalue is the Ritz value pushed outward by its
//! residual — `θ − β_j|s|` for `λ_min`, `θ + β_j|s|` for `λ_max` — so the
//! remaining error makes `c = −1/λ_min` slightly smaller, the side where
//! the vector representation exists, never larger.
//!
//! Without reorthogonalization the residual stops shrinking near `√ε`
//! once a spurious copy of the converged Ritz value forms, so tolerances
//! much below `1e-8` run out the step budget.
//!
//! Each step's mat-vec is split into row blocks over the caller's worker
//! count ([`crate::adj_matvec_threaded`]). Its result is bit-identical at
//! any count, and the order-sensitive rest of the step (the `α_j` dot
//! product, the residual-norm fold, the bisection) runs sequentially in
//! index order, so the estimate, the step count and hence `c` do not
//! depend on the thread count.
//!
//! [`crate::power`] holds the public entry points and the configuration
//! and result types.

use crate::matvec::{adj_matvec_threaded, dot, normalize};
use crate::power::{PowerConfig, PowerResult};
use oca_graph::CsrGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_unit_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
    if normalize(&mut x) == 0.0 {
        // Astronomically unlikely; fall back to a coordinate vector.
        if let Some(first) = x.first_mut() {
            *first = 1.0;
        }
    }
    x
}

/// The Lanczos loop for the smallest eigenvalue of `sign·A`: `sign = 1`
/// targets `λ_min`, `sign = −1` targets `λ_max`. The vectors are those of
/// `A` either way; only the tridiagonal's diagonal changes sign. The
/// mat-vec runs on `threads` workers; everything else is sequential.
pub(crate) fn solve(
    graph: &CsrGraph,
    config: &PowerConfig,
    sign: f64,
    threads: usize,
) -> PowerResult {
    let n = graph.node_count();
    if n == 0 || graph.edge_count() == 0 {
        return PowerResult {
            eigenvalue: 0.0,
            iterations: 0,
            converged: true,
        };
    }
    let mut v = random_unit_vector(n, config.seed);
    let mut v_prev = vec![0.0; n];
    let mut w = vec![0.0; n];
    // T_j of `sign·A`: diagonal `alpha`, off-diagonal `beta`.
    let mut alpha: Vec<f64> = Vec::new();
    let mut beta: Vec<f64> = Vec::new();
    let mut beta_prev = 0.0;
    let mut estimate = 0.0;
    // One step is the least that yields an estimate.
    let steps = config.max_iterations.max(1);
    for j in 1..=steps {
        adj_matvec_threaded(graph, &v, &mut w, threads);
        let a = dot(&w, &v);
        let mut norm2 = 0.0;
        for ((wi, &vi), &pi) in w.iter_mut().zip(&v).zip(&v_prev) {
            *wi -= a * vi + beta_prev * pi;
            norm2 += *wi * *wi;
        }
        let b = norm2.sqrt();
        alpha.push(sign * a);
        let (theta, bottom) = smallest_ritz_pair(&alpha, &beta);
        let residual = b * bottom.abs();
        estimate = sign * (theta - residual);
        if residual <= config.tolerance * theta.abs().max(1.0) || b == 0.0 {
            return PowerResult {
                eigenvalue: estimate,
                iterations: j,
                converged: true,
            };
        }
        beta.push(b);
        beta_prev = b;
        // v_prev ← v, v ← w / β_j; `w` is overwritten by the next mat-vec.
        std::mem::swap(&mut v_prev, &mut v);
        std::mem::swap(&mut v, &mut w);
        for vi in &mut v {
            *vi /= b;
        }
    }
    PowerResult {
        eigenvalue: estimate,
        iterations: steps,
        converged: false,
    }
}

/// The pivots `d_k` of `T − x·I = L·D·Lᵀ` for the tridiagonal with
/// diagonal `alpha` and off-diagonal `beta`.
fn ldl_pivots<'a>(alpha: &'a [f64], beta: &'a [f64], x: f64) -> impl Iterator<Item = f64> + 'a {
    let mut d = 1.0;
    alpha.iter().enumerate().map(move |(k, &a)| {
        let coupling = if k == 0 { 0.0 } else { beta[k - 1] };
        d = a - x - coupling * coupling / d;
        if d == 0.0 {
            // Nudge an exact zero pivot so the next division is finite.
            d = -f64::MIN_POSITIVE;
        }
        d
    })
}

/// Sturm count: the number of eigenvalues of the tridiagonal below `x`,
/// which is the number of negative pivots at `x`.
fn count_below(alpha: &[f64], beta: &[f64], x: f64) -> usize {
    ldl_pivots(alpha, beta, x).filter(|&d| d < 0.0).count()
}

/// The smallest eigenvalue `θ` of the tridiagonal with diagonal `alpha`
/// and off-diagonal `beta` (`beta.len() == alpha.len() − 1`), and the
/// last entry of its unit eigenvector. `O(len)` per bisection step.
fn smallest_ritz_pair(alpha: &[f64], beta: &[f64]) -> (f64, f64) {
    let j = alpha.len();
    // Gershgorin brackets θ from below; any diagonal entry (a Rayleigh
    // quotient of a unit vector) bounds it from above.
    let mut lo = f64::INFINITY;
    let mut hi = f64::INFINITY;
    for (k, &a) in alpha.iter().enumerate() {
        let left = if k == 0 { 0.0 } else { beta[k - 1].abs() };
        let right = if k + 1 == j { 0.0 } else { beta[k].abs() };
        lo = lo.min(a - left - right);
        hi = hi.min(a);
    }
    // Invariant: no eigenvalue below `lo`, at least one at or below `hi`.
    loop {
        let mid = 0.5 * (lo + hi);
        if hi - lo <= f64::EPSILON * lo.abs().max(hi.abs()).max(1.0) || mid <= lo || mid >= hi {
            break;
        }
        if count_below(alpha, beta, mid) > 0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let theta = lo;
    // At `lo` no pivot of T − θI is negative (none was counted), so the
    // null vector comes stably from the bottom up: with u_j = 1, the rows
    // of Lᵀ·u = e_j give u_k = −β_k·u_{k+1} / d_k.
    let pivots: Vec<f64> = ldl_pivots(alpha, beta, theta).collect();
    let mut bottom = 1.0;
    let mut u = 1.0;
    let mut norm2 = 1.0;
    for k in (0..j - 1).rev() {
        u = -beta[k] * u / pivots[k];
        norm2 += u * u;
        if norm2 > 1e200 {
            // Rescale so the norm cannot overflow; only ratios matter.
            u *= 1e-150;
            bottom *= 1e-150;
            norm2 *= 1e-300;
        }
    }
    (theta, bottom / norm2.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ritz_pair_of_a_known_tridiagonal() {
        // [[2, 1], [1, 2]]: eigenvalues 1 and 3; the eigenvector of 1 is
        // (1, −1)/√2, so its bottom entry has magnitude 1/√2.
        let (theta, bottom) = smallest_ritz_pair(&[2.0, 2.0], &[1.0]);
        assert!((theta - 1.0).abs() < 1e-14, "{theta}");
        assert!((bottom.abs() - 0.5f64.sqrt()).abs() < 1e-12, "{bottom}");
        // A 1×1 tridiagonal is its own eigenpair.
        assert_eq!(smallest_ritz_pair(&[-3.5], &[]), (-3.5, 1.0));
        assert_eq!(count_below(&[2.0, 2.0], &[1.0], 2.0), 1);
        assert_eq!(count_below(&[2.0, 2.0], &[1.0], 3.5), 2);
    }
}
