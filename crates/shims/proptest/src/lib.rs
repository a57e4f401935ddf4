//! Offline stand-in for `proptest` (1.x API subset) — DESIGN.md §6.
//!
//! Implements enough of the proptest surface for the workspace's property
//! tests: the [`Strategy`] trait with `prop_map`, range and tuple
//! strategies, `prop::collection::{vec, btree_set}`, and the `proptest!`,
//! `prop_assert!`, `prop_assert_eq!`, `prop_assume!` macros.
//!
//! Differences from real proptest, deliberately accepted:
//! * cases are drawn from a fixed deterministic seed per test (derived from
//!   the test name), so runs are reproducible but not configurable via
//!   `PROPTEST_CASES`/persistence files — except for the case count, which
//!   honors `PROPTEST_CASES` when set;
//! * no shrinking: a failing case panics with the standard assert message
//!   rather than a minimized counterexample.

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod strategy;

pub use strategy::Strategy;

/// The default number of cases per property (proptest's default is 256;
/// 128 keeps the suite quick under the shim's no-shrinking model).
pub const DEFAULT_CASES: usize = 128;

/// Runs `f` once per case with a deterministic per-test RNG.
///
/// Not part of the public proptest API; called by the `proptest!` macro
/// expansion.
pub fn run_cases<F: FnMut(&mut StdRng)>(test_name: &str, mut f: F) {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CASES);
    // FNV-1a over the test name gives each property its own stream.
    let seed = oca_graph::fnv1a(test_name.as_bytes());
    for case in 0..cases as u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        f(&mut rng);
    }
}

/// Strategy constructors, mirroring the `proptest::prop` facade.
pub mod prop {
    /// Collection strategies (`prop::collection::*`).
    pub mod collection {
        pub use crate::strategy::collection::{btree_set, vec};
    }
}

/// The glob-import surface, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, …) { body }`
/// becomes a `#[test]` that samples the strategies [`DEFAULT_CASES`] times.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases(stringify!($name), |prop_rng| {
                    $(let $arg = $crate::Strategy::sample(&($strat), prop_rng);)+
                    let prop_case = move || -> () { $body };
                    prop_case();
                });
            }
        )*
    };
}

/// Asserts a property holds (panics on failure — the shim does not shrink).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
/// Must appear directly inside a `proptest!` body (it returns from the
/// generated case closure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn vec_lengths_respect_bounds(v in prop::collection::vec(0u32..10, 2..7)) {
            prop_assert!((2..7).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn btree_sets_hit_requested_sizes(s in prop::collection::btree_set(0u32..100, 3..6)) {
            prop_assert!((3..6).contains(&s.len()));
        }

        #[test]
        fn assume_skips_cases(x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
        }

        #[test]
        fn prop_map_applies(d in (0u32..5).prop_map(|x| x * 2)) {
            prop_assert!(d % 2 == 0 && d < 10);
        }

        #[test]
        fn tuples_and_floats(p in (0u32..4, 0.25f64..0.75)) {
            prop_assert!(p.0 < 4);
            prop_assert!((0.25..0.75).contains(&p.1));
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        crate::run_cases("det", |rng| {
            a.push(crate::Strategy::sample(&(0u64..1000), rng))
        });
        crate::run_cases("det", |rng| {
            b.push(crate::Strategy::sample(&(0u64..1000), rng))
        });
        assert_eq!(a, b);
        assert!(a.iter().collect::<std::collections::BTreeSet<_>>().len() > 10);
    }
}
