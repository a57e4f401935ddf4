//! Planted-recovery guard: the default OCA configuration, spectral `c`
//! included, must keep recovering the planted communities of small LFR
//! graphs. A change to the spectral solver, the ascent or the driver that
//! moves covers shows up here as a drop in Θ against the ground truth.

use oca::{Oca, OcaConfig};
use oca_gen::{lfr, LfrParams};
use oca_metrics::theta;

/// `(seed, Θ)`: Θ of the default-config cover against the planted truth
/// on `LfrParams::small(2000, 0.3, seed)`, measured (to four places, rounded
/// down) while `c` still came from the power method.
const RECORDED: [(u64, f64); 3] = [(1, 0.9522), (2, 0.9614), (3, 0.9519)];

/// How far Θ may fall below the recorded value before the guard fails.
const SLACK: f64 = 0.01;

#[test]
fn default_config_recovers_planted_lfr_communities() {
    for (seed, recorded) in RECORDED {
        let bench = lfr(&LfrParams::small(2000, 0.3, seed));
        let result = Oca::new(OcaConfig::default()).run(&bench.graph);
        let score = theta(&bench.ground_truth, &result.cover);
        assert!(
            score >= recorded - SLACK,
            "seed {seed}: theta {score} fell below the recorded {recorded} - {SLACK}"
        );
    }
}
