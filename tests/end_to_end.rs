//! End-to-end integration tests spanning all crates: generator → algorithm
//! → metrics, checking the paper's headline claims at test-friendly scale.

use oca::{HaltingConfig, Oca, OcaConfig};
use oca_baselines::{cfinder, lfk, CFinderConfig, LfkConfig};
use oca_gen::{daisy_tree, lfr, planted_partition, DaisyParams, LfrParams};
use oca_metrics::{average_f1, omega_index, overlapping_nmi, theta};

fn quality_config(n: usize) -> OcaConfig {
    OcaConfig {
        halting: HaltingConfig {
            max_seeds: 4 * n,
            target_coverage: 0.99,
            stagnation_limit: 200,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn oca_recovers_planted_partition() {
    let pp = planted_partition(5, 20, 0.8, 0.02, 11);
    let result = Oca::new(quality_config(100)).run(&pp.graph);
    let th = theta(&pp.ground_truth, &result.cover);
    assert!(th > 0.9, "theta = {th} on an easy planted partition");
}

#[test]
fn oca_recovers_lfr_at_low_mixing() {
    let bench = lfr(&LfrParams::small(500, 0.2, 12));
    let result = Oca::new(quality_config(500)).run(&bench.graph);
    let th = theta(&bench.ground_truth, &result.cover);
    assert!(th > 0.85, "theta = {th} at mu = 0.2 (paper: near 1)");
}

#[test]
fn oca_degrades_gracefully_with_mixing() {
    // Fig. 2's monotone shape: quality at mu=0.2 should comfortably beat
    // quality at mu=0.8 (where no structure remains).
    let easy = lfr(&LfrParams::small(400, 0.2, 13));
    let hard = lfr(&LfrParams::small(400, 0.8, 13));
    let easy_theta = theta(
        &easy.ground_truth,
        &Oca::new(quality_config(400)).run(&easy.graph).cover,
    );
    let hard_theta = theta(
        &hard.ground_truth,
        &Oca::new(quality_config(400)).run(&hard.graph).cover,
    );
    assert!(
        easy_theta > hard_theta + 0.3,
        "expected clear separation, got {easy_theta} vs {hard_theta}"
    );
}

#[test]
fn oca_beats_baselines_on_overlapping_daisy() {
    // Fig. 3's claim: OCA handles the planted overlap best.
    let bench = daisy_tree(&DaisyParams::default_shape(100), 4, 0.05, 14);
    let n = bench.graph.node_count();

    let oca_theta = theta(
        &bench.ground_truth,
        &Oca::new(quality_config(n)).run(&bench.graph).cover,
    );
    let lfk_theta = theta(
        &bench.ground_truth,
        &lfk(&bench.graph, &LfkConfig::default()),
    );
    let cf_theta = theta(
        &bench.ground_truth,
        &cfinder(&bench.graph, &CFinderConfig::default())
            .unwrap()
            .cover,
    );
    assert!(
        oca_theta >= lfk_theta && oca_theta > cf_theta,
        "OCA {oca_theta} vs LFK {lfk_theta} vs CFinder {cf_theta}"
    );
    assert!(oca_theta > 0.9, "OCA theta {oca_theta} on daisy");
}

#[test]
fn oca_reports_overlapping_membership() {
    let bench = daisy_tree(&DaisyParams::default_shape(100), 2, 0.05, 15);
    let result = Oca::new(quality_config(300)).run(&bench.graph);
    assert!(
        result.cover.overlap_node_count() > 0,
        "daisy overlap nodes must appear in multiple communities"
    );
}

#[test]
fn full_pipeline_with_orphan_assignment() {
    let bench = lfr(&LfrParams::small(300, 0.3, 16));
    let config = OcaConfig {
        assign_orphans: true,
        ..quality_config(300)
    };
    let result = Oca::new(config).run(&bench.graph);
    // Connected LFR graph + orphan rule → everything covered.
    assert!(
        result.cover.orphans().len() < 10,
        "almost all nodes covered, {} orphans",
        result.cover.orphans().len()
    );
}

#[test]
fn metrics_agree_on_good_and_bad_structures() {
    let bench = lfr(&LfrParams::small(400, 0.2, 17));
    let found = Oca::new(quality_config(400)).run(&bench.graph).cover;
    let th = theta(&bench.ground_truth, &found);
    let nmi = overlapping_nmi(&bench.ground_truth, &found);
    let f1 = average_f1(&bench.ground_truth, &found);
    // All three metrics should agree this is a good reconstruction.
    for (name, value) in [("theta", th), ("nmi", nmi), ("f1", f1)] {
        assert!(value > 0.8, "{name} = {value}");
    }
}

#[test]
fn oca_finds_planted_overlap_in_overlapping_lfr() {
    let bench = oca_gen::lfr_overlapping(&oca_gen::LfrParams::small(400, 0.15, 19), 40, 2);
    let result = Oca::new(quality_config(400)).run(&bench.graph);
    let th = theta(&bench.ground_truth, &result.cover);
    assert!(th > 0.6, "theta = {th} on overlapping LFR");
    assert!(
        result.cover.overlap_node_count() > 0,
        "planted overlap should surface in the found cover"
    );
}

/// Fig. 2 protocol with the tuned preset's hub-search settings: per-ascent
/// budgets and covered-hub pruning buy wall-clock on scale-free graphs,
/// but on community-structured LFR they must not move the quality metrics
/// against the planted ground truth by more than seed-to-seed variance.
#[test]
fn budgeted_hub_search_matches_unbudgeted_quality_on_fig2() {
    let bench = lfr(&LfrParams::small(600, 0.25, 1234));
    let unbudgeted = Oca::new(quality_config(600)).run(&bench.graph);
    let budgeted = Oca::new(OcaConfig {
        search: OcaConfig::tuned(&bench.graph).search,
        ..quality_config(600)
    })
    .run(&bench.graph);
    let theta_off = theta(&bench.ground_truth, &unbudgeted.cover);
    let theta_on = theta(&bench.ground_truth, &budgeted.cover);
    let omega_off = omega_index(&bench.ground_truth, &unbudgeted.cover);
    let omega_on = omega_index(&bench.ground_truth, &budgeted.cover);
    assert!(
        theta_off > 0.5 && theta_on > 0.5,
        "both runs should find most of the planted structure \
         (off {theta_off:.3}, on {theta_on:.3})"
    );
    assert!(
        (theta_off - theta_on).abs() < 0.15,
        "theta diverged: off {theta_off:.3} vs on {theta_on:.3}"
    );
    assert!(
        (omega_off - omega_on).abs() < 0.15,
        "omega diverged: off {omega_off:.3} vs on {omega_on:.3}"
    );
}

#[test]
fn parallel_matches_sequential_quality() {
    let bench = lfr(&LfrParams::small(400, 0.25, 18));
    let seq = Oca::new(quality_config(400)).run(&bench.graph);
    let par = Oca::new(OcaConfig {
        threads: 4,
        ..quality_config(400)
    })
    .run(&bench.graph);
    let seq_theta = theta(&bench.ground_truth, &seq.cover);
    let par_theta = theta(&bench.ground_truth, &par.cover);
    assert!(
        (seq_theta - par_theta).abs() < 0.15,
        "parallel quality {par_theta} far from sequential {seq_theta}"
    );
}

/// `oca detect` prints `c` so that `--fixed-c <printed>` reruns the same
/// detection: the printed string parses back to the spectral `c` exactly,
/// and a registry build with that fixed `c` writes the identical cover.
#[test]
fn printed_spectral_c_reruns_as_fixed_c_with_the_same_cover() {
    use oca_api::{registry, DetectorOptions};
    use oca_graph::{write_cover, DetectContext};

    let bench = lfr(&LfrParams::small(400, 0.3, 5));
    let g = &bench.graph;
    let registry = registry();
    let spec = registry.get("oca").unwrap();
    let detect = |opts: &DetectorOptions| {
        let detector = spec.build_tuned(g, opts).unwrap();
        detector.detect(g, &mut DetectContext::new(42)).unwrap()
    };
    let spectral = detect(&DetectorOptions::new());
    let stat = |key: &str| {
        let (_, value) = spectral.stats.iter().find(|(k, _)| *k == key).unwrap();
        value.clone()
    };
    let strength = oca_spectral::interaction_strength(g, &Default::default());
    let printed = stat("c");
    assert_eq!(
        printed.parse::<f64>().unwrap(),
        strength.c,
        "printed {printed}"
    );
    let lambda_min = stat("lambda_min").parse::<f64>().unwrap();
    assert_eq!(lambda_min, strength.lambda_min);

    let fixed = detect(&DetectorOptions::new().with("fixed-c", &printed));
    let bytes = |d: &oca_graph::Detection| {
        let mut out = Vec::new();
        write_cover(&d.cover, &mut out).unwrap();
        out
    };
    assert_eq!(bytes(&spectral), bytes(&fixed));
}
