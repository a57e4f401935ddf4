//! Cross-crate consistency checks: each crate's outputs satisfy the
//! contracts its consumers rely on.

use oca_baselines::{cfinder, label_propagation, CFinderConfig, LpaConfig};
use oca_gen::{
    barabasi_albert, daisy_tree, gnp, lfr, realized_mixing, rmat, wiki_like, DaisyParams,
    LfrParams, RmatParams, WikiLikeParams,
};
use oca_graph::GraphStats;
use oca_metrics::{conductance, cover_quality, theta};
use oca_spectral::{interaction_strength, lambda_max, lambda_min, PowerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn every_generator_produces_valid_csr() {
    let mut rng = StdRng::seed_from_u64(1);
    let graphs = vec![
        lfr(&LfrParams::small(300, 0.3, 2)).graph,
        daisy_tree(&DaisyParams::default_shape(70), 3, 0.1, 3).graph,
        gnp(200, 0.05, &mut rng),
        barabasi_albert(200, 3, &mut rng),
        rmat(&RmatParams::graph500(9, 6), &mut rng),
        wiki_like(&WikiLikeParams::at_scale(9, 4)).graph,
    ];
    for g in &graphs {
        g.validate().expect("generator emitted invalid CSR");
    }
}

#[test]
fn ground_truth_covers_are_consistent_with_graphs() {
    let bench = lfr(&LfrParams::small(400, 0.3, 5));
    assert_eq!(bench.ground_truth.node_count(), bench.graph.node_count());
    // Planted communities should have noticeably better-than-random
    // internal structure.
    let q = cover_quality(&bench.graph, &bench.ground_truth);
    assert!(
        q.mean_conductance < 0.6,
        "conductance {}",
        q.mean_conductance
    );
    assert!((q.coverage - 1.0).abs() < 1e-12);
}

#[test]
fn lfr_mixing_parameter_is_respected_end_to_end() {
    for &mu in &[0.1, 0.4] {
        let bench = lfr(&LfrParams::small(600, mu, 6));
        let realized = realized_mixing(&bench);
        assert!(
            (realized - mu).abs() < 0.12,
            "mu {mu} realized as {realized}"
        );
    }
}

#[test]
fn spectral_bounds_hold_on_generated_graphs() {
    let cfg = PowerConfig::default();
    let bench = lfr(&LfrParams::small(300, 0.3, 7));
    let g = &bench.graph;
    let hi = lambda_max(g, &cfg).eigenvalue;
    let lo = lambda_min(g, &cfg).eigenvalue;
    let stats = GraphStats::compute(g);
    // Perron–Frobenius sandwich: avg degree ≤ λ_max ≤ max degree.
    assert!(hi <= stats.max_degree as f64 + 1e-6);
    assert!(hi >= stats.avg_degree - 1e-6);
    // λ_min ∈ [−λ_max, −1] for graphs with at least one edge.
    assert!(lo <= -1.0 + 1e-6);
    assert!(lo >= -hi - 1e-6);
    let c = interaction_strength(g, &cfg).c;
    assert!(c > 0.0 && c < 1.0);
}

#[test]
fn cfinder_communities_are_triangle_connected() {
    let bench = lfr(&LfrParams::small(200, 0.2, 8));
    let r = cfinder(&bench.graph, &CFinderConfig::default()).unwrap();
    // Every k=3 community must be connected in the underlying graph: a
    // search from its first member, stepping only onto members, reaches
    // all of them.
    let g = &bench.graph;
    for c in r.cover.communities() {
        let mut member = vec![false; g.node_count()];
        for &v in c.members() {
            member[v.index()] = true;
        }
        let mut stack = vec![c.members()[0]];
        member[c.members()[0].index()] = false;
        let mut reached = 1;
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if member[v.index()] {
                    member[v.index()] = false;
                    reached += 1;
                    stack.push(v);
                }
            }
        }
        assert_eq!(
            reached,
            c.len(),
            "CPM community of size {} disconnected",
            c.len()
        );
    }
}

#[test]
fn lpa_partition_conductance_beats_random_split() {
    let bench = lfr(&LfrParams::small(300, 0.2, 9));
    let cover = label_propagation(&bench.graph, &LpaConfig::default());
    let q = cover_quality(&bench.graph, &cover);
    // A random half-half split has conductance ≈ mu-ish ≈ 0.8; LPA should
    // do far better on a structured graph.
    assert!(
        q.mean_conductance < 0.5,
        "conductance {}",
        q.mean_conductance
    );
}

#[test]
fn theta_is_maximal_exactly_on_ground_truth() {
    let bench = daisy_tree(&DaisyParams::default_shape(70), 2, 0.1, 10);
    let t_self = theta(&bench.ground_truth, &bench.ground_truth);
    assert!((t_self - 1.0).abs() < 1e-12);
    // A coarsening (whole graph as one community) must score lower.
    let blob = oca_graph::Cover::new(
        bench.graph.node_count(),
        vec![oca_graph::Community::from_raw(
            0..bench.graph.node_count() as u32,
        )],
    );
    assert!(theta(&bench.ground_truth, &blob) < 0.5);
}

#[test]
fn conductance_of_planted_blocks_is_low() {
    let pp = oca_gen::planted_partition(4, 25, 0.6, 0.01, 11);
    for c in pp.ground_truth.communities() {
        assert!(
            conductance(&pp.graph, c) < 0.25,
            "block conductance too high"
        );
    }
}
