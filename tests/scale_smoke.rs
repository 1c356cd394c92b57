//! Scale smoke tests on the calibrated presets: builds stay fast, queries
//! stay correct (sampled against the Dijkstra oracle), and the structural
//! quantities the paper reports (ρ, f, α < 4 on average; max superior
//! doors ≈ 8) hold on our venues too.

use indoor_spatial::graph::DijkstraEngine;
use indoor_spatial::prelude::*;
use indoor_spatial::synth::{presets, workload};
use indoor_spatial::vip::TreeStats;
use std::sync::Arc;

fn oracle(
    venue: &Venue,
    engine: &mut DijkstraEngine,
    s: &IndoorPoint,
    t: &IndoorPoint,
) -> Option<f64> {
    let direct = s.direct_distance(venue, t);
    let via = engine
        .point_to_point(venue.d2d(), &s.door_seeds(venue), &t.door_seeds(venue))
        .map(|(d, _)| d);
    match (direct, via) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

#[test]
fn menzies_2_correct_and_paper_shaped() {
    let venue = Arc::new(presets::menzies_2().build());
    let tree = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();

    let stats = TreeStats::compute(tree.ip_tree());
    assert!(
        stats.avg_access_doors < 6.0,
        "rho {}",
        stats.avg_access_doors
    );
    assert!(
        stats.avg_superior_doors < 4.0,
        "alpha {}",
        stats.avg_superior_doors
    );
    assert!(stats.avg_fanout < 8.0, "f {}", stats.avg_fanout);

    // Footprint pin: every distance and every door list is stored once —
    // the slab arena is the matrix store, the topology is flat runs, the
    // VIP table is one flat structure and each leaf door pair is one grid
    // cell. With every leaf grid built the index is 1 967 079 B; a second
    // copy of the VIP table (≥ 215 kB), a square grid (≥ 440 kB) or the
    // per-node list headers and duplicate door lists (≈ 84 kB) cannot
    // come back unnoticed.
    tree.ip_tree().build_leaf_grid();
    assert!(
        tree.size_bytes() <= 2_030_000,
        "index {} B",
        tree.size_bytes()
    );

    let mut engine = DijkstraEngine::new(venue.num_doors());
    for (s, t) in workload::query_pairs(&venue, 60, 1) {
        let want = oracle(&venue, &mut engine, &s, &t).expect("connected venue");
        let got = tree.shortest_distance_points(&s, &t).expect("reachable");
        assert!(
            (want - got).abs() < 1e-6 * want.max(1.0),
            "got {got}, want {want}"
        );
    }
    for (s, t) in workload::query_pairs(&venue, 25, 2) {
        let p = tree.shortest_path_points(&s, &t).expect("reachable");
        let len = p.validate(&venue).expect("valid path");
        assert!((len - p.length).abs() < 1e-6 * len.max(1.0));
    }
    assert_eq!(tree.decompose_fallback_count(), 0);
}

#[test]
fn clayton_lite_campus_correct() {
    let venue = Arc::new(presets::clayton_lite().build());
    let tree = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();

    let mut engine = DijkstraEngine::new(venue.num_doors());
    for (s, t) in workload::query_pairs(&venue, 30, 3) {
        let want = oracle(&venue, &mut engine, &s, &t).expect("connected campus");
        let got = tree.shortest_distance_points(&s, &t).expect("reachable");
        assert!(
            (want - got).abs() < 1e-6 * want.max(1.0),
            "got {got}, want {want}"
        );
    }

    // Cross-building kNN with sparse objects (the paper's hard case).
    let objects = workload::place_objects(&venue, 10, 4);
    tree.attach_objects(&objects);
    for q in workload::query_points(&venue, 10, 5) {
        let got = tree.knn(&q, 3);
        let mut want: Vec<f64> = objects
            .iter()
            .filter_map(|o| oracle(&venue, &mut engine, &q, o))
            .collect();
        want.sort_by(f64::total_cmp);
        assert_eq!(got.len(), 3.min(want.len()));
        for (i, (_, d)) in got.iter().enumerate() {
            assert!(
                (d - want[i]).abs() < 1e-6 * want[i].max(1.0),
                "rank {i}: got {d}, want {}",
                want[i]
            );
        }
    }
    assert_eq!(tree.decompose_fallback_count(), 0);
}
