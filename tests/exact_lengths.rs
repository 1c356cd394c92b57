//! Exact lengths (DESIGN.md §16). Every length the model hands out is a
//! whole number of 2⁻¹⁰ m ticks, so every sum of lengths is exact and
//! every association order gives the same bits. Each check here compares
//! bits, never a tolerance: the VIP-tree's door tables, the IP-tree's
//! matrix climb, the leaf grid and a full-graph Dijkstra each add the same
//! legs in their own order, and must agree to the last bit.

use indoor_spatial::graph::DijkstraEngine;
use indoor_spatial::prelude::*;
use indoor_spatial::synth::{random_venue, workload};
use proptest::prelude::*;
use std::sync::Arc;

fn build(seed: u64) -> (Arc<Venue>, VipTree) {
    let venue = Arc::new(random_venue(seed));
    let vip = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
    (venue, vip)
}

/// Full-graph Dijkstra between two points: the oracle.
fn dijkstra(
    venue: &Venue,
    engine: &mut DijkstraEngine,
    s: &IndoorPoint,
    t: &IndoorPoint,
) -> Option<f64> {
    s.route_to(venue, t, engine).map(|(d, _)| d)
}

fn bits(d: Option<f64>) -> Option<u64> {
    d.map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `d(s, t) ≡ d(t, s)` on the VIP-tree, the IP-tree and Dijkstra.
    /// Before lengths were ticks, 16–28 % of door pairs differed in the
    /// last bit between the two directions of a full-graph search.
    #[test]
    fn distances_are_symmetric_bit_for_bit(seed in 0u64..2_000) {
        let (venue, vip) = build(seed);
        let ip = vip.ip_tree();
        let mut engine = DijkstraEngine::new(venue.num_doors());
        for (s, t) in workload::query_pairs(&venue, 20, seed ^ 0x5D) {
            let forward = [
                vip.shortest_distance_points(&s, &t),
                ip.shortest_distance_points(&s, &t),
                dijkstra(&venue, &mut engine, &s, &t),
            ];
            let backward = [
                vip.shortest_distance_points(&t, &s),
                ip.shortest_distance_points(&t, &s),
                dijkstra(&venue, &mut engine, &t, &s),
            ];
            prop_assert_eq!(forward.map(bits), backward.map(bits), "seed {}: {:?} {:?}", seed, s, t);
        }
    }

    /// IP SD ≡ VIP SD ≡ Dijkstra, and each tree's shortest path has that
    /// length and walks to it.
    #[test]
    fn ip_vip_and_dijkstra_agree_bit_for_bit(seed in 0u64..2_000) {
        let (venue, vip) = build(seed);
        let ip = vip.ip_tree();
        let mut engine = DijkstraEngine::new(venue.num_doors());
        for (s, t) in workload::query_pairs(&venue, 20, seed ^ 0x3A) {
            let want = bits(dijkstra(&venue, &mut engine, &s, &t));
            prop_assert_eq!(bits(vip.shortest_distance_points(&s, &t)), want, "seed {}: VIP SD", seed);
            prop_assert_eq!(bits(ip.shortest_distance_points(&s, &t)), want, "seed {}: IP SD", seed);
            for path in [vip.shortest_path_points(&s, &t), ip.shortest_path_points(&s, &t)] {
                prop_assert_eq!(bits(path.as_ref().map(|p| p.length)), want, "seed {}: SP length", seed);
                if let Some(p) = path {
                    let walked = p.validate(&venue).expect("path walkable");
                    prop_assert_eq!(walked.to_bits(), p.length.to_bits(), "seed {}: walked", seed);
                }
            }
        }
    }

    /// kNN and range on both trees ≡ brute force: the Dijkstra distance to
    /// every object, sorted.
    #[test]
    fn knn_and_range_are_brute_force_bit_for_bit(seed in 0u64..2_000, k in 1usize..8, n_obj in 1usize..30) {
        let (venue, vip) = build(seed);
        let objects = workload::place_objects(&venue, n_obj, seed ^ 0x0B);
        vip.attach_objects(&objects);
        let ip = vip.ip_tree();
        let mut engine = DijkstraEngine::new(venue.num_doors());
        let dists = |v: Vec<(ObjectId, f64)>| -> Vec<u64> { v.into_iter().map(|(_, d)| d.to_bits()).collect() };
        for q in workload::query_points(&venue, 6, seed ^ 0x5151) {
            let mut all: Vec<f64> = objects
                .iter()
                .filter_map(|o| dijkstra(&venue, &mut engine, &q, o))
                .collect();
            all.sort_by(f64::total_cmp);
            let nearest: Vec<u64> = all.iter().take(k).map(|d| d.to_bits()).collect();
            prop_assert_eq!(dists(vip.knn(&q, k)), nearest.clone(), "seed {}: VIP kNN", seed);
            prop_assert_eq!(dists(ip.knn(&q, k)), nearest, "seed {}: IP kNN", seed);
            for radius in [10.0, 60.0] {
                let within: Vec<u64> = all.iter().filter(|&&d| d <= radius).map(|d| d.to_bits()).collect();
                for got in [vip.range(&q, radius), ip.range(&q, radius)] {
                    prop_assert_eq!(dists(got), within.clone(), "seed {}: range {}", seed, radius);
                }
            }
        }
    }
}
