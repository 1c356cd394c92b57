use crate::CsrGraph;

/// All-pairs shortest distances by Floyd–Warshall.
///
/// `O(V^3)` — strictly a test oracle for cross-validating Dijkstra, the
/// tree distance matrices, and the baselines on small graphs.
#[allow(clippy::needless_range_loop)] // index triples are the clearest form of F-W
pub fn floyd_warshall(graph: &CsrGraph) -> Vec<Vec<f64>> {
    let n = graph.num_vertices();
    let mut dist = vec![vec![f64::INFINITY; n]; n];
    for v in 0..n {
        dist[v][v] = 0.0;
    }
    for u in 0..n as u32 {
        for (v, w) in graph.neighbors(u) {
            let entry = &mut dist[u as usize][v as usize];
            if w < *entry {
                *entry = w;
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i][k];
            if !dik.is_finite() {
                continue;
            }
            for j in 0..n {
                let alt = dik + dist[k][j];
                if alt < dist[i][j] {
                    dist[i][j] = alt;
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DijkstraEngine, GraphBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_hand_computed() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(0, 3, 10.0);
        let d = floyd_warshall(&b.build());
        assert_eq!(d[0][3], 4.0);
        assert_eq!(d[3][0], 4.0);
        assert_eq!(d[1][1], 0.0);
    }

    /// Random graph: Dijkstra from every source must equal Floyd–Warshall.
    fn random_graph(seed: u64, n: usize, extra_edges: usize) -> crate::CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        // Random spanning tree to keep it connected.
        for v in 1..n as u32 {
            let u = rng.gen_range(0..v);
            b.add_edge(u, v, rng.gen_range(0.1..10.0));
        }
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            b.add_edge(u, v, rng.gen_range(0.1..10.0));
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn dijkstra_equals_floyd_warshall(seed in 0u64..5_000, n in 2usize..24, extra in 0usize..40) {
            let g = random_graph(seed, n, extra);
            let oracle = floyd_warshall(&g);
            let mut e = DijkstraEngine::new(n);
            for s in 0..n as u32 {
                e.run(&g, &[(s, 0.0)], &[]);
                for t in 0..n as u32 {
                    let got = e.settled_distance(t).unwrap_or(f64::INFINITY);
                    let want = oracle[s as usize][t as usize];
                    prop_assert!((got - want).abs() < 1e-9,
                        "s={s} t={t} got={got} want={want}");
                }
            }
        }

        #[test]
        fn path_lengths_match_distances(seed in 0u64..5_000, n in 2usize..20, extra in 0usize..30) {
            let g = random_graph(seed, n, extra);
            let mut e = DijkstraEngine::new(n);
            e.run(&g, &[(0, 0.0)], &[]);
            for t in 0..n as u32 {
                if let Some(d) = e.settled_distance(t) {
                    let path = e.path_to(t).unwrap();
                    prop_assert_eq!(path[0], 0);
                    prop_assert_eq!(*path.last().unwrap(), t);
                    let len: f64 = path.windows(2)
                        .map(|w| g.arc_weight(w[0], w[1]).unwrap())
                        .sum();
                    prop_assert!((len - d).abs() < 1e-9);
                }
            }
        }
    }
}
