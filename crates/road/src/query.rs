//! ROAD query processing: search-space pruned Dijkstra over the hybrid
//! overlay graph, plus kNN/range guided by the association directory.

use crate::build::Road;
use graph_partition::NO_H;
use indoor_model::{DoorId, IndoorPath, IndoorPoint, ObjectId};
use std::collections::HashMap;
use std::ops::ControlFlow;

impl Road {
    /// Nodes that must not be bypassed for this query: every Rnet on the
    /// chains of the given seed vertices (searches start/end inside them).
    fn chain_set(&self, seeds: &[(u32, f64)]) -> Vec<u32> {
        let mut out = Vec::new();
        for &(v, _) in seeds {
            for n in self.h.chain(self.h.leaf_of_vertex[v as usize]) {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// The maximal bypassable Rnet containing `v`, given the non-bypass
    /// predicate, or `None` when every Rnet of `v`'s chain must be opened.
    fn maximal_bypassed(&self, v: u32, non_bypass: &impl Fn(u32) -> bool) -> Option<u32> {
        let chain = self.h.chain(self.h.leaf_of_vertex[v as usize]);
        // chain is leaf→root; scan from the root side for the first
        // bypassable node (the root itself is never bypassable).
        let mut best = None;
        for &n in chain.iter().rev() {
            if !non_bypass(n) {
                best = Some(n);
                break; // highest bypassable = maximal Rnet to skip
            }
        }
        best
    }

    /// Hybrid expansion: inside bypassed Rnets travel border-to-border via
    /// shortcuts; everywhere else use original D2D edges.
    fn hybrid_neighbors(
        &self,
        v: u32,
        non_bypass: &impl Fn(u32) -> bool,
        out: &mut Vec<(u32, f64)>,
    ) {
        let g = self.venue.d2d();
        match self.maximal_bypassed(v, non_bypass) {
            Some(r) => {
                // v is necessarily a border of `r` (interiors of bypassed
                // Rnets are unreachable in the hybrid graph).
                let sc = &self.shortcuts[r as usize];
                if let Some(ri) = sc.row_index(v) {
                    for (ci, &b) in sc.cols.iter().enumerate() {
                        let w = sc.at(ri, ci);
                        if b != v && w.is_finite() {
                            out.push((b, w));
                        }
                    }
                }
                for (u, w) in g.neighbors(v) {
                    if !self.h.contains(r, self.h.leaf_of_vertex[u as usize]) {
                        out.push((u, w));
                    }
                }
            }
            None => out.extend(g.neighbors(v)),
        }
    }

    pub fn shortest_distance_points(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<f64> {
        self.route(s, t).map(|(d, _)| d)
    }

    pub fn shortest_path_points(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<IndoorPath> {
        let (length, doors) = self.route(s, t)?;
        Some(IndoorPath {
            source: *s,
            target: *t,
            doors,
            length,
        })
    }

    /// Search-space pruned point-to-point query; returns distance and the
    /// fully expanded door sequence.
    fn route(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<(f64, Vec<DoorId>)> {
        let venue = &*self.venue;
        let s_seeds = s.door_seeds(venue);
        let t_seeds = t.door_seeds(venue);
        let direct = s.direct_distance(venue, t);

        let mut protected = self.chain_set(&s_seeds);
        protected.extend(self.chain_set(&t_seeds));
        let non_bypass = |n: u32| protected.contains(&n);

        let mut engine = self.engine.lock().expect("engine poisoned");
        let best = engine.point_to_point_dynamic(
            &s_seeds,
            |v, out| self.hybrid_neighbors(v, &non_bypass, out),
            &t_seeds,
        );

        // Overlay vertex chain (may contain shortcut jumps).
        let overlay: Option<(f64, Vec<u32>)> =
            best.map(|(d, exit)| (d, engine.path_to(exit).expect("exit is settled")));
        drop(engine);

        match (direct, overlay) {
            (Some(dd), Some((vd, _))) if dd <= vd => Some((dd, Vec::new())),
            (Some(dd), None) => Some((dd, Vec::new())),
            (_, Some((vd, overlay_seq))) => {
                let doors = self.expand_overlay(&overlay_seq, &non_bypass);
                Some((vd, doors))
            }
            (None, None) => None,
        }
    }

    /// Expand an overlay vertex chain into the real door sequence by
    /// unrolling shortcut jumps through the stored next-hops.
    fn expand_overlay(&self, seq: &[u32], non_bypass: &impl Fn(u32) -> bool) -> Vec<DoorId> {
        let g = self.venue.d2d();
        let mut out: Vec<u32> = vec![seq[0]];
        for w in seq.windows(2) {
            let (a, b) = (w[0], w[1]);
            // A real edge step unless the pair sits in one bypassed Rnet
            // and the shortcut was strictly shorter than any direct edge.
            let r = self.maximal_bypassed(a, non_bypass);
            let same_rnet =
                r.is_some_and(|r| self.h.contains(r, self.h.leaf_of_vertex[b as usize]));
            if !same_rnet {
                debug_assert!(g.arc_weight(a, b).is_some());
                out.push(b);
                continue;
            }
            self.expand_shortcut(r.unwrap(), a, b, &mut out);
        }
        out.dedup();
        out.into_iter().map(DoorId).collect()
    }

    /// Append the real vertex path of shortcut `(x → y)` of Rnet `n`
    /// (excluding `x`, including `y`).
    fn expand_shortcut(&self, n: u32, x: u32, y: u32, out: &mut Vec<u32>) {
        let node = &self.h.nodes[n as usize];
        let sc = &self.shortcuts[n as usize];
        // Walk the stored next-hops: x → hop(x, y) → ... → y.
        let ci = sc.col_index(y).expect("shortcut target is a border");
        let mut chain = vec![x];
        let mut cur = x;
        while cur != y {
            let ri = sc.row_index(cur).expect("hop vertex is a matrix row");
            match sc.hop_at(ri, ci) {
                Some(h) => {
                    chain.push(h);
                    cur = h;
                }
                None => {
                    chain.push(y);
                    break;
                }
            }
        }
        if node.is_leaf() {
            // Leaf hops walk the real subgraph: emit directly.
            out.extend_from_slice(&chain[1..]);
            return;
        }
        for w in chain.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Same child => the step is a child shortcut; else a real edge.
            let ca = self.child_containing(n, a);
            let cb = self.child_containing(n, b);
            if ca == cb && ca != NO_H {
                self.expand_shortcut(ca, a, b, out);
            } else {
                out.push(b);
            }
        }
    }

    fn child_containing(&self, n: u32, v: u32) -> u32 {
        let leaf = self.h.leaf_of_vertex[v as usize];
        let mut cur = leaf;
        loop {
            let p = self.h.nodes[cur as usize].parent;
            if p == n {
                return cur;
            }
            if p == NO_H {
                return NO_H;
            }
            cur = p;
        }
    }

    /// kNN by bypassing object-free Rnets (association directory).
    pub fn knn(&self, q: &IndoorPoint, k: usize) -> Vec<(ObjectId, f64)> {
        self.object_expansion(q, ObjBound::Knn(k))
    }

    pub fn range(&self, q: &IndoorPoint, radius: f64) -> Vec<(ObjectId, f64)> {
        self.object_expansion(q, ObjBound::Range(radius))
    }

    fn object_expansion(&self, q: &IndoorPoint, bound: ObjBound) -> Vec<(ObjectId, f64)> {
        let Some(objs) = &self.objects else {
            return Vec::new();
        };
        if objs.points.is_empty() || matches!(bound, ObjBound::Knn(0)) {
            return Vec::new();
        }
        let venue = &*self.venue;
        let seeds = q.door_seeds(venue);
        let protected = self.chain_set(&seeds);
        let non_bypass = |n: u32| protected.contains(&n) || objs.node_count[n as usize] > 0;

        let mut cand: HashMap<u32, f64> = HashMap::new();
        if let Some(local) = objs.by_partition.get(&q.partition) {
            for &oid in local {
                let o = &objs.points[oid as usize];
                cand.insert(oid, q.direct_distance(venue, o).expect("same partition"));
            }
        }
        let kth = |cand: &HashMap<u32, f64>| -> f64 {
            match bound {
                ObjBound::Range(r) => r,
                ObjBound::Knn(k) => {
                    if cand.len() < k {
                        f64::INFINITY
                    } else {
                        let mut ds: Vec<f64> = cand.values().copied().collect();
                        ds.sort_by(f64::total_cmp);
                        ds[k - 1]
                    }
                }
            }
        };

        let mut engine = self.engine.lock().expect("engine poisoned");
        engine.run_dynamic(
            &seeds,
            |v, out| self.hybrid_neighbors(v, &non_bypass, out),
            |v, d| {
                if d > kth(&cand) {
                    return ControlFlow::Break(());
                }
                let door = DoorId(v);
                for p in venue.door(door).partition_ids() {
                    if let Some(list) = objs.by_partition.get(&p) {
                        for &oid in list {
                            let o = &objs.points[oid as usize];
                            let od = d + o.distance_to_door(venue, door);
                            let e = cand.entry(oid).or_insert(f64::INFINITY);
                            if od < *e {
                                *e = od;
                            }
                        }
                    }
                }
                ControlFlow::Continue(())
            },
        );
        drop(engine);

        let mut out: Vec<(ObjectId, f64)> = cand
            .into_iter()
            .map(|(o, d)| (ObjectId(o), d))
            .filter(|(_, d)| d.is_finite())
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        match bound {
            ObjBound::Knn(k) => out.truncate(k),
            ObjBound::Range(r) => out.retain(|(_, d)| *d <= r),
        }
        out
    }
}

#[derive(Clone, Copy)]
enum ObjBound {
    Knn(usize),
    Range(f64),
}

#[cfg(test)]
mod tests {
    use crate::{Road, RoadConfig};
    use indoor_graph::DijkstraEngine;
    use indoor_model::{IndoorIndex, IndoorPoint, Venue};
    use indoor_synth::{random_venue, workload};
    use proptest::prelude::*;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn road_matches_oracle(seed in 0u64..1_500, leaf in 6usize..48) {
            let venue = Arc::new(random_venue(seed));
            let cfg = RoadConfig { max_leaf: leaf, ..Default::default() };
            let road = Road::build(venue.clone(), &cfg);
            let mut engine = DijkstraEngine::new(venue.num_doors());
            for (s, t) in workload::query_pairs(&venue, 15, seed ^ 0x8A) {
                let want = oracle(&venue, &mut engine, &s, &t);
                let got = road.shortest_distance(&s, &t);
                match (want, got) {
                    (Some(w), Some(g)) => prop_assert!((w - g).abs() < 1e-6 * w.max(1.0),
                        "seed {seed} leaf {leaf}: got {g} want {w}"),
                    (None, None) => {}
                    _ => prop_assert!(false, "reachability mismatch"),
                }
            }
        }

        #[test]
        fn road_paths_valid(seed in 0u64..1_000) {
            let venue = Arc::new(random_venue(seed));
            let road = Road::build(venue.clone(), &RoadConfig { max_leaf: 12, ..Default::default() });
            for (s, t) in workload::query_pairs(&venue, 12, seed ^ 0x8B) {
                let Some(p) = road.shortest_path(&s, &t) else { continue };
                let len = p.validate(&venue).unwrap_or_else(|e| panic!("seed {seed}: {e}: {p:?}"));
                prop_assert!((len - p.length).abs() < 1e-6 * len.max(1.0),
                    "seed {seed}: reported {} walked {len}", p.length);
            }
        }

        #[test]
        fn road_knn_matches_expansion_oracle(seed in 0u64..800, k in 1usize..6) {
            let venue = Arc::new(random_venue(seed));
            let mut road = Road::build(venue.clone(), &RoadConfig { max_leaf: 16, ..Default::default() });
            let objects = workload::place_objects(&venue, 12, seed ^ 0x8C);
            road.attach_objects(&objects);
            let mut engine = DijkstraEngine::new(venue.num_doors());
            for q in workload::query_points(&venue, 5, seed ^ 0x8D) {
                let mut want: Vec<f64> = objects
                    .iter()
                    .filter_map(|o| oracle(&venue, &mut engine, &q, o))
                    .collect();
                want.sort_by(f64::total_cmp);
                let got = road.knn(&q, k);
                prop_assert_eq!(got.len(), k.min(want.len()));
                for (i, (_, d)) in got.iter().enumerate() {
                    prop_assert!((d - want[i]).abs() < 1e-6 * want[i].max(1.0),
                        "seed {}: rank {} got {} want {}", seed, i, d, want[i]);
                }
                let r = 120.0;
                let got_r = road.range(&q, r);
                let want_r = want.iter().filter(|d| **d <= r).count();
                prop_assert_eq!(got_r.len(), want_r);
            }
        }
    }
}
