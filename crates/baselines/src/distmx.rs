//! The distance-matrix baseline (DistMx / DistMx--).
//!
//! Materialises the full `D × D` matrix of door-to-door shortest distances
//! plus a predecessor matrix for path recovery — "optimal" O(ρ²) queries
//! at the price of quadratic storage and `D` full Dijkstra runs at build
//! time (the paper reports 14 hours for Men-2 and could not build venues
//! beyond it; the benchmark harness enforces the same cut-off).

use indoor_graph::{DijkstraEngine, NO_VERTEX};
use indoor_model::{
    DoorId, IndoorIndex, IndoorPath, IndoorPoint, ObjectId, ObjectQueries, PartitionId, QueryStats,
    Venue,
};
use std::sync::Arc;

/// Full pairwise door distance matrix (§1.2.2, §4.3.1).
pub struct DistMx {
    venue: Arc<Venue>,
    /// Row-major `D × D` shortest distances.
    dist: Box<[f64]>,
    /// `pred[u * D + v]` = predecessor of `v` on the shortest path from
    /// `u` ([`indoor_graph::NO_VERTEX`] for unreachable/self).
    pred: Box<[u32]>,
    /// §4.3.1 optimisation: skip source/target doors that only lead to
    /// no-through partitions. `false` gives the paper's DistMx--.
    pub no_through_optimisation: bool,
    /// Objects for kNN/range (used by DistAw++, which delegates here).
    objects: Vec<IndoorPoint>,
}

impl DistMx {
    /// Run `D` Dijkstra searches (parallelised over available cores) and
    /// materialise both matrices.
    pub fn build(venue: Arc<Venue>) -> DistMx {
        let d = venue.num_doors();
        let mut dist = vec![f64::INFINITY; d * d].into_boxed_slice();
        let mut pred = vec![NO_VERTEX; d * d].into_boxed_slice();

        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(d.max(1));
        // Split the rows into contiguous chunks, one worker per chunk.
        let rows_per = d.div_ceil(threads.max(1));
        let dist_chunks = dist.chunks_mut(rows_per * d);
        let pred_chunks = pred.chunks_mut(rows_per * d);
        std::thread::scope(|scope| {
            for (ci, (dch, pch)) in dist_chunks.zip(pred_chunks).enumerate() {
                let venue = &venue;
                scope.spawn(move || {
                    let mut engine = DijkstraEngine::new(venue.num_doors());
                    let first_row = ci * rows_per;
                    for (local, (drow, prow)) in
                        dch.chunks_mut(d).zip(pch.chunks_mut(d)).enumerate()
                    {
                        let u = (first_row + local) as u32;
                        engine.run(venue.d2d(), &[(u, 0.0)], &[]);
                        for v in 0..d as u32 {
                            if let Some(dd) = engine.settled_distance(v) {
                                drow[v as usize] = dd;
                                if v != u {
                                    prow[v as usize] = engine.parent(v).unwrap_or(NO_VERTEX);
                                }
                            }
                        }
                    }
                });
            }
        });

        DistMx {
            venue,
            dist,
            pred,
            no_through_optimisation: true,
            objects: Vec::new(),
        }
    }

    /// Toggle into the unoptimised DistMx-- variant (Fig. 9(a)).
    pub fn without_optimisation(mut self) -> DistMx {
        self.no_through_optimisation = false;
        self
    }

    pub fn venue(&self) -> &Arc<Venue> {
        &self.venue
    }

    /// O(1) door-to-door shortest distance.
    #[inline]
    pub fn door_distance(&self, u: DoorId, v: DoorId) -> f64 {
        self.dist[u.index() * self.venue.num_doors() + v.index()]
    }

    /// Attach objects for kNN/range (DistAw++ query path).
    pub fn attach_objects(&mut self, objects: &[IndoorPoint]) {
        self.objects = objects.to_vec();
    }

    /// Candidate doors of partition `p` when routing towards `other`: the
    /// §4.3.1 optimisation skips doors whose far side is a no-through
    /// partition — unless that partition is the destination itself.
    fn candidate_doors<'a>(
        &'a self,
        p: PartitionId,
        other: PartitionId,
    ) -> impl Iterator<Item = DoorId> + 'a {
        let venue = &*self.venue;
        let all = &venue.partition(p).doors;
        let optimise = self.no_through_optimisation;
        all.iter().copied().filter(move |&d| {
            if !optimise {
                return true;
            }
            match venue.door(d).other_side(p) {
                Some(q) => q == other || venue.class(q) != indoor_model::PartitionClass::NoThrough,
                None => false, // exterior dead end can never lead anywhere
            }
        })
    }

    /// Shortest distance with the minimising door pair (for path
    /// recovery) and the number of door pairs inspected (Fig. 9(a)).
    fn best_pair(&self, s: &IndoorPoint, t: &IndoorPoint) -> (f64, Option<(DoorId, DoorId)>, u64) {
        let venue = &*self.venue;
        let mut best = s.direct_distance(venue, t).unwrap_or(f64::INFINITY);
        let mut best_pair = None;
        let mut pairs = 0u64;
        for u in self.candidate_doors(s.partition, t.partition) {
            let du = s.distance_to_door(venue, u);
            for v in self.candidate_doors(t.partition, s.partition) {
                pairs += 1;
                let cand = du + self.door_distance(u, v) + t.distance_to_door(venue, v);
                if cand < best {
                    best = cand;
                    best_pair = Some((u, v));
                }
            }
        }
        (best, best_pair, pairs)
    }

    pub fn shortest_distance_with_stats(
        &self,
        s: &IndoorPoint,
        t: &IndoorPoint,
        stats: &mut QueryStats,
    ) -> Option<f64> {
        stats.queries += 1;
        let (best, _, pairs) = self.best_pair(s, t);
        stats.door_pairs += pairs;
        best.is_finite().then_some(best)
    }

    /// Door sequence of the shortest path `u → v` by predecessor-matrix
    /// stepping.
    pub fn door_path(&self, u: DoorId, v: DoorId) -> Option<Vec<DoorId>> {
        if !self.door_distance(u, v).is_finite() {
            return None;
        }
        let d = self.venue.num_doors();
        let mut seq = vec![v];
        let mut cur = v;
        while cur != u {
            let p = self.pred[u.index() * d + cur.index()];
            if p == NO_VERTEX {
                return None;
            }
            cur = DoorId(p);
            seq.push(cur);
        }
        seq.reverse();
        Some(seq)
    }

    /// Exact object distance via the matrix (plus same-partition direct).
    fn object_distance(&self, q: &IndoorPoint, o: &IndoorPoint) -> f64 {
        let (d, _, _) = self.best_pair(q, o);
        d
    }

    pub fn size_bytes(&self) -> usize {
        self.dist.len() * 8 + self.pred.len() * 4
    }
}

impl IndoorIndex for DistMx {
    fn name(&self) -> &'static str {
        if self.no_through_optimisation {
            "DistMx"
        } else {
            "DistMx--"
        }
    }

    fn shortest_distance(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<f64> {
        self.shortest_distance_with_stats(s, t, &mut QueryStats::default())
    }

    fn shortest_path(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<IndoorPath> {
        let (best, pair, _) = self.best_pair(s, t);
        if !best.is_finite() {
            return None;
        }
        let doors = match pair {
            None => Vec::new(), // direct same-partition route
            Some((u, v)) => self.door_path(u, v)?,
        };
        Some(IndoorPath {
            source: *s,
            target: *t,
            doors,
            length: best,
        })
    }

    fn index_size_bytes(&self) -> usize {
        self.size_bytes()
    }
}

impl ObjectQueries for DistMx {
    fn knn(&self, q: &IndoorPoint, k: usize) -> Vec<(ObjectId, f64)> {
        let mut all: Vec<(ObjectId, f64)> = self
            .objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u32), self.object_distance(q, o)))
            .filter(|(_, d)| d.is_finite())
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    fn range(&self, q: &IndoorPoint, radius: f64) -> Vec<(ObjectId, f64)> {
        let mut all: Vec<(ObjectId, f64)> = self
            .objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u32), self.object_distance(q, o)))
            .filter(|(_, d)| *d <= radius)
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_graph::DijkstraEngine;
    use indoor_synth::{random_venue, workload};
    use proptest::prelude::*;

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
        fn distmx_matches_oracle(seed in 0u64..1_200) {
            let venue = Arc::new(random_venue(seed));
            let mx = DistMx::build(venue.clone());
            let mut engine = DijkstraEngine::new(venue.num_doors());
            for (s, t) in workload::query_pairs(&venue, 20, seed ^ 0x11) {
                let want = oracle(&venue, &mut engine, &s, &t);
                let got = mx.shortest_distance(&s, &t);
                match (want, got) {
                    (Some(w), Some(g)) => prop_assert!((w - g).abs() < 1e-6 * w.max(1.0),
                        "seed {seed}: got {g} want {w}"),
                    (None, None) => {}
                    _ => prop_assert!(false, "reachability mismatch"),
                }
                // Paths valid + length == distance.
                if let Some(p) = mx.shortest_path(&s, &t) {
                    let len = p.validate(&venue).unwrap();
                    prop_assert!((len - p.length).abs() < 1e-6 * len.max(1.0));
                }
            }
        }

        #[test]
        fn optimisation_preserves_answers(seed in 0u64..800) {
            let venue = Arc::new(random_venue(seed));
            let opt = DistMx::build(venue.clone());
            let unopt = DistMx::build(venue.clone()).without_optimisation();
            let mut st_o = QueryStats::default();
            let mut st_u = QueryStats::default();
            for (s, t) in workload::query_pairs(&venue, 25, seed ^ 0x13) {
                let a = opt.shortest_distance_with_stats(&s, &t, &mut st_o);
                let b = unopt.shortest_distance_with_stats(&s, &t, &mut st_u);
                match (a, b) {
                    (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9 * x.max(1.0)),
                    (None, None) => {}
                    _ => prop_assert!(false, "optimisation changed reachability"),
                }
            }
            // The optimisation may only reduce the pairs considered.
            prop_assert!(st_o.door_pairs <= st_u.door_pairs);
        }
    }
}
