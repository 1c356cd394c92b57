//! The distance-aware model (Lu, Cao & Jensen, ICDE 2012) — the paper's
//! state-of-the-art indoor competitor `DistAw`, plus `DistAw++` which
//! accelerates object queries with the distance matrix.
//!
//! Every query is answered by Dijkstra-like expansion over the indoor
//! graph from the query point (seeded through the doors of its
//! partition). This is exactly the behaviour the paper criticises: cost
//! grows with the explored area, so long-distance queries and sparse
//! object sets explore large portions of the venue (Fig. 10(b)).

use crate::DistMx;
use indoor_graph::DijkstraEngine;
use indoor_model::{
    DoorId, IndoorIndex, IndoorPath, IndoorPoint, ObjectId, ObjectQueries, PartitionId, QueryStats,
    Venue,
};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};

/// Expansion-based indoor query processing over the D2D graph.
pub struct DistAw {
    venue: Arc<Venue>,
    engine: Mutex<DijkstraEngine>,
    objects: Vec<IndoorPoint>,
    /// partition → objects inside it (the "distance-aware" object mapping).
    by_partition: HashMap<PartitionId, Vec<ObjectId>>,
}

impl DistAw {
    pub fn new(venue: Arc<Venue>) -> DistAw {
        let engine = DijkstraEngine::new(venue.num_doors());
        DistAw {
            venue,
            engine: Mutex::new(engine),
            objects: Vec::new(),
            by_partition: HashMap::new(),
        }
    }

    pub fn venue(&self) -> &Arc<Venue> {
        &self.venue
    }

    pub fn attach_objects(&mut self, objects: &[IndoorPoint]) {
        self.objects = objects.to_vec();
        self.by_partition.clear();
        for (i, o) in objects.iter().enumerate() {
            self.by_partition
                .entry(o.partition)
                .or_default()
                .push(ObjectId(i as u32));
        }
    }

    pub fn shortest_distance_with_stats(
        &self,
        s: &IndoorPoint,
        t: &IndoorPoint,
        stats: &mut QueryStats,
    ) -> Option<f64> {
        stats.queries += 1;
        let mut engine = self.engine.lock().expect("engine poisoned");
        s.route_to(&self.venue, t, &mut engine).map(|(d, _)| d)
    }

    /// kNN by graph expansion: objects become candidates as the doors of
    /// their partitions settle; the search stops when the frontier
    /// distance exceeds the current k-th candidate (no future candidate
    /// can beat it, since exit costs are non-negative).
    fn knn_expansion(&self, q: &IndoorPoint, k: usize, bound: Option<f64>) -> Vec<(ObjectId, f64)> {
        let venue = &*self.venue;
        let mut cand: HashMap<ObjectId, f64> = HashMap::new();

        // Same-partition objects are candidates immediately.
        if let Some(objs) = self.by_partition.get(&q.partition) {
            for &oid in objs {
                let o = &self.objects[oid.index()];
                let d = q.direct_distance(venue, o).expect("same partition");
                cand.insert(oid, d);
            }
        }

        let kth = |cand: &HashMap<ObjectId, f64>| -> f64 {
            if k == 0 {
                return 0.0;
            }
            if cand.len() < k {
                return f64::INFINITY;
            }
            let mut ds: Vec<f64> = cand.values().copied().collect();
            ds.sort_by(f64::total_cmp);
            ds[k - 1]
        };

        let mut engine = self.engine.lock().expect("engine poisoned");
        engine.run_visit(venue.d2d(), &q.door_seeds(venue), |v, d| {
            let stop_at = match bound {
                Some(r) => r,
                None => kth(&cand),
            };
            if d > stop_at {
                return ControlFlow::Break(());
            }
            let door = DoorId(v);
            for p in venue.door(door).partition_ids() {
                let Some(objs) = self.by_partition.get(&p) else {
                    continue;
                };
                for &oid in objs {
                    let o = &self.objects[oid.index()];
                    let od = d + o.distance_to_door(venue, door);
                    let entry = cand.entry(oid).or_insert(f64::INFINITY);
                    if od < *entry {
                        *entry = od;
                    }
                }
            }
            ControlFlow::Continue(())
        });
        drop(engine);

        let mut out: Vec<(ObjectId, f64)> = cand.into_iter().collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        match bound {
            Some(r) => out.retain(|(_, d)| *d <= r),
            None => out.truncate(k),
        }
        out
    }
}

impl IndoorIndex for DistAw {
    fn name(&self) -> &'static str {
        "DistAw"
    }
    fn shortest_distance(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<f64> {
        self.shortest_distance_with_stats(s, t, &mut QueryStats::default())
    }
    fn shortest_path(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<IndoorPath> {
        let mut engine = self.engine.lock().expect("engine poisoned");
        s.path_to(&self.venue, t, &mut engine)
    }
    fn index_size_bytes(&self) -> usize {
        // Only the extended graph (here: the D2D graph) — the paper notes
        // DistAw has the smallest footprint (Fig. 8(b)).
        self.venue.d2d().size_bytes()
    }
}

impl ObjectQueries for DistAw {
    fn knn(&self, q: &IndoorPoint, k: usize) -> Vec<(ObjectId, f64)> {
        self.knn_expansion(q, k, None)
    }
    fn range(&self, q: &IndoorPoint, radius: f64) -> Vec<(ObjectId, f64)> {
        self.knn_expansion(q, usize::MAX, Some(radius))
    }
}

/// DistAw++ — object queries delegated to the distance matrix (§4.1:
/// "DistAw++ ... exploits DistMx, requiring an additional O(D²) space").
pub struct DistAwPlus {
    inner: DistAw,
    mx: Arc<DistMx>,
}

impl DistAwPlus {
    pub fn new(venue: Arc<Venue>, mx: Arc<DistMx>) -> DistAwPlus {
        DistAwPlus {
            inner: DistAw::new(venue),
            mx,
        }
    }

    pub fn attach_objects(&mut self, objects: &[IndoorPoint]) {
        self.inner.attach_objects(objects);
    }

    fn object_distance(&self, q: &IndoorPoint, o: &IndoorPoint) -> f64 {
        let venue = &*self.inner.venue;
        let mut best = q.direct_distance(venue, o).unwrap_or(f64::INFINITY);
        for &u in &venue.partition(q.partition).doors {
            let du = q.distance_to_door(venue, u);
            for &v in &venue.partition(o.partition).doors {
                let cand = du + self.mx.door_distance(u, v) + o.distance_to_door(venue, v);
                if cand < best {
                    best = cand;
                }
            }
        }
        best
    }
}

impl IndoorIndex for DistAwPlus {
    fn name(&self) -> &'static str {
        "DistAw++"
    }
    fn shortest_distance(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<f64> {
        self.inner.shortest_distance(s, t)
    }
    fn shortest_path(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<IndoorPath> {
        self.inner.shortest_path(s, t)
    }
    fn index_size_bytes(&self) -> usize {
        self.inner.index_size_bytes() + self.mx.size_bytes()
    }
}

impl ObjectQueries for DistAwPlus {
    fn knn(&self, q: &IndoorPoint, k: usize) -> Vec<(ObjectId, f64)> {
        let mut all: Vec<(ObjectId, f64)> = self
            .inner
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
            .inner
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
    use indoor_synth::{random_venue, workload};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn distaw_knn_and_range_match_brute_force(seed in 0u64..1_000, k in 1usize..6) {
            let venue = Arc::new(random_venue(seed));
            let objects = workload::place_objects(&venue, 15, seed ^ 0x21);
            let mut aw = DistAw::new(venue.clone());
            aw.attach_objects(&objects);
            let mx = Arc::new(DistMx::build(venue.clone()));
            let mut awp = DistAwPlus::new(venue.clone(), mx);
            awp.attach_objects(&objects);

            for q in workload::query_points(&venue, 5, seed ^ 0x33) {
                // DistAw++ is exact by construction of DistMx; DistAw's
                // expansion must agree with it.
                let a = aw.knn(&q, k);
                let b = awp.knn(&q, k);
                prop_assert_eq!(a.len(), b.len(), "k={} seed={}", k, seed);
                for (x, y) in a.iter().zip(&b) {
                    prop_assert!((x.1 - y.1).abs() < 1e-6 * x.1.max(1.0),
                        "knn mismatch: {:?} vs {:?}", a, b);
                }
                let ra = aw.range(&q, 120.0);
                let rb = awp.range(&q, 120.0);
                prop_assert_eq!(ra.len(), rb.len());
                for (x, y) in ra.iter().zip(&rb) {
                    prop_assert!((x.1 - y.1).abs() < 1e-6 * x.1.max(1.0));
                }
            }
        }

        #[test]
        fn distaw_paths_valid(seed in 0u64..800) {
            let venue = Arc::new(random_venue(seed));
            let aw = DistAw::new(venue.clone());
            for (s, t) in workload::query_pairs(&venue, 15, seed ^ 0x44) {
                if let Some(p) = aw.shortest_path(&s, &t) {
                    let len = p.validate(&venue).unwrap();
                    prop_assert!((len - p.length).abs() < 1e-6 * len.max(1.0));
                    let sd = aw.shortest_distance(&s, &t).unwrap();
                    prop_assert!((sd - p.length).abs() < 1e-9 * sd.max(1.0));
                }
            }
        }
    }
}
