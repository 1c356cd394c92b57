//! G-tree kNN / range: best-first traversal with assembled border
//! distances, mirroring the original paper's kNN algorithm.

use crate::build::{GMatrix, GTree};
use crate::scratch::{Candidates, GAscentBuf, GScratch};
use geometry::TotalF64;
use indoor_model::{IndoorPoint, ObjectId};
use std::cmp::Reverse;

impl GTree {
    pub fn knn(&self, q: &IndoorPoint, k: usize) -> Vec<(ObjectId, f64)> {
        self.object_query(q, Bound::Knn(k))
    }

    pub fn range(&self, q: &IndoorPoint, radius: f64) -> Vec<(ObjectId, f64)> {
        self.object_query(q, Bound::Range(radius))
    }

    fn object_query(&self, q: &IndoorPoint, bound: Bound) -> Vec<(ObjectId, f64)> {
        let Some(objs) = &self.objects else {
            return Vec::new();
        };
        if objs.points.is_empty() || matches!(bound, Bound::Knn(0)) {
            return Vec::new();
        }
        let venue = &*self.venue;
        let seeds = q.door_seeds(venue);
        let mut scratch = self.scratch.checkout();
        let sc = &mut *scratch;
        self.ascend_into(&seeds, &mut sc.asc_s);
        let GScratch {
            asc_s,
            col_buf,
            cvec,
            arena_data,
            arena_spans,
            heap,
            cand,
            leaf_acc,
            ..
        } = sc;
        let asc = &*asc_s;

        // Candidate upper bounds per object (tightened as leaves emit);
        // the kNN bound is the cached exact k-th best, not a fresh sort
        // per heap pop.
        cand.begin();
        arena_data.clear();
        arena_spans.clear();
        heap.clear();
        let root = self.h.root;
        let rh = GScratch::arena_push(
            arena_data,
            arena_spans,
            &asc.get(root).expect("root is on every chain").dists,
        );
        heap.push(Reverse((TotalF64(0.0), root, rh)));

        while let Some(Reverse((TotalF64(mind), n, vid))) = heap.pop() {
            let b = match bound {
                Bound::Range(r) => r,
                Bound::Knn(k) => cand.kth_bound(k),
            };
            if mind > b {
                break;
            }
            let node = &self.h.nodes[n as usize];
            if node.is_leaf() {
                self.scan_leaf(
                    q,
                    asc,
                    n,
                    GScratch::arena_get(arena_data, arena_spans, vid),
                    cand,
                    leaf_acc,
                );
                continue;
            }
            for &c in &node.children {
                if objs.subtree_count[c as usize] == 0 {
                    continue;
                }
                self.derive_vec_into(
                    n,
                    c,
                    asc,
                    GScratch::arena_get(arena_data, arena_spans, vid),
                    col_buf,
                    cvec,
                );
                let mind_c = if asc.contains(c) {
                    0.0 // child holds some of q's doors
                } else {
                    cvec.iter().copied().fold(f64::INFINITY, f64::min)
                };
                let b = match bound {
                    Bound::Range(r) => r,
                    Bound::Knn(k) => cand.kth_bound(k),
                };
                if mind_c <= b {
                    let h = GScratch::arena_push(arena_data, arena_spans, cvec);
                    heap.push(Reverse((TotalF64(mind_c), c, h)));
                }
            }
        }

        let mut out: Vec<(ObjectId, f64)> = cand
            .map
            .iter()
            .map(|(&o, &d)| (ObjectId(o), d))
            .filter(|(_, d)| d.is_finite())
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        match bound {
            Bound::Knn(k) => out.truncate(k),
            Bound::Range(r) => out.retain(|(_, d)| *d <= r),
        }
        out
    }

    /// Exact border vector of `child`, derived from the parent's exact
    /// vector `pvec`. A shortest route from `q` to a border of `child`
    /// either
    ///
    /// * crosses the parent's own borders (entering the parent from
    ///   outside) — covered by `pvec` + the parent matrix, or
    /// * starts at one of q's doors inside the parent and crosses the
    ///   borders of the chain child holding that door — covered by the
    ///   ascent vectors of every chain child, or
    /// * (when `child` itself holds q-doors) starts inside `child` —
    ///   covered by `child`'s own ascent vector.
    ///
    /// Taking the elementwise minimum over all three keeps the vectors
    /// exact for multi-leaf query points, which single-base derivations
    /// (the plain Lemma 8/9 of the VIP-tree, where `q` touches exactly one
    /// leaf) would not.
    fn derive_vec_into(
        &self,
        parent: u32,
        child: u32,
        asc: &GAscentBuf,
        pvec: &[f64],
        col_buf: &mut Vec<u32>,
        out: &mut Vec<f64>,
    ) {
        let m = &self.matrices[parent as usize];
        let h = &self.h;
        let cborders = &h.nodes[child as usize].borders;
        out.clear();
        out.resize(cborders.len(), f64::INFINITY);
        // Hoist the child borders' column ordinals (u32::MAX = absent)
        // instead of binary-searching per (base, border) pair.
        col_buf.clear();
        col_buf.extend(
            cborders
                .iter()
                .map(|&cb| m.col_index(cb).map_or(u32::MAX, |c| c as u32)),
        );

        fold_base(m, &h.nodes[parent as usize].borders, pvec, col_buf, out);
        for &s in &h.nodes[parent as usize].children {
            if s == child {
                continue;
            }
            if let Some(nv) = asc.get(s) {
                fold_base(m, &h.nodes[s as usize].borders, &nv.dists, col_buf, out);
            }
        }
        // Routes starting at q-doors inside `child` itself.
        if let Some(own) = asc.get(child) {
            for (o, d) in out.iter_mut().zip(&own.dists) {
                if *d < *o {
                    *o = *d;
                }
            }
        }
    }

    fn scan_leaf(
        &self,
        q: &IndoorPoint,
        asc: &GAscentBuf,
        leaf: u32,
        vec: &[f64],
        cand: &mut Candidates,
        acc: &mut Vec<f64>,
    ) {
        let venue = &*self.venue;
        let objs = self.objects.as_ref().expect("objects attached");
        let Some(table) = objs.leaf_tables.get(&leaf) else {
            return;
        };

        if asc.seeds_leaf(leaf) {
            // q touches this leaf: exact distances via one expansion from
            // q's seeds (global graph, so routes leaving the leaf are
            // covered) plus the same-partition direct candidate.
            let m = &self.matrices[leaf as usize];
            let mut engine = self.engines.checkout();
            engine.run(venue.d2d(), &q.door_seeds(venue), &m.rows);
            for &oid in &table.objs {
                let o = &objs.points[oid as usize];
                let mut d = q.direct_distance(venue, o).unwrap_or(f64::INFINITY);
                for &door in &venue.partition(o.partition).doors {
                    if let Some(dd) = engine.settled_distance(door.0) {
                        let c = dd + o.distance_to_door(venue, door);
                        if c < d {
                            d = c;
                        }
                    }
                }
                cand.tighten(oid, d);
            }
            return;
        }

        // Border-major accumulation: each table row is walked
        // contiguously (the old per-object loop strode by `n` through
        // the whole table).
        let n = table.objs.len();
        acc.clear();
        acc.resize(n, f64::INFINITY);
        for (bi, &dq) in vec.iter().enumerate() {
            if !dq.is_finite() {
                continue;
            }
            let row = &table.dist[bi * n..(bi + 1) * n];
            for (a, &dd) in acc.iter_mut().zip(row) {
                let c = dq + dd;
                if c < *a {
                    *a = c;
                }
            }
        }
        for (j, &oid) in table.objs.iter().enumerate() {
            cand.tighten(oid, acc[j]);
        }
    }
}

/// Fold one base (border set + distance vector) into `out` through the
/// parent matrix: `out[ci] = min(out[ci], base[bi] + M(b, c))`.
fn fold_base(m: &GMatrix, base_borders: &[u32], base_vec: &[f64], cols: &[u32], out: &mut [f64]) {
    for (bi, &b) in base_borders.iter().enumerate() {
        if !base_vec[bi].is_finite() {
            continue;
        }
        let Some(ri) = m.row_index(b) else { continue };
        for (o, &ci) in out.iter_mut().zip(cols) {
            if ci == u32::MAX {
                continue;
            }
            let cand = base_vec[bi] + m.at(ri, ci as usize);
            if cand < *o {
                *o = cand;
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Bound {
    Knn(usize),
    Range(f64),
}

#[cfg(test)]
mod tests {
    use crate::{GTree, GTreeConfig};
    use indoor_graph::DijkstraEngine;
    use indoor_model::IndoorPoint;
    use indoor_synth::{random_venue, workload};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn brute(
        venue: &indoor_model::Venue,
        engine: &mut DijkstraEngine,
        q: &IndoorPoint,
        objects: &[IndoorPoint],
    ) -> Vec<f64> {
        let mut out: Vec<f64> = objects
            .iter()
            .filter_map(|o| {
                let direct = q.direct_distance(venue, o);
                let via = engine
                    .point_to_point(venue.d2d(), &q.door_seeds(venue), &o.door_seeds(venue))
                    .map(|(d, _)| d);
                match (direct, via) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            })
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn gtree_knn_range_match_brute_force(seed in 0u64..1_000, k in 1usize..6) {
            let venue = Arc::new(random_venue(seed));
            let mut tree = GTree::build(venue.clone(), &GTreeConfig { tau: 16, ..Default::default() });
            let objects = workload::place_objects(&venue, 12, seed ^ 0x71);
            tree.attach_objects(&objects);
            let mut engine = DijkstraEngine::new(venue.num_doors());

            for q in workload::query_points(&venue, 5, seed ^ 0x72) {
                let want = brute(&venue, &mut engine, &q, &objects);
                let got = tree.knn(&q, k);
                prop_assert_eq!(got.len(), k.min(want.len()));
                for (i, (_, d)) in got.iter().enumerate() {
                    prop_assert!((d - want[i]).abs() < 1e-6 * want[i].max(1.0),
                        "seed {}: rank {} got {} want {}", seed, i, d, want[i]);
                }
                let r = 150.0;
                let got_r = tree.range(&q, r);
                let want_r: Vec<&f64> = want.iter().filter(|d| **d <= r).collect();
                prop_assert_eq!(got_r.len(), want_r.len(), "seed {}", seed);
            }
        }
    }
}
