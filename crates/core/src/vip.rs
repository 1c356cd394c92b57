//! VIP-Tree (§2.2, §3.1.2, §3.3): the IP-tree plus, for every door, the
//! materialised distances (and minimising chains) to the access doors of
//! all of its ancestor nodes.
//!
//! With the tables, `dist(s, d)` for an access door `d` of any ancestor is
//! `min over superior doors u of Partition(s): dist(s, u) + table[u](d)` —
//! two table lookups instead of an ascent, giving O(ρ²) shortest-distance
//! and O(ρ² + w) expected shortest-path cost (Table 1).
//!
//! The tables are where the VIP-tree spends its memory, so each distance
//! is stored as a `u32` tick count ([`crate::ticks`]): the build folds
//! the chain in integer ticks, and a sweep folds a row into its ascent
//! step in integer ticks too (DESIGN.md §16).

use crate::ascent::{Ascent, Climber, Provenance};
use crate::path::PartialEdge;
use crate::ticks;
use crate::tree::{BuildError, IpTree, NodeIdx, VipTreeConfig, NO_NODE};
use indoor_model::{DoorId, IndoorPath, IndoorPoint, ObjectId, QueryStats, Venue};
use std::sync::Arc;

/// Sentinel argmin: the distance came straight from the leaf matrix row of
/// the door (the chain bottoms out at the leaf level).
const ARG_LEAF: u16 = u16::MAX;

/// Doors per work unit of the table build.
const DOORS_PER_CHUNK: u32 = 1024;

/// The materialised ancestor distances of every door (§2.2) in one flat
/// table — the only copy, read by the distance sweeps and by
/// [`VipTree::table_chain`]'s argmin replay alike. Each door owns a run of
/// rows, one per ancestor of its (≤ 2) leaves, sorted by owner node (the
/// node arena is level-order, so ancestor walks probe monotonically
/// increasing entries); rows are contiguous in run order.
#[derive(Debug, Default)]
struct DoorTables {
    /// Per door: its run in `nodes`/`prev` (`door_off[d]..door_off[d+1]`).
    door_off: Vec<u32>,
    /// Row owner nodes, sorted within each door's run.
    nodes: Vec<NodeIdx>,
    /// Aligned with `nodes`: the node the row's minimisation ran over
    /// (child of the owner on the door's chain); `NO_NODE` for leaf rows.
    prev: Vec<NodeIdx>,
    /// Row `k` spans `row_off[k]..row_off[k+1]` of `dists`/`args`, one
    /// entry per access door of its owner (one trailing sentinel).
    row_off: Vec<u32>,
    /// In ticks ([`ticks::INF`] = ∞).
    dists: Vec<u32>,
    /// Aligned with `dists`: argmin index into `prev`'s access-door list
    /// (`ARG_LEAF` for leaf rows — straight off the leaf matrix).
    args: Vec<u16>,
}

/// Reusable per-worker buffers for one door's rows in chain order, before
/// they are appended sorted.
#[derive(Default)]
struct DoorScratch {
    /// `(owner, prev, offset into dists/args)`.
    rows: Vec<(NodeIdx, NodeIdx, u32)>,
    dists: Vec<u32>,
    args: Vec<u16>,
}

impl DoorTables {
    /// Append the ancestor table of door `d` (§2.2); doors must be pushed
    /// in id order.
    fn push_door(&mut self, ip: &IpTree, d: u32, scratch: &mut DoorScratch) {
        let DoorScratch { rows, dists, args } = scratch;
        rows.clear();
        dists.clear();
        args.clear();
        for leaf in ip.door_leaves[d as usize] {
            if leaf == NO_NODE {
                continue;
            }
            // Leaf row: distances straight from the leaf matrix.
            let r = ip.slabs.leaf_row_of(&ip.door_leaves, leaf, d);
            let mut cur_off = dists.len();
            rows.push((leaf, NO_NODE, cur_off as u32));
            dists.extend_from_slice(ip.slabs.row(leaf, r as usize));
            args.resize(dists.len(), ARG_LEAF);
            // Ascend to the root, minimising over the previous level. Two
            // stored ticks sum below the sentinel unless one is ∞, so the
            // fold needs no test for ∞ ([`ticks`]).
            let mut cur = leaf;
            loop {
                let parent = ip.parent(cur);
                if parent == NO_NODE || rows.iter().any(|row| row.0 == parent) {
                    break; // root, or shared upper chain already materialised
                }
                let kid = ip.slabs.kid_cols_of(cur);
                let offset = dists.len();
                for &col in ip.slabs.own_cols_of(parent) {
                    let mut best = u64::from(ticks::INF);
                    let mut best_idx = ARG_LEAF;
                    for (bi, &krow) in kid.iter().enumerate() {
                        let cand = u64::from(dists[cur_off + bi])
                            + u64::from(ip.slabs.row(parent, krow as usize)[col as usize]);
                        if cand < best {
                            best = cand;
                            best_idx = bi as u16;
                        }
                    }
                    dists.push(ticks::narrow(best));
                    args.push(best_idx);
                }
                rows.push((parent, cur, offset as u32));
                (cur, cur_off) = (parent, offset);
            }
        }
        rows.sort_unstable_by_key(|row| row.0);
        for &(node, prev, off) in rows.iter() {
            let span = off as usize..off as usize + ip.access_doors(node).len();
            self.nodes.push(node);
            self.prev.push(prev);
            self.row_off.push(self.dists.len() as u32);
            self.dists.extend_from_slice(&dists[span.clone()]);
            self.args.extend_from_slice(&args[span]);
        }
        self.door_off.push(self.nodes.len() as u32);
    }

    /// Concatenate chunk-local tables (consecutive door ranges, in order)
    /// into the final one, sized exactly.
    fn concat(parts: Vec<DoorTables>) -> DoorTables {
        let total = |len: fn(&DoorTables) -> usize| parts.iter().map(len).sum::<usize>();
        let mut all = DoorTables {
            door_off: Vec::with_capacity(total(|p| p.door_off.len()) + 1),
            nodes: Vec::with_capacity(total(|p| p.nodes.len())),
            prev: Vec::with_capacity(total(|p| p.prev.len())),
            row_off: Vec::with_capacity(total(|p| p.row_off.len()) + 1),
            dists: Vec::with_capacity(total(|p| p.dists.len())),
            args: Vec::with_capacity(total(|p| p.args.len())),
        };
        all.door_off.push(0);
        for p in parts {
            let (row_base, dist_base) = (all.nodes.len() as u32, all.dists.len() as u32);
            all.door_off.extend(p.door_off.iter().map(|o| o + row_base));
            all.nodes.extend_from_slice(&p.nodes);
            all.prev.extend_from_slice(&p.prev);
            all.row_off.extend(p.row_off.iter().map(|o| o + dist_base));
            all.dists.extend_from_slice(&p.dists);
            all.args.extend_from_slice(&p.args);
        }
        all.row_off.push(all.dists.len() as u32);
        all
    }

    /// Door `d`'s row for `node`, if materialised: its position `k` in
    /// `nodes`/`prev` and its span in `dists`/`args`.
    #[inline]
    fn row_at(&self, d: u32, node: NodeIdx) -> Option<(usize, std::ops::Range<usize>)> {
        let lo = self.door_off[d as usize] as usize;
        let hi = self.door_off[d as usize + 1] as usize;
        let k = lo + self.nodes[lo..hi].binary_search(&node).ok()?;
        Some((k, self.row_off[k] as usize..self.row_off[k + 1] as usize))
    }

    /// Distances from door `d` to the access doors of `node`, in ticks.
    #[inline]
    fn dists_at(&self, d: u32, node: NodeIdx) -> Option<&[u32]> {
        self.row_at(d, node).map(|(_, span)| &self.dists[span])
    }

    /// Every array, once.
    fn size_bytes(&self) -> usize {
        (self.door_off.len() + self.nodes.len() + self.prev.len() + self.row_off.len()) * 4
            + self.dists.len() * 4
            + self.args.len() * 2
    }
}

/// The VIP-tree: an [`IpTree`] plus per-door ancestor tables.
#[derive(Debug)]
pub struct VipTree {
    ip: IpTree,
    tables: DoorTables,
}

impl VipTree {
    /// Build the IP-tree, then materialise the per-door tables (§2.2).
    pub fn build(venue: Arc<Venue>, config: &VipTreeConfig) -> Result<VipTree, BuildError> {
        let ip = IpTree::build(venue, config)?;
        Ok(Self::from_ip_tree(ip))
    }

    /// Materialise tables over an existing IP-tree.
    ///
    /// Every door's table depends only on the finished IP-tree, so the
    /// materialisation fans out over `ip.config.threads` workers in fixed
    /// chunks of consecutive doors, each appended to a chunk-local flat
    /// table; concatenating the chunks in door order gives the same bytes
    /// for any thread count, and no per-door allocation outlives the
    /// build.
    pub fn from_ip_tree(ip: IpTree) -> VipTree {
        let n_doors = ip.venue.num_doors() as u32;
        let chunks: Vec<std::ops::Range<u32>> = (0..n_doors)
            .step_by(DOORS_PER_CHUNK as usize)
            .map(|lo| lo..n_doors.min(lo + DOORS_PER_CHUNK))
            .collect();
        let parts = indoor_graph::parallel::par_map_init(
            &chunks,
            ip.config.threads,
            DoorScratch::default,
            |scratch, _, chunk| {
                let mut part = DoorTables::default();
                for d in chunk.clone() {
                    part.push_door(&ip, d, scratch);
                }
                part
            },
        );
        let tables = DoorTables::concat(parts);
        VipTree { ip, tables }
    }

    /// Access to the underlying IP-tree (shared kNN/range machinery,
    /// statistics).
    #[inline]
    pub fn ip_tree(&self) -> &IpTree {
        &self.ip
    }

    #[inline]
    pub fn venue(&self) -> &Arc<Venue> {
        self.ip.venue()
    }

    /// One row of a door's materialised table (§2.2), if `node` is an
    /// ancestor of one of the door's leaves: the chain predecessor the
    /// row was minimised over (`NO_NODE` for a leaf row), the distances
    /// to `node`'s access doors in ticks ([`crate::ticks`]), and the argmin
    /// indices into the predecessor's access-door list (`u16::MAX` on leaf
    /// rows).
    pub fn table_row(&self, door: DoorId, node: NodeIdx) -> Option<(NodeIdx, &[u32], &[u16])> {
        let t = &self.tables;
        let (k, span) = t.row_at(door.0, node)?;
        Some((t.prev[k], &t.dists[span.clone()], &t.args[span]))
    }

    /// §3.1.2: shortest distance in O(ρ²) via table lookups.
    pub fn shortest_distance_points(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<f64> {
        self.shortest_distance_with_stats(s, t, &mut QueryStats::default())
    }

    pub fn shortest_distance_with_stats(
        &self,
        s: &IndoorPoint,
        t: &IndoorPoint,
        stats: &mut QueryStats,
    ) -> Option<f64> {
        let mut scratch = self.ip.scratch.checkout();
        self.shortest_distance_stats(s, t, &mut scratch, stats)
    }

    /// As [`VipTree::shortest_distance_points`] with caller-owned scratch.
    pub fn shortest_distance_in(
        &self,
        s: &IndoorPoint,
        t: &IndoorPoint,
        scratch: &mut crate::QueryScratch,
    ) -> Option<f64> {
        self.shortest_distance_stats(s, t, scratch, &mut QueryStats::default())
    }

    /// §3.3: shortest path; the ascent chains come from the tables'
    /// argmins, everything else matches the IP-tree path algorithm.
    pub fn shortest_path_points(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<IndoorPath> {
        let mut scratch = self.ip.scratch.checkout();
        self.shortest_path_in(s, t, &mut scratch)
    }

    /// As [`VipTree::shortest_path_points`] with caller-owned scratch.
    pub fn shortest_path_in(
        &self,
        s: &IndoorPoint,
        t: &IndoorPoint,
        scratch: &mut crate::QueryScratch,
    ) -> Option<IndoorPath> {
        self.shortest_path_between(s, t, scratch)
    }

    /// Push onto `edges` the minimising chain `door → ... → access door
    /// ad_idx of node`, top-down, as partial edges with their context
    /// nodes.
    fn table_chain(
        &self,
        door: DoorId,
        node: NodeIdx,
        ad_idx: usize,
        edges: &mut Vec<PartialEdge>,
    ) {
        let ip = &self.ip;
        let table = &self.tables;
        let mut cur = node;
        let mut idx = ad_idx;
        loop {
            let (k, span) = table.row_at(door.0, cur).expect("chain node in table");
            let cur_door = ip.access_doors(cur)[idx];
            // A leaf row is one edge door → cur_door in the leaf matrix.
            let (from, arg) = match table.args[span.start + idx] {
                ARG_LEAF => (door, None),
                arg => (ip.access_doors(table.prev[k])[arg as usize], Some(arg)),
            };
            if from != cur_door {
                edges.push(PartialEdge::new(from, cur_door, cur));
            }
            let Some(arg) = arg else { return };
            cur = table.prev[k];
            idx = arg as usize;
        }
    }

    /// §3.1.2 in place of one Algorithm 2 level: append to `asc` the
    /// step of chain node `n` — `p`'s distance to each of its access
    /// doors through the superior doors' tables, one binary-searched table
    /// row per superior door swept contiguously, the argmin door kept as
    /// provenance for [`VipTree::table_chain`].
    fn table_step_into(&self, p: &IndoorPoint, n: NodeIdx, asc: &mut Ascent) {
        let ip = &self.ip;
        let step = asc.push_step(n);
        step.reset_sources(ip.access_doors(n).len());
        for &u in ip.superior_doors(p.partition) {
            let Some(row) = self.tables.dists_at(u.0, n) else {
                continue;
            };
            step.offer_source(u, p.distance_to_door(&ip.venue, u), row);
        }
    }

    /// Attach an object set (shared kNN/range machinery of §3.4). A swap
    /// under `&self` — see [`IpTree::attach_objects`].
    pub fn attach_objects(&self, objects: &[IndoorPoint]) {
        self.ip.attach_objects(objects);
    }

    /// As [`VipTree::attach_objects`] with caller-assigned stable ids —
    /// see [`IpTree::attach_objects_with_ids`].
    pub fn attach_objects_with_ids(&self, objects: &[(ObjectId, IndoorPoint)]) {
        self.ip.attach_objects_with_ids(objects);
    }

    /// Absorb a batch of object deltas incrementally — see
    /// [`IpTree::apply_object_deltas`].
    pub fn apply_object_deltas(
        &self,
        deltas: &[indoor_model::ObjectDelta],
    ) -> Result<crate::objects::DeltaReport, indoor_model::DeltaError> {
        self.ip.apply_object_deltas(deltas)
    }

    /// Algorithm 5 with the table-backed ascent (the paper reports IP- and
    /// VIP-tree kNN performing equally; both share the branch-and-bound).
    pub fn knn(&self, q: &IndoorPoint, k: usize) -> Vec<(ObjectId, f64)> {
        let mut scratch = self.ip.scratch.checkout();
        self.knn_in(q, k, &mut scratch)
    }

    pub fn range(&self, q: &IndoorPoint, radius: f64) -> Vec<(ObjectId, f64)> {
        let mut scratch = self.ip.scratch.checkout();
        self.range_in(q, radius, &mut scratch)
    }

    /// As [`VipTree::knn`] with caller-owned scratch state.
    pub fn knn_in(
        &self,
        q: &IndoorPoint,
        k: usize,
        scratch: &mut crate::QueryScratch,
    ) -> Vec<(ObjectId, f64)> {
        self.knn_query(q, k, scratch)
    }

    /// As [`VipTree::range`] with caller-owned scratch state.
    pub fn range_in(
        &self,
        q: &IndoorPoint,
        radius: f64,
        scratch: &mut crate::QueryScratch,
    ) -> Vec<(ObjectId, f64)> {
        self.range_query(q, radius, scratch)
    }

    /// Total index size: IP-tree plus the door tables (Fig. 8(b)).
    pub fn size_bytes(&self) -> usize {
        self.ip.size_bytes() + self.tables.size_bytes()
    }

    pub fn decompose_fallback_count(&self) -> u64 {
        self.ip.decompose_fallback_count()
    }
}

impl indoor_model::ObjectQueries for VipTree {
    fn knn(&self, q: &IndoorPoint, k: usize) -> Vec<(ObjectId, f64)> {
        VipTree::knn(self, q, k)
    }
    fn range(&self, q: &IndoorPoint, radius: f64) -> Vec<(ObjectId, f64)> {
        VipTree::range(self, q, radius)
    }
}

/// The VIP-tree climbs by table: one superior-door sweep per node, so a
/// climb to `n` records `n`'s step alone and the chain beneath it is
/// replayed from the tables' argmins.
impl Climber for VipTree {
    fn ip(&self) -> &IpTree {
        &self.ip
    }

    fn ascend_to_root(&self, p: &IndoorPoint, asc: &mut Ascent) {
        asc.clear();
        for n in self.ip.ancestors(self.ip.leaf_of(p.partition)) {
            self.table_step_into(p, n, asc);
        }
    }

    fn climb(&self, p: &IndoorPoint, n: NodeIdx, asc: &mut Ascent) {
        asc.clear();
        self.table_step_into(p, n, asc);
    }

    fn replay(&self, asc: &Ascent, i: usize, edges: &mut Vec<PartialEdge>) -> DoorId {
        let step = asc.last();
        let Provenance::Source { via } = step.prov[i] else {
            unreachable!("table steps record their superior door")
        };
        self.table_chain(via, step.node, i, edges);
        via
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_graph::DijkstraEngine;
    use indoor_synth::{random_venue, workload};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(15))]
        #[test]
        fn vip_matches_oracle_and_ip(seed in 0u64..2_000) {
            let venue = Arc::new(random_venue(seed));
            let vip = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let ip = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let mut engine = DijkstraEngine::new(venue.num_doors());
            for (s, t) in workload::query_pairs(&venue, 20, seed ^ 0x77) {
                let want = crate::ascent::tests::oracle_distance(&venue, &mut engine, &s, &t);
                let got = vip.shortest_distance_points(&s, &t);
                let ip_got = ip.shortest_distance_points(&s, &t);
                match (want, got) {
                    (Some(w), Some(g)) => {
                        prop_assert!((w - g).abs() < 1e-6 * w.max(1.0),
                            "seed {seed}: vip {g} oracle {w}");
                        let ig = ip_got.unwrap();
                        prop_assert!((ig - g).abs() < 1e-9 * g.max(1.0));
                    }
                    (None, None) => {}
                    _ => prop_assert!(false, "reachability mismatch"),
                }
            }
        }

        #[test]
        fn vip_paths_valid(seed in 0u64..1_500) {
            let venue = Arc::new(random_venue(seed));
            let vip = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            for (s, t) in workload::query_pairs(&venue, 15, seed ^ 0x3C) {
                let Some(path) = vip.shortest_path_points(&s, &t) else { continue };
                let recomputed = path
                    .validate(&venue)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}: {path:?}"));
                prop_assert!((recomputed - path.length).abs() < 1e-6 * recomputed.max(1.0));
                let sd = vip.shortest_distance_points(&s, &t).unwrap();
                prop_assert!((sd - path.length).abs() < 1e-9 * sd.max(1.0));
            }
            prop_assert_eq!(vip.decompose_fallback_count(), 0);
        }
    }
}
