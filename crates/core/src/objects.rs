//! Object embedding (§3.4 "Indexing Indoor Objects") with delta
//! maintenance for live-service churn.
//!
//! Each object records a pointer to the leaf containing its partition;
//! each leaf with objects keeps, per access door, the objects sorted by
//! their distance from that door (enabling early-terminating scans), and
//! every node carries its subtree object count (Algorithm 5 only descends
//! into children that contain objects).
//!
//! # Delta maintenance
//!
//! The tree is static but the objects churn, so the per-leaf buckets are
//! **incrementally maintainable**: [`ObjectIndex::apply_delta`] absorbs a
//! batch of insert/remove/move [`ObjectDelta`]s touching only the leaves
//! the deltas land in. Inserts append one distance row (computed from the
//! leaf matrix, exactly as `build` does) and splice the object into each
//! per-door order; removals **tombstone** the slot — the sorted orders
//! keep the dead entry and scans skip it — and a leaf whose tombstones
//! outnumber its live objects is *compacted* (dead slots dropped, orders
//! remapped; no distance is ever recomputed). Untouched leaves are not
//! read, let alone recomputed; [`ObjectIndex::index_stats`] exposes the
//! counters that prove it, and the delta-vs-rebuild equivalence is
//! enforced by proptest (`tests/object_deltas.rs`). See DESIGN.md,
//! "Object deltas and the service version counter".

use crate::exec::EpochMarks;
use crate::tree::{IpTree, NodeIdx, NO_NODE};
use indoor_model::{DeltaError, IndoorPoint, ObjectDelta, ObjectId};
use std::collections::{HashMap, HashSet};

/// Where a (possibly dead) object slot lives.
#[derive(Debug, Clone, Copy)]
struct ObjLoc {
    leaf: NodeIdx,
    /// Index into the leaf's `objs`/`live` arrays.
    slot: u32,
    live: bool,
}

const NO_LOC: ObjLoc = ObjLoc {
    leaf: NO_NODE,
    slot: 0,
    live: false,
};

/// Per-leaf object bucket.
///
/// Slots are append-only between compactions; `live` carries the
/// tombstones. Distances are **object-major** (`dist[slot * n_ads + ad]`)
/// so an insert appends one contiguous row, and each access door keeps its
/// own ascending order vector (ties broken by slot, so the layout is
/// deterministic).
#[derive(Debug, Clone)]
pub(crate) struct LeafObjects {
    pub objs: Vec<ObjectId>,
    pub live: Vec<bool>,
    n_live: usize,
    n_ads: usize,
    /// Object-major distances: `dist[slot * n_ads + ad]`.
    dist: Vec<f64>,
    /// Per access door, slots ascending by `(distance, slot)`; may contain
    /// tombstoned slots, skipped at scan time.
    order: Vec<Vec<u32>>,
}

impl LeafObjects {
    fn new(n_ads: usize) -> LeafObjects {
        LeafObjects {
            objs: Vec::new(),
            live: Vec::new(),
            n_live: 0,
            n_ads,
            dist: Vec::new(),
            order: vec![Vec::new(); n_ads],
        }
    }

    #[inline]
    pub fn dist_at(&self, ad_idx: usize, obj_slot: usize) -> f64 {
        self.dist[obj_slot * self.n_ads + ad_idx]
    }

    #[inline]
    pub fn order_at(&self, ad_idx: usize) -> &[u32] {
        &self.order[ad_idx]
    }

    /// Append `id` with the given distance row, splicing it into every
    /// per-door order; returns the slot.
    fn push(&mut self, id: ObjectId, row: &[f64]) -> u32 {
        debug_assert_eq!(row.len(), self.n_ads);
        let slot = self.objs.len() as u32;
        self.objs.push(id);
        self.live.push(true);
        self.n_live += 1;
        self.dist.extend_from_slice(row);
        for (ad, order) in self.order.iter_mut().enumerate() {
            let d = row[ad];
            // All existing slots are < `slot`, so (dist, slot) ordering
            // places the new slot after every equal-distance entry.
            let pos = order.partition_point(|&j| {
                self.dist[j as usize * self.n_ads + ad]
                    .total_cmp(&d)
                    .is_lt()
                    || self.dist[j as usize * self.n_ads + ad] == d
            });
            order.insert(pos, slot);
        }
        slot
    }

    /// Drop tombstoned slots, remapping the survivors; returns the old
    /// slots of the survivors in their new slot order.
    fn compact(&mut self) -> Vec<u32> {
        let old_n = self.objs.len();
        let mut remap = vec![u32::MAX; old_n];
        let mut survivors = Vec::with_capacity(self.n_live);
        let mut objs = Vec::with_capacity(self.n_live);
        let mut dist = Vec::with_capacity(self.n_live * self.n_ads);
        for (old, &alive) in self.live.iter().enumerate() {
            if !alive {
                continue;
            }
            remap[old] = survivors.len() as u32;
            survivors.push(old as u32);
            objs.push(self.objs[old]);
            dist.extend_from_slice(&self.dist[old * self.n_ads..(old + 1) * self.n_ads]);
        }
        for order in &mut self.order {
            order.retain_mut(|j| {
                let new = remap[*j as usize];
                *j = new;
                new != u32::MAX
            });
        }
        self.objs = objs;
        self.dist = dist;
        self.live = vec![true; self.n_live];
        survivors
    }

    /// Early-terminating scans over the per-access-door sorted lists
    /// (`vec[ad_idx]` is the query's distance to that access door);
    /// candidates within `bound` are collected in `marks` — an
    /// epoch-cleared set, so the scan allocates nothing — and emitted with
    /// their exact distance (min over all access doors). Tombstoned slots
    /// are skipped.
    pub(crate) fn emit_candidates(
        &self,
        vec: &[f64],
        bound: f64,
        marks: &mut EpochMarks,
        emit: &mut dyn FnMut(ObjectId, f64),
    ) {
        let n = self.objs.len();
        marks.begin(n);
        let mut marked = 0usize;
        for (ad_idx, &dq) in vec.iter().enumerate() {
            if !dq.is_finite() {
                continue;
            }
            for &j in self.order_at(ad_idx) {
                if dq + self.dist_at(ad_idx, j as usize) > bound {
                    break;
                }
                if self.live[j as usize] && !marks.is_marked(j as usize) {
                    marks.mark(j as usize);
                    marked += 1;
                }
            }
        }
        // The pass below is slot-ordered so emission order is independent
        // of which door marked a candidate; stop once every mark is spent
        // (a bound-rejected bucket costs one head probe per door, no slot
        // walk).
        for j in 0..n {
            if marked == 0 {
                break;
            }
            if !marks.is_marked(j) {
                continue;
            }
            marked -= 1;
            let mut d = f64::INFINITY;
            for (ad_idx, &dq) in vec.iter().enumerate() {
                let cand = dq + self.dist_at(ad_idx, j);
                if cand < d {
                    d = cand;
                }
            }
            emit(self.objs[j], d);
        }
    }
}

/// What one [`ObjectIndex::apply_delta`] batch did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    pub inserts: usize,
    pub removes: usize,
    pub moves: usize,
    /// Distinct leaves whose buckets the batch touched; every other leaf
    /// was not even read.
    pub touched_leaves: usize,
    /// Leaf compactions the batch triggered (tombstone-pressure cleanup).
    pub compactions: usize,
}

/// Maintenance counters of an [`ObjectIndex`] — the observable proof that
/// delta application is incremental (`tests/object_deltas.rs` asserts
/// `leaf_builds` does not move under deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectIndexStats {
    /// Per-leaf distance-table computations (one per populated leaf at
    /// `build`; **never** incremented by `apply_delta`).
    pub leaf_builds: u64,
    /// Incremental single-leaf touch events (insert/remove splices).
    pub leaf_touches: u64,
    /// Leaf compactions (tombstone cleanup; reuses distances, recomputes
    /// nothing).
    pub compactions: u64,
    /// Live objects.
    pub live: usize,
    /// Allocated id slots (live + tombstoned + never-used gaps).
    pub slots: usize,
}

/// The object index embedded into an IP/VIP-tree.
#[derive(Debug, Clone)]
pub struct ObjectIndex {
    pub(crate) objects: Vec<IndoorPoint>,
    locs: Vec<ObjLoc>,
    /// Per leaf (leaves lead the node arena): its bucket, if it holds any
    /// live object.
    pub(crate) leaf_data: Vec<Option<LeafObjects>>,
    pub(crate) subtree_count: Vec<u32>,
    n_live: usize,
    leaf_builds: u64,
    leaf_touches: u64,
    compactions: u64,
}

impl ObjectIndex {
    /// An index with no objects (the base every delta stream can grow
    /// from).
    pub fn empty(tree: &IpTree) -> ObjectIndex {
        ObjectIndex {
            objects: Vec::new(),
            locs: Vec::new(),
            leaf_data: vec![None; tree.num_leaves()],
            subtree_count: vec![0u32; tree.num_nodes()],
            n_live: 0,
            leaf_builds: 0,
            leaf_touches: 0,
            compactions: 0,
        }
    }

    /// Precompute the per-leaf distance tables from the tree's leaf
    /// matrices: `dist(a, o) = min over doors d of Partition(o) of
    /// dist(a, d) + dist(d, o)`. Ids are positional (`objects[i]` gets
    /// `ObjectId(i)`).
    pub fn build(tree: &IpTree, objects: &[IndoorPoint]) -> ObjectIndex {
        let pairs: Vec<(ObjectId, IndoorPoint)> = objects
            .iter()
            .enumerate()
            .map(|(i, &p)| (ObjectId(i as u32), p))
            .collect();
        Self::build_with_ids(tree, &pairs)
    }

    /// As [`ObjectIndex::build`] with caller-assigned stable ids (ids may
    /// have gaps — e.g. the live set surviving a delta history). Each id
    /// must appear at most once.
    pub fn build_with_ids(tree: &IpTree, objects: &[(ObjectId, IndoorPoint)]) -> ObjectIndex {
        let slots = objects
            .iter()
            .map(|(id, _)| id.index() + 1)
            .max()
            .unwrap_or(0);
        let mut store: Vec<IndoorPoint> = Vec::new();
        let mut locs = vec![NO_LOC; slots];
        if let Some(&(_, first)) = objects.first() {
            // Gap slots hold an arbitrary (dead, never read) point.
            store = vec![first; slots];
        }
        let mut by_leaf: HashMap<NodeIdx, Vec<ObjectId>> = HashMap::new();
        for &(id, o) in objects {
            // Hard precondition even in release: a silently double-booked
            // slot would corrupt live counts and leaf buckets forever.
            assert!(!locs[id.index()].live, "duplicate object id {id}");
            store[id.index()] = o;
            locs[id.index()].live = true;
            let leaf = tree.leaf_of(o.partition);
            by_leaf.entry(leaf).or_default().push(id);
        }

        let mut subtree_count = vec![0u32; tree.num_nodes()];
        for (&leaf, objs) in &by_leaf {
            adjust_counts(tree, &mut subtree_count, leaf, objs.len() as i64);
        }

        let mut leaf_builds = 0u64;
        let mut leaf_data = vec![None; tree.num_leaves()];
        for (leaf, objs) in by_leaf {
            let n_ads = tree.access_doors(leaf).len();
            let n = objs.len();
            let mut data = LeafObjects::new(n_ads);
            let mut row = vec![f64::INFINITY; n_ads];
            for (slot, &oid) in objs.iter().enumerate() {
                dist_row(tree, leaf, &store[oid.index()], &mut row);
                data.objs.push(oid);
                data.live.push(true);
                data.dist.extend_from_slice(&row);
                locs[oid.index()] = ObjLoc {
                    leaf,
                    slot: slot as u32,
                    live: true,
                };
            }
            data.n_live = n;
            for (ad, order) in data.order.iter_mut().enumerate() {
                let mut idx: Vec<u32> = (0..n as u32).collect();
                idx.sort_by(|&a, &b| {
                    data.dist[a as usize * n_ads + ad]
                        .total_cmp(&data.dist[b as usize * n_ads + ad])
                        .then(a.cmp(&b))
                });
                *order = idx;
            }
            leaf_builds += 1;
            leaf_data[leaf as usize] = Some(data);
        }

        ObjectIndex {
            n_live: objects.len(),
            objects: store,
            locs,
            leaf_data,
            subtree_count,
            leaf_builds,
            leaf_touches: 0,
            compactions: 0,
        }
    }

    /// Absorb a batch of deltas, touching only the leaves the deltas land
    /// in. Validation is atomic: on `Err` the index is untouched. Inserts
    /// compute one distance row from the leaf matrix; removals tombstone;
    /// a leaf whose tombstones outnumber its live objects is compacted
    /// in-place (no distance recomputed). Equivalent, query-for-query, to
    /// a from-scratch [`ObjectIndex::build_with_ids`] over the surviving
    /// live set.
    pub fn apply_delta(
        &mut self,
        tree: &IpTree,
        deltas: &[ObjectDelta],
    ) -> Result<DeltaReport, DeltaError> {
        self.validate(tree, deltas)?;
        let compactions_before = self.compactions;
        let mut report = DeltaReport::default();
        let mut touched: HashSet<NodeIdx> = HashSet::new();
        for delta in deltas {
            match *delta {
                ObjectDelta::Insert { id, at } => {
                    self.ensure_slot(id, at);
                    self.objects[id.index()] = at;
                    touched.insert(self.insert_live(tree, id, at));
                    report.inserts += 1;
                }
                ObjectDelta::Remove { id } => {
                    touched.insert(self.remove_live(tree, id));
                    report.removes += 1;
                }
                ObjectDelta::Move { id, to } => {
                    touched.insert(self.remove_live(tree, id));
                    self.objects[id.index()] = to;
                    touched.insert(self.insert_live(tree, id, to));
                    report.moves += 1;
                }
            }
        }
        report.touched_leaves = touched.len();
        report.compactions = (self.compactions - compactions_before) as usize;
        Ok(report)
    }

    /// Check a delta batch against the current live set (sequentially: an
    /// insert earlier in the batch makes the id live for later deltas).
    pub(crate) fn validate(&self, tree: &IpTree, deltas: &[ObjectDelta]) -> Result<(), DeltaError> {
        let n_partitions = tree.venue.num_partitions();
        let mut overlay: HashMap<u32, bool> = HashMap::new();
        for delta in deltas {
            let id = delta.id();
            if let Some(p) = delta.position() {
                if p.partition.index() >= n_partitions {
                    return Err(DeltaError::BadPartition(id, p.partition));
                }
            }
            let live = overlay
                .get(&id.0)
                .copied()
                .unwrap_or_else(|| self.is_live(id));
            match delta {
                ObjectDelta::Insert { .. } => {
                    if live {
                        return Err(DeltaError::DuplicateId(id));
                    }
                    overlay.insert(id.0, true);
                }
                ObjectDelta::Remove { .. } => {
                    if !live {
                        return Err(DeltaError::UnknownId(id));
                    }
                    overlay.insert(id.0, false);
                }
                ObjectDelta::Move { .. } => {
                    if !live {
                        return Err(DeltaError::UnknownId(id));
                    }
                }
            }
        }
        Ok(())
    }

    fn ensure_slot(&mut self, id: ObjectId, fill: IndoorPoint) {
        if id.index() >= self.locs.len() {
            self.objects.resize(id.index() + 1, fill);
            self.locs.resize(id.index() + 1, NO_LOC);
        }
    }

    /// Insert the (validated, slot-backed) object into its leaf bucket;
    /// returns the touched leaf.
    fn insert_live(&mut self, tree: &IpTree, id: ObjectId, at: IndoorPoint) -> NodeIdx {
        let leaf = tree.leaf_of(at.partition);
        let n_ads = tree.access_doors(leaf).len();
        let data = self.leaf_data[leaf as usize].get_or_insert_with(|| LeafObjects::new(n_ads));
        let mut row = vec![f64::INFINITY; n_ads];
        dist_row(tree, leaf, &at, &mut row);
        let slot = data.push(id, &row);
        self.locs[id.index()] = ObjLoc {
            leaf,
            slot,
            live: true,
        };
        self.n_live += 1;
        self.leaf_touches += 1;
        adjust_counts(tree, &mut self.subtree_count, leaf, 1);
        leaf
    }

    /// Tombstone the (validated) live object, compacting or dropping its
    /// leaf bucket under tombstone pressure; returns the touched leaf.
    fn remove_live(&mut self, tree: &IpTree, id: ObjectId) -> NodeIdx {
        let loc = self.locs[id.index()];
        debug_assert!(loc.live, "remove of dead object {id}");
        let bucket = &mut self.leaf_data[loc.leaf as usize];
        let data = bucket.as_mut().expect("live leaf bucket");
        data.live[loc.slot as usize] = false;
        data.n_live -= 1;
        self.locs[id.index()].live = false;
        self.n_live -= 1;
        self.leaf_touches += 1;
        adjust_counts(tree, &mut self.subtree_count, loc.leaf, -1);

        let dead = data.objs.len() - data.n_live;
        if data.n_live == 0 {
            *bucket = None;
            self.compactions += 1;
        } else if dead > data.n_live && dead >= 4 {
            let survivors = data.compact();
            for (new_slot, &old_slot) in survivors.iter().enumerate() {
                let oid = data.objs[new_slot];
                debug_assert_eq!(
                    self.locs[oid.index()].slot,
                    old_slot,
                    "compaction remap consistent"
                );
                self.locs[oid.index()].slot = new_slot as u32;
            }
            self.compactions += 1;
        }
        loc.leaf
    }

    /// Whether `id` currently names a live object.
    #[inline]
    pub fn is_live(&self, id: ObjectId) -> bool {
        self.locs.get(id.index()).is_some_and(|l| l.live)
    }

    /// The live `(id, position)` set — the input a from-scratch
    /// [`ObjectIndex::build_with_ids`] needs to reproduce this index.
    pub fn live_pairs(&self) -> Vec<(ObjectId, IndoorPoint)> {
        self.locs
            .iter()
            .enumerate()
            .filter(|(_, l)| l.live)
            .map(|(i, _)| (ObjectId(i as u32), self.objects[i]))
            .collect()
    }

    /// Allocated id slots (live + tombstoned + gaps). See
    /// [`ObjectIndex::num_live`] for the live count.
    #[inline]
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Live objects.
    #[inline]
    pub fn num_live(&self) -> usize {
        self.n_live
    }

    #[inline]
    pub fn object(&self, id: ObjectId) -> &IndoorPoint {
        &self.objects[id.index()]
    }

    /// Maintenance counters (see [`ObjectIndexStats`]).
    pub fn index_stats(&self) -> ObjectIndexStats {
        ObjectIndexStats {
            leaf_builds: self.leaf_builds,
            leaf_touches: self.leaf_touches,
            compactions: self.compactions,
            live: self.n_live,
            slots: self.objects.len(),
        }
    }

    pub fn size_bytes(&self) -> usize {
        self.objects.len() * std::mem::size_of::<IndoorPoint>()
            + self.locs.len() * std::mem::size_of::<ObjLoc>()
            + self
                .leaf_data
                .iter()
                .flatten()
                .map(|l| {
                    l.objs.len() * 5
                        + l.dist.len() * 8
                        + l.order.iter().map(|o| o.len() * 4).sum::<usize>()
                })
                .sum::<usize>()
            + self.subtree_count.len() * 4
    }
}

/// `row[ad] = min over doors d of Partition(o) of M_leaf(d, ad) + |o, d|`
/// — the per-access-door distance row of one object, straight from the
/// leaf matrix (shared by `build` and incremental inserts).
fn dist_row(tree: &IpTree, leaf: NodeIdx, o: &IndoorPoint, row: &mut [f64]) {
    let venue = &*tree.venue;
    row.fill(f64::INFINITY);
    for &d in &venue.partition(o.partition).doors {
        let r = tree.slabs.leaf_row_of(&tree.door_leaves, leaf, d.0);
        let exit = o.distance_to_door(venue, d);
        for (slot, &m) in row.iter_mut().zip(tree.slabs.row(leaf, r as usize)) {
            let cand = crate::ticks::decode(m) + exit;
            if cand < *slot {
                *slot = cand;
            }
        }
    }
}

/// Add `delta` to the subtree object count of `leaf` and every ancestor.
fn adjust_counts(tree: &IpTree, counts: &mut [u32], leaf: NodeIdx, delta: i64) {
    for n in tree.ancestors(leaf) {
        let c = &mut counts[n as usize];
        *c = (*c as i64 + delta) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::VipTreeConfig;
    use indoor_graph::DijkstraEngine;
    use indoor_synth::{random_venue, workload};
    use std::sync::Arc;

    #[test]
    fn tables_match_dijkstra() {
        let venue = Arc::new(random_venue(23));
        let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
        let objects = workload::place_objects(&venue, 12, 5);
        let oi = ObjectIndex::build(&tree, &objects);
        assert_eq!(
            oi.subtree_count[tree.root() as usize] as usize,
            objects.len()
        );
        assert_eq!(oi.num_live(), objects.len());
        assert_eq!(
            oi.index_stats().leaf_builds,
            oi.leaf_data.iter().flatten().count() as u64,
            "one table build per populated leaf"
        );

        let mut engine = DijkstraEngine::new(venue.num_doors());
        for (leaf, data) in oi.leaf_data.iter().enumerate() {
            let (leaf, Some(data)) = (leaf as u32, data) else {
                continue;
            };
            for (ad_idx, &a) in tree.access_doors(leaf).iter().enumerate() {
                engine.run(venue.d2d(), &[(a.0, 0.0)], &[]);
                for (j, oid) in data.objs.iter().enumerate() {
                    let o = &objects[oid.index()];
                    let want = venue
                        .partition(o.partition)
                        .doors
                        .iter()
                        .map(|&d| {
                            engine.settled_distance(d.0).unwrap_or(f64::INFINITY)
                                + o.distance_to_door(&venue, d)
                        })
                        .fold(f64::INFINITY, f64::min);
                    let got = data.dist_at(ad_idx, j);
                    assert!(
                        (got - want).abs() < 1e-9 || got == want,
                        "dist({a}, o{j}) got {got} want {want}"
                    );
                }
                // Order is ascending.
                let ord = data.order_at(ad_idx);
                assert_eq!(ord.len(), data.objs.len());
                for w in ord.windows(2) {
                    assert!(
                        data.dist_at(ad_idx, w[0] as usize) <= data.dist_at(ad_idx, w[1] as usize)
                    );
                }
            }
        }
    }

    /// Inserts splice into the per-door orders at the same place a
    /// from-scratch build would put them, and tombstoned slots vanish from
    /// candidate emission.
    #[test]
    fn delta_maintains_sorted_orders_and_tombstones() {
        let venue = Arc::new(random_venue(37));
        let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
        let objects = workload::place_objects(&venue, 20, 9);
        let mut oi = ObjectIndex::build(&tree, &objects[..10]);

        let mut deltas: Vec<ObjectDelta> = (10..20)
            .map(|i| ObjectDelta::Insert {
                id: ObjectId(i as u32),
                at: objects[i],
            })
            .collect();
        deltas.push(ObjectDelta::Remove { id: ObjectId(3) });
        deltas.push(ObjectDelta::Move {
            id: ObjectId(7),
            to: objects[2],
        });
        let report = oi.apply_delta(&tree, &deltas).unwrap();
        assert_eq!(report.inserts, 10);
        assert_eq!(report.removes, 1);
        assert_eq!(report.moves, 1);
        assert_eq!(oi.num_live(), 19);
        assert!(!oi.is_live(ObjectId(3)));
        assert_eq!(
            oi.index_stats().leaf_builds,
            ObjectIndex::build(&tree, &objects[..10])
                .index_stats()
                .leaf_builds,
            "deltas never rebuild leaf tables"
        );

        for data in oi.leaf_data.iter().flatten() {
            assert_eq!(
                data.live.iter().filter(|&&l| l).count(),
                data.n_live,
                "live count consistent"
            );
            for ad in 0..data.order.len() {
                let ord = data.order_at(ad);
                for w in ord.windows(2) {
                    assert!(
                        data.dist_at(ad, w[0] as usize) <= data.dist_at(ad, w[1] as usize),
                        "order stays sorted after splices"
                    );
                }
            }
        }
        assert_eq!(
            oi.subtree_count[tree.root() as usize] as usize,
            oi.num_live(),
            "root subtree count tracks the live set"
        );
    }

    #[test]
    fn validation_is_atomic() {
        let venue = Arc::new(random_venue(11));
        let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
        let objects = workload::place_objects(&venue, 6, 1);
        let mut oi = ObjectIndex::build(&tree, &objects);
        let before = oi.live_pairs();

        // Second delta is invalid: the whole batch must bounce.
        let bad = [
            ObjectDelta::Remove { id: ObjectId(0) },
            ObjectDelta::Remove { id: ObjectId(99) },
        ];
        assert_eq!(
            oi.apply_delta(&tree, &bad),
            Err(DeltaError::UnknownId(ObjectId(99)))
        );
        assert_eq!(
            oi.live_pairs(),
            before,
            "failed batch leaves index untouched"
        );

        assert_eq!(
            oi.apply_delta(
                &tree,
                &[ObjectDelta::Insert {
                    id: ObjectId(0),
                    at: objects[1],
                }]
            ),
            Err(DeltaError::DuplicateId(ObjectId(0)))
        );
        // Sequential validity: remove then re-insert the same id is fine.
        let seq = [
            ObjectDelta::Remove { id: ObjectId(0) },
            ObjectDelta::Insert {
                id: ObjectId(0),
                at: objects[2],
            },
        ];
        assert!(oi.apply_delta(&tree, &seq).is_ok());
        // Bad partition id.
        let bad_p = ObjectDelta::Insert {
            id: ObjectId(50),
            at: indoor_model::IndoorPoint::new(
                indoor_model::PartitionId(u32::MAX - 1),
                geometry::Point::new(0.0, 0.0, 0),
            ),
        };
        assert!(matches!(
            oi.apply_delta(&tree, &[bad_p]),
            Err(DeltaError::BadPartition(..))
        ));
    }

    /// Tombstone pressure triggers compaction, and compaction preserves
    /// the live set, slots stay consistent.
    #[test]
    fn compaction_preserves_live_set() {
        let venue = Arc::new(random_venue(29));
        let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
        let objects = workload::place_objects(&venue, 24, 4);
        let mut oi = ObjectIndex::build(&tree, &objects);

        // Remove most of the objects one by one: some leaf must compact.
        let deltas: Vec<ObjectDelta> = (0..20)
            .map(|i| ObjectDelta::Remove { id: ObjectId(i) })
            .collect();
        oi.apply_delta(&tree, &deltas).unwrap();
        assert!(oi.index_stats().compactions > 0, "pressure must compact");
        assert_eq!(oi.num_live(), 4);

        let live = oi.live_pairs();
        assert_eq!(live.len(), 4);
        for (id, p) in live {
            assert_eq!(oi.object(id), &p);
            let loc = oi.locs[id.index()];
            let data = oi.leaf_data[loc.leaf as usize].as_ref().unwrap();
            assert_eq!(data.objs[loc.slot as usize], id, "slot remap consistent");
            assert!(data.live[loc.slot as usize]);
        }
        // Draining a leaf entirely removes its bucket.
        let rest: Vec<ObjectDelta> = (20..24)
            .map(|i| ObjectDelta::Remove { id: ObjectId(i) })
            .collect();
        oi.apply_delta(&tree, &rest).unwrap();
        assert!(oi.leaf_data.iter().all(Option::is_none));
        assert!(oi.subtree_count.iter().all(|&c| c == 0));
    }
}
