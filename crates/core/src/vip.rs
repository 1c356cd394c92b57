//! VIP-Tree (§2.2, §3.1.2, §3.3): the IP-tree plus, for every door, the
//! materialised distances to the access doors of all of its ancestor
//! nodes.
//!
//! With the tables, `dist(s, d)` for an access door `d` of any ancestor is
//! `min over superior doors u of Partition(s): dist(s, u) + table[u](d)` —
//! two table lookups instead of an ascent, giving O(ρ²) shortest-distance
//! and O(ρ² + w) expected shortest-path cost (Table 1).
//!
//! The tables are where the VIP-tree spends its memory, so they hold
//! distances and nothing else, each a `u32` tick count ([`crate::ticks`]).
//! A row is found by arithmetic on the tree's shape ([`DoorTables`]), and
//! a path's minimising chain is recomputed from the distances as it is
//! replayed ([`VipTree::table_chain`]): every sum is exact, so the stored
//! distances imply their argmins (DESIGN.md §16).

use crate::ascent::{Ascent, Climber, Provenance};
use crate::path::PartialEdge;
use crate::ticks;
use crate::tree::{BuildError, IpTree, NodeIdx, VipTreeConfig, NO_NODE};
use indoor_model::{DoorId, IndoorPath, IndoorPoint, ObjectId, QueryStats, Venue};
use std::ops::Range;
use std::sync::Arc;

/// Doors per work unit of the table build.
const DOORS_PER_CHUNK: u32 = 1024;

/// Per node, where its row sits in a door's run.
#[derive(Debug, Default, Clone, Copy)]
struct NodeSpan {
    /// Pre-order number of the node and one past its subtree's last: the
    /// node is `x` or an ancestor of `x` exactly when `pre(x)` is in
    /// `pre..end`.
    pre: u32,
    end: u32,
    /// |AD| summed over the node's strict ancestors, and with the node.
    above: u32,
    through: u32,
}

/// The materialised ancestor distances of every door (§2.2) in one flat
/// table of distances alone, read by the distance sweeps and by
/// [`VipTree::table_chain`]'s argmin replay alike.
///
/// Door `d`'s run starts at `door_off[d]` and holds one row per ancestor
/// of its (≤ 2) leaves, one entry per access door of the row's node: the
/// first leaf's chain root → leaf, then the second leaf's chain from the
/// leaf up to just below the two leaves' LCA. Rows at or above the LCA
/// are minimised over the first leaf's chain. So a row's place is the
/// door's base plus per-node prefix sums of access-door counts, and the
/// node a row was minimised over is the chain child towards its leaf: no
/// per-row index is stored.
#[derive(Debug, Default)]
struct DoorTables {
    /// Per node (O(#nodes)).
    spans: Vec<NodeSpan>,
    /// Per door: the start of its run in `dists`.
    door_off: Vec<u32>,
    /// In ticks ([`ticks::INF`] = ∞).
    dists: Vec<u32>,
}

impl DoorTables {
    /// The row layout of `ip`'s doors, with no run pushed yet.
    fn layout(ip: &IpTree) -> DoorTables {
        let n = ip.num_nodes();
        // Children are numbered before their parents, the root last, so a
        // forward sweep sizes every subtree and a backward one places
        // every node before its children.
        let mut size = vec![1u32; n];
        for c in 0..ip.root() {
            size[ip.parent(c) as usize] += size[c as usize];
        }
        let mut spans = vec![NodeSpan::default(); n];
        for v in (0..n).rev() {
            let s = &mut spans[v];
            s.end = s.pre + size[v];
            s.through = s.above + ip.access_doors(v as NodeIdx).len() as u32;
            let (mut next, through) = (s.pre + 1, s.through);
            for &c in ip.children(v as NodeIdx) {
                spans[c as usize].pre = next;
                spans[c as usize].above = through;
                next += size[c as usize];
            }
        }
        DoorTables {
            spans,
            ..DoorTables::default()
        }
    }

    /// The row of a door with leaves `leaves` for `node`, if `node` is an
    /// ancestor of one of them: the leaf whose chain holds the row, and
    /// its span relative to the run's start.
    #[inline]
    fn place(&self, leaves: [NodeIdx; 2], node: NodeIdx) -> Option<(NodeIdx, Range<usize>)> {
        let (s, [l0, l1]) = (&self.spans, leaves);
        let n = s[node as usize];
        let under = |l: NodeIdx| l != NO_NODE && (n.pre..n.end).contains(&s[l as usize].pre);
        if under(l0) {
            Some((l0, n.above as usize..n.through as usize))
        } else if under(l1) {
            let top = s[l0 as usize].through + s[l1 as usize].through;
            Some((l1, (top - n.through) as usize..(top - n.above) as usize))
        } else {
            None
        }
    }

    /// Door `d`'s row for `node`, if materialised: the leaf whose chain
    /// holds it, and its span in `dists`.
    #[inline]
    fn row_at(&self, ip: &IpTree, d: u32, node: NodeIdx) -> Option<(NodeIdx, Range<usize>)> {
        let (leaf, span) = self.place(ip.door_leaves[d as usize], node)?;
        let base = self.door_off[d as usize] as usize;
        Some((leaf, base + span.start..base + span.end))
    }

    /// Append door `d`'s run (§2.2) to a chunk's `(door_off, dists)`,
    /// offsets relative to the chunk; doors must be pushed in id order.
    fn push_door(&self, ip: &IpTree, d: u32, (door_off, dists): &mut (Vec<u32>, Vec<u32>)) {
        let base = dists.len();
        door_off.push(base as u32);
        let leaves = ip.door_leaves[d as usize];
        for leaf in leaves.into_iter().filter(|&l| l != NO_NODE) {
            // Leaf row: distances straight from the leaf matrix. The first
            // leaf's row ends its chain, so one resize covers the chain.
            let r = ip.slabs.leaf_row_of(&ip.door_leaves, leaf, d) as usize;
            let (_, mut kid) = self.place(leaves, leaf).expect("a door's own leaf");
            dists.resize(dists.len().max(base + kid.end), ticks::INF);
            dists[base + kid.start..base + kid.end].copy_from_slice(ip.slabs.row(leaf, r));
            // Ascend to the root, or to the first leaf's chain, minimising
            // over the previous level. Two stored ticks sum below the
            // sentinel unless one is ∞, so the fold needs no test for ∞
            // ([`ticks`]).
            for (cur, parent) in ip.ancestors(leaf).zip(ip.ancestors(leaf).skip(1)) {
                let (on, row) = self.place(leaves, parent).expect("an ancestor");
                if on != leaf {
                    break; // shared upper chain already materialised
                }
                dists.resize(dists.len().max(base + row.end), ticks::INF);
                let kid_cols = ip.slabs.kid_cols_of(cur);
                for (j, &col) in ip.slabs.own_cols_of(parent).iter().enumerate() {
                    let best = kid_cols.iter().enumerate().map(|(bi, &krow)| {
                        u64::from(dists[base + kid.start + bi])
                            + u64::from(ip.slabs.row(parent, krow as usize)[col as usize])
                    });
                    dists[base + row.start + j] = best.min().map_or(ticks::INF, ticks::narrow);
                }
                kid = row;
            }
        }
    }

    /// Every array, once.
    fn size_bytes(&self) -> usize {
        self.spans.len() * std::mem::size_of::<NodeSpan>()
            + (self.door_off.len() + self.dists.len()) * 4
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
    /// Every door's run depends only on the finished IP-tree, so the
    /// materialisation fans out over `ip.config.threads` workers in fixed
    /// chunks of consecutive doors, each appended to a chunk-local run
    /// list; concatenating the chunks in door order gives the same bytes
    /// for any thread count, and no per-door allocation outlives the
    /// build.
    pub fn from_ip_tree(ip: IpTree) -> VipTree {
        let n_doors = ip.venue.num_doors() as u32;
        let chunks: Vec<Range<u32>> = (0..n_doors)
            .step_by(DOORS_PER_CHUNK as usize)
            .map(|lo| lo..n_doors.min(lo + DOORS_PER_CHUNK))
            .collect();
        let mut tables = DoorTables::layout(&ip);
        let parts = indoor_graph::parallel::par_map(&chunks, ip.config.threads, |_, chunk| {
            let mut part = (Vec::new(), Vec::new());
            chunk
                .clone()
                .for_each(|d| tables.push_door(&ip, d, &mut part));
            part
        });
        let (door_off, dists) = (&mut tables.door_off, &mut tables.dists);
        door_off.reserve_exact(n_doors as usize);
        dists.reserve_exact(parts.iter().map(|p| p.1.len()).sum());
        for (offs, part) in parts {
            door_off.extend(offs.iter().map(|o| o + dists.len() as u32));
            dists.extend_from_slice(&part);
        }
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
    /// ancestor of one of the door's leaves: the chain child the row was
    /// minimised over (`NO_NODE` for a leaf row), and the distances to
    /// `node`'s access doors in ticks ([`crate::ticks`]).
    pub fn table_row(&self, door: DoorId, node: NodeIdx) -> Option<(NodeIdx, &[u32])> {
        let (leaf, span) = self.tables.row_at(&self.ip, door.0, node)?;
        let prev = (node != leaf).then(|| self.ip.child_towards(node, leaf));
        Some((prev.unwrap_or(NO_NODE), &self.tables.dists[span]))
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
    /// recomputed argmins, everything else matches the IP-tree path algorithm.
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

    /// The chain step behind entry `idx` of `door`'s row at `node`: the
    /// child the row was minimised over, and the first index into its
    /// access doors (in `kid_cols_of` order) whose sum equals the entry in
    /// `u64` ticks. Every sum is exact, so that is the build's own first
    /// minimiser. `None` for a leaf row. An ∞ entry is never replayed:
    /// there `INF + 0 == INF` could "match" where the build found none.
    fn chain_arg(&self, door: DoorId, node: NodeIdx, idx: usize) -> Option<(NodeIdx, usize)> {
        let (kid, row) = self.table_row(door, node).expect("chain node in table");
        if kid == NO_NODE {
            return None;
        }
        let (_, kid_row) = self.table_row(door, kid).expect("chain child in table");
        let slabs = &self.ip.slabs;
        let (col, want) = (slabs.own_cols_of(node)[idx] as usize, u64::from(row[idx]));
        let sum =
            |(&r, &k): (&u32, &u32)| u64::from(k) + u64::from(slabs.row(node, r as usize)[col]);
        let mut sums = slabs.kid_cols_of(kid).iter().zip(kid_row).map(sum);
        Some((
            kid,
            sums.position(|s| s == want)
                .expect("a finite entry has a minimiser"),
        ))
    }

    /// Push onto `out` the minimising chain `door → ... → access door
    /// idx of node`, top-down, as partial edges with their context
    /// nodes, recomputing each level's argmin ([`VipTree::chain_arg`]).
    fn table_chain(&self, door: DoorId, node: NodeIdx, idx: usize, out: &mut Vec<PartialEdge>) {
        let (mut cur, mut idx) = (node, idx);
        loop {
            let cur_door = self.ip.access_doors(cur)[idx];
            let arg = self.chain_arg(door, cur, idx);
            // A leaf row is one edge door → cur_door in the leaf matrix.
            let from = arg.map_or(door, |(kid, bi)| self.ip.access_doors(kid)[bi]);
            if from != cur_door {
                out.push(PartialEdge::new(from, cur_door, cur));
            }
            let Some(next) = arg else { return };
            (cur, idx) = next;
        }
    }

    /// §3.1.2 in place of one Algorithm 2 level: append to `asc` the
    /// step of chain node `n` — `p`'s distance to each of its access
    /// doors through the superior doors' tables, one table row per
    /// superior door (found by arithmetic) swept contiguously, the argmin
    /// door kept as provenance for [`VipTree::table_chain`].
    fn table_step_into(&self, p: &IndoorPoint, n: NodeIdx, asc: &mut Ascent) {
        let (ip, t) = (&self.ip, &self.tables);
        let step = asc.push_step(n);
        step.reset_sources(ip.access_doors(n).len());
        for &u in ip.superior_doors(p.partition) {
            if let Some((_, span)) = t.row_at(ip, u.0, n) {
                step.offer_source(u, p.distance_to_door(&ip.venue, u), &t.dists[span]);
            }
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
/// replayed from the tables' recomputed argmins.
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

        #[test]
        fn argmins_match_the_build_rule(seed in 0u64..2_000) {
            let venue = Arc::new(random_venue(seed));
            check_argmins(&VipTree::build(venue, &VipTreeConfig::default()).unwrap(), "random");
        }

        #[test]
        fn rows_sit_where_the_chain_puts_them(seed in 0u64..2_000) {
            let venue = Arc::new(random_venue(seed));
            check_rows(&VipTree::build(venue, &VipTreeConfig::default()).unwrap(), "random");
        }
    }

    #[test]
    fn men_2_rows_sit_where_the_chain_puts_them() {
        let venue = Arc::new(indoor_synth::presets::menzies_2().build());
        check_rows(
            &VipTree::build(venue, &VipTreeConfig::default()).unwrap(),
            "Men-2",
        );
    }

    /// The argmin check on the multi-level trees the random venues do not
    /// reach. Ignored in the debug suite; CI runs it in release with
    /// `--ignored`.
    #[test]
    #[ignore]
    fn preset_argmins_match_the_build_rule() {
        use indoor_synth::presets;
        for (name, spec) in [
            ("Men-2", presets::menzies_2()),
            ("CL-lite", presets::clayton_lite()),
        ] {
            let vip = VipTree::build(Arc::new(spec.build()), &VipTreeConfig::default()).unwrap();
            let checked = check_argmins(&vip, name);
            assert!(checked > 0, "{name}: no non-leaf entry");
            eprintln!("{name}: {checked} finite non-leaf entries, every argmin the build's");
        }
    }

    /// At every finite entry of every non-leaf row, the stored distance is
    /// the build's fold over the chain child's row, and the replay's
    /// equality rule ([`VipTree::chain_arg`]) picks the index the build's
    /// `cand < best` rule would: the first minimiser. Returns the number
    /// of entries checked.
    fn check_argmins(vip: &VipTree, label: &str) -> usize {
        let (ip, mut checked) = (vip.ip_tree(), 0);
        let slabs = &ip.slabs;
        for d in (0..ip.venue.num_doors() as u32).map(DoorId) {
            for n in 0..ip.num_nodes() as NodeIdx {
                let Some((kid, row)) = vip.table_row(d, n).filter(|r| r.0 != NO_NODE) else {
                    continue;
                };
                let (_, kid_row) = vip.table_row(d, kid).expect("chain child row");
                for (idx, (&want, &col)) in row.iter().zip(slabs.own_cols_of(n)).enumerate() {
                    if want == ticks::INF {
                        continue;
                    }
                    let (mut best, mut arg) = (u64::from(ticks::INF), None);
                    for (bi, &krow) in slabs.kid_cols_of(kid).iter().enumerate() {
                        let cand = u64::from(kid_row[bi])
                            + u64::from(slabs.row(n, krow as usize)[col as usize]);
                        if cand < best {
                            (best, arg) = (cand, Some((kid, bi)));
                        }
                    }
                    let at = format!("{label}: door {} node {n} entry {idx}", d.0);
                    assert_eq!(best, u64::from(want), "{at}: stored distance");
                    assert_eq!(vip.chain_arg(d, n, idx), arg, "{at}: argmin");
                    checked += 1;
                }
            }
        }
        checked
    }

    /// `table_row(d, n)` is `Some` exactly when `n` is an ancestor of one
    /// of `d`'s leaves, one entry per access door of `n`, and its chain
    /// child is the one the materialisation walks: each leaf's chain up to
    /// the root, the second stopping below the LCA, so rows at or above
    /// it keep the first leaf's chain. The rows tile each door's run.
    fn check_rows(vip: &VipTree, label: &str) {
        let (ip, t) = (vip.ip_tree(), &vip.tables);
        let (mut want, mut spans) = (Vec::new(), Vec::new());
        for d in 0..ip.venue.num_doors() as u32 {
            want.clear();
            for leaf in ip.door_leaves[d as usize]
                .into_iter()
                .filter(|&l| l != NO_NODE)
            {
                let mut prev = NO_NODE;
                for n in ip.ancestors(leaf) {
                    if want.iter().any(|&(m, _)| m == n) {
                        break;
                    }
                    want.push((n, prev));
                    prev = n;
                }
            }
            spans.clear();
            for n in 0..ip.num_nodes() as NodeIdx {
                let got = vip.table_row(DoorId(d), n);
                let expect = want.iter().find(|&&(m, _)| m == n).map(|&(_, prev)| prev);
                assert_eq!(
                    got.map(|r| r.0),
                    expect,
                    "{label}: door {d} node {n} chain child"
                );
                if let Some((_, row)) = got {
                    assert_eq!(
                        row.len(),
                        ip.access_doors(n).len(),
                        "{label}: door {d} node {n}"
                    );
                    spans.push(t.row_at(ip, d, n).unwrap().1);
                }
            }
            spans.sort_by_key(|s| (s.start, s.end));
            let mut at = t.door_off[d as usize] as usize;
            for span in &spans {
                assert_eq!(
                    span.start, at,
                    "{label}: door {d}: gap or overlap in its run"
                );
                at = span.end;
            }
            let end = t
                .door_off
                .get(d as usize + 1)
                .map_or(t.dists.len(), |&o| o as usize);
            assert_eq!(at, end, "{label}: door {d}: run end");
        }
    }
}
