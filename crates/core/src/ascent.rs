//! Algorithm 2 (`getDistances`) for the IP-tree (§3.1.1), and the query
//! core both trees share: Algorithm 3 (shortest distance), the §3.2 path
//! query and the entry to Algorithm 5, written once over a [`Climber`].
//!
//! The ascent starts at the source's leaf, computing the distance from the
//! point to every access door of the leaf through the *superior doors* of
//! its partition (Definition 2), then climbs parents: the distance to each
//! access door of the parent is the minimum over the child's access doors
//! of `dist(s, child_door) + matrix(child_door, parent_door)` (Lemma 1).
//! Every step also records which child door achieved the minimum, so the
//! shortest-path algorithm can replay the chain (the "thick arrows" of
//! Fig. 5(b)).

use crate::path::PartialEdge;
use crate::ticks::{self, UNREACHED};
use crate::tree::{IpTree, NodeIdx};
use crate::QueryScratch;
use indoor_model::{DoorId, IndoorPath, IndoorPoint, ObjectId, QueryStats};

/// How an access-door distance was obtained, for path replay.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Provenance {
    /// Leaf level: entered the tree via this door of the source partition
    /// (a superior door, possibly the access door itself).
    Source { via: DoorId },
    /// Minimum over the previous step's access doors; `idx` indexes that
    /// step's access-door list. Covers the paper's "marked" doors too: an
    /// access door inherited from the child is its own argmin with a
    /// zero-cost matrix hop.
    Child { idx: u16 },
}

/// Distances from the query point to the access doors of one node.
#[derive(Debug, Clone)]
pub(crate) struct AscentStep {
    pub node: NodeIdx,
    /// Aligned with `node.access_doors`, in ticks ([`ticks::UNREACHED`]
    /// = ∞): a step is folded from stored rows in integer ticks, and
    /// decoded only where a query needs metres.
    pub ticks: Vec<u64>,
    pub prov: Vec<Provenance>,
}

impl AscentStep {
    /// Size a fresh step for `n_ads` access doors, none reached yet, each
    /// with provenance `prov` until a fold improves it.
    fn reset(&mut self, n_ads: usize, prov: Provenance) {
        self.ticks.resize(n_ads, UNREACHED);
        self.prov.resize(n_ads, prov);
    }

    /// Size a fresh step for `n_ads` access doors to be reached through
    /// [`AscentStep::offer_source`].
    pub(crate) fn reset_sources(&mut self, n_ads: usize) {
        self.reset(n_ads, Provenance::Source { via: DoorId(0) });
    }

    /// Fold `base` ticks plus each stored tick `row[col(i)]` into access
    /// door `i`, strictly improving, recording `prov` where it improves.
    /// An ∞ entry is skipped, as `base + ∞` never improves.
    #[inline]
    fn fold(&mut self, base: u64, row: &[u32], col: impl Fn(usize) -> usize, prov: Provenance) {
        for (i, d) in self.ticks.iter_mut().enumerate() {
            let v = row[col(i)];
            if v == ticks::INF {
                continue;
            }
            let cand = base + u64::from(v);
            if cand < *d {
                *d = cand;
                self.prov[i] = prov;
            }
        }
    }

    /// Offer door `u` of the point's partition, `du` away from the point,
    /// as the way to every access door: `row[i]` is `dist(u, door i)` in
    /// ticks, one contiguous matrix or table row. Callers offer doors in
    /// order and updates are strictly improving, so each access door
    /// keeps its first minimal `u` as provenance.
    #[inline]
    pub(crate) fn offer_source(&mut self, u: DoorId, du: f64, row: &[u32]) {
        self.fold(ticks::ticks(du), row, |i| i, Provenance::Source { via: u });
    }
}

/// The full ascent from `Leaf(p)` up to (and including) `target` — or,
/// from a climber that needs no lower levels to reach it (the VIP-tree's
/// tables), `target`'s step alone: [`Ascent::last`] is all Algorithm 3
/// reads.
///
/// The step buffers — including every step's `dists`/`prov` vectors —
/// survive [`Ascent::clear`], so a pooled [`crate::QueryScratch`] refills
/// an ascent query after query without reallocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ascent {
    steps: Vec<AscentStep>,
    /// Number of steps live for the current query; retired entries beyond
    /// it keep their capacity for reuse.
    live: usize,
}

impl Ascent {
    /// Forget the recorded steps, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.live = 0;
    }

    /// The live steps, leaf (level 1) first.
    #[inline]
    pub fn steps(&self) -> &[AscentStep] {
        &self.steps[..self.live]
    }

    /// Start a new step for `node`, reusing a retired slot's buffers when
    /// one is available. Returns the (empty) step to fill.
    pub(crate) fn push_step(&mut self, node: NodeIdx) -> &mut AscentStep {
        if self.live == self.steps.len() {
            self.steps.push(AscentStep {
                node,
                ticks: Vec::new(),
                prov: Vec::new(),
            });
        } else {
            let s = &mut self.steps[self.live];
            s.node = node;
            s.ticks.clear();
            s.prov.clear();
        }
        self.live += 1;
        &mut self.steps[self.live - 1]
    }

    /// As [`Ascent::push_step`], additionally handing back the previous
    /// step so parent distances can be minimised over the child's without
    /// fighting the borrow checker.
    pub(crate) fn push_step_with_prev(&mut self, node: NodeIdx) -> (&mut AscentStep, &AscentStep) {
        debug_assert!(self.live >= 1, "push_step_with_prev needs a leaf step");
        self.push_step(node);
        let (prev, cur) = self.steps.split_at_mut(self.live - 1);
        (&mut cur[0], &prev[self.live - 2])
    }

    pub fn last(&self) -> &AscentStep {
        self.steps()
            .last()
            .expect("ascent has at least the leaf step")
    }

    /// The step for `node` if it lies on the ascent's root path, in O(1).
    /// For ascents recorded from the leaf, as Algorithm 5's always are.
    ///
    /// Steps run from the leaf (level 1) upward one level at a time, so
    /// `steps` *is* a level-indexed dense array: the step for a node at
    /// level `l` can only sit at `steps[l - 1]`. This replaces the
    /// `HashMap<NodeIdx, &AscentStep>` the branch-and-bound queries used
    /// to build per query.
    #[inline]
    pub fn step_for(&self, tree: &IpTree, node: NodeIdx) -> Option<&AscentStep> {
        let level = tree.level(node) as usize;
        debug_assert!(level >= 1);
        self.steps().get(level - 1).filter(|s| s.node == node)
    }

    /// Whether `node` lies on the ascent's root path, in O(1).
    #[inline]
    pub fn on_path(&self, tree: &IpTree, node: NodeIdx) -> bool {
        self.step_for(tree, node).is_some()
    }
}

impl IpTree {
    /// Distance from a point to every door of its own partition's doors is
    /// direct; to the leaf's access doors it goes through superior doors
    /// (Eq. 1 restricted per Definition 2). Appends the step to `asc`.
    fn leaf_step_into(&self, p: &IndoorPoint, leaf: NodeIdx, asc: &mut Ascent) {
        let venue = &*self.venue;
        let access = self.access_doors(leaf);
        let part_doors = &venue.partition(p.partition).doors;

        // One contiguous leaf-matrix row per superior door (leaf columns
        // *are* the access doors, so the column ordinal is the access-door
        // index). Local access doors are overwritten with their direct
        // distance afterwards — they are never routed through a superior
        // door.
        let step = asc.push_step(leaf);
        step.reset_sources(access.len());
        for &u in self.superior_doors(p.partition) {
            let row_u = self.slabs.leaf_row_of(&self.door_leaves, leaf, u.0);
            let du = p.distance_to_door(venue, u);
            step.offer_source(u, du, self.slabs.row(leaf, row_u as usize));
        }
        for (ai, &a) in access.iter().enumerate() {
            if part_doors.binary_search(&a).is_ok() {
                step.ticks[ai] = ticks::ticks(p.distance_to_door(venue, a));
                step.prov[ai] = Provenance::Source { via: a };
            }
        }
    }

    /// Algorithm 2: distances from `p` to all access doors of every node
    /// on the path from `Leaf(p)` up to `target` (inclusive), written into
    /// a reusable [`Ascent`] buffer.
    pub(crate) fn ascend_into(&self, p: &IndoorPoint, target: NodeIdx, asc: &mut Ascent) {
        asc.clear();
        let leaf = self.leaf_of(p.partition);
        self.leaf_step_into(p, leaf, asc);
        let mut cur = leaf;
        while cur != target {
            let parent = self.parent(cur);
            debug_assert_ne!(parent, crate::NO_NODE, "target not an ancestor");

            // Row-major sweep over the parent slab: one contiguous row per
            // child access door (precomputed kid-column run; rows double
            // as columns for inner matrices), reading the parent's own
            // access-door columns through the `own_cols` run instead of
            // binary-searching door ids. Child doors are visited in order
            // per column and updates are strictly improving, so the argmin
            // is the first minimal child door. The fold is in ticks.
            let (step, prev) = asc.push_step_with_prev(parent);
            let own = self.slabs.own_cols_of(parent);
            let kid = self.slabs.kid_cols_of(cur);
            step.reset(own.len(), Provenance::Child { idx: 0 });
            for (bi, (&krow, &pd)) in kid.iter().zip(&prev.ticks).enumerate() {
                if pd != UNREACHED {
                    let row = self.slabs.row(parent, krow as usize);
                    let prov = Provenance::Child { idx: bi as u16 };
                    step.fold(pd, row, |ai| own[ai] as usize, prov);
                }
            }
            cur = parent;
        }
    }

    /// As [`IpTree::ascend_into`] with a freshly allocated ascent.
    #[cfg(test)]
    pub(crate) fn ascend(&self, p: &IndoorPoint, target: NodeIdx) -> Ascent {
        let mut asc = Ascent::default();
        self.ascend_into(p, target, &mut asc);
        asc
    }

    /// Algorithm 3 / §3.1: indoor shortest distance between two points.
    pub fn shortest_distance_points(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<f64> {
        self.shortest_distance_with_stats(s, t, &mut QueryStats::default())
    }

    /// As [`Self::shortest_distance_points`], accumulating workload
    /// counters (door pairs considered; Fig. 9(a)).
    pub fn shortest_distance_with_stats(
        &self,
        s: &IndoorPoint,
        t: &IndoorPoint,
        stats: &mut QueryStats,
    ) -> Option<f64> {
        let mut scratch = self.scratch.checkout();
        self.shortest_distance_stats(s, t, &mut scratch, stats)
    }

    /// As [`Self::shortest_distance_points`] with caller-owned scratch
    /// state — the zero-allocation path batch serving uses.
    pub fn shortest_distance_in(
        &self,
        s: &IndoorPoint,
        t: &IndoorPoint,
        scratch: &mut QueryScratch,
    ) -> Option<f64> {
        self.shortest_distance_stats(s, t, scratch, &mut QueryStats::default())
    }

    /// §3.2: shortest path between two points.
    pub fn shortest_path_points(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<IndoorPath> {
        let mut scratch = self.scratch.checkout();
        self.shortest_path_in(s, t, &mut scratch)
    }

    /// As [`Self::shortest_path_points`] with caller-owned scratch state.
    pub fn shortest_path_in(
        &self,
        s: &IndoorPoint,
        t: &IndoorPoint,
        scratch: &mut QueryScratch,
    ) -> Option<IndoorPath> {
        self.shortest_path_between(s, t, scratch)
    }
}

/// The one thing the IP-tree and the VIP-tree do differently — how
/// `dist(p, access door)` is obtained (Algorithm 2's matrix walk against
/// §3.1.2's table sweep) and how the chain behind one is replayed — and,
/// as provided methods, every query written once over it (DESIGN.md
/// §14.5).
pub(crate) trait Climber {
    /// The tree whose topology, matrices and object set the queries read.
    fn ip(&self) -> &IpTree;

    /// Algorithm 2 from `Leaf(p)` to the root: one step per level, each
    /// holding `p`'s distance to every access door of that ancestor —
    /// what Algorithm 5 descends from.
    fn ascend_to_root(&self, p: &IndoorPoint, asc: &mut Ascent);

    /// Leave in `asc.last()` the distances from `p` to the access doors of
    /// its ancestor `n`, with whatever [`Climber::replay`] needs beneath.
    fn climb(&self, p: &IndoorPoint, n: NodeIdx, asc: &mut Ascent);

    /// The minimising chain behind access door `i` of the node `climb`
    /// stopped at: push onto `edges` the partial edges from the point's
    /// partition to door `i`, top-down, and return the partition's door
    /// the chain enters by.
    fn replay(&self, asc: &Ascent, i: usize, edges: &mut Vec<PartialEdge>) -> DoorId;

    /// Algorithm 5 from a fresh ascent.
    fn knn_query(
        &self,
        q: &IndoorPoint,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Vec<(ObjectId, f64)> {
        self.ascend_to_root(q, &mut scratch.asc_s);
        self.ip().knn_from_ascent(q, k, scratch)
    }

    /// Algorithm 5 with `d_k` fixed at `radius`, from a fresh ascent.
    fn range_query(
        &self,
        q: &IndoorPoint,
        radius: f64,
        scratch: &mut QueryScratch,
    ) -> Vec<(ObjectId, f64)> {
        self.ascend_to_root(q, &mut scratch.asc_s);
        self.ip().range_from_ascent(q, radius, scratch)
    }

    /// Algorithm 3, counting the door pairs of Fig. 9(a).
    fn shortest_distance_stats(
        &self,
        s: &IndoorPoint,
        t: &IndoorPoint,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
    ) -> Option<f64> {
        stats.queries += 1;
        let ip = self.ip();
        let (leaf_s, leaf_t) = (ip.leaf_of(s.partition), ip.leaf_of(t.partition));
        if leaf_s == leaf_t {
            // §3.1.1; a distance needs no door sequence.
            return s
                .route_to(&ip.venue, t, &mut ip.engines.checkout())
                .map(|(d, _)| d);
        }
        stats.door_pairs +=
            (ip.superior_doors(s.partition).len() * ip.superior_doors(t.partition).len()) as u64;
        let (d, _) = self.cross_leaf(s, t, leaf_s, leaf_t, scratch)?;
        Some(d)
    }

    /// §3.2–3.3: Algorithm 3, then the two minimising chains replayed
    /// around the LCA edge.
    fn shortest_path_between(
        &self,
        s: &IndoorPoint,
        t: &IndoorPoint,
        scratch: &mut QueryScratch,
    ) -> Option<IndoorPath> {
        let ip = self.ip();
        let (leaf_s, leaf_t) = (ip.leaf_of(s.partition), ip.leaf_of(t.partition));
        if leaf_s == leaf_t {
            return s.path_to(&ip.venue, t, &mut ip.engines.checkout());
        }
        let (length, (i, j)) = self.cross_leaf(s, t, leaf_s, leaf_t, scratch)?;
        let (asc_s, asc_t, buf) = (&scratch.asc_s, &scratch.asc_t, &mut scratch.path);
        let (ns, nt) = (asc_s.last().node, asc_t.last().node);
        let lca = ip.parent(ns);
        debug_assert_eq!(lca, ip.parent(nt), "both climbs stop under the LCA");
        buf.edges.clear();
        let s_entry = self.replay(asc_s, i, &mut buf.edges);
        let split = buf.edges.len();
        let t_entry = self.replay(asc_t, j, &mut buf.edges);
        let middle = (ip.access_doors(ns)[i], ip.access_doors(nt)[j], lca);
        let doors = ip.cross_leaf_path(buf, (s_entry, split, t_entry), middle);
        Some(IndoorPath {
            source: *s,
            target: *t,
            doors,
            length,
        })
    }

    /// Cross-leaf distance plus the minimising access-door pair of the
    /// LCA's two children; both climbs are left in `scratch.asc_s` /
    /// `asc_t` for [`Climber::replay`]. `None` when unreachable.
    fn cross_leaf(
        &self,
        s: &IndoorPoint,
        t: &IndoorPoint,
        leaf_s: NodeIdx,
        leaf_t: NodeIdx,
        scratch: &mut QueryScratch,
    ) -> Option<(f64, (usize, usize))> {
        let ip = self.ip();
        let lca = ip.lca(leaf_s, leaf_t);
        let ns = ip.child_towards(lca, leaf_s);
        let nt = ip.child_towards(lca, leaf_t);
        self.climb(s, ns, &mut scratch.asc_s);
        self.climb(t, nt, &mut scratch.asc_t);
        let ds = &scratch.asc_s.last().ticks;
        let dt = &scratch.asc_t.last().ticks;

        // Envelope early-exit: any pairing through row `i` costs at least
        // `ds[i] + env_min(lca) + min(dt)`, and a row whose floor already
        // reaches the incumbent is skipped without touching the matrix.
        // The skip condition is `>=` while updates require strictly `<`,
        // so the surviving minimum and argmin pair are exactly the
        // exhaustive scan's. The fold is in ticks; an unreached door and
        // an ∞ entry are skipped.
        let env_min = ip.slabs.env_min(lca);
        let dt_min = dt.iter().copied().min().unwrap_or(UNREACHED);
        if !env_min.is_finite() || dt_min == UNREACHED {
            return None; // nothing crosses the LCA
        }
        let floor = ticks::ticks(env_min) + dt_min;
        let kid_s = ip.slabs.kid_cols_of(ns);
        let kid_t = ip.slabs.kid_cols_of(nt);
        let mut best = UNREACHED;
        let mut best_pair = (usize::MAX, usize::MAX);
        for (i, &dsi) in ds.iter().enumerate() {
            if dsi == UNREACHED || dsi + floor >= best {
                continue;
            }
            let row = ip.slabs.row(lca, kid_s[i] as usize);
            for (j, &dtj) in dt.iter().enumerate() {
                let v = row[kid_t[j] as usize];
                if dtj == UNREACHED || v == ticks::INF {
                    continue;
                }
                let cand = dsi + u64::from(v) + dtj;
                if cand < best {
                    best = cand;
                    best_pair = (i, j);
                }
            }
        }
        (best != UNREACHED).then(|| (ticks::metres(best), best_pair))
    }
}

/// The IP-tree climbs by matrix walk, recording every level, and replays
/// the recorded provenance.
impl Climber for IpTree {
    fn ip(&self) -> &IpTree {
        self
    }

    fn ascend_to_root(&self, p: &IndoorPoint, asc: &mut Ascent) {
        self.ascend_into(p, self.root(), asc);
    }

    fn climb(&self, p: &IndoorPoint, n: NodeIdx, asc: &mut Ascent) {
        self.ascend_into(p, n, asc);
    }

    fn replay(&self, asc: &Ascent, i: usize, edges: &mut Vec<PartialEdge>) -> DoorId {
        self.replay_ascent(asc, i, edges)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tree::VipTreeConfig;
    use indoor_graph::DijkstraEngine;
    use indoor_synth::{random_venue, workload};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Ground truth: D2D Dijkstra with virtual endpoints + direct
    /// same-partition candidate.
    pub(crate) fn oracle_distance(
        venue: &indoor_model::Venue,
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
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    #[test]
    fn ascent_reaches_root_with_finite_distances() {
        let venue = Arc::new(random_venue(5));
        let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
        let pts = workload::query_points(&venue, 5, 1);
        for p in &pts {
            let asc = tree.ascend(p, tree.root());
            assert_eq!(asc.last().node, tree.root());
            // Connected venue: every access door reachable.
            for (k, &d) in asc.last().ticks.iter().enumerate() {
                assert!(
                    d != UNREACHED || tree.access_doors(tree.root()).is_empty(),
                    "unreachable access door idx {k}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]
        #[test]
        fn shortest_distance_matches_dijkstra(seed in 0u64..3_000) {
            let venue = Arc::new(random_venue(seed));
            let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let mut engine = DijkstraEngine::new(venue.num_doors());
            let pairs = workload::query_pairs(&venue, 25, seed ^ 0xA5);
            for (s, t) in &pairs {
                let want = oracle_distance(&venue, &mut engine, s, t);
                let got = tree.shortest_distance_points(s, t);
                match (want, got) {
                    (Some(w), Some(g)) => prop_assert!(
                        (w - g).abs() < 1e-6 * w.max(1.0),
                        "seed {seed}: got {g}, want {w} for {s:?} -> {t:?}"
                    ),
                    (None, None) => {}
                    _ => prop_assert!(false, "reachability mismatch {want:?} vs {got:?}"),
                }
            }
        }
    }
}
