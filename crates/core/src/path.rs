//! Shortest-path recovery (§3.2): replaying the climbs' minimising chains
//! and expanding each partial edge through the matrices' next-hop doors
//! (Algorithm 4), all into one reused [`PathScratch`].
//!
//! Unlike the paper's presentation — which locates the matrix for a door
//! pair through the lowest common ancestor of the doors — every partial
//! edge carries the *context node* whose matrix produced it, and every
//! next hop is a row/column of that same matrix, so expansion proceeds
//! without any search. `IpTree::expand_into` is one loop over an explicit
//! stack of frames that appends to the path's door buffer. A NULL entry
//! in a non-leaf matrix (the pair is directly connected at that
//! granularity) re-resolves in the lowest matrix holding the pair
//! strictly below the NULL node, so every re-resolution descends a
//! level. Algorithm 1 does not guarantee that such a matrix exists
//! (DESIGN.md §2 gives a venue where none does); there an exact Dijkstra
//! expands the pair, counted by [`IpTree::decompose_fallback_count`].

use crate::ascent::{Ascent, Provenance};
use crate::tree::{IpTree, NodeIdx};
use indoor_model::DoorId;

/// A partial edge: shortest sub-path from `from` to `to` whose matrix
/// entry lives in `ctx`'s distance matrix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PartialEdge {
    pub from: DoorId,
    pub to: DoorId,
    pub ctx: NodeIdx,
}

impl PartialEdge {
    pub(crate) fn new(from: DoorId, to: DoorId, ctx: NodeIdx) -> PartialEdge {
        PartialEdge { from, to, ctx }
    }
}

/// One pending expansion: the pair is looked up as row `edge.from`,
/// column `edge.to` of `edge.ctx`'s matrix. A frame appends the doors
/// after its first endpoint up to its last, reading from `from`'s end,
/// or from `to`'s when `rev` is set (a transposed leaf entry expands in
/// its stored orientation, read backwards).
#[derive(Debug, Clone, Copy)]
struct Frame {
    edge: PartialEdge,
    rev: bool,
}

/// The buffers of cross-leaf path queries, kept warm in a
/// [`crate::QueryScratch`]; the answer's door list is their one copy out.
#[derive(Debug, Default)]
pub(crate) struct PathScratch {
    /// Both replayed chains, each top-down: the source chain, then the
    /// target chain.
    pub edges: Vec<PartialEdge>,
    stack: Vec<Frame>,
    doors: Vec<DoorId>,
}

impl IpTree {
    /// Replay one ascent: push onto `edges`, top-down, the chain from the
    /// source partition to access door `target_idx` of the ascent's last
    /// node. Returns the source partition's door the chain enters by.
    pub(crate) fn replay_ascent(
        &self,
        asc: &Ascent,
        target_idx: usize,
        edges: &mut Vec<PartialEdge>,
    ) -> DoorId {
        let steps = asc.steps();
        let mut level = steps.len() - 1;
        let mut idx = target_idx;
        loop {
            let step = &steps[level];
            let door = self.access_doors(step.node)[idx];
            match step.prov[idx] {
                Provenance::Source { via } => {
                    if via != door {
                        // The leaf's matrix.
                        edges.push(PartialEdge::new(via, door, steps[0].node));
                    }
                    return via;
                }
                Provenance::Child { idx: child_idx } => {
                    level -= 1;
                    idx = child_idx as usize;
                    let from = self.access_doors(steps[level].node)[idx];
                    if from != door {
                        // The parent matrix combined them.
                        edges.push(PartialEdge::new(from, door, step.node));
                    }
                }
            }
        }
    }

    /// Assemble a cross-leaf path from `buf.edges` (the source chain is
    /// its first `split` edges, entered by `s_entry`; the target chain
    /// the rest, entered by `t_entry`) and the middle edge `di → dj` of
    /// `lca`'s matrix: the source chain bottom-up, the middle edge, then
    /// the target chain expanded bottom-up and reversed in place.
    pub(crate) fn cross_leaf_path(
        &self,
        buf: &mut PathScratch,
        (s_entry, split, t_entry): (DoorId, usize, DoorId),
        (di, dj, lca): (DoorId, DoorId, NodeIdx),
    ) -> Vec<DoorId> {
        let (edges, stack, doors) = (&buf.edges, &mut buf.stack, &mut buf.doors);
        let middle = (di != dj).then_some(PartialEdge::new(di, dj, lca));
        doors.clear();
        doors.push(s_entry);
        for &e in edges[..split].iter().rev().chain(&middle) {
            self.expand_into(e, stack, doors);
        }
        // The target chain leads t → dj: expand it from t's end in place
        // of `dj`, then turn that segment around.
        debug_assert_eq!(doors.last(), Some(&dj));
        doors.pop();
        let mark = doors.len();
        doors.push(t_entry);
        for &e in edges[split..].iter().rev() {
            self.expand_into(e, stack, doors);
        }
        doors[mark..].reverse();
        debug_assert!(doors.windows(2).all(|w| w[0] != w[1]));
        doors.clone()
    }

    /// Algorithm 4: append to `out` the doors of the shortest path behind
    /// `edge` after `edge.from`, up to and including `edge.to`. `ctx`'s
    /// matrix holds the pair in one orientation or the other.
    fn expand_into(&self, edge: PartialEdge, stack: &mut Vec<Frame>, out: &mut Vec<DoorId>) {
        debug_assert_eq!(out.last(), Some(&edge.from));
        stack.push(Frame { edge, rev: false });
        while let Some(Frame { edge, rev }) = stack.pop() {
            let (a, b, ctx) = (edge.from, edge.to, edge.ctx);
            debug_assert_ne!(a, b);
            let last = if rev { a } else { b };
            // Lemma 6: pairs of non-boundary doors only arise as final edges.
            if !self.is_boundary_door(a) && !self.is_boundary_door(b) {
                debug_assert!(self.venue.d2d().arc_weight(a.0, b.0).is_some());
                out.push(last);
                continue;
            }
            debug_assert!(
                self.matrix_has_pair(ctx, a, b),
                "({a},{b}) not in node {ctx}"
            );
            let Some((row, col)) = self.row_of(ctx, a).zip(self.col_of(ctx, b)) else {
                // Only the transposed entry exists (leaf matrices are
                // door × access-door): expand it and read it backwards.
                let edge = PartialEdge::new(b, a, ctx);
                stack.push(Frame { edge, rev: !rev });
                continue;
            };
            match self.slabs.hop(ctx, row, col) {
                Some(k) if k != a && k != b => {
                    let (left, right) = (PartialEdge::new(a, k, ctx), PartialEdge::new(k, b, ctx));
                    // Pushed so that the half read first pops first.
                    let (first, second) = if rev { (right, left) } else { (left, right) };
                    stack.push(Frame { edge: second, rev });
                    stack.push(Frame { edge: first, rev });
                }
                // Leaf NULL entry: genuinely a final edge.
                _ if self.is_leaf(ctx) => out.push(last),
                // Non-leaf NULL: the pair is directly connected at this
                // granularity; resolve it in a finer matrix.
                _ => match self.matrix_below(ctx, a, b) {
                    Some(m) => stack.push(Frame {
                        edge: PartialEdge::new(a, b, m),
                        rev,
                    }),
                    // Only leaf entries are transposed, so `rev` is unset.
                    None => self.dijkstra_expand(a, b, out),
                },
            }
        }
    }

    /// Does `n`'s matrix contain the pair in either orientation?
    fn matrix_has_pair(&self, n: NodeIdx, a: DoorId, b: DoorId) -> bool {
        (self.row_of(n, a).is_some() && self.col_of(n, b).is_some())
            || (self.row_of(n, b).is_some() && self.col_of(n, a).is_some())
    }

    /// The lowest-level node strictly below `n`'s level whose matrix
    /// contains the pair; ties go to the first one visited. The nodes
    /// whose matrix holds door `a` are its leaves (rows of leaf matrices)
    /// and the parent of every node on the way up that has `a` as an
    /// access door (rows/cols of inner matrices).
    fn matrix_below(&self, n: NodeIdx, a: DoorId, b: DoorId) -> Option<NodeIdx> {
        let mut best = n;
        let mut offer = |m: NodeIdx| {
            if self.level(m) < self.level(best) && self.matrix_has_pair(m, a, b) {
                best = m;
            }
        };
        for mut cur in self.door_leaves[a.index()] {
            if cur == crate::NO_NODE {
                continue;
            }
            offer(cur);
            while self.access_doors(cur).binary_search(&a).is_ok()
                && self.parent(cur) != crate::NO_NODE
            {
                cur = self.parent(cur);
                offer(cur);
            }
        }
        (best != n).then_some(best)
    }

    /// Exact fallback: append the doors after `a` up to `b` of a shortest
    /// D2D path, walking from `a` the parent chain of a Dijkstra seeded
    /// at `b`.
    fn dijkstra_expand(&self, a: DoorId, b: DoorId, out: &mut Vec<DoorId>) {
        self.decompose_fallbacks.inc();
        let mut engine = self.engines.checkout();
        engine.run(self.venue.d2d(), &[(b.0, 0.0)], &[a.0]);
        let mut cur = a.0;
        while cur != b.0 {
            cur = engine.parent(cur).expect("the pair is connected");
            out.push(DoorId(cur));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::VipTreeConfig;
    use crate::IpTree;
    use indoor_graph::DijkstraEngine;
    use indoor_synth::{random_venue, workload};
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(15))]
        #[test]
        fn paths_are_valid_and_length_matches(seed in 0u64..2_000) {
            let venue = Arc::new(random_venue(seed));
            let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let mut engine = DijkstraEngine::new(venue.num_doors());
            for (s, t) in workload::query_pairs(&venue, 20, seed ^ 0x9E) {
                let Some(path) = tree.shortest_path_points(&s, &t) else {
                    continue;
                };
                // Structurally valid and walkable.
                let recomputed = path.validate(&venue).unwrap_or_else(|e| {
                    panic!("seed {seed}: invalid path {e}: {path:?}")
                });
                // Its walked length equals the reported length...
                prop_assert!((recomputed - path.length).abs() < 1e-6 * recomputed.max(1.0),
                    "seed {seed}: reported {} vs walked {recomputed}", path.length);
                // ... and the reported length is the true shortest distance.
                let want = crate::ascent::tests::oracle_distance(&venue, &mut engine, &s, &t)
                    .expect("oracle disagrees on reachability");
                prop_assert!((path.length - want).abs() < 1e-6 * want.max(1.0),
                    "seed {seed}: path length {} vs oracle {want}", path.length);
            }
            prop_assert_eq!(tree.decompose_fallback_count(), 0,
                "decomposition needed Dijkstra fallbacks");
        }
    }

    /// DESIGN.md §2's venue: four corridors (β = 1 makes each its own
    /// leaf). Algorithm 1 merges C with D and A with B (two shared
    /// doors), and A's door `a` reaches B's door `b` fastest through C and
    /// D. So entry `(a, b)` of the {A, B} node is NULL, and no leaf holds
    /// both doors: the one matrix below the root holding the pair is the
    /// {C, D} node, on the same level. The path query expands the pair by
    /// Dijkstra and counts it.
    #[test]
    fn a_null_with_no_lower_matrix_falls_back_to_dijkstra() {
        use geometry::{Point, Rect};
        use indoor_model::{IndoorPoint, PartitionKind, VenueBuilder};
        let mut vb = VenueBuilder::new().with_beta(1);
        let mut hall =
            |x0, y0, x1, y1| vb.add_partition(PartitionKind::Hallway, Rect::new(x0, y0, x1, y1, 0));
        let (c, d) = (hall(-3.0, 0.0, 0.0, 3.0), hall(-3.0, 3.0, 0.0, 6.0));
        let (a_hall, b_hall) = (hall(0.0, 0.0, 100.0, 2.0), hall(0.0, 4.0, 100.0, 6.0));
        vb.add_door(Point::new(100.0, 3.0, 0), a_hall, Some(b_hall));
        vb.add_door(Point::new(99.0, 3.0, 0), a_hall, Some(b_hall));
        let a = vb.add_door(Point::new(0.0, 1.0, 0), a_hall, Some(c));
        let b = vb.add_door(Point::new(0.0, 5.0, 0), b_hall, Some(d));
        let v = vb.add_door(Point::new(-1.5, 3.0, 0), c, Some(d));
        let venue = Arc::new(vb.build().unwrap());
        let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();

        let n = tree.parent(tree.leaf_of(a_hall));
        assert_eq!(n, tree.parent(tree.leaf_of(b_hall)));
        let (row, col) = (tree.row_of(n, a).unwrap(), tree.col_of(n, b).unwrap());
        assert_eq!(tree.slabs.hop(n, row, col), None);
        assert_eq!(tree.matrix_below(n, a, b), None);

        let s = IndoorPoint::new(a_hall, Point::new(1.0, 1.0, 0));
        let t = IndoorPoint::new(b_hall, Point::new(1.0, 5.0, 0));
        let path = tree.shortest_path_points(&s, &t).unwrap();
        assert_eq!(path.doors, [a, v, b]);
        assert_eq!(path.validate(&venue).unwrap(), path.length);
        assert_eq!(tree.shortest_distance_points(&s, &t), Some(path.length));
        assert_eq!(tree.decompose_fallback_count(), 1);
    }
}
