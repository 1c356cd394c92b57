//! Shortest-path recovery (§3.2): replaying the ascent's minimising chain
//! and recursively decomposing each partial edge via next-hop doors
//! (Algorithm 4).
//!
//! Unlike the paper's presentation — which locates the matrix for a door
//! pair through the lowest common ancestor of the doors — we additionally
//! track the *context node* whose matrix produced each partial edge. Every
//! next-hop door is a row/column of that same matrix, so decomposition
//! usually proceeds without any search. When an entry is NULL in a
//! non-leaf matrix (the pair is directly connected at that granularity) we
//! re-resolve the pair in the lowest *other* matrix containing it, banning
//! matrices already tried so the search provably terminates; if no matrix
//! remains (not observed on any workload; tracked by
//! [`IpTree::decompose_fallback_count`]) an exact Dijkstra fallback
//! expands the pair, reading its doors off the engine's parent chain
//! (`DijkstraEngine::path_to`).

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

impl IpTree {
    /// Replay one ascent into the door chain `s → a*` where `a*` is the
    /// chosen access door (index `target_idx`) of the ascent's last node.
    /// Returns (entry door of the source partition, partial edges bottom-up).
    pub(crate) fn replay_ascent(
        &self,
        asc: &Ascent,
        target_idx: usize,
    ) -> (DoorId, Vec<PartialEdge>) {
        let mut edges: Vec<PartialEdge> = Vec::new();
        let mut level = asc.steps().len() - 1;
        let mut idx = target_idx;
        // Walk provenance downwards, emitting edges top-down, then reverse.
        let entry_door = loop {
            let step = &asc.steps()[level];
            let door = self.access_doors(step.node)[idx];
            match step.prov[idx] {
                Provenance::Source { via } => {
                    if via != door {
                        edges.push(PartialEdge {
                            from: via,
                            to: door,
                            ctx: asc.steps()[0].node, // the leaf's matrix
                        });
                    }
                    break via;
                }
                Provenance::Child { idx: child_idx } => {
                    let child_step = &asc.steps()[level - 1];
                    let child_door = self.access_doors(child_step.node)[child_idx as usize];
                    if child_door != door {
                        edges.push(PartialEdge {
                            from: child_door,
                            to: door,
                            ctx: step.node, // the parent matrix combined them
                        });
                    }
                    level -= 1;
                    idx = child_idx as usize;
                }
            }
        };
        edges.reverse();
        (entry_door, edges)
    }

    /// Assemble the full door sequence for a cross-leaf path: the source
    /// chain up to access door `di`, the middle edge `di → dj` in `lca`'s
    /// matrix, and the reversed target chain, each partial edge expanded
    /// via Algorithm 4. A chain is `(entry door, partial edges bottom-up)`.
    pub(crate) fn cross_leaf_path(
        &self,
        (s_entry, s_edges): (DoorId, Vec<PartialEdge>),
        (di, dj, lca): (DoorId, DoorId, NodeIdx),
        (t_entry, t_edges): (DoorId, Vec<PartialEdge>),
    ) -> Vec<DoorId> {
        let push_edge = |seq: &mut Vec<DoorId>, from: DoorId, to: DoorId, ctx: NodeIdx| {
            let full = self.expand(from, to, Some(ctx));
            debug_assert_eq!(full.first(), seq.last());
            seq.extend_from_slice(&full[1..]);
        };
        let mut seq: Vec<DoorId> = vec![s_entry];
        for e in &s_edges {
            push_edge(&mut seq, e.from, e.to, e.ctx);
        }
        if di != dj {
            push_edge(&mut seq, di, dj, lca);
        }
        // Target side: edges lead t → dj; reverse each and their order.
        let mut tail: Vec<DoorId> = vec![t_entry];
        for e in &t_edges {
            push_edge(&mut tail, e.from, e.to, e.ctx);
        }
        tail.reverse(); // now dj .. t_entry
        debug_assert_eq!(tail.first(), Some(&dj));
        seq.extend_from_slice(&tail[1..]);
        seq.dedup();
        seq
    }

    /// Expand a door pair into the full shortest-path door sequence
    /// (inclusive of both endpoints). `ctx` is the node whose matrix is
    /// known to contain the pair, if any.
    pub(crate) fn expand(&self, a: DoorId, b: DoorId, ctx: Option<NodeIdx>) -> Vec<DoorId> {
        if a == b {
            return vec![a];
        }
        // Lemma 6: pairs of non-boundary doors only arise as final edges.
        if !self.is_boundary_door(a) && !self.is_boundary_door(b) {
            debug_assert!(self.venue.d2d().arc_weight(a.0, b.0).is_some());
            return vec![a, b];
        }

        let mut banned: Vec<NodeIdx> = Vec::new();
        let mut ctx = ctx;
        loop {
            let node_idx = match ctx.take() {
                Some(n) if !banned.contains(&n) && self.matrix_has_pair(n, a, b) => n,
                _ => match self.lowest_common_matrix(a, b, &banned) {
                    Some(n) => n,
                    None => return self.dijkstra_expand(a, b),
                },
            };
            let fwd = self.row_of(node_idx, a).zip(self.col_of(node_idx, b));
            let Some((row, col)) = fwd else {
                // Only the transposed entry exists (leaf matrices are
                // door × access-door): expand the reverse and flip.
                let mut rev = self.expand(b, a, Some(node_idx));
                rev.reverse();
                return rev;
            };
            match self.slabs.hop(node_idx, row, col) {
                Some(k) if k != a && k != b => {
                    let mut left = self.expand(a, k, Some(node_idx));
                    let right = self.expand(k, b, Some(node_idx));
                    debug_assert_eq!(left.last(), right.first());
                    left.extend_from_slice(&right[1..]);
                    return left;
                }
                _ => {
                    if self.is_leaf(node_idx) {
                        // Leaf NULL entry: genuinely a final edge.
                        return vec![a, b];
                    }
                    // Non-leaf NULL: the pair is directly connected at this
                    // granularity; resolve it in a finer matrix.
                    banned.push(node_idx);
                }
            }
        }
    }

    /// Does `n`'s matrix contain the pair in either orientation?
    fn matrix_has_pair(&self, n: NodeIdx, a: DoorId, b: DoorId) -> bool {
        (self.row_of(n, a).is_some() && self.col_of(n, b).is_some())
            || (self.row_of(n, b).is_some() && self.col_of(n, a).is_some())
    }

    /// All nodes whose matrix contains door `d`: its leaves (rows of leaf
    /// matrices) and the parents of every node that has `d` as an access
    /// door (rows/cols of inner matrices).
    fn matrix_chain(&self, d: DoorId, out: &mut Vec<NodeIdx>) {
        out.clear();
        for leaf in self.door_leaves[d.index()] {
            if leaf == crate::NO_NODE {
                continue;
            }
            if !out.contains(&leaf) {
                out.push(leaf);
            }
            // Climb while `d` stays an access door; each such node's parent
            // holds `d` in its matrix.
            let mut cur = leaf;
            loop {
                if self.access_doors(cur).binary_search(&d).is_err() {
                    break;
                }
                let parent = self.parent(cur);
                if parent == crate::NO_NODE {
                    break;
                }
                if !out.contains(&parent) {
                    out.push(parent);
                }
                cur = parent;
            }
        }
    }

    /// The lowest-level node whose matrix contains both doors, excluding
    /// `banned`.
    fn lowest_common_matrix(&self, a: DoorId, b: DoorId, banned: &[NodeIdx]) -> Option<NodeIdx> {
        let mut ca = Vec::new();
        let mut cb = Vec::new();
        self.matrix_chain(a, &mut ca);
        self.matrix_chain(b, &mut cb);
        ca.iter()
            .filter(|n| cb.contains(n) && !banned.contains(n) && self.matrix_has_pair(**n, a, b))
            .copied()
            .min_by_key(|&n| self.level(n))
    }

    /// Exact fallback: Dijkstra between the two doors on the D2D graph.
    fn dijkstra_expand(&self, a: DoorId, b: DoorId) -> Vec<DoorId> {
        self.decompose_fallbacks
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut engine = self.engines.checkout();
        engine.run(self.venue.d2d(), &[(a.0, 0.0)], &[b.0]);
        let seq: Vec<DoorId> = engine
            .path_to(b.0)
            .expect("b is settled")
            .into_iter()
            .map(DoorId)
            .collect();
        debug_assert_eq!(seq.first(), Some(&a));
        seq
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
}
