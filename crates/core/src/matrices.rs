//! Distance-matrix construction (§2.1.2 steps 3–4) without a full-graph
//! search (DESIGN.md §1).
//!
//! The leaves' passes live beside the leaf grid in `leafdist`: step 3a
//! runs one leaf-local Dijkstra per access door, and step 3c folds each
//! leaf top-down from its parent's matrix. In between, non-leaf matrices
//! at level `l+1` are computed on the *level graph* `G_{l+1}`: vertices
//! are the access doors of **all** level-`l` nodes, with an edge between
//! two doors that are access doors of the same level-`l` node, weighted
//! by that node's matrix entry — the *local* leaf distance for `G_2`, a
//! global matrix entry above. A shortest path between consecutive access
//! doors stays inside one node, so by induction every non-leaf entry is
//! a global distance, and so is every folded leaf entry. That is what
//! makes Algorithm 2's ascent and Algorithm 4's decomposition exact.

use crate::tree::{DistMatrix, NO_DOOR};
use indoor_graph::{CsrGraph, DijkstraEngine, GraphBuilder, NO_VERTEX};
use indoor_model::DoorId;

/// The §2.1.1 next-hop rule for a leaf-matrix entry, given the full door
/// chain `d = c0, c1, ..., ck = a` of the shortest path:
///
/// * no intermediate doors → NULL (final edge);
/// * first step stays among the leaf's doors → that first door (`c1`);
/// * path exits through `d` itself (`c1` outside the leaf) → the first
///   *boundary* door strictly between the endpoints (paper Example 6), or
///   `c1` when the excursion crosses no boundary door (then `c1` shares a
///   leaf with `d`, which keeps Algorithm 4 decomposable — see DESIGN.md).
pub(crate) fn leaf_next_hop(chain: &[u32], doors: &[DoorId], boundary: &[bool]) -> u32 {
    if chain.len() <= 2 {
        return NO_DOOR;
    }
    let c1 = chain[1];
    if doors.binary_search(&DoorId(c1)).is_ok() {
        return c1;
    }
    for &v in &chain[1..chain.len() - 1] {
        if boundary[v as usize] {
            return v;
        }
    }
    c1
}

/// A level graph `G_l` (§2.1.2 step 4): the union of all access doors of
/// the nodes at level `l-1`, with an edge per same-node access-door pair.
pub(crate) struct LevelGraph {
    pub graph: CsrGraph,
    /// Compact vertex → venue door.
    pub vertex_door: Vec<DoorId>,
    /// Venue door → compact vertex (`NO_VERTEX` if absent).
    pub door_vertex: Vec<u32>,
}

impl LevelGraph {
    /// Build from the nodes of one level: each entry is `(access_doors,
    /// matrix)` of one node.
    pub(crate) fn build_from_parts(
        num_venue_doors: usize,
        parts: &[(&[DoorId], &DistMatrix)],
    ) -> LevelGraph {
        let mut door_vertex = vec![NO_VERTEX; num_venue_doors];
        let mut vertex_door: Vec<DoorId> = Vec::new();
        for (access, _) in parts {
            for &d in access.iter() {
                if door_vertex[d.index()] == NO_VERTEX {
                    door_vertex[d.index()] = vertex_door.len() as u32;
                    vertex_door.push(d);
                }
            }
        }
        let mut gb = GraphBuilder::new(vertex_door.len());
        for (access, matrix) in parts {
            for (i, &a) in access.iter().enumerate() {
                for &b in &access[i + 1..] {
                    if let Some(w) = matrix.lookup_dist(a, b) {
                        if w.is_finite() {
                            gb.add_edge(door_vertex[a.index()], door_vertex[b.index()], w);
                        }
                    }
                }
            }
        }
        LevelGraph {
            graph: gb.build(),
            vertex_door,
            door_vertex,
        }
    }
}

/// Build the distance matrix of a non-leaf node over `border` = the union
/// of its children's access doors, by Dijkstra on the level graph.
///
/// The next-hop entry for `(x, b)` is the first door of `border` strictly
/// inside the level-graph shortest path from `x` to `b` (NULL when none) —
/// §2.1.1: "the first door among the access doors of the children of N
/// that is on the shortest path".
pub(crate) fn build_inner_matrix(
    lg: &LevelGraph,
    engine: &mut DijkstraEngine,
    border: &[DoorId],
) -> DistMatrix {
    let n = border.len();
    let mut dist = vec![f64::INFINITY; n * n].into_boxed_slice();
    let mut next_hop = vec![NO_DOOR; n * n].into_boxed_slice();

    let verts: Vec<u32> = border.iter().map(|d| lg.door_vertex[d.index()]).collect();
    debug_assert!(verts.iter().all(|&v| v != NO_VERTEX));

    let mut chain: Vec<u32> = Vec::new();
    for (col, (&b, &bv)) in border.iter().zip(&verts).enumerate() {
        engine.run(&lg.graph, &[(bv, 0.0)], &verts);
        for (row, (&x, &xv)) in border.iter().zip(&verts).enumerate() {
            if x == b {
                dist[row * n + col] = 0.0;
                continue;
            }
            let Some(dd) = engine.settled_distance(xv) else {
                continue;
            };
            dist[row * n + col] = dd;

            engine.chain_into(xv, &mut chain);
            // First border door strictly between x and b.
            for &v in &chain[1..chain.len().saturating_sub(1)] {
                let d = lg.vertex_door[v as usize];
                if border.binary_search(&d).is_ok() {
                    next_hop[row * n + col] = d.0;
                    break;
                }
            }
        }
    }

    DistMatrix {
        rows: border.to_vec(),
        cols: border.to_vec(),
        dist,
        next_hop,
    }
}
