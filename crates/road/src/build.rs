//! Route-overlay construction: Rnet hierarchy + per-Rnet border shortcuts.

use graph_partition::Hierarchy;
use indoor_graph::{CsrGraph, DijkstraEngine, GraphBuilder};
use indoor_model::{IndoorPoint, PartitionId, Venue};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

pub(crate) const NO_HOP: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct RoadConfig {
    /// Children per Rnet level.
    pub fanout: usize,
    /// Maximum vertices per leaf Rnet.
    pub max_leaf: usize,
    pub seed: u64,
}

impl Default for RoadConfig {
    fn default() -> Self {
        RoadConfig {
            fanout: 4,
            max_leaf: 64,
            seed: 0x80AD,
        }
    }
}

/// Shortcuts of one Rnet: rows = the union of children borders (for a
/// leaf: its vertices), cols = the Rnet's own borders; entries are
/// **within-Rnet** shortest distances (bypass semantics). `hop` holds the
/// next row vertex on the within-Rnet path for overlay-path expansion.
#[derive(Debug, Clone)]
pub(crate) struct Shortcuts {
    pub rows: Vec<u32>,
    pub cols: Vec<u32>,
    pub dist: Box<[f64]>,
    pub hop: Box<[u32]>,
}

impl Shortcuts {
    #[inline]
    pub fn row_index(&self, v: u32) -> Option<usize> {
        self.rows.binary_search(&v).ok()
    }
    #[inline]
    pub fn col_index(&self, v: u32) -> Option<usize> {
        self.cols.binary_search(&v).ok()
    }
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.dist[r * self.cols.len() + c]
    }
    #[inline]
    pub fn hop_at(&self, r: usize, c: usize) -> Option<u32> {
        match self.hop[r * self.cols.len() + c] {
            NO_HOP => None,
            h => Some(h),
        }
    }
    fn size_bytes(&self) -> usize {
        (self.rows.len() + self.cols.len()) * 4 + self.dist.len() * 8 + self.hop.len() * 4
    }
}

/// Association directory + object positions.
#[derive(Debug, Default)]
pub(crate) struct RoadObjects {
    pub points: Vec<IndoorPoint>,
    pub by_partition: HashMap<PartitionId, Vec<u32>>,
    /// Distinct objects per Rnet ("is this Rnet object-free?").
    pub node_count: Vec<u32>,
}

pub struct Road {
    pub(crate) venue: Arc<Venue>,
    pub(crate) h: Hierarchy,
    pub(crate) shortcuts: Vec<Shortcuts>,
    pub(crate) engine: Mutex<DijkstraEngine>,
    pub(crate) objects: Option<RoadObjects>,
}

impl Road {
    pub fn build(venue: Arc<Venue>, config: &RoadConfig) -> Road {
        let g = venue.d2d();
        let h = Hierarchy::build(g, config.fanout, config.max_leaf, config.seed);
        let n_nodes = h.nodes.len();

        let mut shortcuts: Vec<Shortcuts> = Vec::with_capacity(n_nodes);

        // Bottom-up: children before parents (children always have larger
        // indices? Hierarchy builds top-down with a stack, so children DO
        // have larger indices than their parent).
        for idx in (0..n_nodes).rev() {
            let node = &h.nodes[idx];
            let sc = if node.is_leaf() {
                let (verts, local) = leaf_subgraph(g, &node.vertices);
                within_graph_shortcuts(&local, &verts, &verts, &node.borders)
            } else {
                // Local graph over the union of children borders: child
                // shortcut cliques + real edges crossing between children.
                let mut rows: Vec<u32> = node
                    .children
                    .iter()
                    .flat_map(|&c| h.nodes[c as usize].borders.iter().copied())
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                let mut local_of = HashMap::with_capacity(rows.len());
                for (i, &v) in rows.iter().enumerate() {
                    local_of.insert(v, i as u32);
                }
                let mut gb = GraphBuilder::new(rows.len());
                for &c in &node.children {
                    let cnode = &h.nodes[c as usize];
                    // Children have larger node indices than their parent
                    // and were processed earlier in this reverse loop.
                    let cmat = &shortcuts[shortcut_slot(n_nodes, c)];
                    for (bi, &b) in cnode.borders.iter().enumerate() {
                        let ri = cmat.row_index(b).expect("border in child shortcuts");
                        for (bj, &b2) in cnode.borders.iter().enumerate().skip(bi + 1) {
                            let _ = bj;
                            let ci = cmat.col_index(b2).expect("border col");
                            let w = cmat.at(ri, ci);
                            if w.is_finite() {
                                gb.add_edge(local_of[&b], local_of[&b2], w);
                            }
                        }
                    }
                    // Real edges leaving this child but staying inside `idx`.
                    for &b in &cnode.borders {
                        for (u, w) in g.neighbors(b) {
                            let u_leaf = h.leaf_of_vertex[u as usize];
                            if !h.contains(c, u_leaf) && h.contains(idx as u32, u_leaf) {
                                if let Some(&lu) = local_of.get(&u) {
                                    gb.add_edge(local_of[&b], lu, w);
                                }
                            }
                        }
                    }
                }
                let local = gb.build();
                within_graph_shortcuts(&local, &rows, &rows, &node.borders)
            };
            shortcuts.push(sc);
        }
        shortcuts.reverse(); // restore node order

        let engine = DijkstraEngine::new(g.num_vertices());
        Road {
            venue,
            h,
            shortcuts,
            engine: Mutex::new(engine),
            objects: None,
        }
    }

    /// Register objects into the association directory.
    pub fn attach_objects(&mut self, objects: &[IndoorPoint]) {
        let mut by_partition: HashMap<PartitionId, Vec<u32>> = HashMap::new();
        for (i, o) in objects.iter().enumerate() {
            by_partition.entry(o.partition).or_default().push(i as u32);
        }
        // An Rnet "contains" an object iff it contains any door of the
        // object's partition (reaching the object may end at any of them).
        let mut node_count = vec![0u32; self.h.nodes.len()];
        for o in objects {
            let mut marked: Vec<u32> = Vec::new();
            for &d in &self.venue.partition(o.partition).doors {
                for n in self.h.chain(self.h.leaf_of_vertex[d.index()]) {
                    if !marked.contains(&n) {
                        marked.push(n);
                    }
                }
            }
            for n in marked {
                node_count[n as usize] += 1;
            }
        }
        self.objects = Some(RoadObjects {
            points: objects.to_vec(),
            by_partition,
            node_count,
        });
    }

    pub fn venue(&self) -> &Arc<Venue> {
        &self.venue
    }

    pub fn size_bytes(&self) -> usize {
        self.h.size_bytes()
            + self
                .shortcuts
                .iter()
                .map(Shortcuts::size_bytes)
                .sum::<usize>()
    }
}

/// Children are pushed after their parent during hierarchy construction,
/// so when filling `shortcuts` in reverse node order, the shortcut of node
/// `c` lives at slot `n_nodes - 1 - c`.
fn shortcut_slot(n_nodes: usize, c: u32) -> usize {
    n_nodes - 1 - c as usize
}

/// Extract the subgraph induced by `vertices` (sorted output order).
fn leaf_subgraph(g: &CsrGraph, vertices: &[u32]) -> (Vec<u32>, CsrGraph) {
    let mut verts = vertices.to_vec();
    verts.sort_unstable();
    let mut gb = GraphBuilder::new(verts.len());
    for (i, &v) in verts.iter().enumerate() {
        for (u, w) in g.neighbors(v) {
            if let Ok(j) = verts.binary_search(&u) {
                if j > i {
                    gb.add_edge(i as u32, j as u32, w);
                }
            }
        }
    }
    (verts, gb.build())
}

/// Shortcuts over a local graph: Dijkstra from every border (restricted to
/// the local graph = within-Rnet), recording distance and next-hop for
/// every row vertex.
fn within_graph_shortcuts(
    local: &CsrGraph,
    local_verts: &[u32],
    rows: &[u32],
    borders: &[u32],
) -> Shortcuts {
    let mut engine = DijkstraEngine::new(local.num_vertices());
    let (nr, nc) = (rows.len(), borders.len());
    let mut dist = vec![f64::INFINITY; nr * nc].into_boxed_slice();
    let mut hop = vec![NO_HOP; nr * nc].into_boxed_slice();

    for (ci, &b) in borders.iter().enumerate() {
        let lb = local_verts.binary_search(&b).expect("border in Rnet") as u32;
        engine.run(local, &[(lb, 0.0)], &[]);
        for (ri, &r) in rows.iter().enumerate() {
            if r == b {
                dist[ri * nc + ci] = 0.0;
                continue;
            }
            let lr = local_verts.binary_search(&r).expect("row in Rnet") as u32;
            let Some(dd) = engine.settled_distance(lr) else {
                continue;
            };
            dist[ri * nc + ci] = dd;
            // Next hop from r towards b = r's parent in the tree rooted at b.
            if let Some(p) = engine.parent(lr) {
                if p != indoor_graph::NO_VERTEX {
                    hop[ri * nc + ci] = local_verts[p as usize];
                }
            }
        }
    }

    Shortcuts {
        rows: rows.to_vec(),
        cols: borders.to_vec(),
        dist,
        hop,
    }
}
