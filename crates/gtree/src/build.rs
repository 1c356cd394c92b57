//! G-tree construction: hierarchy + per-node distance matrices.

use crate::scratch::GScratchPool;
use graph_partition::Hierarchy;
use indoor_graph::{DijkstraEngine, EnginePool};
use indoor_model::{IndoorPoint, Venue};
use std::sync::Arc;

pub(crate) const NO_HOP: u32 = u32::MAX;

/// Construction parameters.
#[derive(Debug, Clone)]
pub struct GTreeConfig {
    /// Children per interior node (the original paper's default is 4).
    pub fanout: usize,
    /// τ: maximum vertices per leaf ("experimentally choose the best value
    /// for the parameter τ", §4.1 — sweepable in the bench harness).
    pub tau: usize,
    pub seed: u64,
}

impl Default for GTreeConfig {
    fn default() -> Self {
        GTreeConfig {
            fanout: 4,
            tau: 64,
            seed: 0x61EE,
        }
    }
}

/// A node's distance matrix (same layout as the IP-tree's: leaves are
/// rectangular vertex × border, interior nodes square over the union of
/// children borders; `hop` stores the first intermediate matrix vertex on
/// the shortest path for path recovery, `NO_HOP` = none).
#[derive(Debug, Clone)]
pub(crate) struct GMatrix {
    pub rows: Vec<u32>,
    pub cols: Vec<u32>,
    pub dist: Box<[f64]>,
    pub hop: Box<[u32]>,
}

impl GMatrix {
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
    pub fn size_bytes(&self) -> usize {
        (self.rows.len() + self.cols.len()) * 4 + self.dist.len() * 8 + self.hop.len() * 4
    }
}

/// Per-leaf object table (an object is registered with every leaf that
/// contains at least one door of its partition; `dist` covers routes
/// through that leaf's doors only — the union over leaves is exact).
#[derive(Debug, Clone)]
pub(crate) struct LeafObjects {
    pub objs: Vec<u32>,
    /// border-major: `dist[b * objs.len() + j]`.
    pub dist: Vec<f64>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct GObjects {
    pub points: Vec<IndoorPoint>,
    pub leaf_tables: std::collections::HashMap<u32, LeafObjects>,
    pub subtree_count: Vec<u32>,
}

/// The assembled index.
pub struct GTree {
    pub(crate) venue: Arc<Venue>,
    pub(crate) h: Hierarchy,
    pub(crate) matrices: Vec<GMatrix>,
    /// Vertex is a border of its own leaf ("global border" — the analogue
    /// of the IP-tree's boundary doors).
    pub(crate) border_flag: Vec<bool>,
    /// Checkout pool instead of one mutexed engine: concurrent queries
    /// no longer serialise on leaf expansions.
    pub(crate) engines: EnginePool,
    pub(crate) scratch: GScratchPool,
    pub(crate) objects: Option<GObjects>,
    pub(crate) fallbacks: std::sync::atomic::AtomicU64,
}

impl GTree {
    pub fn build(venue: Arc<Venue>, config: &GTreeConfig) -> GTree {
        let g = venue.d2d();
        let h = Hierarchy::build(g, config.fanout, config.tau, config.seed);
        let mut engine = DijkstraEngine::new(g.num_vertices());

        let mut border_flag = vec![false; g.num_vertices()];
        for node in &h.nodes {
            if node.is_leaf() {
                for &b in &node.borders {
                    border_flag[b as usize] = true;
                }
            }
        }

        let mut matrices = Vec::with_capacity(h.nodes.len());
        for node in &h.nodes {
            let (rows, cols) = if node.is_leaf() {
                let mut rows = node.vertices.clone();
                rows.sort_unstable();
                (rows, node.borders.clone())
            } else {
                let mut b: Vec<u32> = node
                    .children
                    .iter()
                    .flat_map(|&c| h.nodes[c as usize].borders.iter().copied())
                    .collect();
                b.sort_unstable();
                b.dedup();
                (b.clone(), b)
            };
            matrices.push(build_matrix(
                g,
                &mut engine,
                &rows,
                &cols,
                node.is_leaf(),
                &border_flag,
            ));
        }

        drop(engine);
        let n_vertices = g.num_vertices();
        GTree {
            venue,
            h,
            matrices,
            border_flag,
            engines: EnginePool::new(n_vertices),
            scratch: GScratchPool::default(),
            objects: None,
            fallbacks: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Register objects (multi-leaf assignment; see `LeafObjects`).
    pub fn attach_objects(&mut self, objects: &[IndoorPoint]) {
        let venue = self.venue.clone();
        let mut tables: std::collections::HashMap<u32, Vec<u32>> = Default::default();
        for (i, o) in objects.iter().enumerate() {
            let mut leaves: Vec<u32> = venue
                .partition(o.partition)
                .doors
                .iter()
                .map(|d| self.h.leaf_of_vertex[d.index()])
                .collect();
            leaves.sort_unstable();
            leaves.dedup();
            for l in leaves {
                tables.entry(l).or_default().push(i as u32);
            }
        }
        let mut subtree_count = vec![0u32; self.h.nodes.len()];
        let mut leaf_tables = std::collections::HashMap::new();
        for (leaf, objs) in tables {
            for c in self.h.chain(leaf) {
                subtree_count[c as usize] += objs.len() as u32;
            }
            let m = &self.matrices[leaf as usize];
            let n = objs.len();
            let mut dist = vec![f64::INFINITY; m.cols.len() * n];
            for (j, &oid) in objs.iter().enumerate() {
                let o = &objects[oid as usize];
                for &d in &venue.partition(o.partition).doors {
                    let Some(row) = m.row_index(d.0) else {
                        continue; // door in another leaf: covered there
                    };
                    let exit = o.distance_to_door(&venue, d);
                    for (ci, _) in m.cols.iter().enumerate() {
                        let cand = m.at(row, ci) + exit;
                        let slot = &mut dist[ci * n + j];
                        if cand < *slot {
                            *slot = cand;
                        }
                    }
                }
            }
            leaf_tables.insert(leaf, LeafObjects { objs, dist });
        }
        self.objects = Some(GObjects {
            points: objects.to_vec(),
            leaf_tables,
            subtree_count,
        });
    }

    pub fn venue(&self) -> &Arc<Venue> {
        &self.venue
    }

    pub fn num_leaves(&self) -> usize {
        self.h.num_leaves()
    }

    pub fn decompose_fallback_count(&self) -> u64 {
        self.fallbacks.load(std::sync::atomic::Ordering::Relaxed)
    }

    pub fn size_bytes(&self) -> usize {
        self.h.size_bytes()
            + self.matrices.iter().map(GMatrix::size_bytes).sum::<usize>()
            + self.border_flag.len()
    }
}

/// Dijkstra from every column vertex over the **full** graph (global
/// distances), settling all row vertices; next-hops follow the same rules
/// as the IP-tree matrices (first row/"global border" vertex strictly
/// inside the path).
fn build_matrix(
    g: &indoor_graph::CsrGraph,
    engine: &mut DijkstraEngine,
    rows: &[u32],
    cols: &[u32],
    is_leaf: bool,
    border_flag: &[bool],
) -> GMatrix {
    let (nr, nc) = (rows.len(), cols.len());
    let mut dist = vec![f64::INFINITY; nr * nc].into_boxed_slice();
    let mut hop = vec![NO_HOP; nr * nc].into_boxed_slice();
    let mut chain: Vec<u32> = Vec::new();

    for (ci, &c) in cols.iter().enumerate() {
        engine.run(g, &[(c, 0.0)], rows);
        for (ri, &r) in rows.iter().enumerate() {
            if r == c {
                dist[ri * nc + ci] = 0.0;
                continue;
            }
            let Some(dd) = engine.settled_distance(r) else {
                continue;
            };
            dist[ri * nc + ci] = dd;

            engine.chain_into(r, &mut chain);
            if chain.len() <= 2 {
                continue; // direct edge
            }
            let inner = &chain[1..chain.len() - 1];
            hop[ri * nc + ci] = if is_leaf {
                let c1 = chain[1];
                if rows.binary_search(&c1).is_ok() {
                    c1
                } else {
                    inner
                        .iter()
                        .copied()
                        .find(|&v| border_flag[v as usize])
                        .unwrap_or(c1)
                }
            } else {
                // Interior: first matrix vertex strictly inside the path.
                inner
                    .iter()
                    .copied()
                    .find(|&v| rows.binary_search(&v).is_ok())
                    .unwrap_or(NO_HOP)
            };
        }
    }

    GMatrix {
        rows: rows.to_vec(),
        cols: cols.to_vec(),
        dist,
        hop,
    }
}
