//! Per-leaf door-to-door distance grid: the SoA slab that replaces the
//! per-query D2D expansion of same-leaf scans (DESIGN.md §14.4).
//!
//! `scan_leaf` used to answer "exact distance from `q` to every object in
//! q's own leaf" with a full-graph Dijkstra per query — which profiling
//! shows dominating kNN/range latency on every benchmark preset (the
//! branch-and-bound walk itself is under a microsecond once the slabs are
//! in place). The grid precomputes, per leaf, the full `n × n` matrix of
//! **global** shortest distances between the leaf's doors, so the query
//! path collapses to one seed × row fold.
//!
//! Exactness (the boundary decomposition): a shortest path between two
//! doors `s, t` of the same leaf either stays inside the leaf's
//! partitions, or crosses the leaf boundary. Boundary crossings happen
//! only at access doors — a door adjacent to any outside partition *is*
//! an access door by construction (`build::leaf_protos`) — so splitting a
//! crossing path at the **last** access door `a` it visits leaves a
//! suffix that never re-enters an outside partition (re-entry would pass
//! another access door after `a`). Hence
//!
//! ```text
//! d(s, t) = min( d_intra(s, t),  min over access doors a of
//!                                M(s, a) + M(t, a) )
//! ```
//!
//! where `d_intra` is Dijkstra over the leaf-local subgraph (the same
//! per-partition door cliques the venue's D2D builder emits, restricted
//! to the leaf's partitions) and `M` is the leaf's distance matrix —
//! already global by construction (`matrices::build_leaf_matrix`). Both
//! ingredients exist at build time, so the grid costs no extra
//! full-graph work.
//!
//! Layout mirrors [`crate::slabs::Slabs`]: per leaf one f64 slab with
//! 64-byte-aligned rows, a stride, and `+inf` padding lanes. Grid values
//! may differ from a per-query Dijkstra in final-bit rounding (the same
//! edge weights are summed in a different association order); every
//! own-leaf scan reads the grid, so answers are a function of the grid
//! alone.

use crate::slabs::ROW_ALIGN;
use crate::tree::{IpTree, Node, NodeIdx};
use indoor_graph::parallel::par_map;
use indoor_graph::{DijkstraEngine, GraphBuilder, Termination};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One leaf's built grid: a 64-byte-row-aligned slab of `n × n` global
/// door distances (`base` indexes the first aligned element).
#[derive(Debug)]
struct LeafSlab {
    data: Vec<f64>,
    base: usize,
}

/// Per-leaf global door-to-door distance slabs (leaves only; inner nodes
/// keep empty extents).
///
/// Grids build **lazily**: construction records only the per-leaf shape
/// (stride, door count); the `n × n` distance slab of a leaf is computed
/// by [`LeafGrid::ensure`] on its first own-leaf scan. Queries never
/// touch leaves nobody's query point lands in, so cold venues skip the
/// dominant share of grid build work — at the cost of one first-touch
/// build on the query path (attributed to the leaf-fold phase by the
/// telemetry trace, and counted by [`LeafGrid::builds`]). Built rows are
/// bit-identical to an eager build: both call [`leaf_rows`], whose
/// Dijkstra + detour fold is deterministic per leaf
/// (`tests/slab_layout.rs` pins this).
#[derive(Debug)]
pub struct LeafGrid {
    /// Per node: the built slab, if any. [`OnceLock`] makes first-touch
    /// builds race-free under `&self` — concurrent scanners of one leaf
    /// block on a single build.
    slabs: Vec<OnceLock<LeafSlab>>,
    /// Per node: row stride (doors rounded up to [`ROW_ALIGN`]) and door
    /// count. Zero extent for non-leaves.
    stride: Vec<u32>,
    n_doors: Vec<u32>,
    pub(crate) n_leaves: usize,
    /// Leaf grids built so far (lazy or forced) — the telemetry counter
    /// behind `indoor_leaf_grid_builds_total`.
    builds: AtomicU64,
}

impl LeafGrid {
    /// Lay out (but do not build) grids for the `n_leaves` leaf nodes at
    /// the front of the node arena.
    pub(crate) fn new(nodes: &[Node], n_leaves: usize) -> LeafGrid {
        let mut stride = Vec::with_capacity(nodes.len());
        let mut n_doors = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let n = if i < n_leaves { node.doors.len() } else { 0 };
            stride.push((n.div_ceil(ROW_ALIGN) * ROW_ALIGN) as u32);
            n_doors.push(n as u32);
        }
        LeafGrid {
            slabs: (0..nodes.len()).map(|_| OnceLock::new()).collect(),
            stride,
            n_doors,
            n_leaves,
            builds: AtomicU64::new(0),
        }
    }

    /// Build leaf `l`'s grid if it hasn't been built yet (the first-touch
    /// path of the own-leaf scan). Concurrent callers for one leaf do the
    /// work once.
    pub(crate) fn ensure(&self, tree: &IpTree, l: NodeIdx) {
        let i = l as usize;
        self.slabs[i].get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            let n = self.n_doors[i] as usize;
            let s = self.stride[i] as usize;
            let rows = leaf_rows(tree, l);
            let mut data = vec![f64::INFINITY; n * s + ROW_ALIGN];
            let base = {
                let addr = data.as_ptr() as usize;
                (64 - addr % 64) % 64 / std::mem::size_of::<f64>()
            };
            for r in 0..n {
                data[base + r * s..base + r * s + n].copy_from_slice(&rows[r * n..(r + 1) * n]);
            }
            LeafSlab { data, base }
        });
    }

    /// Build every leaf grid now, fanned over the worker pool — the eager
    /// mode audits and the lazy-vs-eager test compare against.
    pub(crate) fn force_build(&self, tree: &IpTree) {
        let leaf_idxs: Vec<u32> = (0..self.n_leaves as u32).collect();
        par_map(&leaf_idxs, tree.config.threads, |_, &li| {
            self.ensure(tree, li);
        });
    }

    /// Leaf grids built so far (lazily or via [`LeafGrid::force_build`]).
    pub(crate) fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Row `s` of leaf `l`'s grid: global distances from the leaf's
    /// door ordinal `s` to every leaf door, in `node.doors` order.
    /// The leaf's grid must have been built ([`LeafGrid::ensure`]).
    #[inline]
    pub(crate) fn row(&self, l: NodeIdx, s: usize) -> &[f64] {
        let i = l as usize;
        let n = self.n_doors[i] as usize;
        debug_assert!(s < n, "row {s} of leaf {l} with {n} doors");
        let slab = self.slabs[i]
            .get()
            .expect("leaf grid row read before ensure()");
        let start = slab.base + s * self.stride[i] as usize;
        debug_assert_eq!(
            (slab.data[start..].as_ptr() as usize) % 64,
            0,
            "leaf {l} grid row {s} misaligned"
        );
        &slab.data[start..start + n]
    }

    /// Arena footprint in bytes (built slabs only — lazily deferred grids
    /// cost nothing until first touch).
    pub(crate) fn size_bytes(&self) -> usize {
        let built: usize = self
            .slabs
            .iter()
            .filter_map(|s| s.get())
            .map(|s| s.data.len() * 8)
            .sum();
        built + self.stride.len() * 4 + self.n_doors.len() * 4
    }

    /// Structural + semantic re-verification: every row 64-byte-aligned
    /// (`row` asserts it), diagonals exactly zero, every entry admissible
    /// against the access-door detour bound, and symmetric to within
    /// rounding. Every leaf grid must have been built.
    pub(crate) fn audit(&self, tree: &IpTree) {
        for (i, node) in tree.nodes.iter().enumerate() {
            let n = self.n_doors[i] as usize;
            if n == 0 {
                continue;
            }
            assert!(node.is_leaf(), "grid extent on inner node {i}");
            assert_eq!(n, node.doors.len(), "leaf {i} grid width");
            for s in 0..n {
                let row = self.row(i as NodeIdx, s);
                let ms = tree.slabs.row(i as NodeIdx, s);
                assert_eq!(row[s].to_bits(), 0.0_f64.to_bits(), "leaf {i} diagonal {s}");
                for (t, &v) in row.iter().enumerate() {
                    assert!(v >= 0.0, "leaf {i} grid ({s},{t}) negative: {v}");
                    // Never worse than any access-door detour...
                    let mt = tree.slabs.row(i as NodeIdx, t);
                    for (&sa, &ta) in ms.iter().zip(mt) {
                        let detour = sa + ta;
                        assert!(
                            v <= detour || (v - detour).abs() <= 1e-9 * detour.max(1.0),
                            "leaf {i} grid ({s},{t}) {v} exceeds detour {detour}"
                        );
                    }
                    // ...and symmetric up to summation order.
                    let back = self.row(i as NodeIdx, t)[s];
                    assert!(
                        (v - back).abs() <= 1e-9 * v.max(1.0)
                            || (v.is_infinite() && back.is_infinite()),
                        "leaf {i} grid asymmetry ({s},{t}): {v} vs {back}"
                    );
                }
            }
        }
    }
}

/// The row-major `n × n` global distance table of one leaf (see the
/// module docs for the decomposition argument).
fn leaf_rows(tree: &IpTree, leaf: NodeIdx) -> Vec<f64> {
    let venue = &*tree.venue;
    let node = tree.node(leaf);
    let doors = &node.doors;
    let n = doors.len();

    // Leaf-local subgraph: the venue D2D builder's per-partition door
    // cliques, restricted to this leaf's partitions, with identical
    // weights.
    let mut gb = GraphBuilder::new(n);
    for &p in &node.partitions {
        let part = venue.partition(p);
        for (i, &da) in part.doors.iter().enumerate() {
            let oa = doors
                .binary_search(&da)
                .expect("partition door is a leaf door");
            for &db in &part.doors[i + 1..] {
                let ob = doors
                    .binary_search(&db)
                    .expect("partition door is a leaf door");
                let w = part.traversal_distance(&venue.door(da).position, &venue.door(db).position);
                gb.add_edge(oa as u32, ob as u32, w);
            }
        }
    }
    let graph = gb.build();
    let mut engine = DijkstraEngine::new(n);
    let all: Vec<u32> = (0..n as u32).collect();
    // The leaf's matrix: one row per leaf door, one column per access door.
    let m: Vec<&[f64]> = (0..n).map(|d| tree.slabs.row(leaf, d)).collect();

    let mut out = vec![f64::INFINITY; n * n];
    for s in 0..n {
        engine.run(&graph, &[(s as u32, 0.0)], Termination::SettleAll(&all));
        let row = &mut out[s * n..(s + 1) * n];
        for (t, slot) in row.iter_mut().enumerate() {
            if t == s {
                *slot = 0.0;
                continue;
            }
            if let Some(d) = engine.settled_distance(t as u32) {
                *slot = d;
            }
        }
        // Fold in the access-door detours; together with the intra pass
        // this is the exact global distance.
        for (t, slot) in row.iter_mut().enumerate() {
            let mut best = *slot;
            for (&sa, &ta) in m[s].iter().zip(m[t]) {
                let cand = sa + ta;
                if cand < best {
                    best = cand;
                }
            }
            *slot = best;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::tree::VipTreeConfig;
    use crate::IpTree;
    use indoor_graph::{DijkstraEngine, Termination};
    use indoor_synth::random_venue;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The grid equals ground-truth full-graph Dijkstra between every
    /// pair of leaf doors, up to summation-order rounding.
    #[test]
    fn grid_matches_global_dijkstra_on_random_venues() {
        for seed in [0u64, 7, 1234, 4096] {
            check_grid(seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn grid_matches_global_dijkstra(seed in 0u64..2_000) {
            check_grid(seed);
        }
    }

    fn check_grid(seed: u64) {
        let venue = Arc::new(random_venue(seed));
        let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
        tree.build_leaf_grid(); // grids are lazy; force them for direct row reads
        assert_eq!(
            tree.leaf_grid_builds(),
            tree.num_leaves() as u64,
            "forced build counts every leaf once"
        );
        let mut engine = DijkstraEngine::new(venue.num_doors());
        for (li, node) in tree.nodes.iter().enumerate() {
            if !node.is_leaf() {
                continue;
            }
            let targets: Vec<u32> = node.doors.iter().map(|d| d.0).collect();
            for (s, &sd) in node.doors.iter().enumerate() {
                engine.run(
                    venue.d2d(),
                    &[(sd.0, 0.0)],
                    Termination::SettleAll(&targets),
                );
                let row = tree.leaf_grid.row(li as u32, s);
                for (t, &td) in node.doors.iter().enumerate() {
                    let want = if t == s {
                        0.0
                    } else {
                        engine.settled_distance(td.0).unwrap_or(f64::INFINITY)
                    };
                    let got = row[t];
                    assert!(
                        (got - want).abs() <= 1e-9 * want.max(1.0)
                            || (got.is_infinite() && want.is_infinite()),
                        "seed {seed} leaf {li} ({s},{t}): grid {got} vs dijkstra {want}"
                    );
                }
            }
        }
    }
}
