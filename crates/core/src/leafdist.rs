//! Leaf-local distances: the build's leaf passes (§2.1.2 step 3,
//! DESIGN.md §1) and the per-leaf door-to-door grid, the packed table
//! that replaces the per-query D2D expansion of same-leaf scans
//! (DESIGN.md §14.4). All of them start from [`leaf_graph`].
//!
//! The grid precomputes, per leaf, the `n × n` table of **global**
//! shortest distances between the leaf's doors, so `scan_leaf` answers
//! "exact distance from `q` to every object in q's own leaf" with a seed
//! × cell fold at each door the leaf's objects use, where it used to run
//! a full-graph Dijkstra per query, the dominant kNN/range cost.
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
//! where `d_intra` is the distance over the leaf-local subgraph (the same
//! per-partition door cliques the venue's D2D builder emits, restricted
//! to the leaf's partitions) and `M` is the leaf's distance matrix —
//! global by the top-down fold ([`fold_leaf_matrix`]). Both ingredients
//! exist at build time, so the grid costs no full-graph work.
//!
//! Build: one min-plus closure ([`close`]) of the leaf graph's arcs and
//! the stored `M(a, b)` of every access-door pair — the formula above,
//! as each outside stretch of a crossing path joins two access doors.
//!
//! Layout: one packed lower triangle per leaf of `u32` tick counts
//! ([`crate::ticks`]); [`cell`] reads `T(s, t)` at `m(m+1)/2 + min(s, t)`
//! with `m = max(s, t)`. Every length is a whole number of ticks
//! (DESIGN.md §16), so every sum is exact: `T(s, t)` is the full-graph
//! Dijkstra distance bit for bit, in either direction.

use crate::matrices::{leaf_next_hop, LevelGraph};
use crate::ticks;
use crate::tree::{DistMatrix, IpTree, NodeIdx, NO_DOOR, NO_NODE};
use indoor_graph::parallel::par_map;
use indoor_graph::{CsrGraph, DijkstraEngine, GraphBuilder};
use indoor_model::{DoorId, PartitionId, Venue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Per-leaf global door-to-door distance triangles (leaves lead the node
/// arena, so leaf `l` owns slot `l`).
///
/// Grids build **lazily**: the triangle of a leaf is computed by
/// [`LeafGrid::ensure`] on its first own-leaf scan. Queries never touch
/// leaves nobody's query point lands in, so cold venues skip the
/// dominant share of grid build work — at the cost of one first-touch
/// build on the query path (attributed to the leaf-fold phase by the
/// telemetry trace, and counted by [`LeafGrid::builds`]). Built triangles
/// are bit-identical to an eager build: both call [`leaf_triangle`],
/// whose integer closure is deterministic per leaf
/// (`tests/slab_layout.rs` pins this).
#[derive(Debug)]
pub struct LeafGrid {
    /// Per leaf: the built triangle, if any. [`OnceLock`] makes
    /// first-touch builds race-free under `&self` — concurrent scanners
    /// of one leaf block on a single build.
    grids: Vec<OnceLock<Box<[u32]>>>,
    /// Leaf grids built so far (lazy or forced) — the telemetry counter
    /// behind `indoor_leaf_grid_builds_total`.
    builds: AtomicU64,
}

/// The index of `(s, t)` (either order) in a packed lower triangle.
#[inline]
fn at(s: usize, t: usize) -> usize {
    let hi = s.max(t);
    hi * (hi + 1) / 2 + s.min(t)
}

/// `T(s, t)` (either order) from one leaf's packed triangle, in ticks.
#[inline]
pub(crate) fn cell(tri: &[u32], s: usize, t: usize) -> u32 {
    tri[at(s, t)]
}

impl LeafGrid {
    /// Empty (unbuilt) grids for the `n_leaves` leaf nodes at the front of
    /// the node arena.
    pub(crate) fn new(n_leaves: usize) -> LeafGrid {
        LeafGrid {
            grids: (0..n_leaves).map(|_| OnceLock::new()).collect(),
            builds: AtomicU64::new(0),
        }
    }

    /// Leaf `l`'s packed triangle, built on first call (the first-touch
    /// path of the own-leaf scan). Concurrent callers for one leaf do the
    /// work once.
    pub(crate) fn ensure(&self, tree: &IpTree, l: NodeIdx) -> &[u32] {
        self.grids[l as usize].get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            leaf_triangle(tree, l)
        })
    }

    /// Build every leaf grid now, fanned over the worker pool — the eager
    /// mode audits and the lazy-vs-eager test compare against.
    pub(crate) fn force_build(&self, tree: &IpTree) {
        let leaf_idxs: Vec<u32> = (0..tree.num_leaves() as u32).collect();
        par_map(&leaf_idxs, tree.config.threads, |_, &li| {
            self.ensure(tree, li);
        });
    }

    /// Leaf grids built so far (lazily or via [`LeafGrid::force_build`]).
    pub(crate) fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Bytes held: every built triangle plus one `OnceLock` slot per leaf
    /// (lazily deferred triangles cost only their slot).
    pub(crate) fn size_bytes(&self) -> usize {
        self.grids
            .iter()
            .filter_map(OnceLock::get)
            .map(|tri| tri.len() * 4)
            .sum::<usize>()
            + self.grids.len() * std::mem::size_of::<OnceLock<Box<[u32]>>>()
    }

    /// Semantic re-verification of every leaf triangle (building any not
    /// yet built): one cell per door pair, diagonals exactly zero, and
    /// every entry at most its leaf-graph arcs and its access-door
    /// detours, bit for bit.
    pub(crate) fn audit(&self, tree: &IpTree) {
        assert_eq!(self.grids.len(), tree.num_leaves(), "grid slots");
        for l in 0..tree.num_leaves() as NodeIdx {
            let (doors, rows) = (tree.leaf_doors(l), |s| tree.slabs.row(l, s).iter());
            let (n, tri) = (doors.len(), self.ensure(tree, l));
            assert_eq!(tri.len(), n * (n + 1) / 2, "leaf {l} size");
            let graph = leaf_graph(&tree.venue, tree.leaf_partitions(l), doors);
            for s in 0..n {
                assert_eq!(cell(tri, s, s), 0, "leaf {l} diagonal {s}");
                let arcs = graph.neighbors(s as u32);
                let arcs = arcs.map(|(t, w)| (t as usize, u64::from(ticks::encode(w))));
                let detours = (0..s).flat_map(|t| {
                    let sum = move |(&a, &b): (&u32, &u32)| (t, u64::from(a) + u64::from(b));
                    rows(s).zip(rows(t)).map(sum)
                });
                for (t, bound) in arcs.chain(detours) {
                    let v = u64::from(cell(tri, s, t));
                    assert!(v <= bound, "leaf {l} ({s},{t}) {v} > {bound}");
                }
            }
        }
    }
}

/// The D2D subgraph a leaf's doors induce through `partitions`: the venue
/// D2D builder's per-partition door cliques, restricted to the doors in
/// `doors`, with identical weights. Vertex `i` is `doors[i]` (`doors`
/// sorted), so vertex order is door-id order. Over the leaf's own
/// partitions this is the leaf-local graph.
pub(crate) fn leaf_graph(venue: &Venue, partitions: &[PartitionId], doors: &[DoorId]) -> CsrGraph {
    let mut gb = GraphBuilder::new(doors.len());
    let mut here: Vec<(u32, DoorId)> = Vec::new();
    for &p in partitions {
        let part = venue.partition(p);
        here.clear();
        here.extend(
            part.doors
                .iter()
                .filter_map(|&d| Some((doors.binary_search(&d).ok()? as u32, d))),
        );
        for (i, &(oa, da)) in here.iter().enumerate() {
            for &(ob, db) in &here[i + 1..] {
                let w = part.traversal_distance(&venue.door(da).position, &venue.door(db).position);
                gb.add_edge(oa, ob, w);
            }
        }
    }
    gb.build()
}

/// Step 3a for one leaf: one leaf-local Dijkstra per access door. Entry
/// `(d, u)` is `local(d, u)` (from `u`'s search), `G_2`'s base case; its
/// next hop is the door after `d` on that search's path to `u` (NULL at
/// `u`), which expands a `G_2` edge into its doors.
pub(crate) fn leaf_local(
    venue: &Venue,
    partitions: &[PartitionId],
    doors: &[DoorId],
    access: &[DoorId],
) -> DistMatrix {
    let (n, m) = (doors.len(), access.len());
    let (rows, cols) = (doors.to_vec(), access.to_vec());
    let mut dist = vec![f64::INFINITY; n * m].into_boxed_slice();
    let mut next_hop = vec![NO_DOOR; n * m].into_boxed_slice();
    let graph = leaf_graph(venue, partitions, doors);
    let mut engine = DijkstraEngine::new(n);
    for (col, a) in access.iter().enumerate() {
        let src = doors.binary_search(a).expect("access door is a leaf door");
        engine.run(&graph, &[(src as u32, 0.0)], &[]);
        for row in (0..n).filter(|&row| row != src) {
            if let Some(d) = engine.settled_distance(row as u32) {
                dist[row * m + col] = d;
                next_hop[row * m + col] = doors[engine.parent(row as u32).unwrap() as usize].0;
            }
        }
        dist[src * m + col] = 0.0;
    }
    DistMatrix {
        rows,
        cols,
        dist,
        next_hop,
    }
}

/// What the step-3c fold reads besides its leaf: every leaf's local
/// matrix, the door → leaves map, the boundary flags, and `G_2` (`None`
/// when the root is a leaf: then local is already global).
pub(crate) struct FoldInputs<'a> {
    pub venue: &'a Venue,
    pub locals: &'a [DistMatrix],
    pub door_leaves: &'a [[NodeIdx; 2]],
    pub boundary: &'a [bool],
    pub g2: Option<&'a LevelGraph>,
}

impl FoldInputs<'_> {
    /// The leaf whose local clique gave the `G_2` edge `x – y` its weight
    /// (the lighter one when two leaves share the pair).
    fn edge_leaf(&self, x: DoorId, y: DoorId) -> usize {
        let weight = |l: NodeIdx| self.locals[l as usize].lookup_dist(x.min(y), x.max(y));
        let shared = self.door_leaves[x.index()]
            .into_iter()
            .filter(|&l| l != NO_NODE && self.door_leaves[y.index()].contains(&l));
        let (leaf, _) = shared
            .filter_map(|l| Some((l as usize, weight(l)?)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("a G_2 edge comes from a leaf clique");
        leaf
    }

    /// Append the doors after `x` on the `G_2` edge `x → y`: the local
    /// path of [`Self::edge_leaf`].
    fn expand_edge(&self, x: DoorId, y: DoorId, out: &mut Vec<u32>) {
        let m = &self.locals[self.edge_leaf(x, y)];
        let col = m.cols.binary_search(&y).unwrap();
        let mut door = x;
        while door != y {
            door = DoorId(m.next_hop[m.rows.binary_search(&door).unwrap() * m.cols.len() + col]);
            out.push(door.0);
        }
    }
}

/// Step 3c for leaf `li`: its global matrix, and its partitions' superior
/// doors (Definition 2) in `partitions` order. `g2_engine` searches `G_2`.
///
/// Per access door `a`, the `G_2` search from `a` — the parent's build
/// ran the same one for its column `a`, so its labels are `P(·, a)` — is
/// stopped at the leaf's access doors, and one Dijkstra over the leaf's
/// doors seeded with those labels evaluates `M(d, a) = min over access
/// doors u of local(d, u) + P(u, a)`. The leaf graph also carries the
/// outside partitions' edges among the leaf's own doors, and an access
/// door whose `G_2` route leaves through the leaf's own clique is reached
/// from inside rather than seeded: labels, settle order and parents are
/// then those of a full-graph search from `a`, bit for bit. A door's path
/// is its chain to the seed it was reached from, then that seed's `G_2`
/// route with each edge expanded; the next hop (§2.1.1) and the
/// superior-door evidence are read off it.
pub(crate) fn fold_leaf_matrix(
    inp: &FoldInputs<'_>,
    g2_engine: &mut Option<DijkstraEngine>,
    li: usize,
    partitions: &[PartitionId],
) -> (DistMatrix, Vec<Vec<DoorId>>) {
    let (doors, access) = (&inp.locals[li].rows, &inp.locals[li].cols);
    let (n, m) = (doors.len(), access.len());
    let row_of = |d: &DoorId| doors.binary_search(d).unwrap();
    let mut dist = vec![f64::INFINITY; n * m].into_boxed_slice();
    let mut next_hop = vec![NO_DOOR; n * m].into_boxed_slice();
    let mut touched: Vec<PartitionId> = access
        .iter()
        .flat_map(|&u| inp.venue.door(u).partition_ids())
        .chain(partitions.iter().copied())
        .collect();
    touched.sort_unstable();
    touched.dedup();
    let graph = leaf_graph(inp.venue, &touched, doors);
    let mut engine = DijkstraEngine::new(n);
    // Local access doors are superior by definition.
    let mut hits: Vec<Vec<bool>> = partitions
        .iter()
        .map(|p| {
            let pdoors = &inp.venue.partition(*p).doors;
            pdoors
                .iter()
                .map(|d| access.binary_search(d).is_ok())
                .collect()
        })
        .collect();
    let (mut seeds, mut chain) = (Vec::with_capacity(m), Vec::new());
    let mut routes: Vec<Vec<u32>> = vec![Vec::new(); n];
    let verts: Vec<u32> = match inp.g2 {
        Some(g2) => access.iter().map(|u| g2.door_vertex[u.index()]).collect(),
        None => Vec::new(),
    };

    for (col, &a) in access.iter().enumerate() {
        seeds.clear();
        match (inp.g2, g2_engine.as_mut()) {
            (Some(g2), Some(up)) => {
                up.run(&g2.graph, &[(verts[col], 0.0)], &verts);
                for (u, &v) in access.iter().zip(&verts) {
                    let Some(d) = up.settled_distance(v) else {
                        continue; // unreachable: never seeded
                    };
                    up.chain_into(v, &mut chain);
                    let door = |i: usize| g2.vertex_door[chain[i] as usize];
                    // Seed the doors whose route leaves through another
                    // leaf's clique; the others are reached from inside.
                    if *u == a || inp.edge_leaf(door(0), door(1)) != li {
                        seeds.push((row_of(u) as u32, d));
                        let out = &mut routes[row_of(u)];
                        out.clear();
                        for i in 1..chain.len() {
                            inp.expand_edge(door(i - 1), door(i), out);
                        }
                    }
                }
            }
            _ => seeds.push((row_of(&a) as u32, 0.0)),
        }
        engine.run(&graph, &seeds, &[]);
        let path = |row: usize, chain: &mut Vec<u32>| {
            engine.chain_into(row as u32, chain);
            let seed = *chain.last().unwrap() as usize;
            chain.iter_mut().for_each(|v| *v = doors[*v as usize].0);
            chain.extend_from_slice(&routes[seed]);
        };

        for row in 0..n {
            let Some(d) = engine.settled_distance(row as u32) else {
                continue; // unreachable: stays infinite
            };
            dist[row * m + col] = d;
            if doors[row] != a {
                path(row, &mut chain);
                next_hop[row * m + col] = leaf_next_hop(&chain, doors, inp.boundary);
            }
        }

        // Door di of partition P is superior if its path to a (a global
        // access door for P) passes through no other door of P.
        for (pi, &p) in partitions.iter().enumerate() {
            let pdoors = &inp.venue.partition(p).doors;
            if pdoors.binary_search(&a).is_ok() {
                continue; // a is local to P, not a global access door
            }
            for (i, di) in pdoors.iter().enumerate() {
                let row = row_of(di);
                if hits[pi][i] || engine.settled_distance(row as u32).is_none() {
                    continue;
                }
                path(row, &mut chain);
                hits[pi][i] = chain[1..chain.len() - 1]
                    .iter()
                    .all(|&v| pdoors.binary_search(&DoorId(v)).is_err());
            }
        }
    }

    // A partition always needs at least one candidate exit.
    let superior = partitions.iter().zip(hits).map(|(&p, hits)| {
        let pdoors = &inp.venue.partition(p).doors;
        let sup: Vec<DoorId> = pdoors
            .iter()
            .zip(hits)
            .filter(|e| e.1)
            .map(|e| *e.0)
            .collect();
        if sup.is_empty() {
            pdoors.clone()
        } else {
            sup
        }
    });
    let (rows, cols) = (doors.clone(), access.clone());
    (
        DistMatrix {
            rows,
            cols,
            dist,
            next_hop,
        },
        superior.collect(),
    )
}

/// One leaf's packed triangle: the closure of its leaf graph's arcs and
/// every access-door pair's `M(a, b)` (see the module docs).
fn leaf_triangle(tree: &IpTree, leaf: NodeIdx) -> Box<[u32]> {
    let doors = tree.leaf_doors(leaf);
    let (n, ord) = (doors.len(), |d: &DoorId| doors.binary_search(d).unwrap());
    let mut tri = vec![ticks::INF; n * (n + 1) / 2];
    let mut arc = |s: usize, t: usize, w: u32| tri[at(s, t)] = tri[at(s, t)].min(w);
    let graph = leaf_graph(&tree.venue, tree.leaf_partitions(leaf), doors);
    for s in 0..n {
        for (t, w) in graph.neighbors(s as u32) {
            arc(s, t as usize, ticks::encode(w));
        }
    }
    let access = tree.access_doors(leaf);
    for a in access.iter().map(ord) {
        let row = tree.slabs.row(leaf, a);
        access.iter().zip(row).for_each(|(b, &m)| arc(a, ord(b), m));
    }
    close(&mut tri, n);
    tri.into_boxed_slice()
}

/// Floyd–Warshall in place on `tri`, a symmetric `n × n` matrix of arc
/// ticks ([`ticks::INF`] for none) packed as [`cell`] reads it. Pivot `k`
/// copies its row and, by symmetry, reads `d(i, k)` from the copy. The ∞
/// is [`ticks::LIMIT`], so no sum wraps (DESIGN.md §16): cells stay at
/// most `LIMIT`, and rows with `d(i, k) = LIMIT` are skipped. It computes
/// `min(d, LIMIT)` exactly, and stores `LIMIT` as ∞.
fn close(tri: &mut [u32], n: usize) {
    tri.iter_mut().for_each(|c| *c = (*c).min(ticks::LIMIT));
    (0..n).for_each(|i| tri[at(i, i)] = 0);
    let mut pivot = Vec::with_capacity(n);
    for k in 0..n {
        pivot.clear();
        pivot.extend((0..n).map(|j| tri[at(k, j)]));
        for (i, &dik) in pivot.iter().enumerate().filter(|p| *p.1 < ticks::LIMIT) {
            let row = &mut tri[at(i, 0)..=at(i, i)];
            for (x, &y) in row.iter_mut().zip(&pivot) {
                *x = (*x).min(dik + y);
            }
        }
    }
    tri.iter_mut()
        .filter(|c| **c == ticks::LIMIT)
        .for_each(|c| *c = ticks::INF);
}

#[cfg(test)]
mod tests {
    use super::{at, cell, close};
    use crate::ticks;
    use crate::tree::VipTreeConfig;
    use crate::IpTree;
    use indoor_graph::DijkstraEngine;
    use indoor_model::{IndoorPoint, Venue};
    use indoor_synth::random_venue;
    use proptest::prelude::*;
    use std::sync::{Arc, OnceLock};

    /// `T(s, t)` (either order) from one leaf's packed triangle, in metres.
    fn get(tri: &[u32], s: usize, t: usize) -> f64 {
        ticks::decode(cell(tri, s, t))
    }

    /// The grid equals ground-truth full-graph Dijkstra between every
    /// pair of leaf doors, in both argument orders, bit for bit.
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

    /// The same check on every leaf of the Men-2 and CL-lite presets,
    /// whose largest leaves (n = 329–333 on CL-lite) the random venues do
    /// not reach. Ignored in the debug suite; CI runs it in release with
    /// `--ignored`.
    #[test]
    #[ignore]
    fn preset_grids_match_global_dijkstra() {
        use indoor_synth::presets;
        for (name, spec) in [
            ("Men-2", presets::menzies_2()),
            ("CL-lite", presets::clayton_lite()),
        ] {
            check_grid_on(Arc::new(spec.build()), name);
        }
    }

    fn check_grid(seed: u64) {
        check_grid_on(Arc::new(random_venue(seed)), &format!("seed {seed}"));
    }

    fn check_grid_on(venue: Arc<Venue>, label: &str) {
        let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
        tree.build_leaf_grid(); // grids are lazy; force them for direct reads
        assert_eq!(
            tree.leaf_grid_builds(),
            tree.num_leaves() as u64,
            "forced build counts every leaf once"
        );
        let mut engine = DijkstraEngine::new(venue.num_doors());
        for li in 0..tree.num_leaves() as u32 {
            let doors = tree.leaf_doors(li);
            let tri = tree.leaf_grid.ensure(&tree, li);
            let targets: Vec<u32> = doors.iter().map(|d| d.0).collect();
            for (s, &sd) in doors.iter().enumerate() {
                engine.run(venue.d2d(), &[(sd.0, 0.0)], &targets);
                for (t, &td) in doors.iter().enumerate() {
                    let want = if t == s {
                        0.0
                    } else {
                        engine.settled_distance(td.0).unwrap_or(f64::INFINITY)
                    };
                    for got in [get(tri, s, t), get(tri, t, s)] {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{label} leaf {li} ({s},{t}): grid {got} vs dijkstra {want}"
                        );
                    }
                }
            }
        }
    }

    /// Pack `arcs` (`(s, t, ticks)`, either direction) into a triangle
    /// and close it.
    fn closed(n: usize, arcs: &[(usize, usize, u32)]) -> Vec<u32> {
        let mut tri = vec![ticks::INF; n * (n + 1) / 2];
        for &(s, t, w) in arcs {
            tri[at(s, t)] = tri[at(s, t)].min(w);
        }
        close(&mut tri, n);
        tri
    }

    /// Doors 0–1 and 2–3 are linked inside the leaf; 1 and 2 are access
    /// doors `M(1, 2) = 100` apart outside it; door 4 reaches nothing.
    #[test]
    fn closure_takes_detours_and_keeps_unreachable_pairs_infinite() {
        let tri = closed(5, &[(0, 1, 5), (2, 3, 7), (1, 2, 100), (0, 1, 9)]);
        assert_eq!(tri.len(), 15);
        let want = [
            [0, 5, 105, 112],
            [5, 0, 100, 107],
            [105, 100, 0, 7],
            [112, 107, 7, 0],
        ];
        for (s, row) in want.iter().enumerate() {
            for (t, &w) in row.iter().enumerate() {
                assert_eq!(cell(&tri, s, t), w, "({s},{t})");
            }
            assert_eq!(cell(&tri, s, 4), ticks::INF, "({s},4)");
        }
        assert_eq!(cell(&tri, 4, 4), 0);
    }

    /// No sum wraps: the largest storable length survives, a path that
    /// reaches `LIMIT` reads ∞, and the largest arc beside an ∞ stays ∞.
    #[test]
    fn closure_sums_do_not_wrap_near_the_limit() {
        let (half, top) = (ticks::LIMIT / 2, ticks::LIMIT - 1);
        let tri = closed(3, &[(0, 1, top)]);
        assert_eq!(
            [cell(&tri, 0, 1), cell(&tri, 0, 2), cell(&tri, 1, 2)],
            [top, ticks::INF, ticks::INF]
        );
        let tri = closed(3, &[(0, 1, half), (1, 2, half - 1)]);
        assert_eq!(cell(&tri, 0, 2), top);
        let tri = closed(3, &[(0, 1, half), (1, 2, half)]);
        assert_eq!(cell(&tri, 0, 2), ticks::INF);
        let tri = closed(4, &[(0, 1, top), (1, 2, top), (2, 3, 1)]);
        assert_eq!(
            [cell(&tri, 0, 1), cell(&tri, 1, 2), cell(&tri, 2, 3)],
            [top, top, 1]
        );
        for (s, t) in [(0, 2), (0, 3), (1, 3)] {
            assert_eq!(cell(&tri, s, t), ticks::INF, "({s},{t})");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The closure equals repeated relaxation in `u64` on random
        /// symmetric matrices, with some arcs absent or near `LIMIT`.
        #[test]
        fn closure_matches_relaxation(seed in 0u64..1_000_000) {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let n = (next() % 12) as usize + 1;
            let arcs: Vec<(usize, usize, u32)> = (0..next() % 40)
                .map(|_| {
                    let w = match next() % 4 {
                        0 => ticks::LIMIT - 1 - (next() % 1000) as u32,
                        _ => (next() % 5_000) as u32,
                    };
                    ((next() % n as u64) as usize, (next() % n as u64) as usize, w)
                })
                .collect();
            let mut d = vec![u64::MAX; n * n];
            (0..n).for_each(|i| d[i * n + i] = 0);
            for &(s, t, w) in &arcs {
                for (a, b) in [(s, t), (t, s)] {
                    d[a * n + b] = d[a * n + b].min(u64::from(w));
                }
            }
            let mut changed = true;
            while changed {
                changed = false;
                for (i, j, k) in (0..n * n * n).map(|v| (v / (n * n), v / n % n, v % n)) {
                    let via = d[i * n + k].saturating_add(d[k * n + j]);
                    if via < d[i * n + j] {
                        d[i * n + j] = via;
                        changed = true;
                    }
                }
            }
            let tri = closed(n, &arcs);
            for s in 0..n {
                for t in 0..n {
                    let want = d[s * n + t];
                    let want = if want < u64::from(ticks::LIMIT) { want as u32 } else { ticks::INF };
                    prop_assert_eq!(cell(&tri, s, t), want);
                }
            }
        }
    }

    /// The grid holds one `u32` per unordered door pair (diagonal included)
    /// plus one `OnceLock` slot per leaf — and the same bytes whether the
    /// triangles were forced up front or built leaf by leaf by own-leaf
    /// scans.
    #[test]
    fn size_is_one_cell_per_door_pair_forced_or_lazy() {
        let venue = Arc::new(random_venue(41));
        let build = || IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
        let eager = build();
        let slots = eager.num_leaves() * std::mem::size_of::<OnceLock<Box<[u32]>>>();
        assert_eq!(eager.leaf_grid.size_bytes(), slots, "nothing built yet");
        eager.build_leaf_grid();
        let cells: usize = (0..eager.num_leaves() as u32)
            .map(|l| {
                let n = eager.leaf_doors(l).len();
                n * (n + 1) / 2
            })
            .sum();
        assert_eq!(eager.leaf_grid.size_bytes(), cells * 4 + slots);

        // One object at the centre of every partition, then one
        // unbounded range query from inside every leaf: each leaf's
        // triangle builds on its own-leaf scan.
        let lazy = build();
        let centre = |p| IndoorPoint::new(p, venue.partition(p).extent.lerp(0.5, 0.5));
        let objects: Vec<IndoorPoint> = venue.partitions().iter().map(|p| centre(p.id)).collect();
        lazy.attach_objects(&objects);
        for l in 0..lazy.num_leaves() as u32 {
            let q = centre(lazy.leaf_partitions(l)[0]);
            assert!(!lazy.range(&q, f64::INFINITY).is_empty());
        }
        assert_eq!(lazy.leaf_grid_builds(), lazy.num_leaves() as u64);
        assert_eq!(lazy.size_bytes(), eager.size_bytes());
    }
}
