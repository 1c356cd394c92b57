use crate::CsrGraph;
use geometry::TotalF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;

/// Sentinel parent/vertex value meaning "none".
pub const NO_VERTEX: u32 = u32::MAX;

/// Where the settle loop reads a vertex's out-arcs from: the CSR graph,
/// or a per-query closure over an implicit graph (ROAD). Static dispatch
/// keeps the relax loop free of indirect calls.
trait Arcs {
    /// Call `relax(target, weight)` for every arc out of `v`.
    fn each(&mut self, v: u32, relax: impl FnMut(u32, f64));
}

impl Arcs for &CsrGraph {
    #[inline]
    fn each(&mut self, v: u32, mut relax: impl FnMut(u32, f64)) {
        for (t, w) in self.neighbors(v) {
            relax(t, w);
        }
    }
}

/// An implicit graph: `neighbors(v, out)` fills one buffer kept for the
/// whole search.
struct Implicit<F> {
    neighbors: F,
    arcs: Vec<(u32, f64)>,
}

impl<F: FnMut(u32, &mut Vec<(u32, f64)>)> Arcs for Implicit<F> {
    #[inline]
    fn each(&mut self, v: u32, mut relax: impl FnMut(u32, f64)) {
        self.arcs.clear();
        (self.neighbors)(v, &mut self.arcs);
        for &(t, w) in &self.arcs {
            debug_assert!(w >= 0.0);
            relax(t, w);
        }
    }
}

/// A reusable Dijkstra workspace over graphs of a fixed vertex count.
///
/// Index construction runs thousands of searches over the same D2D graph;
/// allocating and zeroing `O(V)` state per search would dominate. The
/// engine keeps distance/parent arrays across runs and invalidates them
/// with a generation counter, so starting a new search is `O(1)`.
///
/// Every search is one settle loop; [`run`](Self::run),
/// [`run_visit`](Self::run_visit), [`run_dynamic`](Self::run_dynamic),
/// [`point_to_point`](Self::point_to_point) and
/// [`point_to_point_dynamic`](Self::point_to_point_dynamic) differ only in
/// where arcs come from and when they stop. Results are read back through
/// [`settled_distance`](Self::settled_distance), [`parent`](Self::parent),
/// [`chain_into`](Self::chain_into) and [`path_to`](Self::path_to).
#[derive(Debug)]
pub struct DijkstraEngine {
    dist: Vec<f64>,
    parent: Vec<u32>,
    /// Generation stamp per vertex; an entry is valid iff stamp == current.
    stamp: Vec<u32>,
    settled: Vec<bool>,
    generation: u32,
    heap: BinaryHeap<Reverse<(TotalF64, u32)>>,
}

impl DijkstraEngine {
    pub fn new(num_vertices: usize) -> Self {
        DijkstraEngine {
            dist: vec![f64::INFINITY; num_vertices],
            parent: vec![NO_VERTEX; num_vertices],
            stamp: vec![0; num_vertices],
            settled: vec![false; num_vertices],
            generation: 0,
            heap: BinaryHeap::new(),
        }
    }

    #[inline]
    fn valid(&self, v: u32) -> bool {
        self.stamp[v as usize] == self.generation
    }

    /// Exact distance of `v` if it was settled in the most recent run.
    #[inline]
    pub fn settled_distance(&self, v: u32) -> Option<f64> {
        if self.valid(v) && self.settled[v as usize] {
            Some(self.dist[v as usize])
        } else {
            None
        }
    }

    /// Predecessor of `v` on its shortest path from the source set
    /// (`NO_VERTEX` for sources).
    #[inline]
    pub fn parent(&self, v: u32) -> Option<u32> {
        if self.valid(v) {
            Some(self.parent[v as usize])
        } else {
            None
        }
    }

    /// Write `v, parent(v), …, source` into `chain` (cleared first): the
    /// shortest path to `v` read backwards, ending at the seed `v` was
    /// reached from. An unlabelled `v` yields just `[v]`.
    pub fn chain_into(&self, v: u32, chain: &mut Vec<u32>) {
        chain.clear();
        chain.push(v);
        let mut cur = v;
        while let Some(p) = self.parent(cur).filter(|&p| p != NO_VERTEX) {
            chain.push(p);
            cur = p;
        }
    }

    /// The vertex sequence from a source to `v` (inclusive): the
    /// [`chain_into`](Self::chain_into) chain reversed; `None` if `v` was
    /// not reached.
    pub fn path_to(&self, v: u32) -> Option<Vec<u32>> {
        if !self.valid(v) {
            return None;
        }
        let mut seq = Vec::new();
        self.chain_into(v, &mut seq);
        seq.reverse();
        Some(seq)
    }

    /// Run Dijkstra from a set of `(vertex, initial_distance)` seeds until
    /// every vertex of `targets` is settled (duplicates permitted) or the
    /// frontier empties; an empty `targets` settles every reachable vertex.
    ///
    /// Multiple seeds implement "virtual source" searches: a query point is
    /// seeded as its partition's doors with the point-to-door distances as
    /// initial labels.
    pub fn run(&mut self, graph: &CsrGraph, seeds: &[(u32, f64)], targets: &[u32]) {
        debug_assert_eq!(graph.num_vertices(), self.dist.len());
        let mut pending = targets.to_vec();
        pending.sort_unstable();
        pending.dedup();
        let mut remaining = pending.len();
        self.search(seeds, graph, |v, _| {
            if remaining > 0 && pending.binary_search(&v).is_ok() {
                remaining -= 1;
                if remaining == 0 {
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
    }

    /// Dijkstra over an *implicit* graph: `neighbors(v, out)` fills `out`
    /// with the `(target, weight)` arcs of `v` on demand. Used by ROAD,
    /// whose search space (route-overlay shortcuts vs. original edges) is
    /// decided per query. Vertex ids must stay below the engine's size.
    /// `visit` is called as in [`run_visit`](Self::run_visit).
    pub fn run_dynamic(
        &mut self,
        seeds: &[(u32, f64)],
        neighbors: impl FnMut(u32, &mut Vec<(u32, f64)>),
        visit: impl FnMut(u32, f64) -> ControlFlow<()>,
    ) {
        let arcs = Implicit {
            neighbors,
            arcs: Vec::new(),
        };
        self.search(seeds, arcs, visit);
    }

    /// Run Dijkstra invoking `visit(vertex, distance)` on every settle, in
    /// ascending distance order; the search stops when the visitor returns
    /// `ControlFlow::Break` (or the frontier empties). Used by
    /// expansion-based competitors (the distance-aware model) whose
    /// termination conditions depend on query state.
    pub fn run_visit(
        &mut self,
        graph: &CsrGraph,
        seeds: &[(u32, f64)],
        visit: impl FnMut(u32, f64) -> ControlFlow<()>,
    ) {
        self.search(seeds, graph, visit);
    }

    /// Point-to-point search with early exit: returns the best
    /// `dist(seed_s) + dist(seed_t)` combination, i.e. the shortest distance
    /// between two virtual endpoints, and the meeting pattern
    /// `(entry door of t side)` for path recovery.
    ///
    /// `t_seeds` are `(vertex, exit_cost)` pairs: reaching vertex `v` with
    /// label `d` yields a candidate route of length `d + exit_cost`. The
    /// search stops at the first settle whose label cannot improve the
    /// best candidate.
    pub fn point_to_point(
        &mut self,
        graph: &CsrGraph,
        s_seeds: &[(u32, f64)],
        t_seeds: &[(u32, f64)],
    ) -> Option<(f64, u32)> {
        self.meet(s_seeds, graph, t_seeds)
    }

    /// [`point_to_point`](Self::point_to_point) over an *implicit* graph,
    /// whose arcs `neighbors(v, out)` supplies as in
    /// [`run_dynamic`](Self::run_dynamic) (ROAD's per-query overlay).
    pub fn point_to_point_dynamic(
        &mut self,
        s_seeds: &[(u32, f64)],
        neighbors: impl FnMut(u32, &mut Vec<(u32, f64)>),
        t_seeds: &[(u32, f64)],
    ) -> Option<(f64, u32)> {
        let arcs = Implicit {
            neighbors,
            arcs: Vec::new(),
        };
        self.meet(s_seeds, arcs, t_seeds)
    }

    /// The point-to-point meet rule over any arc source: stop at the first
    /// settle whose label cannot improve the best `d + exit`; a later
    /// candidate replaces it only when strictly shorter.
    fn meet(
        &mut self,
        s_seeds: &[(u32, f64)],
        arcs: impl Arcs,
        t_seeds: &[(u32, f64)],
    ) -> Option<(f64, u32)> {
        let mut best: Option<(f64, u32)> = None;
        self.search(s_seeds, arcs, |v, d| {
            if best.is_some_and(|(b, _)| d >= b) {
                return ControlFlow::Break(()); // no frontier label can improve the answer
            }
            for &(tv, exit) in t_seeds {
                if tv == v {
                    let cand = d + exit;
                    if best.is_none_or(|(b, _)| cand < b) {
                        best = Some((cand, v));
                    }
                }
            }
            ControlFlow::Continue(())
        });
        best
    }

    /// The one settle loop: seed, pop, skip stale entries, mark settled,
    /// `visit`, and relax the vertex's arcs unless `visit` broke.
    fn search(
        &mut self,
        seeds: &[(u32, f64)],
        mut arcs: impl Arcs,
        mut visit: impl FnMut(u32, f64) -> ControlFlow<()>,
    ) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrap: invalidate everything. Stamp 0 is never a live
            // generation; any other value would come back to life when
            // the counter next reaches it.
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.heap.clear();
        for &(v, d) in seeds {
            self.relax(v, d, NO_VERTEX);
        }
        while let Some(Reverse((TotalF64(d), v))) = self.heap.pop() {
            if self.settled[v as usize] && self.valid(v) {
                continue; // stale heap entry
            }
            self.settled[v as usize] = true;
            if visit(v, d).is_break() {
                break;
            }
            arcs.each(v, |t, w| self.relax(t, d + w, v));
        }
    }

    /// Label `v` with `d` via `parent` and queue it, if that improves on
    /// its current label (strict `<`: the first label found stays on ties).
    #[inline]
    fn relax(&mut self, v: u32, d: f64, parent: u32) {
        if !self.valid(v) || d < self.dist[v as usize] {
            self.dist[v as usize] = d;
            self.parent[v as usize] = parent;
            self.stamp[v as usize] = self.generation;
            self.settled[v as usize] = false;
            self.heap.push(Reverse((TotalF64(d), v)));
        }
    }
}

/// A checkout pool of [`DijkstraEngine`]s for parallel build phases.
///
/// Allocating and zeroing the `O(V)` engine state once per *worker* rather
/// than once per *task* is what keeps the parallel fan-out allocation-lean:
/// a worker checks an engine out, runs any number of searches (the
/// generation stamp isolates them), and returns it on drop for the next
/// parallel phase over the same graph.
#[derive(Debug)]
pub struct EnginePool {
    num_vertices: usize,
    free: std::sync::Mutex<Vec<DijkstraEngine>>,
}

impl EnginePool {
    /// An empty pool producing engines for graphs of `num_vertices`.
    pub fn new(num_vertices: usize) -> EnginePool {
        EnginePool {
            num_vertices,
            free: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Check an engine out, creating one if none is free.
    pub fn checkout(&self) -> PooledEngine<'_> {
        let engine = self
            .free
            .lock()
            .expect("engine pool poisoned")
            .pop()
            .unwrap_or_else(|| DijkstraEngine::new(self.num_vertices));
        PooledEngine {
            pool: self,
            engine: Some(engine),
        }
    }

    /// Pre-populate the pool with engines up to `n` free entries, so the
    /// first wave of concurrent checkouts does not pay the `O(V)`
    /// allocation inside a timed or latency-sensitive region.
    pub fn warm(&self, n: usize) {
        let mut free = self.free.lock().expect("engine pool poisoned");
        while free.len() < n {
            free.push(DijkstraEngine::new(self.num_vertices));
        }
    }
}

/// RAII checkout from an [`EnginePool`]; derefs to [`DijkstraEngine`].
#[derive(Debug)]
pub struct PooledEngine<'a> {
    pool: &'a EnginePool,
    engine: Option<DijkstraEngine>,
}

impl std::ops::Deref for PooledEngine<'_> {
    type Target = DijkstraEngine;
    fn deref(&self) -> &DijkstraEngine {
        self.engine.as_ref().expect("engine present until drop")
    }
}

impl std::ops::DerefMut for PooledEngine<'_> {
    fn deref_mut(&mut self) -> &mut DijkstraEngine {
        self.engine.as_mut().expect("engine present until drop")
    }
}

impl Drop for PooledEngine<'_> {
    fn drop(&mut self) {
        if let Some(engine) = self.engine.take() {
            if let Ok(mut free) = self.pool.free.lock() {
                free.push(engine);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// 0 -1- 1 -1- 2 -1- 3, plus a 10.0 shortcut 0-3.
    fn line_with_shortcut() -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(0, 3, 10.0);
        b.build()
    }

    #[test]
    fn exhaustive_distances_and_paths() {
        let g = line_with_shortcut();
        let mut e = DijkstraEngine::new(4);
        e.run(&g, &[(0, 0.0)], &[]);
        for (v, d) in [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)] {
            assert_eq!(e.settled_distance(v), Some(d), "vertex {v}");
        }
        assert_eq!(e.path_to(3).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn settle_all_terminates_early() {
        let g = line_with_shortcut();
        let mut e = DijkstraEngine::new(4);
        e.run(&g, &[(0, 0.0)], &[1]);
        assert_eq!(e.settled_distance(1), Some(1.0));
        assert_eq!(e.settled_distance(3), None, "stopped before the far vertex");
    }

    #[test]
    fn multi_seed_virtual_source() {
        let g = line_with_shortcut();
        let mut e = DijkstraEngine::new(4);
        e.run(&g, &[(0, 5.0), (2, 0.5)], &[]);
        // Vertex 1 best reached from seed 2 (0.5 + 1.0) not seed 0 (5 + 1).
        assert_eq!(e.settled_distance(1), Some(1.5));
        assert_eq!(e.parent(1), Some(2));
    }

    #[test]
    fn chains_end_at_the_seed_they_were_reached_from() {
        let g = line_with_shortcut();
        let mut e = DijkstraEngine::new(4);
        e.run(&g, &[(0, 5.0), (3, 0.0)], &[]);
        // Seed 3 reaches everything first: even seed 0 (label 5) is
        // relabelled through 1 (3 < 5).
        let mut chain = Vec::new();
        e.chain_into(1, &mut chain);
        assert_eq!(chain, vec![1, 2, 3]);
        assert_eq!(e.path_to(1).unwrap(), vec![3, 2, 1]);
        e.chain_into(0, &mut chain);
        assert_eq!(chain, vec![0, 1, 2, 3], "seed 0 relabelled from seed 3");
        // Two live seeds: 1 hangs off seed 0, 2 off seed 3.
        e.run(&g, &[(0, 0.0), (3, 0.5)], &[]);
        e.chain_into(1, &mut chain);
        assert_eq!(chain, vec![1, 0]);
        e.chain_into(2, &mut chain);
        assert_eq!(chain, vec![2, 3]);
        assert_eq!(e.path_to(3).unwrap(), vec![3], "a seed is its own path");
    }

    #[test]
    fn generation_reset_isolates_runs() {
        let g = line_with_shortcut();
        let mut e = DijkstraEngine::new(4);
        e.run(&g, &[(0, 0.0)], &[]);
        e.run(&g, &[(3, 0.0)], &[3]);
        // Distances from the first run must not leak.
        assert_eq!(e.settled_distance(0), None);
        assert_eq!(e.settled_distance(3), Some(0.0));
    }

    #[test]
    fn generation_wrap_forgets_every_earlier_label() {
        let g = line_with_shortcut();
        let mut e = DijkstraEngine::new(4);
        e.run(&g, &[(0, 0.0)], &[]);
        e.generation = u32::MAX; // the next run wraps
        e.run(&g, &[(3, 0.0)], &[3]);
        // Count up to the last generation without touching 0..=2 again.
        e.generation = u32::MAX - 1;
        e.run(&g, &[(3, 0.0)], &[3]);
        assert_eq!(e.settled_distance(0), None, "a label from before the wrap");
        assert_eq!(e.settled_distance(3), Some(0.0));
    }

    #[test]
    fn point_to_point_early_exit() {
        let g = line_with_shortcut();
        let mut e = DijkstraEngine::new(4);
        let (d, via) = e
            .point_to_point(&g, &[(0, 0.2)], &[(3, 0.3), (2, 5.0)])
            .unwrap();
        assert!((d - 3.5).abs() < 1e-12, "got {d}");
        assert_eq!(via, 3);
    }

    #[test]
    fn point_to_point_dynamic_meets_as_over_the_csr_graph() {
        let g = line_with_shortcut();
        let (s, t) = ([(0, 0.2)], [(3, 0.3), (2, 5.0)]);
        let mut e = DijkstraEngine::new(4);
        let want = e.point_to_point(&g, &s, &t);
        let arcs = |v: u32, out: &mut Vec<(u32, f64)>| out.extend(g.neighbors(v));
        assert_eq!(e.point_to_point_dynamic(&s, arcs, &t), want);
        assert_eq!(e.path_to(3), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn pool_reuses_engines_and_isolates_runs() {
        let g = line_with_shortcut();
        let pool = EnginePool::new(4);
        {
            let mut e = pool.checkout();
            e.run(&g, &[(0, 0.0)], &[]);
            assert_eq!(e.settled_distance(3), Some(3.0));
        }
        // The returned engine is reused; generation stamps isolate the runs.
        let mut e = pool.checkout();
        e.run(&g, &[(3, 0.0)], &[3]);
        assert_eq!(e.settled_distance(0), None);
        drop(e);
        // Warming tops the free list up without discarding returned engines.
        pool.warm(3);
        assert_eq!(pool.free.lock().unwrap().len(), 3);
        pool.warm(1);
        assert_eq!(pool.free.lock().unwrap().len(), 3, "warm never shrinks");
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let mut e = DijkstraEngine::new(3);
        e.run(&g, &[(0, 0.0)], &[2]);
        assert_eq!(e.settled_distance(2), None);
        assert_eq!(
            e.settled_distance(1),
            Some(1.0),
            "ran until the frontier emptied"
        );
        assert_eq!(e.path_to(2), None);
        assert!(e.point_to_point(&g, &[(0, 0.0)], &[(2, 0.0)]).is_none());
    }
}
