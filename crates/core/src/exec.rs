//! Query-execution subsystem: reusable per-query scratch state, a
//! checkout pool, and a concurrent batched [`QueryEngine`] facade.
//!
//! Every kNN/range/keyword/shortest-path call needs transient state — a
//! [`DistArena`] of access-door vectors, branch-and-bound heaps, ascent
//! buffers, a candidate-mark set. Allocating that from scratch per query
//! caps single-thread throughput and shreds the allocator under
//! concurrency, so it all lives in one [`QueryScratch`] that is checked
//! out of a [`ScratchPool`] (same pattern as `indoor_graph::EnginePool`
//! for Dijkstra state) and cleared in O(live data) between queries —
//! the mark set clears by bumping an epoch counter, not by touching
//! memory.
//!
//! [`QueryEngine`] fans batches of queries over
//! [`indoor_graph::parallel::par_map_init`] worker threads, one scratch
//! per worker, with slot-indexed output: result `i` of a batch is the
//! answer to query `i`, bit-identical to running the queries serially in
//! input order (see DESIGN.md, "Query scratch reuse and batch
//! determinism").

use crate::ascent::{Ascent, Climber};
use crate::keywords::KeywordObjects;
use crate::knn::DistArena;
use crate::tree::{IpTree, NodeIdx};
use crate::vip::VipTree;
use geometry::TotalF64;
use indoor_graph::parallel::par_map_init;
use indoor_model::{IndoorPath, IndoorPoint, ObjectId, QueryRequest, QueryResponse, QueryStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A set over `0..n` that clears in O(1) by bumping an epoch stamp.
///
/// `vec![false; n]` per leaf scan was the last per-query allocation in the
/// kNN hot loop; this replaces it. An index is "marked" iff its stamp
/// equals the current epoch, so `begin` only pays for memory on growth
/// (and on the one-in-4-billion epoch wraparound, where stamps are
/// re-zeroed to keep stale marks from resurfacing).
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochMarks {
    stamp: Vec<u32>,
    epoch: u32,
}

impl EpochMarks {
    /// Start a new (empty) marking round over indices `0..n`.
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    pub fn mark(&mut self, i: usize) {
        self.stamp[i] = self.epoch;
    }

    #[inline]
    pub fn is_marked(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }
}

/// The per-query transient state of every tree query, owned and reused.
///
/// A scratch is plain state, not a guard: queries leave no observable
/// residue in it — every query begins by clearing (epoch-bumping, for the
/// marks) exactly the pieces it uses, so interleaving different query
/// kinds through one scratch yields bit-identical answers to using a
/// fresh scratch each time (`tests/scratch_reuse.rs` enforces this).
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Source-side ascent (also the only ascent for kNN/range/keyword).
    pub(crate) asc_s: Ascent,
    /// Target-side ascent for point-to-point queries.
    pub(crate) asc_t: Ascent,
    /// Flat arena of access-door distance vectors.
    pub(crate) arena: DistArena,
    /// Arena handles of the ascent steps, aligned with `asc_s.steps()`.
    pub(crate) step_handles: Vec<u32>,
    /// Buffer for derived child vectors before they enter the arena.
    pub(crate) child_vec: Vec<f64>,
    /// Best-first frontier of Algorithm 5.
    pub(crate) heap: BinaryHeap<Reverse<(TotalF64, NodeIdx, u32)>>,
    /// Current k-best max-heap (`peek()` is `d_k`).
    pub(crate) best: BinaryHeap<(TotalF64, ObjectId)>,
    /// DFS stack of range queries: `(mindist, node, vector handle)`.
    pub(crate) stack: Vec<(f64, NodeIdx, u32)>,
    /// Leaf-scan candidate marks, cleared by epoch.
    pub(crate) marks: EpochMarks,
    /// Own-leaf scan buffer: distance from `q` to each door of its leaf
    /// that a live object needs (`NaN` at the rest), folded from the leaf
    /// door grid (DESIGN.md §14.4).
    pub(crate) leaf_dq: Vec<f64>,
    /// Own-leaf scan buffer: the leaf ordinal of every door of every live
    /// object of q's leaf, in scan order.
    pub(crate) leaf_ords: Vec<u32>,
    /// Per-query span state (phase timings + hot-path counters). Armed by
    /// [`QueryEngine`]'s dispatch point when the sampling gate is open and
    /// the engine has a telemetry sink; dormant (one cleared bool) on
    /// every other path.
    pub(crate) trace: crate::telemetry::QueryTrace,
}

impl QueryScratch {
    /// An empty scratch; buffers grow to the working-set size of the first
    /// few queries and then stay warm.
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }
}

/// A checkout pool of [`QueryScratch`]es shared by concurrent callers.
///
/// Checkout pops a free scratch (or creates one — the pool grows to the
/// peak concurrency and no further); drop returns it. Single-query APIs
/// on [`IpTree`]/[`VipTree`] stay allocation-lean by checking out of the
/// tree's embedded pool, so existing callers get the reuse for free.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<QueryScratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// Check a scratch out, creating one if none is free.
    pub fn checkout(&self) -> PooledScratch<'_> {
        let scratch = self
            .free
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        PooledScratch {
            pool: self,
            scratch: Some(scratch),
        }
    }
}

/// RAII checkout from a [`ScratchPool`]; derefs to [`QueryScratch`].
#[derive(Debug)]
pub struct PooledScratch<'a> {
    pool: &'a ScratchPool,
    scratch: Option<QueryScratch>,
}

impl std::ops::Deref for PooledScratch<'_> {
    type Target = QueryScratch;
    fn deref(&self) -> &QueryScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl std::ops::DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut QueryScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            if let Ok(mut free) = self.pool.free.lock() {
                free.push(scratch);
            }
        }
    }
}

/// Where an armed [`crate::telemetry::QueryTrace`] folds when the query
/// finishes: per-phase latency histograms plus lifetime hot-path counters,
/// shared between the engine (writer) and the service registry (reader).
/// Engines without a sink (standalone benches, tests) skip arming entirely
/// and pay one relaxed load per query.
#[derive(Debug)]
pub(crate) struct EngineTelemetry {
    /// Branch-and-bound walk time: total minus leaf-fold minus heap (µs).
    pub(crate) descent_us: Arc<crate::telemetry::Histogram>,
    /// Own-leaf door-grid fold time, including first-touch lazy grid
    /// builds (µs).
    pub(crate) leaf_fold_us: Arc<crate::telemetry::Histogram>,
    /// Final k-best drain/sort time (µs).
    pub(crate) heap_us: Arc<crate::telemetry::Histogram>,
    pub(crate) nodes_pushed: Arc<crate::telemetry::Counter>,
    pub(crate) nodes_pruned: Arc<crate::telemetry::Counter>,
    pub(crate) slab_rows: Arc<crate::telemetry::Counter>,
    pub(crate) kbest_updates: Arc<crate::telemetry::Counter>,
    /// Queries that ran with an armed trace (the denominator for the
    /// per-query counters above).
    pub(crate) traced_queries: Arc<crate::telemetry::Counter>,
}

impl EngineTelemetry {
    /// Fold one finished trace. `total_ns` is wall time of the whole
    /// dispatch; descent is what's left after the explicitly-timed phases.
    pub(crate) fn fold(&self, trace: &crate::telemetry::QueryTrace, total_ns: u64) {
        let timed = trace.leaf_fold_ns + trace.heap_ns;
        self.descent_us
            .record(total_ns.saturating_sub(timed) / 1_000);
        self.leaf_fold_us.record(trace.leaf_fold_ns / 1_000);
        self.heap_us.record(trace.heap_ns / 1_000);
        self.nodes_pushed.add(trace.nodes_pushed);
        self.nodes_pruned.add(trace.nodes_pruned);
        self.slab_rows.add(trace.slab_rows);
        self.kbest_updates.add(trace.kbest_updates);
        self.traced_queries.inc();
    }
}

/// Which index a [`QueryEngine`] serves.
#[derive(Debug, Clone)]
pub enum TreeHandle {
    /// IP-tree backend (ascents walk matrices).
    Ip(Arc<IpTree>),
    /// VIP-tree backend (ascents are table lookups).
    Vip(Arc<VipTree>),
}

impl TreeHandle {
    /// The underlying IP-tree (the VIP-tree's interior one for `Vip`).
    #[inline]
    pub fn ip(&self) -> &IpTree {
        match self {
            TreeHandle::Ip(t) => t,
            TreeHandle::Vip(t) => t.ip_tree(),
        }
    }

    /// How this backend climbs — the one place the two differ; every
    /// query is written over it.
    #[inline]
    pub(crate) fn climber(&self) -> &dyn Climber {
        match self {
            TreeHandle::Ip(t) => &**t,
            TreeHandle::Vip(t) => &**t,
        }
    }
}

/// Concurrent batched query facade over a shared index.
///
/// Owns a [`ScratchPool`] and a thread count. The primitive surface is
/// typed: [`QueryEngine::execute`] answers one
/// [`QueryRequest`], and [`QueryEngine::execute_batch`] fans a
/// *heterogeneous* request slice over `threads` workers (0 = all cores),
/// each holding one scratch for the whole batch, returning responses in
/// input order — slot `i` is exactly what the corresponding single-query
/// call returns, bit for bit. Requests are the only way in; the per-kind
/// calls live on the trees themselves.
///
/// ```
/// use indoor_model::QueryRequest;
/// use indoor_synth::{random_venue, workload};
/// use std::sync::Arc;
/// use vip_tree::{QueryEngine, VipTree, VipTreeConfig};
///
/// let venue = Arc::new(random_venue(9));
/// let mut tree = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
/// tree.attach_objects(&workload::place_objects(&venue, 12, 1));
/// let engine = QueryEngine::for_vip(Arc::new(tree)).with_threads(2);
/// let reqs: Vec<QueryRequest> = workload::query_points(&venue, 8, 3)
///     .into_iter()
///     .map(|q| QueryRequest::Knn { q, k: 3 })
///     .collect();
/// let answers = engine.execute_batch(&reqs);
/// assert_eq!(answers.len(), reqs.len());
/// assert_eq!(answers[0], engine.execute(&reqs[0]));
/// ```
#[derive(Debug)]
pub struct QueryEngine {
    tree: TreeHandle,
    /// Swappable under `&self` so a live service can absorb keyword-object
    /// churn without rebuilding the engine. Snapshotted **once per
    /// `execute`/`execute_batch` call** — a batch answers every slot from
    /// one keyword snapshot, so a mid-batch swap can never mix pre- and
    /// post-swap answers within a batch (and the per-query hot path pays
    /// no lock).
    keywords: std::sync::RwLock<Option<Arc<KeywordObjects>>>,
    /// Keyword-snapshot generation: bumped (after the swap) by every
    /// [`QueryEngine::set_keywords`], whoever calls it — the stamp result
    /// caches key keyword answers by, so out-of-band swaps can never be
    /// mistaken for the cached snapshot.
    keywords_gen: std::sync::atomic::AtomicU64,
    threads: usize,
    pool: ScratchPool,
    /// Set once by the serving layer ([`crate::IndoorService`]); engines
    /// without a sink never arm traces, so the standalone hot path keeps
    /// exactly one relaxed load of overhead.
    tel: std::sync::OnceLock<Arc<EngineTelemetry>>,
}

impl QueryEngine {
    /// Serve queries from an IP-tree.
    pub fn for_ip(tree: Arc<IpTree>) -> QueryEngine {
        QueryEngine::new(TreeHandle::Ip(tree))
    }

    /// Serve queries from a VIP-tree.
    pub fn for_vip(tree: Arc<VipTree>) -> QueryEngine {
        QueryEngine::new(TreeHandle::Vip(tree))
    }

    /// Serve queries from either backend.
    pub fn new(tree: TreeHandle) -> QueryEngine {
        QueryEngine {
            tree,
            keywords: std::sync::RwLock::new(None),
            keywords_gen: std::sync::atomic::AtomicU64::new(0),
            threads: 0,
            pool: ScratchPool::new(),
            tel: std::sync::OnceLock::new(),
        }
    }

    /// Attach the telemetry sink (first caller wins; later calls are
    /// no-ops, matching the one-service-owns-one-engine lifecycle).
    pub(crate) fn set_telemetry(&self, tel: Arc<EngineTelemetry>) {
        let _ = self.tel.set(tel);
    }

    /// Worker threads for [`QueryEngine::execute_batch`] (0 = all
    /// available cores).
    ///
    /// Also pre-warms the tree's Dijkstra engine pool to that
    /// concurrency, so the first batch's same-leaf queries find engines
    /// ready instead of allocating them in-band.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.tree
            .ip()
            .warm_engines(indoor_graph::parallel::effective_threads(threads));
        self
    }

    /// Attach a keyword index for `KnnKeyword` requests.
    pub fn with_keywords(self, keywords: Arc<KeywordObjects>) -> Self {
        self.set_keywords(Some(keywords));
        self
    }

    /// Swap (or detach) the keyword index on a live engine. In-flight
    /// calls finish on the snapshot they captured at entry; the keyword
    /// generation bumps *after* the swap, so a caller observing the new
    /// generation is guaranteed to see the new index.
    pub fn set_keywords(&self, keywords: Option<Arc<KeywordObjects>>) {
        *self.keywords.write().expect("keywords lock") = keywords;
        self.keywords_gen
            .fetch_add(1, std::sync::atomic::Ordering::Release);
    }

    /// The keyword-snapshot generation (see [`QueryEngine::set_keywords`]).
    pub fn keywords_generation(&self) -> u64 {
        self.keywords_gen.load(std::sync::atomic::Ordering::Acquire)
    }

    /// The backend handle.
    #[inline]
    pub fn tree(&self) -> &TreeHandle {
        &self.tree
    }

    /// The attached keyword index snapshot, if any.
    #[inline]
    pub fn keywords(&self) -> Option<Arc<KeywordObjects>> {
        self.keywords.read().expect("keywords lock").clone()
    }

    /// The effective worker count a batch call will use.
    pub fn threads(&self) -> usize {
        indoor_graph::parallel::effective_threads(self.threads)
    }

    /// The raw configured thread count (0 = all cores at call time) — what
    /// a snapshot persists, so a restored service keeps "use every core"
    /// semantics instead of pinning the saving machine's core count.
    pub(crate) fn configured_threads(&self) -> usize {
        self.threads
    }

    fn knn_one(
        &self,
        scratch: &mut QueryScratch,
        q: &IndoorPoint,
        k: usize,
    ) -> Vec<(ObjectId, f64)> {
        self.tree.climber().knn_query(q, k, scratch)
    }

    fn range_one(
        &self,
        scratch: &mut QueryScratch,
        q: &IndoorPoint,
        radius: f64,
    ) -> Vec<(ObjectId, f64)> {
        self.tree.climber().range_query(q, radius, scratch)
    }

    fn distance_one(
        &self,
        scratch: &mut QueryScratch,
        s: &IndoorPoint,
        t: &IndoorPoint,
    ) -> Option<f64> {
        let stats = &mut QueryStats::default();
        self.tree
            .climber()
            .shortest_distance_stats(s, t, scratch, stats)
    }

    fn path_one(
        &self,
        scratch: &mut QueryScratch,
        s: &IndoorPoint,
        t: &IndoorPoint,
    ) -> Option<IndoorPath> {
        self.tree.climber().shortest_path_between(s, t, scratch)
    }

    fn keyword_one(
        &self,
        scratch: &mut QueryScratch,
        keywords: Option<&Arc<KeywordObjects>>,
        q: &IndoorPoint,
        k: usize,
        label: &str,
    ) -> Vec<(ObjectId, f64)> {
        match keywords {
            Some(kw) => kw.knn_keyword_in(self.tree.ip(), q, k, label, scratch),
            // Mirror `KeywordObjects::knn_keyword` on an unknown term: no
            // keyword index means no object carries the keyword.
            None => Vec::new(),
        }
    }

    /// Answer one typed request on caller-owned scratch — the single
    /// dispatch point [`QueryEngine::execute`] and every batch slot
    /// funnel through.
    /// `keywords` is the caller's per-call snapshot (captured once, even
    /// for a whole batch).
    fn execute_in(
        &self,
        scratch: &mut QueryScratch,
        keywords: Option<&Arc<KeywordObjects>>,
        req: &QueryRequest,
    ) -> QueryResponse {
        let tel = self.tel.get();
        scratch
            .trace
            .begin(tel.is_some() && crate::telemetry::should_trace());
        let t0 = scratch.trace.start();
        let resp = match req {
            QueryRequest::Knn { q, k } => QueryResponse::Knn(self.knn_one(scratch, q, *k)),
            QueryRequest::Range { q, radius } => {
                QueryResponse::Range(self.range_one(scratch, q, *radius))
            }
            QueryRequest::KnnKeyword { q, k, keyword } => {
                QueryResponse::KnnKeyword(self.keyword_one(scratch, keywords, q, *k, keyword))
            }
            QueryRequest::ShortestDistance { s, t } => {
                QueryResponse::ShortestDistance(self.distance_one(scratch, s, t))
            }
            QueryRequest::ShortestPath { s, t } => {
                QueryResponse::ShortestPath(self.path_one(scratch, s, t))
            }
        };
        if let (Some(t0), Some(tel)) = (t0, tel) {
            tel.fold(&scratch.trace, t0.elapsed().as_nanos() as u64);
        }
        resp
    }

    /// Answer one typed request through the pool.
    pub fn execute(&self, req: &QueryRequest) -> QueryResponse {
        let keywords = self.keywords();
        self.execute_in(&mut self.pool.checkout(), keywords.as_ref(), req)
    }

    /// Answer a heterogeneous batch of typed requests; slot `i` answers
    /// `reqs[i]`, bit-identical to a serial loop of
    /// [`QueryEngine::execute`] (and to the tree's own per-kind call), for
    /// any thread count.
    ///
    /// A mixed workload — kNN directory lookups interleaved with
    /// evacuation-route path queries — is one batch, fanned over
    /// `threads` workers with one pooled scratch per worker.
    pub fn execute_batch(&self, reqs: &[QueryRequest]) -> Vec<QueryResponse> {
        // One keyword snapshot for the whole batch: every slot answers
        // from the same index even if `set_keywords` swaps mid-batch.
        let keywords = self.keywords();
        par_map_init(
            reqs,
            self.threads,
            || self.pool.checkout(),
            |scratch, _, req| self.execute_in(scratch, keywords.as_ref(), req),
        )
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitError {
    /// `Shed` policy: the in-flight budget was full at arrival.
    Overloaded { in_flight: usize, limit: usize },
    /// `Block` policy: the budget stayed full for the whole timeout.
    Timeout { in_flight: usize, limit: usize },
}

/// A bounded in-flight budget: queries take weighted permits, overload
/// either sheds (fail fast) or blocks until capacity frees or a timeout
/// expires. Purely a counter + condvar — admitted queries run with no
/// further coordination, so the un-contended fast path is one mutex
/// lock/unlock on each side.
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    limit: usize,
    in_flight: Mutex<usize>,
    freed: Condvar,
}

impl AdmissionGate {
    pub(crate) fn new(limit: usize) -> AdmissionGate {
        AdmissionGate {
            limit: limit.max(1),
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    pub(crate) fn limit(&self) -> usize {
        self.limit
    }

    pub(crate) fn in_flight(&self) -> usize {
        *self.in_flight.lock().expect("admission lock")
    }

    /// A weight heavier than the whole budget must still be admissible,
    /// or an oversized batch would deadlock: it fits exactly when the
    /// gate is idle.
    fn admits(&self, cur: usize, weight: usize) -> bool {
        cur == 0 || cur + weight <= self.limit
    }

    /// `Shed` policy: admit now or fail with the observed load.
    pub(crate) fn try_admit(&self, weight: usize) -> Result<AdmissionPermit<'_>, AdmitError> {
        let mut cur = self.in_flight.lock().expect("admission lock");
        if self.admits(*cur, weight) {
            *cur += weight;
            Ok(AdmissionPermit { gate: self, weight })
        } else {
            Err(AdmitError::Overloaded {
                in_flight: *cur,
                limit: self.limit,
            })
        }
    }

    /// `Block` policy: wait up to `timeout` for capacity.
    pub(crate) fn admit_within(
        &self,
        weight: usize,
        timeout: Duration,
    ) -> Result<AdmissionPermit<'_>, AdmitError> {
        let deadline = Instant::now() + timeout;
        let mut cur = self.in_flight.lock().expect("admission lock");
        loop {
            if self.admits(*cur, weight) {
                *cur += weight;
                return Ok(AdmissionPermit { gate: self, weight });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(AdmitError::Timeout {
                    in_flight: *cur,
                    limit: self.limit,
                });
            }
            let (next, _timed_out) = self
                .freed
                .wait_timeout(cur, deadline - now)
                .expect("admission lock");
            cur = next;
        }
    }
}

/// RAII admission slot: frees its weight (and wakes blocked waiters) on
/// drop, so every exit path of a query — success, panic unwind, early
/// return — releases capacity.
#[derive(Debug)]
pub(crate) struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
    weight: usize,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut cur = self.gate.in_flight.lock().expect("admission lock");
        *cur = cur.saturating_sub(self.weight);
        drop(cur);
        self.gate.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VipTreeConfig;
    use indoor_synth::{random_venue, workload};

    #[test]
    fn epoch_marks_reset_without_touching_memory() {
        let mut m = EpochMarks::default();
        m.begin(4);
        m.mark(1);
        m.mark(3);
        assert!(m.is_marked(1) && m.is_marked(3));
        assert!(!m.is_marked(0) && !m.is_marked(2));
        m.begin(2);
        assert!(!m.is_marked(1), "stale mark survived epoch bump");
        // Growth keeps old stamps unmarked.
        m.begin(8);
        assert!((0..8).all(|i| !m.is_marked(i)));
    }

    #[test]
    fn epoch_marks_survive_wraparound() {
        let mut m = EpochMarks {
            stamp: vec![0; 3],
            epoch: u32::MAX - 1,
        };
        m.begin(3); // epoch -> MAX
        m.mark(0);
        m.begin(3); // wraps: stamps re-zeroed, epoch 1
        assert!(!m.is_marked(0), "mark leaked across wraparound");
        m.mark(2);
        assert!(m.is_marked(2));
    }

    #[test]
    fn scratch_pool_reuses_returned_scratches() {
        let pool = ScratchPool::new();
        {
            let mut s = pool.checkout();
            s.child_vec.reserve(1024);
        }
        let s = pool.checkout();
        assert!(
            s.child_vec.capacity() >= 1024,
            "checkout did not reuse the returned scratch"
        );
        assert!(pool.free.lock().unwrap().is_empty());
    }

    #[test]
    fn engine_single_queries_match_tree_apis() {
        let venue = std::sync::Arc::new(random_venue(17));
        let tree = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
        tree.attach_objects(&workload::place_objects(&venue, 14, 2));
        let tree = Arc::new(tree);
        let engine = QueryEngine::for_vip(tree.clone()).with_threads(1);
        for q in workload::query_points(&venue, 5, 11) {
            assert_eq!(
                engine.execute(&QueryRequest::Knn { q, k: 4 }),
                QueryResponse::Knn(tree.knn(&q, 4))
            );
            assert_eq!(
                engine.execute(&QueryRequest::Range { q, radius: 80.0 }),
                QueryResponse::Range(tree.range(&q, 80.0))
            );
        }
        for (s, t) in workload::query_pairs(&venue, 5, 12) {
            assert_eq!(
                engine.execute(&QueryRequest::ShortestDistance { s, t }),
                QueryResponse::ShortestDistance(tree.shortest_distance_points(&s, &t))
            );
        }
    }

    #[test]
    fn admission_gate_sheds_at_the_limit_and_frees_on_drop() {
        let gate = AdmissionGate::new(2);
        let a = gate.try_admit(1).unwrap();
        let b = gate.try_admit(1).unwrap();
        assert_eq!(
            gate.try_admit(1).unwrap_err(),
            AdmitError::Overloaded {
                in_flight: 2,
                limit: 2
            }
        );
        drop(a);
        let c = gate.try_admit(1).unwrap();
        assert_eq!(gate.in_flight(), 2);
        drop((b, c));
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn oversized_batch_admits_only_on_an_idle_gate() {
        let gate = AdmissionGate::new(2);
        // Heavier than the whole budget: fits exactly when idle.
        let big = gate.try_admit(5).unwrap();
        assert!(gate.try_admit(1).is_err());
        drop(big);
        let _one = gate.try_admit(1).unwrap();
        // Now a 5-weight batch must wait (and here, time out).
        assert_eq!(
            gate.admit_within(5, Duration::from_millis(10)).unwrap_err(),
            AdmitError::Timeout {
                in_flight: 1,
                limit: 2
            }
        );
    }

    #[test]
    fn blocked_admission_wakes_when_capacity_frees() {
        let gate = Arc::new(AdmissionGate::new(1));
        let held = gate.try_admit(1).unwrap();
        std::thread::scope(|scope| {
            let waiter = {
                let gate = Arc::clone(&gate);
                scope.spawn(move || gate.admit_within(1, Duration::from_secs(30)).map(drop))
            };
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
            assert!(waiter.join().unwrap().is_ok());
        });
        assert_eq!(gate.in_flight(), 0);
    }
}
