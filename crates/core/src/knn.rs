//! Algorithm 5: k nearest neighbours and range queries (§3.4).
//!
//! Best-first branch-and-bound over the tree, starting at `q`'s own leaf.
//! The nodes containing `q` have their access-door distances from the
//! query's ascent, and each enters the frontier as one *deferred* entry
//! keyed by the exit distance of its child on `q`'s path; its other
//! children wait until that key is popped. Any other node's vector is
//! derived incrementally from its parent's via the parent's matrix —
//! Lemma 8 when the parent contains `q` (route through the sibling's
//! access doors), Lemma 9 otherwise. Leaves are scanned through the
//! per-access-door sorted object lists with early termination at the
//! current `d_k`.
//!
//! The traversal state is allocation-lean: every distance vector lives in
//! one flat [`DistArena`] addressed by `u32` handles (heap/stack entries
//! carry `(node, handle)`, never owned vectors), ascent lookups are O(1)
//! level-indexed (see [`Ascent::step_for`]), and child vectors are
//! computed into a reused scratch buffer before being appended to the
//! arena.

use crate::ascent::{Ascent, Climber};
use crate::exec::{EpochMarks, QueryScratch};
use crate::objects::ObjectIndex;
use crate::ticks;
use crate::tree::{IpTree, NodeIdx};
use geometry::TotalF64;
use indoor_model::{IndoorPoint, ObjectId};
use std::cmp::Reverse;

/// A bump arena of access-door distance vectors, in ticks
/// ([`ticks::UNREACHED`] = ∞).
///
/// Branch-and-bound used to clone a `Vec<f64>` per visited node (ascent
/// vectors were cloned wholesale on every push); the arena stores each
/// vector once, contiguously, and hands out dense `u32` handles.
#[derive(Debug, Default)]
pub(crate) struct DistArena {
    data: Vec<u64>,
    spans: Vec<(u32, u32)>,
}

impl DistArena {
    /// Drop every vector, keeping the allocation for the next query.
    pub(crate) fn clear(&mut self) {
        self.data.clear();
        self.spans.clear();
    }

    /// Re-seed the arena with every ascent step's distance vector; the
    /// handles written to `handles` are aligned with `asc.steps()`
    /// (level − 1 indexing).
    pub(crate) fn seed(&mut self, asc: &Ascent, handles: &mut Vec<u32>) {
        self.clear();
        handles.clear();
        for s in asc.steps() {
            handles.push(self.push(s.ticks.iter().copied()));
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, v: impl IntoIterator<Item = u64>) -> u32 {
        let start = self.data.len();
        self.data.extend(v);
        self.spans
            .push((start as u32, (self.data.len() - start) as u32));
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub(crate) fn get(&self, handle: u32) -> &[u64] {
        let (start, len) = self.spans[handle as usize];
        &self.data[start as usize..(start + len) as usize]
    }
}

/// A validated-but-unpublished object delta batch from
/// [`IpTree::prepare_object_deltas`]. Holds the tree's updater mutex, so
/// no other delta batch can interleave between prepare and
/// [`PreparedObjectDeltas::install`]; dropping it abandons the batch.
pub(crate) struct PreparedObjectDeltas<'a> {
    tree: &'a IpTree,
    _guard: std::sync::MutexGuard<'a, ()>,
    next: ObjectIndex,
    report: crate::objects::DeltaReport,
}

impl PreparedObjectDeltas<'_> {
    /// Publish the prepared snapshot (swap, then generation bump).
    pub(crate) fn install(self) -> crate::objects::DeltaReport {
        *self.tree.objects.write().expect("objects lock") = Some(std::sync::Arc::new(self.next));
        // Swap before bump: a reader observing the new generation is
        // guaranteed to read (at least) the new snapshot.
        self.tree
            .objects_gen
            .fetch_add(1, std::sync::atomic::Ordering::Release);
        self.report
    }
}

impl IpTree {
    /// Attach an object set, replacing any previous one (§3.4).
    ///
    /// Takes `&self`: the new index is built off to the side and swapped
    /// in, so concurrent queries keep serving the previous snapshot until
    /// the swap and the fresh one afterwards — never a torn state.
    pub fn attach_objects(&self, objects: &[IndoorPoint]) {
        let oi = ObjectIndex::build(self, objects);
        self.install_objects(oi);
    }

    /// Absorb a batch of object deltas (insert/remove/move) into the
    /// attached object set — or into an empty one if none is attached.
    ///
    /// Copy-on-write: the current snapshot is cloned (a memcpy of the
    /// buckets — no distance recomputation), the deltas are applied
    /// incrementally to the clone ([`ObjectIndex::apply_delta`] touches
    /// only the leaves the deltas land in), and the clone is swapped in.
    /// Concurrent updaters are serialised by an internal mutex so no
    /// delta batch is ever lost; concurrent queries are never blocked by
    /// an in-progress update.
    pub fn apply_object_deltas(
        &self,
        deltas: &[indoor_model::ObjectDelta],
    ) -> Result<crate::objects::DeltaReport, indoor_model::DeltaError> {
        Ok(self.prepare_object_deltas(deltas)?.install())
    }

    /// First half of [`IpTree::apply_object_deltas`]: validate and build
    /// the next snapshot **without publishing it**. The returned guard
    /// holds the updater mutex; `install` performs the swap, `drop`
    /// abandons the prepared snapshot with the tree untouched.
    ///
    /// This split is what lets a durable service journal-before-apply: it
    /// validates the batch, appends the WAL record, and only then
    /// installs — a failed append discards the prepared state and the
    /// tree never diverges from the log.
    pub(crate) fn prepare_object_deltas<'a>(
        &'a self,
        deltas: &[indoor_model::ObjectDelta],
    ) -> Result<PreparedObjectDeltas<'a>, indoor_model::DeltaError> {
        let guard = self.objects_update.lock().expect("object update lock");
        let current = self.objects.read().expect("objects lock").clone();
        let mut next = match current {
            Some(arc) => (*arc).clone(),
            None => ObjectIndex::empty(self),
        };
        let report = next.apply_delta(self, deltas)?;
        Ok(PreparedObjectDeltas {
            tree: self,
            _guard: guard,
            next,
            report,
        })
    }

    /// As [`IpTree::attach_objects`] with caller-assigned stable ids (ids
    /// may have gaps — e.g. the live set surviving a delta history). The
    /// from-scratch reference of the delta-vs-rebuild equivalence
    /// contract (`tests/object_deltas.rs`).
    pub fn attach_objects_with_ids(&self, objects: &[(ObjectId, IndoorPoint)]) {
        self.install_objects(ObjectIndex::build_with_ids(self, objects));
    }

    /// Install a pre-built object index (swap; see
    /// [`IpTree::attach_objects`]).
    pub(crate) fn install_objects(&self, oi: ObjectIndex) {
        let _serialise = self.objects_update.lock().expect("object update lock");
        *self.objects.write().expect("objects lock") = Some(std::sync::Arc::new(oi));
        self.objects_gen
            .fetch_add(1, std::sync::atomic::Ordering::Release);
    }

    /// The embedded object index snapshot, if any.
    pub fn object_index(&self) -> Option<std::sync::Arc<ObjectIndex>> {
        self.objects.read().expect("objects lock").clone()
    }

    /// The object-snapshot generation: bumped, *after* the swap, by every
    /// object mutation — [`IpTree::attach_objects`],
    /// [`IpTree::apply_object_deltas`], or anything else holding a tree
    /// handle. Result caches key object answers by this stamp, so even
    /// out-of-band mutation through a shared handle invalidates them
    /// structurally.
    pub fn objects_generation(&self) -> u64 {
        self.objects_gen.load(std::sync::atomic::Ordering::Acquire)
    }

    /// k nearest neighbours of `q` (ascending by distance). Empty when no
    /// objects are attached.
    pub fn knn(&self, q: &IndoorPoint, k: usize) -> Vec<(ObjectId, f64)> {
        let mut scratch = self.scratch.checkout();
        self.knn_in(q, k, &mut scratch)
    }

    /// All objects within `radius` of `q` (ascending by distance).
    pub fn range(&self, q: &IndoorPoint, radius: f64) -> Vec<(ObjectId, f64)> {
        let mut scratch = self.scratch.checkout();
        self.range_in(q, radius, &mut scratch)
    }

    /// As [`IpTree::knn`] with caller-owned scratch state.
    pub fn knn_in(
        &self,
        q: &IndoorPoint,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Vec<(ObjectId, f64)> {
        self.knn_query(q, k, scratch)
    }

    /// As [`IpTree::range`] with caller-owned scratch state.
    pub fn range_in(
        &self,
        q: &IndoorPoint,
        radius: f64,
        scratch: &mut QueryScratch,
    ) -> Vec<(ObjectId, f64)> {
        self.range_query(q, radius, scratch)
    }

    /// kNN over the attached object set, from the ascent already recorded
    /// in `scratch.asc_s` (either climber's).
    pub(crate) fn knn_from_ascent(
        &self,
        q: &IndoorPoint,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Vec<(ObjectId, f64)> {
        let Some(oi) = self.object_index() else {
            return Vec::new();
        };
        let oi = &*oi;
        if k == 0 || oi.num_live() == 0 {
            return Vec::new();
        }
        let holds = |n: NodeIdx| oi.subtree_count[n as usize] != 0;
        self.best_first(q, k, oi, holds, |_| true, scratch)
    }

    /// Algorithm 5: the `k >= 1` nearest objects of `oi` that `may_be`
    /// answers, best-first over the ascent already recorded in
    /// `scratch.asc_s`, descending only into children that `may_hold` one.
    /// The two filters are all that tells a plain kNN from a keyword kNN;
    /// neither touches a distance. The walk is counted by `scratch.trace`
    /// when armed.
    pub(crate) fn best_first(
        &self,
        q: &IndoorPoint,
        k: usize,
        oi: &ObjectIndex,
        may_hold: impl Fn(NodeIdx) -> bool,
        may_be: impl Fn(ObjectId) -> bool,
        scratch: &mut QueryScratch,
    ) -> Vec<(ObjectId, f64)> {
        let QueryScratch {
            asc_s,
            arena,
            step_handles,
            child_vec,
            heap,
            best,
            marks,
            leaf_dq,
            leaf_ords,
            leaf_seeds,
            trace,
            ..
        } = scratch;
        let asc = &*asc_s;
        // Current k-best as a max-heap: peek() is d_k.
        best.clear();
        arena.seed(asc, step_handles);
        heap.clear();
        self.seed_frontier(
            asc,
            step_handles,
            f64::INFINITY,
            &may_hold,
            trace,
            |key, node, h| heap.push(Reverse((TotalF64(key), node, h))),
        );

        while let Some(Reverse((TotalF64(mind), node_idx, handle))) = heap.pop() {
            let dk = if best.len() < k {
                f64::INFINITY
            } else {
                best.peek().expect("k >= 1 answers held").0 .0
            };
            if mind > dk {
                break;
            }
            if self.is_leaf(node_idx) {
                let mut kb = 0u64;
                // Tie-break by (distance, id): the k-best set is the k
                // smallest pairs, independent of leaf-scan encounter order
                // — which makes answers byte-identical across physically
                // different layouts of the same live object set
                // (delta-maintained vs rebuilt).
                let mut consider = |o: ObjectId, d: f64| {
                    if may_be(o)
                        && d.is_finite()
                        && (best.len() < k
                            || (TotalF64(d), o) < *best.peek().expect("k >= 1 answers held"))
                    {
                        best.push((TotalF64(d), o));
                        if best.len() > k {
                            best.pop();
                        }
                        kb += 1;
                    }
                };
                self.scan_leaf(
                    q,
                    oi,
                    node_idx,
                    arena.get(handle),
                    asc,
                    dk,
                    marks,
                    leaf_dq,
                    leaf_ords,
                    leaf_seeds,
                    trace,
                    &mut consider,
                );
                if trace.active() {
                    trace.kbest_updates += kb;
                }
                continue;
            }
            // d_k only moves in leaf scans: one bound serves every child.
            self.expand_children(
                node_idx,
                handle,
                dk,
                &may_hold,
                asc,
                arena,
                step_handles,
                child_vec,
                trace,
                |mind, child, h| heap.push(Reverse((TotalF64(mind), child, h))),
            );
        }

        let th = trace.start();
        let mut out: Vec<(ObjectId, f64)> = best.drain().map(|(TotalF64(d), o)| (o, d)).collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        trace.stop_heap(th);
        out
    }

    /// Range over the attached object set, from the ascent already
    /// recorded in `scratch.asc_s`: a plain DFS with the fixed bound
    /// (Algorithm 5 with `d_k = radius`), seeded as kNN is — so a node on
    /// q's path whose exit distance exceeds the radius never offers its
    /// off-path children.
    pub(crate) fn range_from_ascent(
        &self,
        q: &IndoorPoint,
        radius: f64,
        scratch: &mut QueryScratch,
    ) -> Vec<(ObjectId, f64)> {
        let Some(oi) = self.object_index() else {
            return Vec::new();
        };
        let oi = &*oi;
        let QueryScratch {
            asc_s,
            arena,
            step_handles,
            child_vec,
            stack,
            marks,
            leaf_dq,
            leaf_ords,
            leaf_seeds,
            hits,
            trace,
            ..
        } = scratch;
        let asc = &*asc_s;
        hits.clear();
        arena.seed(asc, step_handles);
        let holds = |n: NodeIdx| oi.subtree_count[n as usize] != 0;

        stack.clear();
        self.seed_frontier(asc, step_handles, radius, holds, trace, |key, node, h| {
            stack.push((key, node, h))
        });
        while let Some((mind, node_idx, handle)) = stack.pop() {
            if mind > radius {
                continue;
            }
            if self.is_leaf(node_idx) {
                let mut kb = 0u64;
                self.scan_leaf(
                    q,
                    oi,
                    node_idx,
                    arena.get(handle),
                    asc,
                    radius,
                    marks,
                    leaf_dq,
                    leaf_ords,
                    leaf_seeds,
                    trace,
                    &mut |o, d| {
                        if d <= radius {
                            hits.push((o, d));
                            kb += 1;
                        }
                    },
                );
                if trace.active() {
                    trace.kbest_updates += kb;
                }
                continue;
            }
            self.expand_children(
                node_idx,
                handle,
                radius,
                holds,
                asc,
                arena,
                step_handles,
                child_vec,
                trace,
                |mind, child, h| stack.push((mind, child, h)),
            );
        }
        // The hits are collected in the scratch, so the answer is
        // allocated once, at its final length.
        let th = trace.start();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let out = hits.to_vec();
        trace.stop_heap(th);
        out
    }

    /// dist(q, a') for a' ∈ AD(child) = min over base doors b of
    /// `base_vec[b] + M_parent(b, a')` (Lemmas 8 & 9: both the sibling
    /// case and the outside case route through a known door set whose
    /// pairwise distances live in the parent's matrix). Base rows and
    /// child columns are precomputed ordinal runs ([`crate::Slabs`]), so
    /// the double loop streams one row slice per base door. Writes into
    /// `out` so callers can reuse one scratch buffer across the traversal.
    ///
    /// The fold is in integer ticks: `out[i]` is the entry's distance less
    /// `floor`, the base's least entry, or at least [`ticks::INF`] for ∞.
    /// A reached base entry lies less than 2³¹ ticks above `floor` — two
    /// base doors are at most their stored matrix entry apart, which is
    /// below [`ticks::LIMIT`] — so a finite sum stays below the sentinel
    /// and a sum with an ∞ entry never does, and the fold needs no test
    /// for ∞ (DESIGN.md §16).
    fn derive_child_vec_slab_into(
        &self,
        parent: NodeIdx,
        base_rows: &[u32],
        base_vec: &[u64],
        floor: u64,
        child: NodeIdx,
        out: &mut Vec<u64>,
    ) {
        debug_assert_eq!(base_rows.len(), base_vec.len());
        let cols = self.slabs.kid_cols_of(child);
        out.clear();
        out.resize(cols.len(), u64::from(ticks::INF));
        for (&b, &r) in base_vec.iter().zip(base_rows) {
            if b == ticks::UNREACHED {
                continue;
            }
            let bt = b - floor;
            debug_assert!(bt < u64::from(ticks::LIMIT), "base spread {bt} ticks");
            let row = self.slabs.row(parent, r as usize);
            for (o, &c) in out.iter_mut().zip(cols) {
                let cand = bt + u64::from(row[c as usize]);
                if cand < *o {
                    *o = cand;
                }
            }
        }
    }

    /// Where Algorithm 5 starts, spelled once for the best-first loop and
    /// range's DFS: offer to `push`, as `(key, node, vector handle)`, q's
    /// own leaf at key 0 and every inner node N on q's path as one
    /// deferred entry keyed by `exit(S)`, the minimum of the ascent vector
    /// of N's child S on the path. Popping N later expands only its
    /// off-path children ([`IpTree::expand_children`]), with the `d_k` of
    /// that moment. The key is admissible: a path from q to anything
    /// outside S crosses an access door of S, and every derived entry
    /// `fl(base[b] + M)` is ≥ `base[b]` ≥ `exit(S)`. Entries that cannot
    /// `may_hold` an answer, or whose key exceeds `bound`, are not offered.
    fn seed_frontier(
        &self,
        asc: &Ascent,
        step_handles: &[u32],
        bound: f64,
        may_hold: impl Fn(NodeIdx) -> bool,
        trace: &mut crate::telemetry::QueryTrace,
        mut push: impl FnMut(f64, NodeIdx, u32),
    ) {
        let mut key = 0.0;
        for (step, &h) in asc.steps().iter().zip(step_handles) {
            if key <= bound && may_hold(step.node) {
                push(key, step.node, h);
                if trace.active() {
                    trace.nodes_pushed += 1;
                }
            }
            key = ticks::metres(step.ticks.iter().copied().min().unwrap_or(ticks::UNREACHED));
        }
    }

    /// The child step of Algorithm 5, spelled once for the best-first
    /// loop and range's DFS: offer to `push`, as `(mindist, child, vector
    /// handle)`, every child of the popped `node` (vector `handle`) that
    /// is off q's path, `may_hold` an answer and lies within `bound`.
    /// Children on q's path are already queued by
    /// [`IpTree::seed_frontier`].
    ///
    /// A child's vector is derived from `node`'s matrix — unless
    /// an admissible lower bound already exceeds `bound`: then the child
    /// is counted as pruned without touching a matrix row. The base is
    /// the sibling on q's path when `node` contains q (Lemma 8), else
    /// `node`'s own access doors (Lemma 9); base rows are column ordinals
    /// in `node`'s slab (inner matrices are square, so column ordinals
    /// double as row indices). Bounds, cheapest first: the PL table's O(1)
    /// floor `base_min + kid_lb(child)`, then the per-row fold
    /// `lb = min_bi base[bi] + rowmin(child)[row(bi)]`. The first never
    /// exceeds any derived entry; the second *is* the least one, bit for
    /// bit (fl(b + ·) is monotone, so the row minimum yields the row's
    /// least sum; DESIGN.md §14.3) — so a child that passes is pushed
    /// keyed by `lb`, with no fold over its derived vector.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn expand_children(
        &self,
        node: NodeIdx,
        handle: u32,
        bound: f64,
        may_hold: impl Fn(NodeIdx) -> bool,
        asc: &Ascent,
        arena: &mut DistArena,
        step_handles: &[u32],
        child_vec: &mut Vec<u64>,
        trace: &mut crate::telemetry::QueryTrace,
        mut push: impl FnMut(f64, NodeIdx, u32),
    ) {
        let (base_rows, base_handle, queued) = if asc.on_path(self, node) {
            // Steps are level-indexed: the one below `node`'s is its child
            // on q's path.
            let below = self.level(node) as usize - 2;
            let sib = asc.steps()[below].node;
            (self.slabs.kid_cols_of(sib), step_handles[below], sib)
        } else {
            (self.slabs.own_cols_of(node), handle, crate::NO_NODE)
        };
        for &child in self.children(node) {
            if child == queued || !may_hold(child) {
                continue;
            }
            let base_vec = arena.get(base_handle);
            let rowmin = self.slabs.kid_rowmin_of(child);
            let mut base_min = ticks::UNREACHED;
            let mut lb = ticks::UNREACHED;
            for (&b, &r) in base_vec.iter().zip(base_rows) {
                base_min = base_min.min(b);
                let rm = rowmin[r as usize];
                if b != ticks::UNREACHED && rm != ticks::INF {
                    lb = lb.min(b + u64::from(rm));
                }
            }
            let lb_m = ticks::metres(lb);
            if ticks::metres(base_min) + self.slabs.kid_lb(child) > bound || lb_m > bound {
                if trace.active() {
                    trace.nodes_pruned += 1;
                }
                continue;
            }
            if trace.active() {
                trace.slab_rows += base_rows.len() as u64;
            }
            let floor = if base_min == ticks::UNREACHED {
                0
            } else {
                base_min
            };
            self.derive_child_vec_slab_into(node, base_rows, base_vec, floor, child, child_vec);
            let inf = u64::from(ticks::INF);
            let h = arena.push(child_vec.iter().map(|&t| {
                if t >= inf {
                    ticks::UNREACHED
                } else {
                    t + floor
                }
            }));
            debug_assert_eq!(
                Some(&lb),
                arena.get(h).iter().min().or(Some(&ticks::UNREACHED)),
                "the row-minimum fold is the derived vector's minimum"
            );
            push(lb_m, child, h);
            if trace.active() {
                trace.nodes_pushed += 1;
            }
        }
    }

    /// Report candidate objects of one leaf through `emit(obj, exact_dist)`.
    #[allow(clippy::too_many_arguments)]
    fn scan_leaf(
        &self,
        q: &IndoorPoint,
        oi: &ObjectIndex,
        leaf: NodeIdx,
        vec: &[u64],
        asc: &Ascent,
        bound: f64,
        marks: &mut EpochMarks,
        dq: &mut Vec<f64>,
        ords: &mut Vec<(u32, f64)>,
        seeds: &mut Vec<(u32, u64)>,
        trace: &mut crate::telemetry::QueryTrace,
        emit: &mut dyn FnMut(ObjectId, f64),
    ) {
        let Some(data) = &oi.leaf_data[leaf as usize] else {
            return;
        };
        let venue = &*self.venue;
        if asc.on_path(self, leaf) {
            let t0 = trace.start();
            // q's own leaf: exact distances via the leaf door grid, which
            // replaces the per-query D2D expansion that used to dominate
            // kNN/range latency (DESIGN.md §14.4). The grid builds lazily
            // on this first touch (counted, and billed to the leaf-fold
            // phase by the trace above). Three passes: map every live
            // object's doors to leaf ordinals, beside the object's leg to
            // the door; fold `dq[t]` over q's seeds once per door some
            // object needs (NaN marks "not folded"), in one tight loop so
            // the grid reads' cache misses overlap, in integer ticks with
            // one decode per door; then emit. The legs
            // are independent of each other, so computing them in the
            // first pass keeps their square roots and tick snaps off the
            // emit pass's dependency chain.
            let grid = self.leaf_grid.ensure(self, leaf);
            let ord = |d: u32| self.slabs.leaf_row_of(&self.door_leaves, leaf, d);
            let q_doors = venue.partition(q.partition).doors.iter();
            seeds.clear();
            seeds.extend(q_doors.map(|&d| (ord(d.0), ticks::ticks(q.distance_to_door(venue, d)))));
            let live = || {
                data.objs
                    .iter()
                    .zip(&data.live)
                    .filter(|&(_, &live)| live) // tombstoned by a delta
                    .map(|(&oid, _)| (oid, oi.object(oid)))
            };
            ords.clear();
            for (_, o) in live() {
                let doors = venue.partition(o.partition).doors.iter();
                ords.extend(doors.map(|&d| (ord(d.0), o.distance_to_door(venue, d))));
            }
            dq.clear();
            dq.resize(self.leaf_doors(leaf).len(), f64::NAN);
            for &(t, _) in ords.iter() {
                let t = t as usize;
                if dq[t].is_nan() {
                    let mut best = ticks::UNREACHED;
                    for &(s, st) in seeds.iter() {
                        let v = crate::leafdist::cell(grid, s as usize, t);
                        if v == ticks::INF {
                            continue;
                        }
                        let cand = st + u64::from(v);
                        if cand < best {
                            best = cand;
                        }
                    }
                    dq[t] = ticks::metres(best);
                }
            }
            let mut ords = ords.iter();
            for (oid, o) in live() {
                let mut d = q.direct_distance(venue, o).unwrap_or(f64::INFINITY);
                let n = venue.partition(o.partition).doors.len();
                for &(t, leg) in ords.by_ref().take(n) {
                    let cand = dq[t as usize] + leg;
                    if cand < d {
                        d = cand;
                    }
                }
                emit(oid, d);
            }
            trace.stop_leaf_fold(t0);
            return;
        }

        dq.clear();
        dq.extend(vec.iter().map(|&t| ticks::metres(t)));
        data.emit_candidates(dq, bound, marks, emit);
    }
}

#[cfg(test)]
mod tests {
    use crate::ascent::Climber;
    use crate::telemetry::QueryTrace;
    use crate::tree::VipTreeConfig;
    use crate::{IpTree, KeywordObjects, QueryScratch, VipTree};
    use indoor_graph::DijkstraEngine;
    use indoor_model::{IndoorPoint, Venue};
    use indoor_synth::{presets, random_venue, workload};
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn arena_handles_round_trip() {
        let mut arena = super::DistArena::default();
        let a = arena.push([1, 2]);
        let b = arena.push([]);
        let c = arena.push([3]);
        assert_eq!(arena.get(a), &[1, 2]);
        assert_eq!(arena.get(b), &[] as &[u64]);
        assert_eq!(arena.get(c), &[3]);
    }

    /// Brute force: oracle distance to every object, sorted.
    fn brute_force(
        venue: &indoor_model::Venue,
        engine: &mut DijkstraEngine,
        q: &IndoorPoint,
        objects: &[IndoorPoint],
    ) -> Vec<f64> {
        let mut d: Vec<f64> = objects
            .iter()
            .filter_map(|o| crate::ascent::tests::oracle_distance(venue, engine, q, o))
            .collect();
        d.sort_by(f64::total_cmp);
        d
    }

    /// The venues the laziness tests walk: `random_venue` seeds plus the
    /// Melbourne Central preset.
    fn lazy_venues() -> Vec<Arc<Venue>> {
        let mut venues: Vec<_> = [3u64, 41, 97, 211, 389]
            .into_iter()
            .map(|s| Arc::new(random_venue(s)))
            .collect();
        venues.push(Arc::new(presets::melbourne_central().build()));
        venues
    }

    /// `q`'s distance to the nearest access door of its own leaf: the key
    /// of the first deferred entry.
    fn leaf_exit(tree: &IpTree, q: &IndoorPoint) -> f64 {
        let asc = tree.ascend(q, tree.root());
        let exit = asc.steps()[0].ticks.iter().copied().min();
        crate::ticks::metres(exit.unwrap_or(crate::ticks::UNREACHED))
    }

    /// k objects at q's own position set `d_k = 0` in the own-leaf scan,
    /// before any deferred ancestor is popped, so no child is ever pruned
    /// or derived — on either climber.
    #[test]
    fn k_objects_at_q_check_no_child() {
        let k = 3;
        let mut checked = 0;
        for venue in lazy_venues() {
            let vip = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let others = workload::place_objects(&venue, 20, 0x0A);
            let mut scratch = QueryScratch::new();
            for q in workload::query_points(&venue, 6, 0xA11) {
                // On an access door the first deferred key is 0 = d_k.
                if leaf_exit(vip.ip_tree(), &q) <= 0.0 {
                    continue;
                }
                let mut objects = vec![q; k];
                objects.extend(&others);
                vip.attach_objects(&objects);
                for climber in [vip.ip_tree() as &dyn Climber, &vip] {
                    scratch.trace.begin(true);
                    let got = climber.knn_query(&q, k, &mut scratch);
                    let dists: Vec<f64> = got.iter().map(|&(_, d)| d).collect();
                    assert_eq!(dists, vec![0.0; k], "{q:?}");
                    assert_no_child_pruned_or_derived(&scratch.trace, &q);
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    /// The walk of a query that must not leave q's leaf, as its armed
    /// trace counts it: no child pruned, no slab row read deriving one.
    /// Counts exist only when tracing is compiled in.
    fn assert_no_child_pruned_or_derived(trace: &QueryTrace, q: &IndoorPoint) {
        if trace.active() {
            let walk = (trace.nodes_pruned, trace.slab_rows);
            assert_eq!(walk, (0, 0), "{q:?}: {trace:?}");
        }
    }

    /// A radius below q's leaf exit distance keeps every deferred entry
    /// off the stack: range scans q's leaf alone, prunes or derives no
    /// child, and still answers as brute force does.
    #[test]
    fn range_inside_the_leaf_exit_checks_no_child() {
        let mut checked = 0;
        for venue in lazy_venues() {
            let vip = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let others = workload::place_objects(&venue, 40, 0x0B);
            let mut engine = DijkstraEngine::new(venue.num_doors());
            let mut scratch = QueryScratch::new();
            for q in workload::query_points(&venue, 6, 0xB22) {
                let radius = leaf_exit(vip.ip_tree(), &q) / 2.0;
                if !(radius > 0.0 && radius.is_finite()) {
                    continue;
                }
                let mut objects = vec![q];
                objects.extend(&others);
                vip.attach_objects(&objects);
                let want: Vec<f64> = brute_force(&venue, &mut engine, &q, &objects)
                    .into_iter()
                    .filter(|d| *d <= radius)
                    .collect();
                for climber in [vip.ip_tree() as &dyn Climber, &vip] {
                    scratch.trace.begin(true);
                    let got = climber.range_query(&q, radius, &mut scratch);
                    assert_no_child_pruned_or_derived(&scratch.trace, &q);
                    assert_eq!(
                        got.len(),
                        want.len(),
                        "{q:?} r {radius}: {got:?} vs {want:?}"
                    );
                    for (g, w) in got.iter().zip(&want) {
                        assert!((g.1 - w).abs() < 1e-6 * w.max(1.0), "{got:?} vs {want:?}");
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    /// A label carried only outside q's top-level subtree — under the
    /// root's deferred entry, the last one popped — is still found at its
    /// brute-force distances.
    #[test]
    fn keyword_outside_q_top_subtree_is_found() {
        let mut checked = 0;
        for venue in lazy_venues() {
            let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let points = workload::place_objects(&venue, 40, 0x0C);
            let mut engine = DijkstraEngine::new(venue.num_doors());
            for q in workload::query_points(&venue, 4, 0xC33) {
                let leaf = tree.leaf_of(q.partition);
                if leaf == tree.root() {
                    continue;
                }
                let top = tree.child_towards(tree.root(), leaf);
                let far =
                    |p: &IndoorPoint| tree.ancestors(tree.leaf_of(p.partition)).all(|n| n != top);
                let labelled: Vec<(IndoorPoint, Vec<String>)> = points
                    .iter()
                    .map(|p| (*p, vec![if far(p) { "far" } else { "near" }.to_string()]))
                    .collect();
                let carriers: Vec<IndoorPoint> = points.iter().copied().filter(far).collect();
                if carriers.is_empty() {
                    continue;
                }
                let kw = KeywordObjects::build(&tree, &labelled);
                let got = kw.knn_keyword(&tree, &q, 3, "far");
                let want = brute_force(&venue, &mut engine, &q, &carriers);
                assert_eq!(got.len(), want.len().min(3), "{q:?}");
                for ((o, g), w) in got.iter().zip(&want) {
                    assert!(
                        far(&labelled[o.index()].0),
                        "{o:?} is under q's top subtree"
                    );
                    assert!((g - w).abs() < 1e-6 * w.max(1.0), "{got:?} vs {want:?}");
                }
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn knn_matches_brute_force(seed in 0u64..1_500, k in 1usize..8, n_obj in 1usize..30) {
            let venue = Arc::new(random_venue(seed));
            let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let objects = workload::place_objects(&venue, n_obj, seed ^ 0x0B);
            tree.attach_objects(&objects);
            let mut engine = DijkstraEngine::new(venue.num_doors());

            for q in workload::query_points(&venue, 6, seed ^ 0x5151) {
                let got = tree.knn(&q, k);
                let want = brute_force(&venue, &mut engine, &q, &objects);
                let expect_len = k.min(want.len());
                prop_assert_eq!(got.len(), expect_len, "seed {} q {:?}", seed, q);
                // Bit for bit: lengths are whole ticks (DESIGN.md §16).
                for (i, (_, d)) in got.iter().enumerate() {
                    prop_assert_eq!(d.to_bits(), want[i].to_bits(),
                        "seed {}: rank {} got {} want {}", seed, i, d, want[i]);
                }
                // Distances ascending.
                for w in got.windows(2) {
                    prop_assert!(w[0].1 <= w[1].1 + 1e-12);
                }
            }
        }

        #[test]
        fn range_matches_brute_force(seed in 0u64..1_500, n_obj in 1usize..30) {
            let venue = Arc::new(random_venue(seed));
            let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let objects = workload::place_objects(&venue, n_obj, seed ^ 0x0C);
            tree.attach_objects(&objects);
            let mut engine = DijkstraEngine::new(venue.num_doors());

            for q in workload::query_points(&venue, 5, seed ^ 0xFEED) {
                for radius in [10.0, 60.0, 300.0] {
                    let got = tree.range(&q, radius);
                    let want: Vec<f64> = brute_force(&venue, &mut engine, &q, &objects)
                        .into_iter()
                        .filter(|d| *d <= radius)
                        .collect();
                    prop_assert_eq!(got.len(), want.len(),
                        "seed {} radius {}: got {:?} want {:?}", seed, radius, got, want);
                    for (g, w) in got.iter().zip(&want) {
                        prop_assert!((g.1 - w).abs() < 1e-6 * w.max(1.0));
                    }
                }
            }
        }

        #[test]
        fn vip_knn_agrees_with_ip(seed in 0u64..800) {
            let venue = Arc::new(random_venue(seed));
            let ip = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let vip = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let objects = workload::place_objects(&venue, 15, seed ^ 0x0D);
            ip.attach_objects(&objects);
            vip.attach_objects(&objects);
            for q in workload::query_points(&venue, 4, seed ^ 0xB0B) {
                let a = ip.knn(&q, 5);
                let b = vip.knn(&q, 5);
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    prop_assert!((x.1 - y.1).abs() < 1e-9 * x.1.max(1.0));
                }
            }
        }
    }
}
