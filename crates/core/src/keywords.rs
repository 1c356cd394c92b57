//! Spatial-keyword queries — the §1.3 "high adaptability" claim made
//! concrete: "the proposed indexes can be used to answer spatial keyword
//! queries in indoor space by integrating the inverted lists with the
//! nodes of the tree, e.g., in a way similar to how R-tree is extended to
//! IR-tree".
//!
//! [`KeywordObjects`] embeds labelled objects into an [`IpTree`]: each
//! tree node carries the set of terms present in its subtree (the inverted
//! list), so a keyword-constrained kNN prunes both by distance (Algorithm
//! 5) and by term containment.

use crate::ascent::Ascent;
use crate::exec::{EpochMarks, QueryScratch};
use crate::objects::{DeltaReport, ObjectIndex};
use crate::tree::{IpTree, NodeIdx, NO_NODE};
use geometry::TotalF64;
use indoor_model::{DeltaError, IndoorPoint, ObjectDelta, ObjectId, ObjectUpdate, QueryStats};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Interned term identifier.
pub type TermId = u32;

/// Labelled objects embedded in the tree with per-node inverted lists.
///
/// The per-node lists are **counted** (term → number of live objects in
/// the subtree carrying it) rather than plain sets, so a removal can
/// decrement its terms along one ancestor chain instead of recounting the
/// subtree — [`KeywordObjects::apply_delta`] re-threads the inverted
/// lists for the touched objects only.
#[derive(Debug, Clone)]
pub struct KeywordObjects {
    objects: ObjectIndex,
    terms: HashMap<String, TermId>,
    /// Sorted term ids per object slot (stale in tombstoned slots).
    object_terms: Vec<Vec<TermId>>,
    /// Per node: term → live-object count in the subtree.
    node_terms: Vec<HashMap<TermId, u32>>,
}

impl KeywordObjects {
    /// Build from `(location, labels)` pairs (positional ids).
    pub fn build(tree: &IpTree, objects: &[(IndoorPoint, Vec<String>)]) -> KeywordObjects {
        let triples: Vec<(ObjectId, IndoorPoint, Vec<String>)> = objects
            .iter()
            .enumerate()
            .map(|(i, (p, l))| (ObjectId(i as u32), *p, l.clone()))
            .collect();
        Self::build_with_ids(tree, &triples)
    }

    /// As [`KeywordObjects::build`] with caller-assigned stable ids (ids
    /// may have gaps — e.g. the live set surviving a delta history).
    pub fn build_with_ids(
        tree: &IpTree,
        objects: &[(ObjectId, IndoorPoint, Vec<String>)],
    ) -> KeywordObjects {
        let pairs: Vec<(ObjectId, IndoorPoint)> =
            objects.iter().map(|(id, p, _)| (*id, *p)).collect();
        let oi = ObjectIndex::build_with_ids(tree, &pairs);

        let slots = oi.num_objects();
        let mut terms: HashMap<String, TermId> = HashMap::new();
        let mut object_terms: Vec<Vec<TermId>> = vec![Vec::new(); slots];
        for (id, _, labels) in objects {
            let mut ids: Vec<TermId> = labels
                .iter()
                .map(|l| {
                    let next = terms.len() as TermId;
                    *terms.entry(l.clone()).or_insert(next)
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            object_terms[id.index()] = ids;
        }

        // Counted inverted lists: each object's terms increment every
        // ancestor of its leaf.
        let mut node_terms: Vec<HashMap<TermId, u32>> = vec![HashMap::new(); tree.num_nodes()];
        for (id, p, _) in objects {
            let leaf = tree.leaf_of(p.partition);
            adjust_term_counts(tree, &mut node_terms, leaf, &object_terms[id.index()], 1);
        }

        KeywordObjects {
            objects: oi,
            terms,
            object_terms,
            node_terms,
        }
    }

    /// Absorb labelled object deltas: the point deltas maintain the inner
    /// [`ObjectIndex`] incrementally, and the inverted lists are adjusted
    /// along the touched objects' ancestor chains only. `Insert` takes its
    /// labels from the update; `Move` keeps the object's existing labels;
    /// `Remove` needs none. Validation is atomic (an invalid batch leaves
    /// the index untouched).
    pub fn apply_delta(
        &mut self,
        tree: &IpTree,
        updates: &[ObjectUpdate],
    ) -> Result<DeltaReport, DeltaError> {
        let deltas: Vec<ObjectDelta> = updates.iter().map(|u| u.delta).collect();
        self.objects.validate(tree, &deltas)?;

        let mut report = DeltaReport::default();
        let mut touched: HashSet<NodeIdx> = HashSet::new();
        for update in updates {
            // Capture the pre-delta leaf for decrement paths.
            let old_leaf = match update.delta {
                ObjectDelta::Remove { id } | ObjectDelta::Move { id, .. } => {
                    Some(tree.leaf_of(self.objects.object(id).partition))
                }
                ObjectDelta::Insert { .. } => None,
            };
            let one = self.objects.apply_delta(tree, &[update.delta])?;
            report.inserts += one.inserts;
            report.removes += one.removes;
            report.moves += one.moves;
            report.compactions += one.compactions;
            match update.delta {
                ObjectDelta::Insert { id, at } => {
                    let mut ids: Vec<TermId> = update
                        .labels
                        .iter()
                        .map(|l| {
                            let next = self.terms.len() as TermId;
                            *self.terms.entry(l.clone()).or_insert(next)
                        })
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    if id.index() >= self.object_terms.len() {
                        self.object_terms.resize(id.index() + 1, Vec::new());
                    }
                    self.object_terms[id.index()] = ids;
                    let leaf = tree.leaf_of(at.partition);
                    adjust_term_counts(
                        tree,
                        &mut self.node_terms,
                        leaf,
                        &self.object_terms[id.index()],
                        1,
                    );
                    touched.insert(leaf);
                }
                ObjectDelta::Remove { id } => {
                    let leaf = old_leaf.expect("remove captured its leaf");
                    adjust_term_counts(
                        tree,
                        &mut self.node_terms,
                        leaf,
                        &self.object_terms[id.index()],
                        -1,
                    );
                    touched.insert(leaf);
                }
                ObjectDelta::Move { id, to } => {
                    let from_leaf = old_leaf.expect("move captured its leaf");
                    let to_leaf = tree.leaf_of(to.partition);
                    if from_leaf != to_leaf {
                        adjust_term_counts(
                            tree,
                            &mut self.node_terms,
                            from_leaf,
                            &self.object_terms[id.index()],
                            -1,
                        );
                        adjust_term_counts(
                            tree,
                            &mut self.node_terms,
                            to_leaf,
                            &self.object_terms[id.index()],
                            1,
                        );
                    }
                    touched.insert(from_leaf);
                    touched.insert(to_leaf);
                }
            }
        }
        report.touched_leaves = touched.len();
        Ok(report)
    }

    /// The inner object index (positions, live set, maintenance stats).
    pub fn object_index(&self) -> &ObjectIndex {
        &self.objects
    }

    /// The live `(id, position, labels)` set — the input a from-scratch
    /// [`KeywordObjects::build_with_ids`] needs to reproduce this index
    /// (the state a service snapshot persists). Labels come back sorted
    /// by interned term id, which is deterministic for a given history;
    /// label *sets* are preserved exactly (duplicates were dedup'd at
    /// insert, which queries can't observe).
    pub fn live_labelled(&self) -> Vec<(ObjectId, IndoorPoint, Vec<String>)> {
        let mut label_of: Vec<&str> = vec![""; self.terms.len()];
        for (label, &t) in &self.terms {
            label_of[t as usize] = label;
        }
        self.objects
            .live_pairs()
            .into_iter()
            .map(|(id, p)| {
                let labels = self.object_terms[id.index()]
                    .iter()
                    .map(|&t| label_of[t as usize].to_string())
                    .collect();
                (id, p, labels)
            })
            .collect()
    }

    /// Look up a term (queries with unknown terms return no results).
    pub fn term(&self, label: &str) -> Option<TermId> {
        self.terms.get(label).copied()
    }

    fn object_has(&self, o: ObjectId, term: TermId) -> bool {
        self.object_terms[o.index()].binary_search(&term).is_ok()
    }

    fn subtree_has(&self, n: NodeIdx, term: TermId) -> bool {
        self.node_terms[n as usize].contains_key(&term)
    }

    /// The `k` nearest objects carrying `label`. Distance pruning follows
    /// Algorithm 5; subtrees whose inverted list lacks the term are
    /// skipped entirely.
    pub fn knn_keyword(
        &self,
        tree: &IpTree,
        q: &IndoorPoint,
        k: usize,
        label: &str,
    ) -> Vec<(ObjectId, f64)> {
        let mut scratch = tree.scratch.checkout();
        self.knn_keyword_in(tree, q, k, label, &mut scratch)
    }

    /// As [`KeywordObjects::knn_keyword`] with caller-owned scratch state.
    pub fn knn_keyword_in(
        &self,
        tree: &IpTree,
        q: &IndoorPoint,
        k: usize,
        label: &str,
        scratch: &mut QueryScratch,
    ) -> Vec<(ObjectId, f64)> {
        let Some(term) = self.term(label) else {
            return Vec::new();
        };
        if k == 0 {
            return Vec::new();
        }
        tree.ascend_into(q, tree.root(), &mut scratch.asc_s);
        let QueryScratch {
            asc_s,
            arena,
            step_handles,
            child_vec,
            heap,
            best,
            marks,
            leaf_dq,
            trace,
            ..
        } = scratch;
        let asc = &*asc_s;
        arena.seed(asc, step_handles);

        best.clear();
        let dk = |best: &BinaryHeap<(TotalF64, ObjectId)>| {
            if best.len() < k {
                f64::INFINITY
            } else {
                best.peek().unwrap().0 .0
            }
        };

        // The shared child step counts bound checks; this query has no
        // stats surface to report them on.
        let mut unread_stats = QueryStats::default();
        heap.clear();
        heap.push(Reverse((
            TotalF64(0.0),
            tree.root(),
            *step_handles.last().expect("ascent is non-empty"),
        )));
        if trace.active() {
            trace.nodes_pushed += 1;
        }
        while let Some(Reverse((TotalF64(mind), node_idx, handle))) = heap.pop() {
            if mind > dk(best) {
                break;
            }
            let node = tree.node(node_idx);
            if node.is_leaf() {
                self.scan_keyword_leaf(
                    tree,
                    q,
                    node_idx,
                    arena.get(handle),
                    asc,
                    term,
                    k,
                    marks,
                    leaf_dq,
                    trace,
                    best,
                );
                continue;
            }
            for &child in &node.children {
                if !self.subtree_has(child, term) {
                    continue; // inverted-list pruning
                }
                if let Some(step) = asc.step_for(tree, child) {
                    let h = step_handles[tree.node(step.node).level as usize - 1];
                    heap.push(Reverse((TotalF64(0.0), child, h)));
                    if trace.active() {
                        trace.nodes_pushed += 1;
                    }
                    continue;
                }
                if !tree.derive_child_vec_bounded(
                    node_idx,
                    child,
                    handle,
                    asc,
                    arena,
                    step_handles,
                    dk(best),
                    &mut unread_stats,
                    trace,
                    child_vec,
                ) {
                    continue;
                }
                let mind_c = child_vec.iter().copied().fold(f64::INFINITY, f64::min);
                if mind_c <= dk(best) {
                    let h = arena.push(child_vec);
                    heap.push(Reverse((TotalF64(mind_c), child, h)));
                    if trace.active() {
                        trace.nodes_pushed += 1;
                    }
                } else if trace.active() {
                    trace.nodes_pruned += 1;
                }
            }
        }

        let th = trace.start();
        let mut out: Vec<(ObjectId, f64)> = best.drain().map(|(TotalF64(d), o)| (o, d)).collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        trace.stop_heap(th);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn scan_keyword_leaf(
        &self,
        tree: &IpTree,
        q: &IndoorPoint,
        leaf: NodeIdx,
        vec: &[f64],
        asc: &Ascent,
        term: TermId,
        k: usize,
        marks: &mut EpochMarks,
        dq: &mut Vec<f64>,
        trace: &mut crate::telemetry::QueryTrace,
        best: &mut BinaryHeap<(TotalF64, ObjectId)>,
    ) {
        let bound = if best.len() < k {
            f64::INFINITY
        } else {
            best.peek().unwrap().0 .0
        };
        let mut kb = 0u64;
        let mut emit = |o: ObjectId, d: f64| {
            if !self.object_has(o, term) || !d.is_finite() {
                return;
            }
            // (distance, id) tie-break — see `IpTree::knn_from_ascent`.
            if best.len() < k || (TotalF64(d), o) < *best.peek().unwrap() {
                best.push((TotalF64(d), o));
                if best.len() > k {
                    best.pop();
                }
                kb += 1;
            }
        };
        tree.scan_leaf(
            q,
            &self.objects,
            leaf,
            vec,
            asc,
            bound,
            marks,
            dq,
            trace,
            &mut emit,
        );
        if trace.active() {
            trace.kbest_updates += kb;
        }
    }
}

/// Add `delta` to the counts of `terms` in `leaf` and every ancestor,
/// dropping entries that reach zero (so `subtree_has` stays a plain
/// membership probe).
fn adjust_term_counts(
    tree: &IpTree,
    node_terms: &mut [HashMap<TermId, u32>],
    leaf: NodeIdx,
    terms: &[TermId],
    delta: i64,
) {
    let mut cur = leaf;
    loop {
        let counts = &mut node_terms[cur as usize];
        for &t in terms {
            let c = counts.entry(t).or_insert(0);
            *c = (*c as i64 + delta) as u32;
            if *c == 0 {
                counts.remove(&t);
            }
        }
        let parent = tree.node(cur).parent;
        if parent == NO_NODE {
            break;
        }
        cur = parent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::VipTreeConfig;
    use indoor_synth::{random_venue, workload};
    use std::sync::Arc;

    fn label_for(i: usize) -> Vec<String> {
        match i % 3 {
            0 => vec!["washroom".into()],
            1 => vec!["atm".into(), "kiosk".into()],
            _ => vec!["kiosk".into()],
        }
    }

    #[test]
    fn keyword_knn_matches_filtered_brute_force() {
        for seed in [3u64, 41, 777] {
            let venue = Arc::new(random_venue(seed));
            let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let points = workload::place_objects(&venue, 18, seed);
            let labelled: Vec<(indoor_model::IndoorPoint, Vec<String>)> = points
                .iter()
                .enumerate()
                .map(|(i, p)| (*p, label_for(i)))
                .collect();
            let kw = KeywordObjects::build(&tree, &labelled);

            // Unfiltered index for ground-truth distances.
            let plain = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            plain.attach_objects(&points);

            for q in workload::query_points(&venue, 6, seed ^ 0xE) {
                for label in ["washroom", "atm", "kiosk", "missing"] {
                    let got = kw.knn_keyword(&tree, &q, 3, label);
                    // Brute force: all objects ranked, filtered by label.
                    let all = plain.knn(&q, points.len());
                    let want: Vec<(ObjectId, f64)> = all
                        .into_iter()
                        .filter(|(o, _)| labelled[o.index()].1.iter().any(|l| l == label))
                        .take(3)
                        .collect();
                    assert_eq!(got.len(), want.len(), "label {label} seed {seed}");
                    for (g, w) in got.iter().zip(&want) {
                        assert!(
                            (g.1 - w.1).abs() < 1e-9 * g.1.max(1.0),
                            "label {label}: {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_term_returns_empty() {
        let venue = Arc::new(random_venue(5));
        let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
        let kw = KeywordObjects::build(&tree, &[]);
        let q = workload::query_points(&venue, 1, 1)[0];
        assert!(kw.knn_keyword(&tree, &q, 3, "anything").is_empty());
    }
}
