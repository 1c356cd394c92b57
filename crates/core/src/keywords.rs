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

use crate::exec::QueryScratch;
use crate::objects::{DeltaReport, ObjectIndex};
use crate::tree::{IpTree, NodeIdx};
use indoor_model::{DeltaError, IndoorPoint, ObjectDelta, ObjectId, ObjectUpdate};
use std::collections::{HashMap, HashSet};

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
        tree.best_first(
            q,
            k,
            &self.objects,
            |n| self.subtree_has(n, term),
            |o| self.object_has(o, term),
            scratch,
        )
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
    for n in tree.ancestors(leaf) {
        let counts = &mut node_terms[n as usize];
        for &t in terms {
            let c = counts.entry(t).or_insert(0);
            *c = (*c as i64 + delta) as u32;
            if *c == 0 {
                counts.remove(&t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ascent::Climber;
    use crate::tree::VipTreeConfig;
    use crate::VipTree;
    use indoor_synth::{presets, random_venue, workload};
    use proptest::prelude::*;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The keyword walk is the kNN walk plus two filters that touch
        /// no distance: when every object carries the label they pass
        /// everything, so keyword kNN is plain kNN bit for bit — before
        /// and after the same delta history on both stores — and a label
        /// nothing carries (any more) answers empty.
        #[test]
        fn every_object_labelled_is_plain_knn(
            seed in 0u64..2_000,
            ops in proptest::collection::vec((0u8..3, 0usize..1_000, 0usize..40), 0..24),
        ) {
            let venue = Arc::new(random_venue(seed));
            let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let pool = workload::place_objects(&venue, 40, seed ^ 0x7);
            let all = || vec!["all".to_string()];
            let mut labelled: Vec<_> = pool[..20].iter().map(|p| (*p, all())).collect();
            labelled[0].1.push("rare".into());
            tree.attach_objects(&pool[..20]);
            let mut kw = KeywordObjects::build(&tree, &labelled);

            // One history for both stores. It opens by removing the only
            // carrier of "rare" and never empties the live set.
            let mut live: Vec<u32> = (1..20).collect();
            let mut history = vec![ObjectDelta::Remove { id: ObjectId(0) }];
            for &(op, pick, at) in &ops {
                let slot = pick % live.len();
                let (fresh, to) = (ObjectId(20 + history.len() as u32), pool[at]);
                history.push(match op {
                    1 if live.len() > 1 => ObjectDelta::Remove { id: ObjectId(live.swap_remove(slot)) },
                    2 => ObjectDelta::Move { id: ObjectId(live[slot]), to },
                    _ => {
                        live.push(fresh.0);
                        ObjectDelta::Insert { id: fresh, at: to }
                    }
                });
            }

            let bits = |v: Vec<(ObjectId, f64)>| -> Vec<(u32, u64)> {
                v.into_iter().map(|(o, d)| (o.0, d.to_bits())).collect()
            };
            let mut scratch = QueryScratch::new();
            for (gone, history) in [("never-seen", history), ("rare", Vec::new())] {
                for q in workload::query_points(&venue, 5, seed ^ 0x51) {
                    for k in [1, 3, 10, 64] {
                        let plain = tree.knn_in(&q, k, &mut scratch);
                        let keyed = kw.knn_keyword_in(&tree, &q, k, "all", &mut scratch);
                        prop_assert_eq!(bits(keyed), bits(plain), "seed {} k {}", seed, k);
                        let none = kw.knn_keyword_in(&tree, &q, k, gone, &mut scratch);
                        prop_assert!(none.is_empty(), "seed {}: {:?} carry {}", seed, none, gone);
                    }
                }
                tree.apply_object_deltas(&history).unwrap();
                let labelled: Vec<ObjectUpdate> = history
                    .into_iter()
                    .map(|delta| ObjectUpdate { delta, labels: all() })
                    .collect();
                kw.apply_delta(&tree, &labelled).unwrap();
            }
        }
    }

    /// Keyword kNN from the VIP climb's ascent (door tables) is keyword
    /// kNN from the IP climb's (matrix walk), bit for bit: both sum the
    /// same whole ticks, in different orders (DESIGN.md §16).
    #[test]
    fn keyword_knn_from_the_vip_climb_is_the_ip_climb() {
        let mut venues: Vec<_> = [3u64, 41, 97, 211, 389, 777, 1234, 4096]
            .into_iter()
            .map(|s| Arc::new(random_venue(s)))
            .collect();
        venues.push(Arc::new(presets::melbourne_central().build()));
        let mut scratch = QueryScratch::new();
        for (i, venue) in venues.into_iter().enumerate() {
            let vip = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let tree = vip.ip_tree();
            let labelled: Vec<_> = workload::place_objects(&venue, 40, i as u64)
                .into_iter()
                .enumerate()
                .map(|(i, p)| (p, label_for(i)))
                .collect();
            let kw = KeywordObjects::build(tree, &labelled);
            for q in workload::query_points(&venue, 20, i as u64 ^ 0x3C) {
                for label in ["washroom", "atm", "kiosk"] {
                    let term = kw.term(label).unwrap();
                    let ip = kw.knn_keyword_in(tree, &q, 5, label, &mut scratch);
                    vip.ascend_to_root(&q, &mut scratch.asc_s);
                    let from_vip = tree.best_first(
                        &q,
                        5,
                        &kw.objects,
                        |n| kw.subtree_has(n, term),
                        |o| kw.object_has(o, term),
                        &mut scratch,
                    );
                    let bits = |v: &[(ObjectId, f64)]| -> Vec<(u32, u64)> {
                        v.iter().map(|&(o, d)| (o.0, d.to_bits())).collect()
                    };
                    assert_eq!(bits(&from_vip), bits(&ip), "venue {i} {q:?} {label}");
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
