//! G-tree shortest distance / path with multi-leaf indoor endpoints.

use crate::build::GTree;
use crate::scratch::GAscentBuf;
use graph_partition::NO_H;
use indoor_model::{DoorId, IndoorPath, IndoorPoint};

/// Distances from a seed set to the borders of one hierarchy node, with
/// provenance for path replay.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeVec {
    /// Aligned with `h.nodes[node].borders`.
    pub dists: Vec<f64>,
    /// Where each minimum came from: a seed vertex (leaf level) or a
    /// (child, border index) pair.
    pub prov: Vec<Prov>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Prov {
    Seed { vertex: u32 },
    Child { node: u32, idx: u32 },
}

impl Default for Prov {
    fn default() -> Prov {
        Prov::Seed { vertex: u32::MAX }
    }
}

impl GTree {
    /// Multi-seed ascent: distances from the seed set (a point expanded
    /// through its partition's doors) to the borders of every node on the
    /// union of leaf→root chains. Writes into the reused `asc` buffers —
    /// no per-query allocation once the scratch is warm — and visits
    /// leaves in sorted order, so the chain walk is deterministic (the
    /// old hash-map grouping was not).
    pub(crate) fn ascend_into(&self, seeds: &[(u32, f64)], asc: &mut GAscentBuf) {
        let h = &self.h;
        asc.begin(h.nodes.len());
        let mut seed_buf = std::mem::take(&mut asc.seed_buf);
        let mut on_chain = std::mem::take(&mut asc.on_chain);
        let mut col_buf = std::mem::take(&mut asc.col_buf);

        // Group seeds by leaf (stable sort keeps within-leaf seed order).
        seed_buf.clear();
        for &(v, d) in seeds {
            seed_buf.push((h.leaf_of_vertex[v as usize], v, d));
        }
        seed_buf.sort_by_key(|e| e.0);
        for e in &seed_buf {
            if asc.leaves.last() != Some(&e.0) {
                asc.leaves.push(e.0);
            }
        }

        // Union of leaf→root chains, processed deepest-first. Once a walk
        // meets a node already collected, its remaining ancestors are
        // known to be present (every chain runs to the root).
        on_chain.clear();
        for &l in &asc.leaves {
            let mut cur = l;
            loop {
                if on_chain.contains(&cur) {
                    break;
                }
                on_chain.push(cur);
                let parent = h.nodes[cur as usize].parent;
                if parent == NO_H {
                    break;
                }
                cur = parent;
            }
        }
        on_chain.sort_by_key(|&n| std::cmp::Reverse(h.nodes[n as usize].depth));

        for &n in &on_chain {
            let node = &h.nodes[n as usize];
            let m = &self.matrices[n as usize];
            let borders = &node.borders;
            // Column ordinals of the node's own borders, hoisted out of
            // the per-entry loops (the old code binary-searched per
            // element).
            col_buf.clear();
            col_buf.extend(
                borders
                    .iter()
                    .map(|&b| m.col_index(b).expect("border in own matrix") as u32),
            );
            let (map, done, nv) = asc.push_node(n, borders.len());

            if node.is_leaf() {
                let lo = seed_buf.partition_point(|e| e.0 < n);
                let hi = seed_buf.partition_point(|e| e.0 <= n);
                for &(_, v, d0) in &seed_buf[lo..hi] {
                    let ri = m.row_index(v).expect("seed vertex in its leaf");
                    for (bi, &ci) in col_buf.iter().enumerate() {
                        let cand = d0 + m.at(ri, ci as usize);
                        if cand < nv.dists[bi] {
                            nv.dists[bi] = cand;
                            nv.prov[bi] = Prov::Seed { vertex: v };
                        }
                    }
                }
            } else {
                for &c in &node.children {
                    let Some(cs) = map.get(c) else {
                        continue; // child not on any seed chain
                    };
                    let cvec = &done[cs as usize];
                    let cborders = &h.nodes[c as usize].borders;
                    for (xi, &x) in cborders.iter().enumerate() {
                        if !cvec.dists[xi].is_finite() {
                            continue;
                        }
                        let ri = m.row_index(x).expect("child border in inner matrix");
                        for (bi, &ci) in col_buf.iter().enumerate() {
                            let cand = cvec.dists[xi] + m.at(ri, ci as usize);
                            if cand < nv.dists[bi] {
                                nv.dists[bi] = cand;
                                nv.prov[bi] = Prov::Child {
                                    node: c,
                                    idx: xi as u32,
                                };
                            }
                        }
                    }
                }
            }
        }

        asc.seed_buf = seed_buf;
        asc.on_chain = on_chain;
        asc.col_buf = col_buf;
    }

    /// Cross-region distance: combine the two ascents at every common
    /// chain node through that node's matrix. Returns the best value and
    /// the meeting description for path recovery. `col_buf` hoists the
    /// target-side column ordinals once per (node, child) pair.
    pub(crate) fn combine(
        &self,
        asc_s: &GAscentBuf,
        asc_t: &GAscentBuf,
        col_buf: &mut Vec<u32>,
    ) -> Option<(f64, Meeting)> {
        let h = &self.h;
        let mut best = f64::INFINITY;
        let mut meeting = None;
        for &x in &asc_s.nodes {
            if !asc_t.contains(x) {
                continue;
            }
            let m = &self.matrices[x as usize];
            // Children of x on each side (leaves have none: skipped — the
            // shared-leaf case is handled by the caller's Dijkstra).
            let node = &h.nodes[x as usize];
            for &ct in &node.children {
                let Some(vt) = asc_t.get(ct) else {
                    continue;
                };
                let bt = &h.nodes[ct as usize].borders;
                col_buf.clear();
                col_buf.extend(
                    bt.iter()
                        .map(|&yv| m.col_index(yv).expect("child border in matrix") as u32),
                );
                for &cs in &node.children {
                    if cs == ct {
                        continue;
                    }
                    let Some(vs) = asc_s.get(cs) else {
                        continue;
                    };
                    let bs = &h.nodes[cs as usize].borders;
                    for (xi, &xv) in bs.iter().enumerate() {
                        if !vs.dists[xi].is_finite() {
                            continue;
                        }
                        let ri = m.row_index(xv).expect("child border in matrix");
                        for (yi, &ci) in col_buf.iter().enumerate() {
                            if !vt.dists[yi].is_finite() {
                                continue;
                            }
                            let cand = vs.dists[xi] + m.at(ri, ci as usize) + vt.dists[yi];
                            if cand < best {
                                best = cand;
                                meeting = Some(Meeting {
                                    node: x,
                                    cs,
                                    ct,
                                    xi,
                                    yi,
                                });
                            }
                        }
                    }
                }
            }
        }
        meeting.map(|mt| (best, mt))
    }

    pub fn shortest_distance_points(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<f64> {
        let venue = &*self.venue;
        let s_seeds = s.door_seeds(venue);
        let t_seeds = t.door_seeds(venue);
        if self.shares_leaf(&s_seeds, &t_seeds) {
            let mut engine = self.engines.checkout();
            return s.route_to(venue, t, &mut engine).map(|(d, _)| d);
        }
        let direct = s.direct_distance(venue, t);
        let mut scratch = self.scratch.checkout();
        let sc = &mut *scratch;
        self.ascend_into(&s_seeds, &mut sc.asc_s);
        self.ascend_into(&t_seeds, &mut sc.asc_t);
        let tree = self
            .combine(&sc.asc_s, &sc.asc_t, &mut sc.col_buf)
            .map(|(d, _)| d);
        match (direct, tree) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    pub fn shortest_path_points(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<IndoorPath> {
        let venue = &*self.venue;
        let s_seeds = s.door_seeds(venue);
        let t_seeds = t.door_seeds(venue);
        if self.shares_leaf(&s_seeds, &t_seeds) {
            return s.path_to(venue, t, &mut self.engines.checkout());
        }
        let direct = s.direct_distance(venue, t);

        let mut scratch = self.scratch.checkout();
        let sc = &mut *scratch;
        self.ascend_into(&s_seeds, &mut sc.asc_s);
        self.ascend_into(&t_seeds, &mut sc.asc_t);
        let Some((best, mt)) = self.combine(&sc.asc_s, &sc.asc_t, &mut sc.col_buf) else {
            return finish_path(*s, *t, direct, None);
        };
        if let Some(d) = direct {
            if d <= best {
                return finish_path(*s, *t, Some(d), None);
            }
        }

        // Replay: s → x (via asc_s at child cs), x → y (matrix of mt.node),
        // y → t (asc_t at ct, reversed).
        let x = self.h.nodes[mt.cs as usize].borders[mt.xi];
        let y = self.h.nodes[mt.ct as usize].borders[mt.yi];
        let mut seq: Vec<u32> = Vec::new();
        self.replay_chain(&sc.asc_s, mt.cs, mt.xi, &mut seq);
        debug_assert_eq!(seq.last(), Some(&x));
        let mid = self.expand_pair(x, y, Some(mt.node));
        seq.extend_from_slice(&mid[1..]);
        let mut tail: Vec<u32> = Vec::new();
        self.replay_chain(&sc.asc_t, mt.ct, mt.yi, &mut tail);
        tail.reverse();
        debug_assert_eq!(tail.first(), Some(&y));
        seq.extend_from_slice(&tail[1..]);
        seq.dedup();

        let doors: Vec<DoorId> = seq.into_iter().map(DoorId).collect();
        finish_path(*s, *t, None, Some((best, doors)))
    }

    fn shares_leaf(&self, s_seeds: &[(u32, f64)], t_seeds: &[(u32, f64)]) -> bool {
        s_seeds.iter().any(|&(v, _)| {
            let l = self.h.leaf_of_vertex[v as usize];
            t_seeds
                .iter()
                .any(|&(u, _)| self.h.leaf_of_vertex[u as usize] == l)
        })
    }

    /// Emit the full expanded vertex sequence seed → border `bi` of node
    /// `n` (inclusive) into `out`.
    fn replay_chain(&self, asc: &GAscentBuf, n: u32, bi: usize, out: &mut Vec<u32>) {
        let vec = asc.get(n).expect("replayed node on ascent chain");
        let border = self.h.nodes[n as usize].borders[bi];
        match vec.prov[bi] {
            Prov::Seed { vertex } => {
                debug_assert_ne!(vertex, u32::MAX);
                let leaf_seq = self.expand_pair(vertex, border, Some(n));
                extend_dedup(out, &leaf_seq);
            }
            Prov::Child { node, idx } => {
                self.replay_chain(asc, node, idx as usize, out);
                let from = self.h.nodes[node as usize].borders[idx as usize];
                let seg = self.expand_pair(from, border, Some(n));
                extend_dedup(out, &seg);
            }
        }
    }

    /// Expand a vertex pair into its full shortest-path vertex sequence
    /// using the next-hop matrices (context-tracked; analogous to the
    /// IP-tree's Algorithm 4 implementation — see that crate's `path`
    /// module for the reasoning).
    pub(crate) fn expand_pair(&self, a: u32, b: u32, ctx: Option<u32>) -> Vec<u32> {
        if a == b {
            return vec![a];
        }
        if !self.border_flag[a as usize] && !self.border_flag[b as usize] {
            return vec![a, b]; // final edge (Lemma-6 analogue)
        }
        let mut banned: Vec<u32> = Vec::new();
        let mut ctx = ctx;
        loop {
            let node_idx = match ctx.take() {
                Some(n) if !banned.contains(&n) && self.matrix_has_pair(n, a, b) => n,
                _ => match self.lowest_common_matrix(a, b, &banned) {
                    Some(n) => n,
                    None => return self.dijkstra_expand(a, b),
                },
            };
            let m = &self.matrices[node_idx as usize];
            let Some((ri, ci)) = m.row_index(a).zip(m.col_index(b)) else {
                let mut rev = self.expand_pair(b, a, Some(node_idx));
                rev.reverse();
                return rev;
            };
            match m.hop_at(ri, ci) {
                Some(k) if k != a && k != b => {
                    let mut left = self.expand_pair(a, k, Some(node_idx));
                    let right = self.expand_pair(k, b, Some(node_idx));
                    left.extend_from_slice(&right[1..]);
                    return left;
                }
                _ => {
                    if self.h.nodes[node_idx as usize].is_leaf() {
                        return vec![a, b];
                    }
                    banned.push(node_idx);
                }
            }
        }
    }

    fn matrix_has_pair(&self, n: u32, a: u32, b: u32) -> bool {
        let m = &self.matrices[n as usize];
        (m.row_index(a).is_some() && m.col_index(b).is_some())
            || (m.row_index(b).is_some() && m.col_index(a).is_some())
    }

    fn matrix_chain(&self, v: u32, out: &mut Vec<u32>) {
        out.clear();
        let leaf = self.h.leaf_of_vertex[v as usize];
        out.push(leaf);
        let mut cur = leaf;
        loop {
            let node = &self.h.nodes[cur as usize];
            if node.borders.binary_search(&v).is_err() {
                break;
            }
            let parent = node.parent;
            if parent == NO_H {
                break;
            }
            if !out.contains(&parent) {
                out.push(parent);
            }
            cur = parent;
        }
    }

    fn lowest_common_matrix(&self, a: u32, b: u32, banned: &[u32]) -> Option<u32> {
        let mut ca = Vec::new();
        let mut cb = Vec::new();
        self.matrix_chain(a, &mut ca);
        self.matrix_chain(b, &mut cb);
        ca.iter()
            .filter(|n| cb.contains(n) && !banned.contains(n) && self.matrix_has_pair(**n, a, b))
            .copied()
            .max_by_key(|&n| self.h.nodes[n as usize].depth)
    }

    fn dijkstra_expand(&self, a: u32, b: u32) -> Vec<u32> {
        self.fallbacks
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut engine = self.engines.checkout();
        engine.run(self.venue.d2d(), &[(a, 0.0)], &[b]);
        engine.path_to(b).expect("b is settled")
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Meeting {
    pub node: u32,
    pub cs: u32,
    pub ct: u32,
    pub xi: usize,
    pub yi: usize,
}

fn extend_dedup(out: &mut Vec<u32>, seg: &[u32]) {
    for &v in seg {
        if out.last() != Some(&v) {
            out.push(v);
        }
    }
}

fn finish_path(
    s: IndoorPoint,
    t: IndoorPoint,
    direct: Option<f64>,
    via: Option<(f64, Vec<DoorId>)>,
) -> Option<IndoorPath> {
    match (direct, via) {
        (Some(d), Some((vd, doors))) if vd < d => Some(IndoorPath {
            source: s,
            target: t,
            doors,
            length: vd,
        }),
        (Some(d), _) => Some(IndoorPath {
            source: s,
            target: t,
            doors: Vec::new(),
            length: d,
        }),
        (None, Some((vd, doors))) => Some(IndoorPath {
            source: s,
            target: t,
            doors,
            length: vd,
        }),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use crate::{GTree, GTreeConfig};
    use indoor_graph::DijkstraEngine;
    use indoor_model::{IndoorIndex, IndoorPoint, Venue};
    use indoor_synth::{random_venue, workload};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn oracle(
        venue: &Venue,
        engine: &mut DijkstraEngine,
        s: &IndoorPoint,
        t: &IndoorPoint,
    ) -> Option<f64> {
        let direct = s.direct_distance(venue, t);
        let via = engine
            .point_to_point(venue.d2d(), &s.door_seeds(venue), &t.door_seeds(venue))
            .map(|(d, _)| d);
        match (direct, via) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn gtree_matches_oracle(seed in 0u64..1_500, tau in 4usize..40) {
            let venue = Arc::new(random_venue(seed));
            let cfg = GTreeConfig { tau, ..Default::default() };
            let tree = GTree::build(venue.clone(), &cfg);
            let mut engine = DijkstraEngine::new(venue.num_doors());
            for (s, t) in workload::query_pairs(&venue, 15, seed ^ 0x6E) {
                let want = oracle(&venue, &mut engine, &s, &t);
                let got = tree.shortest_distance(&s, &t);
                match (want, got) {
                    (Some(w), Some(g)) => prop_assert!((w - g).abs() < 1e-6 * w.max(1.0),
                        "seed {seed} tau {tau}: got {g} want {w}"),
                    (None, None) => {}
                    _ => prop_assert!(false, "reachability mismatch"),
                }
            }
        }

        #[test]
        fn gtree_paths_valid(seed in 0u64..1_000) {
            let venue = Arc::new(random_venue(seed));
            let tree = GTree::build(venue.clone(), &GTreeConfig { tau: 12, ..Default::default() });
            for (s, t) in workload::query_pairs(&venue, 12, seed ^ 0x6F) {
                let Some(p) = tree.shortest_path(&s, &t) else { continue };
                let len = p.validate(&venue).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                prop_assert!((len - p.length).abs() < 1e-6 * len.max(1.0));
                let sd = tree.shortest_distance(&s, &t).unwrap();
                prop_assert!((sd - p.length).abs() < 1e-9 * sd.max(1.0));
            }
        }
    }
}
