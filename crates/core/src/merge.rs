//! Algorithm 1: merging the nodes of one level into the next (§2.1.2
//! step 2).
//!
//! Nodes are kept in a min-heap keyed by (degree, number of adjacent
//! nodes): the paper merges low-degree nodes first and, among equals,
//! prefers nodes with few merge partners. A popped node merges with the
//! adjacent node sharing the greatest number of common access doors —
//! merging such pairs minimises the parent's access-door count, since
//! common access doors become interior (`|AD| = |AD1| + |AD2| − 2·|AD1 ∩
//! AD2|`). The pass ends when every remaining node has degree ≥ t.

use crate::tree::NO_NODE;
use indoor_model::{DoorId, Venue};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A node-in-progress at some level of the tree.
#[derive(Debug, Clone)]
pub(crate) struct ProtoNode {
    /// Sorted access doors.
    pub access_doors: Vec<DoorId>,
    /// Indices of the previous-level nodes merged into this one. For level
    /// 1 protos (leaves) this is the singleton leaf index.
    pub members: Vec<u32>,
}

/// Union-find over the protos of the current level.
struct GroupSet {
    parent: Vec<u32>,
}

impl GroupSet {
    fn new(n: usize) -> Self {
        GroupSet {
            parent: (0..n as u32).collect(),
        }
    }
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let up = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = up;
            x = up;
        }
        x
    }
    fn union_into(&mut self, child: u32, root: u32) {
        let c = self.find(child);
        self.parent[c as usize] = root;
    }
}

/// Output of one merge pass.
pub(crate) struct MergeOutcome {
    /// The next level's nodes; `members` index into the input slice.
    pub next: Vec<ProtoNode>,
    /// For each door: which next-level nodes (≤ 2) contain it.
    pub door_nodes: Vec<[u32; 2]>,
}

/// One `createNextLevel` pass. `door_nodes` gives, per door, the (≤ 2)
/// current-level protos containing it ([`NO_NODE`] padding).
pub(crate) fn create_next_level(
    venue: &Venue,
    protos: &[ProtoNode],
    door_nodes: &[[u32; 2]],
    t: usize,
) -> MergeOutcome {
    let n = protos.len();
    let mut groups = GroupSet::new(n);
    let mut degree: Vec<u32> = vec![1; n];
    let mut access: Vec<Vec<DoorId>> = protos.iter().map(|p| p.access_doors.clone()).collect();
    // Groups that found no merge partner (isolated components) are parked.
    let mut parked: Vec<bool> = vec![false; n];

    // Roots of the door's containing groups right now.
    let door_roots = |groups: &mut GroupSet, d: DoorId| -> [u32; 2] {
        let [a, b] = door_nodes[d.index()];
        [
            if a == NO_NODE {
                NO_NODE
            } else {
                groups.find(a)
            },
            if b == NO_NODE {
                NO_NODE
            } else {
                groups.find(b)
            },
        ]
    };

    // Distinct neighbouring group roots of `g` (via its access doors).
    let neighbors = |groups: &mut GroupSet, access: &[Vec<DoorId>], g: u32| -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for &d in &access[g as usize] {
            for r in door_roots(groups, d) {
                if r != NO_NODE && r != g && !out.contains(&r) {
                    out.push(r);
                }
            }
        }
        out
    };

    let mut heap: BinaryHeap<Reverse<(u32, u32, u32)>> = BinaryHeap::new();
    for g in 0..n as u32 {
        let nadj = neighbors(&mut groups, &access, g).len() as u32;
        heap.push(Reverse((1, nadj, g)));
    }

    while let Some(Reverse((deg, _nadj, g))) = heap.pop() {
        // Skip stale entries (merged away, parked, or outdated degree).
        if groups.find(g) != g || parked[g as usize] || degree[g as usize] != deg {
            continue;
        }
        if deg >= t as u32 {
            break; // heap minimum reached t: every live group is done
        }
        // Partner with the most common access doors (Algorithm 1 line 4).
        let mut best: Option<(u32, usize)> = None;
        for nb in neighbors(&mut groups, &access, g) {
            if parked[nb as usize] {
                continue;
            }
            let common = count_common(&access[g as usize], &access[nb as usize]);
            let better = match best {
                None => true,
                Some((bg, bc)) => common > bc || (common == bc && nb < bg),
            };
            if better {
                best = Some((nb, common));
            }
        }
        let Some((partner, _)) = best else {
            parked[g as usize] = true; // isolated: moves up unmerged
            continue;
        };

        // Merge `partner` into `g` (g stays the root label).
        groups.union_into(partner, g);
        degree[g as usize] += degree[partner as usize];
        let mut candidates = std::mem::take(&mut access[g as usize]);
        candidates.extend_from_slice(&access[partner as usize]);
        access[partner as usize] = Vec::new();
        candidates.sort_unstable();
        candidates.dedup();
        // A door stays an access door iff it still leads outside the
        // merged group (or out of the venue).
        candidates.retain(|&d| {
            venue.door(d).is_exterior()
                || door_roots(&mut groups, d)
                    .into_iter()
                    .any(|r| r != NO_NODE && r != g)
        });
        access[g as usize] = candidates;

        let nadj = neighbors(&mut groups, &access, g).len() as u32;
        heap.push(Reverse((degree[g as usize], nadj, g)));
    }

    // Materialise surviving groups, in stable order of their smallest member.
    let mut root_to_new: Vec<u32> = vec![NO_NODE; n];
    let mut next: Vec<ProtoNode> = Vec::new();
    for p in 0..n as u32 {
        let r = groups.find(p);
        if root_to_new[r as usize] == NO_NODE {
            root_to_new[r as usize] = next.len() as u32;
            next.push(ProtoNode {
                access_doors: std::mem::take(&mut access[r as usize]),
                members: Vec::new(),
            });
        }
        next[root_to_new[r as usize] as usize].members.push(p);
    }

    // Lift the door→node map to the new level.
    let mut new_door_nodes = vec![[NO_NODE; 2]; door_nodes.len()];
    for (d, &[a, b]) in door_nodes.iter().enumerate() {
        let mut slot = [NO_NODE; 2];
        let mut k = 0;
        for old in [a, b] {
            if old != NO_NODE {
                let nn = root_to_new[groups.find(old) as usize];
                if !slot.contains(&nn) {
                    slot[k] = nn;
                    k += 1;
                }
            }
        }
        new_door_nodes[d] = slot;
    }

    MergeOutcome {
        next,
        door_nodes: new_door_nodes,
    }
}

/// |a ∩ b| for sorted slices.
fn count_common(a: &[DoorId], b: &[DoorId]) -> usize {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::leaf_protos;
    use indoor_synth::random_venue;
    use proptest::prelude::*;

    #[test]
    fn count_common_works() {
        let a: Vec<DoorId> = [1u32, 3, 5, 7].into_iter().map(DoorId).collect();
        let b: Vec<DoorId> = [2u32, 3, 7, 9].into_iter().map(DoorId).collect();
        assert_eq!(count_common(&a, &b), 2);
        assert_eq!(count_common(&a, &[]), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(30))]
        #[test]
        fn merge_respects_min_degree(seed in 0u64..5_000, t in 2usize..5) {
            let venue = random_venue(seed);
            let (protos, door_nodes, ..) = leaf_protos(&venue);
            let before = protos.len();
            let out = create_next_level(&venue, &protos, &door_nodes, t);

            // Every input node lands in exactly one output node.
            let mut seen = vec![false; before];
            for p in &out.next {
                for &m in &p.members {
                    prop_assert!(!seen[m as usize]);
                    seen[m as usize] = true;
                }
            }
            prop_assert!(seen.iter().all(|s| *s));

            // If merging happened at all, each merged group reaches degree t
            // unless it was parked (no partner) — with a connected venue,
            // parking only happens when a single group remains.
            if out.next.len() > 1 && venue.d2d().connected_components().len() == 1 {
                for p in &out.next {
                    prop_assert!(
                        p.members.len() >= t || out.next.len() <= 2,
                        "group of degree {} with t={t}", p.members.len()
                    );
                }
            }

            // Access doors of output nodes point outside the node.
            for p in &out.next {
                for &d in &p.access_doors {
                    let door = venue.door(d);
                    if !door.is_exterior() {
                        // At least one side's new node differs.
                        let sides = out.door_nodes[d.index()];
                        let me = out.next.iter().position(|q| std::ptr::eq(q, p));
                        let _ = me;
                        prop_assert!(sides[1] != NO_NODE || sides[0] != NO_NODE);
                    }
                }
            }
        }
    }
}
