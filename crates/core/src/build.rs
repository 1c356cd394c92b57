//! IP-tree construction (§2.1.2): leaves → merged levels → matrices.
//!
//! The matrix phases (steps 3–4) fan out over worker threads — one
//! checkout-pooled [`indoor_graph::DijkstraEngine`] per worker — while the
//! structural phases (leaf assignment, merging) stay serial. Every
//! parallel unit writes into a pre-assigned slot, so the built tree is
//! bit-identical for any `VipTreeConfig::threads` (see DESIGN.md).

use crate::leaf::assign_leaves;
use crate::matrices::{build_inner_matrix, build_leaf_matrix, LevelGraph};
use crate::merge::{create_next_level, ProtoNode};
use crate::tree::{BuildError, DistMatrix, IpTree, Node, NodeIdx, VipTreeConfig, NO_NODE};
use indoor_graph::parallel::par_map_init;
use indoor_graph::EnginePool;
use indoor_model::{DoorId, Venue};
use std::sync::Arc;

/// Level-1 protos (one per leaf), the door → leaf-proto map, and the leaf
/// partition lists. Shared with `merge` tests.
pub(crate) fn leaf_protos(
    venue: &Venue,
) -> (
    Vec<ProtoNode>,
    Vec<[u32; 2]>,
    Vec<Vec<indoor_model::PartitionId>>,
) {
    let assignment = assign_leaves(venue);
    let n_leaves = assignment.leaf_partitions.len();

    // door -> (<= 2) leaves.
    let mut door_nodes = vec![[NO_NODE; 2]; venue.num_doors()];
    for door in venue.doors() {
        let mut slot = [NO_NODE; 2];
        let mut k = 0;
        for p in door.partition_ids() {
            let leaf = assignment.leaf_of_partition[p.index()];
            if !slot.contains(&leaf) {
                slot[k] = leaf;
                k += 1;
            }
        }
        door_nodes[door.id.index()] = slot;
    }

    let mut protos = Vec::with_capacity(n_leaves);
    for (leaf_idx, parts) in assignment.leaf_partitions.iter().enumerate() {
        let mut doors: Vec<DoorId> = parts
            .iter()
            .flat_map(|p| venue.partition(*p).doors.iter().copied())
            .collect();
        doors.sort_unstable();
        doors.dedup();
        // A door of this leaf is an access door iff it is exterior or its
        // two partitions lie in different leaves (`door_nodes` slots are
        // deduplicated, so a second entry implies two distinct leaves).
        let access: Vec<DoorId> = doors
            .iter()
            .copied()
            .filter(|&d| {
                let [_, b] = door_nodes[d.index()];
                venue.door(d).is_exterior() || b != NO_NODE
            })
            .collect();
        protos.push(ProtoNode {
            access_doors: access,
            members: vec![leaf_idx as u32],
        });
    }

    (protos, door_nodes, assignment.leaf_partitions)
}

impl IpTree {
    /// Build an IP-tree over a venue (§2.1.2).
    pub fn build(venue: Arc<Venue>, config: &VipTreeConfig) -> Result<IpTree, BuildError> {
        if config.min_degree < 2 {
            return Err(BuildError::BadMinDegree(config.min_degree));
        }
        let t = config.min_degree;

        // --- Steps 1 & 2: leaves, then merge until <= t nodes remain. ---
        // The leaf-level door → leaves map is stored in the tree as-is, and
        // the merge loop borrows it for its first pass: no wholesale
        // snapshot clones of the leaf protos or the door map are taken.
        let (mut protos, door_leaves, leaf_partitions) = leaf_protos(&venue);

        // levels[0] = leaves; each entry records, per node of that level,
        // the member indices into the previous level.
        let mut level_members: Vec<Vec<Vec<u32>>> = Vec::new();
        let mut level_access: Vec<Vec<Vec<DoorId>>> = Vec::new();
        level_members.push((0..protos.len()).map(|i| vec![i as u32]).collect());
        level_access.push(protos.iter().map(|p| p.access_doors.clone()).collect());

        let mut door_nodes: Option<Vec<[NodeIdx; 2]>> = None;
        while protos.len() > t {
            let current_map = door_nodes.as_deref().unwrap_or(&door_leaves);
            let out = create_next_level(&venue, &protos, current_map, t);
            if out.next.len() >= protos.len() {
                break; // no progress possible (disconnected pathologies)
            }
            level_members.push(out.next.iter().map(|p| p.members.clone()).collect());
            level_access.push(out.next.iter().map(|p| p.access_doors.clone()).collect());
            protos = out.next;
            door_nodes = Some(out.door_nodes);
        }
        if protos.len() > 1 {
            // Merge the <= t survivors into the root (§2.1.2: "all these
            // nodes are merged to form the root node").
            let members: Vec<u32> = (0..protos.len() as u32).collect();
            let mut access: Vec<DoorId> = protos
                .iter()
                .flat_map(|p| p.access_doors.iter().copied())
                .filter(|&d| venue.door(d).is_exterior())
                .collect();
            access.sort_unstable();
            access.dedup();
            level_members.push(vec![members]);
            level_access.push(vec![access]);
        }

        // --- Materialise the node array, leaves first, level by level. ---
        let n_leaves = leaf_partitions.len();
        let mut nodes: Vec<Node> = Vec::new();
        let mut level_first: Vec<usize> = Vec::new(); // node idx of first node per level
        for (li, members_at_level) in level_members.iter().enumerate() {
            level_first.push(nodes.len());
            for (ni, members) in members_at_level.iter().enumerate() {
                let (partitions, doors) = if li == 0 {
                    let parts = leaf_partitions[ni].clone();
                    let mut doors: Vec<DoorId> = parts
                        .iter()
                        .flat_map(|p| venue.partition(*p).doors.iter().copied())
                        .collect();
                    doors.sort_unstable();
                    doors.dedup();
                    (parts, doors)
                } else {
                    (Vec::new(), Vec::new())
                };
                let children: Vec<NodeIdx> = if li == 0 {
                    Vec::new()
                } else {
                    members
                        .iter()
                        .map(|&m| (level_first[li - 1] + m as usize) as NodeIdx)
                        .collect()
                };
                nodes.push(Node {
                    parent: NO_NODE,
                    children,
                    level: (li + 1) as u32,
                    access_doors: level_access[li][ni].clone(),
                    partitions,
                    doors,
                });
            }
        }
        let root = (nodes.len() - 1) as NodeIdx;
        for idx in 0..nodes.len() {
            for c in nodes[idx].children.clone() {
                nodes[c as usize].parent = idx as NodeIdx;
            }
        }

        // --- Per-door boundary flag: access door of at least one leaf. ---
        let mut boundary = vec![false; venue.num_doors()];
        for node in nodes.iter().take(n_leaves) {
            for &d in &node.access_doors {
                boundary[d.index()] = true;
            }
        }

        // --- Step 3: leaf matrices (+ superior doors), in parallel. ---
        // Each leaf's Dijkstra fan-out is independent (it reads only the
        // venue, the boundary flags, and its own door lists), so leaves map
        // over the worker pool; the superior-door evidence is carried back
        // per leaf and folded in leaf order afterwards, which keeps the
        // result identical to the serial build.
        let threads = config.threads;
        let pool = EnginePool::new(venue.num_doors());
        let leaf_indices: Vec<usize> = (0..n_leaves).collect();
        let leaf_results: Vec<(DistMatrix, Vec<Vec<bool>>)> = par_map_init(
            &leaf_indices,
            threads,
            || pool.checkout(),
            |engine, _, &li| {
                let node = &nodes[li];
                let mut hits: Vec<Vec<bool>> = node
                    .partitions
                    .iter()
                    .map(|p| vec![false; venue.partition(*p).doors.len()])
                    .collect();
                let matrix = build_leaf_matrix(
                    &venue,
                    engine,
                    &node.doors,
                    &node.access_doors,
                    &boundary,
                    &node.partitions,
                    &mut hits,
                );
                (matrix, hits)
            },
        );
        // `matrices[i]` is node `i`'s matrix until the slab packer consumes
        // the lot below.
        let mut matrices: Vec<DistMatrix> = Vec::with_capacity(nodes.len());
        let mut superior: Vec<Vec<DoorId>> = vec![Vec::new(); venue.num_partitions()];
        for (li, (matrix, hits)) in leaf_results.into_iter().enumerate() {
            // Local access doors are superior by definition; add the
            // Dijkstra-evidenced ones.
            for (pi, &p) in nodes[li].partitions.iter().enumerate() {
                let access = &nodes[li].access_doors;
                let pdoors = &venue.partition(p).doors;
                let mut sup: Vec<DoorId> = pdoors
                    .iter()
                    .enumerate()
                    .filter(|(i, d)| hits[pi][*i] || access.binary_search(d).is_ok())
                    .map(|(_, d)| *d)
                    .collect();
                sup.sort_unstable();
                sup.dedup();
                // A partition always needs at least one candidate exit.
                if sup.is_empty() {
                    sup = pdoors.clone();
                }
                superior[p.index()] = sup;
            }
            matrices.push(matrix);
        }

        // --- Step 4: non-leaf matrices, bottom-up via level graphs. ---
        // Levels stay sequential (G_{l+1} is built from level-l matrices),
        // but within one level every node's matrix is independent: compute
        // them in parallel into per-node slots, then append in order.
        for li in 1..level_first.len() {
            let prev_first = level_first[li - 1];
            let prev_last = level_first[li];
            let parts: Vec<(&Vec<DoorId>, &DistMatrix)> = (prev_first..prev_last)
                .map(|i| (&nodes[i].access_doors, &matrices[i]))
                .collect();
            let lg = LevelGraph::build_from_parts(venue.num_doors(), &parts);
            drop(parts);
            let lg_pool = EnginePool::new(lg.vertex_door.len());

            let this_last = if li + 1 < level_first.len() {
                level_first[li + 1]
            } else {
                nodes.len()
            };
            let borders: Vec<Vec<DoorId>> = (level_first[li]..this_last)
                .map(|i| {
                    let mut border: Vec<DoorId> = nodes[i]
                        .children
                        .iter()
                        .flat_map(|&c| nodes[c as usize].access_doors.iter().copied())
                        .collect();
                    border.sort_unstable();
                    border.dedup();
                    border
                })
                .collect();
            debug_assert_eq!(matrices.len(), level_first[li]);
            matrices.extend(par_map_init(
                &borders,
                threads,
                || lg_pool.checkout(),
                |engine, _, border| build_inner_matrix(&lg, engine, border),
            ));
        }

        // --- Partition -> leaf map. ---
        let mut leaf_of_partition = vec![NO_NODE; venue.num_partitions()];
        for (li, node) in nodes.iter().enumerate().take(n_leaves) {
            for &p in &node.partitions {
                leaf_of_partition[p.index()] = li as NodeIdx;
            }
        }

        // --- The matrix store: the packer takes the matrices by value —
        // distance rows into the SoA arena, hop entries and door lists
        // moved — and builds the admissible lower-bound tables (DESIGN.md
        // §14). Bound extraction fans out over the same worker pool; the
        // arena fill is a serial sequence of row memcpys.
        let slabs = crate::slabs::Slabs::build(&nodes, matrices, &door_leaves, threads);

        // --- Per-leaf door-to-door grid: global distances from leaf
        // matrices + leaf-local Dijkstra (no extra full-graph passes),
        // consumed by the own-leaf exact scan (DESIGN.md §14.4). Slots
        // only — each leaf's triangle builds lazily on its first own-leaf
        // scan (`LeafGrid::ensure`), so build time and memory follow the
        // queried leaf set, not the venue size.
        let leaf_grid = crate::leafdist::LeafGrid::new(n_leaves);

        Ok(IpTree {
            venue,
            config: config.clone(),
            nodes,
            root,
            leaf_of_partition,
            door_leaves,
            boundary,
            superior,
            decompose_fallbacks: std::sync::atomic::AtomicU64::new(0),
            engines: pool,
            scratch: crate::exec::ScratchPool::new(),
            objects: std::sync::RwLock::new(None),
            objects_update: std::sync::Mutex::new(()),
            objects_gen: std::sync::atomic::AtomicU64::new(0),
            slabs,
            leaf_grid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_graph::DijkstraEngine;
    use indoor_synth::random_venue;
    use proptest::prelude::*;

    fn build(seed: u64) -> IpTree {
        let venue = Arc::new(random_venue(seed));
        IpTree::build(venue, &VipTreeConfig::default()).unwrap()
    }

    #[test]
    fn rejects_min_degree_below_two() {
        let venue = Arc::new(random_venue(0));
        let cfg = VipTreeConfig {
            min_degree: 1,
            ..Default::default()
        };
        assert!(IpTree::build(venue, &cfg).is_err());
    }

    #[test]
    fn single_root_and_parent_links() {
        let tree = build(3);
        let root = tree.root();
        assert_eq!(tree.node(root).parent, NO_NODE);
        for idx in 0..tree.num_nodes() as NodeIdx {
            if idx != root {
                let p = tree.node(idx).parent;
                assert_ne!(p, NO_NODE, "non-root node {idx} without parent");
                assert!(tree.node(p).children.contains(&idx));
            }
            for &c in &tree.node(idx).children {
                assert_eq!(tree.node(c).parent, idx);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(25))]
        #[test]
        fn structural_invariants(seed in 0u64..5_000) {
            let venue = Arc::new(random_venue(seed));
            let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();

            // Access doors really lead outside their node: for each node,
            // collect the partitions under it; an access door must be
            // exterior or have a partition outside the set.
            for idx in 0..tree.num_nodes() as NodeIdx {
                let mut parts = std::collections::HashSet::new();
                let mut stack = vec![idx];
                while let Some(n) = stack.pop() {
                    let node = tree.node(n);
                    parts.extend(node.partitions.iter().copied());
                    stack.extend(node.children.iter().copied());
                }
                let node = tree.node(idx);
                for &d in &node.access_doors {
                    let door = venue.door(d);
                    let inside = door.partition_ids().any(|p| parts.contains(&p));
                    let outside =
                        door.is_exterior() || door.partition_ids().any(|p| !parts.contains(&p));
                    prop_assert!(inside && outside,
                        "door {d} is not a valid access door of node {idx}");
                }
                // Completeness: every door with one side in and one side out
                // is listed.
                if node.is_leaf() {
                    for &d in &node.doors {
                        let door = venue.door(d);
                        let out = door.is_exterior()
                            || door.partition_ids().any(|p| !parts.contains(&p));
                        prop_assert_eq!(out, node.ad_index(d).is_some());
                    }
                }
            }

            // Every matrix entry — leaf and non-leaf, read through the
            // slab — equals the ground-truth Dijkstra distance.
            let mut engine = DijkstraEngine::new(venue.num_doors());
            let slabs = tree.slabs();
            for idx in 0..tree.num_nodes() as NodeIdx {
                for (c, &a) in slabs.col_doors[idx as usize].iter().enumerate() {
                    engine.run(
                        venue.d2d(),
                        &[(a.0, 0.0)],
                        indoor_graph::Termination::Exhaust,
                    );
                    for (r, &d) in slabs.row_doors[idx as usize].iter().enumerate() {
                        let want = engine.settled_distance(d.0).unwrap_or(f64::INFINITY);
                        let got = slabs.row(idx, r)[c];
                        prop_assert!((got - want).abs() < 1e-9 || (got == want),
                            "node {idx} dist({d},{a}): got {got} want {want}");
                    }
                }
            }

            // Non-root nodes have >= t children (unless their level had no
            // merge partners), root has <= ... at least 1 child when there
            // are multiple leaves.
            if tree.num_leaves() > 1 {
                prop_assert!(!tree.node(tree.root()).children.is_empty());
            }
        }
    }
}
