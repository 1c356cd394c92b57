//! IP-tree construction (§2.1.2): leaves → merged levels → matrices.
//!
//! The matrix phases read no full-graph search (DESIGN.md §1, §3):
//! leaf-local passes (step 3a), level graphs bottom-up (step 4), then a
//! top-down fold into the global leaf matrices (step 3c). Each phase fans
//! out over worker threads while the structural phases (leaf assignment,
//! merging) stay serial. Every parallel unit writes into a pre-assigned
//! slot, so the built tree is bit-identical for any
//! `VipTreeConfig::threads` (see DESIGN.md).

use crate::leaf::assign_leaves;
use crate::leafdist::{fold_leaf_matrix, leaf_local, FoldInputs};
use crate::matrices::{build_inner_matrix, LevelGraph};
use crate::merge::{create_next_level, ProtoNode};
use crate::tree::{BuildError, DistMatrix, IpTree, NodeIdx, Runs, VipTreeConfig, NO_NODE};
use indoor_graph::parallel::{par_map, par_map_init};
use indoor_graph::{DijkstraEngine, EnginePool};
use indoor_model::{DoorId, PartitionId, Venue};
use std::sync::Arc;

/// Level-1 protos (one per leaf), the door → leaf-proto map, and each
/// leaf's partitions and (sorted) doors. Shared with `merge` tests.
pub(crate) fn leaf_protos(
    venue: &Venue,
) -> (
    Vec<ProtoNode>,
    Vec<[u32; 2]>,
    Runs<PartitionId>,
    Runs<DoorId>,
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
    let mut leaf_doors = Runs::default();
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
        leaf_doors.push_run(doors);
    }

    let partitions = assignment.leaf_partitions.into_iter().collect();
    (protos, door_nodes, partitions, leaf_doors)
}

impl IpTree {
    /// Build an IP-tree over a venue (§2.1.2).
    pub fn build(venue: Arc<Venue>, config: &VipTreeConfig) -> Result<IpTree, BuildError> {
        if config.min_degree < 2 {
            return Err(BuildError::BadMinDegree(config.min_degree));
        }
        let t = config.min_degree;

        // --- Steps 1 & 2: leaves, then merge until <= t nodes remain. ---
        // Each level is appended to the flat topology columns as it is
        // made (leaves first; a proto's members index the level below).
        // The leaf-level door → leaves map is stored in the tree as-is, and
        // the merge loop borrows it for its first pass.
        let (mut protos, door_leaves, partitions, mut rows) = leaf_protos(&venue);
        let n_leaves = protos.len();
        let (mut parent, mut level) = (Vec::new(), Vec::new());
        let (mut children, mut access) = (Runs::default(), Runs::default());
        let mut level_first: Vec<usize> = Vec::new(); // node idx of first node per level
        let mut push_level = |protos: &[ProtoNode]| {
            let below = level_first.last().copied();
            level_first.push(parent.len());
            for p in protos {
                let me = parent.len() as NodeIdx;
                let kids = below.map(|b| p.members.iter().map(move |&m| b as NodeIdx + m));
                children.push_run(kids.into_iter().flatten());
                for &c in children.get(me as usize) {
                    parent[c as usize] = me;
                }
                parent.push(NO_NODE);
                level.push(level_first.len() as u32);
                access.push_run(p.access_doors.iter().copied());
            }
        };
        push_level(&protos);

        let mut door_nodes: Option<Vec<[NodeIdx; 2]>> = None;
        while protos.len() > t {
            let current_map = door_nodes.as_deref().unwrap_or(&door_leaves);
            let out = create_next_level(&venue, &protos, current_map, t);
            if out.next.len() >= protos.len() {
                break; // no progress possible (disconnected pathologies)
            }
            push_level(&out.next);
            protos = out.next;
            door_nodes = Some(out.door_nodes);
        }
        if protos.len() > 1 {
            // Merge the <= t survivors into the root (§2.1.2: "all these
            // nodes are merged to form the root node").
            let mut exits: Vec<DoorId> = protos
                .iter()
                .flat_map(|p| p.access_doors.iter().copied())
                .filter(|&d| venue.door(d).is_exterior())
                .collect();
            exits.sort_unstable();
            exits.dedup();
            push_level(&[ProtoNode {
                access_doors: exits,
                members: (0..protos.len() as u32).collect(),
            }]);
        }

        let n_nodes = level.len();
        let root = (n_nodes - 1) as NodeIdx;
        // An inner node's matrix rows: the union of its children's access
        // doors (its border).
        for idx in n_leaves..n_nodes {
            let mut border: Vec<DoorId> = children
                .get(idx)
                .iter()
                .flat_map(|&c| access.get(c as usize).iter().copied())
                .collect();
            border.sort_unstable();
            border.dedup();
            rows.push_run(border);
        }

        // --- Per-door boundary flag: access door of at least one leaf. ---
        let mut boundary = vec![false; venue.num_doors()];
        for leaf in 0..n_leaves {
            for &d in access.get(leaf) {
                boundary[d.index()] = true;
            }
        }

        // --- Step 3a: leaf-local passes, in parallel per leaf. ---
        let threads = config.threads;
        let leaf_indices: Vec<usize> = (0..n_leaves).collect();
        let locals = par_map(&leaf_indices, threads, |_, &li| {
            leaf_local(&venue, partitions.get(li), rows.get(li), access.get(li))
        });

        // --- Step 4: non-leaf matrices, bottom-up via level graphs. ---
        // G_2 joins the leaves' *local* access-door cliques, and is kept
        // for step 3c. Levels stay sequential (G_{l+1} is built from
        // level-l matrices), but within one level every node's matrix is
        // independent: compute them in parallel into per-node slots, then
        // append in order.
        let mut inner: Vec<DistMatrix> = Vec::with_capacity(n_nodes - n_leaves);
        let mut g2: Option<LevelGraph> = None;
        for li in 1..level_first.len() {
            let matrix = |i: usize| match i.checked_sub(n_leaves) {
                Some(j) => &inner[j],
                None => &locals[i],
            };
            let parts: Vec<(&[DoorId], &DistMatrix)> = (level_first[li - 1]..level_first[li])
                .map(|i| (access.get(i), matrix(i)))
                .collect();
            let lg = LevelGraph::build_from_parts(venue.num_doors(), &parts);
            drop(parts);
            let lg_pool = EnginePool::new(lg.vertex_door.len());

            let this_last = level_first.get(li + 1).copied().unwrap_or(n_nodes);
            let level_nodes: Vec<usize> = (level_first[li]..this_last).collect();
            inner.extend(par_map_init(
                &level_nodes,
                threads,
                || lg_pool.checkout(),
                |engine, _, &i| build_inner_matrix(&lg, engine, rows.get(i)),
            ));
            if li == 1 {
                g2 = Some(lg);
            }
        }

        // --- Step 3c: the top-down fold into global leaf matrices and
        // superior doors, in parallel per leaf into per-leaf slots. ---
        let inputs = FoldInputs {
            venue: &venue,
            locals: &locals,
            door_leaves: &door_leaves,
            boundary: &boundary,
            g2: g2.as_ref(),
        };
        let leaf_results = par_map_init(
            &leaf_indices,
            threads,
            || {
                g2.as_ref()
                    .map(|g| DijkstraEngine::new(g.vertex_door.len()))
            },
            |g2_engine, _, &li| fold_leaf_matrix(&inputs, g2_engine, li, partitions.get(li)),
        );
        drop((locals, g2));
        // `matrices[i]` is node `i`'s matrix until the slab packer consumes
        // the lot below.
        let mut matrices: Vec<DistMatrix> = Vec::with_capacity(n_nodes);
        let mut superior: Vec<Vec<DoorId>> = vec![Vec::new(); venue.num_partitions()];
        for (li, (matrix, sup)) in leaf_results.into_iter().enumerate() {
            for (p, sup) in partitions.get(li).iter().zip(sup) {
                superior[p.index()] = sup;
            }
            matrices.push(matrix);
        }
        matrices.extend(inner);

        // --- Partition -> leaf map. ---
        let mut leaf_of_partition = vec![NO_NODE; venue.num_partitions()];
        for li in 0..n_leaves {
            for &p in partitions.get(li) {
                leaf_of_partition[p.index()] = li as NodeIdx;
            }
        }

        // --- Per-leaf door-to-door grid: global distances from leaf
        // matrices + leaf-local Dijkstra (no extra full-graph passes),
        // consumed by the own-leaf exact scan (DESIGN.md §14.4). Slots
        // only — each leaf's triangle builds lazily on its first own-leaf
        // scan (`LeafGrid::ensure`), so build time and memory follow the
        // queried leaf set, not the venue size.
        let leaf_grid = crate::leafdist::LeafGrid::new(n_leaves);

        let engines = EnginePool::new(venue.num_doors());
        let mut tree = IpTree {
            venue,
            config: config.clone(),
            root,
            parent,
            level,
            children,
            access,
            rows,
            partitions,
            leaf_of_partition,
            door_leaves,
            boundary,
            superior: superior.into_iter().collect(),
            decompose_fallbacks: Default::default(),
            engines,
            scratch: crate::exec::ScratchPool::new(),
            objects: std::sync::RwLock::new(None),
            objects_update: std::sync::Mutex::new(()),
            objects_gen: std::sync::atomic::AtomicU64::new(0),
            slabs: crate::slabs::Slabs::default(),
            leaf_grid,
        };

        // --- The matrix store: the packer takes the matrices by value —
        // distance rows into the SoA arena, hop entries into one run per
        // node — and builds the admissible lower-bound tables against the
        // tree's door runs (DESIGN.md §14). Bound extraction fans out over
        // the same worker pool; the arena fill is a serial sequence of
        // row memcpys.
        tree.slabs = crate::slabs::Slabs::build(&tree, matrices);
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(tree.parent(root), NO_NODE);
        for idx in 0..tree.num_nodes() as NodeIdx {
            if idx != root {
                let p = tree.parent(idx);
                assert_ne!(p, NO_NODE, "non-root node {idx} without parent");
                assert!(tree.children(p).contains(&idx));
                assert_eq!(tree.level(p), tree.level(idx) + 1);
            }
            assert_eq!(tree.is_leaf(idx), tree.children(idx).is_empty());
            for &c in tree.children(idx) {
                assert_eq!(tree.parent(c), idx);
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
                    if tree.is_leaf(n) {
                        parts.extend(tree.leaf_partitions(n).iter().copied());
                    }
                    stack.extend(tree.children(n).iter().copied());
                }
                let access = tree.access_doors(idx);
                for &d in access {
                    let door = venue.door(d);
                    let inside = door.partition_ids().any(|p| parts.contains(&p));
                    let outside =
                        door.is_exterior() || door.partition_ids().any(|p| !parts.contains(&p));
                    prop_assert!(inside && outside,
                        "door {d} is not a valid access door of node {idx}");
                }
                // Completeness: every door with one side in and one side out
                // is listed.
                if tree.is_leaf(idx) {
                    for &d in tree.leaf_doors(idx) {
                        let door = venue.door(d);
                        let out = door.is_exterior()
                            || door.partition_ids().any(|p| !parts.contains(&p));
                        prop_assert_eq!(out, access.binary_search(&d).is_ok());
                    }
                }
            }

            check_matrices(&venue, &tree);

            // Non-root nodes have >= t children (unless their level had no
            // merge partners), root has <= ... at least 1 child when there
            // are multiple leaves.
            if tree.num_leaves() > 1 {
                prop_assert!(!tree.children(tree.root()).is_empty());
            }
        }
    }

    /// Every matrix entry — leaf and non-leaf, read through the slab —
    /// equals the ground-truth full-graph Dijkstra distance bit for bit
    /// (lengths are whole ticks, DESIGN.md §16, so an entry `(d, a)` also
    /// equals `(a, d)` wherever a matrix holds both), and every non-NULL
    /// next hop `h` of an entry `(d, a)` lies on a shortest path:
    /// `d(d, h) + d(h, a) == d(d, a)`.
    fn check_matrices(venue: &Venue, tree: &IpTree) {
        let close = |got: f64, want: f64| got.to_bits() == want.to_bits();
        let mut engine = DijkstraEngine::new(venue.num_doors());
        let slabs = tree.slabs();
        for idx in 0..tree.num_nodes() as NodeIdx {
            let rows = tree.rows(idx);
            let cols = tree.cols(idx);
            let hop = |r: usize, c: usize| slabs.hop(idx, r, c).map(|h| h.0);
            // d(·, a) for every row and every hop of column a.
            let mut to_col: Vec<Vec<f64>> = Vec::with_capacity(cols.len());
            let mut hop_to_col: Vec<Vec<f64>> = Vec::with_capacity(cols.len());
            for (c, &a) in cols.iter().enumerate() {
                let mut targets: Vec<u32> = rows.iter().map(|d| d.0).collect();
                targets.extend((0..rows.len()).filter_map(|r| hop(r, c)));
                engine.run(venue.d2d(), &[(a.0, 0.0)], &targets);
                let at = |v: u32| engine.settled_distance(v).unwrap_or(f64::INFINITY);
                to_col.push(rows.iter().map(|d| at(d.0)).collect());
                hop_to_col.push((0..rows.len()).map(|r| hop(r, c).map_or(0.0, at)).collect());
            }
            for (r, &d) in rows.iter().enumerate() {
                let row = slabs.row(idx, r);
                let hops: Vec<u32> = (0..cols.len()).filter_map(|c| hop(r, c)).collect();
                engine.run(venue.d2d(), &[(d.0, 0.0)], &hops);
                for (c, &a) in cols.iter().enumerate() {
                    let (got, want) = (crate::ticks::decode(row[c]), to_col[c][r]);
                    assert!(
                        close(got, want),
                        "node {idx} dist({d},{a}): got {got} want {want}"
                    );
                    if let Some(h) = hop(r, c) {
                        let via =
                            engine.settled_distance(h).unwrap_or(f64::INFINITY) + hop_to_col[c][r];
                        assert!(
                            close(via, want),
                            "node {idx} hop {h} of ({d},{a}): {via} via the hop, {want} direct"
                        );
                    }
                }
            }
        }
        check_null_entries_resolve_below(tree);
    }

    /// Every reachable NULL entry `(a, b)` of an inner matrix at node `n`
    /// re-resolves below `n` (DESIGN.md §2): the lowest matrices holding
    /// the pair, other than `n`'s, sit at a strictly lower level, and each
    /// is a leaf or has a next hop for the pair. Not implied by Algorithm
    /// 1 (§2 gives a venue where it fails, and the path query falls back
    /// to Dijkstra there); checked here on every entry of the trees these
    /// tests build.
    fn check_null_entries_resolve_below(tree: &IpTree) {
        let slabs = tree.slabs();
        let hop = |m: NodeIdx, a: DoorId, b: DoorId| {
            let (r, c) = (tree.row_of(m, a)?, tree.col_of(m, b)?);
            slabs.hop(m, r, c).filter(|&k| k != a && k != b)
        };
        let has_pair = |m: NodeIdx, a: DoorId, b: DoorId| {
            let has = |x, y| tree.row_of(m, x).is_some() && tree.col_of(m, y).is_some();
            has(a, b) || has(b, a)
        };
        for n in tree.num_leaves() as NodeIdx..tree.num_nodes() as NodeIdx {
            let rows = tree.rows(n);
            for (r, &a) in rows.iter().enumerate() {
                let dist = slabs.row(n, r);
                for (c, &b) in rows.iter().enumerate() {
                    if a == b || dist[c] == crate::ticks::INF || hop(n, a, b).is_some() {
                        continue;
                    }
                    let holders: Vec<NodeIdx> = (0..tree.num_nodes() as NodeIdx)
                        .filter(|&m| m != n && has_pair(m, a, b))
                        .collect();
                    let lowest = holders.iter().map(|&m| tree.level(m)).min();
                    assert!(
                        lowest.is_some_and(|l| l < tree.level(n)),
                        "NULL ({a},{b}) at node {n}: no matrix strictly below holds the pair"
                    );
                    for &m in holders.iter().filter(|&&m| Some(tree.level(m)) == lowest) {
                        assert!(
                            tree.is_leaf(m) || hop(m, a, b).is_some(),
                            "NULL ({a},{b}) at node {n}: node {m} below has a NULL too"
                        );
                    }
                }
            }
        }
    }

    /// The same checks on multi-level trees the random venues do not
    /// reach. Ignored in the debug suite, where it takes ~50 s; CI runs it
    /// in release (5–10 s) with `--ignored`.
    #[test]
    #[ignore]
    fn preset_matrices_are_global_with_valid_hops() {
        use indoor_synth::presets;
        for spec in [presets::menzies_2(), presets::clayton_lite()] {
            let venue = Arc::new(spec.build());
            let tree = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            check_matrices(&venue, &tree);
        }
    }
}
