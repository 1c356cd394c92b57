//! The built IP-tree (§2.1) as flat columns (DESIGN.md §14.1): a node is
//! an index into `parent`, `level` and one [`Runs`] per list, and each
//! door list is stored once. Distances live in [`crate::slabs::Slabs`].

use indoor_model::{DoorId, ObjectId, PartitionId, Venue};
use std::sync::Arc;

/// Index of a node: leaves are `0..num_leaves()`, the root is last.
pub type NodeIdx = u32;

/// Sentinel for "no node".
pub const NO_NODE: NodeIdx = u32::MAX;

/// Sentinel for "no door" in next-hop matrices.
pub(crate) const NO_DOOR: u32 = u32::MAX;

/// Construction parameters for [`IpTree`] and [`crate::VipTree`].
#[derive(Debug, Clone)]
pub struct VipTreeConfig {
    /// Minimum degree `t` of Algorithm 1 — the minimum number of children
    /// per non-root node. The paper evaluates t ∈ {2, 10, 20, 60, 100}
    /// (Fig. 7) and uses t = 2 everywhere else.
    pub min_degree: usize,
    /// Disable the superior-door optimisation of §3.1.1 (ablation); all
    /// doors of the source partition are considered instead.
    pub use_superior_doors: bool,
    /// Worker threads for index construction (`0` = all available cores).
    ///
    /// Leaf matrices, per-level inner matrices, and the VIP per-door
    /// ancestor tables fan out over this many workers; the built index is
    /// bit-identical for every thread count (see DESIGN.md, "Parallel
    /// build determinism").
    pub threads: usize,
}

impl Default for VipTreeConfig {
    fn default() -> Self {
        VipTreeConfig {
            min_degree: 2,
            use_superior_doors: true,
            threads: 0,
        }
    }
}

impl VipTreeConfig {
    /// Builder-style override of the construction thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Errors during tree construction.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// `min_degree` must be at least 2.
    BadMinDegree(usize),
    /// A seed object of a service shard names a partition the venue does
    /// not have.
    BadPartition(ObjectId, PartitionId),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::BadMinDegree(t) => write!(f, "min_degree must be >= 2, got {t}"),
            BuildError::BadPartition(id, p) => {
                write!(f, "seed object {id} names partition {p} outside the venue")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// One node's distance matrix as the builders produce it — the value
/// `matrices::build_{leaf,inner}_matrix` return, the level-graph builder
/// reads, and [`crate::slabs::Slabs::build`] consumes. A built tree holds
/// no `DistMatrix`: the slab is the matrix store (DESIGN.md §14.1).
///
/// * Leaf nodes: `rows` = every door of the node, `cols` = its access
///   doors; entry `(d, a)` stores the global shortest distance `dist(d, a)`
///   and the next-hop door on the shortest path *from d to a* (§2.1.1).
/// * Non-leaf nodes: `rows == cols` = the union of the children's access
///   doors; entry `(di, dj)` stores `dist(di, dj)` and the first door of
///   that set on the shortest path from `di` to `dj`.
///
/// `next_hop` uses [`NO_DOOR`] for NULL entries (final edges).
#[derive(Debug, Clone)]
pub(crate) struct DistMatrix {
    pub rows: Vec<DoorId>,
    pub cols: Vec<DoorId>,
    pub dist: Box<[f64]>,
    pub next_hop: Box<[u32]>,
}

impl DistMatrix {
    /// Distance between two doors if both are present (forward or, for
    /// rectangular leaf matrices, transposed).
    pub fn lookup_dist(&self, from: DoorId, to: DoorId) -> Option<f64> {
        let at = |r: DoorId, c: DoorId| {
            let row = self.rows.binary_search(&r).ok()?;
            let col = self.cols.binary_search(&c).ok()?;
            Some(self.dist[row * self.cols.len() + col])
        };
        at(from, to).or_else(|| at(to, from))
    }
}

/// Variable-length runs stored back to back: run `i` is
/// `items[off[i]..off[i + 1]]` — every per-node list of a built tree.
#[derive(Debug)]
pub(crate) struct Runs<T> {
    items: Vec<T>,
    off: Vec<u32>,
}

impl<T> Default for Runs<T> {
    fn default() -> Self {
        Runs {
            items: Vec::new(),
            off: vec![0],
        }
    }
}

impl<T> Runs<T> {
    /// Run `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[T] {
        &self.items[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Append one run.
    pub fn push_run(&mut self, run: impl IntoIterator<Item = T>) {
        self.items.extend(run);
        self.off.push(self.items.len() as u32);
    }

    /// Number of runs.
    #[inline]
    pub fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Bytes of the items and the offsets.
    pub fn size_bytes(&self) -> usize {
        self.items.len() * std::mem::size_of::<T>() + self.off.len() * 4
    }
}

impl<T, R: IntoIterator<Item = T>> FromIterator<R> for Runs<T> {
    fn from_iter<I: IntoIterator<Item = R>>(runs: I) -> Self {
        let mut out = Runs::default();
        for run in runs {
            out.push_run(run);
        }
        out
    }
}

/// The Indoor Partitioning Tree (§2.1).
///
/// Nodes are numbered level by level, leaves first, so `is_leaf(n)` is
/// `n < num_leaves()`. Beside the topology, the tree keeps the lookup
/// maps query processing needs: partition → leaf, door → (≤ 2) leaves,
/// per-door boundary flags (is the door an access door of any leaf?),
/// and per-partition superior doors (§3.1.1 Definition 2).
#[derive(Debug)]
pub struct IpTree {
    pub(crate) venue: Arc<Venue>,
    pub(crate) config: VipTreeConfig,
    pub(crate) root: NodeIdx,
    /// Per node, behind `parent`, `level`, `children`, `access_doors`
    /// and `rows`.
    pub(crate) parent: Vec<NodeIdx>,
    pub(crate) level: Vec<u32>,
    pub(crate) children: Runs<NodeIdx>,
    pub(crate) access: Runs<DoorId>,
    pub(crate) rows: Runs<DoorId>,
    /// Per leaf, behind `leaf_partitions`.
    pub(crate) partitions: Runs<PartitionId>,
    /// Leaf node containing each partition.
    pub(crate) leaf_of_partition: Vec<NodeIdx>,
    /// The (at most two, deduplicated) leaves containing each door.
    pub(crate) door_leaves: Vec<[NodeIdx; 2]>,
    /// Whether each door is an access door of at least one leaf.
    pub(crate) boundary: Vec<bool>,
    /// Superior doors per partition (Definition 2).
    pub(crate) superior: Runs<DoorId>,
    /// Dijkstra fallbacks taken during path decomposition: pairs with no
    /// lower matrix to resolve a non-leaf NULL in (DESIGN.md §2).
    pub(crate) decompose_fallbacks: crate::telemetry::Counter,
    /// Engine pool for same-leaf queries and decomposition fallbacks (the
    /// paper also answers same-leaf queries with a D2D expansion). A pool
    /// rather than one mutexed engine, so concurrent queries never
    /// serialise on shared Dijkstra state.
    pub(crate) engines: indoor_graph::EnginePool,
    /// Scratch pool backing the single-query convenience APIs, so `knn`
    /// et al. reuse transient state across calls without the caller
    /// managing a [`crate::QueryScratch`].
    pub(crate) scratch: crate::exec::ScratchPool,
    /// Embedded object set for kNN/range queries (§3.4), if attached.
    ///
    /// Behind `RwLock<Arc<..>>` so object churn is a **swap**, not a tree
    /// mutation: queries clone the `Arc` once at query start (and keep
    /// serving the snapshot they started on), while
    /// [`IpTree::attach_objects`] / [`IpTree::apply_object_deltas`] build
    /// or patch a replacement off to the side and swap it in under `&self`
    /// — which is what lets a live multi-venue service absorb churn with
    /// no service-wide pause (see DESIGN.md, "Object deltas and the
    /// service version counter").
    pub(crate) objects: std::sync::RwLock<Option<std::sync::Arc<crate::objects::ObjectIndex>>>,
    /// Serialises object-set mutations (attach/delta) so concurrent
    /// updaters never lose each other's deltas; readers never take it.
    pub(crate) objects_update: std::sync::Mutex<()>,
    /// Object-snapshot generation: bumped (after the swap) by **every**
    /// mutation of `objects`, whoever triggers it — the stamp result
    /// caches key object answers by ([`IpTree::objects_generation`]).
    pub(crate) objects_gen: std::sync::atomic::AtomicU64,
    /// The matrix store (DESIGN.md §14): every node's distance rows in
    /// one packed arena of `u32` ticks, the next-hop entries path
    /// recovery reads, and the admissible lower-bound layer. Packed once
    /// at construction from the builders' matrices, which are consumed.
    pub(crate) slabs: crate::slabs::Slabs,
    /// Per-leaf global door-to-door distance grid (DESIGN.md §14.4):
    /// turns the own-leaf exact scan from a per-query D2D expansion into
    /// a seed × cell fold at the doors the leaf's objects use.
    pub(crate) leaf_grid: crate::leafdist::LeafGrid,
}

impl IpTree {
    #[inline]
    pub fn venue(&self) -> &Arc<Venue> {
        &self.venue
    }

    /// The construction parameters this tree was built with (persisted by
    /// service snapshots so recovery rebuilds an identical tree).
    #[inline]
    pub fn build_config(&self) -> &VipTreeConfig {
        &self.config
    }

    #[inline]
    pub fn root(&self) -> NodeIdx {
        self.root
    }

    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.partitions.len()
    }

    /// Height of the tree (root level; leaves are level 1).
    pub fn height(&self) -> u32 {
        self.level(self.root)
    }

    /// Parent of `n` ([`NO_NODE`] for the root).
    #[inline]
    pub fn parent(&self, n: NodeIdx) -> NodeIdx {
        self.parent[n as usize]
    }

    /// Level of `n`: 1 for leaves, the height for the root.
    #[inline]
    pub fn level(&self, n: NodeIdx) -> u32 {
        self.level[n as usize]
    }

    /// Children of `n` in build order; empty for leaves.
    #[inline]
    pub fn children(&self, n: NodeIdx) -> &[NodeIdx] {
        self.children.get(n as usize)
    }

    /// Leaves are numbered first.
    #[inline]
    pub fn is_leaf(&self, n: NodeIdx) -> bool {
        (n as usize) < self.num_leaves()
    }

    /// Access doors AD(n), sorted (§2.1.1 Definition 1).
    #[inline]
    pub fn access_doors(&self, n: NodeIdx) -> &[DoorId] {
        self.access.get(n as usize)
    }

    /// Row doors of `n`'s matrix, sorted: every door of a leaf, the
    /// border of an inner node.
    #[inline]
    pub fn rows(&self, n: NodeIdx) -> &[DoorId] {
        self.rows.get(n as usize)
    }

    /// Column doors of `n`'s matrix: a leaf's access doors, an inner
    /// node's rows.
    #[inline]
    pub(crate) fn cols(&self, n: NodeIdx) -> &[DoorId] {
        if self.is_leaf(n) {
            self.access_doors(n)
        } else {
            self.rows(n)
        }
    }

    /// Every door of leaf `leaf`, sorted.
    #[inline]
    pub fn leaf_doors(&self, leaf: NodeIdx) -> &[DoorId] {
        debug_assert!(self.is_leaf(leaf));
        self.rows(leaf)
    }

    /// Partitions of leaf `leaf`.
    #[inline]
    pub fn leaf_partitions(&self, leaf: NodeIdx) -> &[PartitionId] {
        self.partitions.get(leaf as usize)
    }

    /// Row ordinal of door `d` in node `n`'s matrix, if it is a row.
    #[inline]
    pub(crate) fn row_of(&self, n: NodeIdx, d: DoorId) -> Option<usize> {
        self.rows(n).binary_search(&d).ok()
    }

    /// Column ordinal of door `d` in node `n`'s matrix, if it is a column.
    #[inline]
    pub(crate) fn col_of(&self, n: NodeIdx, d: DoorId) -> Option<usize> {
        self.cols(n).binary_search(&d).ok()
    }

    #[inline]
    pub fn leaf_of(&self, p: PartitionId) -> NodeIdx {
        self.leaf_of_partition[p.index()]
    }

    /// Whether door `d` is an access door of at least one leaf (a
    /// "boundary door"; §3.2's unqualified "access door").
    #[inline]
    pub fn is_boundary_door(&self, d: DoorId) -> bool {
        self.boundary[d.index()]
    }

    /// Superior doors of a partition (Definition 2), or every door when
    /// the optimisation is disabled.
    pub fn superior_doors(&self, p: PartitionId) -> &[DoorId] {
        if self.config.use_superior_doors {
            self.superior.get(p.index())
        } else {
            &self.venue.partition(p).doors
        }
    }

    /// Walk from `node` to the root, inclusive.
    pub fn ancestors(&self, node: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        std::iter::successors(Some(node), move |&n| {
            Some(self.parent(n)).filter(|&p| p != NO_NODE)
        })
    }

    /// Lowest common ancestor of two nodes (all leaves share one level, so
    /// lock-step parent walking suffices).
    pub fn lca(&self, a: NodeIdx, b: NodeIdx) -> NodeIdx {
        let (mut a, mut b) = (a, b);
        while self.level(a) < self.level(b) {
            a = self.parent(a);
        }
        while self.level(b) < self.level(a) {
            b = self.parent(b);
        }
        while a != b {
            a = self.parent(a);
            b = self.parent(b);
        }
        a
    }

    /// The child of `ancestor` on the path down to `descendant`
    /// (`descendant` must be a strict descendant).
    pub fn child_towards(&self, ancestor: NodeIdx, descendant: NodeIdx) -> NodeIdx {
        let mut cur = descendant;
        loop {
            let parent = self.parent(cur);
            if parent == ancestor {
                return cur;
            }
            debug_assert_ne!(parent, NO_NODE, "descendant not under ancestor");
            cur = parent;
        }
    }

    /// Pre-populate the embedded Dijkstra engine pool for `n` concurrent
    /// queriers, so a serving fleet's first wave of same-leaf queries
    /// does not pay the `O(doors)` engine allocation in-band.
    pub fn warm_engines(&self, n: usize) {
        self.engines.warm(n);
    }

    /// Number of Dijkstra fallbacks taken by path decomposition so far.
    pub fn decompose_fallback_count(&self) -> u64 {
        self.decompose_fallbacks.get()
    }

    /// The matrix store and its lower-bound tables (read-only).
    #[inline]
    pub fn slabs(&self) -> &crate::slabs::Slabs {
        &self.slabs
    }

    /// Build every leaf door grid now instead of on first own-leaf scan —
    /// the eager mode audits and warm-start benches compare the lazy path
    /// against. Idempotent; already-built leaves are skipped.
    pub fn build_leaf_grid(&self) {
        self.leaf_grid.force_build(self);
    }

    /// Leaf door grids built so far, lazily or via
    /// [`IpTree::build_leaf_grid`] (the `indoor_leaf_grid_builds_total`
    /// telemetry counter).
    pub fn leaf_grid_builds(&self) -> u64 {
        self.leaf_grid.builds()
    }

    /// Re-verify the slab arena and the leaf grids: every matrix packed
    /// in-bounds with no padding, every ordinal CSR consistent with the door
    /// lists, every bound admissible against the arena itself. Panics on
    /// violation. Forces any lazily-deferred leaf grids to build first,
    /// so the audit always covers the full grid.
    pub fn audit_layout(&self) {
        self.slabs.audit(self);
        self.build_leaf_grid();
        self.leaf_grid.audit(self);
    }

    /// Total bytes of index structure (Fig. 8(b)): topology, the slab
    /// matrix store, and the leaf grids built so far.
    pub fn size_bytes(&self) -> usize {
        (self.parent.len() + self.level.len()) * 4
            + self.children.size_bytes()
            + self.access.size_bytes()
            + self.rows.size_bytes()
            + self.partitions.size_bytes()
            + self.superior.size_bytes()
            + self.slabs.size_bytes()
            + self.leaf_grid.size_bytes()
            + self.leaf_of_partition.len() * 4
            + self.door_leaves.len() * 8
            + self.boundary.len()
    }
}
