//! The matrix store: SoA distance slabs, next-hop entries and admissible
//! interpolated lower bounds (DESIGN.md §14).
//!
//! [`Slabs::build`] consumes the per-node [`crate::tree::DistMatrix`]
//! values the builders produce: `dist` rows go into one contiguous f64
//! arena with cache-line-aligned rows and a precomputed stride per node,
//! `next_hop` and the row/column door-id lists are moved in for path
//! recovery, and the matrices are dropped — the slab holds the only copy
//! of every distance. The kNN/range/ascent hot loops read straight row
//! slices and hoisted column ordinals instead of chasing per-node boxes
//! and binary-searching door ids. On top of the slab sits the lower-bound
//! layer:
//!
//! * per-node minimum over the finite matrix entries (`env_min`);
//! * a piecewise-linear bound table over column ordinals (knot spacing
//!   [`PL_SPACING`], ~O(doors) memory) whose interpolated value never
//!   exceeds the column minimum — each knot is the minimum of the column
//!   minima over a window one full segment wider than the segments it
//!   bounds, so both endpoints of any segment already lower-bound every
//!   column inside it, and so does any convex combination;
//! * per child edge, the table evaluated over the child's access-door
//!   columns and cached as `kid_lb`: an O(1) admissible lower bound on
//!   the derived child vector used by k-best pruning.
//!
//! Padding lanes are `+inf` and never read by query code. Accessors
//! `debug_assert!` in-bounds + 64-byte row alignment (tier-1's debug
//! `cargo test` runs every query path through them); [`Slabs::audit`]
//! re-verifies the whole structure against the arena itself, and the
//! values against ground-truth Dijkstra are `build.rs`'s
//! `structural_invariants`.

use crate::tree::{DistMatrix, Node, NodeIdx, NO_DOOR, NO_NODE};
use indoor_graph::parallel::par_map;
use indoor_model::DoorId;

/// f64 lanes per cache line; every slab row starts on a 64-byte boundary.
const ROW_ALIGN: usize = 8;

/// Knot spacing of the piecewise-linear bound table (column ordinals).
pub(crate) const PL_SPACING: usize = 8;

/// Per-node bound data computed in parallel before the arena is packed.
struct NodeBounds {
    env_min: f64,
    /// PL knots at column ordinals `0, S, 2S, ...` (one past the last
    /// column, so every column sits in a closed segment).
    knots: Vec<f64>,
}

/// Every node matrix of a built tree. Node numbering is the build's
/// level-order arena (leaves first, root last), so a leaf-to-root walk
/// already ascends addresses; the slab preserves that order.
#[derive(Debug)]
pub struct Slabs {
    /// One arena for every node matrix; `base` indexes the first element
    /// that sits on a 64-byte boundary.
    arena: Vec<f64>,
    base: usize,
    /// Per node: arena offset (from `base`), row stride (cols rounded up
    /// to [`ROW_ALIGN`]), and logical extent.
    off: Vec<usize>,
    stride: Vec<u32>,
    n_rows: Vec<u32>,
    n_cols: Vec<u32>,
    /// Per node: next-hop door per matrix entry, row-major with `n_cols`
    /// columns ([`NO_DOOR`] = NULL), and the sorted door ids its rows and
    /// columns stand for — what path recovery reads. Moved out of the
    /// builders' matrices, not copied.
    hops: Vec<Box<[u32]>>,
    pub(crate) row_doors: Vec<Vec<DoorId>>,
    pub(crate) col_doors: Vec<Vec<DoorId>>,
    /// Kid-column CSR: for node `c`, `kid_cols[kid_cols_off[c]..kid_cols_off[c+1]]`
    /// are the column indices of `c`'s access doors in `parent(c)`'s
    /// matrix. Inner matrices have `rows == cols`, so the same run doubles
    /// as row indices. Empty for the root.
    kid_cols: Vec<u32>,
    kid_cols_off: Vec<u32>,
    /// For non-leaf node `n`, the column indices of `n.access_doors` in
    /// `n`'s own matrix (leaf matrices' columns *are* the access doors, so
    /// leaves get the identity run).
    own_cols: Vec<u32>,
    own_cols_off: Vec<u32>,
    /// PL bound table: knots per node, concatenated.
    pl_knots: Vec<f64>,
    pl_off: Vec<u32>,
    /// Per node `c`: the PL table of `parent(c)` evaluated over `c`'s
    /// access-door columns, minimised — an admissible lower bound on any
    /// derived child vector entry net of the base minimum. 0 for the root.
    kid_lb: Vec<f64>,
    /// Row-minimum CSR: for non-root node `c`,
    /// `kid_rowmin[off..][r] = min over c's parent-matrix columns of
    /// P(r, col)` — the exact per-row distance floor used by k-best
    /// pruning. Unlike the per-node column minima (which include the zero
    /// diagonal of every square inner matrix), a row's minimum over *one
    /// child's* columns is zero only where that row's door really is one
    /// of the child's access doors, so this bound has teeth. Empty run
    /// for the root.
    kid_rowmin: Vec<f64>,
    kid_rowmin_off: Vec<u32>,
    /// Per node: minimum over the finite matrix entries (`+inf` when the
    /// matrix is empty or all-infinite).
    env_min: Vec<f64>,
    /// Per venue door: its row index within each of its (≤ 2) leaves'
    /// matrices, aligned with the tree's `door_leaves`.
    pub(crate) door_rows: Vec<[u32; 2]>,
}

impl Slabs {
    /// Pack the finished matrices (`matrices[i]` belongs to `nodes[i]`),
    /// consuming them.
    pub(crate) fn build(
        nodes: &[Node],
        matrices: Vec<DistMatrix>,
        door_leaves: &[[NodeIdx; 2]],
        threads: usize,
    ) -> Slabs {
        debug_assert_eq!(nodes.len(), matrices.len());
        let bounds: Vec<NodeBounds> = par_map(&matrices, threads, |_, m| node_bounds(m));

        let mut off = Vec::with_capacity(nodes.len());
        let mut stride = Vec::with_capacity(nodes.len());
        let mut n_rows = Vec::with_capacity(nodes.len());
        let mut n_cols = Vec::with_capacity(nodes.len());
        let mut total = 0usize;
        for m in &matrices {
            let (r, c) = (m.rows.len(), m.cols.len());
            let s = c.div_ceil(ROW_ALIGN) * ROW_ALIGN;
            off.push(total);
            stride.push(s as u32);
            n_rows.push(r as u32);
            n_cols.push(c as u32);
            total += r * s;
        }

        // Over-allocate so the first row can start on a cache line
        // wherever the allocator put us; padding lanes stay +inf. Each
        // matrix gives up its `dist` box as soon as its rows are in, and
        // its hop box and door lists change owner without a copy.
        let mut arena = vec![f64::INFINITY; total + ROW_ALIGN];
        let base = {
            let addr = arena.as_ptr() as usize;
            (64 - addr % 64) % 64 / std::mem::size_of::<f64>()
        };
        let mut hops = Vec::with_capacity(nodes.len());
        let mut row_doors = Vec::with_capacity(nodes.len());
        let mut col_doors = Vec::with_capacity(nodes.len());
        for (i, m) in matrices.into_iter().enumerate() {
            let (r, c, s) = (m.rows.len(), m.cols.len(), stride[i] as usize);
            let start = base + off[i];
            for row in 0..r {
                arena[start + row * s..start + row * s + c]
                    .copy_from_slice(&m.dist[row * c..(row + 1) * c]);
            }
            hops.push(m.next_hop);
            row_doors.push(m.rows);
            col_doors.push(m.cols);
        }

        let mut pl_knots = Vec::new();
        let mut pl_off = Vec::with_capacity(nodes.len() + 1);
        let mut env_min = Vec::with_capacity(nodes.len());
        pl_off.push(0);
        for b in &bounds {
            pl_knots.extend_from_slice(&b.knots);
            pl_off.push(pl_knots.len() as u32);
            env_min.push(b.env_min);
        }

        let mut slabs = Slabs {
            arena,
            base,
            off,
            stride,
            n_rows,
            n_cols,
            hops,
            row_doors,
            col_doors,
            kid_cols: Vec::new(),
            kid_cols_off: Vec::new(),
            own_cols: Vec::new(),
            own_cols_off: Vec::new(),
            pl_knots,
            pl_off,
            kid_lb: Vec::new(),
            kid_rowmin: Vec::new(),
            kid_rowmin_off: Vec::new(),
            env_min,
            door_rows: Vec::new(),
        };

        // Column CSRs. `kid_cols` for node c lives under parent(c)'s
        // matrix; `own_cols` for node n under n's own matrix.
        let mut kid_cols = Vec::new();
        let mut kid_cols_off = Vec::with_capacity(nodes.len() + 1);
        let mut own_cols = Vec::new();
        let mut own_cols_off = Vec::with_capacity(nodes.len() + 1);
        kid_cols_off.push(0);
        own_cols_off.push(0);
        for (i, node) in nodes.iter().enumerate() {
            if node.parent != NO_NODE {
                for &a in &node.access_doors {
                    let col = slabs.col_of(node.parent, a);
                    kid_cols.push(col.expect("child access door in parent matrix") as u32);
                }
            }
            kid_cols_off.push(kid_cols.len() as u32);
            for &a in &node.access_doors {
                let col = slabs.col_of(i as NodeIdx, a);
                own_cols.push(col.expect("own access door in own matrix") as u32);
            }
            own_cols_off.push(own_cols.len() as u32);
        }
        slabs.kid_cols = kid_cols;
        slabs.kid_cols_off = kid_cols_off;
        slabs.own_cols = own_cols;
        slabs.own_cols_off = own_cols_off;

        // kid_lb: the parent's interpolated table evaluated over the
        // child's access-door columns — cached here so the k-best pruning
        // check at query time is a single add + compare.
        let mut kid_lb = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            if node.parent == NO_NODE {
                kid_lb.push(0.0);
                continue;
            }
            let p = node.parent;
            let mut lb = f64::INFINITY;
            for &c in slabs.kid_cols_of(i as NodeIdx) {
                lb = lb.min(slabs.pl_bound(p, c as usize));
            }
            kid_lb.push(lb);
        }
        slabs.kid_lb = kid_lb;

        // Exact per-row floors toward each child's access doors.
        let mut kid_rowmin = Vec::new();
        let mut kid_rowmin_off = Vec::with_capacity(nodes.len() + 1);
        kid_rowmin_off.push(0);
        for (i, node) in nodes.iter().enumerate() {
            if node.parent != NO_NODE {
                let p = node.parent;
                for r in 0..slabs.n_rows[p as usize] as usize {
                    let row = slabs.row(p, r);
                    let mut m = f64::INFINITY;
                    for &c in slabs.kid_cols_of(i as NodeIdx) {
                        let v = row[c as usize];
                        if v < m {
                            m = v;
                        }
                    }
                    kid_rowmin.push(m);
                }
            }
            kid_rowmin_off.push(kid_rowmin.len() as u32);
        }
        slabs.kid_rowmin = kid_rowmin;
        slabs.kid_rowmin_off = kid_rowmin_off;

        let mut door_rows = vec![[0u32; 2]; door_leaves.len()];
        for (d, leaves) in door_leaves.iter().enumerate() {
            for (k, &l) in leaves.iter().enumerate() {
                if l == NO_NODE {
                    continue;
                }
                let row = slabs
                    .row_of(l, DoorId(d as u32))
                    .expect("door is a row of its leaf matrix");
                door_rows[d][k] = row as u32;
            }
        }
        slabs.door_rows = door_rows;
        slabs
    }

    /// Row `r` of node `n`'s matrix as a contiguous slice, one distance
    /// per column.
    #[inline]
    pub fn row(&self, n: NodeIdx, r: usize) -> &[f64] {
        let i = n as usize;
        debug_assert!(r < self.n_rows[i] as usize, "slab row {r} out of bounds");
        let start = self.base + self.off[i] + r * self.stride[i] as usize;
        let row = &self.arena[start..start + self.n_cols[i] as usize];
        debug_assert_eq!(
            row.as_ptr() as usize % 64,
            0,
            "slab row {r} of node {n} not cache-line-aligned"
        );
        row
    }

    /// Number of rows of node `n`'s matrix.
    #[inline]
    pub fn n_rows(&self, n: NodeIdx) -> usize {
        self.n_rows[n as usize] as usize
    }

    /// Next-hop door of entry `(r, c)` of node `n`'s matrix (§2.1.1);
    /// `None` for NULL entries (final edges).
    #[inline]
    pub fn hop(&self, n: NodeIdx, r: usize, c: usize) -> Option<DoorId> {
        let i = n as usize;
        match self.hops[i][r * self.n_cols[i] as usize + c] {
            NO_DOOR => None,
            d => Some(DoorId(d)),
        }
    }

    /// Row ordinal of door `d` in node `n`'s matrix, if it is a row.
    #[inline]
    pub(crate) fn row_of(&self, n: NodeIdx, d: DoorId) -> Option<usize> {
        self.row_doors[n as usize].binary_search(&d).ok()
    }

    /// Column ordinal of door `d` in node `n`'s matrix, if it is a column.
    #[inline]
    pub(crate) fn col_of(&self, n: NodeIdx, d: DoorId) -> Option<usize> {
        self.col_doors[n as usize].binary_search(&d).ok()
    }

    /// Column indices of `c`'s access doors in its parent's matrix (rows
    /// double as cols for inner matrices). Empty for the root.
    #[inline]
    pub(crate) fn kid_cols_of(&self, c: NodeIdx) -> &[u32] {
        let i = c as usize;
        &self.kid_cols[self.kid_cols_off[i] as usize..self.kid_cols_off[i + 1] as usize]
    }

    /// Column indices of `n`'s own access doors in `n`'s matrix.
    #[inline]
    pub(crate) fn own_cols_of(&self, n: NodeIdx) -> &[u32] {
        let i = n as usize;
        &self.own_cols[self.own_cols_off[i] as usize..self.own_cols_off[i + 1] as usize]
    }

    /// Row index of door `d` in leaf `leaf`'s matrix (must be one of the
    /// door's leaves).
    #[inline]
    pub(crate) fn leaf_row_of(&self, door_leaves: &[[NodeIdx; 2]], leaf: NodeIdx, d: u32) -> u32 {
        let pair = door_leaves[d as usize];
        if pair[0] == leaf {
            self.door_rows[d as usize][0]
        } else {
            debug_assert_eq!(pair[1], leaf, "door {d} not in leaf {leaf}");
            self.door_rows[d as usize][1]
        }
    }

    /// The interpolated lower bound for column `c` of node `n`'s matrix:
    /// admissible (`pl_bound(n, c) <= M_n(r, c)` for every row `r`).
    #[inline]
    pub fn pl_bound(&self, n: NodeIdx, c: usize) -> f64 {
        let i = n as usize;
        let knots = &self.pl_knots[self.pl_off[i] as usize..self.pl_off[i + 1] as usize];
        let j = c / PL_SPACING;
        let (a, b) = (knots[j], knots[j + 1]);
        if !a.is_finite() || !b.is_finite() {
            return a.min(b);
        }
        let t = (c - j * PL_SPACING) as f64 / PL_SPACING as f64;
        a + t * (b - a)
    }

    /// Cached `min over c's columns of pl_bound(parent(c), col)` — the
    /// O(1) admissible bound consumed by k-best pruning. 0 for the root.
    #[inline]
    pub fn kid_lb(&self, c: NodeIdx) -> f64 {
        self.kid_lb[c as usize]
    }

    /// Per-row floors toward `c`'s access doors within `parent(c)`'s
    /// matrix: `kid_rowmin_of(c)[r]` never exceeds `P(r, col)` for any of
    /// `c`'s columns. Folding `base[bi] + rowmin[row(bi)]` over a base
    /// therefore lower-bounds every entry of the derived child vector.
    /// Empty for the root.
    #[inline]
    pub fn kid_rowmin_of(&self, c: NodeIdx) -> &[f64] {
        let i = c as usize;
        &self.kid_rowmin[self.kid_rowmin_off[i] as usize..self.kid_rowmin_off[i + 1] as usize]
    }

    /// Minimum over the finite entries of node `n`'s matrix (`+inf` when
    /// the matrix is empty or all-infinite).
    #[inline]
    pub fn env_min(&self, n: NodeIdx) -> f64 {
        self.env_min[n as usize]
    }

    /// Bytes of the distance arena and the next-hop entries — the
    /// matrices proper ([`crate::TreeStats::matrix_bytes`]).
    pub(crate) fn matrix_bytes(&self) -> usize {
        self.arena.len() * 8 + self.hops.iter().map(|h| h.len() * 4).sum::<usize>()
    }

    /// Every array of the store, once (per-node boxes and lists with
    /// their headers).
    pub fn size_bytes(&self) -> usize {
        let door_lists = |lists: &[Vec<DoorId>]| {
            lists
                .iter()
                .map(|l| l.len() * 4 + std::mem::size_of::<Vec<DoorId>>())
                .sum::<usize>()
        };
        self.matrix_bytes()
            + self.hops.len() * std::mem::size_of::<Box<[u32]>>()
            + door_lists(&self.row_doors)
            + door_lists(&self.col_doors)
            + self.off.len() * std::mem::size_of::<usize>()
            + (self.stride.len() + self.n_rows.len() + self.n_cols.len()) * 4
            + (self.kid_cols.len() + self.kid_cols_off.len()) * 4
            + (self.own_cols.len() + self.own_cols_off.len()) * 4
            + self.pl_knots.len() * 8
            + self.pl_off.len() * 4
            + self.kid_lb.len() * 8
            + self.kid_rowmin.len() * 8
            + self.kid_rowmin_off.len() * 4
            + self.env_min.len() * 8
            + self.door_rows.len() * 8
    }

    /// Full structural audit against the arena itself: every row
    /// cache-line-aligned and as wide as its door list, every CSR ordinal
    /// naming the door it was hoisted for, `env_min` the exact finite
    /// minimum, every PL value and `kid_lb` admissible, `kid_rowmin`
    /// exact. (That the arena holds the *right* distances is checked
    /// against Dijkstra by `build.rs`'s `structural_invariants`.)
    pub(crate) fn audit(&self, nodes: &[Node]) {
        assert_eq!(self.off.len(), nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let n = i as NodeIdx;
            let (rows, cols) = (self.n_rows(n), self.n_cols[i] as usize);
            let (row_doors, col_doors) = (&self.row_doors[i], &self.col_doors[i]);
            assert_eq!(row_doors.len(), rows);
            assert_eq!(col_doors.len(), cols);
            assert_eq!(self.hops[i].len(), rows * cols);
            assert!(self.stride[i] as usize >= cols);
            assert_eq!(self.stride[i] as usize % ROW_ALIGN, 0);
            let mut finite_min = f64::INFINITY;
            let mut colmin = vec![f64::INFINITY; cols];
            for r in 0..rows {
                let row = self.row(n, r);
                assert_eq!(row.as_ptr() as usize % 64, 0, "row unaligned");
                for (&v, cm) in row.iter().zip(&mut colmin) {
                    *cm = cm.min(v);
                    if v.is_finite() {
                        finite_min = finite_min.min(v);
                    }
                }
            }
            assert_eq!(self.env_min(n).to_bits(), finite_min.to_bits(), "env_min");
            // PL admissibility against true column minima.
            for (c, &cm) in colmin.iter().enumerate() {
                assert!(
                    self.pl_bound(n, c) <= cm,
                    "PL bound {} exceeds column minimum {cm} (node {n}, col {c})",
                    self.pl_bound(n, c),
                );
            }
            let own = self.own_cols_of(n);
            assert_eq!(own.len(), node.access_doors.len());
            for (&c, &a) in own.iter().zip(&node.access_doors) {
                assert_eq!(col_doors[c as usize], a);
            }
            if node.is_leaf() {
                assert_eq!((row_doors, col_doors), (&node.doors, &node.access_doors));
            } else {
                assert_eq!(row_doors, col_doors, "inner matrix square");
            }
            if node.parent != NO_NODE {
                let p = node.parent;
                let run = self.kid_cols_of(n);
                assert_eq!(run.len(), node.access_doors.len());
                for (&c, &a) in run.iter().zip(&node.access_doors) {
                    assert_eq!(self.col_doors[p as usize][c as usize], a);
                }
                // kid_lb lower-bounds every entry in the child's columns;
                // kid_rowmin is the exact per-row minimum (not merely a
                // bound): the fold in the k-best prune relies on it being
                // one of the row's true values.
                let rowmin = self.kid_rowmin_of(n);
                assert_eq!(rowmin.len(), self.n_rows(p));
                for (r, &rm) in rowmin.iter().enumerate() {
                    let prow = self.row(p, r);
                    let want = run
                        .iter()
                        .map(|&c| prow[c as usize])
                        .fold(f64::INFINITY, f64::min);
                    assert!(self.kid_lb(n) <= want);
                    assert_eq!(rm.to_bits(), want.to_bits(), "kid_rowmin drift");
                }
            }
        }
    }
}

/// `env_min` + PL knots of one node's matrix. Knot `j` (at ordinal `j*S`)
/// is the minimum column-minimum over the window `[j*S - S, j*S + S)`: one
/// full segment to either side, so both knots bounding any segment already
/// lower-bound every column inside it.
fn node_bounds(m: &DistMatrix) -> NodeBounds {
    let cols = m.cols.len();
    let mut colmin = vec![f64::INFINITY; cols];
    let mut env_min = f64::INFINITY;
    for r in 0..m.rows.len() {
        for (c, cm) in colmin.iter_mut().enumerate() {
            let v = m.dist[r * cols + c];
            if v < *cm {
                *cm = v;
            }
            if v.is_finite() && v < env_min {
                env_min = v;
            }
        }
    }
    let n_knots = cols.div_ceil(PL_SPACING) + 1;
    let mut knots = Vec::with_capacity(n_knots.max(2));
    for j in 0..n_knots.max(2) {
        let lo = (j * PL_SPACING).saturating_sub(PL_SPACING);
        let hi = ((j + 1) * PL_SPACING).min(cols);
        let v = colmin[lo.min(cols)..hi]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        knots.push(v);
    }
    NodeBounds { env_min, knots }
}
