//! The matrix store: SoA distance slabs, next-hop entries and admissible
//! interpolated lower bounds (DESIGN.md §14).
//!
//! [`Slabs::build`] consumes the per-node [`crate::tree::DistMatrix`]
//! values the builders produce: `dist` rows go into one packed arena of
//! `u32` tick counts ([`crate::ticks`]), row `r` of node `n` at
//! `off[n] + r * n_cols[n]`, `next_hop` entries go into one run per node
//! for path recovery, and the matrices are dropped — the slab holds the
//! only copy of every distance.
//! The doors a row or column stands for are the tree's own runs
//! ([`IpTree::rows`] / access doors), not a copy here. The
//! kNN/range/ascent hot loops read straight row slices and hoisted column
//! ordinals instead of binary-searching door ids. On top of the slab sits
//! the lower-bound layer:
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
//! `kid_rowmin`, a minimum of stored entries, is ticks too; the rest of
//! the bound layer stays f64: its values are few, and an interpolated
//! knot is not a whole tick. [`Slabs::row`] `debug_assert!`s in-bounds
//! (tier-1's debug `cargo test` runs every query path through it);
//! [`Slabs::audit`] re-verifies the whole structure against the arena
//! itself, and the values against ground-truth Dijkstra are `build.rs`'s
//! `structural_invariants`.

use crate::ticks;
use crate::tree::{DistMatrix, IpTree, NodeIdx, Runs, NO_DOOR, NO_NODE};
use indoor_graph::parallel::par_map;
use indoor_model::DoorId;

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
#[derive(Debug, Default)]
pub struct Slabs {
    /// One arena for every node matrix, in ticks ([`ticks::INF`] = ∞),
    /// rows packed at `n_cols`.
    arena: Vec<u32>,
    /// Per node: arena offset and extent.
    off: Vec<usize>,
    n_rows: Vec<u32>,
    n_cols: Vec<u32>,
    /// Per node: next-hop door per matrix entry, row-major with `n_cols`
    /// columns ([`NO_DOOR`] = NULL) — what path recovery reads.
    hops: Runs<u32>,
    /// For node `c`: the column indices of `c`'s access doors in
    /// `parent(c)`'s matrix. Inner matrices have `rows == cols`, so the
    /// same run doubles as row indices. Empty for the root.
    kid_cols: Runs<u32>,
    /// For node `n`: the column indices of its access doors in its own
    /// matrix (leaf matrices' columns *are* the access doors, so leaves
    /// get the identity run).
    own_cols: Runs<u32>,
    /// PL bound table: knots per node.
    pl_knots: Runs<f64>,
    /// Per node `c`: the PL table of `parent(c)` evaluated over `c`'s
    /// access-door columns, minimised — an admissible lower bound on any
    /// derived child vector entry net of the base minimum. 0 for the root.
    kid_lb: Vec<f64>,
    /// Row minima: for non-root node `c`, `kid_rowmin_of(c)[r] = min
    /// over c's parent-matrix columns of P(r, col)` — the exact per-row
    /// distance floor used by k-best pruning. Unlike the per-node column
    /// minima (which include the zero diagonal of every square inner
    /// matrix), a row's minimum over *one child's* columns is zero only
    /// where that row's door really is one of the child's access doors, so
    /// this bound has teeth. In ticks, like the arena it is read from.
    /// Empty run for the root.
    kid_rowmin: Runs<u32>,
    /// Per node: minimum over the finite matrix entries (`+inf` when the
    /// matrix is empty or all-infinite).
    env_min: Vec<f64>,
    /// Per venue door: its row index within each of its (≤ 2) leaves'
    /// matrices, aligned with the tree's `door_leaves`.
    pub(crate) door_rows: Vec<[u32; 2]>,
}

impl Slabs {
    /// Pack the finished matrices of `tree` (`matrices[i]` belongs to
    /// node `i`), consuming them. `tree` is complete but for its slab.
    pub(crate) fn build(tree: &IpTree, matrices: Vec<DistMatrix>) -> Slabs {
        let n_nodes = tree.num_nodes();
        debug_assert_eq!(n_nodes, matrices.len());
        let bounds: Vec<NodeBounds> =
            par_map(&matrices, tree.config.threads, |_, m| node_bounds(m));

        let mut off = Vec::with_capacity(n_nodes);
        let mut n_rows = Vec::with_capacity(n_nodes);
        let mut n_cols = Vec::with_capacity(n_nodes);
        let mut total = 0usize;
        for m in &matrices {
            off.push(total);
            n_rows.push(m.rows.len() as u32);
            n_cols.push(m.cols.len() as u32);
            total += m.dist.len();
        }

        // Each matrix is dropped as soon as its rows and hops are in.
        let mut arena = Vec::with_capacity(total);
        let mut hops = Runs::default();
        for m in matrices {
            arena.extend(m.dist.iter().map(|&d| ticks::encode(d)));
            hops.push_run(m.next_hop.iter().copied());
        }

        let mut slabs = Slabs {
            arena,
            off,
            n_rows,
            n_cols,
            hops,
            pl_knots: bounds.iter().map(|b| b.knots.iter().copied()).collect(),
            env_min: bounds.iter().map(|b| b.env_min).collect(),
            ..Slabs::default()
        };

        // Column runs. `kid_cols` for node c lives under parent(c)'s
        // matrix; `own_cols` for node n under n's own matrix.
        for n in 0..n_nodes as NodeIdx {
            let (p, access) = (tree.parent(n), tree.access_doors(n));
            let cols_in = |m: NodeIdx| {
                access
                    .iter()
                    .map(move |&a| tree.col_of(m, a).expect("access door is a column") as u32)
            };
            if p == NO_NODE {
                slabs.kid_cols.push_run([]);
            } else {
                slabs.kid_cols.push_run(cols_in(p));
            }
            slabs.own_cols.push_run(cols_in(n));
        }

        // kid_lb: the parent's interpolated table evaluated over the
        // child's access-door columns — cached here so the k-best pruning
        // check at query time is a single add + compare.
        slabs.kid_lb = (0..n_nodes as NodeIdx)
            .map(|n| match tree.parent(n) {
                NO_NODE => 0.0,
                p => slabs.kid_cols_of(n).iter().fold(f64::INFINITY, |lb, &c| {
                    lb.min(slabs.pl_bound(p, c as usize))
                }),
            })
            .collect();

        // Exact per-row floors toward each child's access doors.
        slabs.kid_rowmin = (0..n_nodes as NodeIdx)
            .map(|n| {
                let p = tree.parent(n);
                let rows = if p == NO_NODE { 0 } else { slabs.n_rows(p) };
                let slabs = &slabs;
                (0..rows).map(move |r| {
                    let row = slabs.row(p, r);
                    let kid = slabs.kid_cols_of(n).iter();
                    kid.map(|&c| row[c as usize]).min().unwrap_or(ticks::INF)
                })
            })
            .collect();

        slabs.door_rows = tree
            .door_leaves
            .iter()
            .enumerate()
            .map(|(d, leaves)| {
                leaves.map(|l| match l {
                    NO_NODE => 0,
                    l => tree
                        .row_of(l, DoorId(d as u32))
                        .expect("door is a row of its leaf matrix") as u32,
                })
            })
            .collect();
        slabs
    }

    /// Row `r` of node `n`'s matrix as a contiguous slice, one distance
    /// per column, in ticks ([`crate::ticks`]).
    #[inline]
    pub fn row(&self, n: NodeIdx, r: usize) -> &[u32] {
        let i = n as usize;
        debug_assert!(r < self.n_rows[i] as usize, "slab row {r} out of bounds");
        let cols = self.n_cols[i] as usize;
        let start = self.off[i] + r * cols;
        &self.arena[start..start + cols]
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
        match self.hops.get(i)[r * self.n_cols[i] as usize + c] {
            NO_DOOR => None,
            d => Some(DoorId(d)),
        }
    }

    /// Column indices of `c`'s access doors in its parent's matrix (rows
    /// double as cols for inner matrices). Empty for the root.
    #[inline]
    pub(crate) fn kid_cols_of(&self, c: NodeIdx) -> &[u32] {
        self.kid_cols.get(c as usize)
    }

    /// Column indices of `n`'s own access doors in `n`'s matrix.
    #[inline]
    pub(crate) fn own_cols_of(&self, n: NodeIdx) -> &[u32] {
        self.own_cols.get(n as usize)
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
        let knots = self.pl_knots.get(n as usize);
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
    /// In ticks ([`crate::ticks`]). Empty for the root.
    #[inline]
    pub fn kid_rowmin_of(&self, c: NodeIdx) -> &[u32] {
        self.kid_rowmin.get(c as usize)
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
        self.arena.len() * 4 + self.hops.size_bytes()
    }

    /// Every array of the store, once.
    pub fn size_bytes(&self) -> usize {
        self.matrix_bytes()
            + self.off.len() * std::mem::size_of::<usize>()
            + (self.n_rows.len() + self.n_cols.len()) * 4
            + self.kid_cols.size_bytes()
            + self.own_cols.size_bytes()
            + self.pl_knots.size_bytes()
            + self.kid_lb.len() * 8
            + self.kid_rowmin.size_bytes()
            + self.env_min.len() * 8
            + self.door_rows.len() * 8
    }

    /// Full structural audit against the arena itself: every matrix as
    /// tall and wide as the tree's door runs and packed end to end in
    /// node order, every CSR ordinal naming the door it was
    /// hoisted for, `env_min` the exact finite minimum, every PL value
    /// and `kid_lb` admissible, `kid_rowmin` exact. (That the arena
    /// holds the *right* distances is checked against Dijkstra by
    /// `build.rs`'s `structural_invariants`.)
    pub(crate) fn audit(&self, tree: &IpTree) {
        assert_eq!(self.off.len(), tree.num_nodes());
        let mut packed = 0;
        for n in 0..tree.num_nodes() as NodeIdx {
            let i = n as usize;
            let (rows, cols) = (self.n_rows(n), self.n_cols[i] as usize);
            let (access, col_ids) = (tree.access_doors(n), tree.cols(n));
            assert_eq!(tree.rows(n).len(), rows);
            assert_eq!(col_ids.len(), cols);
            assert_eq!(self.hops.get(i).len(), rows * cols);
            assert_eq!(
                self.off[i], packed,
                "node {n} not packed after its predecessor"
            );
            packed += rows * cols;
            let mut finite_min = f64::INFINITY;
            let mut colmin = vec![f64::INFINITY; cols];
            for r in 0..rows {
                for (&v, cm) in self.row(n, r).iter().zip(&mut colmin) {
                    let v = ticks::decode(v);
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
            assert_eq!(own.len(), access.len());
            for (&c, &a) in own.iter().zip(access) {
                assert_eq!(col_ids[c as usize], a);
            }
            let p = tree.parent(n);
            if p != NO_NODE {
                let run = self.kid_cols_of(n);
                assert_eq!(run.len(), access.len());
                for (&c, &a) in run.iter().zip(access) {
                    assert_eq!(tree.cols(p)[c as usize], a);
                }
                // kid_lb lower-bounds every entry in the child's columns;
                // kid_rowmin is the exact per-row minimum (not merely a
                // bound): the fold in the k-best prune relies on it being
                // one of the row's true values.
                let rowmin = self.kid_rowmin_of(n);
                assert_eq!(rowmin.len(), self.n_rows(p));
                for (r, &rm) in rowmin.iter().enumerate() {
                    let prow = self.row(p, r);
                    let want = run.iter().map(|&c| prow[c as usize]).min();
                    let want = want.unwrap_or(ticks::INF);
                    assert!(self.kid_lb(n) <= ticks::decode(want));
                    assert_eq!(rm, want, "kid_rowmin drift");
                }
            }
        }
        assert_eq!(self.arena.len(), packed, "arena holds padding");
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
