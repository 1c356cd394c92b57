//! Per-query span state: phase timings and hot-path counters, owned by
//! the query scratch so tracing allocates nothing and takes no locks.
//!
//! A [`QueryTrace`] is armed by the engine's dispatch point when the
//! global sampling gate is open *and* the engine has somewhere to fold
//! the result; every instrumentation site in the kernels guards on
//! [`QueryTrace::active`], so a query that is not traced reads no clock
//! and touches no counter.

use std::time::Instant;

/// Phase timings and hot-path counters of one query. Cleared by
/// [`QueryTrace::begin`] at dispatch; folded into the engine's histograms
/// after the answer is produced. See DESIGN.md §15 for what each phase
/// covers.
#[derive(Debug, Default)]
pub struct QueryTrace {
    /// Whether this query is being traced ([`QueryTrace::active`]).
    pub on: bool,
    /// Nanoseconds spent in the own-leaf door-grid fold (the exact-scan
    /// branch of `scan_leaf`), including a first-touch lazy grid build.
    pub leaf_fold_ns: u64,
    /// Nanoseconds spent draining and ordering the final k-best heap.
    pub heap_ns: u64,
    /// Frontier pushes in the branch-and-bound walk (kNN heap + range
    /// stack), including the seeds: q's leaf and one deferred entry per
    /// ancestor.
    pub nodes_pushed: u64,
    /// Children skipped by an admissible bound before their distance
    /// vector was derived.
    pub nodes_pruned: u64,
    /// Slab matrix rows streamed by child-vector derivation.
    pub slab_rows: u64,
    /// Accepted k-best heap insertions (candidates that improved the
    /// running top-k / range result).
    pub kbest_updates: u64,
}

impl QueryTrace {
    /// Arm (or disarm) the trace for one query, clearing all accumulators.
    #[inline]
    pub fn begin(&mut self, on: bool) {
        *self = QueryTrace {
            on,
            ..QueryTrace::default()
        };
    }

    /// Whether instrumentation sites should record.
    #[inline(always)]
    pub fn active(&self) -> bool {
        self.on
    }

    /// A timestamp when tracing, `None` otherwise — the idiom for timing a
    /// phase: `let t = trace.start(); ...; trace.stop_leaf_fold(t);`.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.active() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a leaf-fold phase opened by [`QueryTrace::start`].
    #[inline]
    pub fn stop_leaf_fold(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.leaf_fold_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Close a heap-maintenance phase opened by [`QueryTrace::start`].
    #[inline]
    pub fn stop_heap(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.heap_ns += t0.elapsed().as_nanos() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_clears_accumulators_and_respects_feature() {
        let mut t = QueryTrace {
            nodes_pushed: 9,
            leaf_fold_ns: 1,
            ..QueryTrace::default()
        };
        t.begin(true);
        assert_eq!(t.nodes_pushed, 0);
        assert_eq!(t.leaf_fold_ns, 0);
        assert!(t.active());
        t.begin(false);
        assert!(!t.active());
        assert!(t.start().is_none());
    }
}
