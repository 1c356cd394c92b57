//! The allocation ledger: heap allocations per query, counted exactly by
//! a counting global allocator on the calling thread. Counts have no
//! timing noise, so they are pinned like the walk counts: a change that
//! adds or removes an allocation on a pinned path re-signs its pin and
//! names the allocation.
//!
//! Rows so far: the cross-leaf shortest path of both trees.

use indoor_spatial::prelude::*;
use indoor_spatial::synth::{presets, workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts every `alloc`, `alloc_zeroed` and `realloc` on the thread that
/// makes it; frees are not counted.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is exactly `System`'s. The count
// touches only a thread-local `Cell` with a const initialiser and no
// destructor, which never allocates and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one call of `f` on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = allocs();
    let out = f();
    let n = allocs() - before;
    drop(out);
    n
}

/// Cross-leaf SP on Men-2 and CL-lite, IP- and VIP-tree, one warm
/// scratch: exactly **1** allocation per query, the answer's `doors`
/// list. The replayed chains, the expansion stack and the door buffer
/// live in the scratch (DESIGN.md §4.1).
#[test]
fn cross_leaf_shortest_path_allocates_only_its_door_list() {
    for (name, spec) in [
        ("Men-2", presets::menzies_2()),
        ("CL-lite", presets::clayton_lite()),
    ] {
        let venue = Arc::new(spec.build());
        let config = VipTreeConfig::default().with_threads(1);
        let vip = VipTree::build(venue.clone(), &config).unwrap();
        let ip = vip.ip_tree();
        let pairs: Vec<(IndoorPoint, IndoorPoint)> = workload::query_pairs(&venue, 300, 42)
            .into_iter()
            .filter(|(s, t)| ip.leaf_of(s.partition) != ip.leaf_of(t.partition))
            .collect();
        assert!(
            pairs.len() > 250,
            "{name}: {} cross-leaf pairs",
            pairs.len()
        );

        let mut scratch = QueryScratch::new();
        for (s, t) in &pairs {
            vip.shortest_path_in(s, t, &mut scratch).unwrap();
            ip.shortest_path_in(s, t, &mut scratch).unwrap();
        }
        for (k, (s, t)) in pairs.iter().enumerate() {
            let vip_n = allocations_of(|| vip.shortest_path_in(s, t, &mut scratch));
            let ip_n = allocations_of(|| ip.shortest_path_in(s, t, &mut scratch));
            assert_eq!(
                (vip_n, ip_n),
                (1, 1),
                "{name} pair {k}: (VIP, IP) allocations"
            );
        }
    }
}
