//! The allocation ledger: heap allocations per query, counted exactly by
//! a counting global allocator on the calling thread. Counts have no
//! timing noise, so they are pinned like the walk counts: a change that
//! adds or removes an allocation on a pinned path re-signs its pin and
//! names the allocation.
//!
//! Rows so far, each on Men-2 and CL-lite with one warm scratch: the
//! cross-leaf shortest path of both trees, and the tree's kNN, range and
//! shortest distance. On Men-2: `IndoorService::execute` on a cache hit
//! and on a miss, and `execute_batch` of 4 hits.

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
    for (name, venue, vip) in presets_ledger() {
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

/// The two presets every row runs on, built single-threaded.
fn presets_ledger() -> Vec<(&'static str, Arc<Venue>, VipTree)> {
    [
        ("Men-2", presets::menzies_2()),
        ("CL-lite", presets::clayton_lite()),
    ]
    .into_iter()
    .map(|(name, spec)| {
        let venue = Arc::new(spec.build());
        let config = VipTreeConfig::default().with_threads(1);
        let vip = VipTree::build(venue.clone(), &config).unwrap();
        (name, venue, vip)
    })
    .collect()
}

/// Allocations of `f` over a whole stream, after one untimed pass over the
/// same stream has warmed the scratch, the grid and the engine pool.
fn stream_allocations<Q>(stream: &[Q], mut f: impl FnMut(&Q)) -> u64 {
    stream.iter().for_each(&mut f);
    allocations_of(|| stream.iter().for_each(&mut f))
}

/// Tree kNN (k = 10 over 1 000 objects) and range (r = 50 m) from 400
/// query points, VIP-tree, one warm scratch.
///
/// Per kNN exactly **1**: the answer, collected once from the k-best heap
/// (`scan_leaf`'s own-leaf door seeds live in the scratch). Per range: the
/// answer, allocated once at its final length from the hits the scratch
/// collects, so 1 for a non-empty answer and 0 for an empty one. The
/// stream total is pinned, and checked against the count of non-empty
/// answers; every answer is non-empty on these streams.
#[test]
fn knn_and_range_allocate_only_their_answer() {
    for ((name, venue, vip), range_pin) in presets_ledger().into_iter().zip([400, 400]) {
        let objects = workload::place_objects(&venue, 1_000, 42);
        vip.attach_objects(&objects);
        let points = workload::query_points(&venue, 400, 42);
        let mut scratch = QueryScratch::new();
        let knn = stream_allocations(&points, |q| {
            vip.knn_in(q, 10, &mut scratch);
        });
        assert_eq!(knn, points.len() as u64, "{name}: kNN stream");

        let range = stream_allocations(&points, |q| {
            vip.range_in(q, 50.0, &mut scratch);
        });
        let named = points
            .iter()
            .filter(|q| !vip.range_in(q, 50.0, &mut scratch).is_empty())
            .count() as u64;
        assert_eq!(
            (range, named),
            (range_pin, range_pin),
            "{name}: range stream"
        );
    }
}

/// Tree shortest distance over 400 seeded pairs, IP- and VIP-tree, one
/// warm scratch. A cross-leaf pair allocates nothing. A same-leaf pair is
/// routed by a pooled full-graph engine (`IndoorPoint::route_to`), which
/// allocates the door seeds of both endpoints: **2** each, for 5 such
/// pairs on Men-2 and 20 on CL-lite.
#[test]
fn shortest_distance_allocates_only_same_leaf_door_seeds() {
    for ((name, venue, vip), same_leaf_pin) in presets_ledger().into_iter().zip([5, 20]) {
        let ip = vip.ip_tree();
        let pairs = workload::query_pairs(&venue, 400, 42);
        let same_leaf = pairs
            .iter()
            .filter(|(s, t)| ip.leaf_of(s.partition) == ip.leaf_of(t.partition))
            .count() as u64;
        assert_eq!(same_leaf, same_leaf_pin, "{name}: same-leaf pairs");
        let mut scratch = QueryScratch::new();
        let vip_n = stream_allocations(&pairs, |(s, t)| {
            vip.shortest_distance_in(s, t, &mut scratch);
        });
        let ip_n = stream_allocations(&pairs, |(s, t)| {
            ip.shortest_distance_in(s, t, &mut scratch);
        });
        assert_eq!(
            (vip_n, ip_n),
            (2 * same_leaf, 2 * same_leaf),
            "{name}: (VIP, IP) SD stream"
        );
    }
}

/// A volatile one-venue service on Men-2 (1 000 objects, one batch
/// worker) and 200 kNN requests (k = 10) it has not seen, after a pass
/// with k = 11 from the same points has built their leaf grids and grown
/// the engine's scratch to what k = 10 needs. Returns the service, its
/// venue id and the requests; the cache holds the 200 warm-up answers.
fn warm_service() -> (IndoorService, VenueId, Vec<QueryRequest>) {
    let venue = Arc::new(presets::menzies_2().build());
    let service = IndoorService::new();
    let config = ShardConfig {
        threads: 1,
        objects: workload::place_objects(&venue, 1_000, 42),
        ..ShardConfig::default()
    };
    let id = service.add_venue(venue.clone(), config).unwrap();
    let points = workload::query_points(&venue, 200, 42);
    for &q in &points {
        service
            .execute(id, &QueryRequest::Knn { q, k: 11 })
            .unwrap();
    }
    let reqs = points
        .into_iter()
        .map(|q| QueryRequest::Knn { q, k: 10 })
        .collect();
    (service, id, reqs)
}

/// `IndoorService::execute`, kNN. A miss makes **2**: the tree's answer
/// and the copy the cache keeps (the request holds no heap data). Two
/// misses make one more, where a cache container grows: the 225th entry
/// (miss 24) outgrows the map's 256 buckets, and the 257th (miss 56) the
/// clock ring's capacity. A hit makes exactly **1**, the answer cloned
/// out of the cache.
#[test]
fn service_execute_allocates_one_answer_clone_on_a_hit() {
    let (service, id, reqs) = warm_service();
    let misses: Vec<u64> = reqs
        .iter()
        .map(|r| allocations_of(|| service.execute(id, r).unwrap()))
        .collect();
    let want: Vec<u64> = (0..reqs.len())
        .map(|i| if i == 24 || i == 56 { 3 } else { 2 })
        .collect();
    assert_eq!(misses, want, "misses");
    for (k, r) in reqs.iter().enumerate() {
        let n = allocations_of(|| service.execute(id, r).unwrap());
        assert_eq!(n, 1, "hit {k}");
    }
}

/// `IndoorService::execute_batch` of 4 cached kNN requests for one venue:
/// exactly **11** per batch. This is the count the batch path makes
/// today, pinned so that a change to it shows; no breakdown is asserted.
#[test]
fn service_batch_of_four_hits_allocates_eleven() {
    let (service, id, reqs) = warm_service();
    for r in &reqs {
        service.execute(id, r).unwrap();
    }
    for (k, chunk) in reqs.chunks(4).enumerate() {
        let batch: Vec<(VenueId, QueryRequest)> = chunk.iter().map(|r| (id, r.clone())).collect();
        let n = allocations_of(|| service.execute_batch(&batch));
        assert_eq!(n, 11, "batch {k}");
    }
}
