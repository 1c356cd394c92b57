//! Concurrent query correctness: many threads hammering one shared
//! `Arc<VipTree>` through the pooled single-query APIs, and
//! `QueryEngine::execute_batch`, must produce **byte-identical** answers
//! to a serial loop in input order (same contract style as
//! `parallel_equivalence.rs`, but for the query path instead of the
//! build).

use indoor_spatial::prelude::*;
use indoor_spatial::synth::{presets, random_venue, workload};
use indoor_spatial::vip::{KeywordObjects, QueryEngine};
use proptest::prelude::*;
use std::sync::Arc;

fn bits(r: &[(indoor_spatial::model::ObjectId, f64)]) -> Vec<(u32, u64)> {
    r.iter().map(|(o, d)| (o.0, d.to_bits())).collect()
}

/// One request per item through `execute_batch`, answers in item order.
fn batch<T>(
    engine: &QueryEngine,
    items: &[T],
    req: impl Fn(&T) -> QueryRequest,
) -> Vec<QueryResponse> {
    let reqs: Vec<QueryRequest> = items.iter().map(req).collect();
    engine.execute_batch(&reqs)
}

fn object_answer(r: QueryResponse) -> Vec<(indoor_spatial::model::ObjectId, f64)> {
    r.into_objects().expect("an object answer")
}

/// One shared tree, 8 threads, each replaying the full workload through
/// the pooled single-query APIs; every answer must equal the serial one
/// bit for bit.
#[test]
fn threads_hammering_shared_tree_match_serial() {
    let venue = Arc::new(random_venue(404));
    let tree = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
    tree.attach_objects(&workload::place_objects(&venue, 30, 9));
    let tree = Arc::new(tree);

    let points = workload::query_points(&venue, 25, 0xC0);
    let pairs = workload::query_pairs(&venue, 25, 0xC1);

    let serial_knn: Vec<_> = points.iter().map(|q| tree.knn(q, 5)).collect();
    let serial_range: Vec<_> = points.iter().map(|q| tree.range(q, 120.0)).collect();
    let serial_dist: Vec<_> = pairs
        .iter()
        .map(|(s, t)| tree.shortest_distance_points(s, t))
        .collect();
    let serial_path: Vec<_> = pairs
        .iter()
        .map(|(s, t)| tree.shortest_path_points(s, t))
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..8 {
            let tree = &tree;
            let points = &points;
            let pairs = &pairs;
            let serial_knn = &serial_knn;
            let serial_range = &serial_range;
            let serial_dist = &serial_dist;
            let serial_path = &serial_path;
            scope.spawn(move || {
                // Stagger the starting offset so the pool interleaves
                // scratches between different query kinds across threads.
                for i in 0..points.len() {
                    let i = (i + worker * 3) % points.len();
                    assert_eq!(
                        bits(&tree.knn(&points[i], 5)),
                        bits(&serial_knn[i]),
                        "worker {worker}: kNN {i}"
                    );
                    assert_eq!(
                        bits(&tree.range(&points[i], 120.0)),
                        bits(&serial_range[i]),
                        "worker {worker}: range {i}"
                    );
                    let (s, t) = &pairs[i];
                    assert_eq!(
                        tree.shortest_distance_points(s, t).map(f64::to_bits),
                        serial_dist[i].map(f64::to_bits),
                        "worker {worker}: distance {i}"
                    );
                    let p = tree.shortest_path_points(s, t);
                    assert_eq!(
                        p.as_ref().map(|p| &p.doors),
                        serial_path[i].as_ref().map(|p| &p.doors),
                        "worker {worker}: path doors {i}"
                    );
                    assert_eq!(
                        p.map(|p| p.length.to_bits()),
                        serial_path[i].as_ref().map(|p| p.length.to_bits()),
                        "worker {worker}: path length {i}"
                    );
                }
            });
        }
    });
}

/// A batch returns slot `i` == serial answer `i`, for every thread count,
/// on a calibrated preset.
#[test]
fn batch_apis_match_serial_on_preset() {
    let venue = Arc::new(presets::melbourne_central().build());
    let objects = workload::place_objects(&venue, 60, 0xA1);
    let labelled = workload::cycling_labels(&objects, "cafe");
    let tree = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
    tree.attach_objects(&objects);
    let kw = Arc::new(KeywordObjects::build(tree.ip_tree(), &labelled));
    let tree = Arc::new(tree);

    let points = workload::query_points(&venue, 40, 0xB2);
    let pairs = workload::query_pairs(&venue, 40, 0xB3);

    let serial_knn: Vec<_> = points.iter().map(|q| tree.knn(q, 4)).collect();
    let serial_kw: Vec<_> = points
        .iter()
        .map(|q| kw.knn_keyword(tree.ip_tree(), q, 4, "cafe"))
        .collect();
    let serial_path: Vec<_> = pairs
        .iter()
        .map(|(s, t)| tree.shortest_path_points(s, t))
        .collect();

    for threads in [1usize, 2, 4] {
        let engine = QueryEngine::for_vip(tree.clone())
            .with_threads(threads)
            .with_keywords(kw.clone());
        let got_knn: Vec<_> = batch(&engine, &points, |&q| QueryRequest::Knn { q, k: 4 })
            .into_iter()
            .map(object_answer)
            .collect();
        let got_kw: Vec<_> = batch(&engine, &points, |&q| QueryRequest::KnnKeyword {
            q,
            k: 4,
            keyword: "cafe".into(),
        })
        .into_iter()
        .map(object_answer)
        .collect();
        let got_path: Vec<_> = batch(&engine, &pairs, |&(s, t)| QueryRequest::ShortestPath {
            s,
            t,
        })
        .into_iter()
        .map(|r| r.into_path().expect("a path answer"))
        .collect();
        assert_eq!(got_knn.len(), points.len());
        for i in 0..points.len() {
            assert_eq!(
                bits(&got_knn[i]),
                bits(&serial_knn[i]),
                "threads {threads}: kNN slot {i}"
            );
            assert_eq!(
                bits(&got_kw[i]),
                bits(&serial_kw[i]),
                "threads {threads}: keyword slot {i}"
            );
        }
        for i in 0..pairs.len() {
            assert_eq!(
                got_path[i].as_ref().map(|p| &p.doors),
                serial_path[i].as_ref().map(|p| &p.doors),
                "threads {threads}: path slot {i}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batch results preserve input order: each output slot is exactly
    /// the single-query answer for the same slot's input, even with
    /// duplicated queries and multiple worker threads racing.
    #[test]
    fn batch_preserves_input_order(seed in 0u64..800, n_q in 1usize..30) {
        let venue = Arc::new(random_venue(seed));
        let tree = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
        tree.attach_objects(&workload::place_objects(&venue, 20, seed ^ 0x51));
        let tree = Arc::new(tree);
        let engine = QueryEngine::for_vip(tree.clone()).with_threads(4);

        let mut points = workload::query_points(&venue, n_q, seed ^ 0x52);
        // Duplicate a prefix so identical queries occupy distinct slots.
        let dup: Vec<_> = points.iter().take(3).copied().collect();
        points.extend(dup);
        let pairs = workload::query_pairs(&venue, n_q, seed ^ 0x53);

        let got = batch(&engine, &points, |&q| QueryRequest::Knn { q, k: 3 });
        prop_assert_eq!(got.len(), points.len());
        for (i, (r, q)) in got.into_iter().zip(&points).enumerate() {
            prop_assert_eq!(bits(&object_answer(r)), bits(&tree.knn(q, 3)), "kNN slot {}", i);
        }
        let got = batch(&engine, &points, |&q| QueryRequest::Range { q, radius: 90.0 });
        for (i, (r, q)) in got.into_iter().zip(&points).enumerate() {
            prop_assert_eq!(bits(&object_answer(r)), bits(&tree.range(q, 90.0)), "range slot {}", i);
        }
        let got = batch(&engine, &pairs, |&(s, t)| QueryRequest::ShortestDistance { s, t });
        prop_assert_eq!(got.len(), pairs.len());
        for (i, (s, t)) in pairs.iter().enumerate() {
            prop_assert_eq!(
                got[i].distance().expect("a distance answer").map(f64::to_bits),
                tree.shortest_distance_points(s, t).map(f64::to_bits),
                "distance slot {}", i
            );
        }
    }
}
