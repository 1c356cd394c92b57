//! Typed-request API contract: a shuffled **heterogeneous**
//! `execute_batch` must return byte-identical results to the tree's own
//! per-kind calls, in input-slot order, for any thread count — the
//! acceptance bar of the request/response redesign.

use indoor_spatial::prelude::*;
use indoor_spatial::synth::{random_venue, workload};
use indoor_spatial::vip::KeywordObjects;
use proptest::prelude::*;
use std::sync::Arc;

const K: usize = 3;
const RADIUS: f64 = 100.0;
const KEYWORD: &str = "cafe";

/// A VIP-tree with objects attached and its keyword index.
fn fixture(venue: &Arc<Venue>, seed: u64) -> (Arc<VipTree>, Arc<KeywordObjects>) {
    let objects = workload::place_objects(venue, 16, seed ^ 0x51);
    let labelled = workload::cycling_labels(&objects, KEYWORD);
    let tree = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
    tree.attach_objects(&objects);
    let kw = Arc::new(KeywordObjects::build(tree.ip_tree(), &labelled));
    (Arc::new(tree), kw)
}

/// Bit-level equality between a heterogeneous response and the per-kind
/// answer for the same slot.
fn assert_bit_identical(slot: usize, got: &QueryResponse, want: &QueryResponse) {
    let bits = |v: &[(indoor_spatial::model::ObjectId, f64)]| -> Vec<(u32, u64)> {
        v.iter().map(|(o, d)| (o.0, d.to_bits())).collect()
    };
    assert_eq!(got.kind(), want.kind(), "slot {slot}: kind");
    match (got, want) {
        (QueryResponse::Knn(a), QueryResponse::Knn(b))
        | (QueryResponse::Range(a), QueryResponse::Range(b))
        | (QueryResponse::KnnKeyword(a), QueryResponse::KnnKeyword(b)) => {
            assert_eq!(bits(a), bits(b), "slot {slot}: objects");
        }
        (QueryResponse::ShortestDistance(a), QueryResponse::ShortestDistance(b)) => {
            assert_eq!(
                a.map(f64::to_bits),
                b.map(f64::to_bits),
                "slot {slot}: distance"
            );
        }
        (QueryResponse::ShortestPath(a), QueryResponse::ShortestPath(b)) => {
            assert_eq!(
                a.as_ref().map(|p| &p.doors),
                b.as_ref().map(|p| &p.doors),
                "slot {slot}: path doors"
            );
            assert_eq!(
                a.as_ref().map(|p| p.length.to_bits()),
                b.as_ref().map(|p| p.length.to_bits()),
                "slot {slot}: path length"
            );
        }
        _ => unreachable!("kinds already matched"),
    }
}

/// Per-slot expectations from the tree's own per-kind calls (and the
/// keyword index's), which share nothing with the engine's dispatch.
fn per_kind_expectations(
    tree: &VipTree,
    kw: &KeywordObjects,
    reqs: &[QueryRequest],
) -> Vec<QueryResponse> {
    reqs.iter()
        .map(|req| match req {
            QueryRequest::Knn { q, k } => QueryResponse::Knn(tree.knn(q, *k)),
            QueryRequest::Range { q, radius } => QueryResponse::Range(tree.range(q, *radius)),
            QueryRequest::KnnKeyword { q, k, keyword } => {
                QueryResponse::KnnKeyword(kw.knn_keyword(tree.ip_tree(), q, *k, keyword))
            }
            QueryRequest::ShortestDistance { s, t } => {
                QueryResponse::ShortestDistance(tree.shortest_distance_points(s, t))
            }
            QueryRequest::ShortestPath { s, t } => {
                QueryResponse::ShortestPath(tree.shortest_path_points(s, t))
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance-criteria property: shuffled heterogeneous batches
    /// are byte-identical to the tree's per-kind calls, slot for slot,
    /// across thread counts.
    #[test]
    fn heterogeneous_batch_is_bit_identical_to_per_kind(seed in 0u64..600, n_per_kind in 1usize..8) {
        let venue = Arc::new(random_venue(seed));
        let reqs = workload::mixed_requests(&venue, n_per_kind, K, RADIUS, KEYWORD, seed ^ 0x99);
        let (tree, kw) = fixture(&venue, seed);
        let want = per_kind_expectations(&tree, &kw, &reqs);
        for threads in [1usize, 4] {
            let engine = QueryEngine::for_vip(tree.clone())
                .with_threads(threads)
                .with_keywords(kw.clone());
            let got = engine.execute_batch(&reqs);
            prop_assert_eq!(got.len(), reqs.len());
            for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_bit_identical(slot, g, w);
            }
            // And the single-request path agrees too.
            for (slot, req) in reqs.iter().enumerate() {
                assert_bit_identical(slot, &engine.execute(req), &got[slot]);
            }
        }
    }
}

/// Without a keyword index, keyword requests answer empty — alone and in
/// a batch (mirrors `KeywordObjects::knn_keyword` on an unknown term).
#[test]
fn keyword_requests_without_index_answer_empty() {
    let venue = Arc::new(random_venue(77));
    let tree = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
    tree.attach_objects(&workload::place_objects(&venue, 10, 1));
    let engine = QueryEngine::for_vip(Arc::new(tree)).with_threads(1);
    let q = workload::query_points(&venue, 1, 2)[0];
    let req = QueryRequest::KnnKeyword {
        q,
        k: 3,
        keyword: KEYWORD.into(),
    };
    assert_eq!(engine.execute(&req), QueryResponse::KnnKeyword(Vec::new()));
    assert_eq!(
        engine.execute_batch(&[req.clone(), req]),
        vec![QueryResponse::KnnKeyword(Vec::new()); 2]
    );
}
