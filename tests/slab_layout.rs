//! The slab layout is the tree (DESIGN.md §14). What pins its answers:
//! the checked-in reference `tests/data/answers_two_layouts/` — the bytes
//! the slab walk and the since-deleted pointer walk both produced at the
//! last commit that had the two — and `tests/data/query_core/`, the same
//! streams answered by the IP-tree engine plus the `QueryStats` totals of
//! the walk, signed by the last commit that spelled the query core twice
//! (DESIGN.md §14.5); both replayed here at one and four worker threads.
//! Then the admissibility of the lower-bound layer on arbitrary venues;
//! the lazy leaf grid answering exactly as the eager one; and the VIP
//! table's argmin replay agreeing with the IP-tree's ascent replay.

use indoor_spatial::model::wire::{WireReader, WireWriter};
use indoor_spatial::model::QueryStats;
use indoor_spatial::prelude::*;
use indoor_spatial::synth::{presets, random_venue, workload};
use indoor_spatial::vip::{KeywordObjects, TreeHandle};
use proptest::prelude::*;
use std::sync::Arc;

const K: usize = 3;
const RADIUS: f64 = 120.0;
const KEYWORD: &str = "cafe";

/// Which tree answers: the input of the engine constructor
/// (`QueryEngine::new`), built over a venue.
type TreeFor = fn(Arc<Venue>) -> TreeHandle;

fn vip_tree(venue: Arc<Venue>) -> TreeHandle {
    TreeHandle::Vip(Arc::new(
        VipTree::build(venue, &VipTreeConfig::default()).unwrap(),
    ))
}

fn ip_tree(venue: Arc<Venue>) -> TreeHandle {
    TreeHandle::Ip(Arc::new(
        IpTree::build(venue, &VipTreeConfig::default()).unwrap(),
    ))
}

fn tree_for(venue: &Arc<Venue>, seed: u64, build: TreeFor) -> (TreeHandle, Arc<KeywordObjects>) {
    let objects = workload::place_objects(venue, 16, seed ^ 0x51);
    let labelled = workload::cycling_labels(&objects, KEYWORD);
    let tree = build(venue.clone());
    tree.ip().attach_objects(&objects);
    let kw = Arc::new(KeywordObjects::build(tree.ip(), &labelled));
    (tree, kw)
}

/// All five request kinds, interleaved.
fn mixed_stream(venue: &Venue, n: usize, seed: u64) -> Vec<QueryRequest> {
    let mut reqs = Vec::new();
    for (s, t) in workload::query_pairs(venue, n, seed) {
        reqs.push(QueryRequest::ShortestDistance { s, t });
        reqs.push(QueryRequest::ShortestPath { s, t });
    }
    for q in workload::query_points(venue, n, seed ^ 0xCD) {
        reqs.push(QueryRequest::Knn { q, k: K });
        reqs.push(QueryRequest::Range { q, radius: RADIUS });
        reqs.push(QueryRequest::KnnKeyword {
            q,
            k: K,
            keyword: KEYWORD.into(),
        });
    }
    reqs
}

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

/// The venues behind `tests/data/answers_two_layouts/` and
/// `tests/data/query_core/` (see their READMEs): `(venue, seed, stream
/// size)`.
fn fixture_cases() -> Vec<(Arc<Venue>, u64, usize)> {
    let mut cases = vec![
        (Arc::new(presets::melbourne_central().build()), 0x1A, 24),
        (Arc::new(presets::menzies().build()), 0x4D, 24),
    ];
    for seed in [3u64, 41, 97, 211, 389, 777, 1234, 4096] {
        cases.push((Arc::new(random_venue(seed)), seed, 6));
    }
    cases
}

/// One fixture case answered through `build`'s tree at 1 and 4 engine
/// threads, each response as its `WireWriter::put_response` bytes.
fn fixture_answers(venue: &Arc<Venue>, seed: u64, n: usize, build: TreeFor) -> [Vec<Vec<u8>>; 2] {
    let (tree, kw) = tree_for(venue, seed, build);
    let reqs = mixed_stream(venue, n, seed ^ 0x2E);
    [1usize, 4].map(|threads| {
        let engine = QueryEngine::new(tree.clone())
            .with_threads(threads)
            .with_keywords(kw.clone());
        let encode = |resp: &QueryResponse| {
            let mut w = WireWriter::new();
            w.put_response(resp);
            w.into_bytes()
        };
        engine.execute_batch(&reqs).iter().map(encode).collect()
    })
}

/// The `QueryStats` one fixture case's walks sum to, in README row order:
/// `VipTree::knn_with_stats` over the stream's kNN requests, then the
/// VIP-tree's and the IP-tree's `shortest_distance_with_stats` over its
/// pairs.
fn fixture_stats(venue: &Arc<Venue>, seed: u64, n: usize) -> [(&'static str, QueryStats); 3] {
    let (TreeHandle::Vip(vip), _) = tree_for(venue, seed, vip_tree) else {
        unreachable!("vip_tree builds a VIP-tree")
    };
    let ip = ip_tree(venue.clone());
    let ip = ip.ip();
    let mut stats = [
        ("vip.knn", QueryStats::default()),
        ("vip.sd", QueryStats::default()),
        ("ip.sd", QueryStats::default()),
    ];
    for req in mixed_stream(venue, n, seed ^ 0x2E) {
        match req {
            QueryRequest::Knn { q, k } => {
                vip.knn_with_stats(&q, k, &mut stats[0].1);
            }
            QueryRequest::ShortestDistance { s, t } => {
                vip.shortest_distance_with_stats(&s, &t, &mut stats[1].1);
                ip.shortest_distance_with_stats(&s, &t, &mut stats[2].1);
            }
            _ => {}
        }
    }
    stats
}

/// A `stats` row as `tests/data/query_core/README.md` records it.
fn stats_row(case: usize, walk: &str, s: &QueryStats) -> String {
    format!(
        "{case} {walk} {} {} {} {} {}",
        s.queries, s.nodes_visited, s.bound_candidates, s.bound_pruned, s.door_pairs
    )
}

fn data_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(file)
}

/// The checked-in answer files and the tree each was answered by.
const FIXTURES: [(&str, TreeFor); 2] = [
    ("answers_two_layouts/answers.bin", vip_tree),
    ("query_core/answers_ip.bin", ip_tree),
];

/// Every answer of a checked-in file's streams, byte for byte, at one and
/// four engine threads.
fn assert_answers_match((file, build): (&str, TreeFor)) {
    let bytes = std::fs::read(data_path(file)).expect("fixture readable");
    let mut r = WireReader::new(&bytes);
    let cases = fixture_cases();
    assert_eq!(r.get_u32("case count").unwrap() as usize, cases.len());
    for (case, (venue, seed, n)) in cases.iter().enumerate() {
        let slots = r.get_u32("slot count").unwrap() as usize;
        let want: Vec<&[u8]> = (0..slots).map(|_| r.get_bytes("answer").unwrap()).collect();
        for (got, threads) in fixture_answers(venue, *seed, *n, build).iter().zip([1, 4]) {
            assert_eq!(got.len(), slots, "{file} case {case}: stream length");
            if let Some(slot) = (0..slots).find(|&i| got[i] != want[i]) {
                panic!(
                    "{file} case {case} (seed {seed:#x}), threads {threads}: first differing \
                     slot {slot}: got {:02x?}, fixture {:02x?}",
                    got[slot], want[slot]
                );
            }
        }
    }
    r.finish("fixture").unwrap();
}

#[test]
fn answers_match_the_two_layout_fixture() {
    assert_answers_match(FIXTURES[0]);
}

/// The IP arm of the query core: the same streams through
/// `QueryEngine::for_ip`'s tree.
#[test]
fn ip_answers_match_the_query_core_fixture() {
    assert_answers_match(FIXTURES[1]);
}

/// The walk itself, not only its answers: the `QueryStats` totals the
/// README's table records (`QueryStats::prune_rate` is computed from
/// these counters).
#[test]
fn walk_counters_match_the_query_core_readme() {
    let readme = std::fs::read_to_string(data_path("query_core/README.md")).expect("README");
    let recorded: Vec<&str> = readme
        .lines()
        .filter(|l| {
            let mut tok = l.split(' ');
            tok.next().is_some_and(|c| c.parse::<usize>().is_ok())
                && tok.next().is_some_and(|w| w.contains('.'))
        })
        .collect();
    let mut computed = Vec::new();
    for (case, (venue, seed, n)) in fixture_cases().iter().enumerate() {
        for (walk, stats) in fixture_stats(venue, *seed, *n) {
            computed.push(stats_row(case, walk, &stats));
        }
    }
    assert_eq!(computed, recorded);
}

/// Rewrites both answer files from the current tree and prints the
/// README's stats rows — see the READMEs for when that is legitimate.
#[test]
#[ignore]
fn write_answers_fixture() {
    let cases = fixture_cases();
    for (file, build) in FIXTURES {
        let mut w = WireWriter::new();
        w.put_u32(cases.len() as u32);
        for (venue, seed, n) in &cases {
            let [answers, four] = fixture_answers(venue, *seed, *n, build);
            assert_eq!(answers, four, "{file}: 1 and 4 threads disagree");
            w.put_u32(answers.len() as u32);
            for a in &answers {
                w.put_bytes(a);
            }
        }
        std::fs::write(data_path(file), w.into_bytes()).expect("fixture writable");
    }
    for (case, (venue, seed, n)) in cases.iter().enumerate() {
        for (walk, stats) in fixture_stats(venue, *seed, *n) {
            println!("{}", stats_row(case, walk, &stats));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Admissibility of the lower-bound layer on arbitrary venues: the
    /// interpolated PL bound never exceeds **any** true door-to-door
    /// matrix entry in its column (so skipping a candidate whose bound
    /// exceeds the current k-th distance can never drop an answer), and
    /// the full structural audit — cache-line-aligned rows, consistent
    /// ordinal CSRs, exact `env_min` and `kid_rowmin`, admissible
    /// `kid_lb` — holds.
    #[test]
    fn interpolated_lower_bound_is_admissible(seed in 0u64..1_000) {
        let venue = Arc::new(random_venue(seed));
        let tree = IpTree::build(venue, &VipTreeConfig::default()).unwrap();
        tree.audit_layout();
        let slabs = tree.slabs();
        for n in 0..tree.num_nodes() as u32 {
            for r in 0..slabs.n_rows(n) {
                for (c, &v) in slabs.row(n, r).iter().enumerate() {
                    let lb = slabs.pl_bound(n, c);
                    prop_assert!(
                        lb <= v,
                        "seed {seed}: node {n} col {c} row {r}: bound {lb} > true {v}"
                    );
                }
            }
        }
    }

    /// The VIP-tree recovers paths by replaying its table's argmins
    /// (`table_chain`), the IP-tree by replaying its ascent: two routes to
    /// the same shortest path. The door sequences coincide except on
    /// near-ties, where each must still walk to the other's length; the
    /// lengths agree to rounding (the table associates
    /// `du + (leaf + M)` where the ascent computes `(du + leaf) + M`).
    #[test]
    fn vip_table_chain_agrees_with_ip_ascent_replay(seed in 0u64..2_000) {
        let venue = Arc::new(random_venue(seed));
        let vip = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
        let ip = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
        for (s, t) in workload::query_pairs(&venue, 12, seed ^ 0x6B) {
            let (a, b) = (vip.shortest_path_points(&s, &t), ip.shortest_path_points(&s, &t));
            prop_assert_eq!(a.is_some(), b.is_some(), "seed {}: reachability", seed);
            let (Some(a), Some(b)) = (a, b) else { continue };
            let tol = 1e-9 * b.length.max(1.0);
            prop_assert!((a.length - b.length).abs() <= tol,
                "seed {seed}: vip length {} vs ip {}", a.length, b.length);
            if a.doors != b.doors {
                let walked = a.validate(&venue).expect("vip path walkable");
                prop_assert!((walked - b.length).abs() <= 1e-6 * b.length.max(1.0),
                    "seed {seed}: vip doors {:?} walk to {walked}, ip {:?} to {}",
                    a.doors, b.doors, b.length);
            }
        }
        prop_assert_eq!(vip.decompose_fallback_count(), 0);
    }
}

/// Lazy leaf-grid contract: a tree whose door grids build on first
/// own-leaf touch answers byte-identically to one whose grids were all
/// force-built up front — across every query kind. Also pins the
/// economics: the lazy tree builds only the touched leaves.
#[test]
fn lazy_leaf_grid_answers_match_eager() {
    let venue = Arc::new(presets::melbourne_central().build());
    let seed = 0x7C;
    let (lazy_tree, lazy_kw) = tree_for(&venue, seed, vip_tree);
    let (eager_tree, eager_kw) = tree_for(&venue, seed, vip_tree);
    eager_tree.ip().build_leaf_grid();
    let total_leaves = eager_tree.ip().leaf_grid_builds();
    assert!(total_leaves > 0, "preset venue has leaves");
    assert_eq!(
        lazy_tree.ip().leaf_grid_builds(),
        0,
        "no grid builds before the first query"
    );

    let reqs = mixed_stream(&venue, 6, seed ^ 0x2E);
    let lazy_engine = QueryEngine::new(lazy_tree.clone()).with_keywords(lazy_kw);
    let eager_engine = QueryEngine::new(eager_tree.clone()).with_keywords(eager_kw);
    let lazy = lazy_engine.execute_batch(&reqs);
    let eager = eager_engine.execute_batch(&reqs);
    for (slot, (a, b)) in lazy.iter().zip(&eager).enumerate() {
        assert_bit_identical(slot, a, b);
    }

    let built = lazy_tree.ip().leaf_grid_builds();
    assert!(built > 0, "own-leaf scans must have built grids");
    assert!(
        built <= total_leaves,
        "lazy build count bounded by the leaf count"
    );
    // Idempotence: forcing the rest builds each remaining leaf once.
    lazy_tree.ip().build_leaf_grid();
    assert_eq!(lazy_tree.ip().leaf_grid_builds(), total_leaves);
    lazy_tree.ip().build_leaf_grid();
    assert_eq!(lazy_tree.ip().leaf_grid_builds(), total_leaves);
}
