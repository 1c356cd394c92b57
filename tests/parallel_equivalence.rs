//! Parallel build determinism: `VipTree::build` / `IpTree::build` with
//! `threads = 1` and `threads = N` must produce **bit-identical** indexes —
//! every slab arena row, next-hop entry, access-door list, superior-door
//! set and VIP table row — and therefore identical query answers. This is
//! the contract
//! that makes `VipTreeConfig::threads` safe to default to "all cores"
//! (DESIGN.md, "Parallel build determinism").

use indoor_spatial::prelude::*;
use indoor_spatial::synth::{presets, random_venue, workload};
use std::sync::Arc;

fn assert_trees_bit_identical(a: &IpTree, b: &IpTree, label: &str) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "{label}: node count");
    assert_eq!(a.num_leaves(), b.num_leaves(), "{label}: leaf count");
    for idx in 0..a.num_nodes() as u32 {
        assert_eq!(a.parent(idx), b.parent(idx), "{label}: node {idx} parent");
        assert_eq!(a.level(idx), b.level(idx), "{label}: node {idx} level");
        assert_eq!(
            a.children(idx),
            b.children(idx),
            "{label}: node {idx} children"
        );
        assert_eq!(
            a.access_doors(idx),
            b.access_doors(idx),
            "{label}: node {idx} access doors"
        );
        assert_eq!(a.rows(idx), b.rows(idx), "{label}: node {idx} matrix rows");
        if a.is_leaf(idx) {
            assert_eq!(
                a.leaf_partitions(idx),
                b.leaf_partitions(idx),
                "{label}: leaf {idx} partitions"
            );
        }
        let (sa, sb) = (a.slabs(), b.slabs());
        assert_eq!(
            sa.n_rows(idx),
            sb.n_rows(idx),
            "{label}: node {idx} matrix rows"
        );
        for r in 0..sa.n_rows(idx) {
            let (ra, rb) = (sa.row(idx, r), sb.row(idx, r));
            assert_eq!(ra.len(), rb.len(), "{label}: node {idx} matrix cols");
            for (c, (x, y)) in ra.iter().zip(rb).enumerate() {
                assert_eq!(x, y, "{label}: node {idx} dist[{r}][{c}] (ticks)");
                assert_eq!(
                    sa.hop(idx, r, c),
                    sb.hop(idx, r, c),
                    "{label}: node {idx} next hop [{r}][{c}]"
                );
            }
        }
    }
    for p in 0..a.venue().num_partitions() as u32 {
        assert_eq!(
            a.superior_doors(PartitionId(p)),
            b.superior_doors(PartitionId(p)),
            "{label}: superior doors of partition {p}"
        );
    }
}

fn check_venue(venue: Arc<Venue>, label: &str) {
    let serial_cfg = VipTreeConfig::default().with_threads(1);
    let parallel_cfg = VipTreeConfig::default().with_threads(4);

    let ip_serial = IpTree::build(venue.clone(), &serial_cfg).unwrap();
    let ip_parallel = IpTree::build(venue.clone(), &parallel_cfg).unwrap();
    assert_trees_bit_identical(&ip_serial, &ip_parallel, label);

    let vip_serial = VipTree::build(venue.clone(), &serial_cfg).unwrap();
    let vip_parallel = VipTree::build(venue.clone(), &parallel_cfg).unwrap();
    assert_trees_bit_identical(vip_serial.ip_tree(), vip_parallel.ip_tree(), label);
    assert_eq!(
        vip_serial.size_bytes(),
        vip_parallel.size_bytes(),
        "{label}: table footprint"
    );
    for d in 0..venue.num_doors() as u32 {
        for n in 0..vip_serial.ip_tree().num_nodes() as u32 {
            let rows = (
                vip_serial.table_row(DoorId(d), n),
                vip_parallel.table_row(DoorId(d), n),
            );
            let ((pa, da), (pb, db)) = match rows {
                (Some(x), Some(y)) => (x, y),
                (None, None) => continue,
                _ => panic!("{label}: door {d} node {n}: row in one table only"),
            };
            assert_eq!(pa, pb, "{label}: door {d} node {n} chain");
            assert_eq!(da, db, "{label}: door {d} node {n} table dists (ticks)");
        }
    }

    // Same answers, bit for bit, across query kinds.
    for (s, t) in workload::query_pairs(&venue, 40, 0xD15) {
        let d1 = ip_serial.shortest_distance(&s, &t);
        let d4 = ip_parallel.shortest_distance(&s, &t);
        assert_eq!(
            d1.map(f64::to_bits),
            d4.map(f64::to_bits),
            "{label}: IP distance {s:?} -> {t:?}"
        );
        let v1 = vip_serial.shortest_distance(&s, &t);
        let v4 = vip_parallel.shortest_distance(&s, &t);
        assert_eq!(
            v1.map(f64::to_bits),
            v4.map(f64::to_bits),
            "{label}: VIP distance {s:?} -> {t:?}"
        );
        let p1 = vip_serial.shortest_path(&s, &t);
        let p4 = vip_parallel.shortest_path(&s, &t);
        assert_eq!(
            p1.as_ref().map(|p| &p.doors),
            p4.as_ref().map(|p| &p.doors),
            "{label}: VIP path {s:?} -> {t:?}"
        );
    }

    let objects = workload::place_objects(&venue, 25, 0xB0);
    let knn_serial = VipTree::build(venue.clone(), &serial_cfg).unwrap();
    let knn_parallel = VipTree::build(venue.clone(), &parallel_cfg).unwrap();
    knn_serial.attach_objects(&objects);
    knn_parallel.attach_objects(&objects);
    for q in workload::query_points(&venue, 10, 0x17) {
        let a = ObjectQueries::knn(&knn_serial, &q, 5);
        let b = ObjectQueries::knn(&knn_parallel, &q, 5);
        assert_eq!(a.len(), b.len(), "{label}: kNN size at {q:?}");
        for ((oa, da), (ob, db)) in a.iter().zip(&b) {
            assert_eq!(oa, ob, "{label}: kNN object at {q:?}");
            assert_eq!(da.to_bits(), db.to_bits(), "{label}: kNN distance at {q:?}");
        }
    }
}

#[test]
fn parallel_build_is_bit_identical_on_random_venues() {
    for seed in [11u64, 4242, 90210] {
        check_venue(
            Arc::new(random_venue(seed)),
            &format!("random venue {seed}"),
        );
    }
}

#[test]
fn parallel_build_is_bit_identical_on_calibrated_presets() {
    check_venue(
        Arc::new(presets::melbourne_central().build()),
        "Melbourne Central",
    );
    check_venue(
        Arc::new(presets::melbourne_central_2().build()),
        "Melbourne Central x2",
    );
}

#[test]
fn thread_count_does_not_leak_into_answers_vs_default() {
    // The auto (threads = 0) build must also match the explicit one.
    let venue = Arc::new(random_venue(7));
    let auto = IpTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
    let one = IpTree::build(venue.clone(), &VipTreeConfig::default().with_threads(1)).unwrap();
    assert_trees_bit_identical(&auto, &one, "auto vs one");
}
