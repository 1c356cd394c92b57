//! CI smoke for the metrics surface: boot the real `indoor_serve`
//! binary with synthesised venues, push a burst of queries through a
//! `NetClient`, fetch the exposition page over the wire (`Metrics`
//! frame, not an in-process snapshot), and lint it.
//!
//! ```sh
//! cargo run --release -p indoor-net --bin metrics_smoke
//! ```
//!
//! This is deliberately a separate process pair: the in-process test
//! (`metrics_page_fetches_over_the_wire_and_lints_clean`) proves the
//! frame round-trip, while this proves the shipped binary wires the
//! same page — flags parsed, venues synthesised, listener printed.

use indoor_net::NetClient;
use indoor_synth::{random_venue, workload};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

/// Every series family a live service exposes, with its type: the page
/// must carry exactly these. A family missing or retyped means a counter
/// moved store or a publish site was dropped, which the structural lint
/// alone cannot see; a new one must be added here on purpose.
const REQUIRED_SERIES: &[(&str, &str)] = &[
    ("indoor_admission_capacity", "gauge"),
    ("indoor_admission_timeouts_total", "counter"),
    ("indoor_admission_wait_us", "histogram"),
    ("indoor_cache_capacity", "gauge"),
    ("indoor_cache_evictions_total", "counter"),
    ("indoor_cache_hits_total", "counter"),
    ("indoor_cache_probe_us", "histogram"),
    ("indoor_cached_entries", "gauge"),
    ("indoor_degraded", "gauge"),
    ("indoor_degraded_venues", "gauge"),
    ("indoor_deltas_absorbed_total", "counter"),
    ("indoor_in_flight", "gauge"),
    ("indoor_kbest_updates_total", "counter"),
    ("indoor_latency_ns_total", "counter"),
    ("indoor_leaf_grid_builds_total", "counter"),
    ("indoor_live_objects", "gauge"),
    ("indoor_nodes_pruned_total", "counter"),
    ("indoor_nodes_pushed_total", "counter"),
    ("indoor_object_compactions_total", "counter"),
    ("indoor_object_leaf_builds_total", "counter"),
    ("indoor_object_leaf_touches_total", "counter"),
    ("indoor_object_slots", "gauge"),
    ("indoor_phase_descent_us", "histogram"),
    ("indoor_phase_heap_us", "histogram"),
    ("indoor_phase_leaf_fold_us", "histogram"),
    ("indoor_queries_total", "counter"),
    ("indoor_query_latency_us", "histogram"),
    ("indoor_replication_lag", "gauge"),
    ("indoor_shard_epoch", "gauge"),
    ("indoor_shard_version", "gauge"),
    ("indoor_shed_total", "counter"),
    ("indoor_slab_rows_total", "counter"),
    ("indoor_traced_queries_total", "counter"),
    ("indoor_venues", "gauge"),
    ("indoor_wal_append_us", "histogram"),
];

fn serve_binary() -> std::path::PathBuf {
    // Sibling binary in the same target directory as this one.
    let mut p = std::env::current_exe().expect("own path");
    p.pop();
    p.push(format!("indoor_serve{}", std::env::consts::EXE_SUFFIX));
    p
}

fn main() {
    let seed = 42u64;
    let mut child = Command::new(serve_binary())
        .args(["--addr", "127.0.0.1:0", "--venues", "2", "--seed", "42"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn indoor_serve (is the bin built? cargo build --release -p indoor-net)");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its listener")
            .expect("read server stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.trim().to_string();
        }
    };

    // Exercise the serving path so the latency histograms carry samples
    // and at least one engine trace fires (the first query on each
    // connection thread always traces).
    let venue_src = random_venue(seed);
    let reqs = workload::mixed_requests(&venue_src, 64, 4, 60.0, "atm", seed);
    let mut client = NetClient::connect(addr.as_str()).expect("connect to spawned server");
    for req in &reqs {
        client.query(0, req).expect("query answers");
    }
    let page = client.metrics().expect("metrics page over the wire");
    drop(client);

    let errors = indoor_model::metrics::lint_text(&page);
    assert!(
        errors.is_empty(),
        "exposition lint failed:\n{}\n--- page ---\n{page}",
        errors.join("\n")
    );
    let typed: Vec<(&str, &str)> = page
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' '))
        .collect();
    assert_eq!(
        typed, REQUIRED_SERIES,
        "metrics page families differ from the required list:\n{page}"
    );
    assert!(
        page.lines()
            .any(|l| l.starts_with("indoor_query_latency_us_count") && !l.ends_with(" 0")),
        "latency histogram never recorded:\n{page}"
    );

    writeln!(child.stdin.as_mut().expect("child stdin"), "stop").expect("send stop");
    let status = child.wait().expect("server exits");
    assert!(status.success(), "indoor_serve exited with {status}");
    println!(
        "metrics smoke ok: {} series lines fetched from {addr}, lint clean, all {} families present",
        page.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .count(),
        REQUIRED_SERIES.len()
    );
}
