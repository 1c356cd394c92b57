//! CI perf regression gate over `BENCH_query.json` trajectories.
//!
//! Compares a freshly measured JSON against the committed baseline:
//!
//! ```sh
//! cargo run --release -p indoor-bench --bin bench_check -- \
//!     --baseline BENCH_query.json --fresh /tmp/BENCH_query.json [--threshold 2.5]
//! ```
//!
//! For every (dataset, query, threads, venues) cell present in the
//! baseline, the fresh median latency may be at most `threshold ×` the
//! committed one. Exceeding it **fails (exit 1)** — but only when the two
//! files agree on `host_cores`; CI runners with different core counts (or
//! a laptop checking a CI-generated baseline) produce incomparable
//! thread-scaling numbers, so a mismatch downgrades ratio violations to
//! warnings. A cell that disappeared from the fresh run fails
//! unconditionally with a refresh hint: that is schema drift (a renamed
//! or deleted workload gating nothing), not hardware noise.
//!
//! The inverse direction is graded softer: a fresh cell **absent from the
//! baseline** (a newly added workload, e.g. the `mixed` cells or the
//! `SVC` venue-count axis on their first run) only warns — it cannot be
//! gated before a baseline containing it is committed. Once the refreshed
//! baseline lands, the cell joins the hard-fail set like any other
//! (`venues` defaults to 1 for rows predating the axis, so old baselines
//! stay readable).
//!
//! The matching/grading policy itself lives in [`indoor_bench::gate`],
//! shared with `scenario_check`.

use indoor_bench::gate;
use indoor_model::json::{self, Json};

struct Bench {
    host_cores: usize,
    cells: Vec<gate::Cell>,
    /// `(cell name, prune_rate)` for every row carrying the stat.
    prune_rates: Vec<(String, Option<f64>)>,
    /// `(dataset, query, us)` for the `telemetry_knn_{on,off}` A/B cells.
    telemetry: Vec<(String, String, f64)>,
}

/// The query whose rows must carry a strictly positive `prune_rate`: the
/// kNN walk counts every branch-and-bound candidate against the
/// interpolated lower bound, so a zero means the bound layer is dead.
const PRUNE_GATED_QUERY: &str = "knn";

fn load(path: &str) -> Bench {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
    let host_cores = doc
        .get("host_cores")
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("{path}: missing host_cores"));
    let mut cells = Vec::new();
    let mut prune_rates = Vec::new();
    let mut telemetry = Vec::new();
    for row in doc
        .get("results")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{path}: missing results array"))
    {
        let dataset = row
            .get("dataset")
            .and_then(Json::as_str)
            .expect("row dataset");
        let query = row.get("query").and_then(Json::as_str).expect("row query");
        let threads = row
            .get("threads")
            .and_then(Json::as_usize)
            .expect("row threads");
        let venues = row.get("venues").and_then(Json::as_usize).unwrap_or(1);
        let us = row
            .get("us_per_query")
            .and_then(Json::as_f64)
            .expect("row us_per_query");
        let name = format!("({dataset}, {query}, threads={threads}, venues={venues})");
        if query == PRUNE_GATED_QUERY {
            prune_rates.push((name.clone(), row.get("prune_rate").and_then(Json::as_f64)));
        }
        if query.starts_with("telemetry_knn_") {
            telemetry.push((dataset.to_string(), query.to_string(), us));
        }
        cells.push(gate::Cell::new(name, us));
    }
    Bench {
        host_cores,
        cells,
        prune_rates,
        telemetry,
    }
}

fn main() {
    let mut baseline_path = String::from("BENCH_query.json");
    let mut fresh_path = String::new();
    let mut threshold = 2.5f64;
    let mut telemetry_overhead = 1.10f64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => baseline_path = it.next().expect("missing baseline path"),
            "--fresh" => fresh_path = it.next().expect("missing fresh path"),
            "--threshold" => {
                threshold = it
                    .next()
                    .expect("missing threshold")
                    .parse()
                    .expect("bad threshold")
            }
            "--telemetry-overhead" => {
                telemetry_overhead = it
                    .next()
                    .expect("missing telemetry overhead")
                    .parse()
                    .expect("bad telemetry overhead")
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_check --baseline PATH --fresh PATH [--threshold X] \
                     [--telemetry-overhead R]"
                );
                return;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(!fresh_path.is_empty(), "--fresh PATH is required");

    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);
    let comparable = baseline.host_cores == fresh.host_cores;
    if !comparable {
        println!(
            "WARN: host_cores mismatch (baseline {}, fresh {}) — ratio regressions reported as warnings only",
            baseline.host_cores, fresh.host_cores
        );
    }

    let out = gate::compare(
        &baseline.cells,
        &fresh.cells,
        &gate::GateConfig {
            threshold,
            comparable,
            incomparable_reason: format!(
                "host_cores {} in baseline vs {} here — thread scaling incomparable",
                baseline.host_cores, fresh.host_cores
            ),
            refresh_hint:
                "regenerate with `cargo run --release -p indoor-bench --bin query_bench` \
                           and commit the refreshed BENCH_query.json"
                    .to_string(),
            // Above query_bench's 0.01 us/delta clamp: a `persist_replay`
            // baseline that differenced to ~zero cannot ratio-gate.
            noise_floor: 0.05,
        },
    );
    for line in &out.lines {
        println!("{line}");
    }

    // Lower-bound liveness gate: every kNN cell of the fresh run must
    // report prune_rate > 0 — hardware-independent, so it hard-fails even
    // on a host_cores mismatch (a dead bound layer is a code bug, not
    // measurement noise).
    let mut prune_failures = 0usize;
    for (name, pr) in &fresh.prune_rates {
        match pr {
            Some(p) if *p > 0.0 => {}
            Some(p) => {
                println!(
                    "FAIL: {name} prune_rate {p} — the lower bound never rejected a candidate"
                );
                prune_failures += 1;
            }
            None => {
                println!("FAIL: {name} is missing its prune_rate field");
                prune_failures += 1;
            }
        }
    }

    // Telemetry-overhead gate: per dataset, the enabled kNN A/B cell may
    // cost at most `telemetry_overhead ×` its disabled twin. Both cells
    // of a pair come from the *same fresh run on the same host*, so this
    // hard-fails even on a host_cores mismatch — the ratio is the
    // contract (DESIGN.md §15), not a cross-machine comparison.
    let mut telemetry_failures = 0usize;
    let fresh_cell = |dataset: &str, query: &str| -> Option<f64> {
        fresh
            .telemetry
            .iter()
            .find(|(d, q, _)| d == dataset && q == query)
            .map(|(_, _, us)| *us)
    };
    let datasets: Vec<String> = {
        let mut d: Vec<String> = fresh.telemetry.iter().map(|(d, _, _)| d.clone()).collect();
        d.sort();
        d.dedup();
        d
    };
    if datasets.is_empty() {
        println!("WARN: fresh run carries no telemetry_knn_on/off cells — overhead ungated");
    }
    for dataset in &datasets {
        match (
            fresh_cell(dataset, "telemetry_knn_on"),
            fresh_cell(dataset, "telemetry_knn_off"),
        ) {
            (Some(on), Some(off)) if off > 0.0 => {
                let ratio = on / off;
                if ratio > telemetry_overhead {
                    println!(
                        "FAIL: ({dataset}) telemetry on/off ratio {ratio:.3} exceeds {telemetry_overhead} \
                         (on {on:.2} us, off {off:.2} us)"
                    );
                    telemetry_failures += 1;
                } else {
                    println!(
                        "ok:   ({dataset}) telemetry on/off ratio {ratio:.3} within {telemetry_overhead}"
                    );
                }
            }
            _ => {
                println!("FAIL: ({dataset}) telemetry A/B pair incomplete in the fresh run");
                telemetry_failures += 1;
            }
        }
    }

    println!(
        "checked {} cells against {baseline_path} (threshold {threshold}x): {} failures, {} warnings, {} prune-rate failures, {} telemetry-overhead failures",
        baseline.cells.len(),
        out.failures,
        out.warnings,
        prune_failures,
        telemetry_failures
    );
    if telemetry_failures > 0 {
        eprintln!(
            "perf gate failed: telemetry-enabled serving exceeded {telemetry_overhead}x its disabled cost"
        );
        std::process::exit(1);
    }
    if prune_failures > 0 {
        eprintln!("perf gate failed: a kNN cell's interpolated lower bound pruned nothing");
        std::process::exit(1);
    }
    if out.failures > 0 {
        eprintln!(
            "perf gate failed: stale baseline cell or >{threshold}x median-latency regression on matching hardware"
        );
        std::process::exit(1);
    }
}
