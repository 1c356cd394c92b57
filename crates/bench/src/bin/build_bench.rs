//! Build-throughput benchmark: venue preset × thread count → build time.
//!
//! The thread-scaling record for index construction (the paper's Fig.
//! 8(a) axis), which nothing else measures; the committed
//! `BENCH_build.json` is its output. Results print; `--out PATH` also
//! writes them as JSON:
//!
//! ```sh
//! cargo run --release -p indoor-bench --bin build_bench -- [--reps N] [--out PATH]
//! ```
//!
//! Reported time per configuration is the best of `reps` runs (build time
//! is deterministic work; min is the least noisy estimator on shared
//! hardware). `doors_per_sec` counts venue doors processed per second of
//! VIP-tree construction (IP-tree + per-door ancestor tables).

use indoor_synth::presets;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use vip_tree::{VipTree, VipTreeConfig};

struct Row {
    dataset: &'static str,
    doors: usize,
    partitions: usize,
    threads: usize,
    best_ms: f64,
    doors_per_sec: f64,
}

fn main() {
    let mut reps = 3usize;
    let mut out_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => reps = it.next().expect("missing reps").parse().expect("bad reps"),
            "--out" => out_path = Some(it.next().expect("missing path")),
            "--help" | "-h" => {
                println!("usage: build_bench [--reps N] [--out PATH]");
                return;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    let reps = reps.max(1);

    let datasets = [
        ("MC", presets::melbourne_central()),
        ("MC-2", presets::melbourne_central_2()),
        ("Men", presets::menzies()),
    ];
    let thread_counts = [1usize, 2, 4];
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut rows: Vec<Row> = Vec::new();
    for (name, spec) in datasets {
        let venue = Arc::new(spec.build());
        let stats = venue.stats();
        println!(
            "== {name}: {} doors, {} partitions",
            stats.doors, stats.partitions
        );
        for &threads in &thread_counts {
            let cfg = VipTreeConfig::default().with_threads(threads);
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                let tree = VipTree::build(venue.clone(), &cfg).expect("build");
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(&tree);
                best = best.min(ms);
            }
            let doors_per_sec = stats.doors as f64 / (best / 1e3);
            println!("   threads={threads}: {best:8.2} ms  ({doors_per_sec:10.0} doors/s)");
            rows.push(Row {
                dataset: name,
                doors: stats.doors,
                partitions: stats.partitions,
                threads,
                best_ms: best,
                doors_per_sec,
            });
        }
    }

    let Some(out_path) = out_path else { return };
    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"vip_tree_build\",\n");
    let _ = writeln!(json, "  \"unit\": \"ms (best of {reps})\",");
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    if let Ok(t) = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
        let _ = writeln!(json, "  \"generated_unix\": {},", t.as_secs());
    }
    json.push_str("  \"note\": \"build is bit-identical across thread counts (see tests/parallel_equivalence.rs); speedup saturates at host_cores\",\n");
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let serial_ms = rows
            .iter()
            .find(|x| x.dataset == r.dataset && x.threads == 1)
            .map(|x| x.best_ms)
            .unwrap_or(r.best_ms);
        let _ = write!(
            json,
            "    {{\"dataset\": \"{}\", \"doors\": {}, \"partitions\": {}, \"threads\": {}, \"build_ms\": {:.3}, \"doors_per_sec\": {:.0}, \"speedup_vs_serial\": {:.3}}}",
            r.dataset,
            r.doors,
            r.partitions,
            r.threads,
            r.best_ms,
            r.doors_per_sec,
            serial_ms / r.best_ms,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");
}
