//! The scenario-matrix benchmark: compile, validate and replay the six
//! standard adversarial profiles across the competitor suite and the
//! full `IndoorService` stack, then print the crossover matrix.
//!
//! ```sh
//! cargo run --release -p indoor-scenarios --bin scenario_bench -- \
//!     [--seed N] [--out PATH] [--matrix-out PATH] [--workers N]
//! ```
//!
//! The seed defaults to 42, can be overridden by `SCENARIO_SEED`, and is
//! printed so any CI run is reproducible verbatim. Results print;
//! `--out` also writes them as JSON and `--matrix-out` the matrix text.
//!
//! Every check is a property of this one run, so none needs a baseline:
//!
//! * every profile compiles to the same stream fingerprint at 1 and 4
//!   threads, and at seed 42 to its pinned
//!   [`PINNED_FINGERPRINTS`](indoor_scenarios::PINNED_FINGERPRINTS) value;
//! * overload profiles must exercise their shed/timeout counters
//!   (`run_matrix` panics otherwise), so a plausible but idle matrix
//!   cannot be produced.

use indoor_model::fingerprint_stream;
use indoor_scenarios::{
    compile, pinned_fingerprint, report, run_matrix, standard_profiles, standard_world, RunOptions,
    PINNED_SEED,
};

fn main() {
    let mut seed: u64 = std::env::var("SCENARIO_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(PINNED_SEED);
    let mut out_path: Option<String> = None;
    let mut matrix_path: Option<String> = None;
    let mut workers = RunOptions::default().workers;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().expect("missing seed").parse().expect("bad seed"),
            "--out" => out_path = Some(it.next().expect("missing out path")),
            "--matrix-out" => matrix_path = Some(it.next().expect("missing matrix path")),
            "--workers" => {
                workers = it
                    .next()
                    .expect("missing workers")
                    .parse()
                    .expect("bad workers")
            }
            "--help" | "-h" => {
                println!(
                    "usage: scenario_bench [--seed N] [--out PATH] [--matrix-out PATH] [--workers N]"
                );
                return;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    println!("scenario_bench seed={seed} workers={workers} (rerun with SCENARIO_SEED={seed})");

    // Determinism pre-flight: identical seeds must reproduce identical
    // event streams regardless of compile parallelism, and the pinned
    // seed its pinned streams.
    let world = standard_world();
    for sp in standard_profiles() {
        let name = &sp.profile.name;
        let a = fingerprint_stream(&compile(&sp.profile, &world, seed, 1));
        let b = fingerprint_stream(&compile(&sp.profile, &world, seed, 4));
        assert_eq!(
            a, b,
            "profile {name} compiled differently at 1 vs 4 threads"
        );
        if seed == PINNED_SEED {
            let pinned = pinned_fingerprint(name);
            assert_eq!(
                a, pinned,
                "profile {name}: fingerprint {a:#018x} at seed {PINNED_SEED} is not the pinned \
                 {pinned:#018x} — the workload compiler or the profile vocabulary changed"
            );
        }
        println!("  {name:<16} fingerprint 0x{a:016x}");
    }

    let opts = RunOptions {
        workers,
        ..RunOptions::default()
    };
    let out = run_matrix(seed, 2, &opts);

    let matrix = report::crossover_matrix(&out.cells, &out.costs);
    println!("\n{matrix}");
    if let Some(path) = out_path {
        let json = report::render_json(seed, opts.workers, &out.digests, &out.cells);
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!(
            "wrote {path} ({} profiles x {} cells)",
            out.digests.len(),
            out.cells.len()
        );
    }
    if let Some(path) = matrix_path {
        std::fs::write(&path, &matrix).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
}
