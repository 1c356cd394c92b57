//! The scenario-matrix benchmark: compile, validate and replay the six
//! standard adversarial profiles through the full `IndoorService` stack,
//! then print the matrix.
//!
//! ```sh
//! cargo run --release -p indoor-scenarios --bin scenario_bench -- \
//!     [--seed N] [--matrix-out PATH]
//! ```
//!
//! The seed defaults to 42, can be overridden by `SCENARIO_SEED`, and is
//! printed so any CI run is reproducible verbatim. The matrix prints;
//! `--matrix-out` also writes its text.
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
    compile, pinned_fingerprint, report, run_matrix, standard_profiles, standard_world,
    PINNED_SEED, WORKERS,
};

fn main() {
    let mut seed: u64 = std::env::var("SCENARIO_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(PINNED_SEED);
    let mut matrix_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().expect("missing seed").parse().expect("bad seed"),
            "--matrix-out" => matrix_path = Some(it.next().expect("missing matrix path")),
            "--help" | "-h" => {
                println!("usage: scenario_bench [--seed N] [--matrix-out PATH]");
                return;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    println!("scenario_bench seed={seed} workers={WORKERS} (rerun with SCENARIO_SEED={seed})");

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

    let cells = run_matrix(seed, 2);

    let matrix = report::crossover_matrix(&cells);
    println!("\n{matrix}");
    if let Some(path) = matrix_path {
        std::fs::write(&path, &matrix).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
}
