//! The one serving-path cell pair nothing else measures: telemetry on
//! vs off.
//!
//! ```sh
//! cargo run --release -p indoor-bench --bin query_bench -- [--reps N] [--out PATH]
//! ```
//!
//! Per-kind query cost, batches, cache hits, churn and persistence are
//! `benchmark/`'s (`tree.*_us`, `service.*`, `objects.*`, `persist.*`);
//! it is the record for speed and size. Admission under a flood is the
//! tier-1 tests' (`saturated_shard_sheds_with_typed_error_and_counts`,
//! `admission_gate_sheds_at_the_limit_and_frees_on_drop`).
//!
//! `telemetry_knn_on` / `telemetry_knn_off` per venue preset are the same
//! kNN requests through an `IndoorService` shard with the sampling gate
//! open vs closed, sampled interleaved. The program **exits 1** when a
//! preset's on/off ratio exceeds [`TELEMETRY_OVERHEAD_MAX`] (DESIGN.md
//! §15.4): both cells come from one run on one host, so the ratio needs
//! no baseline.
//!
//! Results print; `--out PATH` also writes them as JSON.

use indoor_model::{IndoorPoint, QueryRequest, Venue, VenueId};
use indoor_synth::{presets, workload};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use vip_tree::{IndoorService, ShardConfig};

const KNN_K: usize = 5;
const N_OBJECTS: usize = 200;
const N_QUERIES: usize = 300;
/// Largest telemetry on/off ratio a preset may show (DESIGN.md §15.4).
const TELEMETRY_OVERHEAD_MAX: f64 = 1.10;
/// Interleaved sample pairs behind the ratio.
const TELEMETRY_REPS_MIN: usize = 15;

struct Row {
    dataset: &'static str,
    doors: usize,
    query: &'static str,
    n_queries: usize,
    us_per_query: f64,
}

/// Each sample loops its workload until it covers at least this much wall
/// time, so even `--reps 1` runs are not scheduler noise.
const MIN_SAMPLE_MS: f64 = 20.0;

/// How many runs of `run` fill one [`MIN_SAMPLE_MS`] sample. Runs it twice:
/// an untimed warm-up (pools, lazy grids), then a timed run at steady state.
fn calibrate(mut run: impl FnMut()) -> usize {
    run();
    let t0 = Instant::now();
    run();
    let once_ms = (t0.elapsed().as_secs_f64() * 1e3).max(1e-6);
    ((MIN_SAMPLE_MS / once_ms).ceil() as usize).clamp(1, 100_000)
}

/// `(on, off, ratio)`: median µs per kNN served through an
/// `IndoorService` shard — the whole instrumented path (admission, cache
/// probe, per-query trace, histogram folds) — with the sampling gate open
/// vs closed, and the on/off ratio. A 1-entry cache keeps repeats from
/// collapsing into hits.
///
/// The two cells are sampled *interleaved* (on, off, on, off, …), and the
/// ratio is the median of each adjacent pair's ratio, not the ratio of the
/// two medians: on a shared host a load burst or frequency step longer
/// than one sample lands on both halves of a pair, so it cancels. The pair
/// takes at least [`TELEMETRY_REPS_MIN`] samples whatever `--reps` says.
fn telemetry_pair(
    venue: &Arc<Venue>,
    objects: &[IndoorPoint],
    points: &[IndoorPoint],
    reps: usize,
) -> (f64, f64, f64) {
    let service = IndoorService::new();
    let id = service
        .add_venue(
            venue.clone(),
            ShardConfig {
                threads: 1,
                objects: objects.to_vec(),
                cache_capacity: 1,
                ..ShardConfig::default()
            },
        )
        .expect("telemetry shard");
    let reqs: Vec<(VenueId, QueryRequest)> = points
        .iter()
        .map(|q| (id, QueryRequest::Knn { q: *q, k: KNN_K }))
        .collect();
    vip_tree::telemetry::set_sampling(true);
    let iters = calibrate(|| {
        std::hint::black_box(service.execute_batch(&reqs));
    });
    let mut samples = [Vec::new(), Vec::new()];
    for _ in 0..reps.max(TELEMETRY_REPS_MIN) {
        for (slot, on) in [(0usize, true), (1, false)] {
            vip_tree::telemetry::set_sampling(on);
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(service.execute_batch(&reqs));
            }
            samples[slot].push(t0.elapsed().as_secs_f64() * 1e6 / (reqs.len() * iters) as f64);
        }
    }
    vip_tree::telemetry::set_sampling(true);
    let median = |mut s: Vec<f64>| {
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    let ratios = samples[0].iter().zip(&samples[1]).map(|(on, off)| on / off);
    let ratio = median(ratios.collect());
    let [on, off] = samples.map(median);
    (on, off, ratio)
}

fn main() {
    let mut reps = 5usize;
    let mut out_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => reps = it.next().expect("missing reps").parse().expect("bad reps"),
            "--out" => out_path = Some(it.next().expect("missing path")),
            "--help" | "-h" => {
                println!("usage: query_bench [--reps N] [--out PATH]");
                return;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    let reps = reps.max(1);
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut rows: Vec<Row> = Vec::new();
    let mut over_budget: Vec<&str> = Vec::new();
    for (name, spec) in [
        ("MC", presets::melbourne_central()),
        ("MC-2", presets::melbourne_central_2()),
        ("Men", presets::menzies()),
    ] {
        let venue = Arc::new(spec.build());
        let doors = venue.stats().doors;
        let objects = workload::place_objects(&venue, N_OBJECTS, 0xB0B);
        let points = workload::query_points(&venue, N_QUERIES, 0x9E);
        println!("== {name}: {doors} doors");

        let (on, off, ratio) = telemetry_pair(&venue, &objects, &points, reps);
        let verdict = if ratio <= TELEMETRY_OVERHEAD_MAX {
            "ok"
        } else {
            over_budget.push(name);
            "OVER BUDGET"
        };
        println!(
            "   telemetry kNN on {on:9.2} us, off {off:9.2} us: ratio {ratio:.3} \
             (max {TELEMETRY_OVERHEAD_MAX}) {verdict}"
        );
        let cells = [
            ("telemetry_knn_on", points.len(), on),
            ("telemetry_knn_off", points.len(), off),
        ];
        rows.extend(
            cells
                .into_iter()
                .map(|(query, n_queries, us_per_query)| Row {
                    dataset: name,
                    doors,
                    query,
                    n_queries,
                    us_per_query,
                }),
        );
    }

    if let Some(out_path) = out_path {
        let mut json = String::new();
        json.push_str("{\n  \"benchmark\": \"vip_tree_query\",\n");
        let _ = writeln!(json, "  \"unit\": \"us (median of {reps} reps)\",");
        let _ = writeln!(json, "  \"host_cores\": {cores},");
        json.push_str("  \"note\": \"telemetry_knn_on/off are us per kNN through an IndoorService shard with the sampling gate open/closed\",\n");
        json.push_str("  \"results\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"dataset\": \"{}\", \"doors\": {}, \"query\": \"{}\", \"n_queries\": {}, \"us_per_query\": {:.3}}}",
                r.dataset, r.doors, r.query, r.n_queries, r.us_per_query,
            );
            json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("wrote {out_path}");
    }

    if !over_budget.is_empty() {
        eprintln!(
            "telemetry overhead over {TELEMETRY_OVERHEAD_MAX}x on {}",
            over_budget.join(", ")
        );
        std::process::exit(1);
    }
}
