//! Serving-path cells nothing else measures: the telemetry on/off pair,
//! admission under a flood, and the persistence paths.
//!
//! ```sh
//! cargo run --release -p indoor-bench --bin query_bench -- [--reps N] [--out PATH]
//! ```
//!
//! Per-kind query cost, batches, cache hits and churn are `benchmark/`'s
//! (`tree.*_us`, `service.*`, `objects.update_us_per_batch`); it is the
//! record for speed and size. This program keeps three kinds of cell,
//! each checked in the run that measures it:
//!
//! * `telemetry_knn_on` / `telemetry_knn_off` per venue preset — the same
//!   kNN requests through an `IndoorService` shard with the sampling gate
//!   open vs closed, sampled interleaved. The program **exits 1** when a
//!   preset's on/off ratio exceeds [`TELEMETRY_OVERHEAD_MAX`] (DESIGN.md
//!   §15.4): both cells come from one run on one host, so the ratio needs
//!   no baseline.
//! * `admission` — p99 latency of queries **admitted** through a
//!   shed-policy in-flight gate while a saturator floods the same shard
//!   past its budget; asserts a non-zero shed count.
//! * `persist_*` per preset — `persist_save` (µs per whole-service
//!   snapshot), `persist_open` (µs per warm restart from a snapshot, tree
//!   rebuild included) and `persist_replay` (µs per `ObjectDelta` of
//!   WAL-suffix replay, isolated by differencing a suffix-laden open
//!   against a snapshot-only open).
//!
//! Results print; `--out PATH` also writes them as JSON.

use indoor_model::{IndoorPoint, ObjectDelta, ObjectId, QueryRequest, Venue, VenueId};
use indoor_synth::{presets, workload};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vip_tree::{AdmissionConfig, IndoorService, OverloadPolicy, ServiceError, ShardConfig};

const KNN_K: usize = 5;
const RANGE_RADIUS: f64 = 150.0;
const KEYWORD: &str = "cafe";
const N_OBJECTS: usize = 200;
const N_QUERIES: usize = 300;
/// Object deltas per `update_objects` batch.
const DELTAS_PER_BATCH: usize = 64;
/// WAL batches appended for the `persist_replay` cell; sized so replay
/// work dominates the (differenced-away) tree rebuild.
const REPLAY_BATCHES: usize = 256;
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

/// Median over reps of (sample wall micros / items per sample).
fn median_us(reps: usize, n: usize, mut run: impl FnMut()) -> f64 {
    let iters = calibrate(&mut run);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                run();
            }
            t0.elapsed().as_secs_f64() * 1e6 / (n * iters) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
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

/// Snapshot save, warm open and WAL-suffix replay of one preset's
/// service: `(cell, items, µs per item)`.
fn persist_cells(
    name: &str,
    venue: &Arc<Venue>,
    objects: &[IndoorPoint],
    reps: usize,
) -> [(&'static str, usize, f64); 3] {
    let service = IndoorService::new();
    let id = service
        .add_venue(
            venue.clone(),
            ShardConfig {
                threads: 1,
                objects: objects.to_vec(),
                keywords: workload::cycling_labels(objects, KEYWORD),
                ..ShardConfig::default()
            },
        )
        .expect("persist shard");
    // Some churn first, so the snapshot captures a delta-maintained
    // live set (gapped stable ids), not a pristine attach.
    let alt = workload::place_objects(venue, N_OBJECTS, 0xB0D);
    let moves = |offset: usize| -> Vec<ObjectDelta> {
        (0..DELTAS_PER_BATCH)
            .map(|i| ObjectDelta::Move {
                id: ObjectId(i as u32),
                to: alt[(offset + i) % alt.len()],
            })
            .collect()
    };
    service
        .update_objects(id, &moves(0))
        .expect("pre-persist churn");

    let base =
        std::env::temp_dir().join(format!("vip-bench-persist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Save: a volatile service exports (no WAL rotation in the loop).
    let save_dir = base.join("save");
    let us_save = median_us(reps, 1, || {
        std::hint::black_box(service.save_snapshot(&save_dir).expect("save"));
    });

    // Open: warm restart from a snapshot with an empty WAL.
    let open_dir = base.join("open");
    service.save_snapshot(&open_dir).expect("seed open dir");
    let us_open = median_us(reps, 1, || {
        std::hint::black_box(IndoorService::open(&open_dir).expect("open"));
    });

    // Replay: the same snapshot plus a WAL suffix of pure move
    // deltas; per-delta cost is the differenced open time.
    let replay_dir = base.join("replay");
    service.save_snapshot(&replay_dir).expect("seed replay dir");
    {
        let durable = IndoorService::open(&replay_dir).expect("open for suffix");
        for b in 0..REPLAY_BATCHES {
            durable.update_objects(id, &moves(b)).expect("suffix batch");
        }
    }
    let n_deltas = REPLAY_BATCHES * DELTAS_PER_BATCH;
    let us_suffix_open = median_us(reps, 1, || {
        std::hint::black_box(IndoorService::open(&replay_dir).expect("replay open"));
    });
    // Floor at 10ns/delta: the difference of two medians can jitter
    // below zero when replay is nearly free.
    let us_replay = ((us_suffix_open - us_open) / n_deltas as f64).max(0.01);
    let _ = std::fs::remove_dir_all(&base);

    println!(
        "   persist: save {us_save:9.2} us, open {us_open:9.2} us, replay {us_replay:6.3} us/delta ({n_deltas} deltas)"
    );
    [
        ("persist_save", 1, us_save),
        ("persist_open", 1, us_open),
        ("persist_replay", n_deltas, us_replay),
    ]
}

/// p99 latency of *admitted* queries while a saturator floods the same
/// bounded shard far past its in-flight budget — the overload behaviour
/// a production deployment sees (typed `Overloaded` rejections instead of
/// unbounded queue growth). The saturator claims the whole budget in one
/// batch-weight admission per pass (oversized batches admit on an idle
/// gate), so the foreground faces genuine contention even on one core.
/// Returns `(median over reps of the p99, attempts per rep)`; panics when
/// nothing was shed.
fn admission_p99(venue: &Arc<Venue>, objects: &[IndoorPoint], reps: usize) -> (f64, usize) {
    const ADMIT_LIMIT: usize = 8;
    const ATTEMPTS: usize = 4_000;
    let service = IndoorService::new();
    let id = service
        .add_venue(
            venue.clone(),
            ShardConfig {
                threads: 1,
                objects: objects.to_vec(),
                keywords: workload::cycling_labels(objects, KEYWORD),
                // Tiny cache: admitted requests measure query work,
                // not cache hits.
                cache_capacity: 1,
                admission: AdmissionConfig {
                    max_in_flight: ADMIT_LIMIT,
                    policy: OverloadPolicy::Shed,
                },
                ..ShardConfig::default()
            },
        )
        .expect("admission shard");
    let reqs = workload::mixed_requests(venue, N_QUERIES / 5, KNN_K, RANGE_RADIUS, KEYWORD, 0xAD);
    let batch: Vec<(VenueId, QueryRequest)> = reqs.iter().map(|r| (id, r.clone())).collect();
    let stop = AtomicBool::new(false);
    let mut p99s: Vec<f64> = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(service.execute_batch(&batch));
                // Brief idle window per pass, so the foreground is
                // contended rather than starved outright.
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        for _ in 0..reps {
            let mut lat: Vec<f64> = Vec::new();
            for i in 0..ATTEMPTS {
                let t0 = Instant::now();
                match service.execute(id, &reqs[i % reqs.len()]) {
                    Ok(resp) => {
                        std::hint::black_box(resp);
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    // Client-style backoff: without it every attempt
                    // lands (and sheds) inside one saturator pass.
                    Err(ServiceError::Overloaded { .. }) => {
                        std::thread::sleep(Duration::from_micros(20));
                    }
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
            }
            if !lat.is_empty() {
                lat.sort_by(f64::total_cmp);
                p99s.push(lat[(lat.len() - 1) * 99 / 100]);
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let shed = service.stats().shed;
    assert!(
        shed > 0,
        "saturation produced no sheds — admission gate not engaged"
    );
    assert!(!p99s.is_empty(), "every foreground attempt was shed");
    p99s.sort_by(f64::total_cmp);
    let us = p99s[p99s.len() / 2];
    println!(
        "   admission: p99 {us:9.2} us for admitted queries at budget {ADMIT_LIMIT} ({shed} shed)"
    );
    (us, ATTEMPTS)
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
        let mut cells = vec![
            ("telemetry_knn_on", points.len(), on),
            ("telemetry_knn_off", points.len(), off),
        ];
        cells.extend(persist_cells(name, &venue, &objects, reps));
        if name == "MC" {
            let (us, attempts) = admission_p99(&venue, &objects, reps);
            cells.push(("admission", attempts, us));
        }
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
        json.push_str("  \"note\": \"telemetry_knn_on/off are us per kNN through an IndoorService shard with the sampling gate open/closed; persist_save/persist_open are us per whole-service snapshot write / warm restart, persist_replay is us per ObjectDelta of WAL-suffix replay (differenced against a snapshot-only open, floored at 0.01); admission is the p99 of queries ADMITTED through a shed-policy gate of 8 in-flight while a batch saturator floods the same shard\",\n");
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
