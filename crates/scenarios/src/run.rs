//! Stream runners: replay a compiled scenario against the full
//! [`IndoorService`] stack or query-only against one bare index.
//!
//! [`run_service`] is the end-to-end cell: per-venue shards behind
//! admission gates, the result cache, WAL-less volatile mutation paths,
//! and `opts.workers` concurrent client threads per tick with
//! bounded-retry backoff on overload — the closed-loop client a real
//! front-end would be. Updates of a tick apply **concurrently** with its
//! queries (that overlap is the point of the churn profiles).
//!
//! [`run_index`] is the comparative cell: the same stream's slot-0
//! queries replayed serially through [`AnyIndex::answer`] — no cache, no
//! admission, no churn (updates are skipped; every competitor index is
//! an immutable snapshot). Keyword queries are skipped too: a plain
//! index answers them empty (DESIGN.md §7.1), so timing them would time
//! a dispatch. A bare cell over a keyword-only stream times nothing and
//! reads `n/a` in the crossover matrix; the service row is the real
//! keyword comparison.

use crate::compile::ScenarioWorld;
use indoor_bench::AnyIndex;
use indoor_model::metrics::{MetricValue, MetricsSnapshot};
use indoor_model::OverloadSpec;
use indoor_model::{
    KeywordSkew, ObjectDelta, QueryKind, QueryRequest, ScenarioEvent, TickEvents, VenueId,
    WorkloadProfile,
};
use indoor_net::{NetClient, NetError, NetServer};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use vip_tree::telemetry::{HistSnapshot, Histogram};
use vip_tree::{
    AdmissionConfig, IndoorService, OverloadPolicy, RetryPolicy, ServiceError, ShardConfig,
};

/// How a tick's queries arrive at the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Each worker issues its next query the moment the previous answer
    /// lands — latency is measured from the send. A slow service slows
    /// the offered load down with it (the classic closed-loop blind
    /// spot).
    Closed,
    /// Queries are stamped with scheduled send times at a fixed
    /// aggregate rate and latency is measured **from the schedule**, so
    /// queueing delay the service causes shows up in the percentiles
    /// instead of being coordinated-omitted away.
    Open {
        /// Aggregate scheduled arrivals per second across all workers.
        qps: f64,
    },
}

/// Client behaviour of [`run_service`] / [`run_service_wire`].
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Concurrent query workers per tick.
    pub workers: usize,
    /// Reaction to `Overloaded`/`Timeout` rejections — the same
    /// [`RetryPolicy`] the network client uses, so closed-loop scenario
    /// clients and wire clients push back identically.
    pub retry: RetryPolicy,
    /// Closed-loop (default) or paced open-loop arrivals.
    pub arrival: Arrival,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            workers: 4,
            retry: RetryPolicy::default(),
            arrival: Arrival::Closed,
        }
    }
}

/// Per-worker query assignment for one tick: `(scheduled offset, venue,
/// request)`. Closed-loop splits into contiguous chunks (no schedule);
/// open-loop round-robins so every worker's due times interleave at the
/// aggregate rate.
fn assign<'a, V: Copy>(
    queries: &[(V, &'a QueryRequest)],
    workers: usize,
    arrival: Arrival,
) -> Vec<Vec<(Option<Duration>, V, &'a QueryRequest)>> {
    let mut parts = vec![Vec::new(); workers];
    match arrival {
        Arrival::Closed => {
            let chunk = queries.len().div_ceil(workers).max(1);
            for (i, (v, r)) in queries.iter().enumerate() {
                parts[i / chunk].push((None, *v, *r));
            }
        }
        Arrival::Open { qps } => {
            let interval = Duration::from_secs_f64(1.0 / qps.max(1e-9));
            for (i, (v, r)) in queries.iter().enumerate() {
                parts[i % workers].push((Some(interval * i as u32), *v, *r));
            }
        }
    }
    parts
}

/// Wait for `due` (if scheduled) and return the instant latency is
/// measured from: the schedule for open-loop, now for closed-loop.
fn departure(tick_t0: Instant, due: Option<Duration>) -> Instant {
    match due {
        Some(d) => {
            let target = tick_t0 + d;
            if let Some(wait) = target.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            target
        }
        None => Instant::now(),
    }
}

/// One (profile × index) cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    pub profile: String,
    pub index: String,
    /// Query events replayed.
    pub requests: u64,
    /// Requests that got an answer (possibly after retries).
    pub answered: u64,
    /// Requests dropped after exhausting retries.
    pub dropped: u64,
    /// Overload rejections observed at the admission gate (each retry
    /// that bounces counts — this is gate pressure, not request count).
    pub shed: u64,
    /// Admission timeouts observed (Block policy).
    pub timeouts: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// True tail quantile from the latency histogram — every answered
    /// request is a sample, not a sorted sub-sample.
    pub p999_us: f64,
    /// Exact worst answered latency of the run (µs).
    pub max_us: f64,
    /// Answered queries per wall-clock second.
    pub qps: f64,
    /// Result-cache hit rate over the run (0 for bare indexes).
    pub cache_hit_rate: f64,
    /// Object deltas absorbed (0 for bare indexes — updates skipped).
    pub deltas: u64,
    pub deltas_per_sec: f64,
    pub wall_ms: f64,
    /// Mean sampled engine-phase times (µs) attributed by the service's
    /// query traces: tree descent, own-leaf grid fold, heap drain. Zero
    /// for bare-index cells (no service, nothing traced).
    pub phase_descent_us: f64,
    pub phase_leaf_fold_us: f64,
    pub phase_heap_us: f64,
}

/// Mean of every `Histogram` series named `name` in the snapshot (µs),
/// folded across venues. Zero when nothing was recorded.
fn phase_mean_us(snap: &MetricsSnapshot, name: &str) -> f64 {
    let (mut sum, mut count) = (0u64, 0u64);
    for s in snap.series.iter().filter(|s| s.name == name) {
        if let MetricValue::Histogram {
            sum: s, count: c, ..
        } = s.value
        {
            sum += s;
            count += c;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// The three engine-phase attribution means of a service run.
fn phase_attribution(snap: &MetricsSnapshot) -> [f64; 3] {
    [
        phase_mean_us(snap, "indoor_phase_descent_us"),
        phase_mean_us(snap, "indoor_phase_leaf_fold_us"),
        phase_mean_us(snap, "indoor_phase_heap_us"),
    ]
}

#[allow(clippy::too_many_arguments)]
fn finish(
    profile: &WorkloadProfile,
    index: &str,
    lat_ns: HistSnapshot,
    phases: [f64; 3],
    wall: Duration,
    answered: u64,
    dropped: u64,
    shed: u64,
    timeouts: u64,
    cache_hit_rate: f64,
    deltas: u64,
) -> CellMetrics {
    let secs = wall.as_secs_f64().max(1e-9);
    CellMetrics {
        profile: profile.name.clone(),
        index: index.to_string(),
        requests: answered + dropped,
        answered,
        dropped,
        shed,
        timeouts,
        p50_us: lat_ns.p50() as f64 / 1e3,
        p99_us: lat_ns.p99() as f64 / 1e3,
        p999_us: lat_ns.p999() as f64 / 1e3,
        max_us: lat_ns.max() as f64 / 1e3,
        qps: answered as f64 / secs,
        cache_hit_rate,
        deltas,
        deltas_per_sec: if deltas > 0 {
            deltas as f64 / secs
        } else {
            0.0
        },
        wall_ms: wall.as_secs_f64() * 1e3,
        phase_descent_us: phases[0],
        phase_leaf_fold_us: phases[1],
        phase_heap_us: phases[2],
    }
}

/// Base keyword labels: object `i` carries `kw{i % vocabulary}` — every
/// vocabulary rank is represented, matching the Zipf draws of the
/// compiled keyword queries.
fn labelled_base(
    objects: &[indoor_model::IndoorPoint],
    vocabulary: u32,
) -> Vec<(indoor_model::IndoorPoint, Vec<String>)> {
    objects
        .iter()
        .enumerate()
        .map(|(i, p)| (*p, vec![KeywordSkew::label(i as u32 % vocabulary)]))
        .collect()
}

fn admission_for(profile: &WorkloadProfile, slot: u32) -> AdmissionConfig {
    profile
        .admission
        .iter()
        .find(|a| a.slot == slot)
        .map(|a| AdmissionConfig {
            max_in_flight: a.max_in_flight as usize,
            policy: match a.policy {
                OverloadSpec::Shed => OverloadPolicy::Shed,
                OverloadSpec::Block { timeout_micros } => OverloadPolicy::Block {
                    timeout: Duration::from_micros(timeout_micros),
                },
            },
        })
        .unwrap_or_default()
}

fn register_slot(
    service: &IndoorService,
    world: &ScenarioWorld,
    profile: &WorkloadProfile,
    slot: u32,
    seed: u64,
) -> VenueId {
    let objects = world.base_objects(slot, profile.objects_per_venue, seed);
    let keywords = match &profile.keywords {
        Some(skew) => labelled_base(&objects, skew.vocabulary),
        None => Vec::new(),
    };
    service
        .add_venue(
            world.venue(slot).clone(),
            ShardConfig {
                threads: 1,
                objects,
                keywords,
                admission: admission_for(profile, slot),
                ..ShardConfig::default()
            },
        )
        .expect("scenario venue build")
}

/// Replay `stream` end-to-end through a fresh volatile [`IndoorService`]
/// built from the world's slots (objects + keyword labels + admission
/// gates from the profile). Returns the `SVC` cell.
pub fn run_service(
    profile: &WorkloadProfile,
    world: &ScenarioWorld,
    stream: &[TickEvents],
    seed: u64,
    opts: &RunOptions,
) -> CellMetrics {
    let service = IndoorService::new();
    let mut slot_ids: Vec<Option<VenueId>> = vec![None; world.slots() as usize];
    for slot in 0..profile.initial_slots {
        slot_ids[slot as usize] = Some(register_slot(&service, world, profile, slot, seed));
    }

    // Latencies land in a lock-free histogram (nanosecond resolution —
    // bare quantities, scaled to µs at reporting): workers record
    // concurrently with no mutex and no per-run sample vector.
    let lat = Histogram::new();
    let answered_dropped = Mutex::new((0u64, 0u64));
    let mut deltas_applied = 0u64;
    let t0 = Instant::now();
    for te in stream {
        // Lifecycle first, serially: the compiler ordered each tick as
        // adds/removes, then queries, then updates.
        let mut queries: Vec<(VenueId, &QueryRequest)> = Vec::new();
        let mut updates: Vec<(VenueId, &ScenarioEvent)> = Vec::new();
        for ev in &te.events {
            match ev {
                ScenarioEvent::AddVenue { slot } => {
                    slot_ids[*slot as usize] =
                        Some(register_slot(&service, world, profile, *slot, seed));
                }
                ScenarioEvent::RemoveVenue { slot } => {
                    let id = slot_ids[*slot as usize]
                        .take()
                        .expect("remove of live slot");
                    service.remove_venue(id).expect("remove venue");
                }
                ScenarioEvent::Query { slot, req } => {
                    queries.push((slot_ids[*slot as usize].expect("query to live slot"), req));
                }
                ScenarioEvent::Updates { slot, .. } => {
                    updates.push((slot_ids[*slot as usize].expect("update to live slot"), ev));
                }
            }
        }

        // Queries fan out over workers; updates apply concurrently on
        // this thread — churn vs. serving overlap is what the storm
        // profiles measure.
        let workers = opts.workers.max(1);
        let parts = assign(&queries, workers, opts.arrival);
        let tick_t0 = Instant::now();
        let (service_ref, lat_ref, ad_ref) = (&service, &lat, &answered_dropped);
        // A start line: no worker queries until every worker of the tick
        // is running. Without it a worker's whole share (~100 queries of
        // a few µs) can finish before the next thread is even woken, so
        // the "concurrent" clients never meet at a depth-1 gate and the
        // overload profiles shed nothing.
        let start_line = &Barrier::new(workers);
        std::thread::scope(|scope| {
            for part in parts {
                scope.spawn(move || {
                    start_line.wait();
                    let (mut ok, mut gone) = (0u64, 0u64);
                    for (due, venue, req) in part {
                        let sched = departure(tick_t0, due);
                        let outcome = opts.retry.run(
                            |e| {
                                matches!(
                                    e,
                                    ServiceError::Overloaded { .. } | ServiceError::Timeout { .. }
                                )
                            },
                            || service_ref.execute(venue, req),
                        );
                        match outcome {
                            Ok(_) => {
                                lat_ref.record(sched.elapsed().as_nanos() as u64);
                                ok += 1;
                            }
                            Err(_) => gone += 1,
                        }
                    }
                    let mut ad = ad_ref.lock().unwrap();
                    ad.0 += ok;
                    ad.1 += gone;
                });
            }
            for (venue, ev) in &updates {
                let ScenarioEvent::Updates { updates, .. } = ev else {
                    unreachable!("filtered above");
                };
                if updates.iter().all(|u| u.labels.is_empty()) {
                    let deltas: Vec<ObjectDelta> = updates.iter().map(|u| u.delta).collect();
                    service
                        .update_objects(*venue, &deltas)
                        .expect("valid plain batch");
                } else {
                    service
                        .update_keyword_objects(*venue, updates)
                        .expect("valid keyword batch");
                }
                deltas_applied += updates.len() as u64;
            }
        });
    }
    let wall = t0.elapsed();

    let stats = service.stats();
    let phases = phase_attribution(&service.metrics_snapshot());
    let (answered, dropped) = *answered_dropped.lock().unwrap();
    finish(
        profile,
        "SVC",
        lat.snapshot(),
        phases,
        wall,
        answered,
        dropped,
        stats.shed,
        stats.admission_timeouts,
        stats.hit_rate(),
        stats.deltas_absorbed,
    )
}

/// Replay `stream` through a loopback [`NetServer`] over the real wire
/// protocol — the same replay as [`run_service`] but with every
/// lifecycle event, query, and update crossing a TCP connection, so the
/// cell prices framing, syscalls, and the server's batch coalescing on
/// top of the service. Each worker holds its own pipelined connection;
/// admission rejections come back as typed wire errors and retry
/// client-side with the same policy the in-process runner uses.
pub fn run_service_wire(
    profile: &WorkloadProfile,
    world: &ScenarioWorld,
    stream: &[TickEvents],
    seed: u64,
    opts: &RunOptions,
) -> CellMetrics {
    let service = std::sync::Arc::new(IndoorService::new());
    let server = NetServer::bind(service.clone(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let mut admin = NetClient::connect(addr)
        .expect("admin connection")
        .with_retry(opts.retry);
    let workers = opts.workers.max(1);
    let mut clients: Vec<NetClient> = (0..workers)
        .map(|_| {
            NetClient::connect(addr)
                .expect("worker connection")
                .with_retry(opts.retry)
        })
        .collect();

    let register = |admin: &mut NetClient, slot: u32| -> u32 {
        let objects = world.base_objects(slot, profile.objects_per_venue, seed);
        let keywords = match &profile.keywords {
            Some(skew) => labelled_base(&objects, skew.vocabulary),
            None => Vec::new(),
        };
        admin
            .add_venue(
                world.venue(slot),
                &ShardConfig {
                    threads: 1,
                    objects,
                    keywords,
                    admission: admission_for(profile, slot),
                    ..ShardConfig::default()
                },
            )
            .expect("scenario venue build over the wire")
    };

    let mut slot_ids: Vec<Option<u32>> = vec![None; world.slots() as usize];
    for slot in 0..profile.initial_slots {
        slot_ids[slot as usize] = Some(register(&mut admin, slot));
    }

    let lat = Histogram::new();
    let answered_dropped = Mutex::new((0u64, 0u64));
    let t0 = Instant::now();
    for te in stream {
        let mut queries: Vec<(u32, &QueryRequest)> = Vec::new();
        let mut updates: Vec<(u32, &ScenarioEvent)> = Vec::new();
        for ev in &te.events {
            match ev {
                ScenarioEvent::AddVenue { slot } => {
                    slot_ids[*slot as usize] = Some(register(&mut admin, *slot));
                }
                ScenarioEvent::RemoveVenue { slot } => {
                    let id = slot_ids[*slot as usize]
                        .take()
                        .expect("remove of live slot");
                    admin.remove_venue(id).expect("remove venue over the wire");
                }
                ScenarioEvent::Query { slot, req } => {
                    queries.push((slot_ids[*slot as usize].expect("query to live slot"), req));
                }
                ScenarioEvent::Updates { slot, .. } => {
                    updates.push((slot_ids[*slot as usize].expect("update to live slot"), ev));
                }
            }
        }

        let parts = assign(&queries, workers, opts.arrival);
        let tick_t0 = Instant::now();
        let (lat_ref, ad_ref) = (&lat, &answered_dropped);
        std::thread::scope(|scope| {
            for (client, part) in clients.iter_mut().zip(parts) {
                scope.spawn(move || {
                    let (mut ok, mut gone) = (0u64, 0u64);
                    for (due, venue, req) in part {
                        let sched = departure(tick_t0, due);
                        // NetClient::query retries retryable wire errors
                        // under the connection's policy already.
                        match client.query(venue, req) {
                            Ok(_) => {
                                lat_ref.record(sched.elapsed().as_nanos() as u64);
                                ok += 1;
                            }
                            Err(NetError::Server(_)) => gone += 1,
                            Err(e) => panic!("wire replay transport failure: {e}"),
                        }
                    }
                    let mut ad = ad_ref.lock().unwrap();
                    ad.0 += ok;
                    ad.1 += gone;
                });
            }
            for (venue, ev) in &updates {
                let ScenarioEvent::Updates { updates, .. } = ev else {
                    unreachable!("filtered above");
                };
                if updates.iter().all(|u| u.labels.is_empty()) {
                    let deltas: Vec<ObjectDelta> = updates.iter().map(|u| u.delta).collect();
                    admin
                        .update_objects(*venue, &deltas)
                        .expect("valid plain batch over the wire");
                } else {
                    admin
                        .update_keywords(*venue, updates)
                        .expect("valid keyword batch over the wire");
                }
            }
        });
    }
    let wall = t0.elapsed();

    drop(admin);
    drop(clients);
    drop(server);
    // Stats and phase attribution read the in-process handle the
    // loopback server shares — the same data `NetClient::metrics` would
    // return as text.
    let stats = service.stats();
    let phases = phase_attribution(&service.metrics_snapshot());
    let (answered, dropped) = *answered_dropped.lock().unwrap();
    finish(
        profile,
        "WIRE",
        lat.snapshot(),
        phases,
        wall,
        answered,
        dropped,
        stats.shed,
        stats.admission_timeouts,
        stats.hit_rate(),
        stats.deltas_absorbed,
    )
}

/// Replay the stream's slot-0 queries serially through one bare index,
/// skipping keyword kNN (see the module docs).
pub fn run_index(
    profile: &WorkloadProfile,
    index: &AnyIndex,
    stream: &[TickEvents],
) -> CellMetrics {
    let lat = Histogram::new();
    let t0 = Instant::now();
    for te in stream {
        for ev in &te.events {
            if let ScenarioEvent::Query { slot: 0, req } = ev {
                if req.kind() == QueryKind::KnnKeyword {
                    continue;
                }
                let t = Instant::now();
                std::hint::black_box(index.answer(req));
                lat.record(t.elapsed().as_nanos() as u64);
            }
        }
    }
    let wall = t0.elapsed();
    let snap = lat.snapshot();
    let answered = snap.count();
    finish(
        profile,
        index.name(),
        snap,
        [0.0; 3],
        wall,
        answered,
        0,
        0,
        0,
        0.0,
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, validate_stream};
    use indoor_bench::{build_suite, SuiteOptions};
    use indoor_model::{AdmissionSpec, ArrivalCurve};
    use indoor_synth::random_venue;
    use std::sync::Arc;

    #[test]
    fn service_run_answers_everything_on_an_unbounded_shard() {
        let world = ScenarioWorld::new(vec![Arc::new(random_venue(70))]);
        let mut p = WorkloadProfile::base("smoke");
        p.ticks = 4;
        p.queries_per_tick = 8;
        let stream = compile(&p, &world, 3, 1);
        validate_stream(&p, &world, &stream).unwrap();
        let m = run_service(&p, &world, &stream, 3, &RunOptions::default());
        assert_eq!(m.index, "SVC");
        assert_eq!(m.requests, 32);
        assert_eq!(m.answered, 32);
        assert_eq!((m.dropped, m.shed, m.timeouts), (0, 0, 0));
        assert!(m.p50_us > 0.0 && m.p99_us >= m.p50_us);
        assert!(m.qps > 0.0);
    }

    #[test]
    fn overloaded_spike_sheds_but_retries_answer() {
        let world = ScenarioWorld::new(vec![Arc::new(random_venue(71))]);
        let mut p = WorkloadProfile::base("spiky");
        p.ticks = 6;
        p.queries_per_tick = 40;
        p.arrival = ArrivalCurve::Spike {
            start: 2,
            len: 2,
            magnify: 6,
        };
        p.hot_slot = Some(0);
        p.admission = vec![AdmissionSpec {
            slot: 0,
            max_in_flight: 1,
            policy: OverloadSpec::Shed,
        }];
        // Whether the gate actually bounces anyone is a thread-timing
        // race (workers can serialise perfectly on a fast machine), so
        // the shed > 0 assertion gets a few independently seeded runs —
        // the accounting invariants must hold on every one of them.
        let mut shed_seen = false;
        for seed in 9..14 {
            let stream = compile(&p, &world, seed, 1);
            let m = run_service(&p, &world, &stream, seed, &RunOptions::default());
            assert!(
                m.answered + m.dropped == m.requests,
                "request accounting: {m:?}"
            );
            assert!(m.answered > 0);
            if m.shed > 0 {
                shed_seen = true;
                break;
            }
        }
        assert!(
            shed_seen,
            "gate never pushed back across five seeded spike runs"
        );
    }

    #[test]
    fn open_loop_run_answers_everything_and_paces_arrivals() {
        let world = ScenarioWorld::new(vec![Arc::new(random_venue(73))]);
        let mut p = WorkloadProfile::base("paced");
        p.ticks = 2;
        p.queries_per_tick = 20;
        let stream = compile(&p, &world, 5, 1);
        let opts = RunOptions {
            arrival: Arrival::Open { qps: 20_000.0 },
            ..RunOptions::default()
        };
        let t0 = Instant::now();
        let m = run_service(&p, &world, &stream, 5, &opts);
        assert_eq!(m.answered, 40);
        assert_eq!((m.dropped, m.shed), (0, 0));
        // 20 arrivals per tick at 20k/s schedule the last one ~1ms in;
        // pacing must actually have stretched the run past that.
        assert!(
            t0.elapsed() >= Duration::from_micros(1900),
            "open-loop run finished before its schedule could have"
        );
    }

    #[test]
    fn wire_run_matches_in_process_accounting() {
        let world = ScenarioWorld::new(vec![Arc::new(random_venue(74))]);
        let mut p = WorkloadProfile::base("wired");
        p.ticks = 3;
        p.queries_per_tick = 10;
        let stream = compile(&p, &world, 6, 1);
        validate_stream(&p, &world, &stream).unwrap();
        let opts = RunOptions {
            workers: 2,
            ..RunOptions::default()
        };
        let direct = run_service(&p, &world, &stream, 6, &opts);
        let wired = run_service_wire(&p, &world, &stream, 6, &opts);
        assert_eq!(wired.index, "WIRE");
        assert_eq!(wired.requests, direct.requests);
        assert_eq!(wired.answered, direct.answered);
        assert_eq!(wired.dropped, 0);
        assert_eq!(wired.deltas, direct.deltas);
    }

    #[test]
    fn index_run_replays_slot_zero_queries() {
        let world = ScenarioWorld::new(vec![Arc::new(random_venue(72))]);
        let mut p = WorkloadProfile::base("bare");
        p.ticks = 3;
        p.queries_per_tick = 6;
        let stream = compile(&p, &world, 4, 1);
        let suite = build_suite(
            world.venue(0),
            &SuiteOptions {
                objects: Some(world.base_objects(0, p.objects_per_venue, 4)),
                ..SuiteOptions::default()
            },
        );
        for (index, ..) in &suite {
            let m = run_index(&p, index, &stream);
            assert_eq!(m.requests, 18, "{}", index.name());
            assert_eq!(m.answered, 18);
            assert_eq!(m.deltas, 0);
        }
    }

    #[test]
    fn keyword_only_stream_gives_an_unstarred_na_bare_cell() {
        let world = ScenarioWorld::new(vec![Arc::new(random_venue(75))]);
        let mut p = WorkloadProfile::base("keywords_only");
        p.ticks = 2;
        p.queries_per_tick = 8;
        p.keywords = Some(KeywordSkew {
            vocabulary: 4,
            exponent: 1,
        });
        let mut weights = [0u32; QueryKind::COUNT];
        weights[QueryKind::KnnKeyword.index()] = 1;
        p.mix = indoor_model::QueryMix { weights };
        let stream = compile(&p, &world, 8, 1);
        validate_stream(&p, &world, &stream).unwrap();
        let suite = build_suite(
            world.venue(0),
            &SuiteOptions {
                objects: Some(world.base_objects(0, p.objects_per_venue, 8)),
                ..SuiteOptions::default()
            },
        );
        let bare = run_index(&p, &suite[0].0, &stream);
        assert_eq!((bare.requests, bare.answered), (0, 0), "{bare:?}");

        // Even at p50 0.0 (an empty histogram), n/a is never the winner:
        // the one timed cell of the row is.
        let timed = CellMetrics {
            index: "SVC".into(),
            answered: 16,
            p50_us: 5.0,
            ..bare.clone()
        };
        let m = crate::report::crossover_matrix(&[timed, bare], &[]);
        let row = m.lines().find(|l| l.starts_with("keywords_only")).unwrap();
        assert!(row.contains("5.0*"), "{m}");
        assert!(row.contains("n/a") && !row.contains("n/a*"), "{m}");
    }
}
