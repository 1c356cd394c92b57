//! The stream runner: replay a compiled scenario against the full
//! [`IndoorService`] stack.
//!
//! [`run_service`] builds per-venue shards behind admission gates, the
//! result cache and WAL-less volatile mutation paths, then replays the
//! stream with [`WORKERS`] concurrent client threads per tick and
//! bounded-retry backoff on overload — the closed-loop client a real
//! front-end would be. Updates of a tick apply **concurrently** with its
//! queries (that overlap is the point of the churn profiles).

use crate::compile::ScenarioWorld;
use indoor_model::metrics::{MetricValue, MetricsSnapshot};
use indoor_model::OverloadSpec;
use indoor_model::{
    KeywordSkew, ObjectDelta, QueryRequest, ScenarioEvent, TickEvents, VenueId, WorkloadProfile,
};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use vip_tree::telemetry::Histogram;
use vip_tree::{
    AdmissionConfig, IndoorService, OverloadPolicy, RetryPolicy, ServiceError, ShardConfig,
};

/// Concurrent query workers per tick.
pub const WORKERS: usize = 4;

/// One profile's service cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    pub profile: String,
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
    /// Result-cache hit rate over the run.
    pub cache_hit_rate: f64,
    /// Object deltas absorbed per wall-clock second.
    pub deltas_per_sec: f64,
    /// Mean sampled engine-phase times (µs) attributed by the service's
    /// query traces: tree descent, own-leaf grid fold, heap drain.
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
/// gates from the profile). Returns the profile's cell.
pub fn run_service(
    profile: &WorkloadProfile,
    world: &ScenarioWorld,
    stream: &[TickEvents],
    seed: u64,
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

        // Queries fan out over workers in contiguous chunks; updates
        // apply concurrently on this thread — churn vs. serving overlap
        // is what the storm profiles measure.
        let chunk = queries.len().div_ceil(WORKERS).max(1);
        let (service_ref, lat_ref, ad_ref) = (&service, &lat, &answered_dropped);
        // A start line: no worker queries until every worker of the tick
        // is running. Without it a worker's whole share (~100 queries of
        // a few µs) can finish before the next thread is even woken, so
        // the "concurrent" clients never meet at a depth-1 gate and the
        // overload profiles shed nothing.
        let start_line = &Barrier::new(WORKERS);
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let part = queries.iter().skip(w * chunk).take(chunk);
                scope.spawn(move || {
                    start_line.wait();
                    let (mut ok, mut gone) = (0u64, 0u64);
                    for &(venue, req) in part {
                        let sent = Instant::now();
                        let outcome = RetryPolicy::default().run(
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
                                lat_ref.record(sent.elapsed().as_nanos() as u64);
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
            }
        });
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);

    let stats = service.stats();
    let [phase_descent_us, phase_leaf_fold_us, phase_heap_us] =
        phase_attribution(&service.metrics_snapshot());
    let (answered, dropped) = *answered_dropped.lock().unwrap();
    let lat = lat.snapshot();
    CellMetrics {
        profile: profile.name.clone(),
        requests: answered + dropped,
        answered,
        dropped,
        shed: stats.shed,
        timeouts: stats.admission_timeouts,
        p50_us: lat.p50() as f64 / 1e3,
        p99_us: lat.p99() as f64 / 1e3,
        p999_us: lat.p999() as f64 / 1e3,
        max_us: lat.max() as f64 / 1e3,
        qps: answered as f64 / secs,
        cache_hit_rate: stats.hit_rate(),
        deltas_per_sec: stats.deltas_absorbed as f64 / secs,
        phase_descent_us,
        phase_leaf_fold_us,
        phase_heap_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, validate_stream};
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
        let m = run_service(&p, &world, &stream, 3);
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
            let m = run_service(&p, &world, &stream, seed);
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
}
