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
use indoor_model::OverloadSpec;
use indoor_model::{
    KeywordSkew, ObjectDelta, QueryRequest, ScenarioEvent, TickEvents, VenueId, WorkloadProfile,
};
use std::sync::{Barrier, Mutex};
use std::time::Duration;
use vip_tree::{
    AdmissionConfig, IndoorService, OverloadPolicy, RetryPolicy, ServiceError, ShardConfig,
};

/// Concurrent query workers per tick.
pub const WORKERS: usize = 4;

/// One profile's service run: the stream's requests, what became of
/// them, and how hard the admission gates pushed back.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    pub profile: String,
    /// Query events in the stream.
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

    let answered_dropped = Mutex::new((0u64, 0u64));
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
        let (service_ref, ad_ref) = (&service, &answered_dropped);
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
                            Ok(_) => ok += 1,
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
    let stats = service.stats();
    let (answered, dropped) = *answered_dropped.lock().unwrap();
    CellMetrics {
        profile: profile.name.clone(),
        requests: stream.iter().map(|te| te.queries() as u64).sum(),
        answered,
        dropped,
        shed: stats.shed,
        timeouts: stats.admission_timeouts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, validate_stream};
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
    }
}
