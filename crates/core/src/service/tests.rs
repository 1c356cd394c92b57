//! Unit tests of [`super`]: they reach the shard's private admission gate
//! and the `execute_batch` spawn counter, so they live inside the module.

use super::*;
use indoor_model::ObjectId;
use indoor_synth::{random_venue, workload};

fn service_with_one_venue(seed: u64) -> (IndoorService, VenueId, Arc<Venue>) {
    let venue = Arc::new(random_venue(seed));
    let service = IndoorService::new();
    let id = service
        .add_venue(
            venue.clone(),
            ShardConfig {
                threads: 1,
                objects: workload::place_objects(&venue, 12, seed ^ 0x7),
                ..ShardConfig::default()
            },
        )
        .unwrap();
    (service, id, venue)
}

#[test]
fn unknown_venue_is_an_error() {
    let (service, id, venue) = service_with_one_venue(21);
    let q = workload::query_points(&venue, 1, 3)[0];
    let req = QueryRequest::Knn { q, k: 2 };
    assert!(service.execute(id, &req).is_ok());
    let bogus = VenueId(99);
    assert_eq!(
        service.execute(bogus, &req),
        Err(ServiceError::UnknownVenue(bogus))
    );
    // So is a point outside the venue — typed, not an index panic.
    let nowhere = indoor_model::PartitionId(u32::MAX - 1);
    let outside = QueryRequest::ShortestPath {
        s: q,
        t: IndoorPoint::new(nowhere, geometry::Point::new(0.0, 0.0, 0)),
    };
    let out_of_venue = Err(ServiceError::OutOfVenue(id, nowhere));
    assert_eq!(service.execute(id, &outside), out_of_venue);
    let batch = service.execute_batch(&[(bogus, req.clone()), (id, outside), (id, req)]);
    assert_eq!(batch[0], Err(ServiceError::UnknownVenue(bogus)));
    assert_eq!(batch[1], out_of_venue);
    assert!(batch[2].is_ok());
}

#[test]
fn cache_hits_are_counted_per_kind() {
    let (service, id, venue) = service_with_one_venue(22);
    let q = workload::query_points(&venue, 1, 5)[0];
    let knn = QueryRequest::Knn { q, k: 3 };
    let range = QueryRequest::Range { q, radius: 70.0 };
    for _ in 0..3 {
        service.execute(id, &knn).unwrap();
    }
    service.execute(id, &range).unwrap();
    let stats = service.stats();
    assert_eq!(stats.kind(QueryKind::Knn).queries, 3);
    assert_eq!(stats.kind(QueryKind::Knn).cache_hits, 2);
    assert_eq!(stats.kind(QueryKind::Range).queries, 1);
    assert_eq!(stats.kind(QueryKind::Range).cache_hits, 0);
    assert_eq!(stats.cached_entries, 2);
    assert_eq!(stats.cache_capacity, DEFAULT_CACHE_CAPACITY);
    assert!((stats.kind(QueryKind::Knn).hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    assert_eq!(stats.venues, 1);
    // Unbounded shard: no admission gauges.
    assert_eq!(stats.admission_capacity, 0);
    assert_eq!(stats.shed, 0);
}

#[test]
fn metrics_snapshot_encodes_clean_and_retires_removed_venues() {
    let _gate = crate::telemetry::GATE_TEST_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let prev = crate::telemetry::set_sampling(true);
    let (service, id, venue) = service_with_one_venue(27);
    let q = workload::query_points(&venue, 1, 4)[0];
    let req = QueryRequest::Knn { q, k: 2 };
    service.execute(id, &req).unwrap();
    service.execute(id, &req).unwrap(); // cache hit
    let text = indoor_model::metrics::encode_text(&service.metrics_snapshot());
    let errors = indoor_model::metrics::lint_text(&text);
    assert!(errors.is_empty(), "{errors:?}\n{text}");
    let typed: Vec<(&str, &str)> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' '))
        .collect();
    assert_eq!(typed, METRIC_FAMILIES, "{text}");
    for needle in [
        "indoor_query_latency_us_bucket{",
        "indoor_phase_descent_us",
        "indoor_traced_queries_total",
        "indoor_venues 1",
        "indoor_cache_hits_total{kind=\"knn\"} 1",
        "indoor_leaf_grid_builds_total",
        "indoor_live_objects",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    // Removing the venue retires every series it labelled.
    service.remove_venue(id).unwrap();
    let text = indoor_model::metrics::encode_text(&service.metrics_snapshot());
    assert!(
        !text.contains("venue=\""),
        "stale venue-labelled series:\n{text}"
    );
    crate::telemetry::set_sampling(prev);
}

/// Every serving counter has one store, and it is always on: with the
/// sampling gate shut, a hit, a miss, an eviction, a shed, a `Block`
/// timeout and a delta batch each reach the metrics page, and each
/// counter series there equals the field `stats()` / `venue_stats()`
/// reports.
#[test]
fn page_and_views_agree_with_sampling_off() {
    let _gate = crate::telemetry::GATE_TEST_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let prev = crate::telemetry::set_sampling(false);
    let venue = Arc::new(random_venue(61));
    let service = IndoorService::new();
    let add = |cache_capacity, policy| {
        let config = ShardConfig {
            threads: 1,
            objects: workload::place_objects(&venue, 8, 61),
            cache_capacity,
            admission: AdmissionConfig {
                max_in_flight: 1,
                policy,
            },
            ..ShardConfig::default()
        };
        service.add_venue(venue.clone(), config).unwrap()
    };
    // A one-entry cache sheds at its gate; the other venue blocks.
    let shedding = add(1, OverloadPolicy::Shed);
    let timeout = Duration::from_millis(1);
    let blocking = add(0, OverloadPolicy::Block { timeout });
    let knn: Vec<QueryRequest> = workload::query_points(&venue, 2, 62)
        .into_iter()
        .map(|q| QueryRequest::Knn { q, k: 2 })
        .collect();
    // Miss, hit, then a miss that evicts the first answer.
    for req in [&knn[0], &knn[0], &knn[1]] {
        service.execute(shedding, req).unwrap();
    }
    for id in [shedding, blocking] {
        let shard = service.shard(id).unwrap();
        let _held = shard.admit(id, 1).unwrap();
        assert!(service.execute(id, &knn[0]).is_err());
    }
    let to = workload::place_objects(&venue, 1, 63)[0];
    let moved = ObjectDelta::Move {
        id: ObjectId(0),
        to,
    };
    service.update_objects(shedding, &[moved]).unwrap();

    let page = service.metrics_snapshot();
    let counter = |name: &str, labels: &[(&str, String)]| -> u64 {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let series = page
            .series
            .iter()
            .find(|s| s.name == name && s.labels == labels);
        match series.map(|s| &s.value) {
            Some(indoor_model::metrics::MetricValue::Counter(v)) => *v,
            other => panic!("{name}{labels:?}: {other:?}"),
        }
    };
    let stats = service.stats();
    let k = stats.kind(QueryKind::Knn);
    let kl = [("kind", "knn".to_string())];
    let driven = [
        ("indoor_queries_total", &kl[..], k.queries, 3),
        ("indoor_cache_hits_total", &kl[..], k.cache_hits, 1),
        (
            "indoor_deltas_absorbed_total",
            &[],
            stats.deltas_absorbed,
            1,
        ),
    ];
    for (name, labels, view, want) in driven {
        assert_eq!((counter(name, labels), view), (want, want), "{name}");
    }
    assert!(k.latency_ns > 0);
    assert_eq!(counter("indoor_latency_ns_total", &kl), k.latency_ns);
    for (id, (evictions, shed, timeouts)) in [(shedding, (1, 1, 0)), (blocking, (0, 0, 1))] {
        let vs = service.venue_stats(id).unwrap();
        let vl = [("venue", id.index().to_string())];
        let counters = [
            ("indoor_cache_evictions_total", vs.evictions),
            ("indoor_shed_total", vs.shed),
            ("indoor_admission_timeouts_total", vs.admission_timeouts),
            ("indoor_object_leaf_builds_total", vs.object_leaf_builds),
            ("indoor_object_leaf_touches_total", vs.object_leaf_touches),
            ("indoor_object_compactions_total", vs.object_compactions),
            ("indoor_leaf_grid_builds_total", vs.leaf_grid_builds),
            ("indoor_path_fallbacks_total", vs.path_fallbacks),
        ];
        for (name, view) in counters {
            assert_eq!(counter(name, &vl), view, "{name} venue {id}");
        }
        let events = (vs.evictions, vs.shed, vs.admission_timeouts);
        assert_eq!(events, (evictions, shed, timeouts), "venue {id}");
    }
    assert_eq!(
        (stats.evictions, stats.shed, stats.admission_timeouts),
        (1, 1, 1)
    );
    crate::telemetry::set_sampling(prev);
}

#[test]
fn batch_matches_per_slot_execute() {
    let (service, id, venue) = service_with_one_venue(23);
    let points = workload::query_points(&venue, 6, 9);
    let pairs = workload::query_pairs(&venue, 3, 10);
    let mut reqs: Vec<(VenueId, QueryRequest)> = Vec::new();
    for q in &points {
        reqs.push((id, QueryRequest::Knn { q: *q, k: 2 }));
        reqs.push((
            id,
            QueryRequest::Range {
                q: *q,
                radius: 90.0,
            },
        ));
    }
    for (s, t) in &pairs {
        reqs.push((id, QueryRequest::ShortestDistance { s: *s, t: *t }));
        reqs.push((id, QueryRequest::ShortestPath { s: *s, t: *t }));
    }
    let got = service.execute_batch(&reqs);
    for (slot, (venue, req)) in reqs.iter().enumerate() {
        assert_eq!(
            got[slot].as_ref().unwrap(),
            &service.execute(*venue, req).unwrap(),
            "slot {slot}"
        );
    }
}

thread_local! {
    /// Scoped workers `execute_batch` has started from this thread.
    pub(super) static SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Venues 0–2 serve (2 behind a depth-1 `Shed` gate); venue 3 was
/// registered and removed again. Deterministic: two calls build
/// byte-identical services.
fn three_venue_service() -> (IndoorService, Vec<Arc<Venue>>) {
    let service = IndoorService::new();
    let venues: Vec<Arc<Venue>> = (41..45).map(|s| Arc::new(random_venue(s))).collect();
    for (i, venue) in venues.iter().enumerate() {
        let config = ShardConfig {
            threads: 1,
            objects: workload::place_objects(venue, 10, 40 + i as u64),
            admission: AdmissionConfig {
                max_in_flight: usize::from(i == 2),
                policy: OverloadPolicy::Shed,
            },
            ..ShardConfig::default()
        };
        assert_eq!(
            service.add_venue(venue.clone(), config).unwrap(),
            VenueId::from(i)
        );
    }
    service.remove_venue(VenueId::from(3usize)).unwrap();
    (service, venues)
}

/// A result as the bytes a reply would carry, so `-0.0` vs `0.0` or a
/// NaN payload cannot hide behind `PartialEq`.
fn result_bytes(r: &Result<QueryResponse, ServiceError>) -> Result<Vec<u8>, &ServiceError> {
    r.as_ref().map(|resp| {
        let mut w = indoor_model::wire::WireWriter::new();
        w.put_response(resp);
        w.into_bytes()
    })
}

#[test]
fn batch_equals_per_slot_execute_across_shards() {
    // Twin services: one answers in batches, the other slot by slot,
    // so neither reads an answer the other put in its cache.
    let (batched, venues) = three_venue_service();
    let (serial, _) = three_venue_service();
    let share = |v: usize| -> Vec<(VenueId, QueryRequest)> {
        let mut reqs = workload::mixed_requests(&venues[v], 2, 3, 60.0, "atm", 50 + v as u64);
        reqs.extend_from_within(..3); // duplicates inside one share
        reqs.into_iter().map(|r| (VenueId::from(v), r)).collect()
    };
    // Unknown two ways: never registered, and removed since.
    let probe = share(0)[0].1.clone();
    let nowhere = vec![(VenueId(99), probe.clone()), (VenueId(3), probe)];
    let interleave = |shares: &[Vec<(VenueId, QueryRequest)>]| {
        let longest = shares.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| shares.iter().filter_map(move |s| s.get(i).cloned()))
            .collect::<Vec<_>>()
    };
    let batches = [
        nowhere.clone(),
        share(0),
        interleave(&[share(0), share(1), nowhere.clone()]),
        interleave(&[share(0), nowhere, share(1), share(2)]),
    ];
    // Pass 0: every gate idle. Pass 1: shard 2 saturated from outside,
    // as a concurrent query would — its whole share sheds while the
    // other shards (now partly cache hits) answer normally.
    let gated = [&batched, &serial].map(|svc| svc.shard(VenueId(2)).unwrap());
    for saturate in [false, true] {
        let _held: Vec<_> = gated
            .iter()
            .filter(|_| saturate)
            .map(|shard| shard.admit(VenueId(2), 1).unwrap())
            .collect();
        for (b, reqs) in batches.iter().enumerate() {
            let got = batched.execute_batch(reqs);
            assert_eq!(got.len(), reqs.len());
            for (slot, (venue, req)) in reqs.iter().enumerate() {
                let want = serial.execute(*venue, req);
                assert_eq!(
                    result_bytes(&got[slot]),
                    result_bytes(&want),
                    "saturate {saturate} batch {b} slot {slot}"
                );
                if saturate && *venue == VenueId(2) {
                    assert!(matches!(want, Err(ServiceError::Overloaded { .. })));
                }
            }
        }
    }
    assert!(batched.execute_batch(&[]).is_empty());
}

#[test]
fn one_shard_batches_run_on_the_caller() {
    let (service, venues) = three_venue_service();
    let batch = |v: usize| -> Vec<(VenueId, QueryRequest)> {
        workload::mixed_requests(&venues[v], 1, 2, 60.0, "atm", 7)
            .into_iter()
            .map(|r| (VenueId::from(v), r))
            .collect()
    };
    let one = batch(0);
    let before = SPAWNED.with(|n| n.get());
    for _ in 0..1_000 {
        assert!(service.execute_batch(&one).iter().all(Result::is_ok));
    }
    assert_eq!(SPAWNED.with(|n| n.get()), before, "one shard, no thread");
    let three: Vec<_> = (0..3).flat_map(batch).collect();
    assert!(service.execute_batch(&three).iter().all(Result::is_ok));
    assert_eq!(SPAWNED.with(|n| n.get()), before + 2, "caller serves one");
}

#[test]
fn remove_venue_stops_routing_and_keeps_ids_stable() {
    let (service, id_a, venue) = service_with_one_venue(24);
    let id_b = service
        .add_venue(
            Arc::new(random_venue(25)),
            ShardConfig {
                threads: 1,
                ..ShardConfig::default()
            },
        )
        .unwrap();
    assert_eq!(service.venues(), vec![id_a, id_b]);

    service.remove_venue(id_a).unwrap();
    assert_eq!(service.venue_count(), 1);
    assert_eq!(service.venues(), vec![id_b]);
    let q = workload::query_points(&venue, 1, 3)[0];
    let req = QueryRequest::Knn { q, k: 2 };
    assert_eq!(
        service.execute(id_a, &req),
        Err(ServiceError::UnknownVenue(id_a))
    );
    assert_eq!(
        service.remove_venue(id_a),
        Err(ServiceError::UnknownVenue(id_a))
    );
    // Ids are never reused: a new venue gets a fresh slot.
    let id_c = service
        .add_venue(
            Arc::new(random_venue(26)),
            ShardConfig {
                threads: 1,
                ..ShardConfig::default()
            },
        )
        .unwrap();
    assert_ne!(id_c, id_a);
    assert_eq!(service.venues(), vec![id_b, id_c]);
}

#[test]
fn clock_cache_evicts_and_counts() {
    let mut cache = ClockCache::new(2);
    let venue = random_venue(3);
    let points = workload::query_points(&venue, 4, 1);
    let reqs: Vec<QueryRequest> = points
        .iter()
        .map(|&q| QueryRequest::Knn { q, k: 1 })
        .collect();
    let resp = QueryResponse::Knn(Vec::new());
    assert!(!cache.insert(reqs[0].clone(), 0, resp.clone()));
    assert!(!cache.insert(reqs[1].clone(), 0, resp.clone()));
    assert_eq!(cache.map.len(), 2);
    // Reference req0 so the clock spares it and evicts req1.
    assert!(cache.probe(&reqs[0], 0).is_some());
    assert!(
        cache.insert(reqs[2].clone(), 0, resp.clone()),
        "an eviction"
    );
    assert_eq!(cache.map.len(), 2);
    assert!(
        cache.probe(&reqs[0], 0).is_some(),
        "referenced entry survives"
    );
    assert!(cache.probe(&reqs[1], 0).is_none(), "victim evicted");
    assert!(cache.probe(&reqs[2], 0).is_some());
    // Stale stamp: present but never a hit; re-insert revives in place.
    assert!(cache.probe(&reqs[2], 1).is_none());
    assert!(!cache.insert(reqs[2].clone(), 1, resp));
    assert_eq!(cache.map.len(), 2);
    assert!(cache.probe(&reqs[2], 1).is_some());
}

#[test]
fn saturated_shard_sheds_with_typed_error_and_counts() {
    let venue = Arc::new(random_venue(31));
    let service = IndoorService::new();
    let id = service
        .add_venue(
            venue.clone(),
            ShardConfig {
                threads: 1,
                objects: workload::place_objects(&venue, 8, 5),
                admission: AdmissionConfig {
                    max_in_flight: 1,
                    policy: OverloadPolicy::Shed,
                },
                ..ShardConfig::default()
            },
        )
        .unwrap();
    let q = workload::query_points(&venue, 1, 7)[0];
    let req = QueryRequest::Knn { q, k: 2 };
    // Saturate the budget from outside, as a concurrent query would.
    let shard = service.shard(id).unwrap();
    let held = shard.admit(id, 1).unwrap();
    assert_eq!(
        service.execute(id, &req),
        Err(ServiceError::Overloaded {
            venue: id,
            in_flight: 1,
            limit: 1
        })
    );
    // A batch sheds its whole share with the same typed error.
    let batch = service.execute_batch(&[(id, req.clone()), (id, req.clone())]);
    assert!(matches!(batch[0], Err(ServiceError::Overloaded { .. })));
    assert!(matches!(batch[1], Err(ServiceError::Overloaded { .. })));
    let stats = service.stats();
    assert_eq!(stats.shed, 2); // one execute + one batch share
    assert_eq!(stats.in_flight, 1);
    assert_eq!(stats.admission_capacity, 1);
    drop(held);
    assert!(service.execute(id, &req).is_ok());
    assert_eq!(service.stats().in_flight, 0);
}

#[test]
fn block_policy_times_out_with_typed_error() {
    let venue = Arc::new(random_venue(32));
    let service = IndoorService::new();
    let id = service
        .add_venue(
            venue.clone(),
            ShardConfig {
                threads: 1,
                admission: AdmissionConfig {
                    max_in_flight: 1,
                    policy: OverloadPolicy::Block {
                        timeout: Duration::from_millis(5),
                    },
                },
                ..ShardConfig::default()
            },
        )
        .unwrap();
    let (s, t) = workload::query_pairs(&venue, 1, 8)[0];
    let shard = service.shard(id).unwrap();
    let held = shard.admit(id, 1).unwrap();
    assert_eq!(
        service.execute(id, &QueryRequest::ShortestDistance { s, t }),
        Err(ServiceError::Timeout {
            venue: id,
            in_flight: 1,
            limit: 1
        })
    );
    assert_eq!(service.stats().admission_timeouts, 1);
    drop(held);
    assert!(service
        .execute(id, &QueryRequest::ShortestDistance { s, t })
        .is_ok());
}

#[test]
fn degraded_shard_serves_reads_and_refuses_mutations() {
    let (service, id, venue) = service_with_one_venue(33);
    let q = workload::query_points(&venue, 1, 4)[0];
    let req = QueryRequest::Knn { q, k: 2 };
    let before = service.execute(id, &req).unwrap();
    service.shard(id).unwrap().degrade("test-induced degrade");
    assert_eq!(
        service.degraded(id).unwrap().as_deref(),
        Some("test-induced degrade")
    );
    // Reads keep serving the last good snapshot...
    assert_eq!(service.execute(id, &req).unwrap(), before);
    // ...every mutation path is refused with the typed error...
    let err = service.update_objects(id, &[]).unwrap_err();
    assert!(matches!(err, ServiceError::Degraded(v, _) if v == id));
    assert!(matches!(
        service.attach_objects(id, &[]),
        Err(ServiceError::Degraded(..))
    ));
    assert!(matches!(
        service.update_keyword_objects(id, &[]),
        Err(ServiceError::Degraded(..))
    ));
    assert!(matches!(
        service.remove_venue(id),
        Err(ServiceError::Degraded(..))
    ));
    // ...the version never moved, and stats surface the state.
    assert_eq!(service.version(id).unwrap(), 0);
    assert_eq!(service.stats().degraded_venues, 1);
}

#[test]
fn deltas_absorbed_counts_batch_sizes_not_batches() {
    let (service, id, venue) = service_with_one_venue(41);
    assert_eq!(service.stats().deltas_absorbed, 0);
    let spots = workload::place_objects(&venue, 4, 9);
    service
        .update_objects(
            id,
            &[
                ObjectDelta::Move {
                    id: ObjectId(0),
                    to: spots[0],
                },
                ObjectDelta::Move {
                    id: ObjectId(1),
                    to: spots[1],
                },
            ],
        )
        .unwrap();
    assert_eq!(service.stats().deltas_absorbed, 2);
    // A rejected batch absorbs nothing.
    let bad = [ObjectDelta::Remove {
        id: ObjectId(9_999),
    }];
    assert!(service.update_objects(id, &bad).is_err());
    assert_eq!(service.stats().deltas_absorbed, 2);
    // Keyword updates count through the same gauge...
    service
        .update_keyword_objects(
            id,
            &[ObjectUpdate {
                delta: ObjectDelta::Insert {
                    id: ObjectId(0),
                    at: spots[2],
                },
                labels: vec!["cafe".into()],
            }],
        )
        .unwrap();
    assert_eq!(service.stats().deltas_absorbed, 3);
    // ...and the history survives venue removal.
    service.remove_venue(id).unwrap();
    assert_eq!(service.stats().deltas_absorbed, 3);
}

#[test]
fn venue_stats_snapshots_one_shard() {
    let venue = Arc::new(random_venue(42));
    let service = IndoorService::new();
    let id = service
        .add_venue(
            venue.clone(),
            ShardConfig {
                threads: 1,
                objects: workload::place_objects(&venue, 8, 5),
                admission: AdmissionConfig {
                    max_in_flight: 2,
                    policy: OverloadPolicy::Shed,
                },
                ..ShardConfig::default()
            },
        )
        .unwrap();
    let s = service.venue_stats(id).unwrap();
    assert_eq!(s.venue, id);
    assert_eq!((s.epoch, s.version), (0, 0));
    assert_eq!(s.admission_capacity, 2);
    assert_eq!((s.in_flight, s.shed, s.admission_timeouts), (0, 0, 0));
    assert_eq!(s.degraded, None);

    let q = workload::query_points(&venue, 1, 6)[0];
    service.execute(id, &QueryRequest::Knn { q, k: 2 }).unwrap();
    service
        .update_objects(
            id,
            &[ObjectDelta::Move {
                id: ObjectId(0),
                to: workload::place_objects(&venue, 1, 11)[0],
            }],
        )
        .unwrap();
    let s = service.venue_stats(id).unwrap();
    assert_eq!(s.cached_entries, 1);
    assert_eq!((s.epoch, s.version), (0, 1));

    // Per-venue attribution: the saturated venue shows the shed, a
    // second venue stays clean, an unknown id is the typed error.
    let shard = service.shard(id).unwrap();
    let held = shard.admit(id, 2).unwrap();
    assert!(service.execute(id, &QueryRequest::Knn { q, k: 2 }).is_err());
    drop(held);
    assert_eq!(service.venue_stats(id).unwrap().shed, 1);
    let (other_service, other, _) = service_with_one_venue(43);
    assert_eq!(other_service.venue_stats(other).unwrap().shed, 0);
    assert!(matches!(
        service.venue_stats(VenueId::from(7u32)),
        Err(ServiceError::UnknownVenue(_))
    ));
}

/// The three mutation kinds, each valid against `service_with_one_venue`.
fn one_of_each(venue: &Venue) -> [Mutation<'static>; 3] {
    let spots = workload::place_objects(venue, 6, 0xA9);
    [
        Mutation::Deltas(
            vec![ObjectDelta::Move {
                id: ObjectId(0),
                to: spots[0],
            }]
            .into(),
        ),
        Mutation::KeywordUpdates(
            vec![ObjectUpdate {
                delta: ObjectDelta::Insert {
                    id: ObjectId(0),
                    at: spots[1],
                },
                labels: vec!["cafe".into()],
            }]
            .into(),
        ),
        Mutation::Attach(spots.into()),
    ]
}

/// What replay and replication each used to check for themselves: a
/// record whose LSN is not `version + 1` — a hole *or* a repeat — is
/// refused before anything is touched, whatever kind it is.
#[test]
fn expected_lsn_gap_and_duplicate_refuse_and_leave_the_shard_untouched() {
    let (service, id, venue) = service_with_one_venue(51);
    let shard = service.shard(id).unwrap();
    let [first, ..] = one_of_each(&venue);
    assert_eq!(shard.apply(id, first, Lsn::Expected(1)).unwrap().0, 1);

    let reqs: Vec<QueryRequest> = workload::query_points(&venue, 3, 8)
        .into_iter()
        .flat_map(|q| {
            let keyword = "cafe".into();
            [
                QueryRequest::Knn { q, k: 3 },
                QueryRequest::KnnKeyword { q, k: 3, keyword },
            ]
        })
        .collect();
    // Straight off the engine: a cached answer would hide a swap.
    let observe = || {
        (
            shard.counters(),
            shard.engine.tree().ip().objects_generation(),
            shard.engine.keywords_generation(),
            shard.engine.execute_batch(&reqs),
        )
    };
    let before = observe();
    for stale in [0, 1, 3, u64::MAX] {
        for mutation in one_of_each(&venue) {
            let err = shard.apply(id, mutation, Lsn::Expected(stale)).unwrap_err();
            assert!(
                matches!(err, ServiceError::Replication(v, _) if v == id),
                "LSN {stale}: {err}"
            );
        }
    }
    assert!(before == observe(), "a refused record changed the shard");
    // The one LSN that does extend the history still applies.
    let [.., attach] = one_of_each(&venue);
    assert_eq!(shard.apply(id, attach, Lsn::Expected(2)).unwrap().0, 2);
    assert_eq!(shard.counters(), (1, 2));
}

/// Validate → journal → install: a batch that fails validation never
/// reaches the log, on either delta vocabulary or as an attach.
#[test]
fn invalid_batch_on_a_durable_shard_appends_nothing() {
    use crate::persist::storage::FaultStorage;
    let storage = FaultStorage::new();
    let shared: Arc<dyn Storage> = Arc::new(storage.clone());
    let (service, _) = IndoorService::open_with_storage(PathBuf::from("/apply"), shared).unwrap();
    let venue = Arc::new(random_venue(53));
    let config = ShardConfig {
        threads: 1,
        objects: workload::place_objects(&venue, 8, 53),
        ..ShardConfig::default()
    };
    let id = service.add_venue(venue.clone(), config).unwrap();
    let [valid, ..] = one_of_each(&venue);
    service.mutate(id, valid).unwrap();

    let log = wal::wal_path(std::path::Path::new("/apply"), id.index());
    let len = storage.file_len(&log).unwrap();
    let ghost = ObjectDelta::Remove {
        id: ObjectId(9_999),
    };
    assert!(matches!(
        service.update_objects(id, &[ghost]),
        Err(ServiceError::Delta(..))
    ));
    let labelled_ghost = ObjectUpdate {
        delta: ghost,
        labels: Vec::new(),
    };
    assert!(matches!(
        service.update_keyword_objects(id, &[labelled_ghost]),
        Err(ServiceError::Delta(..))
    ));
    let nowhere = indoor_model::PartitionId(u32::MAX - 1);
    let outside = IndoorPoint::new(nowhere, geometry::Point::new(0.0, 0.0, 0));
    let bad_partition = DeltaError::BadPartition(ObjectId(1), nowhere);
    assert_eq!(
        service.attach_objects(id, &[workload::place_objects(&venue, 1, 9)[0], outside]),
        Err(ServiceError::Delta(id, bad_partition))
    );
    assert_eq!(storage.file_len(&log).unwrap(), len, "WAL grew");
    assert_eq!(service.version(id).unwrap(), 1);
    assert_eq!(service.epoch(id).unwrap(), 0);
    // The next valid batch takes the LSN the rejected ones never used.
    let [valid, ..] = one_of_each(&venue);
    assert_eq!(service.mutate(id, valid).unwrap().0, 2);
    assert!(storage.file_len(&log).unwrap() > len);
}

/// An attach bumps epoch and version as one publication: `epoch` is
/// stored first, `version` read first, so under an attach-only history
/// (where the two are equal at rest) no reader ever holds a version
/// ahead of the epoch it reads next.
#[test]
fn attach_publishes_epoch_before_version() {
    let (service, id, venue) = service_with_one_venue(57);
    let objects = workload::place_objects(&venue, 4, 57);
    let attaches = 400u64;
    let start = std::sync::Barrier::new(2);
    let reads = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            start.wait();
            let mut reads = 0u64;
            loop {
                let s = service.venue_stats(id).unwrap();
                assert!(
                    s.epoch >= s.version,
                    "version {} visible before epoch {}",
                    s.version,
                    s.epoch
                );
                reads += 1;
                if s.version == attaches {
                    return reads;
                }
            }
        });
        start.wait();
        for _ in 0..attaches {
            service.attach_objects(id, &objects).unwrap();
        }
        reader.join().unwrap()
    });
    assert!(reads > 0);
    assert_eq!(service.epoch(id).unwrap(), attaches);
    assert_eq!(service.version(id).unwrap(), attaches);
}
