//! End-to-end contract for the network front-end (`crates/net`) over a
//! loopback listener:
//!
//! - **Byte-identity**: every query kind answered over the wire equals
//!   the in-process [`IndoorService::execute`] answer exactly — framing
//!   round-trips are lossless, including through the pipelined batch
//!   path.
//! - **Typed overload**: flooding a shard past its admission capacity
//!   yields `Overloaded` *replies*, never dropped connections — every
//!   request resolves and the connection stays usable afterwards.
//! - **Replication**: a volatile follower subscribing to a durable
//!   leader's WAL stream is byte-identical on all five query kinds
//!   after catch-up, its reported lag reaches 0, live tailing tracks
//!   new writes, a mid-stream resume from an arbitrary LSN fetches
//!   exactly the missing suffix — and killing the leader leaves the
//!   replica serving its last-synced state.

use indoor_net::{follower, NetClient, NetError, NetServer};
use indoor_spatial::prelude::*;
use indoor_spatial::synth::{random_venue, workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> DirGuard {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vip-net-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    DirGuard(dir)
}

struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Venue + labelled objects + a mixed request set covering all five
/// query kinds.
fn fixture(seed: u64) -> (Arc<Venue>, ShardConfig, Vec<QueryRequest>) {
    let venue = Arc::new(random_venue(seed));
    let objects = workload::place_objects(&venue, 24, seed);
    let keywords = workload::cycling_labels(&objects, "atm");
    let reqs = workload::mixed_requests(&venue, 6, 4, 60.0, "atm", seed);
    let config = ShardConfig {
        threads: 1,
        objects,
        keywords,
        ..ShardConfig::default()
    };
    (venue, config, reqs)
}

#[test]
fn wire_answers_are_byte_identical_to_direct_execution() {
    let (venue, config, reqs) = fixture(81);
    let service = Arc::new(IndoorService::new());
    let id = service.add_venue(venue, config).unwrap();
    let server = NetServer::bind(service.clone(), "127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // Sequential path: one request per round trip.
    for req in &reqs {
        let direct = service.execute(id, req).unwrap();
        let wired = client.query(id.index() as u32, req).unwrap();
        assert_eq!(wired, direct, "sequential wire answer diverged: {req:?}");
    }

    // Batch path: the whole mixed set in one frame, answered by one
    // `execute_batch` server-side.
    let batch: Vec<(u32, QueryRequest)> = reqs
        .iter()
        .map(|r| (id.index() as u32, r.clone()))
        .collect();
    let answers = client.query_batch(&batch).unwrap();
    assert_eq!(answers.len(), reqs.len());
    for (req, ans) in reqs.iter().zip(answers) {
        let direct = service.execute(id, req).unwrap();
        assert_eq!(
            ans.unwrap(),
            direct,
            "batched wire answer diverged: {req:?}"
        );
    }

    // Pipelined path: fire everything, then drain; replies must match
    // by id, not arrival order assumptions.
    let mut expect = std::collections::HashMap::new();
    for req in &reqs {
        let rid = client.send_query(id.index() as u32, req.clone()).unwrap();
        expect.insert(rid, service.execute(id, req).unwrap());
    }
    for _ in 0..reqs.len() {
        let (rid, ans) = client.recv_answer().unwrap();
        let direct = expect.remove(&rid).expect("known request id");
        assert_eq!(ans.unwrap(), direct, "pipelined wire answer diverged");
    }
    assert!(expect.is_empty());
}

#[test]
fn unknown_venue_and_malformed_admin_come_back_typed() {
    let service = Arc::new(IndoorService::new());
    let server = NetServer::bind(service.clone(), "127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let venue = random_venue(83);
    let req = &workload::mixed_requests(&venue, 1, 2, 30.0, "atm", 83)[0];
    match client.query(999, req) {
        Err(NetError::Server(e)) => assert!(
            !e.is_retryable(),
            "unknown venue must not be retried: {e:?}"
        ),
        other => panic!("want typed UnknownVenue, got {other:?}"),
    }
    // The connection survives the error reply.
    client.ping().unwrap();

    // A point outside the venue is outside input like any other: every
    // way one can arrive answers typed and non-retryable, and the *same*
    // connection then serves a good query.
    use indoor_spatial::model::frames::WireError;
    let (venue, mut config, reqs) = fixture(83);
    config.admission = AdmissionConfig {
        max_in_flight: 4,
        policy: OverloadPolicy::Shed,
    };
    let id = client.add_venue(&venue, &config).unwrap();
    let good = QueryRequest::Knn {
        q: config.objects[0],
        k: 2,
    };
    let answer = client.query(id, &good).unwrap();
    let outside = IndoorPoint::new(PartitionId(u32::MAX - 1), Point::new(0.0, 0.0, 0));
    let malformed = |got: Result<(), NetError>, what: &str| match got {
        Err(NetError::Server(e @ WireError::Malformed { .. })) => {
            assert!(!e.is_retryable(), "{what}: {e:?}")
        }
        other => panic!("{what}: want typed Malformed, got {other:?}"),
    };
    let bad_queries = [
        QueryRequest::Knn { q: outside, k: 3 },
        QueryRequest::Range {
            q: outside,
            radius: 50.0,
        },
        QueryRequest::ShortestDistance {
            s: config.objects[0],
            t: outside,
        },
    ];
    for bad in &bad_queries {
        malformed(client.query(id, bad).map(drop), "bad query point");
        assert_eq!(client.query(id, &good).unwrap(), answer);
    }
    // One bad slot answers its error; the rest of the batch answers.
    let mut batch: Vec<(u32, QueryRequest)> = reqs.iter().map(|r| (id, r.clone())).collect();
    batch.insert(2, (id, bad_queries[0].clone()));
    for (slot, (got, (_, req))) in client
        .query_batch(&batch)
        .unwrap()
        .into_iter()
        .zip(&batch)
        .enumerate()
    {
        match slot {
            2 => malformed(got.map(drop).map_err(NetError::Server), "bad batch slot"),
            _ => assert_eq!(got.unwrap(), client.query(id, req).unwrap(), "slot {slot}"),
        }
    }
    // A bad attach leaves version, epoch and object set untouched.
    let before = service.venue_stats(VenueId::from(id)).unwrap();
    match client.attach_objects(id, &[config.objects[1], outside]) {
        Err(NetError::Server(e @ WireError::Delta { .. })) => assert!(!e.is_retryable()),
        other => panic!("bad attach point: want typed Delta, got {other:?}"),
    }
    assert_eq!(service.venue_stats(VenueId::from(id)).unwrap(), before);
    assert_eq!(client.query(id, &good).unwrap(), answer);
    // A bad seed (plain or labelled) registers nothing.
    for seed in 0..2 {
        let mut bad = config.clone();
        match seed {
            0 => bad.objects[3] = outside,
            _ => bad.keywords[3].0 = outside,
        }
        match client.add_venue(&venue, &bad) {
            Err(NetError::Server(e @ WireError::Build { .. })) => assert!(!e.is_retryable()),
            other => panic!("bad seed point: want typed Build, got {other:?}"),
        }
        assert_eq!(client.query(id, &good).unwrap(), answer);
    }
    assert_eq!(service.venue_count(), 1);
    // A rejected request holds no admission permit.
    assert_eq!(service.stats().in_flight, 0);
}

/// `set_read_timeout` bounds `try_recv_answer` only. A blocking call made
/// after it waits through as many elapsed quanta as the reply takes — it
/// must not surface the socket's `WouldBlock`. The peer here is a scripted
/// stand-in for a slow server (a `Block` admission wait, a long mutation):
/// it sits on every request for 20 ms, then trickles the reply out in two
/// pieces, so the timeout fires both before and in the middle of a frame.
#[test]
fn blocking_calls_wait_through_the_client_read_timeout() {
    use indoor_spatial::model::frames::{Frame, FrameDecoder, NET_MAGIC};
    use std::io::{Read, Write};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let answer = QueryResponse::ShortestDistance(Some(12.5));
    let slow_server = {
        let answer = answer.clone();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(&NET_MAGIC).unwrap();
            let mut magic = [0u8; NET_MAGIC.len()];
            stream.read_exact(&mut magic).unwrap();
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 4096];
            loop {
                let reply = match dec.next().unwrap() {
                    Some(Frame::Ping { id }) => Frame::Pong { id },
                    Some(Frame::Query { id, .. }) => Frame::Answer {
                        id,
                        result: Ok(answer.clone()),
                    },
                    Some(other) => panic!("unscripted frame {other:?}"),
                    None => match stream.read(&mut buf).unwrap() {
                        0 => return,
                        n => {
                            dec.extend(&buf[..n]);
                            continue;
                        }
                    },
                };
                let bytes = reply.encode();
                std::thread::sleep(Duration::from_millis(20));
                stream.write_all(&bytes[..5]).unwrap();
                std::thread::sleep(Duration::from_millis(5));
                stream.write_all(&bytes[5..]).unwrap();
            }
        })
    };

    let venue = random_venue(85);
    let req = workload::mixed_requests(&venue, 1, 2, 30.0, "atm", 85).remove(0);
    let mut client = NetClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_millis(1)))
        .unwrap();
    client.ping().expect("ping waits through the timeout");
    assert_eq!(client.query(0, &req).expect("query waits"), answer);
    let id = client.send_query(0, req).unwrap();
    // The non-blocking flavour is what the timeout is for: nothing yet.
    assert!(client.try_recv_answer().unwrap().is_none());
    assert_eq!(client.recv_answer().expect("recv waits"), (id, Ok(answer)));
    drop(client);
    slow_server.join().unwrap();
}

/// Flood a capacity-1 shard from eight pipelined connections, once per
/// overload policy: every request must resolve (an answer or the
/// policy's typed error — `Overloaded` under `Shed`, `Timeout` under
/// `Block`), and each connection must stay open through the storm. Under
/// `Shed` the gate must also push back; whether it trips is a
/// thread-timing race, so that claim gets several independently seeded
/// rounds — the accounting invariants must hold on all of them. `Block`
/// may absorb the whole flood inside its timeout, so one round proves its
/// accounting.
#[test]
fn flood_past_capacity_sheds_typed_errors_without_losing_connections() {
    use indoor_spatial::model::frames::WireError;
    for policy in [
        OverloadPolicy::Shed,
        OverloadPolicy::Block {
            timeout: Duration::from_millis(1),
        },
    ] {
        let must_shed = policy == OverloadPolicy::Shed;
        let mut pushed_back = false;
        for seed in 84..89 {
            let (venue, mut config, _) = fixture(seed);
            config.admission = AdmissionConfig {
                max_in_flight: 1,
                policy,
            };
            let service = Arc::new(IndoorService::new());
            let id = service.add_venue(venue.clone(), config).unwrap();
            let server = NetServer::bind(service.clone(), "127.0.0.1:0").unwrap();
            let addr = server.local_addr();

            // The gate refuses a share only while another is inside it,
            // and a share of cache hits is through in microseconds. So
            // every connection floods its own slice of requests nobody
            // repeats — all misses, however warm the cache — heavy enough
            // that a coalesced batch outlives a scheduler quantum even on
            // one release-mode core and handler threads overlap inside
            // the admission window.
            let per_conn = 1600usize;
            let conns = 8u64;
            let flood = workload::mixed_requests(
                &venue,
                (conns as usize * per_conn).div_ceil(5),
                4,
                60.0,
                "atm",
                seed ^ 0xF100D,
            );
            let distinct: std::collections::HashSet<&QueryRequest> = flood.iter().collect();
            assert_eq!(
                distinct.len(),
                flood.len(),
                "flood requests must not repeat"
            );
            let (answered, bounced) = std::thread::scope(|scope| {
                let handles: Vec<_> = flood
                    .chunks_exact(per_conn)
                    .take(conns as usize)
                    .map(|share| {
                        scope.spawn(move || {
                            let mut client = NetClient::connect(addr).unwrap();
                            let (mut ok, mut bounced) = (0u64, 0u64);
                            for req in share {
                                client.send_query(id.index() as u32, req.clone()).unwrap();
                            }
                            for _ in 0..per_conn {
                                match client.recv_answer().unwrap().1 {
                                    Ok(_) => ok += 1,
                                    Err(e) => {
                                        let typed = match policy {
                                            OverloadPolicy::Shed => {
                                                matches!(e, WireError::Overloaded { .. })
                                            }
                                            OverloadPolicy::Block { .. } => {
                                                matches!(e, WireError::Timeout { .. })
                                            }
                                        };
                                        assert!(typed, "{policy:?} bounced with {e:?}");
                                        bounced += 1;
                                    }
                                }
                            }
                            // The connection survived the flood.
                            client.ping().unwrap();
                            (ok, bounced)
                        })
                    })
                    .collect();
                handles.into_iter().fold((0, 0), |acc, h| {
                    let (ok, bounced) = h.join().unwrap();
                    (acc.0 + ok, acc.1 + bounced)
                })
            });

            assert_eq!(
                answered + bounced,
                conns * per_conn as u64,
                "{policy:?}: every flooded request must resolve (answer or typed error)"
            );
            // The gate counts one *event* per rejected batch share; the
            // client sees one typed reply per slot in that share.
            let stats = service.stats();
            let gate_events = if must_shed {
                stats.shed
            } else {
                stats.admission_timeouts
            };
            assert!(
                gate_events <= bounced,
                "{policy:?}: gate events ({gate_events}) cannot exceed bounced requests ({bounced})"
            );
            assert_eq!(
                gate_events > 0,
                bounced > 0,
                "{policy:?}: server and client must agree on whether pushback happened"
            );
            println!("{policy:?} flood round, seed {seed}: answered {answered}, bounced {bounced}");
            pushed_back = bounced > 0;
            if pushed_back || !must_shed {
                break;
            }
        }
        assert!(
            pushed_back || !must_shed,
            "gate never pushed back across five seeded flood rounds"
        );
    }
}

/// An acknowledgement carries the LSN of the mutation it acknowledges,
/// not whatever the venue's version happens to be when the reply is
/// built: two connections churning one venue get 600 distinct versions,
/// `1..=600` with no duplicate and no hole.
#[test]
fn concurrent_mutation_acks_carry_their_own_lsn() {
    let (venue, config, _) = fixture(95);
    let spots = workload::place_objects(&venue, 8, 95);
    let service = Arc::new(IndoorService::new());
    let id = service.add_venue(venue, config).unwrap();
    let server = NetServer::bind(service.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let per_conn = 300usize;

    let start = std::sync::Barrier::new(2);
    let mut versions: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u32)
            .map(|conn| {
                let (start, spots) = (&start, &spots);
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).unwrap();
                    start.wait();
                    (0..per_conn)
                        .map(|i| {
                            let delta = ObjectDelta::Move {
                                id: ObjectId(conn),
                                to: spots[i % spots.len()],
                            };
                            client.update_objects(id.index() as u32, &[delta]).unwrap()
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    versions.sort_unstable();
    let expected: Vec<u64> = (1..=2 * per_conn as u64).collect();
    assert_eq!(versions, expected, "every ack names its own LSN");
    assert_eq!(service.version(id).unwrap(), 2 * per_conn as u64);
}

/// Mutate the leader through the wire while a follower tails: kNN /
/// range / keyword / distance / path answers must match on both sides
/// once lag hits 0, and continue matching after the leader dies.
#[test]
fn follower_catches_up_tails_live_and_survives_leader_death() {
    let guard = scratch_dir("repl");
    let leader = Arc::new(IndoorService::open(&guard.0).unwrap());
    let (venue, config, reqs) = fixture(91);
    let id = leader.add_venue(venue.clone(), config).unwrap();
    let objects = workload::place_objects(&venue, 24, 91);

    // Advance the WAL before any follower exists: attach + label churn.
    leader
        .update_keyword_objects(
            id,
            &[ObjectUpdate {
                delta: ObjectDelta::Insert {
                    id: ObjectId(100),
                    at: objects[0],
                },
                labels: vec!["cafe".into()],
            }],
        )
        .unwrap();
    let mut server = NetServer::bind(leader.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Bootstrap from LSN 0: Create record first, then the churn suffix.
    let replica = IndoorService::new();
    let mut stream = follower::subscribe(addr, id, 0).unwrap();
    let report = stream.catch_up(&replica).unwrap();
    assert_eq!(report.version, leader.version(id).unwrap());
    assert!(report.applied >= 2, "Create + at least one churn record");
    assert_eq!(
        replica.venue_stats(id).unwrap().replication_lag,
        0,
        "lag must reach 0 after catch-up"
    );
    for req in &reqs {
        assert_eq!(
            replica.execute(id, req).unwrap(),
            leader.execute(id, req).unwrap(),
            "post-catch-up divergence: {req:?}"
        );
    }

    // Tail live while the leader absorbs more churn through the wire.
    let stop = Arc::new(AtomicBool::new(false));
    let tail = {
        let replica = &replica;
        let stop = stop.clone();
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || stream.tail(replica, &stop));

            let mut client = NetClient::connect(addr).unwrap();
            let wire_id = id.index() as u32;
            for (i, obj) in objects.iter().take(6).enumerate() {
                client
                    .update_keywords(
                        wire_id,
                        &[ObjectUpdate {
                            delta: ObjectDelta::Insert {
                                id: ObjectId(101 + i as u32),
                                at: *obj,
                            },
                            labels: vec!["exit".into()],
                        }],
                    )
                    .unwrap();
            }
            let target = leader.version(id).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while replica.version(id).unwrap() < target {
                assert!(Instant::now() < deadline, "tail never caught up");
                std::thread::sleep(Duration::from_millis(5));
            }

            // Kill the leader: the tail must come back cleanly, not hang
            // or report a transport panic.
            server.stop();
            handle.join().unwrap().unwrap()
        })
    };
    assert_eq!(tail.version, leader.version(id).unwrap());
    assert_eq!(replica.venue_stats(id).unwrap().replication_lag, 0);

    // The same facts through the telemetry surface: the durable leader
    // recorded its WAL append latency, and the caught-up replica (whose
    // shard was created by WAL replay, so wired by the replication
    // path, not `add_venue`) exports a zero replication-lag gauge.
    let leader_snap = leader.metrics_snapshot();
    let wal = leader_snap
        .series
        .iter()
        .find(|s| s.name == "indoor_wal_append_us")
        .expect("durable leader exports WAL append histogram");
    let indoor_model::metrics::MetricValue::Histogram { count, max, .. } = wal.value else {
        panic!("indoor_wal_append_us must be a histogram");
    };
    assert!(
        count >= 7,
        "Create + 1 pre-follower + 6 tailed appends, got {count}"
    );
    assert!(max < 10_000_000, "append latency in µs, not ns: {max}");
    let replica_snap = replica.metrics_snapshot();
    let lag = replica_snap
        .series
        .iter()
        .find(|s| s.name == "indoor_replication_lag")
        .expect("replayed shard exports the lag gauge");
    assert_eq!(
        lag.value,
        indoor_model::metrics::MetricValue::Gauge(0.0),
        "caught-up replica must export zero lag"
    );
    // ...and has counted every delta it absorbed on the way there.
    assert_eq!(
        replica.stats().deltas_absorbed,
        leader.stats().deltas_absorbed,
        "a follower counts what it absorbs"
    );

    // The orphaned replica still serves, byte-identical to the leader's
    // final state, on every query kind.
    for req in &reqs {
        assert_eq!(
            replica.execute(id, req).unwrap(),
            leader.execute(id, req).unwrap(),
            "post-mortem divergence: {req:?}"
        );
    }
    drop(stop);
}

/// A replica that already holds a prefix resumes from `version + 1` and
/// receives exactly the missing suffix — catch-up from an arbitrary
/// LSN, not a full re-bootstrap.
#[test]
fn follower_resumes_from_arbitrary_lsn_with_suffix_only() {
    let guard = scratch_dir("resume");
    let leader = Arc::new(IndoorService::open(&guard.0).unwrap());
    let (venue, config, reqs) = fixture(92);
    let id = leader.add_venue(venue.clone(), config).unwrap();
    let objects = workload::place_objects(&venue, 24, 92);

    let server = NetServer::bind(leader.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // First session: bootstrap, then disconnect.
    let replica = IndoorService::new();
    follower::subscribe(addr, id, 0)
        .unwrap()
        .catch_up(&replica)
        .unwrap();
    let parted_at = replica.version(id).unwrap();

    // Leader moves on while the follower is away.
    for (i, obj) in objects.iter().take(5).enumerate() {
        leader
            .update_objects(
                id,
                &[ObjectDelta::Insert {
                    id: ObjectId(200 + i as u32),
                    at: *obj,
                }],
            )
            .unwrap();
    }

    // Second session: resume from the next LSN the replica needs.
    let mut stream = follower::subscribe(addr, id, parted_at + 1).unwrap();
    let report = stream.catch_up(&replica).unwrap();
    assert_eq!(
        report.applied, 5,
        "resume must ship exactly the missed suffix"
    );
    assert_eq!(report.version, leader.version(id).unwrap());
    assert_eq!(replica.venue_stats(id).unwrap().replication_lag, 0);
    for req in &reqs {
        assert_eq!(
            replica.execute(id, req).unwrap(),
            leader.execute(id, req).unwrap(),
            "post-resume divergence: {req:?}"
        );
    }
}

/// Replication refusals are typed: an unknown venue and a volatile
/// (WAL-less) leader both answer with `ReplEnd` carrying the reason,
/// not a dropped connection.
#[test]
fn replication_refusals_are_typed() {
    let volatile = Arc::new(IndoorService::new());
    let (venue, config, _) = fixture(93);
    let id = volatile.add_venue(venue, config).unwrap();
    let server = NetServer::bind(volatile, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    match follower::subscribe(addr, VenueId::from(999u32), 0) {
        Err(NetError::Server(_)) => {}
        other => panic!("unknown venue must refuse typed, got {other:?}"),
    }
    match follower::subscribe(addr, id, 0) {
        Err(NetError::Server(e)) => {
            assert!(
                format!("{e:?}").contains("NotDurable"),
                "volatile leader must refuse as NotDurable, got {e:?}"
            );
        }
        other => panic!("volatile leader must refuse typed, got {other:?}"),
    }
}

/// Metrics smoke (the CI gate): the exposition page fetched over a live
/// server round-trips through the encoder lint clean, and carries both
/// the registry's venue-labelled histograms and the direct-append
/// service gauges — after real queries have flowed, so the latency
/// histograms are non-empty.
#[test]
fn metrics_page_fetches_over_the_wire_and_lints_clean() {
    indoor_spatial::vip::telemetry::set_sampling(true);
    let (venue, config, reqs) = fixture(97);
    let service = Arc::new(IndoorService::new());
    let id = service.add_venue(venue, config).unwrap();
    let server = NetServer::bind(service, "127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for req in &reqs {
        client.query(id.index() as u32, req).unwrap();
    }
    let page = client.metrics().unwrap();
    let errors = indoor_spatial::model::metrics::lint_text(&page);
    assert!(errors.is_empty(), "{errors:?}\n{page}");
    let typed: Vec<(&str, &str)> = page
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' '))
        .collect();
    assert_eq!(
        typed,
        indoor_spatial::vip::METRIC_FAMILIES,
        "page families differ from METRIC_FAMILIES:\n{page}"
    );
    for needle in [
        "# TYPE indoor_query_latency_us histogram",
        "indoor_query_latency_us_count{kind=\"knn\",venue=\"0\"}",
        "indoor_traced_queries_total{venue=\"0\"}",
        "indoor_venues 1",
        "indoor_leaf_grid_builds_total{venue=\"0\"}",
        "indoor_object_leaf_touches_total{venue=\"0\"}",
        "indoor_object_slots{venue=\"0\"}",
    ] {
        assert!(page.contains(needle), "missing {needle} in page:\n{page}");
    }
    // The latency histograms really recorded: total count over kinds > 0.
    let counted: u64 = page
        .lines()
        .filter(|l| l.starts_with("indoor_query_latency_us_count"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert!(counted > 0, "no query latencies recorded:\n{page}");
    // The page carries the folded object-index anatomy per venue.
    for gauge in [
        "indoor_live_objects{venue=\"0\"}",
        "indoor_leaf_grid_builds_total{venue=\"0\"}",
    ] {
        let v = page
            .lines()
            .find_map(|l| l.strip_prefix(gauge)?.trim().parse::<f64>().ok());
        assert!(
            v.is_some_and(|v| v > 0.0),
            "{gauge} not > 0 in page:\n{page}"
        );
    }
}
