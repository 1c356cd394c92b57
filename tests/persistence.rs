//! Kill-and-recover equivalence for the durability subsystem.
//!
//! The contract under test: for **any** churn prefix, a snapshot plus
//! WAL-suffix replay yields a service whose kNN / range / keyword /
//! shortest-distance / shortest-path answers are byte-identical to a
//! service that never went down — enforced by proptest over arbitrary
//! delta interleavings with the snapshot taken at a random point — and a
//! torn final WAL record (a crash mid-append) is truncated with recovery
//! still succeeding on everything before it.

use indoor_spatial::prelude::*;
use indoor_spatial::synth::{presets, random_venue, workload};
use indoor_spatial::vip::{CrashMode, FaultAt, FaultKind, FaultStorage, Storage};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const LABELS: [&str; 3] = ["cafe", "atm", "exit"];

/// Fresh scratch directory per call (no tempfile crate in the offline
/// container): unique by pid + counter, removed by [`DirGuard`].
fn scratch_dir(tag: &str) -> DirGuard {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vip-persist-{tag}-{}-{}",
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

/// Tracks which ids are live in one object set, to generate always-valid
/// batches (mirrors `tests/object_deltas.rs`).
#[derive(Default)]
struct LiveSet {
    live: Vec<bool>,
}

impl LiveSet {
    fn seeded(n: usize) -> LiveSet {
        LiveSet {
            live: vec![true; n],
        }
    }

    fn random_batch(&mut self, pool: &[IndoorPoint], rng: &mut StdRng) -> Vec<ObjectUpdate> {
        let n_ops = rng.gen_range(1..6);
        let mut batch = Vec::new();
        for _ in 0..n_ops {
            let live_ids: Vec<u32> = self
                .live
                .iter()
                .enumerate()
                .filter(|(_, l)| **l)
                .map(|(i, _)| i as u32)
                .collect();
            let op = rng.gen_range(0..3u32);
            let point = pool[rng.gen_range(0..pool.len())];
            let delta = if live_ids.is_empty() || op == 0 {
                let id = self.live.iter().position(|l| !l).unwrap_or_else(|| {
                    self.live.push(false);
                    self.live.len() - 1
                });
                self.live[id] = true;
                ObjectDelta::Insert {
                    id: ObjectId(id as u32),
                    at: point,
                }
            } else if op == 1 {
                let id = live_ids[rng.gen_range(0..live_ids.len())];
                self.live[id as usize] = false;
                ObjectDelta::Remove { id: ObjectId(id) }
            } else {
                let id = live_ids[rng.gen_range(0..live_ids.len())];
                ObjectDelta::Move {
                    id: ObjectId(id),
                    to: point,
                }
            };
            batch.push(ObjectUpdate {
                delta,
                labels: vec![LABELS[rng.gen_range(0..LABELS.len())].to_string()],
            });
        }
        batch
    }
}

struct Fixture {
    venue: Arc<Venue>,
    pool: Vec<IndoorPoint>,
    objects: Vec<IndoorPoint>,
    keywords: Vec<(IndoorPoint, Vec<String>)>,
}

impl Fixture {
    fn new(venue: Arc<Venue>, seed: u64) -> Fixture {
        let pool = workload::place_objects(&venue, 48, seed ^ 0xF1);
        let objects = workload::place_objects(&venue, 16, seed ^ 0xF2);
        let keywords = workload::cycling_labels(&objects, "cafe");
        Fixture {
            venue,
            pool,
            objects,
            keywords,
        }
    }

    fn config(&self) -> ShardConfig {
        ShardConfig {
            threads: 1,
            objects: self.objects.clone(),
            keywords: self.keywords.clone(),
            ..ShardConfig::default()
        }
    }
}

/// Every query kind, asserted byte-identical between two services.
fn assert_same_answers(
    recovered: &IndoorService,
    reference: &IndoorService,
    id: VenueId,
    f: &Fixture,
    seed: u64,
    ctx: &str,
) {
    let mut reqs: Vec<QueryRequest> = Vec::new();
    for q in workload::query_points(&f.venue, 4, seed ^ 0x77) {
        for k in [1usize, 3] {
            reqs.push(QueryRequest::Knn { q, k });
        }
        reqs.push(QueryRequest::Range { q, radius: 120.0 });
        for label in ["cafe", "atm", "missing"] {
            reqs.push(QueryRequest::KnnKeyword {
                q,
                k: 3,
                keyword: label.into(),
            });
        }
    }
    for (s, t) in workload::query_pairs(&f.venue, 3, seed ^ 0x78) {
        reqs.push(QueryRequest::ShortestDistance { s, t });
        reqs.push(QueryRequest::ShortestPath { s, t });
    }
    for req in &reqs {
        assert_eq!(
            recovered.execute(id, req).unwrap(),
            reference.execute(id, req).unwrap(),
            "{ctx}: diverged on {req:?}"
        );
    }
    assert_eq!(
        recovered.version(id).unwrap(),
        reference.version(id).unwrap(),
        "{ctx}: version counters diverged"
    );
    assert_eq!(
        recovered.epoch(id).unwrap(),
        reference.epoch(id).unwrap(),
        "{ctx}: epoch counters diverged"
    );
    // ObjectIndexStats sanity: the recovered live set matches, and the
    // rebuild left no tombstone debt.
    let rec = recovered.engine(id).unwrap();
    let refc = reference.engine(id).unwrap();
    let rec_stats = rec.tree().ip().object_index().unwrap().index_stats();
    let ref_stats = refc.tree().ip().object_index().unwrap().index_stats();
    assert_eq!(rec_stats.live, ref_stats.live, "{ctx}: live counts");
    assert!(rec_stats.slots >= rec_stats.live);
    let rec_kw = rec.keywords().unwrap().object_index().index_stats();
    let ref_kw = refc.keywords().unwrap().object_index().index_stats();
    assert_eq!(rec_kw.live, ref_kw.live, "{ctx}: keyword live counts");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn kill_and_recover_matches_uninterrupted_service(seed in 0u64..100_000) {
        let guard = scratch_dir("prop");
        let dir = &guard.0;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let f = Fixture::new(Arc::new(random_venue(seed % 97)), seed);

        // Durable service under test + volatile never-restarted reference,
        // fed identical churn — and a volatile follower fed only what the
        // durable service journals: one history, three executors.
        let durable = IndoorService::open(dir).expect("open empty dir");
        let reference = IndoorService::new();
        let follower = IndoorService::new();
        let id = durable.add_venue(f.venue.clone(), f.config()).unwrap();
        let ref_id = reference.add_venue(f.venue.clone(), f.config()).unwrap();
        prop_assert_eq!(id, ref_id);

        let mut objects = LiveSet::seeded(f.objects.len());
        let mut kw_objects = LiveSet::seeded(f.keywords.len());
        let rounds = rng.gen_range(2..6);
        let snapshot_at = rng.gen_range(0..rounds);
        // The follower bootstraps from LSN 0, so it subscribes no later
        // than the snapshot whose rotation drops the `Create` record. (Its
        // own generator: the churn below draws what it always drew.)
        let follow_at = StdRng::seed_from_u64(seed ^ 0xF011).gen_range(0..=snapshot_at);
        let mut live_tail = None;
        for round in 0..rounds {
            if round == follow_at {
                let sub = durable.wal_subscribe(id, 0).expect("log still holds Create");
                prop_assert_eq!(sub.backlog.len() as u64, sub.version + 1);
                for (_, payload) in &sub.backlog {
                    follower.apply_replicated(id, payload).unwrap();
                }
                live_tail = Some(sub.live);
            }
            if round == snapshot_at {
                let report = durable.save_snapshot(dir).expect("snapshot");
                prop_assert_eq!(report.venues, 1);
            }
            // Plain object churn...
            let deltas: Vec<ObjectDelta> = objects
                .random_batch(&f.pool, &mut rng)
                .into_iter()
                .map(|u| u.delta)
                .collect();
            durable.update_objects(id, &deltas).unwrap();
            reference.update_objects(id, &deltas).unwrap();
            // ...and labelled keyword churn, interleaved.
            let updates = kw_objects.random_batch(&f.pool, &mut rng);
            durable.update_keyword_objects(id, &updates).unwrap();
            reference.update_keyword_objects(id, &updates).unwrap();
            // Occasionally a wholesale replacement (epoch bump).
            if rng.gen_range(0..4u32) == 0 {
                let fresh = workload::place_objects(&f.venue, 12, seed ^ round as u64);
                durable.attach_objects(id, &fresh).unwrap();
                reference.attach_objects(id, &fresh).unwrap();
                objects = LiveSet::seeded(fresh.len());
            }
        }

        // Everything journalled after the cut reached the tap, in log
        // order: the follower is the reference, record for record.
        for (lsn, payload) in live_tail.expect("subscribed").try_iter() {
            prop_assert_eq!(follower.apply_replicated(id, &payload), Ok(lsn));
        }
        assert_same_answers(&follower, &reference, id, &f, seed, "follower");
        prop_assert_eq!(
            follower.stats().deltas_absorbed,
            reference.stats().deltas_absorbed
        );

        // Kill (drop) and recover.
        drop(durable);
        let (recovered, report) = IndoorService::open_with_report(dir).expect("recover");
        prop_assert!(report.venues == 1);
        assert_same_answers(&recovered, &reference, id, &f, seed, "recovered");

        // The recovered service keeps journaling: churn both again and
        // restart once more — counters stayed monotone, nothing aliases.
        let deltas: Vec<ObjectDelta> = objects
            .random_batch(&f.pool, &mut rng)
            .into_iter()
            .map(|u| u.delta)
            .collect();
        recovered.update_objects(id, &deltas).unwrap();
        reference.update_objects(id, &deltas).unwrap();
        drop(recovered);
        let recovered = IndoorService::open(dir).expect("second recover");
        assert_same_answers(&recovered, &reference, id, &f, seed, "recovered twice");
    }
}

/// A durability directory has exactly one live writer: a second `open`
/// fails loudly instead of interleaving WAL appends, and dropping the
/// owner releases the lock (it is advisory, so a crash cannot leave it
/// stale).
#[test]
fn second_open_of_locked_directory_fails() {
    let guard = scratch_dir("lock");
    let dir = &guard.0;
    let first = IndoorService::open(dir).unwrap();
    match IndoorService::open(dir) {
        Err(e) => assert!(
            e.to_string().contains("locked by another live service"),
            "unexpected error: {e}"
        ),
        Ok(_) => panic!("second open of a live durability directory must fail"),
    }
    drop(first);
    IndoorService::open(dir).expect("lock released on drop");
}

/// A torn final record — a crash mid-append — is truncated and recovery
/// succeeds with exactly the acknowledged prefix before it.
#[test]
fn torn_tail_is_truncated_and_recovery_succeeds() {
    let guard = scratch_dir("torn");
    let dir = &guard.0;
    let f = Fixture::new(Arc::new(presets::melbourne_central().build()), 11);

    let durable = IndoorService::open(dir).unwrap();
    let reference = IndoorService::new();
    let id = durable.add_venue(f.venue.clone(), f.config()).unwrap();
    reference.add_venue(f.venue.clone(), f.config()).unwrap();

    let batches: [Vec<ObjectDelta>; 3] = [
        vec![ObjectDelta::Move {
            id: ObjectId(0),
            to: f.pool[0],
        }],
        vec![
            ObjectDelta::Remove { id: ObjectId(1) },
            ObjectDelta::Insert {
                id: ObjectId(20),
                at: f.pool[1],
            },
        ],
        vec![ObjectDelta::Move {
            id: ObjectId(2),
            to: f.pool[2],
        }],
    ];
    for batch in &batches {
        durable.update_objects(id, batch).unwrap();
    }
    // The reference applies all but the final batch — the one about to be
    // torn off the log.
    reference.update_objects(id, &batches[0]).unwrap();
    reference.update_objects(id, &batches[1]).unwrap();
    drop(durable);

    // Tear the last record mid-frame: chop a few bytes off the log tail.
    let wal = dir.join("venue-0.wal");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();

    let (recovered, report) = IndoorService::open_with_report(dir).expect("recover torn log");
    assert_eq!(report.truncated_tails, 1, "torn tail must be truncated");
    assert_eq!(report.venues, 1);
    assert_same_answers(&recovered, &reference, id, &f, 11, "torn tail");

    // The truncation is physical: reopening again finds a clean log.
    drop(recovered);
    let (_, report) = IndoorService::open_with_report(dir).unwrap();
    assert_eq!(report.truncated_tails, 0, "repair persisted");
}

/// A crash between creating a WAL file and writing its magic header (a
/// venue registration that was never acknowledged) must not brick the
/// service: the torn header is repaired like a torn tail.
#[test]
fn torn_wal_header_is_repaired_not_fatal() {
    let guard = scratch_dir("torn-header");
    let dir = &guard.0;
    let f = Fixture::new(Arc::new(random_venue(13)), 13);

    let durable = IndoorService::open(dir).unwrap();
    let id = durable.add_venue(f.venue.clone(), f.config()).unwrap();
    drop(durable);

    // Simulate the crash window of a second add_venue: the file exists
    // but holds fewer bytes than the 8-byte magic.
    std::fs::write(dir.join("venue-1.wal"), b"VIP").unwrap();

    let (recovered, report) = IndoorService::open_with_report(dir).expect("repairable header");
    assert_eq!(report.truncated_tails, 1);
    assert_eq!(recovered.venues(), vec![id], "torn venue never existed");
    // The burned slot is not reused.
    let id_b = recovered
        .add_venue(
            f.venue.clone(),
            ShardConfig {
                threads: 1,
                ..ShardConfig::default()
            },
        )
        .unwrap();
    assert_eq!(id_b.index(), 2);
}

/// Crash window between a snapshot's rename and its deletion of a
/// removed venue's WAL: the snapshot records the slot as empty while the
/// log (Deltas … Remove, Create already rotated away) still exists. The
/// leftover mutations are moot, not corruption.
#[test]
fn crash_between_snapshot_rename_and_wal_deletion_recovers() {
    let guard = scratch_dir("crash-window");
    let dir = &guard.0;
    let f = Fixture::new(Arc::new(random_venue(23)), 23);

    let durable = IndoorService::open(dir).unwrap();
    let id = durable.add_venue(f.venue.clone(), f.config()).unwrap();
    durable.save_snapshot(dir).unwrap(); // rotation drops the Create record
    durable
        .update_objects(
            id,
            &[ObjectDelta::Move {
                id: ObjectId(0),
                to: f.pool[0],
            }],
        )
        .unwrap();
    durable.remove_venue(id).unwrap();
    let wal = dir.join("venue-0.wal");
    let orphan_log = std::fs::read(&wal).unwrap();
    durable.save_snapshot(dir).unwrap(); // records slot empty, deletes log
    drop(durable);
    // Simulate the crash: the deletion "never happened".
    std::fs::write(&wal, &orphan_log).unwrap();

    let (recovered, report) = IndoorService::open_with_report(dir).expect("window recoverable");
    assert_eq!(report.venues, 0);
    assert!(recovered.venues().is_empty());
}

/// Snapshotting rotates the WAL (covered records dropped) and preserves
/// recovery exactly; removals survive restarts and ids are never reused.
#[test]
fn snapshot_rotates_wal_and_removal_survives_restart() {
    let guard = scratch_dir("rotate");
    let dir = &guard.0;
    let f = Fixture::new(Arc::new(random_venue(7)), 7);

    let durable = IndoorService::open(dir).unwrap();
    let id_a = durable.add_venue(f.venue.clone(), f.config()).unwrap();
    let id_b = durable
        .add_venue(
            f.venue.clone(),
            ShardConfig {
                threads: 1,
                ..ShardConfig::default()
            },
        )
        .unwrap();
    durable
        .update_objects(
            id_a,
            &[ObjectDelta::Move {
                id: ObjectId(0),
                to: f.pool[0],
            }],
        )
        .unwrap();
    durable.remove_venue(id_b).unwrap();

    // Rotation drops the records the snapshot covers: venue A's Create +
    // one delta; venue B's log is deleted outright (slot empty in the
    // snapshot).
    let report = durable.save_snapshot(dir).unwrap();
    assert_eq!(report.venues, 1);
    assert_eq!(report.wal_records_dropped, 2);
    assert!(
        !dir.join("venue-1.wal").exists(),
        "removed venue log deleted"
    );

    // Post-snapshot churn lands in the rotated log and replays on open.
    durable
        .update_objects(
            id_a,
            &[ObjectDelta::Move {
                id: ObjectId(1),
                to: f.pool[1],
            }],
        )
        .unwrap();
    assert_eq!(durable.version(id_a).unwrap(), 2);
    drop(durable);

    let recovered = IndoorService::open(dir).unwrap();
    assert_eq!(recovered.venues(), vec![id_a], "removal survived restart");
    assert_eq!(recovered.version(id_a).unwrap(), 2);
    assert_eq!(
        recovered.execute(id_a, &QueryRequest::Knn { q: f.pool[3], k: 2 }),
        Ok(recovered
            .engine(id_a)
            .unwrap()
            .execute(&QueryRequest::Knn { q: f.pool[3], k: 2 })),
        "recovered shard serves"
    );
    // Ids burned by the removed venue are not reused after restart.
    let id_c = recovered
        .add_venue(
            f.venue.clone(),
            ShardConfig {
                threads: 1,
                ..ShardConfig::default()
            },
        )
        .unwrap();
    assert_ne!(id_c, id_b);
    assert_eq!(id_c.index(), 2);
}

/// A snapshot written by a volatile service is a portable export: opening
/// it elsewhere yields an equivalent durable service.
#[test]
fn volatile_service_snapshot_exports_and_opens() {
    let guard = scratch_dir("export");
    let dir = &guard.0;
    let f = Fixture::new(Arc::new(random_venue(19)), 19);

    let volatile = IndoorService::new();
    let id = volatile.add_venue(f.venue.clone(), f.config()).unwrap();
    volatile
        .update_objects(
            id,
            &[ObjectDelta::Insert {
                id: ObjectId(30),
                at: f.pool[5],
            }],
        )
        .unwrap();
    let report = volatile.save_snapshot(dir).unwrap();
    assert_eq!(report.venues, 1);
    assert_eq!(report.wal_records_dropped, 0, "no WAL to rotate");

    let opened = IndoorService::open(dir).unwrap();
    assert_same_answers(&opened, &volatile, id, &f, 19, "exported snapshot");
    assert_eq!(opened.persist_root(), Some(dir.as_path()));
}

/// The history behind `tests/data/crc_bytewise/` (see its README): a
/// venue, three rounds of plain + keyword churn, a snapshot (which
/// rotates the log), three more rounds that stay in the WAL. Any service
/// can be driven through it, so the checked-in directory and a
/// never-restarted reference see identical operations.
fn checked_in_history(svc: &IndoorService, f: &Fixture, snapshot_dir: Option<&std::path::Path>) {
    let id = svc.add_venue(f.venue.clone(), f.config()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC4C);
    let mut objects = LiveSet::seeded(f.objects.len());
    let mut kw_objects = LiveSet::seeded(f.keywords.len());
    for round in 0..6 {
        if let (3, Some(dir)) = (round, snapshot_dir) {
            svc.save_snapshot(dir).expect("snapshot");
        }
        let deltas: Vec<ObjectDelta> = objects
            .random_batch(&f.pool, &mut rng)
            .into_iter()
            .map(|u| u.delta)
            .collect();
        svc.update_objects(id, &deltas).unwrap();
        let updates = kw_objects.random_batch(&f.pool, &mut rng);
        svc.update_keyword_objects(id, &updates).unwrap();
    }
}

/// The checksum implementation changed (bytewise → slice-by-8); the
/// format did not. A snapshot and a WAL written by the commit *before*
/// that change — every section and record framed by the old code — must
/// still verify, load and replay to the same answers.
#[test]
fn files_framed_by_the_bytewise_crc_still_open_and_replay() {
    let f = Fixture::new(Arc::new(random_venue(14)), 14);
    let guard = scratch_dir("crc-fixture");
    let dir = &guard.0;
    // Recovery locks and may repair the directory: work on a copy.
    let checked_in =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/crc_bytewise");
    for name in ["snapshot.bin", "venue-0.wal"] {
        std::fs::copy(checked_in.join(name), dir.join(name)).expect("copy fixture file");
    }
    let (recovered, report) = IndoorService::open_with_report(dir).expect("open old files");
    assert!(report.snapshot_loaded);
    assert_eq!(report.venues, 1);
    assert_eq!(report.replayed_records, 6, "three rounds of two batches");
    assert_eq!(report.truncated_tails, 0, "every old record's CRC verifies");

    let reference = IndoorService::new();
    checked_in_history(&reference, &f, None);
    assert_same_answers(
        &recovered,
        &reference,
        VenueId::from(0usize),
        &f,
        14,
        "old files",
    );
}

/// Venue 0 of `tests/data/shard_lifecycle/` (see its README): every field
/// of the config head away from its default, so a `Create` record that
/// dropped or reordered one would rebuild a visibly different shard.
fn shard_lifecycle_config(f: &Fixture) -> ShardConfig {
    ShardConfig {
        tree: VipTreeConfig {
            min_degree: 3,
            use_superior_doors: false,
            threads: 2,
        },
        threads: 2,
        objects: f.objects.clone(),
        keywords: f.keywords.clone(),
        cache_capacity: 96,
        admission: AdmissionConfig {
            max_in_flight: 8,
            policy: OverloadPolicy::Block {
                timeout: std::time::Duration::from_millis(250),
            },
        },
        sync: SyncPolicy::EveryN { n: 3 },
    }
}

/// The history behind `tests/data/shard_lifecycle/`: venue 0 lives its
/// whole life in the log (`Create`, four rounds of plain + keyword churn,
/// one wholesale `Attach`, never a snapshot); venue 1 is created and
/// removed, so its log ends in `Remove`.
fn shard_lifecycle_history(svc: &IndoorService, f: &Fixture) {
    let id = svc
        .add_venue(f.venue.clone(), shard_lifecycle_config(f))
        .unwrap();
    let doomed = svc
        .add_venue(
            f.venue.clone(),
            ShardConfig {
                threads: 1,
                ..ShardConfig::default()
            },
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(0x5AD);
    let mut objects = LiveSet::seeded(f.objects.len());
    let mut kw_objects = LiveSet::seeded(f.keywords.len());
    for round in 0..4 {
        let deltas: Vec<ObjectDelta> = objects
            .random_batch(&f.pool, &mut rng)
            .into_iter()
            .map(|u| u.delta)
            .collect();
        svc.update_objects(id, &deltas).unwrap();
        let updates = kw_objects.random_batch(&f.pool, &mut rng);
        svc.update_keyword_objects(id, &updates).unwrap();
        if round == 1 {
            let fresh = workload::place_objects(&f.venue, 12, 0x5AD);
            svc.attach_objects(id, &fresh).unwrap();
            objects = LiveSet::seeded(fresh.len());
        }
    }
    svc.remove_venue(doomed).unwrap();
}

/// The shard lifecycle was rewritten around one builder, one `apply` and
/// one config codec; the files were not. Two logs and a wire-encoded
/// config written by the commit *before* that rewrite must rebuild the
/// same shard, replay to the same answers and re-encode to the same bytes.
#[test]
fn logs_written_before_the_lifecycle_merge_replay_to_the_same_shard() {
    let f = Fixture::new(Arc::new(random_venue(19)), 19);
    let guard = scratch_dir("lifecycle-fixture");
    let dir = &guard.0;
    let checked_in =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/shard_lifecycle");
    for name in ["venue-0.wal", "venue-1.wal"] {
        std::fs::copy(checked_in.join(name), dir.join(name)).expect("copy fixture file");
    }
    let (recovered, report) = IndoorService::open_with_report(dir).expect("open old logs");
    assert!(!report.snapshot_loaded);
    assert_eq!(report.venues, 1, "venue 1 ends removed");
    assert_eq!(
        report.replayed_records, 11,
        "venue 0: Create + 4 delta + 4 keyword + 1 attach; venue 1: its Remove"
    );
    assert_eq!(report.truncated_tails, 0);

    let reference = IndoorService::new();
    shard_lifecycle_history(&reference, &f);
    let id = VenueId::from(0usize);
    assert_same_answers(&recovered, &reference, id, &f, 19, "old logs");
    // The config head came back out of the `Create` record whole.
    let stats = recovered.venue_stats(id).unwrap();
    assert_eq!((stats.cache_capacity, stats.admission_capacity), (96, 8));
    assert_eq!(recovered.engine(id).unwrap().threads(), 2);
    assert_eq!(recovered.venues(), vec![id], "slot 1 stays burned");

    // And the live path still writes those bytes: the same history on a
    // fresh durable service journals byte-identical logs.
    let rewrite = scratch_dir("lifecycle-rewrite");
    let durable = IndoorService::open(&rewrite.0).unwrap();
    shard_lifecycle_history(&durable, &f);
    drop(durable);
    for name in ["venue-0.wal", "venue-1.wal"] {
        assert!(
            std::fs::read(rewrite.0.join(name)).unwrap()
                == std::fs::read(checked_in.join(name)).unwrap(),
            "{name}: today's log differs from the one written before the merge"
        );
    }

    // The same config as `AddVenue` frames carry it, byte for byte.
    let on_wire = std::fs::read(checked_in.join("add_venue_config.bin")).unwrap();
    assert_eq!(shard_lifecycle_config(&f).encode_wire(), on_wire);
    let decoded = ShardConfig::decode_wire(&on_wire).expect("decode old config");
    assert_eq!(decoded.encode_wire(), on_wire);
}

/// Shorthand: a durable service on an in-memory fault-injected disk.
fn open_faulted(
    storage: &FaultStorage,
    dir: &std::path::Path,
) -> Result<IndoorService, PersistError> {
    let shared: Arc<dyn Storage> = Arc::new(storage.clone());
    IndoorService::open_with_storage(dir, shared).map(|(s, _)| s)
}

fn move_delta(f: &Fixture, slot: usize) -> [ObjectDelta; 1] {
    [ObjectDelta::Move {
        id: ObjectId(0),
        to: f.pool[slot],
    }]
}

/// ENOSPC in the middle of WAL rotation: the snapshot file itself landed,
/// but the rotated log could not be written. The old log stays the source
/// of truth — the shard keeps accepting (and journalling) mutations, and
/// a restart recovers the full history.
#[test]
fn enospc_mid_rotation_keeps_old_wal_authoritative() {
    let dir = PathBuf::from("/enospc-rotation");
    let f = Fixture::new(Arc::new(random_venue(31)), 31);
    let storage = FaultStorage::new();

    let durable = open_faulted(&storage, &dir).unwrap();
    let id = durable.add_venue(f.venue.clone(), f.config()).unwrap();
    durable.update_objects(id, &move_delta(&f, 0)).unwrap();

    // The disk fills exactly when rotation writes the replacement log.
    storage.set_fault(
        FaultAt::PathContains("venue-0.wal.tmp".into()),
        FaultKind::Enospc { keep: 0 },
    );
    let err = durable.save_snapshot(&dir).unwrap_err();
    assert!(
        matches!(err, PersistError::Io { .. }),
        "typed I/O error: {err}"
    );
    assert!(!storage.crashed(), "ENOSPC is an error, not a crash");

    // Rotation failed on the safe side of the rename: the append handle
    // is still valid and the shard is NOT degraded.
    assert_eq!(durable.degraded(id), Ok(None));
    assert_eq!(durable.version(id), Ok(1));
    durable.update_objects(id, &move_delta(&f, 1)).unwrap();
    assert_eq!(durable.version(id), Ok(2));
    drop(durable);

    // Restart: whichever of {fresh snapshot + suffix, old log} recovery
    // stitches together, the history must be complete.
    let recovered = open_faulted(&storage, &dir).unwrap();
    let reference = IndoorService::new();
    let ref_id = reference.add_venue(f.venue.clone(), f.config()).unwrap();
    reference
        .update_objects(ref_id, &move_delta(&f, 0))
        .unwrap();
    reference
        .update_objects(ref_id, &move_delta(&f, 1))
        .unwrap();
    assert_same_answers(&recovered, &reference, id, &f, 31, "enospc rotation");
}

/// Double fault: recovery of an already-damaged log is itself interrupted.
/// The first open must fail with a typed error (never a panic or a
/// silently half-repaired service); a clean retry then succeeds.
#[test]
fn fault_during_recovery_of_torn_log_rejects_then_recovers() {
    let dir = PathBuf::from("/double-fault");
    let f = Fixture::new(Arc::new(random_venue(37)), 37);
    let storage = FaultStorage::new();

    let durable = open_faulted(&storage, &dir).unwrap();
    let id = durable.add_venue(f.venue.clone(), f.config()).unwrap();
    durable.update_objects(id, &move_delta(&f, 2)).unwrap();
    drop(durable);

    // Fault one: a torn append — a frame header promising more bytes
    // than the file holds.
    let wal = dir.join("venue-0.wal");
    let mut bytes = Storage::read(&storage, &wal).unwrap();
    bytes.extend_from_slice(&[0xFF; 12]);
    Storage::write(&storage, &wal, &bytes).unwrap();

    // Fault two: the disk fills when recovery truncates the torn tail.
    storage.set_fault(
        FaultAt::PathContains("venue-0.wal".into()),
        FaultKind::Enospc { keep: 0 },
    );
    let err = open_faulted(&storage, &dir).unwrap_err();
    assert!(
        matches!(err, PersistError::Io { .. }),
        "typed reject: {err}"
    );

    // The one-shot fault is consumed; the retry repairs and recovers.
    let recovered = open_faulted(&storage, &dir).unwrap();
    assert_eq!(recovered.version(id), Ok(1));
    let reference = IndoorService::new();
    let ref_id = reference.add_venue(f.venue.clone(), f.config()).unwrap();
    reference
        .update_objects(ref_id, &move_delta(&f, 2))
        .unwrap();
    assert_same_answers(&recovered, &reference, id, &f, 37, "double fault");
}

/// Power loss between the snapshot's rename and the parent-directory
/// fsync: the rename is not yet durable, so the machine comes back with
/// the PREVIOUS snapshot — a consistent old state, never a mix. (This is
/// the window the post-rename `sync_dir` closes; the test pins the
/// failure semantics when power dies inside it.)
#[test]
fn power_loss_between_snapshot_rename_and_dir_sync_restores_old_state() {
    let dir = PathBuf::from("/rename-window");
    let f = Fixture::new(Arc::new(random_venue(41)), 41);
    let storage = FaultStorage::new();

    let durable = open_faulted(&storage, &dir).unwrap();
    let id = durable.add_venue(f.venue.clone(), f.config()).unwrap();
    durable.update_objects(id, &move_delta(&f, 3)).unwrap();
    durable.save_snapshot(&dir).unwrap(); // snapshot #1: fully durable at v1
    durable.update_objects(id, &move_delta(&f, 4)).unwrap();

    // Snapshot #2's rename completes, then power dies before sync_dir.
    storage.set_fault(
        FaultAt::PathContains("snapshot.bin".into()),
        FaultKind::CrashAfter,
    );
    durable.save_snapshot(&dir).unwrap_err();
    assert!(storage.crashed());
    storage.crash(CrashMode::Power);
    drop(durable);

    // The volatile rename (and the unsynced v2 append) evaporated: the
    // machine is back on snapshot #1, exactly version 1.
    let recovered = open_faulted(&storage, &dir).unwrap();
    assert_eq!(recovered.version(id), Ok(1));
    let reference = IndoorService::new();
    let ref_id = reference.add_venue(f.venue.clone(), f.config()).unwrap();
    reference
        .update_objects(ref_id, &move_delta(&f, 3))
        .unwrap();
    assert_same_answers(&recovered, &reference, id, &f, 41, "rename window");
}

// ---------------------------------------------------------------------------
// SyncPolicy: ack-durability under power loss
// ---------------------------------------------------------------------------

/// Build the fixture's config with an explicit ack-durability policy.
fn config_with_sync(f: &Fixture, sync: SyncPolicy) -> ShardConfig {
    ShardConfig { sync, ..f.config() }
}

/// A reference service fed the first `n` `move_delta` batches, for
/// byte-identical comparison against a power-crash survivor.
fn reference_after(f: &Fixture, n: usize) -> (IndoorService, VenueId) {
    let reference = IndoorService::new();
    let id = reference.add_venue(f.venue.clone(), f.config()).unwrap();
    for slot in 0..n {
        reference.update_objects(id, &move_delta(f, slot)).unwrap();
    }
    (reference, id)
}

/// `SyncPolicy::PerAppend`: every acknowledged mutation is fsynced before
/// the ack, so power loss immediately after the last ack loses NOTHING —
/// the machine comes back at exactly the acked version, byte-identical.
#[test]
fn per_append_sync_makes_every_acked_write_power_durable() {
    let dir = PathBuf::from("/sync-per-append");
    let f = Fixture::new(Arc::new(random_venue(43)), 43);
    let storage = FaultStorage::new();

    let durable = open_faulted(&storage, &dir).unwrap();
    let id = durable
        .add_venue(f.venue.clone(), config_with_sync(&f, SyncPolicy::PerAppend))
        .unwrap();
    for slot in 0..4 {
        durable.update_objects(id, &move_delta(&f, slot)).unwrap();
    }
    assert_eq!(durable.version(id), Ok(4));

    // Power dies the instant after the fourth ack. No snapshot was ever
    // taken: durability rests entirely on the fsynced log.
    storage.crash(CrashMode::Power);
    drop(durable);

    let recovered = open_faulted(&storage, &dir).unwrap();
    assert_eq!(recovered.version(id), Ok(4), "acked writes must survive");
    let (reference, ref_id) = reference_after(&f, 4);
    assert_eq!(id, ref_id);
    assert_same_answers(&recovered, &reference, id, &f, 43, "per-append");
}

/// `SyncPolicy::Never` (the default): appends are acknowledged from the
/// page cache, so power loss rolls back to the last explicitly durable
/// point — here the snapshot — losing the acked-but-unsynced suffix as a
/// unit. The recovered state is consistent (old), never mixed.
#[test]
fn never_sync_power_loss_falls_back_to_last_snapshot() {
    let dir = PathBuf::from("/sync-never");
    let f = Fixture::new(Arc::new(random_venue(47)), 47);
    let storage = FaultStorage::new();

    let durable = open_faulted(&storage, &dir).unwrap();
    let id = durable
        .add_venue(f.venue.clone(), config_with_sync(&f, SyncPolicy::Never))
        .unwrap();
    durable.update_objects(id, &move_delta(&f, 0)).unwrap();
    durable.update_objects(id, &move_delta(&f, 1)).unwrap();
    durable.save_snapshot(&dir).unwrap(); // durable point: version 2
    durable.update_objects(id, &move_delta(&f, 2)).unwrap();
    durable.update_objects(id, &move_delta(&f, 3)).unwrap();
    assert_eq!(durable.version(id), Ok(4));

    storage.crash(CrashMode::Power);
    drop(durable);

    // v3 and v4 were acked from the page cache only; they evaporate.
    let recovered = open_faulted(&storage, &dir).unwrap();
    assert_eq!(recovered.version(id), Ok(2), "falls back to the snapshot");
    let (reference, _) = reference_after(&f, 2);
    assert_same_answers(&recovered, &reference, id, &f, 47, "never-sync");
}

/// `SyncPolicy::EveryN { n }`: the fsync is amortised over n appends, so
/// power loss is bounded to at most n−1 acknowledged records past the
/// last sync — and the survivor is a clean prefix, byte-identical to a
/// reference that stopped at the same version.
#[test]
fn every_n_sync_bounds_power_loss_to_n_minus_one_acks() {
    let dir = PathBuf::from("/sync-every-n");
    let f = Fixture::new(Arc::new(random_venue(53)), 53);
    let storage = FaultStorage::new();

    let durable = open_faulted(&storage, &dir).unwrap();
    let id = durable
        .add_venue(
            f.venue.clone(),
            config_with_sync(&f, SyncPolicy::EveryN { n: 2 }),
        )
        .unwrap();
    // Appends: Create (count 1), v1 (count 2 → fsync), v2 (1), v3 (2 →
    // fsync), v4 (1), v5 (2 → fsync), v6 (1, volatile).
    for slot in 0..6 {
        durable.update_objects(id, &move_delta(&f, slot)).unwrap();
    }
    assert_eq!(durable.version(id), Ok(6));

    storage.crash(CrashMode::Power);
    drop(durable);

    // Exactly one acked record (v6) sat past the last fsync: loss ≤ n−1.
    let recovered = open_faulted(&storage, &dir).unwrap();
    assert_eq!(recovered.version(id), Ok(5), "at most n-1 acks lost");
    let (reference, _) = reference_after(&f, 5);
    assert_same_answers(&recovered, &reference, id, &f, 53, "every-n");
}

/// `SyncPolicy::GroupCommit { max_delay: 0 }` degenerates to per-append
/// fsync (the deadline is always already due), so every ack survives
/// power loss — the deterministic end of the group-commit spectrum.
#[test]
fn group_commit_zero_delay_degenerates_to_per_append() {
    let dir = PathBuf::from("/sync-group-zero");
    let f = Fixture::new(Arc::new(random_venue(59)), 59);
    let storage = FaultStorage::new();

    let durable = open_faulted(&storage, &dir).unwrap();
    let id = durable
        .add_venue(
            f.venue.clone(),
            config_with_sync(
                &f,
                SyncPolicy::GroupCommit {
                    max_delay: std::time::Duration::ZERO,
                },
            ),
        )
        .unwrap();
    for slot in 0..3 {
        durable.update_objects(id, &move_delta(&f, slot)).unwrap();
    }

    storage.crash(CrashMode::Power);
    drop(durable);

    let recovered = open_faulted(&storage, &dir).unwrap();
    assert_eq!(recovered.version(id), Ok(3));
    let (reference, _) = reference_after(&f, 3);
    assert_same_answers(&recovered, &reference, id, &f, 59, "group-commit-0");
}

/// The policy is part of the persisted shard state: a restart recovered
/// from the WAL `Create` record (no snapshot) must come back ENFORCING
/// `PerAppend` — proven behaviourally by a post-restart ack surviving a
/// power cut, which `Never` (the default a lost policy would decay to)
/// deterministically fails under `FaultStorage`.
#[test]
fn sync_policy_survives_restart_via_wal_create_record() {
    let dir = PathBuf::from("/sync-restart-wal");
    let f = Fixture::new(Arc::new(random_venue(61)), 61);
    let storage = FaultStorage::new();

    let durable = open_faulted(&storage, &dir).unwrap();
    let id = durable
        .add_venue(f.venue.clone(), config_with_sync(&f, SyncPolicy::PerAppend))
        .unwrap();
    durable.update_objects(id, &move_delta(&f, 0)).unwrap();
    drop(durable); // clean process exit: page cache survives

    // Restart #1 replays Create + v1 from the log and must re-arm the
    // policy carried by the Create record.
    let reopened = open_faulted(&storage, &dir).unwrap();
    assert_eq!(reopened.version(id), Ok(1));
    reopened.update_objects(id, &move_delta(&f, 1)).unwrap();

    storage.crash(CrashMode::Power);
    drop(reopened);

    // v2 was acked after the restart; only a restored PerAppend policy
    // makes it power-durable.
    let recovered = open_faulted(&storage, &dir).unwrap();
    assert_eq!(
        recovered.version(id),
        Ok(2),
        "policy from the WAL Create record must survive restart"
    );
    let (reference, _) = reference_after(&f, 2);
    assert_same_answers(&recovered, &reference, id, &f, 61, "restart-wal");
}

/// Same property through the snapshot path: the policy rides in the
/// snapshot's slot state, and a service recovered from snapshot (WAL
/// rotated, Create record gone) still fsyncs per append.
#[test]
fn sync_policy_survives_restart_via_snapshot_state() {
    let dir = PathBuf::from("/sync-restart-snap");
    let f = Fixture::new(Arc::new(random_venue(67)), 67);
    let storage = FaultStorage::new();

    let durable = open_faulted(&storage, &dir).unwrap();
    let id = durable
        .add_venue(f.venue.clone(), config_with_sync(&f, SyncPolicy::PerAppend))
        .unwrap();
    durable.update_objects(id, &move_delta(&f, 0)).unwrap();
    let report = durable.save_snapshot(&dir).unwrap();
    assert!(
        report.wal_records_dropped > 0,
        "rotation dropped the prefix"
    );
    drop(durable);

    let reopened = open_faulted(&storage, &dir).unwrap();
    reopened.update_objects(id, &move_delta(&f, 1)).unwrap();

    storage.crash(CrashMode::Power);
    drop(reopened);

    let recovered = open_faulted(&storage, &dir).unwrap();
    assert_eq!(
        recovered.version(id),
        Ok(2),
        "policy from the snapshot slot state must survive restart"
    );
    let (reference, _) = reference_after(&f, 2);
    assert_same_answers(&recovered, &reference, id, &f, 67, "restart-snap");
}
