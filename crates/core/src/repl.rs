//! WAL-shipping replication: leader-side log subscriptions and
//! follower-side record apply.
//!
//! The durability subsystem already makes every acknowledged mutation a
//! CRC-framed WAL record whose **LSN is the shard's version counter**
//! (see `persist::wal`). Replication is therefore not a new log — it is
//! the same log, shipped: a follower that has applied through version
//! `v` needs exactly the records with `LSN > v`, which is a suffix fetch
//! of the leader's per-venue WAL plus a tail of live appends.
//!
//! # Leader side
//!
//! [`IndoorService::wal_subscribe`] runs entirely under the venue's
//! journal lock: it reads the on-disk suffix (`LSN >= from_lsn`, as raw
//! already-CRC-valid payload bytes — shipped verbatim, never
//! re-encoded), registers a live tap, and captures the current version —
//! one atomic cut of the log. Because every `journal_append` publishes
//! to the taps *under the same lock*, the backlog and the live stream
//! compose with **no gap and no duplicate**: the first live record is
//! always `backlog.last().lsn + 1`.
//!
//! A suffix that has been rotated away (snapshotting drops records the
//! snapshot covers), a volatile venue, or a `from_lsn` ahead of the
//! leader all fail with the typed [`ServiceError::Replication`] — the
//! follower must bootstrap from a snapshot instead.
//!
//! # Follower side
//!
//! [`IndoorService::apply_replicated`] decodes one shipped payload and
//! hands it to **the function the leader ran and recovery replays** —
//! `Shard::build` for a `Create`, `Shard::apply` at the record's own LSN
//! for a mutation — so the replica's answers are byte-identical to the
//! leader's for every query kind (the same equivalence contract
//! `tests/persistence.rs` proves for restart). Records must arrive
//! contiguously (`LSN == version + 1`); a gap is a typed error, never a
//! silent skip.
//! Followers are volatile by construction: a durable follower would
//! re-journal shipped records under its own LSNs and is refused.
//!
//! Lag accounting: each applied record (and each
//! [`IndoorService::note_leader_version`] report from the stream head)
//! advances the shard's `leader_version` high-water mark;
//! `venue_stats().replication_lag` is `leader_version - version`,
//! reaching 0 when the follower has caught up.

use crate::persist::wal::{self, WalRecord, LSN_REMOVE};
use crate::persist::{rebuild, PersistError};
use crate::service::{IndoorService, Lsn, Seed, ServiceError};
use indoor_model::VenueId;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};

/// One shipped WAL record: `(lsn, payload)`, the frame payload exactly
/// as journalled.
pub type WalEntry = (u64, Arc<[u8]>);

/// One venue's replication stream, cut atomically at subscribe time.
///
/// Records are `(lsn, payload)` pairs where `payload` is the WAL
/// record's frame payload exactly as journalled (decode with the
/// follower's [`IndoorService::apply_replicated`]). Dropping [`live`]'s
/// receiver unsubscribes: the leader prunes closed taps on its next
/// append.
///
/// [`live`]: WalSubscription::live
#[derive(Debug)]
pub struct WalSubscription {
    /// The venue this stream replicates.
    pub venue: VenueId,
    /// The leader's version at subscribe time — the catch-up target: a
    /// follower that applies the whole backlog reaches exactly this
    /// version, and every live record continues from it.
    pub version: u64,
    /// On-disk records with `LSN >= from_lsn`, in log order, verified
    /// contiguous through [`version`](WalSubscription::version).
    pub backlog: Vec<WalEntry>,
    /// Every append after the cut, in log order.
    pub live: mpsc::Receiver<WalEntry>,
}

fn repl_err(venue: VenueId, detail: impl Into<String>) -> ServiceError {
    ServiceError::Replication(venue, Arc::from(detail.into()))
}

impl IndoorService {
    /// Subscribe to a venue's WAL from `from_lsn` (the first LSN the
    /// follower still needs: `0` replays the venue from its `Create`
    /// record, `v + 1` resumes a follower already at version `v`).
    ///
    /// Fails with [`ServiceError::Replication`] when the venue is
    /// volatile (nothing is journalled), when the requested suffix was
    /// rotated away by a snapshot (bootstrap from the snapshot instead),
    /// or when `from_lsn` is ahead of the leader; with
    /// [`ServiceError::Degraded`] when the venue's journal can no longer
    /// be trusted.
    pub fn wal_subscribe(
        &self,
        venue: VenueId,
        from_lsn: u64,
    ) -> Result<WalSubscription, ServiceError> {
        let shard = self.shard(venue)?;
        // The journal lock is the cut: version read, suffix read and tap
        // registration all happen under it, so the backlog ends exactly
        // where the live stream begins.
        let journal = shard.journal.lock().expect("journal lock");
        shard.ensure_writable(venue)?;
        if journal.is_none() {
            return Err(repl_err(
                venue,
                "venue is volatile — only durable services serve replication streams",
            ));
        }
        let root = self
            .persist_root
            .as_ref()
            .expect("journalled shard implies persist root");
        let version = shard.version();
        let path = wal::wal_path(root, venue.index());
        let backlog = wal::read_raw_suffix(&self.storage, &path, from_lsn)
            .map_err(|e| ServiceError::Persist(venue, Arc::new(e)))?;

        // Contiguity proof: the kept records must cover from_lsn ..=
        // version with no holes (a hole means rotation dropped part of
        // the requested suffix; an empty overhang means the follower is
        // ahead of this leader).
        let mut expected = from_lsn;
        for (lsn, _) in &backlog {
            if *lsn == LSN_REMOVE {
                continue; // a racing removal ships fine out of sequence
            }
            if *lsn != expected {
                return Err(repl_err(
                    venue,
                    format!(
                        "WAL suffix from LSN {from_lsn} unavailable: next on disk is \
                         {lsn}, expected {expected} (rotated away — bootstrap from a snapshot)"
                    ),
                ));
            }
            expected += 1;
        }
        if expected != version + 1 {
            return Err(repl_err(
                venue,
                format!(
                    "WAL suffix from LSN {from_lsn} unavailable: log covers through \
                     {}, leader version is {version}",
                    expected.wrapping_sub(1)
                ),
            ));
        }

        let (tx, rx) = mpsc::channel();
        shard.repl_taps.lock().expect("repl taps lock").push(tx);
        drop(journal);
        Ok(WalSubscription {
            venue,
            version,
            backlog,
            live: rx,
        })
    }

    /// Record the leader's version as reported by a replication stream
    /// head, so [`ShardStats::replication_lag`] is meaningful before the
    /// first record lands. Monotonic (a stale report never regresses it).
    ///
    /// [`ShardStats::replication_lag`]: crate::ShardStats::replication_lag
    pub fn note_leader_version(&self, venue: VenueId, version: u64) -> Result<(), ServiceError> {
        let shard = self.shard(venue)?;
        shard.leader_version.fetch_max(version, Ordering::AcqRel);
        Ok(())
    }

    /// Apply one shipped WAL record to this (follower) service,
    /// returning the venue's version after the apply.
    ///
    /// `payload` is a record exactly as the leader journalled it (a
    /// [`WalSubscription`] backlog/live element). `Create` registers the
    /// replica under the **leader's venue id** — follower slot indices
    /// mirror the leader's, holes and all; mutations must extend the
    /// replica contiguously (`LSN == version + 1`) or fail with
    /// [`ServiceError::Replication`] leaving the replica untouched.
    ///
    /// Only volatile services may apply: a durable follower would
    /// re-journal shipped records under its own LSNs, silently forking
    /// the history. Such calls are refused.
    pub fn apply_replicated(&self, venue: VenueId, payload: &[u8]) -> Result<u64, ServiceError> {
        if self.persist_root.is_some() {
            return Err(repl_err(
                venue,
                "followers must be volatile (a durable follower would re-journal \
                 shipped records under its own LSNs)",
            ));
        }
        let entry = wal::decode_record(payload)
            .map_err(|e| repl_err(venue, format!("undecodable replicated record: {e}")))?;
        match entry.record {
            WalRecord::Create { config, venue_json } => {
                let seed = Seed::positional(&config);
                let shard = rebuild(&venue_json, &config, seed, Path::new("<replicated>"))
                    .map_err(|e| match e {
                        PersistError::Build(b) => ServiceError::Build(b),
                        other => repl_err(venue, format!("replica rebuild failed: {other}")),
                    })?;
                let mut shards = self.shards.write().expect("shard map lock");
                if shards.len() <= venue.index() {
                    shards.resize_with(venue.index() + 1, || None);
                }
                let slot = &mut shards[venue.index()];
                if slot.is_some() {
                    return Err(repl_err(venue, "Create for an already-registered venue"));
                }
                self.wire_telemetry(&shard, venue);
                *slot = Some(Arc::new(shard));
                Ok(0)
            }
            WalRecord::Remove => {
                let mut shards = self.shards.write().expect("shard map lock");
                match shards.get_mut(venue.index()) {
                    Some(slot @ Some(_)) => {
                        *slot = None;
                        self.registry
                            .remove_labeled("venue", &venue.index().to_string());
                        Ok(LSN_REMOVE)
                    }
                    _ => Err(repl_err(venue, "Remove for an absent venue")),
                }
            }
            WalRecord::Mutation(mutation) => {
                let shard = self.shard(venue)?;
                let (lsn, _) = self.apply(&shard, venue, mutation, Lsn::Expected(entry.lsn))?;
                shard.leader_version.fetch_max(lsn, Ordering::AcqRel);
                Ok(lsn)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::storage::{FaultStorage, Storage};
    use crate::service::ShardConfig;
    use indoor_model::{ObjectDelta, ObjectId, QueryRequest};
    use indoor_synth::{random_venue, workload};
    use std::path::PathBuf;

    fn durable_leader() -> (IndoorService, FaultStorage) {
        let storage = FaultStorage::new();
        let shared: Arc<dyn Storage> = Arc::new(storage.clone());
        let (leader, _) =
            IndoorService::open_with_storage(PathBuf::from("/leader"), shared).unwrap();
        (leader, storage)
    }

    fn assert_replica_matches(
        leader: &IndoorService,
        follower: &IndoorService,
        id: VenueId,
        venue: &indoor_model::Venue,
        seed: u64,
    ) {
        assert_eq!(leader.version(id).unwrap(), follower.version(id).unwrap());
        for q in workload::query_points(venue, 3, seed) {
            let req = QueryRequest::Knn { q, k: 3 };
            assert_eq!(
                leader.execute(id, &req).unwrap(),
                follower.execute(id, &req).unwrap()
            );
        }
        for (s, t) in workload::query_pairs(venue, 2, seed ^ 1) {
            let req = QueryRequest::ShortestPath { s, t };
            assert_eq!(
                leader.execute(id, &req).unwrap(),
                follower.execute(id, &req).unwrap()
            );
        }
    }

    #[test]
    fn backlog_plus_live_tail_yields_byte_identical_replica() {
        let (leader, _storage) = durable_leader();
        let venue = Arc::new(random_venue(71));
        let objects = workload::place_objects(&venue, 12, 71);
        let id = leader
            .add_venue(
                venue.clone(),
                ShardConfig {
                    threads: 1,
                    objects: objects.clone(),
                    ..ShardConfig::default()
                },
            )
            .unwrap();
        leader
            .update_objects(
                id,
                &[ObjectDelta::Move {
                    id: ObjectId(0),
                    to: objects[1],
                }],
            )
            .unwrap();

        // Catch up from the very beginning: Create + one delta.
        let sub = leader.wal_subscribe(id, 0).unwrap();
        assert_eq!(sub.version, 1);
        assert_eq!(sub.backlog.len(), 2);

        let follower = IndoorService::new();
        follower.note_leader_version(id, sub.version).ok();
        for (_, payload) in &sub.backlog {
            follower.apply_replicated(id, payload).unwrap();
        }
        assert_replica_matches(&leader, &follower, id, &venue, 5);
        assert_eq!(follower.venue_stats(id).unwrap().replication_lag, 0);

        // Live tail: a mutation after the cut arrives over the tap with
        // no gap and no duplicate.
        leader
            .update_objects(
                id,
                &[ObjectDelta::Move {
                    id: ObjectId(0),
                    to: objects[2],
                }],
            )
            .unwrap();
        let (lsn, payload) = sub.live.try_recv().expect("live record published");
        assert_eq!(lsn, 2);
        assert_eq!(follower.apply_replicated(id, &payload).unwrap(), 2);
        assert_replica_matches(&leader, &follower, id, &venue, 6);
        assert_eq!(follower.venue_stats(id).unwrap().replication_lag, 0);
        // Leaders report no lag either.
        assert_eq!(leader.venue_stats(id).unwrap().replication_lag, 0);
    }

    #[test]
    fn subscribe_refuses_volatile_rotated_and_ahead() {
        // Volatile leader: nothing journalled to ship.
        let volatile = IndoorService::new();
        let venue = Arc::new(random_venue(73));
        let id = volatile
            .add_venue(
                venue.clone(),
                ShardConfig {
                    threads: 1,
                    ..ShardConfig::default()
                },
            )
            .unwrap();
        assert!(matches!(
            volatile.wal_subscribe(id, 0),
            Err(ServiceError::Replication(..))
        ));

        // Rotated-away suffix: the snapshot absorbed the Create record.
        let (leader, _storage) = durable_leader();
        let objects = workload::place_objects(&venue, 8, 73);
        let id = leader
            .add_venue(
                venue.clone(),
                ShardConfig {
                    threads: 1,
                    objects: objects.clone(),
                    ..ShardConfig::default()
                },
            )
            .unwrap();
        leader
            .update_objects(
                id,
                &[ObjectDelta::Move {
                    id: ObjectId(0),
                    to: objects[1],
                }],
            )
            .unwrap();
        leader.save_snapshot("/leader").unwrap();
        assert!(matches!(
            leader.wal_subscribe(id, 0),
            Err(ServiceError::Replication(..))
        ));
        // A follower already at the leader's version subscribes fine
        // (empty backlog, live tail only).
        let sub = leader.wal_subscribe(id, 2).unwrap();
        assert_eq!(sub.version, 1);
        assert!(sub.backlog.is_empty());
        // Ahead of the leader: refused.
        assert!(matches!(
            leader.wal_subscribe(id, 3),
            Err(ServiceError::Replication(..))
        ));
    }

    #[test]
    fn apply_rejects_gaps_and_durable_followers() {
        let (leader, _storage) = durable_leader();
        let venue = Arc::new(random_venue(79));
        let objects = workload::place_objects(&venue, 8, 79);
        let id = leader
            .add_venue(
                venue.clone(),
                ShardConfig {
                    threads: 1,
                    objects: objects.clone(),
                    ..ShardConfig::default()
                },
            )
            .unwrap();
        for &to in &objects[1..4] {
            leader
                .update_objects(
                    id,
                    &[ObjectDelta::Move {
                        id: ObjectId(0),
                        to,
                    }],
                )
                .unwrap();
        }
        let sub = leader.wal_subscribe(id, 0).unwrap();

        let follower = IndoorService::new();
        follower.apply_replicated(id, &sub.backlog[0].1).unwrap();
        // Skipping LSN 1 and applying LSN 2 is a typed gap error; the
        // replica stays at version 0.
        assert!(matches!(
            follower.apply_replicated(id, &sub.backlog[2].1),
            Err(ServiceError::Replication(..))
        ));
        assert_eq!(follower.version(id).unwrap(), 0);
        assert_eq!(follower.apply_replicated(id, &sub.backlog[1].1), Ok(1));

        // A durable service refuses to be a follower outright.
        let storage2 = FaultStorage::new();
        let shared2: Arc<dyn Storage> = Arc::new(storage2.clone());
        let (durable, _) =
            IndoorService::open_with_storage(PathBuf::from("/follower"), shared2).unwrap();
        assert!(matches!(
            durable.apply_replicated(id, &sub.backlog[0].1),
            Err(ServiceError::Replication(..))
        ));
    }
}
