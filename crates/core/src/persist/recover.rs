//! Warm restart: load the latest snapshot, replay each venue's WAL
//! suffix, truncate torn tails, then serve.
//!
//! [`IndoorService::open`] is the inverse of
//! [`IndoorService::save_snapshot`] plus the journal: every shard is
//! rebuilt journal-less from its snapshot state (venue JSON → `Venue` →
//! `Shard::build`, object/keyword sets seeded with their stable ids),
//! then the WAL records with `LSN > version` are re-applied **through
//! the function the live service used** (`Shard::apply`, at the record's
//! own LSN) — so the delta-vs-rebuild equivalence contract of
//! `tests/object_deltas.rs` is exactly what makes a recovered service
//! answer byte-identically to one that never went down
//! (`tests/persistence.rs` proves it end to end). Restored
//! `epoch`/`version` counters continue monotonically, which keeps future
//! WAL LSNs and cache stamps well-ordered.
//!
//! Recovery itself is **recover-or-reject**: every read goes through the
//! service's [`Storage`], every structural anomaly beyond a torn tail is
//! a typed [`PersistError`], and a recovery that fails mid-way (even one
//! whose tail-truncation repair write fails — the "double fault" case)
//! returns an error instead of a service built on a half-read history.

use super::format::{PersistError, SNAPSHOT_FILE};
use super::snapshot::{read_snapshot, SlotState};
use super::storage::{OsStorage, Storage};
use super::wal::{self, WalEntry, WalRecord};
use crate::service::{IndoorService, Lsn, Seed, ServiceError, Shard, ShardConfig};
use indoor_model::{Venue, VenueId};
use std::io;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// What [`IndoorService::open`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Whether a snapshot file was present and loaded.
    pub snapshot_loaded: bool,
    /// Venues serving after recovery.
    pub venues: usize,
    /// WAL records re-applied past their snapshot states (lifecycle
    /// records included).
    pub replayed_records: usize,
    /// WAL files whose torn final record was truncated.
    pub truncated_tails: usize,
}

/// Rebuild a journal-less shard from a persisted venue document — a
/// snapshot slot's or a `Create` record's (replayed here, or shipped to a
/// replica: `crate::repl` bootstraps through exactly this path).
pub(crate) fn rebuild(
    venue_json: &[u8],
    config: &ShardConfig,
    seed: Seed,
    path: &Path,
) -> Result<Shard, PersistError> {
    let venue = Venue::load_json(venue_json).map_err(|e| PersistError::load(path, e))?;
    Shard::build(Arc::new(venue), config, seed).map_err(PersistError::Build)
}

/// Replay one venue's WAL suffix onto its rebuilt shard.
fn replay(
    slot: usize,
    mut live: Option<Shard>,
    entries: Vec<WalEntry>,
    path: &Path,
    report: &mut RecoveryReport,
) -> Result<Option<Shard>, PersistError> {
    // Slots are never reused, so a log holds at most one lifecycle:
    // Create … Remove (plus racing stragglers after the Remove). If the
    // venue ends up removed, every mutation record in the log is moot —
    // which also covers the crash window between a snapshot rename
    // (recording the slot as empty) and the rotation step that deletes
    // the removed venue's log: the leftover log's pre-Remove mutations
    // must not read as corruption.
    let ends_removed = entries
        .iter()
        .any(|e| matches!(e.record, WalRecord::Remove));
    let mut removed = false;
    for entry in entries {
        let mutation = match entry.record {
            WalRecord::Create { config, venue_json } => {
                // Skipped when snapshot state already covers the venue (a
                // log not rotated yet) — and when the log ends in Remove:
                // building a tree only to drop it at the Remove record
                // would waste the whole venue-construction cost.
                if live.is_none() && !ends_removed {
                    let seed = Seed::positional(&config);
                    live = Some(rebuild(&venue_json, &config, seed, path)?);
                    report.replayed_records += 1;
                }
                continue;
            }
            WalRecord::Remove => {
                live = None;
                removed = true;
                report.replayed_records += 1;
                continue;
            }
            WalRecord::Mutation(mutation) => mutation,
        };
        if removed || (live.is_none() && ends_removed) {
            // Moot mutation: either it raced `remove_venue` and landed
            // after the Remove record, or the snapshot already records
            // the slot as empty and the log (not yet deleted by
            // rotation) still ends in its Remove.
            continue;
        }
        let Some(shard) = live.as_ref() else {
            return Err(PersistError::corrupt(
                path,
                0,
                format!(
                    "mutation record LSN {} for absent venue slot {slot}",
                    entry.lsn
                ),
            ));
        };
        if entry.lsn <= shard.version() {
            continue; // the snapshot already includes this record
        }
        match shard.apply(VenueId::from(slot), mutation, Lsn::Expected(entry.lsn)) {
            Ok(_) => report.replayed_records += 1,
            Err(ServiceError::Delta(_, source)) => {
                return Err(PersistError::Replay {
                    path: path.to_path_buf(),
                    lsn: entry.lsn,
                    source,
                })
            }
            // A journal-less shard cannot fail to persist or be degraded:
            // what is left is a record that skips past `version + 1`.
            Err(_) => {
                return Err(PersistError::corrupt(
                    path,
                    0,
                    format!(
                        "LSN gap in venue slot {slot}: record {} after version {}",
                        entry.lsn,
                        shard.version()
                    ),
                ))
            }
        }
    }
    Ok(live)
}

impl IndoorService {
    /// Open a durable service rooted at `dir` (created if missing):
    /// load `snapshot.bin` if present, replay each venue's WAL suffix
    /// (records with `LSN >` the snapshot's version), truncate torn
    /// tails, and serve. The returned service journals every future
    /// mutation into `dir`; [`IndoorService::save_snapshot`] into the
    /// same `dir` rotates the logs.
    ///
    /// An empty or missing directory yields an empty durable service —
    /// the natural way to *start* a durable deployment.
    pub fn open(dir: impl AsRef<Path>) -> Result<IndoorService, PersistError> {
        Self::open_with_report(dir).map(|(service, _)| service)
    }

    /// As [`IndoorService::open`], also returning what recovery found.
    pub fn open_with_report(
        dir: impl AsRef<Path>,
    ) -> Result<(IndoorService, RecoveryReport), PersistError> {
        Self::open_with_storage(dir, Arc::new(OsStorage))
    }

    /// As [`IndoorService::open_with_report`], with every byte of I/O —
    /// recovery reads, repairs, and all future journalling — routed
    /// through `storage`. This is the injection point the
    /// fault-injection tests drive with
    /// [`FaultStorage`](super::storage::FaultStorage); production code
    /// wants [`IndoorService::open`].
    pub fn open_with_storage(
        dir: impl AsRef<Path>,
        storage: Arc<dyn Storage>,
    ) -> Result<(IndoorService, RecoveryReport), PersistError> {
        let dir = dir.as_ref();
        storage
            .create_dir_all(dir)
            .map_err(|e| PersistError::io(dir, e))?;
        // Single-writer exclusion: two live services appending to the
        // same WALs would interleave LSNs into a history that matches
        // neither. The advisory lock is held for the service's lifetime
        // and released by the OS on drop or crash.
        let lock_path = dir.join(".lock");
        let dir_lock = storage.lock(&lock_path).map_err(|e| {
            if e.kind() == io::ErrorKind::WouldBlock {
                PersistError::Locked {
                    path: dir.to_path_buf(),
                }
            } else {
                PersistError::io(&lock_path, e)
            }
        })?;
        let mut report = RecoveryReport::default();

        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let mut states: Vec<Option<SlotState>> = if storage.exists(&snapshot_path) {
            report.snapshot_loaded = true;
            read_snapshot(&storage, &snapshot_path)?
        } else {
            Vec::new()
        };

        // Venues created after the last snapshot live only in their WAL.
        let mut max_slot = states.len();
        for name in storage
            .read_dir_names(dir)
            .map_err(|e| PersistError::io(dir, e))?
        {
            if let Some(slot) = wal::slot_of_wal_name(&name) {
                max_slot = max_slot.max(slot + 1);
            }
        }
        states.resize_with(max_slot, || None);

        let mut slots: Vec<Option<Arc<Shard>>> = Vec::with_capacity(states.len());
        for (slot, state) in states.into_iter().enumerate() {
            let path = wal::wal_path(dir, slot);
            let entries = if storage.exists(&path) {
                let (entries, truncated) = wal::read_and_repair(&storage, &path)?;
                if truncated {
                    report.truncated_tails += 1;
                }
                entries
            } else {
                Vec::new()
            };

            let rebuilt = state
                .map(|s| rebuild(&s.venue_json, &s.config, s.seed, &snapshot_path))
                .transpose()?;
            let rebuilt = replay(slot, rebuilt, entries, &path, &mut report)?;
            slots.push(rebuilt.map(Arc::new));
        }

        // Every surviving slot journals from here on: reopen (or create)
        // its log for appending. Slots that stay `None` keep no journal —
        // their ids are burned, recorded by the snapshot's empty slot or
        // the log's Remove record.
        for (slot, shard) in slots.iter().enumerate() {
            let Some(shard) = shard else { continue };
            let path = wal::wal_path(dir, slot);
            let policy = shard.sync_policy();
            let wal = if storage.exists(&path) {
                wal::VenueWal::open_append(&storage, dir, slot, policy)?
            } else {
                // Snapshot-only venue (log rotated away, then deleted, or
                // an exported snapshot opened in a fresh directory).
                wal::VenueWal::create(&storage, dir, slot, policy)?
            };
            *shard.journal.lock().expect("journal lock") = Some(wal);
        }

        report.venues = slots.iter().flatten().count();
        let service = IndoorService {
            shards: RwLock::new(slots),
            storage,
            persist_root: Some(dir.to_path_buf()),
            _persist_dir_lock: Some(dir_lock),
            ..IndoorService::default()
        };
        // Recovered shards are live publishes too: re-create their
        // venue-labelled instruments (counters restart from zero — the
        // registry is process state, not durable state).
        {
            let shards = service.shards.read().expect("shard map lock");
            for (slot, shard) in shards.iter().enumerate() {
                if let Some(shard) = shard {
                    service.wire_telemetry(shard, indoor_model::VenueId::from(slot));
                }
            }
        }
        Ok((service, report))
    }

    /// The durability directory this service journals into (`None` for a
    /// volatile [`IndoorService::new`] service).
    pub fn persist_root(&self) -> Option<&Path> {
        self.persist_root.as_deref()
    }
}
