//! Durability subsystem: service snapshots + per-venue delta WALs with
//! warm restart.
//!
//! PR 4 made the whole [`IndoorService`](crate::IndoorService) mutable
//! while serving — but volatile: a restart lost every venue, live object
//! set, keyword list and version counter, and index construction is the
//! dominant cost at venue scale (Liu et al.'s experimental analysis of
//! indoor queries), so a cold restart of a many-venue deployment is
//! minutes of rebuild. This module makes restarts warm:
//!
//! * **Snapshots**: a versioned, CRC-sectioned binary file holding every
//!   shard's rebuildable state —
//!   [`IndoorService::save_snapshot`](crate::IndoorService::save_snapshot)
//!   writes it concurrently with serving.
//! * **WAL**: every mutation batch
//!   (`update_objects`/`update_keyword_objects`/`attach_objects`/
//!   `add_venue`/`remove_venue`) appends one CRC-framed record to a
//!   per-venue append-only log, stamped with the shard's version counter
//!   as its LSN.
//! * **Recovery**:
//!   [`IndoorService::open`](crate::IndoorService::open) = load snapshot,
//!   replay each venue's WAL suffix (`LSN > version`), truncate torn
//!   tails, serve. Snapshotting rotates the logs.
//!
//! The **LSN = version invariant** is what ties the two halves together:
//! `Shard::apply` holds its shard's journal lock across *WAL append +
//! install + version bump*, so the log order is the apply order, the
//! snapshot's captured version is a cut point of that order, and "replay
//! the suffix past the version" is exact — no record is lost, none is
//! applied twice. Kill-and-recover equivalence (recovered answers
//! byte-identical to a never-restarted service) is enforced by proptest
//! in `tests/persistence.rs`; DESIGN.md §10 has the full argument.
//!
//! Durability is opt-in per service:
//! [`IndoorService::new`](crate::IndoorService::new) stays
//! volatile and journal-free; services from `open` journal every
//! acknowledged mutation. A WAL append failure on a durable service is
//! a typed error (`ServiceError::Persist`) and the mutation is **not**
//! applied — journal-before-apply, so memory never diverges from the
//! log. If even the rollback of a partial append fails, the shard
//! poisons itself into a read-only `Degraded` state rather than
//! acknowledging writes it cannot journal.
//!
//! All file I/O goes through the [`storage::Storage`] trait:
//! [`storage::OsStorage`] in production, the deterministic
//! fault-injecting [`storage::FaultStorage`] under test. DESIGN.md §11
//! states the fault model and the recover-or-reject invariant that
//! `tests/fault_injection.rs` enforces.

mod format;
mod recover;
mod snapshot;
pub mod storage;
pub(crate) mod wal;

pub use format::{PersistError, SNAPSHOT_FILE};
pub(crate) use recover::rebuild;
pub use recover::RecoveryReport;
pub use snapshot::SnapshotReport;
pub use storage::{CrashMode, FaultAt, FaultKind, FaultStorage, OsStorage, Storage, StorageFile};
