//! Per-venue write-ahead log: one append-only file of CRC-framed,
//! LSN-stamped mutation records.
//!
//! Every mutating [`IndoorService`](crate::IndoorService) entry point
//! appends one record per acknowledged batch; the **LSN is the shard's
//! version counter** after the batch (venue-lifecycle records use the
//! reserved LSNs 0 for `Create` and `u64::MAX` for `Remove`). Recovery
//! replays the suffix of each log past its snapshot's version — see
//! `persist::recover` — and [`read_and_repair`] physically truncates a
//! torn tail (a partially written final record) before replay, which is
//! the crash-atomicity story: a record is either fully framed and
//! CRC-valid, or it never happened.
//!
//! All file I/O routes through the [`Storage`] abstraction, so the same
//! code paths run against the OS filesystem in production and against
//! the fault-injecting in-memory filesystem in
//! `tests/fault_injection.rs`.

use super::format::{self, FrameRead, PersistError, WAL_MAGIC};
use super::storage::{Storage, StorageFile};
use crate::service::{Mutation, ShardConfig, SyncPolicy};
use indoor_model::wire::{WireReader, WireWriter};
use indoor_model::LoadError;
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// LSN of a venue's `Create` record (before any mutation).
pub(crate) const LSN_CREATE: u64 = 0;
/// LSN of a venue's `Remove` record: sorts after every version, so a
/// removal is replayed no matter when the last snapshot was taken.
pub(crate) const LSN_REMOVE: u64 = u64::MAX;

/// One log record: borrowed from the caller's arguments when appended,
/// owned when decoded for replay or replication.
#[derive(Debug)]
pub(crate) enum WalRecord<'a> {
    /// Venue registered: everything needed to rebuild the shard from
    /// nothing (`add_venue` semantics) — the config, its positional seed
    /// included, and the venue document.
    Create {
        config: Cow<'a, ShardConfig>,
        venue_json: Cow<'a, [u8]>,
    },
    /// An object-set mutation at `LSN = version + 1`.
    Mutation(Mutation<'a>),
    /// Venue unregistered.
    Remove,
}

/// One replayable log entry.
#[derive(Debug)]
pub(crate) struct WalEntry {
    pub lsn: u64,
    pub record: WalRecord<'static>,
}

const TAG_CREATE: u8 = 0;
const TAG_DELTAS: u8 = 1;
const TAG_KEYWORDS: u8 = 2;
const TAG_ATTACH: u8 = 3;
const TAG_REMOVE: u8 = 4;

/// Encode `record` (with its LSN) into a frame payload.
pub(crate) fn encode_record(lsn: u64, record: &WalRecord<'_>) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(lsn);
    match record {
        WalRecord::Create { config, venue_json } => {
            w.put_u8(TAG_CREATE);
            config.encode_head(&mut w);
            w.put_bytes(venue_json);
            config.encode_seed(&mut w);
        }
        WalRecord::Mutation(Mutation::Deltas(deltas)) => {
            w.put_u8(TAG_DELTAS);
            w.put_deltas(deltas);
        }
        WalRecord::Mutation(Mutation::KeywordUpdates(updates)) => {
            w.put_u8(TAG_KEYWORDS);
            w.put_updates(updates);
        }
        WalRecord::Mutation(Mutation::Attach(objects)) => {
            w.put_u8(TAG_ATTACH);
            w.put_points(objects);
        }
        WalRecord::Remove => w.put_u8(TAG_REMOVE),
    }
    w.into_bytes()
}

/// Decode one frame payload back into an entry.
pub(crate) fn decode_record(payload: &[u8]) -> Result<WalEntry, LoadError> {
    let mut r = WireReader::new(payload);
    let lsn = r.get_u64("record LSN")?;
    let record = match r.get_u8("record kind tag")? {
        TAG_CREATE => {
            let mut config = ShardConfig::decode_head(&mut r)?;
            let venue_json = r.get_bytes("venue json")?.to_vec();
            config.decode_seed(&mut r)?;
            WalRecord::Create {
                config: Cow::Owned(config),
                venue_json: Cow::Owned(venue_json),
            }
        }
        TAG_DELTAS => WalRecord::Mutation(Mutation::Deltas(r.get_deltas()?.into())),
        TAG_KEYWORDS => WalRecord::Mutation(Mutation::KeywordUpdates(r.get_updates()?.into())),
        TAG_ATTACH => WalRecord::Mutation(Mutation::Attach(r.get_points()?.into())),
        TAG_REMOVE => WalRecord::Remove,
        other => {
            return Err(LoadError::Wire {
                offset: 8,
                expected: "record kind tag 0..=4",
                found: format!("tag {other}"),
            })
        }
    };
    r.finish("end of record")?;
    Ok(WalEntry { lsn, record })
}

/// Append handle to one venue's log file.
#[derive(Debug)]
pub(crate) struct VenueWal {
    path: PathBuf,
    file: Box<dyn StorageFile>,
    /// Length of the clean record boundary: past bytes of every fully
    /// acknowledged frame. A failed append truncates back to this, so a
    /// partial frame never stays in a *live* log.
    len: u64,
    storage: Arc<dyn Storage>,
    /// Set when a failed append could not be rolled back — the log tail
    /// is in an unknown state and further appends must be refused.
    poisoned: bool,
    /// When acknowledged appends are fsynced (see [`SyncPolicy`]).
    policy: SyncPolicy,
    /// Acked appends since the last fsync ([`SyncPolicy::EveryN`]).
    appends_since_sync: u32,
    /// When the last fsync happened ([`SyncPolicy::GroupCommit`]).
    last_sync: Instant,
}

/// `dir/venue-<slot>.wal`.
pub(crate) fn wal_path(dir: &Path, slot: usize) -> PathBuf {
    dir.join(format!("venue-{slot}.wal"))
}

/// Parse a `venue-<slot>.wal` file name back to its slot.
pub(crate) fn slot_of_wal_name(name: &str) -> Option<usize> {
    name.strip_prefix("venue-")?
        .strip_suffix(".wal")?
        .parse()
        .ok()
}

impl VenueWal {
    /// Create (truncating) the log for `slot` with a fresh magic header,
    /// then fsync `dir` so the new file *name* is crash-durable (the
    /// header content follows the append durability policy).
    pub fn create(
        storage: &Arc<dyn Storage>,
        dir: &Path,
        slot: usize,
        policy: SyncPolicy,
    ) -> Result<VenueWal, PersistError> {
        let path = wal_path(dir, slot);
        let mut file = storage
            .create(&path)
            .map_err(|e| PersistError::io(&path, e))?;
        file.write_all(WAL_MAGIC)
            .and_then(|_| file.flush())
            .map_err(|e| PersistError::io(&path, e))?;
        storage
            .sync_dir(dir)
            .map_err(|e| PersistError::io(dir, e))?;
        Ok(VenueWal {
            path,
            file,
            len: WAL_MAGIC.len() as u64,
            storage: storage.clone(),
            poisoned: false,
            policy,
            appends_since_sync: 0,
            last_sync: Instant::now(),
        })
    }

    /// Open an existing (already repaired) log for appending.
    pub fn open_append(
        storage: &Arc<dyn Storage>,
        dir: &Path,
        slot: usize,
        policy: SyncPolicy,
    ) -> Result<VenueWal, PersistError> {
        let path = wal_path(dir, slot);
        let len = storage
            .file_len(&path)
            .map_err(|e| PersistError::io(&path, e))?;
        let file = storage
            .open_append(&path)
            .map_err(|e| PersistError::io(&path, e))?;
        Ok(VenueWal {
            path,
            file,
            len,
            storage: storage.clone(),
            poisoned: false,
            policy,
            appends_since_sync: 0,
            last_sync: Instant::now(),
        })
    }

    /// Append one record. The frame reaches the kernel in a single
    /// `write_all`, so a **process** crash leaves at worst one torn tail
    /// frame — exactly what [`read_and_repair`] truncates. Whether the
    /// record is also fsynced before the append is acknowledged — power-
    /// crash durability — is the handle's [`SyncPolicy`]: `PerAppend`
    /// syncs every record, `EveryN`/`GroupCommit` amortise the sync over
    /// a bounded window of acked records, `Never` (the default) leaves
    /// tail records in the page cache.
    ///
    /// On failure — a short write *or* a failed due fsync — the frame is
    /// truncated away, so the log stays on a clean record boundary and
    /// the *next* append is well-formed (the mutation was never
    /// acknowledged either way). If that rollback itself fails, the
    /// handle is **poisoned**: the tail is unknowable and every further
    /// append is refused (the service surfaces this as a `Degraded`
    /// shard).
    pub fn append(&mut self, lsn: u64, record: &WalRecord<'_>) -> Result<(), PersistError> {
        if self.poisoned {
            return Err(PersistError::io(
                &self.path,
                std::io::Error::other("journal poisoned by an earlier unrolled-back append"),
            ));
        }
        let payload = encode_record(lsn, record);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        format::write_section(&mut frame, &payload);
        let written = self
            .file
            .write_all(&frame)
            .and_then(|_| self.file.flush())
            .and_then(|_| {
                if self.sync_due() {
                    self.file.sync()?;
                    self.appends_since_sync = 0;
                    self.last_sync = Instant::now();
                }
                Ok(())
            });
        match written {
            Ok(()) => {
                self.len += frame.len() as u64;
                Ok(())
            }
            Err(e) => {
                if self.storage.truncate(&self.path, self.len).is_err() {
                    self.poisoned = true;
                }
                Err(PersistError::io(&self.path, e))
            }
        }
    }

    /// Whether this append must fsync before being acknowledged. Counter
    /// updates for `EveryN` happen here (the sync itself resets them).
    fn sync_due(&mut self) -> bool {
        match self.policy {
            SyncPolicy::Never => false,
            SyncPolicy::PerAppend => true,
            SyncPolicy::EveryN { n } => {
                self.appends_since_sync += 1;
                self.appends_since_sync >= n.max(1)
            }
            SyncPolicy::GroupCommit { max_delay } => self.last_sync.elapsed() >= max_delay,
        }
    }

    /// Whether a failed rollback left the tail in an unknown state.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }
}

/// Read the raw frame payloads of `path` with `LSN >= from_lsn`, in log
/// order, **without** decoding the records (replication ships the bytes
/// verbatim, so a follower applies exactly what the leader journalled).
/// A torn tail is skipped, not repaired: the caller holds the journal
/// lock of a live log, so a torn final frame can only be a concurrent
/// crash artefact that recovery will repair on restart.
pub(crate) fn read_raw_suffix(
    storage: &Arc<dyn Storage>,
    path: &Path,
    from_lsn: u64,
) -> Result<Vec<crate::repl::WalEntry>, PersistError> {
    let buf = storage.read(path).map_err(|e| PersistError::io(path, e))?;
    if buf.len() < 8 {
        return Ok(Vec::new());
    }
    let mut pos = 0usize;
    format::read_magic(&buf, &mut pos, WAL_MAGIC, path)?;
    let mut out = Vec::new();
    while let FrameRead::Frame(payload) = format::read_frame(&buf, &mut pos) {
        let lsn = WireReader::new(payload)
            .get_u64("record LSN")
            .map_err(|e| PersistError::load(path, e))?;
        if lsn >= from_lsn {
            out.push((lsn, Arc::from(payload)));
        }
    }
    Ok(out)
}

/// Read every valid record of `path`, physically truncating a torn tail.
/// Returns the entries plus whether a truncation happened.
pub(crate) fn read_and_repair(
    storage: &Arc<dyn Storage>,
    path: &Path,
) -> Result<(Vec<WalEntry>, bool), PersistError> {
    let buf = storage.read(path).map_err(|e| PersistError::io(path, e))?;

    // A file shorter than the magic is a torn *header* — a crash between
    // creating the file and writing its 8 magic bytes (the same
    // append-crash window the frame rule covers). The creation was never
    // acknowledged, so repair by rewriting a clean header rather than
    // refusing to open the whole service. A full-length but wrong magic
    // stays an error: that is a different format, not a crash artefact.
    if buf.len() < 8 {
        storage
            .write(path, WAL_MAGIC)
            .map_err(|e| PersistError::io(path, e))?;
        return Ok((Vec::new(), true));
    }
    let mut pos = 0usize;
    format::read_magic(&buf, &mut pos, WAL_MAGIC, path)?;
    let mut entries = Vec::new();
    let mut truncated = false;
    loop {
        let frame_start = pos;
        match format::read_frame(&buf, &mut pos) {
            FrameRead::Frame(payload) => {
                let entry = decode_record(payload).map_err(|e| PersistError::load(path, e))?;
                entries.push(entry);
            }
            FrameRead::End => break,
            FrameRead::Torn => {
                // Torn tail: drop the partial frame (and anything framed
                // after it — frame boundaries past a bad frame are
                // meaningless) so the next append starts clean.
                storage
                    .truncate(path, frame_start as u64)
                    .map_err(|e| PersistError::io(path, e))?;
                truncated = true;
                break;
            }
        }
    }
    Ok((entries, truncated))
}

/// Why a [`rotate`] failed, split by blast radius.
pub(crate) enum RotateFailure {
    /// Failure before the rename: the old log and the caller's append
    /// handle are both still valid — the rotation simply didn't happen.
    Safe(PersistError),
    /// Failure after the rename took effect: the caller's append handle
    /// may point at the *replaced* (unlinked) log, so acknowledging
    /// further appends through it would silently lose them. The caller
    /// must stop journalling through that handle (degrade the shard).
    HandleInvalidated(PersistError),
}

impl RotateFailure {
    pub(crate) fn into_error(self) -> PersistError {
        match self {
            RotateFailure::Safe(e) | RotateFailure::HandleInvalidated(e) => e,
        }
    }
}

/// Rewrite the log for `slot` keeping only entries with `lsn >
/// keep_after` (plus nothing else — `Create` at LSN 0 and every record
/// the snapshot already covers are dropped), returning a fresh append
/// handle. Kept records are copied as their **raw, already-CRC-valid
/// frame bytes** — only the 8-byte LSN prefix of each payload is
/// decoded, so rotation of a long suffix is a memcpy and can never
/// rewrite (or drift) a record's encoding. Atomic and crash-durable:
/// written to a temp file, fsynced, renamed over the old log, parent
/// directory fsynced.
pub(crate) fn rotate(
    storage: &Arc<dyn Storage>,
    dir: &Path,
    slot: usize,
    keep_after: u64,
    policy: SyncPolicy,
) -> Result<(VenueWal, usize), RotateFailure> {
    let path = wal_path(dir, slot);
    let buf = storage
        .read(&path)
        .map_err(|e| RotateFailure::Safe(PersistError::io(&path, e)))?;
    let mut pos = 0usize;
    let mut out = Vec::from(WAL_MAGIC.as_slice());
    let mut dropped = 0usize;
    if buf.len() >= 8 {
        format::read_magic(&buf, &mut pos, WAL_MAGIC, &path).map_err(RotateFailure::Safe)?;
        loop {
            let frame_start = pos;
            match format::read_frame(&buf, &mut pos) {
                FrameRead::Frame(payload) => {
                    let lsn = WireReader::new(payload)
                        .get_u64("record LSN")
                        .map_err(|e| RotateFailure::Safe(PersistError::load(&path, e)))?;
                    if lsn > keep_after {
                        out.extend_from_slice(&buf[frame_start..pos]);
                    } else {
                        dropped += 1;
                    }
                }
                FrameRead::End => break,
                // Live logs are clean (appends complete under the journal
                // lock); drop a torn tail defensively, like recovery.
                FrameRead::Torn => break,
            }
        }
    }
    let tmp = dir.join(format!("venue-{slot}.wal.tmp"));
    storage
        .write(&tmp, &out)
        .map_err(|e| RotateFailure::Safe(PersistError::io(&tmp, e)))?;
    storage
        .sync_file(&tmp)
        .map_err(|e| RotateFailure::Safe(PersistError::io(&tmp, e)))?;
    storage
        .rename(&tmp, &path)
        .map_err(|e| RotateFailure::Safe(PersistError::io(&path, e)))?;
    // Past the rename, the old append handle may point at the unlinked
    // pre-rotation log — failures from here invalidate it.
    storage
        .sync_dir(dir)
        .map_err(|e| RotateFailure::HandleInvalidated(PersistError::io(dir, e)))?;
    let wal = VenueWal::open_append(storage, dir, slot, policy)
        .map_err(RotateFailure::HandleInvalidated)?;
    Ok((wal, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The record codec was merged with the config codec and the wire
    /// frames' mutation bodies; the bytes were not. Every record of three
    /// logs written before that merge — all five kinds, a `Create` with
    /// every config field off its default — decodes and re-encodes to the
    /// payload it came from.
    #[test]
    fn records_written_before_the_codec_merge_re_encode_to_the_same_bytes() {
        let storage: Arc<dyn Storage> = Arc::new(crate::persist::OsStorage);
        let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data");
        let mut kinds = [0usize; 5];
        for log in [
            "shard_lifecycle/venue-0.wal",
            "shard_lifecycle/venue-1.wal",
            "crc_bytewise/venue-0.wal",
        ] {
            let records = read_raw_suffix(&storage, &data.join(log), 0).expect("read old log");
            for (lsn, payload) in records {
                let entry = decode_record(&payload).expect("decode old record");
                assert_eq!(
                    encode_record(entry.lsn, &entry.record)[..],
                    payload[..],
                    "{log}: LSN {lsn}"
                );
                kinds[payload[8] as usize] += 1;
            }
        }
        // Create, Deltas, KeywordUpdates, Attach, Remove: the two
        // lifecycle logs hold 2 + 4 + 4 + 1 + 1, the rotated one 3 + 3.
        assert_eq!(kinds, [2, 7, 7, 1, 1]);
    }
}
