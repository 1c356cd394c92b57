//! Whole-service snapshots: every venue shard's rebuildable state in one
//! versioned, CRC-sectioned binary file.
//!
//! A snapshot stores, per shard slot: the venue document (the JSON
//! `indoor-venue/2` encoding, embedded as one byte section — trees are
//! deterministic from the venue, so matrices are *rebuilt* on load, which
//! is what keeps snapshots small), the tree/engine/cache/admission
//! configuration, the live object set with its stable [`ObjectId`]s, the
//! live labelled keyword set, and the `epoch`/`version` counters. Empty
//! slots (removed venues) are stored too —
//! [`VenueId`](indoor_model::VenueId)s are never reused, and that
//! invariant must survive a restart.
//!
//! # Consistency
//!
//! [`IndoorService::save_snapshot`] captures each shard under that
//! shard's journal lock — the lock every mutation path holds across
//! *WAL append + apply + version bump* — so a captured `(state, version)`
//! pair is always mutually consistent and the WAL suffix with
//! `LSN > version` is exactly the mutations the snapshot missed.
//! Queries never take the journal lock: snapshotting is concurrent with
//! serving. Serialisation happens *after* the locks drop, from immutable
//! `Arc` snapshots.
//!
//! # Crash durability
//!
//! The file is written to a temp name, fsynced, renamed over
//! `snapshot.bin`, and the directory is fsynced — so a completed
//! `save_snapshot` survives power loss, and an interrupted one leaves
//! the previous snapshot intact (rename without the directory sync is
//! not crash-durable on ext4; see DESIGN.md §11).

use super::format::{self, PersistError, SNAPSHOT_FILE, SNAPSHOT_MAGIC};
use super::storage::Storage;
use super::wal::{self, RotateFailure};
use crate::service::{IndoorService, Seed, Shard, ShardConfig};
use indoor_model::wire::{WireReader, WireWriter};
use indoor_model::{LoadError, ObjectId};
use std::path::Path;
use std::sync::Arc;

/// What one [`IndoorService::save_snapshot`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotReport {
    /// Registered venues captured (empty slots not counted).
    pub venues: usize,
    /// Bytes of the written snapshot file.
    pub bytes: usize,
    /// WAL records dropped by rotation (0 for a volatile service or when
    /// snapshotting outside the service's durability directory).
    pub wal_records_dropped: usize,
}

/// The rebuildable state of one occupied shard slot.
pub(crate) struct SlotState {
    /// The config head; its positional seed stays empty — the live sets
    /// in `seed` carry their stable ids instead.
    pub config: ShardConfig,
    pub venue_json: Vec<u8>,
    /// The `epoch`/`version` counters and the live object and keyword
    /// sets at the captured version.
    pub seed: Seed,
}

const SLOT_EMPTY: u8 = 0;
const SLOT_VENUE: u8 = 1;

fn encode_slot(state: Option<&SlotState>) -> Vec<u8> {
    let mut w = WireWriter::new();
    let Some(s) = state else {
        w.put_u8(SLOT_EMPTY);
        return w.into_bytes();
    };
    w.put_u8(SLOT_VENUE);
    w.put_u64(s.seed.epoch);
    w.put_u64(s.seed.version);
    s.config.encode_head(&mut w);
    w.put_bytes(&s.venue_json);
    match &s.seed.objects {
        None => w.put_u8(0),
        Some(objects) => {
            w.put_u8(1);
            w.put_u32(objects.len() as u32);
            for (id, p) in objects {
                w.put_u32(id.0);
                w.put_point(p);
            }
        }
    }
    match &s.seed.keywords {
        None => w.put_u8(0),
        Some(keywords) => {
            w.put_u8(1);
            w.put_u32(keywords.len() as u32);
            for (id, p, labels) in keywords {
                w.put_u32(id.0);
                w.put_point(p);
                w.put_labels(labels);
            }
        }
    }
    w.into_bytes()
}

fn decode_slot(payload: &[u8]) -> Result<Option<SlotState>, LoadError> {
    let mut r = WireReader::new(payload);
    match r.get_u8("slot tag")? {
        SLOT_EMPTY => {
            r.finish("end of empty slot")?;
            return Ok(None);
        }
        SLOT_VENUE => {}
        other => {
            return Err(LoadError::Wire {
                offset: 0,
                expected: "slot tag 0 or 1",
                found: format!("tag {other}"),
            })
        }
    }
    let epoch = r.get_u64("epoch")?;
    let version = r.get_u64("version")?;
    let config = ShardConfig::decode_head(&mut r)?;
    let venue_json = r.get_bytes("venue json")?.to_vec();
    let objects = match r.get_u8("objects presence flag")? {
        0 => None,
        _ => {
            let n = r.get_u32("object count")? as usize;
            let mut objects = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                let id = ObjectId(r.get_u32("object id")?);
                objects.push((id, r.get_point()?));
            }
            Some(objects)
        }
    };
    let keywords = match r.get_u8("keywords presence flag")? {
        0 => None,
        _ => {
            let n = r.get_u32("keyword object count")? as usize;
            let mut keywords = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                let id = ObjectId(r.get_u32("keyword object id")?);
                let p = r.get_point()?;
                keywords.push((id, p, r.get_labels()?));
            }
            Some(keywords)
        }
    };
    r.finish("end of slot")?;
    Ok(Some(SlotState {
        config,
        venue_json,
        seed: Seed {
            epoch,
            version,
            objects,
            keywords,
        },
    }))
}

/// The whole snapshot file: magic, slot count, one CRC-framed section per
/// slot.
fn encode_snapshot(states: &[Option<SlotState>]) -> Vec<u8> {
    let mut out = Vec::from(SNAPSHOT_MAGIC.as_slice());
    out.extend_from_slice(&(states.len() as u32).to_le_bytes());
    for state in states {
        format::write_section(&mut out, &encode_slot(state.as_ref()));
    }
    out
}

/// Read a snapshot file back into per-slot states.
pub(crate) fn read_snapshot(
    storage: &Arc<dyn Storage>,
    path: &Path,
) -> Result<Vec<Option<SlotState>>, PersistError> {
    let buf = storage.read(path).map_err(|e| PersistError::io(path, e))?;
    let mut pos = 0usize;
    format::read_magic(&buf, &mut pos, SNAPSHOT_MAGIC, path)?;
    if buf.len() < pos + 4 {
        return Err(PersistError::corrupt(
            path,
            pos as u64,
            "missing slot count",
        ));
    }
    let slots = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
    pos += 4;
    let mut out = Vec::with_capacity(slots.min(65_536));
    for slot in 0..slots {
        match format::read_frame(&buf, &mut pos) {
            format::FrameRead::Frame(payload) => {
                out.push(decode_slot(payload).map_err(|e| PersistError::load(path, e))?);
            }
            _ => {
                return Err(PersistError::corrupt(
                    path,
                    pos as u64,
                    format!("slot section {slot} of {slots} missing or CRC-invalid"),
                ))
            }
        }
    }
    if pos != buf.len() {
        return Err(PersistError::corrupt(
            path,
            pos as u64,
            "trailing bytes after final slot section",
        ));
    }
    Ok(out)
}

/// One shard's state as captured under its journal lock: counters plus
/// `Arc` handles to the immutable copy-on-write snapshots. Cheap to
/// take — serialisation happens later, outside every lock, via
/// [`ShardCapture::into_state`].
struct ShardCapture<'a> {
    shard: &'a Shard,
    epoch: u64,
    version: u64,
    objects: Option<Arc<crate::objects::ObjectIndex>>,
    keywords: Option<Arc<crate::keywords::KeywordObjects>>,
}

impl ShardCapture<'_> {
    /// Capture the shard. Must be called with the shard's journal lock
    /// held, so the `(snapshots, version)` pair is a consistent cut of
    /// the mutation order; does only counter reads and `Arc` clones —
    /// updaters are excluded for nanoseconds, not for the serialisation.
    fn take(shard: &Shard) -> ShardCapture<'_> {
        let (epoch, version) = shard.counters();
        ShardCapture {
            shard,
            epoch,
            version,
            objects: shard.engine.tree().ip().object_index(),
            keywords: shard.engine.keywords(),
        }
    }

    /// Serialise the captured snapshots (venue JSON, live sets). Run
    /// outside every lock; everything `Arc`ed here is immutable, and so
    /// is the config head the shard was built with.
    fn into_state(self) -> SlotState {
        let mut venue_json = Vec::new();
        let ip = self.shard.engine.tree().ip();
        ip.venue()
            .save_json(&mut venue_json)
            .expect("venue serialises to memory");
        SlotState {
            config: self.shard.config_head(),
            venue_json,
            seed: Seed {
                epoch: self.epoch,
                version: self.version,
                objects: self.objects.map(|oi| oi.live_pairs()),
                keywords: self.keywords.map(|kw| kw.live_labelled()),
            },
        }
    }
}

impl IndoorService {
    /// Persist the whole service into `dir` (created if missing):
    /// `snapshot.bin` holding every venue's rebuildable state, captured
    /// per shard under its journal lock — concurrent with serving, and
    /// consistent with the WAL by construction (the same lock orders the
    /// capture against every `LSN = version` append).
    ///
    /// On a durable service (one from [`IndoorService::open`]) whose
    /// durability directory is `dir`, the write also **rotates** each
    /// venue's WAL: records the snapshot covers (`LSN <= version`) are
    /// dropped, and logs of removed venues are deleted. Snapshotting
    /// into any *other* directory is a pure export and leaves the WALs
    /// alone. The file is written to a temp name, fsynced, renamed and
    /// the directory fsynced, so a completed save survives power loss
    /// and a crash mid-save leaves the previous snapshot intact.
    pub fn save_snapshot(&self, dir: impl AsRef<Path>) -> Result<SnapshotReport, PersistError> {
        let dir = dir.as_ref();
        let storage = self.storage.clone();
        // One snapshot at a time: two racing saves would fight over the
        // temp file and could rotate a WAL past a version the winning
        // (staler) snapshot does not cover. Also excludes a durable
        // `add_venue` mid-publication (reserved slot, unpublished shard).
        let _persist = self.persist_lock.lock().expect("persist lock");
        storage
            .create_dir_all(dir)
            .map_err(|e| PersistError::io(dir, e))?;

        // Stable slot view: concurrent add_venue appends land in the next
        // snapshot; concurrent remove_venue journals a Remove record that
        // out-sorts every version.
        let shards: Vec<Option<Arc<Shard>>> = self.shards.read().expect("shard map lock").clone();
        let captures: Vec<Option<ShardCapture>> = shards
            .iter()
            .map(|shard| {
                shard.as_ref().map(|shard| {
                    // Lock held only for the Arc-clone capture; the
                    // expensive serialisation runs below, outside it.
                    let journal = shard.journal.lock().expect("journal lock");
                    let capture = ShardCapture::take(shard);
                    drop(journal);
                    capture
                })
            })
            .collect();
        let states: Vec<Option<SlotState>> = captures
            .into_iter()
            .map(|c| c.map(ShardCapture::into_state))
            .collect();

        let out = encode_snapshot(&states);
        let bytes = out.len();
        let tmp = dir.join("snapshot.tmp");
        let path = dir.join(SNAPSHOT_FILE);
        storage
            .write(&tmp, &out)
            .map_err(|e| PersistError::io(&tmp, e))?;
        storage
            .sync_file(&tmp)
            .map_err(|e| PersistError::io(&tmp, e))?;
        storage
            .rename(&tmp, &path)
            .map_err(|e| PersistError::io(&path, e))?;
        storage
            .sync_dir(dir)
            .map_err(|e| PersistError::io(dir, e))?;

        // Rotation only applies when this snapshot is the one recovery
        // would actually load before these WALs.
        let mut wal_records_dropped = 0usize;
        let rotating = self
            .persist_root
            .as_ref()
            .is_some_and(|root| same_dir(root, dir));
        if rotating {
            for (slot, (shard, state)) in shards.iter().zip(&states).enumerate() {
                match (shard, state) {
                    (Some(shard), Some(state)) => {
                        let mut journal = shard.journal.lock().expect("journal lock");
                        if journal.is_some() {
                            match wal::rotate(
                                &storage,
                                dir,
                                slot,
                                state.seed.version,
                                state.config.sync,
                            ) {
                                Ok((fresh, dropped)) => {
                                    *journal = Some(fresh);
                                    wal_records_dropped += dropped;
                                }
                                // The old log (and the held append
                                // handle) are still valid — rotation
                                // simply didn't happen this round.
                                Err(RotateFailure::Safe(e)) => return Err(e),
                                // The rename landed but the handle could
                                // not be refreshed: appends through it
                                // would be lost. Stop journalling on this
                                // shard rather than acknowledging writes
                                // into an unlinked file.
                                Err(f @ RotateFailure::HandleInvalidated(_)) => {
                                    shard.degrade(format!(
                                        "WAL rotation of slot {slot} failed after rename; \
                                         append handle may target the unlinked old log"
                                    ));
                                    return Err(f.into_error());
                                }
                            }
                        }
                    }
                    _ => {
                        // Removed venue: the snapshot records the empty
                        // slot, so its log (if any) is spent. The dir
                        // sync makes the deletion crash-durable.
                        let path = wal::wal_path(dir, slot);
                        if storage.exists(&path) {
                            storage
                                .remove_file(&path)
                                .map_err(|e| PersistError::io(&path, e))?;
                            storage
                                .sync_dir(dir)
                                .map_err(|e| PersistError::io(dir, e))?;
                        }
                    }
                }
            }
        }

        Ok(SnapshotReport {
            venues: states.iter().flatten().count(),
            bytes,
            wal_records_dropped,
        })
    }
}

fn same_dir(a: &Path, b: &Path) -> bool {
    match (a.canonicalize(), b.canonicalize()) {
        (Ok(a), Ok(b)) => a == b,
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// As the WAL's re-encode test, for the snapshot: a file written
    /// before the config codec merged decodes and re-encodes to itself,
    /// framing included.
    #[test]
    fn snapshot_written_before_the_codec_merge_re_encodes_to_the_same_bytes() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/data/crc_bytewise")
            .join(SNAPSHOT_FILE);
        let storage: Arc<dyn Storage> = Arc::new(crate::persist::OsStorage);
        let states = read_snapshot(&storage, &path).expect("decode old snapshot");
        assert!(matches!(states[..], [Some(_)]), "one occupied slot");
        assert!(encode_snapshot(&states) == std::fs::read(&path).unwrap());
    }
}
