//! Multi-venue serving front-end: a router of typed query requests over
//! per-venue [`QueryEngine`] shards, fronted by a bounded, version-keyed
//! result cache, per-query-kind counters, and per-shard admission
//! control.
//!
//! A deployment rarely serves one building: a campus directory answers
//! kNN lookups for one venue while routing evacuation paths in another.
//! [`IndoorService`] owns one shard per venue — each with its own
//! `Arc<VipTree>`, [`ScratchPool`](crate::ScratchPool) and Dijkstra
//! engine pool, so venues never contend — and routes every
//! `(VenueId, QueryRequest)` to its shard.
//!
//! # Live mutation under `&self`
//!
//! Every mutating entry point — [`IndoorService::add_venue`],
//! [`IndoorService::remove_venue`], [`IndoorService::attach_objects`]
//! (wholesale replacement) and [`IndoorService::update_objects`]
//! (incremental [`ObjectDelta`] batches) — takes `&self`: the shard map
//! sits behind an `RwLock`, and a shard's engine is never replaced once
//! built (queries borrow it through the `Arc<Shard>` they routed to —
//! there is no per-shard serving lock), so churn on one venue runs
//! concurrently with `execute_batch` on every other, and with queries on
//! its own, which meet an updater only at the pointer store that
//! publishes a snapshot. There is no service-wide pause and no "tree
//! handle still shared" failure mode: object sets swap *inside* the
//! shared tree (see
//! [`IpTree::attach_objects`](crate::IpTree::attach_objects)), so
//! in-flight queries finish on the snapshot they started with. Updaters
//! of one venue serialise on its journal mutex, and every one of them —
//! a live [`IndoorService::mutate`], a record replayed from the WAL, a
//! record shipped by a replication leader — is the same function,
//! `Shard::apply` in the `shard` submodule.
//!
//! # Caching and invalidation
//!
//! Batch answers are deterministic (bit-identical to the serial loop), so
//! responses are cached under the logical key `(stamp, request)`. The
//! stamp is the **data generation** of what the answer depends on: the
//! tree's object-snapshot generation for kNN/range, the engine's
//! keyword-snapshot generation for keyword-kNN, and a constant for
//! shortest-distance/path answers (venue geometry is immutable while
//! registered, so those survive object churn). A stale hit is
//! *impossible by construction*: an entry only counts as a hit when its
//! stamp equals the current generation, every mutation path — including
//! out-of-band swaps through a handle from [`IndoorService::engine`] —
//! bumps the generation only **after** the new snapshot is swapped in,
//! and queries capture their stamps before computing, so an answer is
//! never stamped newer than the snapshot that produced it. The
//! venue-level `epoch`/`version` counters are observability; rebuilds
//! also clear the map, but deltas rely purely on stamps + eviction (see
//! DESIGN.md, "Object deltas and the service version counter").
//!
//! The per-shard cache is **bounded**: a clock (second-chance) sweep
//! evicts unreferenced entries once `cache_capacity` is reached, with
//! eviction counts surfaced through [`ServiceStats`].
//!
//! # Durability and degradation
//!
//! On a durable service ([`IndoorService::open`]) every mutation is
//! **journal-before-apply**: the WAL record at `LSN = version + 1` is
//! written first, and only on success does the in-memory snapshot swap
//! and the version bump. A failed append therefore leaves the shard
//! exactly as it was — surfaced as [`ServiceError::Persist`] — and
//! memory can never run ahead of the log. If even the rollback of a
//! partial append fails (the log's tail is in an unknown state), the
//! shard poisons itself: reads keep serving the last good snapshot, but
//! every further mutation fails with [`ServiceError::Degraded`] rather
//! than acknowledging writes the log does not hold. DESIGN.md §11 states
//! the full fault model.
//!
//! # Overload admission
//!
//! Each shard optionally bounds its in-flight queries
//! ([`AdmissionConfig`]): beyond `max_in_flight`, arrivals are shed
//! ([`ServiceError::Overloaded`]) or parked up to a deadline
//! ([`OverloadPolicy::Block`], failing with [`ServiceError::Timeout`]).
//! Batches admit with the weight of their slot share, so a saturated
//! shard sheds whole batch shares instead of admitting unbounded work.
//! Shed/timeout counts and live occupancy surface through
//! [`ServiceStats`].
//!
//! # Concurrency
//!
//! The offline container bans tokio, and the serving path needs no
//! runtime: [`IndoorService::execute_batch`] serves a batch on the thread
//! that called it. Each shard's share appends `(slot, result)` to a plain
//! vector, so output order is the input order regardless of which shard
//! finished first. Only a batch spanning several venues starts threads —
//! one scoped worker per shard beyond the first, joined before the call
//! returns — because that is the only case with independent work to
//! overlap. There is deliberately no worker pool: a one-venue batch (all a
//! wire connection sends) has nothing to hand off, and a hand-off costs
//! more than the cache hit it would carry.

use crate::exec::{AdmissionPermit, AdmitError, QueryEngine};
use crate::objects::DeltaReport;
use crate::persist::storage::{OsStorage, Storage, StorageLock};
use crate::persist::wal::{self, VenueWal, WalRecord, LSN_CREATE, LSN_REMOVE};
use crate::persist::PersistError;
use crate::telemetry::{Counter, Registry};
use crate::tree::BuildError;
use indoor_model::{
    DeltaError, IndoorPoint, ObjectDelta, ObjectUpdate, PartitionId, QueryKind, QueryRequest,
    QueryResponse, Venue, VenueId,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

mod shard;
mod stats;
pub(crate) use shard::{Lsn, Seed, Shard};
pub use shard::{Mutation, ShardConfig};
use stats::{KindSeries, ShardTelemetry};
pub use stats::{KindStats, ServiceStats, ShardStats, METRIC_FAMILIES};

/// Default per-shard result-cache capacity (entries) when
/// [`ShardConfig::cache_capacity`] is 0.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// One answered slot of an [`IndoorService::execute_batch`] call.
type SlotAnswer = (usize, Result<QueryResponse, ServiceError>);

/// Stamp of answers that do not depend on the object set (shortest
/// distance/path): venue geometry is immutable while registered, so these
/// entries survive every object mutation.
const STABLE_STAMP: u64 = u64::MAX;

/// Bounded result cache with clock (second-chance) eviction.
///
/// Entries are stamped; a probe only hits when the entry's stamp equals
/// the expected one, so version bumps invalidate structurally — dead
/// entries are reclaimed by the clock sweep rather than an O(n) purge.
#[derive(Debug)]
pub(crate) struct ClockCache {
    map: HashMap<QueryRequest, CacheEntry>,
    /// Insertion ring the clock hand sweeps; always in sync with `map`.
    ring: Vec<QueryRequest>,
    hand: usize,
    capacity: usize,
}

#[derive(Debug)]
struct CacheEntry {
    stamp: u64,
    referenced: bool,
    resp: QueryResponse,
}

impl ClockCache {
    /// Configured capacity in entries (persisted by service snapshots).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn new(capacity: usize) -> ClockCache {
        ClockCache {
            map: HashMap::new(),
            ring: Vec::new(),
            hand: 0,
            capacity: capacity.max(1),
        }
    }

    fn probe(&mut self, req: &QueryRequest, stamp: u64) -> Option<QueryResponse> {
        let e = self.map.get_mut(req)?;
        if e.stamp != stamp {
            return None;
        }
        e.referenced = true;
        Some(e.resp.clone())
    }

    /// Insert or revive `req`'s entry; `true` when the clock evicted
    /// another entry to make room.
    fn insert(&mut self, req: QueryRequest, stamp: u64, resp: QueryResponse) -> bool {
        if let Some(e) = self.map.get_mut(&req) {
            // Re-insert under a fresh stamp revives the slot in place.
            e.stamp = stamp;
            e.resp = resp;
            e.referenced = true;
            return false;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(req.clone());
            self.map.insert(
                req,
                CacheEntry {
                    stamp,
                    referenced: false,
                    resp,
                },
            );
            return false;
        }
        // Clock sweep: grant every referenced entry a second chance; the
        // sweep terminates because it clears flags as it goes.
        loop {
            let victim = self.ring[self.hand].clone();
            let e = self.map.get_mut(&victim).expect("ring key in map");
            if e.referenced {
                e.referenced = false;
                self.hand = (self.hand + 1) % self.capacity;
                continue;
            }
            self.map.remove(&victim);
            self.ring[self.hand] = req.clone();
            self.map.insert(
                req,
                CacheEntry {
                    stamp,
                    referenced: false,
                    resp,
                },
            );
            self.hand = (self.hand + 1) % self.capacity;
            return true;
        }
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.ring.clear();
        self.hand = 0;
    }
}

/// What a shard does with arrivals beyond its in-flight budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Fail fast with [`ServiceError::Overloaded`] — the caller retries,
    /// degrades, or routes elsewhere. The right default for latency-bound
    /// front-ends: a shed request costs microseconds, a queued one costs
    /// the whole backlog.
    Shed,
    /// Park the arrival until capacity frees, up to `timeout`; then fail
    /// with [`ServiceError::Timeout`]. For callers that prefer bounded
    /// waiting over retry loops.
    Block { timeout: Duration },
}

/// Per-venue admission control: a bound on concurrently executing
/// queries (batch shares weigh their slot count) plus the overload
/// policy. Persisted with the venue on a durable service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum in-flight query weight; **0 = unbounded** (no gate at
    /// all — the un-gated fast path is exactly the pre-admission code).
    pub max_in_flight: usize,
    /// What to do at the bound.
    pub policy: OverloadPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_in_flight: 0,
            policy: OverloadPolicy::Shed,
        }
    }
}

/// When an acknowledged WAL append becomes **power-crash** durable.
///
/// Every policy already guarantees process-crash durability (each record
/// reaches the kernel in one `write_all` before the mutation is
/// acknowledged); the policy decides when `fsync` pushes it past the
/// page cache. Persisted with the venue, applied to every append of its
/// journal. See DESIGN.md §13 for the ack-durability contract per
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Never fsync on append (the pre-policy behaviour and the default):
    /// an OS crash or power loss may drop acknowledged tail records —
    /// recovery falls back to the last synced state.
    #[default]
    Never,
    /// fsync before acknowledging every append: an acked write survives
    /// power loss. The strongest — and slowest — contract.
    PerAppend,
    /// fsync on the first append at least `max_delay` after the previous
    /// sync: bounds the power-loss exposure window to roughly
    /// `max_delay` of acknowledged writes without paying a sync per
    /// append. `max_delay` of zero degenerates to [`SyncPolicy::PerAppend`].
    GroupCommit { max_delay: Duration },
    /// fsync every `n`-th append (`n` of 0 behaves as 1): at most `n - 1`
    /// acknowledged records are exposed to power loss.
    EveryN { n: u32 },
}

/// Errors from routing requests to venue shards.
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// The request named a venue id no shard is registered under (never
    /// registered, or removed).
    UnknownVenue(VenueId),
    /// A query point named a partition the venue does not have. The
    /// query did not execute.
    OutOfVenue(VenueId, PartitionId),
    /// An object delta batch failed validation; the venue's object set is
    /// untouched.
    Delta(VenueId, DeltaError),
    /// Venue index construction failed ([`IndoorService::add_venue`]).
    Build(BuildError),
    /// A durable mutation could not be journalled; it was **not**
    /// applied — the venue still serves its previous state
    /// (journal-before-apply).
    Persist(VenueId, Arc<PersistError>),
    /// The shard's journal is in an unknown state (a failed append could
    /// not be rolled back, or a WAL rotation broke its append handle):
    /// the venue serves reads from its last good snapshot but refuses
    /// every mutation. Recover by restarting ([`IndoorService::open`]
    /// replays the verified log).
    Degraded(VenueId, Arc<str>),
    /// Shed at admission: the venue's in-flight budget was full
    /// ([`OverloadPolicy::Shed`]). The query did not execute.
    Overloaded {
        venue: VenueId,
        in_flight: usize,
        limit: usize,
    },
    /// The venue's in-flight budget stayed full for the whole
    /// [`OverloadPolicy::Block`] timeout. The query did not execute.
    Timeout {
        venue: VenueId,
        in_flight: usize,
        limit: usize,
    },
    /// A replication request could not be served or applied: the
    /// requested WAL suffix was rotated away, the subscription target is
    /// volatile, or a shipped record does not extend the replica's
    /// history contiguously. See [`IndoorService::wal_subscribe`] and
    /// [`IndoorService::apply_replicated`].
    Replication(VenueId, Arc<str>),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownVenue(v) => write!(f, "no venue registered under id {v}"),
            ServiceError::OutOfVenue(v, p) => {
                write!(f, "query point names partition {p} outside venue {v}")
            }
            ServiceError::Delta(v, e) => write!(f, "object delta rejected for venue {v}: {e}"),
            ServiceError::Build(e) => write!(f, "cannot build venue index: {e}"),
            ServiceError::Persist(v, e) => {
                write!(f, "durable mutation of venue {v} not journalled: {e}")
            }
            ServiceError::Degraded(v, reason) => {
                write!(f, "venue {v} is degraded (read-only): {reason}")
            }
            ServiceError::Overloaded {
                venue,
                in_flight,
                limit,
            } => write!(
                f,
                "venue {venue} overloaded: {in_flight} in flight at limit {limit}, request shed"
            ),
            ServiceError::Timeout {
                venue,
                in_flight,
                limit,
            } => write!(
                f,
                "venue {venue} admission timed out: {in_flight} in flight at limit {limit}"
            ),
            ServiceError::Replication(v, detail) => {
                write!(f, "replication of venue {v} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Persist(_, e) => Some(e.as_ref()),
            ServiceError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl PartialEq for ServiceError {
    fn eq(&self, other: &ServiceError) -> bool {
        use ServiceError::*;
        match (self, other) {
            (UnknownVenue(a), UnknownVenue(b)) => a == b,
            (OutOfVenue(v, p), OutOfVenue(w, q)) => v == w && p == q,
            (Delta(v, e), Delta(w, f)) => v == w && e == f,
            (Build(a), Build(b)) => a == b,
            // PersistError is not PartialEq (it wraps io::Error); the
            // rendered message is the observable identity.
            (Persist(v, e), Persist(w, f)) => v == w && e.to_string() == f.to_string(),
            (Degraded(v, r), Degraded(w, s)) => v == w && r == s,
            (
                Overloaded {
                    venue: v,
                    in_flight: i,
                    limit: l,
                },
                Overloaded {
                    venue: w,
                    in_flight: j,
                    limit: m,
                },
            ) => v == w && i == j && l == m,
            (
                Timeout {
                    venue: v,
                    in_flight: i,
                    limit: l,
                },
                Timeout {
                    venue: w,
                    in_flight: j,
                    limit: m,
                },
            ) => v == w && i == j && l == m,
            (Replication(v, d), Replication(w, e)) => v == w && d == e,
            _ => false,
        }
    }
}

impl Shard {
    /// Where outside input meets the shard: every point of a request must
    /// name a partition of the venue — the tree indexes its
    /// partition → leaf map unguarded.
    fn check_points(&self, venue: VenueId, req: &QueryRequest) -> Result<(), ServiceError> {
        use QueryRequest::*;
        let n = self.engine.tree().ip().venue().num_partitions();
        let (a, b) = match req {
            Knn { q, .. } | Range { q, .. } | KnnKeyword { q, .. } => (q, q),
            ShortestDistance { s, t } | ShortestPath { s, t } => (s, t),
        };
        match [a, b].iter().find(|p| p.partition.index() >= n) {
            Some(p) => Err(ServiceError::OutOfVenue(venue, p.partition)),
            None => Ok(()),
        }
    }

    /// Take an admission permit of `weight`, or the typed overload error.
    /// `Ok(None)` means the shard is unbounded.
    fn admit(
        &self,
        venue: VenueId,
        weight: usize,
    ) -> Result<Option<AdmissionPermit<'_>>, ServiceError> {
        let Some(gate) = &self.gate else {
            return Ok(None);
        };
        let t0 = self.tel().map(|_| Instant::now());
        let attempt = match self.admission.policy {
            OverloadPolicy::Shed => gate.try_admit(weight),
            OverloadPolicy::Block { timeout } => gate.admit_within(weight, timeout),
        };
        if let (Some(t0), Some(tel)) = (t0, self.tel()) {
            tel.admission_wait_us
                .record(t0.elapsed().as_micros() as u64);
        }
        attempt.map(Some).map_err(|e| match e {
            AdmitError::Overloaded { in_flight, limit } => {
                if let Some(t) = self.wired() {
                    t.shed.inc();
                }
                ServiceError::Overloaded {
                    venue,
                    in_flight,
                    limit,
                }
            }
            AdmitError::Timeout { in_flight, limit } => {
                if let Some(t) = self.wired() {
                    t.timeouts.inc();
                }
                ServiceError::Timeout {
                    venue,
                    in_flight,
                    limit,
                }
            }
        })
    }
}

/// The cache stamps of one serving moment: captured **before** probing
/// or computing, so an answer is never stamped newer than the snapshot
/// that produced it.
#[derive(Clone, Copy)]
struct Stamps {
    objects: u64,
    keywords: u64,
}

impl Stamps {
    fn capture(engine: &QueryEngine) -> Stamps {
        Stamps {
            objects: engine.tree().ip().objects_generation(),
            keywords: engine.keywords_generation(),
        }
    }

    fn for_kind(&self, kind: QueryKind) -> u64 {
        match kind {
            QueryKind::ShortestDistance | QueryKind::ShortestPath => STABLE_STAMP,
            QueryKind::Knn | QueryKind::Range => self.objects,
            QueryKind::KnnKeyword => self.keywords,
        }
    }
}

/// Multi-venue query service: routes typed requests to per-venue engine
/// shards through a bounded, version-keyed result cache. All mutating
/// entry points take `&self` (see the module docs).
///
/// ```
/// use indoor_synth::{random_venue, workload};
/// use std::sync::Arc;
/// use vip_tree::{IndoorService, ShardConfig};
/// use indoor_model::{ObjectDelta, ObjectId, QueryRequest};
///
/// let venue = Arc::new(random_venue(5));
/// let objects = workload::place_objects(&venue, 10, 1);
/// let service = IndoorService::new();
/// let id = service
///     .add_venue(
///         venue.clone(),
///         ShardConfig {
///             objects: objects.clone(),
///             ..ShardConfig::default()
///         },
///     )
///     .unwrap();
/// let q = workload::query_points(&venue, 1, 2)[0];
/// let req = QueryRequest::Knn { q, k: 3 };
/// let first = service.execute(id, &req).unwrap();
/// let second = service.execute(id, &req).unwrap(); // served from cache
/// assert_eq!(first, second);
/// assert_eq!(service.stats().total_cache_hits(), 1);
///
/// // Live churn, no &mut: move one object, version bumps, cache misses.
/// service
///     .update_objects(id, &[ObjectDelta::Move { id: ObjectId(0), to: objects[1] }])
///     .unwrap();
/// assert_eq!(service.version(id).unwrap(), 1);
/// ```
#[derive(Debug)]
pub struct IndoorService {
    /// Slot = `VenueId`; removed venues leave a `None` (ids are never
    /// reused, so a stale id can never alias a new venue).
    pub(crate) shards: RwLock<Vec<Option<Arc<Shard>>>>,
    /// Per-kind serving counters, indexed by [`QueryKind::index`].
    pub(crate) kinds: [KindSeries; QueryKind::COUNT],
    /// Individual deltas absorbed service-wide (see
    /// [`ServiceStats::deltas_absorbed`]). Service-level, not per-shard,
    /// like the per-kind counters: they survive venue removal, so
    /// throughput accounting never loses history when a venue retires
    /// mid-run.
    pub(crate) deltas_absorbed: Arc<Counter>,
    /// Every byte of persistence I/O routes through here —
    /// [`OsStorage`] in production, a fault-injecting test double in the
    /// crash-consistency tests.
    pub(crate) storage: Arc<dyn Storage>,
    /// Durability directory ([`IndoorService::open`]); `None` for a
    /// volatile service. When set, every mutation journals into
    /// per-venue WALs under this directory.
    pub(crate) persist_root: Option<PathBuf>,
    /// Serialises whole-service persistence transitions: snapshot
    /// save/rotation and durable venue registration (which publishes a
    /// slot in two steps). Never taken by queries or per-venue mutations.
    pub(crate) persist_lock: Mutex<()>,
    /// Advisory lock on the durability directory's `.lock` file, held
    /// for the service's lifetime so a second `open` of the same
    /// directory fails instead of interleaving WAL appends. Released
    /// when the handle drops (so a crash never leaves a stale lock).
    pub(crate) _persist_dir_lock: Option<Box<dyn StorageLock>>,
    /// All named telemetry instruments (DESIGN.md §15), and the only
    /// store of every serving counter (`stats`). Venue-labelled
    /// instruments are created when a shard is published
    /// ([`IndoorService::wire_telemetry`]) and retired with the venue;
    /// [`IndoorService::metrics_snapshot`] gathers the lot.
    pub(crate) registry: Registry,
}

impl Default for IndoorService {
    fn default() -> IndoorService {
        let registry = Registry::new();
        IndoorService {
            shards: RwLock::default(),
            kinds: KindSeries::register(&registry),
            deltas_absorbed: registry.counter(
                "indoor_deltas_absorbed_total",
                "Object deltas absorbed service-wide",
                &[],
            ),
            storage: Arc::new(OsStorage),
            persist_root: None,
            persist_lock: Mutex::new(()),
            _persist_dir_lock: None,
            registry,
        }
    }
}

impl IndoorService {
    /// An empty service; add venues with [`IndoorService::add_venue`].
    pub fn new() -> IndoorService {
        IndoorService::default()
    }

    /// Build a VIP-tree shard for `venue` and register it, returning the
    /// id requests route by. Objects and keyword objects from the config
    /// are attached before the shard serves its first query. The build
    /// runs outside the shard-map lock, so a live service keeps serving
    /// every existing venue while a new one is constructed.
    ///
    /// On a durable service the venue's birth is journalled before the
    /// shard is published; a journalling failure returns
    /// [`ServiceError::Persist`] with the venue unregistered (its
    /// reserved id stays burned — ids are never reused).
    pub fn add_venue(
        &self,
        venue: Arc<Venue>,
        config: ShardConfig,
    ) -> Result<VenueId, ServiceError> {
        let shard = Shard::build(venue.clone(), &config, Seed::positional(&config))
            .map_err(ServiceError::Build)?;
        let shard = Arc::new(shard);
        let Some(root) = &self.persist_root else {
            let mut shards = self.shards.write().expect("shard map lock");
            let id = VenueId::from(shards.len());
            self.wire_telemetry(&shard, id);
            shards.push(Some(shard));
            return Ok(id);
        };
        // A durable service journals the venue's birth: everything needed
        // to rebuild this shard if no snapshot ever covers it. The file
        // I/O must not run under the shard-map write lock (it would stall
        // query routing to *every* venue), so the slot is reserved first
        // (pushed as `None` — unroutable, and burned if journalling
        // fails, consistent with ids never being reused) and the shard
        // published only after the Create record is written.
        // `persist_lock` excludes a concurrent `save_snapshot` from
        // observing the reserved-but-unpublished slot and deleting the
        // fresh log as a removed venue's.
        let _persist = self.persist_lock.lock().expect("persist lock");
        let mut venue_json = Vec::new();
        venue
            .save_json(&mut venue_json)
            .expect("venue serialises to memory");
        let id = {
            let mut shards = self.shards.write().expect("shard map lock");
            let id = VenueId::from(shards.len());
            shards.push(None);
            id
        };
        // Journal what the shard runs with: the cache default resolved.
        let config = ShardConfig {
            cache_capacity: shard.config_head().cache_capacity,
            ..config
        };
        let record = WalRecord::Create {
            config: Cow::Borrowed(&config),
            venue_json: Cow::Borrowed(&venue_json),
        };
        let created = VenueWal::create(&self.storage, root, id.index(), config.sync)
            .and_then(|mut wal| wal.append(LSN_CREATE, &record).map(|()| wal));
        let wal = match created {
            Ok(wal) => wal,
            Err(e) => {
                // Best-effort cleanup of the partial log: recovery would
                // treat a magic-only or torn-tailed log as an empty slot
                // anyway, this just keeps the directory tidy.
                let path = wal::wal_path(root, id.index());
                if self.storage.exists(&path) {
                    let _ = self.storage.remove_file(&path);
                    let _ = self.storage.sync_dir(root);
                }
                return Err(ServiceError::Persist(id, Arc::new(e)));
            }
        };
        *shard.journal.lock().expect("journal lock") = Some(wal);
        self.wire_telemetry(&shard, id);
        self.shards.write().expect("shard map lock")[id.index()] = Some(shard);
        Ok(id)
    }

    /// Unregister a venue. Its id is never reused; in-flight batches that
    /// already routed to the shard finish normally. On a durable service
    /// the removal is journalled (LSN `u64::MAX`, so it replays no matter
    /// when the last snapshot was taken) and survives a restart — and a
    /// journalling failure leaves the venue registered and serving.
    pub fn remove_venue(&self, venue: VenueId) -> Result<(), ServiceError> {
        // Journal the removal before unrouting, and outside the map write
        // lock (file I/O must not stall query routing). If a concurrent
        // mutation wins the journal lock first, its record lands before
        // the Remove; records that lose and land after it are skipped by
        // replay (the venue is gone either way).
        let shard = self.shard(venue)?;
        let mut journal = shard.journal.lock().expect("journal lock");
        shard.ensure_writable(venue)?;
        shard.journal_append(&mut journal, venue, LSN_REMOVE, &WalRecord::Remove)?;
        drop(journal);
        let mut shards = self.shards.write().expect("shard map lock");
        let unrouted = match shards.get_mut(venue.index()) {
            Some(slot @ Some(_)) => {
                *slot = None;
                Ok(())
            }
            // A racing remove_venue of the same id beat us to the slot.
            _ => Err(ServiceError::UnknownVenue(venue)),
        };
        drop(shards);
        if unrouted.is_ok() {
            // Retire the venue's series so the exposition page stops
            // carrying a removed venue forever.
            self.registry
                .remove_labeled("venue", &venue.index().to_string());
        }
        unrouted
    }

    /// Whether this service journals mutations (it was opened from a
    /// persist directory). Replication leaders must be durable — a
    /// volatile service has no WAL to ship — and followers volatile.
    pub fn is_durable(&self) -> bool {
        self.persist_root.is_some()
    }

    /// Number of registered venues.
    pub fn venue_count(&self) -> usize {
        self.shards
            .read()
            .expect("shard map lock")
            .iter()
            .filter(|s| s.is_some())
            .count()
    }

    /// The ids of all registered venues.
    pub fn venues(&self) -> Vec<VenueId> {
        self.shards
            .read()
            .expect("shard map lock")
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| VenueId::from(i)))
            .collect()
    }

    /// A venue's query engine (for direct, uncached access). Mutating the
    /// underlying tree or keyword index through this handle is safe for
    /// the cache — stamps derive from the data generation counters, which
    /// bump on every swap — but prefer the service's typed entry points,
    /// which also maintain the venue's epoch/version observability.
    ///
    /// On a **durable** service ([`IndoorService::open`]) out-of-band
    /// mutation through this handle additionally **bypasses the WAL**:
    /// the change serves immediately but is not journalled, so it will
    /// not survive a restart (and is silently shadowed by the next
    /// snapshot). Durable services must churn through the service's own
    /// mutation methods.
    pub fn engine(&self, venue: VenueId) -> Result<Arc<QueryEngine>, ServiceError> {
        Ok(self.shard(venue)?.engine.clone())
    }

    /// A venue's rebuild epoch (bumped by every
    /// [`IndoorService::attach_objects`]).
    pub fn epoch(&self, venue: VenueId) -> Result<u64, ServiceError> {
        Ok(self.shard(venue)?.counters().0)
    }

    /// A venue's object-set version (bumped by every object mutation:
    /// rebuilds **and** delta batches).
    pub fn version(&self, venue: VenueId) -> Result<u64, ServiceError> {
        Ok(self.shard(venue)?.version())
    }

    /// Why a venue is read-only, if it is. `None` = serving mutations
    /// normally. A degraded venue keeps answering queries from its last
    /// good snapshot; restart the service to recover it from the
    /// verified log.
    pub fn degraded(&self, venue: VenueId) -> Result<Option<String>, ServiceError> {
        Ok(self.shard(venue)?.degraded_reason().map(|r| r.to_string()))
    }

    pub(crate) fn shard(&self, venue: VenueId) -> Result<Arc<Shard>, ServiceError> {
        self.shards
            .read()
            .expect("shard map lock")
            .get(venue.index())
            .and_then(|s| s.clone())
            .ok_or(ServiceError::UnknownVenue(venue))
    }

    /// Absorb one [`Mutation`] into a venue and return the version (LSN)
    /// it published together with what the batch did — the one live
    /// mutation path; [`IndoorService::attach_objects`],
    /// [`IndoorService::update_objects`] and
    /// [`IndoorService::update_keyword_objects`] are spellings of it.
    ///
    /// Validation is atomic: an invalid batch leaves the venue unchanged
    /// — and so does a batch whose WAL record fails to journal (the
    /// prepared snapshot is discarded unpublished). Runs under `&self`:
    /// concurrent queries finish on the snapshot they started with, other
    /// venues never notice, and concurrent mutations of the same venue
    /// serialise on its journal mutex, each acknowledged with its own LSN.
    pub fn mutate(
        &self,
        venue: VenueId,
        mutation: Mutation<'_>,
    ) -> Result<(u64, DeltaReport), ServiceError> {
        self.apply(&*self.shard(venue)?, venue, mutation, Lsn::Assigned)
    }

    /// `Shard::apply` plus the service-wide delta tally — shared by the
    /// live path and [`IndoorService::apply_replicated`], so a follower
    /// counts what it absorbs exactly as its leader did.
    pub(crate) fn apply(
        &self,
        shard: &Shard,
        venue: VenueId,
        mutation: Mutation<'_>,
        lsn: Lsn,
    ) -> Result<(u64, DeltaReport), ServiceError> {
        let deltas = mutation.delta_count();
        let applied = shard.apply(venue, mutation, lsn)?;
        self.deltas_absorbed.add(deltas);
        Ok(applied)
    }

    /// Replace a venue's object set wholesale (§3.4 overnight churn).
    ///
    /// The replacement index is built outside every lock, journalled,
    /// swapped into the shared tree, and the rebuild epoch + object
    /// version bump — making every previously cached object answer
    /// unreachable. The keyword index is untouched (it has its own
    /// object set; see [`IndoorService::update_keyword_objects`]).
    pub fn attach_objects(
        &self,
        venue: VenueId,
        objects: &[IndoorPoint],
    ) -> Result<(), ServiceError> {
        self.mutate(venue, Mutation::Attach(objects.into()))
            .map(|_| ())
    }

    /// Absorb an incremental object-delta batch into a venue (the
    /// live-service churn path: insert/remove/move against stable ids).
    ///
    /// Only the leaves the deltas land in are touched
    /// ([`ObjectIndex::apply_delta`](crate::ObjectIndex::apply_delta));
    /// the object version bumps (epoch — the rebuild counter — does not),
    /// cached object answers go structurally stale, and cached
    /// shortest-distance/path answers survive untouched.
    pub fn update_objects(
        &self,
        venue: VenueId,
        deltas: &[ObjectDelta],
    ) -> Result<DeltaReport, ServiceError> {
        self.mutate(venue, Mutation::Deltas(deltas.into()))
            .map(|(_, report)| report)
    }

    /// Absorb labelled deltas into a venue's keyword index (building one
    /// from empty if the venue has none), re-threading inverted lists for
    /// the touched objects only. Bumps the object version like
    /// [`IndoorService::update_objects`].
    pub fn update_keyword_objects(
        &self,
        venue: VenueId,
        updates: &[ObjectUpdate],
    ) -> Result<DeltaReport, ServiceError> {
        self.mutate(venue, Mutation::KeywordUpdates(updates.into()))
            .map(|(_, report)| report)
    }

    /// Answer one request for one venue, through the admission gate and
    /// the cache. A shed or timed-out request returns the typed overload
    /// error without executing (cache probes count as execution: a hit
    /// still takes a permit — admission bounds *work started*, and probe
    /// cost is work).
    pub fn execute(
        &self,
        venue: VenueId,
        req: &QueryRequest,
    ) -> Result<QueryResponse, ServiceError> {
        let shard = self.shard(venue)?;
        shard.check_points(venue, req)?;
        let _permit = shard.admit(venue, 1)?;
        let t0 = Instant::now();
        let engine = &shard.engine;
        // Stamps captured before computing: the answer is never stamped
        // newer than the snapshot that produced it (the stale-hit proof).
        let stamp = Stamps::capture(engine).for_kind(req.kind());
        // Borrowed probe: no request clone (and no allocation) on a hit.
        let hit = shard
            .cache
            .lock()
            .expect("cache poisoned")
            .probe(req, stamp);
        // Probe time measured from `t0` — the stamp capture it includes
        // is part of the probe path, and reusing the request timestamp
        // keeps the always-on cost to one clock read plus one record.
        if let Some(tel) = shard.tel() {
            tel.cache_probe_us.record(t0.elapsed().as_micros() as u64);
        }
        if let Some(resp) = hit {
            self.count_answer(&shard, req.kind(), true, t0.elapsed());
            return Ok(resp);
        }
        let resp = engine.execute(req);
        let mut cache = shard.cache.lock().expect("cache poisoned");
        let evicted = cache.insert(req.clone(), stamp, resp.clone());
        drop(cache);
        if let (true, Some(t)) = (evicted, shard.wired()) {
            t.evictions.inc();
        }
        self.count_answer(&shard, req.kind(), false, t0.elapsed());
        Ok(resp)
    }

    /// Answer a heterogeneous multi-venue batch; slot `i` answers
    /// `reqs[i]`, identical to calling [`IndoorService::execute`] per
    /// slot (unknown venues answer `Err` without disturbing the rest,
    /// and a saturated venue sheds its whole batch share — every slot
    /// routed to it answers the overload error).
    ///
    /// Each venue shard with work admits its slot share's weight and
    /// answers its slots (cache first, then one engine batch over the
    /// misses). The first share is served **on the calling thread**; only
    /// when further shards have work do scoped workers run beside it, one
    /// per extra shard, returning their slots through their join handles.
    /// A one-venue batch — all a wire connection ever sends — therefore
    /// starts no thread at all.
    pub fn execute_batch(
        &self,
        reqs: &[(VenueId, QueryRequest)],
    ) -> Vec<Result<QueryResponse, ServiceError>> {
        // Snapshot the shard map once: venue removal mid-batch cannot
        // strand a slot.
        let shards: Vec<Option<Arc<Shard>>> = self.shards.read().expect("shard map lock").clone();
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); shards.len()];
        let mut out: Vec<Option<Result<QueryResponse, ServiceError>>> = vec![None; reqs.len()];
        for (slot, (venue, _)) in reqs.iter().enumerate() {
            match shards.get(venue.index()).and_then(|s| s.as_ref()) {
                Some(_) => by_shard[venue.index()].push(slot),
                None => out[slot] = Some(Err(ServiceError::UnknownVenue(*venue))),
            }
        }

        // The shares with work; `by_shard` only routes slots to live shards.
        let mut shares = shards
            .iter()
            .zip(&by_shard)
            .filter(|(_, slots)| !slots.is_empty())
            .map(|(shard, slots)| (shard.as_deref().expect("live shard"), &slots[..]));
        let mut answered: Vec<SlotAnswer> = Vec::with_capacity(reqs.len());
        if let Some((shard, slots)) = shares.next() {
            std::thread::scope(|scope| {
                let workers: Vec<_> = shares
                    .map(|(shard, slots)| {
                        #[cfg(test)]
                        tests::SPAWNED.with(|n| n.set(n.get() + 1));
                        scope.spawn(move || {
                            let mut answered = Vec::with_capacity(slots.len());
                            self.serve_shard_slots(shard, slots, reqs, &mut answered);
                            answered
                        })
                    })
                    .collect();
                self.serve_shard_slots(shard, slots, reqs, &mut answered);
                for worker in workers {
                    answered.extend(worker.join().expect("shard worker panicked"));
                }
            });
        }
        for (slot, resp) in answered {
            debug_assert!(out[slot].is_none(), "slot answered twice");
            out[slot] = Some(resp);
        }
        out.into_iter()
            .map(|r| r.expect("every slot answered"))
            .collect()
    }

    /// Serve one shard's share of an [`IndoorService::execute_batch`],
    /// appending `(slot, result)` for every slot of the share.
    fn serve_shard_slots(
        &self,
        shard: &Shard,
        slots: &[usize],
        reqs: &[(VenueId, QueryRequest)],
        answered: &mut Vec<SlotAnswer>,
    ) {
        let venue = reqs[slots[0]].0;
        // The whole slot share admits as one unit (weight = slot count):
        // a saturated shard rejects the share up front instead of
        // starting unbounded work. Oversized shares still admit on an
        // idle gate, so `max_in_flight` never deadlocks a big batch.
        let _permit = match shard.admit(venue, slots.len()) {
            Ok(permit) => permit,
            Err(e) => {
                answered.extend(slots.iter().map(|&slot| (slot, Err(e.clone()))));
                return;
            }
        };
        // One consistent snapshot for the whole batch share, stamps
        // captured before any computation.
        let engine = &shard.engine;
        let stamps = Stamps::capture(engine);
        // Probe under the lock, but record and hand over outside it so an
        // all-hit batch doesn't starve concurrent `execute` callers.
        let t0 = Instant::now();
        let mut hits: Vec<(usize, QueryResponse)> = Vec::new();
        let mut miss_slots: Vec<usize> = Vec::new();
        {
            let mut cache = shard.cache.lock().expect("cache poisoned");
            for &slot in slots {
                let req = &reqs[slot].1;
                // A bad slot answers its error; the rest of the share
                // answers normally.
                if let Err(e) = shard.check_points(venue, req) {
                    answered.push((slot, Err(e)));
                    continue;
                }
                match cache.probe(req, stamps.for_kind(req.kind())) {
                    Some(resp) => hits.push((slot, resp)),
                    None => miss_slots.push(slot),
                }
            }
        }
        if let Some(tel) = shard.tel() {
            // The whole share probes in one cache pass; bill it once.
            tel.cache_probe_us.record(t0.elapsed().as_micros() as u64);
        }
        if !hits.is_empty() {
            // Apportion the probe loop's wall time equally over the hits.
            let per_hit = t0.elapsed() / hits.len() as u32;
            for (slot, resp) in hits {
                self.count_answer(shard, reqs[slot].1.kind(), true, per_hit);
                answered.push((slot, Ok(resp)));
            }
        }
        if miss_slots.is_empty() {
            return;
        }

        // Duplicate requests in one cold batch (the kiosk-repeat workload
        // the cache exists for) compute once and fan out to every slot.
        let mut unique: Vec<QueryRequest> = Vec::with_capacity(miss_slots.len());
        let mut slots_of: HashMap<&QueryRequest, Vec<usize>> = HashMap::new();
        for &slot in &miss_slots {
            let req = &reqs[slot].1;
            match slots_of.entry(req) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    unique.push(req.clone());
                    e.insert(vec![slot]);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(slot),
            }
        }
        let t0 = Instant::now();
        let resps = engine.execute_batch(&unique);
        // Apportion the batch's wall time equally over its requests.
        let per_query = t0.elapsed() / miss_slots.len() as u32;
        let mut cache = shard.cache.lock().expect("cache poisoned");
        let mut evicted = 0;
        for (req, resp) in unique.iter().zip(resps) {
            for &slot in &slots_of[req] {
                self.count_answer(shard, req.kind(), false, per_query);
                answered.push((slot, Ok(resp.clone())));
            }
            evicted += u64::from(cache.insert(req.clone(), stamps.for_kind(req.kind()), resp));
        }
        if let Some(t) = shard.wired() {
            t.evictions.add(evicted);
        }
    }
}

#[cfg(test)]
mod tests;
