//! One venue's shard: what it is built from, what it is made of, and the
//! only code that changes it.
//!
//! Three histories feed a shard — live calls on [`IndoorService`], the
//! WAL suffix recovery replays, and the records a replication leader
//! ships — and all three are the same two steps: [`Shard::build`] turns a
//! venue, a [`ShardConfig`] and a [`Seed`] into a serving shard, and
//! [`Shard::apply`] absorbs one [`Mutation`] at one LSN. The config's
//! byte layout lives here too, so the `Create` record, the snapshot slot
//! and the `AddVenue` frame cannot disagree about it.
//!
//! [`IndoorService`]: super::IndoorService

use super::{
    AdmissionConfig, ClockCache, OverloadPolicy, ServiceError, ShardTelemetry, SyncPolicy,
    DEFAULT_CACHE_CAPACITY,
};
use crate::exec::{AdmissionGate, QueryEngine};
use crate::keywords::KeywordObjects;
use crate::objects::{DeltaReport, ObjectIndex};
use crate::persist::wal::{self, VenueWal, WalRecord};
use crate::tree::{BuildError, VipTreeConfig};
use crate::vip::VipTree;
use indoor_model::wire::{WireReader, WireWriter};
use indoor_model::{
    DeltaError, IndoorPoint, LoadError, ObjectDelta, ObjectId, ObjectUpdate, PartitionId, Venue,
    VenueId,
};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-venue construction parameters for [`IndoorService::add_venue`] —
/// and the config every durable form of a venue carries (WAL `Create`
/// record, snapshot slot, `AddVenue` frame).
///
/// [`IndoorService::add_venue`]: super::IndoorService::add_venue
#[derive(Debug, Clone, Default)]
pub struct ShardConfig {
    /// Tree construction parameters.
    pub tree: VipTreeConfig,
    /// Worker threads for this shard's batch execution (0 = all cores).
    pub threads: usize,
    /// Objects to attach for kNN/range queries.
    pub objects: Vec<IndoorPoint>,
    /// Labelled objects for keyword-kNN. When non-empty, the shard builds
    /// a [`KeywordObjects`] index and threads it through its engine
    /// automatically; [`IndoorService::update_keyword_objects`] maintains
    /// it incrementally afterwards.
    ///
    /// [`IndoorService::update_keyword_objects`]: super::IndoorService::update_keyword_objects
    pub keywords: Vec<(IndoorPoint, Vec<String>)>,
    /// Result-cache capacity in entries (0 = [`DEFAULT_CACHE_CAPACITY`]).
    pub cache_capacity: usize,
    /// In-flight query budget and overload policy (default: unbounded).
    pub admission: AdmissionConfig,
    /// When acknowledged WAL appends become power-crash durable
    /// (default: [`SyncPolicy::Never`]). Ignored on a volatile service.
    pub sync: SyncPolicy,
}

const POLICY_SHED: u8 = 0;
const POLICY_BLOCK: u8 = 1;

const SYNC_NEVER: u8 = 0;
const SYNC_PER_APPEND: u8 = 1;
const SYNC_GROUP_COMMIT: u8 = 2;
const SYNC_EVERY_N: u8 = 3;

/// Tree-config wire layout: the first three fields of every config head.
fn encode_config(w: &mut WireWriter, cfg: &VipTreeConfig) {
    w.put_u32(cfg.min_degree as u32);
    w.put_u8(cfg.use_superior_doors as u8);
    w.put_u32(cfg.threads as u32);
}

fn decode_config(r: &mut WireReader<'_>) -> Result<VipTreeConfig, LoadError> {
    Ok(VipTreeConfig {
        min_degree: r.get_u32("tree min_degree")? as usize,
        use_superior_doors: r.get_u8("tree use_superior_doors flag")? != 0,
        threads: r.get_u32("tree build threads")? as usize,
    })
}

impl ShardConfig {
    /// The config **head** — tree, threads, cache capacity, admission,
    /// sync — in the one field order every file and frame kind shares.
    /// The seed ([`ShardConfig::encode_seed`]) is separate because the
    /// formats put the venue document between the two, and a snapshot
    /// slot replaces it with its id-carrying live sets.
    pub(crate) fn encode_head(&self, w: &mut WireWriter) {
        encode_config(w, &self.tree);
        w.put_u32(self.threads as u32);
        w.put_u64(self.cache_capacity as u64);
        w.put_u64(self.admission.max_in_flight as u64);
        let (tag, param) = match self.admission.policy {
            OverloadPolicy::Shed => (POLICY_SHED, 0),
            OverloadPolicy::Block { timeout } => (POLICY_BLOCK, timeout.as_millis() as u64),
        };
        w.put_u8(tag);
        w.put_u64(param);
        let (tag, param) = match self.sync {
            SyncPolicy::Never => (SYNC_NEVER, 0),
            SyncPolicy::PerAppend => (SYNC_PER_APPEND, 0),
            SyncPolicy::GroupCommit { max_delay } => {
                (SYNC_GROUP_COMMIT, max_delay.as_micros() as u64)
            }
            SyncPolicy::EveryN { n } => (SYNC_EVERY_N, n as u64),
        };
        w.put_u8(tag);
        w.put_u64(param);
    }

    /// Inverse of [`ShardConfig::encode_head`]: a config with an empty
    /// seed.
    pub(crate) fn decode_head(r: &mut WireReader<'_>) -> Result<ShardConfig, LoadError> {
        let tree = decode_config(r)?;
        let threads = r.get_u32("engine threads")? as usize;
        let cache_capacity = r.get_u64("cache capacity")? as usize;
        let max_in_flight = r.get_u64("admission max_in_flight")? as usize;
        let tag = r.get_u8("admission policy tag")?;
        let timeout_ms = r.get_u64("admission block timeout ms")?;
        let policy = match tag {
            POLICY_SHED => OverloadPolicy::Shed,
            POLICY_BLOCK => OverloadPolicy::Block {
                timeout: Duration::from_millis(timeout_ms),
            },
            other => return Err(r.err("admission policy tag 0 or 1", format!("tag {other}"))),
        };
        let tag = r.get_u8("sync policy tag")?;
        let param = r.get_u64("sync policy parameter")?;
        let sync = match tag {
            SYNC_NEVER => SyncPolicy::Never,
            SYNC_PER_APPEND => SyncPolicy::PerAppend,
            SYNC_GROUP_COMMIT => SyncPolicy::GroupCommit {
                max_delay: Duration::from_micros(param),
            },
            SYNC_EVERY_N => SyncPolicy::EveryN { n: param as u32 },
            other => return Err(r.err("sync policy tag 0..=3", format!("tag {other}"))),
        };
        Ok(ShardConfig {
            tree,
            threads,
            cache_capacity,
            admission: AdmissionConfig {
                max_in_flight,
                policy,
            },
            sync,
            ..ShardConfig::default()
        })
    }

    /// The positional **seed**: the objects, then the labelled keyword
    /// objects, each under the id of its position.
    pub(crate) fn encode_seed(&self, w: &mut WireWriter) {
        w.put_points(&self.objects);
        w.put_u32(self.keywords.len() as u32);
        for (p, labels) in &self.keywords {
            w.put_point(p);
            w.put_labels(labels);
        }
    }

    /// Inverse of [`ShardConfig::encode_seed`], into this config.
    pub(crate) fn decode_seed(&mut self, r: &mut WireReader<'_>) -> Result<(), LoadError> {
        self.objects = r.get_points()?;
        let n = r.get_u32("keyword object count")? as usize;
        self.keywords = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            let p = r.get_point()?;
            self.keywords.push((p, r.get_labels()?));
        }
        Ok(())
    }

    /// Serialise to the canonical opaque-bytes form venue-admin wire
    /// frames carry (head, then seed — a WAL `Create` record without its
    /// venue document), so the network layer never mirrors this struct
    /// field by field.
    pub fn encode_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode_head(&mut w);
        self.encode_seed(&mut w);
        w.into_bytes()
    }

    /// Inverse of [`ShardConfig::encode_wire`]; rejects trailing bytes.
    pub fn decode_wire(bytes: &[u8]) -> Result<ShardConfig, LoadError> {
        let mut r = WireReader::new(bytes);
        let mut config = ShardConfig::decode_head(&mut r)?;
        config.decode_seed(&mut r)?;
        r.finish("end of shard config")?;
        Ok(config)
    }
}

/// One object-set mutation of one venue: the unit `Shard::apply`
/// executes, the WAL journals and replication ships. Borrowed on the live
/// path (`deltas.into()`), owned when decoded from a record.
#[derive(Debug, Clone)]
pub enum Mutation<'a> {
    /// An incremental insert/remove/move batch against the plain object
    /// set ([`IndoorService::update_objects`]).
    ///
    /// [`IndoorService::update_objects`]: super::IndoorService::update_objects
    Deltas(Cow<'a, [ObjectDelta]>),
    /// A labelled batch against the keyword object set
    /// ([`IndoorService::update_keyword_objects`]).
    ///
    /// [`IndoorService::update_keyword_objects`]: super::IndoorService::update_keyword_objects
    KeywordUpdates(Cow<'a, [ObjectUpdate]>),
    /// A wholesale replacement of the plain object set, ids positional
    /// ([`IndoorService::attach_objects`]).
    ///
    /// [`IndoorService::attach_objects`]: super::IndoorService::attach_objects
    Attach(Cow<'a, [IndoorPoint]>),
}

impl Mutation<'_> {
    /// Individual deltas in the batch — what
    /// [`ServiceStats::deltas_absorbed`](super::ServiceStats::deltas_absorbed)
    /// counts. A wholesale attach is a rebuild, not a delta: 0.
    pub(crate) fn delta_count(&self) -> u64 {
        match self {
            Mutation::Deltas(deltas) => deltas.len() as u64,
            Mutation::KeywordUpdates(updates) => updates.len() as u64,
            Mutation::Attach(_) => 0,
        }
    }
}

/// Who decides the LSN a [`Shard::apply`] publishes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lsn {
    /// A live mutation: the shard assigns `version + 1`.
    Assigned,
    /// A record that already has one (WAL replay, replication): anything
    /// but `version + 1` is a gap or a duplicate and is refused with the
    /// shard untouched.
    Expected(u64),
}

/// What a shard's object sets and counters start from.
pub(crate) struct Seed {
    pub epoch: u64,
    pub version: u64,
    /// `None` = the tree never had an object set attached.
    pub objects: Option<Vec<(ObjectId, IndoorPoint)>>,
    /// `None` = the engine never had a keyword index attached.
    pub keywords: Option<Vec<(ObjectId, IndoorPoint, Vec<String>)>>,
}

impl Seed {
    /// A venue's birth (`add_venue`, a `Create` record): the config's
    /// positional sets at epoch 0 / version 0. An empty set attaches
    /// nothing, so a venue born without objects reports no object index
    /// on every path that builds it.
    pub(crate) fn positional(config: &ShardConfig) -> Seed {
        let id = |i: usize| ObjectId(i as u32);
        let objects = config.objects.iter().enumerate();
        let keywords = config.keywords.iter().enumerate();
        Seed {
            epoch: 0,
            version: 0,
            objects: (!config.objects.is_empty())
                .then(|| objects.map(|(i, &p)| (id(i), p)).collect()),
            keywords: (!config.keywords.is_empty())
                .then(|| keywords.map(|(i, (p, l))| (id(i), *p, l.clone())).collect()),
        }
    }
}

/// The first of `points` naming a partition `venue` does not have.
/// Checked once where an outside object set meets a shard — both seeds of
/// [`Shard::build`], an attach in [`Shard::apply`] (delta batches are
/// checked by their own validation) — because the tree indexes its
/// partition → leaf map unguarded.
fn first_outside<'a>(
    venue: &Venue,
    points: impl IntoIterator<Item = (ObjectId, &'a IndoorPoint)>,
) -> Option<(ObjectId, PartitionId)> {
    let n = venue.num_partitions();
    let mut points = points.into_iter();
    let (id, p) = points.find(|(_, p)| p.partition.index() >= n)?;
    Some((id, p.partition))
}

/// One venue's serving state.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Built once, never replaced: object and keyword sets swap *inside*
    /// it (copy-on-write snapshots behind their own generation counters),
    /// so queries borrow it through the `Arc<Shard>` they already hold.
    pub(crate) engine: Arc<QueryEngine>,
    /// Wholesale rebuild count (bumped by an attach) — observability.
    /// Written only by [`Shard::apply`], under the journal mutex.
    epoch: AtomicU64,
    /// Object-mutation count (rebuilds, deltas and keyword updates
    /// alike) — observability, and the **LSN** of the WAL record each
    /// mutation appends on a durable service. Written only by
    /// [`Shard::apply`], under the journal mutex, *after* `epoch`. Cache
    /// correctness keys on the *data* generation counters
    /// ([`crate::IpTree::objects_generation`],
    /// [`QueryEngine::keywords_generation`]), which bump on every swap no
    /// matter who triggers it, so even out-of-band mutation through a
    /// handle from [`IndoorService::engine`](super::IndoorService::engine)
    /// invalidates structurally.
    version: AtomicU64,
    pub(crate) cache: Mutex<ClockCache>,
    /// The shard's WAL append handle (`None` on a volatile service) —
    /// and, crucially, the **mutation-ordering lock**: [`Shard::apply`]
    /// holds it across *WAL append + install + version bump*, so log
    /// order is apply order (the LSN = version invariant), and a
    /// snapshot capture under the same lock is a consistent cut of that
    /// order. Queries never take it.
    pub(crate) journal: Mutex<Option<VenueWal>>,
    /// `Some(reason)` once the shard has entered read-only degraded mode
    /// (its journal can no longer be trusted). Sticky until restart.
    degraded: Mutex<Option<Arc<str>>>,
    /// In-flight budget and overload policy (persisted with the venue).
    pub(super) admission: AdmissionConfig,
    /// The admission gate; `None` when `max_in_flight` is 0 — unbounded
    /// shards pay zero admission cost.
    pub(super) gate: Option<AdmissionGate>,
    /// The journal's append-durability policy (persisted with the venue).
    sync: SyncPolicy,
    /// Live replication subscribers: every successful journal append is
    /// published here (under the journal lock, so subscribers see exactly
    /// the log order). Closed receivers are pruned lazily on publish.
    pub(crate) repl_taps: Mutex<Vec<std::sync::mpsc::Sender<crate::repl::WalEntry>>>,
    /// On a **follower** shard: the leader's version as last reported by
    /// the replication stream (0 on a leader). `venue_stats` surfaces
    /// `leader_version - version` as the follower's lag.
    pub(crate) leader_version: AtomicU64,
    /// Always-on counters and serving-phase histograms, wired once when
    /// the shard is published into a service.
    tel: std::sync::OnceLock<Arc<ShardTelemetry>>,
}

impl Shard {
    fn new(engine: Arc<QueryEngine>, config: &ShardConfig, epoch: u64, version: u64) -> Shard {
        let capacity = match config.cache_capacity {
            0 => DEFAULT_CACHE_CAPACITY,
            entries => entries,
        };
        let admission = config.admission;
        Shard {
            engine,
            epoch: AtomicU64::new(epoch),
            version: AtomicU64::new(version),
            cache: Mutex::new(ClockCache::new(capacity)),
            journal: Mutex::new(None),
            degraded: Mutex::new(None),
            gate: (admission.max_in_flight > 0)
                .then(|| AdmissionGate::new(admission.max_in_flight)),
            admission,
            sync: config.sync,
            repl_taps: Mutex::new(Vec::new()),
            leader_version: AtomicU64::new(0),
            tel: std::sync::OnceLock::new(),
        }
    }

    /// Build a journal-less shard: tree, engine, seeded object and
    /// keyword sets, cache and admission gate. Every way a venue comes to
    /// exist — `add_venue`, a replayed or replicated `Create` record, a
    /// snapshot slot — is this function over a different [`Seed`].
    pub(crate) fn build(
        venue: Arc<Venue>,
        config: &ShardConfig,
        seed: Seed,
    ) -> Result<Shard, BuildError> {
        let objects = seed.objects.iter().flatten().map(|(id, p)| (*id, p));
        let keywords = seed.keywords.iter().flatten().map(|(id, p, _)| (*id, p));
        if let Some((id, p)) = first_outside(&venue, objects.chain(keywords)) {
            return Err(BuildError::BadPartition(id, p));
        }
        let tree = VipTree::build(venue, &config.tree)?;
        if let Some(objects) = seed.objects {
            tree.attach_objects_with_ids(&objects);
        }
        let mut engine = QueryEngine::for_vip(Arc::new(tree)).with_threads(config.threads);
        if let Some(keywords) = seed.keywords {
            let kw = KeywordObjects::build_with_ids(engine.tree().ip(), &keywords);
            engine = engine.with_keywords(Arc::new(kw));
        }
        Ok(Shard::new(
            Arc::new(engine),
            config,
            seed.epoch,
            seed.version,
        ))
    }

    /// The config head this shard runs with — the inverse of
    /// [`Shard::build`], minus the seed (a snapshot stores the live sets
    /// instead). The cache default is resolved, so what is persisted is
    /// what is served.
    pub(crate) fn config_head(&self) -> ShardConfig {
        ShardConfig {
            tree: self.engine.tree().ip().build_config().clone(),
            threads: self.engine.configured_threads(),
            cache_capacity: self.cache.lock().expect("cache poisoned").capacity(),
            admission: self.admission,
            sync: self.sync,
            ..ShardConfig::default()
        }
    }

    /// This shard's append-durability policy.
    pub(crate) fn sync_policy(&self) -> SyncPolicy {
        self.sync
    }

    /// The object-set version — the LSN of the last applied mutation.
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// `(epoch, version)`. The version is read first: [`Shard::apply`]
    /// stores the epoch before it, so a reader never holds a version
    /// whose epoch bump it cannot see.
    pub(crate) fn counters(&self) -> (u64, u64) {
        let version = self.version();
        (self.epoch.load(Ordering::Acquire), version)
    }

    /// Attach the shard's instruments (first call wins).
    pub(crate) fn set_telemetry(&self, tel: Arc<ShardTelemetry>) {
        let _ = self.tel.set(tel);
    }

    /// The shard's instruments once wired, whatever the sampling gate —
    /// the way to its always-on counters.
    #[inline]
    pub(super) fn wired(&self) -> Option<&ShardTelemetry> {
        self.tel.get().map(|t| t.as_ref())
    }

    /// The shard's instruments, iff wired **and** the global sampling
    /// gate is open. Every serving-path timer goes through this, so
    /// `telemetry::set_sampling(false)` drops the timing to a load +
    /// branch.
    #[inline]
    pub(super) fn tel(&self) -> Option<&ShardTelemetry> {
        if !crate::telemetry::sampling_enabled() {
            return None;
        }
        self.wired()
    }

    /// Enter read-only degraded mode. Sticky: the first reason wins and
    /// later failures do not overwrite it.
    pub(crate) fn degrade(&self, reason: impl Into<String>) {
        let mut d = self.degraded.lock().expect("degraded lock");
        if d.is_none() {
            *d = Some(Arc::from(reason.into()));
        }
    }

    pub(crate) fn degraded_reason(&self) -> Option<Arc<str>> {
        self.degraded.lock().expect("degraded lock").clone()
    }

    /// Refuse mutations on a degraded shard (reads stay open).
    pub(crate) fn ensure_writable(&self, venue: VenueId) -> Result<(), ServiceError> {
        match self.degraded_reason() {
            Some(reason) => Err(ServiceError::Degraded(venue, reason)),
            None => Ok(()),
        }
    }

    /// Append one record to the shard's journal (no-op when it has
    /// none). On failure the caller's mutation **must not** be applied;
    /// if the append's own rollback also failed the journal is poisoned
    /// and the shard drops into degraded mode here.
    pub(super) fn journal_append(
        &self,
        journal: &mut Option<VenueWal>,
        venue: VenueId,
        lsn: u64,
        record: &WalRecord<'_>,
    ) -> Result<(), ServiceError> {
        let Some(wal) = journal.as_mut() else {
            return Ok(());
        };
        let t0 = self.tel().map(|_| Instant::now());
        let appended = wal.append(lsn, record);
        if let (Some(t0), Some(tel)) = (t0, self.tel()) {
            tel.wal_append_us.record(t0.elapsed().as_micros() as u64);
        }
        match appended {
            Ok(()) => {
                // Publish to live replication subscribers. Still under the
                // journal lock (the caller holds it across append + apply),
                // so taps observe exactly the log order with no gaps between
                // a subscriber's suffix fetch and its live tail. The payload
                // is re-encoded once and shared.
                let mut taps = self.repl_taps.lock().expect("repl taps lock");
                if !taps.is_empty() {
                    let payload: Arc<[u8]> = wal::encode_record(lsn, record).into();
                    taps.retain(|tap| tap.send((lsn, payload.clone())).is_ok());
                }
                Ok(())
            }
            Err(e) => {
                if wal.poisoned() {
                    self.degrade(format!(
                        "WAL append of LSN {lsn} failed and its rollback failed: {e}"
                    ));
                }
                Err(ServiceError::Persist(venue, Arc::new(e)))
            }
        }
    }

    /// Absorb one mutation: *validate/prepare → journal → install →
    /// publish version*. The only code that changes a serving shard —
    /// live calls, WAL replay and replication all end here — and the
    /// order is the contract:
    ///
    /// * a batch that fails validation journals nothing;
    /// * a batch that fails to journal installs nothing
    ///   (journal-before-apply: memory never runs ahead of the log);
    /// * the journal mutex is held across append + install + bump, so log
    ///   order is apply order and LSN = version;
    /// * `epoch` is stored before `version` (see [`Shard::counters`]).
    ///
    /// Returns the LSN published and what the batch did (all zeros for an
    /// attach). An [`Lsn::Expected`] that is not `version + 1` fails with
    /// [`ServiceError::Replication`] before anything is touched.
    pub(crate) fn apply(
        &self,
        venue: VenueId,
        mutation: Mutation<'_>,
        lsn: Lsn,
    ) -> Result<(u64, DeltaReport), ServiceError> {
        /// A validated next snapshot, not yet visible to any query.
        enum Staged<'t> {
            Deltas(crate::knn::PreparedObjectDeltas<'t>),
            Keywords(KeywordObjects, DeltaReport),
            Attach(ObjectIndex),
        }
        let ip = self.engine.tree().ip();
        let invalid = |e| ServiceError::Delta(venue, e);
        // A replacement set depends on nothing the mutex orders: build it
        // first, so other updaters never wait out an index build.
        let replacement = match &mutation {
            Mutation::Attach(objects) => {
                let ids = (0..).map(ObjectId);
                if let Some((id, p)) = first_outside(ip.venue(), ids.zip(objects.iter())) {
                    return Err(invalid(DeltaError::BadPartition(id, p)));
                }
                Some(ObjectIndex::build(ip, objects))
            }
            _ => None,
        };
        let mut journal = self.journal.lock().expect("journal lock");
        self.ensure_writable(venue)?;
        let version = self.version();
        let next = match lsn {
            Lsn::Expected(lsn) if lsn != version + 1 => {
                return Err(ServiceError::Replication(
                    venue,
                    format!("LSN gap: record {lsn} against version {version}").into(),
                ))
            }
            _ => version + 1,
        };
        let staged = match &mutation {
            // Holds the tree's updater mutex until installed or dropped.
            Mutation::Deltas(deltas) => {
                Staged::Deltas(ip.prepare_object_deltas(deltas).map_err(invalid)?)
            }
            // The keyword index has no updater mutex of its own: this
            // clone-and-apply is serialised by the journal mutex.
            Mutation::KeywordUpdates(updates) => {
                let mut kw = match self.engine.keywords() {
                    Some(kw) => (*kw).clone(),
                    None => KeywordObjects::build(ip, &[]),
                };
                let report = kw.apply_delta(ip, updates).map_err(invalid)?;
                Staged::Keywords(kw, report)
            }
            Mutation::Attach(_) => Staged::Attach(replacement.expect("built above")),
        };
        self.journal_append(&mut journal, venue, next, &WalRecord::Mutation(mutation))?;
        // Each install swaps the snapshot in, then bumps its generation —
        // which is what invalidates cached answers.
        let (report, rebuilt) = match staged {
            Staged::Deltas(prepared) => (prepared.install(), false),
            Staged::Keywords(kw, report) => {
                self.engine.set_keywords(Some(Arc::new(kw)));
                (report, false)
            }
            Staged::Attach(index) => {
                ip.install_objects(index);
                (DeltaReport::default(), true)
            }
        };
        if rebuilt {
            self.epoch.fetch_add(1, Ordering::Release);
        }
        self.version.store(next, Ordering::Release);
        drop(journal);
        if rebuilt {
            // Memory hygiene only — correctness is carried by the stamps.
            self.cache.lock().expect("cache poisoned").clear();
        }
        Ok((next, report))
    }
}
