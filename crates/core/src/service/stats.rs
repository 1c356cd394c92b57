//! The service's instruments and the views over them. Each count has one
//! store, a [`Registry`] counter (DESIGN.md §15.2), which `stats()`,
//! `venue_stats()` and the metrics page all read. Counters are always
//! on; only the histograms and the traces sit behind the sampling gate.

use super::{IndoorService, ServiceError, Shard};
use crate::telemetry::{Counter, Histogram, InstrumentSnapshot, Registry};
use indoor_model::metrics::{MetricValue, MetricsSnapshot, Series};
use indoor_model::{QueryKind, VenueId};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Every series family [`IndoorService::metrics_snapshot`] puts on the
/// page of a live service, with its Prometheus type, in page order. The
/// page carries exactly these once a venue is registered: a family
/// missing or retyped means a counter moved store or a publish site was
/// dropped, which the structural lint alone cannot see. A new family is
/// added here on purpose. Every program that lints a page checks it
/// against this list: `metrics_smoke`, the net suite's
/// `metrics_page_fetches_over_the_wire_and_lints_clean` and this crate's
/// `metrics_snapshot_encodes_clean_and_retires_removed_venues`.
pub const METRIC_FAMILIES: &[(&str, &str)] = &[
    ("indoor_admission_capacity", "gauge"),
    ("indoor_admission_timeouts_total", "counter"),
    ("indoor_admission_wait_us", "histogram"),
    ("indoor_cache_capacity", "gauge"),
    ("indoor_cache_evictions_total", "counter"),
    ("indoor_cache_hits_total", "counter"),
    ("indoor_cache_probe_us", "histogram"),
    ("indoor_cached_entries", "gauge"),
    ("indoor_degraded", "gauge"),
    ("indoor_degraded_venues", "gauge"),
    ("indoor_deltas_absorbed_total", "counter"),
    ("indoor_in_flight", "gauge"),
    ("indoor_kbest_updates_total", "counter"),
    ("indoor_latency_ns_total", "counter"),
    ("indoor_leaf_grid_builds_total", "counter"),
    ("indoor_live_objects", "gauge"),
    ("indoor_nodes_pruned_total", "counter"),
    ("indoor_nodes_pushed_total", "counter"),
    ("indoor_object_compactions_total", "counter"),
    ("indoor_object_leaf_builds_total", "counter"),
    ("indoor_object_leaf_touches_total", "counter"),
    ("indoor_object_slots", "gauge"),
    ("indoor_path_fallbacks_total", "counter"),
    ("indoor_phase_descent_us", "histogram"),
    ("indoor_phase_heap_us", "histogram"),
    ("indoor_phase_leaf_fold_us", "histogram"),
    ("indoor_queries_total", "counter"),
    ("indoor_query_latency_us", "histogram"),
    ("indoor_replication_lag", "gauge"),
    ("indoor_shard_epoch", "gauge"),
    ("indoor_shard_version", "gauge"),
    ("indoor_shed_total", "counter"),
    ("indoor_slab_rows_total", "counter"),
    ("indoor_traced_queries_total", "counter"),
    ("indoor_venues", "gauge"),
    ("indoor_wal_append_us", "histogram"),
];

/// One shard's instruments in the service registry, wired once when the
/// shard is published.
#[derive(Debug)]
pub(crate) struct ShardTelemetry {
    /// Clock (second-chance) cache evictions. Always on, like the two
    /// admission counters below: these counts are contracts, not samples.
    pub(super) evictions: Arc<Counter>,
    /// Requests shed at the admission gate ([`super::OverloadPolicy::Shed`]).
    pub(super) shed: Arc<Counter>,
    /// Requests timed out waiting at the admission gate
    /// ([`super::OverloadPolicy::Block`]).
    pub(super) timeouts: Arc<Counter>,
    /// Time spent taking an admission permit (µs) — includes blocking
    /// waits under [`super::OverloadPolicy::Block`], and the failed
    /// attempts of shed/timed-out requests. This and the histograms below
    /// record only while the sampling gate is open (`Shard::tel`).
    pub(super) admission_wait_us: Arc<Histogram>,
    /// Result-cache probe time (µs), including the cache-lock wait.
    pub(super) cache_probe_us: Arc<Histogram>,
    /// WAL append + fsync time (µs) per the shard's
    /// [`super::SyncPolicy`].
    pub(super) wal_append_us: Arc<Histogram>,
    /// End-to-end serving latency per query kind (µs), indexed by
    /// [`QueryKind::index`]. Batch misses apportion wall time equally,
    /// matching [`KindStats::latency_ns`].
    query_latency_us: [Arc<Histogram>; QueryKind::COUNT],
}

/// One query kind's service-wide serving counters.
#[derive(Debug)]
pub(crate) struct KindSeries {
    queries: Arc<Counter>,
    cache_hits: Arc<Counter>,
    latency_ns: Arc<Counter>,
}

impl KindSeries {
    /// Every kind's series in `reg`, indexed by [`QueryKind::index`].
    pub(super) fn register(reg: &Registry) -> [KindSeries; QueryKind::COUNT] {
        QueryKind::ALL.map(|kind| {
            let kl: &[(&str, &str)] = &[("kind", kind.label())];
            KindSeries {
                queries: reg.counter(
                    "indoor_queries_total",
                    "Requests answered, hits and misses alike",
                    kl,
                ),
                cache_hits: reg.counter(
                    "indoor_cache_hits_total",
                    "Requests answered from the result cache",
                    kl,
                ),
                latency_ns: reg.counter(
                    "indoor_latency_ns_total",
                    "Cumulative serving wall time (ns)",
                    kl,
                ),
            }
        })
    }
}

/// Snapshot of one query kind's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindStats {
    pub kind: QueryKind,
    /// Requests answered (hits + misses).
    pub queries: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Total serving latency. Batch misses apportion the batch's wall
    /// time equally over its requests.
    pub latency_ns: u64,
}

impl KindStats {
    /// Fraction of requests served from cache (0 when none seen).
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Mean serving latency in nanoseconds (0 when none seen).
    pub fn mean_latency_ns(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.latency_ns as f64 / self.queries as f64
        }
    }
}

/// Point-in-time snapshot of a service's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Registered venue shards.
    pub venues: usize,
    /// Live result-cache entries summed over shards (includes entries
    /// whose stamp has gone stale but which eviction has not reclaimed
    /// yet).
    pub cached_entries: usize,
    /// Result-cache capacity summed over shards.
    pub cache_capacity: usize,
    /// Clock-eviction count summed over shards.
    pub evictions: u64,
    /// In-flight query weight currently admitted, summed over bounded
    /// shards (unbounded shards report 0 — they do not track occupancy).
    pub in_flight: usize,
    /// Admission capacity summed over bounded shards.
    pub admission_capacity: usize,
    /// Requests shed at admission ([`super::OverloadPolicy::Shed`]).
    pub shed: u64,
    /// Requests that timed out waiting for admission
    /// ([`super::OverloadPolicy::Block`]).
    pub admission_timeouts: u64,
    /// Venues in read-only degraded mode.
    pub degraded_venues: usize,
    /// Individual object deltas absorbed across all venues since this
    /// process started: batch sizes summed over every delta and keyword
    /// batch applied — live calls ([`IndoorService::mutate`]) and records
    /// shipped to a follower ([`IndoorService::apply_replicated`]) alike.
    /// Rejected batches, wholesale attaches and records replayed by
    /// [`IndoorService::open`] count nothing.
    pub deltas_absorbed: u64,
    /// Per-kind counters, indexed by [`QueryKind::index`].
    pub kinds: [KindStats; QueryKind::COUNT],
}

impl ServiceStats {
    /// The counters of one query kind.
    pub fn kind(&self, kind: QueryKind) -> &KindStats {
        &self.kinds[kind.index()]
    }

    /// Requests answered across all kinds.
    pub fn total_queries(&self) -> u64 {
        self.kinds.iter().map(|k| k.queries).sum()
    }

    /// Cache hits across all kinds.
    pub fn total_cache_hits(&self) -> u64 {
        self.kinds.iter().map(|k| k.cache_hits).sum()
    }

    /// Overall cache hit rate (0 when no requests seen).
    pub fn hit_rate(&self) -> f64 {
        let q = self.total_queries();
        if q == 0 {
            0.0
        } else {
            self.total_cache_hits() as f64 / q as f64
        }
    }
}

/// Point-in-time snapshot of **one** venue shard, from
/// [`IndoorService::venue_stats`] — the per-venue view the scenario lab
/// reads to tell a flash-crowd victim from its idle neighbours (the
/// aggregate [`ServiceStats`] sums these over shards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    pub venue: VenueId,
    /// Rebuild epoch (bumps on [`IndoorService::attach_objects`]).
    pub epoch: u64,
    /// Object-set version (bumps on every object mutation).
    pub version: u64,
    /// Live result-cache entries (including stale-but-unevicted ones).
    pub cached_entries: usize,
    /// Result-cache capacity.
    pub cache_capacity: usize,
    /// Clock-eviction count.
    pub evictions: u64,
    /// Admitted in-flight query weight (0 on an unbounded shard).
    pub in_flight: usize,
    /// Admission capacity (0 = unbounded).
    pub admission_capacity: usize,
    /// Requests shed at this shard's gate.
    pub shed: u64,
    /// Requests that timed out waiting at this shard's gate.
    pub admission_timeouts: u64,
    /// On a replication **follower**: applied-LSN gap behind the leader
    /// (`leader version − local version` at the last stream report).
    /// Always 0 on a leader and on venues never fed by a follower.
    pub replication_lag: u64,
    /// Why the shard is read-only, if it is.
    pub degraded: Option<String>,
    /// The shard's object-index anatomy
    /// ([`crate::objects::ObjectIndexStats`] folded in): leaf pages built
    /// over the venue's lifetime.
    pub object_leaf_builds: u64,
    /// Object-index leaf pages touched by delta application.
    pub object_leaf_touches: u64,
    /// Object-index compaction passes.
    pub object_compactions: u64,
    /// Live objects in the index.
    pub live_objects: usize,
    /// Allocated object slots (live + tombstoned).
    pub object_slots: usize,
    /// Leaf door-grids built so far (lazy: ≤ leaf count until every leaf
    /// has served an own-leaf scan or an audit forced the rest).
    pub leaf_grid_builds: u64,
    /// Shortest-path door pairs expanded by Dijkstra (DESIGN.md §2).
    pub path_fallbacks: u64,
}

impl IndoorService {
    /// Create the venue-labelled instruments for a shard being published
    /// (DESIGN.md §15 names) and wire them into the shard (always-on
    /// counters, serving-phase histograms) and its engine (per-query phase
    /// timings and hot-path counters). Called at every publish site —
    /// `add_venue` (both paths), recovery, and replicated venue birth —
    /// and idempotent per venue: the registry get-or-creates by
    /// `(name, labels)`, so re-publishing re-attaches to the same series.
    pub(crate) fn wire_telemetry(&self, shard: &Shard, venue: VenueId) {
        let v = venue.index().to_string();
        let vl: &[(&str, &str)] = &[("venue", &v)];
        let reg = &self.registry;
        let query_latency_us = QueryKind::ALL.map(|kind| {
            reg.histogram(
                "indoor_query_latency_us",
                "End-to-end serving latency by query kind (us)",
                &[("venue", &v), ("kind", kind.label())],
            )
        });
        shard.set_telemetry(Arc::new(ShardTelemetry {
            evictions: reg.counter(
                "indoor_cache_evictions_total",
                "Clock (second-chance) evictions",
                vl,
            ),
            shed: reg.counter(
                "indoor_shed_total",
                "Requests shed at the admission gate",
                vl,
            ),
            timeouts: reg.counter(
                "indoor_admission_timeouts_total",
                "Requests timed out waiting at the admission gate",
                vl,
            ),
            admission_wait_us: reg.histogram(
                "indoor_admission_wait_us",
                "Admission permit wait, including shed and timed-out attempts (us)",
                vl,
            ),
            cache_probe_us: reg.histogram(
                "indoor_cache_probe_us",
                "Result-cache probe time, including the cache lock wait (us)",
                vl,
            ),
            wal_append_us: reg.histogram(
                "indoor_wal_append_us",
                "WAL append + fsync time under the shard's sync policy (us)",
                vl,
            ),
            query_latency_us,
        }));
        shard
            .engine
            .set_telemetry(Arc::new(crate::exec::EngineTelemetry {
                descent_us: reg.histogram(
                    "indoor_phase_descent_us",
                    "Per-query tree descent/ascent phase time (us)",
                    vl,
                ),
                leaf_fold_us: reg.histogram(
                    "indoor_phase_leaf_fold_us",
                    "Per-query own-leaf door-grid fold phase time (us)",
                    vl,
                ),
                heap_us: reg.histogram(
                    "indoor_phase_heap_us",
                    "Per-query result heap drain/sort phase time (us)",
                    vl,
                ),
                nodes_pushed: reg.counter(
                    "indoor_nodes_pushed_total",
                    "Branch-and-bound candidates pushed",
                    vl,
                ),
                nodes_pruned: reg.counter(
                    "indoor_nodes_pruned_total",
                    "Candidates pruned by the admissible lower bound",
                    vl,
                ),
                slab_rows: reg.counter(
                    "indoor_slab_rows_total",
                    "SoA distance-slab rows walked",
                    vl,
                ),
                kbest_updates: reg.counter(
                    "indoor_kbest_updates_total",
                    "k-best set insertions during leaf scans",
                    vl,
                ),
                traced_queries: reg.counter(
                    "indoor_traced_queries_total",
                    "Queries that ran with tracing sampled on",
                    vl,
                ),
            }));
    }

    /// Count one answered request: its kind's service-wide counters
    /// (always on) and the venue's latency histogram (while the sampling
    /// gate is open).
    pub(super) fn count_answer(
        &self,
        shard: &Shard,
        kind: QueryKind,
        hit: bool,
        elapsed: Duration,
    ) {
        if let Some(tel) = shard.tel() {
            tel.query_latency_us[kind.index()].record(elapsed.as_micros() as u64);
        }
        let k = &self.kinds[kind.index()];
        k.queries.inc();
        if hit {
            k.cache_hits.inc();
        }
        k.latency_ns.add(elapsed.as_nanos() as u64);
    }

    /// Snapshot the per-kind counters, cache occupancy, admission gauges
    /// and degradation state: [`IndoorService::venue_stats`] summed over
    /// the registered venues.
    pub fn stats(&self) -> ServiceStats {
        let venues = self.all_venue_stats();
        let size = |f: fn(&ShardStats) -> usize| venues.iter().map(f).sum();
        let count = |f: fn(&ShardStats) -> u64| venues.iter().map(f).sum();
        ServiceStats {
            venues: venues.len(),
            cached_entries: size(|v| v.cached_entries),
            cache_capacity: size(|v| v.cache_capacity),
            evictions: count(|v| v.evictions),
            in_flight: size(|v| v.in_flight),
            admission_capacity: size(|v| v.admission_capacity),
            shed: count(|v| v.shed),
            admission_timeouts: count(|v| v.admission_timeouts),
            degraded_venues: size(|v| usize::from(v.degraded.is_some())),
            deltas_absorbed: self.deltas_absorbed.get(),
            kinds: QueryKind::ALL.map(|kind| {
                let k = &self.kinds[kind.index()];
                KindStats {
                    kind,
                    queries: k.queries.get(),
                    cache_hits: k.cache_hits.get(),
                    latency_ns: k.latency_ns.get(),
                }
            }),
        }
    }

    /// Snapshot **one** venue's serving state — version/epoch, cache
    /// occupancy, admission gauges, degradation. The per-venue complement
    /// of the service-wide [`IndoorService::stats`]; the scenario lab
    /// reads it to attribute shed/timeout counts to the flash-crowd venue
    /// rather than the whole fleet.
    pub fn venue_stats(&self, venue: VenueId) -> Result<ShardStats, ServiceError> {
        let shard = self.shard(venue)?;
        let (epoch, version) = shard.counters();
        let (cached_entries, cache_capacity) = {
            let cache = shard.cache.lock().expect("cache poisoned");
            (cache.map.len(), cache.capacity)
        };
        let count = |c: fn(&ShardTelemetry) -> &Counter| shard.wired().map_or(0, |t| c(t).get());
        let (in_flight, admission_capacity) = match &shard.gate {
            Some(gate) => (gate.in_flight(), gate.limit()),
            None => (0, 0),
        };
        let ip = shard.engine.tree().ip();
        let obj = ip
            .object_index()
            .map(|idx| idx.index_stats())
            .unwrap_or_default();
        Ok(ShardStats {
            venue,
            epoch,
            version,
            cached_entries,
            cache_capacity,
            evictions: count(|t| &t.evictions),
            in_flight,
            admission_capacity,
            shed: count(|t| &t.shed),
            admission_timeouts: count(|t| &t.timeouts),
            replication_lag: shard
                .leader_version
                .load(Ordering::Acquire)
                .saturating_sub(version),
            degraded: shard.degraded_reason().map(|r| r.to_string()),
            object_leaf_builds: obj.leaf_builds,
            object_leaf_touches: obj.leaf_touches,
            object_compactions: obj.compactions,
            live_objects: obj.live,
            object_slots: obj.slots,
            leaf_grid_builds: ip.leaf_grid_builds(),
            path_fallbacks: ip.decompose_fallback_count(),
        })
    }

    /// [`IndoorService::venue_stats`] of every registered venue (a venue
    /// removed mid-walk is skipped).
    fn all_venue_stats(&self) -> Vec<ShardStats> {
        let venues = self.venues().into_iter();
        venues.filter_map(|v| self.venue_stats(v).ok()).collect()
    }

    /// Gather every registered instrument into the wire-facing
    /// [`MetricsSnapshot`] (encoded by `indoor_model::metrics::encode_text`,
    /// served by `NetServer` as a `MetricsText` frame). Counters and
    /// histograms come from the registry alone. Appended from live state —
    /// never resident in the registry, so a snapshot reflects this instant
    /// and a removed venue leaves no stale series — are the gauges and the
    /// anatomy counters that live inside the index itself.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut series: Vec<Series> = self
            .registry
            .gather()
            .into_iter()
            .map(|s| Series {
                name: s.name.to_string(),
                help: s.help.to_string(),
                labels: s.labels,
                value: match s.value {
                    InstrumentSnapshot::Counter(v) => MetricValue::Counter(v),
                    InstrumentSnapshot::Gauge(v) => MetricValue::Gauge(v as f64),
                    InstrumentSnapshot::Histogram(h) => MetricValue::Histogram {
                        buckets: h.cumulative_buckets(),
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                    },
                },
            })
            .collect();
        let mut push =
            |name: &str, help: &str, labels: Vec<(String, String)>, value: MetricValue| {
                series.push(Series {
                    name: name.to_string(),
                    help: help.to_string(),
                    labels,
                    value,
                });
            };
        let venues = self.all_venue_stats();
        let degraded = venues.iter().filter(|vs| vs.degraded.is_some()).count();
        push(
            "indoor_venues",
            "Registered venues",
            vec![],
            MetricValue::Gauge(venues.len() as f64),
        );
        push(
            "indoor_degraded_venues",
            "Venues in read-only degraded mode",
            vec![],
            MetricValue::Gauge(degraded as f64),
        );
        for vs in venues {
            let vl = vec![("venue".to_string(), vs.venue.index().to_string())];
            let gauges: [(&str, &str, f64); 10] = [
                ("indoor_shard_epoch", "Rebuild epoch", vs.epoch as f64),
                (
                    "indoor_shard_version",
                    "Object-set version (the WAL LSN)",
                    vs.version as f64,
                ),
                (
                    "indoor_cached_entries",
                    "Live result-cache entries",
                    vs.cached_entries as f64,
                ),
                (
                    "indoor_cache_capacity",
                    "Result-cache capacity",
                    vs.cache_capacity as f64,
                ),
                (
                    "indoor_in_flight",
                    "Admitted in-flight query weight",
                    vs.in_flight as f64,
                ),
                (
                    "indoor_admission_capacity",
                    "Admission capacity, 0 = unbounded",
                    vs.admission_capacity as f64,
                ),
                (
                    "indoor_replication_lag",
                    "Follower applied-LSN gap behind the leader",
                    vs.replication_lag as f64,
                ),
                (
                    "indoor_degraded",
                    "1 when the shard is read-only degraded",
                    if vs.degraded.is_some() { 1.0 } else { 0.0 },
                ),
                (
                    "indoor_live_objects",
                    "Live objects in the shard's index",
                    vs.live_objects as f64,
                ),
                (
                    "indoor_object_slots",
                    "Allocated object slots (live + tombstoned)",
                    vs.object_slots as f64,
                ),
            ];
            for (name, help, v) in gauges {
                push(name, help, vl.clone(), MetricValue::Gauge(v));
            }
            let anatomy: [(&str, &str, u64); 5] = [
                (
                    "indoor_object_leaf_builds_total",
                    "Object-index leaf pages built",
                    vs.object_leaf_builds,
                ),
                (
                    "indoor_object_leaf_touches_total",
                    "Object-index leaf pages touched by delta application",
                    vs.object_leaf_touches,
                ),
                (
                    "indoor_object_compactions_total",
                    "Object-index compaction passes",
                    vs.object_compactions,
                ),
                (
                    "indoor_leaf_grid_builds_total",
                    "Leaf door-grids built (lazy; bounded by the leaf count)",
                    vs.leaf_grid_builds,
                ),
                (
                    "indoor_path_fallbacks_total",
                    "Shortest-path door pairs expanded by Dijkstra (no lower matrix)",
                    vs.path_fallbacks,
                ),
            ];
            for (name, help, v) in anatomy {
                push(name, help, vl.clone(), MetricValue::Counter(v));
            }
        }
        MetricsSnapshot { series }
    }
}
