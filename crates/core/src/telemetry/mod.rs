//! Dependency-free telemetry kernel: lock-free counters, gauges and
//! log-linear latency histograms, a label-aware instrument [`Registry`],
//! the global sampling gate, and the per-query [`QueryTrace`] span state.
//!
//! # Design (DESIGN.md §15)
//!
//! Instruments are plain atomics — recording never locks, never
//! allocates, and is safe from any number of threads. The [`Registry`]
//! is the naming layer: `(name, sorted labels)` keys get-or-create
//! shared [`Arc`] instruments, so a shard and an exporter hold the same
//! counter without coordination. Reading is a [`Registry::gather`] walk
//! producing plain snapshots the serving layer turns into a
//! Prometheus-style text page (`indoor_model::metrics`).
//!
//! # The sampling gate and the trace sampler
//!
//! Per-query tracing costs a few guarded branches in the kernels; the
//! process-wide gate ([`set_sampling`] / [`sampling_enabled`]) turns it
//! on and off at runtime. The gate ships **enabled** by default: the
//! `telemetry_knn_on` / `telemetry_knn_off` cells of `query_bench` time
//! both sides, and it exits non-zero when a preset's on/off ratio
//! exceeds 1.10 (DESIGN.md §15.4).
//!
//! Two instrument classes hide behind the gate. **Always-on** series
//! (end-to-end latency, cache probe time) record on every request — one
//! atomic add against timestamps the serving path takes anyway.
//! **Sampled** series (the phase timers and hot-path counters of
//! [`QueryTrace`]) arm for one query in [`trace_interval`] per thread
//! ([`should_trace`]): wall-clock phase timing costs `Instant` reads per
//! tree level, too much to pay on every microsecond-scale query, and the
//! phase *distribution* is what the histograms exist for — 1-in-N of a
//! serving workload converges on the same shape. The first query on
//! every thread always traces, so tests and cold starts see phase data
//! deterministically.

mod hist;
mod trace;

pub use hist::{HistSnapshot, Histogram, N_BUCKETS, SUB_BITS};
pub use trace::QueryTrace;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Sampling gate
// ---------------------------------------------------------------------------

static SAMPLING: AtomicBool = AtomicBool::new(true);

/// Whether per-query tracing is currently sampled.
#[inline(always)]
pub fn sampling_enabled() -> bool {
    SAMPLING.load(Ordering::Relaxed)
}

/// Open or close the process-wide sampling gate, returning the previous
/// state.
pub fn set_sampling(on: bool) -> bool {
    SAMPLING.swap(on, Ordering::Relaxed)
}

/// Held by the unit tests that flip the process-wide gate, so one cannot
/// shut it under another that asserts it open.
#[cfg(test)]
pub(crate) static GATE_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// 1-in-N per-thread sampling interval for full query traces.
static TRACE_INTERVAL: AtomicU64 = AtomicU64::new(32);

thread_local! {
    /// Queries dispatched by this thread since it started — the trace
    /// sampler's clock. Thread-local so sampling never contends, at the
    /// cost of per-thread (not global) 1-in-N cadence.
    static TRACE_TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The current full-trace sampling interval (1 = trace every query).
pub fn trace_interval() -> u64 {
    TRACE_INTERVAL.load(Ordering::Relaxed)
}

/// Set the full-trace sampling interval, returning the previous one.
/// Clamped to ≥ 1.
pub fn set_trace_interval(n: u64) -> u64 {
    TRACE_INTERVAL.swap(n.max(1), Ordering::Relaxed)
}

/// Whether the query being dispatched on this thread should carry a full
/// phase trace: the gate is open *and* this thread's dispatch counter
/// hits the 1-in-[`trace_interval`] cadence. Advances the counter, so
/// call it exactly once per query, at the dispatch point. The first call
/// on any thread returns `true` (when the gate is open) — cold paths and
/// single-shot tests always produce one trace.
#[inline]
pub fn should_trace() -> bool {
    if !sampling_enabled() {
        return false;
    }
    let n = TRACE_TICK.with(|c| {
        let n = c.get();
        c.set(n.wrapping_add(1));
        n
    });
    n.is_multiple_of(TRACE_INTERVAL.load(Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins point-in-time value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A shared handle to one registered instrument.
#[derive(Debug, Clone)]
pub enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The read-side copy of one instrument, from [`Registry::gather`].
#[derive(Debug, Clone, PartialEq)]
pub enum InstrumentSnapshot {
    Counter(u64),
    Gauge(u64),
    Histogram(HistSnapshot),
}

/// One named, labelled series in a [`Registry::gather`] walk.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    pub name: &'static str,
    pub help: &'static str,
    /// Sorted `(key, value)` label pairs (the registry key order).
    pub labels: Vec<(String, String)>,
    pub value: InstrumentSnapshot,
}

#[derive(Debug)]
struct Registered {
    help: &'static str,
    inst: Instrument,
}

/// Registry key: instrument name plus its sorted label pairs.
type SeriesKey = (&'static str, Vec<(String, String)>);

/// Named instruments keyed by `(name, sorted labels)` — e.g.
/// `indoor_query_latency_us{venue="3", kind="knn"}`. Get-or-create: two
/// callers asking for the same key share one instrument. Registering the
/// same key as a different instrument type panics (a naming bug, not a
/// runtime condition).
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<HashMap<SeriesKey, Registered>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn key(name: &'static str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        (name, labels)
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("registry lock");
        let entry = inner
            .entry(Self::key(name, labels))
            .or_insert_with(|| Registered {
                help,
                inst: Instrument::Counter(Arc::new(Counter::new())),
            });
        match &entry.inst {
            Instrument::Counter(c) => c.clone(),
            other => panic!("{name} already registered as {other:?}, wanted a counter"),
        }
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("registry lock");
        let entry = inner
            .entry(Self::key(name, labels))
            .or_insert_with(|| Registered {
                help,
                inst: Instrument::Gauge(Arc::new(Gauge::new())),
            });
        match &entry.inst {
            Instrument::Gauge(g) => g.clone(),
            other => panic!("{name} already registered as {other:?}, wanted a gauge"),
        }
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("registry lock");
        let entry = inner
            .entry(Self::key(name, labels))
            .or_insert_with(|| Registered {
                help,
                inst: Instrument::Histogram(Arc::new(Histogram::new())),
            });
        match &entry.inst {
            Instrument::Histogram(h) => h.clone(),
            other => panic!("{name} already registered as {other:?}, wanted a histogram"),
        }
    }

    /// Snapshot every registered series, sorted by `(name, labels)` so the
    /// exposition page is stable across calls.
    pub fn gather(&self) -> Vec<SeriesSnapshot> {
        let inner = self.inner.lock().expect("registry lock");
        let mut out: Vec<SeriesSnapshot> = inner
            .iter()
            .map(|((name, labels), reg)| SeriesSnapshot {
                name,
                help: reg.help,
                labels: labels.clone(),
                value: match &reg.inst {
                    Instrument::Counter(c) => InstrumentSnapshot::Counter(c.get()),
                    Instrument::Gauge(g) => InstrumentSnapshot::Gauge(g.get()),
                    Instrument::Histogram(h) => InstrumentSnapshot::Histogram(h.snapshot()),
                },
            })
            .collect();
        out.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
        out
    }

    /// Drop every series carrying the exact label pair — venue retirement
    /// hygiene, so a removed venue's series stop being exported.
    pub fn remove_labeled(&self, key: &str, value: &str) {
        self.inner
            .lock()
            .expect("registry lock")
            .retain(|(_, labels), _| !labels.iter().any(|(k, v)| k == key && v == value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_shares_instruments_by_key_and_gathers_sorted() {
        let reg = Registry::new();
        let a = reg.counter("t_total", "help", &[("venue", "0"), ("kind", "knn")]);
        // Same key, different label order: same instrument.
        let b = reg.counter("t_total", "help", &[("kind", "knn"), ("venue", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        reg.gauge("t_gauge", "help", &[]).set(7);
        reg.histogram("t_us", "help", &[("venue", "0")]).record(5);
        let all = reg.gather();
        assert_eq!(all.len(), 3);
        let names: Vec<&str> = all.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["t_gauge", "t_total", "t_us"]);
        match &all[1].value {
            InstrumentSnapshot::Counter(v) => assert_eq!(*v, 3),
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn remove_labeled_retires_a_venues_series() {
        let reg = Registry::new();
        reg.counter("a_total", "h", &[("venue", "0")]);
        reg.counter("a_total", "h", &[("venue", "1")]);
        reg.gauge("b", "h", &[]);
        reg.remove_labeled("venue", "0");
        let all = reg.gather();
        assert_eq!(all.len(), 2);
        assert!(all
            .iter()
            .all(|s| !s.labels.contains(&("venue".into(), "0".into()))));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_on_one_key_panics() {
        let reg = Registry::new();
        reg.counter("same_name", "h", &[]);
        reg.gauge("same_name", "h", &[]);
    }

    #[test]
    fn sampling_gate_round_trips() {
        let _gate = GATE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = set_sampling(false);
        assert!(!sampling_enabled());
        set_sampling(true);
        assert!(sampling_enabled());
        set_sampling(prev);
    }

    #[test]
    fn trace_sampler_honors_interval_per_thread() {
        // Fresh thread: deterministic tick starting at zero, unpolluted
        // by other tests dispatching queries concurrently.
        let _gate = GATE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = set_trace_interval(0);
        assert_eq!(trace_interval(), 1, "interval 0 would divide by zero");
        set_trace_interval(4);
        let picks: Vec<bool> = std::thread::spawn(|| {
            let was = set_sampling(true);
            let picks = (0..9).map(|_| should_trace()).collect();
            set_sampling(was);
            picks
        })
        .join()
        .expect("sampler thread");
        set_trace_interval(prev);
        assert_eq!(
            picks,
            [true, false, false, false, true, false, false, false, true],
            "first call and every 4th after it trace"
        );
    }

    #[test]
    fn concurrent_histogram_records_merge_to_serial() {
        use std::sync::Arc;
        let serial = Histogram::new();
        let shared = Arc::new(Histogram::new());
        let values: Vec<u64> = (0..20_000u64).map(|i| (i * 2654435761) >> 16).collect();
        for &v in &values {
            serial.record(v);
        }
        std::thread::scope(|scope| {
            for chunk in values.chunks(values.len() / 8 + 1) {
                let shared = shared.clone();
                scope.spawn(move || {
                    for &v in chunk {
                        shared.record(v);
                    }
                });
            }
        });
        assert_eq!(shared.snapshot(), serial.snapshot());
    }
}
