//! The measured phase: generator lanes, slices, and their records.
//!
//! A *lane* is one generator thread running a closed loop. Each lane
//! cuts its own run into slices of equal operation count and closes a
//! slice with one reading of the wall clock, the process CPU clock and
//! the operations all lanes have answered, so a slice knows the
//! system-wide throughput and CPU per operation over its window and the
//! latency percentiles of its own operations.

use crate::estimators::{median, percentile, Summary};
use crate::host::{process_cpu_ns, ref_kernel_us};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A slice aims at this much wall time ...
const SLICE_SECONDS: f64 = 0.5;
/// ... and never holds fewer operations than this, so that its p99 has
/// at least 20 samples beyond it.
pub const MIN_SLICE_OPS: usize = 2000;
/// Length of the untimed calibration that sizes a lane's slices.
pub const CALIBRATION: Duration = Duration::from_millis(250);

/// Operations each lane has answered so far; shared by all lanes of a
/// phase.
pub struct Lanes(Vec<AtomicU64>);

impl Lanes {
    pub fn new(n: usize) -> Lanes {
        Lanes((0..n).map(|_| AtomicU64::new(0)).collect())
    }

    fn total(&self) -> u64 {
        // Relaxed: a statistic, read at slice boundaries only.
        self.0.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// Operations per slice for a lane that answered `ops` operations in
/// `elapsed` of calibration.
pub fn slice_ops(ops: u64, elapsed: Duration) -> usize {
    let rate = ops as f64 / elapsed.as_secs_f64().max(1e-9);
    ((rate * SLICE_SECONDS) as usize).max(MIN_SLICE_OPS)
}

#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    cpu_ns: u64,
    total_ops: u64,
}

/// One closed slice of one lane.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub start: Instant,
    pub end: Instant,
    /// Operations all lanes answered inside the window.
    pub total_ops: u64,
    /// Process CPU (all threads) spent inside the window.
    pub cpu_ns: u64,
    /// Latency percentiles of this lane's operations in the slice.
    pub p50_ns: u32,
    pub p99_ns: u32,
    /// The reference kernel, timed right after the slice closed.
    pub ref_kernel_us: f64,
}

impl Slice {
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Cuts one lane's stream of answered operations into [`Slice`]s.
pub struct Slicer<'a> {
    lanes: &'a Lanes,
    lane: usize,
    ops_per_slice: usize,
    latencies: Vec<u32>,
    done: u64,
    mark: Mark,
    pub slices: Vec<Slice>,
}

impl<'a> Slicer<'a> {
    /// Start slicing lane `lane` at `now`.
    pub fn begin(lanes: &'a Lanes, lane: usize, ops_per_slice: usize, now: Instant) -> Self {
        Slicer {
            lanes,
            lane,
            ops_per_slice,
            latencies: Vec::with_capacity(ops_per_slice),
            done: lanes.0[lane].load(Ordering::Relaxed),
            mark: Mark {
                at: now,
                cpu_ns: process_cpu_ns(),
                total_ops: lanes.total(),
            },
            slices: Vec::new(),
        }
    }

    /// Account one operation answered at `now` after `latency`. When the
    /// operation fills a slice, the slice is closed at `now` and the
    /// instant the next one starts is returned: closing takes a while
    /// (two selections over the slice's latencies, one reference kernel)
    /// that belongs to no slice, so a lane that stamps consecutively
    /// restarts from it.
    pub fn record(&mut self, now: Instant, latency: Duration) -> Option<Instant> {
        self.latencies
            .push(latency.as_nanos().min(u128::from(u32::MAX)) as u32);
        self.done += 1;
        self.lanes.0[self.lane].store(self.done, Ordering::Relaxed);
        if self.latencies.len() < self.ops_per_slice {
            return None;
        }
        let cpu_ns = process_cpu_ns();
        let total_ops = self.lanes.total();
        self.slices.push(Slice {
            start: self.mark.at,
            end: now,
            total_ops: total_ops - self.mark.total_ops,
            cpu_ns: cpu_ns - self.mark.cpu_ns,
            p50_ns: percentile(&mut self.latencies, 0.50),
            p99_ns: percentile(&mut self.latencies, 0.99),
            ref_kernel_us: ref_kernel_us(),
        });
        self.latencies.clear();
        self.mark = Mark {
            at: Instant::now(),
            cpu_ns: process_cpu_ns(),
            total_ops: self.lanes.total(),
        };
        Some(self.mark.at)
    }
}

/// The four timing metrics of a phase, each a summary over its slices.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimings {
    pub throughput_ops_s: Summary,
    pub query_p50_us: Summary,
    pub query_p99_us: Summary,
    pub cpu_us_per_op: Summary,
    pub ref_kernel_us: Summary,
}

impl PhaseTimings {
    pub fn of(slices: &[Slice]) -> PhaseTimings {
        let over =
            |f: &dyn Fn(&Slice) -> f64| Summary::of(&slices.iter().map(f).collect::<Vec<_>>());
        PhaseTimings {
            throughput_ops_s: over(&|s| s.total_ops as f64 / s.wall_s()),
            query_p50_us: over(&|s| f64::from(s.p50_ns) / 1e3),
            query_p99_us: over(&|s| f64::from(s.p99_ns) / 1e3),
            cpu_us_per_op: over(&|s| s.cpu_ns as f64 / 1e3 / s.total_ops.max(1) as f64),
            ref_kernel_us: over(&|s| s.ref_kernel_us),
        }
    }
}

/// Median p99 of the slices that overlap one of `windows` over the
/// median p99 of those that do not; `None` when either group is empty.
pub fn stall_ratio(slices: &[Slice], windows: &[(Instant, Instant)]) -> Option<f64> {
    let (mut hit, mut clear) = (Vec::new(), Vec::new());
    for s in slices {
        let overlaps = windows.iter().any(|&(a, b)| a < s.end && s.start < b);
        let p99 = f64::from(s.p99_ns);
        if overlaps {
            hit.push(p99);
        } else {
            clear.push(p99);
        }
    }
    if hit.is_empty() || clear.is_empty() {
        return None;
    }
    Some(median(&hit) / median(&clear))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_have_at_least_the_floor() {
        assert_eq!(slice_ops(10, Duration::from_millis(250)), MIN_SLICE_OPS);
        // 25 000 ops in 250 ms is 100 k/s: half a second holds 50 000.
        assert_eq!(slice_ops(25_000, Duration::from_millis(250)), 50_000);
    }

    #[test]
    fn slicer_closes_equal_op_count_slices() {
        let lanes = Lanes::new(2);
        let t0 = Instant::now();
        let mut s = Slicer::begin(&lanes, 0, 4, t0);
        let mut restarts = 0;
        for i in 1..=10u64 {
            // The other lane answers two operations per one of ours.
            lanes.0[1].store(2 * i, Ordering::Relaxed);
            let now = t0 + Duration::from_micros(10 * i);
            if s.record(now, Duration::from_nanos(100 * i)).is_some() {
                restarts += 1;
            }
        }
        assert_eq!((s.slices.len(), restarts), (2, 2), "10 ops, slices of 4");
        let first = s.slices[0];
        assert_eq!(first.start, t0);
        assert_eq!(first.end, t0 + Duration::from_micros(40));
        assert_eq!(
            first.total_ops,
            4 + 8,
            "own four and the other lane's eight"
        );
        assert_eq!((first.p50_ns, first.p99_ns), (200, 400));
        assert_eq!(s.slices[1].p50_ns, 600);
        assert!(s.slices[1].start >= first.end);
    }

    #[test]
    fn timings_are_medians_over_slices() {
        let t0 = Instant::now();
        let slice = |i: u64, p50: u32| Slice {
            start: t0 + Duration::from_secs(i),
            end: t0 + Duration::from_secs(i + 1),
            total_ops: 1000,
            cpu_ns: 2_000_000,
            p50_ns: p50,
            p99_ns: 10 * p50,
            ref_kernel_us: 1.0,
        };
        let t = PhaseTimings::of(&[slice(0, 1000), slice(1, 9000), slice(2, 2000)]);
        assert_eq!(t.throughput_ops_s.median, 1000.0);
        assert_eq!(t.query_p50_us.median, 2.0);
        assert_eq!(t.query_p99_us.median, 20.0);
        assert_eq!(t.cpu_us_per_op.median, 2.0);
        assert_eq!(t.query_p50_us.n, 3);
    }

    #[test]
    fn stall_ratio_compares_overlapping_slices() {
        let t0 = Instant::now();
        let slice = |i: u64, p99: u32| Slice {
            start: t0 + Duration::from_secs(i),
            end: t0 + Duration::from_secs(i + 1),
            total_ops: 1,
            cpu_ns: 1,
            p50_ns: 1,
            p99_ns: p99,
            ref_kernel_us: 1.0,
        };
        let slices = [slice(0, 100), slice(1, 300), slice(2, 100)];
        let window = (
            t0 + Duration::from_millis(1200),
            t0 + Duration::from_millis(1300),
        );
        assert_eq!(stall_ratio(&slices, &[window]), Some(3.0));
        assert_eq!(stall_ratio(&slices, &[]), None);
    }
}
