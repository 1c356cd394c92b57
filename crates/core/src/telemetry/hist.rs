//! Fixed-bucket log-linear latency histogram: lock-free recording via
//! per-bucket atomics, mergeable snapshots, rank-exact quantiles.
//!
//! Values are unsigned integers (the serving layer records microseconds).
//! Buckets follow the HDR scheme: each power-of-two octave above
//! `2^SUB_BITS` is split into `2^SUB_BITS` linear sub-buckets, so the
//! relative quantisation error is bounded by `2^-SUB_BITS` (12.5% at
//! `SUB_BITS = 3`) at every magnitude, and values below `2^SUB_BITS` are
//! recorded exactly. The whole `u64` range maps into [`N_BUCKETS`]
//! buckets — no clamping, no saturation.
//!
//! [`Histogram::record`] is one relaxed `fetch_add` on the value's bucket
//! plus a `fetch_add` on the sum and a `fetch_max` on the max: no locks,
//! no CAS loops, safe from any number of threads. [`HistSnapshot`] is the
//! read side: bucket counts copied out, mergeable across histograms
//! (shard × thread fan-in), with quantiles extracted by exact rank
//! selection over the bucket counts — p999 and max come from the same
//! data that fed p50, not from a sorted sample vector.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-bucket bits per octave (8 sub-buckets per power of two).
pub const SUB_BITS: u32 = 3;

const SUB: usize = 1 << SUB_BITS;
const SUB_MASK: u64 = (SUB as u64) - 1;

/// Total buckets covering all of `u64`: indices `0..SUB` record values
/// below `2^SUB_BITS` exactly; each later run of `SUB` buckets covers one
/// octave.
pub const N_BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// Bucket index of a value (total order preserving: `v <= w` implies
/// `index(v) <= index(w)`).
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let h = 63 - v.leading_zeros(); // h >= SUB_BITS
    let octave = (h - SUB_BITS + 1) as usize;
    (octave << SUB_BITS) + ((v >> (h - SUB_BITS)) & SUB_MASK) as usize
}

/// Smallest value mapping into bucket `i` (exact inverse of
/// [`bucket_index`] on bucket boundaries).
#[inline]
pub(crate) fn bucket_low(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let octave = (i >> SUB_BITS) as u32;
    let sub = (i as u64) & SUB_MASK;
    (1u64 << (octave + SUB_BITS - 1)) + (sub << (octave - 1))
}

/// Largest value mapping into bucket `i` (the inclusive `le` bound of
/// Prometheus-style cumulative buckets).
#[inline]
pub(crate) fn bucket_high(i: usize) -> u64 {
    if i + 1 >= N_BUCKETS {
        u64::MAX
    } else {
        bucket_low(i + 1) - 1
    }
}

/// Lock-free log-linear histogram. See the module docs for the bucket
/// scheme; `Default` is an empty histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; N_BUCKETS]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        let buckets: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.try_into().expect("N_BUCKETS atomics"),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Lock-free; callable concurrently from any number
    /// of threads.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copy the current counts out. Concurrent recorders may land between
    /// bucket reads — each bucket is individually exact and monotone, so a
    /// snapshot race can only *miss* in-flight records, never corrupt.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = vec![0u64; N_BUCKETS].into_boxed_slice();
        let mut count = 0u64;
        for (slot, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = b.load(Ordering::Relaxed);
            count += *slot;
        }
        HistSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Total values recorded so far (cheap; does not build a snapshot).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// A point-in-time copy of a [`Histogram`]: plain counts, mergeable,
/// queryable for rank-exact quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: Box<[u64]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot::empty()
    }
}

impl HistSnapshot {
    /// A snapshot with no recorded values.
    pub fn empty() -> HistSnapshot {
        HistSnapshot {
            buckets: vec![0u64; N_BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (wrapping on overflow, like the recorder).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value, exactly (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another snapshot in (bucket-wise addition — the result is
    /// exactly the snapshot of a histogram that had seen both streams).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]` by exact rank selection: the
    /// smallest recorded magnitude `v` such that at least `ceil(q * count)`
    /// records are `<= v`. Reported as the lower bound of the selected
    /// bucket, so values that land on bucket boundaries (all values below
    /// `2^SUB_BITS`, and every power-of-two multiple of `2^-SUB_BITS`) are
    /// returned exactly; others are under-reported by at most 12.5%.
    /// Returns 0 on an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_low(i);
            }
        }
        self.max
    }

    /// p50 shorthand.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// p90 shorthand.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// p99 shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// p999 shorthand.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Cumulative `(le, count)` pairs for text exposition: one pair per
    /// occupied bucket (upper bound inclusive), counts non-decreasing. The
    /// final implicit `+Inf` bucket is the total [`HistSnapshot::count`].
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            out.push((bucket_high(i), cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_inverts_on_lows() {
        for i in 0..N_BUCKETS {
            let low = bucket_low(i);
            assert_eq!(bucket_index(low), i, "bucket_low({i}) = {low} round-trip");
            if i > 0 {
                assert!(bucket_low(i) > bucket_low(i - 1));
            }
        }
        // Spot-check ordering across magnitudes, including u64::MAX.
        let probes = [0u64, 1, 7, 8, 9, 15, 16, 17, 1000, 1 << 40, u64::MAX];
        for w in probes.windows(2) {
            assert!(bucket_index(w[0]) <= bucket_index(w[1]));
        }
        assert!(bucket_index(u64::MAX) < N_BUCKETS);
    }

    #[test]
    fn small_values_are_exact_and_quantiles_rank_correctly() {
        let h = Histogram::new();
        for v in [1u64, 1, 2, 3, 4, 5, 6, 7] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 8);
        assert_eq!(s.max(), 7);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.p50(), 3); // rank 4 of [1,1,2,3,4,5,6,7]
        assert_eq!(s.quantile(1.0), 7);
        assert_eq!(s.sum(), 29);
    }

    #[test]
    fn merge_equals_single_stream() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 17)
            } else {
                b.record(v * 17)
            }
            all.record(v * 17);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, all.snapshot());
    }

    #[test]
    fn cumulative_buckets_are_nondecreasing_and_total() {
        let h = Histogram::new();
        for v in [3u64, 3, 900, 1_000_000, 12] {
            h.record(v);
        }
        let s = h.snapshot();
        let cum = s.cumulative_buckets();
        assert!(!cum.is_empty());
        for w in cum.windows(2) {
            assert!(w[0].0 < w[1].0, "le bounds strictly increase");
            assert!(w[0].1 <= w[1].1, "cumulative counts non-decreasing");
        }
        assert_eq!(cum.last().unwrap().1, s.count());
    }
}
