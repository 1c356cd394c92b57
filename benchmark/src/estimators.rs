//! The estimators every timing metric goes through.
//!
//! A run is cut into slices of equal operation count; each metric is
//! computed per slice and reported as the **median over slices**, with
//! the quartiles beside it. A burst of host noise then spoils a few
//! slices, not the run's figure, which a whole-run mean cannot promise.

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule: the
/// smallest element with at least `q` of the sample at or below it.
/// Reorders `values`. Panics on an empty sample.
pub fn percentile(values: &mut [u32], q: f64) -> u32 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let rank = (q * values.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, values.len()) - 1;
    *values.select_nth_unstable(idx).1
}

/// Median and quartiles of a sample, by linear interpolation between
/// closest ranks (the "inclusive" method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values`; an empty sample reads 0 with `n` = 0.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            if v.is_empty() {
                return 0.0;
            }
            let pos = q * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Summary {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            n: v.len(),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} (q1 {:.4}, q3 {:.4}, n {})",
            self.median, self.q1, self.q3, self.n
        )
    }
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        let mut one = [7u32];
        assert_eq!(percentile(&mut one, 0.99), 7);
        // 2 000 samples leave 20 beyond the p99, the floor a slice keeps.
        let mut v: Vec<u32> = (0..2000).collect();
        let p99 = percentile(&mut v, 0.99);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 20);
    }

    #[test]
    fn summary_interpolates_quartiles() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert_eq!(Summary::of(&[]).n, 0);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn slice_median_shrugs_off_a_noisy_slice() {
        // 29 quiet slices and one that a neighbour doubled: the mean
        // moves 3 %, the median not at all.
        let mut slices = vec![100.0; 29];
        slices.push(200.0);
        assert_eq!(median(&slices), 100.0);
        let mean = slices.iter().sum::<f64>() / slices.len() as f64;
        assert!(mean > 103.0);
    }
}
