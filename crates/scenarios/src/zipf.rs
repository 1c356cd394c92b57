//! Zipf-skewed sampling with an integer exponent.
//!
//! Keyword popularity in search-style workloads is heavy-tailed: rank-1
//! terms dominate, the tail is long. The classic Zipf law draws rank `r`
//! (1-based) with weight `1/r^s`. This sampler restricts `s` to integers
//! so every weight is computed by repeated multiplication of exact IEEE
//! divisions — `powf` goes through libm and is **not** bit-identical
//! across platforms, which would break the stream fingerprints pinned
//! at seed 42 (`PINNED_FINGERPRINTS` in the matrix tests).

use indoor_model::KeywordSkew;
use rand::rngs::StdRng;
use rand::Rng;

/// Cumulative-weight sampler over ranks `0..n` (rank 0 most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    /// `cum[r]` = total weight of ranks `0..=r`, un-normalised.
    cum: Vec<f64>,
}

impl Zipf {
    /// Weights `1/(r+1)^exponent` for ranks `0..n`. `n` must be > 0;
    /// `exponent` is clamped to ≥ 1.
    pub fn new(n: u32, exponent: u32) -> Zipf {
        assert!(n > 0, "empty Zipf vocabulary");
        let exponent = exponent.max(1);
        let mut cum = Vec::with_capacity(n as usize);
        let mut total = 0.0f64;
        for rank in 0..n {
            let base = 1.0 / f64::from(rank + 1);
            let mut w = 1.0f64;
            for _ in 0..exponent {
                w *= base;
            }
            total += w;
            cum.push(total);
        }
        Zipf { cum }
    }

    pub fn for_skew(skew: &KeywordSkew) -> Zipf {
        Zipf::new(skew.vocabulary, skew.exponent)
    }

    /// Draw a rank in `0..n`: one uniform `f64` against the cumulative
    /// weights, resolved by binary search (`partition_point` keeps the
    /// draw branch-free of float-comparison edge cases — a roll ≥ the
    /// final cumulative weight clamps to the last rank).
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let total = *self.cum.last().expect("non-empty");
        let roll = rng.gen_range(0.0..total);
        let idx = self.cum.partition_point(|&c| c <= roll);
        idx.min(self.cum.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let z = Zipf::new(16, 1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 16];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[1], "rank 0 beats rank 1: {counts:?}");
        assert!(counts[1] > counts[8], "rank 1 beats rank 8: {counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "long tail sampled");
        // Rank 0 carries ~1/H(16) ≈ 30% of the mass at s=1.
        assert!(counts[0] > 2_000);
    }

    #[test]
    fn higher_exponent_is_more_skewed() {
        let z1 = Zipf::new(16, 1);
        let z3 = Zipf::new(16, 3);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let head1 = (0..5_000).filter(|_| z1.sample(&mut a) == 0).count();
        let head3 = (0..5_000).filter(|_| z3.sample(&mut b) == 0).count();
        assert!(head3 > head1, "s=3 head {head3} vs s=1 head {head1}");
    }

    #[test]
    fn deterministic_per_seed() {
        let z = Zipf::new(32, 2);
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for _ in 0..1_000 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }
}
