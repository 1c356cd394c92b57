//! The tick codec: how the index stores a length (DESIGN.md §16).
//!
//! Every length the model hands out is a whole number of 2⁻¹⁰ m ticks,
//! so the index stores each one as its tick count in a `u32`: the slab
//! arena, the VIP door tables and the leaf grid. [`INF`] is the one ∞
//! sentinel. A finite stored length stays below [`LIMIT`], 2³¹ ticks
//! (about 2 097 km): [`encode`] and [`narrow`] panic at or above it, so
//! the sum of two finite stored lengths, at most 2³² − 2, stays below
//! the sentinel. That is what lets a fold add two stored ticks, or a
//! base under 2³¹ and a stored tick, in a `u64` with no test for ∞:
//! a sum is at least [`INF`] exactly when a term was ∞.
//!
//! Hot loops fold in integer ticks and decode once per result, never
//! once per read: [`ticks`] turns an f64 length into its count, and
//! [`metres`] turns a `u64` count back, both exactly. A `u64` fold that
//! starts at [`UNREACHED`] and skips ∞ entries holds [`UNREACHED`] where
//! nothing reached it.

use indoor_model::{LENGTH_TICK, TICKS_PER_METRE};

/// The stored ∞: a door the other cannot reach.
pub const INF: u32 = u32::MAX;

/// Every finite stored length is below this many ticks (2³¹, about
/// 2 097 km).
pub const LIMIT: u32 = 1 << 31;

/// A `u64` fold's ∞: an entry no finite candidate has reached.
pub const UNREACHED: u64 = u64::MAX;

/// The stored form of `len`: its tick count, [`INF`] for ∞. Panics
/// unless `len` is ∞ or a whole number of ticks below [`LIMIT`], which
/// every length the model builds is.
#[inline]
pub fn encode(len: f64) -> u32 {
    if len == f64::INFINITY {
        return INF;
    }
    let t = len * TICKS_PER_METRE;
    assert!(
        (0.0..f64::from(LIMIT)).contains(&t) && f64::from(t as u32) == t,
        "{len} m is not a whole number of ticks below 2^31"
    );
    t as u32
}

/// The stored form of a tick sum from an integer fold: [`INF`] when the
/// sum is at or above the sentinel (a term was ∞), else the sum, which
/// must be below [`LIMIT`].
#[inline]
pub fn narrow(t: u64) -> u32 {
    if t >= u64::from(INF) {
        return INF;
    }
    assert!(t < u64::from(LIMIT), "{t} ticks is not below 2^31");
    t as u32
}

/// The length a stored value stands for, in metres: ∞ for [`INF`], else
/// the count times the tick, which is exact.
#[inline]
pub fn decode(t: u32) -> f64 {
    match t {
        INF => f64::INFINITY,
        t => f64::from(t) * LENGTH_TICK,
    }
}

/// The tick count of a finite length, exactly: the length is a whole
/// number of ticks (DESIGN.md §16).
#[inline]
pub fn ticks(len: f64) -> u64 {
    debug_assert!(
        len >= 0.0 && len.is_finite() && (len * TICKS_PER_METRE).fract() == 0.0,
        "{len} m is not a whole number of ticks"
    );
    // Through `i64`: one signed conversion instruction, where a direct
    // `u64` cast needs a sequence on x86-64; the count is far below 2⁶³.
    (len * TICKS_PER_METRE) as i64 as u64
}

/// The length of `t` ticks in metres, exactly below 2⁵³ ticks; ∞ for
/// [`UNREACHED`].
#[inline]
pub fn metres(t: u64) -> f64 {
    match t {
        UNREACHED => f64::INFINITY,
        // Through `i64`, as in [`ticks`].
        t => t as i64 as f64 * LENGTH_TICK,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_rejects() {
        for len in [0.0, LENGTH_TICK, 17_000.5, (LIMIT - 1) as f64 * LENGTH_TICK] {
            let t = encode(len);
            assert_eq!(decode(t).to_bits(), len.to_bits());
            assert_eq!(metres(ticks(len)).to_bits(), len.to_bits());
            assert_eq!(narrow(u64::from(t)), t);
        }
        assert_eq!(encode(f64::INFINITY), INF);
        assert_eq!(decode(INF), f64::INFINITY);
        assert_eq!(metres(UNREACHED), f64::INFINITY);
        // A sum with an ∞ term is at least the sentinel; two finite terms
        // stay below it.
        let top = u64::from(LIMIT - 1);
        assert!(top + top < u64::from(INF));
        assert_eq!(narrow(u64::from(INF) + top), INF);
        for bad in [
            LIMIT as f64 * LENGTH_TICK,
            LENGTH_TICK / 2.0,
            -LENGTH_TICK,
            f64::NAN,
        ] {
            assert!(std::panic::catch_unwind(|| encode(bad)).is_err(), "{bad}");
        }
        assert!(std::panic::catch_unwind(|| narrow(top + 1)).is_err());
    }
}
