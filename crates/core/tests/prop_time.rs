//! `Dur::from_secs_f64` rounds with an integer compare instead of
//! `f64::round`, and the `as_secs_f64` conversions go through `i64` below
//! 2^63; these properties pin both to the arithmetic they replaced.

use bps_core::time::{Dur, Nanos};
use proptest::prelude::*;

/// The conversion as it was written with `f64::round`.
fn reference(s: f64) -> Dur {
    if s <= 0.0 {
        return Dur::ZERO;
    }
    Dur((s * 1e9).round() as u64)
}

proptest! {
    /// Any bit pattern: negatives, subnormals, huge values, infinities, NaNs.
    #[test]
    fn equals_round_on_any_bit_pattern(bits in proptest::collection::vec(any::<u64>(), 64)) {
        for s in bits.into_iter().map(f64::from_bits) {
            prop_assert_eq!(Dur::from_secs_f64(s), reference(s));
        }
    }

    /// Exact half-nanosecond boundaries `(k + 0.5) / 1e9` with `k` spread
    /// over every magnitude below 2^52, and the neighbouring floats on
    /// either side of them.
    #[test]
    fn equals_round_on_half_nanosecond_boundaries(
        draws in proptest::collection::vec((0u64..(1u64 << 52), 0u32..52, -2i64..=2), 64),
    ) {
        for (k, shift, ulps) in draws {
            let k = k >> shift;
            let x = k as f64 + 0.5;
            for s in [x / 1e9, x * 1e-9] {
                let s = f64::from_bits((s.to_bits() as i64 + ulps) as u64);
                prop_assert_eq!(Dur::from_secs_f64(s), reference(s));
            }
        }
    }

    /// Nanosecond counts from 2^52 to 2^64, where every float is an
    /// integer and the fast path hands over to `round` at 2^63.
    #[test]
    fn equals_round_between_2_pow_52_and_2_pow_64(
        draws in proptest::collection::vec((52i32..64, 0.0f64..1.0), 64),
    ) {
        for (e, m) in draws {
            let s = 2f64.powi(e) * (1.0 + m) / 1e9;
            prop_assert_eq!(Dur::from_secs_f64(s), reference(s));
        }
    }

    /// Small positive values, subnormals included.
    #[test]
    fn equals_round_on_tiny_values(bits in proptest::collection::vec(1u64..(1u64 << 62), 64)) {
        for s in bits.into_iter().map(|b| f64::from_bits(b) * 1e-300) {
            prop_assert_eq!(Dur::from_secs_f64(s), reference(s));
        }
    }
}

#[test]
fn equals_round_on_the_edges() {
    for s in [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        4.9e-10,
        5e-10,
        5.1e-10,
        1.5e-9,
        2.5e-9,
        9_223_372_036.854_775,
        9_223_372_036.854_776,
        18_446_744_073.709_553,
        18_446_744_073.709_552,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ] {
        assert_eq!(Dur::from_secs_f64(s), reference(s), "{s:e}");
    }
}

/// Both `as_secs_f64` conversions, checked bit for bit against the plain
/// `u64` conversion they replaced.
fn assert_secs_f64_exact(n: u64) {
    let expect = (n as f64 / 1e9).to_bits();
    assert_eq!(Nanos(n).as_secs_f64().to_bits(), expect, "Nanos({n})");
    assert_eq!(Dur(n).as_secs_f64().to_bits(), expect, "Dur({n})");
}

proptest! {
    /// Any count at all: the low half goes through `i64`, the high half
    /// keeps the unsigned cast.
    #[test]
    fn as_secs_f64_equals_the_u64_cast(counts in proptest::collection::vec(any::<u64>(), 64)) {
        for n in counts {
            assert_secs_f64_exact(n);
        }
    }

    /// Counts at or above 2^63, sampled on their own so the unsigned path
    /// is exercised as often as the signed one.
    #[test]
    fn as_secs_f64_equals_the_u64_cast_above_2_pow_63(
        counts in proptest::collection::vec((1u64 << 63)..=u64::MAX, 64),
    ) {
        for n in counts {
            assert_secs_f64_exact(n);
        }
    }

    /// Counts spread over every magnitude, where rounding to 53 bits starts
    /// to drop low-order nanoseconds.
    #[test]
    fn as_secs_f64_equals_the_u64_cast_at_every_magnitude(
        draws in proptest::collection::vec((any::<u64>(), 0u32..64), 64),
    ) {
        for (n, shift) in draws {
            assert_secs_f64_exact(n >> shift);
        }
    }
}

#[test]
fn as_secs_f64_equals_the_u64_cast_on_the_edges() {
    for n in [
        0,
        1,
        999_999_999,
        1_000_000_000,
        (1 << 53) - 1,
        1 << 53,
        (1 << 53) + 1,
        (1 << 63) - 1025,
        (1 << 63) - 1024,
        (1 << 63) - 513,
        (1 << 63) - 512,
        (1 << 63) - 1,
        1 << 63,
        (1 << 63) + 1,
        (1 << 63) + 1024,
        u64::MAX - 1024,
        u64::MAX - 1,
        u64::MAX,
    ] {
        assert_secs_f64_exact(n);
    }
}
