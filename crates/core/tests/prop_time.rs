//! `Dur::from_secs_f64` rounds with an integer compare instead of
//! `f64::round`; these properties pin it to the rounding it replaced.

use bps_core::time::Dur;
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
