//! Deterministic fault injection.
//!
//! The paper evaluates BPS on a healthy cluster; this module supplies the
//! degraded regimes real clusters live in — stragglers, transient device
//! errors, lossy links, and pause-and-recover outages — as a *declarative,
//! seeded* [`FaultPlan`]. The cluster consults one [`FaultInjector`] built
//! from the plan on every grant:
//!
//! * **Slowdown windows** scale a server's device service time and CPU cost
//!   while the window is open (a straggler node).
//! * **Device error rate** makes a device grant complete with a transient
//!   error: the device does the work, but the client receives an error
//!   reply instead of data and must retry.
//! * **Link loss** adds one retransmit delay to a payload transfer with the
//!   configured probability (a lossy NIC / congested TCP path).
//! * **Outages** make a server refuse requests during a window; the error
//!   carries the recovery instant so retry backoff can be meaningful.
//!
//! Determinism: the injector's randomness is seeded from `(plan.seed,
//! run_seed)` and is *independent* of the cluster's master RNG, so enabling
//! a plan never shifts the device jitter streams, and
//! [`FaultPlan::none()`] is bit-for-bit neutral — every probability check
//! short-circuits before drawing from the RNG when its rate is zero.

use crate::rng::SimRng;
use bps_core::time::{Dur, Nanos};

/// A straggler window: requests touching `server` inside `[start, end)`
/// have their device service time and server CPU cost multiplied by
/// `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownWindow {
    /// The degraded server.
    pub server: usize,
    /// Window start (inclusive).
    pub start: Nanos,
    /// Window end (exclusive).
    pub end: Nanos,
    /// Service-time multiplier (> 1 slows the server down).
    pub factor: f64,
}

/// A pause-and-recover outage: `server` refuses all requests arriving
/// inside `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The offline server.
    pub server: usize,
    /// Outage start (inclusive).
    pub start: Nanos,
    /// Recovery instant (exclusive).
    pub end: Nanos,
}

/// A declarative, seeded description of everything wrong with the cluster.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the injector's private randomness. Two runs with the same
    /// plan and run seed degrade identically.
    pub seed: u64,
    /// Straggler windows.
    pub slowdowns: Vec<SlowdownWindow>,
    /// Probability a device grant completes with a transient error (all
    /// servers).
    pub device_error_rate: f64,
    /// Extra per-server device error rates, added on top of
    /// [`FaultPlan::device_error_rate`] for grants on that server (a
    /// failing disk behind one server).
    pub device_error_hotspots: Vec<(usize, f64)>,
    /// Probability a payload transfer loses a packet and pays
    /// [`FaultPlan::retransmit_delay`].
    pub link_loss_rate: f64,
    /// Delay added to a transfer that lost a packet.
    pub retransmit_delay: Dur,
    /// Server pause-and-recover windows.
    pub outages: Vec<Outage>,
}

impl FaultPlan {
    /// The healthy cluster: no faults of any kind. Guaranteed bit-for-bit
    /// neutral — a run with this plan is identical to a run of the
    /// pre-fault code path.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.slowdowns.is_empty()
            && self.device_error_rate == 0.0
            && self.device_error_hotspots.is_empty()
            && self.link_loss_rate == 0.0
            && self.outages.is_empty()
    }

    /// Add a straggler window.
    pub fn with_slowdown(mut self, window: SlowdownWindow) -> Self {
        assert!(window.factor > 0.0, "slowdown factor must be positive");
        self.slowdowns.push(window);
        self
    }

    /// Set the transient device error rate.
    pub fn with_device_errors(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.device_error_rate = rate;
        self
    }

    /// Add an extra device error rate on one server (on top of the
    /// all-server rate).
    pub fn with_device_errors_on(mut self, server: usize, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.device_error_hotspots.push((server, rate));
        self
    }

    /// Set the link loss rate and per-loss retransmit delay.
    pub fn with_link_loss(mut self, rate: f64, retransmit_delay: Dur) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.link_loss_rate = rate;
        self.retransmit_delay = retransmit_delay;
        self
    }

    /// Add a pause-and-recover outage window.
    pub fn with_outage(mut self, outage: Outage) -> Self {
        assert!(outage.start <= outage.end, "outage ends before it starts");
        self.outages.push(outage);
        self
    }
}

/// The runtime fault oracle the cluster consults on every grant.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// The plan minus its outages, which live only in `outages`.
    plan: FaultPlan,
    /// `outages[server]`: that server's windows as `(start, running max
    /// of end)`, sorted by start.
    outages: Vec<Vec<(Nanos, Nanos)>>,
    rng: SimRng,
}

impl FaultInjector {
    /// Build an injector for one run. The RNG stream is derived from
    /// `(plan.seed, run_seed)` only — never forked from the cluster's
    /// master RNG — so enabling faults does not perturb device jitter.
    pub fn new(plan: &FaultPlan, run_seed: u64) -> Self {
        let servers = plan.outages.iter().map(|o| o.server + 1).max().unwrap_or(0);
        let mut outages = vec![Vec::new(); servers];
        for o in &plan.outages {
            outages[o.server].push((o.start, o.end));
        }
        for windows in &mut outages {
            windows.sort_unstable_by_key(|&(start, _)| start);
            let mut reach = Nanos::ZERO;
            for w in windows.iter_mut() {
                reach = reach.max(w.1);
                w.1 = reach;
            }
        }
        FaultInjector {
            plan: FaultPlan {
                seed: plan.seed,
                slowdowns: plan.slowdowns.clone(),
                device_error_rate: plan.device_error_rate,
                device_error_hotspots: plan.device_error_hotspots.clone(),
                link_loss_rate: plan.link_loss_rate,
                retransmit_delay: plan.retransmit_delay,
                outages: Vec::new(),
            },
            outages,
            rng: SimRng::seed_from_u64(plan.seed ^ run_seed.wrapping_mul(0xD1B5_4A32_D192_ED03)),
        }
    }

    /// True when the underlying plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.plan.is_none() && self.outages.is_empty()
    }

    /// Service-time multiplier for `server` at instant `at`: the product
    /// of all open slowdown windows (exactly 1.0 when none are open, so
    /// callers can skip scaling entirely).
    #[inline]
    pub fn slowdown(&self, server: usize, at: Nanos) -> f64 {
        if self.plan.slowdowns.is_empty() {
            return 1.0;
        }
        let factor: f64 = self
            .plan
            .slowdowns
            .iter()
            .filter(|w| w.server == server && w.start <= at && at < w.end)
            .map(|w| w.factor)
            .product();
        if factor != 1.0 {
            bps_telemetry::incr(bps_telemetry::Counter::FaultSlowdowns);
        }
        factor
    }

    /// If `server` is inside an outage window at `at`, the recovery
    /// instant: the latest end among the windows containing `at`. The
    /// windows that start by `at` form a prefix of the start-sorted index;
    /// the largest end in that prefix lies past `at` exactly when some
    /// window contains `at`, and then it is the latest such end.
    #[inline]
    pub fn outage_until(&self, server: usize, at: Nanos) -> Option<Nanos> {
        let windows = self.outages.get(server)?;
        let opened = windows.partition_point(|&(start, _)| start <= at);
        let until = opened
            .checked_sub(1)
            .map(|i| windows[i].1)
            .filter(|&reach| reach > at);
        if until.is_some() {
            bps_telemetry::incr(bps_telemetry::Counter::FaultOutageRefusals);
        }
        until
    }

    /// Draw: does this grant on `server`'s device complete with a
    /// transient error? Never touches the RNG when the effective rate is
    /// zero.
    #[inline]
    pub fn device_error(&mut self, server: usize) -> bool {
        let mut rate = self.plan.device_error_rate;
        for &(s, extra) in &self.plan.device_error_hotspots {
            if s == server {
                rate += extra;
            }
        }
        let hit = rate > 0.0 && self.rng.unit() < rate.min(1.0);
        if hit {
            bps_telemetry::incr(bps_telemetry::Counter::FaultDeviceErrors);
        }
        hit
    }

    /// Draw: does this payload transfer lose a packet? Never touches the
    /// RNG when the rate is zero.
    #[inline]
    pub fn link_lost(&mut self) -> bool {
        let lost = self.plan.link_loss_rate > 0.0 && self.rng.unit() < self.plan.link_loss_rate;
        if lost {
            bps_telemetry::incr(bps_telemetry::Counter::FaultLinkLosses);
        }
        lost
    }

    /// Delay one lost transfer pays before delivery.
    pub fn retransmit_delay(&self) -> Dur {
        self.plan.retransmit_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        let mut inj = FaultInjector::new(&plan, 42);
        assert!(inj.is_none());
        assert_eq!(inj.slowdown(0, Nanos::from_millis(5)), 1.0);
        assert_eq!(inj.outage_until(0, Nanos::from_millis(5)), None);
        for _ in 0..100 {
            assert!(!inj.device_error(0));
            assert!(!inj.link_lost());
        }
    }

    #[test]
    fn zero_rates_never_draw_from_the_rng() {
        // Two injectors with zero rates but different seeds behave
        // identically because the RNG is never consulted.
        let plan = FaultPlan {
            seed: 1,
            ..FaultPlan::none()
        };
        let other = FaultPlan {
            seed: 999,
            ..FaultPlan::none()
        };
        let mut a = FaultInjector::new(&plan, 7);
        let mut b = FaultInjector::new(&other, 8);
        for _ in 0..50 {
            assert_eq!(a.device_error(0), b.device_error(1));
            assert_eq!(a.link_lost(), b.link_lost());
        }
    }

    #[test]
    fn slowdown_applies_inside_window_only() {
        let plan = FaultPlan::none().with_slowdown(SlowdownWindow {
            server: 1,
            start: Nanos::from_millis(10),
            end: Nanos::from_millis(20),
            factor: 3.0,
        });
        let inj = FaultInjector::new(&plan, 0);
        assert_eq!(inj.slowdown(1, Nanos::from_millis(15)), 3.0);
        assert_eq!(inj.slowdown(1, Nanos::from_millis(5)), 1.0);
        assert_eq!(inj.slowdown(1, Nanos::from_millis(20)), 1.0);
        assert_eq!(inj.slowdown(0, Nanos::from_millis(15)), 1.0);
    }

    #[test]
    fn overlapping_slowdowns_compound() {
        let w = |factor| SlowdownWindow {
            server: 0,
            start: Nanos::ZERO,
            end: Nanos::from_secs(1),
            factor,
        };
        let plan = FaultPlan::none()
            .with_slowdown(w(2.0))
            .with_slowdown(w(1.5));
        let inj = FaultInjector::new(&plan, 0);
        assert_eq!(inj.slowdown(0, Nanos::from_millis(1)), 3.0);
    }

    #[test]
    fn outage_reports_recovery_instant() {
        let plan = FaultPlan::none().with_outage(Outage {
            server: 2,
            start: Nanos::from_millis(1),
            end: Nanos::from_millis(4),
        });
        let inj = FaultInjector::new(&plan, 0);
        assert_eq!(
            inj.outage_until(2, Nanos::from_millis(2)),
            Some(Nanos::from_millis(4))
        );
        assert_eq!(inj.outage_until(2, Nanos::from_millis(4)), None);
        assert_eq!(inj.outage_until(0, Nanos::from_millis(2)), None);
    }

    #[test]
    fn error_draws_are_seed_deterministic() {
        let plan = FaultPlan::none().with_device_errors(0.3);
        let draws = |run_seed| {
            let mut inj = FaultInjector::new(&plan, run_seed);
            (0..64).map(|_| inj.device_error(0)).collect::<Vec<_>>()
        };
        assert_eq!(draws(5), draws(5));
        assert_ne!(draws(5), draws(6));
        assert!(draws(5).iter().any(|&e| e));
        assert!(draws(5).iter().any(|&e| !e));
    }

    #[test]
    fn link_loss_rate_roughly_holds() {
        let plan = FaultPlan::none().with_link_loss(0.25, Dur::from_millis(5));
        let mut inj = FaultInjector::new(&plan, 1);
        let lost = (0..4000).filter(|_| inj.link_lost()).count();
        let rate = lost as f64 / 4000.0;
        assert!((0.2..0.3).contains(&rate), "rate {rate}");
        assert_eq!(inj.retransmit_delay(), Dur::from_millis(5));
    }

    #[test]
    fn hotspot_rate_applies_to_its_server_only() {
        let plan = FaultPlan::none().with_device_errors_on(1, 0.5);
        assert!(!plan.is_none());
        let mut inj = FaultInjector::new(&plan, 3);
        // Server 0 has rate zero: never errors, never draws.
        for _ in 0..100 {
            assert!(!inj.device_error(0));
        }
        // Server 1 errors roughly half the time.
        let errs = (0..1000).filter(|_| inj.device_error(1)).count();
        assert!((350..650).contains(&errs), "errs {errs}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_rate_rejected() {
        let _ = FaultPlan::none().with_device_errors(1.5);
    }
}
