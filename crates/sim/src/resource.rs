//! Analytic FIFO resources.
//!
//! Every contended element of the simulated I/O path — a disk, a NIC, a
//! switch backplane, a server CPU — is a non-preemptive FIFO server. For
//! such a server, given arrivals in nondecreasing time order (which the
//! engine guarantees), the service start of a request is exactly
//! `max(arrival, busy_until)` and its completion is `start + service_time`.
//! No event machinery is needed; a single `busy_until` register per resource
//! suffices, which makes the simulation exact, O(1) per request, and
//! trivially deterministic.

use bps_core::time::{Dur, Nanos};
use serde::Serialize;

/// Occupancy and throughput counters for one resource.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ResourceStats {
    /// Number of requests served.
    pub ops: u64,
    /// Total bytes attributed to served requests (0 for byte-less resources).
    pub bytes: u64,
    /// Total time the resource spent serving.
    pub busy: Dur,
    /// Total time requests spent waiting for the resource before service.
    pub waited: Dur,
    /// Completion time of the last request.
    pub last_completion: Nanos,
}

impl ResourceStats {
    /// Utilization over a window: busy time divided by the window length.
    pub fn utilization(&self, window: Dur) -> f64 {
        if window.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / window.as_secs_f64()
        }
    }

    /// Mean queueing delay per request.
    pub fn mean_wait(&self) -> Dur {
        if self.ops == 0 {
            Dur::ZERO
        } else {
            self.waited / self.ops
        }
    }
}

/// A single non-preemptive FIFO server.
#[derive(Debug, Clone, Default)]
pub struct FifoResource {
    busy_until: Nanos,
    stats: ResourceStats,
}

/// Timing of one request through a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service began (≥ arrival).
    pub start: Nanos,
    /// When service completed.
    pub end: Nanos,
}

impl Grant {
    /// Queueing delay experienced before service.
    pub fn wait_from(&self, arrival: Nanos) -> Dur {
        self.start - arrival
    }
}

impl FifoResource {
    /// A fresh, idle resource.
    pub fn new() -> Self {
        FifoResource::default()
    }

    /// Serve a request arriving at `arrival` needing `service` time.
    ///
    /// Arrivals must be issued in nondecreasing time order (the engine's
    /// wake ordering provides this); violating it would silently model an
    /// impossible preemption, so it is checked.
    #[inline]
    pub fn acquire(&mut self, arrival: Nanos, service: Dur) -> Grant {
        let start = arrival.max(self.busy_until);
        let end = start + service;
        self.busy_until = end;
        self.stats.ops += 1;
        self.stats.busy += service;
        self.stats.waited += start - arrival;
        self.stats.last_completion = end;
        Grant { start, end }
    }

    /// Serve a request and attribute `bytes` to it in the stats.
    #[inline]
    pub fn acquire_bytes(&mut self, arrival: Nanos, service: Dur, bytes: u64) -> Grant {
        let g = self.acquire(arrival, service);
        self.stats.bytes += bytes;
        g
    }

    /// The instant the resource next becomes free.
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// Whether the resource would be idle at `t`.
    pub fn idle_at(&self, t: Nanos) -> bool {
        self.busy_until <= t
    }

    /// Counters.
    pub fn stats(&self) -> &ResourceStats {
        &self.stats
    }

    /// Pending backlog seen by an arrival at `t`: how long until the
    /// resource drains what is already queued.
    pub fn backlog_at(&self, t: Nanos) -> Dur {
        self.busy_until.since(t)
    }
}

/// `k` identical FIFO servers fed from one queue (an SSD's internal
/// channels, a multi-lane PCIe link). A request is served by the channel
/// that frees up first.
#[derive(Debug, Clone)]
pub struct MultiChannel {
    channels: Vec<FifoResource>,
    stats: ResourceStats,
}

impl MultiChannel {
    /// Build with `k ≥ 1` channels.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "a resource needs at least one channel");
        MultiChannel {
            channels: vec![FifoResource::new(); k],
            stats: ResourceStats::default(),
        }
    }

    /// Serve a request on the earliest-free channel.
    #[inline]
    pub fn acquire(&mut self, arrival: Nanos, service: Dur) -> Grant {
        let idx = self
            .channels
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.busy_until())
            .map(|(i, _)| i)
            .expect("at least one channel");
        let g = self.channels[idx].acquire(arrival, service);
        self.stats.ops += 1;
        self.stats.busy += service;
        self.stats.waited += g.start - arrival;
        self.stats.last_completion = self.stats.last_completion.max(g.end);
        g
    }

    /// Number of channels.
    pub fn width(&self) -> usize {
        self.channels.len()
    }

    /// Aggregated counters.
    pub fn stats(&self) -> &ResourceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }
    fn dms(v: u64) -> Dur {
        Dur::from_millis(v)
    }

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = FifoResource::new();
        let g = r.acquire(ms(5), dms(3));
        assert_eq!(g.start, ms(5));
        assert_eq!(g.end, ms(8));
        assert_eq!(g.wait_from(ms(5)), Dur::ZERO);
    }

    #[test]
    fn busy_resource_queues() {
        let mut r = FifoResource::new();
        r.acquire(ms(0), dms(10));
        let g = r.acquire(ms(2), dms(5));
        assert_eq!(g.start, ms(10));
        assert_eq!(g.end, ms(15));
        assert_eq!(g.wait_from(ms(2)), dms(8));
        assert_eq!(r.stats().waited, dms(8));
        assert_eq!(r.stats().mean_wait(), dms(4));
    }

    #[test]
    fn gap_leaves_resource_idle() {
        let mut r = FifoResource::new();
        r.acquire(ms(0), dms(1));
        assert!(r.idle_at(ms(5)));
        let g = r.acquire(ms(5), dms(1));
        assert_eq!(g.start, ms(5));
        // Busy time excludes the idle gap.
        assert_eq!(r.stats().busy, dms(2));
        assert_eq!(r.backlog_at(ms(5)), dms(1));
        assert_eq!(r.backlog_at(ms(10)), Dur::ZERO);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut r = FifoResource::new();
        let a = r.acquire(ms(0), dms(4));
        let b = r.acquire(ms(1), dms(4));
        let c = r.acquire(ms(2), dms(4));
        assert!(a.end <= b.start && b.end <= c.start);
    }

    #[test]
    fn utilization_and_bytes() {
        let mut r = FifoResource::new();
        r.acquire_bytes(ms(0), dms(5), 1000);
        r.acquire_bytes(ms(5), dms(5), 2000);
        assert_eq!(r.stats().bytes, 3000);
        assert!((r.stats().utilization(dms(20)) - 0.5).abs() < 1e-12);
        assert_eq!(ResourceStats::default().utilization(Dur::ZERO), 0.0);
    }

    /// A zero-length window yields 0.0 utilization even with accumulated
    /// busy time — not a NaN or infinity from the division.
    #[test]
    fn zero_window_utilization_is_zero_even_when_busy() {
        let mut r = FifoResource::new();
        r.acquire(ms(0), dms(5));
        let stats = r.stats();
        assert!(stats.busy > Dur::ZERO);
        let u = stats.utilization(Dur::ZERO);
        assert_eq!(u, 0.0);
        assert!(u.is_finite());
    }

    #[test]
    fn multichannel_parallelism() {
        let mut m = MultiChannel::new(2);
        let a = m.acquire(ms(0), dms(10));
        let b = m.acquire(ms(0), dms(10));
        // Two channels: both start immediately.
        assert_eq!(a.start, ms(0));
        assert_eq!(b.start, ms(0));
        // Third request waits for the first free channel.
        let c = m.acquire(ms(1), dms(10));
        assert_eq!(c.start, ms(10));
        assert_eq!(m.stats().ops, 3);
        assert_eq!(m.width(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = MultiChannel::new(0);
    }
}
