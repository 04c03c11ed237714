//! Run telemetry: counters and scoped phase timers behind a [`Collector`]
//! trait.
//!
//! The default collector is a no-op and the global enabled flag is false, so
//! instrumentation sites cost one relaxed atomic load on the off path and
//! emit nothing. Installing an [`AtomicCollector`] (done by
//! `reproduce --telemetry` / `reproduce profile`) flips the flag and routes
//! counter increments into a fixed array of atomics and span events into a
//! mutex-guarded buffer.
//!
//! Design constraints:
//!
//! - This crate sits at the bottom of the workspace dependency graph — it
//!   must not depend on any other `bps-*` crate, because `bps-core`,
//!   `bps-sim`, `bps-fs`, and `bps-experiments` all instrument through it.
//! - Telemetry must never perturb simulation results: collection is
//!   observation-only (no RNG draws, no virtual-clock access), so golden
//!   outputs stay byte-identical whether it is on or off.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Every counter the harness can report, in registry order.
///
/// The discriminant doubles as the index into [`AtomicCollector`]'s counter
/// array, and [`Counter::ALL`] is the single source of truth for the
/// generated `telemetry.md` reference page and the final JSONL snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Simulator process wake-ups across all runs.
    EngineWakes,
    /// I/O records emitted into record sinks.
    SinkRecords,
    /// Process wakes that delivered at least one record to the sink.
    SinkBatches,
    /// In-process memo (L1) cache hits in the scenario engine.
    CacheL1Hits,
    /// In-process memo (L1) cache misses in the scenario engine.
    CacheL1Misses,
    /// Persistent case-store (L2) hits.
    CacheL2Hits,
    /// Persistent case-store (L2) lookups that fell through to
    /// simulation (absent, stale, or corrupt entries).
    CacheL2Misses,
    /// Persistent case-store (L2) entries rejected as stale.
    CacheL2Stale,
    /// Persistent case-store (L2) entries rejected as corrupt.
    CacheL2Corrupt,
    /// Case results written into the persistent store.
    CacheL2Writes,
    /// Injected transient device errors.
    FaultDeviceErrors,
    /// Injected network chunk losses.
    FaultLinkLosses,
    /// I/O attempts refused because a server outage window was active.
    FaultOutageRefusals,
    /// I/O issues whose service time was scaled by a slowdown window.
    FaultSlowdowns,
    /// Retry attempts issued by the bounded-backoff retry layer.
    RetryAttempts,
    /// Operations abandoned by the retry layer (deadline exceeded).
    RetryAbandoned,
    /// Operations that exhausted every retry attempt.
    RetryExhausted,
    /// Sweep units (case × seed) executed to completion.
    SweepUnits,
    /// Sweep units that failed (panic, timeout, or error).
    SweepFailures,
}

impl Counter {
    /// Registry order; index == discriminant.
    pub const ALL: [Counter; 19] = [
        Counter::EngineWakes,
        Counter::SinkRecords,
        Counter::SinkBatches,
        Counter::CacheL1Hits,
        Counter::CacheL1Misses,
        Counter::CacheL2Hits,
        Counter::CacheL2Misses,
        Counter::CacheL2Stale,
        Counter::CacheL2Corrupt,
        Counter::CacheL2Writes,
        Counter::FaultDeviceErrors,
        Counter::FaultLinkLosses,
        Counter::FaultOutageRefusals,
        Counter::FaultSlowdowns,
        Counter::RetryAttempts,
        Counter::RetryAbandoned,
        Counter::RetryExhausted,
        Counter::SweepUnits,
        Counter::SweepFailures,
    ];

    /// Stable dotted name used in JSONL snapshots and reference docs.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EngineWakes => "engine.wakes",
            Counter::SinkRecords => "sink.records",
            Counter::SinkBatches => "sink.batches",
            Counter::CacheL1Hits => "cache.l1.hits",
            Counter::CacheL1Misses => "cache.l1.misses",
            Counter::CacheL2Hits => "cache.l2.hits",
            Counter::CacheL2Misses => "cache.l2.misses",
            Counter::CacheL2Stale => "cache.l2.stale",
            Counter::CacheL2Corrupt => "cache.l2.corrupt",
            Counter::CacheL2Writes => "cache.l2.writes",
            Counter::FaultDeviceErrors => "fault.device-errors",
            Counter::FaultLinkLosses => "fault.link-losses",
            Counter::FaultOutageRefusals => "fault.outage-refusals",
            Counter::FaultSlowdowns => "fault.slowdowns",
            Counter::RetryAttempts => "retry.attempts",
            Counter::RetryAbandoned => "retry.abandoned",
            Counter::RetryExhausted => "retry.exhausted",
            Counter::SweepUnits => "sweep.units",
            Counter::SweepFailures => "sweep.failures",
        }
    }

    /// One-line description for the generated reference page.
    pub fn describe(self) -> &'static str {
        match self {
            Counter::EngineWakes => "simulator process wake-ups across all runs",
            Counter::SinkRecords => "I/O records emitted into record sinks",
            Counter::SinkBatches => "process wakes that delivered at least one record to the sink",
            Counter::CacheL1Hits => "in-process memo (L1) hits in the scenario engine",
            Counter::CacheL1Misses => "in-process memo (L1) misses in the scenario engine",
            Counter::CacheL2Hits => "persistent case-store (L2) hits",
            Counter::CacheL2Misses => {
                "persistent case-store (L2) lookups that fell through to simulation"
            }
            Counter::CacheL2Stale => {
                "persistent case-store (L2) entries rejected as stale (foreign build fingerprint)"
            }
            Counter::CacheL2Corrupt => {
                "persistent case-store (L2) entries rejected as corrupt (checksum or framing)"
            }
            Counter::CacheL2Writes => "case results written into the persistent store",
            Counter::FaultDeviceErrors => "injected transient device errors",
            Counter::FaultLinkLosses => "injected network chunk losses",
            Counter::FaultOutageRefusals => {
                "I/O attempts refused because a server outage window was active"
            }
            Counter::FaultSlowdowns => {
                "I/O issues whose service time was scaled by a slowdown window"
            }
            Counter::RetryAttempts => "retry attempts issued by the bounded-backoff retry layer",
            Counter::RetryAbandoned => {
                "operations abandoned by the retry layer (deadline exceeded)"
            }
            Counter::RetryExhausted => "operations that exhausted every retry attempt",
            Counter::SweepUnits => "sweep units (case × seed) executed to completion",
            Counter::SweepFailures => "sweep units that failed (panic, timeout, or error)",
        }
    }
}

/// A timestamped interval captured by the collector. Times are offsets from
/// the collector's installation instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A named phase span (target run, engine stage, ...).
    Phase {
        name: String,
        start: Duration,
        end: Duration,
    },
    /// One sweep unit: a single (case, seed) simulation.
    Unit {
        case: String,
        seed: u64,
        start: Duration,
        end: Duration,
    },
}

/// Sink for telemetry. Implementations must be cheap and must never block
/// the caller on anything slower than a short uncontended mutex.
pub trait Collector: Send + Sync {
    /// Add `n` to a counter.
    fn add(&self, counter: Counter, n: u64);
    /// Record a completed phase span.
    fn phase_span(&self, name: &str, start: Duration, end: Duration);
    /// Record a completed sweep unit.
    fn unit_span(&self, case: &str, seed: u64, start: Duration, end: Duration);
    /// Offset of "now" from the collector's epoch.
    fn now(&self) -> Duration;
    /// Snapshot of every counter, in [`Counter::ALL`] order.
    fn snapshot(&self) -> Vec<(Counter, u64)>;
    /// Drain buffered events (in capture order).
    fn drain_events(&self) -> Vec<Event>;
}

/// Discards everything. Used when telemetry is off; instrumentation sites
/// never reach it because they check [`enabled`] first.
pub struct NoopCollector;

impl Collector for NoopCollector {
    fn add(&self, _counter: Counter, _n: u64) {}
    fn phase_span(&self, _name: &str, _start: Duration, _end: Duration) {}
    fn unit_span(&self, _case: &str, _seed: u64, _start: Duration, _end: Duration) {}
    fn now(&self) -> Duration {
        Duration::ZERO
    }
    fn snapshot(&self) -> Vec<(Counter, u64)> {
        Counter::ALL.iter().map(|&c| (c, 0)).collect()
    }
    fn drain_events(&self) -> Vec<Event> {
        Vec::new()
    }
}

/// Thread-safe collector: counters in a fixed array of atomics, events in a
/// mutex-guarded buffer. Counter updates are monotone non-decreasing.
pub struct AtomicCollector {
    epoch: Instant,
    counters: [AtomicU64; Counter::ALL.len()],
    events: Mutex<Vec<Event>>,
}

impl AtomicCollector {
    pub fn new() -> Self {
        AtomicCollector {
            epoch: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            events: Mutex::new(Vec::new()),
        }
    }
}

impl Default for AtomicCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector for AtomicCollector {
    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn phase_span(&self, name: &str, start: Duration, end: Duration) {
        self.events.lock().unwrap().push(Event::Phase {
            name: name.to_string(),
            start,
            end,
        });
    }

    fn unit_span(&self, case: &str, seed: u64, start: Duration, end: Duration) {
        self.events.lock().unwrap().push(Event::Unit {
            case: case.to_string(),
            seed,
            start,
            end,
        });
    }

    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn snapshot(&self) -> Vec<(Counter, u64)> {
        Counter::ALL
            .iter()
            .map(|&c| (c, self.counters[c as usize].load(Ordering::Relaxed)))
            .collect()
    }

    fn drain_events(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: OnceLock<Arc<dyn Collector>> = OnceLock::new();

/// True once a collector has been installed. The off-path cost of every
/// instrumentation site is this single relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install the process-wide collector. First install wins (the CLI installs
/// exactly once, before any work runs); later calls are ignored.
pub fn install(collector: Arc<dyn Collector>) {
    if COLLECTOR.set(collector).is_ok() {
        ENABLED.store(true, Ordering::SeqCst);
    }
}

fn collector() -> &'static Arc<dyn Collector> {
    static NOOP: OnceLock<Arc<dyn Collector>> = OnceLock::new();
    COLLECTOR
        .get()
        .unwrap_or_else(|| NOOP.get_or_init(|| Arc::new(NoopCollector)))
}

/// Add `n` to a counter. No-op (one relaxed load) when telemetry is off.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() && n > 0 {
        collector().add(counter, n);
    }
}

/// Increment a counter by one.
#[inline]
pub fn incr(counter: Counter) {
    if enabled() {
        collector().add(counter, 1);
    }
}

/// Scoped phase timer: records a [`Event::Phase`] span when dropped.
/// Constructing one while telemetry is off is free (no allocation, no clock
/// read).
pub struct PhaseGuard {
    inner: Option<(String, Duration)>,
}

impl PhaseGuard {
    /// A guard that records nothing.
    pub fn disabled() -> Self {
        PhaseGuard { inner: None }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.inner.take() {
            let c = collector();
            let end = c.now();
            c.phase_span(&name, start, end);
        }
    }
}

/// Open a scoped phase span named `name`.
pub fn phase(name: &str) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard::disabled();
    }
    PhaseGuard {
        inner: Some((name.to_string(), collector().now())),
    }
}

/// Offset of "now" from the collector epoch, for callers that time a region
/// manually (sweep units). Returns [`Duration::ZERO`] when off.
pub fn now() -> Duration {
    if !enabled() {
        return Duration::ZERO;
    }
    collector().now()
}

/// Record one completed sweep unit (a single case × seed simulation).
pub fn unit(case: &str, seed: u64, start: Duration) {
    if !enabled() {
        return;
    }
    let c = collector();
    let end = c.now();
    c.unit_span(case, seed, start, end);
}

/// Snapshot every counter in registry order.
pub fn snapshot() -> Vec<(Counter, u64)> {
    collector().snapshot()
}

/// Drain buffered span events.
pub fn drain_events() -> Vec<Event> {
    collector().drain_events()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registry_is_consistent() {
        // Discriminants index ALL, and names are unique and dotted.
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{:?} out of registry order", c);
            assert!(c.name().contains('.'), "{:?} name not dotted", c);
            assert!(!c.describe().is_empty());
        }
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len(), "duplicate counter names");
    }

    #[test]
    fn atomic_collector_accumulates_and_snapshots() {
        let c = AtomicCollector::new();
        c.add(Counter::EngineWakes, 5);
        c.add(Counter::EngineWakes, 7);
        c.add(Counter::RetryAttempts, 1);
        let snap = c.snapshot();
        assert_eq!(snap.len(), Counter::ALL.len());
        let get = |want: Counter| snap.iter().find(|(c, _)| *c == want).unwrap().1;
        assert_eq!(get(Counter::EngineWakes), 12);
        assert_eq!(get(Counter::RetryAttempts), 1);
        assert_eq!(get(Counter::SweepUnits), 0);
    }

    #[test]
    fn atomic_collector_buffers_spans_in_order() {
        let c = AtomicCollector::new();
        c.phase_span("expand", Duration::from_micros(1), Duration::from_micros(2));
        c.unit_span("hdd", 3, Duration::from_micros(2), Duration::from_micros(9));
        let events = c.drain_events();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], Event::Phase { name, .. } if name == "expand"));
        assert!(
            matches!(&events[1], Event::Unit { case, seed, .. } if case == "hdd" && *seed == 3)
        );
        assert!(c.drain_events().is_empty(), "drain must consume");
    }

    #[test]
    fn counters_are_monotone_under_concurrency() {
        let c = Arc::new(AtomicCollector::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.add(Counter::SinkRecords, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = c.snapshot();
        let records = snap
            .iter()
            .find(|(k, _)| *k == Counter::SinkRecords)
            .unwrap()
            .1;
        assert_eq!(records, 4000);
    }

    #[test]
    fn noop_collector_reports_zeros() {
        let c = NoopCollector;
        c.add(Counter::EngineWakes, 99);
        assert!(c.snapshot().iter().all(|&(_, v)| v == 0));
        assert!(c.drain_events().is_empty());
    }
}
