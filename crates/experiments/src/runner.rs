//! Building and running one experiment case.
//!
//! A [`CaseSpec`] names a storage configuration plus a workload; `run_case`
//! assembles the simulated cluster and file system, binds the workload's
//! files, drives all processes to completion, and returns the collected
//! multi-layer trace. [`run_case_streaming`] runs the same case through
//! [`StreamingMetrics`] instead — bounded space, identical numbers.
//! [`CasePoint`] averages the four paper metrics over repeated seeded
//! runs, as the paper averages 5 runs per case.

use bps_core::metrics::MetricSelection;
use bps_core::sink::{RecordSink, StreamingMetrics};
use bps_core::time::Dur;
use bps_core::trace::Trace;
use bps_middleware::process::run_workload;
use bps_middleware::sieving::SievingConfig;
use bps_middleware::stack::RetryPolicy;
use bps_sim::fault::FaultPlan;
use bps_sim::rng::SimRng;
use bps_topology::{BuildEnv, DeviceNode, Layout, TopologySpec};
use bps_workloads::spec::Workload;
use serde::Serialize;

/// Storage configuration of a case (the paper's Set 1 dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// Local file system on the testbed HDD.
    Hdd,
    /// Local file system on the testbed SSD.
    Ssd,
    /// PVFS2-like parallel FS over this many I/O servers.
    Pvfs {
        /// Number of I/O servers.
        servers: usize,
    },
}

impl Storage {
    /// The prebuilt component graph this storage historically hardcoded:
    /// local-over-device for `Hdd`/`Ssd`, striped-over-the-network for
    /// `Pvfs`. A case without an explicit topology runs this graph.
    pub fn default_topology(&self) -> TopologySpec {
        match *self {
            Storage::Hdd => TopologySpec::local(DeviceNode::Hdd),
            Storage::Ssd => TopologySpec::local(DeviceNode::Ssd),
            Storage::Pvfs { servers } => TopologySpec::pfs(servers),
        }
    }
}

/// How the workload's files are laid out on a PVFS case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutPolicy {
    /// Default 64 KB striping over all servers (paper's IOR setup).
    DefaultStripe,
    /// File `i` pinned to server `i % servers` (paper's "pure" concurrency
    /// setup: each process's file on its own server).
    PinnedPerFile,
}

/// One experiment case: a storage configuration plus a workload.
pub struct CaseSpec<'a> {
    /// Storage under test.
    pub storage: Storage,
    /// Number of client nodes (the paper runs each MPI process on its own
    /// node).
    pub clients: usize,
    /// The benchmark.
    pub workload: &'a dyn Workload,
    /// File layout policy (PVFS only).
    pub layout: LayoutPolicy,
    /// Data sieving configuration for noncontiguous reads.
    pub sieving: SievingConfig,
    /// Per-op CPU cost charged by each application process.
    pub cpu_per_op: Dur,
    /// Fault injection plan ([`FaultPlan::none()`] = healthy cluster,
    /// bit-for-bit identical to the pre-fault code path).
    pub fault: FaultPlan,
    /// Middleware timeout/retry/backoff behavior under faults.
    pub retry: RetryPolicy,
    /// Explicit component graph to run instead of the prebuilt one
    /// [`Storage::default_topology`] derives from `storage`. When set, the
    /// graph decides the file system, interconnect, and device; `storage`
    /// only labels the case.
    pub topology: Option<TopologySpec>,
}

impl<'a> CaseSpec<'a> {
    /// A sensible default case over the given storage and workload.
    pub fn new(storage: Storage, workload: &'a dyn Workload) -> Self {
        CaseSpec {
            storage,
            clients: workload.processes(),
            workload,
            layout: LayoutPolicy::DefaultStripe,
            sieving: SievingConfig::romio_default(),
            cpu_per_op: Dur::from_micros(5),
            fault: FaultPlan::none(),
            retry: RetryPolicy::default(),
            topology: None,
        }
    }

    /// Same case under a fault plan.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Same case over an explicit component graph.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = Some(topology);
        self
    }

    /// The component graph this case runs: the explicit one if declared,
    /// otherwise the storage's prebuilt default.
    pub fn effective_topology(&self) -> TopologySpec {
        self.topology
            .clone()
            .unwrap_or_else(|| self.storage.default_topology())
    }
}

/// Run one case once with one seed; returns the trace (execution time set).
pub fn run_case(spec: &CaseSpec<'_>, seed: u64) -> Trace {
    run_case_with(spec, seed, Trace::new())
}

/// Run one case once with one seed, folding every record into streaming
/// accumulators as it completes — no trace is materialized. The returned
/// metrics are bit-for-bit what [`run_case`] plus `Metric::compute` yield.
pub fn run_case_streaming(spec: &CaseSpec<'_>, seed: u64) -> StreamingMetrics {
    run_case_with(spec, seed, StreamingMetrics::new())
}

/// Like [`run_case_streaming`], but the sink retains whatever per-record
/// state `selection` needs, so any selected registry metric can be
/// finished from the result.
pub fn run_case_streaming_selected(
    spec: &CaseSpec<'_>,
    seed: u64,
    selection: &MetricSelection,
) -> StreamingMetrics {
    run_case_with(spec, seed, StreamingMetrics::for_selection(selection))
}

/// Run one case once with one seed, feeding records into `sink`. The
/// case's component graph (explicit or prebuilt) is assembled over the
/// sink and driven by the engine loop.
pub fn run_case_with<S: RecordSink + Default>(spec: &CaseSpec<'_>, seed: u64, sink: S) -> S {
    // Per-run variability beyond per-request jitter: server CPU cost and
    // device behaviour differ slightly run to run (placement, background
    // daemons), which is why the paper averages 5 runs.
    let mut seed_rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    let server_cpu = Dur::from_secs_f64(25e-6 * (0.85 + 0.3 * seed_rng.unit()));
    let file_sizes = spec.workload.file_sizes();
    let env = BuildEnv {
        clients: spec.clients,
        server_cpu,
        seed,
        file_sizes: &file_sizes,
        layout: match spec.layout {
            LayoutPolicy::DefaultStripe => Layout::DefaultStripe,
            LayoutPolicy::PinnedPerFile => Layout::PinnedPerFile,
        },
        sieving: spec.sieving,
        retry: spec.retry,
        fault: spec.fault.clone(),
    };
    let built = spec
        .effective_topology()
        .build(&env, sink)
        .unwrap_or_else(|e| panic!("invalid topology: {e}"));
    let (sink, _outcome) = run_workload(built.stack, spec.workload, &built.files, spec.cpu_per_op);
    sink
}

/// The captured metric values of one completed `(case, seed)` unit: what
/// a [`StreamingMetrics`] sink reduces to once the per-record state is no
/// longer needed. This is the unit of the run journal — small, owned, and
/// bit-exactly averageable, so a resumed run reproduces a cold run's
/// bytes. `None` marks a metric the run left undefined (e.g. a zero-time
/// run), which averaging counts and skips.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitValues {
    /// I/O operations per second.
    pub iops: Option<f64>,
    /// Bandwidth, MB/s.
    pub bw: Option<f64>,
    /// Average response time, seconds.
    pub arpt: Option<f64>,
    /// BPS, blocks/second.
    pub bps: Option<f64>,
    /// Application execution time, seconds.
    pub exec_s: f64,
    /// `(name, value)` for selected registry metrics beyond the paper
    /// four, in selection order.
    pub extra: Vec<(String, Option<f64>)>,
}

impl UnitValues {
    /// Capture a finished run's values under a metric selection.
    pub fn capture(run: &StreamingMetrics, selection: &MetricSelection) -> UnitValues {
        UnitValues {
            iops: run.iops(),
            bw: run.bandwidth(),
            arpt: run.arpt(),
            bps: run.bps(),
            exec_s: run.execution_time().as_secs_f64(),
            extra: selection
                .metrics()
                .iter()
                .filter(|m| !matches!(m.name(), "IOPS" | "BW" | "ARPT" | "BPS"))
                .map(|m| (m.name().to_string(), m.finish(run)))
                .collect(),
        }
    }
}

/// The four paper metrics plus execution time for one case, averaged over
/// seeds, plus the mean of any further selected registry metrics.
#[derive(Debug, Clone)]
pub struct CasePoint {
    /// Case label (e.g. "pvfs-4", "64KB", "np=8", "spacing=512").
    pub label: String,
    /// Mean IOPS.
    pub iops: f64,
    /// Mean bandwidth, MB/s.
    pub bw: f64,
    /// Mean average response time, seconds.
    pub arpt: f64,
    /// Mean BPS, blocks/second.
    pub bps: f64,
    /// Mean application execution time, seconds.
    pub exec_s: f64,
    /// `(name, mean)` for selected registry metrics beyond the paper four,
    /// in registry order (empty under the default paper selection).
    pub extra: Vec<(String, f64)>,
    /// Set when every seed of this case failed — the metrics above are
    /// NaN and this records *why* (panic, timeout, ...), so reports and
    /// CSV exports annotate `n/a` with the failure class.
    pub failed: Option<crate::supervise::FailureKind>,
}

// Hand-rolled so the empty `extra` of a paper-selection point is omitted
// on the wire, keeping serialized sweeps byte-identical to the
// pre-registry format.
impl Serialize for CasePoint {
    fn to_value(&self) -> serde::Value {
        let mut pairs = vec![
            ("label".to_string(), self.label.to_value()),
            ("iops".to_string(), self.iops.to_value()),
            ("bw".to_string(), self.bw.to_value()),
            ("arpt".to_string(), self.arpt.to_value()),
            ("bps".to_string(), self.bps.to_value()),
            ("exec_s".to_string(), self.exec_s.to_value()),
        ];
        if !self.extra.is_empty() {
            pairs.push(("extra".to_string(), self.extra.to_value()));
        }
        if let Some(kind) = self.failed {
            pairs.push((
                "failed".to_string(),
                serde::Value::Str(kind.name().to_string()),
            ));
        }
        serde::Value::Object(pairs)
    }
}

impl CasePoint {
    /// Run a case once per seed and average the metrics. The seeds are
    /// fanned across threads by [`crate::sweep::SweepExec::from_env`]
    /// (`BPS_THREADS` controls the count); the result is byte-identical
    /// at any thread count.
    pub fn averaged(label: impl Into<String>, spec: &CaseSpec<'_>, seeds: &[u64]) -> CasePoint {
        crate::sweep::SweepExec::from_env().run_one(label, spec, seeds)
    }

    /// Average already-finished per-seed runs into one point (runs in seed
    /// order). A seed where a metric is undefined (e.g. a zero-time run)
    /// is counted and skipped with a warning rather than poisoning the
    /// mean with NaN; if *every* run leaves a metric undefined — including
    /// the degenerate case of no surviving runs at all, e.g. when every
    /// seed of a case panicked and was isolated by the sweep executor —
    /// that metric is NaN and downstream correlation scoring reports
    /// `n/a`.
    pub fn from_runs(label: impl Into<String>, runs: &[StreamingMetrics]) -> CasePoint {
        CasePoint::from_runs_selected(label, runs, &MetricSelection::paper())
    }

    /// Like [`CasePoint::from_runs`], additionally averaging every selected
    /// registry metric beyond the paper four into [`CasePoint::extra`]
    /// (the runs must have been folded with the selection's needs, e.g. via
    /// [`run_case_streaming_selected`]).
    pub fn from_runs_selected(
        label: impl Into<String>,
        runs: &[StreamingMetrics],
        selection: &MetricSelection,
    ) -> CasePoint {
        let units: Vec<UnitValues> = runs
            .iter()
            .map(|r| UnitValues::capture(r, selection))
            .collect();
        CasePoint::from_units(label, &units, selection)
    }

    /// Average captured per-unit values into one point — the journaled
    /// form of [`CasePoint::from_runs_selected`], bit-identical to it
    /// because [`UnitValues::capture`] records the exact `f64`s the live
    /// sinks would have contributed.
    pub fn from_units(
        label: impl Into<String>,
        units: &[UnitValues],
        selection: &MetricSelection,
    ) -> CasePoint {
        let label = label.into();
        let extra_metrics: Vec<_> = selection
            .metrics()
            .iter()
            .copied()
            .filter(|m| !matches!(m.name(), "IOPS" | "BW" | "ARPT" | "BPS"))
            .collect();
        if units.is_empty() {
            eprintln!("warning: case {label}: no surviving runs; reporting NaN metrics");
            return CasePoint {
                label,
                iops: f64::NAN,
                bw: f64::NAN,
                arpt: f64::NAN,
                bps: f64::NAN,
                exec_s: f64::NAN,
                extra: extra_metrics
                    .iter()
                    .map(|m| (m.name().to_string(), f64::NAN))
                    .collect(),
                failed: None,
            };
        }
        fn mean(label: &str, name: &str, values: Vec<Option<f64>>) -> f64 {
            let total = values.len();
            let defined: Vec<f64> = values.into_iter().flatten().collect();
            let skipped = total - defined.len();
            if skipped > 0 {
                eprintln!(
                    "warning: case {label}: {name} undefined in {skipped}/{total} run(s); \
                     averaging the rest"
                );
            }
            if defined.is_empty() {
                f64::NAN
            } else {
                defined.iter().sum::<f64>() / defined.len() as f64
            }
        }
        let named = |name: &str| -> Vec<Option<f64>> {
            units
                .iter()
                .map(|u| {
                    u.extra
                        .iter()
                        .find(|(n, _)| n == name)
                        .and_then(|(_, v)| *v)
                })
                .collect()
        };
        CasePoint {
            iops: mean(&label, "IOPS", units.iter().map(|u| u.iops).collect()),
            bw: mean(&label, "BW", units.iter().map(|u| u.bw).collect()),
            arpt: mean(&label, "ARPT", units.iter().map(|u| u.arpt).collect()),
            bps: mean(&label, "BPS", units.iter().map(|u| u.bps).collect()),
            exec_s: units.iter().map(|u| u.exec_s).sum::<f64>() / units.len() as f64,
            extra: extra_metrics
                .iter()
                .map(|m| {
                    let values = named(m.name());
                    (m.name().to_string(), mean(&label, m.name(), values))
                })
                .collect(),
            label,
            failed: None,
        }
    }

    /// The metric value by registry name, case-insensitive ("IOPS", "BW",
    /// "ARPT", "BPS", or any selected extra); `None` for an unknown or
    /// unselected name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        if name.eq_ignore_ascii_case("IOPS") {
            return Some(self.iops);
        }
        if name.eq_ignore_ascii_case("BW") {
            return Some(self.bw);
        }
        if name.eq_ignore_ascii_case("ARPT") {
            return Some(self.arpt);
        }
        if name.eq_ignore_ascii_case("BPS") {
            return Some(self.bps);
        }
        self.extra
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bps_workloads::iozone::Iozone;

    #[test]
    fn run_case_produces_layered_trace() {
        let w = Iozone::seq_read(8 << 20, 256 << 10);
        let spec = CaseSpec::new(Storage::Hdd, &w);
        let trace = run_case(&spec, 1);
        use bps_core::record::Layer;
        assert_eq!(trace.op_count(Layer::Application), 32);
        assert_eq!(trace.op_count(Layer::FileSystem), 32);
        assert!(trace.execution_time() > Dur::ZERO);
    }

    #[test]
    fn seeds_change_timing_but_not_structure() {
        let w = Iozone::seq_read(4 << 20, 256 << 10);
        let spec = CaseSpec::new(Storage::Hdd, &w);
        let a = run_case(&spec, 1);
        let b = run_case(&spec, 2);
        assert_eq!(a.len(), b.len());
        assert_ne!(
            a.execution_time(),
            b.execution_time(),
            "different seeds should jitter timing"
        );
        // Same seed: byte-identical.
        let c = run_case(&spec, 1);
        assert_eq!(a.records(), c.records());
    }

    #[test]
    fn averaged_point_is_finite() {
        let w = Iozone::seq_read(4 << 20, 256 << 10);
        let spec = CaseSpec::new(Storage::Ssd, &w);
        let p = CasePoint::averaged("ssd", &spec, &[1, 2]);
        assert!(p.iops.is_finite() && p.iops > 0.0);
        assert!(p.bw.is_finite() && p.bw > 0.0);
        assert!(p.arpt.is_finite() && p.arpt > 0.0);
        assert!(p.bps.is_finite() && p.bps > 0.0);
        assert!(p.exec_s > 0.0);
        assert_eq!(p.metric("BPS"), Some(p.bps));
    }

    #[test]
    fn streaming_case_matches_trace_case() {
        use bps_core::metrics::{Arpt, Bandwidth, Bps, Iops, Metric};
        let w = Iozone::seq_read(4 << 20, 256 << 10);
        let spec = CaseSpec::new(Storage::Hdd, &w);
        let trace = run_case(&spec, 7);
        let stream = run_case_streaming(&spec, 7);
        assert_eq!(Bps.compute(&trace), stream.bps());
        assert_eq!(Iops.compute(&trace), stream.iops());
        assert_eq!(Bandwidth.compute(&trace), stream.bandwidth());
        assert_eq!(Arpt.compute(&trace), stream.arpt());
        assert_eq!(trace.execution_time(), stream.execution_time());
        assert_eq!(trace.len() as u64, stream.len());
    }

    #[test]
    fn pvfs_case_runs() {
        let w = Iozone::seq_read(8 << 20, 1 << 20);
        let mut spec = CaseSpec::new(Storage::Pvfs { servers: 4 }, &w);
        spec.layout = LayoutPolicy::DefaultStripe;
        let trace = run_case(&spec, 3);
        use bps_core::record::Layer;
        // 1 MB records over 64 KB stripes on 4 servers: >1 FS op per app op.
        assert!(trace.op_count(Layer::FileSystem) > trace.op_count(Layer::Application));
    }

    #[test]
    fn unknown_metric_is_none() {
        let p = CasePoint {
            label: "x".into(),
            iops: 1.0,
            bw: 2.0,
            arpt: 3.0,
            bps: 4.0,
            exec_s: 5.0,
            extra: vec![("P99".into(), 6.0)],
            failed: None,
        };
        assert_eq!(p.metric("nope"), None);
        assert_eq!(p.metric("ARPT"), Some(3.0));
        // Lookup is case-insensitive, over named fields and extras alike.
        assert_eq!(p.metric("arpt"), Some(3.0));
        assert_eq!(p.metric("p99"), Some(6.0));
    }

    #[test]
    fn selected_runs_carry_extra_metrics() {
        use bps_core::metrics::MetricSelection;
        let w = Iozone::seq_read(4 << 20, 256 << 10);
        let spec = CaseSpec::new(Storage::Hdd, &w);
        let sel = MetricSelection::parse(&["BPS", "p99", "MaxQD"]).unwrap();
        let runs = [
            run_case_streaming_selected(&spec, 1, &sel),
            run_case_streaming_selected(&spec, 2, &sel),
        ];
        let p = CasePoint::from_runs_selected("hdd", &runs, &sel);
        // Paper fields are always populated; extras follow the selection.
        assert!(p.bps.is_finite() && p.bps > 0.0);
        let names: Vec<&str> = p.extra.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["P99", "MaxQD"]);
        assert!(p.metric("P99").unwrap() > 0.0);
        assert!(p.metric("MaxQD").unwrap() >= 1.0);
        // The selected streaming run matches the trace computed the batch way.
        use bps_core::metrics::extended::LatencyPercentile;
        use bps_core::metrics::{Metric, MetricFold};
        let trace = run_case(&spec, 1);
        assert_eq!(
            LatencyPercentile::P99.compute(&trace),
            LatencyPercentile::P99.finish(&runs[0])
        );
    }

    #[test]
    fn from_runs_skips_undefined_samples() {
        use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
        use bps_core::sink::RecordSink;
        use bps_core::sink::StreamingMetrics;
        use bps_core::time::Nanos;
        // One healthy run and one zero-time run (BPS/IOPS/BW undefined).
        let mut good = StreamingMetrics::new();
        good.on_record(&IoRecord::new(
            ProcessId(0),
            IoOp::Read,
            FileId(0),
            0,
            4096,
            Nanos::ZERO,
            Nanos::from_micros(100),
            Layer::Application,
        ));
        let mut degenerate = StreamingMetrics::new();
        degenerate.on_record(&IoRecord::new(
            ProcessId(0),
            IoOp::Read,
            FileId(0),
            0,
            4096,
            Nanos::from_micros(5),
            Nanos::from_micros(5),
            Layer::Application,
        ));
        let p = CasePoint::from_runs("mixed", &[good.clone(), degenerate]);
        // The undefined samples are skipped, not NaN-poisoned.
        assert_eq!(p.bps, good.bps().unwrap());
        assert_eq!(p.iops, good.iops().unwrap());
        assert!(p.bps.is_finite() && p.iops.is_finite());
        // ARPT is defined in both runs and averages over both.
        let arpt_mean = (good.arpt().unwrap() + 0.0) / 2.0;
        assert_eq!(p.arpt, arpt_mean);
    }
}
