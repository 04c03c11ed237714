//! Watermark retirement under the engine: a streaming sink fed by
//! `run_workload` keeps only the busy periods still open, and its metrics
//! stay bit-for-bit equal to a materialized trace — including on the
//! multi-wake calls (sieved noncontiguous reads, collective barriers)
//! whose application records start before the wake that completes them.

use bps_core::interval::{IntervalSet, RETIRE_CHUNK};
use bps_core::metrics::{registry, FoldNeeds, Metric};
use bps_core::record::{FileId, IoRecord, Layer};
use bps_core::sink::{RecordSink, StreamingMetrics, Tee};
use bps_core::time::{Dur, Nanos};
use bps_core::trace::Trace;
use bps_fs::cluster::{Cluster, ClusterConfig, DeviceSpec};
use bps_fs::layout::StripeLayout;
use bps_fs::localfs::LocalFs;
use bps_fs::pfs::ParallelFs;
use bps_middleware::sieving::SievingConfig;
use bps_middleware::{run_workload, FsBackend, IoStack};
use bps_sim::device::DiskSched;
use bps_sim::fault::FaultPlan;
use bps_sim::rng::Jitter;
use bps_workloads::hpio::Hpio;
use bps_workloads::iozone::Iozone;
use bps_workloads::spec::Workload;

fn config(servers: usize, clients: usize) -> ClusterConfig {
    ClusterConfig {
        servers,
        clients,
        device: DeviceSpec::Ram {
            fixed: Dur::from_micros(100),
            rate: 100_000_000,
            capacity: 1 << 40,
        },
        sched: DiskSched::Fifo,
        server_cpu: Dur::from_micros(25),
        jitter: Jitter::DEFAULT,
        seed: 3,
        record_device_layer: true,
        record_net_layer: true,
        fault: FaultPlan::none(),
    }
}

/// A streaming sink that remembers the most busy periods either union
/// ever held at once.
#[derive(Default)]
struct PeakLive {
    inner: StreamingMetrics,
    peak: usize,
}

impl RecordSink for PeakLive {
    fn on_record(&mut self, record: &IoRecord) {
        self.inner.on_record(record);
        for layer in [Layer::Application, Layer::FileSystem] {
            self.peak = self.peak.max(self.inner.live_periods(layer));
        }
    }

    fn retire_before(&mut self, w: Nanos) {
        self.inner.retire_before(w);
    }
}

#[test]
fn long_sequential_run_keeps_live_spans_bounded() {
    // 16 Ki sequential 4 KB reads: one busy period per op at both layers.
    let w = Iozone::seq_read(64 << 20, 4 << 10);
    fn run<S: RecordSink + Default>(w: &Iozone, sink: S) -> S {
        let mut fs = LocalFs::new(0).with_overhead(Dur::from_micros(50));
        let files: Vec<FileId> = w.file_sizes().iter().map(|&s| fs.create(s)).collect();
        let stack = IoStack::new(
            Cluster::with_sink(&config(1, 1), sink),
            FsBackend::Local(fs),
        );
        run_workload(stack, w, &files, Dur::from_micros(5)).0
    }
    let streamed = run(&w, PeakLive::default());
    let trace = run(&w, Trace::new());

    let periods = IntervalSet::from_unsorted(trace.intervals(Layer::Application)).period_count();
    assert_eq!(periods, 16 << 10, "every op is its own busy period");
    assert!(
        streamed.peak <= RETIRE_CHUNK,
        "{} live spans held at once",
        streamed.peak
    );
    for m in registry().paper() {
        assert_eq!(
            m.compute(&trace).map(f64::to_bits),
            m.finish(&streamed.inner).map(f64::to_bits),
            "{}",
            m.name()
        );
    }
}

/// Run `w` on a 4-server PFS into a trace and a retiring stream at once;
/// the stream must equal the trace's metrics bit for bit and must really
/// have retired spans. 20 ms of compute after each call, far longer than
/// any call, separates the calls into distinct busy periods.
fn assert_retiring_stream_matches(w: &dyn Workload, sieving: SievingConfig) {
    let mut pfs = ParallelFs::new(4);
    let files: Vec<FileId> = w
        .file_sizes()
        .iter()
        .map(|&s| pfs.create(s, StripeLayout::default_over(4)))
        .collect();
    let sink = Tee(Trace::new(), StreamingMetrics::with_needs(FoldNeeds::ALL));
    let cluster = Cluster::with_sink(&config(4, w.processes()), sink);
    let mut stack = IoStack::new(cluster, FsBackend::Parallel(pfs));
    stack.sieving = sieving;
    let (Tee(trace, stream), _) = run_workload(stack, w, &files, Dur::from_millis(20));

    for m in registry().all() {
        assert_eq!(
            m.compute(&trace).map(f64::to_bits),
            m.finish(&stream).map(f64::to_bits),
            "{}",
            m.name()
        );
    }
    assert_eq!(trace.execution_time(), stream.execution_time());
    for layer in [Layer::Application, Layer::FileSystem] {
        assert_eq!(
            trace.overlapped_io_time(layer),
            stream.overlapped_io_time(layer)
        );
        let periods = IntervalSet::from_unsorted(trace.intervals(layer)).period_count();
        assert!(
            periods > RETIRE_CHUNK && stream.live_periods(layer) < periods,
            "{layer:?}: {} of {periods} periods live; retirement never ran",
            stream.live_periods(layer)
        );
    }
}

#[test]
fn sieved_noncontig_reads_retire_behind_their_open_calls() {
    // Two processes, 160 sieved calls each. A 2 KB sieve buffer splits
    // each call into four covering reads, one per wake; the call's
    // application record starts at the first and is recorded after the
    // last, while the other process wakes in between.
    let w = Hpio {
        regions_per_call: 16,
        ..Hpio::paper_shape(2 * 160 * 16, 256, 2)
    };
    let sieving = SievingConfig {
        buffer_size: 2 << 10,
        ..SievingConfig::romio_default()
    };
    assert_retiring_stream_matches(&w, sieving);
}

#[test]
fn collective_reads_retire_behind_parked_arrivals() {
    // Four processes meet at 100 collective barriers; each participant's
    // application record starts at its own arrival, before the last
    // arriver's wake that records it.
    let w = Hpio {
        regions_per_call: 16,
        ..Hpio::paper_shape(4 * 100 * 16, 256, 4)
    }
    .collective();
    assert_retiring_stream_matches(&w, SievingConfig::romio_default());
}
