//! The traced run: per-layer counts and host times, measured from the
//! benchmark's side of each layer's public API.
//!
//! * In situ: the sweep re-runs every case through
//!   `runner::run_case_with` with a [`TimingSink`] around
//!   `StreamingMetrics`, under a telemetry collector that also tallies
//!   each counter per thread, so every unit's wakes and records are its
//!   own even with two sweep threads.
//! * Capture: each unit runs once more on a stack assembled here with
//!   device and network records switched on (the prebuilt topologies
//!   never record them). Its metric values must equal the in-situ unit's
//!   bit for bit, so the captured requests are the run's own.
//! * Replay: a sample of the captured requests is re-issued through
//!   `Device::submit`, `StripeLayout::map` and `Link::transfer` /
//!   `Switch::forward` on fresh instances. Replay times are labelled as
//!   such: they are not in-situ times.
//! * Floor: a no-op `Process` through `run_processes` at each case's
//!   process count gives the engine's ns/wake floor.

use crate::pass::{self, build_workload, case_spec, SweepJob, Sweeper};
use bps_core::metrics::MetricSelection;
use bps_core::record::{IoRecord, Layer};
use bps_core::sink::{RecordSink, StreamingMetrics, Tee};
use bps_core::time::{Dur, Nanos};
use bps_experiments::runner::{run_case_with, CasePoint, CaseSpec, LayoutPolicy, UnitValues};
use bps_experiments::scenario::engine::ResolvedCase;
use bps_experiments::scenario::spec::{LayoutSpec, StorageSpec};
use bps_experiments::{FailureKind, Scale, SweepExec};
use bps_fs::cluster::{Cluster, ClusterConfig, DeviceSpec};
use bps_fs::layout::StripeLayout;
use bps_fs::localfs::LocalFs;
use bps_fs::pfs::ParallelFs;
use bps_middleware::prefetch::PrefetchConfig;
use bps_middleware::{run_workload, FsBackend, IoStack, SievingConfig};
use bps_sim::device::hdd::Hdd;
use bps_sim::device::raid0::Raid0;
use bps_sim::device::ram::Ram;
use bps_sim::device::ssd::Ssd;
use bps_sim::device::{Device, DeviceModel, DeviceReq, DiskSched};
use bps_sim::engine::{run_processes, Process, Wake, Waker};
use bps_sim::net::{Link, Switch};
use bps_sim::rng::{Jitter, SimRng};
use bps_telemetry::{AtomicCollector, Collector, Counter, Event};
use bps_topology::build::{FsChoice, NetChoice};
use bps_topology::{DeviceNode, Layout, StackBuilder};
use std::cell::RefCell;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const COUNTERS: usize = Counter::ALL.len();

thread_local! {
    static TALLY: RefCell<[u64; COUNTERS]> = const { RefCell::new([0; COUNTERS]) };
}

/// `AtomicCollector` plus a per-thread copy of every counter, so a sweep
/// unit can read the counts its own thread added.
pub struct TallyCollector(AtomicCollector);

impl TallyCollector {
    pub fn new() -> Self {
        TallyCollector(AtomicCollector::new())
    }
}

impl Collector for TallyCollector {
    fn add(&self, counter: Counter, n: u64) {
        self.0.add(counter, n);
        TALLY.with(|t| t.borrow_mut()[counter as usize] += n);
    }
    fn phase_span(&self, name: &str, start: Duration, end: Duration) {
        self.0.phase_span(name, start, end);
    }
    fn unit_span(&self, case: &str, seed: u64, start: Duration, end: Duration) {
        self.0.unit_span(case, seed, start, end);
    }
    fn now(&self) -> Duration {
        self.0.now()
    }
    fn snapshot(&self) -> Vec<(Counter, u64)> {
        self.0.snapshot()
    }
    fn drain_events(&self) -> Vec<Event> {
        self.0.drain_events()
    }
}

fn tally() -> [u64; COUNTERS] {
    TALLY.with(|t| *t.borrow())
}

/// Total of one counter over the whole process.
pub fn counter(c: Counter) -> u64 {
    bps_telemetry::snapshot()
        .into_iter()
        .find(|(k, _)| *k == c)
        .map_or(0, |(_, v)| v)
}

/// `StreamingMetrics` with the host time spent inside its `RecordSink`
/// calls.
#[derive(Default)]
pub struct TimingSink {
    inner: StreamingMetrics,
    ns: u64,
    calls: u64,
}

impl TimingSink {
    fn timed(&mut self, f: impl FnOnce(&mut StreamingMetrics)) {
        let t = Instant::now();
        f(&mut self.inner);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
    }
}

impl RecordSink for TimingSink {
    fn on_record(&mut self, record: &IoRecord) {
        self.timed(|s| s.on_record(record));
    }
    fn push_batch(&mut self, records: &[IoRecord]) {
        self.timed(|s| s.push_batch(records));
    }
    fn push_columns(&mut self, batch: &bps_core::batch::RecordBatch) {
        self.timed(|s| s.push_columns(batch));
    }
    fn on_execution_time(&mut self, t: Dur) {
        self.timed(|s| s.on_execution_time(t));
    }
}

/// Host cost of one `Instant::now()` + `elapsed()` pair, subtracted from
/// every timed sink call.
fn clock_pair_ns() -> f64 {
    const N: u32 = 200_000;
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..N {
        let s = Instant::now();
        acc = acc.wrapping_add(s.elapsed().as_nanos() as u64);
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

/// One in-situ sweep unit.
struct UnitTrace {
    wall: Duration,
    sink_ns: u64,
    sink_calls: u64,
    counts: [u64; COUNTERS],
    values: String,
    app_ops: u64,
    app_bytes: u64,
    fs_ops: u64,
    fs_bytes: u64,
    retry_ops: u64,
}

/// A swept case, kept for the capture run.
struct SweptCase {
    case: ResolvedCase,
    selection: MetricSelection,
    processes: usize,
    /// In-situ units in seed order (`None` = the unit failed).
    units: Vec<Option<UnitTrace>>,
}

/// The sweep executor of the traced run.
pub struct TracedSweeper {
    threads: usize,
    cases: Vec<SweptCase>,
    wall: Duration,
}

impl TracedSweeper {
    pub fn new(threads: usize) -> Self {
        TracedSweeper {
            threads,
            cases: Vec::new(),
            wall: Duration::ZERO,
        }
    }
}

impl Sweeper for TracedSweeper {
    fn sweep(&mut self, job: &SweepJob<'_>, scale: &Scale, seeds: &[u64]) -> (Vec<CasePoint>, u64) {
        let workloads: Vec<_> = job.cases.iter().map(|c| build_workload(c, scale)).collect();
        let specs: Vec<CaseSpec> = job
            .cases
            .iter()
            .zip(&workloads)
            .map(|(c, w)| case_spec(c, w.as_ref()))
            .collect();
        let sel = job.selection;
        let started = Instant::now();
        let runs = SweepExec::new(self.threads).run_indexed(specs.len() * seeds.len(), |i| {
            let (ci, si) = (i / seeds.len(), i % seeds.len());
            catch_unwind(AssertUnwindSafe(|| {
                let before = tally();
                let t = Instant::now();
                let sink = run_case_with(
                    &specs[ci],
                    seeds[si],
                    TimingSink {
                        inner: StreamingMetrics::for_selection(sel),
                        ..TimingSink::default()
                    },
                );
                let wall = t.elapsed();
                let after = tally();
                let m = &sink.inner;
                let unit = UnitTrace {
                    wall,
                    sink_ns: sink.ns,
                    sink_calls: sink.calls,
                    counts: std::array::from_fn(|k| after[k] - before[k]),
                    values: format!("{:?}", UnitValues::capture(m, sel)),
                    app_ops: m.op_count(Layer::Application),
                    app_bytes: m.bytes(Layer::Application),
                    fs_ops: m.op_count(Layer::FileSystem),
                    fs_bytes: m.bytes(Layer::FileSystem),
                    retry_ops: m.op_count(Layer::Retry),
                };
                (sink.inner, unit)
            }))
            .ok()
        });
        self.wall += started.elapsed();
        let mut runs = runs.into_iter();
        let mut points = Vec::with_capacity(job.cases.len());
        let mut failed = 0;
        for (c, w) in job.cases.iter().zip(&workloads) {
            let mut survived = Vec::new();
            let mut units = Vec::new();
            for _ in seeds {
                match runs.next().expect("one run per unit") {
                    Some((m, u)) => {
                        survived.push(m);
                        units.push(Some(u));
                    }
                    None => {
                        failed += 1;
                        units.push(None);
                    }
                }
            }
            let mut point = CasePoint::from_runs_selected(c.label.clone(), &survived, sel);
            if survived.is_empty() {
                point.failed = Some(FailureKind::Panic);
            }
            points.push(point);
            self.cases.push(SweptCase {
                case: (*c).clone(),
                selection: sel.clone(),
                processes: w.processes(),
                units,
            });
        }
        (points, failed)
    }
}

/// Requests kept per case for replay.
const SAMPLE: usize = 4096;

/// Capture-run sink: device and network totals, the device busy union,
/// and a sample of requests per layer.
#[derive(Default)]
struct Capture {
    sample: bool,
    dev_ops: u64,
    dev_bytes: u64,
    dev_spans: Vec<(u64, u64)>,
    net_ops: u64,
    dev: Vec<IoRecord>,
    net: Vec<IoRecord>,
    app: Vec<IoRecord>,
}

impl RecordSink for Capture {
    fn on_record(&mut self, r: &IoRecord) {
        let keep = |v: &mut Vec<IoRecord>, sample: bool| {
            if sample && v.len() < SAMPLE {
                v.push(*r);
            }
        };
        match r.layer {
            Layer::Device => {
                self.dev_ops += 1;
                self.dev_bytes += r.bytes;
                self.dev_spans.push((r.start.0, r.end.0));
                keep(&mut self.dev, self.sample);
            }
            Layer::Network => {
                self.net_ops += 1;
                keep(&mut self.net, self.sample);
            }
            Layer::Application => keep(&mut self.app, self.sample),
            Layer::FileSystem | Layer::Retry => {}
        }
    }
}

/// Length of the union of `[start, end)` spans, in ns.
fn union_ns(mut spans: Vec<(u64, u64)>) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in spans {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// `runner::run_case_with`, with the stack assembled here as
/// `TopologySpec::build` assembles it, but with device and network
/// records switched on.
fn run_captured<S: RecordSink + Default>(spec: &CaseSpec<'_>, seed: u64, sink: S) -> S {
    let mut seed_rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    let server_cpu = Dur::from_secs_f64(25e-6 * (0.85 + 0.3 * seed_rng.unit()));
    let file_sizes = spec.workload.file_sizes();
    let topology = spec.effective_topology();
    topology.validate().expect("bundled topologies validate");
    let mut b = StackBuilder::default();
    for node in topology.nodes() {
        node.component().install(&mut b);
    }
    let fs =
        b.fs.clone()
            .expect("validation guarantees a file-system node");
    let device = b.device.unwrap_or(DeviceNode::Hdd);
    let mut fault = spec.fault.clone();
    if let Some(net) = &b.net {
        if let Some(rate) = net.loss_rate.filter(|&r| r > 0.0) {
            let ms = net
                .retransmit_delay_ms
                .unwrap_or(NetChoice::DEFAULT_RETRANSMIT_MS);
            fault = fault.with_link_loss(rate, Dur::from_millis(ms));
        }
    }
    let servers = match fs {
        FsChoice::Parallel { servers } => servers,
        FsChoice::Local { .. } => 1,
    };
    let cfg = ClusterConfig {
        servers,
        clients: spec.clients.max(1),
        device: device.to_spec(),
        sched: DiskSched::Fifo,
        server_cpu,
        jitter: Jitter::DEFAULT,
        seed,
        record_device_layer: true,
        record_net_layer: true,
        fault,
    };
    let cluster = Cluster::with_sink(&cfg, sink);
    let layout = match spec.layout {
        LayoutPolicy::DefaultStripe => Layout::DefaultStripe,
        LayoutPolicy::PinnedPerFile => Layout::PinnedPerFile,
    };
    let (backend, files): (FsBackend, Vec<bps_core::record::FileId>) = match fs {
        FsChoice::Local { overhead_us } => {
            let mut local = LocalFs::new(0);
            if let Some(us) = overhead_us {
                local = local.with_overhead(Dur::from_micros(us));
            }
            let files = file_sizes.iter().map(|&s| local.create(s)).collect();
            (FsBackend::Local(local), files)
        }
        FsChoice::Parallel { servers } => {
            let mut pfs = ParallelFs::new(servers);
            let files = file_sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| pfs.create(s, stripe_layout(layout, servers, i)))
                .collect();
            (FsBackend::Parallel(pfs), files)
        }
    };
    let mut stack = IoStack::new(cluster, backend);
    stack.sieving = match b.sieving {
        Some(true) => SievingConfig::romio_default(),
        Some(false) => SievingConfig::disabled(),
        None => spec.sieving,
    };
    if let Some(window) = b.prefetch_window {
        stack.prefetch = Some(PrefetchConfig { window });
    }
    stack.retry = spec.retry;
    run_workload(stack, spec.workload, &files, spec.cpu_per_op).0
}

fn stripe_layout(layout: Layout, servers: usize, file: usize) -> StripeLayout {
    match layout {
        Layout::DefaultStripe => StripeLayout::default_over(servers),
        Layout::PinnedPerFile => StripeLayout::pinned(file % servers),
    }
}

fn fresh_device(spec: &DeviceSpec) -> Device {
    let model: Box<dyn DeviceModel> = match spec {
        DeviceSpec::Hdd(p) => Box::new(Hdd::new(p.clone())),
        DeviceSpec::Raid0 { member, members } => Box::new(Raid0::new(member.clone(), *members)),
        DeviceSpec::Ssd(p) => Box::new(Ssd::new(p.clone())),
        DeviceSpec::Ram {
            fixed,
            rate,
            capacity,
        } => Box::new(Ram::new(*fixed, *rate, *capacity)),
    };
    Device::new(
        model,
        DiskSched::Fifo,
        Jitter::DEFAULT,
        SimRng::seed_from_u64(1),
    )
}

/// Per-case capture result: totals plus the replay samples.
#[derive(Default)]
struct Captured {
    dev_ops: u64,
    dev_bytes: u64,
    dev_busy_ns: u64,
    net_ops: u64,
    dev: Vec<IoRecord>,
    net: Vec<IoRecord>,
    app: Vec<IoRecord>,
}

/// A no-op process: wakes `left` more times, `stride` ns apart.
struct Noop {
    left: u64,
    stride: u64,
}

impl Process<()> for Noop {
    fn wake(&mut self, now: Nanos, _env: &mut (), _waker: &mut Waker) -> Wake {
        if self.left == 0 {
            return Wake::Done;
        }
        self.left -= 1;
        Wake::At(now + Dur(self.stride))
    }
}

/// Median ns/wake of no-op processes through `run_processes`.
fn floor_ns_per_wake(processes: usize) -> f64 {
    const WAKES: u64 = 400_000;
    let per = WAKES / processes as u64;
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut procs: Vec<Noop> = (0..processes)
                .map(|i| Noop {
                    left: per,
                    stride: 1000 + i as u64,
                })
                .collect();
            let t = Instant::now();
            let out = run_processes(&mut procs, &mut ());
            let ns = t.elapsed().as_nanos() as f64;
            ns / black_box(out.wakes) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Run `f` on fresh state until at least `min` has elapsed; returns ns
/// per call over all rounds.
fn replay<F: FnMut() -> u64>(min: Duration, mut round: F) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    loop {
        calls += round();
        if calls == 0 || t.elapsed() >= min {
            break;
        }
    }
    if calls == 0 {
        return 0.0;
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

/// Capture, replay and floor over everything the traced sweeper ran, and
/// assemble the per-layer figures the traced process measures itself
/// (`run.py` adds `sim.engine.headroom` and `trace.overhead_frac`, which
/// need the untraced passes).
pub fn layers(
    sweeper: &TracedSweeper,
    scale: &Scale,
    seeds: &[u64],
    threads: usize,
) -> Result<Vec<(&'static str, f64)>, String> {
    let units: Vec<(&SweptCase, usize, &UnitTrace)> = sweeper
        .cases
        .iter()
        .flat_map(|c| {
            c.units
                .iter()
                .enumerate()
                .filter_map(move |(si, u)| u.as_ref().map(|u| (c, si, u)))
        })
        .collect();

    // Capture: every in-situ unit once more with device/net records on.
    let captured = SweepExec::new(threads).run_indexed(units.len(), |i| {
        let (c, si, u) = units[i];
        let workload = build_workload(&c.case, scale);
        let spec = case_spec(&c.case, workload.as_ref());
        let pvfs = matches!(c.case.storage, StorageSpec::Pvfs { .. });
        let sink = Tee(
            StreamingMetrics::for_selection(&c.selection),
            Capture {
                sample: si == 0,
                ..Capture::default()
            },
        );
        let Tee(m, cap) = run_captured(&spec, seeds[si], sink);
        let values = format!("{:?}", UnitValues::capture(&m, &c.selection));
        if values != u.values {
            return Err(format!(
                "capture of `{}` seed {} diverged from the in-situ run: {values} vs {}",
                c.case.label, seeds[si], u.values
            ));
        }
        // Replays submit in start order, as the engine did.
        let (mut dev, mut net) = (cap.dev, cap.net);
        dev.sort_by_key(|r| r.start);
        net.sort_by_key(|r| r.start);
        Ok(Captured {
            dev_ops: cap.dev_ops,
            dev_bytes: cap.dev_bytes,
            dev_busy_ns: union_ns(cap.dev_spans),
            net_ops: cap.net_ops,
            dev,
            net,
            app: if pvfs { cap.app } else { Vec::new() },
        })
    });
    let captured: Vec<Captured> = captured.into_iter().collect::<Result<_, _>>()?;

    let mut r = Vec::new();
    let mut put = |name: &'static str, v: f64| r.push((name, v));
    let sum = |f: &dyn Fn(&UnitTrace) -> u64| units.iter().map(|(_, _, u)| f(u)).sum::<u64>();
    let count = |c: Counter| sum(&|u: &UnitTrace| u.counts[c as usize]);

    // Engine: wakes in situ, and the no-op floor at each case's process
    // count, weighted by that case's wakes.
    let wakes = count(Counter::EngineWakes);
    let mut floors: Vec<(usize, f64)> = Vec::new();
    let mut weighted = 0.0;
    for (c, _, u) in &units {
        let f = match floors.iter().find(|(p, _)| *p == c.processes) {
            Some(&(_, f)) => f,
            None => {
                let f = floor_ns_per_wake(c.processes);
                floors.push((c.processes, f));
                f
            }
        };
        weighted += f * u.counts[Counter::EngineWakes as usize] as f64;
    }
    let floor = if wakes > 0 {
        weighted / wakes as f64
    } else {
        0.0
    };
    put("sim.engine.wakes", wakes as f64);
    put("sim.engine.floor_ns_per_wake", floor);

    // Device: exact totals from the capture, host cost by replay.
    let min = Duration::from_millis(40);
    let dev_ops: u64 = captured.iter().map(|c| c.dev_ops).sum();
    let dev_ns = replay(min, || {
        let mut calls = 0;
        for (cap, (c, _, _)) in captured.iter().zip(&units) {
            if cap.dev.is_empty() {
                continue;
            }
            let node = device_node(&c.case);
            let mut dev = fresh_device(&node.to_spec());
            for q in &cap.dev {
                let req = DeviceReq {
                    lba: q.offset / bps_core::block::BLOCK_SIZE,
                    blocks: bps_core::block::blocks_for_bytes(q.bytes),
                    op: q.op,
                };
                black_box(dev.submit(q.start, req));
            }
            calls += cap.dev.len() as u64;
        }
        calls
    });
    put("sim.device.ops", dev_ops as f64);
    put(
        "sim.device.bytes",
        captured.iter().map(|c| c.dev_bytes).sum::<u64>() as f64,
    );
    put(
        "sim.device.busy_s",
        captured.iter().map(|c| c.dev_busy_ns).sum::<u64>() as f64 * 1e-9,
    );
    put("sim.device.ns_per_op", dev_ns);

    // File system: exact in-situ counts; the stripe map by replay of the
    // application requests of striped cases.
    let fs_ops = sum(&|u| u.fs_ops);
    let app_ops = sum(&|u| u.app_ops);
    // Each striped file's layout, built outside the timed replay.
    let striped: Vec<(Vec<StripeLayout>, &[IoRecord])> = captured
        .iter()
        .zip(&units)
        .filter_map(|(cap, (c, _, _))| {
            let StorageSpec::Pvfs { servers } = c.case.storage else {
                return None;
            };
            let layout = match c.case.layout {
                LayoutSpec::DefaultStripe => Layout::DefaultStripe,
                LayoutSpec::PinnedPerFile => Layout::PinnedPerFile,
            };
            let files = cap.app.iter().map(|q| q.file.0 as usize + 1).max()?;
            let layouts = (0..files)
                .map(|f| stripe_layout(layout, servers, f))
                .collect();
            Some((layouts, cap.app.as_slice()))
        })
        .collect();
    let map_ns = replay(min, || {
        let mut calls = 0;
        for (layouts, app) in &striped {
            for q in app.iter() {
                black_box(layouts[q.file.0 as usize].map(q.offset, q.bytes).len());
            }
            calls += app.len() as u64;
        }
        calls
    });
    put("fs.ops", fs_ops as f64);
    put("fs.bytes", sum(&|u| u.fs_bytes) as f64);
    put("fs.chunks_per_op", ratio(fs_ops, app_ops));
    put("fs.ns_per_map", map_ns);

    // Network: payload legs from the capture, host cost by replay of
    // each leg through client link, switch and server link.
    let net_ops: u64 = captured.iter().map(|c| c.net_ops).sum();
    let net_ns = replay(min, || {
        let mut calls = 0;
        for cap in &captured {
            if cap.net.is_empty() {
                continue;
            }
            let mut a = Link::gigabit_ethernet();
            let mut b = Link::gigabit_ethernet();
            let mut sw = Switch::gigabit_cluster();
            for q in &cap.net {
                let t = a.transfer(q.start, q.bytes);
                let t = sw.forward(t, q.bytes);
                black_box(b.transfer(t, q.bytes));
            }
            calls += cap.net.len() as u64;
        }
        calls
    });
    put("net.transfers", net_ops as f64);
    put("net.ns_per_transfer", net_ns);

    // Middleware: bytes the application asked for, and bytes moved per
    // byte asked (sieving and failover read more).
    let app_bytes = sum(&|u| u.app_bytes);
    put("middleware.app_bytes", app_bytes as f64);
    put(
        "middleware.amplification",
        ratio(sum(&|u| u.fs_bytes), app_bytes),
    );

    // Sink: records and batches in situ, host time inside the sink calls
    // less the clock reads that timed them.
    let records = count(Counter::SinkRecords);
    let batches = count(Counter::SinkBatches);
    let clock = clock_pair_ns();
    let sink_ns = (sum(&|u| u.sink_ns) as f64 - clock * sum(&|u| u.sink_calls) as f64).max(0.0);
    let unit_ns: f64 = units.iter().map(|(_, _, u)| u.wall.as_nanos() as f64).sum();
    put("sink.records", records as f64);
    put("sink.batches", batches as f64);
    put("sink.records_per_batch", ratio(records, batches));
    put(
        "sink.ns_per_record",
        if records > 0 {
            sink_ns / records as f64
        } else {
            0.0
        },
    );
    put(
        "sink.share",
        if unit_ns > 0.0 {
            sink_ns / unit_ns
        } else {
            0.0
        },
    );

    // Faults and retries.
    let injected = count(Counter::FaultDeviceErrors)
        + count(Counter::FaultLinkLosses)
        + count(Counter::FaultOutageRefusals)
        + count(Counter::FaultSlowdowns);
    put("fault.injected", injected as f64);
    put("retry.attempts", count(Counter::RetryAttempts) as f64);
    put("retry.exhausted", count(Counter::RetryExhausted) as f64);
    let retry_records = sum(&|u| u.retry_ops);
    put("retry.useful_frac", ratio(app_ops, app_ops + retry_records));

    // Sweep scheduling.
    let mut unit_ms: Vec<f64> = units
        .iter()
        .map(|(_, _, u)| u.wall.as_secs_f64() * 1e3)
        .collect();
    unit_ms.sort_by(f64::total_cmp);
    let wall = sweeper.wall.as_secs_f64();
    put("sweep.units", units.len() as f64);
    put("sweep.unit_ms.p50", percentile(&unit_ms, 0.5));
    put("sweep.unit_ms.p95", percentile(&unit_ms, 0.95));
    put("sweep.unit_samples", unit_ms.len() as f64);
    let per_thread = wall * threads as f64;
    put(
        "sweep.efficiency",
        if per_thread > 0.0 {
            unit_ns * 1e-9 / per_thread
        } else {
            0.0
        },
    );
    put(
        "sweep.critical_frac",
        if wall > 0.0 {
            unit_ms.last().copied().unwrap_or(0.0) * 1e-3 / wall
        } else {
            0.0
        },
    );

    // What the layers above leave of the unit time: the sink in situ,
    // and the engine floor, device, map and net costs at replay rates.
    let striped_fs_ops: u64 = units
        .iter()
        .filter(|(c, _, _)| matches!(c.case.storage, StorageSpec::Pvfs { .. }))
        .map(|(_, _, u)| u.fs_ops)
        .sum();
    let covered = sink_ns
        + floor * wakes as f64
        + dev_ns * dev_ops as f64
        + net_ns * net_ops as f64
        + map_ns * striped_fs_ops as f64;
    put(
        "trace.unattributed_share",
        if unit_ns > 0.0 {
            1.0 - covered / unit_ns
        } else {
            0.0
        },
    );
    Ok(r)
}

fn device_node(case: &ResolvedCase) -> DeviceNode {
    let mut b = StackBuilder::default();
    for node in case.effective_topology().nodes() {
        node.component().install(&mut b);
    }
    b.device.unwrap_or(DeviceNode::Hdd)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Compare a pass's points with the reference lines of the untraced
/// pass, bit for bit.
pub fn check_points(results: &[pass::ScenarioResult], reference: &str) -> Result<(), String> {
    let mine = points_text(results);
    if mine == reference {
        return Ok(());
    }
    let diff = mine
        .lines()
        .zip(reference.lines())
        .find(|(a, b)| a != b)
        .map(|(a, b)| format!("traced `{a}` vs untraced `{b}`"))
        .unwrap_or_else(|| "different case lists".to_string());
    Err(format!(
        "traced points differ from the untraced pass: {diff}"
    ))
}

/// One line per case: scenario, label, and every metric's bits.
pub fn points_text(results: &[pass::ScenarioResult]) -> String {
    let mut s = String::new();
    for r in results {
        for p in &r.points {
            s.push_str(&format!(
                "{}\t{}\t{}\n",
                r.name,
                p.label,
                pass::point_bits(p)
            ));
        }
    }
    s
}
