//! The assembled I/O stack: application entry points over a file system.
//!
//! [`IoStack`] is what a simulated application talks to. Its methods are
//! the instrumentation point of the paper's methodology: every call records
//! one application-layer [`bps_core::record::IoRecord`] with the process
//! id, the *required* size, and the call's start/end — while the file
//! system below records what actually moved.

use crate::prefetch::{PrefetchConfig, PrefetchDecision, PrefetchState};
use crate::sieving::{plan_read, SievingConfig};
use bps_core::error::IoError;
use bps_core::extent::Extent;
use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::retry::{issue_with_retry, RetryIo};
use bps_core::sink::RecordSink;
use bps_core::time::{Dur, Nanos};
use bps_core::trace::Trace;
use bps_fs::cluster::Cluster;
use bps_fs::localfs::LocalFs;
use bps_fs::pfs::ParallelFs;
use std::collections::HashMap;

/// The shared bounded-backoff retry policy; lives in
/// [`bps_core::retry`] and is re-exported here for the middleware's
/// historical callers.
///
/// Every abandoned attempt is recorded as a [`Layer::Retry`] record (which
/// never counts toward the paper's four metrics); the successful attempt
/// records normally, so a degraded run shows longer application records
/// plus retry sub-records rather than a panic.
pub use bps_core::retry::RetryPolicy;

/// The file system under the middleware.
pub enum FsBackend {
    /// A local file system on one device (the paper's HDD/SSD cases).
    Local(LocalFs),
    /// The striped parallel file system (the paper's PVFS2 cases).
    Parallel(ParallelFs),
}

impl FsBackend {
    #[allow(clippy::too_many_arguments)]
    fn io<S: RecordSink>(
        &mut self,
        cluster: &mut Cluster<S>,
        pid: ProcessId,
        client: usize,
        file: FileId,
        extent: Extent,
        op: IoOp,
        now: Nanos,
    ) -> Result<Nanos, IoError> {
        match self {
            FsBackend::Local(fs) => fs.io(cluster, pid, file, extent.offset, extent.len, op, now),
            FsBackend::Parallel(fs) => fs.io(
                cluster,
                pid,
                client,
                file,
                extent.offset,
                extent.len,
                op,
                now,
            ),
        }
    }

    /// Size of a file.
    pub fn file_size(&self, file: FileId) -> u64 {
        match self {
            FsBackend::Local(fs) => fs.file_size(file),
            FsBackend::Parallel(fs) => fs.meta(file).size,
        }
    }
}

/// One request's view of the backend for the shared retry loop: attempts
/// go through the file system, abandoned attempts become `Layer::Retry`
/// records in the cluster's sink. Borrows the backend and cluster
/// separately so both are reachable from one `&mut` context.
struct BackendRetry<'a, S: RecordSink> {
    backend: &'a mut FsBackend,
    cluster: &'a mut Cluster<S>,
    pid: ProcessId,
    client: usize,
    file: FileId,
    extent: Extent,
    op: IoOp,
}

impl<S: RecordSink> RetryIo for BackendRetry<'_, S> {
    fn attempt(&mut self, at: Nanos) -> Result<Nanos, IoError> {
        self.backend.io(
            self.cluster,
            self.pid,
            self.client,
            self.file,
            self.extent,
            self.op,
            at,
        )
    }

    fn on_abandoned(&mut self, start: Nanos, end: Nanos) {
        self.cluster.record_retry(
            self.pid,
            self.file,
            self.extent.offset,
            self.extent.len,
            self.op,
            start,
            end,
        );
    }
}

/// The middleware + file system + cluster, as one environment for the
/// simulation engine.
///
/// Generic over the [`RecordSink`] observing the record stream: the
/// default [`Trace`] materializes every record as before, while e.g.
/// [`bps_core::sink::StreamingMetrics`] folds them into small
/// accumulators as each request completes.
pub struct IoStack<S: RecordSink = Trace> {
    /// The simulated machines and the record sink being fed.
    pub cluster: Cluster<S>,
    /// The file system below.
    pub backend: FsBackend,
    /// Data sieving configuration for noncontiguous reads.
    pub sieving: SievingConfig,
    /// Sequential read-ahead; `None` disables prefetching.
    pub prefetch: Option<PrefetchConfig>,
    /// Memory-copy rate for prefetch hits and sieving extraction,
    /// bytes/second.
    pub memcpy_rate: u64,
    /// Barrier state for collective calls (group size 0 = disabled).
    pub collective: crate::collective_exec::CollectiveState,
    /// Timeout/retry/backoff behavior for faulted requests.
    pub retry: RetryPolicy,
    /// Requests abandoned after exhausting every retry (degraded-run
    /// diagnostic; stays 0 on a healthy cluster).
    pub abandoned_ops: u64,
    prefetch_states: HashMap<(ProcessId, FileId), PrefetchState>,
    /// Start instants of multi-wake application calls still in flight:
    /// their application records will start there.
    open_calls: Vec<Nanos>,
}

impl<S: RecordSink> IoStack<S> {
    /// Assemble a stack with ROMIO-default sieving and no prefetching.
    pub fn new(cluster: Cluster<S>, backend: FsBackend) -> Self {
        IoStack {
            cluster,
            backend,
            sieving: SievingConfig::romio_default(),
            prefetch: None,
            memcpy_rate: 10_000_000_000,
            collective: crate::collective_exec::CollectiveState::default(),
            retry: RetryPolicy::default(),
            abandoned_ops: 0,
            prefetch_states: HashMap::new(),
            open_calls: Vec::new(),
        }
    }

    fn memcpy_cost(&self, bytes: u64) -> Dur {
        Dur::from_secs_f64(bytes as f64 / self.memcpy_rate as f64)
    }

    #[allow(clippy::too_many_arguments)]
    fn record_app(
        &mut self,
        pid: ProcessId,
        file: FileId,
        offset: u64,
        bytes: u64,
        op: IoOp,
        start: Nanos,
        end: Nanos,
    ) {
        self.cluster.record(IoRecord::new(
            pid,
            op,
            file,
            offset,
            bytes,
            start,
            end,
            Layer::Application,
        ));
    }

    /// Issue one request through the backend under this stack's
    /// [`RetryPolicy`], driven by the shared
    /// [`bps_core::retry::issue_with_retry`] loop: transient failures back
    /// off exponentially and retry (each abandoned attempt recorded as
    /// [`Layer::Retry`]); over-long attempts are abandoned at the timeout
    /// and retried; the final attempt's result is accepted as-is.
    /// Non-transient errors (EOF) propagate immediately.
    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        pid: ProcessId,
        client: usize,
        file: FileId,
        extent: Extent,
        op: IoOp,
        now: Nanos,
    ) -> Result<Nanos, IoError> {
        let mut io = BackendRetry {
            backend: &mut self.backend,
            cluster: &mut self.cluster,
            pid,
            client,
            file,
            extent,
            op,
        };
        issue_with_retry(&self.retry, now, &mut io)
    }

    /// POSIX-style contiguous read. Returns the completion instant, or the
    /// typed error once every retry is exhausted (the failed attempts are
    /// already in the record stream as [`Layer::Retry`]).
    pub fn read(
        &mut self,
        pid: ProcessId,
        client: usize,
        file: FileId,
        extent: Extent,
        now: Nanos,
    ) -> Result<Nanos, IoError> {
        let result = match self.prefetch {
            Some(cfg) => {
                let file_size = self.backend.file_size(file);
                let state = self.prefetch_states.entry((pid, file)).or_default();
                match state.on_read(extent, &cfg, file_size) {
                    PrefetchDecision::Hit => Ok(now + self.memcpy_cost(extent.len)),
                    PrefetchDecision::Fetch(fetch) => {
                        self.issue(pid, client, file, fetch, IoOp::Read, now)
                    }
                }
            }
            None => self.issue(pid, client, file, extent, IoOp::Read, now),
        };
        match result {
            Ok(done) => {
                self.record_app(pid, file, extent.offset, extent.len, IoOp::Read, now, done);
                Ok(done)
            }
            Err(e) => {
                self.abandoned_ops += 1;
                Err(e)
            }
        }
    }

    /// POSIX-style contiguous write. Returns the completion instant, or
    /// the typed error once every retry is exhausted.
    pub fn write(
        &mut self,
        pid: ProcessId,
        client: usize,
        file: FileId,
        extent: Extent,
        now: Nanos,
    ) -> Result<Nanos, IoError> {
        match self.issue(pid, client, file, extent, IoOp::Write, now) {
            Ok(done) => {
                self.record_app(pid, file, extent.offset, extent.len, IoOp::Write, now, done);
                Ok(done)
            }
            Err(e) => {
                self.abandoned_ops += 1;
                Err(e)
            }
        }
    }

    /// Plan a noncontiguous read under this stack's sieving configuration.
    pub fn plan_noncontig(&self, regions: &[Extent]) -> crate::sieving::SievePlan {
        plan_read(regions, &self.sieving)
    }

    /// One raw file-system read on behalf of a larger middleware operation:
    /// records only the file-system layer (the caller records the
    /// application-level call once it completes).
    pub fn fs_read_raw(
        &mut self,
        pid: ProcessId,
        client: usize,
        file: FileId,
        extent: Extent,
        now: Nanos,
    ) -> Result<Nanos, IoError> {
        self.issue(pid, client, file, extent, IoOp::Read, now)
    }

    /// Record one application-level read call (used by multi-wake
    /// middleware operations; plain reads record automatically).
    pub fn record_app_read(
        &mut self,
        pid: ProcessId,
        file: FileId,
        offset: u64,
        bytes: u64,
        start: Nanos,
        end: Nanos,
    ) {
        self.record_app(pid, file, offset, bytes, IoOp::Read, start, end);
    }

    /// MPI-IO-style noncontiguous read (one call over many regions), served
    /// through data sieving per the stack's [`SievingConfig`]. The covering
    /// reads are issued one buffer at a time (as ROMIO does); the
    /// application record carries only the *required* bytes.
    ///
    /// NOTE: this convenience entry point chains all covering reads in one
    /// call, which is fine for standalone use but would let one simulated
    /// process advance shared resources deep into the future under the
    /// engine. Engine-driven processes use [`crate::process::AppProcess`],
    /// which spreads the covering reads across wakes instead.
    pub fn read_noncontig(
        &mut self,
        pid: ProcessId,
        client: usize,
        file: FileId,
        regions: &[Extent],
        now: Nanos,
    ) -> Result<Nanos, IoError> {
        let plan = plan_read(regions, &self.sieving);
        let mut t = now;
        for fs_read in &plan.fs_reads {
            t = match self.issue(pid, client, file, *fs_read, IoOp::Read, t) {
                Ok(done) => done,
                Err(e) => {
                    self.abandoned_ops += 1;
                    return Err(e);
                }
            };
        }
        // Copying the requested pieces out of the sieve buffers.
        if plan.sieved {
            t += self.memcpy_cost(plan.moved);
        }
        let first_offset = regions.first().map(|r| r.offset).unwrap_or(0);
        self.record_app(pid, file, first_offset, plan.required, IoOp::Read, now, t);
        Ok(t)
    }

    /// Register an application call that spans several wakes, begun at
    /// `start`: its record, still to come, starts there, so
    /// [`IoStack::end_wake`] holds the watermark back until
    /// [`IoStack::close_call`].
    pub(crate) fn open_call(&mut self, start: Nanos) {
        self.open_calls.push(start);
    }

    /// Deregister a call registered with [`IoStack::open_call`].
    pub(crate) fn close_call(&mut self, start: Nanos) {
        let i = self
            .open_calls
            .iter()
            .position(|&t| t == start)
            .expect("close_call without a matching open_call");
        self.open_calls.swap_remove(i);
    }

    /// Close one engine wake at `now`. Every record a later wake produces
    /// starts at or after that wake's time (≥ `now`), except the records
    /// of calls still in flight: open multi-wake calls and processes
    /// parked at a collective barrier. The watermark is `now` held back to
    /// the earliest of those; the sink may retire what ends before it.
    pub(crate) fn end_wake(&mut self, now: Nanos) {
        let w = self
            .open_calls
            .iter()
            .copied()
            .chain(self.collective.earliest_arrival())
            .fold(now, Ord::min);
        self.cluster.end_wake(w);
    }

    /// Finish a run: stamp the application execution time into the sink and
    /// pull it out (for the default [`Trace`] sink this is the collected
    /// trace, exactly as before).
    pub fn finish(&mut self, exec_time: Dur) -> S
    where
        S: Default,
    {
        self.cluster.sink.on_execution_time(exec_time);
        std::mem::take(&mut self.cluster.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bps_fs::cluster::{ClusterConfig, DeviceSpec};
    use bps_fs::layout::StripeLayout;
    use bps_sim::device::DiskSched;
    use bps_sim::rng::Jitter;

    fn ram_cluster(servers: usize) -> Cluster {
        Cluster::new(&ClusterConfig {
            servers,
            clients: 2,
            device: DeviceSpec::Ram {
                fixed: Dur::from_micros(100),
                rate: 100_000_000,
                capacity: 1 << 40,
            },
            sched: DiskSched::Fifo,
            server_cpu: Dur::from_micros(25),
            jitter: Jitter::NONE,
            seed: 5,
            record_device_layer: false,
            record_net_layer: false,
            fault: bps_sim::fault::FaultPlan::none(),
        })
    }

    fn local_stack() -> (IoStack, FileId) {
        let cluster = ram_cluster(1);
        let mut fs = LocalFs::new(0).with_overhead(Dur::from_micros(50));
        let f = fs.create(64 << 20);
        (IoStack::new(cluster, FsBackend::Local(fs)), f)
    }

    #[test]
    fn read_records_app_and_fs_layers() {
        let (mut stack, f) = local_stack();
        let done = stack
            .read(ProcessId(0), 0, f, Extent::new(0, 4096), Nanos::ZERO)
            .unwrap();
        assert!(done > Nanos::ZERO);
        let trace = stack.finish(done.since(Nanos::ZERO));
        assert_eq!(trace.op_count(Layer::Application), 1);
        assert_eq!(trace.op_count(Layer::FileSystem), 1);
        assert_eq!(trace.bytes(Layer::Application), 4096);
        assert_eq!(trace.bytes(Layer::FileSystem), 4096);
    }

    #[test]
    fn sieved_read_moves_more_than_required() {
        let (mut stack, f) = local_stack();
        let regions: Vec<Extent> = (0..16).map(|i| Extent::new(i * 4096, 256)).collect();
        let done = stack
            .read_noncontig(ProcessId(0), 0, f, &regions, Nanos::ZERO)
            .unwrap();
        let trace = stack.finish(done.since(Nanos::ZERO));
        let required = trace.bytes(Layer::Application);
        let moved = trace.bytes(Layer::FileSystem);
        assert_eq!(required, 16 * 256);
        // Hull = 15*4096 + 256 bytes.
        assert_eq!(moved, 15 * 4096 + 256);
        // One app record for the whole MPI-IO call; one FS read (fits the
        // 4 MB buffer).
        assert_eq!(trace.op_count(Layer::Application), 1);
        assert_eq!(trace.op_count(Layer::FileSystem), 1);
    }

    #[test]
    fn unsieved_read_issues_per_region_fs_ops() {
        let (mut stack, f) = local_stack();
        stack.sieving = SievingConfig::disabled();
        let regions: Vec<Extent> = (0..16).map(|i| Extent::new(i * 4096, 256)).collect();
        let done = stack
            .read_noncontig(ProcessId(0), 0, f, &regions, Nanos::ZERO)
            .unwrap();
        let trace = stack.finish(done.since(Nanos::ZERO));
        assert_eq!(trace.op_count(Layer::FileSystem), 16);
        assert_eq!(trace.bytes(Layer::FileSystem), 16 * 256);
    }

    #[test]
    fn sieving_is_faster_when_holes_are_small() {
        // Dense regions: sieving's one big read beats 64 per-region reads
        // that each pay the per-op overhead.
        let regions: Vec<Extent> = (0..64).map(|i| Extent::new(i * 512, 256)).collect();
        let (mut a, fa) = local_stack();
        a.sieving = SievingConfig::romio_default();
        let t_sieve = a
            .read_noncontig(ProcessId(0), 0, fa, &regions, Nanos::ZERO)
            .unwrap();
        let (mut b, fb) = local_stack();
        b.sieving = SievingConfig::disabled();
        let t_direct = b
            .read_noncontig(ProcessId(0), 0, fb, &regions, Nanos::ZERO)
            .unwrap();
        assert!(t_sieve < t_direct, "sieve {t_sieve} direct {t_direct}");
    }

    #[test]
    fn prefetch_hits_after_warmup() {
        let (mut stack, f) = local_stack();
        stack.prefetch = Some(PrefetchConfig { window: 64 << 10 });
        let mut now = Nanos::ZERO;
        let mut durations = Vec::new();
        for i in 0..8u64 {
            let start = now;
            now = stack
                .read(ProcessId(0), 0, f, Extent::new(i * 4096, 4096), now)
                .unwrap();
            durations.push(now.since(start));
        }
        // Reads 3.. are hits: far cheaper than the first fetch.
        assert!(durations[3] < durations[0] / 10, "{durations:?}");
        let trace = stack.finish(now.since(Nanos::ZERO));
        // FS moved at least as much as the app required.
        assert!(trace.bytes(Layer::FileSystem) >= trace.bytes(Layer::Application));
        // Fewer FS ops than app ops.
        assert!(trace.op_count(Layer::FileSystem) < trace.op_count(Layer::Application));
    }

    #[test]
    fn parallel_backend_stripes() {
        let cluster = ram_cluster(4);
        let mut pfs = ParallelFs::new(4);
        let f = pfs.create(16 << 20, StripeLayout::default_over(4));
        let mut stack = IoStack::new(cluster, FsBackend::Parallel(pfs));
        let done = stack
            .read(ProcessId(0), 0, f, Extent::new(0, 1 << 20), Nanos::ZERO)
            .unwrap();
        let trace = stack.finish(done.since(Nanos::ZERO));
        assert_eq!(trace.op_count(Layer::Application), 1);
        assert_eq!(trace.op_count(Layer::FileSystem), 16);
        assert_eq!(stack.backend.file_size(f), 16 << 20);
    }

    #[test]
    fn empty_noncontig_read_is_instant() {
        let (mut stack, f) = local_stack();
        let done = stack
            .read_noncontig(ProcessId(0), 0, f, &[], Nanos::from_millis(5))
            .unwrap();
        assert_eq!(done, Nanos::from_millis(5));
        let trace = stack.finish(Dur::ZERO);
        assert_eq!(trace.bytes(Layer::Application), 0);
    }
}
