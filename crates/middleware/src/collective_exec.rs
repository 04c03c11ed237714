//! Executing two-phase collective reads under the simulation engine.
//!
//! [`crate::collective`] plans the phases; this module runs them. All
//! workload processes arrive at the collective call (a barrier); the last
//! arriver executes the whole schedule — aggregators read their contiguous
//! file domains, then the exchange phase ships every process its pieces
//! over the client network — and computes each participant's completion
//! instant. Chaining the aggregator reads inside one engine wake is safe
//! here precisely *because* every participant is parked at the barrier:
//! no concurrent process can observe the advanced resource clocks.

use crate::collective::plan_collective_read;
use crate::stack::IoStack;
use bps_core::extent::{covered_bytes, normalize, Extent};
use bps_core::record::{FileId, ProcessId};
use bps_core::sink::RecordSink;
use bps_core::time::Nanos;

/// One process's registration at a collective call.
#[derive(Debug, Clone)]
pub struct CollectiveArrival {
    /// Engine process index (for the waker).
    pub engine_idx: usize,
    /// Trace process id.
    pub pid: ProcessId,
    /// Client node.
    pub client: usize,
    /// The regions this process needs.
    pub regions: Vec<Extent>,
    /// Arrival instant.
    pub at: Nanos,
}

/// Barrier + schedule state for collective calls. One collective is in
/// flight at a time (MPI semantics on one communicator).
#[derive(Debug, Default)]
pub struct CollectiveState {
    /// Number of participants each collective call must gather (set by the
    /// workload runner; 0 disables collectives).
    pub group_size: usize,
    arrivals: Vec<CollectiveArrival>,
}

impl CollectiveState {
    /// Arrival instant of the earliest process parked at the barrier, if
    /// any: its application record will start there.
    pub(crate) fn earliest_arrival(&self) -> Option<Nanos> {
        self.arrivals.iter().map(|a| a.at).min()
    }
}

/// What the arriving process should do next.
#[derive(Debug)]
pub enum CollectiveOutcome {
    /// Not everyone is here yet: park until released.
    Wait,
    /// The call executed. Per-participant `(engine_idx, completion)`,
    /// including the caller's own.
    Complete(Vec<(usize, Nanos)>),
}

impl<S: RecordSink> IoStack<S> {
    /// Register one process's arrival at the current collective read of
    /// `file`. When the last participant arrives, the two-phase schedule
    /// executes and per-participant completions are returned.
    pub fn collective_arrive(
        &mut self,
        arrival: CollectiveArrival,
        file: FileId,
    ) -> CollectiveOutcome {
        assert!(
            self.collective.group_size > 0,
            "collective issued but no collective group configured"
        );
        self.collective.arrivals.push(arrival);
        if self.collective.arrivals.len() < self.collective.group_size {
            return CollectiveOutcome::Wait;
        }
        // Barrier complete: take the arrivals and execute.
        let mut arrivals = std::mem::take(&mut self.collective.arrivals);
        // Deterministic aggregator order: by pid.
        arrivals.sort_by_key(|a| a.pid);
        let barrier = arrivals.iter().map(|a| a.at).max().expect("non-empty");

        // Phase plan over the per-process region lists.
        let requests: Vec<Vec<Extent>> = arrivals.iter().map(|a| a.regions.clone()).collect();
        let plan = plan_collective_read(&requests, arrivals.len());

        // Phase 1: each aggregator reads its file domain contiguously.
        let mut completions: Vec<Nanos> = vec![barrier; arrivals.len()];
        let mut agg_done: Vec<Nanos> = vec![barrier; arrivals.len()];
        for agg in &plan.aggregators {
            let who = &arrivals[agg.aggregator];
            let mut t = barrier;
            for read in &agg.reads {
                // An aggregator read that exhausts its retries is abandoned
                // (retry records already emitted); the collective proceeds
                // with the failure-detection instant as that read's end so
                // every parked participant is still released.
                t = match self.fs_read_raw(who.pid, who.client, file, *read, t) {
                    Ok(done) => done,
                    Err(e) => e.fail_time().unwrap_or(t),
                };
            }
            agg_done[agg.aggregator] = t;
            completions[agg.aggregator] = completions[agg.aggregator].max(t);
        }
        // Phase 2: exchange — ship each process its pieces from every
        // aggregator holding them.
        for agg in &plan.aggregators {
            let from_client = arrivals[agg.aggregator].client;
            let mut t = agg_done[agg.aggregator];
            for &(proc_idx, bytes) in &agg.exchanges {
                t = self
                    .cluster
                    .client_to_client(from_client, arrivals[proc_idx].client, bytes, t);
                completions[proc_idx] = completions[proc_idx].max(t);
            }
            // The aggregator itself is done once it has shipped everything.
            completions[agg.aggregator] = completions[agg.aggregator].max(t);
        }

        // Record one application-layer call per participant: its own
        // required bytes, from its arrival to its completion.
        let mut out = Vec::with_capacity(arrivals.len());
        for (i, a) in arrivals.iter().enumerate() {
            let required = covered_bytes(&normalize(&a.regions));
            let first_offset = a.regions.first().map(|r| r.offset).unwrap_or(0);
            self.record_app_read(a.pid, file, first_offset, required, a.at, completions[i]);
            out.push((a.engine_idx, completions[i]));
        }
        CollectiveOutcome::Complete(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::FsBackend;
    use bps_core::record::Layer;
    use bps_core::time::Dur;
    use bps_fs::cluster::{Cluster, ClusterConfig, DeviceSpec};
    use bps_fs::layout::StripeLayout;
    use bps_fs::pfs::ParallelFs;
    use bps_sim::device::DiskSched;
    use bps_sim::rng::Jitter;

    fn stack(group: usize) -> (IoStack, FileId) {
        let cluster = Cluster::new(&ClusterConfig {
            servers: 2,
            clients: group.max(1),
            device: DeviceSpec::Ram {
                fixed: Dur::from_micros(100),
                rate: 100_000_000,
                capacity: 1 << 40,
            },
            sched: DiskSched::Fifo,
            server_cpu: Dur::from_micros(25),
            jitter: Jitter::NONE,
            seed: 1,
            record_device_layer: false,
            record_net_layer: false,
            fault: bps_sim::fault::FaultPlan::none(),
        });
        let mut pfs = ParallelFs::new(2);
        let file = pfs.create(16 << 20, StripeLayout::default_over(2));
        let mut s = IoStack::new(cluster, FsBackend::Parallel(pfs));
        s.collective.group_size = group;
        (s, file)
    }

    fn arrival(i: usize, regions: Vec<Extent>, at_ms: u64) -> CollectiveArrival {
        CollectiveArrival {
            engine_idx: i,
            pid: ProcessId(i as u32),
            client: i,
            regions,
            at: Nanos::from_millis(at_ms),
        }
    }

    #[test]
    fn early_arrivals_wait_last_completes() {
        let (mut s, file) = stack(3);
        let regions = |p: usize| {
            (0..4)
                .map(|b| Extent::new(((b * 3 + p) * 4096) as u64, 4096))
                .collect()
        };
        assert!(matches!(
            s.collective_arrive(arrival(0, regions(0), 1), file),
            CollectiveOutcome::Wait
        ));
        assert!(matches!(
            s.collective_arrive(arrival(1, regions(1), 2), file),
            CollectiveOutcome::Wait
        ));
        let out = s.collective_arrive(arrival(2, regions(2), 5), file);
        let CollectiveOutcome::Complete(finishes) = out else {
            panic!("expected completion");
        };
        assert_eq!(finishes.len(), 3);
        // Nothing completes before the barrier (5 ms).
        for (_, t) in &finishes {
            assert!(*t >= Nanos::from_millis(5));
        }
        // One app record per participant, with each's own required bytes.
        let trace = s.finish(Dur::ZERO);
        assert_eq!(trace.op_count(Layer::Application), 3);
        assert_eq!(trace.bytes(Layer::Application), 3 * 4 * 4096);
        // Aggregators read the union exactly once at the FS layer.
        assert_eq!(trace.bytes(Layer::FileSystem), 3 * 4 * 4096);
    }

    #[test]
    fn single_process_collective_is_immediate() {
        let (mut s, file) = stack(1);
        let out = s.collective_arrive(arrival(0, vec![Extent::new(0, 8192)], 0), file);
        assert!(matches!(out, CollectiveOutcome::Complete(v) if v.len() == 1));
    }

    #[test]
    #[should_panic(expected = "no collective group")]
    fn collective_without_group_panics() {
        let (mut s, file) = stack(0);
        s.collective_arrive(arrival(0, vec![Extent::new(0, 512)], 0), file);
    }

    #[test]
    fn state_resets_between_calls() {
        let (mut s, file) = stack(2);
        let r = vec![Extent::new(0, 4096)];
        assert!(matches!(
            s.collective_arrive(arrival(0, r.clone(), 0), file),
            CollectiveOutcome::Wait
        ));
        assert!(matches!(
            s.collective_arrive(arrival(1, r.clone(), 1), file),
            CollectiveOutcome::Complete(_)
        ));
        // A second collective round works identically.
        assert!(matches!(
            s.collective_arrive(arrival(0, r.clone(), 10), file),
            CollectiveOutcome::Wait
        ));
        assert!(matches!(
            s.collective_arrive(arrival(1, r, 11), file),
            CollectiveOutcome::Complete(_)
        ));
    }
}
