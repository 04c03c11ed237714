//! Assembly: fold a validated component chain into the engine types.
//!
//! [`TopologySpec::build`] turns a node list into the exact
//! [`IoStack`]/[`Cluster`] pair the experiment runner historically
//! hardcoded. Each component [`install`](crate::Component::install)s its
//! configuration into a [`StackBuilder`]; the builder then constructs the
//! cluster, creates the files, and wires the middleware knobs. The
//! prebuilt topologies ([`TopologySpec::local`], [`TopologySpec::pfs`])
//! reproduce the pre-topology assembly byte for byte — same config
//! fields, same construction order, same RNG consumption.

use crate::spec::DeviceNode;
use crate::{TopologyError, TopologySpec};
use bps_core::record::FileId;
use bps_core::retry::RetryPolicy;
use bps_core::sink::RecordSink;
use bps_core::time::Dur;
use bps_fs::cluster::{Cluster, ClusterConfig};
use bps_fs::layout::StripeLayout;
use bps_fs::localfs::LocalFs;
use bps_fs::pfs::ParallelFs;
use bps_middleware::prefetch::PrefetchConfig;
use bps_middleware::sieving::SievingConfig;
use bps_middleware::stack::{FsBackend, IoStack};
use bps_sim::device::DiskSched;
use bps_sim::fault::FaultPlan;
use bps_sim::rng::Jitter;

/// How striped files place their stripes (mirrors the runner's layout
/// policy without depending on the experiments crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Round-robin stripes over all servers.
    DefaultStripe,
    /// Pin file `i` entirely to server `i % servers`.
    PinnedPerFile,
}

/// The file-system choice a component installed.
#[derive(Debug, Clone, PartialEq)]
pub enum FsChoice {
    /// Local file system with an optional per-call overhead override.
    Local {
        /// Per-call overhead in microseconds, `None` for the default.
        overhead_us: Option<u64>,
    },
    /// Striped parallel file system.
    Parallel {
        /// Number of I/O servers.
        servers: usize,
    },
}

impl FsChoice {
    /// I/O servers this file system runs on: one for a local file system.
    fn servers(&self) -> usize {
        match *self {
            FsChoice::Parallel { servers } => servers,
            FsChoice::Local { .. } => 1,
        }
    }
}

/// The interconnect configuration a `Net` component installed.
#[derive(Debug, Clone, PartialEq)]
pub struct NetChoice {
    /// Payload loss probability; `None` or `0.0` is lossless.
    pub loss_rate: Option<f64>,
    /// Retransmit timeout in milliseconds.
    pub retransmit_delay_ms: Option<u64>,
    /// Emit `Layer::Network` records for remote payload legs.
    pub record: bool,
}

impl NetChoice {
    /// Retransmit timeout used when a lossy `Net` node does not set one.
    pub const DEFAULT_RETRANSMIT_MS: u64 = 10;
}

/// Accumulates each component's contribution during assembly.
#[derive(Debug, Default)]
pub struct StackBuilder {
    /// A `Collective` node is present (documentation marker: the
    /// engine's collective execution always follows the workload).
    pub collective: bool,
    /// Sieving override: `Some(true)` ROMIO default, `Some(false)`
    /// disabled, `None` inherit from the environment.
    pub sieving: Option<bool>,
    /// Read-ahead window in bytes, if a `Prefetch` node is present.
    pub prefetch_window: Option<u64>,
    /// The file-system node (validation guarantees exactly one).
    pub fs: Option<FsChoice>,
    /// The interconnect node, if declared.
    pub net: Option<NetChoice>,
    /// The device node; `None` means the implicit HDD default.
    pub device: Option<DeviceNode>,
}

/// Everything the surrounding experiment supplies that is not part of
/// the topology itself: scale, seeding, fault plan, and the middleware
/// defaults a topology may override.
#[derive(Debug, Clone)]
pub struct BuildEnv<'a> {
    /// Number of client nodes (clamped to at least 1).
    pub clients: usize,
    /// Per-request server CPU cost.
    pub server_cpu: Dur,
    /// Simulation seed.
    pub seed: u64,
    /// Sizes of the files to create, in workload order.
    pub file_sizes: &'a [u64],
    /// Stripe placement for parallel file systems.
    pub layout: Layout,
    /// Sieving configuration used when no `Sieving` node overrides it.
    pub sieving: SievingConfig,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Fault plan; a lossy `Net` node composes link loss on top.
    pub fault: FaultPlan,
}

/// A built stack plus the file handles for the workload's files.
pub struct BuiltStack<S: RecordSink> {
    /// The assembled I/O stack, ready for `run_workload`.
    pub stack: IoStack<S>,
    /// One handle per entry of `BuildEnv::file_sizes`.
    pub files: Vec<FileId>,
}

impl TopologySpec {
    /// Servers the built cluster has, numbered `0..servers` as fault
    /// plans address them. `None` when the chain has no file-system node.
    pub fn servers(&self) -> Option<usize> {
        self.install().fs.map(|fs| fs.servers())
    }

    /// Every node's contribution, in declaration order.
    fn install(&self) -> StackBuilder {
        let mut b = StackBuilder::default();
        for node in self.nodes() {
            node.component().install(&mut b);
        }
        b
    }

    /// Validate the chain and assemble it over `sink`.
    pub fn build<S: RecordSink>(
        &self,
        env: &BuildEnv<'_>,
        sink: S,
    ) -> Result<BuiltStack<S>, TopologyError> {
        self.validate()?;
        let b = self.install();
        let fs = b.fs.expect("validation guarantees a file-system node");
        let device = b.device.unwrap_or(DeviceNode::Hdd);

        let mut record_net = false;
        let mut fault = env.fault.clone();
        if let Some(net) = &b.net {
            record_net = net.record;
            if let Some(rate) = net.loss_rate {
                if rate > 0.0 {
                    fault = fault.with_link_loss(
                        rate,
                        Dur::from_millis(
                            net.retransmit_delay_ms
                                .unwrap_or(NetChoice::DEFAULT_RETRANSMIT_MS),
                        ),
                    );
                }
            }
        }

        let servers = fs.servers();
        let cfg = ClusterConfig {
            servers,
            clients: env.clients.max(1),
            device: device.to_spec(),
            sched: DiskSched::Fifo,
            server_cpu: env.server_cpu,
            jitter: Jitter::DEFAULT,
            seed: env.seed,
            record_device_layer: false,
            record_net_layer: record_net,
            fault,
        };
        let cluster = Cluster::with_sink(&cfg, sink);

        let (backend, files) = match fs {
            FsChoice::Local { overhead_us } => {
                let mut local = LocalFs::new(0);
                if let Some(us) = overhead_us {
                    local = local.with_overhead(Dur::from_micros(us));
                }
                let files = env.file_sizes.iter().map(|&s| local.create(s)).collect();
                (FsBackend::Local(local), files)
            }
            FsChoice::Parallel { servers } => {
                let mut pfs = ParallelFs::new(servers);
                let files = env
                    .file_sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| {
                        let layout = match env.layout {
                            Layout::DefaultStripe => StripeLayout::default_over(servers),
                            Layout::PinnedPerFile => StripeLayout::pinned(i % servers),
                        };
                        pfs.create(s, layout)
                    })
                    .collect();
                (FsBackend::Parallel(pfs), files)
            }
        };

        let mut stack = IoStack::new(cluster, backend);
        if let Some(enabled) = b.sieving {
            stack.sieving = if enabled {
                SievingConfig::romio_default()
            } else {
                SievingConfig::disabled()
            };
        } else {
            stack.sieving = env.sieving;
        }
        if let Some(window) = b.prefetch_window {
            stack.prefetch = Some(PrefetchConfig { window });
        }
        stack.retry = env.retry;
        Ok(BuiltStack { stack, files })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NodeSpec;
    use bps_core::trace::Trace;

    fn env(file_sizes: &[u64]) -> BuildEnv<'_> {
        BuildEnv {
            clients: 2,
            server_cpu: Dur::from_micros(25),
            seed: 7,
            file_sizes,
            layout: Layout::DefaultStripe,
            sieving: SievingConfig::romio_default(),
            retry: RetryPolicy::default(),
            fault: FaultPlan::none(),
        }
    }

    #[test]
    fn local_prebuilt_assembles_single_server() {
        let sizes = [1 << 20];
        let built = TopologySpec::local(DeviceNode::Hdd)
            .build(&env(&sizes), Trace::new())
            .unwrap();
        assert!(matches!(built.stack.backend, FsBackend::Local(_)));
        assert_eq!(built.files.len(), 1);
        assert!(built.stack.prefetch.is_none());
    }

    #[test]
    fn pfs_prebuilt_assembles_striped_servers() {
        let sizes = [1 << 20, 1 << 20];
        let built = TopologySpec::pfs(4)
            .build(&env(&sizes), Trace::new())
            .unwrap();
        assert!(matches!(built.stack.backend, FsBackend::Parallel(_)));
        assert_eq!(built.files.len(), 2);
    }

    #[test]
    fn servers_counts_what_the_builder_builds() {
        let sizes = [1 << 20];
        let specs = [
            TopologySpec::local(DeviceNode::Ssd),
            TopologySpec::pfs(1),
            TopologySpec::pfs(4),
            TopologySpec::new(vec![
                NodeSpec::Sieving { enabled: true },
                NodeSpec::Pfs { servers: 3 },
            ]),
        ];
        for spec in specs {
            let built = spec.build(&env(&sizes), Trace::new()).unwrap();
            assert_eq!(spec.servers(), Some(built.stack.cluster.server_count()));
        }
        assert_eq!(
            TopologySpec::new(vec![NodeSpec::Collective]).servers(),
            None
        );
    }

    #[test]
    fn middleware_nodes_configure_the_stack() {
        let sizes = [1 << 20];
        let spec = TopologySpec::new(vec![
            NodeSpec::Sieving { enabled: false },
            NodeSpec::Prefetch { window_kb: 256 },
            NodeSpec::Pfs { servers: 2 },
            NodeSpec::Device {
                device: DeviceNode::Ssd,
            },
        ]);
        let built = spec.build(&env(&sizes), Trace::new()).unwrap();
        assert_eq!(built.stack.sieving, SievingConfig::disabled());
        assert_eq!(
            built.stack.prefetch,
            Some(PrefetchConfig { window: 256 << 10 })
        );
    }

    #[test]
    fn invalid_topology_refuses_to_build() {
        let sizes = [1 << 20];
        let err =
            match TopologySpec::new(vec![NodeSpec::Collective]).build(&env(&sizes), Trace::new()) {
                Err(e) => e,
                Ok(_) => panic!("expected validation failure"),
            };
        assert!(err.0.contains("file-system node"), "{err}");
    }
}
