//! Content-key collision audit for the two-level case cache.
//!
//! Both cache levels — the in-process memo and the persistent
//! content-addressed store — index scored points by
//! [`engine::content_key`]. A key collision between two cases that
//! simulate differently would serve one case's numbers as the other's,
//! silently. These tests audit injectivity two ways:
//!
//! 1. property tests generating *pairs* of fully resolved cases
//!    (storage, layout, sieving, retry, faults, topology — prebuilt and
//!    hand-declared — and every workload variant), scales, and metric
//!    selections, asserting keys agree exactly when the label-stripped
//!    inputs agree. Floats come in pairs one ULP apart, and replay paths
//!    carry the separators and digits a sloppy encoding would confuse;
//! 2. deterministic one-field audits: every simulation-feeding field of
//!    a base case, every sub-field of each workload variant and fault
//!    sub-spec, and every scale field is mutated alone and must change
//!    the key, while the display label — which legitimately differs
//!    between figures sharing a case — must not.

use bps_core::metrics::MetricSelection;
use bps_experiments::runner::Storage;
use bps_experiments::scale::Scale;
use bps_experiments::scenario::engine::{content_key, ResolvedCase, ResolvedWorkload};
use bps_experiments::scenario::spec::{
    DeviceErrorSpec, FaultSpec, LayoutSpec, LinkLossSpec, OutageTrainSpec, RetrySpec, SievingSpec,
    SlowdownSpec, StorageSpec,
};
use bps_topology::{DeviceNode, NodeSpec, TopologySpec};
use bps_workloads::iozone::IozoneMode;
use bps_workloads::synthetic::Pattern;
use bps_workloads::WorkloadSpec;
use proptest::prelude::*;

fn base_case() -> ResolvedCase {
    ResolvedCase {
        label: "base".to_string(),
        storage: StorageSpec::Hdd,
        layout: LayoutSpec::DefaultStripe,
        sieving: SievingSpec::RomioDefault,
        retry: RetrySpec::Default,
        fault: None,
        cpu_per_op_us: 50,
        clients: None,
        topology: None,
        workload: ResolvedWorkload::Spec(WorkloadSpec::Iozone {
            mode: IozoneMode::SeqRead,
            file_size: 1 << 20,
            record_size: 4096,
            processes: 1,
            seed: 0,
        }),
    }
}

fn storages() -> impl Strategy<Value = StorageSpec> {
    prop_oneof![
        Just(StorageSpec::Hdd),
        Just(StorageSpec::Ssd),
        (1usize..=8).prop_map(|servers| StorageSpec::Pvfs { servers }),
    ]
}

fn faults() -> impl Strategy<Value = Option<FaultSpec>> {
    let slowdown = (0usize..4, 1u32..6).prop_map(|(server, f)| SlowdownSpec {
        server,
        factor: f as f64,
    });
    let device_error = prop_oneof![
        (1u32..10).prop_map(|r| DeviceErrorSpec::Uniform {
            rate: r as f64 / 100.0
        }),
        (0usize..4, 1u32..10).prop_map(|(server, r)| DeviceErrorSpec::Server {
            server,
            rate: r as f64 / 100.0
        }),
    ];
    let link_loss = (1u32..10, 1u64..5).prop_map(|(r, d)| LinkLossSpec {
        rate: r as f64 / 100.0,
        retransmit_delay_ms: d,
    });
    let outage = (0usize..4, 1u64..20, 20u64..50, 0u64..10, 1u64..4).prop_map(
        |(server, width_ms, period_ms, phase_ms, cycles)| OutageTrainSpec {
            server,
            width_ms,
            period_ms,
            phase_ms,
            cycles,
        },
    );
    prop_oneof![
        Just(None),
        (
            0u64..4,
            collection::vec(slowdown, 0..2),
            collection::vec(device_error, 0..2),
            prop_oneof![Just(None), link_loss.prop_map(Some)],
            collection::vec(outage, 0..2),
        )
            .prop_map(
                |(seed, slowdowns, device_errors, link_loss, outage_trains)| {
                    Some(FaultSpec {
                        seed,
                        slowdowns,
                        device_errors,
                        link_loss,
                        outage_trains,
                    })
                }
            ),
    ]
}

fn topologies() -> impl Strategy<Value = Option<bps_topology::TopologySpec>> {
    // Distinct component graphs, including derived ones: the audit cares
    // that two cases declaring different stacks never share a key.
    prop_oneof![
        Just(None),
        Just(Some(Storage::Hdd.default_topology())),
        Just(Some(Storage::Ssd.default_topology())),
        (1usize..=4).prop_map(|servers| Some(Storage::Pvfs { servers }.default_topology())),
        (
            prop_oneof![Just(64u64), Just(128u64)],
            1usize..=3,
            ulp_pair(0.01),
        )
            .prop_map(|(window_kb, servers, loss)| Some(custom_topology(window_kb, servers, loss))),
    ]
}

/// A hand-declared stack that no prebuilt `Storage` derives: read-ahead
/// over a PFS on a lossy net, SSD servers.
fn custom_topology(window_kb: u64, servers: usize, loss_rate: f64) -> TopologySpec {
    TopologySpec::new(vec![
        NodeSpec::Prefetch { window_kb },
        NodeSpec::Pfs { servers },
        NodeSpec::Net {
            loss_rate: Some(loss_rate),
            retransmit_delay_ms: Some(10),
            record: None,
        },
        NodeSpec::Device {
            device: DeviceNode::Ssd,
        },
    ])
}

/// `x` or the next float above it: values one ULP apart must key apart.
fn ulp_pair(x: f64) -> impl Strategy<Value = f64> {
    prop_oneof![Just(x), Just(x.next_up())]
}

/// Replay paths built to trip a naive key encoding: separators and
/// digits that a delimiter- or length-sloppy format would confuse. None
/// of them exists, so every one keys as an unreadable trace.
const REPLAY_PATHS: [&str; 8] = [
    "t.json",
    "a b.json",
    "a|b.json",
    "1:2.json",
    "a,b.json",
    "12",
    "1",
    "2:12,|x y",
];

fn workloads() -> impl Strategy<Value = ResolvedWorkload> {
    let iozone = (
        prop_oneof![
            Just(IozoneMode::SeqRead),
            Just(IozoneMode::SeqWrite),
            Just(IozoneMode::RandomRead),
        ],
        prop_oneof![Just(1u64 << 18), Just(1u64 << 20)],
        prop_oneof![Just(4096u64), Just(65536u64)],
        1usize..4,
        0u64..3,
    )
        .prop_map(|(mode, file_size, record_size, processes, seed)| {
            ResolvedWorkload::Spec(WorkloadSpec::Iozone {
                mode,
                file_size,
                record_size,
                processes,
                seed,
            })
        });
    let ior = (
        prop_oneof![Just(1u64 << 18), Just(1u64 << 20)],
        prop_oneof![Just(4096u64), Just(65536u64)],
        1usize..4,
        any::<bool>(),
    )
        .prop_map(|(file_size, transfer_size, processes, write)| {
            ResolvedWorkload::Spec(WorkloadSpec::Ior {
                file_size,
                transfer_size,
                processes,
                write,
            })
        });
    let hpio = (
        prop_oneof![Just(64u64), Just(128u64)],
        prop_oneof![Just(8u64), Just(4096u64)],
        prop_oneof![Just(0u64), Just(8u64)],
        prop_oneof![Just(1u64), Just(16u64)],
        1usize..4,
        any::<bool>(),
    )
        .prop_map(
            |(
                region_count,
                region_size,
                region_spacing,
                regions_per_call,
                processes,
                collective,
            )| {
                ResolvedWorkload::Spec(WorkloadSpec::Hpio {
                    region_count,
                    region_size,
                    region_spacing,
                    regions_per_call,
                    processes,
                    collective,
                })
            },
        );
    let synthetic = (
        (
            prop_oneof![Just(1u64 << 18), Just(1u64 << 20)],
            prop_oneof![Just(4096u64), Just(65536u64)],
            prop_oneof![Just(16u64), Just(32u64)],
            ulp_pair(0.5),
        ),
        prop_oneof![
            Just(Pattern::Uniform),
            ulp_pair(1.1).prop_map(|exponent| Pattern::Zipf { exponent }),
        ],
        (1usize..3, 0u64..2, 0u64..2, 0u64..2),
    )
        .prop_map(
            |(
                (file_size, record_size, ops_per_process, read_fraction),
                pattern,
                (processes, think_time_us, burst_len, seed),
            )| {
                ResolvedWorkload::Spec(WorkloadSpec::Synthetic {
                    file_size,
                    record_size,
                    ops_per_process,
                    read_fraction,
                    pattern,
                    processes,
                    think_time_us,
                    burst_len,
                    seed,
                })
            },
        );
    let replay = (0..REPLAY_PATHS.len()).prop_map(|i| {
        ResolvedWorkload::Spec(WorkloadSpec::Replay {
            path: REPLAY_PATHS[i].to_string(),
        })
    });
    prop_oneof![
        iozone,
        ior,
        hpio,
        synthetic,
        replay,
        Just(ResolvedWorkload::DegradedMix)
    ]
}

fn cases() -> impl Strategy<Value = ResolvedCase> {
    (
        (
            prop_oneof![Just("a".to_string()), Just("b".to_string())],
            storages(),
            prop_oneof![
                Just(LayoutSpec::DefaultStripe),
                Just(LayoutSpec::PinnedPerFile)
            ],
            prop_oneof![Just(SievingSpec::RomioDefault), Just(SievingSpec::Disabled)],
            prop_oneof![
                Just(RetrySpec::Default),
                (1u32..5, 1u64..100).prop_map(|(max_attempts, b)| RetrySpec::Custom {
                    max_attempts,
                    base_backoff_us: b,
                    max_backoff_us: b * 10,
                }),
            ],
        ),
        faults(),
        prop_oneof![Just(0u64), Just(50u64)],
        prop_oneof![Just(None), Just(Some(1usize)), Just(Some(4usize))],
        topologies(),
        workloads(),
    )
        .prop_map(
            |(
                (label, storage, layout, sieving, retry),
                fault,
                cpu_per_op_us,
                clients,
                topology,
                workload,
            )| ResolvedCase {
                label,
                storage,
                layout,
                sieving,
                retry,
                fault,
                cpu_per_op_us,
                clients,
                topology,
                workload,
            },
        )
}

fn scales() -> [Scale; 3] {
    [Scale::tiny(), Scale::quick(), Scale::paper()]
}

fn selections() -> Vec<MetricSelection> {
    let parse = |names: &[&str]| {
        MetricSelection::parse(&names.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .expect("valid registry names")
    };
    vec![
        MetricSelection::paper(),
        parse(&["BPS"]),
        parse(&["BPS", "P99"]),
        parse(&[
            "IOPS", "BW", "ARPT", "BPS", "P50", "P99", "EffPar", "IOEff", "MaxQD",
        ]),
    ]
}

proptest! {
    /// Keys collide exactly when every simulation-feeding input agrees:
    /// the label-stripped case, the scale, and the metric selection.
    /// Anything else sharing a key would replay the wrong numbers.
    #[test]
    fn keys_collide_only_for_identical_inputs(
        a in cases(),
        b in cases(),
        sa in 0usize..3,
        sb in 0usize..3,
        la in 0usize..4,
        lb in 0usize..4,
    ) {
        let scales = scales();
        let sels = selections();
        let ka = content_key(&a, &scales[sa], &sels[la]);
        let kb = content_key(&b, &scales[sb], &sels[lb]);
        let mut sa_case = a.clone();
        sa_case.label.clear();
        let mut sb_case = b.clone();
        sb_case.label.clear();
        let same_inputs =
            sa_case == sb_case && sa == sb && sels[la].names() == sels[lb].names();
        prop_assert_eq!(
            ka == kb,
            same_inputs,
            "key collision audit failed:\n a={:?}\n b={:?}",
            a,
            b
        );
    }

    /// Near pairs: `b` is `a` with a random subset of its fields taken
    /// from a second case, so most pairs differ in one or two fields —
    /// where a sloppy encoding would collide — rather than in all of them.
    #[test]
    fn near_pairs_collide_only_when_equal(
        a in cases(),
        other in cases(),
        mask in 0u16..1024,
    ) {
        let mut b = a.clone();
        let take = |bit: u16| mask & (1 << bit) != 0;
        if take(0) { b.storage = other.storage; }
        if take(1) { b.layout = other.layout; }
        if take(2) { b.sieving = other.sieving; }
        if take(3) { b.retry = other.retry; }
        if take(4) { b.fault = other.fault.clone(); }
        if take(5) { b.cpu_per_op_us = other.cpu_per_op_us; }
        if take(6) { b.clients = other.clients; }
        if take(7) { b.topology = other.topology.clone(); }
        if take(8) { b.workload = other.workload.clone(); }
        if take(9) { b.label = other.label.clone(); }
        let scale = Scale::tiny();
        let sel = MetricSelection::paper();
        let mut sa_case = a.clone();
        sa_case.label.clear();
        let mut sb_case = b.clone();
        sb_case.label.clear();
        prop_assert_eq!(
            content_key(&a, &scale, &sel) == content_key(&b, &scale, &sel),
            sa_case == sb_case,
            "near-pair audit failed:\n a={:?}\n b={:?}",
            a,
            b
        );
    }

    /// The same case keyed under two different *pairs* of (scale,
    /// selection) never collides unless both components match.
    #[test]
    fn scale_and_selection_are_both_keyed(
        c in cases(),
        sa in 0usize..3,
        sb in 0usize..3,
        la in 0usize..4,
        lb in 0usize..4,
    ) {
        let scales = scales();
        let sels = selections();
        let ka = content_key(&c, &scales[sa], &sels[la]);
        let kb = content_key(&c, &scales[sb], &sels[lb]);
        let same = sa == sb && sels[la].names() == sels[lb].names();
        prop_assert_eq!(ka == kb, same);
    }
}

/// Every simulation-feeding field, mutated alone, changes the key; the
/// display label does not.
#[test]
fn every_field_mutation_changes_the_key() {
    let scale = Scale::tiny();
    let sel = MetricSelection::paper();
    let base = base_case();
    let base_key = content_key(&base, &scale, &sel);

    type Mutation = Box<dyn Fn(&mut ResolvedCase)>;
    let mutations: Vec<(&str, Mutation)> = vec![
        ("storage", Box::new(|c| c.storage = StorageSpec::Ssd)),
        ("layout", Box::new(|c| c.layout = LayoutSpec::PinnedPerFile)),
        ("sieving", Box::new(|c| c.sieving = SievingSpec::Disabled)),
        (
            "retry",
            Box::new(|c| {
                c.retry = RetrySpec::Custom {
                    max_attempts: 2,
                    base_backoff_us: 10,
                    max_backoff_us: 100,
                }
            }),
        ),
        ("fault", Box::new(|c| c.fault = Some(FaultSpec::seeded(7)))),
        ("cpu_per_op_us", Box::new(|c| c.cpu_per_op_us += 1)),
        ("clients", Box::new(|c| c.clients = Some(2))),
        (
            "topology",
            Box::new(|c| c.topology = Some(Storage::Hdd.default_topology())),
        ),
        (
            "workload",
            Box::new(|c| {
                c.workload = ResolvedWorkload::Spec(WorkloadSpec::Iozone {
                    mode: IozoneMode::SeqRead,
                    file_size: 1 << 20,
                    record_size: 8192, // one field off the base
                    processes: 1,
                    seed: 0,
                })
            }),
        ),
        (
            "workload kind",
            Box::new(|c| c.workload = ResolvedWorkload::DegradedMix),
        ),
    ];
    for (name, mutate) in &mutations {
        let mut c = base.clone();
        mutate(&mut c);
        assert_ne!(
            content_key(&c, &scale, &sel),
            base_key,
            "mutating `{name}` must change the content key"
        );
    }

    // Fault plans differing in one sub-field must not collide either.
    // (The exhaustive per-sub-field audit is below; this is the original
    // spot check.)
    let mut fa = base.clone();
    fa.fault = Some(FaultSpec::seeded(7));
    let mut fb = fa.clone();
    fb.fault.as_mut().unwrap().slowdowns.push(SlowdownSpec {
        server: 0,
        factor: 2.0,
    });
    assert_ne!(
        content_key(&fa, &scale, &sel),
        content_key(&fb, &scale, &sel)
    );

    // The label is display-only: figures sharing a case under different
    // labels must share the key (that is the memo's whole point).
    let mut relabeled = base.clone();
    relabeled.label = "same case, other figure".to_string();
    assert_eq!(content_key(&relabeled, &scale, &sel), base_key);
}

/// Mutate a copy of `base` and require a different key. The mutation must
/// really change the case: a no-op (say, a pattern that missed its
/// variant) would make the audit vacuous.
fn assert_key_changes(base: &ResolvedCase, name: &str, mutate: &dyn Fn(&mut ResolvedCase)) {
    let scale = Scale::tiny();
    let sel = MetricSelection::paper();
    let mut c = base.clone();
    mutate(&mut c);
    assert_ne!(&c, base, "mutation `{name}` left the case unchanged");
    assert_ne!(
        content_key(&c, &scale, &sel),
        content_key(base, &scale, &sel),
        "mutating `{name}` must change the content key"
    );
}

fn with_workload(spec: WorkloadSpec) -> ResolvedCase {
    let mut c = base_case();
    c.workload = ResolvedWorkload::Spec(spec);
    c
}

/// A named one-field edit of a workload spec; a no-op when the spec is
/// another variant, which [`assert_key_changes`] then rejects.
type SpecMutation = (&'static str, fn(&mut WorkloadSpec));

/// Every sub-field of every workload variant, mutated alone, changes the
/// key. Floats move by one ULP.
#[test]
fn every_workload_sub_field_changes_the_key() {
    let variants: Vec<(WorkloadSpec, Vec<SpecMutation>)> = vec![
        (
            WorkloadSpec::Iozone {
                mode: IozoneMode::SeqRead,
                file_size: 1 << 20,
                record_size: 4096,
                processes: 1,
                seed: 0,
            },
            vec![
                ("Iozone.mode", |w| {
                    if let WorkloadSpec::Iozone { mode, .. } = w {
                        *mode = IozoneMode::BackwardRead
                    }
                }),
                ("Iozone.file_size", |w| {
                    if let WorkloadSpec::Iozone { file_size, .. } = w {
                        *file_size += 1
                    }
                }),
                ("Iozone.record_size", |w| {
                    if let WorkloadSpec::Iozone { record_size, .. } = w {
                        *record_size += 1
                    }
                }),
                ("Iozone.processes", |w| {
                    if let WorkloadSpec::Iozone { processes, .. } = w {
                        *processes += 1
                    }
                }),
                ("Iozone.seed", |w| {
                    if let WorkloadSpec::Iozone { seed, .. } = w {
                        *seed += 1
                    }
                }),
            ],
        ),
        (
            WorkloadSpec::Ior {
                file_size: 1 << 20,
                transfer_size: 65536,
                processes: 2,
                write: false,
            },
            vec![
                ("Ior.file_size", |w| {
                    if let WorkloadSpec::Ior { file_size, .. } = w {
                        *file_size += 1
                    }
                }),
                ("Ior.transfer_size", |w| {
                    if let WorkloadSpec::Ior { transfer_size, .. } = w {
                        *transfer_size += 1
                    }
                }),
                ("Ior.processes", |w| {
                    if let WorkloadSpec::Ior { processes, .. } = w {
                        *processes += 1
                    }
                }),
                ("Ior.write", |w| {
                    if let WorkloadSpec::Ior { write, .. } = w {
                        *write = !*write
                    }
                }),
            ],
        ),
        (
            WorkloadSpec::Hpio {
                region_count: 64,
                region_size: 8,
                region_spacing: 8,
                regions_per_call: 16,
                processes: 2,
                collective: false,
            },
            vec![
                ("Hpio.region_count", |w| {
                    if let WorkloadSpec::Hpio { region_count, .. } = w {
                        *region_count += 1
                    }
                }),
                ("Hpio.region_size", |w| {
                    if let WorkloadSpec::Hpio { region_size, .. } = w {
                        *region_size += 1
                    }
                }),
                ("Hpio.region_spacing", |w| {
                    if let WorkloadSpec::Hpio { region_spacing, .. } = w {
                        *region_spacing += 1
                    }
                }),
                ("Hpio.regions_per_call", |w| {
                    if let WorkloadSpec::Hpio {
                        regions_per_call, ..
                    } = w
                    {
                        *regions_per_call += 1
                    }
                }),
                ("Hpio.processes", |w| {
                    if let WorkloadSpec::Hpio { processes, .. } = w {
                        *processes += 1
                    }
                }),
                ("Hpio.collective", |w| {
                    if let WorkloadSpec::Hpio { collective, .. } = w {
                        *collective = !*collective
                    }
                }),
            ],
        ),
        (
            WorkloadSpec::Synthetic {
                file_size: 1 << 20,
                record_size: 4096,
                ops_per_process: 32,
                read_fraction: 0.5,
                pattern: Pattern::Zipf { exponent: 1.1 },
                processes: 2,
                think_time_us: 0,
                burst_len: 0,
                seed: 0,
            },
            vec![
                ("Synthetic.file_size", |w| {
                    if let WorkloadSpec::Synthetic { file_size, .. } = w {
                        *file_size += 1
                    }
                }),
                ("Synthetic.record_size", |w| {
                    if let WorkloadSpec::Synthetic { record_size, .. } = w {
                        *record_size += 1
                    }
                }),
                ("Synthetic.ops_per_process", |w| {
                    if let WorkloadSpec::Synthetic {
                        ops_per_process, ..
                    } = w
                    {
                        *ops_per_process += 1
                    }
                }),
                ("Synthetic.read_fraction", |w| {
                    if let WorkloadSpec::Synthetic { read_fraction, .. } = w {
                        *read_fraction = read_fraction.next_up()
                    }
                }),
                ("Synthetic.pattern", |w| {
                    if let WorkloadSpec::Synthetic { pattern, .. } = w {
                        *pattern = Pattern::Uniform
                    }
                }),
                ("Synthetic.pattern.exponent", |w| {
                    if let WorkloadSpec::Synthetic {
                        pattern: Pattern::Zipf { exponent },
                        ..
                    } = w
                    {
                        *exponent = exponent.next_up()
                    }
                }),
                ("Synthetic.processes", |w| {
                    if let WorkloadSpec::Synthetic { processes, .. } = w {
                        *processes += 1
                    }
                }),
                ("Synthetic.think_time_us", |w| {
                    if let WorkloadSpec::Synthetic { think_time_us, .. } = w {
                        *think_time_us += 1
                    }
                }),
                ("Synthetic.burst_len", |w| {
                    if let WorkloadSpec::Synthetic { burst_len, .. } = w {
                        *burst_len += 1
                    }
                }),
                ("Synthetic.seed", |w| {
                    if let WorkloadSpec::Synthetic { seed, .. } = w {
                        *seed += 1
                    }
                }),
            ],
        ),
        (
            WorkloadSpec::Replay {
                path: "1:2.json".to_string(),
            },
            vec![
                ("Replay.path", |w| {
                    if let WorkloadSpec::Replay { path } = w {
                        path.push('|')
                    }
                }),
                ("Replay.path prefix", |w| {
                    if let WorkloadSpec::Replay { path } = w {
                        path.insert(0, '1')
                    }
                }),
            ],
        ),
    ];
    for (spec, mutations) in variants {
        let base = with_workload(spec);
        for (name, mutate) in mutations {
            assert_key_changes(&base, name, &|c| match &mut c.workload {
                ResolvedWorkload::Spec(w) => mutate(w),
                ResolvedWorkload::DegradedMix => unreachable!(),
            });
        }
    }
}

/// A fault plan carrying one of every sub-spec, on a two-server PFS.
fn faulted_case() -> ResolvedCase {
    let mut c = base_case();
    c.storage = StorageSpec::Pvfs { servers: 2 };
    c.fault = Some(FaultSpec {
        seed: 7,
        slowdowns: vec![SlowdownSpec {
            server: 0,
            factor: 2.0,
        }],
        device_errors: vec![
            DeviceErrorSpec::Uniform { rate: 0.01 },
            DeviceErrorSpec::Server {
                server: 1,
                rate: 0.02,
            },
        ],
        link_loss: Some(LinkLossSpec {
            rate: 0.01,
            retransmit_delay_ms: 10,
        }),
        outage_trains: vec![OutageTrainSpec {
            server: 0,
            width_ms: 5,
            period_ms: 20,
            phase_ms: 2,
            cycles: 3,
        }],
    });
    c
}

/// Every sub-field of every fault sub-spec (and of the retry policy,
/// PFS server count, client count and declared topology), mutated alone,
/// changes the key.
#[test]
fn every_fault_and_stack_sub_field_changes_the_key() {
    type Mutation = (&'static str, fn(&mut FaultSpec));
    let fault_mutations: Vec<Mutation> = vec![
        ("fault.seed", |f| f.seed += 1),
        ("fault.slowdowns +1", |f| {
            f.slowdowns.push(SlowdownSpec {
                server: 1,
                factor: 2.0,
            })
        }),
        ("fault.slowdowns cleared", |f| f.slowdowns.clear()),
        ("slowdown.server", |f| f.slowdowns[0].server += 1),
        ("slowdown.factor", |f| {
            f.slowdowns[0].factor = f.slowdowns[0].factor.next_up()
        }),
        ("device_errors reversed", |f| f.device_errors.reverse()),
        ("device_errors -1", |f| {
            f.device_errors.pop();
        }),
        ("Uniform.rate", |f| {
            if let DeviceErrorSpec::Uniform { rate } = &mut f.device_errors[0] {
                *rate = rate.next_up()
            }
        }),
        ("Uniform -> Server", |f| {
            f.device_errors[0] = DeviceErrorSpec::Server {
                server: 0,
                rate: 0.01,
            }
        }),
        ("Server.server", |f| {
            if let DeviceErrorSpec::Server { server, .. } = &mut f.device_errors[1] {
                *server = 0
            }
        }),
        ("Server.rate", |f| {
            if let DeviceErrorSpec::Server { rate, .. } = &mut f.device_errors[1] {
                *rate = rate.next_up()
            }
        }),
        ("link_loss removed", |f| f.link_loss = None),
        ("link_loss.rate", |f| {
            let l = f.link_loss.as_mut().unwrap();
            l.rate = l.rate.next_up()
        }),
        ("link_loss.retransmit_delay_ms", |f| {
            f.link_loss.as_mut().unwrap().retransmit_delay_ms += 1
        }),
        ("outage_trains +1", |f| {
            let t = f.outage_trains[0];
            f.outage_trains.push(t)
        }),
        ("outage.server", |f| f.outage_trains[0].server += 1),
        ("outage.width_ms", |f| f.outage_trains[0].width_ms += 1),
        ("outage.period_ms", |f| f.outage_trains[0].period_ms += 1),
        ("outage.phase_ms", |f| f.outage_trains[0].phase_ms += 1),
        ("outage.cycles", |f| f.outage_trains[0].cycles += 1),
    ];
    let base = faulted_case();
    for (name, mutate) in fault_mutations {
        assert_key_changes(&base, name, &|c| mutate(c.fault.as_mut().unwrap()));
    }
    assert_key_changes(&base, "fault removed", &|c| c.fault = None);
    assert_key_changes(&base, "Pvfs.servers", &|c| {
        c.storage = StorageSpec::Pvfs { servers: 3 }
    });

    let mut retried = base_case();
    retried.retry = RetrySpec::Custom {
        max_attempts: 2,
        base_backoff_us: 10,
        max_backoff_us: 100,
    };
    type RetryMutation = (&'static str, fn(&mut u32, &mut u64, &mut u64));
    let retry_mutations: [RetryMutation; 3] = [
        ("retry.max_attempts", |a, _, _| *a += 1),
        ("retry.base_backoff_us", |_, b, _| *b += 1),
        ("retry.max_backoff_us", |_, _, m| *m += 1),
    ];
    for (name, mutate) in retry_mutations {
        assert_key_changes(&retried, name, &|c| {
            if let RetrySpec::Custom {
                max_attempts,
                base_backoff_us,
                max_backoff_us,
            } = &mut c.retry
            {
                mutate(max_attempts, base_backoff_us, max_backoff_us)
            }
        });
    }

    let mut clients = base_case();
    clients.clients = Some(2);
    assert_key_changes(&clients, "clients count", &|c| c.clients = Some(3));

    let mut topo = base_case();
    topo.storage = StorageSpec::Pvfs { servers: 2 };
    topo.topology = Some(custom_topology(64, 2, 0.01));
    assert_key_changes(&topo, "topology Prefetch.window_kb", &|c| {
        c.topology = Some(custom_topology(128, 2, 0.01))
    });
    assert_key_changes(&topo, "topology Pfs.servers", &|c| {
        c.topology = Some(custom_topology(64, 3, 0.01))
    });
    assert_key_changes(&topo, "topology Net.loss_rate", &|c| {
        c.topology = Some(custom_topology(64, 2, 0.01f64.next_up()))
    });
    assert_key_changes(&topo, "topology removed", &|c| c.topology = None);
}

/// Every scale field and the metric selection are keyed: each feeds
/// the run (DegradedMix sizing, the seed list, the scored extras).
#[test]
fn every_scale_field_and_the_selection_change_the_key() {
    let c = base_case();
    let sel = MetricSelection::paper();
    let base = content_key(&c, &Scale::tiny(), &sel);
    type ScaleMutation = (&'static str, fn(&mut Scale));
    let mutations: [ScaleMutation; 6] = [
        ("fig4_file", |s| s.fig4_file += 1),
        ("fig5_file", |s| s.fig5_file += 1),
        ("fig9_total", |s| s.fig9_total += 1),
        ("fig11_total", |s| s.fig11_total += 1),
        ("fig12_regions", |s| s.fig12_regions += 1),
        ("runs", |s| s.runs += 1),
    ];
    for (name, mutate) in mutations {
        let mut scale = Scale::tiny();
        mutate(&mut scale);
        assert_ne!(
            content_key(&c, &scale, &sel),
            base,
            "mutating scale `{name}` must change the content key"
        );
    }
    let bps_only = MetricSelection::parse(&["BPS".to_string()]).expect("BPS is registered");
    assert_ne!(content_key(&c, &Scale::tiny(), &bps_only), base);
}
