//! The injector answers outage queries from a per-server index sorted by
//! start; these properties pin it to the linear scan over the plan it
//! replaced.

use bps_core::time::Nanos;
use bps_sim::fault::{FaultInjector, FaultPlan, Outage};
use proptest::prelude::*;

/// The lookup as it was written: the latest end among the plan's windows
/// on `server` that contain `at`.
fn linear_scan(plan: &FaultPlan, server: usize, at: Nanos) -> Option<Nanos> {
    plan.outages
        .iter()
        .filter(|o| o.server == server && o.start <= at && at < o.end)
        .map(|o| o.end)
        .max()
}

/// Unsorted windows on up to four servers, dense enough to overlap, with
/// zero-width windows included.
fn outages() -> impl Strategy<Value = Vec<(usize, u64, u64)>> {
    proptest::collection::vec((0usize..4, 0u64..200, 0u64..40), 0..40)
}

proptest! {
    #[test]
    fn indexed_lookup_equals_linear_scan(
        windows in outages(),
        probes in proptest::collection::vec(0u64..260, 16),
    ) {
        let plan = windows.iter().fold(FaultPlan::none(), |plan, &(server, start, width)| {
            plan.with_outage(Outage {
                server,
                start: Nanos(start),
                end: Nanos(start + width),
            })
        });
        let inj = FaultInjector::new(&plan, 0);
        // Every window edge, one either side of it, and random instants.
        let mut instants = probes;
        for o in &plan.outages {
            for t in [o.start.0, o.end.0] {
                instants.extend([t.saturating_sub(1), t, t + 1]);
            }
        }
        for server in 0..6 {
            for &t in &instants {
                prop_assert_eq!(
                    inj.outage_until(server, Nanos(t)),
                    linear_scan(&plan, server, Nanos(t)),
                    "server {} at {}", server, t
                );
            }
        }
    }
}

#[test]
fn nested_and_chained_windows() {
    // A long window holding a short one, a chain of touching windows, and a
    // zero-width window, listed out of order.
    let plan = [
        (0, 50, 60),
        (0, 10, 100),
        (0, 100, 120),
        (0, 120, 130),
        (0, 5, 5),
    ]
    .iter()
    .fold(FaultPlan::none(), |plan, &(server, start, end)| {
        plan.with_outage(Outage {
            server,
            start: Nanos(start),
            end: Nanos(end),
        })
    });
    let inj = FaultInjector::new(&plan, 0);
    for t in 0..140 {
        assert_eq!(
            inj.outage_until(0, Nanos(t)),
            linear_scan(&plan, 0, Nanos(t)),
            "at {t}"
        );
    }
    assert_eq!(inj.outage_until(0, Nanos(55)), Some(Nanos(100)));
    assert_eq!(inj.outage_until(0, Nanos(5)), None);
}
