//! The benchmark's named workloads and its seed mapping.

use bps_experiments::scenario::registry;
use bps_experiments::scenario::Scenario;
use bps_experiments::Scale;

/// A named set of bundled scenarios run as one closed-loop pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig5 fig6 fig7 fig8 writes`: LocalFs over HDD/SSD, 4 KB–8 MB
    /// records, reads and writes. The per-record hot path dominates.
    LocalIo,
    /// `fig4 fig9 fig10 fig11 fig12 faults`: PVFS over 1–8 servers, the
    /// GigE net, 1–32 processes, sieving, and the four fault shapes.
    ParallelIo,
    /// All bundled scenarios served from a case store filled by a cold
    /// pass, memo off: every case is a store read.
    WarmReplay,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "local-io" => Some(Workload::LocalIo),
            "parallel-io" => Some(Workload::ParallelIo),
            "warm-replay" => Some(Workload::WarmReplay),
            _ => None,
        }
    }

    /// The bundled scenarios of the workload, in `reproduce` target
    /// order (so fig7/fig8 find fig5/fig6's cases in the memo).
    pub fn scenarios(self) -> Vec<Scenario> {
        let names: &[&str] = match self {
            Workload::LocalIo => &["fig5", "fig6", "fig7", "fig8", "writes-hdd", "writes-ssd"],
            Workload::ParallelIo => &[
                "fig4",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "faults-straggler",
                "faults-device-err",
                "faults-link-loss",
                "faults-outage",
            ],
            Workload::WarmReplay => return registry::all(),
        };
        names
            .iter()
            .map(|n| registry::find(n).unwrap_or_else(|| panic!("bundled scenario `{n}`")))
            .collect()
    }

    /// Whether measured passes use the in-process memo. The warm replay
    /// turns it off so that every case is a store read.
    pub fn memo(self) -> bool {
        self != Workload::WarmReplay
    }
}

/// Parse a scale preset name.
pub fn scale(name: &str) -> Option<Scale> {
    match name {
        "quick" => Some(Scale::quick()),
        "tiny" => Some(Scale::tiny()),
        _ => None,
    }
}

/// The simulation seeds of benchmark seed `w`: `(w-1)*runs+1 ..= w*runs`
/// in wrapping `u64` arithmetic. Seed 1 gives `reproduce`'s own seeds
/// `1..=runs`; every other seed moves every case to seeds no other
/// benchmark seed uses.
pub fn sim_seeds(w: u64, scale: &Scale) -> Vec<u64> {
    let base = w.wrapping_sub(1).wrapping_mul(scale.runs);
    (1..=scale.runs).map(|k| base.wrapping_add(k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_one_is_reproduce_and_others_are_disjoint() {
        let s = Scale::quick();
        assert_eq!(sim_seeds(1, &s), s.seeds());
        assert_eq!(sim_seeds(2, &s), vec![6, 7, 8, 9, 10]);
        let zero = sim_seeds(0, &s);
        assert!(zero.iter().all(|x| !s.seeds().contains(x)));
    }

    #[test]
    fn workloads_cover_every_bundled_scenario_once() {
        let mut names: Vec<String> = Workload::LocalIo
            .scenarios()
            .into_iter()
            .chain(Workload::ParallelIo.scenarios())
            .map(|s| s.name)
            .collect();
        names.sort();
        let mut all = registry::names();
        all.sort();
        assert_eq!(names, all);
    }
}
