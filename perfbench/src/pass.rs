//! One pass of a workload: the scenario engine's unsupervised run path
//! (memo, case store, sweep, score, render), driven with explicit
//! simulation seeds.
//!
//! `engine::run_with_opts` always simulates seeds `1..=runs`, so a
//! benchmark seed that shifts them cannot go through it. This module
//! repeats its steps through the same public pieces: `engine::expand`,
//! `engine::content_key`, `CaseStore`, `SweepExec`, `CcFigure` /
//! `DetailSeries` scoring and their `Display` rendering. At the default
//! seed its report text is byte-identical to `reproduce run <scenario>`,
//! which the digests in `expected.json` check on every run.

use crate::workload::Workload;
use bps_core::metrics::MetricSelection;
use bps_core::time::Dur;
use bps_experiments::figures::common::{CcFigure, DetailSeries};
use bps_experiments::figures::faults::DegradedMix;
use bps_experiments::runner::{CasePoint, CaseSpec, LayoutPolicy, Storage};
use bps_experiments::scenario::engine::{self, build_fault, ResolvedCase, ResolvedWorkload};
use bps_experiments::scenario::spec::{
    LayoutSpec, OutputSpec, RetrySpec, Scenario, SievingSpec, StorageSpec,
};
use bps_experiments::scenario::store::CaseStore;
use bps_experiments::scenario::ScenarioOutput;
use bps_experiments::Scale;
use bps_middleware::{RetryPolicy, SievingConfig};
use bps_workloads::spec::Workload as SimWorkload;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A bundled scenario expanded against the pass's scale, with the metric
/// selection the engine would score it with.
pub struct Expanded {
    pub scenario: Scenario,
    pub cases: Vec<ResolvedCase>,
    pub selection: MetricSelection,
}

/// The engine's effective selection for a scenario with no CLI override:
/// its own `metrics` list (or the paper four), unioned with every metric
/// its output or expectations reference.
fn selection(sc: &Scenario) -> MetricSelection {
    let base = if sc.metrics.is_empty() {
        MetricSelection::paper()
    } else {
        MetricSelection::parse(&sc.metrics).expect("bundled scenario metrics resolve")
    };
    let mut referenced: Vec<&str> = Vec::new();
    if let OutputSpec::Detail { metric } = &sc.output {
        referenced.push(metric);
    }
    referenced.extend(sc.expect.iter().map(|e| e.metric.as_str()));
    base.with_names(&referenced)
        .expect("bundled scenario references resolve")
}

/// Expand every scenario of a workload (the set-up a pass pays before it
/// simulates anything).
pub fn expand_all(workload: &Workload, scale: &Scale) -> Vec<Expanded> {
    workload
        .scenarios()
        .into_iter()
        .map(|scenario| {
            let cases = engine::expand(&scenario, scale).expect("bundled scenarios expand");
            let selection = selection(&scenario);
            Expanded {
                scenario,
                cases,
                selection,
            }
        })
        .collect()
}

/// Build the simulated workload of a resolved case.
pub fn build_workload(case: &ResolvedCase, scale: &Scale) -> Box<dyn SimWorkload> {
    match &case.workload {
        ResolvedWorkload::Spec(spec) => spec.build().expect("expanded workloads build"),
        ResolvedWorkload::DegradedMix => Box::new(DegradedMix::from_scale(scale)),
    }
}

/// The runnable form of a resolved case, field for field as the engine
/// translates it.
pub fn case_spec<'a>(c: &ResolvedCase, w: &'a dyn SimWorkload) -> CaseSpec<'a> {
    let storage = match c.storage {
        StorageSpec::Hdd => Storage::Hdd,
        StorageSpec::Ssd => Storage::Ssd,
        StorageSpec::Pvfs { servers } => Storage::Pvfs { servers },
    };
    let mut spec = CaseSpec::new(storage, w);
    spec.layout = match c.layout {
        LayoutSpec::DefaultStripe => LayoutPolicy::DefaultStripe,
        LayoutSpec::PinnedPerFile => LayoutPolicy::PinnedPerFile,
    };
    spec.sieving = match c.sieving {
        SievingSpec::RomioDefault => SievingConfig::romio_default(),
        SievingSpec::Disabled => SievingConfig::disabled(),
    };
    spec.retry = match c.retry {
        RetrySpec::Default => RetryPolicy::default(),
        RetrySpec::Custom {
            max_attempts,
            base_backoff_us,
            max_backoff_us,
        } => RetryPolicy {
            max_attempts,
            base_backoff: Dur::from_micros(base_backoff_us),
            max_backoff: Dur::from_micros(max_backoff_us),
            timeout: None,
        },
    };
    spec.cpu_per_op = Dur::from_micros(c.cpu_per_op_us);
    if let Some(f) = &c.fault {
        spec.fault = build_fault(f);
    }
    if let Some(clients) = c.clients {
        spec.clients = clients;
    }
    spec.topology = c.topology.clone();
    spec
}

/// The cases a sweep must simulate: every memo and store miss of one
/// scenario, in input order.
pub struct SweepJob<'a> {
    pub cases: Vec<&'a ResolvedCase>,
    pub selection: &'a MetricSelection,
}

/// Runs the `(case, seed)` units of a sweep job and averages each case
/// over its seeds. Returns the points in job order plus the number of
/// failed units.
pub trait Sweeper {
    fn sweep(&mut self, job: &SweepJob<'_>, scale: &Scale, seeds: &[u64]) -> (Vec<CasePoint>, u64);
}

/// The engine's own executor: `SweepExec::run_reporting_selected`.
pub struct PlainSweeper {
    pub threads: usize,
}

impl Sweeper for PlainSweeper {
    fn sweep(&mut self, job: &SweepJob<'_>, scale: &Scale, seeds: &[u64]) -> (Vec<CasePoint>, u64) {
        let workloads: Vec<Box<dyn SimWorkload>> =
            job.cases.iter().map(|c| build_workload(c, scale)).collect();
        let cases: Vec<(String, CaseSpec)> = job
            .cases
            .iter()
            .zip(&workloads)
            .map(|(c, w)| (c.label.clone(), case_spec(c, w.as_ref())))
            .collect();
        let report = bps_experiments::SweepExec::new(self.threads).run_reporting_selected(
            &cases,
            seeds,
            job.selection,
        );
        (report.points, report.failures.len() as u64)
    }
}

/// How a pass uses the two cache levels.
pub struct PassConfig<'a> {
    pub scale: Scale,
    pub seeds: Vec<u64>,
    /// In-process memo (L1) on.
    pub memo: bool,
    /// Persistent case store (L2).
    pub store: &'a CaseStore,
}

impl PassConfig<'_> {
    /// The store key of a case. At the default seeds it is exactly the
    /// engine's content key; shifted seeds are appended so a store never
    /// serves a point simulated under other seeds.
    fn key(&self, case: &ResolvedCase, selection: &MetricSelection) -> String {
        let key = engine::content_key(case, &self.scale, selection);
        if self.seeds == self.scale.seeds() {
            key
        } else {
            format!("{key}|seeds={:?}", self.seeds)
        }
    }
}

/// One scored scenario of a pass.
pub struct ScenarioResult {
    pub name: String,
    pub output: ScenarioOutput,
    pub points: Vec<CasePoint>,
    pub text: String,
    pub violations: Vec<String>,
    pub failed_units: u64,
}

/// Host time and cache traffic of the engine steps around the sweep.
#[derive(Default)]
pub struct PassStats {
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub l2_writes: u64,
    pub lookup: Duration,
    pub write: Duration,
    pub score: Duration,
    pub render: Duration,
}

/// Run every scenario of a pass: memo, store, sweep, score, render,
/// check — the steps of `engine::run_with_opts` plus `reproduce run`'s
/// rendering and expectation check.
pub fn run(
    expanded: &[Expanded],
    cfg: &PassConfig<'_>,
    sweeper: &mut dyn Sweeper,
    stats: &mut PassStats,
) -> Vec<ScenarioResult> {
    let mut memo: HashMap<String, CasePoint> = HashMap::new();
    let mut results = Vec::with_capacity(expanded.len());
    for ex in expanded {
        let keys: Vec<String> = ex.cases.iter().map(|c| cfg.key(c, &ex.selection)).collect();
        let mut points: Vec<Option<CasePoint>> = vec![None; ex.cases.len()];
        if cfg.memo {
            for (i, key) in keys.iter().enumerate() {
                if let Some(p) = memo.get(key) {
                    let mut p = p.clone();
                    p.label = ex.cases[i].label.clone();
                    points[i] = Some(p);
                    stats.l1_hits += 1;
                } else {
                    stats.l1_misses += 1;
                }
            }
        }
        let mut missing = Vec::new();
        for i in 0..ex.cases.len() {
            if points[i].is_some() {
                continue;
            }
            let t = Instant::now();
            let found = cfg.store.lookup(&keys[i]);
            stats.lookup += t.elapsed();
            match found {
                Some(mut p) => {
                    stats.l2_hits += 1;
                    if cfg.memo {
                        memo.insert(keys[i].clone(), p.clone());
                    }
                    p.label = ex.cases[i].label.clone();
                    points[i] = Some(p);
                }
                None => {
                    stats.l2_misses += 1;
                    missing.push(i);
                }
            }
        }
        let mut failed_units = 0;
        if !missing.is_empty() {
            let job = SweepJob {
                cases: missing.iter().map(|&i| &ex.cases[i]).collect(),
                selection: &ex.selection,
            };
            let (fresh, failed) = sweeper.sweep(&job, &cfg.scale, &cfg.seeds);
            failed_units = failed;
            for (&i, p) in missing.iter().zip(fresh) {
                if cfg.memo {
                    memo.insert(keys[i].clone(), p.clone());
                }
                if p.failed.is_none() {
                    let t = Instant::now();
                    cfg.store.insert(&keys[i], &p);
                    stats.write += t.elapsed();
                    stats.l2_writes += 1;
                }
                points[i] = Some(p);
            }
        }
        let points: Vec<CasePoint> = points
            .into_iter()
            .map(|p| p.expect("every case scored"))
            .collect();
        let t = Instant::now();
        let output = score(&ex.scenario, points.clone(), &ex.selection);
        stats.score += t.elapsed();
        let t = Instant::now();
        let text = output.to_string();
        stats.render += t.elapsed();
        let violations = engine::violations(&output, &ex.scenario.expect, ex.scenario.verdict);
        results.push(ScenarioResult {
            name: ex.scenario.name.clone(),
            output,
            points,
            text,
            violations,
            failed_units,
        });
    }
    results
}

fn score(sc: &Scenario, points: Vec<CasePoint>, selection: &MetricSelection) -> ScenarioOutput {
    match &sc.output {
        OutputSpec::Cc => ScenarioOutput::Cc(CcFigure::from_points_selected(
            sc.title.clone(),
            points,
            selection,
        )),
        OutputSpec::Detail { metric } => {
            let canon = bps_core::metrics::registry()
                .find(metric)
                .map(|m| m.name())
                .unwrap_or(metric.as_str());
            ScenarioOutput::Detail(DetailSeries::from_points(sc.title.clone(), canon, &points))
        }
    }
}

/// FNV-1a 64 of a rendered report: the digest `expected.json` pins.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Every metric value of a point as IEEE-754 bit patterns, so two points
/// compare bit for bit (NaN included).
pub fn point_bits(p: &CasePoint) -> String {
    let mut s = format!(
        "{:016x} {:016x} {:016x} {:016x} {:016x}",
        p.iops.to_bits(),
        p.bw.to_bits(),
        p.arpt.to_bits(),
        p.bps.to_bits(),
        p.exec_s.to_bits()
    );
    for (name, v) in &p.extra {
        s.push_str(&format!(" {name}={:016x}", v.to_bits()));
    }
    s
}
