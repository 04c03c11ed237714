//! `perfbench`: the process behind one measured pass of the benchmark
//! (`perfbench pass`) and behind the traced run (`perfbench trace`).
//! `run.py` spawns it, times it from outside, and checks its output.
//!
//! ```text
//! perfbench pass  --workload W --seed N --scale quick --threads T --store DIR
//!                 [--fill] [--count] [--points FILE] [--spawned-ns NS]
//! perfbench trace --workload W --seed N --scale quick --threads T --store DIR
//!                 --probe-store DIR --points FILE
//! ```
//!
//! Each prints one JSON object on stdout.

mod pass;
mod trace;
mod workload;

use bps_experiments::scenario::store::CaseStore;
use bps_experiments::Scale;
use pass::{Expanded, PassConfig, PassStats, PlainSweeper, ScenarioResult};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    scale: Scale,
    threads: usize,
    store: PathBuf,
    probe_store: Option<PathBuf>,
    points: Option<PathBuf>,
    spawned_ns: Option<u128>,
    fill: bool,
    count: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench pass|trace --workload local-io|parallel-io|warm-replay --seed N \
         --scale quick|tiny --threads T --store DIR [--probe-store DIR] [--points FILE] \
         [--spawned-ns NS] [--fill] [--count]"
    );
    std::process::exit(2);
}

fn parse(argv: &[String]) -> Args {
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut fill = false;
    let mut count = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fill" => fill = true,
            "--count" => count = true,
            f if f.starts_with("--") => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage(&format!("{f} needs a value")));
                flags.insert(&f[2..], v);
            }
            other => usage(&format!("unexpected argument `{other}`")),
        }
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .unwrap_or_else(|| usage(&format!("missing --{k}")))
    };
    let num = |k: &str| -> u64 {
        get(k)
            .parse()
            .unwrap_or_else(|_| usage(&format!("--{k} must be a whole number")))
    };
    Args {
        workload: Workload::parse(get("workload"))
            .unwrap_or_else(|| usage(&format!("unknown workload `{}`", get("workload")))),
        seed: num("seed"),
        scale: workload::scale(get("scale"))
            .unwrap_or_else(|| usage(&format!("unknown scale `{}`", get("scale")))),
        threads: (num("threads") as usize).max(1),
        store: PathBuf::from(get("store")),
        probe_store: flags.get("probe-store").map(PathBuf::from),
        points: flags.get("points").map(PathBuf::from),
        spawned_ns: flags.get("spawned-ns").map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage("--spawned-ns must be a whole number"))
        }),
        fill,
        count,
    }
}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos()
}

/// High-water RSS of this process image in KiB (`VmHWM`). Measured here
/// rather than by the parent's `wait4`, whose `ru_maxrss` also counts the
/// forked parent's pages before `exec`.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// A JSON number; non-finite values become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The smallest normalised BPS CC over the pass's CC scenarios.
fn bps_cc_min(results: &[ScenarioResult]) -> f64 {
    results
        .iter()
        .filter_map(|r| r.output.as_cc())
        .map(|fig| fig.normalized("BPS").unwrap_or(f64::NAN))
        .fold(f64::INFINITY, |a, b| if b.is_nan() { b } else { a.min(b) })
}

/// The JSON fields every pass reports: the output check and the exact
/// counts that must repeat from run to run.
fn pass_json(results: &[ScenarioResult], stats: &PassStats, scale: &Scale) -> String {
    let cases: usize = results.iter().map(|r| r.points.len()).sum();
    let failed_units: u64 = results.iter().map(|r| r.failed_units).sum();
    let mut s = format!(
        "\"cases\":{cases},\"units\":{},\"failed_units\":{failed_units},\"l1_hits\":{},\
         \"l1_misses\":{},\"l2_hits\":{},\"l2_misses\":{},\"l2_writes\":{},\"bps_cc_min\":{},\
         \"scenarios\":[",
        cases as u64 * scale.runs,
        stats.l1_hits,
        stats.l1_misses,
        stats.l2_hits,
        stats.l2_misses,
        stats.l2_writes,
        num(bps_cc_min(results)),
    );
    for (i, r) in results.iter().enumerate() {
        let violations: Vec<String> = r.violations.iter().map(|v| json_str(v)).collect();
        let _ = write!(
            s,
            "{}{{\"name\":{},\"cases\":{},\"digest\":\"{}\",\"violations\":[{}]}}",
            if i == 0 { "" } else { "," },
            json_str(&r.name),
            r.points.len(),
            pass::digest(&r.text),
            violations.join(",")
        );
    }
    s.push(']');
    s
}

fn cmd_pass(a: &Args) {
    let started = Instant::now();
    if a.count {
        bps_telemetry::install(Arc::new(trace::TallyCollector::new()));
    }
    let expanded: Vec<Expanded> = pass::expand_all(&a.workload, &a.scale);
    let setup_s = match a.spawned_ns {
        Some(t0) => unix_ns().saturating_sub(t0) as f64 * 1e-9,
        None => started.elapsed().as_secs_f64(),
    };
    let t = Instant::now();
    let store = CaseStore::at(&a.store);
    let cfg = PassConfig {
        scale: a.scale,
        seeds: workload::sim_seeds(a.seed, &a.scale),
        memo: a.fill || a.workload.memo(),
        store: &store,
    };
    let mut stats = PassStats::default();
    let mut sweeper = PlainSweeper { threads: a.threads };
    let results = pass::run(&expanded, &cfg, &mut sweeper, &mut stats);
    let wall_s = t.elapsed().as_secs_f64();
    if let Some(path) = &a.points {
        if let Err(e) = std::fs::write(path, trace::points_text(&results)) {
            usage(&format!("cannot write {}: {e}", path.display()));
        }
    }
    let mut out = format!(
        "{{\"setup_s\":{},\"wall_s\":{},\"peak_rss_kb\":{},{}",
        num(setup_s),
        num(wall_s),
        peak_rss_kb(),
        pass_json(&results, &stats, &a.scale)
    );
    if a.count {
        use bps_telemetry::Counter;
        let _ = write!(
            out,
            ",\"records\":{},\"wakes\":{},\"batches\":{}",
            trace::counter(Counter::SinkRecords),
            trace::counter(Counter::EngineWakes),
            trace::counter(Counter::SinkBatches)
        );
    }
    out.push('}');
    println!("{out}");
}

fn cmd_trace(a: &Args) {
    bps_telemetry::install(Arc::new(trace::TallyCollector::new()));
    let reference = match &a.points {
        Some(p) => std::fs::read_to_string(p)
            .unwrap_or_else(|e| usage(&format!("cannot read {}: {e}", p.display()))),
        None => usage("trace needs --points from an untraced pass"),
    };
    let t = Instant::now();
    let expanded = pass::expand_all(&a.workload, &a.scale);
    let expand_ms = t.elapsed().as_secs_f64() * 1e3;

    let seeds = workload::sim_seeds(a.seed, &a.scale);
    let store = CaseStore::at(&a.store);
    let mut sweeper = trace::TracedSweeper::new(a.threads);
    let mut stats = PassStats::default();
    let t = Instant::now();
    let cfg = PassConfig {
        scale: a.scale,
        seeds: seeds.clone(),
        memo: a.workload.memo(),
        store: &store,
    };
    let results = pass::run(&expanded, &cfg, &mut sweeper, &mut stats);
    let traced_wall_s = t.elapsed().as_secs_f64();
    let mut check = trace::check_points(&results, &reference);

    // The warm replay serves every case from the store, so the traced
    // pass simulated and wrote nothing: simulate every case once more
    // (memo on, into a fresh probe store) to trace the layers below the
    // store, time store writes, and prove the stored points are the
    // simulated ones.
    let (writes, write_time) = if a.workload == Workload::WarmReplay {
        let probe = CaseStore::at(
            a.probe_store
                .as_ref()
                .unwrap_or_else(|| usage("warm-replay trace needs --probe-store")),
        );
        let cfg = PassConfig {
            scale: a.scale,
            seeds: seeds.clone(),
            memo: true,
            store: &probe,
        };
        let mut fill = PassStats::default();
        let fresh = pass::run(&expanded, &cfg, &mut sweeper, &mut fill);
        if check.is_ok() {
            check = trace::check_points(&fresh, &reference);
        }
        (fill.l2_writes, fill.write)
    } else {
        (stats.l2_writes, stats.write)
    };
    let layers = check.and_then(|()| trace::layers(&sweeper, &a.scale, &seeds, a.threads));
    let mut r = layers.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let cases: u64 = results.iter().map(|r| r.points.len() as u64).sum();
    let us = |d: std::time::Duration, n: u64| {
        if n == 0 {
            0.0
        } else {
            d.as_secs_f64() * 1e6 / n as f64
        }
    };
    r.push(("engine.expand_ms", expand_ms));
    r.push(("engine.score_ms", stats.score.as_secs_f64() * 1e3));
    r.push(("report.render_ms", stats.render.as_secs_f64() * 1e3));
    r.push(("cache.l1.hits", stats.l1_hits as f64));
    r.push(("cache.l1.misses", stats.l1_misses as f64));
    r.push(("cache.l2.hits", stats.l2_hits as f64));
    r.push(("cache.l2.misses", stats.l2_misses as f64));
    r.push(("cache.l2.writes", writes as f64));
    r.push((
        "cache.l2.us_per_lookup",
        us(stats.lookup, stats.l2_hits + stats.l2_misses),
    ));
    r.push(("cache.l2.us_per_write", us(write_time, writes)));
    r.push(("cache.l2.bytes", store.stats().bytes as f64));
    r.push((
        "cache.hit_frac",
        if cases == 0 {
            0.0
        } else {
            (stats.l1_hits + stats.l2_hits) as f64 / cases as f64
        },
    ));
    let mut out = format!(
        "{{\"traced_wall_s\":{},{}",
        num(traced_wall_s),
        pass_json(&results, &stats, &a.scale)
    );
    out.push_str(",\"layers\":{");
    for (i, (k, v)) in r.iter().enumerate() {
        let _ = write!(out, "{}\"{k}\":{}", if i == 0 { "" } else { "," }, num(*v));
    }
    out.push_str("}}");
    println!("{out}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage("missing subcommand");
    };
    let args = parse(rest);
    match cmd.as_str() {
        "pass" => cmd_pass(&args),
        "trace" => cmd_trace(&args),
        other => usage(&format!("unknown subcommand `{other}`")),
    }
}
