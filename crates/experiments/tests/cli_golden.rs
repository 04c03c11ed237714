//! Golden tests for the `reproduce` binary.
//!
//! Every deterministic target's `--tiny` report is pinned byte-for-byte
//! against `tests/golden/<target>.txt` (captured from the binary itself),
//! so a refactor of the experiment stack cannot silently change a single
//! character of any reproduction. The `overhead` target contains
//! wall-clock timings and is pinned structurally instead.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden(name: &str) -> String {
    let path = golden_dir().join(format!("{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn reproduce(args: &[&str]) -> Output {
    // BPS_CACHE=0 keeps the harness hermetic: no test here accidentally
    // serves (or pollutes) the build's shared persistent case store.
    // The cache tests below opt back in with an isolated BPS_CACHE_DIR.
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .env("BPS_THREADS", "1")
        .env("BPS_CACHE", "0")
        .output()
        .expect("spawn reproduce")
}

/// Spawn the binary against an isolated persistent cache directory.
fn reproduce_cached(args: &[&str], cache_dir: &Path, extra_env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    cmd.args(args)
        .env("BPS_THREADS", "1")
        .env("BPS_CACHE_DIR", cache_dir);
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn reproduce")
}

/// A unique, empty cache directory for one test.
fn cache_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bps_cli_cache-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn stdout_of(args: &[&str]) -> String {
    let out = reproduce(args);
    assert!(
        out.status.success(),
        "reproduce {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The 18 targets whose `--tiny` output is fully deterministic.
const DETERMINISTIC: [&str; 18] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "summary",
    "extensions",
    "writes",
    "faults",
];

#[test]
fn every_deterministic_target_matches_its_golden() {
    for target in DETERMINISTIC {
        assert_eq!(
            stdout_of(&[target, "--tiny"]),
            golden(target),
            "{target} --tiny drifted from tests/golden/{target}.txt"
        );
    }
}

#[test]
fn every_deterministic_target_is_thread_count_invariant() {
    // `--threads 4` outranks the harness's BPS_THREADS=1 (flag > env >
    // machine), and a parallel sweep must still produce the golden bytes.
    for target in DETERMINISTIC {
        assert_eq!(
            stdout_of(&[target, "--tiny", "--threads", "4"]),
            golden(target),
            "{target} --tiny --threads 4 drifted from tests/golden/{target}.txt"
        );
    }
}

#[test]
fn memoization_does_not_change_a_single_byte() {
    // The same multi-target invocation with the cross-figure case memo on
    // (default) and off must agree byte-for-byte; fig4/fig5/fig9 share
    // baseline cases, so the memo actually fires here.
    let targets = ["fig4", "fig5", "fig9", "--tiny"];
    let on = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(targets)
        .env("BPS_THREADS", "1")
        .env("BPS_CACHE", "0")
        .env("BPS_MEMO", "1")
        .output()
        .expect("spawn reproduce");
    let off = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(targets)
        .env("BPS_THREADS", "1")
        .env("BPS_CACHE", "0")
        .env("BPS_MEMO", "0")
        .output()
        .expect("spawn reproduce");
    assert!(on.status.success() && off.status.success());
    assert_eq!(
        String::from_utf8_lossy(&on.stdout),
        String::from_utf8_lossy(&off.stdout),
        "BPS_MEMO=1 and BPS_MEMO=0 reports differ"
    );
    assert_eq!(
        String::from_utf8_lossy(&on.stdout),
        format!("{}{}{}", golden("fig4"), golden("fig5"), golden("fig9")),
        "memoized multi-target run drifted from the goldens"
    );
}

#[test]
fn threads_flag_rejects_garbage() {
    for bad in [
        &["fig4", "--tiny", "--threads", "zero"][..],
        &["fig4", "--tiny", "--threads"][..],
    ] {
        let out = reproduce(bad);
        assert!(!out.status.success(), "reproduce {bad:?} should fail");
    }
}

#[test]
fn overhead_report_is_structurally_stable() {
    // Wall-clock numbers vary; everything else (header, record accounting,
    // row labels) must not.
    let is_timing_row = |line: &str| {
        line.starts_with(' ')
            && line
                .split_whitespace()
                .all(|w| w.chars().all(|c| c.is_ascii_digit() || c == '.'))
            && !line.trim().is_empty()
    };
    let strip = |text: &str| {
        text.lines()
            .filter(|l| !is_timing_row(l))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&stdout_of(&["overhead", "--tiny"])),
        strip(&golden("overhead"))
    );
}

#[test]
fn list_matches_its_golden() {
    assert_eq!(stdout_of(&["list"]), golden("list"));
}

#[test]
fn list_filter_narrows_the_listing() {
    let out = stdout_of(&["list", "faults"]);
    assert_eq!(out.lines().count(), 4);
    assert!(out.lines().all(|l| l.starts_with("faults-")), "{out}");
}

#[test]
fn unknown_target_names_itself_and_the_valid_set() {
    let out = reproduce(&["figg5", "--tiny"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown target: figg5"), "{err}");
    assert!(err.contains("valid targets: all, table1, table2"), "{err}");
    assert!(err.contains("fig12"), "{err}");
    assert!(err.contains("reproduce list"), "{err}");
}

#[test]
fn run_of_a_bundled_scenario_matches_the_target_report() {
    // `reproduce run fig9` goes name -> registry -> engine; `reproduce fig9`
    // goes through the figure module. Same bytes either way.
    assert_eq!(stdout_of(&["run", "fig9", "--tiny"]), golden("fig9"));
}

#[test]
fn json_scenario_runs_without_recompiling() {
    // Serialize a bundled scenario, write it to disk, and feed the file to
    // the binary: the report must be byte-identical to the compiled-in
    // target. This is the engine's whole point — experiments are data.
    let sc = bps_experiments::scenario::registry::find("fig11").unwrap();
    let dir = std::env::temp_dir().join("bps_cli_golden");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig11.json");
    std::fs::write(&path, serde_json::to_string_pretty(&sc).unwrap()).unwrap();
    assert_eq!(
        stdout_of(&["run", path.to_str().unwrap(), "--tiny"]),
        golden("fig11")
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn bundled_example_scenario_matches_its_golden() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let example = repo_root.join("examples/scenarios/device-shootout.json");
    assert_eq!(
        stdout_of(&["run", example.to_str().unwrap(), "--tiny"]),
        golden("device-shootout")
    );
}

#[test]
fn metrics_listing_matches_its_golden() {
    // The registry listing is part of the CLI contract: names, directions,
    // units, and one-line descriptions are pinned byte-for-byte.
    assert_eq!(stdout_of(&["metrics"]), golden("metrics"));
}

#[test]
fn explicit_paper_selection_is_byte_identical_to_the_default() {
    // `--metrics BPS,IOPS,BW,ARPT` canonicalizes to the paper selection, so
    // the report must be the exact golden bytes — selection is a view over
    // the same fold, not a different computation.
    assert_eq!(
        stdout_of(&["fig4", "--tiny", "--metrics", "BPS,IOPS,BW,ARPT"]),
        golden("fig4")
    );
}

#[test]
fn unknown_metrics_flag_names_itself_and_the_registry() {
    let out = reproduce(&["fig4", "--tiny", "--metrics", "BPS,latency"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown metric: latency"), "{err}");
    assert!(
        err.contains("valid metrics: IOPS, BW, ARPT, BPS, P50, P99, EffPar, IOEff, MaxQD"),
        "{err}"
    );
    assert!(err.contains("reproduce metrics"), "{err}");
}

#[test]
fn json_scenario_selecting_p99_runs_end_to_end() {
    // The tail-latency example asks for an extended metric ("p99") straight
    // from scenario JSON. No recompiling: the registry resolves the name,
    // the sweep folds the percentile, and the report is pinned.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let example = repo_root.join("examples/scenarios/tail-latency.json");
    let out = stdout_of(&["run", example.to_str().unwrap(), "--tiny"]);
    assert!(out.contains("P99(s)"), "{out}");
    assert_eq!(out, golden("tail-latency"));
}

#[test]
fn scenario_metric_selection_outranks_the_cli_flag() {
    // A scenario that names its own metrics pins its columns; `--metrics`
    // only fills in for scenarios that don't ask.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let example = repo_root.join("examples/scenarios/tail-latency.json");
    assert_eq!(
        stdout_of(&[
            "run",
            example.to_str().unwrap(),
            "--tiny",
            "--metrics",
            "MaxQD"
        ]),
        golden("tail-latency")
    );
}

#[test]
fn check_reports_name_and_case_count() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let example = repo_root.join("examples/scenarios/slow-server.json");
    let out = stdout_of(&["check", example.to_str().unwrap()]);
    assert_eq!(out, "ok: slow-server (4 cases at quick scale)\n");
}

#[test]
fn check_rejects_malformed_json_with_the_path_named() {
    let dir = std::env::temp_dir().join("bps_cli_golden");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.json");
    std::fs::write(&path, "{not json").unwrap();
    let out = reproduce(&["check", path.to_str().unwrap()]);
    // Invalid scenario content is its own exit class (3), distinct from
    // the generic 1.
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("broken.json"), "{err}");
    assert!(err.contains("invalid scenario JSON"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_names_the_offending_field_on_a_type_mismatch() {
    let dir = std::env::temp_dir().join("bps_cli_golden");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("badfield.json");
    std::fs::write(&path, "{\"name\": \"x\", \"title\": 3}").unwrap();
    let out = reproduce(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("badfield.json"), "{err}");
    assert!(err.contains("field `title`"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_rejects_a_fault_on_a_server_the_case_lacks() {
    // A fault aimed past the last server used to be dropped silently and
    // the run printed healthy-cluster numbers. Each server-naming field is
    // refused with its path and the case's server count — exit class 3.
    let dir = std::env::temp_dir().join("bps_cli_golden");
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = |name: &str, storage: &str, fault: &str| {
        format!(
            r#"{{
          "name": "{name}", "title": "t", "output": "Cc",
          "base": {{
            "storage": {storage},
            "workload": {{ "Iozone": {{ "mode": "SeqRead",
              "file_size": {{ "Abs": {{ "n": 1048576 }} }},
              "record_size": {{ "Abs": {{ "n": 65536 }} }},
              "processes": 1, "seed": 0 }} }},
            "fault": {{ "seed": 1, {fault} }}
          }},
          "grid": {{ "dims": [[ {{ "label": "x", "patch": {{}} }} ]] }},
          "expect": []
        }}"#
        )
    };
    let pvfs = r#"{ "Pvfs": { "servers": 4 } }"#;
    let train = |server| {
        format!(
            r#"[{{ "server": {server}, "width_ms": 5, "period_ms": 50, "phase_ms": 0, "cycles": 10 }}]"#
        )
    };
    for (name, storage, slowdowns, device_errors, trains, message) in [
        (
            "stray-slowdown",
            pvfs,
            r#"[{ "server": 2, "factor": 2.5 }, { "server": 9, "factor": 2.5 }]"#,
            "[]",
            train(7),
            "fault.slowdowns[1].server is 9, but the case has 4 servers",
        ),
        (
            "stray-hotspot",
            r#""Hdd""#,
            "[]",
            r#"[{ "Uniform": { "rate": 0.1 } }, { "Server": { "server": 1, "rate": 0.2 } }]"#,
            "[]".to_string(),
            "fault.device_errors[1].server is 1, but the case has 1 server",
        ),
        (
            "stray-outage",
            pvfs,
            "[]",
            "[]",
            train(7),
            "fault.outage_trains[0].server is 7, but the case has 4 servers",
        ),
    ] {
        let fault = format!(
            r#""slowdowns": {slowdowns}, "device_errors": {device_errors}, "outage_trains": {trains}"#
        );
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, scenario(name, storage, &fault)).unwrap();
        let out = reproduce(&["check", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(3), "{name}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!(
                "error: {}: at --tiny: scenario `{name}`, case `x`: {message}\n",
                path.display()
            )
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn custom_topology_scenario_matches_its_golden() {
    // The whole point of the topology layer: a stack no figure ever
    // hardcoded (prefetch -> 4-server PFS -> lossy net -> SSD), declared
    // as data, runs end-to-end and scores BPS. Bytes are pinned.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let example = repo_root.join("examples/scenarios/custom-topology.json");
    let out = stdout_of(&["run", example.to_str().unwrap(), "--tiny"]);
    assert!(out.contains("BPS"), "{out}");
    assert_eq!(out, golden("custom-topology"));
}

#[test]
fn topology_subcommand_matches_its_golden() {
    // `reproduce topology` renders the expanded component graph: one line
    // per node with its ports and effective configuration.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let example = repo_root.join("examples/scenarios/custom-topology.json");
    assert_eq!(
        stdout_of(&["topology", example.to_str().unwrap()]),
        golden("custom-topology-graph")
    );
}

#[test]
fn topology_of_a_prebuilt_scenario_shows_the_derived_graph() {
    // A scenario with no `topology` field still renders: the graph is
    // derived from its storage (fig9 is 8-server PFS over HDD).
    let out = stdout_of(&["topology", "fig9", "--tiny"]);
    assert!(out.contains("Pfs"), "{out}");
    assert!(out.contains("8 servers"), "{out}");
    assert!(out.contains("file -> block"), "{out}");
}

#[test]
fn bad_topology_node_is_named_with_the_valid_kinds() {
    // An unknown component fails expansion with the node index, the bad
    // kind, and the registry-style listing of valid kinds — exit class 3.
    let dir = std::env::temp_dir().join("bps_cli_golden");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad-topology.json");
    let sc = r#"{
      "name": "bad-topology", "title": "t", "output": "Cc",
      "base": {
        "storage": "Hdd",
        "workload": { "Iozone": { "mode": "SeqRead",
          "file_size": { "Abs": { "n": 1048576 } },
          "record_size": { "Abs": { "n": 4096 } },
          "processes": 1, "seed": 0 } },
        "topology": [ "Teleport" ]
      },
      "grid": { "dims": [[ { "label": "x", "patch": {} } ]] },
      "expect": []
    }"#;
    std::fs::write(&path, sc).unwrap();
    let out = reproduce(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown component `Teleport`"), "{err}");
    assert!(
        err.contains("valid components: Collective, Sieving, Prefetch, LocalFs, Pfs, Net, Device"),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn ill_ordered_topology_is_rejected_at_expansion() {
    // Structurally bad (Net above a local fs) parses but fails validation
    // when the scenario expands, naming the node and scenario.
    let dir = std::env::temp_dir().join("bps_cli_golden");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ill-topology.json");
    let sc = r#"{
      "name": "ill-topology", "title": "t", "output": "Cc",
      "base": {
        "storage": "Hdd",
        "workload": { "Iozone": { "mode": "SeqRead",
          "file_size": { "Abs": { "n": 1048576 } },
          "record_size": { "Abs": { "n": 4096 } },
          "processes": 1, "seed": 0 } },
        "topology": [ { "LocalFs": {} }, { "Net": {} } ]
      },
      "grid": { "dims": [[ { "label": "x", "patch": {} } ]] },
      "expect": []
    }"#;
    std::fs::write(&path, sc).unwrap();
    let out = reproduce(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ill-topology"), "{err}");
    assert!(err.contains("Net"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_of_unknown_name_suggests_list() {
    let out = reproduce(&["run", "not-a-scenario"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not-a-scenario"), "{err}");
    assert!(err.contains("reproduce list"), "{err}");
}

#[test]
fn no_arguments_is_a_usage_error() {
    let out = reproduce(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn warm_cache_rerun_is_byte_identical_across_processes() {
    // The persistent store's whole contract: a *fresh process* replaying
    // every case from disk produces the cold run's exact stdout bytes.
    let dir = cache_dir("warm");
    let targets = ["fig4", "fig5", "fig9", "--tiny"];
    let cold = reproduce_cached(&targets, &dir, &[]);
    assert!(
        cold.status.success(),
        "cold: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let expected = format!("{}{}{}", golden("fig4"), golden("fig5"), golden("fig9"));
    assert_eq!(String::from_utf8_lossy(&cold.stdout), expected);
    assert!(dir.is_dir(), "cold run must populate {}", dir.display());

    // Warm, fresh process: every case served from disk, same bytes.
    let warm = reproduce_cached(&targets, &dir, &[]);
    assert!(warm.status.success());
    assert_eq!(
        String::from_utf8_lossy(&warm.stdout),
        expected,
        "warm cross-process rerun drifted from the cold bytes"
    );

    // BPS_CACHE=0 bypasses the store and still matches.
    let off = reproduce_cached(&targets, &dir, &[("BPS_CACHE", "0")]);
    assert!(off.status.success());
    assert_eq!(String::from_utf8_lossy(&off.stdout), expected);

    // A parallel warm sweep must also produce the golden bytes.
    let threaded = reproduce_cached(
        &["fig4", "fig5", "fig9", "--tiny", "--threads", "4"],
        &dir,
        &[],
    );
    assert!(threaded.status.success());
    assert_eq!(String::from_utf8_lossy(&threaded.stdout), expected);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_cache_flag_bypasses_the_store() {
    let dir = cache_dir("nocache");
    let out = reproduce_cached(&["fig4", "--tiny", "--no-cache"], &dir, &[]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden("fig4"));
    let entries = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(entries, 0, "--no-cache must not write {}", dir.display());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_entry_recomputes_silently_and_verify_names_it() {
    let dir = cache_dir("corrupt");
    let cold = reproduce_cached(&["fig4", "--tiny"], &dir, &[]);
    assert!(cold.status.success());

    // Truncate one entry mid-payload — a torn write.
    let entry = std::fs::read_dir(&dir)
        .expect("cache populated")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "case"))
        .expect("at least one entry");
    let text = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &text[..text.len() / 2]).unwrap();

    // `cache verify` names the torn entry and exits 1.
    let verify = reproduce_cached(&["cache", "verify"], &dir, &[]);
    assert_eq!(verify.status.code(), Some(1));
    let listing = String::from_utf8_lossy(&verify.stdout);
    let name = entry.file_name().unwrap().to_string_lossy().into_owned();
    assert!(listing.contains(&name), "{listing}");
    assert!(listing.contains("corrupt"), "{listing}");

    // The engine treats it as a miss: recomputes silently, same bytes.
    let warm = reproduce_cached(&["fig4", "--tiny"], &dir, &[]);
    assert!(warm.status.success());
    assert_eq!(String::from_utf8_lossy(&warm.stdout), golden("fig4"));

    // The recompute rewrote the entry; the store is healthy again.
    let verify = reproduce_cached(&["cache", "verify"], &dir, &[]);
    assert_eq!(verify.status.code(), Some(0), "store should be repaired");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_stats_verify_clear_round_trip() {
    let dir = cache_dir("admin");
    let cold = reproduce_cached(&["fig4", "--tiny"], &dir, &[]);
    assert!(cold.status.success());

    let stats = reproduce_cached(&["cache", "stats"], &dir, &[]);
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(text.contains(&dir.display().to_string()), "{text}");
    assert!(text.contains("build fingerprint:"), "{text}");
    assert!(!text.contains("entries: 0 "), "{text}");
    assert!(text.contains("0 stale, 0 corrupt"), "{text}");

    let clear = reproduce_cached(&["cache", "clear"], &dir, &[]);
    assert!(clear.status.success());
    assert!(String::from_utf8_lossy(&clear.stdout).contains("cleared"));

    let stats = reproduce_cached(&["cache", "stats"], &dir, &[]);
    assert!(String::from_utf8_lossy(&stats.stdout).contains("entries: 0 (0 fresh"));
    let verify = reproduce_cached(&["cache", "verify"], &dir, &[]);
    assert_eq!(verify.status.code(), Some(0));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_subcommand_rejects_bad_operations() {
    for bad in [
        &["cache"][..],
        &["cache", "wipe"][..],
        &["cache", "stats", "x"][..],
    ] {
        let out = reproduce(bad);
        assert_eq!(out.status.code(), Some(2), "reproduce {bad:?}");
    }
}
