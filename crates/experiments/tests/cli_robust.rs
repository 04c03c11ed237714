//! Integration tests for the supervised-run machinery of `reproduce`:
//! journaled checkpoint/resume (including a real SIGKILL mid-sweep),
//! per-unit deadlines, and the failure-class exit codes. Failure
//! injection uses the `BPS_TEST_UNIT_PANIC` / `BPS_TEST_UNIT_STALL`
//! hooks, which are inert unless set.

use bps_core::metrics::MetricSelection;
use bps_experiments::journal::Journal;
use bps_experiments::runner::UnitValues;
use bps_experiments::scale::Scale;
use bps_experiments::scenario::{engine, registry};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn reproduce(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    // Injected failures must actually simulate: a persistent-cache hit
    // would serve the unit before the hook fires.
    cmd.args(args).env("BPS_THREADS", "1").env("BPS_CACHE", "0");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn reproduce")
}

fn unique_journal() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "bps_cli_robust_{}_{}.jsonl",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

#[test]
fn journaled_run_matches_golden_and_resume_replays_it() {
    let journal = unique_journal();
    let out = reproduce(
        &["fig4", "--tiny", "--journal", journal.to_str().unwrap()],
        &[],
    );
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden("fig4"));
    let lines = std::fs::read_to_string(&journal).unwrap();
    assert!(
        lines
            .lines()
            .filter(|l| l.contains("\"kind\":\"unit\""))
            .count()
            > 0,
        "journal recorded no units"
    );

    // Resume of a finished journal replays everything — same bytes, at a
    // different thread count.
    let out = reproduce(
        &["resume", journal.to_str().unwrap(), "--threads", "4"],
        &[],
    );
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden("fig4"));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("resuming from"), "{err}");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn sigkill_mid_sweep_then_resume_is_byte_identical_to_the_golden() {
    let journal = unique_journal();
    // Stall every pvfs unit 200 ms so the kill lands mid-sweep.
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["fig4", "--tiny", "--journal", journal.to_str().unwrap()])
        .env("BPS_THREADS", "1")
        .env("BPS_CACHE", "0")
        .env("BPS_TEST_UNIT_STALL", "pvfs:200")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn reproduce");
    // Wait until at least one unit hit the journal, then SIGKILL.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let units = std::fs::read_to_string(&journal)
            .map(|s| s.matches("\"kind\":\"unit\"").count())
            .unwrap_or(0);
        if units >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "journal never accumulated units"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    child.kill().expect("kill reproduce");
    child.wait().expect("reap reproduce");

    // The journal survived the SIGKILL with at least the finished units;
    // resume completes the run and reproduces the golden bytes exactly,
    // at 1 and at 4 threads.
    for threads in ["1", "4"] {
        let out = reproduce(
            &["resume", journal.to_str().unwrap(), "--threads", threads],
            &[],
        );
        assert_eq!(
            out.status.code(),
            Some(0),
            "resume --threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden("fig4"),
            "resume --threads {threads} drifted from the golden"
        );
    }
    std::fs::remove_file(&journal).ok();
}

#[test]
fn forced_panic_exits_5_and_names_the_kind() {
    let out = reproduce(&["fig4", "--tiny"], &[("BPS_TEST_UNIT_PANIC", "pvfs-3")]);
    assert_eq!(out.status.code(), Some(5));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[panic]"), "{err}");
    assert!(err.contains("unit(s) failed"), "{err}");
    // The report still renders, with the failed case annotated.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pvfs-3 [panic]"), "{stdout}");
}

#[test]
fn deadline_overrun_exits_6_not_hangs() {
    // Every pvfs-3 unit stalls 60 s; a 100 ms deadline must detach it and
    // report Timeout well before the stall would finish.
    let start = std::time::Instant::now();
    let out = reproduce(
        &["fig4", "--tiny", "--deadline-ms", "100"],
        &[("BPS_TEST_UNIT_STALL", "pvfs-3:60000")],
    );
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "deadline did not prevent the hang"
    );
    assert_eq!(out.status.code(), Some(6));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[timeout]"), "{err}");
    assert!(err.contains("exceeded per-unit deadline"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pvfs-3 [timeout]"), "{stdout}");
}

#[test]
fn panic_outranks_timeout_in_the_exit_code() {
    // Both kinds occur; the exit code reports the severest (panic = 5).
    let out = reproduce(
        &["fig4", "--tiny", "--deadline-ms", "100"],
        &[
            ("BPS_TEST_UNIT_PANIC", "pvfs-2"),
            ("BPS_TEST_UNIT_STALL", "pvfs-3:60000"),
        ],
    );
    assert_eq!(out.status.code(), Some(5));
}

#[test]
fn failure_budget_exceeded_exits_7_with_resume_hint() {
    let journal = unique_journal();
    let out = reproduce(
        &[
            "fig4",
            "--tiny",
            "--max-failures",
            "0",
            "--journal",
            journal.to_str().unwrap(),
        ],
        &[("BPS_TEST_UNIT_PANIC", "pvfs")],
    );
    assert_eq!(out.status.code(), Some(7));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("failure budget exceeded"), "{err}");
    assert!(err.contains("reproduce resume"), "{err}");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn journal_with_debug_format_keys_replays_nothing() {
    // Earlier builds keyed journal units by the `Debug` text of the
    // label-stripped case. Such a journal must match no unit of this
    // build: its values are deliberately wrong, and resume must re-run
    // every unit and print the cold bytes.
    let journal = unique_journal();
    let scale = Scale::tiny();
    let sel = MetricSelection::paper();
    let cases = engine::expand(&registry::find("fig4").unwrap(), &scale).unwrap();
    let wrong = UnitValues {
        iops: Some(1.0),
        bw: Some(1.0),
        arpt: Some(1.0),
        bps: Some(1.0),
        exec_s: 1.0,
        extra: Vec::new(),
    };
    let j = Journal::create(&journal, &["fig4".to_string(), "--tiny".to_string()]).unwrap();
    for case in &cases {
        let mut stripped = case.clone();
        stripped.label.clear();
        let old_key = format!("{stripped:?}|{scale:?}|{:?}", sel.names());
        assert!(old_key.starts_with("ResolvedCase { "), "{old_key}");
        for seed in scale.seeds() {
            j.record(&format!("{old_key}#{seed}"), &case.label, seed, &wrong);
        }
    }
    drop(j);

    let (j, _) = Journal::open_resume(&journal).unwrap();
    assert_eq!(j.replayed_units(), cases.len() * scale.seeds().len());
    for case in &cases {
        let key = engine::content_key(case, &scale, &sel);
        for seed in scale.seeds() {
            assert!(
                j.lookup(&format!("{key}#{seed}")).is_none(),
                "a Debug-format unit matched `{}` seed {seed}",
                case.label
            );
        }
    }
    drop(j);

    let out = reproduce(&["resume", journal.to_str().unwrap()], &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden("fig4"));
    std::fs::remove_file(&journal).ok();
}

#[test]
fn replayed_trace_whose_extent_wraps_u64_is_refused() {
    // Eight sequential 4 KiB reads, then one whose `offset + bytes` wraps
    // past 2^64: that record names no byte of any file, so the trace is
    // refused like one that cannot be loaded, not simulated.
    let work = std::env::temp_dir().join(format!("bps_cli_robust_wrap_{}", std::process::id()));
    std::fs::create_dir_all(&work).unwrap();
    std::fs::write(
        work.join("replay.json"),
        r#"{
  "name": "replay-wrap",
  "title": "Replay of a trace whose last extent wraps",
  "output": "Cc",
  "base": {
    "storage": "Hdd",
    "workload": { "Fixed": { "spec": { "Replay": { "path": "t.json" } } } }
  },
  "grid": { "dims": [[ { "label": "hdd", "patch": { "storage": "Hdd" } } ]] },
  "expect": []
}"#,
    )
    .unwrap();
    let record = |offset: u64, i: u64| {
        format!(
            "{{\"pid\": 0, \"op\": \"Read\", \"file\": 0, \"offset\": {offset}, \
             \"bytes\": 4096, \"start\": {}, \"end\": {}, \"layer\": \"Application\"}}",
            i * 1_000_000,
            i * 1_000_000 + 500_000
        )
    };
    let mut records: Vec<String> = (0..8).map(|i| record(i * 4096, i)).collect();
    records.push(record(u64::MAX - 99, 8));
    std::fs::write(
        work.join("t.json"),
        format!(
            "{{\"records\": [{}], \"exec_time\": null}}",
            records.join(", ")
        ),
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["run", "replay.json", "--tiny"])
        .current_dir(&work)
        .env("BPS_THREADS", "1")
        .env("BPS_CACHE", "0")
        .output()
        .expect("spawn reproduce");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {err}");
    assert!(err.contains("cannot load trace `t.json`"), "{err}");
    assert!(err.contains("record 8"), "{err}");
    assert!(err.contains("offset 18446744073709551516"), "{err}");
    assert!(out.stdout.is_empty(), "a refused trace printed a report");
    std::fs::remove_dir_all(&work).ok();
}

#[test]
fn resume_of_a_missing_journal_exits_4() {
    let out = reproduce(&["resume", "/nonexistent/journal.jsonl"], &[]);
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot resume"), "{err}");
}

#[test]
fn scenario_deadline_outranks_the_flag() {
    // Scenario pins a generous 60 s deadline; the CLI asks for 100 ms.
    // The scenario wins, so the 300 ms stall completes and exits 0.
    let dir = std::env::temp_dir().join("bps_cli_robust_scenarios");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deadline.json");
    let sc = r#"{
  "name": "deadline-demo",
  "title": "scenario deadline outranks the flag",
  "output": "Cc",
  "base": {
    "storage": {"Pvfs": {"servers": 2}},
    "workload": {"Iozone": {"mode": "SeqRead", "file_size": {"Abs": {"n": 65536}},
                  "record_size": {"Abs": {"n": 4096}}, "processes": 1, "seed": 0}}
  },
  "grid": {"dims": [[{"label": "a", "patch": {}}]]},
  "deadline_ms": 60000,
  "expect": []
}"#;
    std::fs::write(&path, sc).unwrap();
    let out = reproduce(
        &[
            "run",
            path.to_str().unwrap(),
            "--tiny",
            "--deadline-ms",
            "100",
        ],
        &[("BPS_TEST_UNIT_STALL", "a:300")],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).ok();
}
