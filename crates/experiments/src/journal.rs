//! Append-only run journal: checkpoint/resume for supervised sweeps.
//!
//! `reproduce run --journal <path>` writes one JSONL line per completed
//! `(case, seed)` unit, flushed as it lands, so a killed run loses at
//! most its in-flight units. `reproduce resume <path>` replays the
//! journal — completed units are served from it instead of re-simulated
//! — and re-runs the rest, producing byte-identical output to an
//! uninterrupted run at any thread count.
//!
//! ## Format
//!
//! The first line is a header recording the original CLI arguments
//! (minus the `--journal` pair), which is how `resume` reconstructs the
//! run:
//!
//! ```text
//! {"kind":"header","version":1,"args":["run","fig4","--tiny"]}
//! {"kind":"unit","key":"<case-key>#<seed>","label":"hdd","seed":1,
//!  "exec_s":"3fe8a3d70a3d70a4","iops":"40f86a0000000000",...,"extra":[...]}
//! ```
//!
//! Units are content-keyed exactly like the cross-figure memo cache
//! (`case_key(case, scale, selection)` plus the seed), so a journal is
//! valid across any target list that shares cases and is simply ignored
//! for units whose content changed. Every `f64` is stored as the
//! 16-hex-digit big-endian encoding of its IEEE-754 bits (`null` for an
//! undefined sample): the vendored JSON writer renders non-finite floats
//! as `null` and decimal round-trips are not bit-exact, while the bits
//! encoding is — resume must reproduce cold-run bytes exactly.
//!
//! Torn or unparseable lines (a SIGKILL mid-write) are skipped with a
//! warning; the affected unit just re-runs.

use crate::runner::UnitValues;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Journal format version (the header's `version` field).
const VERSION: u64 = 1;

/// An open run journal: an append handle plus the replay map of every
/// unit already on disk.
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
    replay: HashMap<String, UnitValues>,
}

/// Encode an `f64` as its IEEE-754 bits in hex — exact, NaN-safe. The
/// persistent case store writes the same 16-hex-digit spelling.
fn f64_to_value(x: f64) -> serde::Value {
    serde::Value::Str(format!("{:016x}", x.to_bits()))
}

fn opt_f64_to_value(x: Option<f64>) -> serde::Value {
    match x {
        Some(x) => f64_to_value(x),
        None => serde::Value::Null,
    }
}

fn f64_from_value(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::Str(s) if s.len() == 16 => {
            u64::from_str_radix(s, 16).ok().map(f64::from_bits)
        }
        _ => None,
    }
}

fn opt_f64_from_value(v: &serde::Value) -> Result<Option<f64>, ()> {
    match v {
        serde::Value::Null => Ok(None),
        other => f64_from_value(other).map(Some).ok_or(()),
    }
}

/// Parse one journal line into a `(key, values)` unit entry; `None` for
/// headers, torn lines, or anything else unusable.
fn parse_unit(line: &str) -> Option<(String, UnitValues)> {
    let v: serde::Value = serde_json::from_str(line).ok()?;
    let field = |name: &str| v.field(name).ok().cloned();
    match field("kind")? {
        serde::Value::Str(k) if k == "unit" => {}
        _ => return None,
    }
    let key = match field("key")? {
        serde::Value::Str(k) => k,
        _ => return None,
    };
    let extra = match field("extra")? {
        serde::Value::Null => Vec::new(),
        serde::Value::Array(items) => {
            let mut extra = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    serde::Value::Array(pair) if pair.len() == 2 => {
                        let name = match &pair[0] {
                            serde::Value::Str(n) => n.clone(),
                            _ => return None,
                        };
                        extra.push((name, opt_f64_from_value(&pair[1]).ok()?));
                    }
                    _ => return None,
                }
            }
            extra
        }
        _ => return None,
    };
    let values = UnitValues {
        iops: opt_f64_from_value(&field("iops")?).ok()?,
        bw: opt_f64_from_value(&field("bw")?).ok()?,
        arpt: opt_f64_from_value(&field("arpt")?).ok()?,
        bps: opt_f64_from_value(&field("bps")?).ok()?,
        exec_s: f64_from_value(&field("exec_s")?)?,
        extra,
    };
    Some((key, values))
}

impl Journal {
    /// Create (truncating) a journal at `path`, stamping the header with
    /// the run's CLI arguments.
    pub fn create(path: &Path, args: &[String]) -> io::Result<Journal> {
        let mut file = File::create(path)?;
        let header = serde::Value::Object(vec![
            ("kind".to_string(), serde::Value::Str("header".to_string())),
            ("version".to_string(), serde::Value::UInt(VERSION)),
            (
                "args".to_string(),
                serde::Value::Array(args.iter().map(|a| serde::Value::Str(a.clone())).collect()),
            ),
        ]);
        let line = serde_json::to_string(&header)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(file, "{line}")?;
        file.flush()?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            replay: HashMap::new(),
        })
    }

    /// Open an existing journal for resumption: parse the header and every
    /// unit line (skipping torn ones with a warning), then reopen the file
    /// in append mode. Returns the journal and the original CLI arguments
    /// from the header.
    pub fn open_resume(path: &Path) -> io::Result<(Journal, Vec<String>)> {
        let text = std::fs::read_to_string(path)?;
        let mut args: Option<Vec<String>> = None;
        let mut replay = HashMap::new();
        let mut torn = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if args.is_none() {
                if let Ok(v) = serde_json::from_str::<serde::Value>(line) {
                    if let (Ok(serde::Value::Str(kind)), Ok(serde::Value::Array(items))) =
                        (v.field("kind"), v.field("args"))
                    {
                        if kind == "header" {
                            args = Some(
                                items
                                    .iter()
                                    .filter_map(|i| match i {
                                        serde::Value::Str(s) => Some(s.clone()),
                                        _ => None,
                                    })
                                    .collect(),
                            );
                            continue;
                        }
                    }
                }
            }
            match parse_unit(line) {
                // Later lines win: a re-run unit appended after a resume
                // supersedes (bit-identically) its earlier record.
                Some((key, values)) => {
                    replay.insert(key, values);
                }
                None => torn += 1,
            }
        }
        let args = args.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: no journal header line", path.display()),
            )
        })?;
        if torn > 0 {
            eprintln!(
                "warning: {}: skipped {torn} torn/unparseable journal line(s); \
                 those units will re-run",
                path.display()
            );
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file: Mutex::new(file),
                replay,
            },
            args,
        ))
    }

    /// The journal's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many completed units the journal replays.
    pub fn replayed_units(&self) -> usize {
        self.replay.len()
    }

    /// The recorded values of a unit, if the journal has it.
    pub fn lookup(&self, key: &str) -> Option<UnitValues> {
        self.replay.get(key).cloned()
    }

    /// Append one completed unit and flush, so the line survives a SIGKILL
    /// arriving right after. A write error is reported, not fatal — losing
    /// journal durability should not kill a healthy sweep.
    pub fn record(&self, key: &str, label: &str, seed: u64, values: &UnitValues) {
        let extra = serde::Value::Array(
            values
                .extra
                .iter()
                .map(|(name, v)| {
                    serde::Value::Array(vec![serde::Value::Str(name.clone()), opt_f64_to_value(*v)])
                })
                .collect(),
        );
        let unit = serde::Value::Object(vec![
            ("kind".to_string(), serde::Value::Str("unit".to_string())),
            ("key".to_string(), serde::Value::Str(key.to_string())),
            ("label".to_string(), serde::Value::Str(label.to_string())),
            ("seed".to_string(), serde::Value::UInt(seed)),
            ("exec_s".to_string(), f64_to_value(values.exec_s)),
            ("iops".to_string(), opt_f64_to_value(values.iops)),
            ("bw".to_string(), opt_f64_to_value(values.bw)),
            ("arpt".to_string(), opt_f64_to_value(values.arpt)),
            ("bps".to_string(), opt_f64_to_value(values.bps)),
            ("extra".to_string(), extra),
        ]);
        let line = match serde_json::to_string(&unit) {
            Ok(line) => line,
            Err(e) => {
                eprintln!("warning: journal: cannot encode unit {key}: {e}");
                return;
            }
        };
        let mut file = self.file.lock().expect("journal file poisoned");
        if let Err(e) = writeln!(file, "{line}").and_then(|()| file.flush()) {
            eprintln!(
                "warning: journal: cannot append to {}: {e}",
                self.path.display()
            );
        }
    }
}

fn active_slot() -> &'static Mutex<Option<Arc<Journal>>> {
    static ACTIVE: OnceLock<Mutex<Option<Arc<Journal>>>> = OnceLock::new();
    ACTIVE.get_or_init(Default::default)
}

/// Install (or clear) the process-wide journal every scenario run records
/// to and replays from. The CLI sets it for `--journal` and `resume`.
pub fn set_active(journal: Option<Arc<Journal>>) {
    *active_slot().lock().expect("journal slot poisoned") = journal;
}

/// The process-wide journal, if one is installed.
pub fn active() -> Option<Arc<Journal>> {
    active_slot().lock().expect("journal slot poisoned").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bps_journal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    fn values(x: f64) -> UnitValues {
        UnitValues {
            iops: Some(x),
            bw: None,
            arpt: Some(x * 0.5),
            bps: Some(f64::NAN),
            exec_s: x + 0.125,
            extra: vec![("P99".to_string(), Some(x)), ("MaxQD".to_string(), None)],
        }
    }

    #[test]
    fn round_trips_bits_exactly_including_nan() {
        let path = tmp("roundtrip");
        let j = Journal::create(&path, &["run".into(), "fig4".into()]).unwrap();
        let v = values(std::f64::consts::PI);
        j.record("k#1", "hdd", 1, &v);
        drop(j);
        let (j, args) = Journal::open_resume(&path).unwrap();
        assert_eq!(args, vec!["run".to_string(), "fig4".to_string()]);
        assert_eq!(j.replayed_units(), 1);
        let back = j.lookup("k#1").unwrap();
        assert_eq!(back.iops.unwrap().to_bits(), v.iops.unwrap().to_bits());
        assert_eq!(back.bw, None);
        assert_eq!(back.arpt.unwrap().to_bits(), v.arpt.unwrap().to_bits());
        // NaN survives bit-for-bit — the whole point of the hex encoding.
        assert_eq!(back.bps.unwrap().to_bits(), v.bps.unwrap().to_bits());
        assert_eq!(back.exec_s.to_bits(), v.exec_s.to_bits());
        assert_eq!(back.extra, v.extra);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_line_is_skipped_not_fatal() {
        let path = tmp("torn");
        let j = Journal::create(&path, &["fig5".into()]).unwrap();
        j.record("a#1", "c", 1, &values(1.0));
        j.record("b#2", "c", 2, &values(2.0));
        drop(j);
        // Simulate a SIGKILL mid-write: chop the last line in half.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 25]).unwrap();
        let (j, _) = Journal::open_resume(&path).unwrap();
        assert_eq!(j.replayed_units(), 1);
        assert!(j.lookup("a#1").is_some());
        assert!(j.lookup("b#2").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_appends_after_replay() {
        let path = tmp("append");
        let j = Journal::create(&path, &[]).unwrap();
        j.record("a#1", "c", 1, &values(1.0));
        drop(j);
        let (j, _) = Journal::open_resume(&path).unwrap();
        j.record("b#1", "c", 1, &values(2.0));
        drop(j);
        let (j, _) = Journal::open_resume(&path).unwrap();
        assert_eq!(j.replayed_units(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_header_is_an_error() {
        let path = tmp("headerless");
        std::fs::write(&path, "{\"kind\":\"unit\"}\n").unwrap();
        let e = match Journal::open_resume(&path) {
            Err(e) => e,
            Ok(_) => panic!("headerless journal must not open"),
        };
        assert!(e.to_string().contains("header"), "{e}");
        std::fs::remove_file(&path).ok();
    }
}
