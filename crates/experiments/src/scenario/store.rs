//! Persistent content-addressed case store — the second level of the
//! case cache.
//!
//! The in-process memo ([`super::engine`]) only helps within one run of
//! the binary; this store persists scored [`CasePoint`]s on disk so a
//! *fresh process* replays them instead of re-simulating. Entries are
//! addressed by the engine's content key (every field that feeds the
//! simulation — see [`super::engine::content_key`]) and stamped with the
//! build's code fingerprint (`BPS_CODE_FINGERPRINT`, computed by
//! `build.rs` over every workspace source file), so a binary built from
//! different sources never replays entries it did not produce.
//!
//! ## Guarantees
//!
//! - **Bit-exact replay.** Every `f64` is stored as the 16-hex-digit
//!   encoding of its IEEE-754 bits — the journal's encoding — so a
//!   cache-served report is byte-identical to a cold one.
//! - **Torn writes never poison a run.** Each entry is a header line
//!   carrying the payload length and an FNV-1a checksum; a truncated or
//!   bit-flipped entry fails the check and is treated as a miss
//!   (silently recomputed). `reproduce cache verify` names such entries.
//! - **Concurrent writers are safe.** Entries are written to a
//!   process-unique temp file and atomically renamed into place; two
//!   processes racing on one key leave one complete entry, never an
//!   interleaving.
//! - **Failures never persist.** A point whose every seed failed (panic,
//!   timeout) is environment-dependent and is not written.
//!
//! ## Entry format (version 2)
//!
//! `bps-case 2 <payload-len> <fnv1a-16hex>`, a newline, then the payload
//! `<fingerprint> <exec_s> <iops> <bw> <arpt> <bps> <n> [<name> <value>]×n
//! <label> <key>` and a newline. Fields are one space apart; strings are
//! length-prefixed (`<bytes>:<text>`), so they may hold any character.
//!
//! ## Control surface
//!
//! The CLI installs the store from the environment: `BPS_CACHE=0` (or
//! `--no-cache`) disables it, `BPS_CACHE_DIR` overrides the default
//! location (the build's `target/bps-cache/`). `reproduce cache
//! stats|verify|clear` inspects and manages the store.

use crate::runner::CasePoint;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// On-disk entry format version (bumped on layout changes; a version
/// mismatch is a miss).
pub const VERSION: u64 = 2;

/// The fingerprint of the sources this binary was built from, stamped
/// into every entry it writes.
pub fn code_fingerprint() -> &'static str {
    env!("BPS_CODE_FINGERPRINT")
}

/// FNV-1a over a byte string — entry addressing and checksums. Matches
/// the `build.rs` fingerprint hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why an on-disk entry cannot be served.
enum EntryState<'a> {
    /// Valid and written by this build: the stored key and point.
    Fresh(&'a str, CasePoint),
    /// Structurally valid but written by another build or format version.
    /// Carries the human-readable reason and the foreign origin marker
    /// (`build <fingerprint>` or `format v<N>`) `cache stats` groups by.
    Stale(String, String),
    /// Torn, bit-flipped, or otherwise unparseable.
    Corrupt(String),
}

/// Render a complete entry file (layout in the module docs).
fn encode_entry(key: &str, point: &CasePoint) -> String {
    let fp = code_fingerprint();
    let mut payload = format!("{}:{fp}", fp.len());
    for x in [point.exec_s, point.iops, point.bw, point.arpt, point.bps] {
        let _ = write!(payload, " {:016x}", x.to_bits());
    }
    let _ = write!(payload, " {}", point.extra.len());
    for (name, x) in &point.extra {
        let _ = write!(payload, " {}:{name} {:016x}", name.len(), x.to_bits());
    }
    let label = &point.label;
    let _ = write!(payload, " {}:{label} {}:{key}", label.len(), key.len());
    format!(
        "bps-case {VERSION} {} {:016x}\n{payload}\n",
        payload.len(),
        fnv1a(payload.as_bytes())
    )
}

/// The header line's format version, payload length and checksum, and
/// the offset the payload starts at.
fn parse_header(bytes: &[u8]) -> Result<(u64, usize, u64, usize), &'static str> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("missing header line")?;
    let mut f = Fields(std::str::from_utf8(&bytes[..nl]).unwrap_or(""));
    match (f.take(8), f.count(' '), f.count(' '), f.hex()) {
        (Some("bps-case"), Some(version), Some(len), Some(sum)) if f.0.is_empty() => {
            Ok((version as u64, len, sum, nl + 1))
        }
        _ => Err("malformed header"),
    }
}

/// A cursor over the payload's space-separated fields.
struct Fields<'a>(&'a str);

impl<'a> Fields<'a> {
    /// The next `len` bytes, then the separator; only the last field has none.
    fn take(&mut self, len: usize) -> Option<&'a str> {
        let field = self.0.get(..len)?;
        self.0 = match &self.0[len..] {
            "" => "",
            rest => rest.strip_prefix(' ').filter(|next| !next.is_empty())?,
        };
        Some(field)
    }

    /// A decimal count ended by `end`: ASCII digits only, no sign.
    fn count(&mut self, end: char) -> Option<usize> {
        let (digits, rest) = self.0.split_once(end)?;
        self.0 = rest;
        let ok = digits.bytes().all(|b| b.is_ascii_digit());
        ok.then(|| digits.parse().ok())?
    }

    /// A length-prefixed string, `<bytes>:<text>`.
    fn text(&mut self) -> Option<&'a str> {
        let len = self.count(':')?;
        self.take(len)
    }

    /// Exactly 16 lowercase hex digits, so a value has one spelling.
    fn hex(&mut self) -> Option<u64> {
        let s = self.take(16)?;
        let ok = s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        ok.then(|| u64::from_str_radix(s, 16).ok())?
    }

    fn f64(&mut self) -> Option<f64> {
        self.hex().map(f64::from_bits)
    }
}

/// The fields after the fingerprint, read in the order the struct
/// literal names them; the key must end the payload.
fn decode_point<'a>(f: &mut Fields<'a>) -> Option<(&'a str, CasePoint)> {
    let point = CasePoint {
        exec_s: f.f64()?,
        iops: f.f64()?,
        bw: f.f64()?,
        arpt: f.f64()?,
        bps: f.f64()?,
        extra: (0..f.count(' ')?)
            .map(|_| Some((f.text()?.to_string(), f.f64()?)))
            .collect::<Option<_>>()?,
        label: f.text()?.to_string(),
        failed: None,
    };
    let key = f.text()?;
    f.0.is_empty().then_some((key, point))
}

/// Classify one entry file's bytes: fresh (servable), stale, or corrupt.
/// The checksum covers the raw bytes and is checked before UTF-8 decoding,
/// the fingerprint before any float, and the key is compared by the caller.
fn parse_entry(bytes: &[u8]) -> EntryState<'_> {
    let corrupt = |r: &str| EntryState::Corrupt(r.to_string());
    let (version, len, sum, start) = match parse_header(bytes) {
        Ok(h) => h,
        Err(reason) => return corrupt(reason),
    };
    if version != VERSION {
        return EntryState::Stale(
            format!("format version {version}; this build reads {VERSION}"),
            format!("format v{version}"),
        );
    }
    let rest = &bytes[start..];
    let Some((payload, end)) = rest.split_at_checked(len) else {
        let got = rest.len();
        return corrupt(&format!("torn entry: {got} of {len} payload byte(s)"));
    };
    if fnv1a(payload) != sum {
        return corrupt("checksum mismatch");
    }
    if end != b"\n" {
        return corrupt("bad entry terminator");
    }
    let Ok(payload) = std::str::from_utf8(payload) else {
        return corrupt("payload is not UTF-8");
    };
    let (mut fields, this) = (Fields(payload), code_fingerprint());
    match fields.text() {
        Some(fp) if fp != this => EntryState::Stale(
            format!("written by build {fp}; this build is {this}"),
            format!("build {fp}"),
        ),
        Some(_) => match decode_point(&mut fields) {
            Some((key, point)) => EntryState::Fresh(key, point),
            None => corrupt("malformed case point"),
        },
        None => corrupt("missing fingerprint"),
    }
}

/// An entry file's bytes, from one `read` into a page-sized buffer. Only
/// a header declaring a longer entry makes it read on, to one byte past
/// the declared end so that trailing bytes show.
fn read_entry(path: &Path) -> io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    let mut buf = vec![0; 4096];
    let n = file.read(&mut buf)?;
    buf.truncate(n);
    if let Ok((_, len, _, start)) = parse_header(&buf) {
        let end = start.saturating_add(len).saturating_add(1);
        if end > n {
            file.take((end - n) as u64 + 1).read_to_end(&mut buf)?;
        }
    }
    Ok(buf)
}

/// Aggregate counts from one walk of the store directory.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Entry files present.
    pub entries: usize,
    /// Entries this build can serve.
    pub fresh: usize,
    /// Entries written by another build or format version.
    pub stale: usize,
    /// Torn or bit-flipped entries.
    pub corrupt: usize,
    /// Total bytes of all entry files.
    pub bytes: u64,
    /// Stale entries grouped by origin (`build <fingerprint>` or
    /// `format v<N>`), most numerous first, ties by name — so `cache
    /// stats` can say *which* rebuild orphaned them.
    pub stale_origins: Vec<(String, usize)>,
}

/// One unservable entry, named for `cache verify`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryProblem {
    /// The entry's file name inside the store directory.
    pub file: String,
    /// Why it cannot be served.
    pub reason: String,
}

/// A content-addressed directory of scored case points.
pub struct CaseStore {
    dir: PathBuf,
}

impl CaseStore {
    /// A store rooted at `dir` (created lazily on first insert).
    pub fn at(dir: impl Into<PathBuf>) -> CaseStore {
        CaseStore { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file a key lives in: the FNV-1a hash of the key, in
    /// hex. The full key is stored *inside* the entry and compared on
    /// read, so a filename collision degrades to a miss, never a wrong
    /// answer.
    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.case", fnv1a(key.as_bytes())))
    }

    /// The stored point for a content key, or `None` (entry absent,
    /// stale, corrupt, or a filename collision). Misses are silent —
    /// the engine just simulates.
    pub fn lookup(&self, key: &str) -> Option<CasePoint> {
        use bps_telemetry::{incr, Counter};
        let bytes = read_entry(&self.entry_path(key)).ok();
        let found = match bytes.as_deref().map(parse_entry) {
            Some(EntryState::Fresh(stored_key, point)) if stored_key == key => Some(point),
            Some(EntryState::Stale(..)) => {
                incr(Counter::CacheL2Stale);
                None
            }
            Some(EntryState::Corrupt(_)) => {
                incr(Counter::CacheL2Corrupt);
                None
            }
            _ => None,
        };
        incr(match found {
            Some(_) => Counter::CacheL2Hits,
            None => Counter::CacheL2Misses,
        });
        found
    }

    /// Persist a scored point under its content key. Failed points are
    /// skipped (a timeout on this machine says nothing about the next),
    /// and I/O errors are reported but never fatal — losing cache
    /// durability must not kill a healthy run.
    pub fn insert(&self, key: &str, point: &CasePoint) {
        if point.failed.is_some() {
            return;
        }
        if let Err(e) = self.try_insert(key, point) {
            eprintln!(
                "warning: case store: cannot write entry under {}: {e}",
                self.dir.display()
            );
        } else {
            bps_telemetry::incr(bps_telemetry::Counter::CacheL2Writes);
        }
    }

    fn try_insert(&self, key: &str, point: &CasePoint) -> io::Result<()> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, encode_entry(key, point))?;
        fs::rename(&tmp, self.entry_path(key)).inspect_err(|_| {
            fs::remove_file(&tmp).ok();
        })
    }

    /// Every entry file, in name order (deterministic listings).
    fn entry_files(&self) -> Vec<PathBuf> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut files: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "case"))
            .collect();
        files.sort();
        files
    }

    /// Walk the store and count entries by state.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats::default();
        let mut origins: Vec<(String, usize)> = Vec::new();
        for path in self.entry_files() {
            s.entries += 1;
            s.bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            match read_entry(&path).as_deref().map(parse_entry) {
                Ok(EntryState::Fresh(..)) => s.fresh += 1,
                Ok(EntryState::Stale(_, origin)) => {
                    s.stale += 1;
                    match origins.iter_mut().find(|(o, _)| *o == origin) {
                        Some((_, n)) => *n += 1,
                        None => origins.push((origin, 1)),
                    }
                }
                _ => s.corrupt += 1,
            }
        }
        origins.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        s.stale_origins = origins;
        s
    }

    /// Walk the store and name every entry that cannot be served,
    /// with the reason. Returns `(entries checked, problems)`.
    pub fn verify(&self) -> (usize, Vec<EntryProblem>) {
        let mut checked = 0;
        let mut problems = Vec::new();
        for path in self.entry_files() {
            checked += 1;
            let file = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let reason = match read_entry(&path).as_deref().map(parse_entry) {
                Ok(EntryState::Fresh(..)) => continue,
                Ok(EntryState::Stale(r, _)) => format!("stale: {r}"),
                Ok(EntryState::Corrupt(r)) => format!("corrupt: {r}"),
                Err(e) => format!("unreadable: {e}"),
            };
            problems.push(EntryProblem { file, reason });
        }
        (checked, problems)
    }

    /// Remove every entry (and any leftover temp file); returns the
    /// number of entries removed.
    pub fn clear(&self) -> io::Result<usize> {
        let mut removed = 0;
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.extension().is_some_and(|x| x == "case") {
                fs::remove_file(&path)?;
                removed += 1;
            } else if name.starts_with(".tmp-") {
                fs::remove_file(&path).ok();
            }
        }
        Ok(removed)
    }
}

fn active_slot() -> &'static Mutex<Option<Arc<CaseStore>>> {
    static ACTIVE: OnceLock<Mutex<Option<Arc<CaseStore>>>> = OnceLock::new();
    ACTIVE.get_or_init(Default::default)
}

/// Install (or clear) the process-wide store the engine consults. The
/// CLI installs [`from_env`]'s store unless `--no-cache` is given; the
/// engine's own unit tests never install one, so in-process tests stay
/// hermetic.
pub fn set_active(store: Option<Arc<CaseStore>>) {
    *active_slot().lock().expect("case store slot poisoned") = store;
}

/// The process-wide store, if one is installed.
pub fn active() -> Option<Arc<CaseStore>> {
    active_slot()
        .lock()
        .expect("case store slot poisoned")
        .clone()
}

/// Whether the environment enables the persistent cache (`BPS_CACHE=0`
/// turns it off; anything else, including unset, leaves it on).
pub fn cache_enabled() -> bool {
    std::env::var("BPS_CACHE").map(|v| v != "0").unwrap_or(true)
}

/// The store directory the environment selects: `BPS_CACHE_DIR` if set,
/// else `bps-cache/` under the build's `target/` directory (found from
/// the running binary's path), else `target/bps-cache` relative to the
/// working directory.
pub fn env_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("BPS_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    if let Ok(exe) = std::env::current_exe() {
        if let Some(target) = exe
            .ancestors()
            .find(|a| a.file_name().is_some_and(|n| n == "target"))
        {
            return target.join("bps-cache");
        }
    }
    PathBuf::from("target/bps-cache")
}

/// The store the environment asks for, or `None` when `BPS_CACHE=0`.
pub fn from_env() -> Option<CaseStore> {
    cache_enabled().then(|| CaseStore::at(env_dir()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bps_store_tests-{}-{name}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn point(x: f64) -> CasePoint {
        CasePoint {
            label: "hdd".to_string(),
            iops: x,
            bw: x * 0.5,
            arpt: f64::NAN,
            bps: -x,
            exec_s: x + 0.125,
            extra: vec![("P99".to_string(), x * 2.0)],
            failed: None,
        }
    }

    #[test]
    fn round_trips_bits_exactly_including_nan() {
        let store = CaseStore::at(tmp("roundtrip"));
        let p = point(std::f64::consts::PI);
        store.insert("case-a", &p);
        let back = store.lookup("case-a").expect("entry written");
        assert_eq!(back.label, p.label);
        assert_eq!(back.iops.to_bits(), p.iops.to_bits());
        assert_eq!(back.bw.to_bits(), p.bw.to_bits());
        // NaN survives bit-for-bit — the point of the hex encoding.
        assert_eq!(back.arpt.to_bits(), p.arpt.to_bits());
        assert_eq!(back.bps.to_bits(), p.bps.to_bits());
        assert_eq!(back.exec_s.to_bits(), p.exec_s.to_bits());
        assert_eq!(back.extra.len(), 1);
        assert_eq!(back.extra[0].0, "P99");
        assert_eq!(back.extra[0].1.to_bits(), p.extra[0].1.to_bits());
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn absent_entry_is_a_miss() {
        let store = CaseStore::at(tmp("absent"));
        assert!(store.lookup("nothing-here").is_none());
    }

    #[test]
    fn truncated_entry_is_a_silent_miss_and_verify_names_it() {
        let store = CaseStore::at(tmp("torn"));
        store.insert("case-t", &point(1.0));
        let path = store
            .dir()
            .join(format!("{:016x}.case", fnv1a("case-t".as_bytes())));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 20]).unwrap();
        assert!(store.lookup("case-t").is_none());
        let (checked, problems) = store.verify();
        assert_eq!(checked, 1);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].reason.contains("torn"), "{:?}", problems[0]);
        assert!(path.to_string_lossy().contains(&problems[0].file));
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn bit_flipped_payload_fails_the_checksum() {
        let store = CaseStore::at(tmp("flip"));
        store.insert("case-f", &point(2.0));
        let path = store
            .dir()
            .join(format!("{:016x}.case", fnv1a("case-f".as_bytes())));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert!(store.lookup("case-f").is_none());
        let (_, problems) = store.verify();
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].reason.contains("checksum")
                || problems[0].reason.contains("unparseable")
                || problems[0].reason.contains("malformed"),
            "{:?}",
            problems[0]
        );
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn high_bit_flip_is_corrupt_not_unreadable() {
        // 0x80 leaves the text invalid UTF-8: the checksum must still be
        // what rejects it, in lookup, stats and verify alike.
        let store = CaseStore::at(tmp("flip-high"));
        store.insert("case-h", &point(2.5));
        let path = store.entry_path("case-h");
        let mut bytes = fs::read(&path).unwrap();
        let near_end = bytes.len() - 10;
        bytes[near_end] ^= 0x80;
        fs::write(&path, &bytes).unwrap();
        assert!(store.lookup("case-h").is_none());
        let s = store.stats();
        assert_eq!((s.entries, s.fresh, s.corrupt), (1, 0, 1));
        let (_, problems) = store.verify();
        assert_eq!(problems.len(), 1);
        assert_eq!(problems[0].reason, "corrupt: checksum mismatch");
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn version_one_json_entry_is_stale_then_overwritten() {
        let store = CaseStore::at(tmp("v1"));
        fs::create_dir_all(store.dir()).unwrap();
        let bits = |x: f64| format!("\"{:016x}\"", x.to_bits());
        let payload = format!(
            "{{\"version\":1,\"fingerprint\":\"{}\",\"key\":\"case-v1\",\"label\":\"hdd\",\
             \"exec_s\":{},\"iops\":{},\"bw\":{},\"arpt\":{},\"bps\":{},\"extra\":[]}}",
            code_fingerprint(),
            bits(1.0),
            bits(2.0),
            bits(3.0),
            bits(4.0),
            bits(5.0)
        );
        let path = store.entry_path("case-v1");
        fs::write(
            &path,
            format!(
                "bps-case 1 {} {:016x}\n{payload}\n",
                payload.len(),
                fnv1a(payload.as_bytes())
            ),
        )
        .unwrap();
        assert!(store.lookup("case-v1").is_none());
        let s = store.stats();
        assert_eq!((s.entries, s.stale, s.corrupt), (1, 1, 0));
        assert_eq!(s.stale_origins, vec![("format v1".to_string(), 1)]);
        let p = point(6.0);
        store.insert("case-v1", &p);
        let back = store
            .lookup("case-v1")
            .expect("insert overwrote the v1 entry");
        assert_eq!(back.iops.to_bits(), p.iops.to_bits());
        assert!(fs::read(&path).unwrap().starts_with(b"bps-case 2 "));
        assert_eq!(store.stats().fresh, 1);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn entry_longer_than_one_read_is_served() {
        let store = CaseStore::at(tmp("long"));
        let key = "k".repeat(10_000);
        store.insert(&key, &point(7.0));
        assert!(fs::metadata(store.entry_path(&key)).unwrap().len() > 4096);
        let back = store.lookup(&key).expect("long entry served");
        assert_eq!(back.exec_s.to_bits(), point(7.0).exec_s.to_bits());
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn foreign_fingerprint_is_stale_not_served() {
        let store = CaseStore::at(tmp("stale"));
        store.insert("case-s", &point(3.0));
        let path = store
            .dir()
            .join(format!("{:016x}.case", fnv1a("case-s".as_bytes())));
        // Rewrite the entry as a different build would have: swap the
        // fingerprint and restamp the header so the checksum still holds.
        let text = fs::read_to_string(&path).unwrap();
        let payload = text.split_once('\n').unwrap().1.trim_end();
        let forged = payload.replace(code_fingerprint(), "deadbeefdeadbeef");
        assert_ne!(forged, payload, "fingerprint must appear in the payload");
        fs::write(
            &path,
            format!(
                "bps-case {VERSION} {} {:016x}\n{forged}\n",
                forged.len(),
                fnv1a(forged.as_bytes())
            ),
        )
        .unwrap();
        assert!(store.lookup("case-s").is_none());
        let stats = store.stats();
        assert_eq!((stats.entries, stats.stale, stats.corrupt), (1, 1, 0));
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn filename_collision_degrades_to_a_miss() {
        let store = CaseStore::at(tmp("collide"));
        store.insert("key-a", &point(4.0));
        // Simulate two keys hashing to one file: move a's entry where
        // b's would live. The embedded key no longer matches -> miss.
        let a = store.dir().join(format!("{:016x}.case", fnv1a(b"key-a")));
        let b = store.dir().join(format!("{:016x}.case", fnv1a(b"key-b")));
        fs::rename(&a, &b).unwrap();
        assert!(store.lookup("key-b").is_none());
        assert!(store.lookup("key-a").is_none());
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn failed_points_are_never_persisted() {
        let store = CaseStore::at(tmp("failed"));
        let mut p = point(5.0);
        p.failed = Some(crate::supervise::FailureKind::Timeout);
        store.insert("case-x", &p);
        assert!(store.lookup("case-x").is_none());
        assert_eq!(store.stats().entries, 0);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn stats_verify_clear_round_trip() {
        let store = CaseStore::at(tmp("admin"));
        for i in 0..3 {
            store.insert(&format!("case-{i}"), &point(i as f64));
        }
        let s = store.stats();
        assert_eq!((s.entries, s.fresh, s.stale, s.corrupt), (3, 3, 0, 0));
        assert!(s.bytes > 0);
        let (checked, problems) = store.verify();
        assert_eq!((checked, problems.len()), (3, 0));
        assert_eq!(store.clear().unwrap(), 3);
        assert_eq!(store.stats().entries, 0);
        assert_eq!(store.clear().unwrap(), 0);
        fs::remove_dir_all(store.dir()).ok();
    }

    /// Floats by raw bit pattern, weighted toward the edge cases: NaN
    /// payloads of either sign, ±0, ±inf, and subnormals.
    fn floats() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            any::<u64>().prop_map(|b| f64::from_bits(0x7ff0_0000_0000_0001 | b)),
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            (1u64..0x000f_ffff_ffff_ffff).prop_map(f64::from_bits),
        ]
    }

    /// Strings mixing the codec's own delimiters (space, colon, newline)
    /// with multi-byte characters and arbitrary code points.
    fn strings(max: usize) -> impl Strategy<Value = String> {
        const POOL: [char; 10] = [' ', ':', '\n', 'a', '0', '"', '\\', 'é', '∑', '🦀'];
        let ch = prop_oneof![
            (0usize..POOL.len()).prop_map(|i| POOL[i]),
            any::<u32>().prop_map(|u| char::from_u32(u % 0x11_0000).unwrap_or('\u{fffd}')),
        ];
        collection::vec(ch, 0..max).prop_map(String::from_iter)
    }

    fn points() -> impl Strategy<Value = CasePoint> {
        (
            strings(12),
            collection::vec(floats(), 5),
            collection::vec((strings(8), floats()), 0..4),
        )
            .prop_map(|(label, v, extra)| CasePoint {
                label,
                exec_s: v[0],
                iops: v[1],
                bw: v[2],
                arpt: v[3],
                bps: v[4],
                extra,
                failed: None,
            })
    }

    fn bits(p: &CasePoint) -> Vec<u64> {
        let paper = [p.exec_s, p.iops, p.bw, p.arpt, p.bps];
        paper
            .into_iter()
            .chain(p.extra.iter().map(|e| e.1))
            .map(f64::to_bits)
            .collect()
    }

    proptest! {
        #[test]
        fn codec_round_trips_bit_for_bit(key in strings(300), p in points()) {
            let text = encode_entry(&key, &p);
            let EntryState::Fresh(k, back) = parse_entry(text.as_bytes()) else {
                panic!("a fresh encoding must parse as fresh");
            };
            prop_assert_eq!(k, key.as_str());
            prop_assert_eq!(&back.label, &p.label);
            let names = |q: &CasePoint| q.extra.iter().map(|e| e.0.clone()).collect::<Vec<_>>();
            prop_assert_eq!(names(&back), names(&p));
            prop_assert_eq!(bits(&back), bits(&p));
            prop_assert!(back.failed.is_none());
        }

        #[test]
        fn damaged_entries_are_never_served(key in strings(40), p in points()) {
            let text = encode_entry(&key, &p).into_bytes();
            for cut in 0..text.len() {
                prop_assert!(
                    !matches!(parse_entry(&text[..cut]), EntryState::Fresh(..)),
                    "truncation to {} of {} bytes was served", cut, text.len()
                );
            }
            let mut flipped = text.clone();
            for i in 0..text.len() {
                for bit in 0..8 {
                    flipped[i] ^= 1 << bit;
                    prop_assert!(
                        !matches!(parse_entry(&flipped), EntryState::Fresh(..)),
                        "flip of bit {} at byte {} was served", bit, i
                    );
                    flipped[i] ^= 1 << bit;
                }
            }
        }
    }
}
