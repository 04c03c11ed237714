//! Trace persistence.
//!
//! Two formats:
//!
//! * **JSON** — the full [`IoRecord`] fidelity, human-readable, for
//!   interchange and debugging.
//! * **Binary** — the paper's 32-byte record: "the size of each record is
//!   32 bytes, even for 65535 I/O operations, all the records need about 3
//!   megabytes". Like the paper's record (process ID, I/O size in blocks,
//!   start, end), the compact form drops the byte offset; it keeps the
//!   file id and an op/layer flag byte in the remaining space.

use bps_core::block::{blocks_for_bytes, BLOCK_SIZE};
use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::time::Nanos;
use bps_core::trace::Trace;
use std::io;

/// Size of one binary record on disk.
pub const BINARY_RECORD_SIZE: usize = 32;

/// Magic header of the binary trace format.
const MAGIC: &[u8; 8] = b"BPSTRC01";

/// Serialize a trace to pretty JSON.
pub fn to_json(trace: &Trace) -> serde_json::Result<String> {
    serde_json::to_string_pretty(trace)
}

/// Deserialize a trace from JSON.
pub fn from_json(json: &str) -> serde_json::Result<Trace> {
    serde_json::from_str(json)
}

fn op_layer_flags(op: IoOp, layer: Layer) -> u8 {
    let op_bit = match op {
        IoOp::Read => 0u8,
        IoOp::Write => 1,
    };
    let layer_bits = match layer {
        Layer::Application => 0u8,
        Layer::FileSystem => 1,
        Layer::Device => 2,
        Layer::Retry => 3,
        // Network was added after the 2-bit encodings above shipped; it
        // takes the first 3-bit code so old traces decode unchanged.
        Layer::Network => 4,
    };
    op_bit | (layer_bits << 1)
}

fn decode_flags(flags: u8) -> (IoOp, Layer) {
    let op = if flags & 1 == 0 {
        IoOp::Read
    } else {
        IoOp::Write
    };
    let layer = match (flags >> 1) & 0b111 {
        0 => Layer::Application,
        1 => Layer::FileSystem,
        2 => Layer::Device,
        4 => Layer::Network,
        _ => Layer::Retry,
    };
    (op, layer)
}

/// Encode a trace into the compact 32-byte-per-record binary format.
///
/// Layout per record (little-endian):
/// `pid: u32 | size_blocks: u32 | start: u64 | end: u64 | file: u32 |
/// flags: u8 | reserved: [u8; 3]`.
pub fn to_binary(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + trace.len() * BINARY_RECORD_SIZE);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for r in trace.records() {
        buf.extend_from_slice(&r.pid.0.to_le_bytes());
        buf.extend_from_slice(&(blocks_for_bytes(r.bytes) as u32).to_le_bytes());
        buf.extend_from_slice(&r.start.0.to_le_bytes());
        buf.extend_from_slice(&r.end.0.to_le_bytes());
        buf.extend_from_slice(&r.file.0.to_le_bytes());
        buf.push(op_layer_flags(r.op, r.layer));
        buf.extend_from_slice(&[0u8; 3]);
    }
    buf
}

/// Little-endian reader over a byte slice for [`from_binary`].
struct Cursor<'a> {
    data: &'a [u8],
}

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.data.split_at(N);
        self.data = rest;
        head.try_into().expect("split_at returned N bytes")
    }

    fn u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    fn u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    fn u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    fn skip(&mut self, n: usize) {
        self.data = &self.data[n..];
    }
}

/// Decode the binary format. Byte sizes come back block-rounded (the
/// format stores block counts, as the paper's record does); offsets come
/// back as zero.
pub fn from_binary(data: &[u8]) -> io::Result<Trace> {
    if data.len() < 16 || &data[..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a BPS binary trace",
        ));
    }
    let mut data = Cursor { data };
    data.skip(8);
    let count = data.u64_le() as usize;
    if data.data.len() != count * BINARY_RECORD_SIZE {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "expected {} record bytes, found {}",
                count * BINARY_RECORD_SIZE,
                data.data.len()
            ),
        ));
    }
    let mut trace = Trace::new();
    for _ in 0..count {
        let pid = ProcessId(data.u32_le());
        let blocks = u64::from(data.u32_le());
        let start = Nanos(data.u64_le());
        let end = Nanos(data.u64_le());
        let file = FileId(data.u32_le());
        let flags = data.u8();
        data.skip(3);
        let (op, layer) = decode_flags(flags);
        if end < start {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "record ends before it starts",
            ));
        }
        trace.push(IoRecord::new(
            pid,
            op,
            file,
            0,
            blocks * BLOCK_SIZE,
            start,
            end,
            layer,
        ));
    }
    Ok(trace)
}

/// Write a trace to a file in the binary format.
pub fn write_binary_file(trace: &Trace, path: &std::path::Path) -> io::Result<()> {
    std::fs::write(path, to_binary(trace))
}

/// Read a binary-format trace file.
pub fn read_binary_file(path: &std::path::Path) -> io::Result<Trace> {
    from_binary(&std::fs::read(path)?)
}

/// Load a trace by file extension: `.json` (lossless) or `.bpstrc`
/// (compact binary).
pub fn load_path(path: &std::path::Path) -> io::Result<Trace> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("json") => {
            let text = std::fs::read_to_string(path)?;
            from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        }
        Some("bpstrc") => read_binary_file(path),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown trace extension {other:?} (expected .json or .bpstrc)"),
        )),
    }
}

/// Store a trace by file extension: `.json` or `.bpstrc`.
pub fn store_path(trace: &Trace, path: &std::path::Path) -> io::Result<()> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("json") => {
            let text = to_json(trace).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            std::fs::write(path, text)
        }
        Some("bpstrc") => write_binary_file(trace, path),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown trace extension {other:?} (expected .json or .bpstrc)"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bps_core::metrics::{Bps, Metric};

    fn sample() -> Trace {
        let mut t = Trace::new();
        for pid in 0..3u32 {
            for i in 0..10u64 {
                t.push(IoRecord::new(
                    ProcessId(pid),
                    if i % 2 == 0 { IoOp::Read } else { IoOp::Write },
                    FileId(pid),
                    i * 4096,
                    4096,
                    Nanos::from_micros(i * 100),
                    Nanos::from_micros(i * 100 + 40),
                    if i % 3 == 0 {
                        Layer::FileSystem
                    } else {
                        Layer::Application
                    },
                ));
            }
        }
        t
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let t = sample();
        let json = to_json(&t).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(t.records(), back.records());
    }

    #[test]
    fn large_json_trace_roundtrips_in_linear_time() {
        const LAYERS: [Layer; 5] = [
            Layer::Application,
            Layer::FileSystem,
            Layer::Device,
            Layer::Retry,
            Layer::Network,
        ];
        let mut t = Trace::new();
        for i in 0..16 * 1024u64 {
            t.push(IoRecord::new(
                ProcessId((i % 7) as u32),
                if i % 2 == 0 { IoOp::Read } else { IoOp::Write },
                FileId((i % 3) as u32),
                i * 4096,
                4096 + i,
                Nanos(i * 1_000),
                Nanos(i * 1_000 + 1 + i % 997),
                LAYERS[(i % 5) as usize],
            ));
        }
        let start = std::time::Instant::now();
        let json = to_json(&t).unwrap();
        let back = from_json(&json).unwrap();
        let took = start.elapsed();
        assert_eq!(t.records(), back.records());
        // A linear parser does this in well under a second even in a debug
        // build; one that rescans the rest of the input per char takes
        // minutes.
        assert!(took.as_secs_f64() < 5.0, "16 Ki-record JSON took {took:?}");
    }

    #[test]
    fn binary_record_is_exactly_32_bytes() {
        let t = sample();
        let bin = to_binary(&t);
        assert_eq!(bin.len(), 16 + t.len() * BINARY_RECORD_SIZE);
        // The paper's overhead claim: 65535 ops ≈ 2 MiB + header.
        assert_eq!(65535 * BINARY_RECORD_SIZE, 2_097_120);
    }

    #[test]
    fn binary_roundtrip_preserves_bps() {
        // Offsets are dropped but everything BPS needs survives.
        let t = sample();
        let back = from_binary(&to_binary(&t)).unwrap();
        assert_eq!(back.len(), t.len());
        let a = Bps.compute(&t).unwrap();
        let b = Bps.compute(&back).unwrap();
        assert!((a - b).abs() < 1e-9);
        // Pids, ops, layers, times survive exactly.
        for (x, y) in t.records().iter().zip(back.records()) {
            assert_eq!(x.pid, y.pid);
            assert_eq!(x.op, y.op);
            assert_eq!(x.layer, y.layer);
            assert_eq!(x.start, y.start);
            assert_eq!(x.end, y.end);
            assert_eq!(x.file, y.file);
            assert_eq!(y.bytes % BLOCK_SIZE, 0);
        }
    }

    #[test]
    fn retry_layer_roundtrips() {
        let mut t = Trace::new();
        for (i, layer) in [
            Layer::Application,
            Layer::FileSystem,
            Layer::Device,
            Layer::Retry,
            Layer::Network,
        ]
        .into_iter()
        .enumerate()
        {
            t.push(IoRecord::new(
                ProcessId(0),
                IoOp::Read,
                FileId(0),
                0,
                4096,
                Nanos::from_micros(i as u64 * 10),
                Nanos::from_micros(i as u64 * 10 + 5),
                layer,
            ));
        }
        let back = from_binary(&to_binary(&t)).unwrap();
        for (x, y) in t.records().iter().zip(back.records()) {
            assert_eq!(x.layer, y.layer);
        }
        assert_eq!(back.records()[3].layer, Layer::Retry);
        assert_eq!(back.records()[4].layer, Layer::Network);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_binary(b"nonsense").is_err());
        assert!(from_binary(b"BPSTRC01").is_err());
        // Valid header, truncated body.
        let t = sample();
        let bin = to_binary(&t);
        assert!(from_binary(&bin[..bin.len() - 1]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("bps_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.bpstrc");
        let t = sample();
        write_binary_file(&t, &path).unwrap();
        let back = read_binary_file(&path).unwrap();
        assert_eq!(back.len(), t.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_store_by_extension() {
        let dir = std::env::temp_dir().join("bps_format_ext_test");
        std::fs::create_dir_all(&dir).unwrap();
        let t = sample();
        for name in ["a.json", "a.bpstrc"] {
            let p = dir.join(name);
            store_path(&t, &p).unwrap();
            let back = load_path(&p).unwrap();
            assert_eq!(back.len(), t.len(), "{name}");
            std::fs::remove_file(&p).ok();
        }
        assert!(store_path(&t, &dir.join("a.xyz")).is_err());
        assert!(load_path(&dir.join("a.xyz")).is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new();
        let back = from_binary(&to_binary(&t)).unwrap();
        assert!(back.is_empty());
    }
}
