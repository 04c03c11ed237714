//! Serializable workload descriptions.
//!
//! [`WorkloadSpec`] is the pure-data counterpart of every generator in
//! this crate: a value that can be written in a JSON scenario file,
//! round-tripped through serde, and turned into a live [`Workload`] with
//! [`WorkloadSpec::build`]. The scenario engine in `bps-experiments`
//! builds on it so that new experiment configurations are data, not code.
//!
//! Durations are expressed in microseconds (`think_time_us`) because the
//! serialized form has no `Dur` type; sizes and counts are plain integers.

use crate::hpio::Hpio;
use crate::ior::Ior;
use crate::iozone::{Iozone, IozoneMode};
use crate::replay::Replay;
use crate::spec::Workload;
use crate::synthetic::{Pattern, Synthetic};
use bps_core::time::Dur;
use std::fmt;
use std::path::Path;

/// Error building a [`Workload`] from a [`WorkloadSpec`]: either the spec
/// is invalid (zero record size, out-of-range fraction, ...) or, for
/// `Replay`, the trace file could not be loaded.
#[derive(Debug)]
pub struct BuildError(String);

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for BuildError {}

fn invalid(msg: impl fmt::Display) -> BuildError {
    BuildError(format!("invalid workload spec: {msg}"))
}

/// A pure-data description of any workload generator in this crate.
///
/// Externally tagged on the generator name, e.g.
/// `{"Ior": {"file_size": 1048576, "transfer_size": 65536,
/// "processes": 4, "write": false}}`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WorkloadSpec {
    /// An [`Iozone`] run.
    Iozone {
        /// Operation under test.
        mode: IozoneMode,
        /// Bytes per file (one file per process).
        file_size: u64,
        /// Record (request) size in bytes.
        record_size: u64,
        /// Number of processes (1 = single mode, >1 = throughput mode).
        processes: usize,
        /// Seed for the random modes.
        seed: u64,
    },
    /// An [`Ior`] run (shared file, per-process segments).
    Ior {
        /// Total bytes of the shared file.
        file_size: u64,
        /// Fixed transfer size per request.
        transfer_size: u64,
        /// Number of MPI processes.
        processes: usize,
        /// Write instead of read.
        write: bool,
    },
    /// An [`Hpio`] noncontiguous run.
    Hpio {
        /// Total number of regions across all processes.
        region_count: u64,
        /// Bytes per region.
        region_size: u64,
        /// Bytes of hole between consecutive regions.
        region_spacing: u64,
        /// Regions bundled into one noncontiguous call.
        regions_per_call: u64,
        /// Number of MPI processes.
        processes: usize,
        /// Issue collective (two-phase) reads instead of independent ones.
        collective: bool,
    },
    /// A [`Synthetic`] mixed read/write run.
    Synthetic {
        /// Bytes per file (one file per process).
        file_size: u64,
        /// Record size in bytes.
        record_size: u64,
        /// Operations per process.
        ops_per_process: u64,
        /// Fraction of reads in [0, 1]; the rest are writes.
        read_fraction: f64,
        /// Position distribution.
        pattern: Pattern,
        /// Number of processes.
        processes: usize,
        /// Compute time between ops, microseconds (0 = none).
        think_time_us: u64,
        /// Ops per burst (0 disables bursting).
        burst_len: u64,
        /// Seed.
        seed: u64,
    },
    /// A [`Replay`] of a recorded trace file (any format
    /// `bps_trace::format::load_path` understands).
    Replay {
        /// Path to the trace file, resolved relative to the working
        /// directory at build time.
        path: String,
    },
}

impl WorkloadSpec {
    /// One-line human description of the generator, for topology renderers
    /// and debug listings (no validation; mirrors the spec fields).
    pub fn summary(&self) -> String {
        match self {
            WorkloadSpec::Iozone {
                mode,
                file_size,
                record_size,
                processes,
                ..
            } => format!(
                "IOzone {mode:?}: {file_size} B/file, {record_size} B records, {processes} proc"
            ),
            WorkloadSpec::Ior {
                file_size,
                transfer_size,
                processes,
                write,
            } => format!(
                "IOR shared-file {}: {file_size} B total, {transfer_size} B transfers, {processes} proc",
                if *write { "write" } else { "read" }
            ),
            WorkloadSpec::Hpio {
                region_count,
                region_size,
                processes,
                collective,
                ..
            } => format!(
                "HPIO {}: {region_count} regions x {region_size} B, {processes} proc",
                if *collective {
                    "collective"
                } else {
                    "independent"
                }
            ),
            WorkloadSpec::Synthetic {
                ops_per_process,
                read_fraction,
                processes,
                ..
            } => format!(
                "Synthetic mix: {ops_per_process} ops/proc, {:.0}% reads, {processes} proc",
                read_fraction * 100.0
            ),
            WorkloadSpec::Replay { path } => format!("Replay of `{path}`"),
        }
    }

    /// Validate the spec and construct the described generator.
    pub fn build(&self) -> Result<Box<dyn Workload>, BuildError> {
        match self.clone() {
            WorkloadSpec::Iozone {
                mode,
                file_size,
                record_size,
                processes,
                seed,
            } => {
                if record_size == 0 {
                    return Err(invalid("iozone record_size must be > 0"));
                }
                if processes == 0 {
                    return Err(invalid("iozone processes must be > 0"));
                }
                Ok(Box::new(Iozone {
                    mode,
                    file_size,
                    record_size,
                    processes,
                    seed,
                }))
            }
            WorkloadSpec::Ior {
                file_size,
                transfer_size,
                processes,
                write,
            } => {
                if transfer_size == 0 {
                    return Err(invalid("ior transfer_size must be > 0"));
                }
                if processes == 0 {
                    return Err(invalid("ior processes must be > 0"));
                }
                Ok(Box::new(Ior {
                    file_size,
                    transfer_size,
                    processes,
                    write,
                }))
            }
            WorkloadSpec::Hpio {
                region_count,
                region_size,
                region_spacing,
                regions_per_call,
                processes,
                collective,
            } => {
                if region_size == 0 {
                    return Err(invalid("hpio region_size must be > 0"));
                }
                if processes == 0 {
                    return Err(invalid("hpio processes must be > 0"));
                }
                Ok(Box::new(Hpio {
                    region_count,
                    region_size,
                    region_spacing,
                    regions_per_call,
                    processes,
                    collective,
                }))
            }
            WorkloadSpec::Synthetic {
                file_size,
                record_size,
                ops_per_process,
                read_fraction,
                pattern,
                processes,
                think_time_us,
                burst_len,
                seed,
            } => {
                if record_size == 0 {
                    return Err(invalid("synthetic record_size must be > 0"));
                }
                if processes == 0 {
                    return Err(invalid("synthetic processes must be > 0"));
                }
                if !(0.0..=1.0).contains(&read_fraction) {
                    return Err(invalid("synthetic read_fraction must be in [0, 1]"));
                }
                if let Pattern::Zipf { exponent } = pattern {
                    if exponent.is_nan() || exponent <= 0.0 {
                        return Err(invalid("zipf exponent must be > 0"));
                    }
                }
                Ok(Box::new(Synthetic {
                    file_size,
                    record_size,
                    ops_per_process,
                    read_fraction,
                    pattern,
                    processes,
                    think_time: Dur::from_micros(think_time_us),
                    burst_len,
                    seed,
                }))
            }
            WorkloadSpec::Replay { path } => {
                let refuse = |why: &dyn fmt::Display| {
                    BuildError(format!("cannot load trace `{path}`: {why}"))
                };
                let trace =
                    bps_trace::format::load_path(Path::new(&path)).map_err(|e| refuse(&e))?;
                // An extent past byte 2^64 - 1 names no byte of any file:
                // its wrapped end would shrink the inferred file size and
                // slip under the file systems' EOF checks.
                let wraps = trace
                    .records()
                    .iter()
                    .enumerate()
                    .find(|(_, r)| r.offset.checked_add(r.bytes).is_none());
                if let Some((i, r)) = wraps {
                    return Err(refuse(&format_args!(
                        "record {i} (offset {}, {} bytes) ends past the last \
                         byte offset a file can have",
                        r.offset, r.bytes
                    )));
                }
                Ok(Box::new(Replay::from_trace(&trace)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    fn specimens() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::Iozone {
                mode: IozoneMode::SeqRead,
                file_size: 1 << 20,
                record_size: 4096,
                processes: 1,
                seed: 0,
            },
            WorkloadSpec::Ior {
                file_size: 1 << 20,
                transfer_size: 64 << 10,
                processes: 4,
                write: false,
            },
            WorkloadSpec::Hpio {
                region_count: 1000,
                region_size: 256,
                region_spacing: 8,
                regions_per_call: 256,
                processes: 4,
                collective: true,
            },
            WorkloadSpec::Synthetic {
                file_size: 1 << 20,
                record_size: 4096,
                ops_per_process: 100,
                read_fraction: 0.7,
                pattern: Pattern::Zipf { exponent: 1.1 },
                processes: 2,
                think_time_us: 50,
                burst_len: 10,
                seed: 42,
            },
        ]
    }

    #[test]
    fn json_round_trip_preserves_every_spec() {
        for spec in specimens() {
            let json = serde_json::to_string(&spec).unwrap();
            let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "round-trip of {json}");
        }
    }

    #[test]
    fn external_tagging_shape() {
        let spec = WorkloadSpec::Iozone {
            mode: IozoneMode::BackwardRead,
            file_size: 100,
            record_size: 10,
            processes: 1,
            seed: 7,
        };
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.starts_with("{\"Iozone\":{"), "{json}");
        assert!(json.contains("\"mode\":\"BackwardRead\""), "{json}");
    }

    #[test]
    fn build_matches_hand_constructed_generator() {
        let spec = WorkloadSpec::Iozone {
            mode: IozoneMode::SeqRead,
            file_size: 1000,
            record_size: 64,
            processes: 1,
            seed: 0,
        };
        let built = spec.build().unwrap();
        let hand = Iozone::seq_read(1000, 64);
        let a: Vec<_> = built.stream(0).collect();
        let b: Vec<_> = hand.stream(0).collect();
        assert_eq!(a, b);
        assert_eq!(built.required_bytes(), hand.required_bytes());
    }

    #[test]
    fn build_rejects_invalid_specs() {
        let bad = [
            WorkloadSpec::Iozone {
                mode: IozoneMode::SeqRead,
                file_size: 100,
                record_size: 0,
                processes: 1,
                seed: 0,
            },
            WorkloadSpec::Ior {
                file_size: 100,
                transfer_size: 64,
                processes: 0,
                write: false,
            },
            WorkloadSpec::Synthetic {
                file_size: 100,
                record_size: 10,
                ops_per_process: 1,
                read_fraction: 1.5,
                pattern: Pattern::Uniform,
                processes: 1,
                think_time_us: 0,
                burst_len: 0,
                seed: 0,
            },
            WorkloadSpec::Synthetic {
                file_size: 100,
                record_size: 10,
                ops_per_process: 1,
                read_fraction: 0.5,
                pattern: Pattern::Zipf { exponent: -1.0 },
                processes: 1,
                think_time_us: 0,
                burst_len: 0,
                seed: 0,
            },
        ];
        for spec in bad {
            assert!(spec.build().is_err(), "{spec:?} should be rejected");
        }
    }

    #[test]
    fn replay_build_reports_missing_file() {
        let spec = WorkloadSpec::Replay {
            path: "/nonexistent/trace.bpstrace".to_string(),
        };
        let err = match spec.build() {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected missing-file error"),
        };
        assert!(err.contains("/nonexistent/trace.bpstrace"), "{err}");
    }

    #[test]
    fn unknown_variant_is_a_clear_error() {
        let err = serde_json::from_str::<WorkloadSpec>("{\"Bonnie\":{}}")
            .unwrap_err()
            .to_string();
        assert!(err.contains("Bonnie"), "{err}");
    }

    #[test]
    fn unit_enum_still_round_trips() {
        // IozoneMode keeps the bare-string encoding.
        let v = IozoneMode::RandomRead.to_value();
        assert_eq!(serde_json::to_string(&v).unwrap(), "\"RandomRead\"");
        let back = IozoneMode::from_value(&v).unwrap();
        assert_eq!(back, IozoneMode::RandomRead);
    }
}
