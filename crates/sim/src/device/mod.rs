//! Block-device models and the queued device wrapper.
//!
//! A [`Device`] is a queue (FIFO, or FIFO with an elevator approximation)
//! in front of a [`DeviceModel`] that turns each request into a service
//! time. The two models shipped match the paper's testbed:
//!
//! * [`Hdd`](hdd::Hdd) — a 7200 RPM SATA disk: positional costs (seek +
//!   rotational latency) for non-sequential accesses, streaming transfer
//!   otherwise, per-request controller overhead.
//! * [`Ssd`](ssd::Ssd) — a PCI-E SSD: small fixed per-op latency, high
//!   transfer rate, internal channel parallelism.
//! * [`Raid0`](raid0::Raid0) — a striped array of identical disks
//!   (transfer scales with members, positional costs do not).

pub mod hdd;
pub mod raid0;
pub mod ram;
pub mod ssd;

use crate::resource::{Grant, MultiChannel, ResourceStats};
use crate::rng::{Jitter, SimRng};
use bps_core::record::IoOp;
use bps_core::time::{Dur, Nanos};

/// One request as seen by a block device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceReq {
    /// First logical block address.
    pub lba: u64,
    /// Number of 512-byte blocks.
    pub blocks: u64,
    /// Read or write.
    pub op: IoOp,
}

impl DeviceReq {
    /// Bytes moved by this request.
    pub fn bytes(&self) -> u64 {
        self.blocks * bps_core::block::BLOCK_SIZE
    }
}

/// Context a model may consult when pricing a request.
#[derive(Debug)]
pub struct ServiceCtx<'a> {
    /// True when the device already has queued work at the arrival instant —
    /// the elevator approximation only applies then.
    pub queued: bool,
    /// The scheduling policy of the owning device.
    pub sched: DiskSched,
    /// Device-private randomness (rotational position, etc.).
    pub rng: &'a mut SimRng,
}

/// Disk scheduling policy.
///
/// `Elevator` is an *approximation*: a real elevator reorders the queue,
/// which an analytic FIFO cannot express. Instead, when a request arrives at
/// a non-empty queue, its positional (seek + rotation) cost is scaled by
/// [`DiskSched::ELEVATOR_FACTOR`], modeling the shorter average seeks a
/// sorted service order achieves. The ablation bench compares the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskSched {
    /// Serve strictly in arrival order.
    #[default]
    Fifo,
    /// Approximate seek-optimizing reordering.
    Elevator,
}

impl DiskSched {
    /// Positional-cost multiplier applied by the elevator approximation.
    pub const ELEVATOR_FACTOR: f64 = 0.55;
}

/// A device model: prices requests, tracking whatever positional state it
/// needs. Models are consulted in arrival order.
pub trait DeviceModel: Send {
    /// Human-readable model name.
    fn name(&self) -> &'static str;
    /// Nominal (jitter-free) service time for one request.
    fn service_time(&mut self, req: &DeviceReq, ctx: &mut ServiceCtx<'_>) -> Dur;
    /// Internal parallelism (1 for disks, >1 for SSD channels).
    fn channels(&self) -> usize {
        1
    }
    /// Capacity in blocks.
    fn capacity_blocks(&self) -> u64;
}

/// A queued block device: model + queue + jitter + stats.
pub struct Device {
    model: Box<dyn DeviceModel>,
    queue: MultiChannel,
    sched: DiskSched,
    jitter: Jitter,
    rng: SimRng,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("model", &self.model.name())
            .field("sched", &self.sched)
            .field("stats", self.queue.stats())
            .finish()
    }
}

impl Device {
    /// Wrap a model with a queue.
    pub fn new(model: Box<dyn DeviceModel>, sched: DiskSched, jitter: Jitter, rng: SimRng) -> Self {
        let width = model.channels();
        Device {
            model,
            queue: MultiChannel::new(width),
            sched,
            jitter,
            rng,
        }
    }

    /// Submit one request arriving at `arrival`; returns its service grant.
    ///
    /// Arrivals must be in nondecreasing time order (engine-guaranteed).
    pub fn submit(&mut self, arrival: Nanos, req: DeviceReq) -> Grant {
        self.submit_scaled(arrival, req, 1.0)
    }

    /// [`Device::submit`] with a fault-injection service-time multiplier.
    /// A factor of exactly 1.0 bypasses the scaling arithmetic entirely,
    /// so the healthy path stays bit-for-bit identical to `submit`.
    #[inline]
    pub fn submit_scaled(&mut self, arrival: Nanos, req: DeviceReq, slow: f64) -> Grant {
        let queued = self.queue.stats().last_completion > arrival;
        let mut ctx = ServiceCtx {
            queued,
            sched: self.sched,
            rng: &mut self.rng,
        };
        let nominal = self.model.service_time(&req, &mut ctx);
        let mut service = self.jitter.apply(nominal, &mut self.rng);
        if slow != 1.0 {
            service = Dur::from_secs_f64(service.as_secs_f64() * slow);
        }
        self.queue.acquire(arrival, service)
    }

    /// Aggregated queue statistics.
    pub fn stats(&self) -> &ResourceStats {
        self.queue.stats()
    }

    /// The wrapped model's name.
    pub fn model_name(&self) -> &'static str {
        self.model.name()
    }

    /// Capacity in 512-byte blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.model.capacity_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::ram::Ram;
    use super::*;

    fn ram_device() -> Device {
        Device::new(
            Box::new(Ram::new(Dur::from_micros(10), 1_000_000_000, 1 << 30)),
            DiskSched::Fifo,
            Jitter::NONE,
            SimRng::seed_from_u64(1),
        )
    }

    #[test]
    fn sequential_submissions_queue_fifo() {
        let mut d = ram_device();
        // 1 MiB at 1 GB/s ≈ 1.048576 ms + 10 us overhead.
        let r = DeviceReq {
            lba: 0,
            blocks: 2048,
            op: IoOp::Read,
        };
        let a = d.submit(Nanos::ZERO, r);
        let b = d.submit(Nanos::ZERO, r);
        assert_eq!(b.start, a.end);
        assert_eq!(d.stats().ops, 2);
    }

    #[test]
    fn scaled_submission_stretches_service() {
        let mut slow = ram_device();
        let mut fast = ram_device();
        let r = DeviceReq {
            lba: 0,
            blocks: 2048,
            op: IoOp::Read,
        };
        let a = fast.submit_scaled(Nanos::ZERO, r, 1.0);
        let b = slow.submit_scaled(Nanos::ZERO, r, 3.0);
        // Same arrival, 3x the service time.
        assert_eq!(a.start, b.start);
        let ratio = b.end.since(b.start).as_secs_f64() / a.end.since(a.start).as_secs_f64();
        assert!((2.99..3.01).contains(&ratio), "{ratio}");
        // Factor 1.0 is exactly submit().
        let mut plain = ram_device();
        let mut scaled = ram_device();
        assert_eq!(
            plain.submit(Nanos::ZERO, r),
            scaled.submit_scaled(Nanos::ZERO, r, 1.0)
        );
    }

    #[test]
    fn req_bytes() {
        let r = DeviceReq {
            lba: 0,
            blocks: 8,
            op: IoOp::Write,
        };
        assert_eq!(r.bytes(), 4096);
    }

    #[test]
    fn device_debug_and_name() {
        let d = ram_device();
        assert_eq!(d.model_name(), "ram");
        assert!(format!("{d:?}").contains("ram"));
        assert_eq!(d.capacity_blocks(), (1 << 30) / 512);
    }
}
