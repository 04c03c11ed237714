//! Streaming record observers.
//!
//! The paper notes the BPS calculation "can be overlapped with data
//! accesses": nothing in `B / T` requires holding the full trace. A
//! [`RecordSink`] receives each [`IoRecord`] as the access completes;
//! [`Trace`] implements it by materializing records as before, while
//! [`StreamingMetrics`] folds each record into small accumulators —
//! per-layer counts, byte/block sums, summed response time, and an
//! [`OnlineUnion`] for the overlapped time — and reproduces the four paper
//! metrics bit-for-bit without ever storing a record. A producer that can
//! promise a watermark (no later record starts before it) passes it to
//! [`RecordSink::retire_before`], which keeps the union's size bounded by
//! the busy periods still open.

use crate::batch::RecordBatch;
use crate::interval::{Interval, OnlineUnion};
use crate::metrics::{
    registry, Arpt, Bandwidth, Bps, FoldNeeds, Iops, MetricFold, MetricSelection,
};
use crate::record::{IoRecord, Layer};
use crate::time::{Dur, Nanos};
use crate::trace::Trace;

/// Observer fed one record per completed I/O access.
///
/// Implementations must not assume records arrive sorted: layers interleave
/// and concurrent processes complete out of order. They *may* exploit that
/// start times are usually nondecreasing (as [`OnlineUnion`] does).
pub trait RecordSink {
    /// Observe one completed access.
    fn on_record(&mut self, record: &IoRecord);

    /// Observe a batch of completed accesses, in completion order.
    ///
    /// Must be observationally identical to calling
    /// [`RecordSink::on_record`] once per record in order (the default
    /// does exactly that). Producers holding many records at once — a
    /// replayed trace, a synthetic stream — may prefer this entry point:
    /// it crosses the sink abstraction once per batch instead of once per
    /// record, and lets implementations amortize per-record bookkeeping.
    /// The simulation delivers each record through `on_record` as it
    /// completes.
    fn push_batch(&mut self, records: &[IoRecord]) {
        for r in records {
            self.on_record(r);
        }
    }

    /// Observe a structure-of-arrays batch of completed accesses, in
    /// completion order.
    ///
    /// Must be observationally identical to calling
    /// [`RecordSink::on_record`] once per row in order (the default does
    /// exactly that, reassembling each record). Sinks that fold columns
    /// directly — [`StreamingMetrics`] — override this with loops that
    /// read only the columns they need.
    fn push_columns(&mut self, batch: &RecordBatch) {
        for i in 0..batch.len() {
            self.on_record(&batch.get(i));
        }
    }

    /// Observe the application execution time measured alongside the run.
    /// Called at most once, after the last record. The default ignores it.
    fn on_execution_time(&mut self, t: Dur) {
        let _ = t;
    }

    /// The producer promises that no record observed from now on starts
    /// before `w`, so state kept only to merge with earlier records may be
    /// dropped. Must not change any result. The default ignores it.
    fn retire_before(&mut self, w: Nanos) {
        let _ = w;
    }
}

impl RecordSink for Trace {
    fn on_record(&mut self, record: &IoRecord) {
        self.push(*record);
    }

    fn push_batch(&mut self, records: &[IoRecord]) {
        self.extend(records);
    }

    fn push_columns(&mut self, batch: &RecordBatch) {
        self.extend(&batch.to_records());
    }

    fn on_execution_time(&mut self, t: Dur) {
        self.set_execution_time(t);
    }
}

/// Fan one record stream out to two sinks (e.g. metrics plus a debug
/// trace).
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: RecordSink, B: RecordSink> RecordSink for Tee<A, B> {
    fn on_record(&mut self, record: &IoRecord) {
        self.0.on_record(record);
        self.1.on_record(record);
    }

    fn push_batch(&mut self, records: &[IoRecord]) {
        self.0.push_batch(records);
        self.1.push_batch(records);
    }

    fn push_columns(&mut self, batch: &RecordBatch) {
        self.0.push_columns(batch);
        self.1.push_columns(batch);
    }

    fn on_execution_time(&mut self, t: Dur) {
        self.0.on_execution_time(t);
        self.1.on_execution_time(t);
    }

    fn retire_before(&mut self, w: Nanos) {
        self.0.retire_before(w);
        self.1.retire_before(w);
    }
}

/// Constant-size accumulator for one observation layer.
#[derive(Debug, Clone, Default)]
struct LayerAcc {
    ops: u64,
    bytes: u64,
    blocks: u64,
    summed: Dur,
    union: OnlineUnion,
}

impl LayerAcc {
    #[inline]
    fn observe(&mut self, r: &IoRecord) {
        self.ops += 1;
        self.bytes += r.bytes;
        self.blocks += r.blocks();
        self.summed += r.duration();
        self.union.insert(r.interval());
    }
}

/// The shared stream accumulator every [`MetricFold`] finishes from.
///
/// Equivalent to collecting a [`Trace`] and calling `Metric::compute` on
/// it, without storing records for any selection whose [`FoldNeeds`] is
/// [`FoldNeeds::NONE`] — the default, and all the paper four need. The
/// interval unions keep one entry per disjoint busy period, which for a
/// sequential stream is one per record; under a producer's watermark
/// ([`RecordSink::retire_before`]) they keep only the busy periods still
/// live, retiring closed ones once
/// [`RETIRE_CHUNK`](crate::interval::RETIRE_CHUNK) are held. Every core accumulator is integer-valued (counts, bytes,
/// blocks, nanoseconds), so the final floating-point divisions see exactly
/// the operands the trace-based path computes: results are bit-for-bit
/// equal, not merely close.
///
/// Metrics that need per-record state (latency percentiles, queue depth)
/// declare it via [`MetricFold::needs`]; build the sink with
/// [`StreamingMetrics::with_needs`] or
/// [`StreamingMetrics::for_selection`] and only the requested state is
/// retained.
#[derive(Debug, Clone, Default)]
pub struct StreamingMetrics {
    app: LayerAcc,
    fs: LayerAcc,
    device_ops: u64,
    net_ops: u64,
    retry_ops: u64,
    first_start: Option<Nanos>,
    last_end: Option<Nanos>,
    exec_time: Option<Dur>,
    records: u64,
    /// Application response times in arrival order, when requested.
    app_durations: Option<Vec<Dur>>,
    /// Application in-flight intervals in arrival order, when requested.
    app_intervals: Option<Vec<Interval>>,
}

/// Register-resident accumulator for one layer's share of a batch: counts
/// plus a running interval hull. Overlapping-or-touching intervals merge
/// into the hull in either direction (the hull of overlapping intervals
/// *is* their union), so the [`OnlineUnion`] is touched once per busy
/// period instead of once per record, and the struct's count fields once
/// per batch.
struct BatchAcc {
    ops: u64,
    bytes: u64,
    blocks: u64,
    summed: Dur,
    run: Option<Interval>,
}

impl BatchAcc {
    fn new() -> Self {
        BatchAcc {
            ops: 0,
            bytes: 0,
            blocks: 0,
            summed: Dur::ZERO,
            run: None,
        }
    }

    #[inline]
    fn observe(&mut self, r: &IoRecord, union: &mut OnlineUnion) {
        self.ops += 1;
        self.bytes += r.bytes;
        self.blocks += r.blocks();
        self.summed += r.duration();
        let iv = r.interval();
        match &mut self.run {
            Some(run) if iv.start <= run.end && iv.end >= run.start => {
                run.start = run.start.min(iv.start);
                run.end = run.end.max(iv.end);
            }
            Some(run) => Self::spill(run, iv, union),
            None => self.run = Some(iv),
        }
    }

    /// Busy-period break: flush the finished hull and start a new one.
    /// Outlined and cold so the fuse loop above stays tight.
    #[cold]
    fn spill(run: &mut Interval, iv: Interval, union: &mut OnlineUnion) {
        union.insert(*run);
        *run = iv;
    }

    fn flush_into(self, layer: &mut LayerAcc) {
        layer.ops += self.ops;
        layer.bytes += self.bytes;
        layer.blocks += self.blocks;
        layer.summed += self.summed;
        if let Some(run) = self.run {
            layer.union.insert(run);
        }
    }
}

impl StreamingMetrics {
    /// Fresh, empty accumulators retaining nothing per record (sufficient
    /// for the paper four).
    pub fn new() -> Self {
        StreamingMetrics::default()
    }

    /// Fresh accumulators retaining the per-record state `needs` asks for.
    pub fn with_needs(needs: FoldNeeds) -> Self {
        StreamingMetrics {
            app_durations: needs.app_durations.then(Vec::new),
            app_intervals: needs.app_intervals.then(Vec::new),
            ..StreamingMetrics::default()
        }
    }

    /// Fresh accumulators able to finish every metric in `selection`.
    pub fn for_selection(selection: &MetricSelection) -> Self {
        StreamingMetrics::with_needs(selection.needs())
    }

    /// `BPS = B / T` (equation (1)): application blocks over overlapped
    /// application I/O time. `None` on an empty or zero-time stream.
    pub fn bps(&self) -> Option<f64> {
        Bps.finish(self)
    }

    /// Application operations over overlapped application I/O time.
    pub fn iops(&self) -> Option<f64> {
        Iops.finish(self)
    }

    /// Bytes moved through the file system over overlapped FS I/O time, in
    /// MB/s; falls back to the application layer when the FS layer was not
    /// instrumented.
    pub fn bandwidth(&self) -> Option<f64> {
        Bandwidth.finish(self)
    }

    /// Average response time per application operation, seconds.
    pub fn arpt(&self) -> Option<f64> {
        Arpt.finish(self)
    }

    /// Finish the registered metric called `name` (case-insensitive) from
    /// the accumulated state. `None` for unknown names, streams with no
    /// relevant records, or metrics whose [`FoldNeeds`] this sink was not
    /// built with.
    pub fn value(&self, name: &str) -> Option<f64> {
        registry().find(name)?.finish(self)
    }

    /// Application execution time: the explicitly observed value if any,
    /// otherwise the wall span over all records (all layers), as
    /// [`Trace::execution_time`] defines it.
    pub fn execution_time(&self) -> Dur {
        self.exec_time
            .unwrap_or(match (self.first_start, self.last_end) {
                (Some(s), Some(e)) => e - s,
                _ => Dur::ZERO,
            })
    }

    /// Overlapped I/O time at a layer (the `T` of equation (1) when
    /// `layer` is `Application`). Zero for `Device`, `Network` and
    /// `Retry`: the streaming path tracks the layers the metrics read.
    pub fn overlapped_io_time(&self, layer: Layer) -> Dur {
        match layer {
            Layer::Application => self.app.union.total(),
            Layer::FileSystem => self.fs.union.total(),
            Layer::Device | Layer::Network | Layer::Retry => Dur::ZERO,
        }
    }

    /// Busy periods the overlapped-time union at a layer still holds:
    /// those not yet retired behind a watermark. Zero for `Device`,
    /// `Network` and `Retry`, which keep no union.
    pub fn live_periods(&self, layer: Layer) -> usize {
        match layer {
            Layer::Application => self.app.union.period_count(),
            Layer::FileSystem => self.fs.union.period_count(),
            Layer::Device | Layer::Network | Layer::Retry => 0,
        }
    }

    /// Records observed at a layer.
    pub fn op_count(&self, layer: Layer) -> u64 {
        match layer {
            Layer::Application => self.app.ops,
            Layer::FileSystem => self.fs.ops,
            Layer::Device => self.device_ops,
            Layer::Network => self.net_ops,
            Layer::Retry => self.retry_ops,
        }
    }

    /// Bytes observed at a layer. Zero for `Device`, `Network` and
    /// `Retry`.
    pub fn bytes(&self, layer: Layer) -> u64 {
        match layer {
            Layer::Application => self.app.bytes,
            Layer::FileSystem => self.fs.bytes,
            Layer::Device | Layer::Network | Layer::Retry => 0,
        }
    }

    /// 512-byte blocks observed at a layer. Zero for `Device`, `Network`
    /// and `Retry`.
    pub fn blocks(&self, layer: Layer) -> u64 {
        match layer {
            Layer::Application => self.app.blocks,
            Layer::FileSystem => self.fs.blocks,
            Layer::Device | Layer::Network | Layer::Retry => 0,
        }
    }

    /// Summed (non-overlapped) response time at a layer. Zero for
    /// `Device`, `Network` and `Retry`.
    pub fn summed_io_time(&self, layer: Layer) -> Dur {
        match layer {
            Layer::Application => self.app.summed,
            Layer::FileSystem => self.fs.summed,
            Layer::Device | Layer::Network | Layer::Retry => Dur::ZERO,
        }
    }

    /// Application response times in arrival order; `None` unless the sink
    /// was built with [`FoldNeeds::app_durations`].
    pub fn app_durations(&self) -> Option<&[Dur]> {
        self.app_durations.as_deref()
    }

    /// Application in-flight intervals in arrival order; `None` unless the
    /// sink was built with [`FoldNeeds::app_intervals`].
    pub fn app_intervals(&self) -> Option<&[Interval]> {
        self.app_intervals.as_deref()
    }

    /// Total records observed across all layers.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// True before the first record.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Application blocks observed so far (the `B` of equation (1)).
    pub fn app_blocks(&self) -> u64 {
        self.app.blocks
    }

    /// Retain the per-record state requested at construction for one
    /// application record. Both branches are untaken (and predictable) in
    /// the default constant-space configuration.
    #[inline]
    fn retain_app(&mut self, r: &IoRecord) {
        if let Some(durs) = &mut self.app_durations {
            durs.push(r.duration());
        }
        if let Some(ivs) = &mut self.app_intervals {
            ivs.push(r.interval());
        }
    }
}

impl RecordSink for StreamingMetrics {
    #[inline]
    fn on_record(&mut self, record: &IoRecord) {
        self.records += 1;
        self.first_start = Some(match self.first_start {
            Some(s) => s.min(record.start),
            None => record.start,
        });
        self.last_end = Some(match self.last_end {
            Some(e) => e.max(record.end),
            None => record.end,
        });
        match record.layer {
            Layer::Application => {
                self.app.observe(record);
                self.retain_app(record);
            }
            Layer::FileSystem => self.fs.observe(record),
            Layer::Device => self.device_ops += 1,
            Layer::Network => self.net_ops += 1,
            Layer::Retry => self.retry_ops += 1,
        }
    }

    /// Batch ingestion: one pass accumulating counters, wall-span bounds
    /// and a per-layer running interval hull entirely in locals; the
    /// struct's accumulators are touched once per batch and the union
    /// once per busy period.
    ///
    /// Fusing out of arrival order is sound because [`OnlineUnion`]'s
    /// state is a canonical function of the *set* of inserted intervals:
    /// every insert path keeps the spans disjoint, sorted and maximal,
    /// with `total` exactly equal to their integer measure, and the hull
    /// of overlapping-or-touching intervals is exactly their union. The
    /// final spans and total — and therefore every metric — are
    /// bit-identical to per-record ingestion in arrival order.
    fn push_batch(&mut self, records: &[IoRecord]) {
        let Some(first) = records.first() else { return };
        self.records += records.len() as u64;
        let mut first_start = self.first_start.unwrap_or(first.start);
        let mut last_end = self.last_end.unwrap_or(first.end);
        let mut app = BatchAcc::new();
        let mut fs = BatchAcc::new();
        for r in records {
            first_start = first_start.min(r.start);
            last_end = last_end.max(r.end);
            match r.layer {
                Layer::Application => {
                    app.observe(r, &mut self.app.union);
                    self.retain_app(r);
                }
                Layer::FileSystem => fs.observe(r, &mut self.fs.union),
                Layer::Device => self.device_ops += 1,
                Layer::Network => self.net_ops += 1,
                Layer::Retry => self.retry_ops += 1,
            }
        }
        app.flush_into(&mut self.app);
        fs.flush_into(&mut self.fs);
        self.first_start = Some(first_start);
        self.last_end = Some(last_end);
    }

    /// Columnar ingestion. For the common producer shape — a batch whose
    /// records were all observed at one layer, feeding the constant-space
    /// configuration — the sums, counts and wall-span bounds reduce whole
    /// columns in branch-free loops the compiler can vectorize, and the
    /// union sees one running hull per busy period. Mixed-layer batches
    /// (and sinks retaining per-record state) take the row-wise mirror of
    /// [`push_batch`](RecordSink::push_batch). Both are bit-identical to
    /// per-record ingestion for the same reason batching is: every
    /// accumulator is integer-valued and the union is canonical.
    fn push_columns(&mut self, batch: &RecordBatch) {
        if batch.is_empty() {
            return;
        }
        self.records += batch.len() as u64;
        let starts = batch.starts_col();
        let ends = batch.ends_col();
        let mut first_start = self.first_start.unwrap_or(starts[0]);
        let mut last_end = self.last_end.unwrap_or(ends[0]);
        for &s in starts {
            first_start = first_start.min(s);
        }
        for &e in ends {
            last_end = last_end.max(e);
        }
        self.first_start = Some(first_start);
        self.last_end = Some(last_end);
        let retains = self.app_durations.is_some() || self.app_intervals.is_some();
        match batch.uniform_layer() {
            Some(layer @ (Layer::Application | Layer::FileSystem))
                if !retains || layer == Layer::FileSystem =>
            {
                let acc = match layer {
                    Layer::Application => &mut self.app,
                    _ => &mut self.fs,
                };
                acc.ops += batch.len() as u64;
                acc.bytes += batch.sum_bytes(layer);
                acc.blocks += batch.sum_blocks(layer);
                acc.summed += batch.sum_durations(layer);
                batch.union_into(layer, &mut acc.union);
            }
            Some(Layer::Device) => self.device_ops += batch.len() as u64,
            Some(Layer::Network) => self.net_ops += batch.len() as u64,
            Some(Layer::Retry) => self.retry_ops += batch.len() as u64,
            _ => {
                let mut app = BatchAcc::new();
                let mut fs = BatchAcc::new();
                for i in 0..batch.len() {
                    let r = batch.get(i);
                    match r.layer {
                        Layer::Application => {
                            app.observe(&r, &mut self.app.union);
                            self.retain_app(&r);
                        }
                        Layer::FileSystem => fs.observe(&r, &mut self.fs.union),
                        Layer::Device => self.device_ops += 1,
                        Layer::Network => self.net_ops += 1,
                        Layer::Retry => self.retry_ops += 1,
                    }
                }
                app.flush_into(&mut self.app);
                fs.flush_into(&mut self.fs);
            }
        }
    }

    fn on_execution_time(&mut self, t: Dur) {
        self.exec_time = Some(t);
    }

    #[inline]
    fn retire_before(&mut self, w: Nanos) {
        self.app.union.retire_before(w);
        self.fs.union.retire_before(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Arpt, Bandwidth, Bps, Iops, Metric};
    use crate::record::{FileId, IoOp, ProcessId};

    fn rec(pid: u32, layer: Layer, bytes: u64, s_us: u64, e_us: u64) -> IoRecord {
        IoRecord::new(
            ProcessId(pid),
            IoOp::Read,
            FileId(0),
            0,
            bytes,
            Nanos::from_micros(s_us),
            Nanos::from_micros(e_us),
            layer,
        )
    }

    fn cross_check(records: &[IoRecord]) {
        let mut trace = Trace::new();
        let mut stream = StreamingMetrics::new();
        for r in records {
            trace.on_record(r);
            stream.on_record(r);
        }
        assert_eq!(Bps.compute(&trace), stream.bps());
        assert_eq!(Iops.compute(&trace), stream.iops());
        assert_eq!(Bandwidth.compute(&trace), stream.bandwidth());
        assert_eq!(Arpt.compute(&trace), stream.arpt());
        assert_eq!(trace.execution_time(), stream.execution_time());
    }

    #[test]
    fn matches_trace_on_layered_stream() {
        cross_check(&[
            rec(0, Layer::Application, 4096, 0, 40),
            rec(0, Layer::FileSystem, 8192, 5, 35),
            rec(1, Layer::Application, 512, 20, 90),
            rec(1, Layer::Device, 512, 25, 60),
            rec(0, Layer::Application, 1 << 20, 200, 900),
        ]);
    }

    #[test]
    fn matches_trace_on_empty_and_degenerate_streams() {
        cross_check(&[]);
        // Zero-duration record: BPS/IOPS None, ARPT Some(0).
        cross_check(&[rec(0, Layer::Application, 512, 5, 5)]);
    }

    #[test]
    fn explicit_execution_time_wins() {
        let mut s = StreamingMetrics::new();
        s.on_record(&rec(0, Layer::Application, 512, 0, 10));
        s.on_execution_time(Dur::from_micros(1234));
        assert_eq!(s.execution_time(), Dur::from_micros(1234));
    }

    #[test]
    fn retry_records_do_not_move_the_metrics() {
        let healthy = [
            rec(0, Layer::Application, 4096, 0, 40),
            rec(0, Layer::FileSystem, 4096, 5, 35),
        ];
        let mut plain = StreamingMetrics::new();
        let mut faulted = StreamingMetrics::new();
        for r in &healthy {
            plain.on_record(r);
            faulted.on_record(r);
        }
        faulted.on_record(&rec(0, Layer::Retry, 4096, 5, 20));
        assert_eq!(plain.bps(), faulted.bps());
        assert_eq!(plain.iops(), faulted.iops());
        assert_eq!(plain.bandwidth(), faulted.bandwidth());
        assert_eq!(plain.arpt(), faulted.arpt());
        assert_eq!(faulted.op_count(Layer::Retry), 1);
        assert_eq!(faulted.overlapped_io_time(Layer::Retry), Dur::ZERO);
        // Trace agrees on the retry count (its queries filter by layer).
        cross_check(&[
            rec(0, Layer::Application, 4096, 0, 40),
            rec(0, Layer::Retry, 4096, 5, 20),
        ]);
    }

    #[test]
    fn push_batch_matches_per_record_ingestion() {
        let records = [
            rec(0, Layer::Application, 4096, 0, 40),
            rec(0, Layer::FileSystem, 8192, 5, 35),
            rec(1, Layer::Application, 512, 20, 90),
            rec(1, Layer::Device, 512, 25, 60),
            rec(2, Layer::Retry, 512, 26, 61),
            rec(2, Layer::Network, 512, 27, 58),
            rec(0, Layer::Application, 1 << 20, 200, 900),
            rec(0, Layer::FileSystem, 4096, 210, 890),
        ];
        let mut one = StreamingMetrics::new();
        for r in &records {
            one.on_record(r);
        }
        // Split into uneven batches, including an empty one.
        let mut batched = StreamingMetrics::new();
        batched.push_batch(&records[..3]);
        batched.push_batch(&[]);
        batched.push_batch(&records[3..4]);
        batched.push_batch(&records[4..]);
        assert_eq!(one.bps(), batched.bps());
        assert_eq!(one.iops(), batched.iops());
        assert_eq!(one.bandwidth(), batched.bandwidth());
        assert_eq!(one.arpt(), batched.arpt());
        assert_eq!(one.execution_time(), batched.execution_time());
        assert_eq!(one.len(), batched.len());
        for layer in [
            Layer::Application,
            Layer::FileSystem,
            Layer::Device,
            Layer::Network,
            Layer::Retry,
        ] {
            assert_eq!(one.op_count(layer), batched.op_count(layer));
            assert_eq!(
                one.overlapped_io_time(layer),
                batched.overlapped_io_time(layer)
            );
        }

        // Trace agrees too, and preserves exact record order.
        let mut t1 = Trace::new();
        for r in &records {
            t1.on_record(r);
        }
        let mut t2 = Trace::new();
        t2.push_batch(&records);
        assert_eq!(t1.records(), t2.records());
    }

    #[test]
    fn tee_forwards_batches_to_both_sinks() {
        let records = [
            rec(0, Layer::Application, 2048, 0, 30),
            rec(1, Layer::Application, 2048, 10, 50),
        ];
        let mut tee = Tee(Trace::new(), StreamingMetrics::new());
        tee.push_batch(&records);
        assert_eq!(tee.0.len(), 2);
        assert_eq!(tee.1.len(), 2);
        assert_eq!(Bps.compute(&tee.0), tee.1.bps());
    }

    #[test]
    fn tee_forwards_watermarks_to_both_sinks() {
        let n = crate::interval::RETIRE_CHUNK as u64;
        let mut tee = Tee(StreamingMetrics::new(), StreamingMetrics::new());
        for k in 0..n {
            tee.on_record(&rec(0, Layer::Application, 512, k * 10, k * 10 + 5));
        }
        tee.retire_before(Nanos::from_micros(10 * (n - 1)));
        for s in [&tee.0, &tee.1] {
            assert_eq!(s.live_periods(Layer::Application), 1);
            assert_eq!(
                s.overlapped_io_time(Layer::Application),
                Dur::from_micros(5 * n)
            );
        }
    }

    #[test]
    fn tee_feeds_both_sinks() {
        let mut tee = Tee(Trace::new(), StreamingMetrics::new());
        let r = rec(0, Layer::Application, 2048, 0, 30);
        tee.on_record(&r);
        tee.on_execution_time(Dur::from_micros(30));
        assert_eq!(tee.0.len(), 1);
        assert_eq!(tee.1.len(), 1);
        assert_eq!(Bps.compute(&tee.0), tee.1.bps());
    }
}
