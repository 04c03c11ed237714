//! Overlapped I/O-time computation (paper §III, Figures 2 and 3).
//!
//! The denominator `T` of the BPS equation is *not* the sum of per-request
//! response times and *not* the application wall time. It is the total
//! length of the union of all I/O-active intervals:
//!
//! * idle periods with no in-flight I/O contribute nothing, and
//! * any instant covered by several concurrent requests is counted once.
//!
//! In the paper's Figure 2, four requests R1..R4 with R1–R3 mutually
//! overlapping and R4 disjoint yield `T = Δt1 + Δt2`, where Δt1 spans the
//! merged extent of R1–R3 and Δt2 = T4.
//!
//! Two implementations are provided:
//!
//! * [`union_time`] / [`IntervalSet`] — an independently written
//!   sort-and-sweep union, the one the rest of the workspace uses;
//! * [`paper_union_time`] — a line-by-line port of the pseudocode in the
//!   paper's Figure 3, kept as executable documentation and cross-checked
//!   against `union_time` by property tests.

use crate::time::{Dur, Nanos};
use serde::{Deserialize, Serialize};

/// A half-open time interval `[start, end)` during which an I/O request was
/// in flight. `start == end` is permitted and denotes an instantaneous
/// (zero-cost) access that contributes nothing to `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Interval {
    /// Moment the request was issued.
    pub start: Nanos,
    /// Moment the request completed.
    pub end: Nanos,
}

impl Interval {
    /// Build an interval, panicking if `end < start`.
    ///
    /// Traces coming from files go through the checked
    /// [`Interval::try_new`] path instead.
    pub fn new(start: Nanos, end: Nanos) -> Self {
        assert!(end >= start, "interval ends before it starts");
        Interval { start, end }
    }

    /// Build an interval, rejecting inverted bounds.
    pub fn try_new(start: Nanos, end: Nanos) -> Result<Self, crate::error::CoreError> {
        if end < start {
            Err(crate::error::CoreError::InvertedInterval {
                start: start.0,
                end: end.0,
            })
        } else {
            Ok(Interval { start, end })
        }
    }

    /// Length of the interval.
    pub fn duration(&self) -> Dur {
        self.end - self.start
    }

    /// True when the two intervals share at least one instant, treating
    /// touching intervals (`a.end == b.start`) as overlapping so they merge
    /// into one busy period — back-to-back I/O has no idle gap.
    pub fn touches(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Smallest interval covering both.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// The overlap of two intervals, if non-degenerate.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(Interval { start, end })
        } else {
            None
        }
    }
}

/// Total overlapped I/O time of a set of intervals: the measure of their
/// union, per the paper's Figure 2. Order of the input is irrelevant.
///
/// Runs in O(n log n) time and O(n) space.
///
/// ```
/// use bps_core::interval::{union_time, Interval};
/// use bps_core::time::{Dur, Nanos};
/// let ms = Nanos::from_millis;
/// // R1=[0,4), R2=[1,5), R3=[3,6) overlap; R4=[8,10) is disjoint.
/// let t = union_time([
///     Interval::new(ms(0), ms(4)),
///     Interval::new(ms(1), ms(5)),
///     Interval::new(ms(3), ms(6)),
///     Interval::new(ms(8), ms(10)),
/// ]);
/// assert_eq!(t, Dur::from_millis(6 + 2)); // Δt1 + Δt2
/// ```
pub fn union_time<I: IntoIterator<Item = Interval>>(intervals: I) -> Dur {
    let mut v: Vec<Interval> = intervals.into_iter().collect();
    if v.is_empty() {
        return Dur::ZERO;
    }
    v.sort_unstable_by_key(|iv| (iv.start, iv.end));
    let mut total = Dur::ZERO;
    let mut cur = v[0];
    for iv in &v[1..] {
        if iv.start <= cur.end {
            cur.end = cur.end.max(iv.end);
        } else {
            total += cur.duration();
            cur = *iv;
        }
    }
    total + cur.duration()
}

/// Faithful port of the pseudocode in the paper's Figure 3 ("BPS time
/// calculating algorithm").
///
/// The paper sorts `col_time` by start time, then walks the records pairwise:
/// disjoint neighbours flush the running record's length into `T`; otherwise
/// the next record is widened to the running hull. The final record's length
/// is added after the loop.
///
/// This port preserves the structure (including the in-place widening of
/// `nextRecord`) and is checked by property tests to agree with
/// [`union_time`] on every input.
pub fn paper_union_time(col_time: &[Interval]) -> Dur {
    if col_time.is_empty() {
        return Dur::ZERO;
    }
    // "sort all records in col_time according to the start time of each record"
    let mut records = col_time.to_vec();
    records.sort_unstable_by_key(|r| r.start);

    let mut t = Dur::ZERO;
    // tempRecord = first Record of col_time
    let mut temp = records[0];
    // while col_time has next do
    for next in records.iter_mut().skip(1) {
        if temp.end < next.start {
            // T += tempRecord.endtime - tempRecord.starttime
            //
            // The paper's listing shows `T = ...`; taken literally that
            // would discard previously accumulated busy periods, which
            // contradicts the prose ("the overall T for these four requests
            // is equal to Δt1 + Δt2"). We implement the accumulation the
            // prose and Figure 2 demand.
            t += temp.end - temp.start;
        } else {
            // nextRecord.starttime = tempRecord.starttime
            next.start = temp.start;
            // if nextRecord.endtime < tempRecord.endtime
            if next.end < temp.end {
                next.end = temp.end;
            }
        }
        // tempRecord = nextRecord
        temp = *next;
    }
    // T += tempRecord.endtime - tempRecord.starttime
    t + (temp.end - temp.start)
}

/// A maintained union of intervals: always stored merged, disjoint, and
/// sorted. Useful for incremental busy-time accounting inside simulator
/// components and for gap (idle period) analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalSet {
    /// Merged, disjoint, sorted by start.
    spans: Vec<Interval>,
}

impl IntervalSet {
    /// An empty set.
    pub fn new() -> Self {
        IntervalSet { spans: Vec::new() }
    }

    /// Build from arbitrary (unsorted, overlapping) intervals.
    pub fn from_unsorted<I: IntoIterator<Item = Interval>>(intervals: I) -> Self {
        let mut v: Vec<Interval> = intervals.into_iter().collect();
        v.sort_unstable_by_key(|iv| (iv.start, iv.end));
        let mut spans: Vec<Interval> = Vec::with_capacity(v.len());
        for iv in v {
            match spans.last_mut() {
                Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
                _ => spans.push(iv),
            }
        }
        IntervalSet { spans }
    }

    /// Insert one interval, merging as needed. O(n) worst case, O(1)
    /// amortized for append-mostly (time-ordered) insertion.
    pub fn insert(&mut self, iv: Interval) {
        // Fast path: strictly after everything present.
        match self.spans.last_mut() {
            None => {
                self.spans.push(iv);
                return;
            }
            Some(last) if iv.start > last.end => {
                self.spans.push(iv);
                return;
            }
            Some(last) if iv.start >= last.start => {
                last.end = last.end.max(iv.end);
                return;
            }
            _ => {}
        }
        // General path: find the insertion window by binary search.
        let first = self.spans.partition_point(|s| s.end < iv.start);
        let mut merged = iv;
        let mut last = first;
        while last < self.spans.len() && self.spans[last].start <= merged.end {
            merged = merged.hull(&self.spans[last]);
            last += 1;
        }
        self.spans.splice(first..last, std::iter::once(merged));
    }

    /// Total measure of the union (the paper's `T`).
    pub fn total(&self) -> Dur {
        self.spans
            .iter()
            .fold(Dur::ZERO, |acc, iv| acc + iv.duration())
    }

    /// Number of disjoint busy periods.
    pub fn period_count(&self) -> usize {
        self.spans.len()
    }

    /// True if no interval has been inserted (or all were degenerate —
    /// degenerate intervals are kept but measure zero).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The merged disjoint spans, sorted by start.
    pub fn spans(&self) -> &[Interval] {
        &self.spans
    }

    /// Hull from the earliest start to the latest end, if any.
    pub fn span(&self) -> Option<Interval> {
        match (self.spans.first(), self.spans.last()) {
            (Some(a), Some(b)) => Some(Interval {
                start: a.start,
                end: b.end,
            }),
            _ => None,
        }
    }

    /// The idle gaps between busy periods (the paper's "inactive time",
    /// e.g. `[t6, t7)` in Figure 2).
    pub fn gaps(&self) -> Vec<Interval> {
        self.spans
            .windows(2)
            .filter(|w| w[0].end < w[1].start)
            .map(|w| Interval {
                start: w[0].end,
                end: w[1].start,
            })
            .collect()
    }

    /// Total idle time inside the span.
    pub fn idle_time(&self) -> Dur {
        match self.span() {
            Some(s) => s.duration() - self.total(),
            None => Dur::ZERO,
        }
    }
}

/// Spans an [`OnlineUnion`] holds before [`OnlineUnion::retire_before`]
/// drops the closed ones: draining in chunks keeps its cost amortised to a
/// fraction of an insert.
pub const RETIRE_CHUNK: usize = 64;

/// Online interval union: maintains the measure of the union *as intervals
/// arrive*, without materializing and re-sweeping the whole set.
///
/// The streaming counterpart of [`union_time`]: after any sequence of
/// [`OnlineUnion::insert`] calls, [`OnlineUnion::total`] equals
/// `union_time` over the same intervals — exactly, since both work in
/// integer nanoseconds. Requests completing in nondecreasing start order
/// (the common case when fed from a simulation or a live recorder) take the
/// O(1) fast path: they either extend the rightmost span or open a new one.
/// Out-of-order arrivals fall back to a binary search + splice, like
/// [`IntervalSet::insert`].
///
/// A producer that knows no future interval starts before some instant `w`
/// calls [`OnlineUnion::retire_before`]: spans ending before `w` can never
/// merge again, so they are dropped while their measure stays in the
/// total. Space is then bounded by the busy periods still open at the
/// watermark plus [`RETIRE_CHUNK`], not by the length of the stream. The
/// union remembers the highest watermark as a floor, and an insert
/// starting below it panics rather than mis-merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OnlineUnion {
    /// Live spans: disjoint, ascending, each ending at or after `floor`.
    spans: Vec<Interval>,
    total: Dur,
    /// Highest watermark retired behind; no insert may start below it.
    floor: Nanos,
}

impl OnlineUnion {
    /// An empty union.
    pub fn new() -> Self {
        OnlineUnion::default()
    }

    /// Add one interval, merging it into the maintained union.
    ///
    /// # Panics
    ///
    /// If `iv` starts below the floor set by
    /// [`OnlineUnion::retire_before`]: it might overlap a retired span, and
    /// the union can no longer tell.
    #[inline]
    pub fn insert(&mut self, iv: Interval) {
        assert!(
            iv.start >= self.floor,
            "interval starting at {} inserted below the retirement floor {}",
            iv.start,
            self.floor
        );
        // Fast paths against the rightmost span.
        match self.spans.last_mut() {
            None => {
                self.total += iv.duration();
                self.spans.push(iv);
                return;
            }
            Some(last) if iv.start > last.end => {
                self.total += iv.duration();
                self.spans.push(iv);
                return;
            }
            Some(last) if iv.start >= last.start => {
                if iv.end > last.end {
                    self.total += iv.end - last.end;
                    last.end = iv.end;
                }
                return;
            }
            _ => {}
        }
        // General path: merge with every overlapping or touching span.
        let first = self.spans.partition_point(|s| s.end < iv.start);
        let mut merged = iv;
        let mut displaced = Dur::ZERO;
        let mut last = first;
        while last < self.spans.len() && self.spans[last].start <= merged.end {
            displaced += self.spans[last].duration();
            merged = merged.hull(&self.spans[last]);
            last += 1;
        }
        self.total = self.total - displaced + merged.duration();
        self.spans.splice(first..last, std::iter::once(merged));
    }

    /// Add a batch of intervals, merging them into the maintained union.
    ///
    /// Exactly equivalent to calling [`OnlineUnion::insert`] once per
    /// interval in order — the final spans and total are identical —
    /// but consecutive intervals that overlap or touch are fused into one
    /// running hull in registers first, so a batch of mutually overlapping
    /// requests (the common shape of one simulated wake) touches the span
    /// vector once instead of once per interval.
    pub fn insert_all(&mut self, ivs: &[Interval]) {
        let mut ivs = ivs.iter();
        let Some(&first) = ivs.next() else { return };
        // The running hull of a consecutive overlapping run. Fusing
        // `next` into it is valid exactly when sequential insertion would
        // have hit a `last`-span fast path: `next.start` inside
        // `[run.start, run.end]`. Anything else flushes the run and
        // starts over, so ordering effects are preserved bit-for-bit.
        let mut run = first;
        for &iv in ivs {
            if iv.start >= run.start && iv.start <= run.end {
                run.end = run.end.max(iv.end);
            } else {
                self.insert(run);
                run = iv;
            }
        }
        self.insert(run);
    }

    /// Promise that no interval inserted from now on starts before `w`:
    /// raise the floor to `w` and, once at least [`RETIRE_CHUNK`] spans
    /// are held, drop every span ending before the floor (no later
    /// interval can touch it). The dropped spans' measure stays in
    /// [`OnlineUnion::total`], so the total is the same as without
    /// retirement, bit for bit. The floor never moves down.
    #[inline]
    pub fn retire_before(&mut self, w: Nanos) {
        self.floor = self.floor.max(w);
        if self.spans.len() >= RETIRE_CHUNK {
            let closed = self.spans.partition_point(|s| s.end < self.floor);
            self.spans.drain(..closed);
        }
    }

    /// The measure of the union so far, retired spans included.
    pub fn total(&self) -> Dur {
        self.total
    }

    /// Number of live (unretired) disjoint busy periods.
    pub fn period_count(&self) -> usize {
        self.spans.len()
    }

    /// True while no span is live: before any insert, or once every span
    /// has retired.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The live disjoint, ascending spans of the union.
    pub fn spans(&self) -> &[Interval] {
        &self.spans
    }

    /// The retirement floor: the highest watermark passed to
    /// [`OnlineUnion::retire_before`].
    pub fn floor(&self) -> Nanos {
        self.floor
    }
}

/// A step in the concurrency (queue-depth) timeline: from `at` until the
/// next step, exactly `depth` requests are in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepthStep {
    /// Instant this depth takes effect.
    pub at: Nanos,
    /// Number of concurrently in-flight requests from `at` onward.
    pub depth: u32,
}

/// Concurrency profile of a set of intervals: the piecewise-constant number
/// of in-flight requests over time, plus summary statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConcurrencyProfile {
    /// The timeline of depth changes, starting at the first event.
    pub steps: Vec<DepthStep>,
    /// Maximum simultaneous in-flight requests.
    pub max_depth: u32,
    /// Time-weighted mean depth over busy time only (idle excluded).
    pub mean_busy_depth: f64,
}

impl ConcurrencyProfile {
    /// Compute the profile from raw intervals.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(intervals: I) -> Self {
        // Event sweep: +1 at start, -1 at end; ends sort before starts at
        // the same instant so half-open adjacency does not inflate depth.
        let mut events: Vec<(Nanos, i32)> = Vec::new();
        for iv in intervals {
            if iv.start == iv.end {
                continue;
            }
            events.push((iv.start, 1));
            events.push((iv.end, -1));
        }
        if events.is_empty() {
            return ConcurrencyProfile::default();
        }
        events.sort_unstable_by_key(|&(t, delta)| (t, delta));

        let mut steps: Vec<DepthStep> = Vec::new();
        let mut depth: i64 = 0;
        let mut max_depth: i64 = 0;
        let mut weighted: f64 = 0.0;
        let mut busy: f64 = 0.0;
        let mut prev = events[0].0;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            let dt = (t - prev).as_secs_f64();
            if depth > 0 {
                weighted += depth as f64 * dt;
                busy += dt;
            }
            while i < events.len() && events[i].0 == t {
                depth += i64::from(events[i].1);
                i += 1;
            }
            max_depth = max_depth.max(depth);
            if steps.last().map(|s| s.depth) != Some(depth as u32) {
                steps.push(DepthStep {
                    at: t,
                    depth: depth as u32,
                });
            }
            prev = t;
        }
        ConcurrencyProfile {
            steps,
            max_depth: max_depth as u32,
            mean_busy_depth: if busy > 0.0 { weighted / busy } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }
    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(ms(a), ms(b))
    }

    #[test]
    fn empty_union_is_zero() {
        assert_eq!(union_time([]), Dur::ZERO);
        assert_eq!(paper_union_time(&[]), Dur::ZERO);
    }

    #[test]
    fn figure_2_example() {
        // R1..R3 overlap into Δt1 = [0,6); R4 = [8,10) gives Δt2 = 2ms.
        let records = [iv(0, 4), iv(1, 5), iv(3, 6), iv(8, 10)];
        assert_eq!(union_time(records), Dur::from_millis(8));
        assert_eq!(paper_union_time(&records), Dur::from_millis(8));
    }

    #[test]
    fn touching_intervals_merge() {
        // Back-to-back sequential requests: no idle gap, single busy period.
        let set = IntervalSet::from_unsorted([iv(0, 2), iv(2, 5)]);
        assert_eq!(set.period_count(), 1);
        assert_eq!(set.total(), Dur::from_millis(5));
        assert!(set.gaps().is_empty());
    }

    #[test]
    fn contained_interval_adds_nothing() {
        let t = union_time([iv(0, 10), iv(2, 3)]);
        assert_eq!(t, Dur::from_millis(10));
    }

    #[test]
    fn order_invariance() {
        let a = [iv(5, 9), iv(0, 2), iv(1, 6), iv(20, 21)];
        let mut b = a;
        b.reverse();
        assert_eq!(union_time(a), union_time(b));
        assert_eq!(paper_union_time(&a), paper_union_time(&b));
    }

    #[test]
    fn paper_algorithm_matches_sweep_on_fixed_cases() {
        let cases: Vec<Vec<Interval>> = vec![
            vec![iv(0, 1)],
            vec![iv(0, 1), iv(1, 2)],
            vec![iv(0, 5), iv(1, 2), iv(3, 8), iv(10, 11)],
            vec![iv(0, 0), iv(0, 0)], // degenerate
            vec![iv(3, 3), iv(1, 4)],
            vec![iv(0, 10), iv(0, 10), iv(0, 10)],
        ];
        for c in cases {
            assert_eq!(paper_union_time(&c), union_time(c.iter().copied()), "{c:?}");
        }
    }

    #[test]
    fn interval_set_insert_matches_batch() {
        let data = [iv(4, 7), iv(0, 1), iv(6, 9), iv(2, 3), iv(1, 2)];
        let batch = IntervalSet::from_unsorted(data);
        let mut inc = IntervalSet::new();
        for d in data {
            inc.insert(d);
        }
        assert_eq!(batch, inc);
        assert_eq!(batch.total(), union_time(data));
    }

    #[test]
    fn interval_set_gaps_and_idle() {
        let set = IntervalSet::from_unsorted([iv(0, 2), iv(5, 6), iv(9, 10)]);
        let gaps = set.gaps();
        assert_eq!(gaps, vec![iv(2, 5), iv(6, 9)]);
        assert_eq!(set.idle_time(), Dur::from_millis(6));
        assert_eq!(set.span().unwrap(), iv(0, 10));
    }

    #[test]
    fn insert_merging_across_many_spans() {
        let mut set = IntervalSet::new();
        for k in 0..5 {
            set.insert(iv(k * 10, k * 10 + 2));
        }
        assert_eq!(set.period_count(), 5);
        // One big interval swallows the middle three.
        set.insert(iv(11, 35));
        assert_eq!(set.period_count(), 3);
        assert_eq!(set.span().unwrap(), iv(0, 42));
        // [0,2) + [10,35) + [40,42) = 2 + 25 + 2 ms.
        assert_eq!(set.total(), Dur::from_millis(29));
    }

    #[test]
    fn insert_all_matches_sequential_insert() {
        let cases: Vec<Vec<Interval>> = vec![
            vec![],
            vec![iv(0, 1)],
            vec![iv(0, 4), iv(1, 5), iv(3, 6), iv(8, 10)], // figure 2
            vec![iv(8, 10), iv(0, 4), iv(1, 5), iv(3, 6)], // out of order
            vec![iv(0, 0), iv(0, 0), iv(5, 5)],            // degenerate
            vec![iv(0, 2), iv(2, 4), iv(4, 6)],            // touching chain
            vec![iv(5, 9), iv(0, 2), iv(1, 6), iv(20, 21), iv(3, 4)],
        ];
        for c in &cases {
            let mut seq = OnlineUnion::new();
            for &i in c {
                seq.insert(i);
            }
            let mut batched = OnlineUnion::new();
            batched.insert_all(c);
            assert_eq!(seq, batched, "{c:?}");
        }
    }

    #[test]
    fn insert_all_appends_to_existing_union() {
        let mut seq = OnlineUnion::new();
        let mut batched = OnlineUnion::new();
        for u in [&mut seq, &mut batched] {
            u.insert(iv(0, 3));
            u.insert(iv(10, 12));
        }
        let more = [iv(2, 5), iv(4, 11), iv(30, 31)];
        for i in more {
            seq.insert(i);
        }
        batched.insert_all(&more);
        assert_eq!(seq, batched);
        // [0,3)∪[2,5)∪[4,11)∪[10,12) fuse to [0,12); [30,31) stays apart.
        assert_eq!(seq.total(), Dur::from_millis(13));
    }

    #[test]
    fn retirement_keeps_the_total_and_drops_closed_spans() {
        let n = RETIRE_CHUNK as u64;
        let mut u = OnlineUnion::new();
        for k in 0..n - 1 {
            u.insert(iv(k * 10, k * 10 + 3));
        }
        u.retire_before(ms(10 * n));
        // Below the chunk: the floor rises, nothing is dropped yet.
        assert_eq!(u.period_count(), RETIRE_CHUNK - 1);
        assert_eq!(u.floor(), ms(10 * n));
        u.insert(iv(10 * n, 10 * n + 10));
        u.insert(iv(10 * n + 5, 10 * n + 20));
        u.retire_before(ms(10 * n + 12));
        // Every span but the open [10n, 10n+20) closed before 10n+12.
        assert_eq!(u.spans(), &[iv(10 * n, 10 * n + 20)]);
        u.retire_before(ms(5)); // stale watermark: the floor never drops
        assert_eq!(u.floor(), ms(10 * n + 12));
        assert_eq!(u.total(), Dur::from_millis(3 * (n - 1) + 20));
    }

    #[test]
    #[should_panic(expected = "below the retirement floor")]
    fn insert_below_the_floor_panics() {
        let mut u = OnlineUnion::new();
        u.insert(iv(0, 2));
        u.retire_before(ms(5));
        // Overlaps nothing live, but might have overlapped a retired span.
        u.insert(iv(4, 6));
    }

    #[test]
    fn intersect_and_hull() {
        assert_eq!(iv(0, 5).intersect(&iv(3, 8)), Some(iv(3, 5)));
        assert_eq!(iv(0, 2).intersect(&iv(2, 4)), None); // touching: empty overlap
        assert_eq!(iv(0, 2).hull(&iv(5, 6)), iv(0, 6));
    }

    #[test]
    fn try_new_rejects_inverted() {
        assert!(Interval::try_new(ms(2), ms(1)).is_err());
        assert!(Interval::try_new(ms(1), ms(1)).is_ok());
    }

    #[test]
    fn concurrency_profile_figure_1c() {
        // Sequential: two requests back to back, depth never exceeds 1.
        let seq = ConcurrencyProfile::from_intervals([iv(0, 2), iv(2, 4)]);
        assert_eq!(seq.max_depth, 1);
        assert!((seq.mean_busy_depth - 1.0).abs() < 1e-9);

        // Concurrent: the same two requests fully overlapped, depth 2.
        let conc = ConcurrencyProfile::from_intervals([iv(0, 2), iv(0, 2)]);
        assert_eq!(conc.max_depth, 2);
        assert!((conc.mean_busy_depth - 2.0).abs() < 1e-9);
    }

    #[test]
    fn concurrency_profile_partial_overlap() {
        // [0,4) and [2,6): depth 1 on [0,2), 2 on [2,4), 1 on [4,6).
        let p = ConcurrencyProfile::from_intervals([iv(0, 4), iv(2, 6)]);
        assert_eq!(p.max_depth, 2);
        assert!((p.mean_busy_depth - (1.0 * 2.0 + 2.0 * 2.0 + 1.0 * 2.0) / 6.0).abs() < 1e-9);
        let depths: Vec<u32> = p.steps.iter().map(|s| s.depth).collect();
        assert_eq!(depths, vec![1, 2, 1, 0]);
    }

    #[test]
    fn concurrency_profile_empty_and_degenerate() {
        let p = ConcurrencyProfile::from_intervals([]);
        assert_eq!(p.max_depth, 0);
        let p = ConcurrencyProfile::from_intervals([iv(1, 1)]);
        assert_eq!(p.max_depth, 0);
        assert_eq!(p.mean_busy_depth, 0.0);
    }
}
