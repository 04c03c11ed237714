//! Property tests for the overlapped-time algebra — the heart of BPS.

use bps_core::interval::{
    paper_union_time, union_time, ConcurrencyProfile, Interval, IntervalSet, OnlineUnion,
    RETIRE_CHUNK,
};
use bps_core::time::{Dur, Nanos};
use proptest::prelude::*;

/// Arbitrary interval with bounded coordinates so sums never overflow.
fn interval() -> impl Strategy<Value = Interval> {
    (0u64..1_000_000, 0u64..100_000)
        .prop_map(|(start, len)| Interval::new(Nanos(start), Nanos(start + len)))
}

/// Short intervals spread wide, so a long stream keeps many disjoint busy
/// periods.
fn short_interval() -> impl Strategy<Value = Interval> {
    (0u64..1_000_000, 0u64..2_000)
        .prop_map(|(start, len)| Interval::new(Nanos(start), Nanos(start + len)))
}

fn intervals(max: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec(interval(), 0..max)
}

proptest! {
    /// The union measure never exceeds the sum of the parts and never
    /// undercuts the longest part.
    #[test]
    fn union_bounded(ivs in intervals(64)) {
        let t = union_time(ivs.iter().copied());
        let sum = ivs.iter().fold(Dur::ZERO, |acc, iv| acc + iv.duration());
        let max = ivs.iter().map(|iv| iv.duration()).max().unwrap_or(Dur::ZERO);
        prop_assert!(t <= sum);
        prop_assert!(t >= max);
    }

    /// Input order is irrelevant.
    #[test]
    fn union_order_invariant(mut ivs in intervals(32), seed in 0u64..1000) {
        let a = union_time(ivs.iter().copied());
        // Cheap deterministic shuffle.
        let n = ivs.len().max(1);
        for i in 0..ivs.len() {
            let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            ivs.swap(i, j);
        }
        let b = union_time(ivs.iter().copied());
        prop_assert_eq!(a, b);
    }

    /// The paper's Figure 3 algorithm agrees with the independent sweep on
    /// every input.
    #[test]
    fn paper_algorithm_equivalent(ivs in intervals(64)) {
        prop_assert_eq!(paper_union_time(&ivs), union_time(ivs.iter().copied()));
    }

    /// Union equals the sum of parts iff no two intervals overlap (merged
    /// set has as many spans as non-degenerate inputs).
    #[test]
    fn union_equals_sum_iff_disjoint(ivs in intervals(24)) {
        let t = union_time(ivs.iter().copied());
        let sum = ivs.iter().fold(Dur::ZERO, |acc, iv| acc + iv.duration());
        let set = IntervalSet::from_unsorted(ivs.iter().copied());
        if t == sum {
            // Any strict overlap would have shrunk the union. Touching
            // intervals merge spans but do not shrink the measure.
            prop_assert!(set.total() == sum);
        } else {
            prop_assert!(t < sum);
        }
    }

    /// Incremental insertion builds the same set as batch construction.
    #[test]
    fn incremental_matches_batch(ivs in intervals(32)) {
        let batch = IntervalSet::from_unsorted(ivs.iter().copied());
        let mut inc = IntervalSet::new();
        for iv in &ivs {
            inc.insert(*iv);
        }
        prop_assert_eq!(batch, inc);
    }

    /// Inserting an interval already covered by the set changes nothing.
    #[test]
    fn insert_idempotent_on_covered(ivs in intervals(16)) {
        let mut set = IntervalSet::from_unsorted(ivs.iter().copied());
        let before = set.clone();
        for iv in &ivs {
            set.insert(*iv);
        }
        prop_assert_eq!(before, set);
    }

    /// Busy + idle = span, and gaps are inside the span.
    #[test]
    fn busy_plus_idle_is_span(ivs in intervals(32)) {
        let set = IntervalSet::from_unsorted(ivs.iter().copied());
        if let Some(span) = set.span() {
            prop_assert_eq!(set.total() + set.idle_time(), span.duration());
            for gap in set.gaps() {
                prop_assert!(gap.start >= span.start && gap.end <= span.end);
                prop_assert!(gap.duration() > Dur::ZERO);
            }
        }
    }

    /// The concurrency profile's busy depth is consistent with the union:
    /// mean depth × busy time = summed durations.
    #[test]
    fn depth_times_busy_equals_sum(ivs in intervals(32)) {
        let profile = ConcurrencyProfile::from_intervals(ivs.iter().copied());
        let busy = union_time(ivs.iter().copied()).as_secs_f64();
        let sum: f64 = ivs.iter().map(|iv| iv.duration().as_secs_f64()).sum();
        if busy > 0.0 {
            let reconstructed = profile.mean_busy_depth * busy;
            prop_assert!((reconstructed - sum).abs() < 1e-6 * sum.max(1.0),
                "{reconstructed} vs {sum}");
        }
        // Max depth never exceeds the number of intervals.
        prop_assert!(profile.max_depth as usize <= ivs.len());
    }

    /// Merging two sets of intervals unions their measures sub-additively.
    #[test]
    fn union_subadditive(a in intervals(16), b in intervals(16)) {
        let ta = union_time(a.iter().copied());
        let tb = union_time(b.iter().copied());
        let tab = union_time(a.iter().chain(b.iter()).copied());
        prop_assert!(tab <= ta + tb);
        prop_assert!(tab >= ta.max(tb));
    }

    /// Retiring behind any legal watermark — one no later interval starts
    /// before — leaves the total bit-for-bit equal to the unretired
    /// union's, on streams in arbitrary order. The live spans are a suffix
    /// of the unretired spans holding every span that ends at or after
    /// the floor; right after a retirement they are exactly those, or
    /// fewer than `RETIRE_CHUNK`.
    #[test]
    fn retirement_is_invisible(
        ivs in proptest::collection::vec(short_interval(), 0..400),
        cuts in proptest::collection::vec((any::<bool>(), 0u64..50_000), 400),
    ) {
        // legal[i]: the highest watermark no interval from i on starts before.
        let mut legal = vec![Nanos::MAX; ivs.len() + 1];
        for i in (0..ivs.len()).rev() {
            legal[i] = legal[i + 1].min(ivs[i].start);
        }
        let mut full = OnlineUnion::new();
        let mut retired = OnlineUnion::new();
        for (i, &iv) in ivs.iter().enumerate() {
            full.insert(iv);
            retired.insert(iv);
            let (retire, back) = cuts[i];
            if retire {
                retired.retire_before(Nanos(legal[i + 1].0.saturating_sub(back)));
            }
            prop_assert_eq!(retired.total(), full.total());
            prop_assert!(full.spans().ends_with(retired.spans()));
            let open = full.spans().iter().filter(|s| s.end >= retired.floor()).count();
            prop_assert!(retired.period_count() >= open);
            if retire {
                // A retirement either drained to the open spans or held
                // fewer than a chunk.
                prop_assert!(retired.period_count() == open || retired.period_count() < RETIRE_CHUNK);
            }
        }
        prop_assert_eq!(retired.total(), union_time(ivs.iter().copied()));
    }

    /// A simulation-shaped stream — intervals issued at nondecreasing
    /// instants, each retired behind its issue instant — holds fewer than
    /// `RETIRE_CHUNK` live spans after every retirement, however long it
    /// runs: every earlier span but one ended before the instant.
    #[test]
    fn retirement_bounds_live_spans(
        steps in proptest::collection::vec((0u64..5_000, 0u64..20_000), 1..1_000),
    ) {
        let mut u = OnlineUnion::new();
        let mut full = OnlineUnion::new();
        let mut now = 0;
        for (gap, len) in steps {
            now += gap;
            let iv = Interval::new(Nanos(now), Nanos(now + len));
            u.insert(iv);
            full.insert(iv);
            u.retire_before(Nanos(now));
            prop_assert!(u.period_count() < RETIRE_CHUNK, "{} live spans", u.period_count());
        }
        prop_assert_eq!(u.total(), full.total());
    }
}
