//! The virtual-time event loop.
//!
//! Simulation here is *process-driven*: each simulated process (an
//! application process issuing I/O) is a state machine implementing
//! [`Process`]. The engine wakes processes in global time order; a woken
//! process interacts with the shared environment (the simulated I/O stack),
//! decides when it next needs the CPU, and returns that instant.
//!
//! Resource queueing (disks, NICs) is handled *analytically* inside the
//! environment via [`crate::resource::FifoResource`]: because those
//! resources are non-preemptive FIFO servers, a request's completion time is
//! fully determined at arrival. The engine only has to guarantee that
//! arrivals happen in nondecreasing global time order — which the wake heap
//! does — for the analytic bookkeeping to be exact.

use crate::heap::WakeHeap;
use bps_core::time::Nanos;
use std::cell::Cell;

/// What a process wants after a wake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Wake me again at this instant (must be ≥ the current time).
    At(Nanos),
    /// Sleep until another process wakes me through the [`Waker`] —
    /// barrier/collective semantics.
    Park,
    /// The process has finished all its work.
    Done,
}

/// Cross-process wake requests, handed to every [`Process::wake`] call.
/// The last process to reach a barrier uses this to release its peers.
#[derive(Debug, Default)]
pub struct Waker {
    requests: Vec<(usize, Nanos)>,
}

impl Waker {
    /// Schedule process `idx` to wake at `at`. The target must currently be
    /// parked (checked by the engine).
    pub fn wake_at(&mut self, idx: usize, at: Nanos) {
        self.requests.push((idx, at));
    }

    /// Number of queued requests (tests).
    pub fn pending(&self) -> usize {
        self.requests.len()
    }
}

/// A simulated sequential process.
///
/// `E` is the shared environment — typically the simulated I/O stack plus
/// the trace being collected. The engine hands each process exclusive
/// (`&mut`) access during its wake, so no synchronization is needed and the
/// simulation is deterministic.
pub trait Process<E> {
    /// When this process first wants to run.
    fn start_time(&self) -> Nanos {
        Nanos::ZERO
    }

    /// Called at `now`; do work against `env`, optionally release parked
    /// peers through `waker`, and say when to wake next.
    fn wake(&mut self, now: Nanos, env: &mut E, waker: &mut Waker) -> Wake;
}

/// Result of running a set of processes to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Instant each process returned [`Wake::Done`] (index-aligned with the
    /// input process vector).
    pub finish_times: Vec<Nanos>,
    /// The earliest start among all processes.
    pub started_at: Nanos,
    /// The latest finish among all processes (simulation end).
    pub ended_at: Nanos,
    /// Total number of wakes dispatched.
    pub wakes: u64,
}

impl RunOutcome {
    /// Wall time of the whole run: latest finish minus earliest start —
    /// the "application execution time" the paper correlates metrics with.
    pub fn makespan(&self) -> bps_core::time::Dur {
        self.ended_at - self.started_at
    }
}

/// Run all processes to completion against a shared environment.
///
/// Ties on wake time are broken by insertion sequence, so reruns with the
/// same inputs produce byte-identical traces.
///
/// # Panics
///
/// Panics if a process asks to wake in its own past (which would break the
/// arrival-order guarantee the analytic queues rely on), if a waker
/// targets a process that is not parked, or if the run deadlocks with
/// parked processes left over.
pub fn run_processes<E, P: Process<E>>(processes: &mut [P], env: &mut E) -> RunOutcome {
    // Scheduling state (wake heap, parked flags, waker request buffer) is
    // borrowed from a per-thread pool and returned on exit, so a sweep
    // running thousands of cases on one thread allocates it once. A fresh
    // default is used if the slot is empty (first run on this thread,
    // reentrant run, or a previous run panicked mid-flight) — `reset`
    // makes the starting state identical either way.
    let mut s = ENGINE_SCRATCH.take().unwrap_or_default();
    s.reset(processes.len());

    let mut seq: u64 = 0;
    let mut started_at = Nanos::MAX;
    for (idx, p) in processes.iter().enumerate() {
        let t = p.start_time();
        started_at = started_at.min(t);
        s.heap.push(t, seq, idx);
        seq += 1;
    }
    if processes.is_empty() {
        started_at = Nanos::ZERO;
    }

    let mut finish_times = vec![Nanos::ZERO; processes.len()];
    let mut ended_at = started_at;
    let mut wakes: u64 = 0;

    let mut running = s.heap.pop().map(|e| (e.time, e.idx));
    while let Some((now, idx)) = running {
        wakes += 1;
        debug_assert!(!s.parked[idx], "parked process {idx} dispatched");
        match processes[idx].wake(now, env, &mut s.waker) {
            Wake::At(next) => {
                assert!(
                    next >= now,
                    "process {idx} scheduled a wake in the past ({next} < {now})"
                );
                // Heap bypass: with nothing else pushed and `next` strictly
                // before the heap minimum, a push would be popped straight
                // back. On a tie the queued entry has the smaller `seq` and
                // goes first, so pop order is unchanged.
                if s.waker.requests.is_empty() && s.heap.min_time().is_none_or(|t| next < t) {
                    seq += 1;
                    running = Some((next, idx));
                    continue;
                }
                s.heap.push(next, seq, idx);
                seq += 1;
            }
            Wake::Park => s.parked[idx] = true,
            Wake::Done => {
                finish_times[idx] = now;
                ended_at = ended_at.max(now);
            }
        }
        // Release peers the woken process asked for.
        for (target, at) in s.waker.requests.drain(..) {
            assert!(
                s.parked[target],
                "waker targeted process {target}, which is not parked"
            );
            assert!(
                at >= now,
                "waker scheduled process {target} in the past ({at} < {now})"
            );
            s.parked[target] = false;
            s.heap.push(at, seq, target);
            seq += 1;
        }
        running = s.heap.pop().map(|e| (e.time, e.idx));
    }

    assert!(
        s.parked.iter().all(|&p| !p),
        "deadlock: processes still parked at end of run"
    );
    ENGINE_SCRATCH.set(Some(s));
    bps_telemetry::add(bps_telemetry::Counter::EngineWakes, wakes);

    RunOutcome {
        finish_times,
        started_at,
        ended_at,
        wakes,
    }
}

/// Reusable per-thread scheduling state for [`run_processes`].
#[derive(Debug, Default)]
struct EngineScratch {
    heap: WakeHeap,
    parked: Vec<bool>,
    waker: Waker,
}

impl EngineScratch {
    fn reset(&mut self, n: usize) {
        self.heap.reset(n);
        self.parked.clear();
        self.parked.resize(n, false);
        self.waker.requests.clear();
    }
}

thread_local! {
    static ENGINE_SCRATCH: Cell<Option<EngineScratch>> = const { Cell::new(None) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use bps_core::time::Dur;

    /// A process that appends (its id, wake time) to a shared log a fixed
    /// number of times with a fixed period.
    struct Ticker {
        id: usize,
        period: Dur,
        remaining: u32,
        start: Nanos,
    }

    impl Process<Vec<(usize, Nanos)>> for Ticker {
        fn start_time(&self) -> Nanos {
            self.start
        }
        fn wake(&mut self, now: Nanos, log: &mut Vec<(usize, Nanos)>, _waker: &mut Waker) -> Wake {
            log.push((self.id, now));
            if self.remaining == 0 {
                return Wake::Done;
            }
            self.remaining -= 1;
            Wake::At(now + self.period)
        }
    }

    #[test]
    fn interleaves_in_time_order() {
        let mut procs = vec![
            Ticker {
                id: 0,
                period: Dur::from_millis(10),
                remaining: 3,
                start: Nanos::ZERO,
            },
            Ticker {
                id: 1,
                period: Dur::from_millis(15),
                remaining: 2,
                start: Nanos::from_millis(1),
            },
        ];
        let mut log = Vec::new();
        let out = run_processes(&mut procs, &mut log);
        // Log must be nondecreasing in time.
        for w in log.windows(2) {
            assert!(w[0].1 <= w[1].1, "{log:?}");
        }
        // Proc 0 finishes at 30 ms, proc 1 at 31 ms.
        assert_eq!(out.finish_times[0], Nanos::from_millis(30));
        assert_eq!(out.finish_times[1], Nanos::from_millis(31));
        assert_eq!(out.started_at, Nanos::ZERO);
        assert_eq!(out.ended_at, Nanos::from_millis(31));
        assert_eq!(out.makespan(), Dur::from_millis(31));
        assert_eq!(out.wakes as usize, log.len());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut procs: Vec<Ticker> = (0..4)
            .map(|id| Ticker {
                id,
                period: Dur::from_millis(10),
                remaining: 1,
                start: Nanos::ZERO,
            })
            .collect();
        let mut log = Vec::new();
        run_processes(&mut procs, &mut log);
        let first_round: Vec<usize> = log.iter().take(4).map(|&(id, _)| id).collect();
        assert_eq!(first_round, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_run_is_trivial() {
        let mut procs: Vec<Ticker> = Vec::new();
        let mut log = Vec::new();
        let out = run_processes(&mut procs, &mut log);
        assert_eq!(out.wakes, 0);
        assert_eq!(out.makespan(), Dur::ZERO);
    }

    #[test]
    #[should_panic(expected = "wake in the past")]
    fn waking_in_the_past_panics() {
        struct Bad;
        impl Process<()> for Bad {
            fn start_time(&self) -> Nanos {
                Nanos::from_millis(5)
            }
            fn wake(&mut self, _now: Nanos, _env: &mut (), _waker: &mut Waker) -> Wake {
                Wake::At(Nanos::ZERO)
            }
        }
        run_processes(&mut [Bad], &mut ());
    }

    /// A process that parks at a shared barrier; the last arriver releases
    /// everyone at the arrival time.
    struct BarrierProc {
        id: usize,
        arrive_at: Nanos,
        done_after: bool,
    }

    #[derive(Default)]
    struct BarrierEnv {
        arrived: Vec<usize>,
        expected: usize,
        released_at: Option<Nanos>,
    }

    impl Process<BarrierEnv> for BarrierProc {
        fn start_time(&self) -> Nanos {
            self.arrive_at
        }
        fn wake(&mut self, now: Nanos, env: &mut BarrierEnv, waker: &mut Waker) -> Wake {
            if self.done_after {
                return Wake::Done;
            }
            self.done_after = true;
            env.arrived.push(self.id);
            if env.arrived.len() == env.expected {
                env.released_at = Some(now);
                for &peer in &env.arrived {
                    if peer != self.id {
                        waker.wake_at(peer, now);
                    }
                }
                Wake::At(now)
            } else {
                Wake::Park
            }
        }
    }

    #[test]
    fn barrier_releases_all_at_last_arrival() {
        let mut procs: Vec<BarrierProc> = (0..4)
            .map(|id| BarrierProc {
                id,
                arrive_at: Nanos::from_millis(10 * (id as u64 + 1)),
                done_after: false,
            })
            .collect();
        let mut env = BarrierEnv {
            expected: 4,
            ..Default::default()
        };
        let out = run_processes(&mut procs, &mut env);
        // Everyone finishes at the last arrival (40 ms).
        assert_eq!(env.released_at, Some(Nanos::from_millis(40)));
        for t in &out.finish_times {
            assert_eq!(*t, Nanos::from_millis(40));
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn permanent_park_is_a_deadlock() {
        struct Sleeper;
        impl Process<()> for Sleeper {
            fn wake(&mut self, _now: Nanos, _env: &mut (), _waker: &mut Waker) -> Wake {
                Wake::Park
            }
        }
        run_processes(&mut [Sleeper], &mut ());
    }

    #[test]
    #[should_panic(expected = "not parked")]
    fn waking_unparked_process_panics() {
        struct Rogue;
        impl Process<()> for Rogue {
            fn wake(&mut self, now: Nanos, _env: &mut (), waker: &mut Waker) -> Wake {
                waker.wake_at(0, now); // targets itself, which is running
                Wake::Done
            }
        }
        run_processes(&mut [Rogue], &mut ());
    }

    #[test]
    fn lone_process_never_pushes_after_its_first_wake() {
        let mut procs = [Ticker {
            id: 0,
            period: Dur::from_micros(3),
            remaining: 100,
            start: Nanos::ZERO,
        }];
        let mut log = Vec::new();
        let out = run_processes(&mut procs, &mut log);
        assert_eq!(out.wakes, 101);
        let scratch = ENGINE_SCRATCH.take().expect("scratch returned to the pool");
        // The only push is the start-time entry.
        assert_eq!(scratch.heap.pushes, 1);
    }

    /// One step of a scripted process.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Wake again this many ns later (0 ties the current instant).
        After(u64),
        /// Park, unless no other process could release us.
        Park,
        /// Release every parked peer this many ns later; wake now.
        Release(u64),
    }

    struct Scripted {
        id: usize,
        start: Nanos,
        steps: Vec<Step>,
        next: usize,
    }

    /// Wake log plus the barrier book-keeping that keeps a script from
    /// deadlocking: a process parks only while another is runnable, and
    /// one that finishes releases every parked peer.
    struct ScriptEnv {
        log: Vec<(usize, Nanos)>,
        parked: Vec<usize>,
        runnable: usize,
    }

    impl ScriptEnv {
        fn new(n: usize) -> Self {
            ScriptEnv {
                log: Vec::new(),
                parked: Vec::new(),
                runnable: n,
            }
        }

        fn release_all(&mut self, at: Nanos, waker: &mut Waker) {
            self.runnable += self.parked.len();
            for p in self.parked.drain(..) {
                waker.wake_at(p, at);
            }
        }
    }

    impl Process<ScriptEnv> for Scripted {
        fn start_time(&self) -> Nanos {
            self.start
        }
        fn wake(&mut self, now: Nanos, env: &mut ScriptEnv, waker: &mut Waker) -> Wake {
            env.log.push((self.id, now));
            let Some(&step) = self.steps.get(self.next) else {
                env.release_all(now, waker);
                env.runnable -= 1;
                return Wake::Done;
            };
            self.next += 1;
            match step {
                Step::After(d) => Wake::At(now + Dur(d)),
                Step::Park if env.runnable > 1 => {
                    env.parked.push(self.id);
                    env.runnable -= 1;
                    Wake::Park
                }
                Step::Park => Wake::At(now),
                Step::Release(d) => {
                    env.release_all(now + Dur(d), waker);
                    Wake::At(now)
                }
            }
        }
    }

    /// `run_processes` as it was written before the heap bypass: every
    /// wake goes through a `BinaryHeap` ordered by `(time, seq)`.
    fn reference_run<E, P: Process<E>>(processes: &mut [P], env: &mut E) -> RunOutcome {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap = BinaryHeap::new();
        let mut parked = vec![false; processes.len()];
        let mut waker = Waker::default();
        let mut seq = 0u64;
        let mut started_at = Nanos::MAX;
        for (idx, p) in processes.iter().enumerate() {
            started_at = started_at.min(p.start_time());
            heap.push(Reverse((p.start_time(), seq, idx)));
            seq += 1;
        }
        if processes.is_empty() {
            started_at = Nanos::ZERO;
        }
        let mut finish_times = vec![Nanos::ZERO; processes.len()];
        let mut ended_at = started_at;
        let mut wakes = 0;
        while let Some(Reverse((now, _, idx))) = heap.pop() {
            wakes += 1;
            match processes[idx].wake(now, env, &mut waker) {
                Wake::At(next) => {
                    heap.push(Reverse((next, seq, idx)));
                    seq += 1;
                }
                Wake::Park => parked[idx] = true,
                Wake::Done => {
                    finish_times[idx] = now;
                    ended_at = ended_at.max(now);
                }
            }
            for (target, at) in waker.requests.drain(..) {
                assert!(parked[target]);
                parked[target] = false;
                heap.push(Reverse((at, seq, target)));
                seq += 1;
            }
        }
        assert!(parked.iter().all(|&p| !p));
        RunOutcome {
            finish_times,
            started_at,
            ended_at,
            wakes,
        }
    }

    fn scripts() -> impl proptest::Strategy<Value = Vec<(u64, Vec<Step>)>> {
        use proptest::prelude::*;
        // Starts and delays from a few values, so wakes tie each other and
        // the heap minimum all the time.
        let step = (0u8..10, 0u64..4).prop_map(|(kind, d)| match kind {
            0 | 1 => Step::Park,
            2 => Step::Release(d),
            _ => Step::After(d),
        });
        proptest::collection::vec((0u64..4, proptest::collection::vec(step, 0..24)), 1..6)
    }

    proptest::proptest! {
        #[test]
        fn bypass_matches_the_reference_heap_loop(procs in scripts()) {
            let build = || -> Vec<Scripted> {
                procs
                    .iter()
                    .enumerate()
                    .map(|(id, (start, steps))| Scripted {
                        id,
                        start: Nanos(*start),
                        steps: steps.clone(),
                        next: 0,
                    })
                    .collect()
            };
            let mut env = ScriptEnv::new(procs.len());
            let out = run_processes(&mut build(), &mut env);
            let mut ref_env = ScriptEnv::new(procs.len());
            let want = reference_run(&mut build(), &mut ref_env);
            proptest::prop_assert_eq!(&env.log, &ref_env.log);
            proptest::prop_assert_eq!(out, want);
        }
    }

    #[test]
    fn deterministic_repeat() {
        let build = || {
            vec![
                Ticker {
                    id: 0,
                    period: Dur::from_micros(7),
                    remaining: 50,
                    start: Nanos::ZERO,
                },
                Ticker {
                    id: 1,
                    period: Dur::from_micros(11),
                    remaining: 30,
                    start: Nanos::ZERO,
                },
            ]
        };
        let mut log_a = Vec::new();
        run_processes(&mut build(), &mut log_a);
        let mut log_b = Vec::new();
        run_processes(&mut build(), &mut log_b);
        assert_eq!(log_a, log_b);
    }
}
