//! Cross-thread protocol coverage for [`simcore::ShardCrew`], sized so Miri
//! can interpret it (CI runs `cargo miri test -p simcore --test shard_crew`):
//! a few shards, a few windows, real worker threads handing batches and
//! reports through their slots with the calling thread. The actors
//! deliberately hold non-`Send` state (`Rc<RefCell<..>>`) — the crew's
//! contract is that actors are *built* on the thread that runs them and only
//! plain commands, reports and finals ever cross a thread boundary.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::thread::{self, ThreadId};

use simcore::{EventQueue, ShardActor, ShardCrew, SimDuration, SimTime};

struct CounterShard {
    id: usize,
    queue: EventQueue<u64>,
    /// Everything strictly before this instant has been executed.
    horizon: SimTime,
    events: u64,
    windows: u64,
    /// Non-`Send` on purpose: proves shard state never migrates.
    log: Rc<RefCell<Vec<u64>>>,
    /// The thread that built this shard; every window asserts it is the
    /// thread running it.
    built_on: ThreadId,
    /// Panic in this window (counting from 0), to fail the run mid-way.
    panic_at: Option<u64>,
}

struct WindowCmd {
    end: SimTime,
    /// Messages handed over at the barrier, landing in this window or later.
    inject: Vec<(SimTime, u64)>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct WindowReport {
    shard: usize,
    executed: u64,
    sum: u64,
    horizon: SimTime,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct FinalState {
    shard: usize,
    events: u64,
    windows: u64,
    log: Vec<u64>,
}

impl ShardActor for CounterShard {
    type Cmd = WindowCmd;
    type Report = WindowReport;
    /// The thread id stays out of [`FinalState`], which must not depend on
    /// the thread count.
    type Final = (FinalState, ThreadId);

    fn run_window(&mut self, cmd: WindowCmd) -> WindowReport {
        assert_eq!(thread::current().id(), self.built_on, "shard migrated");
        if self.panic_at == Some(self.windows) {
            panic!("shard {} fails on purpose", self.id);
        }
        for (at, payload) in cmd.inject {
            assert!(at >= self.horizon, "message behind the horizon");
            self.queue.push(at, payload);
        }
        let mut sum = 0;
        let mut executed = 0;
        while self.queue.peek_time().is_some_and(|t| t < cmd.end) {
            let (_, payload) = self.queue.pop().expect("peeked a non-empty queue");
            sum += payload;
            executed += 1;
            self.log.borrow_mut().push(payload);
        }
        self.events += executed;
        self.windows += 1;
        self.horizon = cmd.end;
        WindowReport {
            shard: self.id,
            executed,
            sum,
            horizon: self.horizon,
        }
    }

    fn finish(self) -> (FinalState, ThreadId) {
        let state = FinalState {
            shard: self.id,
            events: self.events,
            windows: self.windows,
            log: self.log.borrow().clone(),
        };
        (state, self.built_on)
    }
}

const SHARDS: usize = 3;
const WINDOWS: usize = 4;

fn window_end(w: usize) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(10 * (w as u64 + 1))
}

struct Run {
    reports: Vec<Vec<WindowReport>>,
    finals: Vec<FinalState>,
    /// The thread each shard was built on, in shard order.
    built_on: Vec<ThreadId>,
}

/// Drive a small federation: each shard starts with one local event per
/// window slot, and after every window each shard's report `sum` is relayed
/// to the next shard (ring), landing one window later — barrier-exchanged
/// cross-shard messages, exactly the mesh engine's traffic shape. Shard
/// `panicking`, if any, panics in its third window.
fn drive_with(shards: usize, threads: usize, panicking: Option<usize>) -> Run {
    let mut crew: ShardCrew<CounterShard> = ShardCrew::spawn(shards, threads, move |id| {
        let mut queue = EventQueue::new();
        for w in 0..WINDOWS {
            queue.push(
                SimTime::ZERO + SimDuration::from_millis(10 * w as u64 + id as u64 + 1),
                (w * 100 + id) as u64,
            );
        }
        CounterShard {
            id,
            queue,
            horizon: SimTime::ZERO,
            events: 0,
            windows: 0,
            log: Rc::new(RefCell::new(Vec::new())),
            built_on: thread::current().id(),
            panic_at: (panicking == Some(id)).then_some(2),
        }
    });
    assert_eq!(crew.effective_threads(), threads.clamp(1, shards));

    let mut all_reports = Vec::new();
    let mut pending: Vec<Vec<(SimTime, u64)>> = vec![Vec::new(); shards];
    for w in 0..WINDOWS {
        let cmds = pending
            .drain(..)
            .map(|inject| WindowCmd {
                end: window_end(w),
                inject,
            })
            .collect();
        let reports = crew.run_windows(cmds);
        pending = vec![Vec::new(); shards];
        if w + 1 < WINDOWS {
            for r in &reports {
                // Relay each sum to the next shard in the ring; the message
                // lands strictly after every shard's new horizon.
                pending[(r.shard + 1) % shards]
                    .push((window_end(w) + SimDuration::from_millis(1), r.sum));
            }
        }
        all_reports.push(reports);
    }
    let (finals, built_on) = crew.finish().into_iter().unzip();
    Run {
        reports: all_reports,
        finals,
        built_on,
    }
}

/// Shards with `i % threads == 0` were built on the calling thread, and
/// every other residue on one worker thread of its own.
fn assert_owned_by_residue(built_on: &[ThreadId], threads: usize) {
    let caller = thread::current().id();
    let effective = threads.clamp(1, built_on.len());
    let mut residue_thread: BTreeMap<usize, ThreadId> = BTreeMap::new();
    for (shard, &thread) in built_on.iter().enumerate() {
        match shard % effective {
            0 => assert_eq!(
                thread, caller,
                "shard {shard} at {threads} threads: not on the calling thread"
            ),
            residue => {
                assert_ne!(
                    thread, caller,
                    "shard {shard} at {threads} threads: on the calling thread"
                );
                let owner = *residue_thread.entry(residue).or_insert(thread);
                assert_eq!(
                    owner, thread,
                    "residue {residue} at {threads} threads is split over two workers"
                );
            }
        }
    }
    let workers: HashSet<ThreadId> = residue_thread.values().copied().collect();
    assert_eq!(
        (residue_thread.len(), workers.len()),
        (effective - 1, effective - 1),
        "{threads} threads: one worker per residue other than 0"
    );
}

#[test]
fn reports_and_finals_are_thread_invariant_and_in_shard_order() {
    for shards in [SHARDS, 5] {
        let base = drive_with(shards, 1, None);
        let in_order: Vec<usize> = (0..shards).collect();
        for (w, reports) in base.reports.iter().enumerate() {
            let order: Vec<usize> = reports.iter().map(|r| r.shard).collect();
            assert_eq!(
                order, in_order,
                "{shards} shards: window {w} reports out of shard order"
            );
        }
        let order: Vec<usize> = base.finals.iter().map(|f| f.shard).collect();
        assert_eq!(
            order, in_order,
            "{shards} shards: finals out of shard order"
        );
        assert!(
            base.reports
                .iter()
                .skip(1)
                .flatten()
                .any(|r| r.executed > 1),
            "no barrier-relayed message ever executed: {:?}",
            base.reports
        );
        for threads in [1, 2, 3, 5, 8] {
            let run = drive_with(shards, threads, None);
            assert_owned_by_residue(&run.built_on, threads);
            assert_eq!(
                run.reports, base.reports,
                "{shards} shards: reports diverged at {threads} threads"
            );
            assert_eq!(
                run.finals, base.finals,
                "{shards} shards: finals diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn every_event_is_executed_exactly_once() {
    let finals = drive_with(SHARDS, 2, None).finals;
    // WINDOWS local events per shard, plus one relayed message per shard per
    // non-final window (the ring relay).
    let relayed = (WINDOWS - 1) as u64;
    for f in &finals {
        assert_eq!(f.windows, WINDOWS as u64, "{f:?}");
        assert_eq!(f.events, WINDOWS as u64 + relayed, "{f:?}");
        assert_eq!(f.log.len() as u64, f.events, "{f:?}");
    }
    let mut shards: Vec<usize> = finals.iter().map(|f| f.shard).collect();
    shards.dedup();
    assert_eq!(shards, vec![0, 1, 2], "finals out of shard order");
}

#[test]
fn a_panicking_shard_fails_the_run_instead_of_hanging() {
    for threads in [1, 2, 3] {
        // Shard 0 runs on the calling thread at every thread count; shard 1
        // runs on a worker unless there is only one thread.
        for panicking in [0, 1] {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                drive_with(SHARDS, threads, Some(panicking))
            }));
            let Err(payload) = outcome else {
                panic!("shard {panicking} at {threads} threads: the run did not fail");
            };
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            let on_worker = panicking % threads != 0;
            let expected = if on_worker {
                format!("shard {panicking} panicked on its worker thread")
            } else {
                format!("shard {panicking} fails on purpose")
            };
            assert_eq!(message, expected, "shard {panicking} at {threads} threads");
        }
    }
}
