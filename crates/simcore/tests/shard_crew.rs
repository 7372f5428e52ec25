//! Cross-thread protocol coverage for [`simcore::ShardCrew`], sized so Miri
//! can interpret it (CI runs `cargo miri test -p simcore --test shard_crew`):
//! a few shards, a few windows, real `thread::spawn` + mpsc traffic. The
//! actors deliberately hold non-`Send` state (`Rc<RefCell<..>>`) — the crew's
//! contract is that actors are *built* on their worker thread and only plain
//! commands, reports and finals ever cross a thread boundary.

use std::cell::RefCell;
use std::rc::Rc;

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
    type Final = FinalState;

    fn run_window(&mut self, cmd: WindowCmd) -> WindowReport {
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

    fn finish(self) -> FinalState {
        FinalState {
            shard: self.id,
            events: self.events,
            windows: self.windows,
            log: self.log.borrow().clone(),
        }
    }
}

const SHARDS: usize = 3;
const WINDOWS: usize = 4;

fn window_end(w: usize) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(10 * (w as u64 + 1))
}

/// Drive a small federation: each shard starts with one local event per
/// window slot, and after every window each shard's report `sum` is relayed
/// to the next shard (ring), landing one window later — barrier-exchanged
/// cross-shard messages, exactly the mesh engine's traffic shape.
fn drive(threads: usize) -> (Vec<Vec<WindowReport>>, Vec<FinalState>) {
    let mut crew: ShardCrew<CounterShard> = ShardCrew::spawn(SHARDS, threads, |id| {
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
        }
    });
    assert_eq!(crew.effective_threads(), threads.clamp(1, SHARDS));

    let mut all_reports = Vec::new();
    let mut pending: Vec<Vec<(SimTime, u64)>> = vec![Vec::new(); SHARDS];
    for w in 0..WINDOWS {
        let cmds = pending
            .drain(..)
            .map(|inject| WindowCmd {
                end: window_end(w),
                inject,
            })
            .collect();
        let reports = crew.run_windows(cmds);
        pending = vec![Vec::new(); SHARDS];
        if w + 1 < WINDOWS {
            for r in &reports {
                // Relay each sum to the next shard in the ring; the message
                // lands strictly after every shard's new horizon.
                pending[(r.shard + 1) % SHARDS]
                    .push((window_end(w) + SimDuration::from_millis(1), r.sum));
            }
        }
        all_reports.push(reports);
    }
    (all_reports, crew.finish())
}

#[test]
fn reports_and_finals_are_thread_invariant_and_in_shard_order() {
    let (base_reports, base_finals) = drive(1);
    for (w, reports) in base_reports.iter().enumerate() {
        let order: Vec<usize> = reports.iter().map(|r| r.shard).collect();
        assert_eq!(
            order,
            vec![0, 1, 2],
            "window {w} reports out of shard order"
        );
    }
    assert!(
        base_reports
            .iter()
            .skip(1)
            .flatten()
            .any(|r| r.executed > 1),
        "no barrier-relayed message ever executed: {base_reports:?}"
    );
    for threads in [2, 3, 8] {
        let (reports, finals) = drive(threads);
        assert_eq!(
            reports, base_reports,
            "reports diverged at {threads} threads"
        );
        assert_eq!(finals, base_finals, "finals diverged at {threads} threads");
    }
}

#[test]
fn every_event_is_executed_exactly_once() {
    let (_, finals) = drive(2);
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
