//! Conservative-PDES window execution: the [`ShardActor`] contract and the
//! [`ShardCrew`] thread pool that drives many shards in lockstep windows.
//!
//! The mesh federation (and any other sharded simulation) advances each
//! shard's event queue *freely* up to a synchronization horizon
//! (`window_end = T_min + lookahead`, where `T_min` is the earliest pending
//! activity across all shards and the lookahead is the minimum inter-shard
//! link latency), then exchanges cross-shard messages at a barrier. Two
//! invariants make the result a pure function of the scenario and seed,
//! independent of how many OS threads execute the windows:
//!
//! * **Strictly-increasing horizon.** A shard never executes an event at or
//!   beyond its window end, and nothing may be injected before the horizon
//!   already passed (the actor's event core asserts this — for the mesh,
//!   `testbed::ingress::IngressShard`). Messages created inside a window
//!   therefore always land in a *later* window.
//! * **Thread-free shard state.** Each shard's window is a sequential
//!   computation over its own state plus the commands handed to it at the
//!   barrier. Threads only decide *which worker* runs a shard, never what
//!   the shard observes — so the report stream is identical for any thread
//!   count, including 1.
//!
//! Randomness keeps the same property for free: all draws flow from the
//! fixed-seed per-stream [`crate::SimRng`] owned by shard state, so thread
//! count never changes which stream serves which draw.
//!
//! This module is the **only** place in the determinism crates where
//! `thread::spawn` and `std::sync` channel primitives are permitted
//! (enforced by `edgelint`'s `threading` lint): shard actors are built *on*
//! their worker thread, so arbitrarily rich non-`Send` state (trait objects,
//! `Rc`/`RefCell` graphs) stays thread-local and only plain-data commands,
//! reports and finals ever cross a thread boundary.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;

/// One shard's role in a windowed simulation: execute a window when told to,
/// produce a report, and yield a final result when the run ends. Commands,
/// reports and finals are plain `Send` data; the actor itself never crosses
/// a thread (it is *built* on its worker via [`ShardCrew::spawn`]'s closure),
/// so it may hold arbitrary non-`Send` state.
pub trait ShardActor {
    type Cmd: Send + 'static;
    type Report: Send + 'static;
    type Final: Send + 'static;

    fn run_window(&mut self, cmd: Self::Cmd) -> Self::Report;
    fn finish(self) -> Self::Final;
}

enum WorkerMsg<C> {
    Window { shard: usize, cmd: C },
    Finish,
}

enum WorkerReply<R, F> {
    Report(R),
    Final(F),
}

type ReplyRx<A> = Receiver<(
    usize,
    WorkerReply<<A as ShardActor>::Report, <A as ShardActor>::Final>,
)>;

/// A fixed pool of worker threads, each owning a static subset of shards
/// (shard `i` lives on worker `i % threads` for its whole life). The
/// coordinator thread calls [`ShardCrew::run_windows`] once per window; the
/// crew fans the per-shard commands out, lets every worker run its shards
/// sequentially, and returns the reports in shard order — a barrier. With
/// `threads == 1` the same code path runs every shard on one worker, so the
/// single-threaded execution is the parallel algorithm, not a special case.
pub struct ShardCrew<A: ShardActor> {
    to_workers: Vec<Sender<WorkerMsg<A::Cmd>>>,
    from_workers: ReplyRx<A>,
    handles: Vec<thread::JoinHandle<()>>,
    shards: usize,
    threads: usize,
}

impl<A: ShardActor> ShardCrew<A> {
    /// Spawn `threads` workers over `shards` shards. `build(i)` runs on the
    /// worker thread that owns shard `i` — the one place shard state is
    /// created — in ascending shard order per worker.
    pub fn spawn<F>(shards: usize, threads: usize, build: F) -> ShardCrew<A>
    where
        F: Fn(usize) -> A + Send + Sync + 'static,
        A: 'static,
    {
        assert!(shards >= 1, "need at least one shard");
        let threads = threads.clamp(1, shards);
        let build = Arc::new(build);
        let (reply_tx, from_workers) = channel();
        let mut to_workers = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let (cmd_tx, cmd_rx) = channel::<WorkerMsg<A::Cmd>>();
            to_workers.push(cmd_tx);
            let reply_tx = reply_tx.clone();
            let build = Arc::clone(&build);
            let owned: Vec<usize> = (0..shards).filter(|i| i % threads == w).collect();
            handles.push(thread::spawn(move || {
                let mut actors: BTreeMap<usize, A> =
                    owned.into_iter().map(|i| (i, build(i))).collect();
                while let Ok(msg) = cmd_rx.recv() {
                    match msg {
                        WorkerMsg::Window { shard, cmd } => {
                            let actor = actors.get_mut(&shard).expect("shard owned by worker");
                            let report = actor.run_window(cmd);
                            if reply_tx.send((shard, WorkerReply::Report(report))).is_err() {
                                return;
                            }
                        }
                        WorkerMsg::Finish => {
                            for (shard, actor) in std::mem::take(&mut actors) {
                                if reply_tx
                                    .send((shard, WorkerReply::Final(actor.finish())))
                                    .is_err()
                                {
                                    return;
                                }
                            }
                            return;
                        }
                    }
                }
            }));
        }
        ShardCrew {
            to_workers,
            from_workers,
            handles,
            shards,
            threads,
        }
    }

    /// Execute one window on every shard: `cmds[i]` goes to shard `i`.
    /// Blocks until all shards report (the barrier) and returns the reports
    /// in shard order regardless of worker scheduling.
    pub fn run_windows(&mut self, cmds: Vec<A::Cmd>) -> Vec<A::Report> {
        assert_eq!(cmds.len(), self.shards, "one command per shard");
        for (shard, cmd) in cmds.into_iter().enumerate() {
            self.to_workers[shard % self.threads]
                .send(WorkerMsg::Window { shard, cmd })
                .expect("shard worker alive");
        }
        let mut reports: Vec<Option<A::Report>> = (0..self.shards).map(|_| None).collect();
        for _ in 0..self.shards {
            let (shard, reply) = self.from_workers.recv().expect("shard worker alive");
            match reply {
                WorkerReply::Report(r) => reports[shard] = Some(r),
                WorkerReply::Final(_) => unreachable!("final before finish"),
            }
        }
        reports
            .into_iter()
            .map(|r| r.expect("every shard reports once per window"))
            .collect()
    }

    /// End the run: every actor's [`ShardActor::finish`] result, in shard
    /// order. Joins the worker threads.
    pub fn finish(self) -> Vec<A::Final> {
        for tx in &self.to_workers {
            tx.send(WorkerMsg::Finish).expect("shard worker alive");
        }
        let mut finals: Vec<Option<A::Final>> = (0..self.shards).map(|_| None).collect();
        for _ in 0..self.shards {
            let (shard, reply) = self.from_workers.recv().expect("shard worker alive");
            match reply {
                WorkerReply::Final(f) => finals[shard] = Some(f),
                WorkerReply::Report(_) => unreachable!("report after finish"),
            }
        }
        drop(self.to_workers);
        for h in self.handles {
            h.join().expect("shard worker panicked");
        }
        finals
            .into_iter()
            .map(|f| f.expect("every shard finishes once"))
            .collect()
    }

    /// How many worker threads actually run (requested count clamped to the
    /// shard count — more workers than shards would only idle).
    pub fn effective_threads(&self) -> usize {
        self.threads
    }
}
