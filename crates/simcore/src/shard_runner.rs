//! Conservative-PDES window execution: the [`ShardActor`] contract and the
//! [`ShardCrew`] that drives many shards in lockstep windows.
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
//!   barrier. Threads only decide *which thread* runs a shard, never what
//!   the shard observes — so the report stream is identical for any thread
//!   count, including 1.
//!
//! Randomness keeps the same property for free: all draws flow from the
//! fixed-seed per-stream [`crate::SimRng`] owned by shard state, so thread
//! count never changes which stream serves which draw.
//!
//! **The barrier.** The calling thread (the coordinator) hosts a share of
//! the shards itself, so `threads = 1` spawns nothing and hands nothing
//! over. Each of the other `threads - 1` workers owns one slot: an
//! atomic turn word plus command, report and final buffers that keep their
//! capacity from window to window. A window is one write per slot, the
//! coordinator's own shards, and one read per slot. Whoever waits for a turn
//! spins `SPIN_LIMIT` times, then parks; whoever hands a turn over always
//! unparks the other side. The spinner yields its CPU now and then, so with
//! more threads than CPUs the thread it waits for still gets to run.
//!
//! This module is the **only** place in the determinism crates where
//! `thread::spawn` and `std::sync` primitives are permitted (enforced by
//! `edgelint`'s `threading` lint): shard actors are built *on* the thread
//! that runs them, so arbitrarily rich non-`Send` state (trait objects,
//! `Rc`/`RefCell` graphs) stays thread-local and only plain-data commands,
//! reports and finals ever cross a thread boundary.

use std::hint;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle, Thread};

/// One shard's role in a windowed simulation: execute a window when told to,
/// produce a report, and yield a final result when the run ends. Commands,
/// reports and finals are plain `Send` data; the actor itself never crosses
/// a thread (it is *built* on the thread that runs it, via
/// [`ShardCrew::spawn`]'s closure), so it may hold arbitrary non-`Send`
/// state.
pub trait ShardActor {
    type Cmd: Send + 'static;
    type Report: Send + 'static;
    type Final: Send + 'static;

    fn run_window(&mut self, cmd: Self::Cmd) -> Self::Report;
    fn finish(self) -> Self::Final;
}

/// Spin-wait iterations before a waiter parks: about 0.3 ms of
/// `spin_loop` on a current x86-64 core, longer than a mesh window's wait
/// for the other side. Miri interprets one thread at a time, so there a
/// spin could only burn interpretation time: the crew parks at once.
const SPIN_LIMIT: u32 = if cfg!(miri) { 0 } else { 1 << 14 };

/// A spinning waiter yields its CPU once every this many iterations (about
/// 5 µs), so on a host busy with other work — parallel test runs, other
/// processes — the thread it waits for can take the CPU instead of waiting
/// out the spin.
const YIELD_EVERY: u32 = 1 << 8;

// A slot's turn word. The coordinator owns the buffers in `COORD` and
// `DEAD`; the worker owns them in `WINDOW` and `FINISH`.
/// The coordinator's turn: the buffers hold the last reports, or nothing.
const COORD: u8 = 0;
/// A batch of commands is posted: run one window on every owned shard.
const WINDOW: u8 = 1;
/// The run ends: finish every owned shard.
const FINISH: u8 = 2;
/// The crew was dropped without [`ShardCrew::finish`]: exit.
const STOP: u8 = 3;
/// The worker panicked; `dead_shard` names the shard it was on.
const DEAD: u8 = 4;

/// What the coordinator and one worker hand each other. The turn word says
/// who may touch the buffers; the mutex is never contended, since only the
/// side whose turn it is locks it.
struct Slot<A: ShardActor> {
    /// `Release` stores hand the turn over; they pair with the `Acquire`
    /// loads in [`Slot::wait`] and the coordinator's `compare_exchange`.
    state: AtomicU8,
    /// Written before the `DEAD` store that publishes it.
    dead_shard: AtomicUsize,
    buffers: Mutex<Buffers<A>>,
}

struct Buffers<A: ShardActor> {
    cmds: Vec<A::Cmd>,
    reports: Vec<A::Report>,
    finals: Vec<A::Final>,
}

impl<A: ShardActor> Slot<A> {
    /// Spin, then park, until `ready` accepts the turn word; returns it.
    fn wait(&self, ready: impl Fn(u8) -> bool) -> u8 {
        for i in 1..=SPIN_LIMIT {
            let state = self.state.load(Ordering::Acquire);
            if ready(state) {
                return state;
            }
            if i % YIELD_EVERY == 0 {
                thread::yield_now();
            } else {
                hint::spin_loop();
            }
        }
        loop {
            let state = self.state.load(Ordering::Acquire);
            if ready(state) {
                return state;
            }
            // An unpark between the load and here leaves a token, so this
            // returns at once: no wakeup is lost.
            thread::park();
        }
    }

    /// The coordinator's wait for its turn back, and the buffers it brings.
    fn await_coord(&self) -> MutexGuard<'_, Buffers<A>> {
        if self.wait(|state| state == COORD || state == DEAD) == DEAD {
            self.died();
        }
        self.buffers()
    }

    fn buffers(&self) -> MutexGuard<'_, Buffers<A>> {
        self.buffers
            .lock()
            .expect("a slot's buffers are locked only by the side whose turn it is")
    }

    fn died(&self) -> ! {
        panic!(
            "shard {} panicked on its worker thread",
            self.dead_shard.load(Ordering::Relaxed)
        )
    }
}

/// On a worker thread: if the thread unwinds, mark its slot dead, name the
/// shard it was building or running, and wake the coordinator so it fails
/// the run instead of waiting forever.
struct DeathWatch<'a, A: ShardActor> {
    slot: &'a Slot<A>,
    coordinator: &'a Thread,
    shard: usize,
}

impl<A: ShardActor> Drop for DeathWatch<'_, A> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.slot.dead_shard.store(self.shard, Ordering::Relaxed);
            self.slot.state.store(DEAD, Ordering::Release);
            self.coordinator.unpark();
        }
    }
}

/// A worker's life: build its shards, then serve turns until `FINISH` or
/// `STOP`.
fn serve<A: ShardActor>(
    slot: &Slot<A>,
    owned: impl Iterator<Item = usize>,
    build: &dyn Fn(usize) -> A,
    coordinator: &Thread,
) {
    let mut watch = DeathWatch {
        slot,
        coordinator,
        shard: 0,
    };
    let mut actors: Vec<(usize, A)> = Vec::new();
    for shard in owned {
        watch.shard = shard;
        actors.push((shard, build(shard)));
    }
    loop {
        let turn = slot.wait(|state| state != COORD);
        if turn == STOP {
            return;
        }
        {
            let mut buffers = slot.buffers();
            let Buffers {
                cmds,
                reports,
                finals,
            } = &mut *buffers;
            if turn == WINDOW {
                for ((shard, actor), cmd) in actors.iter_mut().zip(cmds.drain(..)) {
                    watch.shard = *shard;
                    reports.push(actor.run_window(cmd));
                }
            } else {
                for (shard, actor) in actors.drain(..) {
                    watch.shard = shard;
                    finals.push(actor.finish());
                }
            }
        }
        // Fails only if the crew was dropped meanwhile (`STOP`).
        let handed_back = slot
            .state
            .compare_exchange(turn, COORD, Ordering::Release, Ordering::Relaxed)
            .is_ok();
        coordinator.unpark();
        if !handed_back || turn == FINISH {
            return;
        }
    }
}

/// The coordinator's side of one worker.
struct Worker<A: ShardActor> {
    slot: Arc<Slot<A>>,
    handle: JoinHandle<()>,
    /// The next batch, moved into the slot by swapping buffers.
    staged: Vec<A::Cmd>,
    /// The last window's reports, reversed so `pop` yields shard order.
    collected: Vec<A::Report>,
}

impl<A: ShardActor> Worker<A> {
    /// Hand the worker its turn; `turn` is `WINDOW` or `FINISH`.
    fn post(&mut self, turn: u8) {
        std::mem::swap(&mut self.slot.buffers().cmds, &mut self.staged);
        if self
            .slot
            .state
            .compare_exchange(COORD, turn, Ordering::Release, Ordering::Acquire)
            .is_err()
        {
            self.slot.died();
        }
        self.handle.thread().unpark();
    }
}

/// Runs `shards` shard actors window by window on `threads` threads, the
/// calling thread among them: shard `i` is built and run on the calling
/// thread when `i % threads == 0`, and on worker `i % threads` otherwise,
/// for its whole life. [`ShardCrew::run_windows`] is one barrier: it hands
/// each worker its batch, runs the calling thread's shards, and returns
/// every report in shard order. With `threads == 1` every shard runs on the
/// calling thread through the same per-shard calls, so the single-threaded
/// execution is the parallel algorithm, not a special case.
///
/// The crew stays on the thread that spawned it (its workers wake that
/// thread). Dropping it without [`ShardCrew::finish`] — say, while a shard's
/// panic unwinds — releases and joins the workers.
pub struct ShardCrew<A: ShardActor> {
    /// Shards `0, threads, 2·threads, …`, in shard order.
    own: Vec<A>,
    own_cmds: Vec<A::Cmd>,
    /// The coordinator's reports, reversed like [`Worker::collected`].
    own_reports: Vec<A::Report>,
    /// Worker `w` owns the shards with `i % threads == w + 1`.
    workers: Vec<Worker<A>>,
    shards: usize,
    threads: usize,
    _bound_to_spawning_thread: PhantomData<Rc<()>>,
}

impl<A: ShardActor> ShardCrew<A> {
    /// Spawn `threads - 1` workers (`threads` clamped to `1..=shards`) over
    /// `shards` shards. `build(i)` runs on the thread that owns shard `i` —
    /// the one place shard state is created — in ascending shard order per
    /// thread; the calling thread builds its own shards after spawning the
    /// workers, so all builds overlap.
    pub fn spawn<F>(shards: usize, threads: usize, build: F) -> ShardCrew<A>
    where
        F: Fn(usize) -> A + Send + Sync + 'static,
        A: 'static,
    {
        assert!(shards >= 1, "need at least one shard");
        let threads = threads.clamp(1, shards);
        let build = Arc::new(build);
        let coordinator = thread::current();
        let workers = (1..threads)
            .map(|residue| {
                let slot = Arc::new(Slot {
                    state: AtomicU8::new(COORD),
                    dead_shard: AtomicUsize::new(residue),
                    buffers: Mutex::new(Buffers {
                        cmds: Vec::new(),
                        reports: Vec::new(),
                        finals: Vec::new(),
                    }),
                });
                let handle = {
                    let slot = Arc::clone(&slot);
                    let build = Arc::clone(&build);
                    let coordinator = coordinator.clone();
                    let owned = (residue..shards).step_by(threads);
                    thread::spawn(move || serve(&slot, owned, &*build, &coordinator))
                };
                Worker {
                    slot,
                    handle,
                    staged: Vec::new(),
                    collected: Vec::new(),
                }
            })
            .collect();
        // Workers first, so a panicking build of the coordinator's own
        // shards drops the crew and releases them.
        let mut crew = ShardCrew {
            own: Vec::new(),
            own_cmds: Vec::new(),
            own_reports: Vec::new(),
            workers,
            shards,
            threads,
            _bound_to_spawning_thread: PhantomData,
        };
        for shard in (0..shards).step_by(threads) {
            crew.own.push(build(shard));
        }
        crew
    }

    /// Execute one window on every shard: `cmds[i]` goes to shard `i`.
    /// Blocks until all shards report (the barrier) and returns the reports
    /// in shard order regardless of worker scheduling. Panics, naming the
    /// shard, if a worker's shard panicked.
    pub fn run_windows(&mut self, cmds: Vec<A::Cmd>) -> Vec<A::Report> {
        assert_eq!(cmds.len(), self.shards, "one command per shard");
        for (shard, cmd) in cmds.into_iter().enumerate() {
            match shard % self.threads {
                0 => self.own_cmds.push(cmd),
                residue => self.workers[residue - 1].staged.push(cmd),
            }
        }
        for worker in &mut self.workers {
            worker.post(WINDOW);
        }
        for (actor, cmd) in self.own.iter_mut().zip(self.own_cmds.drain(..)) {
            self.own_reports.push(actor.run_window(cmd));
        }
        self.own_reports.reverse();
        for worker in &mut self.workers {
            std::mem::swap(
                &mut worker.slot.await_coord().reports,
                &mut worker.collected,
            );
            worker.collected.reverse();
        }
        let (own, workers) = (&mut self.own_reports, &mut self.workers);
        in_shard_order(self.shards, self.threads, |residue| match residue {
            0 => own.pop(),
            _ => workers[residue - 1].collected.pop(),
        })
    }

    /// End the run: every actor's [`ShardActor::finish`] result, in shard
    /// order. Joins the worker threads. Panics, naming the shard, if a
    /// worker's shard panicked.
    pub fn finish(mut self) -> Vec<A::Final> {
        for worker in &mut self.workers {
            worker.post(FINISH);
        }
        let mut own: Vec<A::Final> = self.own.drain(..).map(ShardActor::finish).collect();
        own.reverse();
        let mut theirs: Vec<Vec<A::Final>> = Vec::with_capacity(self.workers.len());
        for worker in &self.workers {
            let mut finals = std::mem::take(&mut worker.slot.await_coord().finals);
            finals.reverse();
            theirs.push(finals);
        }
        for worker in self.workers.drain(..) {
            worker
                .handle
                .join()
                .expect("shard worker exits after finishing");
        }
        in_shard_order(self.shards, self.threads, |residue| match residue {
            0 => own.pop(),
            _ => theirs[residue - 1].pop(),
        })
    }

    /// How many threads run shards, the calling thread included (the
    /// requested count clamped to the shard count — more threads than
    /// shards would only idle).
    pub fn effective_threads(&self) -> usize {
        self.threads
    }
}

/// Interleave the threads' results into shard order: `next(r)` pops the
/// next result of the thread owning residue `r` (its results reversed).
fn in_shard_order<T>(
    shards: usize,
    threads: usize,
    mut next: impl FnMut(usize) -> Option<T>,
) -> Vec<T> {
    (0..shards)
        .map(|shard| next(shard % threads).expect("every shard yields one result"))
        .collect()
}

impl<A: ShardActor> Drop for ShardCrew<A> {
    /// Release and join the workers of a crew that never reached
    /// [`ShardCrew::finish`]. A worker mid-window finishes it first.
    fn drop(&mut self) {
        for worker in &self.workers {
            worker.slot.state.store(STOP, Ordering::Release);
            worker.handle.thread().unpark();
        }
        for worker in self.workers.drain(..) {
            // A dead worker's panic was already reported (or is unwinding).
            let _ = worker.handle.join();
        }
    }
}
