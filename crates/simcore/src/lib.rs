//! # simcore — deterministic discrete-event simulation engine
//!
//! This crate provides the foundation every other crate in the workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a deterministic future-event list with stable FIFO tie-breaking
//!   and O(log n) cancellation,
//! * [`IdleOrder`] — idle timeouts in last-touch order, one list per
//!   timeout: a touch is a move-to-tail, "next due" the minimum over heads,
//! * [`DeadlineIndex`] — the lazy keyed-deadline index behind hard timeouts
//!   and due lists: exact O(1) "next due", no work on a forward touch,
//! * [`rng::SimRng`] — a splittable, seedable random-number generator with *named
//!   streams*, so adding a new consumer of randomness never perturbs existing ones,
//! * [`dist`] — the distributions used to model service times, link jitter and
//!   workload arrival processes,
//! * [`stats`] — streaming summaries, percentile estimation and time-binned counters
//!   used by the benchmark harness,
//! * [`runner`] — a crossbeam-based fan-out runner that executes many independent
//!   (seed, config) simulation replicas in parallel and returns results in seed order,
//! * [`shard_runner`] — conservative-PDES window execution *within* one replica:
//!   the [`shard_runner::ShardActor`] contract and the
//!   [`shard_runner::ShardCrew`] thread-per-shard pool with deterministic
//!   barrier synchronization.
//!
//! Every simulation in this workspace is **deterministic** given `(config, seed)`:
//! each shard's event execution is single-threaded and pure; parallelism happens
//! across replicas ([`runner`]) or across shards between lookahead barriers
//! ([`shard_runner`]), never inside a shard's event stream (see DESIGN.md §7).

#[cfg(feature = "counting-alloc")]
pub mod alloc_count;
pub mod deadline;
pub mod dethash;
pub mod dist;
pub mod fnv;
pub mod queue;
pub mod rng;
pub mod runner;
pub mod shard_runner;
pub mod stats;
pub mod time;

pub use deadline::{DeadlineIndex, IdleOrder};
pub use dethash::{det_map_with_capacity, det_set_with_capacity, DetHashMap, DetHashSet};
pub use dist::{Dist, DurationDist};
pub use fnv::FnvStream;
pub use queue::{EventId, EventQueue};
pub use rng::SimRng;
pub use runner::{run_seeds, run_seeds_meta, RunnerMeta};
pub use shard_runner::{ShardActor, ShardCrew};
pub use stats::{LogHistogram, Percentiles, Summary, TimeSeries};
pub use time::{SimDuration, SimTime};
