//! # simcore — deterministic discrete-event simulation engine
//!
//! This crate provides the foundation every other crate in the workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a deterministic future-event list (a min-heap of same-instant
//!   runs) with stable FIFO tie-breaking,
//! * [`IdleOrder`] — idle and hard timeouts in last-touch order, one list
//!   per timeout: a touch is a move-to-tail, "next due" the minimum over heads,
//! * [`DeadlineIndex`] — the lazy keyed-deadline index behind due lists:
//!   exact O(1) "next due", no work on a forward touch,
//! * [`SlotIndex`] — an open-addressing index from an owner's keys to its
//!   record slots, 8 bytes a bucket, that never stores a key,
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
//!   [`shard_runner::ShardCrew`], which runs a share of the shards on the
//!   calling thread and hands the rest to workers through one reusable
//!   spin-then-park slot each, with deterministic barrier synchronization.
//!
//! Every simulation in this workspace is **deterministic** given `(config, seed)`:
//! each shard's event execution is single-threaded and pure; parallelism happens
//! across replicas ([`runner`]) or across shards between lookahead barriers
//! ([`shard_runner`]), never inside a shard's event stream (see DESIGN.md §7).

// The counting allocator is the one place that needs `unsafe`.
#![deny(unsafe_code)]

#[cfg(feature = "counting-alloc")]
#[allow(unsafe_code)]
pub mod alloc_count;
pub mod deadline;
pub mod dethash;
pub mod dist;
pub mod fnv;
mod queue;
pub mod rng;
pub mod runner;
pub mod shard_runner;
pub mod slot_index;
pub mod stats;
pub mod time;

pub use deadline::{DeadlineIndex, IdleOrder};
pub use dethash::DetHashMap;
pub use dist::DurationDist;
pub use fnv::{FnvStream, Lit, TraceSink};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use runner::{run_seeds, RunnerMeta};
pub use shard_runner::{ShardActor, ShardCrew};
pub use slot_index::SlotIndex;
pub use stats::{LogHistogram, Percentiles, TimeSeries};
pub use time::{SimDuration, SimTime};
