//! # edgemesh — multi-controller federation for the transparent edge
//!
//! The paper's architecture runs **one** SDN controller on the EGS; every
//! ingress switch sends its table misses there. A city-scale deployment
//! cannot: PacketIn fan-in saturates a single control plane long before the
//! data plane does. This crate shards the fabric's ingress across `N`
//! controller instances — each running the unmodified `edgectl` dispatcher
//! state machine over its own ingress switch — and connects them with two
//! deterministic coordination mechanisms:
//!
//! * **Deployment leases** ([`lease`]) — a lease table modelling a
//!   linearizable coordination service (etcd-style, as every production SDN
//!   controller cluster already runs one). Before a controller starts a
//!   deployment machine for `(cluster, service)` it must hold the lease;
//!   a loser shard falls back to the paper's *without-waiting* strategy
//!   (serve from cloud/FAST now) and retargets its flows when the holder's
//!   `Ready` delta arrives. This closes the classic split-brain window in
//!   which two controllers concurrently observe a PacketIn for the same
//!   undeployed service and both deploy it.
//! * **Delta gossip** — per-`(service, cluster)` instance-status deltas
//!   (`Ready`/`Gone`) drained from each controller after every event and
//!   delivered to every other shard after a configurable link latency. Loss
//!   is pre-rolled at send time from a dedicated RNG stream, so a lossy mesh
//!   replays byte-identically under the same seed.
//!
//! Two engines execute the federation:
//!
//! * [`par`] — the **windowed parallel engine** (the default for
//!   `shards >= 2`): thread-per-shard conservative PDES with deterministic
//!   lookahead windows. Each shard is one `testbed::ingress::IngressShard` —
//!   the same switch / controller / event-queue core the single-controller
//!   testbed runs to completion — driven to each window end on one worker
//!   thread; everything cross-shard exchanges at window barriers in one
//!   canonical merge order, so the mesh trace hash is byte-identical for any
//!   thread count.
//! * [`mod@reference`] — the original interleaved single-event-loop engine, kept
//!   as the executable specification the parallel engine is held equivalent
//!   to by the model-based lockstep test. It keeps its own event loop — the
//!   only statement of the cross-shard protocol that is independent of the
//!   window machinery — and shares only the bring-up (`testbed::bringup`).
//!
//! `shards = 1` bypasses both and delegates to the plain
//! [`testbed::Testbed`], so every pinned single-controller trace stays
//! byte-identical ([`MeshRunResult::mesh_hash`] then equals
//! `RunResult::metrics_hash`).
//!
//! Configuration rides on [`testbed::MeshParams`] (the `mesh:` block of
//! scenario YAML, including the `threads` knob); the mesh-coherence static
//! checks live in `edgeverify::Verifier::check_mesh`.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod lease;
pub mod par;
pub mod reference;
pub mod result;
pub mod shared;

pub use lease::{LeaseHandle, LeaseTable};
pub use par::{run_windowed, run_windowed_audited, validate_threads, ThreadsExceedShards};
pub use reference::MeshSim;
pub use result::{MeshRecord, MeshRunResult, ShardSummary};
pub use shared::{SharedBackend, SharedHandle};

use edgeverify::{ContinuityView, Violation};
use testbed::{ScenarioConfig, Testbed};
use workload::Trace;

/// Run a trace under a scenario, honouring `cfg.mesh.shards` and
/// `cfg.mesh.threads`: one shard is the plain single-controller
/// [`testbed::Testbed`] (byte-identical to every pinned trace), two or more
/// run the windowed parallel engine ([`par::run_windowed`]).
pub fn run_mesh_scenario(cfg: ScenarioConfig, trace: &Trace) -> MeshRunResult {
    if cfg.mesh.shards <= 1 {
        let testbed = Testbed::build(cfg, trace.service_addrs.clone());
        return MeshRunResult::from_single(testbed.run_trace(trace));
    }
    let threads = cfg.mesh.threads;
    par::run_windowed(cfg, trace, threads)
}

/// Generate `cfg`'s workload (its `workload:` block — arrival model, mix,
/// mobility) and run it through [`run_mesh_scenario`]. Generation goes
/// through `testbed::generate_workload`, the same path as
/// `testbed::run_bigflows`, so `shards = 1` replays that run exactly.
pub fn run_mesh_bigflows(cfg: ScenarioConfig) -> (Trace, MeshRunResult) {
    let trace = bigflows_trace(&cfg);
    let result = run_mesh_scenario(cfg, &trace);
    (trace, result)
}

/// [`run_mesh_bigflows`] with the mesh-coherence audit riding along — the
/// `edgesim verify` entry point for `mesh:` scenarios. Requires
/// `cfg.mesh.shards >= 2`.
pub fn run_mesh_bigflows_audited(cfg: ScenarioConfig) -> (Trace, MeshRunResult, Vec<Violation>) {
    assert!(
        cfg.mesh.shards >= 2,
        "single-shard scenarios audit through the plain testbed path"
    );
    let trace = bigflows_trace(&cfg);
    let threads = cfg.mesh.threads;
    let (result, violations) = par::run_windowed_audited(cfg, &trace, threads);
    (trace, result, violations)
}

fn bigflows_trace(cfg: &ScenarioConfig) -> Trace {
    testbed::generate_workload(cfg)
}

/// Build the session-continuity accounting for a multi-shard run: per-tag
/// completion counts from the completion records plus the loss ledger, ready
/// for [`edgeverify::Verifier::check_continuity`]. Returns `None` for the
/// `shards = 1` delegation (the plain testbed keeps no per-tag ledger — its
/// single event loop cannot blackhole a session across a handover, the
/// failure mode the analysis exists for).
pub fn continuity_view(trace: &Trace, result: &MeshRunResult) -> Option<ContinuityView> {
    if result.single.is_some() {
        return None;
    }
    Some(continuity_view_parts(
        trace,
        &result.records,
        &result.lost_tags,
    ))
}

pub(crate) fn continuity_view_parts(
    trace: &Trace,
    records: &[MeshRecord],
    lost_tags: &[u64],
) -> ContinuityView {
    let mut completions = vec![0u32; trace.requests.len()];
    for r in records {
        if let Some(c) = completions.get_mut(r.tag as usize) {
            *c += 1;
        }
    }
    ContinuityView {
        clients: trace.requests.iter().map(|r| r.client as u32).collect(),
        completions,
        lost: lost_tags.to_vec(),
    }
}
