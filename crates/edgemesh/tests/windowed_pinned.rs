//! The windowed mesh engine's results, pinned.
//!
//! An FNV-1a digest over a canonical rendering of what
//! [`edgemesh::run_windowed_audited`] produces: every [`MeshRunResult`] field
//! that states the protocol's outcome, every [`MeshRecord`], the loss ledger,
//! every [`ShardSummary`] and the audit's violations, all instants in integer
//! nanoseconds. Records are rendered in `(released, shard, tag)` order. Left
//! out are the fields that describe the engine rather than the protocol:
//! `threads`, `windows`, `stalls` and `events`. So one constant holds at
//! every thread count, and each scenario is asserted at threads 1 and 2.
//!
//! The scenarios: a lossy WAN (seed 3), idle scale-down and remove churn
//! (seed 42), four shards racing one cold service with and without leases,
//! bigflows (seed 11) and poisson (seed 12) runs with two handovers per
//! client, a handover that ties with a SYN, and a mesh with zero link
//! latency. A moved digest means the protocol's outcome moved: which shard
//! deployed what when, which delivery was lost, which request was served
//! through which port.

use std::fmt::Write;

use edgemesh::{MeshRecord, MeshRunResult, ShardSummary};
use edgeverify::Violation;
use simcore::{FnvStream, SimDuration, SimRng, SimTime};
use simnet::{IpAddr, SocketAddr};
use testbed::{MeshParams, ScenarioConfig};
use workload::mobility::Handover;
use workload::{Trace, TraceConfig, TraceRequest, WorkloadConfig};

/// The canonical rendering the digest folds.
fn render(r: &MeshRunResult, violations: &[Violation]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "shards={} leases={} completed={} lost={} deployments={} duplicates={} \
         avoided={} revocations={} deltas_sent={} deltas_lost={} deliveries={} \
         staleness_ns={} convergence_ns={} converged={} scale_downs={} removes={} \
         retargets={} handovers={} single={}",
        r.shards,
        r.leases,
        r.completed,
        r.lost,
        r.deployments,
        r.duplicate_deployments,
        r.duplicate_deployments_avoided,
        r.lease_revocations,
        r.deltas_sent,
        r.deltas_lost,
        r.delta_deliveries,
        r.staleness_ns_total,
        r.convergence_ns_total,
        r.converged_deltas,
        r.scale_downs,
        r.removes,
        r.retargets,
        r.handovers,
        r.single.is_some(),
    )
    .unwrap();
    for (i, s) in r.shard_stats.iter().enumerate() {
        let ShardSummary {
            deployments,
            memory_hits,
            cloud_forwards,
            held_requests,
            detoured_requests,
            retargets,
            scale_downs,
            removes,
            lease_rejections,
            lease_revocations,
            remote_deltas,
        } = s;
        writeln!(
            out,
            "shard {i} {deployments} {memory_hits} {cloud_forwards} {held_requests} \
             {detoured_requests} {retargets} {scale_downs} {removes} {lease_rejections} \
             {lease_revocations} {remote_deltas}"
        )
        .unwrap();
    }
    let mut records: Vec<MeshRecord> = r.records.clone();
    records.sort_by_key(|q| (q.released, q.shard, q.tag));
    for q in &records {
        writeln!(
            out,
            "req {} {} {} {}",
            q.tag,
            q.shard,
            q.released.as_nanos(),
            q.port
        )
        .unwrap();
    }
    writeln!(out, "lost_tags {:?}", r.lost_tags).unwrap();
    for v in violations {
        writeln!(out, "violation {v:?}").unwrap();
    }
    out
}

/// Run `trace` at threads 1 and 2 and return the one digest both give.
fn digest(cfg: ScenarioConfig, trace: &Trace) -> u64 {
    let at = |threads| {
        let (result, violations) = edgemesh::run_windowed_audited(cfg.clone(), trace, threads);
        FnvStream::hash_bytes(render(&result, &violations).as_bytes())
    };
    let one = at(1);
    assert_eq!(one, at(2), "1 vs 2 threads");
    one
}

/// The bigflows mix over 20 clients.
fn bigflows(seed: u64) -> Trace {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xB16F_1085);
    Trace::generate(
        TraceConfig {
            clients: 20,
            ..TraceConfig::default()
        },
        &mut rng,
    )
}

/// Every client asks for the same cold service at the same instant.
fn contention_trace() -> Trace {
    let config = TraceConfig {
        services: 1,
        total_requests: 8,
        clients: 8,
        min_per_service: 1,
        ..TraceConfig::default()
    };
    Trace {
        requests: (0..8)
            .map(|client| TraceRequest {
                at: SimTime::ZERO,
                service: 0,
                client,
            })
            .collect(),
        service_addrs: vec![SocketAddr::new(IpAddr::new(93, 184, 1, 1), 80)],
        config,
        handovers: Vec::new(),
    }
}

fn contention_cfg(leases: bool) -> ScenarioConfig {
    ScenarioConfig {
        seed: 7,
        clients: 8,
        mesh: MeshParams {
            shards: 4,
            leases,
            link_latency: SimDuration::from_millis(100),
            gossip_interval: SimDuration::from_millis(20),
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    }
}

/// Two handovers per client on average.
fn mobile_trace(seed: u64, model: &str) -> Trace {
    let wl = WorkloadConfig {
        model: model.into(),
        handovers_per_client: 2.0,
        mix: TraceConfig::default(),
        ..WorkloadConfig::default()
    };
    wl.generate(&mut SimRng::seed_from_u64(seed ^ 0xB16F_1085))
        .expect("builtin model")
}

fn mesh_cfg(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        mesh: MeshParams {
            shards: 2,
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    }
}

#[test]
fn lossy_wan_is_pinned() {
    let cfg = ScenarioConfig {
        seed: 3,
        mesh: MeshParams {
            shards: 2,
            link_latency: SimDuration::from_micros(5000),
            loss: 0.1,
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    };
    assert_eq!(digest(cfg, &bigflows(3)), 0x9287_d8d0_8059_d42e);
}

#[test]
fn churn_is_pinned() {
    let mut cfg = mesh_cfg(42);
    cfg.controller.scale_down_idle = true;
    cfg.controller.memory_idle_timeout = SimDuration::from_secs(30);
    cfg.controller.remove_after = Some(SimDuration::from_secs(60));
    assert_eq!(digest(cfg, &bigflows(42)), 0x4016_ced9_4cb3_6068);
}

#[test]
fn contention_with_leases_is_pinned() {
    assert_eq!(
        digest(contention_cfg(true), &contention_trace()),
        0xf811_efef_6c13_3f99
    );
}

#[test]
fn contention_without_leases_is_pinned() {
    assert_eq!(
        digest(contention_cfg(false), &contention_trace()),
        0x65a1_35d5_37da_1d04
    );
}

#[test]
fn mobile_bigflows_is_pinned() {
    assert_eq!(
        digest(mesh_cfg(11), &mobile_trace(11, "bigflows")),
        0x353c_50b4_05f0_96ec
    );
}

#[test]
fn mobile_poisson_is_pinned() {
    assert_eq!(
        digest(mesh_cfg(12), &mobile_trace(12, "poisson")),
        0xf362_9642_1756_a8e8
    );
}

/// Client 0's third request reaches the departing shard's switch at the
/// instant of its handover.
#[test]
fn handover_tie_is_pinned() {
    let cfg = ScenarioConfig {
        clients: 2,
        ..mesh_cfg(5)
    };
    let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    let handover_at = at(20_000);
    let access = testbed::bringup::topology(&cfg).client_switch_latency(0);
    let request = |at, client| TraceRequest {
        at,
        service: 0,
        client,
    };
    let trace = Trace {
        requests: vec![
            request(at(1_000), 0),
            request(at(2_000), 1),
            request(handover_at - access, 0),
            request(at(30_000), 0),
        ],
        service_addrs: vec![SocketAddr::new(IpAddr::new(93, 184, 1, 1), 80)],
        config: TraceConfig {
            services: 1,
            total_requests: 4,
            clients: 2,
            min_per_service: 1,
            ..TraceConfig::default()
        },
        handovers: vec![Handover {
            at: handover_at,
            client: 0,
        }],
    };
    assert_eq!(digest(cfg, &trace), 0xb7ad_6d63_ae21_9f0a);
}

/// Zero link latency: a delta drained at `t` is due at `t` on every peer.
/// The windowed engine runs 1 ns windows and clamps each delivery to the
/// barrier, the one setting where that clamp does any work. Every request
/// is accounted for and the audit is clean.
#[test]
fn zero_link_latency_runs_to_completion() {
    let trace = bigflows(4);
    let cfg = ScenarioConfig {
        seed: 4,
        mesh: MeshParams {
            shards: 2,
            link_latency: SimDuration::ZERO,
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    };
    let (r, violations) = edgemesh::run_windowed_audited(cfg.clone(), &trace, 2);
    assert_eq!(r.completed + r.lost, trace.requests.len() as u64);
    assert_eq!(r.duplicate_deployments, 0);
    assert!(r.delta_deliveries > 0, "no gossip crossed the link");
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(digest(cfg, &trace), 0x80f2_b7ad_d5a2_dd23);
}
