//! The executed-event counts of the single-controller drivers, pinned.
//!
//! `RunResult::metrics_trace` leaves `events_scheduled` out, so the testbed's
//! metrics hashes cannot see the event count; only the mesh hashes do. These
//! pins hold the count of each testbed run next to its metrics hash, and the
//! fabric's count (`fabric_pinned` holds its digest), so a change to how the
//! core queues or counts events — above all the wakeup chains it stores as
//! one entry with a copy count — shows here as a moved count even when every
//! behavioural pin holds. The runs:
//!
//! - the seed-42 cityscale tiers 1× and 10× (`BENCH_cityscale.json`);
//! - a cold Kubernetes site with idle scale-down and removal (`churn_k8s`'s
//!   controller settings), whose FlowMemory expiries keep wakeup chains
//!   alive through the run;
//! - idle scale-down with a probe timeout that a third of the deployments
//!   miss: a failed deployment sends its waiters to the cloud stamped at
//!   their decision instants, behind the clock, and with the horizon at zero
//!   those outputs land between the copies of a wakeup entry split in place;
//! - a proactive run, whose first wakeup is a setup-time push;
//! - the fabric sending every request to the cloud over its trunks.
//!
//! Recorded before wakeup chains were stored as one entry with a copy count,
//! when every copy ran as its own event.

use cluster::ClusterKind;
use simcore::{SimDuration, SimRng};
use testbed::{
    run_mobility, FabricConfig, PhaseSetup, PredictorKind, RunResult, ScenarioConfig, SiteSpec,
    Testbed,
};
use workload::{Trace, TraceConfig};

/// The cityscale sweep's scenario at `scale`, adjusted by `tweak`.
fn city(scale: usize, tweak: impl FnOnce(&mut ScenarioConfig)) -> RunResult {
    let mut rng = SimRng::seed_from_u64(42 ^ 0xB16F_1085);
    let trace = Trace::generate(TraceConfig::scaled(scale), &mut rng);
    let mut cfg = ScenarioConfig {
        seed: 42,
        clients: trace.config.clients,
        sites: vec![(
            SiteSpec::egs("egs-0").with_nodes(scale),
            ClusterKind::Docker,
        )],
        ..ScenarioConfig::default()
    };
    tweak(&mut cfg);
    Testbed::build(cfg, trace.service_addrs.clone()).run_trace(&trace)
}

fn pin(result: &RunResult, events: u64, hash: u64) {
    assert_eq!(
        (result.events_scheduled, result.metrics_hash()),
        (events, hash),
        "(events_scheduled, metrics_hash)"
    );
}

#[test]
fn cityscale_1x_is_pinned() {
    pin(&city(1, |_| {}), 8_124, 0x66cc_06e4_f4d2_6b1a);
}

#[test]
fn cityscale_10x_is_pinned() {
    pin(&city(10, |_| {}), 86_660, 0x64dc_7dbb_7d73_4fb1);
}

#[test]
fn scale_down_and_remove_is_pinned() {
    let result = city(1, |cfg| {
        cfg.sites = vec![(SiteSpec::egs("egs-0"), ClusterKind::Kubernetes)];
        cfg.phase_setup = PhaseSetup::Cold;
        cfg.controller.scale_down_idle = true;
        cfg.controller.memory_idle_timeout = SimDuration::from_secs(30);
        cfg.controller.remove_after = Some(SimDuration::from_secs(60));
    });
    assert!(result.scale_downs > 0 && result.removes > 0);
    pin(&result, 123_443, 0xea89_fd19_ee6e_a4ff);
}

#[test]
fn failed_deployments_falling_back_to_the_cloud_are_pinned() {
    let result = city(1, |cfg| {
        cfg.controller.probe_timeout = SimDuration::from_millis(100);
        cfg.controller.scale_down_idle = true;
        cfg.controller.memory_idle_timeout = SimDuration::from_secs(30);
        cfg.controller.remove_after = Some(SimDuration::from_secs(60));
    });
    assert!(result.cloud_forwards > 0, "some deployments fail");
    pin(&result, 48_092, 0x7ed1_66f5_b90d_f01f);
}

#[test]
fn proactive_deployment_is_pinned() {
    let result = city(1, |cfg| {
        cfg.predictor = PredictorKind::Popularity;
        cfg.controller.scale_down_idle = true;
        cfg.controller.memory_idle_timeout = SimDuration::from_secs(30);
    });
    assert!(result.proactive_deployments > 0);
    pin(&result, 40_674, 0x2e4b_84db_115a_596a);
}

#[test]
fn fabric_cloud_fallback_over_the_trunks_is_pinned() {
    let mut cfg = FabricConfig {
        switches: 3,
        seed: 3,
        ..FabricConfig::default()
    };
    cfg.controller.probe_timeout = SimDuration::from_millis(30);
    assert_eq!(run_mobility(cfg).events_scheduled, 693);
}
