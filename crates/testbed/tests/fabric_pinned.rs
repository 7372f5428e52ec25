//! The distributed fabric's results, pinned.
//!
//! An FNV-1a digest over a canonical rendering of [`FabricResult`](testbed::fabric::FabricResult): every
//! request record, every deployment record, `lost` and
//! `deployments_per_site`, all instants in integer nanoseconds. The four
//! configurations are `FabricConfig::default()` and the three rows of
//! `bench --bin mobility` (seed 3: no roam, roam on two switches, roam on a
//! three-switch chain). A moved digest means the fabric's event order moved:
//! which switch saw which packet when, which PacketIn the controller
//! decided first, or in what order released requests drew server times. A
//! fifth configuration sends every request of the outer switches over the
//! trunks to the cloud.
//!
//! The digests were recorded while the fabric still ran an event loop of its
//! own, with every SYN pushed into its queue up front; they are the oracle
//! that the fabric on the shared ingress core keeps that behaviour.

use std::fmt::Write;

use simcore::{FnvStream, SimDuration, SimTime};
use testbed::fabric::FabricResult;
use testbed::{run_mobility, FabricConfig};

fn ns(t: SimTime) -> u64 {
    t.as_nanos()
}

fn span(phase: Option<(SimTime, SimTime)>) -> String {
    phase.map_or("-".into(), |(a, b)| format!("{}..{}", ns(a), ns(b)))
}

/// The canonical rendering the digest folds: one line per record.
fn render(r: &FabricResult) -> String {
    let mut out = String::new();
    for q in &r.records {
        writeln!(
            out,
            "req {} {} {} {} {}",
            ns(q.started),
            ns(q.finished),
            q.service,
            q.client,
            q.triggered_deployment
        )
        .unwrap();
    }
    for d in &r.deployments {
        let scale_up = d.scale_up.map_or("-".into(), |(a, b, c)| {
            format!("{}..{}..{}", ns(a), ns(b), ns(c))
        });
        writeln!(
            out,
            "dep {} {} {:?} {} {} {} {} {} {}",
            d.service,
            d.cluster.0,
            d.kind,
            ns(d.triggered_at),
            span(d.pull),
            span(d.create),
            scale_up,
            ns(d.ready_detected),
            d.waited
        )
        .unwrap();
    }
    writeln!(out, "lost {}", r.lost).unwrap();
    writeln!(out, "per_site {:?}", r.deployments_per_site).unwrap();
    out
}

fn digest(cfg: FabricConfig) -> u64 {
    FnvStream::hash_bytes(render(&run_mobility(cfg)).as_bytes())
}

#[test]
fn default_config_is_pinned() {
    assert_eq!(digest(FabricConfig::default()), 0x8374_dd62_e1e9_9287);
}

#[test]
fn mobility_no_roam_is_pinned() {
    let cfg = FabricConfig {
        roam_at: None,
        seed: 3,
        ..FabricConfig::default()
    };
    assert_eq!(digest(cfg), 0xed3f_fa63_5aad_8b5e);
}

#[test]
fn mobility_roam_two_switches_is_pinned() {
    let cfg = FabricConfig {
        seed: 3,
        ..FabricConfig::default()
    };
    assert_eq!(digest(cfg), 0xc4eb_82cd_71bb_dcba);
}

#[test]
fn mobility_roam_three_switch_chain_is_pinned() {
    let cfg = FabricConfig {
        switches: 3,
        seed: 3,
        roam_at: Some(SimDuration::from_secs(60)),
        ..FabricConfig::default()
    };
    assert_eq!(digest(cfg), 0x5d38_4a8b_2a5b_8c52);
}

/// A probe timeout no deployment can meet: every site deployment fails and
/// the requests go to the cloud behind switch 0, so the requests of switches
/// 1 and 2 cross the trunks hop by hop — the transit path the other four
/// configurations never take.
#[test]
fn cloud_fallback_over_the_trunks_is_pinned() {
    let mut cfg = FabricConfig {
        switches: 3,
        seed: 3,
        ..FabricConfig::default()
    };
    cfg.controller.probe_timeout = SimDuration::from_millis(30);
    assert_eq!(digest(cfg), 0xfc81_6dde_7688_042f);
}
