//! Bring-up is written once (`testbed::bringup`), so every engine's
//! controller starts from the same books.

use cluster::{ClusterKind, SiteCapacity};
use edgectl::ClusterId;
use testbed::{MeshParams, PhaseSetup, ScenarioConfig, SiteSpec, Testbed};

/// The shared bring-up books `PhaseSetup::Running` replicas on every
/// controller that sees them: a mesh shard ends bring-up with the same site
/// allocation as the single-controller testbed, so a finite `SiteCapacity`
/// admits no more replicas than the site has. (Before the bring-up was
/// shared the mesh engines pre-warmed without booking.)
#[test]
fn mesh_shard_books_prewarmed_replicas_like_the_testbed() {
    let capacity = SiteCapacity {
        max_replicas: 64,
        ..SiteCapacity::new(24_000, 64 << 10)
    };
    let cfg = ScenarioConfig {
        seed: 9,
        phase_setup: PhaseSetup::Running,
        sites: vec![
            (
                SiteSpec::egs("near").with_capacity(capacity),
                ClusterKind::Docker,
            ),
            (SiteSpec::egs("far"), ClusterKind::Kubernetes),
        ],
        prewarm_sites: Some(vec![0]),
        mesh: MeshParams {
            shards: 2,
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    };
    let trace = testbed::generate_workload(&cfg);
    let single = Testbed::build(cfg.clone(), trace.service_addrs.clone());
    let expected: Vec<_> = (0..2)
        .map(|site| single.controller().site_allocation(ClusterId(site)))
        .collect();
    assert_eq!(
        expected[0].replicas as usize,
        trace.service_addrs.len(),
        "one running replica per service on the pre-warmed site: {expected:?}"
    );
    assert_eq!(expected[1].replicas, 0, "site 1 is not pre-warmed");
    for shard in 0..2 {
        assert_eq!(
            edgemesh::par::shard_site_allocations(&cfg, &trace, shard),
            expected,
            "shard {shard}"
        );
    }
}
