//! Routing cost is counted, not timed: however many clients a topology has
//! and however many requests a run releases, the shortest-path searches are
//! the switch's tree plus one tree per host. A per-pair (or per-request)
//! search creeping back in fails here, in `cargo test`, not only in the
//! benchmark.

use cluster::ClusterKind;
use simcore::{SimDuration, SimRng};
use testbed::topology::SiteSpec;
use testbed::{run_trace_scenario, C3Topology, ScenarioConfig};
use workload::{Trace, TraceConfig};

fn three_tiers() -> Vec<SiteSpec> {
    vec![
        SiteSpec::pi("near", SimDuration::from_micros(300)),
        SiteSpec::egs("mid"),
        SiteSpec {
            latency: SimDuration::from_millis(8),
            ..SiteSpec::egs("far")
        },
    ]
}

#[test]
fn twenty_thousand_clients_route_over_one_tree_per_host() {
    let sites = three_tiers();
    let c3 = C3Topology::build_sites(&sites, 20_000);
    assert_eq!(c3.net.searches(), 1, "the switch's tree, built once");

    let trees = c3.host_trees();
    assert_eq!(trees.len(), 1 + sites.len());
    let access = SimDuration::from_micros(200);
    for (i, &client) in c3.clients.iter().enumerate() {
        assert_eq!(c3.client_switch_latency(i), access);
        // Cloud first, then the sites in order.
        let cloud = trees[0].latency(client).expect("client reaches the cloud");
        assert_eq!(cloud, access + c3.switch_cloud_latency());
        for (s, tree) in trees[1..].iter().enumerate() {
            assert_eq!(tree.root(), c3.site_hosts[s]);
            let to_site = tree.latency(client).expect("client reaches the site");
            assert_eq!(to_site, access + c3.switch_site_latency(s));
            assert_eq!(
                tree.bottleneck_bps(client),
                Some(sites[s].bandwidth_bps.min(1_000_000_000))
            );
        }
    }
    assert_eq!(
        c3.net.searches(),
        1 + (1 + sites.len() as u64),
        "80 000 client → host queries and 20 000 access latencies ran no search"
    );

    // The trees say what a per-pair search says.
    let (client, host) = (c3.clients[12_345], c3.site_hosts[2]);
    assert_eq!(trees[3].path(client), c3.net.path(client, host));
}

#[test]
fn a_two_thousand_client_run_builds_no_more() {
    let trace_cfg = TraceConfig {
        services: 60,
        total_requests: 6_000,
        duration: SimDuration::from_secs(120),
        min_per_service: 5,
        clients: 2_000,
        ..TraceConfig::default()
    };
    let trace = Trace::generate(trace_cfg, &mut SimRng::seed_from_u64(7));
    let sites = three_tiers();
    let scenario = ScenarioConfig {
        clients: 2_000,
        seed: 7,
        sites: sites
            .iter()
            .map(|s| (s.clone().with_nodes(8), ClusterKind::Docker))
            .collect(),
        ..ScenarioConfig::default()
    };
    let result = run_trace_scenario(scenario, &trace);
    assert_eq!(result.records.len() + result.lost as usize, 6_000);
    assert_eq!(
        result.routing_searches,
        1 + (1 + sites.len() as u64),
        "6 000 released requests from 2 000 clients: the switch's tree and one per host"
    );
}
