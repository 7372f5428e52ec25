//! Routing every client of a city-scale C³ topology to every place a request
//! can be served (the cloud and each edge site): one shortest-path tree per
//! host, then two array reads per (client, host) pair. Rows at 2 000 and
//! 20 000 clients — the cost should grow with clients, not with clients ×
//! a search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simcore::SimDuration;
use testbed::topology::SiteSpec;
use testbed::C3Topology;

fn sites() -> Vec<SiteSpec> {
    vec![
        SiteSpec::pi("near", SimDuration::from_micros(300)),
        SiteSpec::egs("mid"),
        SiteSpec {
            latency: SimDuration::from_millis(8),
            ..SiteSpec::egs("far")
        },
    ]
}

fn bench_all_client_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    for clients in [2_000usize, 20_000] {
        let c3 = C3Topology::build_sites(&sites(), clients);
        group.bench_with_input(
            BenchmarkId::new("all_client_paths", clients),
            &c3,
            |b, c3| {
                b.iter(|| {
                    let mut rtt_ns = 0u64;
                    let mut narrowest = u64::MAX;
                    for tree in c3.host_trees() {
                        for &client in &c3.clients {
                            let latency = tree.latency(client).expect("client reaches host");
                            rtt_ns += 2 * latency.as_nanos();
                            narrowest =
                                narrowest.min(tree.bottleneck_bps(client).expect("reachable"));
                        }
                    }
                    std::hint::black_box((rtt_ns, narrowest))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_all_client_paths);
criterion_main!(benches);
