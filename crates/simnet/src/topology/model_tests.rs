//! Property tests of the topology's shortest-path routing against a
//! Floyd–Warshall reference on random graphs, and of the per-destination
//! [`PathTree`]s against the per-pair [`Topology::path`] they replace on
//! every hot path.

use crate::topology::NodeId;
use crate::topology::{PathTree, Topology};
use proptest::prelude::*;
use simcore::SimDuration;

/// A random graph: n nodes, a spanning chain (for connectivity on a subset)
/// plus random extra edges.
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, u64)>)> {
    (3usize..12).prop_flat_map(|n| {
        let extra = prop::collection::vec((0..n, 0..n, 1u64..10_000), 0..20);
        (Just(n), extra)
    })
}

fn build(n: usize, edges: &[(usize, usize, u64)]) -> (Topology, Vec<NodeId>) {
    let mut t = Topology::new();
    let nodes: Vec<_> = (0..n).map(|_| t.add_node()).collect();
    for &(a, b, w) in edges {
        if a != b {
            t.add_link(
                nodes[a],
                nodes[b],
                SimDuration::from_micros(w),
                1_000_000_000,
            );
        }
    }
    (t, nodes)
}

/// Floyd–Warshall over the same edge list (µs weights).
fn reference(n: usize, edges: &[(usize, usize, u64)]) -> Vec<Vec<u64>> {
    const INF: u64 = u64::MAX / 4;
    let mut d = vec![vec![INF; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for &(a, b, w) in edges {
        if a != b {
            d[a][b] = d[a][b].min(w);
            d[b][a] = d[b][a].min(w);
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k].saturating_add(d[k][j]);
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dijkstra_matches_floyd_warshall((n, edges) in graph_strategy()) {
        const INF: u64 = u64::MAX / 4;
        let (topo, nodes) = build(n, &edges);
        let want = reference(n, &edges);
        for i in 0..n {
            for j in 0..n {
                let got = topo.latency(nodes[i], nodes[j]);
                if want[i][j] >= INF {
                    prop_assert!(got.is_none(), "{i}->{j} should be unreachable");
                } else {
                    let got = got.expect("reachable").as_nanos() / 1_000;
                    prop_assert_eq!(got, want[i][j], "{}->{}", i, j);
                }
            }
        }
    }

    #[test]
    fn path_hops_are_adjacent_and_latencies_sum((n, edges) in graph_strategy()) {
        let (topo, nodes) = build(n, &edges);
        for i in 0..n {
            for j in 0..n {
                let Some(path) = topo.path(nodes[i], nodes[j]) else { continue };
                prop_assert_eq!(*path.hops.first().unwrap(), nodes[i]);
                prop_assert_eq!(*path.hops.last().unwrap(), nodes[j]);
                // consecutive hops are joined by a link, and per-hop latencies
                // sum to the reported total
                let mut sum = 0u64;
                for w in path.hops.windows(2) {
                    let hop_lat = topo
                        .neighbors(w[0])
                        .filter(|&(nb, _)| nb == w[1])
                        .map(|(_, l)| topo.link_latency(l).as_nanos() / 1_000)
                        .min();
                    let hop_lat = hop_lat.expect("hops must be adjacent");
                    sum += hop_lat;
                }
                prop_assert_eq!(sum, path.latency.as_nanos() / 1_000);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shortest-path trees: one search per destination must answer every source
// exactly like a per-pair search.
// ---------------------------------------------------------------------------

/// A link of a generated graph: endpoints, latency in µs, bandwidth in bps.
type Edge = (usize, usize, u64, u64);

/// A connected random graph: a spanning chain plus extra edges. Latencies
/// are small and bandwidths come from four values, so equal-latency
/// alternatives with different bottlenecks are common.
fn connected_graph_strategy() -> impl Strategy<Value = (usize, Vec<Edge>)> {
    let latency = || prop_oneof![3 => 1u64..6, 1 => 1u64..10_000];
    let bandwidth = || {
        prop_oneof![
            Just(100_000_000u64),
            Just(1_000_000_000),
            Just(2_500_000_000),
            Just(10_000_000_000),
        ]
    };
    (3usize..12).prop_flat_map(move |n| {
        let chain = prop::collection::vec((latency(), bandwidth()), n - 1..n);
        let extra = prop::collection::vec((0..n, 0..n, latency(), bandwidth()), 0..20);
        (Just(n), chain, extra).prop_map(|(n, chain, extra)| {
            let mut edges: Vec<Edge> = chain
                .into_iter()
                .enumerate()
                .map(|(i, (w, bw))| (i, i + 1, w, bw))
                .collect();
            edges.extend(extra.into_iter().filter(|&(a, b, ..)| a != b));
            (n, edges)
        })
    })
}

fn build_edges(n: usize, edges: &[Edge]) -> (Topology, Vec<NodeId>) {
    let mut t = Topology::new();
    let nodes: Vec<_> = (0..n).map(|_| t.add_node()).collect();
    for &(a, b, w, bw) in edges {
        t.add_link(nodes[a], nodes[b], SimDuration::from_micros(w), bw);
    }
    (t, nodes)
}

/// What an exhaustive walk over the shortest-path DAG toward `dst` says about
/// `src`: the widest bottleneck among the shortest paths, and how many
/// distinct hop sequences they have. `dist` is the Floyd–Warshall matrix.
fn widest_and_count(src: usize, dst: usize, edges: &[Edge], dist: &[Vec<u64>]) -> (u64, usize) {
    if src == dst {
        return (u64::MAX, 1);
    }
    let n = dist.len();
    let mut widest = 0;
    let mut count = 0;
    for next in 0..n {
        // The widest link src → next that lies on a shortest path.
        let link = edges
            .iter()
            .filter(|&&(a, b, w, _)| {
                ((a, b) == (src, next) || (b, a) == (src, next))
                    && w + dist[next][dst] == dist[src][dst]
            })
            .map(|&(.., bw)| bw)
            .max();
        if let Some(bw) = link {
            let (onward, paths) = widest_and_count(next, dst, edges, dist);
            widest = widest.max(bw.min(onward));
            count += paths;
        }
    }
    (widest, count)
}

/// Every tree answer against the per-pair search and the exhaustive walk.
fn trees_agree_with_paths(
    topo: &Topology,
    nodes: &[NodeId],
    edges: &[Edge],
    trees: &[PathTree],
) -> Result<(), String> {
    let n = nodes.len();
    let unit: Vec<(usize, usize, u64)> = edges.iter().map(|&(a, b, w, _)| (a, b, w)).collect();
    let dist = reference(n, &unit);
    for (j, tree) in trees.iter().enumerate() {
        for i in 0..n {
            let want = topo.path(nodes[i], nodes[j]).expect("connected");
            let got = tree.path(nodes[i]).ok_or(format!("{i}->{j} unreachable"))?;
            let (widest, shortest_paths) = widest_and_count(i, j, edges, &dist);
            if got.latency != want.latency || got.latency.as_nanos() / 1_000 != dist[i][j] {
                return Err(format!("{i}->{j} latency {:?}", got.latency));
            }
            if got.bottleneck_bps != want.bottleneck_bps || got.bottleneck_bps != widest {
                return Err(format!(
                    "{i}->{j} bottleneck: tree {}, path {}, walk {widest}",
                    got.bottleneck_bps, want.bottleneck_bps
                ));
            }
            if tree.latency(nodes[i]) != Some(got.latency)
                || tree.bottleneck_bps(nodes[i]) != Some(got.bottleneck_bps)
            {
                return Err(format!("{i}->{j} scalar accessors disagree with path()"));
            }
            if shortest_paths == 1 && got.hops != want.hops {
                return Err(format!("{i}->{j} hops {:?} != {:?}", got.hops, want.hops));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Latency and bottleneck always, hops whenever the shortest path is
    /// unique — before and after the graph changes under the trees.
    #[test]
    fn trees_match_per_pair_paths(
        (n, edges) in connected_graph_strategy(),
        shortcut in (0usize..12, 0usize..12, 1u64..4),
    ) {
        let (mut topo, nodes) = build_edges(n, &edges);
        let trees: Vec<_> = nodes.iter().map(|&dst| topo.tree_to(dst)).collect();
        prop_assert_eq!(topo.searches(), n as u64, "one search per destination");
        trees_agree_with_paths(&topo, &nodes, &edges, &trees).map_err(TestCaseError)?;

        // A tree is a snapshot: mutate the graph, rebuild, compare again.
        let (a, b, w) = (shortcut.0 % n, shortcut.1 % n, shortcut.2);
        if a != b {
            let mut edges = edges.clone();
            edges.push((a, b, w, 10_000_000_000));
            topo.add_link(nodes[a], nodes[b], SimDuration::from_micros(w), 10_000_000_000);
            let rebuilt: Vec<_> = nodes.iter().map(|&dst| topo.tree_to(dst)).collect();
            trees_agree_with_paths(&topo, &nodes, &edges, &rebuilt).map_err(TestCaseError)?;
        }
    }
}

/// Mutation: skip the rebuild after the graph changed and the comparison
/// fails — the stale tree still routes the long way round.
#[test]
fn a_tree_kept_across_a_topology_change_is_caught() {
    let mut edges: Vec<Edge> = vec![(0, 1, 10, 1_000_000_000), (1, 2, 10, 1_000_000_000)];
    let (mut topo, nodes) = build_edges(3, &edges);
    let trees: Vec<_> = nodes.iter().map(|&dst| topo.tree_to(dst)).collect();
    trees_agree_with_paths(&topo, &nodes, &edges, &trees).unwrap();

    edges.push((0, 2, 1, 1_000_000_000));
    topo.add_link(
        nodes[0],
        nodes[2],
        SimDuration::from_micros(1),
        1_000_000_000,
    );
    let err = trees_agree_with_paths(&topo, &nodes, &edges, &trees).unwrap_err();
    assert!(err.contains("latency"), "{err}");

    let rebuilt: Vec<_> = nodes.iter().map(|&dst| topo.tree_to(dst)).collect();
    trees_agree_with_paths(&topo, &nodes, &edges, &rebuilt).unwrap();
}
