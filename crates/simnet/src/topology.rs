//! Network topology: nodes joined by links with propagation latency and
//! bandwidth. Routing is shortest-path by latency (Dijkstra): one query with
//! [`Topology::path`], or every source toward one destination at once with
//! [`Topology::tree_to`] — what long-running consumers hold, one
//! [`PathTree`] per destination they route to.
//!
//! The evaluation topology (paper Fig. 8) is small — one OVS switch, the EGS,
//! a cloud uplink and 20 Raspberry Pi clients — but the model supports the
//! hierarchical multi-cluster layouts of §IV-A2 (small near edges, larger
//! ones towards the cloud), which the scheduler experiments use.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use simcore::SimDuration;

/// Index of a node in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Index of a link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// What a node *is* — used for display and for sanity checks when wiring the
/// testbed (e.g. a switch port must attach to a link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host (client UE, edge server, registry host).
    Host,
    /// A forwarding element (the OVS switch, the gNB in 5G terms).
    Switch,
    /// The remote cloud (origin servers, public registries).
    Cloud,
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    kind: NodeKind,
}

#[derive(Debug, Clone)]
struct Link {
    a: NodeId,
    b: NodeId,
    /// One-way propagation latency.
    latency: SimDuration,
    /// Bandwidth in bits per second.
    bandwidth_bps: u64,
}

/// Result of a path query: total one-way latency, bottleneck bandwidth and
/// the hop sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathInfo {
    pub latency: SimDuration,
    pub bottleneck_bps: u64,
    pub hops: Vec<NodeId>,
}

impl PathInfo {
    /// Round-trip time along this path.
    pub fn rtt(&self) -> SimDuration {
        self.latency * 2
    }
}

/// An undirected graph of nodes and links.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency: node -> [(neighbor, link)]
    adj: Vec<Vec<(NodeId, LinkId)>>,
    by_name: HashMap<String, NodeId>,
    /// Shortest-path searches run so far (see [`Topology::searches`]).
    searches: Cell<u64>,
}

/// One node's label in a shortest-path search: cumulative latency from the
/// root, the widest bottleneck among the paths of that latency, and the
/// neighbour one hop nearer the root.
#[derive(Debug, Clone, Copy)]
struct Label {
    dist_ns: u64,
    bottleneck_bps: u64,
    toward_root: Option<NodeId>,
}

const UNREACHED: Label = Label {
    dist_ns: u64::MAX,
    bottleneck_bps: 0,
    toward_root: None,
};

impl Topology {
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Add a node; names must be unique (they key config and output tables).
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate node name {name:?}"
        );
        let id = NodeId(self.nodes.len());
        self.by_name.insert(name.clone(), id);
        self.nodes.push(Node { name, kind });
        self.adj.push(Vec::new());
        id
    }

    /// Add an undirected link. `bandwidth_bps` is bits per second.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        latency: SimDuration,
        bandwidth_bps: u64,
    ) -> LinkId {
        assert!(a != b, "self-loop link at {a:?}");
        assert!(bandwidth_bps > 0, "zero-bandwidth link");
        let id = LinkId(self.links.len());
        self.links.push(Link {
            a,
            b,
            latency,
            bandwidth_bps,
        });
        self.adj[a.0].push((b, id));
        self.adj[b.0].push((a, id));
        id
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }
    pub fn node_kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.0].kind
    }
    pub fn lookup(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    pub fn link_latency(&self, id: LinkId) -> SimDuration {
        self.links[id.0].latency
    }
    pub fn link_bandwidth(&self, id: LinkId) -> u64 {
        self.links[id.0].bandwidth_bps
    }
    /// The two nodes a link joins.
    pub fn link_endpoints(&self, id: LinkId) -> (NodeId, NodeId) {
        (self.links[id.0].a, self.links[id.0].b)
    }

    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        self.adj[id.0].iter().copied()
    }

    /// Shortest path from `src` to `dst` by cumulative latency; among paths
    /// of equal latency, the one with the widest bottleneck — so latency and
    /// bottleneck are functions of the graph, not of the search direction.
    /// Returns `None` if unreachable.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<PathInfo> {
        // The graph is undirected: search outward from `dst`, stop once
        // `src` is settled, and read the hops off toward the root.
        PathTree {
            root: dst,
            labels: self.search(dst, Some(src)),
        }
        .path(src)
    }

    /// One-way latency between two nodes (None if unreachable).
    pub fn latency(&self, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        self.path(src, dst).map(|p| p.latency)
    }

    /// The shortest-path tree rooted at `dst`: one search answers latency,
    /// bottleneck and hops toward `dst` from *every* source, each equal to
    /// what [`Topology::path`] reports for that pair. A snapshot — rebuild it
    /// after mutating the graph.
    pub fn tree_to(&self, dst: NodeId) -> PathTree {
        PathTree {
            root: dst,
            labels: self.search(dst, None),
        }
    }

    /// How many shortest-path searches ([`Topology::path`] /
    /// [`Topology::tree_to`]) this topology has run. Each is O(links · log
    /// nodes) plus O(nodes) of allocation, so consumers with many sources
    /// hold trees; tests pin the count so a per-pair search creeping back
    /// into a per-request path fails there rather than in a benchmark.
    pub fn searches(&self) -> u64 {
        self.searches.get()
    }

    /// Dijkstra from `root` over (latency ascending, bottleneck descending)
    /// labels; stops early once `stop_at` is settled. Extending a label never
    /// improves it and preserves order, so the first settlement of a node is
    /// final even across zero-latency links.
    fn search(&self, root: NodeId, stop_at: Option<NodeId>) -> Vec<Label> {
        self.searches.set(self.searches.get() + 1);
        let mut labels = vec![UNREACHED; self.nodes.len()];
        labels[root.0] = Label {
            dist_ns: 0,
            bottleneck_bps: u64::MAX,
            toward_root: None,
        };
        let mut heap = BinaryHeap::new();
        heap.push((Reverse(0u64), u64::MAX, root.0));
        while let Some((Reverse(d), b, u)) = heap.pop() {
            if (d, b) != (labels[u].dist_ns, labels[u].bottleneck_bps) {
                continue; // superseded by a better label
            }
            if stop_at == Some(NodeId(u)) {
                break;
            }
            for &(v, link) in &self.adj[u] {
                let link = &self.links[link.0];
                let nd = d.saturating_add(link.latency.as_nanos());
                let nb = b.min(link.bandwidth_bps);
                let cur = labels[v.0];
                if nd < cur.dist_ns || (nd == cur.dist_ns && nb > cur.bottleneck_bps) {
                    labels[v.0] = Label {
                        dist_ns: nd,
                        bottleneck_bps: nb,
                        toward_root: Some(NodeId(u)),
                    };
                    heap.push((Reverse(nd), nb, v.0));
                }
            }
        }
        labels
    }
}

/// Shortest paths from every node toward one destination (the root), as
/// built by [`Topology::tree_to`]. Dense by [`NodeId`]: a query is an array
/// read, no hashing and no allocation (hops aside).
#[derive(Debug, Clone)]
pub struct PathTree {
    root: NodeId,
    labels: Vec<Label>,
}

impl PathTree {
    /// The destination every path in this tree leads to.
    pub fn root(&self) -> NodeId {
        self.root
    }

    fn label(&self, src: NodeId) -> Option<&Label> {
        self.labels.get(src.0).filter(|l| l.dist_ns != u64::MAX)
    }

    /// One-way latency `src` → root (`None` if unreachable).
    pub fn latency(&self, src: NodeId) -> Option<SimDuration> {
        self.label(src).map(|l| SimDuration::from_nanos(l.dist_ns))
    }

    /// Bottleneck bandwidth along the path `src` → root.
    pub fn bottleneck_bps(&self, src: NodeId) -> Option<u64> {
        self.label(src).map(|l| l.bottleneck_bps)
    }

    /// The full path `src` → root, hops included (allocates the hop list).
    pub fn path(&self, src: NodeId) -> Option<PathInfo> {
        let label = self.label(src)?;
        let mut hops = vec![src];
        let mut cur = label;
        while let Some(next) = cur.toward_root {
            hops.push(next);
            cur = &self.labels[next.0];
        }
        debug_assert_eq!(hops.last(), Some(&self.root));
        Some(PathInfo {
            latency: SimDuration::from_nanos(label.dist_ns),
            bottleneck_bps: label.bottleneck_bps,
            hops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }
    const GBPS: u64 = 1_000_000_000;

    /// a --1ms-- b --2ms-- c, plus a --10ms-- c direct (slower).
    fn triangle() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Host);
        let b = t.add_node("b", NodeKind::Switch);
        let c = t.add_node("c", NodeKind::Host);
        t.add_link(a, b, ms(1), GBPS);
        t.add_link(b, c, ms(2), GBPS / 10);
        t.add_link(a, c, ms(10), GBPS);
        (t, a, b, c)
    }

    #[test]
    fn shortest_path_prefers_low_latency() {
        let (t, a, _b, c) = triangle();
        let p = t.path(a, c).unwrap();
        assert_eq!(p.latency, ms(3));
        assert_eq!(p.hops.len(), 3);
        assert_eq!(p.bottleneck_bps, GBPS / 10);
        assert_eq!(p.rtt(), ms(6));
    }

    #[test]
    fn self_path_is_zero() {
        let (t, a, ..) = triangle();
        let p = t.path(a, a).unwrap();
        assert_eq!(p.latency, SimDuration::ZERO);
        assert_eq!(p.hops, vec![a]);
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Host);
        let b = t.add_node("b", NodeKind::Host);
        assert!(t.path(a, b).is_none());
        assert!(t.latency(a, b).is_none());
    }

    #[test]
    fn lookup_by_name() {
        let (t, a, b, _c) = triangle();
        assert_eq!(t.lookup("a"), Some(a));
        assert_eq!(t.lookup("b"), Some(b));
        assert_eq!(t.lookup("zzz"), None);
        assert_eq!(t.node_name(a), "a");
        assert_eq!(t.node_kind(b), NodeKind::Switch);
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_name_panics() {
        let mut t = Topology::new();
        t.add_node("x", NodeKind::Host);
        t.add_node("x", NodeKind::Host);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Host);
        t.add_link(a, a, ms(1), GBPS);
    }

    #[test]
    fn star_topology_paths() {
        // 20 clients around one switch, like the evaluation topology.
        let mut t = Topology::new();
        let sw = t.add_node("ovs", NodeKind::Switch);
        let egs = t.add_node("egs", NodeKind::Host);
        t.add_link(sw, egs, SimDuration::from_micros(100), 10 * GBPS);
        let clients: Vec<NodeId> = (0..20)
            .map(|i| {
                let c = t.add_node(format!("pi{i}"), NodeKind::Host);
                t.add_link(c, sw, SimDuration::from_micros(200), GBPS);
                c
            })
            .collect();
        for &c in &clients {
            let p = t.path(c, egs).unwrap();
            assert_eq!(p.latency, SimDuration::from_micros(300));
            assert_eq!(p.bottleneck_bps, GBPS);
            assert_eq!(p.hops, vec![c, sw, egs]);
        }
    }

    #[test]
    fn neighbors_enumerates_links() {
        let (t, a, ..) = triangle();
        let n: Vec<_> = t.neighbors(a).collect();
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn tree_answers_every_source_like_path() {
        let (t, a, b, c) = triangle();
        for dst in [a, b, c] {
            let tree = t.tree_to(dst);
            assert_eq!(tree.root(), dst);
            for src in [a, b, c] {
                let want = t.path(src, dst).unwrap();
                assert_eq!(tree.latency(src), Some(want.latency));
                assert_eq!(tree.bottleneck_bps(src), Some(want.bottleneck_bps));
                assert_eq!(tree.path(src), Some(want));
            }
        }
    }

    #[test]
    fn tree_reports_unreachable_sources() {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Host);
        let b = t.add_node("b", NodeKind::Host);
        let tree = t.tree_to(a);
        assert_eq!(tree.latency(a), Some(SimDuration::ZERO));
        assert!(tree.latency(b).is_none());
        assert!(tree.bottleneck_bps(b).is_none());
        assert!(tree.path(b).is_none());
    }

    #[test]
    fn equal_latency_ties_take_the_wider_path() {
        // a → d over b (1 Gbps) or over c (10 Gbps), 2 ms either way.
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Host);
        let b = t.add_node("b", NodeKind::Switch);
        let c = t.add_node("c", NodeKind::Switch);
        let d = t.add_node("d", NodeKind::Host);
        t.add_link(a, b, ms(1), GBPS);
        t.add_link(b, d, ms(1), GBPS);
        t.add_link(a, c, ms(1), 10 * GBPS);
        t.add_link(c, d, ms(1), 10 * GBPS);
        for (src, dst) in [(a, d), (d, a)] {
            let p = t.path(src, dst).unwrap();
            assert_eq!(p.bottleneck_bps, 10 * GBPS);
            assert_eq!(p.hops, vec![src, c, dst]);
            assert_eq!(t.tree_to(dst).path(src), Some(p));
        }
    }

    #[test]
    fn searches_counts_one_per_path_and_one_per_tree() {
        let (t, a, _b, c) = triangle();
        assert_eq!(t.searches(), 0);
        t.path(a, c);
        t.latency(c, a);
        assert_eq!(t.searches(), 2);
        let tree = t.tree_to(c);
        for src in [a, c] {
            tree.latency(src);
            tree.path(src);
        }
        assert_eq!(t.searches(), 3, "tree queries run no search");
    }
}
