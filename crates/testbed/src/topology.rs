//! The C³ evaluation topology (paper Fig. 8).
//!
//! One OVS switch connects: the EGS (10 Gbps; hosts the controller, the
//! Docker "cluster" and the Kubernetes cluster), 20 Raspberry Pi clients
//! (1 Gbps), and the WAN uplink to the cloud. The SDN control channel between
//! switch and controller is local (both run on the EGS).

use cluster::SiteCapacity;
use simcore::SimDuration;
use simnet::openflow::PortId;
use simnet::topology::{NodeId, NodeKind, PathTree, Topology};
use simnet::IpAddr;

/// Switch port toward the cloud/WAN.
pub const CLOUD_PORT: PortId = PortId(0);
/// Switch port toward the EGS host for the Docker backend, in the standard
/// two-site layout built by [`C3Topology::build`].
pub const DOCKER_PORT: PortId = PortId(1);
/// Switch port toward the EGS host for the Kubernetes backend, in the
/// standard two-site layout.
pub const K8S_PORT: PortId = PortId(2);

const GBPS: u64 = 1_000_000_000;

/// The hardware class of an edge site's host (paper §VI: the EGS is a
/// Threadripper-class x86, the other edge nodes are Raspberry Pi 4Bs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeClass {
    /// The Edge Gateway Server: 12 cores, 32 GiB, 10 Gbps.
    Egs,
    /// A Raspberry Pi 4B: 4 cores, 4 GiB, 1 Gbps, ~3.5x slower containerd.
    RaspberryPi,
}

/// Where one edge cluster lives in the network: its host class and its
/// distance from the ingress switch. Hierarchical continuums (paper §IV-A2:
/// "clusters in close vicinity of the users tend to be smaller, with cluster
/// size and performance growing when further away") are lists of these.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    pub name: String,
    pub class: NodeClass,
    /// One-way latency switch → site host.
    pub latency: SimDuration,
    pub bandwidth_bps: u64,
    /// How many physical nodes of this class back the cluster; the site's
    /// capacity scales linearly (the paper's C³ has 35 Raspberry Pis behind
    /// the edge layer). Modelled as one aggregate runtime.
    pub nodes: usize,
    /// Schedulable resources the controller's admission control enforces.
    /// [`SiteCapacity::UNLIMITED`] (the default) reproduces the paper's
    /// capacity-blind behaviour byte-identically.
    pub capacity: SiteCapacity,
    /// Placement labels the site advertises (matched against service
    /// affinity/anti-affinity requirements).
    pub labels: Vec<String>,
}

impl SiteSpec {
    /// The standard EGS site (sub-millisecond, 10 Gbps).
    pub fn egs(name: impl Into<String>) -> SiteSpec {
        SiteSpec {
            name: name.into(),
            class: NodeClass::Egs,
            latency: SimDuration::from_micros(80),
            bandwidth_bps: 10 * GBPS,
            nodes: 1,
            capacity: SiteCapacity::UNLIMITED,
            labels: Vec::new(),
        }
    }

    /// A Raspberry-Pi-class near edge at a given distance.
    pub fn pi(name: impl Into<String>, latency: SimDuration) -> SiteSpec {
        SiteSpec {
            name: name.into(),
            class: NodeClass::RaspberryPi,
            latency,
            bandwidth_bps: GBPS,
            nodes: 8,
            capacity: SiteCapacity::UNLIMITED,
            labels: Vec::new(),
        }
    }

    /// Override the number of backing nodes.
    pub fn with_nodes(mut self, nodes: usize) -> SiteSpec {
        self.nodes = nodes;
        self
    }

    /// Declare a finite schedulable capacity for this site.
    pub fn with_capacity(mut self, capacity: SiteCapacity) -> SiteSpec {
        self.capacity = capacity;
        self
    }

    /// Advertise placement labels on this site.
    pub fn with_labels(mut self, labels: impl IntoIterator<Item = impl Into<String>>) -> SiteSpec {
        self.labels = labels.into_iter().map(Into::into).collect();
        self
    }
}

/// The built topology plus the lookups the event loop needs.
#[derive(Debug)]
pub struct C3Topology {
    pub net: Topology,
    pub switch: NodeId,
    pub cloud: NodeId,
    /// One host node per edge site, in site order (switch port `1 + i`).
    pub site_hosts: Vec<NodeId>,
    /// IP each site's cluster binds its service ports on.
    pub site_ips: Vec<IpAddr>,
    pub sites: Vec<SiteSpec>,
    pub clients: Vec<NodeId>,
    /// IPs assigned to the Pi clients, indexed like `clients`.
    pub client_ips: Vec<IpAddr>,
    /// Shortest paths toward the switch, searched once at build: every
    /// switch-relative latency below is a read of this tree.
    switch_tree: PathTree,
}

impl C3Topology {
    /// The standard evaluation network (paper Fig. 8): both backends on the
    /// EGS, `n_clients` Raspberry Pis. Site 0 answers on [`DOCKER_PORT`],
    /// site 1 on [`K8S_PORT`].
    pub fn build(n_clients: usize) -> C3Topology {
        C3Topology::build_sites(&[SiteSpec::egs("egs-a"), SiteSpec::egs("egs-b")], n_clients)
    }

    /// Build a network with an arbitrary list of edge sites (hierarchical
    /// continuum scenarios).
    pub fn build_sites(sites: &[SiteSpec], n_clients: usize) -> C3Topology {
        assert!(!sites.is_empty(), "at least one edge site");
        let mut net = Topology::new();
        let switch = net.add_node("ovs", NodeKind::Switch);
        let cloud = net.add_node("cloud", NodeKind::Cloud);
        // WAN to the cloud: tens of ms.
        net.add_link(switch, cloud, SimDuration::from_millis(25), GBPS);

        let mut site_hosts = Vec::with_capacity(sites.len());
        let mut site_ips = Vec::with_capacity(sites.len());
        for (i, site) in sites.iter().enumerate() {
            let node = net.add_node(site.name.clone(), NodeKind::Host);
            net.add_link(switch, node, site.latency, site.bandwidth_bps);
            site_hosts.push(node);
            site_ips.push(IpAddr::new(10, 0, i as u8, 100));
        }

        let mut clients = Vec::with_capacity(n_clients);
        let mut client_ips = Vec::with_capacity(n_clients);
        for i in 0..n_clients {
            let node = net.add_node(format!("pi{i:02}"), NodeKind::Host);
            net.add_link(node, switch, SimDuration::from_micros(200), GBPS);
            clients.push(node);
            // 250 clients per /24 so city-scale client counts stay unique
            // (identical to the historical 10.1.0.x layout for i < 250).
            client_ips.push(IpAddr::new(10, 1, (i / 250) as u8, (i % 250 + 1) as u8));
        }

        let switch_tree = net.tree_to(switch);
        C3Topology {
            net,
            switch_tree,
            switch,
            cloud,
            site_hosts,
            site_ips,
            sites: sites.to_vec(),
            clients,
            client_ips,
        }
    }

    /// Switch port of edge site `i`.
    pub fn site_port(&self, i: usize) -> PortId {
        PortId(1 + i)
    }

    /// First client port; client `i` sits on `client_port_base() + i`.
    pub fn client_port_base(&self) -> usize {
        1 + self.site_hosts.len()
    }

    /// Switch port for client `i`.
    pub fn client_port(&self, i: usize) -> PortId {
        PortId(self.client_port_base() + i)
    }

    /// The site a switch port leads to, if it is a site port.
    pub fn site_of_port(&self, port: PortId) -> Option<usize> {
        (port != CLOUD_PORT && port.0 <= self.site_hosts.len()).then(|| port.0 - 1)
    }

    /// Total number of switch ports (cloud + sites + clients).
    pub fn port_count(&self) -> usize {
        self.client_port_base() + self.clients.len()
    }

    /// One-way latency client → switch. An array read: cheap enough to call
    /// per request.
    pub fn client_switch_latency(&self, i: usize) -> SimDuration {
        self.switch_tree
            .latency(self.clients[i])
            .expect("client is attached")
    }

    /// One-way latency switch → site `i`.
    pub fn switch_site_latency(&self, i: usize) -> SimDuration {
        self.switch_tree
            .latency(self.site_hosts[i])
            .expect("site attached")
    }

    /// One-way latency switch → cloud.
    pub fn switch_cloud_latency(&self) -> SimDuration {
        self.switch_tree
            .latency(self.cloud)
            .expect("cloud attached")
    }

    /// One shortest-path tree per place a released request can be served —
    /// the cloud, then each site in order (the flow model's busy-lane
    /// order): `1 + sites` searches answer every client → host query.
    pub fn host_trees(&self) -> Vec<PathTree> {
        std::iter::once(self.cloud)
            .chain(self.site_hosts.iter().copied())
            .map(|host| self.net.tree_to(host))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_paper_shape() {
        let c3 = C3Topology::build(20);
        assert_eq!(c3.clients.len(), 20);
        assert_eq!(c3.client_ips.len(), 20);
        assert_eq!(c3.site_hosts.len(), 2);
        assert_eq!(c3.port_count(), 23);
        assert_eq!(c3.net.node_count(), 24); // switch + cloud + 2 sites + 20 pis
                                             // every client reaches both sites through the switch
        for i in 0..20 {
            for &host in &c3.site_hosts {
                let p = c3.net.path(c3.clients[i], host).unwrap();
                assert_eq!(p.hops.len(), 3);
                assert!(p.latency < SimDuration::from_millis(1));
            }
        }
        // cloud is an order of magnitude farther
        assert!(c3.switch_cloud_latency() > c3.switch_site_latency(0) * 100);
        // standard port constants hold in this layout
        assert_eq!(c3.site_port(0), DOCKER_PORT);
        assert_eq!(c3.site_port(1), K8S_PORT);
    }

    #[test]
    fn client_ports_distinct_and_after_sites() {
        let c3 = C3Topology::build(5);
        let mut ports: Vec<usize> = (0..5).map(|i| c3.client_port(i).0).collect();
        ports.dedup();
        assert_eq!(ports.len(), 5);
        assert!(ports.iter().all(|&p| p >= c3.client_port_base()));
    }

    #[test]
    fn hierarchical_sites_ordered_by_distance() {
        let sites = vec![
            SiteSpec::pi("near-edge", SimDuration::from_micros(300)),
            SiteSpec::egs("mid-edge"),
            SiteSpec {
                latency: SimDuration::from_millis(8),
                ..SiteSpec::egs("far-edge")
            },
        ];
        let c3 = C3Topology::build_sites(&sites, 4);
        assert_eq!(c3.site_hosts.len(), 3);
        assert!(
            c3.switch_site_latency(0) < c3.switch_site_latency(1) + SimDuration::from_micros(300)
        );
        assert!(c3.switch_site_latency(2) > c3.switch_site_latency(1));
        assert!(c3.switch_cloud_latency() > c3.switch_site_latency(2));
        // distinct IPs per site
        assert_ne!(c3.site_ips[0], c3.site_ips[1]);
        assert_ne!(c3.site_ips[1], c3.site_ips[2]);
    }

    #[test]
    fn site_of_port_maps_back() {
        let c3 = C3Topology::build_sites(
            &[SiteSpec::egs("a"), SiteSpec::egs("b"), SiteSpec::egs("c")],
            2,
        );
        assert_eq!(c3.site_of_port(CLOUD_PORT), None);
        assert_eq!(c3.site_of_port(c3.site_port(0)), Some(0));
        assert_eq!(c3.site_of_port(c3.site_port(2)), Some(2));
        assert_eq!(c3.site_of_port(c3.client_port(0)), None);
    }
}
