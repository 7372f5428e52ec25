//! A *distributed* edge fabric: several ingress switches in a chain, one edge
//! site per switch, the cloud behind switch 0 — and clients that may roam
//! between switches mid-run.
//!
//! This exercises what the single-switch C³ testbed cannot: the controller
//! instructing "the switch(es)" (paper §II/Fig. 2), per-ingress nearest-site
//! decisions, cross-switch packet forwarding over trunk links, and the
//! Follow-Me-Edge behaviour of the related work (\[12\], \[13\]): after a client
//! roams, its requests enter at the new switch, the Dispatcher's location
//! tracking updates, and the scheduler redirects it to the site nearest to
//! its *new* position — deploying there on demand if needed.
//!
//! The fabric runs on the shared ingress core ([`crate::ingress`]), whose
//! one controller drives every switch of the chain. This module is the
//! bring-up — controller, switches, clients and the request schedule — and
//! the [`Engine`] that turns a forwarded SYN into a trunk hop or a completed
//! request.
//!
//! Port layout per switch in the chain:
//!
//! | port | meaning |
//! |------|---------|
//! | 0    | uplink: the cloud (switch 0) or the trunk toward switch s−1 |
//! | 1    | downlink trunk toward switch s+1 (unused on the last switch) |
//! | 2    | the local edge site |
//! | 3+i  | client i of the switch (a roamed client keeps its number) |

use std::cmp::Ordering;
use std::convert::Infallible;

use cluster::{ClusterBackend, DockerCluster};
use containers::Runtime;
use edgectl::{Controller, ControllerConfig, SwitchId};
use simcore::{Percentiles, SimDuration, SimRng, SimTime};
use simnet::openflow::{Action, FlowMatch, FlowSpec, PortId, Switch};
use simnet::{IpAddr, SocketAddr, TcpModel};
use workload::client::RequestRecord;
use workload::{ServiceProfile, TraceRequest};

use crate::ingress::{Access, Engine, IngressShard, Released};
use crate::ScenarioConfig;

const UPLINK: PortId = PortId(0);
const DOWNLINK: PortId = PortId(1);
const SITE_PORT: PortId = PortId(2);
const CLIENT_PORT_BASE: usize = 3;
/// One-way latencies: client → its switch, switch → its local site, and
/// switch 0 → the cloud.
const CLIENT_LINK: SimDuration = SimDuration::from_micros(200);
const SITE_LATENCY: SimDuration = SimDuration::from_micros(80);
const CLOUD_LATENCY: SimDuration = SimDuration::from_millis(25);
/// Trunk hops in a row after which a packet counts as caught in a loop.
const MAX_HOPS: u8 = 8;
const GBPS: u64 = 1_000_000_000;

/// Configuration of a mobility run.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    pub seed: u64,
    /// Number of chained switches (== number of edge sites).
    pub switches: usize,
    pub clients_per_switch: usize,
    /// Latency of each inter-switch trunk (one way).
    pub trunk_latency: SimDuration,
    /// Request interval per client.
    pub request_interval: SimDuration,
    /// Run duration.
    pub duration: SimDuration,
    /// If set, every client of switch 0 roams to the last switch at this
    /// instant (relative to run start).
    pub roam_at: Option<SimDuration>,
    pub controller: ControllerConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            seed: 1,
            switches: 2,
            clients_per_switch: 4,
            trunk_latency: SimDuration::from_millis(3),
            request_interval: SimDuration::from_secs(5),
            duration: SimDuration::from_secs(120),
            roam_at: Some(SimDuration::from_secs(60)),
            // The scenario's evaluation defaults.
            controller: ScenarioConfig::default().controller,
        }
    }
}

/// Result of a mobility run.
#[derive(Debug)]
pub struct FabricResult {
    pub records: Vec<RequestRecord>,
    pub deployments: Vec<edgectl::DeploymentRecord>,
    pub lost: u64,
    /// Deployments per site (cluster index).
    pub deployments_per_site: Vec<usize>,
    /// Median time_total before / after the roam instant (ms; NaN if empty).
    pub median_before_ms: f64,
    pub median_after_ms: f64,
    /// Events the run executed, as [`crate::RunResult::events_scheduled`]
    /// counts them (engine diagnostic).
    pub events_scheduled: u64,
}

/// How the fabric's clients reach the switches: client `c` has the C³
/// testbed's address for `c`, sits [`CLIENT_LINK`] from whichever switch it
/// is behind, and enters it on port `3 + c % clients_per_switch`.
struct Clients {
    latencies: Vec<SimDuration>,
    per_switch: usize,
}

impl Access for Clients {
    fn client_ip(&self, c: usize) -> IpAddr {
        IpAddr::new(10, 1, (c / 250) as u8, (c % 250 + 1) as u8)
    }

    fn client_port(&self, client: usize) -> PortId {
        PortId(CLIENT_PORT_BASE + client % self.per_switch)
    }

    fn client_latencies(&self) -> &[SimDuration] {
        &self.latencies
    }
}

/// The core driving the fabric's switches; the fabric has no events of its
/// own.
type Shard = IngressShard<Infallible, Clients>;

/// What the fabric makes of a forwarded SYN: a trunk hop toward the next
/// switch, or a completed request at a site or at the cloud behind switch 0.
struct Chain {
    cfg: FabricConfig,
    profile: ServiceProfile,
    server_rng: SimRng,
    records: Vec<RequestRecord>,
}

impl Chain {
    /// The switch client `c` is behind at `t`: its home switch, or the last
    /// one once a client of switch 0 has roamed.
    fn switch_of(&self, c: usize, t: SimTime) -> usize {
        let home = c / self.cfg.clients_per_switch;
        match self.cfg.roam_at {
            Some(roam) if home == 0 && t >= SimTime::ZERO + roam => self.cfg.switches - 1,
            _ => home,
        }
    }

    /// The SYN reached its server `last_leg` past switch `r.switch` at
    /// `now`: record the exchange over client link, trunk hops and last leg.
    fn complete(&mut self, now: SimTime, r: &Released, last_leg: SimDuration) {
        let started = r.syn_at - CLIENT_LINK;
        let ingress = self.switch_of(r.client, started);
        let trunk_hops = ingress.abs_diff(r.switch.0) as u64;
        let one_way = CLIENT_LINK + self.cfg.trunk_latency * trunk_hops + last_leg;
        let tcp = TcpModel::new(one_way * 2, GBPS);
        let server_time = self.profile.server_time.sample(&mut self.server_rng);
        let hold = now - r.syn_at;
        let exchange = tcp.request_response_time(
            self.profile.request_bytes,
            self.profile.response_bytes,
            server_time,
        );
        self.records.push(RequestRecord {
            started,
            finished: started + hold + exchange,
            service: r.service,
            client: r.client,
            triggered_deployment: hold > SimDuration::from_millis(100),
        });
    }
}

impl Engine<Infallible, Clients> for Chain {
    fn ingress(&self, request: &TraceRequest) -> Option<SwitchId> {
        Some(SwitchId(self.switch_of(request.client, request.at)))
    }

    fn released(&mut self, shard: &mut Shard, now: SimTime, r: Released) {
        let sw = r.switch.0;
        let next = match r.out_port {
            SITE_PORT => return self.complete(now, &r, SITE_LATENCY),
            UPLINK if sw == 0 => return self.complete(now, &r, CLOUD_LATENCY),
            UPLINK => Some(sw - 1),
            DOWNLINK => Some(sw + 1).filter(|&next| next < self.cfg.switches),
            _ => None,
        };
        match next {
            Some(next) if r.hops < MAX_HOPS => {
                shard.forward(now + self.cfg.trunk_latency, SwitchId(next), r);
            }
            // The last switch's downlink leads nowhere; a client port means a
            // misrouted flow (responses are modelled analytically).
            _ => shard.lose(r.idx),
        }
    }

    fn on_event(&mut self, _: &mut Shard, _: SimTime, event: Infallible) {
        match event {}
    }
}

/// The port of switch `s` that leads toward switch `j`'s site.
fn toward(s: usize, j: usize) -> PortId {
    match s.cmp(&j) {
        Ordering::Equal => SITE_PORT,
        Ordering::Greater => UPLINK,
        Ordering::Less => DOWNLINK,
    }
}

/// Run the mobility scenario: one (Nginx-class) service, clients requesting
/// it periodically, optional mid-run roam of switch-0 clients to the last
/// switch.
pub fn run_mobility(cfg: FabricConfig) -> FabricResult {
    let (mut shard, mut chain, requests) = build(&cfg);
    shard.run_until(SimTime::FAR_FUTURE, &requests, &mut chain);

    let deployments = shard.controller.stats.deployments.clone();
    let mut per_site = vec![0usize; cfg.switches];
    for d in &deployments {
        per_site[d.cluster.0] += 1;
    }
    let mut before = Percentiles::new();
    let mut after = Percentiles::new();
    for r in &chain.records {
        match cfg.roam_at {
            Some(roam) if r.started >= SimTime::ZERO + roam => {
                after.record_duration(r.time_total())
            }
            _ => before.record_duration(r.time_total()),
        }
    }
    FabricResult {
        deployments,
        lost: shard.lost(),
        deployments_per_site: per_site,
        median_before_ms: before.median(),
        median_after_ms: after.median(),
        events_scheduled: shard.events_executed(),
        records: chain.records,
    }
}

/// Bring the fabric up: the core with the controller and its switches, the
/// engine, and the trace of every client's requests.
fn build(cfg: &FabricConfig) -> (Shard, Chain, Vec<TraceRequest>) {
    assert!(cfg.switches >= 2, "a fabric needs at least two switches");
    let rng = SimRng::seed_from_u64(cfg.seed);
    let profile = ServiceProfile::of(workload::ServiceKind::Nginx);
    let registries = workload::services::standard_registries(false);
    let service_addr = SocketAddr::new(IpAddr::new(93, 184, 0, 1), 80);

    // --- controller with one Docker site per switch (the builder's
    // nearest-waiting and round-robin schedulers) ---
    let mut controller = Controller::builder(cfg.controller.clone())
        .registries(registries)
        .cloud_port(UPLINK) // cloud behind switch 0's uplink
        .build();
    // Distance from switch s to site j: hops over the chain.
    let dist = |s: usize, j: usize| SITE_LATENCY + cfg.trunk_latency * s.abs_diff(j) as u64;
    for j in 0..cfg.switches {
        let backend: Box<dyn ClusterBackend> = Box::new(DockerCluster::new(
            format!("site-{j}"),
            IpAddr::new(10, 0, j as u8, 100),
            Runtime::egs(rng.stream(&format!("rt-{j}"))),
            rng.stream(&format!("docker-{j}")),
        ));
        // attach_cluster covers switch 0's view of site j.
        controller.attach_cluster(backend, dist(0, j), toward(0, j));
    }
    for s in 1..cfg.switches {
        let ports = (0..cfg.switches).map(|j| (toward(s, j), dist(s, j)));
        controller.add_switch(UPLINK, ports.collect());
    }
    controller
        .catalog
        .register(service_addr, profile.template.clone());

    // --- switches with static topology routes ---
    let port_count = CLIENT_PORT_BASE + cfg.clients_per_switch;
    let mut switches: Vec<Switch> = (0..cfg.switches).map(|_| Switch::new(port_count)).collect();
    for (s, sw) in switches.iter_mut().enumerate() {
        for j in 0..cfg.switches {
            // route rewritten packets (dst = site address) toward site j
            let matcher = FlowMatch {
                dst_ip: Some(IpAddr::new(10, 0, j as u8, 100)),
                ..FlowMatch::default()
            };
            sw.flow_mod(
                SimTime::ZERO,
                FlowSpec::new(matcher)
                    .priority(1)
                    .action(Action::Output(toward(s, j)))
                    .cookie(0xF0 + j as u64),
            );
        }
    }

    // --- clients and their jittered periodic requests ---
    let total_clients = cfg.switches * cfg.clients_per_switch;
    let clients = Clients {
        latencies: vec![CLIENT_LINK; total_clients],
        per_switch: cfg.clients_per_switch,
    };
    let mut schedule_rng = rng.stream("schedule");
    let mut requests = Vec::new();
    for client in 0..total_clients {
        let mut at = SimTime::ZERO
            + SimDuration::from_secs_f64(schedule_rng.f64() * cfg.request_interval.as_secs_f64());
        while at < SimTime::ZERO + cfg.duration {
            requests.push(TraceRequest {
                at,
                service: 0,
                client,
            });
            at += cfg.request_interval;
        }
    }
    // Equal instants go client by client, the tie order the pinned digests
    // (`tests/fabric_pinned.rs`) were recorded with.
    requests.sort_unstable_by_key(|r| (r.at, r.client));

    let chain = Chain {
        cfg: cfg.clone(),
        profile,
        server_rng: rng.stream("server"),
        records: Vec::new(),
    };
    let mut shard = IngressShard::new(clients, switches, controller, vec![service_addr]);
    shard.start(SimDuration::ZERO);
    (shard, chain, requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_serves_all_requests_without_roaming() {
        let cfg = FabricConfig {
            roam_at: None,
            ..FabricConfig::default()
        };
        let expected: usize = {
            // each client sends ceil(duration/interval) requests
            let per =
                (cfg.duration.as_secs_f64() / cfg.request_interval.as_secs_f64()).ceil() as usize;
            cfg.switches * cfg.clients_per_switch * per
        };
        let result = run_mobility(cfg);
        assert_eq!(result.lost, 0, "no packets lost");
        assert!(
            (result.records.len() as i64 - expected as i64).abs() <= 8,
            "served {} of ~{expected}",
            result.records.len()
        );
        // each switch's clients are served by their local site: one
        // deployment per site
        assert_eq!(result.deployments_per_site, vec![1, 1]);
        // steady state is fast
        assert!(result.median_before_ms < 10.0);
    }

    #[test]
    fn roaming_clients_follow_to_the_nearest_site() {
        let cfg = FabricConfig::default(); // roam at 60 s
        let result = run_mobility(cfg);
        assert_eq!(result.lost, 0);
        // Both sites see deployments: site 0 for the pre-roam clients, site 1
        // for its own clients (and the roamers keep using site 1 afterwards).
        assert_eq!(result.deployments_per_site.len(), 2);
        assert_eq!(result.deployments_per_site[0], 1);
        assert_eq!(result.deployments_per_site[1], 1);
        // Post-roam requests stay edge-fast: the roamed clients are served at
        // the site local to their new switch, not hairpinned across trunks
        // (a hairpin would pay ≥ 3 trunk round trips ≈ 18 ms; local service
        // stays well under 5 ms).
        assert!(
            result.median_after_ms < 5.0,
            "post-roam median {} ms suggests hairpinning",
            result.median_after_ms
        );
        assert!(result.median_before_ms < 5.0);
        // Once settled, *every* post-roam steady-state request is local: the
        // slowest post-roam request is bounded by one deployment wait, and
        // the bulk sits below the hairpin cost.
        let after: Vec<f64> = result
            .records
            .iter()
            .filter(|r| r.started >= simcore::SimTime::ZERO + SimDuration::from_secs(70))
            .map(|r| r.time_total().as_millis_f64())
            .collect();
        assert!(!after.is_empty());
        let slow = after.iter().copied().fold(0.0_f64, f64::max);
        assert!(
            slow < 10.0,
            "late post-roam request took {slow} ms (hairpin?)"
        );
    }

    #[test]
    fn deterministic() {
        let a = run_mobility(FabricConfig::default());
        let b = run_mobility(FabricConfig::default());
        assert_eq!(a.records, b.records);
    }

    /// Every output lands on the switch it names: after the roam, the
    /// roamed clients' PacketIns come from the last switch, their redirects
    /// are installed there, and switch 0 keeps none for them.
    #[test]
    fn outputs_land_on_the_switch_they_name() {
        let cfg = FabricConfig::default(); // roam at 60 s
        let last = cfg.switches - 1;
        let (mut shard, mut chain, requests) = build(&cfg);
        // Stop with the trace, while the roamed clients' redirects are live.
        shard.run_until(SimTime::ZERO + cfg.duration, &requests, &mut chain);
        let redirected = |shard: &Shard, s: usize, c: usize| {
            let src = SocketAddr::new(shard.c3.client_ip(c), 40000);
            let syn = simnet::Packet::syn(src, shard.service_addrs[0], 0);
            shard.switches[s].table.find(&syn).is_some_and(|entry| {
                entry
                    .actions
                    .iter()
                    .any(|a| matches!(a, Action::SetDstIp(_)))
            })
        };
        for c in 0..cfg.clients_per_switch {
            assert!(
                redirected(&shard, last, c),
                "client {c}: no redirect on switch {last}"
            );
            assert!(
                !redirected(&shard, 0, c),
                "client {c}: still redirected on switch 0"
            );
        }
        shard.run_until(SimTime::FAR_FUTURE, &requests, &mut chain);
        assert_eq!(shard.lost(), 0);
        for c in 0..cfg.clients_per_switch {
            let ip = shard.c3.client_ip(c);
            assert_eq!(shard.controller.client_switch(ip), Some(SwitchId(last)));
        }
    }

    #[test]
    fn three_switch_chain_works() {
        let cfg = FabricConfig {
            switches: 3,
            roam_at: Some(SimDuration::from_secs(60)),
            ..FabricConfig::default()
        };
        let result = run_mobility(cfg);
        assert_eq!(result.lost, 0);
        assert_eq!(result.deployments_per_site.iter().sum::<usize>(), 3);
    }
}
