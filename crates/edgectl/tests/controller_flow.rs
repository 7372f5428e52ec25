#![allow(clippy::field_reassign_with_default)]

//! Integration tests of the controller's Dispatcher behaviour: on-demand
//! deployment with and without waiting, FlowMemory fast path, piggybacking,
//! idle scale-down, and failure fallback to the cloud.

use cluster::{ClusterBackend, DockerCluster, K8sCluster, K8sTimings, ServiceTemplate};
use containers::image::synthesize_layers;
use containers::{ImageManifest, Runtime};
use edgectl::{Controller, ControllerConfig, ControllerOutput, NearestReadyFirst, NearestWaiting};
use registry::{Registry, RegistryProfile, RegistrySet};
use simcore::{DurationDist, SimDuration, SimRng, SimTime};
use simnet::openflow::{Action, BufferId, FlowMatch, FlowSpec, PortId};
use simnet::{IpAddr, Packet, SocketAddr};

const CLOUD_PORT: PortId = PortId(0);
const CLIENT_PORT: PortId = PortId(1);
const DOCKER_PORT: PortId = PortId(2);
const K8S_PORT: PortId = PortId(3);

fn registries() -> RegistrySet {
    let mut hub = Registry::new(RegistryProfile::docker_hub());
    hub.publish(ImageManifest::new(
        "nginx:1.23.2",
        synthesize_layers(1, 141_000_000, 6),
    ));
    let mut s = RegistrySet::new();
    s.add(hub);
    s
}

fn docker_backend(seed: u64) -> Box<dyn ClusterBackend> {
    let rng = SimRng::seed_from_u64(seed);
    Box::new(DockerCluster::new(
        "edge-docker",
        IpAddr::new(10, 0, 0, 100),
        Runtime::egs(rng.stream("rt")),
        rng.stream("docker"),
    ))
}

fn k8s_backend(seed: u64) -> Box<dyn ClusterBackend> {
    let rng = SimRng::seed_from_u64(seed);
    Box::new(K8sCluster::new(
        "far-k8s",
        IpAddr::new(10, 0, 1, 100),
        Runtime::egs(rng.stream("rt")),
        rng.stream("k8s"),
        K8sTimings::egs(),
    ))
}

fn nginx_template() -> ServiceTemplate {
    ServiceTemplate::single(
        "edge-nginx",
        "nginx:1.23.2",
        80,
        DurationDist::constant_ms(110.0),
    )
}

fn service_addr() -> SocketAddr {
    SocketAddr::new(IpAddr::new(93, 184, 0, 1), 80)
}

fn client_ip(n: u8) -> IpAddr {
    IpAddr::new(10, 1, 0, n)
}

fn packet(client: u8, tag: u64) -> Packet {
    Packet::syn(
        SocketAddr::new(client_ip(client), 40000),
        service_addr(),
        tag,
    )
}

/// A controller with one Docker cluster, NearestWaiting policy.
fn waiting_controller(seed: u64) -> Controller {
    let mut c = Controller::builder(ControllerConfig::default())
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .build();
    c.attach_cluster(
        docker_backend(seed),
        SimDuration::from_micros(300),
        DOCKER_PORT,
    );
    c.catalog.register(service_addr(), nginx_template());
    c
}

fn release_time(outputs: &[ControllerOutput]) -> SimTime {
    outputs
        .iter()
        .find_map(|o| match o {
            ControllerOutput::ReleaseViaTable { at, .. } => Some(*at),
            _ => None,
        })
        .expect("outputs must release the buffered packet")
}

fn flow_mods(outputs: &[ControllerOutput]) -> Vec<&ControllerOutput> {
    outputs
        .iter()
        .filter(|o| matches!(o, ControllerOutput::FlowMod { .. }))
        .collect()
}

/// Drive every due wakeup until the dispatcher has no deployment in flight,
/// collecting outputs. The old pipeline ran a deployment to completion inside
/// `on_packet_in`; the stepped dispatcher spreads it over wakeups, so tests
/// pump to recover the "dust has settled" view.
fn pump(c: &mut Controller) -> Vec<ControllerOutput> {
    let mut out = Vec::new();
    while !c.in_flight_deployments(SimTime::ZERO).is_empty() {
        let Some(at) = c.next_wakeup() else { break };
        out.extend(c.on_wakeup(at));
    }
    out
}

/// Pump every wakeup due at or before `upto` — machine steps, retarget
/// drains, and housekeeping — exactly like the simulator's event loop.
fn pump_until(c: &mut Controller, upto: SimTime) -> Vec<ControllerOutput> {
    let mut out = Vec::new();
    while let Some(at) = c.next_wakeup() {
        if at > upto {
            break;
        }
        out.extend(c.on_wakeup(at));
    }
    out
}

/// Packet-in plus a full pump: the combined outputs include the buffered
/// packet's eventual release, like the old synchronous `on_packet_in`.
fn deliver(
    c: &mut Controller,
    t: SimTime,
    p: Packet,
    b: BufferId,
    port: PortId,
) -> Vec<ControllerOutput> {
    let mut out = c.on_packet_in(t, p, b, port);
    out.extend(pump(c));
    out
}

#[test]
fn with_waiting_holds_request_until_ready() {
    let mut c = waiting_controller(1);
    let t0 = SimTime::ZERO;
    let outputs = deliver(&mut c, t0, packet(1, 1), BufferId(0), CLIENT_PORT);

    // Two FlowMods (forward + reverse rewrite) and one release.
    assert_eq!(flow_mods(&outputs).len(), 2);
    let released = release_time(&outputs);

    // Cold start: pull (~seconds) + create + scale-up + app init.
    let total_s = released.as_secs_f64();
    assert!(
        total_s > 1.0,
        "cold deployment cannot be instant: {total_s}"
    );
    assert!(
        total_s < 20.0,
        "cold deployment unreasonably slow: {total_s}"
    );

    // The deployment record has all three phases.
    assert_eq!(c.stats.deployments.len(), 1);
    let rec = &c.stats.deployments[0];
    assert!(rec.pull.is_some(), "cold start pulls");
    assert!(rec.create.is_some());
    assert!(rec.scale_up.is_some());
    assert!(rec.waited);
    assert_eq!(c.stats.held_requests, 1);

    // Phase ordering: pull < create < scale-up < ready.
    let (p0, p1) = rec.pull.unwrap();
    let (c0, c1) = rec.create.unwrap();
    let (s0, accepted, expected) = rec.scale_up.unwrap();
    assert!(p0 <= p1 && p1 <= c0 && c0 <= c1 && c1 <= s0);
    assert!(accepted <= expected);
    assert!(rec.ready_detected >= expected);

    // Wait time (Fig. 14) is positive and bounded by app-init + polling.
    let wait_ms = rec.wait_time().as_millis_f64();
    assert!(wait_ms > 0.0);
    assert!(wait_ms < 1500.0, "docker nginx wait {wait_ms} ms");
}

#[test]
fn forward_flow_rewrites_to_edge_instance() {
    let mut c = waiting_controller(2);
    let outputs = deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    let ControllerOutput::FlowMod {
        spec: FlowSpec {
            matcher, actions, ..
        },
        ..
    } = &outputs[0]
    else {
        panic!("first output must be the forward FlowMod");
    };
    assert_eq!(
        *matcher,
        FlowMatch::client_to_service(client_ip(1), service_addr())
    );
    assert!(matches!(actions[0], Action::SetDstIp(ip) if ip == IpAddr::new(10, 0, 0, 100)));
    assert!(matches!(actions[1], Action::SetDstPort(_)));
    assert!(matches!(actions[2], Action::Output(p) if p == DOCKER_PORT));

    // Reverse flow restores the cloud address.
    let ControllerOutput::FlowMod {
        spec: FlowSpec { actions: rev, .. },
        ..
    } = &outputs[1]
    else {
        panic!("second output must be the reverse FlowMod");
    };
    assert!(matches!(rev[0], Action::SetSrcIp(ip) if ip == service_addr().ip));
    assert!(matches!(rev[1], Action::SetSrcPort(80)));
    assert!(matches!(rev[2], Action::Output(p) if p == CLIENT_PORT));
}

#[test]
fn second_deployment_skips_pull_and_create() {
    let mut c = waiting_controller(3);
    let out1 = deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    let ready1 = release_time(&out1);

    // Let the instance idle out and be scaled down.
    let idle = c.config().memory_idle_timeout;
    let tick_at = ready1 + idle + SimDuration::from_secs(1);
    pump_until(&mut c, tick_at);
    assert_eq!(c.stats.scale_downs, 1, "idle instance scaled to zero");

    // Next request: image cached, service created → only scale-up.
    let t2 = tick_at + SimDuration::from_secs(5);
    let out2 = deliver(&mut c, t2, packet(1, 2), BufferId(1), CLIENT_PORT);
    let ready2 = release_time(&out2);
    let rec = c.stats.deployments.last().unwrap();
    assert!(rec.pull.is_none(), "image already cached");
    assert!(rec.create.is_none(), "service already created");
    assert!(rec.scale_up.is_some());
    // warm start is sub-second on Docker (the paper's headline result)
    let warm_ms = (ready2 - t2).as_millis_f64();
    assert!(warm_ms < 1000.0, "warm docker start {warm_ms} ms");
    assert!(
        warm_ms > 200.0,
        "still a real container start: {warm_ms} ms"
    );
}

#[test]
fn memory_fast_path_skips_scheduler() {
    let mut c = waiting_controller(4);
    let out1 = deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    let ready = release_time(&out1);

    // Same client again shortly after: memory hit, instant outputs.
    let t2 = ready + SimDuration::from_secs(2);
    let out2 = c.on_packet_in(t2, packet(1, 2), BufferId(1), CLIENT_PORT);
    assert_eq!(c.stats.memory_hits, 1);
    assert_eq!(c.stats.deployments.len(), 1, "no new deployment");
    let released = release_time(&out2);
    assert!(
        released - t2 <= SimDuration::from_millis(5),
        "fast path must not wait: {}",
        released - t2
    );
}

#[test]
fn concurrent_requests_piggyback_on_one_deployment() {
    let mut c = waiting_controller(5);
    c.on_packet_in(SimTime::ZERO, packet(1, 1), BufferId(0), CLIENT_PORT);
    let t_mid = SimTime::ZERO + SimDuration::from_millis(500);
    c.on_packet_in(t_mid, packet(2, 2), BufferId(1), CLIENT_PORT);

    // Both requests are held on the same in-flight machine; pumping it to
    // completion releases them together.
    let late = pump(&mut c);
    assert_eq!(c.stats.deployments.len(), 1, "one deployment for both");
    let releases: Vec<SimTime> = late
        .iter()
        .filter_map(|o| match o {
            ControllerOutput::ReleaseViaTable { at, .. } => Some(*at),
            _ => None,
        })
        .collect();
    assert_eq!(releases.len(), 2, "both held requests are released");
    assert_eq!(
        releases[0], releases[1],
        "both released when the single instance is ready"
    );
    assert_eq!(c.stats.held_requests, 2);
}

#[test]
fn unregistered_service_goes_to_cloud() {
    let mut c = waiting_controller(6);
    let other = SocketAddr::new(IpAddr::new(8, 8, 8, 8), 443);
    let p = Packet::syn(SocketAddr::new(client_ip(1), 40000), other, 9);
    let outputs = c.on_packet_in(SimTime::ZERO, p, BufferId(0), CLIENT_PORT);
    assert_eq!(c.stats.cloud_forwards, 1);
    assert_eq!(c.stats.deployments.len(), 0);
    // forward flow outputs to the cloud port without rewriting
    let ControllerOutput::FlowMod {
        spec: FlowSpec { actions, .. },
        ..
    } = &outputs[0]
    else {
        panic!()
    };
    assert_eq!(actions.len(), 1);
    assert!(matches!(actions[0], Action::Output(p) if p == CLOUD_PORT));
    // released promptly
    let released = release_time(&outputs);
    assert!(released - SimTime::ZERO <= SimDuration::from_millis(5));
}

#[test]
fn without_waiting_detours_to_ready_cluster_and_retargets() {
    // Near Docker cluster (cold) + far K8s cluster with the service already
    // running: NearestReadyFirst sends the first request to the far one and
    // deploys nearby in the background (paper Fig. 3).
    let mut c = Controller::builder(ControllerConfig::default())
        .global(NearestReadyFirst)
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .build();
    let near = c.attach_cluster(
        docker_backend(7),
        SimDuration::from_micros(300),
        DOCKER_PORT,
    );
    let far = c.attach_cluster(k8s_backend(8), SimDuration::from_millis(8), K8S_PORT);
    c.catalog.register(service_addr(), nginx_template());

    // Pre-deploy on the far cluster.
    let regs = registries();
    let tpl = nginx_template();
    let t = c.cluster_mut(far).pull(SimTime::ZERO, &tpl, &regs).unwrap();
    let t = c.cluster_mut(far).create(t, &tpl).unwrap();
    let receipt = c.cluster_mut(far).scale_up(t, "edge-nginx", 1).unwrap();
    let warm = receipt.expected_ready + SimDuration::from_secs(1);

    let outputs = c.on_packet_in(warm, packet(1, 1), BufferId(0), CLIENT_PORT);
    // Released immediately toward the far instance.
    let released = release_time(&outputs);
    assert!(released - warm <= SimDuration::from_millis(5));
    assert_eq!(c.stats.detoured_requests, 1);
    // Forward flow points at the far cluster's port.
    let ControllerOutput::FlowMod {
        spec: FlowSpec { actions, .. },
        ..
    } = &outputs[0]
    else {
        panic!()
    };
    assert!(matches!(actions[2], Action::Output(p) if p == K8S_PORT));

    // Background deployment at the near cluster was triggered; it completes
    // over subsequent wakeups.
    assert_eq!(c.in_flight_deployments(warm).len(), 1);
    let mut updates = pump(&mut c);
    assert_eq!(c.stats.deployments.len(), 1);
    let near_ready = {
        let rec = &c.stats.deployments[0];
        assert_eq!(rec.cluster, near);
        assert!(!rec.waited);
        rec.ready_detected
    };

    // Once the near instance is up, the memorized flow retargets and the
    // switch gets updated FlowMods.
    updates.extend(pump_until(&mut c, near_ready + SimDuration::from_secs(1)));
    assert!(!updates.is_empty(), "retarget must emit FlowMods");
    assert!(updates
        .iter()
        .all(|o| matches!(o, ControllerOutput::FlowMod { .. })));
    assert_eq!(c.stats.retargets, 1);
    let ControllerOutput::FlowMod {
        spec: FlowSpec { actions, .. },
        ..
    } = &updates[0]
    else {
        panic!()
    };
    assert!(
        matches!(actions[2], Action::Output(p) if p == DOCKER_PORT),
        "future requests go to the near cluster"
    );
}

#[test]
fn no_ready_instance_and_no_wait_policy_forwards_to_cloud() {
    // NearestReadyFirst with only a cold cluster: FAST=None → cloud, BEST →
    // background deployment.
    let mut c = Controller::builder(ControllerConfig::default())
        .global(NearestReadyFirst)
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .build();
    c.attach_cluster(
        docker_backend(9),
        SimDuration::from_micros(300),
        DOCKER_PORT,
    );
    c.catalog.register(service_addr(), nginx_template());

    let outputs = c.on_packet_in(SimTime::ZERO, packet(1, 1), BufferId(0), CLIENT_PORT);
    assert_eq!(c.stats.cloud_forwards, 1, "first request goes to the cloud");
    let released = release_time(&outputs);
    assert!(released - SimTime::ZERO <= SimDuration::from_millis(5));

    // The background deployment completes over subsequent wakeups.
    pump(&mut c);
    assert_eq!(c.stats.deployments.len(), 1, "background deployment runs");
    assert!(!c.stats.deployments[0].waited);
}

#[test]
fn deployment_failure_falls_back_to_cloud() {
    // Empty registry set: the pull fails, the request must not hang.
    let mut c = Controller::builder(ControllerConfig::default())
        .global(NearestWaiting)
        .registries(RegistrySet::new())
        .cloud_port(CLOUD_PORT)
        .build();
    c.attach_cluster(
        docker_backend(10),
        SimDuration::from_micros(300),
        DOCKER_PORT,
    );
    c.catalog.register(service_addr(), nginx_template());

    // The pull fails; retries burn down over backoff wakeups, then the held
    // request escapes to the cloud, stamped back at its decision time.
    let outputs = deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    assert_eq!(c.stats.failed_deployments, 1);
    assert_eq!(c.stats.cloud_forwards, 1);
    assert!(release_time(&outputs) - SimTime::ZERO <= SimDuration::from_millis(5));
}

#[test]
fn tick_scales_down_idle_instance_and_reports_next_wakeup() {
    let mut c = waiting_controller(11);
    let out = deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    let ready = release_time(&out);

    // Before expiry nothing is due, but a wakeup remains armed for it.
    pump_until(&mut c, ready + SimDuration::from_secs(1));
    assert!(c.next_wakeup().is_some());
    assert_eq!(c.stats.scale_downs, 0);

    // After the memory idle timeout the instance is scaled to zero.
    let late = ready + c.config().memory_idle_timeout + SimDuration::from_secs(1);
    pump_until(&mut c, late);
    assert_eq!(c.stats.scale_downs, 1);
    assert_eq!(c.next_wakeup(), None, "no flows left to expire");
    let status = c.cluster(edgectl::ClusterId(0)).status(late, "edge-nginx");
    assert_eq!(status.ready_replicas, 0);
    assert!(status.created, "scale down keeps the service objects");
}

#[test]
fn probe_quantization_bounds_detection_lag() {
    let mut c = waiting_controller(12);
    deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    let rec = &c.stats.deployments[0];
    let (_, _, expected) = rec.scale_up.unwrap();
    let lag = rec.ready_detected - expected;
    let bound = c.config().probe_interval + SimDuration::from_millis(1);
    assert!(
        lag <= bound,
        "detection lag {lag} exceeds one probe interval"
    );
}

#[test]
fn client_location_tracked() {
    let mut c = waiting_controller(13);
    c.on_packet_in(SimTime::ZERO, packet(1, 1), BufferId(0), CLIENT_PORT);
    assert_eq!(c.client_location(client_ip(1)), Some(CLIENT_PORT));
    assert_eq!(c.client_location(client_ip(99)), None);
}

#[test]
fn retries_recover_from_transient_faults() {
    use cluster::{FaultPlan, FaultyCluster};

    // A backend that fails half its calls: with retries the deployment
    // succeeds; without them it frequently falls back to the cloud.
    let run = |retries: u32, seed: u64| -> (bool, u64) {
        let mut config = ControllerConfig::default();
        config.deploy_retries = retries;
        let mut c = Controller::builder(config)
            .global(NearestWaiting)
            .registries(registries())
            .cloud_port(CLOUD_PORT)
            .build();
        let rng = SimRng::seed_from_u64(seed);
        let inner = DockerCluster::new(
            "edge-docker",
            IpAddr::new(10, 0, 0, 100),
            Runtime::egs(rng.stream("rt")),
            rng.stream("docker"),
        );
        c.attach_cluster(
            Box::new(FaultyCluster::new(
                inner,
                FaultPlan::flaky(0.5),
                rng.stream("faults"),
            )),
            SimDuration::from_micros(300),
            DOCKER_PORT,
        );
        c.catalog.register(service_addr(), nginx_template());
        deliver(
            &mut c,
            SimTime::ZERO,
            packet(1, 1),
            BufferId(0),
            CLIENT_PORT,
        );
        (
            c.stats.deployments.len() == 1 && c.stats.failed_deployments == 0,
            c.stats.retried_operations,
        )
    };

    let with_retries: Vec<(bool, u64)> = (0..20).map(|s| run(8, s)).collect();
    let ok = with_retries.iter().filter(|r| r.0).count();
    assert!(ok >= 19, "8 retries at 50% flake: {ok}/20 succeeded");
    assert!(
        with_retries.iter().map(|r| r.1).sum::<u64>() > 10,
        "retries must actually have happened"
    );

    let without: Vec<(bool, u64)> = (0..20).map(|s| run(0, s)).collect();
    let ok = without.iter().filter(|r| r.0).count();
    assert!(
        ok <= 10,
        "no retries at 50% flake should fail often: {ok}/20 succeeded"
    );
}

#[test]
fn retry_backoff_delays_deployment() {
    use cluster::{FaultPlan, FaultyCluster};

    // Deterministically fail the first pull attempt only: total deployment
    // time gains one backoff period.
    let mut config = ControllerConfig::default();
    config.deploy_retries = 5;
    config.retry_backoff = SimDuration::from_millis(400);
    let mut c = Controller::builder(config)
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .build();
    // seed chosen so the first roll at 50% fails, later ones succeed
    let mut chosen = None;
    for seed in 0..50u64 {
        let mut probe = SimRng::seed_from_u64(seed);
        if probe.chance(0.5) && !probe.chance(0.5) {
            chosen = Some(seed);
            break;
        }
    }
    let seed = chosen.expect("some seed fails first, passes second");
    let rng = SimRng::seed_from_u64(1);
    let inner = DockerCluster::new(
        "edge-docker",
        IpAddr::new(10, 0, 0, 100),
        Runtime::egs(rng.stream("rt")),
        rng.stream("docker"),
    );
    c.attach_cluster(
        Box::new(FaultyCluster::new(
            inner,
            FaultPlan::flaky(0.5),
            SimRng::seed_from_u64(seed),
        )),
        SimDuration::from_micros(300),
        DOCKER_PORT,
    );
    c.catalog.register(service_addr(), nginx_template());
    deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    assert_eq!(c.stats.deployments.len(), 1);
    assert!(c.stats.retried_operations >= 1);
    let rec = &c.stats.deployments[0];
    // the pull was issued no earlier than one backoff after the trigger
    let (pull_issued, _) = rec.pull.expect("cold start pulls");
    assert!(pull_issued >= SimTime::ZERO + SimDuration::from_millis(400));
}

#[test]
fn autoscaler_grows_replicas_with_flow_count() {
    let mut config = ControllerConfig::default();
    config.autoscale_flows_per_replica = Some(4);
    let mut c = Controller::builder(config)
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .build();
    c.attach_cluster(
        docker_backend(21),
        SimDuration::from_micros(300),
        DOCKER_PORT,
    );
    c.catalog.register(service_addr(), nginx_template());

    // First client triggers the deployment; eleven more arrive afterwards.
    let out = deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    let ready = release_time(&out);
    for i in 2..=12u8 {
        c.on_packet_in(
            ready + SimDuration::from_secs(i as u64),
            packet(i, i as u64),
            BufferId(i as u64),
            CLIENT_PORT,
        );
    }
    assert_eq!(c.memory().len(), 12);

    // Housekeeping rides memory-expiry wakeups: at the first one (client 1's
    // flow, one idle timeout after release) eleven flows remain →
    // ceil(11/4) = 3 replicas desired.
    let tick_at = ready + c.config().memory_idle_timeout + SimDuration::from_secs(1);
    pump_until(&mut c, tick_at);
    assert_eq!(c.stats.autoscale_ups, 1);
    let later = tick_at + SimDuration::from_secs(5);
    let status = c.cluster(edgectl::ClusterId(0)).status(later, "edge-nginx");
    assert_eq!(status.ready_replicas, 3, "autoscaled to ceil(11/4)");

    // The Local Scheduler now spreads subsequent clients across replicas.
    let eps = c
        .cluster(edgectl::ClusterId(0))
        .replica_endpoints(later, "edge-nginx");
    assert_eq!(eps.len(), 3);
    let mut seen = std::collections::HashSet::new();
    for i in 13..=18u8 {
        let out = c.on_packet_in(
            later + SimDuration::from_millis(i as u64),
            packet(i, 100 + i as u64),
            BufferId(100 + i as u64),
            CLIENT_PORT,
        );
        let ControllerOutput::FlowMod {
            spec: FlowSpec { actions, .. },
            ..
        } = &out[0]
        else {
            panic!("expected forward FlowMod");
        };
        if let Action::SetDstPort(p) = actions[1] {
            seen.insert(p);
        }
    }
    assert!(
        seen.len() >= 2,
        "round-robin must hit multiple replicas: {seen:?}"
    );
}

#[test]
fn autoscaler_disabled_by_default() {
    let mut c = waiting_controller(22);
    let out = deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    let ready = release_time(&out);
    for i in 2..=12u8 {
        c.on_packet_in(
            ready + SimDuration::from_millis(i as u64),
            packet(i, i as u64),
            BufferId(i as u64),
            CLIENT_PORT,
        );
    }
    pump_until(&mut c, ready + SimDuration::from_secs(2));
    assert_eq!(c.stats.autoscale_ups, 0);
    let status = c
        .cluster(edgectl::ClusterId(0))
        .status(ready + SimDuration::from_secs(10), "edge-nginx");
    assert_eq!(status.ready_replicas, 1);
}

#[test]
fn client_mobility_reverse_flow_follows_new_port() {
    // Paper §IV-B: the Dispatcher "also tracks the clients' current
    // location". When a client reappears on a different ingress port, the
    // re-installed reverse flow must deliver responses to the new port.
    let mut c = waiting_controller(23);
    let out = deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    let ready = release_time(&out);
    assert_eq!(c.client_location(client_ip(1)), Some(CLIENT_PORT));

    // The client roams: same IP, new switch port (e.g. moved to another AP).
    let new_port = PortId(7);
    let out2 = c.on_packet_in(
        ready + SimDuration::from_secs(1),
        packet(1, 2),
        BufferId(1),
        new_port,
    );
    assert_eq!(c.client_location(client_ip(1)), Some(new_port));
    // memory fast path still applies…
    assert_eq!(c.stats.memory_hits, 1);
    // …and the reverse flow outputs to the new location.
    let ControllerOutput::FlowMod {
        spec: FlowSpec { actions: rev, .. },
        ..
    } = &out2[1]
    else {
        panic!("second output must be the reverse FlowMod");
    };
    assert!(
        matches!(rev[2], Action::Output(p) if p == new_port),
        "reverse flow must follow the client: {rev:?}"
    );
}

#[test]
fn probe_timeout_falls_back_to_cloud() {
    // A service whose app takes longer to open its port than the controller
    // is willing to wait: the buffered request must not hang forever.
    let mut config = ControllerConfig::default();
    config.probe_timeout = SimDuration::from_secs(1);
    let mut c = Controller::builder(config)
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .build();
    c.attach_cluster(
        docker_backend(31),
        SimDuration::from_micros(300),
        DOCKER_PORT,
    );
    // 30 s of app init — far beyond the 1 s probe budget.
    c.catalog.register(
        service_addr(),
        ServiceTemplate::single(
            "edge-nginx",
            "nginx:1.23.2",
            80,
            DurationDist::constant_ms(30_000.0),
        ),
    );
    let outputs = deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    assert_eq!(c.stats.failed_deployments, 1);
    assert_eq!(c.stats.cloud_forwards, 1, "request escapes to the cloud");
    let released = release_time(&outputs);
    assert!(
        released - SimTime::ZERO < SimDuration::from_secs(30),
        "must not wait out the full app init"
    );
}

#[test]
fn multi_switch_decisions_are_relative_to_ingress() {
    use edgectl::SwitchId;

    // Two switches, one Docker site behind each. A client behind switch 0
    // must be served by site 0; a client behind switch 1 by site 1.
    let mut c = Controller::builder(ControllerConfig::default())
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(PortId(0)) // switch 0's cloud port
        .build();
    let near0 = SimDuration::from_micros(80);
    let far = SimDuration::from_millis(3);
    // site 0: local to switch 0 on port 2
    c.attach_cluster(docker_backend(41), near0, PortId(2));
    // site 1: from switch 0 it is behind the trunk (port 1), farther away
    let s1 = c.attach_cluster(
        {
            let rng = SimRng::seed_from_u64(42);
            Box::new(DockerCluster::new(
                "site-1",
                IpAddr::new(10, 0, 1, 100),
                Runtime::egs(rng.stream("rt")),
                rng.stream("d"),
            ))
        },
        far,
        PortId(1),
    );
    // switch 1: cloud via trunk port 0; site 0 via trunk (port 0), site 1 local (port 2)
    let sw1 = c.add_switch(PortId(0), vec![(PortId(0), far), (PortId(2), near0)]);
    c.catalog.register(service_addr(), nginx_template());

    // Client A behind switch 0 → deployment lands on site 0.
    let mut out_a = c.on_packet_in_at(
        SimTime::ZERO,
        SwitchId(0),
        packet(1, 1),
        BufferId(0),
        PortId(5),
    );
    out_a.extend(pump(&mut c));
    assert_eq!(c.stats.deployments[0].cluster, edgectl::ClusterId(0));
    let ControllerOutput::FlowMod {
        spec: FlowSpec { actions, .. },
        switch,
        ..
    } = &out_a[0]
    else {
        panic!()
    };
    assert_eq!(*switch, SwitchId(0));
    assert!(
        matches!(actions[2], Action::Output(p) if p == PortId(2)),
        "local site port"
    );

    // Client B behind switch 1 → deployment lands on site 1, flows installed
    // on switch 1 pointing at ITS local port.
    let mut out_b = c.on_packet_in_at(
        SimTime::ZERO + SimDuration::from_secs(10),
        sw1,
        packet(2, 2),
        BufferId(1),
        PortId(6),
    );
    out_b.extend(pump(&mut c));
    assert_eq!(c.stats.deployments[1].cluster, s1);
    let ControllerOutput::FlowMod {
        spec: FlowSpec { actions, .. },
        switch,
        ..
    } = &out_b[0]
    else {
        panic!()
    };
    assert_eq!(*switch, sw1);
    assert!(matches!(actions[2], Action::Output(p) if p == PortId(2)));
    // host route for client B appears on switch 0 (toward switch 1 = port 1)
    let host_route = out_b.iter().find_map(|o| match o {
        ControllerOutput::FlowMod {
            switch: SwitchId(0),
            spec: FlowSpec {
                matcher, actions, ..
            },
            ..
        } if matcher.dst_ip == Some(client_ip(2)) => Some(actions.clone()),
        _ => None,
    });
    let actions = host_route.expect("host route installed on the other switch");
    assert!(matches!(actions[0], Action::Output(p) if p == PortId(1)));
}

#[test]
fn add_switch_requires_full_port_map() {
    let mut c = waiting_controller(43);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.add_switch(PortId(0), vec![]); // one cluster attached, zero ports
    }));
    assert!(result.is_err(), "mismatched port map must panic");
}

#[test]
fn remove_phase_deletes_long_idle_services() {
    // Fig. 4's full lifecycle: Scale Down after flow expiry, Remove after
    // prolonged idleness — and a later request pays Create + Scale-Up again
    // (but not Pull: the image stays cached).
    let mut config = ControllerConfig::default();
    config.remove_after = Some(SimDuration::from_secs(120));
    let mut c = Controller::builder(config)
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .build();
    c.attach_cluster(
        docker_backend(51),
        SimDuration::from_micros(300),
        DOCKER_PORT,
    );
    c.catalog.register(service_addr(), nginx_template());

    let out = deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    let ready = release_time(&out);

    // Idle out → scale down.
    let t1 = ready + c.config().memory_idle_timeout + SimDuration::from_secs(1);
    pump_until(&mut c, t1);
    assert_eq!(c.stats.scale_downs, 1);
    assert_eq!(c.stats.removals, 0);
    assert!(
        c.cluster(edgectl::ClusterId(0))
            .status(t1, "edge-nginx")
            .created
    );

    // The controller must wake up again for the pending removal.
    pump_until(&mut c, t1 + SimDuration::from_secs(1));
    assert!(c.next_wakeup().is_some(), "a removal is pending");

    // After remove_after at zero replicas → Remove.
    let t2 = t1 + SimDuration::from_secs(121);
    pump_until(&mut c, t2);
    assert_eq!(c.stats.removals, 1);
    assert!(
        !c.cluster(edgectl::ClusterId(0))
            .status(t2, "edge-nginx")
            .created
    );

    // A later request redeploys: Create + Scale-Up, no Pull.
    let t3 = t2 + SimDuration::from_secs(10);
    let out = deliver(&mut c, t3, packet(1, 2), BufferId(1), CLIENT_PORT);
    let rec = c.stats.deployments.last().unwrap();
    assert!(rec.pull.is_none(), "image still cached after Remove");
    assert!(rec.create.is_some(), "service objects must be recreated");
    let warm_ms = (release_time(&out) - t3).as_millis_f64();
    assert!(warm_ms < 1200.0, "redeploy after Remove took {warm_ms} ms");
}

#[test]
fn revived_service_escapes_pending_removal() {
    let mut config = ControllerConfig::default();
    config.remove_after = Some(SimDuration::from_secs(120));
    let mut c = Controller::builder(config)
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .build();
    c.attach_cluster(
        docker_backend(52),
        SimDuration::from_micros(300),
        DOCKER_PORT,
    );
    c.catalog.register(service_addr(), nginx_template());

    let out = deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    let ready = release_time(&out);
    let t1 = ready + c.config().memory_idle_timeout + SimDuration::from_secs(1);
    pump_until(&mut c, t1);
    assert_eq!(c.stats.scale_downs, 1);

    // A request arrives before the removal deadline: the service revives.
    let t2 = t1 + SimDuration::from_secs(30);
    deliver(&mut c, t2, packet(2, 2), BufferId(1), CLIENT_PORT);

    // The removal deadline passes — nothing must be removed.
    pump_until(&mut c, t1 + SimDuration::from_secs(121));
    assert_eq!(c.stats.removals, 0);
    assert!(
        c.cluster(edgectl::ClusterId(0))
            .status(t1 + SimDuration::from_secs(121), "edge-nginx")
            .created
    );
}

/// A Kubernetes backend that counts the reads it answers. Every way of
/// reading service state — `status`, `is_ready`, `replica_endpoints` — is a
/// provided view of `observe`, so counting that one method counts them all.
struct CountingK8s {
    inner: K8sCluster,
    reads: std::rc::Rc<std::cell::Cell<u64>>,
}

impl ClusterBackend for CountingK8s {
    fn cluster_name(&self) -> &str {
        self.inner.cluster_name()
    }
    fn kind(&self) -> cluster::ClusterKind {
        self.inner.kind()
    }
    fn pull(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
        registries: &RegistrySet,
    ) -> Result<SimTime, cluster::ClusterError> {
        self.inner.pull(now, template, registries)
    }
    fn create(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
    ) -> Result<SimTime, cluster::ClusterError> {
        self.inner.create(now, template)
    }
    fn scale_up(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<cluster::ScaleReceipt, cluster::ClusterError> {
        self.inner.scale_up(now, service, replicas)
    }
    fn scale_down(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<SimTime, cluster::ClusterError> {
        self.inner.scale_down(now, service, replicas)
    }
    fn remove(&mut self, now: SimTime, service: &str) -> Result<SimTime, cluster::ClusterError> {
        self.inner.remove(now, service)
    }
    fn delete_image(&mut self, now: SimTime, image: &containers::ImageRef) -> bool {
        self.inner.delete_image(now, image)
    }
    fn observe(
        &self,
        now: SimTime,
        service: &str,
        endpoints: Option<&mut Vec<SocketAddr>>,
    ) -> cluster::ServiceSnapshot {
        self.reads.set(self.reads.get() + 1);
        self.inner.observe(now, service, endpoints)
    }
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
    fn has_images(&self, template: &ServiceTemplate) -> bool {
        self.inner.has_images(template)
    }
    fn services(&self) -> Vec<String> {
        self.inner.services()
    }
    fn load(&self) -> f64 {
        self.inner.load()
    }
    fn inject_crash(&mut self, now: SimTime, service: &str) -> cluster::CrashOutcome {
        self.inner.inject_crash(now, service)
    }
}

/// The snapshot cache serves Kubernetes like Docker: PacketIns for a ready
/// service at one backend epoch share one backend read (scheduler view and
/// Local-Scheduler endpoint pick included), and a mutation that reaches the
/// backend behind the controller's back — a crash — forces the next one to
/// read again.
#[test]
fn k8s_packet_ins_at_one_epoch_share_one_backend_read() {
    let reads = std::rc::Rc::new(std::cell::Cell::new(0));
    let rng = SimRng::seed_from_u64(61);
    let backend = CountingK8s {
        inner: K8sCluster::new(
            "edge-k8s",
            IpAddr::new(10, 0, 1, 100),
            Runtime::egs(rng.stream("rt")),
            rng.stream("k8s"),
            K8sTimings::egs(),
        ),
        reads: reads.clone(),
    };
    let mut c = Controller::builder(ControllerConfig::default())
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .build();
    c.attach_cluster(Box::new(backend), SimDuration::from_micros(300), K8S_PORT);
    c.catalog.register(service_addr(), nginx_template());

    let out = deliver(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    let t1 = release_time(&out) + SimDuration::from_secs(1);

    // Move the epoch with a mutation that changes nothing (the image is
    // cached): two new clients then find the service ready with nothing
    // mutating in between — the first PacketIn re-reads, once, and the
    // second is served from the cache.
    c.cluster_mut(edgectl::ClusterId(0))
        .pull(t1, &nginx_template(), &registries())
        .expect("cached pull");
    let before = reads.get();
    let first = c.on_packet_in(t1, packet(2, 2), BufferId(1), CLIENT_PORT);
    assert_eq!(release_time(&first), t1 + c.config().processing_delay);
    assert_eq!(reads.get(), before + 1);
    let t2 = t1 + SimDuration::from_millis(5);
    let second = c.on_packet_in(t2, packet(3, 3), BufferId(2), CLIENT_PORT);
    assert_eq!(release_time(&second), t2 + c.config().processing_delay);
    assert_eq!(reads.get(), before + 1, "the second PacketIn reads nothing");

    // A crash moves the backend's epoch: the next PacketIn must read again —
    // and sees the pod down, so it waits for the recovery instead of being
    // redirected to the dead endpoint.
    let t3 = t2 + SimDuration::from_millis(5);
    let outcome = c
        .cluster_mut(edgectl::ClusterId(0))
        .inject_crash(t3, "edge-nginx");
    let recovered = outcome.recovery().expect("the kubelet restarts the pod");
    let before = reads.get();
    let third = c.on_packet_in(t3, packet(4, 4), BufferId(3), CLIENT_PORT);
    assert!(
        reads.get() > before,
        "the crash invalidated the cached read"
    );
    assert!(flow_mods(&third).is_empty(), "held, not redirected");
    let released = release_time(&pump(&mut c));
    assert!(released >= recovered, "{released} < {recovered}");
}
