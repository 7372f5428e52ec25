//! Fault interleavings that were *impossible* under the old synchronous
//! pipeline: with the dispatcher a deployment is a state machine advanced by
//! discrete wakeups, so a backend fault or an instance crash can land
//! **between** phases — in the back-off window between Create and Scale-Up,
//! or inside the probe window — and is observed and handled by the next
//! step. The synchronous pipeline precomputed the whole deployment in one
//! call; nothing could happen "during" it.

use cluster::{
    ClusterBackend, ClusterError, ClusterKind, CrashOutcome, DockerCluster, FaultPlan,
    FaultyCluster, ScaleReceipt, ServiceSnapshot, ServiceTemplate, SiteCapacity,
};
use containers::image::synthesize_layers;
use containers::{ImageManifest, ImageRef, Runtime};
use edgectl::{
    AdmissionError, ClusterId, Controller, ControllerConfig, ControllerOutput, DeployError,
    DeployPhaseKind, NearestWaiting,
};
use registry::{Registry, RegistryProfile, RegistrySet};
use simcore::{DurationDist, SimDuration, SimRng, SimTime};
use simnet::openflow::{Action, BufferId, FlowSpec, PortId};
use simnet::{IpAddr, Packet, SocketAddr};

const CLOUD_PORT: PortId = PortId(0);
const CLIENT_PORT: PortId = PortId(1);
const DOCKER_PORT: PortId = PortId(2);

/// Fault-RNG seed for [`scale_down_retry_succeeds_after_transient_fault`]:
/// with `scale_down_failure: 0.5` this stream fails the first scale-down
/// roll and passes a later one (verified; the shim RNG is a fixed stream
/// per seed, so this cannot rot silently — the test asserts both halves).
const FLAKY_SCALE_DOWN_SEED: u64 = 0;

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

fn service_addr() -> SocketAddr {
    SocketAddr::new(IpAddr::new(93, 184, 0, 1), 80)
}

fn packet(client: u8, tag: u64) -> Packet {
    Packet::syn(
        SocketAddr::new(IpAddr::new(10, 1, 0, client), 40_000),
        service_addr(),
        tag,
    )
}

fn docker(seed: u64) -> DockerCluster {
    let rng = SimRng::seed_from_u64(seed);
    DockerCluster::new(
        "edge-docker",
        IpAddr::new(10, 0, 0, 100),
        Runtime::egs(rng.stream("rt")),
        rng.stream("docker"),
    )
}

/// A backend whose next `n` scale-up calls fail deterministically — the
/// fault lands exactly in the gap between a successful Create and the
/// Scale-Up, which only the stepped dispatcher can observe mid-flight.
struct FailingScaleUp {
    inner: DockerCluster,
    failures_left: u32,
}

impl ClusterBackend for FailingScaleUp {
    fn cluster_name(&self) -> &str {
        self.inner.cluster_name()
    }
    fn kind(&self) -> ClusterKind {
        self.inner.kind()
    }
    fn pull(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
        registries: &RegistrySet,
    ) -> Result<SimTime, ClusterError> {
        self.inner.pull(now, template, registries)
    }
    fn create(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
    ) -> Result<SimTime, ClusterError> {
        self.inner.create(now, template)
    }
    fn scale_up(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<ScaleReceipt, ClusterError> {
        if self.failures_left > 0 {
            self.failures_left -= 1;
            return Err(ClusterError::InsufficientResources("node pressure"));
        }
        self.inner.scale_up(now, service, replicas)
    }
    fn scale_down(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<SimTime, ClusterError> {
        self.inner.scale_down(now, service, replicas)
    }
    fn remove(&mut self, now: SimTime, service: &str) -> Result<SimTime, ClusterError> {
        self.inner.remove(now, service)
    }
    fn delete_image(&mut self, now: SimTime, image: &ImageRef) -> bool {
        self.inner.delete_image(now, image)
    }
    fn observe(
        &self,
        now: SimTime,
        service: &str,
        endpoints: Option<&mut Vec<SocketAddr>>,
    ) -> ServiceSnapshot {
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
    fn inject_crash(&mut self, now: SimTime, service: &str) -> CrashOutcome {
        self.inner.inject_crash(now, service)
    }
}

fn controller_with(backend: Box<dyn ClusterBackend>, config: ControllerConfig) -> Controller {
    let mut c = Controller::builder(config)
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .build();
    c.attach_cluster(backend, SimDuration::from_micros(300), DOCKER_PORT);
    c.catalog.register(
        service_addr(),
        ServiceTemplate::single(
            "edge-nginx",
            "nginx:1.23.2",
            80,
            DurationDist::constant_ms(110.0),
        ),
    );
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

fn pump_one(c: &mut Controller, out: &mut Vec<ControllerOutput>) -> SimTime {
    let at = c.next_wakeup().expect("a wakeup must be armed");
    out.extend(c.on_wakeup(at));
    at
}

/// The ISSUE's headline interleaving: Create succeeds, the Scale-Up fails,
/// and the machine sits in its back-off window *between Create and Scale-Up*
/// — observable mid-flight via `in_flight_deployments`/`deployment_phase` —
/// then the retry wakeup re-issues the scale-up and the held request is
/// still served at the edge.
#[test]
fn fault_between_create_and_scale_up_is_observed_and_retried() {
    let config = ControllerConfig {
        deploy_retries: 2,
        retry_backoff: SimDuration::from_millis(250),
        ..Default::default()
    };
    let mut c = controller_with(
        Box::new(FailingScaleUp {
            inner: docker(1),
            failures_left: 1,
        }),
        config,
    );

    let svc = c.catalog.id_of("edge-nginx").expect("registered");
    let mut out = c.on_packet_in(SimTime::ZERO, packet(1, 1), BufferId(0), CLIENT_PORT);
    assert!(out.is_empty(), "request is held while the machine runs");

    // Walk wakeups until the failed scale-up parks the machine in its
    // back-off window. On a *successful* path the ScalingUp phase is pumped
    // through within a single wakeup (create completes → scale-up issued →
    // Probing), so catching `ScalingUp` between wakeups at all means the
    // machine is sitting in the gap between Create and Scale-Up.
    let edge = ClusterId(0);
    let mut backoff_seen = false;
    for _ in 0..64 {
        let in_flight = c.in_flight_deployments(SimTime::ZERO);
        assert!(
            in_flight.contains(&(svc, edge)),
            "machine must stay in flight across the fault"
        );
        if c.deployment_phase(edge, svc) == Some(DeployPhaseKind::ScalingUp) {
            backoff_seen = true;
            break;
        }
        pump_one(&mut c, &mut out);
    }
    assert!(
        backoff_seen,
        "the dispatcher must expose the machine mid-flight between Create and Scale-Up"
    );
    assert_eq!(c.stats.deployments.len(), 0, "nothing completed yet");

    // The retry wakeup re-issues the scale-up; the deployment completes and
    // the held request is released toward the edge, not the cloud.
    while !c.in_flight_deployments(SimTime::ZERO).is_empty() {
        pump_one(&mut c, &mut out);
    }
    assert_eq!(c.stats.failed_deployments, 0);
    assert_eq!(c.stats.cloud_forwards, 0, "no cloud fallback");
    assert_eq!(c.stats.deployments.len(), 1);
    assert_eq!(c.stats.retried_operations, 1);
    let rec = &c.stats.deployments[0];
    assert!(rec.create.is_some());
    let (_, create_end) = rec.create.expect("created");
    let (scale_issued, _, _) = rec.scale_up.expect("scaled up on retry");
    assert!(
        scale_issued >= create_end + SimDuration::from_millis(250),
        "retried scale-up must be delayed by one back-off: {scale_issued} vs {create_end}"
    );
    // Released to the edge instance: the forward FlowMod rewrites the port.
    let forward = out
        .iter()
        .find_map(|o| match o {
            ControllerOutput::FlowMod {
                spec: FlowSpec { actions, .. },
                ..
            } => Some(actions.clone()),
            _ => None,
        })
        .expect("flows installed");
    assert!(matches!(forward[2], Action::Output(p) if p == DOCKER_PORT));
    release_time(&out);
}

/// Retry exhaustion: every scale-up attempt fails, the machine dies in the
/// ScalingUp phase and the held request falls back to the cloud. The
/// `last_deploy_failure` diagnostics name the phase and the backend error.
#[test]
fn scale_up_retry_exhaustion_fails_over_to_cloud() {
    let config = ControllerConfig {
        deploy_retries: 2,
        retry_backoff: SimDuration::from_millis(250),
        ..Default::default()
    };
    let mut c = controller_with(
        Box::new(FailingScaleUp {
            inner: docker(2),
            failures_left: u32::MAX,
        }),
        config,
    );

    let mut out = c.on_packet_in(SimTime::ZERO, packet(1, 1), BufferId(0), CLIENT_PORT);
    while !c.in_flight_deployments(SimTime::ZERO).is_empty() {
        pump_one(&mut c, &mut out);
    }
    assert_eq!(c.stats.failed_deployments, 1);
    assert_eq!(
        c.stats.retried_operations, 2,
        "the full retry budget burned"
    );
    assert_eq!(
        c.stats.cloud_forwards, 1,
        "held request escapes to the cloud"
    );
    assert_eq!(c.stats.deployments.len(), 0);

    let failure = c.last_deploy_failure().expect("failure recorded");
    assert_eq!(failure.cluster, ClusterId(0));
    assert_eq!(failure.phase, DeployPhaseKind::ScalingUp);
    assert!(
        matches!(
            failure.error,
            DeployError::Cluster(ClusterError::InsufficientResources { .. })
        ),
        "diagnostics carry the backend error: {:?}",
        failure.error
    );
    // The release is stamped back at the request's decision instant, so the
    // client never waits out the whole retry ladder.
    assert!(release_time(&out) - SimTime::ZERO <= SimDuration::from_millis(5));
    // No pending placeholder survives a failed machine.
    assert!(c.memory().iter().all(|f| !f.pending));
}

/// A replica crash *inside the probe window* (after the scale-up was
/// accepted, before the port opened): plain Docker won't self-heal, so the
/// dispatcher observes zero ready replicas past the backend's own readiness
/// estimate and re-issues the scale-up — a recovery the synchronous pipeline
/// could never perform because nothing could crash "during" its one call.
#[test]
fn replica_crash_during_probe_window_is_recovered() {
    let config = ControllerConfig {
        deploy_retries: 2,
        ..Default::default()
    };
    let mut c = controller_with(Box::new(docker(3)), config);
    let svc = c.catalog.id_of("edge-nginx").expect("registered");
    let edge = ClusterId(0);

    let mut out = c.on_packet_in(SimTime::ZERO, packet(1, 1), BufferId(0), CLIENT_PORT);

    // Advance until the machine enters the probe loop.
    let mut probing_at = None;
    for _ in 0..64 {
        if c.deployment_phase(edge, svc) == Some(DeployPhaseKind::Probing) {
            probing_at = c.next_wakeup();
            break;
        }
        pump_one(&mut c, &mut out);
    }
    let probing_at = probing_at.expect("machine must reach Probing");

    // Kill the starting replica right at the first probe instant.
    let outcome = c.cluster_mut(edge).inject_crash(probing_at, "edge-nginx");
    assert_eq!(outcome, CrashOutcome::Down, "docker does not self-heal");

    while !c.in_flight_deployments(SimTime::ZERO).is_empty() {
        pump_one(&mut c, &mut out);
    }
    assert_eq!(
        c.stats.crash_recoveries, 1,
        "the dispatcher re-issued the scale-up"
    );
    assert_eq!(c.stats.failed_deployments, 0);
    assert_eq!(c.stats.deployments.len(), 1, "deployment still completes");
    assert_eq!(c.stats.cloud_forwards, 0);
    release_time(&out);
}

/// Probe-timeout `Failed` path: the port never opens inside the window; the
/// machine dies in Probing and `last_deploy_failure` carries the deadline.
#[test]
fn probe_timeout_records_failed_probing_phase() {
    let config = ControllerConfig {
        probe_timeout: SimDuration::from_secs(1),
        ..Default::default()
    };
    let mut c = Controller::builder(config)
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .build();
    c.attach_cluster(
        Box::new(docker(4)),
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

    let mut out = c.on_packet_in(SimTime::ZERO, packet(1, 1), BufferId(0), CLIENT_PORT);
    while !c.in_flight_deployments(SimTime::ZERO).is_empty() {
        pump_one(&mut c, &mut out);
    }
    assert_eq!(c.stats.failed_deployments, 1);
    let failure = c.last_deploy_failure().expect("failure recorded");
    assert_eq!(failure.phase, DeployPhaseKind::Probing);
    let DeployError::ProbeTimeout { deadline } = failure.error else {
        panic!("expected a probe timeout, got {:?}", failure.error);
    };
    // The deadline is one probe budget after the scale-up accept, which is
    // itself well before the 30 s app init would have completed.
    assert!(deadline - SimTime::ZERO < SimDuration::from_secs(20));
    assert_eq!(c.stats.cloud_forwards, 1);
    release_time(&out);
}

/// Deploy one service with waiting and pump until the machine completes;
/// returns the instant the deployment was detected ready.
fn deploy_and_settle(c: &mut Controller) -> SimTime {
    let mut out = c.on_packet_in(SimTime::ZERO, packet(1, 1), BufferId(0), CLIENT_PORT);
    while !c.in_flight_deployments(SimTime::ZERO).is_empty() {
        pump_one(c, &mut out);
    }
    assert_eq!(c.stats.deployments.len(), 1, "deployment must complete");
    release_time(&out);
    c.stats.deployments[0].ready_detected
}

/// Idle scale-down hitting a faulty backend API (`cluster::FaultyCluster`
/// with `scale_down_failure: 1.0`): the failed call must leave
/// `stats.scale_downs` unchanged, keep the replica running, and arm a retry
/// at the next due wakeup (one `retry_backoff` later) instead of silently
/// leaking the idle instance.
#[test]
fn scale_down_fault_leaves_stats_unchanged_and_arms_retry() {
    let config = ControllerConfig {
        memory_idle_timeout: SimDuration::from_secs(2),
        scale_down_idle: true,
        retry_backoff: SimDuration::from_millis(250),
        ..Default::default()
    };
    let plan = FaultPlan {
        scale_down_failure: 1.0,
        ..FaultPlan::none()
    };
    let mut c = controller_with(
        Box::new(FaultyCluster::new(
            docker(5),
            plan,
            SimRng::seed_from_u64(7),
        )),
        config,
    );
    let ready = deploy_and_settle(&mut c);
    let edge = ClusterId(0);

    // The memorized flow expires; housekeeping tries to scale down and the
    // backend call fails.
    let mut out = Vec::new();
    let first_attempt = pump_one(&mut c, &mut out);
    assert!(first_attempt >= ready + SimDuration::from_secs(2));
    assert_eq!(c.stats.scale_downs, 0, "failed call must not be counted");
    assert!(
        c.cluster_mut(edge)
            .status(first_attempt, "edge-nginx")
            .ready_replicas
            > 0,
        "the instance must still be running"
    );

    // The candidate is not dropped: a retry is armed one back-off later, and
    // (with the fault still active) keeps re-arming after every attempt.
    assert_eq!(
        c.next_wakeup(),
        Some(first_attempt + SimDuration::from_millis(250)),
        "retry must be the next due wakeup"
    );
    let second_attempt = pump_one(&mut c, &mut out);
    assert_eq!(c.stats.scale_downs, 0);
    assert_eq!(
        c.next_wakeup(),
        Some(second_attempt + SimDuration::from_millis(250))
    );
    assert!(out.is_empty(), "scale-down housekeeping emits no outputs");
}

/// Admission rejection before the machine ever starts: the site's declared
/// capacity cannot hold the service's resource request, so the scheduler's
/// deploy decision is refused *before* any backend call — no machine, no
/// retries — and the held request escapes to the cloud immediately, with the
/// typed [`AdmissionError`] surfaced for diagnostics.
#[test]
fn admission_rejection_falls_back_to_cloud() {
    let mut c = controller_with(Box::new(docker(7)), ControllerConfig::default());
    // `edge-nginx` asks for 250 milli-cores (the template default); a site
    // with 100m free can never admit it.
    c.configure_site(ClusterId(0), SiteCapacity::new(100, 4_096), Vec::new());

    let out = c.on_packet_in(SimTime::ZERO, packet(1, 1), BufferId(0), CLIENT_PORT);

    assert!(
        c.in_flight_deployments(SimTime::ZERO).is_empty(),
        "a rejected decision must not start a deployment machine"
    );
    assert_eq!(c.stats.admission_rejections, 1);
    assert_eq!(c.stats.capacity_violations, 0);
    assert_eq!(c.stats.cloud_forwards, 1, "request escapes to the cloud");
    assert_eq!(c.stats.failed_deployments, 0, "rejection is not a failure");
    assert_eq!(c.stats.deployments.len(), 0);
    match c.last_admission_error() {
        Some(AdmissionError::Capacity { cluster, .. }) => assert_eq!(*cluster, ClusterId(0)),
        other => panic!("expected a capacity rejection, got {other:?}"),
    }
    // Released right away toward the cloud — the client never waits on a
    // deployment that was never going to be admitted.
    assert!(release_time(&out) - SimTime::ZERO <= SimDuration::from_millis(5));
    assert!(c.memory().iter().all(|f| !f.pending));
}

/// Affinity rejection: the service requires a label no site advertises. The
/// typed error names the missing label, and the request is cloud-served.
#[test]
fn unmet_affinity_label_is_rejected_with_the_label_named() {
    let mut c = Controller::builder(ControllerConfig::default())
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .build();
    c.attach_cluster(
        Box::new(docker(8)),
        SimDuration::from_micros(300),
        DOCKER_PORT,
    );
    let mut template = ServiceTemplate::single(
        "edge-nginx",
        "nginx:1.23.2",
        80,
        DurationDist::constant_ms(110.0),
    );
    template.requirements.label_match_all = vec!["accelerator:gpu".into()];
    c.catalog.register(service_addr(), template);

    let out = c.on_packet_in(SimTime::ZERO, packet(1, 1), BufferId(0), CLIENT_PORT);

    assert!(c.in_flight_deployments(SimTime::ZERO).is_empty());
    assert_eq!(c.stats.admission_rejections, 1);
    assert_eq!(c.stats.cloud_forwards, 1);
    match c.last_admission_error() {
        Some(AdmissionError::RequirementsUnmet { cluster, label }) => {
            assert_eq!(*cluster, ClusterId(0));
            assert_eq!(label, "accelerator:gpu");
        }
        other => panic!("expected a requirements rejection, got {other:?}"),
    }
    release_time(&out);
}

/// A *transient* scale-down fault: the first backend call fails, the armed
/// retry succeeds, and exactly one scale-down lands — delayed by at least one
/// back-off relative to the first (failed) attempt.
#[test]
fn scale_down_retry_succeeds_after_transient_fault() {
    let config = ControllerConfig {
        memory_idle_timeout: SimDuration::from_secs(2),
        scale_down_idle: true,
        retry_backoff: SimDuration::from_millis(250),
        ..Default::default()
    };
    let plan = FaultPlan {
        scale_down_failure: 0.5,
        ..FaultPlan::none()
    };
    // Seed picked so the first scale-down roll fails and a later one
    // succeeds (deterministic: the shim RNG is a fixed stream per seed).
    let mut c = controller_with(
        Box::new(FaultyCluster::new(
            docker(6),
            plan,
            SimRng::seed_from_u64(FLAKY_SCALE_DOWN_SEED),
        )),
        config,
    );
    deploy_and_settle(&mut c);
    let edge = ClusterId(0);

    let mut out = Vec::new();
    let first_attempt = pump_one(&mut c, &mut out);
    assert_eq!(
        c.stats.scale_downs, 0,
        "the first scale-down attempt must fail for this seed"
    );

    let mut succeeded_at = None;
    for _ in 0..32 {
        let at = pump_one(&mut c, &mut out);
        if c.stats.scale_downs == 1 {
            succeeded_at = Some(at);
            break;
        }
    }
    let succeeded_at = succeeded_at.expect("a retry must eventually succeed");
    assert!(
        succeeded_at >= first_attempt + SimDuration::from_millis(250),
        "success must come from a back-off retry: {succeeded_at} vs {first_attempt}"
    );
    assert_eq!(
        c.cluster_mut(edge)
            .status(succeeded_at, "edge-nginx")
            .ready_replicas,
        0,
        "the idle instance is finally scaled to zero"
    );
}
