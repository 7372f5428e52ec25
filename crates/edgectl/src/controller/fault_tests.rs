//! Fault interleavings that were *impossible* under the old synchronous
//! pipeline: with the dispatcher a deployment is a state machine advanced by
//! discrete wakeups, so a backend fault or an instance crash can land
//! **between** phases — in the back-off window between Create and Scale-Up,
//! or inside the probe window — and is observed and handled by the next
//! step. The synchronous pipeline precomputed the whole deployment in one
//! call; nothing could happen "during" it.
//!
//! The second half times deployments by hand on a scripted backend: the
//! probe window's two ends, the per-phase retry budget, a Create that finds
//! the service already there — protocol cases `dispatcher_protocol.rs`'s
//! generated runs do not reach.

use super::test_support::{packet, packet_in, registries, release_time, service_addr};
use crate::dispatcher::{AdmissionError, DeployError, DeployPhaseKind};
use crate::scheduler::NearestWaiting;
use crate::{ClusterId, Controller, ControllerConfig, ControllerOutput};
use cluster::faults::{FaultPlan, FaultyCluster};
use cluster::{
    ClusterBackend, ClusterError, ClusterKind, CrashOutcome, DockerCluster, ScaleReceipt,
    ServiceSnapshot, ServiceTemplate, SiteCapacity,
};
use containers::{ImageRef, Runtime};
use registry::RegistrySet;
use simcore::{DurationDist, SimDuration, SimRng, SimTime};
use simnet::openflow::{Action, BufferId, FlowSpec, PortId};
use simnet::{IpAddr, SocketAddr};

const CLOUD_PORT: PortId = PortId(0);
const CLIENT_PORT: PortId = PortId(1);
const DOCKER_PORT: PortId = PortId(2);

/// Fault-RNG seed for [`scale_down_retry_succeeds_after_transient_fault`]:
/// with `scale_down_failure: 0.5` this stream fails the first scale-down
/// roll and passes a later one (verified; the shim RNG is a fixed stream
/// per seed, so this cannot rot silently — the test asserts both halves).
const FLAKY_SCALE_DOWN_SEED: u64 = 0;

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
    fn epoch(&self, scope: cluster::Scope) -> u64 {
        self.inner.epoch(scope)
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

fn pump_one(c: &mut Controller, out: &mut Vec<ControllerOutput>) -> SimTime {
    let at = c.next_wakeup().expect("a wakeup must be armed");
    c.on_wakeup_into(at, out);
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
    let mut out = packet_in(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    assert!(out.is_empty(), "request is held while the machine runs");

    // Walk wakeups until the failed scale-up parks the machine in its
    // back-off window. On a *successful* path the ScalingUp phase is pumped
    // through within a single wakeup (create completes → scale-up issued →
    // Probing), so catching `ScalingUp` between wakeups at all means the
    // machine is sitting in the gap between Create and Scale-Up.
    let edge = ClusterId(0);
    let mut backoff_seen = false;
    for _ in 0..64 {
        let in_flight = c.in_flight_deployments();
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
    while !c.in_flight_deployments().is_empty() {
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

    let mut out = packet_in(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    while !c.in_flight_deployments().is_empty() {
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

    let mut out = packet_in(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );

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

    while !c.in_flight_deployments().is_empty() {
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

    let mut out = packet_in(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    while !c.in_flight_deployments().is_empty() {
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
    let mut out = packet_in(c, SimTime::ZERO, packet(1, 1), BufferId(0), CLIENT_PORT);
    while !c.in_flight_deployments().is_empty() {
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

    let out = packet_in(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );

    assert!(
        c.in_flight_deployments().is_empty(),
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

    let out = packet_in(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );

    assert!(c.in_flight_deployments().is_empty());
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

/// A backend with fixed phase durations and scripted failures, so a test
/// can compute every instant of a deployment by hand. Its status is never
/// cacheable (`stable_until` is the read instant), so every read is fresh.
#[derive(Default)]
struct Scripted {
    images: bool,
    created: bool,
    /// The next `n` calls of each phase fail.
    pull_failures: u32,
    create_failures: u32,
    scale_up_failures: u32,
    /// A mesh peer creates the service on this shared backend while the
    /// pull runs: the Create that follows finds it already there.
    peer_creates_during_pull: bool,
    /// `scale_up` returns this long after it is issued, and the port opens
    /// `ready_after` later.
    accept_takes: SimDuration,
    ready_after: SimDuration,
    ready_at: Option<SimTime>,
    /// The replica dies at this instant and stays dead.
    dies_at: Option<SimTime>,
}

const PULL_TAKES: SimDuration = SimDuration::from_millis(100);
const CREATE_TAKES: SimDuration = SimDuration::from_millis(40);

fn fail_next(left: &mut u32) -> bool {
    let fail = *left > 0;
    *left = left.saturating_sub(1);
    fail
}

impl ClusterBackend for Scripted {
    fn cluster_name(&self) -> &str {
        "scripted"
    }
    fn kind(&self) -> ClusterKind {
        ClusterKind::Docker
    }
    fn pull(
        &mut self,
        now: SimTime,
        _template: &ServiceTemplate,
        _registries: &RegistrySet,
    ) -> Result<SimTime, ClusterError> {
        if fail_next(&mut self.pull_failures) {
            return Err(ClusterError::ImageUnavailable(ImageRef::new(
                "nginx:1.23.2",
            )));
        }
        self.images = true;
        self.created |= self.peer_creates_during_pull;
        Ok(now + PULL_TAKES)
    }
    fn create(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
    ) -> Result<SimTime, ClusterError> {
        if fail_next(&mut self.create_failures) {
            return Err(ClusterError::InsufficientResources("api"));
        }
        if self.created {
            return Err(ClusterError::AlreadyCreated(template.name.clone()));
        }
        self.created = true;
        Ok(now + CREATE_TAKES)
    }
    fn scale_up(
        &mut self,
        now: SimTime,
        _service: &str,
        _replicas: u32,
    ) -> Result<ScaleReceipt, ClusterError> {
        if fail_next(&mut self.scale_up_failures) {
            return Err(ClusterError::InsufficientResources("placement"));
        }
        let accepted_at = now + self.accept_takes;
        let ready_at = accepted_at + self.ready_after;
        self.ready_at = Some(ready_at);
        Ok(ScaleReceipt {
            accepted_at,
            expected_ready: ready_at,
        })
    }
    fn scale_down(
        &mut self,
        now: SimTime,
        _service: &str,
        _replicas: u32,
    ) -> Result<SimTime, ClusterError> {
        self.ready_at = None;
        Ok(now)
    }
    fn remove(&mut self, now: SimTime, _service: &str) -> Result<SimTime, ClusterError> {
        self.created = false;
        self.ready_at = None;
        Ok(now)
    }
    fn delete_image(&mut self, _now: SimTime, _image: &ImageRef) -> bool {
        false
    }
    fn observe(
        &self,
        now: SimTime,
        _service: &str,
        endpoints: Option<&mut Vec<SocketAddr>>,
    ) -> ServiceSnapshot {
        let endpoint = SocketAddr::new(IpAddr::new(10, 0, 0, 100), 32_768);
        let ready = self.ready_at.is_some_and(|t| now >= t) && self.dies_at.is_none_or(|t| now < t);
        if let (true, Some(out)) = (ready, endpoints) {
            out.push(endpoint);
        }
        ServiceSnapshot {
            status: cluster::ServiceStatus {
                images_cached: self.images,
                created: self.created,
                desired_replicas: u32::from(self.ready_at.is_some()),
                ready_replicas: u32::from(ready),
                endpoint: self.created.then_some(endpoint),
            },
            stable_until: now,
            scope: cluster::Scope::Absent,
        }
    }
    fn epoch(&self, _scope: cluster::Scope) -> u64 {
        0
    }
    fn has_images(&self, _template: &ServiceTemplate) -> bool {
        self.images
    }
    fn services(&self) -> Vec<String> {
        Vec::new()
    }
    fn load(&self) -> f64 {
        0.0
    }
    fn inject_crash(&mut self, _now: SimTime, _service: &str) -> CrashOutcome {
        CrashOutcome::NoInstance
    }
}

/// Probe round trip to the edge host: twice the 300 µs `controller_with`
/// attaches it at.
const PROBE_RTT: SimDuration = SimDuration::from_micros(600);

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// One request at time zero on a scripted backend, pumped until the
/// deployment is over. Probes every 50 ms (the default).
fn deploy_scripted(backend: Scripted, config: ControllerConfig) -> (Controller, SimTime) {
    let mut c = controller_with(Box::new(backend), config);
    let mut out = packet_in(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    while !c.in_flight_deployments().is_empty() {
        pump_one(&mut c, &mut out);
    }
    let released = release_time(&out);
    (c, released)
}

/// The probe grid runs from the accept instant to the deadline, both ends
/// included. Service objects and images are in place, so the deployment is
/// one Scale-Up, accepted at 20 ms; probes follow every 50 ms from there.
#[test]
fn the_probe_window_is_closed_at_both_ends() {
    // (probe timeout, port opens after accept, detected) in ms. The last
    // case puts the deadline at 1 030 ms, between the probes at 1 020 and
    // 1 070 ms, and opens the port just after 1 020.
    let just_after = SimDuration::from_millis(1_000) + SimDuration::from_nanos(1);
    let cases = [
        (120_000, SimDuration::ZERO, Some(20)),
        (1_000, SimDuration::from_millis(1_000), Some(1_020)),
        (1_010, just_after, None),
    ];
    for (timeout_ms, ready_after, detected_ms) in cases {
        let config = ControllerConfig {
            probe_timeout: SimDuration::from_millis(timeout_ms),
            ..Default::default()
        };
        let backend = Scripted {
            images: true,
            created: true,
            accept_takes: SimDuration::from_millis(20),
            ready_after,
            ..Scripted::default()
        };
        let (c, released) = deploy_scripted(backend, config);
        let case = format!("timeout {timeout_ms} ms, open after {ready_after}");
        match detected_ms {
            Some(ms) => {
                let rec = &c.stats.deployments[0];
                assert_eq!(rec.ready_detected, at_ms(ms) + PROBE_RTT, "{case}");
                assert_eq!(released, rec.ready_detected, "{case}");
            }
            None => {
                assert!(c.stats.deployments.is_empty(), "{case}");
                let failure = c.last_deploy_failure().expect("failure recorded");
                assert!(
                    matches!(
                        failure.error,
                        DeployError::ProbeTimeout { deadline } if deadline == at_ms(1_030)
                    ),
                    "{case}: {failure:?}"
                );
                // Held, then sent to the cloud at its decision instant.
                assert_eq!(released, SimTime::ZERO + SimDuration::from_micros(500));
                assert_eq!(c.stats.cloud_forwards, 1);
            }
        }
    }
}

/// A replica that answers the probe and dies before the probe's round trip
/// ends, with no recovery budget, fails the deployment as a death at the
/// detection instant — not as a probe timeout.
#[test]
fn a_replica_dying_after_the_probe_fails_as_a_death_not_a_timeout() {
    // The scale-up is accepted at 20 ms and the port is open at once, so the
    // probe at 20 ms succeeds and readiness would be detected one round trip
    // later; the replica dies half-way through that round trip.
    let backend = Scripted {
        images: true,
        created: true,
        accept_takes: SimDuration::from_millis(20),
        dies_at: Some(at_ms(20) + PROBE_RTT / 2),
        ..Scripted::default()
    };
    let config = ControllerConfig {
        deploy_retries: 0,
        ..Default::default()
    };
    let (c, _) = deploy_scripted(backend, config);
    assert!(c.stats.deployments.is_empty());
    assert_eq!(c.stats.failed_deployments, 1);
    assert_eq!(c.stats.cloud_forwards, 1);
    let failure = c.last_deploy_failure().expect("failure recorded");
    assert_eq!(failure.phase, DeployPhaseKind::Probing);
    let died = at_ms(20) + PROBE_RTT;
    assert_eq!(failure.error, DeployError::DiedAfterProbe { at: died });
    assert_eq!(
        failure.to_string(),
        format!("cluster 0 failed in Probing: replica dead after the probe at {died}")
    );
}

/// Every phase gets the full retry budget: a pull that spends all its
/// retries is followed by a create and a scale-up that still get theirs.
/// Retries are 250 ms apart; pull takes 100 ms, create 40 ms.
#[test]
fn each_phase_gets_its_own_retry_budget() {
    let backend = Scripted {
        pull_failures: 2,
        create_failures: 2,
        scale_up_failures: 2,
        accept_takes: SimDuration::from_millis(20),
        ready_after: SimDuration::from_millis(100),
        ..Scripted::default()
    };
    let config = ControllerConfig {
        deploy_retries: 2,
        retry_backoff: SimDuration::from_millis(250),
        ..Default::default()
    };
    let (c, released) = deploy_scripted(backend, config);
    assert_eq!(c.stats.failed_deployments, 0);
    assert_eq!(c.stats.retried_operations, 6);
    let rec = &c.stats.deployments[0];
    // Pull at 0, 250, 500 → ends 600; create at 600, 850, 1 100 → ends
    // 1 140; scale-up at 1 140, 1 390, 1 640 → accepted 1 660, open 1 760.
    assert_eq!(rec.triggered_at, at_ms(0));
    assert_eq!(rec.pull, Some((at_ms(500), at_ms(600))));
    assert_eq!(rec.create, Some((at_ms(1_100), at_ms(1_140))));
    assert_eq!(
        rec.scale_up,
        Some((at_ms(1_640), at_ms(1_660), at_ms(1_760)))
    );
    assert_eq!(rec.ready_detected, at_ms(1_760) + PROBE_RTT);
    assert_eq!(released, rec.ready_detected);
}

/// A Create that finds the service already there (a mesh peer created it on
/// the shared backend during the pull) is no phase: the record has no
/// create, and the Scale-Up is issued when the pull ends.
#[test]
fn a_create_that_finds_the_service_records_no_create_phase() {
    let backend = Scripted {
        peer_creates_during_pull: true,
        accept_takes: SimDuration::from_millis(20),
        ready_after: SimDuration::from_millis(100),
        ..Scripted::default()
    };
    let (c, _) = deploy_scripted(backend, ControllerConfig::default());
    let rec = &c.stats.deployments[0];
    assert_eq!(rec.pull, Some((at_ms(0), at_ms(100))));
    assert_eq!(rec.create, None);
    assert_eq!(rec.scale_up, Some((at_ms(100), at_ms(120), at_ms(220))));
}

/// A lease revocation while the Create is still running, then a redeploy of
/// the same service: the new machine skips Create (the objects exist) and
/// its Scale-Up meets a container that is still being created. Plain Docker
/// answers `Busy` instead of panicking, and the dispatcher retries the
/// Scale-Up after one back-off, by which time the create is done.
#[test]
fn a_scale_up_racing_an_orphaned_create_is_retried() {
    let mut c = controller_with(Box::new(docker(9)), ControllerConfig::default());
    let svc = c.catalog.id_of("edge-nginx").expect("registered");
    let edge = ClusterId(0);
    let mut out = packet_in(
        &mut c,
        SimTime::ZERO,
        packet(1, 1),
        BufferId(0),
        CLIENT_PORT,
    );
    // The pull ends and the create is issued at `now`; the machine waits
    // for it in ScalingUp.
    let mut now = SimTime::ZERO;
    while c.deployment_phase(edge, svc) != Some(DeployPhaseKind::ScalingUp) {
        now = pump_one(&mut c, &mut out);
    }
    out.extend(
        c.abort_deployment(now, edge, svc)
            .expect("machine in flight"),
    );
    assert_eq!(
        c.stats.cloud_forwards, 1,
        "the held request goes to the cloud"
    );

    let mut out = packet_in(&mut c, now, packet(2, 2), BufferId(1), CLIENT_PORT);
    while !c.in_flight_deployments().is_empty() {
        pump_one(&mut c, &mut out);
    }
    assert_eq!(
        c.stats.retried_operations, 1,
        "the busy scale-up was retried"
    );
    assert_eq!(
        c.stats.failed_deployments, 1,
        "only the aborted machine failed"
    );
    let rec = &c.stats.deployments[0];
    assert_eq!(rec.create, None, "the redeploy found the service created");
    let (issued, _, _) = rec.scale_up.expect("scaled up");
    assert_eq!(issued, now + SimDuration::from_millis(250));
    assert_eq!(release_time(&out), rec.ready_detected, "served at the edge");
    assert_eq!(c.stats.cloud_forwards, 1);
}
