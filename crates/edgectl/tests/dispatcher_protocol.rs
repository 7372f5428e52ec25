//! The deployment protocol, checked from the backend's side of the wire.
//!
//! A recording wrapper logs every call the controller makes that mutates a
//! service — `pull` / `create` / `scale_up`, idle `scale_down` and `remove` —
//! and every `observe` read, with its instant, readiness and `stable_until`.
//! The controller answers its probes from the site's snapshot cache, so a
//! probe reaches the backend only when no held read is still exact; the log
//! holds the reads that answer them. A pure oracle ([`protocol`]) reads that
//! log — it never calls a backend — and derives, machine by machine, what
//! the paper's pipeline (Pull → Create → Scale-Up → poll port, Fig. 4) must
//! have produced:
//!
//! - a deployment's first call is issued at its trigger instant;
//! - a failed call repeats `retry_backoff` later, at most `deploy_retries`
//!   times per phase, and the phase fails after that;
//! - each phase starts at the instant the previous one returned;
//! - probes run on the grid `accepted_at + k·probe_interval` (k ≥ 0), each
//!   answered by a logged read that covers it ([`ready_at`]; a grid point no
//!   read covers fails the check); the first ready probe, plus `probe_rtt`,
//!   is `ready_detected`, and the deployment fails iff no grid point at or
//!   before `accepted_at + probe_timeout` was ready.
//!
//! The test then holds the controller to the oracle: its deployment records,
//! `retried_operations`, `failed_deployments`, the status deltas it announces
//! (a failed machine is `Gone` at the last grid point in its window, or at
//! its last failed call), and the release instant of every request
//! ([`release_at`] is the one rule for a held request).
//!
//! Because the check is per machine, the generator needs no envelope:
//! services overlap in time, failing deployments get piggybacked requests,
//! and flaky backends serve services with many requests.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use cluster::faults::{FaultPlan, FaultyCluster};
use cluster::{
    ClusterBackend, ClusterError, ClusterKind, CrashOutcome, DockerCluster, ScaleReceipt, Scope,
    ServiceSnapshot, ServiceTemplate,
};
use containers::image::synthesize_layers;
use containers::{ImageManifest, ImageRef, Runtime};
use edgectl::controller::{DeltaKind, INGRESS};
use edgectl::scheduler::{NearestReadyFirst, NearestWaiting};
use edgectl::{
    ClusterId, Controller, ControllerConfig, ControllerOutput, DeploymentRecord, StatusDelta,
};
use proptest::prelude::*;
use registry::{Registry, RegistryProfile, RegistrySet};
use simcore::{DurationDist, SimDuration, SimRng, SimTime};
use simnet::openflow::{BufferId, PortId};
use simnet::{IpAddr, Packet, SocketAddr};

const CLOUD_PORT: PortId = PortId(0);
const CLIENT_PORT: PortId = PortId(1);
const DOCKER_PORT: PortId = PortId(2);
const EDGE: ClusterId = ClusterId(0);
const EDGE_LATENCY: SimDuration = SimDuration::from_micros(300);

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// What one logged backend call did.
#[derive(Debug, Clone)]
enum Op {
    Pull(Result<SimTime, ClusterError>),
    Create(Result<SimTime, ClusterError>),
    ScaleUp(Result<ScaleReceipt, ClusterError>),
    ScaleDown(Result<SimTime, ClusterError>),
    Remove(Result<SimTime, ClusterError>),
    /// An `observe`: readiness at the call's instant, unchanged until
    /// `stable_until` unless the service is mutated.
    Read {
        ready: bool,
        stable_until: SimTime,
    },
}

impl Op {
    fn name(&self) -> &'static str {
        match self {
            Op::Pull(_) => "pull",
            Op::Create(_) => "create",
            Op::ScaleUp(_) => "scale_up",
            Op::ScaleDown(_) => "scale_down",
            Op::Remove(_) => "remove",
            Op::Read { .. } => "read",
        }
    }

    /// A call a deployment machine issues: the calls [`machine`] parses.
    fn is_phase(&self) -> bool {
        matches!(self, Op::Pull(_) | Op::Create(_) | Op::ScaleUp(_))
    }
}

#[derive(Debug, Clone)]
struct Call {
    at: SimTime,
    service: String,
    op: Op,
}

/// A request as the controller received it, and whether its service had a
/// ready instance at that instant (read off the backend before delivery).
#[derive(Debug, Clone)]
struct Arrival {
    at: SimTime,
    service: String,
    buffer: u64,
    ready: bool,
}

type Log = Rc<RefCell<Vec<Call>>>;

/// Forwards everything to `inner` and logs the pipeline's calls.
struct Recording {
    inner: Box<dyn ClusterBackend>,
    log: Log,
}

impl Recording {
    fn record(&self, at: SimTime, service: &str, op: Op) {
        self.log.borrow_mut().push(Call {
            at,
            service: service.to_owned(),
            op,
        });
    }
}

impl ClusterBackend for Recording {
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
        let result = self.inner.pull(now, template, registries);
        self.record(now, &template.name, Op::Pull(result.clone()));
        result
    }
    fn create(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
    ) -> Result<SimTime, ClusterError> {
        let result = self.inner.create(now, template);
        self.record(now, &template.name, Op::Create(result.clone()));
        result
    }
    fn scale_up(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<ScaleReceipt, ClusterError> {
        let result = self.inner.scale_up(now, service, replicas);
        self.record(now, service, Op::ScaleUp(result.clone()));
        result
    }
    fn scale_down(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<SimTime, ClusterError> {
        let result = self.inner.scale_down(now, service, replicas);
        self.record(now, service, Op::ScaleDown(result.clone()));
        result
    }
    fn remove(&mut self, now: SimTime, service: &str) -> Result<SimTime, ClusterError> {
        let result = self.inner.remove(now, service);
        self.record(now, service, Op::Remove(result.clone()));
        result
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
        let snap = self.inner.observe(now, service, endpoints);
        let read = Op::Read {
            ready: snap.status.is_ready(),
            stable_until: snap.stable_until,
        };
        self.record(now, service, read);
        snap
    }
    fn epoch(&self, scope: Scope) -> u64 {
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

// ---------------------------------------------------------------------------
// The oracle: a pure function of the log
// ---------------------------------------------------------------------------

/// The protocol's parameters, as the controller was configured.
#[derive(Debug, Clone)]
struct Protocol {
    retries: u32,
    backoff: SimDuration,
    probe_interval: SimDuration,
    probe_timeout: SimDuration,
    probe_rtt: SimDuration,
    processing_delay: SimDuration,
    /// Requests wait on deployments (NearestWaiting) or never do.
    waiting: bool,
}

impl Protocol {
    fn of(config: &ControllerConfig, waiting: bool) -> Protocol {
        Protocol {
            retries: config.deploy_retries,
            backoff: config.retry_backoff,
            probe_interval: config.probe_interval,
            probe_timeout: config.probe_timeout,
            probe_rtt: EDGE_LATENCY * 2,
            processing_delay: config.processing_delay,
            waiting,
        }
    }
}

/// One deployment machine as the log shows it.
#[derive(Debug, Clone)]
struct Machine {
    /// Its deployment record; `ready_detected` is `FAR_FUTURE` on failure.
    record: DeploymentRecord,
    ready: bool,
    /// When the machine left flight: `ready_detected`, or the instant it
    /// gave up.
    end: SimTime,
    retried: u64,
}

/// The one rule for when a held request is released: at the later of
/// readiness and its own decision, or at its decision if the deployment it
/// waited on failed.
fn release_at(held_on: Option<&Machine>, decide_at: SimTime) -> SimTime {
    match held_on {
        Some(m) if m.ready => m.record.ready_detected.max(decide_at),
        _ => decide_at,
    }
}

/// What the log says of a service's readiness at probe instant `g`, given
/// all of that service's calls in log order: the answer of the latest read
/// `r` with `r.at <= g < r.stable_until` that no mutation of the service
/// invalidates — one in `(r.at, g)`, or one before `g` logged after `r` (at
/// `r.at` itself). A mutation at `g` comes after the probe: at one instant
/// the controller steps its machines before housekeeping runs, and a
/// machine's own calls follow its read. `None` if no read covers `g`.
fn ready_at(calls: &[&Call], g: SimTime) -> Option<bool> {
    calls.iter().enumerate().rev().find_map(|(i, r)| {
        let Op::Read {
            ready,
            stable_until,
        } = r.op
        else {
            return None;
        };
        let invalidated = calls
            .iter()
            .enumerate()
            .any(|(j, m)| !matches!(m.op, Op::Read { .. }) && m.at < g && (j > i || m.at > r.at));
        (r.at <= g && g < stable_until && !invalidated).then_some(ready)
    })
}

/// Walks one service's phase calls, one machine at a time; `all` is every
/// call of the service, reads included, for [`ready_at`].
struct Cursor<'a> {
    calls: Vec<&'a Call>,
    all: Vec<&'a Call>,
    next: usize,
}

impl Cursor<'_> {
    /// The next call, which the protocol says must be a `what` at `at`.
    fn expect(&mut self, at: SimTime, what: &str) -> Result<&Op, String> {
        let call = self
            .calls
            .get(self.next)
            .ok_or_else(|| format!("expected a {what} at {at}, the log ends"))?;
        if call.at != at || call.op.name() != what {
            return Err(format!(
                "{}: expected a {what} at {at}, got {} at {}",
                call.service,
                call.op.name(),
                call.at
            ));
        }
        self.next += 1;
        Ok(&call.op)
    }

    fn peek(&self) -> Option<&Call> {
        self.calls.get(self.next).copied()
    }
}

/// A phase's calls: the first at `at`, each failure repeated one back-off
/// later while the phase has retries left. Returns the issue instant and
/// the successful call, or, as `Err`, the instant the phase gave up.
fn phase(
    cur: &mut Cursor<'_>,
    what: &str,
    mut at: SimTime,
    p: &Protocol,
    retried: &mut u64,
) -> Result<Result<(SimTime, Op), SimTime>, String> {
    for attempt in 0..=p.retries {
        let op = cur.expect(at, what)?.clone();
        let failed = match &op {
            Op::Pull(r) => r.is_err(),
            // An "already created" answer is a create that had nothing to do.
            Op::Create(r) => matches!(r, Err(e) if !matches!(e, ClusterError::AlreadyCreated(_))),
            Op::ScaleUp(r) => r.is_err(),
            _ => unreachable!("the cursor walks phase calls only"),
        };
        if !failed {
            return Ok(Ok((at, op)));
        }
        if attempt < p.retries {
            *retried += 1;
            at += p.backoff;
        }
    }
    Ok(Err(at))
}

/// Parse one machine starting at the cursor.
fn machine(cur: &mut Cursor<'_>, p: &Protocol) -> Result<Machine, String> {
    let first = cur.peek().expect("caller checked").clone();
    let mut record = DeploymentRecord {
        service: first.service.clone(),
        cluster: EDGE,
        kind: ClusterKind::Docker,
        triggered_at: first.at,
        pull: None,
        create: None,
        scale_up: None,
        ready_detected: SimTime::FAR_FUTURE,
        waited: p.waiting,
    };
    let mut retried = 0;
    let failed = |end: SimTime, record: DeploymentRecord, retried: u64| Machine {
        record,
        ready: false,
        end,
        retried,
    };
    let mut at = first.at;
    let mut next = first.op.name();
    if next == "pull" {
        match phase(cur, "pull", at, p, &mut retried)? {
            Ok((issued, Op::Pull(Ok(end)))) => {
                record.pull = Some((issued, end));
                at = end;
            }
            Ok(_) => unreachable!("a pull phase ends in a pull"),
            Err(gave_up) => return Ok(failed(gave_up, record, retried)),
        }
        // Create is skipped when the service objects already exist.
        next = cur.peek().map_or("create", |c| c.op.name());
    }
    if next == "create" {
        match phase(cur, "create", at, p, &mut retried)? {
            Ok((issued, Op::Create(result))) => {
                let end = result.unwrap_or(issued);
                if end > issued {
                    record.create = Some((issued, end));
                }
                at = end.max(issued);
            }
            Ok(_) => unreachable!("a create phase ends in a create"),
            Err(gave_up) => return Ok(failed(gave_up, record, retried)),
        }
    }
    let receipt = match phase(cur, "scale_up", at, p, &mut retried)? {
        Ok((issued, Op::ScaleUp(Ok(receipt)))) => {
            record.scale_up = Some((issued, receipt.accepted_at, receipt.expected_ready));
            receipt
        }
        Ok(_) => unreachable!("a scale-up phase ends in a scale-up"),
        Err(gave_up) => return Ok(failed(gave_up, record, retried)),
    };
    let deadline = receipt.accepted_at + p.probe_timeout;
    let mut probe = receipt.accepted_at;
    while probe <= deadline {
        let ready = ready_at(&cur.all, probe)
            .ok_or_else(|| format!("{}: no read covers the probe at {probe}", record.service))?;
        if ready {
            record.ready_detected = probe + p.probe_rtt;
            return Ok(Machine {
                end: record.ready_detected,
                record,
                ready: true,
                retried,
            });
        }
        probe += p.probe_interval;
    }
    // The machine fails at the probe that decided it: the last grid point in
    // its window.
    Ok(failed(probe - p.probe_interval, record, retried))
}

/// What the log implies: every machine, per service in start order.
fn protocol(log: &[Call], p: &Protocol) -> Result<BTreeMap<String, Vec<Machine>>, String> {
    let mut by_service: BTreeMap<&str, Vec<&Call>> = BTreeMap::new();
    for call in log {
        by_service.entry(&call.service).or_default().push(call);
    }
    let mut out = BTreeMap::new();
    for (service, all) in by_service {
        let calls = all.iter().copied().filter(|c| c.op.is_phase()).collect();
        let mut cur = Cursor {
            calls,
            all,
            next: 0,
        };
        let mut machines: Vec<Machine> = Vec::new();
        while let Some(call) = cur.peek() {
            if let Some(prev) = machines.last() {
                if call.at < prev.end {
                    return Err(format!(
                        "{service}: a {} at {} while the machine ending at {} is in flight",
                        call.op.name(),
                        call.at,
                        prev.end
                    ));
                }
            }
            machines.push(machine(&mut cur, p)?);
        }
        out.insert(service.to_owned(), machines);
    }
    Ok(out)
}

/// The machine a request arriving at `at` was held on, if any: with waiting,
/// a request finding no ready instance joins the machine in flight, or the
/// one it triggers (which may end at that same instant).
fn held_on<'a>(arrival: &Arrival, machines: &'a [Machine], p: &Protocol) -> Option<&'a Machine> {
    if !p.waiting || arrival.ready {
        return None;
    }
    machines.iter().find(|m| {
        let start = m.record.triggered_at;
        start == arrival.at || (start < arrival.at && arrival.at < m.end)
    })
}

/// Hold the controller's run to what the oracle derives from its log.
fn check(c: &Controller, run: &Run, log: &[Call], p: &Protocol) -> Result<(), String> {
    let Run {
        outputs,
        arrivals,
        deltas,
    } = run;
    let machines = protocol(log, p)?;
    let none = Vec::new();

    let stats = &c.stats;
    let all = || machines.values().flatten();
    let retried: u64 = all().map(|m| m.retried).sum();
    let failed = all().filter(|m| !m.ready).count() as u64;
    if (stats.retried_operations, stats.failed_deployments) != (retried, failed) {
        return Err(format!(
            "retried/failed: controller {}/{}, log {retried}/{failed}",
            stats.retried_operations, stats.failed_deployments
        ));
    }
    if stats.crash_recoveries != 0 {
        return Err("a crash recovery with no crash".into());
    }

    let key = |r: &DeploymentRecord| (r.service.clone(), r.triggered_at);
    let mut got: Vec<&DeploymentRecord> = stats.deployments.iter().collect();
    got.sort_by_key(|r| key(r));
    let want: Vec<&DeploymentRecord> = all().filter(|m| m.ready).map(|m| &m.record).collect();
    let render = |v: &[&DeploymentRecord]| format!("{v:#?}");
    if render(&got) != render(&want) {
        return Err(format!(
            "deployment records\ncontroller: {}\nlog: {}",
            render(&got),
            render(&want)
        ));
    }

    // Each machine's end is announced: `Ready` at `ready_detected`, `Gone`
    // at the instant it gave up; so is every idle scale-down and removal.
    let mut want_deltas: Vec<(String, SimTime, &str)> = machines
        .iter()
        .flat_map(|(service, ms)| {
            ms.iter().map(move |m| {
                let kind = if m.ready { "Ready" } else { "Gone" };
                (service.clone(), m.end, kind)
            })
        })
        .collect();
    want_deltas.extend(log.iter().filter_map(|call| match call.op {
        Op::ScaleDown(Ok(_)) | Op::Remove(Ok(_)) => Some((call.service.clone(), call.at, "Gone")),
        _ => None,
    }));
    let mut got_deltas: Vec<(String, SimTime, &str)> = deltas
        .iter()
        .map(|d| {
            let kind = match d.kind {
                DeltaKind::Ready => "Ready",
                DeltaKind::Gone => "Gone",
            };
            (c.catalog.name_of(d.service).to_owned(), d.origin, kind)
        })
        .collect();
    want_deltas.sort();
    got_deltas.sort();
    if got_deltas != want_deltas {
        return Err(format!(
            "status deltas\ncontroller: {got_deltas:?}\nlog: {want_deltas:?}"
        ));
    }

    let mut released: BTreeMap<u64, Vec<SimTime>> = BTreeMap::new();
    for o in outputs {
        if let ControllerOutput::ReleaseViaTable { at, buffer_id, .. } = o {
            released.entry(buffer_id.0).or_default().push(*at);
        }
    }
    let mut held_ready = 0;
    for a in arrivals {
        let held = held_on(a, machines.get(&a.service).unwrap_or(&none), p);
        if p.waiting && !a.ready && held.is_none() {
            return Err(format!("{a:?} waited on no deployment"));
        }
        held_ready += u64::from(held.is_some_and(|m| m.ready));
        let want = release_at(held, a.at + p.processing_delay);
        match released.get(&a.buffer).map(Vec::as_slice) {
            Some([at]) if *at == want => {}
            other => return Err(format!("{a:?}: released at {other:?}, want {want}")),
        }
    }
    if stats.held_requests != held_ready {
        return Err(format!(
            "held_requests {} but {held_ready} requests waited on a ready deployment",
            stats.held_requests
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The generator and the driver
// ---------------------------------------------------------------------------

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

fn service_addr(s: u8) -> SocketAddr {
    SocketAddr::new(IpAddr::new(93, 184, 0, s + 1), 80)
}

fn service_name(s: u8) -> String {
    format!("svc-{s}")
}

fn template(s: u8, slow: bool) -> ServiceTemplate {
    // A "slow" service opens its port long after the default 120 s probe
    // budget: every deployment of it times out.
    let init = if slow { 200_000.0 } else { 110.0 };
    ServiceTemplate::single(
        service_name(s),
        "nginx:1.23.2",
        80,
        DurationDist::constant_ms(init),
    )
}

/// One registered service's request pattern.
#[derive(Debug, Clone)]
struct SvcPlan {
    /// App init far beyond the probe timeout: deployment always fails.
    slow: bool,
    /// First request, in milliseconds: services overlap in time.
    start_ms: u32,
    /// Requests within the deployment window (held / piggybacked).
    piggyback: u8,
    /// Extra request offsets in seconds after the first (warm paths, memory
    /// hits, idle-expiry redeploys).
    later: Vec<u32>,
    /// Varies which clients repeat across a service's requests.
    client_salt: u8,
}

#[derive(Debug, Clone)]
struct Scenario {
    /// NearestWaiting (hold requests) vs NearestReadyFirst (cloud + background).
    waiting: bool,
    retries: u32,
    /// Per-mutating-call failure probability, percent.
    fault_rate: Option<u8>,
    /// Remove idle services (the next deployment creates them again).
    remove_after_s: Option<u64>,
    backend_seed: u64,
    services: Vec<SvcPlan>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let svc = (
        prop_oneof![4 => Just(false), 1 => Just(true)],
        0u32..3_000,
        0u8..4,
        proptest::collection::vec(5u32..300, 0..4),
        0u8..4,
    )
        .prop_map(|(slow, start_ms, piggyback, later, client_salt)| SvcPlan {
            slow,
            start_ms,
            piggyback,
            later,
            client_salt,
        });
    (
        any::<bool>(),
        0u32..4,
        prop_oneof![2 => Just(None), 1 => Just(Some(30u8)), 1 => Just(Some(50u8))],
        prop_oneof![2 => Just(None), 1 => Just(Some(30u64))],
        0u64..1_000,
        proptest::collection::vec(svc, 1..5),
    )
        .prop_map(
            |(waiting, retries, fault_rate, remove_after_s, backend_seed, services)| Scenario {
                waiting,
                retries,
                fault_rate,
                remove_after_s,
                backend_seed,
                services,
            },
        )
}

/// Flatten a scenario into a time-ordered `(at, service, client)` schedule.
fn events(sc: &Scenario) -> Vec<(SimTime, u8, u8)> {
    let mut ev = Vec::new();
    for (i, s) in sc.services.iter().enumerate() {
        let svc = i as u8;
        let client = |k: u8| (s.client_salt + k) % 4;
        let base = SimTime::ZERO + SimDuration::from_millis(u64::from(s.start_ms) + 1);
        ev.push((base, svc, client(0)));
        for k in 0..s.piggyback {
            ev.push((
                base + SimDuration::from_millis(100 + 100 * u64::from(k)),
                svc,
                client(k + 1),
            ));
        }
        for (j, off) in s.later.iter().enumerate() {
            ev.push((
                base + SimDuration::from_secs(u64::from(*off)) + SimDuration::from_millis(j as u64),
                svc,
                client(j as u8),
            ));
        }
    }
    ev.sort_by_key(|e| e.0);
    ev
}

fn config_for(sc: &Scenario) -> ControllerConfig {
    ControllerConfig {
        deploy_retries: sc.retries,
        remove_after: sc.remove_after_s.map(SimDuration::from_secs),
        ..Default::default()
    }
}

fn build(sc: &Scenario, log: &Log) -> Controller {
    let b = Controller::builder(config_for(sc))
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .emit_status_deltas();
    let mut c = if sc.waiting {
        b.global(NearestWaiting).build()
    } else {
        b.global(NearestReadyFirst).build()
    };
    let rng = SimRng::seed_from_u64(sc.backend_seed);
    let docker = DockerCluster::new(
        "edge-docker",
        IpAddr::new(10, 0, 0, 100),
        Runtime::egs(rng.stream("rt")),
        rng.stream("docker"),
    );
    let inner: Box<dyn ClusterBackend> = match sc.fault_rate {
        Some(pct) => Box::new(FaultyCluster::new(
            docker,
            FaultPlan::flaky(f64::from(pct) / 100.0),
            rng.stream("faults"),
        )),
        None => Box::new(docker),
    };
    let backend = Recording {
        inner,
        log: Rc::clone(log),
    };
    c.attach_cluster(Box::new(backend), EDGE_LATENCY, DOCKER_PORT);
    for (i, s) in sc.services.iter().enumerate() {
        c.catalog
            .register(service_addr(i as u8), template(i as u8, s.slow));
    }
    c
}

/// What one driven run produced.
struct Run {
    outputs: Vec<ControllerOutput>,
    arrivals: Vec<Arrival>,
    deltas: Vec<StatusDelta>,
}

/// Drive the controller through the schedule, pumping every wakeup due
/// before each packet-in (the simulator's event loop in miniature), then
/// drain everything that remains — machine completions, retarget FlowMods,
/// idle expiry, scale-downs and removals.
fn run(c: &mut Controller, ev: &[(SimTime, u8, u8)], log: &Log) -> Run {
    let mut out = Vec::new();
    let mut arrivals = Vec::new();
    let pump_until = |c: &mut Controller, upto: SimTime, out: &mut Vec<ControllerOutput>| {
        while let Some(at) = c.next_wakeup() {
            if at > upto {
                break;
            }
            c.on_wakeup_into(at, out);
        }
    };
    for (i, &(t, s, cl)) in ev.iter().enumerate() {
        pump_until(c, t, &mut out);
        let service = service_name(s);
        // The driver's own read is not the controller's: keep it out of the
        // log.
        let logged = log.borrow().len();
        let ready = c.cluster(EDGE).status(t, &service).is_ready();
        log.borrow_mut().truncate(logged);
        arrivals.push(Arrival {
            at: t,
            service,
            buffer: i as u64,
            ready,
        });
        let p = Packet::syn(
            SocketAddr::new(IpAddr::new(10, 1, s, cl), 40_000),
            service_addr(s),
            i as u64,
        );
        c.on_packet_in_at_into(t, INGRESS, p, BufferId(i as u64), CLIENT_PORT, &mut out);
    }
    pump_until(
        c,
        SimTime::ZERO + SimDuration::from_secs(1_000_000),
        &mut out,
    );
    Run {
        outputs: out,
        arrivals,
        deltas: c.drain_status_deltas(),
    }
}

fn assert_protocol(sc: &Scenario) -> Result<(), TestCaseError> {
    let log = Log::default();
    let mut c = build(sc, &log);
    let run = run(&mut c, &events(sc), &log);
    let p = Protocol::of(&config_for(sc), sc.waiting);
    check(&c, &run, &log.borrow(), &p).map_err(TestCaseError)?;
    // No held request is left dangling after the drain.
    prop_assert!(c.in_flight_deployments().is_empty());
    prop_assert!(c.memory().iter().all(|f| !f.pending));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn stepped_dispatcher_follows_the_deployment_protocol(sc in scenario_strategy()) {
        assert_protocol(&sc)?;
    }
}

/// The generator reaches what the old equivalence envelope excluded:
/// deployments in flight together, requests piggybacked on failing
/// deployments, and retries on services that take more than one request.
#[test]
fn generated_scenarios_leave_the_old_envelope() {
    let mut rng = TestRng::from_label("protocol-coverage");
    let strategy = scenario_strategy();
    let (mut overlapping, mut held_on_failure, mut retried_shared) = (0, 0, 0);
    for _ in 0..128 {
        let sc = strategy.generate(&mut rng);
        let log = Log::default();
        let mut c = build(&sc, &log);
        let Run { arrivals, .. } = run(&mut c, &events(&sc), &log);
        let p = Protocol::of(&config_for(&sc), sc.waiting);
        let machines = protocol(&log.borrow(), &p).expect("the property test checks this");
        let spans: Vec<(SimTime, SimTime)> = machines
            .values()
            .flatten()
            .map(|m| (m.record.triggered_at, m.end))
            .collect();
        overlapping += spans
            .iter()
            .enumerate()
            .any(|(i, a)| spans[i + 1..].iter().any(|b| a.0 < b.1 && b.0 < a.1))
            as u32;
        held_on_failure += arrivals
            .iter()
            .filter(|a| {
                let ms = machines.get(&a.service).map_or(&[][..], Vec::as_slice);
                held_on(a, ms, &p).is_some_and(|m| !m.ready && m.record.triggered_at < a.at)
            })
            .count();
        retried_shared += sc
            .services
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                let retried = machines
                    .get(&service_name(*i as u8))
                    .is_some_and(|ms| ms.iter().any(|m| m.retried > 0));
                retried && usize::from(s.piggyback) + s.later.len() > 0
            })
            .count();
    }
    assert!(
        overlapping > 10,
        "machines in flight together: {overlapping}"
    );
    assert!(
        held_on_failure > 10,
        "piggybacks on failing deployments: {held_on_failure}"
    );
    assert!(
        retried_shared > 10,
        "retries on multi-request services: {retried_shared}"
    );
}

/// A probe-timeout failure ends its machine at the probe that decided it,
/// so a request arriving before the next grid point starts the next
/// deployment after the old machine's `Gone`, not while it is in flight.
/// Here svc-0 times out and is requested again 22 ms after its last probe.
#[test]
fn a_request_just_after_a_probe_timeout_deploys_after_the_failure() {
    let sc = Scenario {
        waiting: false,
        retries: 1,
        fault_rate: Some(50),
        remove_after_s: None,
        backend_seed: 80,
        services: vec![
            SvcPlan {
                slow: true,
                start_ms: 237,
                piggyback: 2,
                later: vec![124, 130, 139],
                client_salt: 0,
            },
            SvcPlan {
                slow: false,
                start_ms: 2022,
                piggyback: 3,
                later: vec![],
                client_salt: 1,
            },
            SvcPlan {
                slow: false,
                start_ms: 610,
                piggyback: 1,
                later: vec![130],
                client_salt: 3,
            },
        ],
    };
    assert_protocol(&sc).unwrap();
}
