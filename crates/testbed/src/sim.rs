//! The single-controller testbed: clients, switch, controller and clusters
//! in one deterministic simulation.
//!
//! [`Testbed`] drives one [`IngressShard`] — the shared SYN → switch →
//! PacketIn → controller → FlowMod + release pipeline — once, to completion.
//! What it adds is what a released request becomes: once the SYN is
//! forwarded (immediately on a table hit, or after the controller's
//! decision/deployment released the buffered packet), the rest of the
//! exchange is computed with the flow-level TCP model and recorded with
//! timecurl `time_total` semantics: from the client starting the connection
//! until the full response arrived. The time the SYN spent buffered at the
//! switch (on-demand deployment *with waiting*) is part of that total,
//! exactly as the paper measures it.

use std::collections::HashSet;
use std::sync::Arc;

use edgectl::ClusterId;
use edgeverify::{CoherenceView, Fabric, FabricSwitch, Link, PacketClass, Verifier, Violation};
use simcore::{SimDuration, SimRng, SimTime};
use simnet::openflow::{FlowId, FlowTable};
use simnet::{PathTree, SocketAddr, TcpModel};
use workload::client::RequestRecord;
use workload::{ServiceProfile, Trace};

use crate::bringup;
use crate::ingress::{Engine, IngressShard, Released};
use crate::scenario::{PredictorKind, ScenarioConfig};
use crate::topology::CLOUD_PORT;

/// Everything a run produces.
#[derive(Debug)]
pub struct RunResult {
    /// Completed requests, in completion order.
    pub records: Vec<RequestRecord>,
    /// All on-demand deployments the controller performed.
    pub deployments: Vec<edgectl::DeploymentRecord>,
    /// Requests whose packet was dropped (deployment failed / flow raced).
    pub lost: u64,
    pub switch_stats: simnet::openflow::SwitchStats,
    pub memory_hits: u64,
    pub cloud_forwards: u64,
    pub held_requests: u64,
    pub detoured_requests: u64,
    pub scale_downs: u64,
    /// Services fully removed after prolonged idleness (Fig. 4 Remove).
    /// Surfaced for the bench reports; deliberately NOT part of
    /// [`RunResult::metrics_trace`] so pinned hashes stay stable.
    pub removes: u64,
    /// Scheduler decisions refused by admission control (site out of
    /// capacity / labels unmet). Like `removes`, surfaced for the bench
    /// reports and deliberately NOT part of [`RunResult::metrics_trace`]:
    /// the default unlimited capacities keep pinned hashes byte-identical.
    pub admission_rejections: u64,
    /// Bookings that pushed a site past its declared capacity — the bench
    /// gates on this staying zero.
    pub capacity_violations: u64,
    pub retargets: u64,
    /// Client handovers processed (flow teardowns for departing clients).
    /// In [`RunResult::metrics_trace`] only when non-zero, so static-client
    /// pinned hashes stay byte-identical.
    pub handovers: u64,
    pub proactive_deployments: u64,
    /// Instances killed by fault injection.
    pub crashes_injected: u64,
    /// Instant the trace's t=0 was mapped to (after pre-warm setup).
    pub trace_offset: SimDuration,
    /// Total events the run scheduled (engine diagnostic; lazily fed SYN
    /// arrivals count like queue pushes so the figure matches an eager loop).
    pub events_scheduled: u64,
    /// High-water mark of the future-event list (engine diagnostic).
    pub peak_queue_depth: usize,
    /// Shortest-path searches the topology ran, build included (engine
    /// diagnostic): the switch's tree plus one per host, whatever the number
    /// of clients and requests.
    pub routing_searches: u64,
    /// Per-phase heap-allocation counts (populated when the
    /// `counting-alloc` feature is on; `None` otherwise).
    pub alloc_profile: Option<AllocProfile>,
}

/// Heap allocations attributed to each phase of a trace run, measured with
/// the workspace-wide counting allocator (feature `counting-alloc`). The
/// `event_loop` lane is the numerator of the pinned allocs/request budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocProfile {
    /// Cluster pre-warm per the scenario's [`crate::PhaseSetup`].
    pub prewarm: u64,
    /// Predictor/crash-schedule arming plus request-lane construction.
    pub schedule: u64,
    /// The event loop itself — every allocation between the first and last
    /// simulated event.
    pub event_loop: u64,
}

impl RunResult {
    /// `time_total` values in milliseconds, in trace order.
    pub fn time_totals_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.time_total().as_millis_f64())
            .collect()
    }

    /// Median `time_total` over all requests (ms).
    pub fn median_time_total_ms(&self) -> f64 {
        let mut p = simcore::Percentiles::new();
        for r in &self.records {
            p.record_duration(r.time_total());
        }
        p.median()
    }

    /// Median `time_total` over deployment-triggering requests only (ms).
    pub fn median_first_request_ms(&self) -> f64 {
        let mut p = simcore::Percentiles::new();
        for r in self.records.iter().filter(|r| r.triggered_deployment) {
            p.record_duration(r.time_total());
        }
        p.median()
    }

    /// Stream the canonical metrics text into any [`std::fmt::Write`] sink —
    /// the one formatter behind both [`RunResult::metrics_trace`] (a `String`
    /// for dumps/diffs) and [`RunResult::metrics_hash`] (a streaming FNV
    /// state, so hashing never materializes the multi-hundred-MB trace).
    pub fn write_metrics<W: std::fmt::Write>(&self, out: &mut W) {
        let _ = writeln!(
            out,
            "lost={} memory_hits={} cloud_forwards={} held={} detoured={} \
             scale_downs={} retargets={} proactive={} crashes={} offset_ns={}",
            self.lost,
            self.memory_hits,
            self.cloud_forwards,
            self.held_requests,
            self.detoured_requests,
            self.scale_downs,
            self.retargets,
            self.proactive_deployments,
            self.crashes_injected,
            self.trace_offset.as_nanos(),
        );
        if self.handovers > 0 {
            let _ = writeln!(out, "handovers={}", self.handovers);
        }
        let _ = writeln!(out, "switch={:?}", self.switch_stats);
        for d in &self.deployments {
            let _ = writeln!(out, "deploy={d:?}");
        }
        for r in &self.records {
            write_request_line(out, r);
        }
    }

    /// Canonical textual trace of everything the run *measured* — the
    /// determinism artifact. Two runs are behaviourally identical iff this
    /// string is byte-identical. Engine-internal diagnostics (events
    /// scheduled, peak queue depth) are deliberately excluded so the trace
    /// is comparable across event-core implementations.
    pub fn metrics_trace(&self) -> String {
        let mut out = String::with_capacity(64 * self.records.len() + 1024);
        self.write_metrics(&mut out);
        out
    }

    /// FNV-1a over [`RunResult::metrics_trace`] — the drift gate used by the
    /// determinism regression test and the `cityscale` benchmark. Streams
    /// the formatter's bytes straight into the hash state (no intermediate
    /// `String`), which is byte-equivalent because `fmt::Write` delivers the
    /// identical byte sequence either way (see `simcore::FnvStream`).
    pub fn metrics_hash(&self) -> u64 {
        let mut h = simcore::FnvStream::new();
        self.write_metrics(&mut h);
        h.finish()
    }
}

/// One `req started=… finished=… service=… client=… triggered=…` line of the
/// metrics text. There is one per request, so it bypasses `fmt`: the bytes
/// are those of the `writeln!` it replaces (`metrics_line_equals_fmt`).
fn write_request_line<W: std::fmt::Write>(out: &mut W, r: &RequestRecord) {
    use simcore::fnv::{write_bool, write_u64};
    let _ = out.write_str("req started=");
    let _ = write_u64(out, r.started.as_nanos());
    let _ = out.write_str(" finished=");
    let _ = write_u64(out, r.finished.as_nanos());
    let _ = out.write_str(" service=");
    let _ = write_u64(out, r.service as u64);
    let _ = out.write_str(" client=");
    let _ = write_u64(out, r.client as u64);
    let _ = out.write_str(" triggered=");
    let _ = write_bool(out, r.triggered_deployment);
    let _ = out.write_str("\n");
}

/// What `Testbed::run_trace_audited` found: the static verifier's view of
/// every flow install the controller performed plus the final data-plane /
/// control-plane state.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Violations raised while rules were being installed (including the
    /// scenario's pre-provisioned `seed_flows`), deduplicated by message —
    /// re-installed redirects produce fresh `FlowId`s but the same finding.
    pub install_violations: Vec<Violation>,
    /// Violations in the final state: reachability over the C³ fabric for
    /// every client × service class, plus FlowMemory ↔ switch coherence.
    pub final_violations: Vec<Violation>,
    /// How many controller flow installs were checked.
    pub checked_installs: u64,
}

impl AuditReport {
    pub fn is_clean(&self) -> bool {
        self.install_violations.is_empty() && self.final_violations.is_empty()
    }

    /// All violations in report order (install-time first).
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.install_violations
            .iter()
            .chain(self.final_violations.iter())
    }
}

/// Live state of an audited run.
struct AuditState {
    verifier: Verifier,
    install_violations: Vec<Violation>,
    /// Dedup key: rendered message (stable across re-installs).
    seen: HashSet<String>,
    checked_installs: u64,
    /// Timestamp of the last processed event — "now" for the final audit.
    last_event: SimTime,
}

impl AuditState {
    fn new() -> AuditState {
        AuditState {
            verifier: Verifier::new(),
            install_violations: Vec::new(),
            seen: HashSet::new(),
            checked_installs: 0,
            last_event: SimTime::ZERO,
        }
    }

    fn record(&mut self, violations: Vec<Violation>) {
        for v in violations {
            let msg = v.to_string();
            if self.seen.insert(msg) {
                self.install_violations.push(v);
            }
        }
    }
}

/// Fault injection: crash one running instance of a random service. The
/// testbed's only event beyond the ingress core's own.
struct CrashTick;

/// The assembled testbed.
pub struct Testbed {
    cfg: ScenarioConfig,
    shard: IngressShard<CrashTick>,
    model: FlowModel,
    /// Per-phase allocation counts of the last `run_trace` (populated when
    /// the `counting-alloc` feature is on).
    alloc_profile: Option<AllocProfile>,
}

/// What the testbed makes of the core's events: a released request becomes
/// a flow-level TCP exchange against a single-server instance queue, a
/// FlowMod is audited when a verifier rides along, and crash ticks kill
/// instances.
struct FlowModel {
    profile: ServiceProfile,
    rng: SimRng,
    /// Routes toward the cloud (index 0) and each site (`1 + site`), built
    /// once over the (immutable after build) fabric: a released request's
    /// RTT and bottleneck are two array reads, however many clients exist.
    host_trees: Vec<PathTree>,
    /// The two constants of a `(host, client)` path a release needs, dense
    /// by `host * clients + client` and filled on first use:
    /// `upload = connect + transfer(request_bytes)` and
    /// `fixed = upload + transfer(response_bytes)`, the exchange less its
    /// sampled server time.
    path_times: Vec<Option<(SimDuration, SimDuration)>>,
    records: Vec<RequestRecord>,
    /// Requests whose `triggered_deployment` flag depends on a machine that
    /// may still be in flight at completion time: `(record index, lo, hi)`
    /// machine-ordinal windows, resolved against the dispatcher's completion
    /// log in [`Testbed::finish`].
    triggered_windows: Vec<(usize, u64, u64)>,
    crashes_injected: u64,
    /// `Some` while a `run_trace_audited` run checks every flow install.
    audit: Option<AuditState>,
    /// Single-server FIFO queue per (service, serving port): the instant the
    /// instance frees up. Requests arriving while it is busy wait in line —
    /// that is what actually happens inside one nginx/TF-Serving instance.
    /// Dense lanes: `service * busy_stride` is the cloud port, `+ 1 + site`
    /// the site ports (`SimTime::ZERO` = idle).
    busy: Vec<SimTime>,
    busy_stride: usize,
}

impl Testbed {
    /// Build the testbed for `cfg`, registering `n_services` instances of the
    /// configured service type at the given cloud addresses.
    pub fn build(cfg: ScenarioConfig, service_addrs: Vec<SocketAddr>) -> Testbed {
        let c3 = bringup::topology(&cfg);
        let controller = bringup::controller(
            &cfg,
            &c3,
            bringup::site_backends(&cfg, &c3),
            &service_addrs,
            bringup::service_templates(&cfg, service_addrs.len()),
            |builder| builder,
        );
        let switch = bringup::seeded_switch(&cfg, &c3);
        // One busy lane per service × {cloud, site…} pair, sized up front
        // from the scenario metadata (a few MB even at 1000×).
        let busy_stride = 1 + c3.site_hosts.len();
        let model = FlowModel {
            profile: ServiceProfile::of(cfg.service),
            rng: SimRng::seed_from_u64(cfg.seed),
            host_trees: c3.host_trees(),
            path_times: vec![None; busy_stride * c3.clients.len()],
            records: Vec::new(),
            triggered_windows: Vec::new(),
            crashes_injected: 0,
            audit: None,
            busy: vec![SimTime::ZERO; service_addrs.len() * busy_stride],
            busy_stride,
        };
        Testbed {
            cfg,
            shard: IngressShard::new(c3, switch, controller, service_addrs),
            model,
            alloc_profile: None,
        }
    }

    /// The controller, for inspection in tests.
    #[doc(hidden)]
    pub fn controller(&self) -> &edgectl::Controller {
        &self.shard.controller
    }

    /// Allocation counter snapshot (zero when `counting-alloc` is off).
    #[inline]
    fn alloc_snapshot() -> u64 {
        #[cfg(feature = "counting-alloc")]
        {
            simcore::alloc_count::total()
        }
        #[cfg(not(feature = "counting-alloc"))]
        {
            0
        }
    }

    /// Pre-warm the pipeline per the scenario's `PhaseSetup` on every
    /// attached cluster. Returns the instant the setup finished.
    fn prewarm(&mut self) -> SimTime {
        let controller = &mut self.shard.controller;
        let templates: Vec<_> = self
            .shard
            .service_addrs
            .iter()
            .map(|&addr| {
                Arc::clone(
                    &controller
                        .catalog
                        .lookup(addr)
                        .expect("registered")
                        .template,
                )
            })
            .collect();
        bringup::prewarm(&self.cfg, &templates, controller.clusters_mut())
    }

    /// `client` starts a connection to `service` at `started`.
    fn admit(&mut self, started: SimTime, client: usize, service: usize) {
        let syn_at = started + self.shard.c3.client_switch_latency(client);
        self.shard.admit(syn_at, client, service);
    }

    /// Run a full trace through the testbed.
    pub fn run_trace(mut self, trace: &Trace) -> RunResult {
        let offset = self.run_trace_inner(trace);
        self.finish(offset)
    }

    /// Like [`Testbed::run_trace`], but with the `edgeverify` static checker
    /// riding along: the pre-provisioned table is audited before the run,
    /// every controller flow install is re-checked as it lands, and the final
    /// state gets a full fabric-reachability and FlowMemory-coherence pass.
    pub fn run_trace_audited(mut self, trace: &Trace) -> (RunResult, AuditReport) {
        let mut audit = AuditState::new();
        // The seed flows are already on the switch: audit the table they
        // produced before any traffic moves.
        audit.record(audit.verifier.check(&self.shard.switch.table));
        self.model.audit = Some(audit);
        let offset = self.run_trace_inner(trace);
        let report = self.final_audit();
        (self.finish(offset), report)
    }

    /// Everything up to and including the event loop; returns the trace
    /// offset [`Testbed::finish`] needs.
    fn run_trace_inner(&mut self, trace: &Trace) -> SimDuration {
        assert_eq!(
            trace.service_addrs, self.shard.service_addrs,
            "testbed must be built with the trace's addresses"
        );
        let a_start = Self::alloc_snapshot();
        let setup_end = self.prewarm();
        let a_prewarm = Self::alloc_snapshot();
        // Leave slack after setup so in-flight readiness (Running setup)
        // settles before the first request.
        let offset = (setup_end - SimTime::ZERO) + SimDuration::from_secs(5);

        // Arm the proactive predictor, if configured.
        match self.cfg.predictor {
            PredictorKind::None => {}
            PredictorKind::Popularity => {
                // Nominate generously (the controller skips services that are
                // already running or being deployed): every service whose
                // decayed score clears the threshold.
                self.shard
                    .controller
                    .set_predictor(Box::new(edgectl::PopularityPredictor::new(
                        SimDuration::from_secs(120),
                        usize::MAX,
                        0.4,
                    )));
            }
            PredictorKind::Oracle => {
                let schedule: Vec<(SimTime, simnet::SocketAddr)> = trace
                    .requests
                    .iter()
                    .map(|r| (r.at + offset, trace.service_addrs[r.service]))
                    .collect();
                self.shard
                    .controller
                    .set_predictor(Box::new(edgectl::OraclePredictor::with_schedule(schedule)));
            }
        }
        // Fault injection: exponential inter-crash times over the window.
        if let Some(mtbf) = self.cfg.crash_mtbf {
            let mut crash_rng = self.model.rng.stream("crash-schedule");
            let mut t = SimTime::ZERO + offset;
            let end = SimTime::ZERO + offset + trace.config.duration;
            loop {
                let gap =
                    SimDuration::from_secs_f64(-mtbf.as_secs_f64() * (1.0 - crash_rng.f64()).ln());
                t += gap;
                if t >= end {
                    break;
                }
                self.shard.schedule(t, CrashTick);
            }
        }

        if self.cfg.predictor != PredictorKind::None {
            let first = SimTime::ZERO + offset - SimDuration::from_secs(4);
            let end = SimTime::ZERO
                + offset
                + self
                    .cfg
                    .controller
                    .probe_timeout
                    .min(SimDuration::from_secs(1))
                + trace.config.duration;
            // Look one interval plus the typical deployment time ahead so
            // instances are up before their requests arrive.
            let horizon = self.cfg.predict_interval + SimDuration::from_secs(5);
            self.shard.controller.set_predict_schedule(
                first,
                self.cfg.predict_interval,
                end,
                horizon,
            );
            // Arm the first wakeup at setup time so that at equal instants
            // the predictor (like the old pre-pushed tick chain) runs before
            // an arriving SYN.
            self.shard.arm_wakeup(SimTime::ZERO);
        }

        // Pre-size every per-request structure from the trace metadata so
        // the event loop itself never grows them.
        let n = trace.requests.len();
        self.shard.reserve(n);
        self.model.records.reserve(n);
        for req in &trace.requests {
            self.admit(req.at + offset, req.client, req.service);
        }
        for h in &trace.handovers {
            self.shard.schedule_handover(h.at + offset, h.client);
        }
        self.shard.start();
        let a_schedule = Self::alloc_snapshot();
        self.shard.run_until(SimTime::FAR_FUTURE, &mut self.model);
        if cfg!(feature = "counting-alloc") {
            self.alloc_profile = Some(AllocProfile {
                prewarm: a_prewarm - a_start,
                schedule: a_schedule - a_prewarm,
                event_loop: Self::alloc_snapshot() - a_schedule,
            });
        }
        offset
    }

    /// The final-state audit of an audited run: fabric reachability for every
    /// client × service class plus FlowMemory ↔ switch coherence.
    fn final_audit(&mut self) -> AuditReport {
        let audit = self.model.audit.take().expect("audit state enabled");
        let now = audit.last_event;
        let IngressShard {
            c3,
            switch,
            controller,
            service_addrs,
            ..
        } = &self.shard;

        // The C³ fabric as the verifier sees it: one switch, port 0 to the
        // cloud, one port per site, then the client access ports.
        let mut links = vec![Link::Cloud];
        links.resize(1 + c3.site_hosts.len(), Link::Site);
        links.resize(c3.port_count(), Link::Client);
        let classes = c3
            .client_ips
            .iter()
            .flat_map(|&client| {
                service_addrs.iter().map(move |&svc| {
                    PacketClass::client_to_service(SocketAddr::new(client, 40000), svc, 0)
                })
            })
            .collect();
        let fabric = Fabric {
            switches: vec![FabricSwitch {
                table: &switch.table,
                links,
            }],
            service_addrs: service_addrs.to_vec(),
            classes,
        };
        let mut final_violations = Vec::new();
        // `check_fabric` re-runs the per-table analyses; keep only findings
        // the install-time audit has not already reported.
        for v in audit.verifier.check_fabric(&fabric) {
            if !audit.seen.contains(&v.to_string()) {
                final_violations.push(v);
            }
        }

        let mut live_targets = HashSet::new();
        for c in 0..c3.site_hosts.len() {
            let cluster = controller.cluster(ClusterId(c));
            for service in controller.catalog.services() {
                live_targets.extend(cluster.replica_endpoints(now, &service.template.name));
            }
        }
        let view = CoherenceView {
            now,
            memory: controller.memory(),
            tables: vec![&switch.table],
            live_targets,
            in_flight: controller.in_flight_deployments(now).into_iter().collect(),
        };
        final_violations.extend(audit.verifier.check_coherence(&view));

        let books: Vec<edgeverify::SiteBooks> = (0..c3.site_hosts.len())
            .map(|c| {
                let id = ClusterId(c);
                (
                    c,
                    controller.site_capacity(id),
                    controller.site_allocation(id),
                )
            })
            .collect();
        final_violations.extend(audit.verifier.check_capacity(&books));

        AuditReport {
            install_violations: audit.install_violations,
            final_violations,
            checked_installs: audit.checked_installs,
        }
    }

    /// Run a single request to service 0 from client 0 (the per-figure
    /// measurement helper). Returns the run result with exactly one record.
    pub fn run_single_request(mut self) -> RunResult {
        let setup_end = self.prewarm();
        let offset = (setup_end - SimTime::ZERO) + SimDuration::from_secs(5);
        self.admit(SimTime::ZERO + offset, 0, 0);
        self.shard.start();
        self.shard.run_until(SimTime::FAR_FUTURE, &mut self.model);
        self.finish(offset)
    }

    fn finish(self, offset: SimDuration) -> RunResult {
        let Testbed {
            shard, mut model, ..
        } = self;
        // Resolve deferred `triggered_deployment` verdicts: the event loop
        // has drained, so every machine in a window has completed or failed.
        for (idx, lo, hi) in std::mem::take(&mut model.triggered_windows) {
            model.records[idx].triggered_deployment = shard.controller.completed_machine_in(lo, hi);
        }
        let stats = &shard.controller.stats;
        RunResult {
            deployments: stats.deployments.clone(),
            lost: shard.lost(),
            switch_stats: shard.switch.stats,
            memory_hits: stats.memory_hits,
            cloud_forwards: stats.cloud_forwards,
            held_requests: stats.held_requests,
            detoured_requests: stats.detoured_requests,
            scale_downs: stats.scale_downs,
            removes: stats.removals,
            admission_rejections: stats.admission_rejections,
            capacity_violations: stats.capacity_violations,
            retargets: stats.retargets,
            handovers: stats.handovers,
            proactive_deployments: stats.proactive_deployments,
            crashes_injected: model.crashes_injected,
            events_scheduled: shard.events_executed(),
            peak_queue_depth: shard.peak_queue_depth(),
            routing_searches: shard.c3.net.searches(),
            alloc_profile: self.alloc_profile,
            records: model.records,
            trace_offset: offset,
        }
    }
}

impl Engine<CrashTick> for FlowModel {
    /// The SYN was forwarded at `release` towards `out_port`; compute the
    /// remainder of the exchange analytically and record timecurl's
    /// `time_total`.
    fn released(&mut self, shard: &mut IngressShard<CrashTick>, release: SimTime, r: Released) {
        let c3 = &shard.c3;
        // Host lane: 0 is the cloud, `1 + site` a site — the index of the
        // host's routing tree and of its busy lane within the service.
        let host = if r.out_port == CLOUD_PORT {
            0
        } else if let Some(site) = c3.site_of_port(r.out_port) {
            1 + site
        } else {
            // Forwarded to a client port: a misinstalled flow. Count as
            // lost rather than fabricating a response.
            debug_assert!(
                r.out_port.0 >= c3.client_port_base(),
                "unknown port {:?}",
                r.out_port
            );
            shard.lose(r.idx);
            return;
        };
        let busy_lane = r.service * self.busy_stride + host;
        // When the client started its connection: the SYN's arrival at the
        // switch less the access link `Testbed::admit` added to it (integer
        // nanoseconds, so exactly the instant the trace gave).
        let started = r.syn_at - c3.client_switch_latency(r.client);
        let (upload, fixed) = *self.path_times[host * c3.clients.len() + r.client]
            .get_or_insert_with(|| {
                let tree = &self.host_trees[host];
                let client = c3.clients[r.client];
                let latency = tree.latency(client).expect("client reaches host");
                let bottleneck_bps = tree.bottleneck_bps(client).expect("client reaches host");
                path_times(
                    TcpModel::new(latency * 2, bottleneck_bps),
                    self.profile.request_bytes,
                    self.profile.response_bytes,
                )
            });
        let server_time = self.profile.server_time.sample(&mut self.rng);
        // Time the SYN spent buffered at the switch (deployment wait).
        let hold = release - r.syn_at;
        // Queueing at the instance: the request's processing starts when the
        // instance frees up (single-server FIFO per service instance), so
        // concurrent requests to a hot service serialize on its CPU.
        let at_server = started + hold + upload;
        let slot = &mut self.busy[busy_lane];
        let start_serving = at_server.max(*slot);
        let queue_delay = start_serving - at_server;
        *slot = start_serving + server_time;
        // `TcpModel::request_response_time`, its path terms taken from the
        // memo: durations are integer nanoseconds, so the sum is the same.
        let exchange = fixed + server_time;
        let finished = started + hold + queue_delay + exchange;
        // A request "triggered" a deployment if its own PacketIn started a
        // machine (window [machines_before, hi)) that eventually completes,
        // and the request was held for it. The machine may still be mid-
        // flight here, so the verdict is resolved in `finish` against the
        // dispatcher's completion log.
        let hi = shard.controller.machines_started();
        if hold > SimDuration::ZERO && r.machines_before < hi {
            self.triggered_windows
                .push((self.records.len(), r.machines_before, hi));
        }
        self.records.push(RequestRecord {
            started,
            finished,
            service: r.service,
            client: r.client,
            triggered_deployment: false,
        });
    }

    /// Kill one running instance of a uniformly chosen service on a
    /// uniformly chosen cluster (if any is up).
    fn on_event(&mut self, shard: &mut IngressShard<CrashTick>, now: SimTime, _: CrashTick) {
        let mut rng = self.rng.stream_u64(now.as_nanos());
        let cluster = ClusterId(rng.index(shard.c3.site_hosts.len()));
        let services = shard.service_addrs.len();
        let start = rng.index(services);
        for k in 0..services {
            let addr = shard.service_addrs[(start + k) % services];
            let catalog = &shard.controller.catalog;
            let name = catalog.name_arc(catalog.lookup(addr).expect("registered").id);
            if shard
                .controller
                .cluster_mut(cluster)
                .inject_crash(now, &name)
                .crashed()
            {
                self.crashes_injected += 1;
                return;
            }
        }
    }

    fn installed(&mut self, table: &FlowTable, id: FlowId) {
        if let Some(audit) = &mut self.audit {
            audit.checked_installs += 1;
            let found = audit.verifier.check_install(0, table, id);
            audit.record(found);
        }
    }

    fn after_event(&mut self, _: &mut IngressShard<CrashTick>, now: SimTime) {
        if let Some(audit) = &mut self.audit {
            audit.last_event = now;
        }
    }
}

/// `(upload, fixed)` of a path: handshake plus request upload, and that plus
/// the response download — [`TcpModel::request_response_time`] less the
/// server's think time.
fn path_times(
    tcp: TcpModel,
    request_bytes: u64,
    response_bytes: u64,
) -> (SimDuration, SimDuration) {
    let upload = tcp.connect_time() + tcp.transfer_time(request_bytes);
    (upload, upload + tcp.transfer_time(response_bytes))
}

/// Run an externally supplied trace (e.g. loaded from CSV) under a scenario.
pub fn run_trace_scenario(cfg: ScenarioConfig, trace: &Trace) -> RunResult {
    let testbed = Testbed::build(cfg, trace.service_addrs.to_vec());
    testbed.run_trace(trace)
}

/// Build a testbed plus the paper's default bigFlows-like trace and run it.
///
/// ```
/// use testbed::{run_bigflows, ScenarioConfig};
///
/// let (trace, result) = run_bigflows(ScenarioConfig::default());
/// assert_eq!(trace.requests.len(), result.records.len());
/// assert_eq!(result.deployments.len(), 42); // one per service, Fig. 10
/// ```
pub fn run_bigflows(cfg: ScenarioConfig) -> (Trace, RunResult) {
    let trace = generate_workload(&cfg);
    let testbed = Testbed::build(cfg, trace.service_addrs.to_vec());
    let result = testbed.run_trace(&trace);
    (trace, result)
}

/// Generate the trace `cfg.workload` describes, with the scenario's client
/// population and the canonical trace-seed derivation (`seed ^ 0xB16F_1085`
/// — the same stream `run_bigflows` has always used, so the default
/// workload replays every pinned trace byte-identically).
pub fn generate_workload(cfg: &ScenarioConfig) -> Trace {
    let mut wl = cfg.workload.clone();
    wl.mix.clients = cfg.clients;
    let mut trace_rng = SimRng::seed_from_u64(cfg.seed ^ 0xB16F_1085);
    wl.generate(&mut trace_rng)
        .unwrap_or_else(|e| panic!("scenario workload: {e}"))
}

/// [`run_bigflows`] with the static verifier auditing the whole run — the
/// `edgesim verify` entry point for scenario files.
pub fn run_bigflows_audited(cfg: ScenarioConfig) -> (Trace, RunResult, AuditReport) {
    let trace = generate_workload(&cfg);
    let testbed = Testbed::build(cfg, trace.service_addrs.to_vec());
    let (result, report) = testbed.run_trace_audited(&trace);
    (trace, result, report)
}

/// Measure a single first request against one service (the Figs. 11–15
/// micro-scenario): returns `(time_total_ms, deployment_record)`.
pub fn measure_first_request(cfg: ScenarioConfig) -> (f64, Option<edgectl::DeploymentRecord>) {
    let addr = SocketAddr::new(simnet::IpAddr::new(93, 184, 0, 1), 80);
    let testbed = Testbed::build(cfg, vec![addr]);
    let result = testbed.run_single_request();
    assert_eq!(result.records.len() + result.lost as usize, 1);
    let ms = result
        .records
        .first()
        .map(|r| r.time_total().as_millis_f64())
        .unwrap_or(f64::NAN);
    (ms, result.deployments.into_iter().next())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::PhaseSetup;
    use crate::topology::SiteSpec;
    use cluster::ClusterKind;
    use edgectl::SchedulerSpec;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    fn record_strategy() -> impl Strategy<Value = RequestRecord> {
        // Magnitudes from one digit to all twenty, not only large values.
        let nanos = || (0u32..64, any::<u64>()).prop_map(|(shift, v)| v >> shift);
        (nanos(), nanos(), nanos(), nanos(), any::<bool>()).prop_map(
            |(started, finished, service, client, triggered_deployment)| RequestRecord {
                started: SimTime::ZERO + SimDuration::from_nanos(started),
                finished: SimTime::ZERO + SimDuration::from_nanos(finished),
                service: service as usize,
                client: client as usize,
                triggered_deployment,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The per-request line written field by field is, byte for byte, the
        /// `writeln!` it replaced — into a `String` and into the hash.
        #[test]
        fn metrics_line_equals_fmt(records in prop::collection::vec(record_strategy(), 0..8)) {
            let mut reference = String::new();
            let mut fast = String::new();
            let mut hashed = simcore::FnvStream::new();
            for r in &records {
                writeln!(
                    reference,
                    "req started={} finished={} service={} client={} triggered={}",
                    r.started.as_nanos(),
                    r.finished.as_nanos(),
                    r.service,
                    r.client,
                    r.triggered_deployment,
                )
                .unwrap();
                write_request_line(&mut fast, r);
                write_request_line(&mut hashed, r);
            }
            prop_assert_eq!(&fast, &reference);
            prop_assert_eq!(
                hashed.finish(),
                simcore::FnvStream::hash_bytes(reference.as_bytes())
            );
        }

        /// The memoised pair is exactly what a release computed from the
        /// `TcpModel` before there was a memo.
        #[test]
        fn path_times_equal_the_direct_tcp_expressions(
            latency_us in 1u64..200_000,
            bandwidth_bps in 1_000_000u64..100_000_000_000,
            request_bytes in 0u64..10_000_000,
            response_bytes in 0u64..100_000_000,
            server_us in 0u64..5_000_000,
        ) {
            let tcp = TcpModel::new(SimDuration::from_micros(latency_us) * 2, bandwidth_bps);
            let (upload, fixed) = path_times(tcp, request_bytes, response_bytes);
            prop_assert_eq!(upload, tcp.connect_time() + tcp.transfer_time(request_bytes));
            let server_time = SimDuration::from_micros(server_us);
            prop_assert_eq!(
                fixed + server_time,
                tcp.request_response_time(request_bytes, response_bytes, server_time)
            );
        }
    }

    /// Two sites at different distances, two clients on different access
    /// links: every `(host, client)` pair that served a request holds its own
    /// constants, and they are the ones its own path gives.
    #[test]
    fn path_memo_is_keyed_by_host_and_client() {
        // A cold near edge and a warm far one: first requests detour to the
        // far site, later ones are retargeted to the near site.
        let mut cfg = ScenarioConfig::default().with_seed(3);
        cfg.sites = vec![
            (
                SiteSpec::pi("near", SimDuration::from_micros(300)),
                ClusterKind::Docker,
            ),
            (
                SiteSpec {
                    latency: SimDuration::from_millis(8),
                    ..SiteSpec::egs("far")
                },
                ClusterKind::Docker,
            ),
        ];
        cfg.scheduler = SchedulerSpec::nearest_ready_first();
        cfg.phase_setup = PhaseSetup::Running;
        cfg.prewarm_sites = Some(vec![1]);
        cfg.clients = 2;
        let trace = generate_workload(&cfg);
        let mut tb = Testbed::build(cfg, trace.service_addrs.to_vec());
        // Client 1 gets a shorter access link than the topology's standard
        // one, so its paths differ from client 0's toward every host.
        let c3 = &mut tb.shard.c3;
        c3.net.add_link(
            c3.clients[1],
            c3.switch,
            SimDuration::from_micros(50),
            10_000_000_000,
        );
        tb.model.host_trees = c3.host_trees();

        tb.run_trace_inner(&trace);

        let c3 = &tb.shard.c3;
        let profile = ServiceProfile::of(tb.cfg.service);
        let direct = |host: usize, client: usize| {
            let tree = &tb.model.host_trees[host];
            let node = c3.clients[client];
            path_times(
                TcpModel::new(
                    tree.latency(node).unwrap() * 2,
                    tree.bottleneck_bps(node).unwrap(),
                ),
                profile.request_bytes,
                profile.response_bytes,
            )
        };
        let memo = |host: usize, client: usize| tb.model.path_times[host * 2 + client];
        let mut seen = Vec::new();
        for host in [1, 2] {
            for client in [0, 1] {
                assert_eq!(
                    memo(host, client),
                    Some(direct(host, client)),
                    "host {host} client {client}"
                );
                seen.push(direct(host, client));
            }
        }
        seen.sort();
        seen.dedup();
        assert_eq!(
            seen.len(),
            4,
            "four paths, four distinct pairs of constants"
        );
        // The warm far edge absorbed every detour: nothing went to the
        // cloud, so its lane of the memo was never filled.
        assert_eq!(memo(0, 0), None);
        assert_eq!(memo(0, 1), None);
    }
}
