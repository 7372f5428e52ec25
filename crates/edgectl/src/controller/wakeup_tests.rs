//! Model-based test of the wakeup surface: after any sequence of requests,
//! wakeups, remote deltas and lease revocations — through scale-down,
//! revival, failed-deployment restore, Remove, retargets and scale-down
//! retries — `next_wakeup()` must equal the minimum over every source's
//! every pending instant. That brute-force minimum lives here, as the oracle;
//! the controller reads heads of time-ordered structures and scans nothing.

use cluster::faults::{FaultPlan, FaultyCluster};
use cluster::{DockerCluster, ServiceTemplate};
use containers::image::synthesize_layers;
use containers::{ImageManifest, Runtime};
use proptest::prelude::*;
use registry::{Registry, RegistryProfile};
use simcore::{DurationDist, SimRng};
use simnet::{Packet, SocketAddr};

use super::*;
use crate::scheduler::NearestReadyFirst;

const SERVICES: u8 = 5;
const CLIENTS: u8 = 4;
const REMOVE_AFTER: SimDuration = SimDuration::from_secs(8);

/// The minimum over all pending instants of all wakeup sources, by scanning
/// every one of them.
fn brute_force_next_wakeup(c: &Controller) -> Option<SimTime> {
    let mut pending: Vec<SimTime> = Vec::new();
    let d = &c.dispatcher;
    for (service, cluster) in d.in_flight() {
        pending.push(d.find(cluster, service).expect("in flight").next_step());
    }
    pending.extend(c.retarget_queue.due.records().map(|(at, _)| at));
    if c.config.scale_down_idle {
        let idle = c.memory.idle_timeout();
        pending.extend(c.memory.iter().map(|f| f.last_seen + idle));
        pending.extend(c.scale_down_retries.due.records().map(|(at, _)| at));
    }
    if let Some(remove_after) = c.config.remove_after {
        // edgelint: allow(det-collections) — order-insensitive minimum
        pending.extend(c.scaled_to_zero.since.values().map(|&at| at + remove_after));
    }
    pending.extend(c.predict.as_ref().and_then(PredictSchedule::next_due_at));
    pending.into_iter().min()
}

fn service_addr(s: u8) -> SocketAddr {
    SocketAddr::new(IpAddr::new(93, 184, 0, s + 1), 80)
}

fn docker(name: &str, site: u8, rng: &SimRng) -> DockerCluster {
    DockerCluster::new(
        name,
        IpAddr::new(10, 0, site, 100),
        Runtime::egs(rng.stream("rt")),
        rng.stream("docker"),
    )
}

/// Two sites under the without-waiting policy (a far deployment retargets
/// flows once the near one is ready); the near site's API is flaky, so
/// deployments fail and idle scale-downs need retries.
fn controller(seed: u64, waiting: bool) -> Controller {
    let mut hub = Registry::new(RegistryProfile::docker_hub());
    hub.publish(ImageManifest::new(
        "nginx:1.23.2",
        synthesize_layers(1, 141_000_000, 6),
    ));
    let mut registries = RegistrySet::new();
    registries.add(hub);
    let config = ControllerConfig {
        memory_idle_timeout: SimDuration::from_secs(5),
        switch_idle_timeout: SimDuration::from_secs(2),
        remove_after: Some(REMOVE_AFTER),
        probe_timeout: SimDuration::from_secs(4),
        deploy_retries: 1,
        ..ControllerConfig::default()
    };
    let builder = Controller::builder(config).registries(registries);
    let mut c = if waiting {
        builder.global(NearestWaiting).build()
    } else {
        builder.global(NearestReadyFirst).build()
    };
    let rng = SimRng::seed_from_u64(seed);
    let flaky = FaultPlan {
        scale_up_failure: 0.3,
        scale_down_failure: 0.5,
        ..FaultPlan::none()
    };
    c.attach_cluster(
        Box::new(FaultyCluster::new(
            docker("near", 0, &rng.stream("near")),
            flaky,
            rng.stream("faults"),
        )),
        SimDuration::from_micros(300),
        PortId(1),
    );
    c.attach_cluster(
        Box::new(docker("far", 1, &rng.stream("far"))),
        SimDuration::from_millis(4),
        PortId(2),
    );
    for s in 0..SERVICES {
        c.catalog.register(
            service_addr(s),
            ServiceTemplate::single(
                format!("svc-{s}"),
                "nginx:1.23.2",
                80,
                DurationDist::constant_ms(110.0),
            ),
        );
    }
    c.set_predict_schedule(
        SimTime::ZERO + SimDuration::from_secs(1),
        SimDuration::from_secs(7),
        SimTime::ZERO + SimDuration::from_secs(60),
        SimDuration::from_secs(5),
    );
    c
}

#[derive(Debug, Clone)]
enum Op {
    /// A client's SYN for a service table-misses at the switch.
    Request { service: u8, client: u8 },
    /// A mesh peer announces a ready instance.
    RemoteReady { cluster: usize, service: u8 },
    /// The deployment lease is revoked (no-op unless a machine is in flight),
    /// in any phase.
    Abort { cluster: usize, service: u8 },
    /// Virtual time passes; every wakeup due on the way is delivered.
    Pass { ms: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..SERVICES, 0..CLIENTS).prop_map(|(service, client)| Op::Request { service, client }),
        1 => (0usize..2, 0..SERVICES).prop_map(|(cluster, service)| Op::RemoteReady { cluster, service }),
        1 => (0usize..2, 0..SERVICES).prop_map(|(cluster, service)| Op::Abort { cluster, service }),
        3 => (0u64..400).prop_map(|ms| Op::Pass { ms }),
        3 => (400u64..12_000).prop_map(|ms| Op::Pass { ms }),
    ]
}

/// Which of the lifecycles the surface has to track a run went through.
#[derive(Debug, Default)]
struct Coverage {
    wakeups: u64,
    restores: u64,
    retries_queued: u64,
}

/// Drives `c` like the event loop does and holds `next_wakeup()` to the
/// brute-force minimum after every call into the controller.
struct Driver {
    c: Controller,
    now: SimTime,
    packets: u64,
    seen: Coverage,
}

impl Driver {
    fn check(&self) -> Result<(), String> {
        let (got, want) = (self.c.next_wakeup(), brute_force_next_wakeup(&self.c));
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "at {:?}: next_wakeup {got:?}, brute force {want:?}",
                self.now
            ))
        }
    }

    fn apply(&mut self, op: &Op) -> Result<(), String> {
        match *op {
            Op::Request { service, client } => {
                let src = SocketAddr::new(IpAddr::new(10, 1, 0, client + 1), 40_000);
                let packet = Packet::syn(src, service_addr(service), self.packets);
                let port = PortId(3 + usize::from(client));
                self.c.on_packet_in_at_into(
                    self.now,
                    INGRESS,
                    packet,
                    BufferId(self.packets),
                    port,
                    &mut Vec::new(),
                );
                self.packets += 1;
            }
            Op::RemoteReady { cluster, service } => {
                let delta = StatusDelta {
                    origin: self.now,
                    cluster: ClusterId(cluster),
                    service: ServiceId(u32::from(service)),
                    kind: DeltaKind::Ready,
                };
                self.c.apply_remote_delta(self.now, &delta);
            }
            Op::Abort { cluster, service } => {
                let (cluster, service) = (ClusterId(cluster), ServiceId(u32::from(service)));
                let Some(m) = self.c.dispatcher.find(cluster, service) else {
                    return Ok(());
                };
                self.seen.restores += u64::from(m.saved_scaled_to_zero.is_some());
                self.c.abort_deployment(self.now, cluster, service);
            }
            Op::Pass { ms } => {
                let end = self.now + SimDuration::from_millis(ms);
                // Bounded: a surface that fails to move past `now` must fail
                // the comparison, not hang the test.
                for _ in 0..10_000 {
                    match self.c.next_wakeup() {
                        Some(at) if at <= end => {
                            self.now = self.now.max(at);
                            self.c.on_wakeup_into(self.now, &mut Vec::new());
                            self.seen.wakeups += 1;
                            self.seen.retries_queued += self.c.scale_down_retries.due.len() as u64;
                            self.check()?;
                        }
                        _ => break,
                    }
                }
                self.now = end;
            }
        }
        self.check()
    }
}

fn run(seed: u64, waiting: bool, ops: &[Op]) -> Result<Driver, String> {
    let mut driver = Driver {
        c: controller(seed, waiting),
        now: SimTime::ZERO,
        packets: 0,
        seen: Coverage::default(),
    };
    driver.check()?;
    for op in ops {
        driver.apply(op)?;
    }
    Ok(driver)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn next_wakeup_is_the_brute_force_minimum(
        seed in 0u64..1_000,
        waiting in any::<bool>(),
        ops in prop::collection::vec(op_strategy(), 0..150),
    ) {
        run(seed, waiting, &ops).map_err(TestCaseError)?;
    }
}

/// The generator reaches every lifecycle the issue names — otherwise the
/// property above would hold vacuously for some source.
#[test]
fn generated_runs_cover_every_source() {
    let mut rng = TestRng::from_label("wakeup-coverage");
    let strategy = prop::collection::vec(op_strategy(), 150..151);
    let (mut stats, mut seen) = (ControllerStats::default(), Coverage::default());
    for seed in 0..40 {
        let ops = strategy.generate(&mut rng);
        let d = run(seed, seed % 2 == 0, &ops).unwrap();
        stats.scale_downs += d.c.stats.scale_downs;
        stats.removals += d.c.stats.removals;
        stats.retargets += d.c.stats.retargets;
        stats.failed_deployments += d.c.stats.failed_deployments;
        stats.remote_deltas += d.c.stats.remote_deltas;
        seen.wakeups += d.seen.wakeups;
        seen.restores += d.seen.restores;
        seen.retries_queued += d.seen.retries_queued;
    }
    assert!(seen.wakeups > 1_000, "{seen:?}");
    assert!(stats.scale_downs > 0, "no idle scale-down");
    assert!(stats.removals > 0, "no Remove phase");
    assert!(stats.retargets > 0, "no retarget drained");
    assert!(stats.remote_deltas > 0, "no remote delta");
    assert!(stats.failed_deployments > 0, "no failed deployment");
    // A restore implies a revival: the aborted machine had displaced the
    // scaled-to-zero entry of the service it was bringing back.
    assert!(seen.restores > 0, "no revived machine failed and restored");
    assert!(seen.retries_queued > 0, "no scale-down retry queued");
}

/// Mutation: a scaled-to-zero record that skips the time-ordered companion
/// is invisible to `next_wakeup()` — and the comparison notices.
#[test]
fn a_scaled_to_zero_entry_missing_from_the_heap_is_caught() {
    let mut d = run(1, true, &[]).unwrap();
    let key = (ClusterId(0), ServiceId(0));
    let at = SimTime::ZERO;
    d.c.predict = None;

    d.c.scaled_to_zero.since.insert(key, at);
    let err = d.check().unwrap_err();
    assert!(err.contains("brute force Some"), "{err}");

    // Through the one door the same record is seen.
    d.c.scaled_to_zero.since.remove(&key);
    d.c.scaled_to_zero.insert(key, at);
    d.check().unwrap();
    assert_eq!(d.c.next_wakeup(), Some(at + REMOVE_AFTER));
}
