//! Model-based test of the dispatcher's index: `find`, `any_for_service`,
//! `due` (tie-break on `(next_step, seq)`), `next_step_at` and `in_flight`
//! must answer exactly what a linear scan over the in-flight machines would,
//! after any sequence of start / advance / abort / remove. The scan lives
//! here, as the oracle; the dispatcher itself no longer contains one.

use cluster::{ClusterBackend, DockerCluster};
use containers::image::synthesize_layers;
use containers::{ImageManifest, Runtime};
use proptest::prelude::*;
use registry::{Registry, RegistryProfile};
use simcore::{DurationDist, SimRng};
use simnet::IpAddr;

use super::*;
use crate::controller::DeploymentRecord;

const CLUSTERS: usize = 3;
const SERVICES: u32 = 6;

/// What a linear scan needs to know about one in-flight machine.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    seq: u64,
    cluster: ClusterId,
    service: ServiceId,
    next_step: SimTime,
}

/// The scans the dispatcher used to run, kept as the specification.
#[derive(Default)]
struct Oracle {
    /// In start order.
    rows: Vec<Row>,
}

impl Oracle {
    fn find(&self, cluster: ClusterId, service: ServiceId) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.cluster == cluster && r.service == service)
    }

    fn any_for_service(&self, service: ServiceId) -> bool {
        self.rows.iter().any(|r| r.service == service)
    }

    fn due(&self, now: SimTime) -> Option<InstanceKey> {
        self.rows
            .iter()
            .filter(|r| r.next_step <= now)
            .min_by_key(|r| (r.next_step, r.seq))
            .map(|r| (r.cluster, r.service))
    }

    fn next_step_at(&self) -> Option<SimTime> {
        self.rows.iter().map(|r| r.next_step).min()
    }

    fn remove(&mut self, key: InstanceKey) {
        self.rows.retain(|r| (r.cluster, r.service) != key);
    }

    /// Re-read a machine's due instant after the dispatcher wrote it.
    fn sync(&mut self, d: &Dispatcher, key: InstanceKey) {
        let next_step = d.find(key.0, key.1).expect("in flight").next_step();
        let row = self
            .rows
            .iter_mut()
            .find(|r| (r.cluster, r.service) == key)
            .expect("oracle tracks every machine");
        row.next_step = next_step;
    }
}

/// Every indexed answer against the scan, at `now` and with everything due.
fn compare(d: &Dispatcher, oracle: &Oracle, now: SimTime) -> Result<(), String> {
    for c in 0..CLUSTERS {
        for s in 0..SERVICES {
            let (cluster, service) = (ClusterId(c), ServiceId(s));
            let got = d.find(cluster, service).map(|m| (m.seq, m.next_step()));
            let want = oracle.find(cluster, service).map(|r| (r.seq, r.next_step));
            if got != want {
                return Err(format!("find({c}, {s}): {got:?} != {want:?}"));
            }
        }
    }
    for s in 0..SERVICES {
        let service = ServiceId(s);
        if d.any_for_service(service) != oracle.any_for_service(service) {
            return Err(format!("any_for_service({s})"));
        }
    }
    for at in [now, SimTime::FAR_FUTURE] {
        if d.due(at) != oracle.due(at) {
            return Err(format!(
                "due({at:?}): {:?} != {:?}",
                d.due(at),
                oracle.due(at)
            ));
        }
    }
    if d.next_step_at() != oracle.next_step_at() {
        return Err(format!(
            "next_step_at: {:?} != {:?}",
            d.next_step_at(),
            oracle.next_step_at()
        ));
    }
    let in_flight: Vec<_> = oracle.rows.iter().map(|r| (r.service, r.cluster)).collect();
    if d.in_flight() != in_flight {
        return Err("in_flight is not in seq order".into());
    }
    Ok(())
}

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

/// A backend service of its own per machine: one removed mid-flight leaves
/// its containers half-started, and the next machine for the same key must
/// not trip over them.
fn template(service: ServiceId, seq: u64) -> Arc<ServiceTemplate> {
    Arc::new(ServiceTemplate::single(
        format!("svc-{}-{seq}", service.0),
        "nginx:1.23.2",
        80,
        DurationDist::constant_ms(110.0),
    ))
}

fn start(d: &mut Dispatcher, oracle: &mut Oracle, at: SimTime, key: InstanceKey) {
    let (cluster, service) = key;
    let template = template(service, d.next_seq());
    let record = DeploymentRecord {
        service: template.name.clone(),
        cluster,
        kind: cluster::ClusterKind::Docker,
        triggered_at: at,
        pull: None,
        create: None,
        scale_up: None,
        ready_detected: SimTime::FAR_FUTURE,
        waited: false,
    };
    let seq = d
        .start(at, cluster, service, template, record, false, false, None)
        .seq;
    oracle.rows.push(Row {
        seq,
        cluster,
        service,
        next_step: at,
    });
}

/// One real backend per cluster, so `advance` walks machines through the
/// phases (and their different step instants) the controller sees.
struct World {
    backends: Vec<DockerCluster>,
    registries: RegistrySet,
}

impl World {
    fn new(seed: u64) -> World {
        let mut hub = Registry::new(RegistryProfile::docker_hub());
        hub.publish(ImageManifest::new(
            "nginx:1.23.2",
            synthesize_layers(1, 141_000_000, 6),
        ));
        let mut registries = RegistrySet::new();
        registries.add(hub);
        let backends = (0..CLUSTERS)
            .map(|c| {
                let rng = SimRng::seed_from_u64(seed).stream_indexed("cluster", c);
                DockerCluster::new(
                    format!("edge-{c}"),
                    IpAddr::new(10, 0, c as u8, 100),
                    Runtime::egs(rng.stream("rt")),
                    rng.stream("docker"),
                )
            })
            .collect();
        World {
            backends,
            registries,
        }
    }

    fn ctx(&mut self, cluster: ClusterId) -> StepCtx<'_> {
        StepCtx {
            backend: &mut self.backends[cluster.0] as &mut dyn ClusterBackend,
            registries: &self.registries,
            retries: 1,
            backoff: SimDuration::from_millis(250),
            probe_interval: SimDuration::from_millis(50),
            probe_timeout: SimDuration::from_secs(2),
            probe_rtt: SimDuration::from_micros(160),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Start a machine for the key unless one is in flight.
    Start { cluster: usize, service: u32 },
    /// Step the due machine, as `pump_machines` does; terminal outcomes
    /// remove it.
    AdvanceDue,
    /// Lease revocation: re-key the n-th machine to `now`, then remove it.
    Abort(usize),
    /// Remove the n-th machine outright.
    Remove(usize),
    /// Push the n-th machine's step out to a later instant (never earlier:
    /// the backends are temporal and refuse a step before the previous one
    /// completed).
    Postpone { nth: usize, at_ms: u64 },
    /// Let virtual time pass.
    Tick(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..CLUSTERS, 0..SERVICES).prop_map(|(cluster, service)| Op::Start { cluster, service }),
        8 => Just(Op::AdvanceDue),
        1 => (0usize..8).prop_map(Op::Abort),
        1 => (0usize..8).prop_map(Op::Remove),
        2 => (0usize..8, 0u64..20_000).prop_map(|(nth, at_ms)| Op::Postpone { nth, at_ms }),
        4 => (0u64..3_000).prop_map(Op::Tick),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn index_matches_linear_scan(
        seed in 0u64..1_000,
        ops in prop::collection::vec(op_strategy(), 0..120),
    ) {
        let mut world = World::new(seed);
        let mut d = Dispatcher::default();
        let mut oracle = Oracle::default();
        let mut now = SimTime::ZERO;
        for op in ops {
            let nth_key = |oracle: &Oracle, n: usize| {
                (!oracle.rows.is_empty()).then(|| {
                    let r = oracle.rows[n % oracle.rows.len()];
                    (r.cluster, r.service)
                })
            };
            match op {
                Op::Start { cluster, service } => {
                    let key = (ClusterId(cluster), ServiceId(service));
                    if oracle.find(key.0, key.1).is_none() {
                        start(&mut d, &mut oracle, now, key);
                    }
                }
                Op::AdvanceDue => {
                    if let Some(key) = d.due(now) {
                        match d.advance(key, &mut world.ctx(key.0)) {
                            MachineOutcome::Progressed | MachineOutcome::Recovered => {
                                oracle.sync(&d, key);
                            }
                            MachineOutcome::Ready { .. } => {
                                let m = d.remove(key);
                                d.record_completed(m.seq);
                                oracle.remove(key);
                            }
                            MachineOutcome::Failed { .. } => {
                                d.remove(key);
                                oracle.remove(key);
                            }
                        }
                    }
                }
                Op::Abort(n) => {
                    if let Some(key) = nth_key(&oracle, n) {
                        d.reschedule(key, now);
                        oracle.sync(&d, key);
                        compare(&d, &oracle, now).map_err(TestCaseError)?;
                        prop_assert_eq!(d.remove(key).next_step(), now);
                        oracle.remove(key);
                    }
                }
                Op::Remove(n) => {
                    if let Some(key) = nth_key(&oracle, n) {
                        d.remove(key);
                        oracle.remove(key);
                    }
                }
                Op::Postpone { nth, at_ms } => {
                    if let Some(key) = nth_key(&oracle, nth) {
                        let own = oracle.find(key.0, key.1).expect("in flight").next_step;
                        d.reschedule(key, own.max(ms(at_ms)));
                        oracle.sync(&d, key);
                    }
                }
                Op::Tick(dt) => now += SimDuration::from_millis(dt),
            }
            compare(&d, &oracle, now).map_err(TestCaseError)?;
        }
        // Drain: stepping whatever is due, in due order, empties both.
        while let Some(key) = d.due(SimTime::FAR_FUTURE) {
            prop_assert_eq!(Some(key), oracle.due(SimTime::FAR_FUTURE));
            d.remove(key);
            oracle.remove(key);
        }
        prop_assert!(oracle.rows.is_empty());
        prop_assert_eq!(d.next_step_at(), None);
    }
}

/// Equal due instants resolve by start order, whatever the keys.
#[test]
fn due_ties_break_on_seq() {
    let mut d = Dispatcher::default();
    let mut oracle = Oracle::default();
    for key in [
        (ClusterId(2), ServiceId(5)),
        (ClusterId(0), ServiceId(0)),
        (ClusterId(1), ServiceId(3)),
    ] {
        start(&mut d, &mut oracle, ms(10), key);
    }
    compare(&d, &oracle, ms(10)).unwrap();
    assert_eq!(d.due(ms(9)), None);
    assert_eq!(d.due(ms(10)), Some((ClusterId(2), ServiceId(5))));
    d.remove((ClusterId(2), ServiceId(5)));
    assert_eq!(d.due(ms(10)), Some((ClusterId(0), ServiceId(0))));
}

/// Mutation: a `next_step` written behind the dispatcher's back (skipping
/// `rekey`) leaves the due heap describing a machine that is no longer due —
/// and the comparison above notices. This is what the private field and the
/// single writer rule out.
#[test]
fn a_next_step_write_that_skips_rekey_is_caught() {
    let mut d = Dispatcher::default();
    let mut oracle = Oracle::default();
    let (a, b) = ((ClusterId(0), ServiceId(0)), (ClusterId(0), ServiceId(1)));
    start(&mut d, &mut oracle, ms(10), a);
    start(&mut d, &mut oracle, ms(20), b);
    compare(&d, &oracle, ms(25)).unwrap();

    d.machines.get_mut(&a).unwrap().next_step = ms(30);
    oracle.sync(&d, a);
    let err = compare(&d, &oracle, ms(25)).unwrap_err();
    assert!(err.starts_with("due("), "{err}");

    // The same write through the one writer keeps every answer right.
    d.machines.get_mut(&a).unwrap().next_step = ms(10);
    d.reschedule(a, ms(30));
    compare(&d, &oracle, ms(25)).unwrap();
}
