//! The observation contract holds for every backend: Docker, Kubernetes and
//! wasm, bare and inside [`FaultyCluster`](cluster::faults::FaultyCluster) — see `common` for the property.
//! The mutation check at the bottom proves it can fail: hide any one
//! method's epoch movement, drop the image store's shared stamp, or stamp
//! the other service instead of the named one, and some generated sequence
//! catches it.

mod common;

use std::collections::HashMap;

use cluster::faults::{FaultPlan, FaultyCluster};
use cluster::{
    ClusterBackend, ClusterError, ClusterKind, CrashOutcome, DockerCluster, K8sCluster, K8sTimings,
    ScaleReceipt, Scope, ServiceSnapshot, ServiceTemplate, WasmEdgeCluster, WasmTimings,
};
use common::{drive, ops, Call, Op, SERVICES};
use containers::{ImageRef, Runtime};
use proptest::prelude::*;
use registry::RegistrySet;
use simcore::{SimRng, SimTime};
use simnet::{IpAddr, SocketAddr};

const IP: IpAddr = IpAddr::new(10, 0, 0, 1);

fn docker(seed: u64) -> DockerCluster {
    let rng = SimRng::seed_from_u64(seed);
    DockerCluster::new(
        "d",
        IP,
        Runtime::egs(rng.stream("rt")),
        rng.stream("docker"),
    )
}

fn k8s(seed: u64) -> K8sCluster {
    let rng = SimRng::seed_from_u64(seed);
    K8sCluster::new(
        "k",
        IP,
        Runtime::egs(rng.stream("rt")),
        rng.stream("k8s"),
        K8sTimings::egs(),
    )
}

fn wasm(seed: u64) -> WasmEdgeCluster {
    WasmEdgeCluster::new("w", IP, SimRng::seed_from_u64(seed), WasmTimings::egs())
}

/// The property on a backend bare, behind a transparent [`FaultyCluster`](cluster::faults::FaultyCluster),
/// and behind one that fails about a third of the calls it is asked to make.
fn exact_bare_and_faulty<B: ClusterBackend>(make: fn(u64) -> B, seed: u64, seq: &[Op]) {
    let faults = SimRng::seed_from_u64(seed).stream("faults");
    drive(&mut make(seed), seq).expect("bare");
    drive(
        &mut FaultyCluster::new(make(seed), FaultPlan::none(), faults.clone()),
        seq,
    )
    .expect("inside FaultyCluster, no faults");
    drive(
        &mut FaultyCluster::new(make(seed), FaultPlan::flaky(0.3), faults),
        seq,
    )
    .expect("inside a flaky FaultyCluster");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn docker_cached_reads_equal_fresh_reads(seq in ops(), seed in 0u64..1000) {
        exact_bare_and_faulty(docker, seed, &seq);
    }

    #[test]
    fn k8s_cached_reads_equal_fresh_reads(seq in ops(), seed in 0u64..1000) {
        exact_bare_and_faulty(k8s, seed, &seq);
    }

    #[test]
    fn wasm_cached_reads_equal_fresh_reads(seq in ops(), seed in 0u64..1000) {
        exact_bare_and_faulty(wasm, seed, &seq);
    }
}

/// A bug in how a backend stamps its scopes, which the property must catch.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Every epoch movement of one method is hidden.
    Hide(Call),
    /// The image store has no stamp of its own: a store-changing `pull`
    /// moves only the scope of the service its template names, a
    /// `delete_image` moves none.
    NoSharedStamp,
    /// A call naming a service moves the other service's scope instead of
    /// the named one's.
    StampsTheOther,
}

/// Forwards everything to the backend it wraps, but answers
/// [`ClusterBackend::epoch`] from epochs of its own: after each mutation it
/// moves the scopes whose inner epoch moved, except where `mutation`
/// rewrites which scopes those are.
struct HidesBump<B> {
    inner: B,
    mutation: Option<Mutation>,
    /// The epoch shown per scope; absent = never moved.
    shown: HashMap<Scope, u64>,
}

impl<B: ClusterBackend> HidesBump<B> {
    fn scope_of(&self, service: &str) -> Scope {
        self.inner.observe(SimTime::ZERO, service, None).scope
    }

    /// Every scope a reader can hold: the absent one and each service's.
    fn scopes(&self) -> Vec<Scope> {
        let mut scopes = vec![Scope::Absent];
        scopes.extend(SERVICES.map(|s| self.scope_of(s)));
        scopes
    }

    fn bump(&mut self, scope: Scope) {
        *self.shown.entry(scope).or_default() += 1;
    }

    fn forward<R>(&mut self, call: Call, named: Option<&str>, f: impl FnOnce(&mut B) -> R) -> R {
        // A scope a reader holds either is current now or was current when
        // the call that retired it ran — so checking the current ones on
        // both sides of every call sees every movement a reader could miss.
        let held = self.scopes();
        let before: Vec<u64> = held.iter().map(|&s| self.inner.epoch(s)).collect();
        let r = f(&mut self.inner);
        let mut moved: Vec<Scope> = held
            .iter()
            .zip(before)
            .filter(|&(&s, e)| self.inner.epoch(s) != e)
            .map(|(&s, _)| s)
            .collect();
        let own = named.map(|n| (n, [self.scope_of(n), held[1 + service_index(n)]]));
        match self.mutation {
            Some(Mutation::Hide(hidden)) if hidden == call => moved.clear(),
            Some(Mutation::NoSharedStamp) if matches!(call, Call::Pull | Call::DeleteImage) => {
                moved.retain(|s| own.is_some_and(|(_, scopes)| scopes.contains(s)));
            }
            Some(Mutation::StampsTheOther) if !matches!(call, Call::Pull | Call::DeleteImage) => {
                if let Some((name, scopes)) = own {
                    moved.retain(|s| !scopes.contains(s));
                    let other = SERVICES[1 - service_index(name)];
                    moved.push(self.scope_of(other));
                }
            }
            _ => {}
        }
        for scope in moved {
            self.bump(scope);
        }
        r
    }
}

fn service_index(name: &str) -> usize {
    SERVICES
        .iter()
        .position(|&s| s == name)
        .expect("the rig's services")
}

impl<B: ClusterBackend> ClusterBackend for HidesBump<B> {
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
        self.forward(Call::Pull, Some(&template.name), |b| {
            b.pull(now, template, registries)
        })
    }
    fn create(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
    ) -> Result<SimTime, ClusterError> {
        self.forward(Call::Create, Some(&template.name), |b| {
            b.create(now, template)
        })
    }
    fn scale_up(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<ScaleReceipt, ClusterError> {
        self.forward(Call::ScaleUp, Some(service), |b| {
            b.scale_up(now, service, replicas)
        })
    }
    fn scale_down(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<SimTime, ClusterError> {
        self.forward(Call::ScaleDown, Some(service), |b| {
            b.scale_down(now, service, replicas)
        })
    }
    fn remove(&mut self, now: SimTime, service: &str) -> Result<SimTime, ClusterError> {
        self.forward(Call::Remove, Some(service), |b| b.remove(now, service))
    }
    fn delete_image(&mut self, now: SimTime, image: &ImageRef) -> bool {
        self.forward(Call::DeleteImage, None, |b| b.delete_image(now, image))
    }
    fn inject_crash(&mut self, now: SimTime, service: &str) -> CrashOutcome {
        self.forward(Call::InjectCrash, Some(service), |b| {
            b.inject_crash(now, service)
        })
    }
    fn observe(
        &self,
        now: SimTime,
        service: &str,
        endpoints: Option<&mut Vec<SocketAddr>>,
    ) -> ServiceSnapshot {
        self.inner.observe(now, service, endpoints)
    }
    fn epoch(&self, scope: Scope) -> u64 {
        self.shown.get(&scope).copied().unwrap_or(0)
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
}

/// Does any of 512 generated sequences fail the property on `make`'s backend
/// under `mutation`?
fn some_sequence_fails<B: ClusterBackend>(make: fn(u64) -> B, mutation: Option<Mutation>) -> bool {
    let mut rng = TestRng::from_label("observe_exactness::hidden_bump");
    (0..512).any(|seed| {
        let seq = ops().generate(&mut rng);
        let mut backend = HidesBump {
            inner: make(seed),
            mutation,
            shown: HashMap::new(),
        };
        drive(&mut backend, &seq).is_err()
    })
}

#[test]
fn hiding_any_one_epoch_bump_fails_the_property() {
    // The wrapper itself is transparent: with nothing hidden nothing fails.
    assert!(!some_sequence_fails(docker, None));
    assert!(!some_sequence_fails(k8s, None));
    assert!(!some_sequence_fails(wasm, None));
    let hidden_calls = [
        Call::Pull,
        Call::Create,
        Call::ScaleUp,
        Call::ScaleDown,
        Call::Remove,
        Call::DeleteImage,
        Call::InjectCrash,
    ]
    .map(Mutation::Hide);
    for mutation in hidden_calls
        .into_iter()
        .chain([Mutation::NoSharedStamp, Mutation::StampsTheOther])
    {
        assert!(
            some_sequence_fails(docker, Some(mutation)),
            "Docker {mutation:?}"
        );
        assert!(some_sequence_fails(k8s, Some(mutation)), "K8s {mutation:?}");
        assert!(
            some_sequence_fails(wasm, Some(mutation)),
            "Wasm {mutation:?}"
        );
    }
}
