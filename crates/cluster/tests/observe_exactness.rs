//! The observation contract holds for every backend: Docker, Kubernetes and
//! wasm, bare and inside [`FaultyCluster`] — see `common` for the property.
//! The mutation check at the bottom proves it can fail: hide any one
//! method's epoch bump and some generated sequence catches it.

mod common;

use cluster::{
    ClusterBackend, ClusterError, ClusterKind, CrashOutcome, DockerCluster, FaultPlan,
    FaultyCluster, K8sCluster, K8sTimings, ScaleReceipt, ServiceSnapshot, ServiceTemplate,
    WasmEdgeCluster, WasmTimings,
};
use common::{drive, ops, Call, Op};
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

/// The property on a backend bare, behind a transparent [`FaultyCluster`],
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

/// Forwards everything to the backend it wraps, except that the epoch
/// movement of the `hide`n call never shows — the bug the property must
/// catch.
struct HidesBump<B> {
    inner: B,
    hide: Option<Call>,
    hidden: u64,
}

impl<B: ClusterBackend> HidesBump<B> {
    fn forward<R>(&mut self, call: Call, f: impl FnOnce(&mut B) -> R) -> R {
        let before = self.inner.epoch();
        let r = f(&mut self.inner);
        if self.hide == Some(call) {
            self.hidden += self.inner.epoch() - before;
        }
        r
    }
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
        self.forward(Call::Pull, |b| b.pull(now, template, registries))
    }
    fn create(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
    ) -> Result<SimTime, ClusterError> {
        self.forward(Call::Create, |b| b.create(now, template))
    }
    fn scale_up(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<ScaleReceipt, ClusterError> {
        self.forward(Call::ScaleUp, |b| b.scale_up(now, service, replicas))
    }
    fn scale_down(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<SimTime, ClusterError> {
        self.forward(Call::ScaleDown, |b| b.scale_down(now, service, replicas))
    }
    fn remove(&mut self, now: SimTime, service: &str) -> Result<SimTime, ClusterError> {
        self.forward(Call::Remove, |b| b.remove(now, service))
    }
    fn delete_image(&mut self, now: SimTime, image: &ImageRef) -> bool {
        self.forward(Call::DeleteImage, |b| b.delete_image(now, image))
    }
    fn inject_crash(&mut self, now: SimTime, service: &str) -> CrashOutcome {
        self.forward(Call::InjectCrash, |b| b.inject_crash(now, service))
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
        self.inner.epoch() - self.hidden
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
/// with the epoch bump of `hide` hidden?
fn some_sequence_fails<B: ClusterBackend>(make: fn(u64) -> B, hide: Option<Call>) -> bool {
    let mut rng = TestRng::from_label("observe_exactness::hidden_bump");
    (0..512).any(|seed| {
        let seq = ops().generate(&mut rng);
        let mut backend = HidesBump {
            inner: make(seed),
            hide,
            hidden: 0,
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
    for call in [
        Call::Pull,
        Call::Create,
        Call::ScaleUp,
        Call::ScaleDown,
        Call::Remove,
        Call::DeleteImage,
        Call::InjectCrash,
    ] {
        assert!(some_sequence_fails(docker, Some(call)), "Docker {call:?}");
        assert!(some_sequence_fails(k8s, Some(call)), "K8s {call:?}");
        assert!(some_sequence_fails(wasm, Some(call)), "Wasm {call:?}");
    }
}
