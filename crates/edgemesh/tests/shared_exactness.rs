//! The observation contract (DESIGN.md §5i) through [`SharedBackend`]: two
//! views of one backend, mutated through either view and through the shared
//! handle itself (where a peer's replayed calls land), each view read by its
//! own caching reader. The property and its generator live in the cluster
//! crate's test rig, so the wrapper is held to the rule the backends are.

#[path = "../../cluster/tests/common/mod.rs"]
mod common;

use cluster::{ClusterBackend, DockerCluster, K8sCluster, K8sTimings};
use common::{drive, ops, Rig};
use containers::Runtime;
use edgemesh::shared::share;
use edgemesh::{SharedBackend, SharedHandle};
use proptest::prelude::*;
use simcore::SimRng;
use simnet::IpAddr;

struct TwoViews {
    views: [SharedBackend; 2],
    handle: SharedHandle,
}

impl TwoViews {
    fn of(backend: Box<dyn ClusterBackend>) -> TwoViews {
        let handle = share(backend);
        TwoViews {
            views: [
                SharedBackend::new(handle.clone()),
                // An observed view, as every windowed-engine shard attaches.
                SharedBackend::observed(handle.clone(), |_, _| {}),
            ],
            handle,
        }
    }
}

impl Rig for TwoViews {
    fn mutate<R>(&mut self, via: usize, f: impl FnOnce(&mut dyn ClusterBackend) -> R) -> R {
        match self.views.get_mut(via) {
            Some(view) => f(view),
            None => f(self.handle.borrow_mut().as_mut()),
        }
    }
    fn views(&self) -> usize {
        self.views.len()
    }
    fn view(&self, i: usize) -> &dyn ClusterBackend {
        &self.views[i]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn shared_docker_cached_reads_equal_fresh_reads(seq in ops(), seed in 0u64..1000) {
        let rng = SimRng::seed_from_u64(seed);
        let docker = DockerCluster::new(
            "site-0",
            IpAddr::new(10, 0, 0, 100),
            Runtime::egs(rng.stream("rt")),
            rng.stream("docker"),
        );
        drive(&mut TwoViews::of(Box::new(docker)), &seq).expect("two views of Docker");
    }

    #[test]
    fn shared_k8s_cached_reads_equal_fresh_reads(seq in ops(), seed in 0u64..1000) {
        let rng = SimRng::seed_from_u64(seed);
        let k8s = K8sCluster::new(
            "site-0",
            IpAddr::new(10, 0, 0, 100),
            Runtime::egs(rng.stream("rt")),
            rng.stream("k8s"),
            K8sTimings::egs(),
        );
        drive(&mut TwoViews::of(Box::new(k8s)), &seq).expect("two views of K8s");
    }
}
