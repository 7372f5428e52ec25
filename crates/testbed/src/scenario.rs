//! Run configuration mirroring the paper's test matrix: which service type
//! (Table I), which backend cluster(s), which scheduler policy, which
//! registry setup, and how much of the deployment pipeline is pre-warmed
//! (Fig. 11 measures Scale-Up only, Fig. 12 Create+Scale-Up, Fig. 13 the
//! Pull phase, Fig. 16 a running instance).

use cluster::{ClusterKind, K8sTimings};
use edgectl::{ControllerConfig, SchedulerSpec};
use simcore::SimDuration;
use simnet::openflow::FlowSpec;
use workload::ServiceKind;

use crate::topology::SiteSpec;

/// Which proactive-deployment predictor runs alongside on-demand handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Pure on-demand (the paper's evaluated setting).
    None,
    /// Exponentially-decayed popularity scores.
    Popularity,
    /// Perfect foresight over the trace — bounds the achievable benefit.
    Oracle,
}

/// How much of the pipeline is already done before the measured request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseSetup {
    /// Nothing pre-warmed: the first request pays Pull + Create + Scale-Up.
    Cold,
    /// Images cached: the request pays Create + Scale-Up (Fig. 12).
    ImagesCached,
    /// Images cached and service created: the request pays Scale-Up only
    /// (Fig. 11).
    Created,
    /// Instance running: the request is a plain redirect (Fig. 16).
    Running,
}

/// Multi-controller federation knobs (the `edgemesh` crate's input). Plain
/// data here so scenario files can configure a mesh without `testbed`
/// depending on `edgemesh` (the dependency runs the other way).
#[derive(Debug, Clone, PartialEq)]
pub struct MeshParams {
    /// How many controller instances the ingress switches are sharded
    /// across. `1` (the default) is the plain single-controller testbed —
    /// byte-identical to every pinned trace.
    pub shards: usize,
    /// One-way controller↔controller gossip link latency.
    pub link_latency: SimDuration,
    /// Per-delivery loss probability of a gossiped delta; lost deltas are
    /// retransmitted every `gossip_interval` until delivered.
    pub loss: f64,
    /// Deployment-lease coordination on/off. Off reproduces Cohen et al.'s
    /// duplicate-deployment failure mode.
    pub leases: bool,
    /// Retransmission back-off after a lost delta delivery.
    pub gossip_interval: SimDuration,
    /// Threads that run the windowed parallel mesh engine's shards, the
    /// calling thread included (`threads - 1` workers are spawned). `1` (the
    /// default) runs the same windowed algorithm on the calling thread; the
    /// mesh trace hash is identical for every value. Callers reject values
    /// above `shards` (`edgemesh::validate_threads`) — extra threads could
    /// only idle.
    pub threads: usize,
}

impl Default for MeshParams {
    fn default() -> Self {
        MeshParams {
            shards: 1,
            link_latency: SimDuration::from_micros(500),
            loss: 0.0,
            leases: true,
            gossip_interval: SimDuration::from_millis(50),
            threads: 1,
        }
    }
}

/// Full scenario description; `Default` is the paper's standard setup.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub seed: u64,
    /// The service type under test (one per run, paper §VI).
    pub service: ServiceKind,
    /// Which backend clusters exist on the EGS. The paper runs Docker and
    /// Kubernetes in separate test runs; the hybrid scheduler wants both.
    /// Ignored when `sites` is non-empty.
    pub backends: Vec<ClusterKind>,
    /// Explicit edge sites for hierarchical continuum scenarios
    /// (paper §IV-A2). Empty = derive EGS-class sites from `backends`.
    pub sites: Vec<(SiteSpec, ClusterKind)>,
    /// Which Global Scheduler policy drives the run, by registry name (see
    /// [`edgectl::SchedulerRegistry`]). Unknown names fail at build time with
    /// the registry's typed [`edgectl::policy::UnknownPolicy`] error.
    pub scheduler: SchedulerSpec,
    /// Pull from the private LAN registry instead of Docker Hub / GCR.
    pub private_registry: bool,
    pub phase_setup: PhaseSetup,
    /// Which sites the `phase_setup` pre-warming applies to; `None` = all.
    /// Hierarchical scenarios use this to model "a farther edge is much more
    /// likely to have the service cached or even running already" (§IV-A2).
    pub prewarm_sites: Option<Vec<usize>>,
    /// Mean time between instance crashes across the whole run (fault
    /// injection); `None` = no crashes (the paper's setting).
    pub crash_mtbf: Option<SimDuration>,
    /// Kubernetes control-plane latency knobs; `None` = the calibrated EGS
    /// defaults. Used by the "what makes K8s slow" ablation.
    pub k8s_timings: Option<K8sTimings>,
    /// Proactive pre-deployment predictor (paper §VII outlook).
    pub predictor: PredictorKind,
    /// How often the predictor runs, and how far ahead it looks.
    pub predict_interval: SimDuration,
    pub controller: ControllerConfig,
    /// Number of Raspberry Pi clients.
    pub clients: usize,
    /// Flow entries installed on the switch before the run starts — operator
    /// pre-provisioning (static routes, policy rules). `edgesim verify`
    /// audits them against the controller's own installs.
    pub seed_flows: Vec<FlowSpec>,
    /// Controller federation (shard count, gossip link, leases). The default
    /// single-shard mesh leaves every existing scenario untouched.
    pub mesh: MeshParams,
    /// The workload engine's description of the generated traffic: arrival
    /// model, service mix, model knobs and client mobility (the `workload:`
    /// scenario block). The default replays the paper's bigFlows trace
    /// byte-identically. `mix.clients` is overridden by `clients` at
    /// generation time (see `generate_workload`).
    pub workload: workload::WorkloadConfig,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 1,
            service: ServiceKind::Nginx,
            backends: vec![ClusterKind::Docker],
            sites: Vec::new(),
            scheduler: SchedulerSpec::default(),
            private_registry: false,
            phase_setup: PhaseSetup::Created,
            prewarm_sites: None,
            crash_mtbf: None,
            k8s_timings: None,
            predictor: PredictorKind::None,
            predict_interval: SimDuration::from_secs(5),
            // Evaluation defaults: no idle scale-down within a five-minute
            // run (the paper observes exactly 42 deployments, i.e. none of
            // the services is scaled down and redeployed inside the window).
            controller: ControllerConfig {
                memory_idle_timeout: SimDuration::from_secs(600),
                scale_down_idle: false,
                ..ControllerConfig::default()
            },
            clients: 20,
            seed_flows: Vec::new(),
            mesh: MeshParams::default(),
            workload: workload::WorkloadConfig::default(),
        }
    }
}

impl ScenarioConfig {
    pub fn with_service(mut self, service: ServiceKind) -> Self {
        self.service = service;
        self
    }

    pub fn with_backend(mut self, backend: ClusterKind) -> Self {
        self.backends = vec![backend];
        self
    }

    pub fn with_phase(mut self, phase: PhaseSetup) -> Self {
        self.phase_setup = phase;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The edge sites this scenario runs on: explicit `sites` if set, else
    /// one EGS-class site per entry of `backends` (the paper's layout).
    pub fn resolved_sites(&self) -> Vec<(SiteSpec, ClusterKind)> {
        if !self.sites.is_empty() {
            return self.sites.clone();
        }
        self.backends
            .iter()
            .enumerate()
            .map(|(i, &kind)| (SiteSpec::egs(format!("egs-{i}")), kind))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_defaults() {
        let c = ScenarioConfig::default();
        assert_eq!(c.clients, 20);
        assert_eq!(c.backends, vec![ClusterKind::Docker]);
        assert!(!c.controller.scale_down_idle);
    }

    #[test]
    fn builder_chains() {
        let c = ScenarioConfig::default()
            .with_service(ServiceKind::ResNet)
            .with_backend(ClusterKind::Kubernetes)
            .with_phase(PhaseSetup::Cold)
            .with_seed(9);
        assert_eq!(c.service, ServiceKind::ResNet);
        assert_eq!(c.backends, vec![ClusterKind::Kubernetes]);
        assert_eq!(c.phase_setup, PhaseSetup::Cold);
        assert_eq!(c.seed, 9);
    }
}
