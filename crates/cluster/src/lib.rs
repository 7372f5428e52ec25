//! # cluster — simulated edge cluster backends
//!
//! The paper evaluates on-demand deployment against two cluster types running
//! on the same Edge Gateway Server: plain **Docker** (fast, no orchestration)
//! and **Kubernetes** (slower to start instances, but self-managing). Both sit
//! on the same containerd runtime — exactly the setup in paper §VI — which the
//! [`containers`] crate provides.
//!
//! * [`template`] — backend-neutral service templates (the paper's annotated
//!   YAML definitions compile down to these),
//! * [`api`] — the [`ClusterBackend`] trait: the Pull / Create / Scale-Up /
//!   Scale-Down / Remove operations of Fig. 4, plus the one way service state
//!   is read — [`ClusterBackend::observe`] (status + ready endpoints + how
//!   long both stay true) and [`ClusterBackend::epoch`] (moves on every
//!   mutation); `status` / `is_ready` / `replica_endpoints` are provided views
//!   of that read, identical for every backend (DESIGN.md §5i),
//! * [`docker`] — a Docker-like engine: API call + containerd create/start;
//!   a started container's host port is connectable as soon as the app opens
//!   its port (< 1 s total, Fig. 11),
//! * [`k8s`] — a Kubernetes-like control plane: API server, Deployment →
//!   ReplicaSet → Pod fan-out through watch channels, scheduler binding,
//!   kubelet sync, sandbox + containers, readiness probes and endpoints
//!   propagation (~3 s total, Fig. 11),
//! * [`wasm`] — a serverless WebAssembly runtime (the paper's future work),
//! * [`faults`] — [`FaultyCluster`], a fault-injecting wrapper around any
//!   backend; it forwards reads and the epoch to the backend it wraps.

pub mod api;
pub mod capacity;
pub mod docker;
pub mod faults;
pub mod k8s;
pub mod template;
pub mod wasm;

pub use api::{
    ClusterBackend, ClusterError, ClusterKind, CrashOutcome, ScaleReceipt, ServiceSnapshot,
    ServiceStatus,
};
pub use capacity::{
    CapacityShortfall, DeploymentRequirements, ResourceAllocation, ResourceRequest, SiteCapacity,
};
pub use docker::DockerCluster;
pub use faults::{FaultPlan, FaultyCluster};
pub use k8s::{K8sCluster, K8sTimings};
pub use template::{ContainerTemplate, ServiceTemplate};
pub use wasm::{WasmEdgeCluster, WasmTimings};
