//! # edgectl — the transparent-edge SDN controller (the paper's contribution)
//!
//! This crate is the system the paper presents: an SDN controller that makes
//! edge computing *transparent* (clients address cloud IPs; the network
//! redirects them to nearby edge instances) and — the new part — deploys
//! containerized services **on demand** when a request arrives for a service
//! with no running instance nearby.
//!
//! Components, matching the paper's architecture (Figs. 6–7):
//!
//! * [`catalog`] — the registry of *registered services*: cloud `(IP, port)` →
//!   service definition,
//! * [`flowmemory`] — memorized redirect flows with idle timeouts; lets switch
//!   table timeouts stay low and drives idle-instance scale-down (paper §V),
//! * [`scheduler`] — the pluggable **Global Scheduler** (picks FAST and BEST
//!   clusters) and **Local Scheduler** (picks an instance within a cluster),
//!   with the policies evaluated in this reproduction,
//! * [`annotate`](mod@annotate) — the automated annotation of Kubernetes-style service
//!   definition files (unique name, matchLabels, `edge.service` label,
//!   `replicas: 0`, `schedulerName`, generated `Service`),
//! * [`dispatcher`] — the per-deployment state machine (`Pulling → Creating →
//!   ScalingUp → Probing → Ready | Failed`) advanced by discrete wakeups,
//! * [`controller`] — the controller event loop: PacketIn handling, on-demand
//!   deployment *with* and *without* waiting via the dispatcher, flow
//!   installation and idle scale-down, all scheduled through one
//!   `next_wakeup`/`on_wakeup_into` surface,
//! * [`predictor`] — proactive pre-deployment (the paper's §VII outlook:
//!   on-demand "more so when combined with good prediction").

// Verifier-critical crate: non-test code must state its panic invariants via
// `expect` instead of bare `unwrap` (CI denies this warning; tests are exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod annotate;
pub mod catalog;
pub mod controller;
pub mod dispatcher;
pub mod flowmemory;
pub mod policy;
pub mod predictor;
pub mod provisioning;
pub mod scheduler;

pub use annotate::{annotate, annotate_documents, AnnotateOptions};
pub use catalog::{RegisteredService, ServiceId};
pub use controller::{
    Controller, ControllerBuilder, ControllerConfig, ControllerOutput, ControllerStats, DeployGate,
    DeploymentRecord, StatusDelta, SwitchId,
};
pub use flowmemory::{FlowKey, FlowMemory};
pub use policy::{SchedulerRegistry, SchedulerSpec};
pub use predictor::{OraclePredictor, PopularityPredictor};
pub use scheduler::{ClusterId, ClusterView, RoundRobinLocal, SchedulingContext};
