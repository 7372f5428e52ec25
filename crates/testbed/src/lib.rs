//! # testbed — the simulated Carinthian Computing Continuum (C³)
//!
//! Paper §VI evaluates on a real testbed: an Edge Gateway Server (EGS)
//! running the SDN controller, a virtual OVS switch, a Kubernetes cluster and
//! Docker; clients on 20 Raspberry Pis; a layer-3 switch connecting them; the
//! cloud reachable over the WAN (Fig. 8). This crate reproduces that setup as
//! one deterministic event loop:
//!
//! * [`topology`] — the C³ network graph and the switch port map,
//! * [`scenario`] — run configuration (service type, backend(s), scheduler
//!   policy, registry setup, pre-warm level) mirroring the paper's test
//!   matrix,
//! * [`bringup`] — site backends, service templates, controller, seeded
//!   switch and pre-warm for a scenario, written once for every engine
//!   (this crate's [`Testbed`] and both `edgemesh` engines),
//! * [`ingress`] — the ingress shard core, the one implementation of the
//!   event loop: client SYNs traverse the controller's OpenFlow switches,
//!   table misses reach the controller (with control-channel latency), the
//!   controller deploys / redirects / holds, and forwarded SYNs are handed to
//!   the driving engine. Driven to a horizon: to completion by [`Testbed`]
//!   and [`fabric`], window by window by `edgemesh`'s PDES shards,
//! * [`sim`] — [`Testbed`]: the core run to completion, with released
//!   packets completing as flow-level TCP exchanges measured with timecurl
//!   semantics,
//! * [`fabric`] — the multi-switch chain with roaming clients: its own
//!   topology, run on the ingress core.

pub mod bringup;
pub mod config;
pub mod fabric;
pub mod ingress;
pub mod scenario;
pub mod sim;
pub mod topology;

pub use config::scenario_from_yaml;
pub use edgectl::SchedulerSpec;
pub use fabric::{run_mobility, FabricConfig};
pub use scenario::{MeshParams, PhaseSetup, PredictorKind, ScenarioConfig};
pub use sim::{
    generate_workload, measure_first_request, run_bigflows, run_bigflows_audited,
    run_trace_scenario, RunResult, Testbed,
};
pub use topology::{C3Topology, SiteSpec, CLOUD_PORT};
