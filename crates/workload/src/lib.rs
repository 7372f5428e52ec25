//! # workload — evaluation services and traffic
//!
//! * [`services`] — the four edge services of paper Table I (asmttpd, Nginx,
//!   TensorFlow-Serving ResNet50, Nginx+Python) with their image shapes,
//!   app-init behaviour and per-request cost,
//! * [`bigflows`] — a synthetic stand-in for the `bigFlows.pcap` capture the
//!   paper replays: 42 services, 1708 requests, five minutes, every service
//!   receiving ≥ 20 requests, with the bursty start that produces up to
//!   ~8 deployments/s (Figs. 9–10),
//! * [`client`] — timecurl semantics: what `time_total` measures,
//! * [`arrival`], [`mix`], [`mobility`], [`spec`] — the workload engine:
//!   pluggable arrival models (Poisson, MMPP bursts, diurnal curves,
//!   flash crowds) behind a named-model registry, a service-mix model
//!   decoupled from the bigFlows generator, and client mobility (mid-session
//!   ingress handovers). The default [`WorkloadConfig`] replays bigFlows
//!   byte-identically.

pub mod arrival;
pub mod bigflows;
pub mod client;
pub mod mix;
pub mod mobility;
pub mod services;
pub mod spec;

pub use bigflows::{Trace, TraceConfig, TraceRequest};
pub use mobility::{departures, ingress_at};
pub use services::{ServiceKind, ServiceProfile};
pub use spec::{WorkloadConfig, WorkloadRegistry};
