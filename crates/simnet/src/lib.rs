//! # simnet — the simulated network substrate
//!
//! The paper's testbed intercepts client traffic at an Open vSwitch instance
//! controlled over OpenFlow 1.5; redirection to edge services happens by
//! *packet rewriting* (`SetField` on destination IP/port, plus the mirrored
//! rewrite on the return path). This crate reproduces that surface:
//!
//! * [`addr`] — IPv4-style addresses and `ip:port` endpoints,
//! * [`topology`] — nodes and links (latency + bandwidth), Dijkstra routing,
//!   path RTT / bottleneck-bandwidth queries,
//! * [`tcp`] — a flow-level TCP timing model (connect = one RTT, slow-start
//!   aware transfer times) used for both client requests and image pulls,
//! * [`packet`] — the minimal packet representation the switch rewrites,
//! * [`openflow`] — flow tables with priorities and idle/hard timeouts,
//!   match/action processing, `PacketIn` buffering on table miss, `FlowMod` /
//!   `PacketOut` handling, and flow-removed notifications.
//!
//! Everything is deterministic and free of wall-clock time; instants come from
//! [`simcore::SimTime`].

// Verifier-critical crate: non-test code must state its panic invariants via
// `expect` instead of bare `unwrap` (CI denies this warning; tests are exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod addr;
pub mod openflow;
pub mod packet;
pub mod tcp;
pub mod topology;

pub use addr::{IpAddr, SocketAddr};
pub use openflow::{Action, FlowMatch, FlowSpec, IpNet};
pub use packet::{Packet, Protocol};
pub use tcp::TcpModel;
pub use topology::PathTree;
