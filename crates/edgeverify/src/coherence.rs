//! FlowMemory ↔ switch-table coherence.
//!
//! The controller keeps redirects in two places with *deliberately* different
//! lifetimes (DESIGN.md §5b): switch entries carry a short idle timeout
//! (default 10 s) so the data plane stays small, while [`FlowMemory`] holds
//! the longer-lived copy (default 60 s) that drives idle scale-down. A
//! memorized flow whose switch entry has expired is therefore *by design*,
//! not a violation. What must never happen:
//!
//! * a switch entry and the memory disagree about the target instance
//!   ([`Violation::TargetMismatch`]),
//! * a switch entry backing a memorized flow can outlive the memory entry
//!   ([`Violation::IncompatibleTimeouts`]) — then scale-down would retire
//!   instances still receiving data-plane traffic,
//! * a switch still rewrites to an endpoint that is neither remembered nor
//!   alive ([`Violation::StaleRedirect`]) — clients forwarded into a void.

use std::collections::HashSet;

use simcore::SimTime;
use simnet::openflow::{FlowEntry, FlowTable};
use simnet::{Packet, SocketAddr};

use edgectl::{ClusterId, FlowKey, FlowMemory, ServiceId};

use crate::table::{destination, Terminal};
use crate::{RuleRef, Violation};

/// Snapshot handed to [`crate::Verifier::check_coherence`].
pub struct CoherenceView<'a> {
    pub now: SimTime,
    pub memory: &'a FlowMemory,
    /// Switch tables indexed by switch id.
    pub tables: Vec<&'a FlowTable>,
    /// Endpoints that can legitimately receive redirected traffic right now:
    /// every live replica endpoint across clusters (a switch rewrite to one
    /// of these without a memory entry is benign staleness, not a defect).
    pub live_targets: HashSet<SocketAddr>,
    /// Deployments the dispatcher currently has in flight. Pending
    /// FlowMemory placeholders are legitimate only while a machine exists
    /// for their service; otherwise the held request can never be released
    /// ([`Violation::OrphanedPending`]).
    pub in_flight: HashSet<(ServiceId, ClusterId)>,
}

/// A redirect-shaped switch entry decomposed into the controller's terms.
struct Redirect {
    key: FlowKey,
    target: SocketAddr,
}

/// The forward half of a controller redirect pair: matcher pins
/// (client ip, service ip, service port) and the actions rewrite the
/// destination before outputting. Reverse rules (src rewrites) and cloud
/// passthrough rules (no rewrite) don't qualify.
fn as_redirect(entry: &FlowEntry) -> Option<Redirect> {
    let m = &entry.matcher;
    let (client_ip, service_ip, service_port) = (m.src_ip?, m.dst_ip?, m.dst_port?);
    let dest = destination(&entry.actions);
    if !matches!(dest.terminal, Terminal::Output(_)) {
        return None;
    }
    let target_ip = dest.dst_ip?;
    let target_port = dest.dst_port.unwrap_or(service_port);
    Some(Redirect {
        key: FlowKey {
            client_ip,
            service_addr: SocketAddr::new(service_ip, service_port),
        },
        target: SocketAddr::new(target_ip, target_port),
    })
}

pub(crate) fn check(view: &CoherenceView<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let memory_idle = view.memory.idle_timeout();

    // Switch side: every installed redirect must agree with the memory, or
    // point at something alive.
    for (sw, table) in view.tables.iter().enumerate() {
        for entry in table.iter_ordered() {
            let Some(redirect) = as_redirect(&entry) else {
                continue;
            };
            // A pending placeholder has no switch rule of its own — a rule
            // matching its key is leftover from an earlier installed flow,
            // so judge it as if the memory entry were absent.
            match view.memory.get(redirect.key).filter(|f| !f.pending) {
                Some(flow) => {
                    if flow.target != redirect.target {
                        out.push(Violation::TargetMismatch {
                            client: redirect.key.client_ip,
                            service: redirect.key.service_addr,
                            memory_target: flow.target,
                            switch_target: redirect.target,
                            rule: entry.id,
                        });
                    }
                    if entry.idle_timeout.is_none_or(|d| d > memory_idle) {
                        out.push(Violation::IncompatibleTimeouts {
                            switch: sw,
                            rule: RuleRef::of(&entry),
                            switch_idle: entry.idle_timeout,
                            memory_idle,
                        });
                    }
                }
                None => {
                    if !view.live_targets.contains(&redirect.target) {
                        out.push(Violation::StaleRedirect {
                            switch: sw,
                            rule: RuleRef::of(&entry),
                            target: redirect.target,
                        });
                    }
                }
            }
        }
    }

    // Memory side: a memorized flow whose representative packet is captured
    // by some *other* rewriting rule (e.g. a broad seeded redirect) must
    // still reach its remembered target. Expired-at-switch flows — find()
    // returns nothing or a non-rewriting rule — are the §5b design, not a
    // defect. Pairs whose own entry was already compared above are skipped.
    for flow in view.memory.iter() {
        if flow.pending {
            // A placeholder for a held request: no rule to compare, but the
            // deployment it waits on must still exist somewhere. (Service-
            // level, not (service, cluster): a BEST retarget may move the
            // placeholder to a cluster other than the machine's.)
            if !view.in_flight.iter().any(|&(s, _)| s == flow.service) {
                out.push(Violation::OrphanedPending {
                    client: flow.key.client_ip,
                    service: flow.key.service_addr,
                });
            }
            continue;
        }
        let probe = Packet::syn(
            SocketAddr::new(flow.key.client_ip, 40000),
            flow.key.service_addr,
            0,
        );
        for table in &view.tables {
            let Some(entry) = table.find(&probe) else {
                continue;
            };
            let Some(redirect) = as_redirect(&entry) else {
                continue;
            };
            if redirect.key == flow.key {
                continue; // compared in the switch-side pass
            }
            if redirect.target != flow.target {
                out.push(Violation::TargetMismatch {
                    client: flow.key.client_ip,
                    service: flow.key.service_addr,
                    memory_target: flow.target,
                    switch_target: redirect.target,
                    rule: entry.id,
                });
            }
        }
    }

    out
}
