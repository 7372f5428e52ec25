//! Pairwise table analyses: shadowing, same-priority overlap conflicts, and
//! unsatisfiable matchers.
//!
//! Table order (priority descending, insertion order within a priority) is
//! the ground truth: a rule is *shadowed* when some earlier-in-table-order
//! rule subsumes its matcher, and two rules *conflict* when they share a
//! priority, intersect, and their action lists deliver packets to different
//! destinations — the winner is then an insertion-order accident nothing in
//! the controller contract guarantees.

use simnet::openflow::{Action, FlowEntry, FlowId, FlowTable};
use simnet::IpAddr;

use crate::{RuleRef, Violation};

/// Where an action list delivers a packet, ignoring path details that cannot
/// change the outcome. Two same-priority intersecting rules with different
/// `Dest`s are a nondeterminism hazard; with the same `Dest` they are merely
/// redundant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dest {
    pub src_ip: Option<IpAddr>,
    pub src_port: Option<u16>,
    pub dst_ip: Option<IpAddr>,
    pub dst_port: Option<u16>,
    pub terminal: Terminal,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Terminal {
    Output(usize),
    Controller,
    Drop,
}

/// Mirror of `Switch::apply`: rewrites accumulate until the first `Output`,
/// `ToController` or `Drop`; an action list that ends without an output
/// drops.
pub(crate) fn destination(actions: &[Action]) -> Dest {
    let mut d = Dest {
        src_ip: None,
        src_port: None,
        dst_ip: None,
        dst_port: None,
        terminal: Terminal::Drop,
    };
    for a in actions {
        match a {
            Action::SetSrcIp(ip) => d.src_ip = Some(*ip),
            Action::SetSrcPort(p) => d.src_port = Some(*p),
            Action::SetDstIp(ip) => d.dst_ip = Some(*ip),
            Action::SetDstPort(p) => d.dst_port = Some(*p),
            Action::Output(port) => {
                d.terminal = Terminal::Output(port.0);
                return d;
            }
            Action::ToController => {
                d.terminal = Terminal::Controller;
                return d;
            }
            Action::Drop => {
                d.terminal = Terminal::Drop;
                return d;
            }
        }
    }
    d
}

/// Full pairwise audit of one table.
pub(crate) fn check_table(switch: usize, table: &FlowTable) -> Vec<Violation> {
    let entries: Vec<FlowEntry> = table.iter_ordered().collect();
    let mut out = Vec::new();
    for (j, b) in entries.iter().enumerate() {
        if !b.matcher.is_satisfiable() {
            out.push(Violation::Unsatisfiable {
                switch,
                rule: RuleRef::of(b),
            });
            continue;
        }
        if let Some(a) = entries[..j].iter().find(|a| a.matcher.subsumes(&b.matcher)) {
            out.push(Violation::Shadowed {
                switch,
                rule: RuleRef::of(b),
                by: RuleRef::of(a),
            });
            // A dead rule cannot also conflict — skip the overlap pass.
            continue;
        }
        for a in &entries[..j] {
            if conflicts(a, b) {
                out.push(Violation::OverlapConflict {
                    switch,
                    first: RuleRef::of(a),
                    second: RuleRef::of(b),
                });
            }
        }
    }
    out
}

/// Incremental audit after installing `id`: only pairs involving the new
/// rule, and of those only the rules whose matchers can overlap it — a rule
/// that neither intersects, covers nor is covered by the new one can be in
/// no violation with it. O(table) record tests — cheap enough to run on
/// every `FlowMod` of a scenario.
pub(crate) fn check_install(switch: usize, table: &FlowTable, id: FlowId) -> Vec<Violation> {
    let Some(new) = table.get(id) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if !new.matcher.is_satisfiable() {
        out.push(Violation::Unsatisfiable {
            switch,
            rule: RuleRef::of(&new),
        });
        return out;
    }
    let mut before_new = true;
    for e in table.iter_ordered_overlapping(&new.matcher) {
        if e.id == id {
            before_new = false;
            continue;
        }
        if before_new {
            // Earlier rule covering the new one: the new rule arrived dead.
            if e.matcher.subsumes(&new.matcher) {
                out.push(Violation::Shadowed {
                    switch,
                    rule: RuleRef::of(&new),
                    by: RuleRef::of(&e),
                });
            } else if conflicts(&e, &new) {
                out.push(Violation::OverlapConflict {
                    switch,
                    first: RuleRef::of(&e),
                    second: RuleRef::of(&new),
                });
            }
        } else {
            // The new rule may also have just killed an existing one.
            if new.matcher.subsumes(&e.matcher) {
                out.push(Violation::Shadowed {
                    switch,
                    rule: RuleRef::of(&e),
                    by: RuleRef::of(&new),
                });
            } else if conflicts(&new, &e) {
                out.push(Violation::OverlapConflict {
                    switch,
                    first: RuleRef::of(&new),
                    second: RuleRef::of(&e),
                });
            }
        }
    }
    out
}

/// Same priority, intersecting matches, different destinations.
fn conflicts(a: &FlowEntry, b: &FlowEntry) -> bool {
    a.priority == b.priority
        && a.matcher.intersects(&b.matcher)
        && destination(&a.actions) != destination(&b.actions)
}
