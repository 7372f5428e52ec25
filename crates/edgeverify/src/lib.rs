//! # edgeverify — static verification of the transparent-edge data plane
//!
//! The paper's transparency claim rests on the controller's installed flow
//! rules doing exactly one thing: rewrite cloud-addressed traffic to a live
//! edge instance and rewrite the replies back. A shadowed rule, a pair of
//! ambiguous same-priority rules, a rewrite loop or a blackholed
//! `edge.service` match all break that claim *silently* — the simulation
//! keeps running, requests just go to the wrong place or nowhere. This crate
//! is the VeriFlow / header-space-analysis style answer: a static pass over
//! [`simnet::openflow`] rule sets and [`edgectl`] state that proves the
//! emitted configuration well-formed, plus a lint for the annotated service
//! definitions the deployment pipeline consumes.
//!
//! Eight analyses, each returning structured [`Violation`]s with rule or
//! document provenance:
//!
//! 1. **Shadowing** ([`Verifier::check`]) — pairwise [`FlowMatch`]
//!    subsumption: a rule fully covered by an earlier-in-table-order rule can
//!    never match.
//! 2. **Overlap conflicts** ([`Verifier::check`]) — two same-priority rules
//!    whose matches intersect but whose actions send packets to different
//!    destinations; which one wins is an implementation accident.
//! 3. **Reachability / loops / blackholes** ([`Verifier::check_fabric`]) —
//!    walk representative packets of each client × service class through the
//!    switch tables along the topology links; flag forwarding cycles, drops
//!    of service-addressed classes, and classes misrouted off the fabric.
//! 4. **FlowMemory coherence** ([`Verifier::check_coherence`]) — the
//!    controller's memorized redirects and the switch tables must tell the
//!    same story (same target, compatible idle timeouts, no redirect to a
//!    dead instance that memory has already forgotten).
//! 5. **Service-definition lint** ([`lint::lint_annotated`]) — unique names,
//!    `replicas: 0`, `matchLabels ⊆ labels`, the `edge.service` label, and
//!    Service/Deployment port consistency.
//! 6. **Mesh coherence** ([`Verifier::check_mesh`]) — cross-controller
//!    invariants of a sharded `edgemesh` federation: no `(service, cluster)`
//!    deployment in flight on two shards at once (split-brain duplicates the
//!    lease protocol must prevent), and no shard still steering flows at a
//!    cluster with no ready replica after gossip has quiesced.
//! 7. **Capacity accounting** ([`Verifier::check_capacity`]) — the
//!    controller's booked allocation at each site must fit the site's
//!    configured [`cluster::SiteCapacity`]; an overbooked site means a
//!    deployment or scale-up path bypassed admission control (§5g).
//! 8. **Session continuity** ([`Verifier::check_continuity`]) — under client
//!    mobility every request must complete exactly once or be explicitly
//!    accounted lost; a handover that blackholes or double-serves a session
//!    breaks transparency invisibly (§5k).
//!
//! The same checks run three ways: this library API, the `edgesim verify`
//! subcommand (scenario audit), and `debug_assertions`-gated
//! check-on-install hooks inside [`simnet::openflow::Switch::flow_mod`] and
//! the controller's install path.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod capacity;
pub mod coherence;
pub mod continuity;
pub mod fabric;
pub mod lint;
pub mod mesh;
pub mod table;

use std::fmt;

use simcore::SimDuration;
use simnet::openflow::{FlowEntry, FlowId, FlowMatch, FlowTable};
use simnet::{IpAddr, SocketAddr};

pub use capacity::SiteBooks;
pub use coherence::CoherenceView;
pub use continuity::ContinuityView;
pub use fabric::{Fabric, FabricSwitch, Link, PacketClass};
pub use lint::lint_annotated;
pub use mesh::MeshView;

/// Provenance of a flow rule named in a [`Violation`]: enough to find it in
/// the table and to print a human-readable report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleRef {
    pub id: FlowId,
    pub priority: u16,
    pub cookie: u64,
    /// Rendered matcher, e.g. `tcp src 10.1.0.1 dst 93.184.0.1:80`.
    pub matcher: String,
}

impl RuleRef {
    pub(crate) fn of(entry: &FlowEntry) -> RuleRef {
        RuleRef {
            id: entry.id,
            priority: entry.priority,
            cookie: entry.cookie,
            matcher: describe_match(&entry.matcher),
        }
    }
}

impl fmt::Display for RuleRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flow #{} (prio {}, match {})",
            self.id.0, self.priority, self.matcher
        )
    }
}

/// Render a matcher compactly for reports.
pub(crate) fn describe_match(m: &FlowMatch) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(p) = m.protocol {
        parts.push(format!("{p:?}").to_lowercase());
    }
    match (m.src_ip, m.src_port) {
        (Some(ip), Some(port)) => parts.push(format!("src {ip}:{port}")),
        (Some(ip), None) => parts.push(format!("src {ip}")),
        (None, Some(port)) => parts.push(format!("src *:{port}")),
        (None, None) => {}
    }
    if let Some(n) = m.src_net {
        parts.push(format!("src_net {}/{}", n.addr, n.prefix));
    }
    match (m.dst_ip, m.dst_port) {
        (Some(ip), Some(port)) => parts.push(format!("dst {ip}:{port}")),
        (Some(ip), None) => parts.push(format!("dst {ip}")),
        (None, Some(port)) => parts.push(format!("dst *:{port}")),
        (None, None) => {}
    }
    if let Some(n) = m.dst_net {
        parts.push(format!("dst_net {}/{}", n.addr, n.prefix));
    }
    if parts.is_empty() {
        "any".to_string()
    } else {
        parts.join(" ")
    }
}

/// One verified defect. Every variant names the offending rule(s) or
/// document so the report is actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `rule` is fully covered by the earlier-in-table-order `by` and can
    /// never match a packet.
    Shadowed {
        switch: usize,
        rule: RuleRef,
        by: RuleRef,
    },
    /// Two same-priority rules intersect but their actions differ — which
    /// destination such packets reach is nondeterministic in spirit (decided
    /// by insertion order, which nothing guarantees).
    OverlapConflict {
        switch: usize,
        first: RuleRef,
        second: RuleRef,
    },
    /// The rule's own conjunction admits no packet (e.g. an exact ip pinned
    /// outside its own mask).
    Unsatisfiable { switch: usize, rule: RuleRef },
    /// A packet class revisits a (switch, header) state: a forwarding /
    /// rewrite cycle. `path` lists the (switch, rule) hops taken.
    RewriteLoop {
        class: String,
        path: Vec<(usize, FlowId)>,
    },
    /// A service-addressed class is dropped: by an explicit rule
    /// (`Some(rule)`) or by an action list that never outputs (`rule` still
    /// names the entry). This also catches classes that bypass the
    /// `ToController` catch-all into a drop.
    Blackholed {
        class: String,
        switch: usize,
        rule: FlowId,
    },
    /// A service-addressed class leaves the fabric somewhere it cannot be
    /// served (a client port or an unwired port).
    Misrouted {
        class: String,
        switch: usize,
        rule: FlowId,
        port: usize,
    },
    /// A switch still rewrites a client↔service pair to `target`, but the
    /// instance is gone and the controller's FlowMemory no longer knows the
    /// flow — clients would be forwarded into a dead endpoint.
    StaleRedirect {
        switch: usize,
        rule: RuleRef,
        target: SocketAddr,
    },
    /// FlowMemory and the switch disagree about where a client↔service pair
    /// goes.
    TargetMismatch {
        client: IpAddr,
        service: SocketAddr,
        memory_target: SocketAddr,
        switch_target: SocketAddr,
        rule: FlowId,
    },
    /// FlowMemory holds a pending placeholder (a request held on an
    /// in-flight deployment) but the dispatcher has no deployment in flight
    /// for the service — the held request can never be released.
    OrphanedPending { client: IpAddr, service: SocketAddr },
    /// A switch entry backing a memorized flow can outlive the memory entry
    /// (switch idle timeout missing or longer than memory's) — §5b's
    /// scale-down logic would retire instances that still receive traffic.
    IncompatibleTimeouts {
        switch: usize,
        rule: RuleRef,
        switch_idle: Option<SimDuration>,
        memory_idle: SimDuration,
    },
    /// A service-definition lint finding in document `doc` (0-based index in
    /// the stream) at `path`.
    Lint {
        doc: usize,
        path: String,
        message: String,
    },
    /// Two or more controller shards have a deployment machine in flight for
    /// the same `(service, cluster)` — the split-brain duplicate the
    /// deployment-lease protocol exists to prevent. The shared backend would
    /// receive conflicting pull/create/scale sequences.
    SplitBrainDeployment {
        service: u32,
        cluster: usize,
        shards: Vec<usize>,
    },
    /// The shards whose replica of `site` diverged from shard 0's: it
    /// applied another number of backend ops, rejected a peer's op at
    /// replay, or ended the run in another state. Replicas model one
    /// physical site, so they must converge.
    ReplicaDivergence { site: usize, shards: Vec<usize> },
    /// A controller shard still steers a service's flows at a cluster where
    /// no replica is ready — cross-shard staleness that outlived the gossip
    /// convergence envelope (a `Gone` delta that never took effect).
    StaleMeshRedirect {
        shard: usize,
        service: u32,
        cluster: usize,
    },
    /// The controller's booked allocation at a site exceeds the site's
    /// configured capacity — some deployment or scale-up path bypassed the
    /// §5g admission check, or a release was lost.
    CapacityExceeded {
        cluster: usize,
        capacity: cluster::SiteCapacity,
        allocated: cluster::ResourceAllocation,
    },
    /// A request was neither served nor accounted as lost — its session fell
    /// into the gap between an ingress handover's flow teardown and the
    /// re-establishment on the new controller, and nothing noticed. The
    /// complement of the exactly-once guarantee the continuity analysis
    /// proves (see [`continuity`]).
    BlackholedSession { tag: u64, client: u32 },
    /// A request was released to a serving port more than once — e.g. both
    /// the pre- and post-handover flow answered it, duplicating the client's
    /// side-effect.
    DoubleServedSession {
        tag: u64,
        client: u32,
        completions: u32,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Shadowed { switch, rule, by } => write!(
                f,
                "shadowed: switch {switch}: {rule} can never match; covered by {by}"
            ),
            Violation::OverlapConflict {
                switch,
                first,
                second,
            } => write!(
                f,
                "overlap-conflict: switch {switch}: {first} and {second} share priority, \
                 intersect, and send traffic to different destinations"
            ),
            Violation::Unsatisfiable { switch, rule } => {
                write!(f, "unsatisfiable: switch {switch}: {rule} admits no packet")
            }
            Violation::RewriteLoop { class, path } => {
                write!(f, "loop: class {class} cycles through ")?;
                let hops: Vec<String> = path
                    .iter()
                    .map(|(sw, id)| format!("switch {sw}/flow #{}", id.0))
                    .collect();
                f.write_str(&hops.join(" -> "))
            }
            Violation::Blackholed {
                class,
                switch,
                rule,
            } => write!(
                f,
                "blackhole: class {class} is dropped at switch {switch} by flow #{}",
                rule.0
            ),
            Violation::Misrouted {
                class,
                switch,
                rule,
                port,
            } => write!(
                f,
                "misroute: class {class} leaves switch {switch} on port {port} \
                 (flow #{}) where no service can answer",
                rule.0
            ),
            Violation::StaleRedirect {
                switch,
                rule,
                target,
            } => write!(
                f,
                "stale-redirect: switch {switch}: {rule} rewrites to {target}, which is \
                 neither a live instance nor remembered by the controller"
            ),
            Violation::TargetMismatch {
                client,
                service,
                memory_target,
                switch_target,
                rule,
            } => write!(
                f,
                "target-mismatch: {client} -> {service}: memory says {memory_target}, \
                 switch flow #{} rewrites to {switch_target}",
                rule.0
            ),
            Violation::OrphanedPending { client, service } => write!(
                f,
                "orphaned-pending: {client} -> {service}: memory holds a pending \
                 placeholder but no deployment is in flight for the service"
            ),
            Violation::IncompatibleTimeouts {
                switch,
                rule,
                switch_idle,
                memory_idle,
            } => {
                let si = match switch_idle {
                    Some(d) => format!("{d}"),
                    None => "none".to_string(),
                };
                write!(
                    f,
                    "incompatible-timeouts: switch {switch}: {rule} idle timeout ({si}) \
                     outlives FlowMemory's ({memory_idle}); scale-down would race live traffic"
                )
            }
            Violation::Lint { doc, path, message } => {
                write!(f, "lint: document {doc}: {path}: {message}")
            }
            Violation::SplitBrainDeployment {
                service,
                cluster,
                shards,
            } => write!(
                f,
                "split-brain: service #{service} deploying at cluster {cluster} \
                 concurrently on shards {shards:?}"
            ),
            Violation::ReplicaDivergence { site, shards } => write!(
                f,
                "replica-divergence: site {site}: the replicas of shards {shards:?} \
                 missed or rejected a replayed op, or ended unlike shard 0's"
            ),
            Violation::StaleMeshRedirect {
                shard,
                service,
                cluster,
            } => write!(
                f,
                "stale-mesh-redirect: shard {shard} still steers service #{service} to \
                 cluster {cluster} where no replica is ready"
            ),
            Violation::CapacityExceeded {
                cluster,
                capacity,
                allocated,
            } => write!(
                f,
                "capacity-exceeded: cluster {cluster}: booked {}m CPU / {} MiB / {} replicas \
                 exceeds capacity {}m CPU / {} MiB / {} replicas",
                allocated.cpu_millis,
                allocated.memory_mib,
                allocated.replicas,
                capacity.cpu_millis,
                capacity.memory_mib,
                capacity.max_replicas,
            ),
            Violation::BlackholedSession { tag, client } => write!(
                f,
                "blackholed-session: request tag {tag} from client {client} was neither \
                 served nor accounted lost — swallowed across a handover"
            ),
            Violation::DoubleServedSession {
                tag,
                client,
                completions,
            } => write!(
                f,
                "double-served-session: request tag {tag} from client {client} was \
                 released {completions} times"
            ),
        }
    }
}

/// The verifier facade. Stateless apart from tuning knobs; every `check_*`
/// method is a pure function of its inputs.
#[derive(Debug, Clone)]
pub struct Verifier {
    /// Reachability walk hop budget; exceeding it is reported as a loop.
    pub max_hops: usize,
}

impl Default for Verifier {
    fn default() -> Verifier {
        Verifier { max_hops: 64 }
    }
}

impl Verifier {
    pub fn new() -> Verifier {
        Verifier::default()
    }

    /// Full pairwise table audit of one switch (switch index 0): shadowing,
    /// same-priority overlap conflicts, unsatisfiable matchers.
    pub fn check(&self, table: &FlowTable) -> Vec<Violation> {
        self.check_switch(0, table)
    }

    /// [`Verifier::check`] with an explicit switch index for reports.
    pub(crate) fn check_switch(&self, switch: usize, table: &FlowTable) -> Vec<Violation> {
        table::check_table(switch, table)
    }

    /// Incremental check-on-install: only the pairs involving the
    /// just-installed `id` (O(table) instead of O(table²)). The audited
    /// scenario run calls this on every `FlowMod`.
    pub fn check_install(&self, switch: usize, table: &FlowTable, id: FlowId) -> Vec<Violation> {
        table::check_install(switch, table, id)
    }

    /// Audit a whole fabric: per-switch table checks plus symbolic
    /// reachability walks of every packet class.
    pub fn check_fabric(&self, fabric: &Fabric<'_>) -> Vec<Violation> {
        let mut out = Vec::new();
        for (i, sw) in fabric.switches.iter().enumerate() {
            out.extend(self.check_switch(i, sw.table));
        }
        out.extend(fabric::walk_classes(self, fabric));
        out
    }

    /// Cross-check FlowMemory against the installed switch entries.
    pub fn check_coherence(&self, view: &CoherenceView<'_>) -> Vec<Violation> {
        coherence::check(view)
    }

    /// Cross-controller mesh invariants: split-brain deployments and stale
    /// cross-shard redirects (see [`mesh`]).
    pub fn check_mesh(&self, view: &MeshView) -> Vec<Violation> {
        mesh::check(view)
    }

    /// Capacity accounting: each site's booked allocation must fit its
    /// configured capacity (see [`capacity`]).
    pub fn check_capacity(&self, sites: &[SiteBooks]) -> Vec<Violation> {
        capacity::check(sites)
    }

    /// Session continuity across client handovers: every request either
    /// completed exactly once or is in the loss ledger (see [`continuity`]).
    pub fn check_continuity(&self, view: &ContinuityView) -> Vec<Violation> {
        continuity::check(view)
    }
}
