//! The Dispatcher: the paper's deployment pipeline (Fig. 4, Pull → Create →
//! Scale-Up → poll port) as an explicit per-deployment **state machine**
//! advanced by discrete controller wakeups.
//!
//! The paper's architecture (Figs. 3–5) runs deployments *concurrently* with
//! packet handling — that is the whole point of on-demand deployment
//! "without waiting". Each in-flight deployment is one `DeployMachine`
//! stepping through
//!
//! ```text
//! Pulling → Creating → ScalingUp → Probing → Ready
//!     \________\___________\__________/
//!                  Failed { phase, error }
//! ```
//!
//! Every step is issued at a recorded virtual instant (`next_step`), so the
//! observable timeline — phase durations, probe cadence, readiness instants —
//! does not depend on when wakeups happen to arrive. The machine *is* the
//! protocol: each phase starts at the previous phase's end, a failed call
//! repeats after `retry_backoff` up to `deploy_retries` times per phase, and
//! probes run on the grid `accepted_at + k·probe_interval` up to and
//! including `accepted_at + probe_timeout`. Each probe on the grid is
//! answered by the site's snapshot (`AttachedCluster::snapshot`), so it
//! reaches the backend only when the held read has expired or a mutation
//! stamped its scope; the phase calls go to the backend itself.
//! `tests/dispatcher_protocol.rs` checks every run against that rule from a
//! log of the backend calls and reads.
//! Backend faults (a crash injected between phases or during the probe
//! window) land while a deployment is mid-flight and are observed by the next
//! step, which can retry the phase or fail over to the cloud.

use std::sync::Arc;

use cluster::{ClusterError, ServiceTemplate};
use registry::RegistrySet;
use simcore::{DeadlineIndex, DetHashMap, SimDuration, SimTime};
use simnet::openflow::{BufferId, PortId};
use simnet::Packet;

use crate::catalog::ServiceId;
use crate::controller::{AttachedCluster, DeploymentRecord, SwitchId};
use crate::flowmemory::FlowKey;
use crate::scheduler::ClusterId;

/// Which pipeline phase a deployment machine is in (the coarse view a
/// deployment failure records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeployPhaseKind {
    Pulling,
    Creating,
    ScalingUp,
    Probing,
}

impl std::fmt::Display for DeployPhaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployPhaseKind::Pulling => f.write_str("Pulling"),
            DeployPhaseKind::Creating => f.write_str("Creating"),
            DeployPhaseKind::ScalingUp => f.write_str("ScalingUp"),
            DeployPhaseKind::Probing => f.write_str("Probing"),
        }
    }
}

/// Why a deployment machine ended in `Failed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DeployError {
    /// A phase exhausted its retries on a backend error.
    Cluster(ClusterError),
    /// The port never opened within the probe window.
    ProbeTimeout { deadline: SimTime },
    /// The replica that answered the last probe died before the probe's
    /// round trip ended, at `at`, and the recovery budget was spent.
    DiedAfterProbe { at: SimTime },
    /// The deployment lease on `(cluster, service)` was revoked: another
    /// controller shard won the window-boundary merge for the same
    /// deployment decision, so this machine is aborted mid-flight
    /// ([`crate::Controller::abort_deployment`]).
    LeaseRevoked,
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Cluster(e) => write!(f, "backend error: {e}"),
            DeployError::ProbeTimeout { deadline } => write!(f, "port not open by {deadline}"),
            DeployError::DiedAfterProbe { at } => write!(f, "replica dead after the probe at {at}"),
            DeployError::LeaseRevoked => f.write_str("deployment lease revoked"),
        }
    }
}

/// Why admission control refused to start a deployment at a site. A scheduler
/// [`crate::scheduler::Decision`] is advisory — the dispatcher re-checks the
/// target's [`cluster::SiteCapacity`] and labels at deployment time and falls
/// through to next-best/cloud on rejection instead of overcommitting the
/// site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum AdmissionError {
    /// The site's remaining capacity cannot hold the service's demand.
    Capacity {
        cluster: ClusterId,
        shortfall: cluster::CapacityShortfall,
    },
    /// The site's labels fail the service's placement requirements.
    RequirementsUnmet {
        cluster: ClusterId,
        /// The first affinity label missing or anti-affinity label present.
        label: String,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Capacity { cluster, shortfall } => {
                write!(f, "cluster {} out of capacity: {shortfall}", cluster.0)
            }
            AdmissionError::RequirementsUnmet { cluster, label } => {
                write!(
                    f,
                    "cluster {} fails placement requirement `{label}`",
                    cluster.0
                )
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Detailed state of one machine (the `Probing` data is what the crash
/// observation logic needs).
#[derive(Debug, Clone)]
pub(crate) enum DeployPhase {
    Pulling,
    Creating,
    ScalingUp,
    Probing {
        deadline: SimTime,
        expected_ready: SimTime,
    },
    /// Readiness was observed at the probe; the machine completes at the
    /// detection instant (probe round trip included).
    Finalizing {
        ready_detected: SimTime,
    },
}

impl DeployPhase {
    pub(crate) fn kind(&self) -> DeployPhaseKind {
        match self {
            DeployPhase::Pulling => DeployPhaseKind::Pulling,
            DeployPhase::Creating => DeployPhaseKind::Creating,
            DeployPhase::ScalingUp => DeployPhaseKind::ScalingUp,
            DeployPhase::Probing { .. } | DeployPhase::Finalizing { .. } => {
                DeployPhaseKind::Probing
            }
        }
    }
}

/// What one [`DeployMachine::advance`] call produced.
#[derive(Debug)]
pub(crate) enum MachineOutcome {
    /// The machine moved on; nothing terminal happened.
    Progressed,
    /// A mid-deployment crash was observed and a recovery scale-up issued.
    Recovered,
    /// The port was seen open; the controller finalizes (stats, waiters).
    Ready { ready_detected: SimTime },
    /// The deployment is dead, in the machine's current phase; held
    /// requests fall back to the cloud.
    Failed(DeployError),
}

/// A request held (buffered at its switch) until this deployment is ready —
/// on-demand deployment *with waiting* (paper Fig. 5).
#[derive(Debug, Clone)]
pub(crate) struct Waiter {
    pub key: FlowKey,
    pub sw: SwitchId,
    pub in_port: PortId,
    pub buffer_id: BufferId,
    pub decide_at: SimTime,
    pub packet: Packet,
}

/// Everything the controller hands a machine step: the target site — its
/// backend for the phase calls, its snapshot cache for every read — plus the
/// tuning knobs the old closure-based pipeline read from `ControllerConfig`.
pub(crate) struct StepCtx<'a> {
    pub site: &'a mut AttachedCluster,
    pub registries: &'a RegistrySet,
    pub retries: u32,
    pub backoff: SimDuration,
    pub probe_interval: SimDuration,
    pub probe_timeout: SimDuration,
    /// Probe round trip controller ↔ cluster host (probes originate at the
    /// controller, co-located with the primary switch).
    pub probe_rtt: SimDuration,
}

/// What [`Dispatcher::start`] starts: the deployment of `service` at
/// `cluster`, triggered at `now`, and what the backend already holds of it.
pub(crate) struct DeployOrder {
    pub now: SimTime,
    pub cluster: ClusterId,
    pub service: ServiceId,
    pub template: Arc<ServiceTemplate>,
    pub record: DeploymentRecord,
    /// The images are on the site: skip the Pull phase.
    pub images_cached: bool,
    /// The service objects exist: skip the Create phase.
    pub created: bool,
    /// The `scaled_to_zero` entry the deployment displaces.
    pub saved_scaled_to_zero: Option<SimTime>,
}

/// One in-flight deployment.
pub(crate) struct DeployMachine {
    /// Creation ordinal (strictly increasing across all machines).
    pub seq: u64,
    pub cluster: ClusterId,
    pub service: ServiceId,
    pub template: Arc<ServiceTemplate>,
    pub record: DeploymentRecord,
    pub phase: DeployPhase,
    /// Virtual instant the next step is issued at. Steps run when a wakeup
    /// reaches this instant, so phase issue times are wakeup-jitter free.
    /// Private: the dispatcher's due index is keyed on it, so while a machine
    /// is in flight it changes only inside [`Dispatcher::rekey`].
    next_step: SimTime,
    /// Retry attempt within the current phase.
    attempt: u32,
    /// Total retried operations across phases (drained into stats at the
    /// terminal transition).
    pub retried: u64,
    /// Mid-deployment crash recoveries performed (bounded by the retry
    /// budget).
    pub recoveries: u32,
    /// Requests held on this deployment, in arrival order.
    pub waiters: Vec<Waiter>,
    /// A BEST decision piggybacked here: schedule a flow retarget once ready.
    pub wants_retarget: bool,
    /// Started by the predictor rather than a request.
    pub proactive: bool,
    /// Skip the Create phase (service objects already existed at trigger).
    skip_create: bool,
    /// The `scaled_to_zero` entry displaced when this machine started;
    /// restored if the machine fails (so the Remove phase still sees it).
    pub saved_scaled_to_zero: Option<SimTime>,
}

impl DeployMachine {
    /// The instant the machine's next step is due — after a terminal
    /// transition, the instant it ended.
    pub(crate) fn next_step(&self) -> SimTime {
        self.next_step
    }

    /// Issue the one step due at `self.next_step`: the phase's backend call,
    /// a retry after back-off, or one probe (failing once the next probe
    /// would fall past the deadline).
    fn advance(&mut self, ctx: &mut StepCtx<'_>) -> MachineOutcome {
        let issued = self.next_step;
        let name = self.template.name.as_str();
        match self.phase {
            DeployPhase::Pulling => {
                match ctx
                    .site
                    .backend
                    .pull(issued, &self.template, ctx.registries)
                {
                    Ok(end) => {
                        self.record.pull = Some((issued, end));
                        self.next_step = end;
                        self.attempt = 0;
                        self.phase = if self.skip_create {
                            DeployPhase::ScalingUp
                        } else {
                            DeployPhase::Creating
                        };
                        MachineOutcome::Progressed
                    }
                    Err(e) => self.retry_or_fail(e, ctx),
                }
            }
            DeployPhase::Creating => {
                let result = match ctx.site.backend.create(issued, &self.template) {
                    Err(ClusterError::AlreadyCreated(_)) => Ok(issued),
                    other => other,
                };
                match result {
                    Ok(end) => {
                        if end > issued {
                            self.record.create = Some((issued, end));
                        }
                        self.next_step = end.max(issued);
                        self.attempt = 0;
                        self.phase = DeployPhase::ScalingUp;
                        MachineOutcome::Progressed
                    }
                    Err(e) => self.retry_or_fail(e, ctx),
                }
            }
            DeployPhase::ScalingUp => match ctx.site.backend.scale_up(issued, name, 1) {
                Ok(receipt) => {
                    self.record.scale_up =
                        Some((issued, receipt.accepted_at, receipt.expected_ready));
                    self.enter_probing(receipt, ctx);
                    MachineOutcome::Progressed
                }
                Err(e) => self.retry_or_fail(e, ctx),
            },
            DeployPhase::Probing {
                deadline,
                expected_ready,
            } => {
                let probe_t = issued;
                // One read answers the probe and the crash observation.
                let (status, _) = ctx.site.snapshot(probe_t, self.service, name);
                if status.is_ready() {
                    let ready_detected = probe_t + ctx.probe_rtt;
                    self.phase = DeployPhase::Finalizing { ready_detected };
                    self.next_step = ready_detected;
                    return MachineOutcome::Progressed;
                }
                // Crash observation (impossible under the oracular pipeline):
                // the backend accepted the scale-up, its own readiness
                // estimate has passed, and yet no replica answers — an
                // instance died mid-deployment. Re-issue the scale-up (plain
                // Docker restarts the crashed container; self-healing
                // backends accept it as a no-op) within the retry budget.
                if probe_t >= expected_ready
                    && status.desired_replicas > 0
                    && self.recoveries < ctx.retries
                {
                    if let Ok(receipt) = ctx.site.backend.scale_up(probe_t, name, 1) {
                        self.recoveries += 1;
                        self.enter_probing(receipt, ctx);
                        return MachineOutcome::Recovered;
                    }
                }
                // A failure stays stamped at the probe that decided it.
                let next_probe = probe_t + ctx.probe_interval;
                if next_probe > deadline {
                    return MachineOutcome::Failed(DeployError::ProbeTimeout { deadline });
                }
                self.next_step = next_probe;
                MachineOutcome::Progressed
            }
            DeployPhase::Finalizing { ready_detected } => {
                // The replica can die during the probe's round trip (a crash
                // event landing between the successful probe and this
                // instant). Never hand waiters a dead endpoint: fall back
                // into a recovery scale-up, or fail the deployment.
                let (status, endpoints) = ctx.site.snapshot(ready_detected, self.service, name);
                if endpoints.is_empty() {
                    if status.desired_replicas > 0 && self.recoveries < ctx.retries {
                        if let Ok(receipt) = ctx.site.backend.scale_up(ready_detected, name, 1) {
                            self.recoveries += 1;
                            self.enter_probing(receipt, ctx);
                            return MachineOutcome::Recovered;
                        }
                    }
                    return MachineOutcome::Failed(DeployError::DiedAfterProbe {
                        at: ready_detected,
                    });
                }
                MachineOutcome::Ready { ready_detected }
            }
        }
    }

    /// A scale-up receipt starts (or restarts) the probe loop: probes every
    /// `probe_interval` from the accept instant, a fresh timeout window.
    fn enter_probing(&mut self, receipt: cluster::ScaleReceipt, ctx: &StepCtx<'_>) {
        self.phase = DeployPhase::Probing {
            deadline: receipt.accepted_at + ctx.probe_timeout,
            expected_ready: receipt.expected_ready,
        };
        self.next_step = receipt.accepted_at;
        self.attempt = 0;
    }

    /// Retry the current phase after back-off, or fail the machine in it.
    fn retry_or_fail(&mut self, error: ClusterError, ctx: &StepCtx<'_>) -> MachineOutcome {
        if self.attempt < ctx.retries {
            self.attempt += 1;
            self.retried += 1;
            self.next_step += ctx.backoff;
            MachineOutcome::Progressed
        } else {
            MachineOutcome::Failed(DeployError::Cluster(error))
        }
    }
}

/// One service at one cluster. A machine's identity while in flight: at most
/// one deployment of a service runs per cluster (callers
/// [`Dispatcher::find`] before they start one).
pub(crate) type InstanceKey = (ClusterId, ServiceId);

/// The set of in-flight deployment machines plus the bookkeeping the event
/// loop needs: the next due step and which machine ordinals completed
/// successfully (for attributing `triggered_deployment` to requests).
///
/// Nothing here scans the machines: they are indexed by key, counted per
/// service, and ordered by due step in a [`DeadlineIndex`].
#[derive(Default)]
pub(crate) struct Dispatcher {
    machines: DetHashMap<InstanceKey, DeployMachine>,
    /// In-flight machines per service, over all clusters: a dense lane
    /// indexed by [`ServiceId`] (DESIGN.md §5i).
    per_service: Vec<u32>,
    /// Due order, keyed `(seq, key)` so machines due at one instant step
    /// oldest first; settled (see [`simcore::deadline`]) before every
    /// `&mut self` method returns. The truth is the `next_step` of the
    /// machine in flight under `key` with that `seq`, or gone.
    due: DeadlineIndex<(u64, InstanceKey)>,
    next_seq: u64,
    /// Seqs of machines that reached `Ready`, ascending.
    completed: Vec<u64>,
}

impl Dispatcher {
    /// Ordinal the next machine will get — machines started so far.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    pub(crate) fn find(&self, cluster: ClusterId, service: ServiceId) -> Option<&DeployMachine> {
        self.machines.get(&(cluster, service))
    }

    /// Mutable access to everything about a machine except when it steps.
    pub(crate) fn find_mut(
        &mut self,
        cluster: ClusterId,
        service: ServiceId,
    ) -> Option<&mut DeployMachine> {
        self.machines.get_mut(&(cluster, service))
    }

    pub(crate) fn any_for_service(&self, service: ServiceId) -> bool {
        self.per_service
            .get(service.0 as usize)
            .is_some_and(|&n| n > 0)
    }

    /// `(service, cluster)` of every in-flight machine, oldest first.
    pub(crate) fn in_flight(&self) -> Vec<(ServiceId, ClusterId)> {
        // edgelint: allow(det-collections) — sorted by seq before exposure
        let mut by_seq: Vec<&DeployMachine> = self.machines.values().collect();
        by_seq.sort_unstable_by_key(|m| m.seq);
        by_seq.iter().map(|m| (m.service, m.cluster)).collect()
    }

    /// Start the machine `order` describes; phases whose issue instants are
    /// already due run when the controller pumps the machines (same call
    /// stack).
    pub(crate) fn start(&mut self, order: DeployOrder) -> &mut DeployMachine {
        let seq = self.next_seq;
        self.next_seq += 1;
        let phase = if !order.images_cached {
            DeployPhase::Pulling
        } else if !order.created {
            DeployPhase::Creating
        } else {
            DeployPhase::ScalingUp
        };
        let (now, service) = (order.now, order.service);
        let key = (order.cluster, service);
        let machine = DeployMachine {
            seq,
            cluster: order.cluster,
            service,
            template: order.template,
            record: order.record,
            phase,
            next_step: now,
            attempt: 0,
            retried: 0,
            recoveries: 0,
            waiters: Vec::new(),
            wants_retarget: false,
            proactive: false,
            skip_create: order.created,
            saved_scaled_to_zero: order.saved_scaled_to_zero,
        };
        let displaced = self.machines.insert(key, machine);
        debug_assert!(displaced.is_none(), "one machine per (cluster, service)");
        *service.slot(&mut self.per_service) += 1;
        // The old top still tells the truth, so there is nothing to settle.
        self.due.file(now, (seq, key));
        self.machines.get_mut(&key).expect("just inserted")
    }

    /// The machine with the smallest `(next_step, seq)`, if its step is due
    /// at or before `now`.
    pub(crate) fn due(&self, now: SimTime) -> Option<InstanceKey> {
        self.due
            .peek()
            .filter(|&(at, _)| at <= now)
            .map(|(_, (_, key))| key)
    }

    /// Earliest pending step across all machines.
    pub(crate) fn next_step_at(&self) -> Option<SimTime> {
        self.due.next()
    }

    /// Issue the step machine `key` has due.
    pub(crate) fn advance(&mut self, key: InstanceKey, ctx: &mut StepCtx<'_>) -> MachineOutcome {
        self.rekey(key, |m| m.advance(ctx))
    }

    /// Make machine `key` due at `at` instead of its own next step (a lease
    /// revocation ends it at the abort instant).
    pub(crate) fn reschedule(&mut self, key: InstanceKey, at: SimTime) {
        self.rekey(key, |m| m.next_step = at);
    }

    /// The one writer of an in-flight machine's `next_step`: run `write`,
    /// then file the machine under its new due instant.
    fn rekey<R>(&mut self, key: InstanceKey, write: impl FnOnce(&mut DeployMachine) -> R) -> R {
        let m = self.machines.get_mut(&key).expect("machine is in flight");
        let before = m.next_step;
        let result = write(m);
        self.due.moved((m.seq, key), before, m.next_step);
        self.settle_due();
        result
    }

    pub(crate) fn remove(&mut self, key: InstanceKey) -> DeployMachine {
        let machine = self.machines.remove(&key).expect("machine is in flight");
        self.per_service[machine.service.0 as usize] -= 1;
        self.settle_due();
        machine
    }

    fn settle_due(&mut self) {
        self.due.settle(|&(seq, key)| {
            self.machines
                .get(&key)
                .filter(|m| m.seq == seq)
                .map(|m| m.next_step)
        });
    }

    pub(crate) fn record_completed(&mut self, seq: u64) {
        match self.completed.binary_search(&seq) {
            Ok(_) => {}
            Err(pos) => self.completed.insert(pos, seq),
        }
    }

    /// Did any machine with ordinal in `[lo, hi)` complete successfully?
    pub(crate) fn completed_in(&self, lo: u64, hi: u64) -> bool {
        let start = self.completed.partition_point(|&s| s < lo);
        self.completed.get(start).is_some_and(|&s| s < hi)
    }
}

#[cfg(test)]
mod index_tests;
