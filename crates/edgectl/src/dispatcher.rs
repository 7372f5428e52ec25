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
//! is identical to the historical synchronous pipeline, which is retained
//! verbatim in [`mod@reference`] as the equivalence oracle for the lockstep
//! property test. What the state machine adds is *interleaving*: backend
//! faults (a crash injected between phases or during the probe window) now
//! land while a deployment is mid-flight and are observed by the next step,
//! which can retry the phase or fail over to the cloud.

use std::sync::Arc;

use cluster::{ClusterBackend, ClusterError, ServiceTemplate};
use registry::RegistrySet;
use simcore::{DeadlineIndex, DetHashMap, SimDuration, SimTime};
use simnet::openflow::{BufferId, PortId};
use simnet::Packet;

use crate::catalog::ServiceId;
use crate::controller::{DeploymentRecord, SwitchId};
use crate::flowmemory::FlowKey;
use crate::scheduler::ClusterId;

/// Which pipeline phase a deployment machine is in (coarse, introspective
/// view — [`crate::Controller::deployment_phase`] reports this for tests and
/// diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployPhaseKind {
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
pub enum DeployError {
    /// A phase exhausted its retries on a backend error.
    Cluster(ClusterError),
    /// The port never opened within the probe window.
    ProbeTimeout { deadline: SimTime },
    /// The deployment lease on `(cluster, service)` was revoked: another
    /// controller shard won the window-boundary merge for the same
    /// deployment decision, so this machine is aborted mid-flight
    /// ([`crate::Controller::abort_deployment`]).
    LeaseRevoked,
}

/// Why admission control refused to start a deployment at a site. A scheduler
/// [`crate::Decision`] is advisory — the dispatcher re-checks the target's
/// [`cluster::SiteCapacity`] and labels at deployment time and falls through
/// to next-best/cloud on rejection instead of overcommitting the site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
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

impl AdmissionError {
    /// The rejecting site.
    pub fn cluster(&self) -> ClusterId {
        match self {
            AdmissionError::Capacity { cluster, .. }
            | AdmissionError::RequirementsUnmet { cluster, .. } => *cluster,
        }
    }
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
    /// The deployment is dead; held requests fall back to the cloud.
    Failed {
        phase: DeployPhaseKind,
        error: DeployError,
    },
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

/// Everything the controller hands a machine step: the target cluster's
/// backend plus the tuning knobs the old closure-based pipeline read from
/// `ControllerConfig`.
pub(crate) struct StepCtx<'a> {
    pub backend: &'a mut dyn ClusterBackend,
    pub registries: &'a RegistrySet,
    pub retries: u32,
    pub backoff: SimDuration,
    pub probe_interval: SimDuration,
    pub probe_timeout: SimDuration,
    /// Probe round trip controller ↔ cluster host (probes originate at the
    /// controller, co-located with the primary switch).
    pub probe_rtt: SimDuration,
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

    /// Issue the one step due at `self.next_step`, mirroring the reference
    /// pipeline's per-phase behaviour exactly (issue instants, retry
    /// back-off, probe cadence, the post-increment deadline check).
    fn advance(&mut self, ctx: &mut StepCtx<'_>) -> MachineOutcome {
        let issued = self.next_step;
        let name = self.template.name.as_str();
        match self.phase {
            DeployPhase::Pulling => {
                match ctx.backend.pull(issued, &self.template, ctx.registries) {
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
                    Err(e) => self.retry_or_fail(e, DeployPhaseKind::Pulling, ctx),
                }
            }
            DeployPhase::Creating => {
                let result = match ctx.backend.create(issued, &self.template) {
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
                    Err(e) => self.retry_or_fail(e, DeployPhaseKind::Creating, ctx),
                }
            }
            DeployPhase::ScalingUp => match ctx.backend.scale_up(issued, name, 1) {
                Ok(receipt) => {
                    self.record.scale_up =
                        Some((issued, receipt.accepted_at, receipt.expected_ready));
                    self.enter_probing(receipt, ctx);
                    MachineOutcome::Progressed
                }
                Err(e) => self.retry_or_fail(e, DeployPhaseKind::ScalingUp, ctx),
            },
            DeployPhase::Probing {
                deadline,
                expected_ready,
            } => {
                let probe_t = issued;
                if ctx.backend.is_ready(probe_t, name) {
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
                let status = ctx.backend.status(probe_t, name);
                if probe_t >= expected_ready
                    && status.ready_replicas == 0
                    && status.desired_replicas > 0
                    && self.recoveries < ctx.retries
                {
                    if let Ok(receipt) = ctx.backend.scale_up(probe_t, name, 1) {
                        self.recoveries += 1;
                        self.enter_probing(receipt, ctx);
                        return MachineOutcome::Recovered;
                    }
                }
                self.next_step = probe_t + ctx.probe_interval;
                if self.next_step > deadline {
                    return MachineOutcome::Failed {
                        phase: DeployPhaseKind::Probing,
                        error: DeployError::ProbeTimeout { deadline },
                    };
                }
                MachineOutcome::Progressed
            }
            DeployPhase::Finalizing { ready_detected } => {
                // The replica can die during the probe's round trip (a crash
                // event landing between the successful probe and this
                // instant). Never hand waiters a dead endpoint: fall back
                // into a recovery scale-up, or fail the deployment.
                if ctx
                    .backend
                    .replica_endpoints(ready_detected, name)
                    .is_empty()
                {
                    let status = ctx.backend.status(ready_detected, name);
                    if status.desired_replicas > 0 && self.recoveries < ctx.retries {
                        if let Ok(receipt) = ctx.backend.scale_up(ready_detected, name, 1) {
                            self.recoveries += 1;
                            self.enter_probing(receipt, ctx);
                            return MachineOutcome::Recovered;
                        }
                    }
                    return MachineOutcome::Failed {
                        phase: DeployPhaseKind::Probing,
                        error: DeployError::ProbeTimeout {
                            deadline: ready_detected,
                        },
                    };
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

    fn retry_or_fail(
        &mut self,
        error: ClusterError,
        phase: DeployPhaseKind,
        ctx: &StepCtx<'_>,
    ) -> MachineOutcome {
        if self.attempt < ctx.retries {
            self.attempt += 1;
            self.retried += 1;
            self.next_step += ctx.backoff;
            MachineOutcome::Progressed
        } else {
            MachineOutcome::Failed {
                phase,
                error: DeployError::Cluster(error),
            }
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
    /// In-flight machines per service, over all clusters.
    per_service: DetHashMap<ServiceId, u32>,
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
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    pub fn find(&self, cluster: ClusterId, service: ServiceId) -> Option<&DeployMachine> {
        self.machines.get(&(cluster, service))
    }

    /// Mutable access to everything about a machine except when it steps.
    pub fn find_mut(
        &mut self,
        cluster: ClusterId,
        service: ServiceId,
    ) -> Option<&mut DeployMachine> {
        self.machines.get_mut(&(cluster, service))
    }

    pub fn any_for_service(&self, service: ServiceId) -> bool {
        self.per_service.contains_key(&service)
    }

    /// `(service, cluster)` of every in-flight machine, oldest first.
    pub fn in_flight(&self) -> Vec<(ServiceId, ClusterId)> {
        // edgelint: allow(det-collections) — sorted by seq before exposure
        let mut by_seq: Vec<&DeployMachine> = self.machines.values().collect();
        by_seq.sort_unstable_by_key(|m| m.seq);
        by_seq.iter().map(|m| (m.service, m.cluster)).collect()
    }

    /// Start a machine at `now`; phases whose issue instants are already due
    /// run when the controller pumps the machines (same call stack), so the
    /// backend sees the same call order as the synchronous pipeline.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        &mut self,
        now: SimTime,
        cluster: ClusterId,
        service: ServiceId,
        template: Arc<ServiceTemplate>,
        record: DeploymentRecord,
        images_cached: bool,
        created: bool,
        saved_scaled_to_zero: Option<SimTime>,
    ) -> &mut DeployMachine {
        let seq = self.next_seq;
        self.next_seq += 1;
        let phase = if !images_cached {
            DeployPhase::Pulling
        } else if !created {
            DeployPhase::Creating
        } else {
            DeployPhase::ScalingUp
        };
        let key = (cluster, service);
        let machine = DeployMachine {
            seq,
            cluster,
            service,
            template,
            record,
            phase,
            next_step: now,
            attempt: 0,
            retried: 0,
            recoveries: 0,
            waiters: Vec::new(),
            wants_retarget: false,
            proactive: false,
            skip_create: created,
            saved_scaled_to_zero,
        };
        let displaced = self.machines.insert(key, machine);
        debug_assert!(displaced.is_none(), "one machine per (cluster, service)");
        *self.per_service.entry(service).or_insert(0) += 1;
        // The old top still tells the truth, so there is nothing to settle.
        self.due.file(now, (seq, key));
        self.machines.get_mut(&key).expect("just inserted")
    }

    /// The machine with the smallest `(next_step, seq)`, if its step is due
    /// at or before `now`.
    pub fn due(&self, now: SimTime) -> Option<InstanceKey> {
        self.due
            .peek()
            .filter(|&(at, _)| at <= now)
            .map(|(_, (_, key))| key)
    }

    /// Earliest pending step across all machines.
    pub fn next_step_at(&self) -> Option<SimTime> {
        self.due.next()
    }

    /// Issue the step machine `key` has due.
    pub fn advance(&mut self, key: InstanceKey, ctx: &mut StepCtx<'_>) -> MachineOutcome {
        self.rekey(key, |m| m.advance(ctx))
    }

    /// Make machine `key` due at `at` instead of its own next step (a lease
    /// revocation ends it at the abort instant).
    pub fn reschedule(&mut self, key: InstanceKey, at: SimTime) {
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

    pub fn remove(&mut self, key: InstanceKey) -> DeployMachine {
        let machine = self.machines.remove(&key).expect("machine is in flight");
        match self.per_service.get_mut(&machine.service) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.per_service.remove(&machine.service);
            }
        }
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

    pub fn record_completed(&mut self, seq: u64) {
        match self.completed.binary_search(&seq) {
            Ok(_) => {}
            Err(pos) => self.completed.insert(pos, seq),
        }
    }

    /// Did any machine with ordinal in `[lo, hi)` complete successfully?
    pub fn completed_in(&self, lo: u64, hi: u64) -> bool {
        let start = self.completed.partition_point(|&s| s < lo);
        self.completed.get(start).is_some_and(|&s| s < hi)
    }
}

#[cfg(test)]
mod index_tests;

pub mod reference {
    //! The historical **synchronous** deployment pipeline, retained verbatim
    //! as the equivalence oracle: it precomputes the readiness instant in one
    //! call the moment the triggering packet arrives (temporal-database
    //! backends make this legal — mutating calls take an `at` instant and
    //! return completion instants). The lockstep property test drives a
    //! reference-engine controller and a stepped-engine controller through
    //! identical inputs and asserts identical outputs, stats and deployment
    //! records. See DESIGN.md §5e.
    //!
    //! Known (intentional) limitation preserved here: the pending map is the
    //! pre-dispatcher piggyback bookkeeping, including its historical leak —
    //! entries whose readiness instant passed are never evicted. The stepped
    //! engine fixes this structurally (machines are removed at the terminal
    //! transition); the reference keeps the old behaviour so equivalence is
    //! proved against what actually shipped.

    use std::collections::HashMap;

    use cluster::ClusterError;
    use simcore::{SimDuration, SimTime};

    use super::StepCtx;
    use crate::catalog::ServiceId;
    use crate::controller::DeploymentRecord;
    use crate::scheduler::ClusterId;

    /// Piggyback state of the synchronous pipeline: readiness instants of
    /// deployments already run.
    #[derive(Default)]
    pub(crate) struct ReferencePipeline {
        pub pending: HashMap<(ClusterId, ServiceId), SimTime>,
    }

    /// Result of one synchronous pipeline run.
    pub(crate) enum Outcome {
        /// The service was already ready at the call instant.
        AlreadyReady,
        /// The pipeline completed; the record carries all phase instants.
        Ready {
            record: Box<DeploymentRecord>,
            retried: u64,
        },
        /// A phase exhausted retries or the probe window closed.
        Failed { retried: u64 },
    }

    /// Run Pull → Create → Scale-Up → poll-port in one shot (the pre-state-
    /// machine `ensure_deployed` body, byte-for-byte semantics).
    pub(crate) fn deploy(
        now: SimTime,
        template: &cluster::ServiceTemplate,
        mut record: DeploymentRecord,
        ctx: &mut StepCtx<'_>,
    ) -> Outcome {
        let name = template.name.as_str();
        let backend = &mut *ctx.backend;
        let registries = ctx.registries;
        let retries = ctx.retries;
        let backoff = ctx.backoff;

        let status = backend.status(now, name);
        if status.is_ready() {
            return Outcome::AlreadyReady;
        }
        let images_cached = backend.has_images(template);
        let mut t = now;
        let mut retried: u64 = 0;

        // Phase 1: Pull (skipped when cached).
        if !images_cached {
            let Some((issued, end)) = with_retries(&mut t, retries, backoff, &mut retried, |at| {
                backend.pull(at, template, registries)
            }) else {
                return Outcome::Failed { retried };
            };
            record.pull = Some((issued, end));
            t = end;
        }

        // Phase 2: Create (skipped when the service objects exist).
        if !status.created {
            match with_retries(&mut t, retries, backoff, &mut retried, |at| {
                match backend.create(at, template) {
                    Err(ClusterError::AlreadyCreated(_)) => Ok(at),
                    other => other,
                }
            }) {
                Some((issued, end)) => {
                    if end > issued {
                        record.create = Some((issued, end));
                    }
                    t = end.max(t);
                }
                None => return Outcome::Failed { retried },
            }
        }

        // Phase 3: Scale Up.
        let Some((issued, receipt)) = with_retries(&mut t, retries, backoff, &mut retried, |at| {
            backend.scale_up(at, name, 1)
        }) else {
            return Outcome::Failed { retried };
        };
        record.scale_up = Some((issued, receipt.accepted_at, receipt.expected_ready));

        // Port polling: probe every `probe_interval` from the moment the
        // scale-up API returned, plus the probe's own round trip to the host.
        let mut probe_t = receipt.accepted_at;
        let deadline = receipt.accepted_at + ctx.probe_timeout;
        let ready_detected = loop {
            if backend.is_ready(probe_t, name) {
                break Some(probe_t + ctx.probe_rtt);
            }
            probe_t += ctx.probe_interval;
            if probe_t > deadline {
                break None;
            }
        };
        match ready_detected {
            Some(ready_detected) => {
                record.ready_detected = ready_detected;
                Outcome::Ready {
                    record: Box::new(record),
                    retried,
                }
            }
            None => Outcome::Failed { retried },
        }
    }

    /// Retry a phase on transient errors with back-off; returns the
    /// successful result and the (possibly delayed) issue time.
    pub(crate) fn with_retries<R>(
        t: &mut SimTime,
        retries: u32,
        backoff: SimDuration,
        retried: &mut u64,
        mut op: impl FnMut(SimTime) -> Result<R, ClusterError>,
    ) -> Option<(SimTime, R)> {
        let mut attempt = 0;
        loop {
            let issued = *t;
            match op(issued) {
                Ok(r) => return Some((issued, r)),
                Err(_) if attempt < retries => {
                    attempt += 1;
                    *retried += 1;
                    *t = issued + backoff;
                }
                Err(_) => return None,
            }
        }
    }
}
