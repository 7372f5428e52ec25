//! Work the wakeup surface runs at recorded instants: pending retargets,
//! predict passes, and the expiry housekeeping — autoscale, idle scale-down
//! and the Remove phase — with the time-ordered structures that keep each
//! source's next instant a peek.

use cluster::CapacityShortfall;
use simcore::{DeadlineIndex, DetHashMap, SimDuration, SimTime};

use super::packet::flow_pair;
use super::{Controller, ControllerOutput, DeltaKind, INGRESS};
use crate::catalog::ServiceId;
use crate::dispatcher::{AdmissionError, InstanceKey};
use crate::scheduler::ClusterId;

/// Proactive-deployment cadence, owned by the controller so predict runs are
/// ordinary wakeups (the event loop no longer pre-pushes tick events).
pub(super) struct PredictSchedule {
    next: SimTime,
    interval: SimDuration,
    end: SimTime,
    horizon: SimDuration,
}

impl PredictSchedule {
    pub(super) fn next_due_at(&self) -> Option<SimTime> {
        (self.next <= self.end).then_some(self.next)
    }
}

/// Work items due at recorded instants — pending retargets, scale-down
/// retries — ordered by due instant so the wakeup surface reads the head
/// instead of scanning. Due items come back in insertion order, the order
/// the plain lists this replaces were processed in.
#[derive(Default)]
pub(super) struct DueQueue {
    /// Keyed `(insertion ordinal, item)`. An item is never moved or removed
    /// before it is due, so every record is the truth and nothing settles.
    pub(super) due: DeadlineIndex<(u64, InstanceKey)>,
    pushed: u64,
}

impl DueQueue {
    pub(super) fn push(&mut self, at: SimTime, cluster: ClusterId, service: ServiceId) {
        self.due.file(at, (self.pushed, (cluster, service)));
        self.pushed += 1;
    }

    /// Earliest due instant.
    pub(super) fn next_at(&self) -> Option<SimTime> {
        self.due.next()
    }

    fn is_due(&self, now: SimTime) -> bool {
        self.next_at().is_some_and(|at| at <= now)
    }

    /// Remove and return every item due at or before `now`, in insertion
    /// order.
    fn take_due(&mut self, now: SimTime) -> impl Iterator<Item = (SimTime, ClusterId, ServiceId)> {
        let mut due = Vec::new();
        while let Some(item) = self.due.pop_due(now) {
            due.push(item);
        }
        due.sort_unstable_by_key(|&(_, (ordinal, _))| ordinal);
        due.into_iter()
            .map(|(at, (_, (cluster, service)))| (at, cluster, service))
    }
}

/// Services scaled to zero, awaiting the Remove phase: when each was scaled
/// down, by key, plus the same instants in time order so the oldest is a peek.
#[derive(Default)]
pub(super) struct ScaledToZero {
    /// The truth `by_time` is settled against (see [`simcore::deadline`])
    /// before every `&mut self` method returns.
    pub(super) since: DetHashMap<InstanceKey, SimTime>,
    by_time: DeadlineIndex<InstanceKey>,
}

impl ScaledToZero {
    /// When the longest-idle service was scaled down.
    pub(super) fn oldest(&self) -> Option<SimTime> {
        self.by_time.next()
    }

    pub(super) fn insert(&mut self, key: InstanceKey, at: SimTime) {
        self.since.insert(key, at);
        self.by_time.file(at, key);
        self.settle();
    }

    /// Put back the entry a failed deployment displaced, unless the service
    /// was scaled down again in the meantime.
    pub(super) fn restore(&mut self, key: InstanceKey, at: SimTime) {
        if !self.since.contains_key(&key) {
            self.insert(key, at);
        }
    }

    pub(super) fn remove(&mut self, key: InstanceKey) -> Option<SimTime> {
        let at = self.since.remove(&key);
        self.settle();
        at
    }

    /// Remove and return the services that have been at zero for at least
    /// `idle_for`, in key order: the Remove phase's backend calls and `Gone`
    /// deltas follow this order, and federated replays diverge if it depends
    /// on anything but the keys.
    fn take_idle(&mut self, now: SimTime, idle_for: SimDuration) -> Vec<InstanceKey> {
        let mut idle = Vec::new();
        while let Some((at, key)) = self.by_time.peek() {
            if now.since(at) < idle_for {
                break;
            }
            self.by_time.pop_due(at);
            self.since.remove(&key);
            idle.push(key);
            self.settle();
        }
        idle.sort_unstable();
        idle
    }

    fn settle(&mut self) {
        self.by_time.settle(|key| self.since.get(key).copied());
    }
}

impl Controller {
    /// Arm the proactive-deployment cadence: run a predict pass at `first`,
    /// then every `interval` until `last` (inclusive), each looking `horizon`
    /// ahead. Replaces the event loop's pre-pushed predict ticks.
    pub fn set_predict_schedule(
        &mut self,
        first: SimTime,
        interval: SimDuration,
        last: SimTime,
        horizon: SimDuration,
    ) {
        self.predict = Some(PredictSchedule {
            next: first,
            interval,
            end: last,
            horizon,
        });
    }

    /// Note that a BEST deployment will become ready at `ready_at`; the flow
    /// move to it is computed when the instant is drained, so requests served
    /// in the meantime are retargeted too (paper Fig. 3: "future requests are
    /// redirected to this optimal location as soon as the new instance is
    /// running").
    pub(super) fn schedule_retarget(
        &mut self,
        ready_at: SimTime,
        cluster: ClusterId,
        service: ServiceId,
    ) {
        self.retarget_queue.push(ready_at, cluster, service);
    }

    /// Append the FlowMods produced by retargets due at or before `upto`.
    pub(super) fn drain_retargets(&mut self, upto: SimTime, outputs: &mut Vec<ControllerOutput>) {
        // Most wakeups have no due retarget: one peek says so.
        if !self.retarget_queue.is_due(upto) {
            return;
        }
        for (at, cluster, service) in self.retarget_queue.take_due(upto) {
            let status =
                self.clusters[cluster.0].status_of(at, service, self.catalog.name_of(service));
            let Some(target) = status.endpoint.filter(|_| status.is_ready()) else {
                continue; // instance vanished before the hand-over
            };
            let moved = self.memory.retarget_service(service, target, cluster);
            self.stats.retargets += moved.len() as u64;
            for key in moved {
                if let Some((sw, client_port)) = self.client_ports.get(&key.client_ip).copied() {
                    let pair = flow_pair(
                        key,
                        target,
                        self.clusters[cluster.0].ports[sw.0],
                        client_port,
                        self.config.switch_idle_timeout,
                        self.catalog.cookie_of(service),
                    );
                    outputs.extend(pair.into_iter().map(|spec| ControllerOutput::FlowMod {
                        at,
                        switch: sw,
                        spec,
                    }));
                    self.host_route_outputs(at, sw, key.client_ip, outputs);
                }
            }
        }
    }

    /// Run every predict pass due at or before `now`.
    pub(super) fn run_predict_due(&mut self, now: SimTime) {
        loop {
            let Some(p) = &mut self.predict else { return };
            if p.next > now || p.next > p.end {
                return;
            }
            let (t, horizon) = (p.next, p.horizon);
            p.next = t + p.interval;
            self.run_predict(t, horizon);
        }
    }

    /// Ask the predictor which services should be running within `horizon`
    /// and pre-deploy the ones that are not (background, never holds a
    /// request).
    fn run_predict(&mut self, now: SimTime, horizon: SimDuration) {
        let nominations = self.predictor.predict(now, horizon);
        for addr in nominations {
            let Some(sid) = self.catalog.lookup(addr) else {
                continue;
            };
            let name = self.catalog.name_of(sid);
            // Already running (or being deployed) somewhere? Nothing to do.
            let anywhere_ready = self
                .clusters
                .iter_mut()
                .any(|c| c.status_of(now, sid, name).is_ready());
            if anywhere_ready || self.dispatcher.any_for_service(sid) {
                continue;
            }
            // Deploy at the cluster the Global Scheduler would pick for the
            // future (BEST semantics with no requesting client).
            let decision = self.decide(now, sid, INGRESS);
            let Some(target) = decision.target_for_future() else {
                continue;
            };
            // Nothing is in flight here (checked above); admission applies.
            if !self.admit(target, sid) {
                continue;
            }
            if !self.gate_acquire(now, target, sid) {
                self.stats.lease_rejections += 1;
                continue;
            }
            // Counted as proactive when (and if) the machine completes: a
            // failed proactive deployment is not a proactive deployment.
            self.start_machine(now, target, sid, false, true);
        }
    }

    /// Expiry housekeeping, run from [`Controller::on_wakeup_into`] when a flow
    /// expiry or Remove-phase deadline is due (early wakeups are no-ops, so
    /// the pass fires at the same instants the dedicated tick events used
    /// to).
    pub(super) fn run_housekeeping(&mut self, now: SimTime) {
        let expiry_due =
            self.config.scale_down_idle && self.memory.next_expiry().is_some_and(|t| t <= now);
        let retry_due = self.config.scale_down_idle && self.scale_down_retries.is_due(now);
        let remove_due = self.config.remove_after.is_some_and(|remove_after| {
            self.scaled_to_zero
                .oldest()
                .is_some_and(|at| now.since(at) >= remove_after)
        });
        if !expiry_due && !retry_due && !remove_due {
            return;
        }

        // Replica autoscaling: keep flows-per-replica near the target.
        if let Some(target) = self.config.autoscale_flows_per_replica {
            let target = target.max(1);
            for (service, cluster, flows) in self.memory.services_with_flows() {
                let Some(cluster) = cluster else {
                    continue; // cloud-served flows have no replicas to scale
                };
                let name = self.catalog.name_of(service);
                let status = self.clusters[cluster.0].status_of(now, service, name);
                if !status.created {
                    continue;
                }
                let want = (flows as u32).div_ceil(target);
                let have = status.desired_replicas.max(status.ready_replicas);
                if want <= have {
                    continue;
                }
                // Admission: never scale past the site's declared capacity.
                let demand = self.demand_of(cluster, service);
                let site = &mut self.clusters[cluster.0];
                let granted = demand.map_or(want, |d| {
                    site.max_replicas_within_capacity(service, d, want)
                });
                if granted < want {
                    self.stats.admission_rejections += 1;
                    self.last_admission_error = Some(AdmissionError::Capacity {
                        cluster,
                        shortfall: CapacityShortfall::Replicas {
                            requested: want,
                            free: granted,
                        },
                    });
                }
                if granted > have && site.backend.scale_up(now, name, granted).is_ok() {
                    self.stats.autoscale_ups += 1;
                    if let Some(demand) = demand {
                        let over = site.set_booking(service, demand, granted);
                        self.stats.capacity_violations += u64::from(over);
                    }
                }
            }
        }

        let mut expired = std::mem::take(&mut self.expired_scratch);
        self.memory.expire_into(now, &mut expired);
        if self.config.scale_down_idle {
            // Group by (service, cluster); scale down instances nobody
            // references anymore. Candidates whose backend call failed on an
            // earlier pass retry once their back-off is due.
            let mut candidates = std::mem::take(&mut self.candidates_scratch);
            candidates.extend(
                expired
                    .iter()
                    .filter_map(|f| f.cluster.map(|c| (f.service, c))),
            );
            candidates.extend(
                self.scale_down_retries
                    .take_due(now)
                    .map(|(_, cluster, service)| (service, cluster)),
            );
            candidates.sort();
            candidates.dedup();
            for &(service, cluster) in &candidates {
                if self.memory.flows_for_service(service, Some(cluster)) == 0 {
                    let name = self.catalog.name_of(service);
                    let site = &mut self.clusters[cluster.0];
                    if site.status_of(now, service, name).ready_replicas == 0 {
                        continue; // already down (or never revived)
                    }
                    if site.backend.scale_down(now, name, 0).is_ok() {
                        self.stats.scale_downs += 1;
                        site.release(service);
                        self.push_delta(now, cluster, service, DeltaKind::Gone);
                        self.scaled_to_zero.insert((cluster, service), now);
                    } else {
                        // Transient backend fault (e.g. a flaky cluster API):
                        // keep the instance a candidate and retry after the
                        // configured back-off instead of leaking it forever.
                        self.scale_down_retries.push(
                            now + self.config.retry_backoff,
                            cluster,
                            service,
                        );
                    }
                }
            }
            candidates.clear();
            self.candidates_scratch = candidates;
        }
        expired.clear();
        self.expired_scratch = expired;

        // Remove phase (Fig. 4): services idle at zero replicas long enough
        // are deleted entirely; their cached images stay on disk, so a later
        // request pays Create + Scale-Up but not Pull.
        if let Some(remove_after) = self.config.remove_after {
            for (cluster, service) in self.scaled_to_zero.take_idle(now, remove_after) {
                let name = self.catalog.name_of(service);
                let site = &mut self.clusters[cluster.0];
                // A request may have revived the service in the meantime.
                if site.status_of(now, service, name).ready_replicas == 0
                    && site.backend.remove(now, name).is_ok()
                {
                    self.stats.removals += 1;
                    site.release(service);
                    self.push_delta(now, cluster, service, DeltaKind::Gone);
                }
            }
        }
    }
}
