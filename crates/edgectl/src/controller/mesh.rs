//! The mesh federation surface (the `edgemesh` crate drives it): the
//! deployment-lease gate, the status deltas a controller gossips, and the
//! hooks that apply a peer's delta or a revoked lease.

use simcore::SimTime;

use super::{Controller, ControllerOutput, DeltaKind, StatusDelta};
use crate::catalog::ServiceId;
use crate::dispatcher::DeployError;
use crate::scheduler::ClusterId;

impl Controller {
    /// Take the status deltas produced since the last drain. Empty unless the
    /// controller was built with
    /// [`ControllerBuilder::emit_status_deltas`](super::ControllerBuilder::emit_status_deltas).
    pub fn drain_status_deltas(&mut self) -> Vec<StatusDelta> {
        std::mem::take(&mut self.status_deltas)
    }

    /// Abort the in-flight deployment machine for `(cluster, service)`: the
    /// deployment lease was revoked because another shard won the
    /// window-boundary merge for the same decision. Routes through the
    /// ordinary failure path (`DeployError::LeaseRevoked`) so bookings are
    /// released, Remove-phase bookkeeping is restored, a `Gone` delta is
    /// emitted and every held request falls back to the cloud. Returns the
    /// resulting controller outputs; `None` if no such machine is in flight.
    pub fn abort_deployment(
        &mut self,
        now: SimTime,
        cluster: ClusterId,
        service: ServiceId,
    ) -> Option<Vec<ControllerOutput>> {
        self.dispatcher.find(cluster, service)?;
        let key = (cluster, service);
        // Fail at the abort instant, not the machine's own next step:
        // `fail_machine` stamps the failure (and the `Gone` delta) with
        // `next_step`.
        self.dispatcher.reschedule(key, now);
        let mut out = Vec::new();
        self.fail_machine(key, DeployError::LeaseRevoked, &mut out);
        Some(out)
    }

    /// Apply a status delta gossiped from a mesh peer. `Ready` schedules a
    /// retarget of every memorized flow of the service toward the announced
    /// instance (validated against the shared backend when the retarget
    /// drains, so a raced scale-down is harmless); `Gone` is recorded only —
    /// FlowMemory recall already re-checks backend readiness, so stale
    /// entries self-heal on the next PacketIn.
    pub fn apply_remote_delta(&mut self, now: SimTime, delta: &StatusDelta) {
        self.stats.remote_deltas += 1;
        match delta.kind {
            DeltaKind::Ready => self.schedule_retarget(now, delta.cluster, delta.service),
            DeltaKind::Gone => {}
        }
    }

    pub(super) fn gate_acquire(
        &mut self,
        now: SimTime,
        cluster: ClusterId,
        service: ServiceId,
    ) -> bool {
        match &mut self.gate {
            Some(g) => g.try_acquire(now, cluster, service),
            None => true,
        }
    }

    pub(super) fn gate_release(&mut self, now: SimTime, cluster: ClusterId, service: ServiceId) {
        if let Some(g) = &mut self.gate {
            g.release(now, cluster, service);
        }
    }

    pub(super) fn push_delta(
        &mut self,
        origin: SimTime,
        cluster: ClusterId,
        service: ServiceId,
        kind: DeltaKind,
    ) {
        if self.emit_deltas {
            self.status_deltas.push(StatusDelta {
                origin,
                cluster,
                service,
                kind,
            });
        }
    }
}
