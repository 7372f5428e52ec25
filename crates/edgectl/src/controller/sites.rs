//! The attached sites: each backend with its snapshot cache, its admission
//! control and its resource bookings, plus the per-decision system view the
//! Global Scheduler reads. A site's bookings are edited only here.

use std::sync::Arc;

use cluster::{
    ClusterBackend, ResourceAllocation, ResourceRequest, Scope, ServiceStatus, SiteCapacity,
};
use simcore::{SimDuration, SimTime};
use simnet::openflow::PortId;
use simnet::SocketAddr;

use super::{Controller, SwitchId};
use crate::catalog::ServiceId;
use crate::dispatcher::AdmissionError;
use crate::scheduler::{ClusterId, ClusterView, Decision, SchedulingContext};

/// One attached cluster: the backend plus where it sits. The controller's
/// reads of service state — PacketIns, housekeeping and the deployment
/// machines' probes alike — go through [`AttachedCluster::snapshot`];
/// mutations call `backend` directly, and each stamps the scope it changes,
/// which invalidates the cached read.
pub(crate) struct AttachedCluster {
    pub(crate) backend: Box<dyn ClusterBackend>,
    /// Per-switch latency to this cluster's host; indexed by [`SwitchId`].
    /// "Nearest" is always relative to the requesting client's ingress
    /// switch.
    pub(super) distances: Vec<SimDuration>,
    /// Per-switch port leading (directly or via trunks) to this cluster's
    /// host; indexed by [`SwitchId`]. Single-switch setups have one entry.
    pub(super) ports: Vec<PortId>,
    /// Declared resources of the site ([`SiteCapacity::UNLIMITED`] unless
    /// [`Controller::configure_site`] says otherwise).
    pub(super) capacity: SiteCapacity,
    /// Placement labels the site advertises (matched against
    /// [`cluster::DeploymentRequirements`]).
    pub(super) labels: Arc<[String]>,
    /// Resources currently booked on the site: the sum of `admitted`.
    allocated: ResourceAllocation,
    /// Dense per-service bookings (DESIGN.md §5i), indexed by [`ServiceId`]:
    /// the per-replica demand a service was admitted at and how many
    /// replicas it holds; `None` for a service not booked here.
    admitted: Vec<Option<(ResourceRequest, u32)>>,
    /// Dense per-service snapshot cache (DESIGN.md §5i), indexed by
    /// [`ServiceId`]. Each entry is validated against the epoch of the
    /// backend scope it was read from and its own validity window before
    /// reuse, so a hit is exact — bit-identical to a fresh
    /// [`ClusterBackend::observe`].
    snap_cache: Vec<SnapEntry>,
}

/// One cached [`cluster::ServiceSnapshot`] plus the endpoint list that came
/// with it. The default is the slot of a service not read yet: no instant
/// validates it (`now < stable_until` never holds at `SimTime::ZERO`).
#[derive(Default)]
struct SnapEntry {
    scope: Scope,
    epoch: u64,
    snapped_at: SimTime,
    stable_until: SimTime,
    status: ServiceStatus,
    endpoints: Vec<SocketAddr>,
}

impl AttachedCluster {
    /// A site reachable via `port` on the primary switch, with unlimited
    /// capacity, no labels and nothing booked.
    pub(crate) fn new(
        backend: Box<dyn ClusterBackend>,
        distance: SimDuration,
        port: PortId,
    ) -> AttachedCluster {
        AttachedCluster {
            backend,
            distances: vec![distance],
            ports: vec![port],
            capacity: SiteCapacity::UNLIMITED,
            labels: Arc::from(Vec::new()),
            allocated: ResourceAllocation::default(),
            admitted: Vec::new(),
            snap_cache: Vec::new(),
        }
    }

    /// The controller's one accessor for backend service state: status +
    /// ready endpoints of `sid` at `now`, read from the backend only when
    /// `now` is outside the cached entry's validity window (earlier than the
    /// read — PDES re-stamping — or at or past `stable_until`) or the epoch
    /// of the scope it was read from has moved.
    pub(crate) fn snapshot(
        &mut self,
        now: SimTime,
        sid: ServiceId,
        name: &str,
    ) -> (&ServiceStatus, &[SocketAddr]) {
        let e = sid.slot(&mut self.snap_cache);
        if !(e.snapped_at <= now && now < e.stable_until && e.epoch == self.backend.epoch(e.scope))
        {
            // The entry keeps its endpoint buffer, so a re-read allocates
            // nothing in steady state.
            e.endpoints.clear();
            let snap = self.backend.observe(now, name, Some(&mut e.endpoints));
            e.scope = snap.scope;
            e.epoch = self.backend.epoch(snap.scope);
            e.snapped_at = now;
            e.stable_until = snap.stable_until;
            e.status = snap.status;
        }
        (&e.status, &e.endpoints)
    }

    /// The status half of [`AttachedCluster::snapshot`].
    pub(super) fn status_of(&mut self, now: SimTime, sid: ServiceId, name: &str) -> ServiceStatus {
        self.snapshot(now, sid, name).0.clone()
    }

    /// `sid`'s booking here, if it holds one.
    fn booking(&self, sid: ServiceId) -> Option<(ResourceRequest, u32)> {
        self.admitted.get(sid.0 as usize).copied().flatten()
    }

    /// Book `replicas` replicas of `sid` — grow, shrink, or release at zero.
    /// A service booked here keeps the per-replica demand it was admitted
    /// at; one not booked yet is booked at `demand`. Returns whether a
    /// booking or re-size leaves the site over capacity; a release never
    /// counts.
    pub(super) fn set_booking(
        &mut self,
        sid: ServiceId,
        demand: ResourceRequest,
        replicas: u32,
    ) -> bool {
        let (demand, booked) = self.booking(sid).unwrap_or((demand, 0));
        if replicas > booked {
            self.allocated.add(&demand, replicas - booked);
        } else {
            self.allocated.remove(&demand, booked - replicas);
        }
        *sid.slot(&mut self.admitted) = (replicas > 0).then_some((demand, replicas));
        replicas > 0 && self.allocated.exceeds(&self.capacity)
    }

    /// Release the booking `sid` holds here, if any.
    pub(super) fn release(&mut self, sid: ServiceId) {
        if let Some((demand, _)) = self.booking(sid) {
            self.set_booking(sid, demand, 0);
        }
    }

    /// [`AttachedCluster::set_booking`] for a service not booked here yet;
    /// a re-deployment reuses the reservation it holds.
    pub(super) fn book(&mut self, sid: ServiceId, demand: ResourceRequest, replicas: u32) -> bool {
        self.booking(sid).is_none() && self.set_booking(sid, demand, replicas)
    }

    /// Autoscale clamp: the largest total replica count of `sid`, at
    /// `demand` per replica, that fits here (its current booking counts as
    /// already paid for). Unlimited capacity grants everything.
    pub(super) fn max_replicas_within_capacity(
        &self,
        sid: ServiceId,
        demand: ResourceRequest,
        want: u32,
    ) -> u32 {
        let booked = self.booking(sid).map_or(0, |(_, r)| r);
        if self.capacity.is_unlimited() || want <= booked {
            return want;
        }
        let (capacity, allocated) = (&self.capacity, &self.allocated);
        let mut extra = want - booked;
        if demand.cpu_millis > 0 && capacity.cpu_millis != u32::MAX {
            let free = u64::from(capacity.cpu_millis).saturating_sub(allocated.cpu_millis);
            extra =
                extra.min(u32::try_from(free / u64::from(demand.cpu_millis)).unwrap_or(u32::MAX));
        }
        if demand.memory_mib > 0 && capacity.memory_mib != u64::MAX {
            let free = capacity.memory_mib.saturating_sub(allocated.memory_mib);
            extra = extra.min(u32::try_from(free / demand.memory_mib).unwrap_or(u32::MAX));
        }
        if capacity.max_replicas != u32::MAX {
            extra = extra.min(capacity.max_replicas.saturating_sub(allocated.replicas));
        }
        booked + extra
    }
}

impl Controller {
    /// Declare a site's resource capacity and placement labels (defaults:
    /// [`SiteCapacity::UNLIMITED`], no labels). Scheduling decisions that
    /// would overrun the declared capacity are rejected by admission control
    /// and fall through to the next-best site or the cloud.
    pub fn configure_site(&mut self, id: ClusterId, capacity: SiteCapacity, labels: Vec<String>) {
        let site = &mut self.clusters[id.0];
        site.capacity = capacity;
        site.labels = Arc::from(labels);
    }

    /// Resources currently booked on a site by admitted deployments.
    pub fn site_allocation(&self, id: ClusterId) -> ResourceAllocation {
        self.clusters[id.0].allocated
    }

    /// A site's declared capacity.
    pub fn site_capacity(&self, id: ClusterId) -> SiteCapacity {
        self.clusters[id.0].capacity
    }

    /// Book resources for instances started outside the controller's own
    /// pipeline (testbed prewarm): `replicas` replicas of `service` running
    /// on `cluster`. No-op if the service is already booked there.
    pub fn note_external_deployment(
        &mut self,
        cluster: ClusterId,
        service: ServiceId,
        replicas: u32,
    ) {
        let Some(demand) = self.demand_of(cluster, service) else {
            return;
        };
        let over = self.clusters[cluster.0].book(service, demand, replicas.max(1));
        self.stats.capacity_violations += u64::from(over);
    }

    /// The most recent admission rejection, if any (cleared never,
    /// overwritten on each rejection).
    #[cfg(test)]
    pub(crate) fn last_admission_error(&self) -> Option<&AdmissionError> {
        self.last_admission_error.as_ref()
    }

    /// The per-replica demand of `sid` on `cluster`: what its booking there
    /// was admitted at, else what the catalog registers.
    pub(super) fn demand_of(&self, cluster: ClusterId, sid: ServiceId) -> Option<ResourceRequest> {
        let booked = self.clusters[cluster.0].booking(sid).map(|(d, _)| d);
        booked.or_else(|| Some(self.catalog.get(sid)?.demand))
    }

    /// Run the Global Scheduler for registered service `sid`, as seen from
    /// switch `sw`. The Dispatcher's system view it decides on — per-cluster
    /// status at `now`, including whether a deployment is in flight there —
    /// stays in `views_scratch` until the next decision.
    pub(super) fn decide(&mut self, now: SimTime, sid: ServiceId, sw: SwitchId) -> Decision {
        let service = self
            .catalog
            .get(sid)
            .expect("only a registered service is scheduled");
        let name = self.catalog.name_of(sid);
        let views = &mut self.views_scratch;
        views.clear();
        for (i, c) in self.clusters.iter_mut().enumerate() {
            let deploying = self.dispatcher.find(ClusterId(i), sid).is_some();
            let status = c.status_of(now, sid, name);
            views.push(
                ClusterView::builder(ClusterId(i), c.backend.kind(), c.distances[sw.0], status)
                    .load(c.backend.load())
                    .deploying(deploying)
                    .capacity(c.capacity)
                    .allocated(c.allocated)
                    .labels(Arc::clone(&c.labels))
                    .build(),
            );
        }
        debug_assert_eq!(service.demand, service.template.resource_request());
        let ctx = SchedulingContext::new(
            sid,
            views,
            service.demand,
            &service.template.requirements,
            &self.catalog,
            now,
        );
        self.global.decide(&ctx)
    }

    /// Is a deployment of `sid` at `cluster` already in flight, or an
    /// instance already ready there? Either way no new
    /// replicas would start, so admission control does not apply.
    pub(super) fn deployment_exists(
        &mut self,
        now: SimTime,
        cluster: ClusterId,
        sid: ServiceId,
    ) -> bool {
        self.dispatcher.find(cluster, sid).is_some()
            || self.clusters[cluster.0]
                .status_of(now, sid, self.catalog.name_of(sid))
                .is_ready()
    }

    /// Admission control for starting a new deployment of `sid` at
    /// `cluster`: placement labels first, then capacity against the current
    /// allocation (a service already booked there re-admits for free — its
    /// resources are still reserved). Returns whether the site admits it;
    /// a rejection is counted and recorded.
    pub(super) fn admit(&mut self, cluster: ClusterId, sid: ServiceId) -> bool {
        let service = self
            .catalog
            .get(sid)
            .expect("only a registered service is admitted");
        let site = &self.clusters[cluster.0];
        let err = if let Some(label) = service.template.requirements.first_unmet(&site.labels) {
            AdmissionError::RequirementsUnmet {
                cluster,
                label: label.to_owned(),
            }
        } else if site.booking(sid).is_some() {
            return true;
        } else {
            match site.capacity.admits(&site.allocated, &service.demand) {
                Ok(()) => return true,
                Err(shortfall) => AdmissionError::Capacity { cluster, shortfall },
            }
        };
        self.stats.admission_rejections += 1;
        self.last_admission_error = Some(err);
        false
    }
}

#[cfg(test)]
mod tests {
    use cluster::{DockerCluster, ServiceTemplate};
    use containers::Runtime;
    use simcore::{DurationDist, SimRng};
    use simnet::IpAddr;

    use super::*;
    use crate::controller::ControllerConfig;

    /// The site's allocation is the sum of its bookings.
    fn assert_allocation_is_the_bookings(site: &AttachedCluster) {
        let mut sum = ResourceAllocation::default();
        for (demand, replicas) in site.admitted.iter().flatten() {
            sum.add(demand, *replicas);
        }
        assert_eq!(site.allocated, sum);
    }

    /// The prewarm path books without admission, so it can over-book a site:
    /// each booking that leaves it over capacity is one violation. A release
    /// never counts, even one that leaves the site over capacity, and neither
    /// does a shrink back within it.
    #[test]
    fn an_over_booking_counts_once_and_its_unwinding_never() {
        let rng = SimRng::seed_from_u64(1);
        let backend = DockerCluster::new(
            "edge",
            IpAddr::new(10, 0, 0, 100),
            Runtime::egs(rng.stream("rt")),
            rng.stream("docker"),
        );
        let mut c = Controller::builder(ControllerConfig::default()).build();
        let site = c.attach_cluster(Box::new(backend), SimDuration::from_millis(1), PortId(1));
        let capacity = SiteCapacity {
            max_replicas: 2,
            ..SiteCapacity::UNLIMITED
        };
        c.configure_site(site, capacity, Vec::new());
        let [a, b, d] = [1u8, 2, 3].map(|s| {
            let template = ServiceTemplate::single(
                format!("svc-{s}"),
                "nginx",
                80,
                DurationDist::constant_ms(1.0),
            );
            c.catalog
                .register(SocketAddr::new(IpAddr::new(93, 184, 0, s), 80), template);
            c.catalog.id_of(&format!("svc-{s}")).expect("registered")
        });
        let step = |c: &Controller, replicas: u32, violations: u64| {
            assert_eq!(c.site_allocation(site).replicas, replicas);
            assert_eq!(c.stats.capacity_violations, violations);
            assert_allocation_is_the_bookings(&c.clusters[site.0]);
        };

        c.note_external_deployment(site, a, 2);
        step(&c, 2, 0);
        c.note_external_deployment(site, b, 1);
        step(&c, 3, 1);
        c.note_external_deployment(site, d, 1);
        step(&c, 4, 2);
        c.clusters[site.0].release(d);
        step(&c, 3, 2);
        let demand = c.demand_of(site, a).expect("booked");
        let over = c.clusters[site.0].set_booking(a, demand, 1);
        assert!(!over, "a shrink back within capacity");
        step(&c, 2, 2);
        c.clusters[site.0].release(b);
        step(&c, 1, 2);
    }
}
