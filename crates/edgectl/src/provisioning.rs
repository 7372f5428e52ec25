//! Provisioning policies ported from Cohen et al.
//!
//! Two provable-guarantee algorithms from the related work, adapted to the
//! paper's FAST/BEST decision interface:
//!
//! * `BoundedCostProvisioning` — the rent-or-buy (ski-rental) scheme of
//!   *"Dynamic service provisioning in the edge-cloud continuum with bounded
//!   resources"* (arXiv:2202.08903). Serving a request remotely "rents" at
//!   the latency gap between the remote location and the best edge site;
//!   deploying "buys" at a fixed cost. The policy deploys once the
//!   accumulated rent of a service reaches the deployment cost, which bounds
//!   total cost to at most twice the offline optimum (the classic 2-
//!   competitive ski-rental argument).
//! * `TierSpillPlacement` — the distributed asynchronous placement of
//!   *"A scalable multi-tier edge-cloud placement"* line (arXiv:2312.11187):
//!   sites are ordered into latency tiers; each request is served by the
//!   lowest tier holding a ready instance and placed at the lowest tier with
//!   spare capacity, spilling upward tier by tier with the cloud as the
//!   infinite top tier. No request is ever rejected (every placement either
//!   fits a tier or lands in the cloud).
//!
//! Both consult the [`SchedulingContext`]'s capacity/label eligibility, so
//! under finite [`cluster::SiteCapacity`] they only ever nominate sites the
//! dispatcher will admit.

use simcore::SimDuration;

use crate::scheduler::{
    nearest, ClusterId, ClusterView, Decision, GlobalScheduler, SchedulingContext,
};

/// Ski-rental dynamic service provisioning (arXiv:2202.08903).
#[derive(Debug, Clone)]
pub(crate) struct BoundedCostProvisioning {
    /// The "buy" price: accumulated remote-serving rent (in seconds of extra
    /// latency) that triggers an edge deployment.
    pub deploy_cost_secs: f64,
    /// Latency assumed for cloud-served requests when no edge instance is
    /// ready anywhere (the views carry no cloud distance).
    pub cloud_latency: SimDuration,
    /// Accumulated rent per service since its last deployment decision: a
    /// dense lane indexed by [`ServiceId`](crate::ServiceId), zero for a
    /// service that owes none.
    accrued: Vec<f64>,
}

impl Default for BoundedCostProvisioning {
    fn default() -> Self {
        BoundedCostProvisioning {
            deploy_cost_secs: 1.0,
            cloud_latency: SimDuration::from_millis(40),
            accrued: Vec::new(),
        }
    }
}

impl GlobalScheduler for BoundedCostProvisioning {
    fn name(&self) -> &'static str {
        "bounded-cost"
    }

    fn decide(&mut self, ctx: &SchedulingContext<'_>) -> Decision {
        let fast = nearest(ctx.views, |v| v.status.is_ready());
        // The "buy" target: the nearest site that would admit the service.
        let Some(candidate) = nearest(ctx.views, |v| ctx.eligible(v) || v.status.is_ready()) else {
            return match fast {
                Some(id) => Decision::fast(id),
                None => Decision::cloud(),
            };
        };
        let candidate_view = &ctx.views[ctx
            .views
            .iter()
            .position(|v| v.id == candidate)
            .expect("nearest returns an id from views")];
        if candidate_view.status.is_ready() {
            // Already bought: serve at the optimum, reset the meter.
            *ctx.service.slot(&mut self.accrued) = 0.0;
            return Decision::fast(candidate);
        }
        if candidate_view.deploying {
            // Purchase in progress — keep renting without double-paying.
            return match fast {
                Some(id) => Decision::fast(id),
                None => Decision::cloud(),
            };
        }
        // Rent: the latency gap this request pays by being served remotely.
        let remote = match fast {
            Some(id) => {
                ctx.views
                    .iter()
                    .find(|v| v.id == id)
                    .expect("fast id comes from views")
                    .distance
            }
            None => self.cloud_latency,
        };
        let rent = (remote.as_secs_f64() - candidate_view.distance.as_secs_f64()).max(0.0);
        let paid = ctx.service.slot(&mut self.accrued);
        *paid += rent;
        if *paid >= self.deploy_cost_secs {
            // Buy: deploy at the candidate without waiting; the current
            // request still rents (FAST or cloud).
            *paid = 0.0;
            return Decision::serve_and_deploy(fast, Some(candidate));
        }
        match fast {
            Some(id) => Decision::fast(id),
            None => Decision::cloud(),
        }
    }
}

/// Multi-tier spill placement (arXiv:2312.11187).
#[derive(Debug, Clone, Default)]
pub(crate) struct TierSpillPlacement;

impl GlobalScheduler for TierSpillPlacement {
    fn name(&self) -> &'static str {
        "tier-spill"
    }

    fn decide(&mut self, ctx: &SchedulingContext<'_>) -> Decision {
        // Serve from the lowest tier with a ready instance.
        let fast = lowest_tier(ctx.views, |v| v.status.is_ready());
        // Place at the lowest tier that admits the service (a site already
        // running or deploying it counts as placed there).
        let place = lowest_tier(ctx.views, |v| {
            v.status.is_ready() || v.deploying || ctx.eligible(v)
        });
        match place {
            // Placement tier found: serve there if it is the ready one
            // (with-waiting deploy if nothing is ready anywhere).
            Some(p) => {
                if fast.is_none() && !ctx.views.iter().any(|v| v.id == p && v.deploying) {
                    // Nothing ready anywhere: deploy with waiting at the
                    // placement tier instead of bouncing off the cloud.
                    Decision::fast(p)
                } else {
                    Decision::serve_and_deploy(fast, Some(p))
                }
            }
            // Every tier is full: spill to the infinite top tier (cloud).
            None => match fast {
                Some(id) => Decision::fast(id),
                None => Decision::cloud(),
            },
        }
    }
}

/// The lowest tier passing `test`. Tiers are the latency order of the
/// views, ties broken on id (the same deterministic order every policy here
/// uses); ids are unique, so that tier is a minimum and no sort is needed.
fn lowest_tier(views: &[ClusterView], test: impl Fn(&ClusterView) -> bool) -> Option<ClusterId> {
    views
        .iter()
        .filter(|v| test(v))
        .min_by_key(|v| (v.distance, v.id))
        .map(|v| v.id)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cluster::{
        ClusterKind, DeploymentRequirements, ResourceAllocation, ResourceRequest, SiteCapacity,
    };
    use simcore::SimTime;

    use super::*;
    use crate::catalog::{ServiceCatalog, ServiceId};
    use crate::scheduler::testutil::view;
    use crate::scheduler::{ClusterId, ClusterView};

    fn ctx_decide(
        s: &mut impl GlobalScheduler,
        views: &[ClusterView],
        demand: ResourceRequest,
    ) -> Decision {
        let catalog = ServiceCatalog::new();
        let reqs = DeploymentRequirements::none();
        let ctx =
            SchedulingContext::new(ServiceId(7), views, demand, &reqs, &catalog, SimTime::ZERO);
        s.decide(&ctx)
    }

    fn full_site(id: usize, distance_ms: u64) -> ClusterView {
        let mut v = view(id, ClusterKind::Docker, distance_ms, false);
        v.capacity = SiteCapacity::new(100, 64);
        v.allocated = {
            let mut a = ResourceAllocation::default();
            a.add(&ResourceRequest::new(100, 64), 1);
            a
        };
        v
    }

    #[test]
    fn bounded_cost_rents_until_threshold_then_buys() {
        let mut s = BoundedCostProvisioning {
            deploy_cost_secs: 0.05,
            ..BoundedCostProvisioning::default()
        };
        // far ready instance (30ms), near empty site (2ms): rent 28ms/request
        let views = [
            view(0, ClusterKind::Docker, 2, false),
            view(1, ClusterKind::Docker, 30, true),
        ];
        let demand = ResourceRequest::new(100, 64);
        let d1 = ctx_decide(&mut s, &views, demand);
        assert_eq!(d1, Decision::fast(ClusterId(1)), "first request rents");
        let d2 = ctx_decide(&mut s, &views, demand);
        assert_eq!(
            d2,
            Decision::serve_and_deploy(Some(ClusterId(1)), Some(ClusterId(0))),
            "accrued 56ms ≥ 50ms: buy at the near site, keep serving far"
        );
        // once the near site is ready the meter resets and it serves
        let mut ready_views = views.clone();
        ready_views[0] = view(0, ClusterKind::Docker, 2, true);
        let d3 = ctx_decide(&mut s, &ready_views, demand);
        assert_eq!(d3, Decision::fast(ClusterId(0)));
    }

    #[test]
    fn bounded_cost_skips_full_sites() {
        let mut s = BoundedCostProvisioning {
            deploy_cost_secs: 0.0, // buy immediately
            ..BoundedCostProvisioning::default()
        };
        let views = [full_site(0, 2), view(1, ClusterKind::Docker, 30, true)];
        let d = ctx_decide(&mut s, &views, ResourceRequest::new(100, 64));
        assert_eq!(
            d,
            Decision::fast(ClusterId(1)),
            "full near site is not a candidate; the ready far site is optimal"
        );
    }

    #[test]
    fn bounded_cost_waits_while_deploying() {
        let mut s = BoundedCostProvisioning {
            deploy_cost_secs: 0.0,
            ..BoundedCostProvisioning::default()
        };
        let mut near = view(0, ClusterKind::Docker, 2, false);
        near.deploying = true;
        let views = [near, view(1, ClusterKind::Docker, 30, true)];
        let d = ctx_decide(&mut s, &views, ResourceRequest::new(100, 64));
        assert_eq!(d, Decision::fast(ClusterId(1)), "no double purchase");
    }

    #[test]
    fn tier_spill_places_at_lowest_tier_with_room() {
        let mut s = TierSpillPlacement;
        let views = [
            full_site(0, 1),
            view(1, ClusterKind::Docker, 5, false),
            view(2, ClusterKind::Docker, 20, true),
        ];
        let d = ctx_decide(&mut s, &views, ResourceRequest::new(100, 64));
        assert_eq!(
            d,
            Decision::serve_and_deploy(Some(ClusterId(2)), Some(ClusterId(1))),
            "tier 0 full → spill to tier 1; serve from the ready tier 2"
        );
    }

    #[test]
    fn tier_spill_deploys_with_waiting_when_nothing_ready() {
        let mut s = TierSpillPlacement;
        let views = [full_site(0, 1), view(1, ClusterKind::Docker, 5, false)];
        let d = ctx_decide(&mut s, &views, ResourceRequest::new(100, 64));
        assert_eq!(d, Decision::fast(ClusterId(1)), "with-waiting at tier 1");
    }

    #[test]
    fn tier_spill_spills_to_cloud_when_everything_full() {
        let mut s = TierSpillPlacement;
        let views = [full_site(0, 1), full_site(1, 5)];
        let d = ctx_decide(&mut s, &views, ResourceRequest::new(100, 64));
        assert_eq!(d, Decision::cloud(), "the cloud is the infinite top tier");
    }

    #[test]
    fn tier_spill_respects_labels() {
        let mut s = TierSpillPlacement;
        let near = view(0, ClusterKind::Docker, 1, false);
        let mut far = view(1, ClusterKind::Docker, 5, false);
        far.labels = Arc::from(vec!["gpu".to_owned()]);
        let catalog = ServiceCatalog::new();
        let mut reqs = DeploymentRequirements::none();
        reqs.label_match_all.push("gpu".to_owned());
        let views = [near, far];
        let ctx = SchedulingContext::new(
            ServiceId(7),
            &views,
            ResourceRequest::new(100, 64),
            &reqs,
            &catalog,
            SimTime::ZERO,
        );
        let d = s.decide(&ctx);
        assert_eq!(
            d,
            Decision::fast(ClusterId(1)),
            "only the gpu site qualifies"
        );
    }
}
