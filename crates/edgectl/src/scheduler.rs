//! The pluggable schedulers (paper Fig. 6).
//!
//! * The **Global Scheduler** chooses the edge *cluster*. It receives the
//!   Dispatcher's view of every cluster (a [`SchedulingContext`]: cluster
//!   views, the service's id, resource demand and placement requirements)
//!   and returns two results (paper §IV-B): **FAST** — the fastest location
//!   for the *current* request — and **BEST** — the best location for
//!   *future* requests. BEST is empty when it equals FAST; FAST
//!   empty means "forward toward the cloud".
//!   If FAST == BEST and no instance runs there yet, the Dispatcher performs
//!   on-demand deployment **with waiting** (the request is held). If BEST is
//!   non-empty and differs from FAST, deployment runs at BEST **without
//!   waiting** while the request goes to FAST (or the cloud).
//! * The **Local Scheduler** picks a specific instance inside a cluster —
//!   on Kubernetes this may be the default kube-scheduler or a custom one
//!   (the controller's annotation step writes its name into the manifest).
//!
//! A `Decision` is advisory: the dispatcher re-checks capacity at admission
//! time (see `AdmissionError` in [`crate::dispatcher`]) so a policy that
//! targets a full site falls through to next-best/cloud instead of
//! overcommitting it.
//!
//! The paper loads the concrete scheduler from controller configuration; here
//! the same role is played by trait objects handed to the controller, and
//! configuration-driven selection goes through `SchedulerRegistry` (in
//! [`crate::policy`]).

use std::cmp::Ordering;
use std::sync::Arc;

use cluster::{
    ClusterKind, DeploymentRequirements, ResourceAllocation, ResourceRequest, ServiceStatus,
    SiteCapacity,
};
use simcore::{SimDuration, SimTime};

use crate::catalog::{ServiceCatalog, ServiceId};

/// Index of a cluster in the controller's cluster list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub usize);

/// A CPU load fraction, clamped to `0.0..=1.0` with a total order (NaN maps
/// to 0.0 at construction, so comparisons never hit the partial-order trap
/// raw `f64` loads had).
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadFraction(f64);

impl LoadFraction {
    pub(crate) const ZERO: LoadFraction = LoadFraction(0.0);

    /// Clamp `raw` into `[0, 1]`; NaN becomes 0 (an unknown load must not
    /// poison scheduler comparisons).
    pub(crate) fn new(raw: f64) -> LoadFraction {
        if raw.is_nan() {
            LoadFraction(0.0)
        } else {
            LoadFraction(raw.clamp(0.0, 1.0))
        }
    }

    pub(crate) fn value(self) -> f64 {
        self.0
    }
}

impl PartialEq for LoadFraction {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for LoadFraction {}
impl PartialOrd for LoadFraction {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LoadFraction {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// What the Dispatcher tells the Global Scheduler about one cluster
/// (paper: "the Dispatcher component … feeds the Scheduler with information
/// about the current system state").
///
/// `#[non_exhaustive]`: construct through [`ClusterView::builder`] so new
/// fields (as capacity/allocation were) don't break policy crates.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ClusterView {
    pub id: ClusterId,
    pub kind: ClusterKind,
    /// Network latency from the requesting client's ingress switch.
    pub distance: SimDuration,
    /// State of the requested service on this cluster.
    pub status: ServiceStatus,
    /// CPU load fraction for load-aware policies.
    pub load: LoadFraction,
    /// A dispatcher state machine is mid-flight deploying this service here.
    /// Policies can use it to avoid double-deploying or to prefer a cluster
    /// that will be ready soon; the built-in paper policies ignore it (their
    /// decisions predate deployment visibility and must stay byte-identical).
    pub deploying: bool,
    /// The site's resource budget ([`SiteCapacity::UNLIMITED`] by default —
    /// the paper's implicit setting).
    pub capacity: SiteCapacity,
    /// What admission control has already booked onto the site.
    pub allocated: ResourceAllocation,
    /// Operator labels on the site (matched against a service's
    /// [`DeploymentRequirements`]).
    pub labels: Arc<[String]>,
}

impl ClusterView {
    /// Start building a view; unset fields default to idle/unlimited.
    pub fn builder(
        id: ClusterId,
        kind: ClusterKind,
        distance: SimDuration,
        status: ServiceStatus,
    ) -> ClusterViewBuilder {
        ClusterViewBuilder {
            view: ClusterView {
                id,
                kind,
                distance,
                status,
                load: LoadFraction::ZERO,
                deploying: false,
                capacity: SiteCapacity::UNLIMITED,
                allocated: ResourceAllocation::default(),
                // An empty `Arc<[T]>` default shares one static allocation:
                // a view built per site on every PacketIn allocates nothing.
                labels: Arc::default(),
            },
        }
    }

    /// Would this site admit one more deployment of `demand` under
    /// `requirements`? (The same predicate the dispatcher enforces at
    /// admission time.)
    pub(crate) fn admits(
        &self,
        demand: &ResourceRequest,
        requirements: &DeploymentRequirements,
    ) -> bool {
        requirements.satisfied_by(&self.labels)
            && self.capacity.admits(&self.allocated, demand).is_ok()
    }

    fn has_ready_instance(&self) -> bool {
        self.status.is_ready()
    }
}

/// Fluent constructor for [`ClusterView`] (the struct is
/// `#[non_exhaustive]`).
#[derive(Debug, Clone)]
pub struct ClusterViewBuilder {
    view: ClusterView,
}

impl ClusterViewBuilder {
    /// Raw load in; clamped into a [`LoadFraction`].
    pub(crate) fn load(mut self, load: f64) -> ClusterViewBuilder {
        self.view.load = LoadFraction::new(load);
        self
    }

    pub(crate) fn deploying(mut self, deploying: bool) -> ClusterViewBuilder {
        self.view.deploying = deploying;
        self
    }

    pub fn capacity(mut self, capacity: SiteCapacity) -> ClusterViewBuilder {
        self.view.capacity = capacity;
        self
    }

    pub(crate) fn allocated(mut self, allocated: ResourceAllocation) -> ClusterViewBuilder {
        self.view.allocated = allocated;
        self
    }

    pub fn labels(mut self, labels: Arc<[String]>) -> ClusterViewBuilder {
        self.view.labels = labels;
        self
    }

    pub fn build(self) -> ClusterView {
        self.view
    }
}

/// Everything a Global Scheduler may consult for one decision. Grown behind
/// [`SchedulingContext::new`] (`#[non_exhaustive]`) so adding inputs no
/// longer breaks the `GlobalScheduler` trait.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SchedulingContext<'a> {
    /// The requested service.
    pub service: ServiceId,
    /// Per-cluster views, ordered by the controller's cluster list;
    /// distances are from the requesting client's ingress switch.
    pub views: &'a [ClusterView],
    /// The service's per-replica resource demand.
    pub demand: ResourceRequest,
    /// The service's placement constraints.
    pub requirements: &'a DeploymentRequirements,
    /// Decision instant (virtual time).
    pub now: SimTime,
}

impl<'a> SchedulingContext<'a> {
    /// The context of one decision. `_catalog` is not read — no policy
    /// needs the catalog — and goes once `edgebench`'s scheduler replay
    /// (built outside the workspace) stops passing it.
    pub fn new(
        service: ServiceId,
        views: &'a [ClusterView],
        demand: ResourceRequest,
        requirements: &'a DeploymentRequirements,
        _catalog: &ServiceCatalog,
        now: SimTime,
    ) -> SchedulingContext<'a> {
        SchedulingContext {
            service,
            views,
            demand,
            requirements,
            now,
        }
    }

    /// Is `view` an eligible deployment target for this request (labels
    /// satisfied, capacity left)?
    pub(crate) fn eligible(&self, view: &ClusterView) -> bool {
        view.admits(&self.demand, self.requirements)
    }
}

/// The Global Scheduler's verdict. Construct via `Decision::cloud`,
/// `Decision::fast` or `Decision::serve_and_deploy` — not struct
/// literals — so the layout can evolve.
#[must_use = "a scheduling decision does nothing until the dispatcher acts on it"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Cluster for the *current* request; `None` = forward toward the cloud
    /// (or, when equal to `best`, wait for the deployment there).
    pub fast: Option<ClusterId>,
    /// Cluster to deploy at for *future* requests; `None` = same as `fast`.
    pub best: Option<ClusterId>,
}

impl Decision {
    /// Forward toward the cloud; deploy nowhere.
    pub(crate) fn cloud() -> Decision {
        Decision {
            fast: None,
            best: None,
        }
    }

    /// Serve at `id` — redirecting if an instance is ready, else deploying
    /// there *with waiting* (paper Fig. 5).
    pub(crate) fn fast(id: ClusterId) -> Decision {
        Decision {
            fast: Some(id),
            best: None,
        }
    }

    /// General form: serve at `fast` (or the cloud) while deploying at
    /// `best` for the future. Normalizes `best == fast` to an empty BEST —
    /// the canonical encoding every paper policy uses.
    pub(crate) fn serve_and_deploy(fast: Option<ClusterId>, best: Option<ClusterId>) -> Decision {
        Decision {
            fast,
            best: if best == fast { None } else { best },
        }
    }

    /// Normalized accessor: where should future requests land?
    pub(crate) fn target_for_future(&self) -> Option<ClusterId> {
        self.best.or(self.fast)
    }

    /// Is this decision an on-demand deployment *without* waiting
    /// (deploy at BEST while the current request goes elsewhere)?
    pub(crate) fn is_without_waiting(&self) -> bool {
        self.best.is_some() && self.best != self.fast
    }
}

/// Picks the cluster(s) for a request.
pub trait GlobalScheduler: Send {
    fn name(&self) -> &'static str;

    /// Decide FAST and BEST for the request described by `ctx` (views,
    /// service id and demand).
    fn decide(&mut self, ctx: &SchedulingContext<'_>) -> Decision;
}

/// Picks an instance (replica) within a cluster.
pub trait LocalScheduler: Send {
    /// Choose a replica index in `[0, ready_replicas)`.
    fn pick(&mut self, service: ServiceId, ready_replicas: u32) -> u32;
}

// Already-boxed trait objects remain usable where an `impl GlobalScheduler`
// is expected (e.g. `ControllerBuilder::global` after a registry lookup
// produced a `Box<dyn GlobalScheduler>`).
impl GlobalScheduler for Box<dyn GlobalScheduler> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn decide(&mut self, ctx: &SchedulingContext<'_>) -> Decision {
        (**self).decide(ctx)
    }
}

impl LocalScheduler for Box<dyn LocalScheduler> {
    fn pick(&mut self, service: ServiceId, ready_replicas: u32) -> u32 {
        (**self).pick(service, ready_replicas)
    }
}

// ---------------------------------------------------------------------------
// Global scheduler policies
// ---------------------------------------------------------------------------

/// The paper's *with waiting* policy: always choose the nearest eligible
/// cluster for both FAST and BEST, even if nothing runs there yet — the
/// Dispatcher will deploy and hold the request (paper Fig. 5).
#[derive(Debug, Default, Clone)]
pub struct NearestWaiting;

impl GlobalScheduler for NearestWaiting {
    fn name(&self) -> &'static str {
        "nearest-waiting"
    }

    fn decide(&mut self, ctx: &SchedulingContext<'_>) -> Decision {
        match nearest(ctx.views, |_| true) {
            Some(id) => Decision::fast(id),
            None => Decision::cloud(),
        }
    }
}

/// The paper's *without waiting* policy (Fig. 3): FAST = nearest cluster with
/// a **ready instance** (None → the request goes to the cloud); BEST = the
/// nearest cluster overall. If they coincide, BEST is reported empty.
#[derive(Debug, Default, Clone)]
pub struct NearestReadyFirst;

impl GlobalScheduler for NearestReadyFirst {
    fn name(&self) -> &'static str {
        "nearest-ready-first"
    }

    fn decide(&mut self, ctx: &SchedulingContext<'_>) -> Decision {
        let fast = nearest(ctx.views, ClusterView::has_ready_instance);
        let overall = nearest(ctx.views, |_| true);
        Decision::serve_and_deploy(fast, overall)
    }
}

/// §VII's hybrid: respond fast via a **Docker** cluster, settle on
/// **Kubernetes** for the long run. FAST prefers (ready instance anywhere) >
/// (nearest Docker cluster, deploying with waiting); BEST is the nearest
/// Kubernetes cluster.
#[derive(Debug, Default, Clone)]
pub(crate) struct HybridDockerFirst;

impl GlobalScheduler for HybridDockerFirst {
    fn name(&self) -> &'static str {
        "hybrid-docker-first"
    }

    fn decide(&mut self, ctx: &SchedulingContext<'_>) -> Decision {
        let ready = nearest(ctx.views, ClusterView::has_ready_instance);
        let docker = nearest(ctx.views, |v| v.kind == ClusterKind::Docker);
        let k8s = nearest(ctx.views, |v| v.kind == ClusterKind::Kubernetes);
        let fast = ready.or(docker).or(k8s);
        Decision::serve_and_deploy(fast, k8s)
    }
}

/// §VIII side-by-side operation of containers and serverless: a WebAssembly
/// runtime answers the first request (its instantiation is near-instant, so
/// even *with waiting* the request barely waits), while the BEST choice is a
/// container cluster that takes over once its instance is up — keeping the
/// flexibility/compatibility containers offer for the steady state.
#[derive(Debug, Default, Clone)]
pub(crate) struct HybridWasmFirst;

impl GlobalScheduler for HybridWasmFirst {
    fn name(&self) -> &'static str {
        "hybrid-wasm-first"
    }

    fn decide(&mut self, ctx: &SchedulingContext<'_>) -> Decision {
        let ready = nearest(ctx.views, ClusterView::has_ready_instance);
        let wasm = nearest(ctx.views, |v| v.kind == ClusterKind::Wasm);
        let container = nearest(ctx.views, |v| {
            matches!(v.kind, ClusterKind::Docker | ClusterKind::Kubernetes)
        });
        let fast = ready.or(wasm).or(container);
        Decision::serve_and_deploy(fast, container)
    }
}

/// Load-aware ablation policy: like [`NearestWaiting`] but weighs distance by
/// the cluster's CPU load, spilling to farther clusters when the near one is
/// saturated.
#[derive(Debug, Clone)]
pub(crate) struct LeastLoaded {
    /// How strongly load inflates effective distance (0 = ignore load).
    pub load_weight: f64,
}

impl Default for LeastLoaded {
    fn default() -> Self {
        LeastLoaded { load_weight: 2.0 }
    }
}

impl GlobalScheduler for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn decide(&mut self, ctx: &SchedulingContext<'_>) -> Decision {
        let best = ctx
            .views
            .iter()
            .min_by(|a, b| {
                let score = |v: &ClusterView| {
                    v.distance.as_secs_f64() * (1.0 + self.load_weight * v.load.value())
                };
                score(a).total_cmp(&score(b)).then(a.id.cmp(&b.id))
            })
            .map(|v| v.id);
        match best {
            Some(id) => Decision::fast(id),
            None => Decision::cloud(),
        }
    }
}

pub(crate) fn nearest(
    views: &[ClusterView],
    pred: impl Fn(&ClusterView) -> bool,
) -> Option<ClusterId> {
    views
        .iter()
        .filter(|v| pred(v))
        .min_by(|a, b| a.distance.cmp(&b.distance).then(a.id.cmp(&b.id)))
        .map(|v| v.id)
}

// ---------------------------------------------------------------------------
// Local scheduler policies
// ---------------------------------------------------------------------------

/// Round-robin over ready replicas.
#[derive(Debug, Default, Clone)]
pub struct RoundRobinLocal {
    counter: u64,
}

impl LocalScheduler for RoundRobinLocal {
    fn pick(&mut self, _service: ServiceId, ready_replicas: u32) -> u32 {
        if ready_replicas == 0 {
            return 0;
        }
        let pick = (self.counter % ready_replicas as u64) as u32;
        self.counter += 1;
        pick
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A test view: `ready` controls whether an instance is up.
    pub(crate) fn view(id: usize, kind: ClusterKind, distance_ms: u64, ready: bool) -> ClusterView {
        ClusterView::builder(
            ClusterId(id),
            kind,
            SimDuration::from_millis(distance_ms),
            ServiceStatus {
                images_cached: true,
                created: ready,
                desired_replicas: ready as u32,
                ready_replicas: ready as u32,
                endpoint: None,
            },
        )
        .build()
    }

    /// Decide with an empty catalog, no placement constraints and the
    /// default 250m/128Mi demand — the pre-capacity call shape.
    pub(crate) fn decide(s: &mut impl GlobalScheduler, views: &[ClusterView]) -> Decision {
        let catalog = ServiceCatalog::new();
        let reqs = DeploymentRequirements::none();
        let ctx = SchedulingContext::new(
            ServiceId(0),
            views,
            ResourceRequest::new(250, 128),
            &reqs,
            &catalog,
            SimTime::ZERO,
        );
        s.decide(&ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{decide, view};
    use super::*;

    #[test]
    fn load_fraction_clamps_and_orders() {
        assert_eq!(LoadFraction::new(-0.5), LoadFraction::ZERO);
        assert_eq!(LoadFraction::new(1.5), LoadFraction::new(1.0));
        assert_eq!(LoadFraction::new(f64::NAN), LoadFraction::ZERO);
        let mut loads = [
            LoadFraction::new(0.9),
            LoadFraction::new(0.1),
            LoadFraction::new(0.5),
        ];
        loads.sort();
        assert_eq!(loads[0].value(), 0.1);
        assert_eq!(loads[2].value(), 0.9);
    }

    #[test]
    fn builder_defaults_are_idle_and_unlimited() {
        let v = view(0, ClusterKind::Docker, 5, false);
        assert_eq!(v.load, LoadFraction::ZERO);
        assert!(!v.deploying);
        assert!(v.capacity.is_unlimited());
        assert_eq!(v.allocated, cluster::ResourceAllocation::default());
        assert!(v.labels.is_empty());
        assert!(v.admits(
            &ResourceRequest::new(u32::MAX - 1, u64::MAX - 1),
            &DeploymentRequirements::none()
        ));
    }

    #[test]
    fn admits_respects_capacity_and_labels() {
        let v = ClusterView::builder(
            ClusterId(0),
            ClusterKind::Docker,
            SimDuration::from_millis(1),
            ServiceStatus::absent(),
        )
        .capacity(SiteCapacity::new(1000, 1024))
        .allocated({
            let mut a = ResourceAllocation::default();
            a.add(&ResourceRequest::new(900, 512), 1);
            a
        })
        .labels(Arc::from(vec!["zone-a".to_owned()]))
        .build();
        let fits = ResourceRequest::new(50, 64);
        assert!(v.admits(&fits, &DeploymentRequirements::none()));
        assert!(!v.admits(
            &ResourceRequest::new(500, 64),
            &DeploymentRequirements::none()
        ));
        let mut gpu = DeploymentRequirements::none();
        gpu.label_match_all.push("gpu".to_owned());
        assert!(!v.admits(&fits, &gpu));
        let mut not_a = DeploymentRequirements::none();
        not_a.label_match_none.push("zone-a".to_owned());
        assert!(!v.admits(&fits, &not_a));
    }

    #[test]
    fn decision_constructors() {
        let a = ClusterId(1);
        let b = ClusterId(2);
        assert_eq!(
            Decision::cloud(),
            Decision {
                fast: None,
                best: None
            }
        );
        assert_eq!(
            Decision::fast(a),
            Decision {
                fast: Some(a),
                best: None
            }
        );
        assert_eq!(
            Decision::serve_and_deploy(None, Some(b)),
            Decision {
                fast: None,
                best: Some(b)
            }
        );
        assert!(Decision::serve_and_deploy(None, Some(b)).is_without_waiting());
        // serve_and_deploy normalizes best == fast to empty BEST
        assert_eq!(
            Decision::serve_and_deploy(Some(a), Some(a)),
            Decision::fast(a)
        );
        assert_eq!(
            Decision::serve_and_deploy(Some(a), Some(b)),
            Decision {
                fast: Some(a),
                best: Some(b)
            }
        );
        assert_eq!(Decision::serve_and_deploy(None, None), Decision::cloud());
    }

    #[test]
    fn nearest_waiting_picks_closest_regardless_of_state() {
        let mut s = NearestWaiting;
        let d = decide(
            &mut s,
            &[
                view(0, ClusterKind::Docker, 5, false),
                view(1, ClusterKind::Docker, 1, false),
                view(2, ClusterKind::Kubernetes, 10, true),
            ],
        );
        assert_eq!(d.fast, Some(ClusterId(1)));
        assert_eq!(d.best, None);
        assert!(!d.is_without_waiting());
        assert_eq!(d.target_for_future(), Some(ClusterId(1)));
    }

    #[test]
    fn nearest_ready_first_splits_fast_and_best() {
        let mut s = NearestReadyFirst;
        // nearest (id 0) not ready; farther (id 1) ready
        let d = decide(
            &mut s,
            &[
                view(0, ClusterKind::Docker, 1, false),
                view(1, ClusterKind::Docker, 8, true),
            ],
        );
        assert_eq!(d.fast, Some(ClusterId(1)), "serve now from the ready one");
        assert_eq!(d.best, Some(ClusterId(0)), "deploy at the nearest");
        assert!(d.is_without_waiting());
    }

    #[test]
    fn nearest_ready_first_collapses_when_nearest_is_ready() {
        let mut s = NearestReadyFirst;
        let d = decide(
            &mut s,
            &[
                view(0, ClusterKind::Docker, 1, true),
                view(1, ClusterKind::Docker, 8, true),
            ],
        );
        assert_eq!(d.fast, Some(ClusterId(0)));
        assert_eq!(d.best, None, "BEST empty when equal to FAST");
    }

    #[test]
    fn nearest_ready_first_cloud_when_nothing_ready() {
        let mut s = NearestReadyFirst;
        let d = decide(&mut s, &[view(0, ClusterKind::Docker, 1, false)]);
        assert_eq!(d.fast, None, "forward to cloud");
        assert_eq!(d.best, Some(ClusterId(0)), "still deploy for the future");
        assert!(d.is_without_waiting());
    }

    #[test]
    fn hybrid_prefers_docker_fast_k8s_best() {
        let mut s = HybridDockerFirst;
        let d = decide(
            &mut s,
            &[
                view(0, ClusterKind::Docker, 2, false),
                view(1, ClusterKind::Kubernetes, 2, false),
            ],
        );
        assert_eq!(
            d.fast,
            Some(ClusterId(0)),
            "Docker answers the first request"
        );
        assert_eq!(d.best, Some(ClusterId(1)), "K8s takes over");
        assert!(d.is_without_waiting());
    }

    #[test]
    fn hybrid_uses_ready_instance_if_one_exists() {
        let mut s = HybridDockerFirst;
        let d = decide(
            &mut s,
            &[
                view(0, ClusterKind::Docker, 2, false),
                view(1, ClusterKind::Kubernetes, 5, true),
            ],
        );
        assert_eq!(d.fast, Some(ClusterId(1)));
        assert_eq!(d.best, None, "K8s is both fast and best here");
    }

    #[test]
    fn hybrid_wasm_first_prefers_wasm_fast_container_best() {
        let mut s = HybridWasmFirst;
        let d = decide(
            &mut s,
            &[
                view(0, ClusterKind::Wasm, 2, false),
                view(1, ClusterKind::Docker, 2, false),
            ],
        );
        assert_eq!(d.fast, Some(ClusterId(0)), "wasm answers the first request");
        assert_eq!(d.best, Some(ClusterId(1)), "containers take over");
        // with a ready container instance, no split
        let d = decide(
            &mut s,
            &[
                view(0, ClusterKind::Wasm, 2, false),
                view(1, ClusterKind::Docker, 2, true),
            ],
        );
        assert_eq!(d.fast, Some(ClusterId(1)));
        assert_eq!(d.best, None);
    }

    #[test]
    fn least_loaded_spills_under_load() {
        let mut s = LeastLoaded::default();
        let mut near = view(0, ClusterKind::Docker, 1, true);
        near.load = LoadFraction::new(0.95);
        let far = view(1, ClusterKind::Docker, 2, true);
        let d = decide(&mut s, &[near.clone(), far.clone()]);
        assert_eq!(d.fast, Some(ClusterId(1)), "saturated near cluster skipped");
        // without load, nearest wins
        near.load = LoadFraction::ZERO;
        let d2 = decide(&mut s, &[near, far]);
        assert_eq!(d2.fast, Some(ClusterId(0)));
    }

    #[test]
    fn empty_views_mean_cloud() {
        assert_eq!(decide(&mut NearestWaiting, &[]), Decision::cloud());
        assert_eq!(decide(&mut NearestReadyFirst, &[]), Decision::cloud());
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobinLocal::default();
        let picks: Vec<u32> = (0..6).map(|_| rr.pick(ServiceId(0), 3)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(rr.pick(ServiceId(0), 0), 0, "no replicas → degenerate 0");
    }

    #[test]
    fn tie_break_is_lowest_id() {
        let mut s = NearestWaiting;
        let d = decide(
            &mut s,
            &[
                view(1, ClusterKind::Docker, 5, false),
                view(0, ClusterKind::Docker, 5, false),
            ],
        );
        assert_eq!(d.fast, Some(ClusterId(0)));
    }
}
