//! FlowMemory: the controller-side cache of installed redirect flows.
//!
//! Paper §V: the controller "memorizes all these flows in a component called
//! FlowMemory. This approach allows us to keep the idle-timeout values in the
//! switches low — if a request from the same client to the same service
//! arrives again, the controller can immediately install the same flow it
//! used before. However, also the memorized flows have an idle timeout …
//! Apart from removing stale flows, these timeouts serve a second purpose:
//! Our controller may automatically scale down idle edge service instances."
//!
//! Like the switch flow table, FlowMemory is indexed so the controller's
//! per-tick work no longer scales with the number of memorized flows:
//! a `(service, cluster)` secondary index makes the scale-down queries
//! (`flows_for_service`, `forget_service`, `services_with_flows`,
//! `retarget_service`) proportional to the flows of the touched service, and
//! a [`DeadlineIndex`] holding one expiry record per flow keeps `next_expiry`
//! an O(1) peek without a push per `recall` (see DESIGN.md, "Flow pipeline
//! complexity").
//!
//! Flows served by the real cloud carry `cluster: None` (no edge instance);
//! flows held on an in-flight deployment are stored as **pending**
//! placeholders — invisible to [`FlowMemory::recall`]'s fast path, but
//! visible to idle scale-down protection and the coherence audit — until the
//! dispatcher converts them with a real [`FlowMemory::remember`] when the
//! redirect installs.

use simcore::{DeadlineIndex, DetHashMap, DetHashSet, SimDuration, SimTime};
use simnet::{IpAddr, SocketAddr};

use crate::catalog::ServiceId;
use crate::scheduler::ClusterId;

/// Key of a memorized flow: one client talking to one registered service.
/// The derived `Ord` (client ip, then service address) is the order in which
/// expiry and retarget results are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    pub client_ip: IpAddr,
    /// The *cloud* address of the registered service (pre-rewrite).
    pub service_addr: SocketAddr,
}

/// A memorized redirect decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorizedFlow {
    pub key: FlowKey,
    /// The service's interned id (for scale-down bookkeeping) — resolve to a
    /// name with [`crate::ServiceCatalog::name_of`].
    pub service: ServiceId,
    /// Where the flow redirects to.
    pub target: SocketAddr,
    /// The edge cluster serving the flow; `None` means the real cloud.
    pub cluster: Option<ClusterId>,
    pub installed_at: SimTime,
    pub last_seen: SimTime,
    /// A placeholder for a request held on an in-flight deployment: no
    /// switch rule exists yet, so `recall` never serves it. Converted to a
    /// real entry by the `remember` that installs the redirect.
    pub pending: bool,
}

/// Why a [`FlowMemory`] could not be constructed. Mirrors the
/// [`crate::annotate::AnnotateError`] pattern: a plain enum with `Display` so
/// callers can match or report without parsing panic strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowMemoryError {
    /// A zero idle timeout would evict every flow the instant it is
    /// remembered, silently disabling Follow-Me-Edge and scale-down logic.
    ZeroIdleTimeout,
}

impl std::fmt::Display for FlowMemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowMemoryError::ZeroIdleTimeout => {
                f.write_str("flow memory idle timeout must be non-zero (zero evicts instantly)")
            }
        }
    }
}

impl std::error::Error for FlowMemoryError {}

/// The FlowMemory component.
///
/// ```
/// use edgectl::{FlowKey, FlowMemory, ClusterId, ServiceId};
/// use simcore::{SimDuration, SimTime};
/// use simnet::{IpAddr, SocketAddr};
///
/// let mut memory = FlowMemory::new(SimDuration::from_secs(60)).expect("non-zero idle timeout");
/// let key = FlowKey {
///     client_ip: IpAddr::new(10, 1, 0, 1),
///     service_addr: SocketAddr::new(IpAddr::new(93, 184, 0, 1), 80),
/// };
/// let target = SocketAddr::new(IpAddr::new(10, 0, 0, 100), 8000);
/// memory.remember(SimTime::ZERO, key, ServiceId(0), target, Some(ClusterId(0)));
/// // a minute of silence later, the entry has expired
/// assert!(memory.recall(SimTime::ZERO + SimDuration::from_secs(61), key).is_none());
/// ```
#[derive(Debug)]
pub struct FlowMemory {
    flows: DetHashMap<FlowKey, MemorizedFlow>,
    /// Secondary index: which flows reference a given `(service, cluster)`
    /// pair (`None` = cloud). Hashed on both levels because the per-request
    /// path maintains it on every new flow; the rare order-sensitive readers
    /// (`services_with_flows`, `retarget_service`) sort before exposure.
    /// Keys are copyable pairs, so probing the index never allocates.
    by_service: DetHashMap<(ServiceId, Option<ClusterId>), DetHashSet<FlowKey>>,
    /// Expiry schedule of every flow, settled (see [`simcore::deadline`])
    /// before every `&mut self` method returns. The truth is the flow's
    /// `last_seen + idle_timeout`, or gone once it left `flows`.
    expiry: DeadlineIndex<FlowKey>,
    /// Idle timeout of *memorized* flows — longer than the switch's.
    idle_timeout: SimDuration,
}

impl FlowMemory {
    pub fn new(idle_timeout: SimDuration) -> Result<FlowMemory, FlowMemoryError> {
        if idle_timeout.is_zero() {
            return Err(FlowMemoryError::ZeroIdleTimeout);
        }
        Ok(FlowMemory {
            flows: DetHashMap::default(),
            by_service: DetHashMap::default(),
            expiry: DeadlineIndex::default(),
            idle_timeout,
        })
    }

    pub fn idle_timeout(&self) -> SimDuration {
        self.idle_timeout
    }

    /// Record (or refresh) a flow decision. Converts a pending placeholder
    /// into a real entry (the install instant becomes `now`, matching a
    /// fresh insert).
    pub fn remember(
        &mut self,
        now: SimTime,
        key: FlowKey,
        service: ServiceId,
        target: SocketAddr,
        cluster: Option<ClusterId>,
    ) {
        match self.flows.get_mut(&key) {
            Some(f) => {
                if f.service != service || f.cluster != cluster {
                    Self::index_remove(&mut self.by_service, (f.service, f.cluster), key);
                    self.by_service
                        .entry((service, cluster))
                        .or_default()
                        .insert(key);
                }
                if f.pending {
                    f.pending = false;
                    f.installed_at = now;
                }
                f.target = target;
                f.cluster = cluster;
                f.service = service;
                Self::touch(&mut self.expiry, self.idle_timeout, f, now);
            }
            None => {
                self.by_service
                    .entry((service, cluster))
                    .or_default()
                    .insert(key);
                self.flows.insert(
                    key,
                    MemorizedFlow {
                        key,
                        service,
                        target,
                        cluster,
                        installed_at: now,
                        last_seen: now,
                        pending: false,
                    },
                );
                self.expiry.file(now + self.idle_timeout, key);
            }
        }
        self.settle_expiry();
    }

    /// Insert (or refresh) a pending placeholder for a request held on an
    /// in-flight deployment toward `cluster`. The placeholder redirects
    /// nowhere yet — its target is the service's own cloud address.
    pub fn remember_pending(
        &mut self,
        now: SimTime,
        key: FlowKey,
        service: ServiceId,
        cluster: Option<ClusterId>,
    ) {
        match self.flows.get_mut(&key) {
            Some(f) => {
                debug_assert!(f.pending, "never downgrade a live entry to pending");
                if f.cluster != cluster {
                    Self::index_remove(&mut self.by_service, (f.service, f.cluster), key);
                    self.by_service
                        .entry((service, cluster))
                        .or_default()
                        .insert(key);
                    f.cluster = cluster;
                }
                Self::touch(&mut self.expiry, self.idle_timeout, f, now);
            }
            None => {
                self.by_service
                    .entry((service, cluster))
                    .or_default()
                    .insert(key);
                self.flows.insert(
                    key,
                    MemorizedFlow {
                        key,
                        service,
                        target: key.service_addr,
                        cluster,
                        installed_at: now,
                        last_seen: now,
                        pending: true,
                    },
                );
                self.expiry.file(now + self.idle_timeout, key);
            }
        }
        self.settle_expiry();
    }

    /// Look up a live memorized flow, refreshing its idle timer. Expired
    /// entries are treated as absent (and dropped); pending placeholders are
    /// invisible here (the dispatcher owns their lifecycle) and are neither
    /// refreshed nor evicted.
    pub fn recall(&mut self, now: SimTime, key: FlowKey) -> Option<&MemorizedFlow> {
        let f = self.flows.get_mut(&key).filter(|f| !f.pending)?;
        if now.since(f.last_seen) >= self.idle_timeout {
            self.detach(key);
            self.settle_expiry();
            return None;
        }
        Self::touch(&mut self.expiry, self.idle_timeout, f, now);
        self.settle_expiry();
        self.flows.get(&key)
    }

    /// Stamp `flow` as seen at `now`; only a touch at an earlier instant
    /// (PDES re-stamping) pulls the deadline in and files a record.
    fn touch(
        expiry: &mut DeadlineIndex<FlowKey>,
        idle_timeout: SimDuration,
        flow: &mut MemorizedFlow,
        now: SimTime,
    ) {
        expiry.moved(flow.key, flow.last_seen + idle_timeout, now + idle_timeout);
        flow.last_seen = now;
    }

    /// Peek without refreshing (diagnostics).
    pub fn get(&self, key: FlowKey) -> Option<&MemorizedFlow> {
        self.flows.get(&key)
    }

    /// Iterate over every memorized flow in [`FlowKey`] order (diagnostics —
    /// the coherence audit walks this against the installed switch entries;
    /// key order keeps audit reports stable across runs). The backing map
    /// stays a `HashMap` because the per-packet lookups are the hot path.
    pub fn iter(&self) -> impl Iterator<Item = &MemorizedFlow> {
        // edgelint: allow(det-collections) — sorted by FlowKey before exposure
        let mut sorted: Vec<&MemorizedFlow> = self.flows.values().collect();
        sorted.sort_by_key(|f| f.key);
        sorted.into_iter()
    }

    /// Drop a specific flow (e.g. its target instance was removed).
    pub fn forget(&mut self, key: FlowKey) -> Option<MemorizedFlow> {
        let removed = self.detach(key);
        self.settle_expiry();
        removed
    }

    /// Drop all flows pointing at `service` on `cluster` (instance retired).
    /// O(flows of that instance), not O(all flows).
    pub fn forget_service(&mut self, service: ServiceId, cluster: Option<ClusterId>) -> usize {
        let keys = match self.by_service.remove(&(service, cluster)) {
            Some(keys) => keys,
            None => return 0,
        };
        let count = keys.len();
        for key in keys {
            self.flows.remove(&key);
        }
        self.settle_expiry();
        count
    }

    /// Retarget every live flow of `service` to a new instance — what happens
    /// when the BEST deployment becomes ready and future requests move over
    /// (on-demand *without waiting*, paper Fig. 3). Returns the affected keys
    /// so the controller can re-install switch rules.
    pub fn retarget_service(
        &mut self,
        service: ServiceId,
        target: SocketAddr,
        cluster: ClusterId,
    ) -> Vec<FlowKey> {
        // All clusters (and the cloud) currently holding flows of this
        // service.
        let mut keys = Vec::new();
        for (&(svc, from_cluster), members) in &self.by_service {
            if svc != service {
                continue;
            }
            for &key in members {
                let f = &self.flows[&key];
                if f.target != target || from_cluster != Some(cluster) {
                    keys.push(key);
                }
            }
        }
        for &key in &keys {
            let f = self.flows.get_mut(&key).expect("key came from the index");
            let from = (f.service, f.cluster);
            f.target = target;
            f.cluster = Some(cluster);
            if from.1 != Some(cluster) {
                Self::index_remove(&mut self.by_service, from, key);
                self.by_service
                    .entry((service, Some(cluster)))
                    .or_default()
                    .insert(key);
            }
        }
        keys.sort();
        keys
    }

    /// Evict idle entries; returns them (the controller's scale-down input)
    /// sorted by key. O(evicted · log memory) thanks to the expiry index.
    pub fn expire(&mut self, now: SimTime) -> Vec<MemorizedFlow> {
        let mut expired = Vec::new();
        while let Some((_, key)) = self.expiry.pop_due(now) {
            expired.push(self.detach(key).expect("settled top names a live flow"));
            self.settle_expiry();
        }
        expired.sort_by_key(|f| f.key);
        expired
    }

    /// Earliest instant any entry could expire. O(1): every mutation
    /// settles the index.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.expiry.next()
    }

    /// How many expiry records the memory holds: one per flow, plus at most
    /// one per forgotten flow until its deadline passes (tests assert the
    /// bound).
    #[doc(hidden)]
    pub fn expiry_records(&self) -> usize {
        self.expiry.len()
    }

    /// How many live flows reference `service` on `cluster` — zero means the
    /// instance is idle and a candidate for scale-down. Pending placeholders
    /// count too: a held request protects its deployment from scale-down.
    /// O(1) index lookup.
    pub fn flows_for_service(&self, service: ServiceId, cluster: Option<ClusterId>) -> usize {
        self.by_service
            .get(&(service, cluster))
            .map_or(0, DetHashSet::len)
    }

    pub fn len(&self) -> usize {
        self.flows.len()
    }
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Distinct `(service, cluster)` pairs with live flows and their counts —
    /// the autoscaler's demand signal. O(pairs log pairs): reads the hashed
    /// secondary index and sorts so callers see `(service, cluster)` order
    /// (cloud `None` first), as the old BTreeMap exposed.
    pub fn services_with_flows(&self) -> Vec<(ServiceId, Option<ClusterId>, usize)> {
        let mut pairs: Vec<(ServiceId, Option<ClusterId>, usize)> = self
            .by_service
            .iter()
            .map(|(&(s, c), members)| (s, c, members.len()))
            .collect();
        pairs.sort_unstable_by_key(|&(s, c, _)| (s, c));
        pairs
    }

    /// Remove a flow from the primary map and the service index (the expiry
    /// index keeps its record until it surfaces).
    fn detach(&mut self, key: FlowKey) -> Option<MemorizedFlow> {
        let flow = self.flows.remove(&key)?;
        Self::index_remove(&mut self.by_service, (flow.service, flow.cluster), key);
        Some(flow)
    }

    fn index_remove(
        index: &mut DetHashMap<(ServiceId, Option<ClusterId>), DetHashSet<FlowKey>>,
        at: (ServiceId, Option<ClusterId>),
        key: FlowKey,
    ) {
        if let Some(members) = index.get_mut(&at) {
            members.remove(&key);
            if members.is_empty() {
                index.remove(&at);
            }
        }
    }

    /// Settle the expiry index against `flows`.
    fn settle_expiry(&mut self) {
        self.expiry
            .settle(|key| self.flows.get(key).map(|f| f.last_seen + self.idle_timeout));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(c: u8, s: u8) -> FlowKey {
        FlowKey {
            client_ip: IpAddr::new(10, 0, 0, c),
            service_addr: SocketAddr::new(IpAddr::new(93, 184, 0, s), 80),
        }
    }

    fn target(p: u16) -> SocketAddr {
        SocketAddr::new(IpAddr::new(10, 0, 0, 100), p)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn mem() -> FlowMemory {
        FlowMemory::new(SimDuration::from_secs(60)).unwrap()
    }

    #[test]
    fn zero_idle_timeout_is_a_typed_error() {
        assert_eq!(
            FlowMemory::new(SimDuration::ZERO).unwrap_err(),
            FlowMemoryError::ZeroIdleTimeout
        );
    }

    #[test]
    fn remember_recall() {
        let mut m = mem();
        m.remember(
            t(0),
            key(1, 1),
            ServiceId(0),
            target(8000),
            Some(ClusterId(0)),
        );
        let f = m.recall(t(10), key(1, 1)).unwrap();
        assert_eq!(f.target, target(8000));
        assert_eq!(f.cluster, Some(ClusterId(0)));
        assert!(m.recall(t(10), key(2, 1)).is_none());
    }

    #[test]
    fn recall_refreshes_idle_timer() {
        let mut m = mem();
        m.remember(
            t(0),
            key(1, 1),
            ServiceId(0),
            target(8000),
            Some(ClusterId(0)),
        );
        assert!(m.recall(t(50_000), key(1, 1)).is_some()); // refresh at 50 s
        assert!(
            m.recall(t(100_000), key(1, 1)).is_some(),
            "alive: refreshed at 50 s"
        );
        assert!(
            m.recall(t(170_000), key(1, 1)).is_none(),
            "expired 60 s after last use"
        );
        assert!(m.is_empty());
    }

    #[test]
    fn expire_returns_stale_entries() {
        let mut m = mem();
        m.remember(
            t(0),
            key(1, 1),
            ServiceId(0),
            target(8000),
            Some(ClusterId(0)),
        );
        m.remember(
            t(30_000),
            key(2, 1),
            ServiceId(1),
            target(8001),
            Some(ClusterId(0)),
        );
        let expired = m.expire(t(60_000));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].service, ServiceId(0));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn next_expiry_is_minimum() {
        let mut m = mem();
        assert_eq!(m.next_expiry(), None);
        m.remember(
            t(0),
            key(1, 1),
            ServiceId(0),
            target(8000),
            Some(ClusterId(0)),
        );
        m.remember(
            t(5000),
            key(2, 1),
            ServiceId(1),
            target(8001),
            Some(ClusterId(0)),
        );
        assert_eq!(m.next_expiry(), Some(t(60_000)));
    }

    #[test]
    fn next_expiry_tracks_refresh_and_forget() {
        let mut m = mem();
        m.remember(
            t(0),
            key(1, 1),
            ServiceId(0),
            target(8000),
            Some(ClusterId(0)),
        );
        m.remember(
            t(5000),
            key(2, 1),
            ServiceId(1),
            target(8001),
            Some(ClusterId(0)),
        );
        // refreshing the older flow moves the frontier to the younger one
        assert!(m.recall(t(20_000), key(1, 1)).is_some());
        assert_eq!(m.next_expiry(), Some(t(65_000)));
        m.forget(key(2, 1));
        assert_eq!(m.next_expiry(), Some(t(80_000)));
        m.forget(key(1, 1));
        assert_eq!(m.next_expiry(), None);
    }

    #[test]
    fn flows_for_service_counts() {
        let mut m = mem();
        m.remember(
            t(0),
            key(1, 1),
            ServiceId(0),
            target(8000),
            Some(ClusterId(0)),
        );
        m.remember(
            t(0),
            key(2, 1),
            ServiceId(0),
            target(8000),
            Some(ClusterId(0)),
        );
        m.remember(
            t(0),
            key(3, 2),
            ServiceId(1),
            target(8001),
            Some(ClusterId(1)),
        );
        assert_eq!(m.flows_for_service(ServiceId(0), Some(ClusterId(0))), 2);
        assert_eq!(m.flows_for_service(ServiceId(0), Some(ClusterId(1))), 0);
        assert_eq!(m.forget_service(ServiceId(0), Some(ClusterId(0))), 2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn services_with_flows_reports_sorted_counts() {
        let mut m = mem();
        m.remember(
            t(0),
            key(1, 1),
            ServiceId(1),
            target(8000),
            Some(ClusterId(1)),
        );
        m.remember(
            t(0),
            key(2, 1),
            ServiceId(1),
            target(8000),
            Some(ClusterId(1)),
        );
        m.remember(
            t(0),
            key(3, 2),
            ServiceId(0),
            target(8001),
            Some(ClusterId(0)),
        );
        m.remember(t(0), key(4, 2), ServiceId(1), target(8002), None);
        assert_eq!(
            m.services_with_flows(),
            vec![
                (ServiceId(0), Some(ClusterId(0)), 1),
                (ServiceId(1), None, 1),
                (ServiceId(1), Some(ClusterId(1)), 2),
            ]
        );
    }

    #[test]
    fn retarget_moves_flows_and_reports_keys() {
        let mut m = mem();
        m.remember(
            t(0),
            key(1, 1),
            ServiceId(0),
            target(8000),
            Some(ClusterId(0)),
        );
        m.remember(
            t(0),
            key(2, 1),
            ServiceId(0),
            target(8000),
            Some(ClusterId(0)),
        );
        let moved = m.retarget_service(ServiceId(0), target(30000), ClusterId(1));
        assert_eq!(moved.len(), 2);
        let f = m.get(key(1, 1)).unwrap();
        assert_eq!(f.target, target(30000));
        assert_eq!(f.cluster, Some(ClusterId(1)));
        // idempotent: retargeting again moves nothing
        assert!(m
            .retarget_service(ServiceId(0), target(30000), ClusterId(1))
            .is_empty());
        // and the index followed the move
        assert_eq!(m.flows_for_service(ServiceId(0), Some(ClusterId(0))), 0);
        assert_eq!(m.flows_for_service(ServiceId(0), Some(ClusterId(1))), 2);
    }

    #[test]
    fn retarget_gathers_flows_across_clusters_and_cloud() {
        let mut m = mem();
        m.remember(
            t(0),
            key(1, 1),
            ServiceId(0),
            target(8000),
            Some(ClusterId(0)),
        );
        m.remember(
            t(0),
            key(2, 1),
            ServiceId(0),
            target(8001),
            Some(ClusterId(2)),
        );
        m.remember(
            t(0),
            key(3, 2),
            ServiceId(1),
            target(8002),
            Some(ClusterId(0)),
        );
        // a cloud-served flow of the same service moves over too
        m.remember(t(0), key(4, 1), ServiceId(0), key(4, 1).service_addr, None);
        let moved = m.retarget_service(ServiceId(0), target(30000), ClusterId(1));
        assert_eq!(moved, vec![key(1, 1), key(2, 1), key(4, 1)]);
        assert_eq!(m.flows_for_service(ServiceId(0), Some(ClusterId(1))), 3);
        assert_eq!(m.flows_for_service(ServiceId(1), Some(ClusterId(0))), 1);
    }

    #[test]
    fn forget_specific_flow() {
        let mut m = mem();
        m.remember(
            t(0),
            key(1, 1),
            ServiceId(0),
            target(8000),
            Some(ClusterId(0)),
        );
        assert!(m.forget(key(1, 1)).is_some());
        assert!(m.forget(key(1, 1)).is_none());
    }

    #[test]
    fn remember_updates_existing() {
        let mut m = mem();
        m.remember(
            t(0),
            key(1, 1),
            ServiceId(0),
            target(8000),
            Some(ClusterId(0)),
        );
        m.remember(
            t(10),
            key(1, 1),
            ServiceId(0),
            target(9000),
            Some(ClusterId(1)),
        );
        assert_eq!(m.len(), 1);
        let f = m.get(key(1, 1)).unwrap();
        assert_eq!(f.target, target(9000));
        assert_eq!(f.installed_at, t(0), "original install time preserved");
        assert_eq!(f.last_seen, t(10));
        // the index moved with the cluster change
        assert_eq!(m.flows_for_service(ServiceId(0), Some(ClusterId(0))), 0);
        assert_eq!(m.flows_for_service(ServiceId(0), Some(ClusterId(1))), 1);
    }

    #[test]
    fn pending_is_invisible_to_recall_but_counts_for_scale_down() {
        let mut m = mem();
        m.remember_pending(t(0), key(1, 1), ServiceId(0), Some(ClusterId(0)));
        assert!(m.recall(t(10), key(1, 1)).is_none(), "no switch rule yet");
        assert!(m.get(key(1, 1)).is_some_and(|f| f.pending));
        // ... but the held request protects the deployment from scale-down
        assert_eq!(m.flows_for_service(ServiceId(0), Some(ClusterId(0))), 1);
    }

    #[test]
    fn remember_converts_pending_and_resets_install_time() {
        let mut m = mem();
        m.remember_pending(t(0), key(1, 1), ServiceId(0), Some(ClusterId(0)));
        // refreshing the placeholder keeps it pending
        m.remember_pending(t(100), key(1, 1), ServiceId(0), Some(ClusterId(0)));
        assert!(m.get(key(1, 1)).is_some_and(|f| f.pending));
        // the deployment became ready: the redirect install converts it
        m.remember(
            t(500),
            key(1, 1),
            ServiceId(0),
            target(8000),
            Some(ClusterId(0)),
        );
        let f = m.get(key(1, 1)).unwrap();
        assert!(!f.pending);
        assert_eq!(f.installed_at, t(500), "install instant is the conversion");
        assert!(m.recall(t(600), key(1, 1)).is_some());
    }

    #[test]
    fn pending_expires_like_any_entry() {
        let mut m = mem();
        m.remember_pending(t(0), key(1, 1), ServiceId(0), Some(ClusterId(0)));
        assert_eq!(m.next_expiry(), Some(t(60_000)));
        let expired = m.expire(t(60_000));
        assert_eq!(expired.len(), 1);
        assert!(expired[0].pending);
        assert!(m.is_empty());
    }
    /// The minimum deadline by walking every flow — what `next_expiry()`
    /// must equal.
    fn brute_force_next_expiry(m: &FlowMemory) -> Option<SimTime> {
        m.flows.values().map(|f| f.last_seen + m.idle_timeout).min()
    }

    #[test]
    fn a_touch_at_an_earlier_instant_moves_next_expiry_earlier() {
        let mut m = mem();
        m.remember(t(5000), key(1, 1), ServiceId(0), target(8000), None);
        m.remember(t(6000), key(2, 1), ServiceId(0), target(8000), None);
        // A PDES shard re-stamps its input: the refresh carries an instant
        // before the flow's last one.
        m.remember(t(1000), key(2, 1), ServiceId(0), target(8000), None);
        assert_eq!(m.next_expiry(), Some(t(61_000)));
        assert!(m.recall(t(500), key(1, 1)).is_some());
        assert_eq!(m.next_expiry(), Some(t(60_500)));
        assert_eq!(m.expire(t(60_500)).len(), 1);
        assert_eq!(m.next_expiry(), Some(t(61_000)));
    }

    /// Mutation: a backward touch with the "deadline moved earlier ⇒ push"
    /// arm left out — `last_seen` written, no record — on a flow that is not
    /// the top, and the brute-force comparison notices.
    #[test]
    fn a_backwards_touch_that_skips_the_push_is_caught() {
        let mut m = mem();
        m.remember(t(5000), key(1, 1), ServiceId(0), target(8000), None);
        m.remember(t(6000), key(2, 1), ServiceId(0), target(8000), None);
        m.flows.get_mut(&key(2, 1)).unwrap().last_seen = t(1000);
        m.settle_expiry();
        assert_eq!(brute_force_next_expiry(&m), Some(t(61_000)));
        assert_eq!(m.next_expiry(), Some(t(65_000)), "the late answer");

        // Through the one door the same touch keeps the top exact.
        m.flows.get_mut(&key(2, 1)).unwrap().last_seen = t(6000);
        m.recall(t(1000), key(2, 1));
        assert_eq!(m.next_expiry(), Some(t(61_000)));
    }

    mod model {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Remember {
                c: u8,
                s: u8,
                cluster: Option<usize>,
            },
            RememberPending {
                c: u8,
                s: u8,
            },
            Recall {
                c: u8,
                s: u8,
            },
            Forget {
                c: u8,
                s: u8,
            },
            ForgetService {
                s: u8,
                cluster: Option<usize>,
            },
            Expire,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            let cluster = || prop::option::of(0usize..2);
            prop_oneof![
                4 => (0u8..4, 0u8..3, cluster()).prop_map(|(c, s, cluster)| Op::Remember { c, s, cluster }),
                1 => (0u8..4, 0u8..3).prop_map(|(c, s)| Op::RememberPending { c, s }),
                4 => (0u8..4, 0u8..3).prop_map(|(c, s)| Op::Recall { c, s }),
                1 => (0u8..4, 0u8..3).prop_map(|(c, s)| Op::Forget { c, s }),
                1 => (0u8..3, cluster()).prop_map(|(s, cluster)| Op::ForgetService { s, cluster }),
                2 => Just(Op::Expire),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Every op at an arbitrary instant — `now` steps backwards as
            /// often as forwards — leaves `next_expiry()` the brute-force
            /// minimum, and `expire` evicts exactly the flows whose deadline
            /// has passed.
            #[test]
            fn next_expiry_is_the_brute_force_minimum_under_non_monotone_time(
                ops in prop::collection::vec((op_strategy(), 0u64..200_000), 0..120),
            ) {
                let mut m = mem();
                for (op, at_ms) in ops {
                    let now = t(at_ms);
                    match op {
                        Op::Remember { c, s, cluster } => {
                            m.remember(now, key(c, s), ServiceId(s as u32), target(8000), cluster.map(ClusterId));
                        }
                        Op::RememberPending { c, s } => {
                            // Placeholders never downgrade a live entry.
                            if m.get(key(c, s)).is_none_or(|f| f.pending) {
                                m.remember_pending(now, key(c, s), ServiceId(s as u32), Some(ClusterId(0)));
                            }
                        }
                        Op::Recall { c, s } => {
                            m.recall(now, key(c, s));
                        }
                        Op::Forget { c, s } => {
                            m.forget(key(c, s));
                        }
                        Op::ForgetService { s, cluster } => {
                            m.forget_service(ServiceId(s as u32), cluster.map(ClusterId));
                        }
                        Op::Expire => {
                            let mut due: Vec<FlowKey> = m
                                .flows
                                .values()
                                .filter(|f| f.last_seen + m.idle_timeout <= now)
                                .map(|f| f.key)
                                .collect();
                            due.sort();
                            let evicted: Vec<FlowKey> = m.expire(now).iter().map(|f| f.key).collect();
                            prop_assert_eq!(evicted, due, "evicted set at {}", now);
                        }
                    }
                    prop_assert_eq!(m.next_expiry(), brute_force_next_expiry(&m), "next_expiry");
                    prop_assert!(m.expiry_records() >= m.len(), "a flow lost its record");
                }
            }
        }
    }
}
