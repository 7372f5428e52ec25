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
//! FlowMemory is the one controller structure that grows with every client ×
//! service pair, so it is built to cost little per flow and nothing per
//! *past* flow (DESIGN.md §5b):
//!
//! * **One slab of 48-byte records.** Every flow is a `Slot` — key,
//!   service, target, cluster packed to `u32`, `last_seen`, two chain links
//!   and a flag word — addressed by a `u32` handle. `index` maps a
//!   [`FlowKey`] to its handle and is the only place a key is stored twice.
//!   The slab grows one page of `PAGE_SLOTS` slots (192 KiB) at a time and
//!   never moves a record: a doubling `Vec` would copy the whole working set
//!   on every growth step and leave the old block behind in the allocator,
//!   which at city scale cost more resident memory than the records
//!   themselves save. Freed slots go on a free list threaded through `next`
//!   and are the first to be reused, so the slab's size follows the largest
//!   number of flows alive at once, not the number ever seen.
//! * **Intrusive `(service, cluster)` chains.** The secondary index that
//!   makes the scale-down queries (`flows_for_service`,
//!   `services_with_flows`, `retarget_service`) proportional to the flows of
//!   the touched service is a doubly-linked chain through the slab (`prev` /
//!   `next`), its head and length kept per service in a short list of
//!   `Chain`s — one per cluster (or the cloud) that currently serves the
//!   service. Invariant: a chain's `count` is its length, and every member's
//!   `(service, cluster)` is the chain's key. No per-pair set is allocated.
//! * **A dense lane per service.** Every new flow links into its service's
//!   list, so the lists live in a 16-byte `Lane` per [`ServiceId`], indexed
//!   by the id (interned ids are dense) and grown to the highest id ever
//!   linked: no hash probe and no per-service heap block on the per-request
//!   path. A lane holds the service's first chain in place; the rare further
//!   chains (a second cluster, or the cloud) spill to a shared pool of lists
//!   whose emptied members are reused, not freed.
//! * **Touch order.** Every flow shares one idle timeout, so flows expire in
//!   the order they were last seen: an [`IdleOrder`] keeps the handles in
//!   that order, `recall` moves one to the tail, `next_expiry` reads the
//!   head and `expire` unlinks heads. A removed flow leaves the list at
//!   once, so nothing can name a freed slot's next tenant.
//!
//! Every list handed out is sorted by [`FlowKey`] (or by `(service,
//! cluster)`), so neither slab order nor hash order ever reaches a caller.
//!
//! Flows served by the real cloud carry `cluster: None` (no edge instance);
//! flows held on an in-flight deployment are stored as **pending**
//! placeholders — invisible to [`FlowMemory::recall`]'s fast path, but
//! visible to idle scale-down protection and the coherence audit — until the
//! dispatcher converts them with a real [`FlowMemory::remember`] when the
//! redirect installs.

use simcore::{DetHashMap, IdleOrder, SimDuration, SimTime};
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

/// A memorized redirect decision, as [`FlowMemory`] reports it: a copy of
/// the flow's record, not a reference into the memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemorizedFlow {
    pub key: FlowKey,
    /// The service's interned id (for scale-down bookkeeping) — resolve to a
    /// name with [`crate::catalog::ServiceCatalog::name_of`].
    pub service: ServiceId,
    /// Where the flow redirects to.
    pub target: SocketAddr,
    /// The edge cluster serving the flow; `None` means the real cloud.
    pub cluster: Option<ClusterId>,
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

/// Slots per slab page: 4 096 × 48 B = 192 KiB.
const PAGE_SLOTS: usize = 4096;
/// No slot: the end of a chain or of the free list.
const NIL: u32 = u32::MAX;
/// `cluster: None` — the real cloud — in a slot's packed cluster word.
const CLOUD: u32 = u32::MAX;

/// `Slot::tag`: the slot holds a flow.
const LIVE: u32 = 1;
/// `Slot::tag`: the flow is a pending placeholder.
const PENDING: u32 = 2;

/// One flow's record (or, with `LIVE` clear, a free slot whose `next` is the
/// free list's link).
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: FlowKey,
    service: ServiceId,
    target: SocketAddr,
    /// [`pack`]ed `Option<ClusterId>`.
    cluster: u32,
    last_seen: SimTime,
    /// Neighbours in the slot's `(service, cluster)` chain.
    prev: u32,
    next: u32,
    /// `PENDING | LIVE`.
    tag: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 48);

impl Slot {
    fn is_live(&self) -> bool {
        self.tag & LIVE != 0
    }

    fn is_pending(&self) -> bool {
        self.tag & PENDING != 0
    }

    fn view(&self) -> MemorizedFlow {
        MemorizedFlow {
            key: self.key,
            service: self.service,
            target: self.target,
            cluster: unpack(self.cluster),
            last_seen: self.last_seen,
            pending: self.is_pending(),
        }
    }
}

fn pack(cluster: Option<ClusterId>) -> u32 {
    match cluster {
        None => CLOUD,
        Some(ClusterId(c)) => u32::try_from(c)
            .ok()
            .filter(|&c| c != CLOUD)
            .expect("cluster ids fit 32 bits"),
    }
}

fn unpack(cluster: u32) -> Option<ClusterId> {
    (cluster != CLOUD).then_some(ClusterId(cluster as usize))
}

/// The paged record store: handles are stable, pages are never reallocated.
#[derive(Debug)]
struct Slab {
    /// Every page but the last is full.
    pages: Vec<Vec<Slot>>,
    /// Head of the free list.
    free: u32,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            pages: Vec::new(),
            free: NIL,
        }
    }

    fn get(&self, handle: u32) -> &Slot {
        &self.pages[handle as usize / PAGE_SLOTS][handle as usize % PAGE_SLOTS]
    }

    fn get_mut(&mut self, handle: u32) -> &mut Slot {
        &mut self.pages[handle as usize / PAGE_SLOTS][handle as usize % PAGE_SLOTS]
    }

    /// Store a new tenant in the most recently freed slot, or else in a
    /// slot never used before. Returns its handle.
    fn insert(&mut self, slot: Slot) -> u32 {
        if self.free != NIL {
            let handle = self.free;
            self.free = self.get(handle).next;
            *self.get_mut(handle) = slot;
            return handle;
        }
        if self.pages.last().is_none_or(|p| p.len() == PAGE_SLOTS) {
            self.pages.push(Vec::with_capacity(PAGE_SLOTS));
        }
        let page = self.pages.len() - 1;
        let handle = page * PAGE_SLOTS + self.pages[page].len();
        assert!(handle < NIL as usize, "flow memory is full");
        self.pages[page].push(slot);
        handle as u32
    }

    /// Put a slot on the free list.
    fn free(&mut self, handle: u32) {
        let next_free = self.free;
        let slot = self.get_mut(handle);
        slot.tag &= !(LIVE | PENDING);
        slot.next = next_free;
        self.free = handle;
    }

    /// Every flow, in slot order.
    fn live(&self) -> impl Iterator<Item = &Slot> {
        self.pages.iter().flatten().filter(|s| s.is_live())
    }
}

/// The flows of one service on one cluster (or the cloud): where their chain
/// through the slab starts and how long it is.
#[derive(Debug, Clone, Copy)]
struct Chain {
    cluster: u32,
    head: u32,
    count: u32,
}

/// One service's list of chains: the first in place, the rest in
/// `Chains::spills[spill]`. The list is empty exactly when `first.count` is
/// zero, and then `spill` is `NIL`.
#[derive(Debug, Clone, Copy)]
struct Lane {
    first: Chain,
    spill: u32,
}

const _: () = assert!(std::mem::size_of::<Lane>() == 16);

impl Lane {
    const EMPTY: Lane = Lane {
        first: Chain {
            cluster: CLOUD,
            head: NIL,
            count: 0,
        },
        spill: NIL,
    };
}

/// The per-service chain lists, each behaving as a `Vec<Chain>` would:
/// chains in push order, removal by `swap_remove`.
#[derive(Debug, Default)]
struct Chains {
    /// Indexed by [`ServiceId`]; as long as the highest id ever linked.
    lanes: Vec<Lane>,
    /// Every chain of a service after its first. An emptied list keeps its
    /// capacity and goes on `free_spills` for the next service that spills.
    spills: Vec<Vec<Chain>>,
    free_spills: Vec<u32>,
}

impl Chains {
    /// `service`'s chains in list order.
    fn list(&self, service: ServiceId) -> impl Iterator<Item = &Chain> {
        let (first, spill): (&[Chain], &[Chain]) = match self.lanes.get(service.0 as usize) {
            Some(lane) if lane.first.count != 0 => (
                std::slice::from_ref(&lane.first),
                match lane.spill {
                    NIL => &[],
                    at => &self.spills[at as usize],
                },
            ),
            _ => (&[], &[]),
        };
        first.iter().chain(spill)
    }

    /// Where in `service`'s list the chain of `cluster` is.
    fn find(&self, service: ServiceId, cluster: u32) -> Option<usize> {
        self.list(service).position(|c| c.cluster == cluster)
    }

    /// The `at`-th chain of `service`'s list.
    fn at_mut(&mut self, service: ServiceId, at: usize) -> &mut Chain {
        let lane = &mut self.lanes[service.0 as usize];
        match at {
            0 => &mut lane.first,
            _ => &mut self.spills[lane.spill as usize][at - 1],
        }
    }

    /// Append an empty chain of `cluster` to `service`'s list, growing the
    /// lane if `service` is new; returns its place.
    fn push(&mut self, service: ServiceId, cluster: u32) -> usize {
        let chain = Chain {
            cluster,
            head: NIL,
            count: 0,
        };
        let s = service.0 as usize;
        if s >= self.lanes.len() {
            self.lanes.resize(s + 1, Lane::EMPTY);
        }
        let lane = &mut self.lanes[s];
        if lane.first.count == 0 {
            lane.first = chain;
            return 0;
        }
        if lane.spill == NIL {
            lane.spill = self.free_spills.pop().unwrap_or_else(|| {
                self.spills.push(Vec::new());
                (self.spills.len() - 1) as u32
            });
        }
        let spill = &mut self.spills[lane.spill as usize];
        spill.push(chain);
        spill.len()
    }

    /// Take the `at`-th chain off `service`'s list, moving the list's last
    /// chain into its place.
    fn swap_remove(&mut self, service: ServiceId, at: usize) -> Chain {
        let lane = &mut self.lanes[service.0 as usize];
        if lane.spill == NIL {
            debug_assert_eq!(at, 0, "a list without spill has one chain");
            return std::mem::replace(lane, Lane::EMPTY).first;
        }
        let spill = &mut self.spills[lane.spill as usize];
        let last = spill.pop().expect("a spill list is never empty");
        let removed = match at {
            0 => std::mem::replace(&mut lane.first, last),
            _ if at == spill.len() + 1 => last,
            _ => std::mem::replace(&mut spill[at - 1], last),
        };
        if spill.is_empty() {
            self.free_spills.push(lane.spill);
            lane.spill = NIL;
        }
        removed
    }
}

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
    /// Where each flow's record is.
    index: DetHashMap<FlowKey, u32>,
    slab: Slab,
    /// Secondary index: per service, the chains of its flows — one per
    /// cluster (or the cloud) serving any. A dense lane by [`ServiceId`]
    /// because the per-request path maintains it on every new flow. A
    /// service with no flow has an empty list, a chain is never empty.
    chains: Chains,
    /// Every flow's handle, least recently seen first.
    order: IdleOrder,
    /// Idle timeout of *memorized* flows — longer than the switch's.
    idle_timeout: SimDuration,
}

impl FlowMemory {
    pub fn new(idle_timeout: SimDuration) -> Result<FlowMemory, FlowMemoryError> {
        if idle_timeout.is_zero() {
            return Err(FlowMemoryError::ZeroIdleTimeout);
        }
        Ok(FlowMemory {
            index: DetHashMap::default(),
            slab: Slab::new(),
            chains: Chains::default(),
            order: IdleOrder::default(),
            idle_timeout,
        })
    }

    pub fn idle_timeout(&self) -> SimDuration {
        self.idle_timeout
    }

    /// Record (or refresh) a flow decision. Converts a pending placeholder
    /// into a real entry.
    pub fn remember(
        &mut self,
        now: SimTime,
        key: FlowKey,
        service: ServiceId,
        target: SocketAddr,
        cluster: Option<ClusterId>,
    ) {
        let cluster = pack(cluster);
        match self.index.get(&key) {
            Some(&handle) => {
                let slot = self.slab.get(handle);
                if slot.service != service || slot.cluster != cluster {
                    self.unlink(handle);
                    let slot = self.slab.get_mut(handle);
                    slot.service = service;
                    slot.cluster = cluster;
                    self.link(handle);
                }
                let slot = self.slab.get_mut(handle);
                slot.tag &= !PENDING;
                slot.target = target;
                self.touch(handle, now);
            }
            None => self.insert(now, key, service, target, cluster, 0),
        }
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
        let cluster = pack(cluster);
        match self.index.get(&key) {
            Some(&handle) => {
                let slot = self.slab.get(handle);
                debug_assert!(slot.is_pending(), "never downgrade a live entry to pending");
                debug_assert_eq!(slot.service, service, "a key names one service");
                if slot.cluster != cluster {
                    self.unlink(handle);
                    self.slab.get_mut(handle).cluster = cluster;
                    self.link(handle);
                }
                self.touch(handle, now);
            }
            None => self.insert(now, key, service, key.service_addr, cluster, PENDING),
        }
    }

    /// Look up a live memorized flow, refreshing its idle timer. Expired
    /// entries are treated as absent (and dropped); pending placeholders are
    /// invisible here (the dispatcher owns their lifecycle) and are neither
    /// refreshed nor evicted.
    pub fn recall(&mut self, now: SimTime, key: FlowKey) -> Option<MemorizedFlow> {
        let handle = *self.index.get(&key)?;
        let slot = self.slab.get(handle);
        if slot.is_pending() {
            return None;
        }
        if now.since(slot.last_seen) >= self.idle_timeout {
            self.detach(key);
            return None;
        }
        Some(self.touch(handle, now).view())
    }

    /// Peek without refreshing (diagnostics).
    pub fn get(&self, key: FlowKey) -> Option<MemorizedFlow> {
        self.index.get(&key).map(|&h| self.slab.get(h).view())
    }

    /// Iterate over every memorized flow in [`FlowKey`] order (diagnostics —
    /// the coherence audit walks this against the installed switch entries;
    /// key order keeps audit reports stable across runs).
    pub fn iter(&self) -> impl Iterator<Item = MemorizedFlow> {
        let mut sorted: Vec<MemorizedFlow> = self.slab.live().map(Slot::view).collect();
        sorted.sort_by_key(|f| f.key);
        sorted.into_iter()
    }

    /// Drop a specific flow (e.g. its target instance was removed).
    pub fn forget(&mut self, key: FlowKey) -> Option<MemorizedFlow> {
        self.detach(key)
    }

    /// Retarget every live flow of `service` to a new instance — what happens
    /// when the BEST deployment becomes ready and future requests move over
    /// (on-demand *without waiting*, paper Fig. 3). Returns the affected keys
    /// so the controller can re-install switch rules. Walks the chains of
    /// `service` and nothing else.
    pub(crate) fn retarget_service(
        &mut self,
        service: ServiceId,
        target: SocketAddr,
        cluster: ClusterId,
    ) -> Vec<FlowKey> {
        let cluster = pack(Some(cluster));
        // All clusters (and the cloud) currently holding flows of this
        // service.
        let mut affected = Vec::new();
        for chain in self.chains.list(service) {
            let mut handle = chain.head;
            while handle != NIL {
                let slot = self.slab.get(handle);
                if slot.target != target || chain.cluster != cluster {
                    affected.push(handle);
                }
                handle = slot.next;
            }
        }
        for &handle in &affected {
            if self.slab.get(handle).cluster != cluster {
                self.unlink(handle);
                self.slab.get_mut(handle).cluster = cluster;
                self.link(handle);
            }
            self.slab.get_mut(handle).target = target;
        }
        let mut keys: Vec<FlowKey> = affected.iter().map(|&h| self.slab.get(h).key).collect();
        keys.sort();
        keys
    }

    /// Evict idle entries; returns them (the controller's scale-down input)
    /// sorted by key. Unlinks list heads: O(evicted) before the sort.
    pub fn expire(&mut self, now: SimTime) -> Vec<MemorizedFlow> {
        let mut expired = Vec::new();
        self.expire_into(now, &mut expired);
        expired.sort_by_key(|f| f.key);
        expired
    }

    /// [`FlowMemory::expire`] appending the evicted entries to a
    /// caller-owned buffer, in eviction order rather than by key (the
    /// allocation-free form the controller's housekeeping pass drives).
    /// O(evicted).
    pub(crate) fn expire_into(&mut self, now: SimTime, out: &mut Vec<MemorizedFlow>) {
        while let Some(handle) = self.order.first_due(now) {
            let key = self.slab.get(handle).key;
            out.push(self.detach(key).expect("a listed handle is a live flow"));
        }
    }

    /// Earliest instant any entry could expire. O(1): the least recently
    /// seen flow's.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.order.next()
    }

    /// How many flows the expiry order holds — one per flow.
    #[doc(hidden)] // the `memory_bound` allocation binary divides bytes by it
    pub fn expiry_records(&self) -> usize {
        self.order.len()
    }

    /// How many live flows reference `service` on `cluster` — zero means the
    /// instance is idle and a candidate for scale-down. Pending placeholders
    /// count too: a held request protects its deployment from scale-down.
    /// O(clusters serving `service`).
    pub(crate) fn flows_for_service(
        &self,
        service: ServiceId,
        cluster: Option<ClusterId>,
    ) -> usize {
        let cluster = pack(cluster);
        self.chains
            .list(service)
            .find(|c| c.cluster == cluster)
            .map_or(0, |c| c.count as usize)
    }

    /// How many flows are memorized.
    #[doc(hidden)] // the `memory_bound` allocation binary counts flows by it
    pub fn len(&self) -> usize {
        self.index.len()
    }
    #[doc(hidden)] // clippy pairs it with `len`
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Distinct `(service, cluster)` pairs with live flows and their counts —
    /// the autoscaler's demand signal, in `(service, cluster)` order (cloud
    /// `None` first). O(services ever linked + pairs): walks the lane in id
    /// order and sorts each service's few chains by cluster.
    pub(crate) fn services_with_flows(&self) -> Vec<(ServiceId, Option<ClusterId>, usize)> {
        let mut pairs = Vec::new();
        for s in 0..self.chains.lanes.len() as u32 {
            let from = pairs.len();
            pairs.extend(
                self.chains
                    .list(ServiceId(s))
                    .map(|c| (ServiceId(s), unpack(c.cluster), c.count as usize)),
            );
            pairs[from..].sort_unstable_by_key(|&(_, c, _)| c);
        }
        pairs
    }

    /// Store a new flow and put it in the expiry order.
    fn insert(
        &mut self,
        now: SimTime,
        key: FlowKey,
        service: ServiceId,
        target: SocketAddr,
        cluster: u32,
        flags: u32,
    ) {
        let handle = self.slab.insert(Slot {
            key,
            service,
            target,
            cluster,
            last_seen: now,
            prev: NIL,
            next: NIL,
            tag: LIVE | flags,
        });
        self.index.insert(key, handle);
        self.link(handle);
        let slab = &self.slab;
        self.order
            .link(handle, self.idle_timeout, now, |h| slab.get(h).last_seen);
    }

    /// Stamp a flow as seen at `now`, move it to its place in the expiry
    /// order — the tail, unless PDES re-stamping touched it in the past —
    /// and hand back its record.
    fn touch(&mut self, handle: u32, now: SimTime) -> &Slot {
        let slab = &self.slab;
        let from = slab.get(handle).last_seen;
        self.order.touch(handle, self.idle_timeout, from, now, |h| {
            slab.get(h).last_seen
        });
        let slot = self.slab.get_mut(handle);
        slot.last_seen = now;
        slot
    }

    /// Remove a flow from the index, its chain, the expiry order and the
    /// slab.
    fn detach(&mut self, key: FlowKey) -> Option<MemorizedFlow> {
        let handle = self.index.remove(&key)?;
        let flow = self.slab.get(handle).view();
        self.unlink(handle);
        self.release(handle);
        Some(flow)
    }

    /// Take a flow out of the expiry order and free its slot.
    fn release(&mut self, handle: u32) {
        let slab = &self.slab;
        self.order
            .unlink(handle, self.idle_timeout, |h| slab.get(h).last_seen);
        self.slab.free(handle);
    }

    /// Push a slot onto the front of the chain its `(service, cluster)`
    /// names, starting the chain if there is none.
    fn link(&mut self, handle: u32) {
        let Slot {
            service, cluster, ..
        } = *self.slab.get(handle);
        let at = match self.chains.find(service, cluster) {
            Some(at) => at,
            None => self.chains.push(service, cluster),
        };
        let chain = self.chains.at_mut(service, at);
        let old_head = std::mem::replace(&mut chain.head, handle);
        chain.count += 1;
        let slot = self.slab.get_mut(handle);
        slot.prev = NIL;
        slot.next = old_head;
        if old_head != NIL {
            self.slab.get_mut(old_head).prev = handle;
        }
    }

    /// Take a slot out of its chain; the last member takes the chain with
    /// it.
    fn unlink(&mut self, handle: u32) {
        let Slot {
            service,
            cluster,
            prev,
            next,
            ..
        } = *self.slab.get(handle);
        if next != NIL {
            self.slab.get_mut(next).prev = prev;
        }
        if prev != NIL {
            self.slab.get_mut(prev).next = next;
        }
        let at = self
            .chains
            .find(service, cluster)
            .expect("a linked slot's chain exists");
        let chain = self.chains.at_mut(service, at);
        if prev == NIL {
            chain.head = next;
        }
        chain.count -= 1;
        if chain.count == 0 {
            self.chains.swap_remove(service, at);
        }
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
        m.forget(key(1, 1));
        m.forget(key(2, 1));
        assert_eq!(m.flows_for_service(ServiceId(0), Some(ClusterId(0))), 0);
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

    /// Three flows of service 0 on two clusters and the cloud, one of
    /// service 1: the fixture of the two retarget tests below.
    fn spread_over_clusters_and_cloud(m: &mut FlowMemory) {
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
    }

    #[test]
    fn retarget_gathers_flows_across_clusters_and_cloud() {
        let mut m = mem();
        spread_over_clusters_and_cloud(&mut m);
        let moved = m.retarget_service(ServiceId(0), target(30000), ClusterId(1));
        assert_eq!(moved, vec![key(1, 1), key(2, 1), key(4, 1)]);
        assert_eq!(m.flows_for_service(ServiceId(0), Some(ClusterId(1))), 3);
        assert_eq!(m.flows_for_service(ServiceId(1), Some(ClusterId(0))), 1);
    }

    /// A retarget reads the touched service's chains only, so ten thousand
    /// other resident services change neither what it returns nor what it
    /// leaves behind.
    #[test]
    fn retarget_is_unmoved_by_ten_thousand_other_services() {
        let mut m = mem();
        for s in 0..10_000u32 {
            let other = FlowKey {
                client_ip: IpAddr::new(10, 9, (s >> 8) as u8, s as u8),
                service_addr: SocketAddr::new(IpAddr::new(93, 185, (s >> 8) as u8, s as u8), 80),
            };
            let cluster = [None, Some(ClusterId(1)), Some(ClusterId(2))][s as usize % 3];
            m.remember(t(0), other, ServiceId(100 + s), target(9000), cluster);
        }
        spread_over_clusters_and_cloud(&mut m);
        let moved = m.retarget_service(ServiceId(0), target(30000), ClusterId(1));
        assert_eq!(moved, vec![key(1, 1), key(2, 1), key(4, 1)]);
        assert_eq!(m.flows_for_service(ServiceId(0), Some(ClusterId(1))), 3);
        assert_eq!(m.flows_for_service(ServiceId(1), Some(ClusterId(0))), 1);
        assert_eq!(m.len(), 10_004);
        assert_eq!(m.services_with_flows().len(), 10_002);
        assert!(m
            .retarget_service(ServiceId(0), target(30000), ClusterId(1))
            .is_empty());
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
    fn remember_converts_pending() {
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
        assert_eq!(f.last_seen, t(500));
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

    #[test]
    fn freed_slots_are_reused_before_the_slab_grows() {
        let mut m = mem();
        for round in 0..3u64 {
            for c in 0..200u8 {
                m.remember(t(round), key(c, 1), ServiceId(0), target(8000), None);
            }
            assert_eq!(m.expire(t(round) + m.idle_timeout()).len(), 200);
        }
        assert_eq!(m.slab.pages.len(), 1);
        assert_eq!(m.slab.pages[0].len(), 200, "no slot beyond the first 200");
    }

    #[test]
    fn the_slab_grows_a_page_at_a_time_and_keeps_handles_stable() {
        let mut m = mem();
        let wide = |i: usize| FlowKey {
            client_ip: IpAddr::new(10, 1, (i >> 8) as u8, i as u8),
            service_addr: SocketAddr::new(IpAddr::new(93, 184, 0, 1), 80),
        };
        for i in 0..PAGE_SLOTS + 1 {
            m.remember(t(0), wide(i), ServiceId(0), target(8000), None);
        }
        assert_eq!(m.slab.pages.len(), 2);
        assert_eq!(m.slab.pages[0].capacity(), PAGE_SLOTS);
        assert_eq!(m.index[&wide(PAGE_SLOTS)], PAGE_SLOTS as u32);
        assert_eq!(m.get(wide(PAGE_SLOTS)).unwrap().key, wide(PAGE_SLOTS));
        assert_eq!(m.flows_for_service(ServiceId(0), None), PAGE_SLOTS + 1);
    }

    /// The minimum deadline by walking every flow — what `next_expiry()`
    /// must equal.
    fn brute_force_next_expiry(m: &FlowMemory) -> Option<SimTime> {
        m.iter().map(|f| f.last_seen + m.idle_timeout).min()
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

    /// Mutation: a backward touch that writes `last_seen` without walking
    /// the flow back to its place in the expiry order — on a flow that is
    /// not the head — and the brute-force comparison notices.
    #[test]
    fn a_backwards_touch_that_skips_the_walk_is_caught() {
        let mut m = mem();
        m.remember(t(5000), key(1, 1), ServiceId(0), target(8000), None);
        m.remember(t(6000), key(2, 1), ServiceId(0), target(8000), None);
        let second = m.index[&key(2, 1)];
        m.slab.get_mut(second).last_seen = t(1000);
        assert_eq!(brute_force_next_expiry(&m), Some(t(61_000)));
        assert_eq!(m.next_expiry(), Some(t(65_000)), "the late answer");

        // Through the one door the same touch keeps the head exact.
        m.slab.get_mut(second).last_seen = t(6000);
        m.recall(t(1000), key(2, 1));
        assert_eq!(m.next_expiry(), Some(t(61_000)));
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        #[derive(Debug, Clone)]
        enum Op {
            Remember {
                c: u8,
                s: u8,
                cluster: Option<usize>,
                port: u16,
            },
            RememberPending {
                c: u8,
                s: u8,
                cluster: Option<usize>,
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
            Retarget {
                s: u8,
                cluster: usize,
                port: u16,
            },
            Expire,
        }

        const CLIENTS: u8 = 6;
        const SERVICES: u8 = 3;
        /// Three clusters plus the cloud: a service can hold four chains, so
        /// its lane spills up to three.
        const CLUSTERS: usize = 3;

        /// The id of the `s`-th service: sparse, one past 10 000, so the
        /// chain lane grows past holes no flow ever names.
        fn sid(s: u8) -> ServiceId {
            ServiceId([0, 7, 10_007][s as usize])
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            let cluster = || prop::option::of(0..CLUSTERS);
            let port = || 8000u16..8002;
            prop_oneof![
                4 => (0..CLIENTS, 0..SERVICES, cluster(), port())
                    .prop_map(|(c, s, cluster, port)| Op::Remember { c, s, cluster, port }),
                1 => (0..CLIENTS, 0..SERVICES, cluster())
                    .prop_map(|(c, s, cluster)| Op::RememberPending { c, s, cluster }),
                4 => (0..CLIENTS, 0..SERVICES).prop_map(|(c, s)| Op::Recall { c, s }),
                1 => (0..CLIENTS, 0..SERVICES).prop_map(|(c, s)| Op::Forget { c, s }),
                1 => (0..SERVICES, cluster()).prop_map(|(s, cluster)| Op::ForgetService { s, cluster }),
                1 => (0..SERVICES, 0..CLUSTERS, port())
                    .prop_map(|(s, cluster, port)| Op::Retarget { s, cluster, port }),
                2 => Just(Op::Expire),
            ]
        }

        /// What FlowMemory must be indistinguishable from: a sorted map of
        /// the flows.
        #[derive(Debug, Default)]
        struct Model {
            flows: BTreeMap<FlowKey, MemorizedFlow>,
        }

        const IDLE: SimDuration = SimDuration::from_secs(60);

        impl Model {
            fn touch(&mut self, key: FlowKey, now: SimTime) {
                let f = self.flows.get_mut(&key).expect("touched flows exist");
                f.last_seen = now;
            }

            fn remove(&mut self, key: FlowKey) -> Option<MemorizedFlow> {
                self.flows.remove(&key)
            }

            fn keys_where(&self, pick: impl Fn(&MemorizedFlow) -> bool) -> Vec<FlowKey> {
                self.flows
                    .values()
                    .filter(|f| pick(f))
                    .map(|f| f.key)
                    .collect()
            }
        }

        /// Apply `op` at `now` to both, comparing whatever it returns.
        fn apply(
            m: &mut FlowMemory,
            model: &mut Model,
            op: &Op,
            now: SimTime,
        ) -> Result<(), String> {
            match *op {
                Op::Remember {
                    c,
                    s,
                    cluster,
                    port,
                } => {
                    let (key, service, cluster) = (key(c, s), sid(s), cluster.map(ClusterId));
                    m.remember(now, key, service, target(port), cluster);
                    let fresh = MemorizedFlow {
                        key,
                        service,
                        target: target(port),
                        cluster,
                        last_seen: now,
                        pending: false,
                    };
                    if let Some(f) = model.flows.get_mut(&key) {
                        *f = MemorizedFlow {
                            last_seen: f.last_seen,
                            ..fresh
                        };
                        model.touch(key, now);
                    } else {
                        model.flows.insert(key, fresh);
                    }
                }
                Op::RememberPending { c, s, cluster } => {
                    let (key, cluster) = (key(c, s), cluster.map(ClusterId));
                    // Placeholders never downgrade a live entry.
                    if model.flows.get(&key).is_some_and(|f| !f.pending) {
                        return Ok(());
                    }
                    m.remember_pending(now, key, sid(s), cluster);
                    if let Some(f) = model.flows.get_mut(&key) {
                        f.cluster = cluster;
                        model.touch(key, now);
                    } else {
                        model.flows.insert(
                            key,
                            MemorizedFlow {
                                key,
                                service: sid(s),
                                target: key.service_addr,
                                cluster,
                                last_seen: now,
                                pending: true,
                            },
                        );
                    }
                }
                Op::Recall { c, s } => {
                    let key = key(c, s);
                    let expected = match model.flows.get(&key).copied() {
                        Some(f) if f.pending => None,
                        Some(f) if now.since(f.last_seen) >= IDLE => {
                            model.remove(key);
                            None
                        }
                        Some(_) => {
                            model.touch(key, now);
                            model.flows.get(&key).copied()
                        }
                        None => None,
                    };
                    same("recall", m.recall(now, key), expected)?;
                }
                Op::Forget { c, s } => {
                    same("forget", m.forget(key(c, s)), model.remove(key(c, s)))?;
                }
                Op::ForgetService { s, cluster } => {
                    // Every flow of one instance, one `forget` each: its
                    // chain empties and leaves the service's list.
                    let (service, cluster) = (sid(s), cluster.map(ClusterId));
                    let gone = model.keys_where(|f| f.service == service && f.cluster == cluster);
                    for &key in &gone {
                        same("forget", m.forget(key), model.remove(key))?;
                    }
                    same(
                        "flows_for_service",
                        m.flows_for_service(service, cluster),
                        0,
                    )?;
                }
                Op::Retarget { s, cluster, port } => {
                    let (service, cluster) = (sid(s), Some(ClusterId(cluster)));
                    let moved = model.keys_where(|f| {
                        f.service == service && (f.target != target(port) || f.cluster != cluster)
                    });
                    for key in &moved {
                        let f = model.flows.get_mut(key).expect("just listed");
                        f.target = target(port);
                        f.cluster = cluster;
                    }
                    let got =
                        m.retarget_service(service, target(port), ClusterId(cluster.unwrap().0));
                    same("retarget_service", got, moved)?;
                }
                Op::Expire => {
                    let due = model.keys_where(|f| f.last_seen + IDLE <= now);
                    let expected: Vec<MemorizedFlow> = due
                        .iter()
                        .map(|key| model.flows.remove(key).expect("just listed"))
                        .collect();
                    same("expire", m.expire(now), expected)?;
                }
            }
            Ok(())
        }

        fn same<T: PartialEq + std::fmt::Debug>(
            what: &str,
            got: T,
            expected: T,
        ) -> Result<(), String> {
            if got == expected {
                Ok(())
            } else {
                Err(format!("{what}: got {got:?}, expected {expected:?}"))
            }
        }

        /// Every read FlowMemory offers answers as the model does, and the
        /// expiry order holds every flow once.
        fn check(m: &FlowMemory, model: &Model) -> Result<(), String> {
            same("len", m.len(), model.flows.len())?;
            same("is_empty", m.is_empty(), model.flows.is_empty())?;
            let flows: Vec<MemorizedFlow> = model.flows.values().copied().collect();
            same("iter", m.iter().collect(), flows)?;
            for c in 0..CLIENTS {
                for s in 0..SERVICES {
                    same(
                        "get",
                        m.get(key(c, s)),
                        model.flows.get(&key(c, s)).copied(),
                    )?;
                }
            }
            let mut pairs: BTreeMap<(ServiceId, Option<ClusterId>), usize> = BTreeMap::new();
            for f in model.flows.values() {
                *pairs.entry((f.service, f.cluster)).or_default() += 1;
            }
            // The drawn services, a hole in the lane and an id past its end.
            let services = (0..SERVICES)
                .map(sid)
                .chain([ServiceId(3), ServiceId(20_000)]);
            for service in services {
                for cluster in
                    std::iter::once(None).chain((0..CLUSTERS).map(|c| Some(ClusterId(c))))
                {
                    same(
                        "flows_for_service",
                        m.flows_for_service(service, cluster),
                        pairs.get(&(service, cluster)).copied().unwrap_or(0),
                    )?;
                }
            }
            same(
                "services_with_flows",
                m.services_with_flows(),
                pairs.iter().map(|(&(s, c), &n)| (s, c, n)).collect(),
            )?;
            let next = model.flows.values().map(|f| f.last_seen + IDLE).min();
            same("next_expiry", m.next_expiry(), next)?;
            same("expiry_records", m.expiry_records(), model.flows.len())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Every op at an arbitrary instant — `now` steps backwards as
            /// often as forwards — leaves FlowMemory answering exactly as a
            /// sorted map of flows would, returned lists included, with
            /// `next_expiry()` the brute-force minimum and one place in the
            /// expiry order per flow. Service ids are sparse and a service
            /// can sit on three clusters and the cloud at once, so lanes grow
            /// past holes and chains spill, promote and unspill.
            #[test]
            fn flow_memory_equals_a_sorted_map_under_non_monotone_time(
                ops in prop::collection::vec((op_strategy(), 0u64..200_000), 0..120),
            ) {
                let mut m = mem();
                let mut model = Model::default();
                for (op, at_ms) in ops {
                    let applied = apply(&mut m, &mut model, &op, t(at_ms));
                    prop_assert!(applied.is_ok(), "{:?} at {} ms: {}", op, at_ms, applied.unwrap_err());
                    let checked = check(&m, &model);
                    prop_assert!(checked.is_ok(), "after {:?} at {} ms: {}", op, at_ms, checked.unwrap_err());
                }
            }
        }

        /// Mutation: a `forget` that frees the flow's slot but leaves its
        /// handle in the expiry order. The order now names a free slot — the
        /// next tenant's, once it is reused — and the model's one-place-per-
        /// flow check notices. Through `detach` the same forget passes.
        #[test]
        fn a_flow_freed_without_leaving_the_order_is_caught() {
            let remember = |c| Op::Remember {
                c,
                s: 1,
                cluster: None,
                port: 8000,
            };
            let run = |mutate: bool| -> Result<(), String> {
                let mut m = mem();
                let mut model = Model::default();
                for (c, at_ms) in [(1, 0), (2, 1_000)] {
                    apply(&mut m, &mut model, &remember(c), t(at_ms))?;
                    check(&m, &model)?;
                }
                if mutate {
                    let handle = m.index.remove(&key(2, 1)).expect("remembered");
                    m.unlink(handle);
                    m.slab.free(handle);
                    model.remove(key(2, 1));
                } else {
                    apply(&mut m, &mut model, &Op::Forget { c: 2, s: 1 }, t(2_000))?;
                }
                check(&m, &model)
            };
            assert_eq!(run(false), Ok(()));
            let caught = run(true).expect_err("the stale handle must be noticed");
            assert!(caught.starts_with("expiry_records"), "{caught}");
        }

        /// The highest service on all four places at once spills three
        /// chains; dropping one from the middle of its list, then the first
        /// (the last spilled one takes its place), then the last, answers as
        /// the model does at every step, and the emptied spill list is
        /// reused by the next service that spills.
        #[test]
        fn a_service_on_every_cluster_spills_promotes_and_unspills() {
            let mut m = mem();
            let mut model = Model::default();
            let places = [None, Some(0), Some(1), Some(2)];
            let mut step = |m: &mut FlowMemory, op: Op| {
                apply(m, &mut model, &op, t(0)).unwrap();
                check(m, &model).unwrap_or_else(|e| panic!("after {op:?}: {e}"));
            };
            for (c, cluster) in places.into_iter().enumerate() {
                for s in [0, 2] {
                    let (c, port) = (c as u8, 8000);
                    step(
                        &mut m,
                        Op::Remember {
                            c,
                            s,
                            cluster,
                            port,
                        },
                    );
                }
            }
            assert_eq!(m.chains.list(sid(2)).count(), 4);
            assert_eq!(m.chains.spills.len(), 2);
            for cluster in [Some(0), None, Some(2), Some(1)] {
                step(&mut m, Op::ForgetService { s: 2, cluster });
            }
            assert_eq!(m.chains.free_spills, vec![1]);
            for (c, cluster) in [(4, Some(2)), (5, None)] {
                step(
                    &mut m,
                    Op::Remember {
                        c,
                        s: 1,
                        cluster,
                        port: 8000,
                    },
                );
            }
            assert_eq!(m.chains.spills.len(), 2, "no new spill list");
            assert!(m.chains.free_spills.is_empty());
            step(
                &mut m,
                Op::Retarget {
                    s: 0,
                    cluster: 1,
                    port: 8001,
                },
            );
            assert_eq!(m.chains.list(sid(0)).count(), 1);
            assert_eq!(m.chains.free_spills, vec![0]);
        }
    }
}
