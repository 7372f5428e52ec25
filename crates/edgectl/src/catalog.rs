//! The registry of *registered services*.
//!
//! Paper §II: "The services to be redirected to the edge are first registered
//! with a mobile edge platform provider, identified by their unique
//! combination of domain name/IP address and port number." This module maps
//! that cloud-facing address to the deployable service definition.
//!
//! Service names are **interned**: registration assigns each distinct name a
//! stable, copyable [`ServiceId`] (a `u32`). The controller's hot path —
//! FlowMemory keys, scheduler calls, pending-deployment maps — passes ids
//! around instead of cloning `String`s, and resolves back to the name only at
//! the cluster-backend boundary, borrowed through [`ServiceCatalog::name_of`]
//! (no allocation and no refcount touched).

use std::collections::HashMap;
use std::sync::Arc;

use cluster::{ResourceRequest, ServiceTemplate};
use simcore::DetHashMap;
use simnet::SocketAddr;

/// Interned service name: a stable dense index into the catalog's name table.
/// Ids are never re-used — re-registering a previously seen name yields the
/// same id, and unregistration does not free it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub u32);

/// One registered edge service.
#[derive(Debug, Clone)]
pub struct RegisteredService {
    /// Interned name (see [`ServiceId`]).
    pub id: ServiceId,
    /// The cloud address clients use (the flow-match key).
    pub cloud_addr: SocketAddr,
    /// The deployable definition (from the annotation engine). Shared so the
    /// deployment pipeline can hold it without deep-copying container lists.
    pub template: Arc<ServiceTemplate>,
    /// The template's [`ServiceTemplate::resource_request`], summed once at
    /// registration: the scheduler and admission control read it on every
    /// PacketIn without walking the container list.
    pub demand: ResourceRequest,
}

/// Cloud address → service lookup, as the Dispatcher uses it on PacketIn.
///
/// Everything the per-request path needs from a registration is on the
/// [`RegisteredService`] the one address probe returns — id, template and
/// its precomputed demand — so a PacketIn never derefs the template for a
/// number (DESIGN.md §5i, per-request data layout).
#[derive(Debug, Default, Clone)]
pub struct ServiceCatalog {
    // Probed on every PacketIn, so a fast deterministic hasher; `services()`
    // sorts by address before exposing entries, keeping diagnostics and
    // audits in address order regardless of map internals.
    by_addr: DetHashMap<SocketAddr, RegisteredService>,
    by_name: HashMap<Arc<str>, SocketAddr>,
    /// Interner: name → id and id → name.
    ids: HashMap<Arc<str>, ServiceId>,
    names: Vec<Arc<str>>,
    /// [`cookie_for`] of each interned name, hashed once here instead of on
    /// every flow the controller emits.
    cookies: Vec<u64>,
}

/// Stable flow cookie derived from a service name (diagnostics only): FNV-1a
/// over its bytes.
pub(crate) const fn cookie_for(name: &str) -> u64 {
    let bytes = name.as_bytes();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
        i += 1;
    }
    h
}

impl ServiceCatalog {
    pub fn new() -> ServiceCatalog {
        ServiceCatalog::default()
    }

    /// Intern a service name, assigning a fresh [`ServiceId`] on first sight.
    pub fn intern(&mut self, name: &str) -> ServiceId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let arc: Arc<str> = Arc::from(name);
        let id = ServiceId(self.names.len() as u32);
        self.names.push(Arc::clone(&arc));
        self.cookies.push(cookie_for(name));
        self.ids.insert(arc, id);
        id
    }

    /// The interned name behind `id` as a shared handle (refcount bump, no
    /// allocation). Panics on an id this catalog never issued.
    pub fn name_arc(&self, id: ServiceId) -> Arc<str> {
        Arc::clone(&self.names[id.0 as usize])
    }

    /// The interned name behind `id`, borrowed.
    pub fn name_of(&self, id: ServiceId) -> &str {
        &self.names[id.0 as usize]
    }

    /// The flow cookie of service `id` — its name's hash, computed when the
    /// name was interned.
    pub fn cookie_of(&self, id: ServiceId) -> u64 {
        self.cookies[id.0 as usize]
    }

    /// The id a name was interned under, if any.
    pub fn id_of(&self, name: &str) -> Option<ServiceId> {
        self.ids.get(name).copied()
    }

    /// Register a service. Replaces any previous registration of the same
    /// address (re-registration updates the definition) and returns the
    /// previous entry if there was one. The template's name is interned; the
    /// assigned [`ServiceId`] is stable across re-registrations. The new
    /// entry's `demand` is computed here from the new template.
    pub fn register(
        &mut self,
        cloud_addr: SocketAddr,
        template: ServiceTemplate,
    ) -> Option<RegisteredService> {
        let id = self.intern(&template.name);
        self.by_name.insert(self.name_arc(id), cloud_addr);
        self.by_addr.insert(
            cloud_addr,
            RegisteredService {
                id,
                cloud_addr,
                demand: template.resource_request(),
                template: Arc::new(template),
            },
        )
    }

    pub fn unregister(&mut self, cloud_addr: SocketAddr) -> Option<RegisteredService> {
        let entry = self.by_addr.remove(&cloud_addr)?;
        self.by_name.remove(entry.template.name.as_str());
        Some(entry)
    }

    /// The Dispatcher's PacketIn lookup: is this destination a registered
    /// edge service?
    pub fn lookup(&self, addr: SocketAddr) -> Option<&RegisteredService> {
        self.by_addr.get(&addr)
    }

    pub fn lookup_name(&self, name: &str) -> Option<&RegisteredService> {
        self.by_addr.get(self.by_name.get(name)?)
    }

    pub fn len(&self) -> usize {
        self.by_addr.len()
    }
    pub fn is_empty(&self) -> bool {
        self.by_addr.is_empty()
    }

    pub fn services(&self) -> impl Iterator<Item = &RegisteredService> {
        let mut entries: Vec<&RegisteredService> = self.by_addr.values().collect();
        entries.sort_by_key(|s| s.cloud_addr);
        entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::DurationDist;
    use simnet::IpAddr;

    fn addr(d: u8) -> SocketAddr {
        SocketAddr::new(IpAddr::new(93, 184, 0, d), 80)
    }

    fn tpl(name: &str) -> ServiceTemplate {
        ServiceTemplate::single(name, "nginx:1.23.2", 80, DurationDist::zero())
    }

    #[test]
    fn register_lookup_roundtrip() {
        let mut c = ServiceCatalog::new();
        assert!(c.register(addr(1), tpl("svc-a")).is_none());
        assert_eq!(c.lookup(addr(1)).unwrap().template.name, "svc-a");
        assert!(c.lookup(addr(2)).is_none());
        assert_eq!(c.lookup_name("svc-a").unwrap().cloud_addr, addr(1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reregistration_replaces() {
        let mut c = ServiceCatalog::new();
        c.register(addr(1), tpl("old"));
        let prev = c.register(addr(1), tpl("new")).unwrap();
        assert_eq!(prev.template.name, "old");
        assert_eq!(c.lookup(addr(1)).unwrap().template.name, "new");
        assert_eq!(c.len(), 1);
    }

    /// The stored demand is the current template's, whichever way the
    /// registration got there.
    #[test]
    fn demand_follows_the_registered_template() {
        let mut c = ServiceCatalog::new();
        let demand_matches = |c: &ServiceCatalog| {
            let s = c.lookup(addr(1)).expect("registered");
            assert_eq!(s.demand, s.template.resource_request());
            s.demand
        };
        c.register(addr(1), tpl("svc"));
        let single = demand_matches(&c);

        let mut two = tpl("svc");
        let mut sidecar = two.containers[0].clone();
        sidecar.cpu_millis = 100;
        sidecar.mem_bytes = (64 << 20) + 1;
        two.containers.push(sidecar);
        c.register(addr(1), two);
        let doubled = demand_matches(&c);
        assert_eq!(doubled.cpu_millis, single.cpu_millis + 100);
        assert_eq!(doubled.memory_mib, single.memory_mib + 65);

        c.unregister(addr(1));
        c.register(addr(1), tpl("svc"));
        assert_eq!(demand_matches(&c), single);
    }

    #[test]
    fn unregister_removes_both_indexes() {
        let mut c = ServiceCatalog::new();
        c.register(addr(1), tpl("svc"));
        assert!(c.unregister(addr(1)).is_some());
        assert!(c.lookup(addr(1)).is_none());
        assert!(c.lookup_name("svc").is_none());
        assert!(c.unregister(addr(1)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn interned_ids_are_stable_and_distinct() {
        let mut c = ServiceCatalog::new();
        c.register(addr(1), tpl("alpha"));
        c.register(addr(2), tpl("beta"));
        let alpha = c.lookup(addr(1)).unwrap().id;
        let beta = c.lookup(addr(2)).unwrap().id;
        assert_ne!(alpha, beta);
        assert_eq!(c.name_of(alpha), "alpha");
        assert_eq!(c.name_of(beta), "beta");
        assert_eq!(c.id_of("alpha"), Some(alpha));
        assert_eq!(c.id_of("gamma"), None);
        // Re-registering the same name (even at another address) keeps the id.
        c.register(addr(3), tpl("alpha"));
        assert_eq!(c.lookup(addr(3)).unwrap().id, alpha);
        // Unregistration does not free the id.
        c.unregister(addr(1));
        assert_eq!(c.name_of(alpha), "alpha");
        assert_eq!(&*c.name_arc(alpha), "alpha");
        // The cookie is the name's hash, whichever way the name got here.
        assert_eq!(c.cookie_of(alpha), cookie_for("alpha"));
        assert_ne!(c.cookie_of(alpha), c.cookie_of(beta));
        assert_eq!(cookie_for(""), 0xcbf2_9ce4_8422_2325);
    }
}
