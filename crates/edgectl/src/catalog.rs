//! The registry of *registered services*.
//!
//! Paper §II: "The services to be redirected to the edge are first registered
//! with a mobile edge platform provider, identified by their unique
//! combination of domain name/IP address and port number." A PacketIn
//! probes that cloud-facing address once ([`ServiceCatalog::lookup`]); from
//! there on the controller deals in the service's [`ServiceId`], the dense
//! index registration interns the template's name to.
//!
//! The registrations live in one `Vec` indexed by id, each beside its name
//! and flow cookie: [`ServiceCatalog::get`] is an index, and the name is
//! borrowed at the cluster-backend boundary ([`ServiceCatalog::name_of`]).
//! The only hash maps are address → id and the name interner. There is one
//! registration per id (DESIGN.md §5i): a known name registered at another
//! address binds that address to the same id and replaces the id's template;
//! an address re-registered under another name leaves its old id; an id no
//! address binds is not registered.

use std::collections::HashMap;
use std::sync::Arc;

use cluster::{ResourceRequest, ServiceTemplate};
use simcore::DetHashMap;
use simnet::SocketAddr;

/// Interned service name: a stable dense index into the catalog. Ids are
/// never re-used — re-registering a previously seen name yields the same id,
/// even after no address binds it any more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub u32);

impl ServiceId {
    /// `lane[self]`, growing `lane` with defaults to reach it. Per-service
    /// state on the per-request path lives in such dense lanes, where the
    /// default value means "absent" (DESIGN.md §5i).
    pub(crate) fn slot<T: Default>(self, lane: &mut Vec<T>) -> &mut T {
        let i = self.0 as usize;
        if i >= lane.len() {
            lane.resize_with(i + 1, T::default);
        }
        &mut lane[i]
    }
}

/// One registered edge service.
#[derive(Debug, Clone)]
pub struct RegisteredService {
    /// Interned name (see [`ServiceId`]).
    pub id: ServiceId,
    /// The deployable definition (from the annotation engine). Shared so the
    /// deployment pipeline can hold it without deep-copying container lists.
    pub template: Arc<ServiceTemplate>,
    /// The template's [`ServiceTemplate::resource_request`], summed once at
    /// registration: the scheduler and admission control read it on every
    /// PacketIn without walking the container list.
    pub demand: ResourceRequest,
}

/// The registered services: cloud address → id, and id → registration.
#[derive(Debug, Default, Clone)]
pub struct ServiceCatalog {
    /// Indexed by [`ServiceId`]: one entry per interned name.
    entries: Vec<Entry>,
    /// The address each registration was made at → its id. Probed on every
    /// PacketIn, so a fast deterministic hasher.
    by_addr: DetHashMap<SocketAddr, ServiceId>,
    /// The name interner: name → id.
    ids: HashMap<Arc<str>, ServiceId>,
}

#[derive(Debug, Clone)]
struct Entry {
    name: Arc<str>,
    /// [`cookie_for`] the name, hashed once here instead of on every flow the
    /// controller emits.
    cookie: u64,
    /// How many addresses `by_addr` binds to this id.
    addrs: u32,
    /// The current registration; `None` while no address binds the id.
    registered: Option<RegisteredService>,
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
    pub(crate) fn new() -> ServiceCatalog {
        ServiceCatalog::default()
    }

    /// Intern a service name, assigning a fresh [`ServiceId`] on first sight.
    fn intern(&mut self, name: &str) -> ServiceId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let name: Arc<str> = Arc::from(name);
        let id = ServiceId(self.entries.len() as u32);
        self.entries.push(Entry {
            cookie: cookie_for(&name),
            name: Arc::clone(&name),
            addrs: 0,
            registered: None,
        });
        self.ids.insert(name, id);
        id
    }

    /// The interned name behind `id` as a shared handle (refcount bump, no
    /// allocation). Panics on an id this catalog never issued.
    pub fn name_arc(&self, id: ServiceId) -> Arc<str> {
        Arc::clone(&self.entries[id.0 as usize].name)
    }

    /// The interned name behind `id`, borrowed.
    pub fn name_of(&self, id: ServiceId) -> &str {
        &self.entries[id.0 as usize].name
    }

    /// The flow cookie of service `id` — its name's hash, computed when the
    /// name was interned.
    pub(crate) fn cookie_of(&self, id: ServiceId) -> u64 {
        self.entries[id.0 as usize].cookie
    }

    /// The id a name was interned under, if any.
    pub fn id_of(&self, name: &str) -> Option<ServiceId> {
        self.ids.get(name).copied()
    }

    /// Register `template` at `cloud_addr` under the one registration rule
    /// (see the module doc): the address is bound to the id of the
    /// template's name, that id's registration becomes this template (its
    /// `demand` computed here), and an id the address leaves with no address
    /// bound is no longer registered.
    pub fn register(&mut self, cloud_addr: SocketAddr, template: ServiceTemplate) {
        let id = self.intern(&template.name);
        let previous = self.by_addr.insert(cloud_addr, id);
        if previous != Some(id) {
            self.entries[id.0 as usize].addrs += 1;
            if let Some(old) = previous {
                let old = &mut self.entries[old.0 as usize];
                old.addrs -= 1;
                if old.addrs == 0 {
                    old.registered = None;
                }
            }
        }
        self.entries[id.0 as usize].registered = Some(RegisteredService {
            id,
            demand: template.resource_request(),
            template: Arc::new(template),
        });
    }

    /// The Dispatcher's PacketIn lookup: is this destination a registered
    /// edge service, and which? A bound address's id is always registered,
    /// so the probe reads no entry: the id is all a PacketIn carries on.
    pub fn lookup(&self, addr: SocketAddr) -> Option<ServiceId> {
        self.by_addr.get(&addr).copied()
    }

    /// The registration of service `id`, if an address binds it.
    pub fn get(&self, id: ServiceId) -> Option<&RegisteredService> {
        self.entries.get(id.0 as usize)?.registered.as_ref()
    }

    /// Every registered service, in id order.
    pub fn services(&self) -> impl Iterator<Item = &RegisteredService> {
        self.entries.iter().filter_map(|e| e.registered.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use simcore::DurationDist;
    use simnet::IpAddr;

    use super::*;

    fn addr(d: u8) -> SocketAddr {
        SocketAddr::new(IpAddr::new(93, 184, 0, d), 80)
    }

    fn tpl(name: &str) -> ServiceTemplate {
        ServiceTemplate::single(name, "nginx:1.23.2", 80, DurationDist::zero())
    }

    /// The registration at `a`, reached through its id.
    fn at(c: &ServiceCatalog, a: SocketAddr) -> Option<&RegisteredService> {
        c.get(c.lookup(a)?)
    }

    /// The registration of `name`, reached by name.
    fn by_name<'a>(c: &'a ServiceCatalog, name: &str) -> Option<&'a RegisteredService> {
        c.get(c.id_of(name)?)
    }

    #[test]
    fn register_lookup_roundtrip() {
        let mut c = ServiceCatalog::new();
        c.register(addr(1), tpl("svc-a"));
        let s = at(&c, addr(1)).unwrap();
        assert_eq!(s.template.name, "svc-a");
        assert!(c.lookup(addr(2)).is_none());
        assert_eq!(by_name(&c, "svc-a").unwrap().id, s.id);
        assert_eq!(c.services().count(), 1);
    }

    /// Re-registering an address under another name leaves the old name
    /// unregistered: nothing reached by it answers with the new service.
    #[test]
    fn reregistration_replaces() {
        let mut c = ServiceCatalog::new();
        c.register(addr(1), tpl("old"));
        let old = c.id_of("old").unwrap();
        c.register(addr(1), tpl("new"));
        assert_eq!(at(&c, addr(1)).unwrap().template.name, "new");
        assert!(c.get(old).is_none());
        assert!(by_name(&c, "old").is_none());
        assert_eq!(c.services().count(), 1);
    }

    /// The stored demand is the current template's, whichever way the
    /// registration got there.
    #[test]
    fn demand_follows_the_registered_template() {
        let mut c = ServiceCatalog::new();
        let demand_matches = |c: &ServiceCatalog| {
            let s = at(c, addr(1)).expect("registered");
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

        // Away under another name and back: the demand is the new template's.
        c.register(addr(1), tpl("other"));
        c.register(addr(1), tpl("svc"));
        assert_eq!(demand_matches(&c), single);
    }

    #[test]
    fn interned_ids_are_stable_and_distinct() {
        let mut c = ServiceCatalog::new();
        c.register(addr(1), tpl("alpha"));
        c.register(addr(2), tpl("beta"));
        let alpha = c.lookup(addr(1)).unwrap();
        let beta = c.lookup(addr(2)).unwrap();
        assert_ne!(alpha, beta);
        assert_eq!(c.name_of(alpha), "alpha");
        assert_eq!(c.name_of(beta), "beta");
        assert_eq!(c.id_of("alpha"), Some(alpha));
        assert_eq!(c.id_of("gamma"), None);
        // Registering the same name at another address keeps the id.
        c.register(addr(3), tpl("alpha"));
        assert_eq!(c.lookup(addr(3)), Some(alpha));
        // An id no address binds any more keeps its name.
        c.register(addr(1), tpl("beta"));
        c.register(addr(3), tpl("beta"));
        assert!(c.get(alpha).is_none());
        assert_eq!(c.name_of(alpha), "alpha");
        assert_eq!(&*c.name_arc(alpha), "alpha");
        // The cookie is the name's hash, whichever way the name got here.
        assert_eq!(c.cookie_of(alpha), cookie_for("alpha"));
        assert_ne!(c.cookie_of(alpha), c.cookie_of(beta));
        assert_eq!(cookie_for(""), 0xcbf2_9ce4_8422_2325);
    }

    const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

    /// The registration rule as plain maps: which name each address binds,
    /// the version of each name's latest template, and the names in the
    /// order they were first registered (the id order).
    #[derive(Default)]
    struct Model {
        bound: BTreeMap<u8, usize>,
        version: BTreeMap<usize, u16>,
        first_seen: Vec<usize>,
    }

    impl Model {
        fn register(&mut self, a: u8, n: usize, version: u16) {
            self.bound.insert(a, n);
            self.version.insert(n, version);
            if !self.first_seen.contains(&n) {
                self.first_seen.push(n);
            }
        }

        /// `(name, template version)` of name `n`, if an address binds it.
        fn registration(&self, n: usize) -> Option<(&'static str, u16)> {
            self.bound
                .values()
                .any(|&b| b == n)
                .then(|| (NAMES[n], self.version[&n]))
        }
    }

    /// `(name, template version)` of a registration, checking its stored
    /// fields against each other on the way.
    fn seen(c: &ServiceCatalog, s: Option<&RegisteredService>) -> Option<(String, u16)> {
        let s = s?;
        assert_eq!(s.demand, s.template.resource_request());
        assert_eq!(c.name_of(s.id), s.template.name);
        assert_eq!(c.id_of(&s.template.name), Some(s.id));
        Some((s.template.name.clone(), s.template.port))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any sequence of registrations over four addresses and three names
        /// leaves the catalog answering as the registration rule says, by
        /// address, by id, by name and in `services()`.
        #[test]
        fn catalog_follows_the_registration_rule(
            ops in prop::collection::vec((0u8..4, 0usize..3), 0..24),
        ) {
            let mut c = ServiceCatalog::new();
            let mut model = Model::default();
            for (i, &(a, n)) in ops.iter().enumerate() {
                let version = 8000 + i as u16;
                let mut template = tpl(NAMES[n]);
                template.port = version;
                template.containers[0].cpu_millis = 100 + u32::from(version);
                c.register(addr(a), template);
                model.register(a, n, version);

                let owned = |m: Option<(&str, u16)>| m.map(|(name, v)| (name.to_owned(), v));
                for a in 0..4 {
                    let want = model.bound.get(&a).and_then(|&n| model.registration(n));
                    prop_assert_eq!(seen(&c, at(&c, addr(a))), owned(want), "lookup({}) after {:?}", a, &ops[..=i]);
                }
                for (n, name) in NAMES.iter().enumerate() {
                    let want = owned(model.registration(n));
                    prop_assert_eq!(seen(&c, by_name(&c, name)), want.clone(), "{} by name after {:?}", name, &ops[..=i]);
                    let id = model.first_seen.iter().position(|&f| f == n);
                    prop_assert_eq!(c.id_of(name), id.map(|id| ServiceId(id as u32)));
                }
                let services: Vec<_> = c.services().map(|s| seen(&c, Some(s))).collect();
                let want: Vec<_> = model.first_seen.iter().filter_map(|&n| owned(model.registration(n)).map(Some)).collect();
                prop_assert_eq!(services, want, "services() after {:?}", &ops[..=i]);
            }
        }
    }
}
