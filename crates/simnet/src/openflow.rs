//! An OpenFlow-style switch: flow table with priorities and idle/hard
//! timeouts, match/action processing with SetField rewrites, table-miss
//! buffering (`PacketIn`), `FlowMod`/`PacketOut` handling and flow-removed
//! notifications.
//!
//! This models the control surface the paper's controller uses (paper Fig. 2):
//! the first packet of a flow to a registered service misses the table and is
//! *buffered* at the switch while a `PacketIn` goes to the controller — that
//! buffering is precisely the "keep the client's request waiting" mechanism of
//! on-demand deployment *with waiting*. The controller later answers with a
//! `FlowMod` (install the redirect rewrite) plus a `PacketOut` (release the
//! buffered packet through the new actions).
//!
//! ## Indexed flow pipeline
//!
//! The table is indexed so the per-packet and per-tick costs no longer scale
//! with the number of installed flows (see DESIGN.md, "Flow pipeline
//! complexity"):
//!
//! * entries without masked (`IpNet`) fields — including the all-wildcard
//!   catch-all — live in a hash index keyed by their exact-field *shape*
//!   (which of protocol/src/dst/ports are specified) plus the field values;
//!   a lookup probes one bucket per distinct shape currently installed,
//! * entries with masked fields live in a short priority-ordered fallback
//!   list that is scanned only until it can no longer beat the best hash hit,
//! * an entry with only an idle timeout sits, by slot, in an [`IdleOrder`]
//!   list of its timeout kept in last-touch order: a hit is a move to the
//!   tail, `next_expiry` reads the list heads and an eviction sweep unlinks
//!   heads, O(1) per evicted entry; an entry with a hard timeout has one
//!   `(id, slot)` record in a [`DeadlineIndex`] instead,
//! * nothing indexes entries by id or cookie — no packet, install or sweep
//!   asks — so `get` and `delete_by_cookie` are O(table) scans.
//!
//! The observable semantics are unchanged: OpenFlow priority order with
//! stable insertion order inside a priority level, `OFPFC_ADD` replace
//! semantics, and `FlowRemoved` notifications in table order.

use std::cmp::Reverse;
use std::hash::{Hash, Hasher};

use simcore::{DeadlineIndex, DetHashMap, IdleOrder, SimDuration, SimTime};

use crate::addr::{IpAddr, SocketAddr};
use crate::packet::{Packet, Protocol};

/// A switch port. Ports are dense indices; the testbed maps each port to the
/// topology node attached to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub usize);

/// Identifies an installed flow entry. Ids are allocated monotonically and
/// never reused, so they double as the insertion-order tiebreaker inside a
/// priority level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Identifies a packet buffered at the switch awaiting a controller decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub u64);

/// A masked IPv4 prefix (OpenFlow arbitrary-mask match, restricted to CIDR
/// prefixes): `10.1.0.0/16` etc. Used for the static topology routes a
/// multi-switch fabric needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpNet {
    pub addr: IpAddr,
    /// Prefix length 0..=32.
    pub prefix: u8,
}

impl IpNet {
    pub fn new(addr: IpAddr, prefix: u8) -> IpNet {
        assert!(prefix <= 32, "prefix length {prefix} > 32");
        IpNet { addr, prefix }
    }

    pub fn contains(&self, ip: IpAddr) -> bool {
        let mask = if self.prefix == 0 {
            0
        } else {
            u32::MAX << (32 - self.prefix as u32)
        };
        (ip.0 & mask) == (self.addr.0 & mask)
    }

    /// Every address in `other` is also in `self` (CIDR containment: a
    /// shorter-or-equal prefix whose network covers `other`'s network).
    pub fn subsumes(&self, other: &IpNet) -> bool {
        self.prefix <= other.prefix && self.contains(other.addr)
    }

    /// The two prefixes share at least one address. For CIDR prefixes this is
    /// exactly "one contains the other" — partial overlap is impossible.
    pub fn intersects(&self, other: &IpNet) -> bool {
        self.subsumes(other) || other.subsumes(self)
    }
}

/// `a == Some(x)` forces the same constraint `b` does, for exact match
/// fields: a wildcard subsumes anything; a pinned value subsumes only the
/// same pinned value.
fn exact_subsumes<T: PartialEq + Copy>(a: Option<T>, b: Option<T>) -> bool {
    match a {
        None => true,
        Some(x) => b == Some(x),
    }
}

/// Exact match fields are jointly satisfiable: not both pinned to different
/// values.
fn exact_compatible<T: PartialEq + Copy>(a: Option<T>, b: Option<T>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    }
}

/// One direction (src or dst) of a matcher is the conjunction of an optional
/// exact ip and an optional masked prefix. `a` subsumes `b` iff every ip
/// admitted by `b`'s conjunction is admitted by `a`'s. Conservative: when `b`
/// is unsatisfiable we may answer `false` even though subsumption holds
/// vacuously — soundness (no false shadowing reports) is what matters.
fn dir_subsumes(
    a_ip: Option<IpAddr>,
    a_net: Option<IpNet>,
    b_ip: Option<IpAddr>,
    b_net: Option<IpNet>,
) -> bool {
    let ip_ok = match a_ip {
        None => true,
        // b must force the ip to the same value: either pinned exactly, or
        // constrained by a /32 whose sole address is it.
        Some(x) => b_ip == Some(x) || b_net.is_some_and(|n| n.prefix == 32 && n.contains(x)),
    };
    let net_ok = match a_net {
        None => true,
        Some(n) => {
            n.prefix == 0
                || b_ip.is_some_and(|y| n.contains(y))
                || b_net.is_some_and(|m| n.subsumes(&m))
        }
    };
    ip_ok && net_ok
}

/// One direction of two matchers admits at least one common ip.
fn dir_intersects(
    a_ip: Option<IpAddr>,
    a_net: Option<IpNet>,
    b_ip: Option<IpAddr>,
    b_net: Option<IpNet>,
) -> bool {
    if let (Some(x), Some(y)) = (a_ip, b_ip) {
        if x != y {
            return false;
        }
    }
    match a_ip.or(b_ip) {
        // a pinned ip must lie inside every prefix constraint on this side
        Some(x) => a_net.is_none_or(|n| n.contains(x)) && b_net.is_none_or(|n| n.contains(x)),
        None => match (a_net, b_net) {
            (Some(n), Some(m)) => n.intersects(&m),
            _ => true,
        },
    }
}

/// Match fields (all optional = wildcard). The transparent-edge controller
/// matches on (src ip, dst ip, dst port, protocol): per-client, per-service
/// flows, exactly as in the paper's prototype. The masked `*_net` fields
/// express the coarse topology routes of a multi-switch fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowMatch {
    pub protocol: Option<Protocol>,
    pub src_ip: Option<IpAddr>,
    pub src_port: Option<u16>,
    pub dst_ip: Option<IpAddr>,
    pub dst_port: Option<u16>,
    /// Masked source match (combines with `src_ip` conjunctively).
    pub src_net: Option<IpNet>,
    /// Masked destination match.
    pub dst_net: Option<IpNet>,
}

impl FlowMatch {
    /// Match any packet.
    pub fn any() -> FlowMatch {
        FlowMatch::default()
    }

    /// Match every TCP packet addressed to `dst` (service-wide rule).
    pub fn to_service(dst: SocketAddr) -> FlowMatch {
        FlowMatch {
            protocol: Some(Protocol::Tcp),
            dst_ip: Some(dst.ip),
            dst_port: Some(dst.port),
            ..FlowMatch::default()
        }
    }

    /// Match everything destined into `net` (a topology route).
    pub fn to_net(net: IpNet) -> FlowMatch {
        FlowMatch {
            dst_net: Some(net),
            ..FlowMatch::default()
        }
    }

    /// Match everything whose source lies in `net`.
    pub fn from_net(net: IpNet) -> FlowMatch {
        FlowMatch {
            src_net: Some(net),
            ..FlowMatch::default()
        }
    }

    /// Match TCP packets from one client IP to `dst` (per-client rule — what
    /// the controller installs so different clients can go to different
    /// instances).
    pub fn client_to_service(client_ip: IpAddr, dst: SocketAddr) -> FlowMatch {
        FlowMatch {
            src_ip: Some(client_ip),
            ..FlowMatch::to_service(dst)
        }
    }

    pub fn matches(&self, p: &Packet) -> bool {
        self.protocol.is_none_or(|v| v == p.protocol)
            && self.src_ip.is_none_or(|v| v == p.src.ip)
            && self.src_port.is_none_or(|v| v == p.src.port)
            && self.dst_ip.is_none_or(|v| v == p.dst.ip)
            && self.dst_port.is_none_or(|v| v == p.dst.port)
            && self.src_net.is_none_or(|n| n.contains(p.src.ip))
            && self.dst_net.is_none_or(|n| n.contains(p.dst.ip))
    }

    /// Every packet matched by `other` is also matched by `self` (header-space
    /// subsumption). If a higher-or-equal-priority rule with this matcher sits
    /// earlier in table order, a rule with `other`'s matcher can never fire.
    ///
    /// Conservative: returns `false` rather than reasoning about unsatisfiable
    /// matchers, so a `true` answer is always a genuine cover.
    pub fn subsumes(&self, other: &FlowMatch) -> bool {
        exact_subsumes(self.protocol, other.protocol)
            && exact_subsumes(self.src_port, other.src_port)
            && exact_subsumes(self.dst_port, other.dst_port)
            && dir_subsumes(self.src_ip, self.src_net, other.src_ip, other.src_net)
            && dir_subsumes(self.dst_ip, self.dst_net, other.dst_ip, other.dst_net)
    }

    /// Some packet is matched by both matchers. Two same-priority rules that
    /// intersect but rewrite differently are a nondeterminism hazard.
    pub fn intersects(&self, other: &FlowMatch) -> bool {
        exact_compatible(self.protocol, other.protocol)
            && exact_compatible(self.src_port, other.src_port)
            && exact_compatible(self.dst_port, other.dst_port)
            && dir_intersects(self.src_ip, self.src_net, other.src_ip, other.src_net)
            && dir_intersects(self.dst_ip, self.dst_net, other.dst_ip, other.dst_net)
    }

    /// At least one packet satisfies this matcher's own conjunction (an exact
    /// ip pinned outside its own mask makes a rule dead on arrival).
    pub fn is_satisfiable(&self) -> bool {
        self.src_ip
            .is_none_or(|x| self.src_net.is_none_or(|n| n.contains(x)))
            && self
                .dst_ip
                .is_none_or(|x| self.dst_net.is_none_or(|n| n.contains(x)))
    }

    /// Exact-field shape bitmask; see [`ExactKey`].
    fn shape(&self) -> u8 {
        (self.protocol.is_some() as u8)
            | (self.src_ip.is_some() as u8) << 1
            | (self.src_port.is_some() as u8) << 2
            | (self.dst_ip.is_some() as u8) << 3
            | (self.dst_port.is_some() as u8) << 4
    }

    /// Whether this matcher is hash-indexable: every constrained field is an
    /// exact equality (no masked prefixes).
    fn is_exact(&self) -> bool {
        self.src_net.is_none() && self.dst_net.is_none()
    }
}

/// Hash key for exact matchers: the `Some`-ness pattern of the five exact
/// fields is the *shape*, and the values under that shape identify the
/// matcher uniquely. A packet is probed once per shape present in the table
/// (tuple-space search); a bucket hit is a guaranteed match, no re-check
/// needed.
///
/// Packed into two words so a probe hashes two words, not five `Option`s:
/// `meta` holds the shape in bits 0..5, the protocol in 8..16, the source
/// port in 16..32 and the destination port in 32..48; `addrs` holds the
/// source ip in its low half and the destination ip in its high half. A field
/// outside the shape is zero, so equal keys are equal matchers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExactKey {
    meta: u64,
    addrs: u64,
}

impl ExactKey {
    /// `(meta, addrs)` bits of the fields each shape constrains.
    const FIELD_MASKS: [(u64, u64); 32] = {
        let mut masks = [(0u64, 0u64); 32];
        let mut shape = 0;
        while shape < 32 {
            let (mut meta, mut addrs) = (0u64, 0u64);
            if shape & 1 != 0 {
                meta |= 0xff << 8;
            }
            if shape & 2 != 0 {
                addrs |= 0xffff_ffff;
            }
            if shape & 4 != 0 {
                meta |= 0xffff << 16;
            }
            if shape & 8 != 0 {
                addrs |= 0xffff_ffff << 32;
            }
            if shape & 16 != 0 {
                meta |= 0xffff << 32;
            }
            masks[shape] = (meta, addrs);
            shape += 1;
        }
        masks
    };

    fn of_matcher(m: &FlowMatch) -> ExactKey {
        debug_assert!(m.is_exact());
        ExactKey {
            meta: m.shape() as u64
                | m.protocol.map_or(0, |p| p as u64) << 8
                | m.src_port.map_or(0, u64::from) << 16
                | m.dst_port.map_or(0, u64::from) << 32,
            addrs: m.src_ip.map_or(0, |ip| ip.0 as u64)
                | m.dst_ip.map_or(0, |ip| ip.0 as u64) << 32,
        }
    }

    /// All five fields of a packet, shape bits clear — computed once per
    /// lookup and [`ExactKey::project`]ed onto each live shape.
    fn fields_of(p: &Packet) -> ExactKey {
        ExactKey {
            meta: (p.protocol as u64) << 8 | (p.src.port as u64) << 16 | (p.dst.port as u64) << 32,
            addrs: p.src.ip.0 as u64 | (p.dst.ip.0 as u64) << 32,
        }
    }

    /// Project a packet's fields onto a shape: the key an exact matcher of
    /// that shape must equal for the packet to match it.
    fn project(self, shape: u8) -> ExactKey {
        let (meta, addrs) = Self::FIELD_MASKS[shape as usize];
        ExactKey {
            meta: shape as u64 | self.meta & meta,
            addrs: self.addrs & addrs,
        }
    }
}

impl Hash for ExactKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `DetHasher` is multiply-rotate: the low bits of its output — the
        // bucket index — see only the low bits of the last word written, so
        // fold the destination ip (high half) down into them first.
        let addrs = self.addrs.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        state.write_u64(self.meta);
        state.write_u64(addrs ^ addrs >> 32);
    }
}

/// Actions applied to a matching packet, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    SetSrcIp(IpAddr),
    SetSrcPort(u16),
    SetDstIp(IpAddr),
    SetDstPort(u16),
    /// Emit on a port.
    Output(PortId),
    /// Punt to the controller (used by the low-priority catch-all rule for
    /// registered service addresses).
    ToController,
    Drop,
}

/// An action list with inline capacity for the common case.
///
/// Controller-installed redirects carry at most three actions (two rewrites
/// plus an output), so the list stores up to [`ActionList::INLINE`] actions
/// in place — cloning an installed entry's actions on the per-packet apply
/// path then copies a few words instead of heap-allocating a `Vec`. Longer
/// lists (seeded experiment flows, synthetic tests) spill to a `Vec`
/// transparently.
#[derive(Debug, Clone)]
pub enum ActionList {
    /// Up to `INLINE` actions stored in place; slots past `len` are padding.
    Inline { len: u8, items: [Action; 4] },
    /// Fallback for longer lists.
    Spilled(Vec<Action>),
}

impl ActionList {
    /// Inline capacity; pushes past this spill to the heap.
    pub const INLINE: usize = 4;
    const PAD: Action = Action::Drop;

    pub fn new() -> ActionList {
        ActionList::Inline {
            len: 0,
            items: [Self::PAD; Self::INLINE],
        }
    }

    pub fn push(&mut self, action: Action) {
        match self {
            ActionList::Inline { len, items } => {
                if (*len as usize) < Self::INLINE {
                    items[*len as usize] = action;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(Self::INLINE + 1);
                    v.extend_from_slice(&items[..]);
                    v.push(action);
                    *self = ActionList::Spilled(v);
                }
            }
            ActionList::Spilled(v) => v.push(action),
        }
    }

    pub fn as_slice(&self) -> &[Action] {
        match self {
            ActionList::Inline { len, items } => &items[..*len as usize],
            ActionList::Spilled(v) => v,
        }
    }
}

impl Default for ActionList {
    fn default() -> ActionList {
        ActionList::new()
    }
}

impl std::ops::Deref for ActionList {
    type Target = [Action];
    fn deref(&self) -> &[Action] {
        self.as_slice()
    }
}

// Padding slots are not part of the value: equality is slice equality, so an
// inline list equals a spilled list with the same actions.
impl PartialEq for ActionList {
    fn eq(&self, other: &ActionList) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for ActionList {}

impl From<Vec<Action>> for ActionList {
    fn from(v: Vec<Action>) -> ActionList {
        if v.len() <= Self::INLINE {
            let mut list = ActionList::new();
            for a in v {
                list.push(a);
            }
            list
        } else {
            ActionList::Spilled(v)
        }
    }
}

impl From<&[Action]> for ActionList {
    fn from(v: &[Action]) -> ActionList {
        v.iter().copied().collect()
    }
}

impl FromIterator<Action> for ActionList {
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> ActionList {
        let mut list = ActionList::new();
        for a in iter {
            list.push(a);
        }
        list
    }
}

impl<'a> IntoIterator for &'a ActionList {
    type Item = &'a Action;
    type IntoIter = std::slice::Iter<'a, Action>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Everything that defines a flow entry except its identity and counters:
/// matcher, priority, actions and timeouts. Built fluently and handed to
/// [`FlowTable::install`] / [`Switch::flow_mod`]:
///
/// ```
/// use simnet::openflow::{Action, FlowMatch, FlowSpec, FlowTable, PortId};
/// use simnet::{IpAddr, SocketAddr};
/// use simcore::{SimDuration, SimTime};
///
/// let mut table = FlowTable::new();
/// let spec = FlowSpec::new(FlowMatch::to_service(SocketAddr::new(IpAddr::new(93, 184, 0, 1), 80)))
///     .priority(100)
///     .action(Action::Output(PortId(2)))
///     .idle(SimDuration::from_secs(10))
///     .cookie(7);
/// table.install(SimTime::ZERO, spec);
/// assert_eq!(table.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    pub matcher: FlowMatch,
    pub priority: u16,
    pub actions: ActionList,
    pub idle_timeout: Option<SimDuration>,
    pub hard_timeout: Option<SimDuration>,
    pub cookie: u64,
}

impl FlowSpec {
    /// A spec matching `matcher` with priority 0, no actions, no timeouts and
    /// cookie 0; chain the builder methods to refine it.
    pub fn new(matcher: FlowMatch) -> FlowSpec {
        FlowSpec {
            matcher,
            priority: 0,
            actions: ActionList::new(),
            idle_timeout: None,
            hard_timeout: None,
            cookie: 0,
        }
    }

    pub fn priority(mut self, priority: u16) -> FlowSpec {
        self.priority = priority;
        self
    }

    /// Append one action.
    pub fn action(mut self, action: Action) -> FlowSpec {
        self.actions.push(action);
        self
    }

    /// Replace the action list (accepts a `Vec<Action>`, a slice or an
    /// [`ActionList`]).
    pub fn actions(mut self, actions: impl Into<ActionList>) -> FlowSpec {
        self.actions = actions.into();
        self
    }

    /// Evict after this long without a matching packet.
    pub fn idle(mut self, timeout: SimDuration) -> FlowSpec {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Like [`FlowSpec::idle`] but taking an `Option` (for call-sites that
    /// thread an optional timeout through).
    pub fn idle_opt(mut self, timeout: Option<SimDuration>) -> FlowSpec {
        self.idle_timeout = timeout;
        self
    }

    /// Evict this long after installation regardless of use.
    pub fn hard(mut self, timeout: SimDuration) -> FlowSpec {
        self.hard_timeout = Some(timeout);
        self
    }

    /// Like [`FlowSpec::hard`] but taking an `Option`.
    pub fn hard_opt(mut self, timeout: Option<SimDuration>) -> FlowSpec {
        self.hard_timeout = timeout;
        self
    }

    pub fn cookie(mut self, cookie: u64) -> FlowSpec {
        self.cookie = cookie;
        self
    }
}

/// An installed flow entry.
#[derive(Debug, Clone)]
pub struct FlowEntry {
    pub id: FlowId,
    pub priority: u16,
    pub matcher: FlowMatch,
    pub actions: ActionList,
    /// Evict after this long without a matching packet.
    pub idle_timeout: Option<SimDuration>,
    /// Evict this long after installation regardless of use.
    pub hard_timeout: Option<SimDuration>,
    pub cookie: u64,
    pub installed_at: SimTime,
    pub last_used: SimTime,
    pub packets: u64,
}

impl FlowEntry {
    /// The instant at which this entry currently expires: the earlier of its
    /// idle and hard deadlines, `None` if it has no timeouts.
    fn deadline(&self) -> Option<SimTime> {
        let idle = self.idle_timeout.map(|d| self.last_used + d);
        let hard = self.hard_timeout.map(|d| self.installed_at + d);
        match (idle, hard) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Table order: priority descending, then insertion order ascending.
    fn rank(&self) -> (Reverse<u16>, FlowId) {
        (Reverse(self.priority), self.id)
    }

    /// The timeout of an entry that only idles out — one the table keeps in
    /// its [`IdleOrder`] rather than its [`DeadlineIndex`].
    fn idle_only(&self) -> Option<SimDuration> {
        match (self.idle_timeout, self.hard_timeout) {
            (Some(idle), None) => Some(idle),
            _ => None,
        }
    }
}

/// Why a flow entry left the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalReason {
    IdleTimeout,
    HardTimeout,
    Deleted,
}

/// A flow-removed notification (OpenFlow `OFPT_FLOW_REMOVED`); the controller
/// uses idle-timeout removals to drive FlowMemory expiry and scale-down.
#[derive(Debug, Clone)]
pub struct FlowRemoved {
    pub entry: FlowEntry,
    pub reason: RemovalReason,
    pub at: SimTime,
}

/// A bucket of slot indices with inline storage for the common case.
///
/// Exact-match buckets hold one slot per `(matcher, priority)`; more than
/// one entry only appears when the same matcher is installed at several
/// priorities. Keeping two slots inline means the per-request install path
/// never allocates a bucket `Vec`.
#[derive(Debug, Clone)]
enum SlotBucket {
    Inline { len: u8, slots: [usize; 2] },
    Spilled(Vec<usize>),
}

impl SlotBucket {
    fn one(slot: usize) -> SlotBucket {
        SlotBucket::Inline {
            len: 1,
            slots: [slot, 0],
        }
    }

    fn slice(&self) -> &[usize] {
        match self {
            SlotBucket::Inline { len, slots } => &slots[..*len as usize],
            SlotBucket::Spilled(v) => v,
        }
    }

    /// Insert `slot` at `pos`, spilling to a `Vec` past two entries.
    fn insert(&mut self, pos: usize, slot: usize) {
        match self {
            SlotBucket::Inline { len, slots } if (*len as usize) < slots.len() => {
                let n = *len as usize;
                debug_assert!(pos <= n);
                if pos < n {
                    slots[1] = slots[0];
                }
                slots[pos] = slot;
                *len = (n + 1) as u8;
            }
            SlotBucket::Inline { len, slots } => {
                let mut v = Vec::with_capacity(*len as usize + 1);
                v.extend_from_slice(&slots[..*len as usize]);
                v.insert(pos, slot);
                *self = SlotBucket::Spilled(v);
            }
            SlotBucket::Spilled(v) => v.insert(pos, slot),
        }
    }

    /// Remove every occurrence of `slot`, preserving order.
    fn remove_slot(&mut self, slot: usize) {
        match self {
            SlotBucket::Inline { len, slots } => {
                let n = *len as usize;
                let mut kept = 0usize;
                for i in 0..n {
                    if slots[i] != slot {
                        slots[kept] = slots[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            SlotBucket::Spilled(v) => v.retain(|&s| s != slot),
        }
    }

    fn is_empty(&self) -> bool {
        self.slice().is_empty()
    }
}

/// Priority-ordered flow table with hash-indexed exact-match lookup.
///
/// Matching follows OpenFlow semantics: the winning entry is the first in
/// `(priority desc, insertion order asc)` order whose matcher accepts the
/// packet. Internally, exact matchers (no `IpNet` masks) are found through a
/// per-shape hash index and masked matchers through a short ordered fallback
/// list; the module docs describe the structures and DESIGN.md the complexity
/// argument.
#[derive(Debug, Default)]
pub struct FlowTable {
    /// Slab of entries; a slot is `None` after its entry is removed and may
    /// be reused by a later install.
    slots: Vec<Option<FlowEntry>>,
    free_slots: Vec<usize>,
    /// Exact matchers: full key → bucket of slots sorted by table order.
    /// Every entry in a bucket has the *same* matcher (the key pins all
    /// constrained fields), so buckets only grow past 1 when the same matcher
    /// is installed at several priorities — [`SlotBucket`] keeps the common
    /// 1–2 entry case inline, so an install allocates nothing here.
    exact: DetHashMap<ExactKey, SlotBucket>,
    /// How many exact entries exist per shape.
    shape_counts: [usize; 32],
    /// Bit `s` set iff `shape_counts[s] > 0` — the set of keys to probe per
    /// packet, walked in ascending shape order.
    live_shapes: u32,
    /// Masked (`IpNet`) matchers, sorted by table order.
    masked: Vec<usize>,
    /// Expiry of every entry with an idle timeout and no hard one: handle =
    /// slot, stamp = `last_used`.
    idle: IdleOrder,
    /// Expiry schedule, keyed `(id, slot)`, of every entry with a hard
    /// timeout; settled (see [`simcore::deadline`]) before every `&mut self`
    /// method returns. The truth is [`FlowEntry::deadline`] of the entry in
    /// `slot`, or gone once the slot is empty or holds a later `id`.
    hard: DeadlineIndex<(FlowId, usize)>,
    next_id: u64,
    len: usize,
}

impl FlowTable {
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Install an entry; returns its id.
    ///
    /// OpenFlow `OFPFC_ADD` semantics: an entry with the same `(priority,
    /// match)` replaces the existing one (counters reset), so re-installing a
    /// redirect simply overwrites it.
    pub fn install(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        let FlowSpec {
            matcher,
            priority,
            actions,
            idle_timeout,
            hard_timeout,
            cookie,
        } = spec;

        // Replace any existing entry with the same (priority, match).
        if let Some(slot) = self.find_same_rule(priority, &matcher) {
            self.detach(slot);
        }

        let id = FlowId(self.next_id);
        self.next_id += 1;
        let entry = FlowEntry {
            id,
            priority,
            matcher,
            actions,
            idle_timeout,
            hard_timeout,
            cookie,
            installed_at: now,
            last_used: now,
            packets: 0,
        };
        let deadline = entry.deadline();
        let idle_only = entry.idle_only();

        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s] = Some(entry);
                s
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };

        if matcher.is_exact() {
            let shape = matcher.shape();
            self.shape_counts[shape as usize] += 1;
            self.live_shapes |= 1 << shape;
            match self.exact.entry(ExactKey::of_matcher(&matcher)) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let pos = Self::ordered_position(&self.slots, e.get().slice(), priority);
                    e.get_mut().insert(pos, slot);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(SlotBucket::one(slot));
                }
            }
        } else {
            let pos = Self::ordered_position(&self.slots, &self.masked, priority);
            self.masked.insert(pos, slot);
        }

        if let Some(idle) = idle_only {
            let slots = &self.slots;
            self.idle
                .link(handle(slot), idle, now, |h| last_used(slots, h));
        } else if let Some(d) = deadline {
            self.hard.file(d, (id, slot));
        }
        self.len += 1;
        self.settle_hard();
        id
    }

    /// Position in `list` (sorted by table order) where a new entry of
    /// `priority` belongs. New entries carry the largest id so far, so they
    /// go after every entry with priority >= theirs.
    fn ordered_position(slots: &[Option<FlowEntry>], list: &[usize], priority: u16) -> usize {
        list.iter()
            .position(|&s| slots[s].as_ref().expect("indexed slot occupied").priority < priority)
            .unwrap_or(list.len())
    }

    /// Slot of the entry with exactly this (priority, matcher), if installed.
    fn find_same_rule(&self, priority: u16, matcher: &FlowMatch) -> Option<usize> {
        if matcher.is_exact() {
            let bucket = self.exact.get(&ExactKey::of_matcher(matcher))?;
            bucket.slice().iter().copied().find(|&s| {
                self.slots[s]
                    .as_ref()
                    .expect("indexed slot occupied")
                    .priority
                    == priority
            })
        } else {
            self.masked.iter().copied().find(|&s| {
                let e = self.slots[s].as_ref().expect("indexed slot occupied");
                e.priority == priority && &e.matcher == matcher
            })
        }
    }

    /// Winning slot for a packet: best hash-bucket head across installed
    /// shapes, then the masked fallback list scanned only while it can still
    /// beat that.
    fn find_slot(&self, p: &Packet) -> Option<usize> {
        let mut best: Option<usize> = None;
        let consider = |slots: &[Option<FlowEntry>], best: &mut Option<usize>, cand: usize| {
            let better = match *best {
                None => true,
                Some(b) => {
                    let rank = |s: usize| slots[s].as_ref().expect("indexed slot occupied").rank();
                    rank(cand) < rank(b)
                }
            };
            if better {
                *best = Some(cand);
            }
        };

        let fields = ExactKey::fields_of(p);
        let mut live = self.live_shapes;
        while live != 0 {
            let shape = live.trailing_zeros() as u8;
            live &= live - 1;
            if let Some(bucket) = self.exact.get(&fields.project(shape)) {
                // Bucket heads are guaranteed matches: the key pins every
                // constrained field to the packet's values.
                if let Some(&head) = bucket.slice().first() {
                    consider(&self.slots, &mut best, head);
                }
            }
        }

        for &slot in &self.masked {
            let e = self.slots[slot].as_ref().expect("indexed slot occupied");
            if let Some(b) = best {
                // The masked list is in table order; once we fall behind the
                // best exact candidate no masked entry can win.
                if e.rank()
                    > self.slots[b]
                        .as_ref()
                        .expect("indexed slot occupied")
                        .rank()
                {
                    break;
                }
            }
            if e.matcher.matches(p) {
                best = Some(slot);
                break;
            }
        }
        best
    }

    /// Find the highest-priority matching entry, updating its stats.
    pub fn lookup(&mut self, now: SimTime, p: &Packet) -> Option<&FlowEntry> {
        let slot = self.find_slot(p)?;
        let e = self.slots[slot].as_mut().expect("indexed slot occupied");
        let before = e.deadline();
        let last = std::mem::replace(&mut e.last_used, now);
        e.packets += 1;
        if let Some(idle) = e.idle_only() {
            let slots = &self.slots;
            self.idle
                .touch(handle(slot), idle, last, now, |h| last_used(slots, h));
        } else if let (Some(from), Some(to)) = (before, e.deadline()) {
            // Only a touch at an earlier instant pulls the deadline in;
            // `moved` files a record then and is a comparison otherwise.
            self.hard.moved((e.id, slot), from, to);
            self.settle_hard();
        }
        self.slots[slot].as_ref()
    }

    /// Peek without touching stats (diagnostics).
    pub fn find(&self, p: &Packet) -> Option<&FlowEntry> {
        self.find_slot(p).and_then(|s| self.slots[s].as_ref())
    }

    /// The entry with this id, if installed. O(table): nothing on the packet
    /// path looks entries up by id, so no index is kept for it.
    pub fn get(&self, id: FlowId) -> Option<&FlowEntry> {
        self.slots.iter().flatten().find(|e| e.id == id)
    }

    /// Remove all entries whose matcher equals `matcher` (OpenFlow strict
    /// delete). Returns the removed entries in table order.
    pub fn delete_matching(&mut self, now: SimTime, matcher: &FlowMatch) -> Vec<FlowRemoved> {
        let slots: Vec<usize> = if matcher.is_exact() {
            // The key pins the whole matcher, so the bucket *is* the result
            // set (already in table order).
            self.exact
                .get(&ExactKey::of_matcher(matcher))
                .map(|b| b.slice().to_vec())
                .unwrap_or_default()
        } else {
            self.masked
                .iter()
                .copied()
                .filter(|&s| {
                    &self.slots[s]
                        .as_ref()
                        .expect("indexed slot occupied")
                        .matcher
                        == matcher
                })
                .collect()
        };
        self.remove_slots(now, slots, RemovalReason::Deleted)
    }

    /// Remove all entries carrying `cookie`; returns them in table order.
    /// O(table): no cookie index is kept, since no packet or controller path
    /// deletes by cookie.
    pub fn delete_by_cookie(&mut self, now: SimTime, cookie: u64) -> Vec<FlowRemoved> {
        let mut slots: Vec<usize> = (0..self.slots.len())
            .filter(|&s| self.slots[s].as_ref().is_some_and(|e| e.cookie == cookie))
            .collect();
        slots.sort_by_key(|&s| {
            self.slots[s]
                .as_ref()
                .expect("indexed slot occupied")
                .rank()
        });
        self.remove_slots(now, slots, RemovalReason::Deleted)
    }

    fn remove_slots(
        &mut self,
        now: SimTime,
        slots: Vec<usize>,
        reason: RemovalReason,
    ) -> Vec<FlowRemoved> {
        let removed = slots
            .into_iter()
            .map(|slot| FlowRemoved {
                entry: self.detach(slot),
                reason,
                at: now,
            })
            .collect();
        self.settle_hard();
        removed
    }

    /// Evict entries whose idle or hard timeout has elapsed at `now`.
    /// Notifications come back in table order, hard timeouts reported in
    /// preference to idle ones, exactly like the scan-based implementation.
    pub fn expire(&mut self, now: SimTime) -> Vec<FlowRemoved> {
        let mut removed: Vec<FlowRemoved> = Vec::new();
        while let Some(slot) = self.first_due(now) {
            let entry = self.detach(slot);
            let hard_elapsed = entry
                .hard_timeout
                .is_some_and(|h| now.since(entry.installed_at) >= h);
            removed.push(FlowRemoved {
                entry,
                reason: if hard_elapsed {
                    RemovalReason::HardTimeout
                } else {
                    RemovalReason::IdleTimeout
                },
                at: now,
            });
            self.settle_hard();
        }
        removed.sort_by_key(|r| r.entry.rank());
        removed
    }

    /// [`FlowTable::expire`] without materializing the notifications: evict
    /// everything due at `now` and drop the removed entries. The testbed's
    /// event loop discards its sweep results, so the hot path takes this
    /// no-`Vec`, no-sort variant; the eviction *order* is unobservable here
    /// because nothing is reported.
    pub fn expire_discard(&mut self, now: SimTime) {
        while let Some(slot) = self.first_due(now) {
            self.detach(slot);
            self.settle_hard();
        }
    }

    /// The slot of an entry due at or before `now`, if any: a list head, else
    /// the settled heap top.
    fn first_due(&self, now: SimTime) -> Option<usize> {
        match self.idle.first_due(now) {
            Some(h) => Some(h as usize),
            None => self
                .hard
                .peek()
                .filter(|&(at, _)| at <= now)
                .map(|(_, (_, slot))| slot),
        }
    }

    /// The earliest instant at which some entry could expire — the testbed
    /// schedules its next eviction sweep there. O(idle timeouts in use): the
    /// list heads, and the heap top every mutation settles.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.idle.next().into_iter().chain(self.hard.next()).min()
    }

    /// How many expiry records the table holds: one list position per
    /// idle-only entry, and one heap record per entry with a hard timeout
    /// plus at most one per removed such entry until its deadline passes
    /// (tests assert the bound).
    #[doc(hidden)]
    pub fn expiry_records(&self) -> usize {
        self.idle.len() + self.hard.len()
    }

    /// Pre-size the slab, its idle links and the hash index for `additional`
    /// more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
        self.idle.reserve(additional);
        self.exact.reserve(additional);
    }

    /// Iterate over entries in table order (diagnostics; allocates to sort).
    pub fn iter_ordered(&self) -> impl Iterator<Item = &FlowEntry> {
        let mut entries: Vec<&FlowEntry> = self.slots.iter().flatten().collect();
        entries.sort_by_key(|e| e.rank());
        entries.into_iter()
    }

    /// First entry earlier in table order whose matcher fully covers `id`'s —
    /// if one exists, `id` can never match a packet. O(table); diagnostics
    /// and the `debug_assertions` install hook use it, the hot path does not.
    pub fn shadowed_by(&self, id: FlowId) -> Option<FlowId> {
        let target = self.get(id)?;
        self.iter_ordered()
            .take_while(|e| e.id != id)
            .find(|e| e.matcher.subsumes(&target.matcher))
            .map(|e| e.id)
    }

    /// Unlink an entry from every index and free its slot. A heap record is
    /// left behind for `settle_hard` to reap.
    fn detach(&mut self, slot: usize) -> FlowEntry {
        let entry = self.slots[slot].take().expect("detach of empty slot");
        if let Some(idle) = entry.idle_only() {
            let slots = &self.slots;
            self.idle
                .unlink(handle(slot), idle, |h| last_used(slots, h));
        }

        if entry.matcher.is_exact() {
            let shape = entry.matcher.shape();
            let count = &mut self.shape_counts[shape as usize];
            *count -= 1;
            if *count == 0 {
                self.live_shapes &= !(1 << shape);
            }
            let key = ExactKey::of_matcher(&entry.matcher);
            let bucket = self
                .exact
                .get_mut(&key)
                .expect("bucket exists for installed matcher");
            bucket.remove_slot(slot);
            if bucket.is_empty() {
                self.exact.remove(&key);
            }
        } else {
            self.masked.retain(|&s| s != slot);
        }

        self.free_slots.push(slot);
        self.len -= 1;
        entry
    }

    /// Settle the hard-timeout index against the slab.
    fn settle_hard(&mut self) {
        self.hard.settle(|&(id, slot)| {
            self.slots[slot]
                .as_ref()
                .filter(|e| e.id == id)
                .and_then(FlowEntry::deadline)
        });
    }
}

/// A slot as an [`IdleOrder`] handle.
fn handle(slot: usize) -> u32 {
    u32::try_from(slot).expect("fewer than 2^32 flow slots")
}

/// The idle stamp of the entry an [`IdleOrder`] handle names.
fn last_used(slots: &[Option<FlowEntry>], handle: u32) -> SimTime {
    slots[handle as usize]
        .as_ref()
        .expect("a listed slot is occupied")
        .last_used
}

/// What the switch decided to do with a received packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketVerdict {
    /// Matched a flow with an `Output` action: forward (possibly rewritten).
    Forward { packet: Packet, out_port: PortId },
    /// No match (or an explicit `ToController` action): packet buffered,
    /// `PacketIn` raised to the controller.
    PacketIn { buffer_id: BufferId, packet: Packet },
    /// Matched a flow whose actions drop the packet (or had no output).
    Dropped,
}

/// The switch: a flow table plus ports and a packet buffer.
#[derive(Debug, Default)]
pub struct Switch {
    pub table: FlowTable,
    buffered: DetHashMap<BufferId, Packet>,
    next_buffer: u64,
    port_count: usize,
    /// Counters for the evaluation: table misses = controller round trips.
    pub stats: SwitchStats,
    /// Debug-build check-on-install findings: a `flow_mod` that installed a
    /// rule already fully covered by an earlier table entry records it here
    /// instead of panicking, so seeded-violation tests can observe the sim
    /// running to completion. Drained by whoever audits the switch.
    #[cfg(debug_assertions)]
    pub install_warnings: Vec<InstallWarning>,
}

/// A suspicious install noticed by the `debug_assertions` hook in
/// [`Switch::flow_mod`].
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstallWarning {
    /// The rule that was just installed and can never match.
    pub installed: FlowId,
    /// The earlier, equal-or-higher-priority rule that covers it.
    pub shadowed_by: FlowId,
}

/// Data-plane counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SwitchStats {
    pub packets: u64,
    pub table_hits: u64,
    pub table_misses: u64,
    pub forwarded: u64,
    pub dropped: u64,
}

impl Switch {
    pub fn new(port_count: usize) -> Switch {
        Switch {
            port_count,
            ..Switch::default()
        }
    }

    pub fn port_count(&self) -> usize {
        self.port_count
    }

    /// Number of packets parked at the switch awaiting controller decisions.
    pub fn buffered_count(&self) -> usize {
        self.buffered.len()
    }

    /// Peek a parked packet without releasing it — lets an engine attribute
    /// a buffered-packet outcome (release failure, discard) to the packet's
    /// tag before deciding its fate.
    pub fn buffered_packet(&self, buffer_id: BufferId) -> Option<&Packet> {
        self.buffered.get(&buffer_id)
    }

    /// Process a packet arriving on a port.
    pub fn receive(&mut self, now: SimTime, packet: Packet) -> PacketVerdict {
        self.stats.packets += 1;
        let Some(entry) = self.table.lookup(now, &packet) else {
            self.stats.table_misses += 1;
            return self.buffer_packet(packet);
        };
        self.stats.table_hits += 1;
        let actions = entry.actions.clone();
        self.apply(now, packet, &actions)
    }

    fn buffer_packet(&mut self, packet: Packet) -> PacketVerdict {
        let id = BufferId(self.next_buffer);
        self.next_buffer += 1;
        self.buffered.insert(id, packet);
        PacketVerdict::PacketIn {
            buffer_id: id,
            packet,
        }
    }

    fn apply(&mut self, _now: SimTime, mut packet: Packet, actions: &[Action]) -> PacketVerdict {
        for action in actions {
            match action {
                Action::SetSrcIp(ip) => packet.src.ip = *ip,
                Action::SetSrcPort(p) => packet.src.port = *p,
                Action::SetDstIp(ip) => packet.dst.ip = *ip,
                Action::SetDstPort(p) => packet.dst.port = *p,
                Action::Output(port) => {
                    assert!(port.0 < self.port_count, "output to unknown port {port:?}");
                    self.stats.forwarded += 1;
                    return PacketVerdict::Forward {
                        packet,
                        out_port: *port,
                    };
                }
                Action::ToController => {
                    return self.buffer_packet(packet);
                }
                Action::Drop => break,
            }
        }
        self.stats.dropped += 1;
        PacketVerdict::Dropped
    }

    /// Controller → switch: install a flow entry. Debug builds additionally
    /// run a check-on-install shadowing probe and record (not panic on) any
    /// rule that arrives dead — see [`InstallWarning`].
    pub fn flow_mod(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        let id = self.table.install(now, spec);
        #[cfg(debug_assertions)]
        if let Some(by) = self.table.shadowed_by(id) {
            self.install_warnings.push(InstallWarning {
                installed: id,
                shadowed_by: by,
            });
        }
        id
    }

    /// Controller → switch: release a buffered packet through `actions`
    /// (OpenFlow `PacketOut`). Returns the forwarding outcome; `None` if the
    /// buffer id is unknown (already released or expired).
    pub fn packet_out(
        &mut self,
        now: SimTime,
        buffer_id: BufferId,
        actions: &[Action],
    ) -> Option<PacketVerdict> {
        let packet = self.buffered.remove(&buffer_id)?;
        Some(self.apply(now, packet, actions))
    }

    /// Controller → switch: re-inject a buffered packet through the flow
    /// table (OpenFlow `OFPP_TABLE`). This is what the paper's controller does
    /// after a `FlowMod`: the released packet hits the freshly installed rule.
    pub fn packet_out_via_table(
        &mut self,
        now: SimTime,
        buffer_id: BufferId,
    ) -> Option<PacketVerdict> {
        let packet = self.buffered.remove(&buffer_id)?;
        Some(self.receive_unbuffered(now, packet))
    }

    /// Like [`Switch::receive`] but a repeated miss drops instead of
    /// re-buffering (prevents PacketIn loops on `OFPP_TABLE` resubmission).
    fn receive_unbuffered(&mut self, now: SimTime, packet: Packet) -> PacketVerdict {
        self.stats.packets += 1;
        let Some(entry) = self.table.lookup(now, &packet) else {
            self.stats.table_misses += 1;
            self.stats.dropped += 1;
            return PacketVerdict::Dropped;
        };
        self.stats.table_hits += 1;
        let actions = entry.actions.clone();
        self.apply(now, packet, &actions)
    }

    /// Drop a buffered packet without forwarding (controller gave up).
    pub fn discard_buffer(&mut self, buffer_id: BufferId) -> Option<Packet> {
        self.buffered.remove(&buffer_id)
    }

    /// Run a timeout sweep; returns flow-removed notifications.
    pub fn sweep(&mut self, now: SimTime) -> Vec<FlowRemoved> {
        self.table.expire(now)
    }

    /// [`Switch::sweep`] for callers that discard the notifications: no
    /// `Vec`, no table-order sort (see [`FlowTable::expire_discard`]).
    pub fn sweep_discard(&mut self, now: SimTime) {
        self.table.expire_discard(now);
    }

    /// Earliest instant a timeout sweep could evict anything. O(1); lets the
    /// event loop skip sweeps entirely while nothing is due.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.table.next_expiry()
    }

    /// Pre-size the flow table and packet buffer for an expected load.
    pub fn reserve(&mut self, flows: usize, buffers: usize) {
        self.table.reserve(flows);
        self.buffered.reserve(buffers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(d: u8) -> IpAddr {
        IpAddr::new(10, 0, 0, d)
    }
    fn sa(d: u8, port: u16) -> SocketAddr {
        SocketAddr::new(ip(d), port)
    }
    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn service_packet() -> Packet {
        Packet::syn(sa(1, 40000), sa(200, 80), 7)
    }

    fn out(port: usize) -> Vec<Action> {
        vec![Action::Output(PortId(port))]
    }

    #[test]
    fn ipnet_contains() {
        let net = IpNet::new(IpAddr::new(10, 1, 0, 0), 16);
        assert!(net.contains(IpAddr::new(10, 1, 0, 1)));
        assert!(net.contains(IpAddr::new(10, 1, 255, 255)));
        assert!(!net.contains(IpAddr::new(10, 2, 0, 1)));
        let all = IpNet::new(IpAddr::new(0, 0, 0, 0), 0);
        assert!(all.contains(IpAddr::new(203, 0, 113, 9)));
        let host = IpNet::new(IpAddr::new(10, 0, 0, 5), 32);
        assert!(host.contains(IpAddr::new(10, 0, 0, 5)));
        assert!(!host.contains(IpAddr::new(10, 0, 0, 6)));
    }

    #[test]
    fn ipnet_contains_edge_cases() {
        // /0 matches everything no matter what address bits it carries
        let all = IpNet::new(IpAddr::new(192, 0, 2, 77), 0);
        assert!(all.contains(IpAddr::new(0, 0, 0, 0)));
        assert!(all.contains(IpAddr::new(255, 255, 255, 255)));
        // /32 is an exact host match, including the extremes of the space
        let zero = IpNet::new(IpAddr::new(0, 0, 0, 0), 32);
        assert!(zero.contains(IpAddr::new(0, 0, 0, 0)));
        assert!(!zero.contains(IpAddr::new(0, 0, 0, 1)));
        let top = IpNet::new(IpAddr::new(255, 255, 255, 255), 32);
        assert!(top.contains(IpAddr::new(255, 255, 255, 255)));
        assert!(!top.contains(IpAddr::new(255, 255, 255, 254)));
        // /31 pairs exactly two addresses; /1 splits the space in half
        let pair = IpNet::new(IpAddr::new(10, 0, 0, 4), 31);
        assert!(pair.contains(IpAddr::new(10, 0, 0, 4)));
        assert!(pair.contains(IpAddr::new(10, 0, 0, 5)));
        assert!(!pair.contains(IpAddr::new(10, 0, 0, 6)));
        let high_half = IpNet::new(IpAddr::new(128, 0, 0, 0), 1);
        assert!(high_half.contains(IpAddr::new(200, 1, 2, 3)));
        assert!(!high_half.contains(IpAddr::new(127, 255, 255, 255)));
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn ipnet_rejects_v6_style_prefix() {
        // The address model is v4-only; a /128 (v6-length) prefix is the
        // family-mismatch analogue and must be rejected loudly, not wrap.
        let _ = IpNet::new(IpAddr::new(10, 0, 0, 0), 128);
    }

    #[test]
    fn flow_match_edge_cases() {
        let p = service_packet(); // tcp 10.0.0.1:40000 -> 10.0.0.200:80
                                  // /0 masked fields are pure wildcards
        let any_net = FlowMatch {
            src_net: Some(IpNet::new(IpAddr::new(9, 9, 9, 9), 0)),
            dst_net: Some(IpNet::new(IpAddr::new(1, 2, 3, 4), 0)),
            ..FlowMatch::default()
        };
        assert!(any_net.matches(&p));
        // a /32 mask behaves exactly like the corresponding exact-ip match
        let host_net = FlowMatch {
            dst_net: Some(IpNet::new(ip(200), 32)),
            ..FlowMatch::default()
        };
        let host_exact = FlowMatch {
            dst_ip: Some(ip(200)),
            ..FlowMatch::default()
        };
        assert_eq!(host_net.matches(&p), host_exact.matches(&p));
        let other = Packet::syn(sa(1, 40000), sa(201, 80), 0);
        assert!(!host_net.matches(&other));
        assert!(!host_exact.matches(&other));
        // exact ip and mask combine conjunctively: pinning an ip outside the
        // mask yields a dead matcher
        let dead = FlowMatch {
            dst_ip: Some(ip(200)),
            dst_net: Some(IpNet::new(IpAddr::new(192, 168, 0, 0), 16)),
            ..FlowMatch::default()
        };
        assert!(!dead.matches(&p));
        assert!(!dead.is_satisfiable());
        // protocol family mismatch: a udp-only matcher never sees tcp
        let udp_only = FlowMatch {
            protocol: Some(Protocol::Udp),
            ..FlowMatch::default()
        };
        assert!(!udp_only.matches(&p));
    }

    #[test]
    fn flow_match_subsumption() {
        let svc = sa(200, 80);
        let broad = FlowMatch::to_service(svc);
        let narrow = FlowMatch::client_to_service(ip(1), svc);
        assert!(broad.subsumes(&narrow));
        assert!(!narrow.subsumes(&broad));
        assert!(broad.subsumes(&broad));
        // wildcard covers everything
        assert!(FlowMatch::any().subsumes(&broad));
        assert!(!broad.subsumes(&FlowMatch::any()));
        // a /16 route covers the exact ips and the /24s under it
        let wide = FlowMatch::to_net(IpNet::new(IpAddr::new(10, 0, 0, 0), 16));
        assert!(wide.subsumes(&broad));
        assert!(wide.subsumes(&FlowMatch::to_net(IpNet::new(IpAddr::new(10, 0, 3, 0), 24))));
        assert!(!wide.subsumes(&FlowMatch::to_net(IpNet::new(IpAddr::new(10, 1, 0, 0), 24))));
        // an exact-ip requirement is met by a /32 pinning the same host
        let pinned = FlowMatch {
            dst_ip: Some(ip(200)),
            ..FlowMatch::default()
        };
        let via_host_mask = FlowMatch {
            dst_net: Some(IpNet::new(ip(200), 32)),
            ..FlowMatch::default()
        };
        assert!(pinned.subsumes(&via_host_mask));
        assert!(via_host_mask.subsumes(&pinned));
        // /0 subsumes any destination constraint
        let zero = FlowMatch::to_net(IpNet::new(IpAddr::new(0, 0, 0, 0), 0));
        assert!(zero.subsumes(&broad));
    }

    #[test]
    fn flow_match_intersection() {
        let svc = sa(200, 80);
        // same destination, different pinned clients: disjoint
        let a = FlowMatch::client_to_service(ip(1), svc);
        let b = FlowMatch::client_to_service(ip(2), svc);
        assert!(!a.intersects(&b));
        // service-wide rule overlaps each per-client rule
        assert!(FlowMatch::to_service(svc).intersects(&a));
        // sibling /24s are disjoint, nested prefixes overlap
        let left = FlowMatch::to_net(IpNet::new(IpAddr::new(10, 0, 1, 0), 24));
        let right = FlowMatch::to_net(IpNet::new(IpAddr::new(10, 0, 2, 0), 24));
        let parent = FlowMatch::to_net(IpNet::new(IpAddr::new(10, 0, 0, 0), 16));
        assert!(!left.intersects(&right));
        assert!(parent.intersects(&left));
        // pinned ip vs a mask that excludes it
        let pin = FlowMatch {
            dst_ip: Some(ip(200)),
            ..FlowMatch::default()
        };
        assert!(!pin.intersects(&FlowMatch::to_net(IpNet::new(
            IpAddr::new(192, 168, 0, 0),
            16
        ))));
        assert!(pin.intersects(&FlowMatch::to_net(IpNet::new(IpAddr::new(10, 0, 0, 0), 8))));
        // protocol disagreement kills the intersection
        let tcp = FlowMatch {
            protocol: Some(Protocol::Tcp),
            ..FlowMatch::default()
        };
        let udp = FlowMatch {
            protocol: Some(Protocol::Udp),
            ..FlowMatch::default()
        };
        assert!(!tcp.intersects(&udp));
    }

    #[test]
    fn shadowed_by_reports_covering_rule() {
        let mut table = FlowTable::new();
        let broad = table.install(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(200)
                .actions(out(1)),
        );
        let narrow = table.install(
            t(1),
            FlowSpec::new(FlowMatch::client_to_service(ip(1), sa(200, 80)))
                .priority(100)
                .actions(out(2)),
        );
        assert_eq!(table.shadowed_by(narrow), Some(broad));
        assert_eq!(table.shadowed_by(broad), None);
        // an unrelated rule is not shadowed
        let other = table.install(
            t(2),
            FlowSpec::new(FlowMatch::to_service(sa(201, 80)))
                .priority(100)
                .actions(out(3)),
        );
        assert_eq!(table.shadowed_by(other), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn flow_mod_records_install_warning_for_shadowed_rule() {
        let mut sw = Switch::new(4);
        let broad = sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(200)
                .actions(out(1)),
        );
        assert!(sw.install_warnings.is_empty());
        let narrow = sw.flow_mod(
            t(1),
            FlowSpec::new(FlowMatch::client_to_service(ip(1), sa(200, 80)))
                .priority(100)
                .actions(out(2)),
        );
        assert_eq!(
            sw.install_warnings,
            vec![InstallWarning {
                installed: narrow,
                shadowed_by: broad,
            }]
        );
    }

    #[test]
    fn masked_match_routes_by_prefix() {
        let m = FlowMatch::to_net(IpNet::new(IpAddr::new(10, 1, 0, 0), 16));
        let to_client = Packet::syn(
            sa(200, 80),
            SocketAddr::new(IpAddr::new(10, 1, 0, 7), 4000),
            0,
        );
        let elsewhere = Packet::syn(
            sa(200, 80),
            SocketAddr::new(IpAddr::new(10, 2, 0, 7), 4000),
            0,
        );
        assert!(m.matches(&to_client));
        assert!(!m.matches(&elsewhere));
        // masked and exact fields combine conjunctively
        let both = FlowMatch {
            dst_net: Some(IpNet::new(IpAddr::new(10, 1, 0, 0), 16)),
            dst_port: Some(4000),
            ..FlowMatch::default()
        };
        assert!(both.matches(&to_client));
        let wrong_port = Packet::syn(sa(200, 80), SocketAddr::new(IpAddr::new(10, 1, 0, 7), 9), 0);
        assert!(!both.matches(&wrong_port));
    }

    #[test]
    fn match_wildcards() {
        let p = service_packet();
        assert!(FlowMatch::any().matches(&p));
        assert!(FlowMatch::to_service(sa(200, 80)).matches(&p));
        assert!(!FlowMatch::to_service(sa(200, 443)).matches(&p));
        assert!(FlowMatch::client_to_service(ip(1), sa(200, 80)).matches(&p));
        assert!(!FlowMatch::client_to_service(ip(2), sa(200, 80)).matches(&p));
    }

    #[test]
    fn table_miss_buffers_and_raises_packet_in() {
        let mut sw = Switch::new(4);
        let p = service_packet();
        match sw.receive(t(0), p) {
            PacketVerdict::PacketIn { packet, .. } => assert_eq!(packet, p),
            other => panic!("expected PacketIn, got {other:?}"),
        }
        assert_eq!(sw.buffered_count(), 1);
        assert_eq!(sw.stats.table_misses, 1);
    }

    #[test]
    fn flow_mod_then_hit_rewrites_and_forwards() {
        let mut sw = Switch::new(4);
        let edge = sa(50, 8080);
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(100)
                .action(Action::SetDstIp(edge.ip))
                .action(Action::SetDstPort(edge.port))
                .action(Action::Output(PortId(2)))
                .idle(SimDuration::from_secs(10))
                .cookie(1),
        );
        match sw.receive(t(1), service_packet()) {
            PacketVerdict::Forward { packet, out_port } => {
                assert_eq!(packet.dst, edge);
                assert_eq!(packet.src, sa(1, 40000), "src untouched");
                assert_eq!(out_port, PortId(2));
            }
            other => panic!("expected Forward, got {other:?}"),
        }
        assert_eq!(sw.stats.table_hits, 1);
    }

    #[test]
    fn priority_order_wins() {
        let mut sw = Switch::new(4);
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::any()).priority(1).actions(out(0)),
        );
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(100)
                .actions(out(3)),
        );
        match sw.receive(t(1), service_packet()) {
            PacketVerdict::Forward { out_port, .. } => assert_eq!(out_port, PortId(3)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn same_priority_same_match_replaces() {
        // OFPFC_ADD semantics: identical (priority, match) overwrites.
        let mut sw = Switch::new(4);
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::any()).priority(5).actions(out(1)),
        );
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::any()).priority(5).actions(out(2)),
        );
        assert_eq!(sw.table.len(), 1);
        match sw.receive(t(1), service_packet()) {
            PacketVerdict::Forward { out_port, .. } => assert_eq!(out_port, PortId(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn same_priority_different_match_first_wins() {
        let mut sw = Switch::new(4);
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(5)
                .actions(out(1)),
        );
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::any()).priority(5).actions(out(2)),
        );
        match sw.receive(t(1), service_packet()) {
            PacketVerdict::Forward { out_port, .. } => assert_eq!(out_port, PortId(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn masked_entry_beats_lower_priority_exact() {
        let mut sw = Switch::new(4);
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(1)
                .actions(out(1)),
        );
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::to_net(IpNet::new(IpAddr::new(10, 0, 0, 0), 8)))
                .priority(50)
                .actions(out(2)),
        );
        match sw.receive(t(1), service_packet()) {
            PacketVerdict::Forward { out_port, .. } => assert_eq!(out_port, PortId(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn same_priority_exact_vs_masked_insertion_order_wins() {
        // Exact installed first at the same priority: insertion order decides.
        let mut sw = Switch::new(4);
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(5)
                .actions(out(1)),
        );
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::to_net(IpNet::new(IpAddr::new(10, 0, 0, 0), 8)))
                .priority(5)
                .actions(out(2)),
        );
        match sw.receive(t(1), service_packet()) {
            PacketVerdict::Forward { out_port, .. } => assert_eq!(out_port, PortId(1)),
            other => panic!("{other:?}"),
        }

        // And the mirror image: masked first, exact second.
        let mut sw = Switch::new(4);
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::to_net(IpNet::new(IpAddr::new(10, 0, 0, 0), 8)))
                .priority(5)
                .actions(out(2)),
        );
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(5)
                .actions(out(1)),
        );
        match sw.receive(t(1), service_packet()) {
            PacketVerdict::Forward { out_port, .. } => assert_eq!(out_port, PortId(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn packet_out_releases_buffered_packet() {
        let mut sw = Switch::new(4);
        let PacketVerdict::PacketIn { buffer_id, .. } = sw.receive(t(0), service_packet()) else {
            panic!("expected PacketIn");
        };
        let verdict = sw
            .packet_out(
                t(2),
                buffer_id,
                &[Action::SetDstIp(ip(50)), Action::Output(PortId(1))],
            )
            .unwrap();
        match verdict {
            PacketVerdict::Forward { packet, out_port } => {
                assert_eq!(packet.dst.ip, ip(50));
                assert_eq!(out_port, PortId(1));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(sw.buffered_count(), 0);
        // double release fails
        assert!(sw.packet_out(t(3), buffer_id, &[]).is_none());
    }

    #[test]
    fn packet_out_via_table_uses_installed_flow() {
        let mut sw = Switch::new(4);
        let PacketVerdict::PacketIn { buffer_id, .. } = sw.receive(t(0), service_packet()) else {
            panic!("expected PacketIn");
        };
        sw.flow_mod(
            t(1),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(100)
                .action(Action::SetDstIp(ip(50)))
                .action(Action::Output(PortId(2))),
        );
        match sw.packet_out_via_table(t(2), buffer_id).unwrap() {
            PacketVerdict::Forward { packet, out_port } => {
                assert_eq!(packet.dst.ip, ip(50));
                assert_eq!(out_port, PortId(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resubmission_miss_drops_instead_of_rebuffering() {
        let mut sw = Switch::new(4);
        let PacketVerdict::PacketIn { buffer_id, .. } = sw.receive(t(0), service_packet()) else {
            panic!("expected PacketIn");
        };
        // no flow installed: resubmission must not loop
        assert_eq!(
            sw.packet_out_via_table(t(1), buffer_id),
            Some(PacketVerdict::Dropped)
        );
        assert_eq!(sw.buffered_count(), 0);
    }

    #[test]
    fn idle_timeout_expires_unused_flows() {
        let mut table = FlowTable::new();
        table.install(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(10)
                .actions(out(0))
                .idle(SimDuration::from_secs(5))
                .cookie(7),
        );
        assert!(table.expire(t(4999)).is_empty());
        let removed = table.expire(t(5000));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, RemovalReason::IdleTimeout);
        assert_eq!(removed[0].entry.cookie, 7);
        assert!(table.is_empty());
    }

    #[test]
    fn traffic_refreshes_idle_timer() {
        let mut table = FlowTable::new();
        table.install(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(10)
                .actions(out(0))
                .idle(SimDuration::from_secs(5)),
        );
        let p = service_packet();
        assert!(table.lookup(t(3000), &p).is_some());
        assert!(table.expire(t(5000)).is_empty(), "refreshed at t=3s");
        assert_eq!(table.expire(t(8000)).len(), 1);
    }

    #[test]
    fn hard_timeout_fires_even_with_traffic() {
        let mut table = FlowTable::new();
        table.install(
            t(0),
            FlowSpec::new(FlowMatch::any())
                .priority(10)
                .actions(out(0))
                .idle(SimDuration::from_secs(60))
                .hard(SimDuration::from_secs(10)),
        );
        let p = service_packet();
        assert!(table.lookup(t(9000), &p).is_some());
        let removed = table.expire(t(10_000));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, RemovalReason::HardTimeout);
    }

    #[test]
    fn next_expiry_tracks_minimum() {
        let mut table = FlowTable::new();
        table.install(
            t(0),
            FlowSpec::new(FlowMatch::any())
                .priority(1)
                .idle(SimDuration::from_secs(30)),
        );
        table.install(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(1)
                .hard(SimDuration::from_secs(7)),
        );
        assert_eq!(table.next_expiry(), Some(t(7000)));
        assert_eq!(FlowTable::new().next_expiry(), None);
    }

    #[test]
    fn next_expiry_follows_refreshes_and_deletes() {
        let mut table = FlowTable::new();
        let id = table.install(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(1)
                .idle(SimDuration::from_secs(5))
                .cookie(9),
        );
        table.install(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(201, 80)))
                .priority(1)
                .idle(SimDuration::from_secs(8)),
        );
        assert_eq!(table.next_expiry(), Some(t(5000)));
        // a hit pushes the first entry's deadline past the second's
        let p = Packet::syn(sa(1, 40000), sa(200, 80), 0);
        table.lookup(t(4000), &p);
        assert_eq!(table.next_expiry(), Some(t(8000)));
        // deleting the second leaves only the refreshed deadline
        table.delete_matching(t(4000), &FlowMatch::to_service(sa(201, 80)));
        assert_eq!(table.next_expiry(), Some(t(9000)));
        assert!(table.get(id).is_some());
    }

    #[test]
    fn expire_reports_in_table_order() {
        let mut table = FlowTable::new();
        // Install in an order different from table order; give the *later*
        // table position the earlier deadline.
        table.install(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(1)
                .idle(SimDuration::from_secs(1))
                .cookie(1),
        );
        table.install(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(201, 80)))
                .priority(9)
                .idle(SimDuration::from_secs(2))
                .cookie(2),
        );
        let removed = table.expire(t(60_000));
        assert_eq!(removed.len(), 2);
        assert_eq!(removed[0].entry.cookie, 2, "higher priority first");
        assert_eq!(removed[1].entry.cookie, 1);
    }

    #[test]
    fn delete_by_cookie_and_matcher() {
        let mut table = FlowTable::new();
        let m = FlowMatch::to_service(sa(200, 80));
        table.install(t(0), FlowSpec::new(m).priority(1).cookie(42));
        table.install(t(0), FlowSpec::new(FlowMatch::any()).priority(1).cookie(42));
        table.install(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(201, 80)))
                .priority(1)
                .cookie(1),
        );
        assert_eq!(table.delete_matching(t(1), &m).len(), 1);
        assert_eq!(table.delete_by_cookie(t(1), 42).len(), 1);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn delete_by_cookie_spans_priorities_in_table_order() {
        let mut table = FlowTable::new();
        table.install(t(0), FlowSpec::new(FlowMatch::any()).priority(1).cookie(7));
        table.install(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(9)
                .cookie(7),
        );
        table.install(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(201, 80)))
                .priority(5)
                .cookie(8),
        );
        let removed = table.delete_by_cookie(t(1), 7);
        assert_eq!(removed.len(), 2);
        assert_eq!(removed[0].entry.priority, 9);
        assert_eq!(removed[1].entry.priority, 1);
        assert!(removed.iter().all(|r| r.reason == RemovalReason::Deleted));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn lookup_updates_stats() {
        let mut table = FlowTable::new();
        let id = table.install(t(0), FlowSpec::new(FlowMatch::any()).priority(1));
        let p = service_packet();
        table.lookup(t(5), &p);
        table.lookup(t(9), &p);
        let e = table.get(id).unwrap();
        assert_eq!(e.packets, 2);
        assert_eq!(e.last_used, t(9));
    }

    /// The minimum deadline by walking every entry — what `next_expiry()`
    /// must equal.
    fn brute_force_next_expiry(table: &FlowTable) -> Option<SimTime> {
        table
            .slots
            .iter()
            .flatten()
            .filter_map(FlowEntry::deadline)
            .min()
    }

    #[test]
    fn a_touch_at_an_earlier_instant_moves_next_expiry_earlier() {
        let mut table = FlowTable::new();
        let idle = |ms| SimDuration::from_millis(ms);
        table.install(
            t(1000),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80))).idle(idle(100)),
        );
        table.install(
            t(1000),
            FlowSpec::new(FlowMatch::to_service(sa(201, 80))).idle(idle(300)),
        );
        assert_eq!(table.next_expiry(), Some(t(1100)));
        // Forward touch: no new record, the frontier moves to the other flow.
        assert!(table.lookup(t(1250), &service_packet()).is_some());
        assert_eq!(table.next_expiry(), Some(t(1300)));
        assert_eq!(table.expiry_records(), 2);
        // Backward touch: the deadline moves in, and so must the top.
        assert!(table.lookup(t(500), &service_packet()).is_some());
        assert_eq!(table.next_expiry(), Some(t(600)));
        assert_eq!(table.next_expiry(), brute_force_next_expiry(&table));
        let evicted = table.expire(t(600));
        assert_eq!(evicted.len(), 1);
        assert_eq!(table.next_expiry(), Some(t(1300)));
    }

    /// Mutation: a backward touch that stamps `last_used` without walking the
    /// entry back to its place in its timeout's list — on an entry that is
    /// not the list head, so the head, and `next_expiry` with it, is late;
    /// the brute-force comparison notices.
    #[test]
    fn a_backwards_touch_that_skips_the_walk_is_caught() {
        let mut table = FlowTable::new();
        let idle = SimDuration::from_millis(300);
        table.install(
            t(1000),
            FlowSpec::new(FlowMatch::to_service(sa(201, 80))).idle(idle),
        );
        table.install(
            t(1200),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80))).idle(idle),
        );
        let slot = table.find_slot(&service_packet()).unwrap();
        table.slots[slot].as_mut().unwrap().last_used = t(500);
        assert_eq!(brute_force_next_expiry(&table), Some(t(800)));
        assert_eq!(table.next_expiry(), Some(t(1300)), "the late answer");

        // Through the one door the same touch keeps the head exact.
        table.slots[slot].as_mut().unwrap().last_used = t(1200);
        table.lookup(t(500), &service_packet());
        assert_eq!(table.next_expiry(), Some(t(800)));
    }

    #[test]
    fn exact_key_of_a_packet_equals_the_matchers_on_every_shape() {
        let p = Packet::syn(sa(1, 40000), sa(200, 80), 7);
        let other = Packet {
            protocol: Protocol::Udp,
            ..Packet::syn(sa(2, 40001), sa(201, 81), 7)
        };
        for shape in 0u8..32 {
            let on = |bit: u8| shape & bit != 0;
            let m = FlowMatch {
                protocol: on(1).then_some(p.protocol),
                src_ip: on(2).then_some(p.src.ip),
                src_port: on(4).then_some(p.src.port),
                dst_ip: on(8).then_some(p.dst.ip),
                dst_port: on(16).then_some(p.dst.port),
                ..FlowMatch::default()
            };
            assert_eq!(m.shape(), shape);
            let key = ExactKey::of_matcher(&m);
            assert_eq!(key, ExactKey::fields_of(&p).project(shape));
            // Any constrained field differing changes the key; with none
            // constrained every packet projects onto the catch-all key.
            assert_eq!(
                key == ExactKey::fields_of(&other).project(shape),
                shape == 0
            );
        }
    }

    #[test]
    fn exact_key_hash_spreads_over_the_bucket_index_bits() {
        use std::hash::BuildHasher;
        // 100 clients × 100 services differing only in their addresses' low
        // bytes: the low 14 bits of the hash (the bucket index of a table
        // this size) must look random — ≈ 7 480 of 16 384 distinct values.
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..100u8 {
            for d in 0..100u8 {
                let m = FlowMatch::client_to_service(IpAddr::new(10, 1, 0, c), sa(d, 80));
                let h = simcore::dethash::DetBuildHasher.hash_one(ExactKey::of_matcher(&m));
                seen.insert(h & 0x3fff);
            }
        }
        assert!(seen.len() > 6_500, "{} distinct bucket indexes", seen.len());
    }

    #[test]
    fn slots_are_reused_but_ids_are_not() {
        let mut table = FlowTable::new();
        let first = table.install(t(0), FlowSpec::new(FlowMatch::any()).priority(1).cookie(1));
        table.delete_by_cookie(t(1), 1);
        let second = table.install(t(2), FlowSpec::new(FlowMatch::any()).priority(1).cookie(2));
        assert!(second > first, "flow ids must stay monotonic");
        assert!(table.get(first).is_none());
        assert_eq!(table.get(second).unwrap().cookie, 2);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn iter_ordered_walks_table_order() {
        let mut table = FlowTable::new();
        table.install(t(0), FlowSpec::new(FlowMatch::any()).priority(1).cookie(1));
        table.install(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
                .priority(9)
                .cookie(2),
        );
        table.install(
            t(0),
            FlowSpec::new(FlowMatch::to_service(sa(201, 80)))
                .priority(9)
                .cookie(3),
        );
        let cookies: Vec<u64> = table.iter_ordered().map(|e| e.cookie).collect();
        assert_eq!(cookies, vec![2, 3, 1]);
    }

    #[test]
    fn drop_action() {
        let mut sw = Switch::new(1);
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::any())
                .priority(1)
                .action(Action::Drop),
        );
        assert_eq!(sw.receive(t(1), service_packet()), PacketVerdict::Dropped);
        assert_eq!(sw.stats.dropped, 1);
    }

    #[test]
    fn to_controller_action_buffers() {
        let mut sw = Switch::new(1);
        sw.flow_mod(
            t(0),
            FlowSpec::new(FlowMatch::any())
                .priority(1)
                .action(Action::ToController),
        );
        match sw.receive(t(1), service_packet()) {
            PacketVerdict::PacketIn { .. } => {}
            other => panic!("{other:?}"),
        }
    }
}
