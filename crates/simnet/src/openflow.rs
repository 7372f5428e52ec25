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
//! ## Storage and indexes
//!
//! The table is laid out so an install, a hit and an eviction each touch a
//! few cache lines, whatever the table's size (see DESIGN.md, "Flow pipeline
//! complexity"):
//!
//! * **One 64-byte record per entry**, exact or masked, idle or hard, in a
//!   slab addressed by `u32` slot: the matcher's exact fields packed into an
//!   `ExactKey`, the [`FlowId`], `last_used`, the packet count, the
//!   priority, an index into the table's append-only list of idle timeouts,
//!   a `next` slot, and up to three actions packed as a 3-bit kind and a
//!   32-bit operand each. A freed slot goes on a free list threaded through
//!   `next`.
//! * **Rare fields live elsewhere.** `cookie` and `installed_at`, which no
//!   packet reads, sit in a 16-byte cold lane indexed by slot. Masked nets, a
//!   hard timeout, and an action list that does not pack (more than three
//!   actions, or an output port past `u32`) sit in a side table keyed by
//!   slot, and a flag in the record says so. An entry the controller
//!   installs — an exact redirect or host route with an idle timeout only —
//!   has no side entry.
//! * **The exact index** is a [`SlotIndex`]: open addressing over 8-byte
//!   `(hash, slot)` buckets at load ≤ ½, probed linearly, that never stores a
//!   key — it asks the record. An entry is found by the shape of its matcher
//!   (which of protocol/src/dst/ports are pinned) plus the pinned values; a
//!   lookup probes once per shape currently installed. Deletion shifts the
//!   run after the hole back over it (never past an entry's home), so no
//!   tombstone is left: an install is one probe, an eviction one probe.
//! * **One index entry per matcher.** The same matcher installed at several
//!   priorities keeps one bucket, naming its best-ranked record; the others
//!   chain behind it through `next`, in table order. A chain head is the
//!   winner for every packet its key matches.
//! * Entries with masked (`IpNet`) fields live in a short priority-ordered
//!   fallback list that is scanned only until it can no longer beat the best
//!   indexed hit.
//! * Timeouts are two [`IdleOrder`]s of slots. An entry with an idle
//!   timeout sits in the idle one, in the list of its timeout kept in
//!   last-touch order: a hit is a move to the tail. An entry with a hard
//!   timeout sits in the hard one, stamped with its install instant; nothing
//!   moves a hard deadline, so that list is in deadline order untouched. An
//!   entry with both sits in both. `next_expiry` reads the list heads and an
//!   eviction sweep unlinks heads, O(1) per evicted entry, and no record
//!   outlives its entry.
//! * Nothing indexes entries by id — no packet, install or sweep asks — so
//!   `get` is an O(table) scan.
//!
//! [`FlowEntry`] is a view, not storage: [`FlowTable::get`],
//! [`FlowTable::find`], [`FlowTable::iter_ordered`] and
//! [`FlowTable::delete_matching`] build one from the record on demand, and
//! [`FlowTable::lookup`] hands a hit's actions out by value. The switch's own
//! hit path builds no list at all: it applies a record's packed actions as it
//! decodes them.
//!
//! The observable semantics are OpenFlow's: priority order with stable
//! insertion order inside a priority level and `OFPFC_ADD` replace
//! semantics. An eviction sweep reports nothing (no controller reads
//! `FLOW_REMOVED`; FlowMemory keeps its own timeouts).

use std::cmp::Reverse;

use simcore::slot_index::Probe;
use simcore::{DetHashMap, IdleOrder, SimDuration, SimTime, SlotIndex};

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

    pub(crate) fn contains(&self, ip: IpAddr) -> bool {
        let mask = if self.prefix == 0 {
            0
        } else {
            u32::MAX << (32 - self.prefix as u32)
        };
        (ip.0 & mask) == (self.addr.0 & mask)
    }

    /// Every address in `other` is also in `self` (CIDR containment: a
    /// shorter-or-equal prefix whose network covers `other`'s network).
    pub(crate) fn subsumes(&self, other: &IpNet) -> bool {
        self.prefix <= other.prefix && self.contains(other.addr)
    }

    /// The two prefixes share at least one address. For CIDR prefixes this is
    /// exactly "one contains the other" — partial overlap is impossible.
    pub(crate) fn intersects(&self, other: &IpNet) -> bool {
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
    #[cfg(test)]
    pub(crate) fn to_net(net: IpNet) -> FlowMatch {
        FlowMatch {
            dst_net: Some(net),
            ..FlowMatch::default()
        }
    }

    /// Match everything whose source lies in `net`.
    #[cfg(test)]
    pub(crate) fn from_net(net: IpNet) -> FlowMatch {
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

/// Index key of a matcher's exact fields: the `Some`-ness pattern of the
/// five exact fields is the *shape*, and the values under that shape identify
/// an exact matcher uniquely. A packet is probed once per shape present in
/// the table (tuple-space search); a hit is a guaranteed match, no re-check
/// needed. Every record stores the key of its matcher — a masked matcher's
/// exact part, with the nets beside it in the side table.
///
/// Packed into two words so a probe hashes and compares two words, not five
/// `Option`s: `meta` holds the shape in bits 0..5, the protocol in 8..16, the
/// source port in 16..32 and the destination port in 32..48; `addrs` holds
/// the source ip in its low half and the destination ip in its high half. A
/// field outside the shape is zero, so equal keys are equal exact matchers.
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

    /// The key of `m`'s exact fields (its nets, if any, are not in it).
    fn of_matcher(m: &FlowMatch) -> ExactKey {
        ExactKey {
            meta: m.shape() as u64
                | m.protocol.map_or(0, |p| p as u64) << 8
                | m.src_port.map_or(0, u64::from) << 16
                | m.dst_port.map_or(0, u64::from) << 32,
            addrs: m.src_ip.map_or(0, |ip| ip.0 as u64)
                | m.dst_ip.map_or(0, |ip| ip.0 as u64) << 32,
        }
    }

    /// The exact fields as a matcher with no nets: the inverse of
    /// [`ExactKey::of_matcher`] on exact matchers.
    fn matcher(self) -> FlowMatch {
        let on = |bit: u8| self.shape() & bit != 0;
        let protocol = if (self.meta >> 8) as u8 == Protocol::Tcp as u8 {
            Protocol::Tcp
        } else {
            Protocol::Udp
        };
        FlowMatch {
            protocol: on(1).then_some(protocol),
            src_ip: on(2).then_some(IpAddr(self.addrs as u32)),
            src_port: on(4).then_some((self.meta >> 16) as u16),
            dst_ip: on(8).then_some(IpAddr((self.addrs >> 32) as u32)),
            dst_port: on(16).then_some((self.meta >> 32) as u16),
            src_net: None,
            dst_net: None,
        }
    }

    fn shape(self) -> u8 {
        (self.meta & 0x1f) as u8
    }

    /// All five fields of a packet, shape bits clear — computed once per
    /// lookup and [`ExactKey::project`]ed onto each live shape.
    fn fields_of(p: &Packet) -> ExactKey {
        ExactKey {
            meta: (p.protocol as u64) << 8 | (p.src.port as u64) << 16 | (p.dst.port as u64) << 32,
            addrs: p.src.ip.0 as u64 | (p.dst.ip.0 as u64) << 32,
        }
    }

    /// Project a packet's fields — or a key's — onto a shape: the key an
    /// exact matcher of that shape must equal for the packet to match it.
    fn project(self, shape: u8) -> ExactKey {
        let (meta, addrs) = Self::FIELD_MASKS[shape as usize];
        ExactKey {
            meta: shape as u64 | self.meta & meta,
            addrs: self.addrs & addrs,
        }
    }

    /// The [`SlotIndex`] hash, whose low bits pick the bucket: a folded
    /// multiply — the two words, each offset by a constant, multiplied to 128
    /// bits and the halves XORed — so every input bit reaches the low bits.
    fn hash32(self) -> u32 {
        let product = u128::from(self.meta ^ 0x243f_6a88_85a3_08d3)
            * u128::from(self.addrs ^ 0x1319_8a2e_0370_7344);
        let h = product as u64 ^ (product >> 64) as u64;
        (h ^ h >> 32) as u32
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
/// plus an output), so the list stores up to `ActionList::INLINE` actions
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
    pub(crate) const INLINE: usize = 4;
    const PAD: Action = Action::Drop;

    pub(crate) fn new() -> ActionList {
        ActionList::Inline {
            len: 0,
            items: [Self::PAD; Self::INLINE],
        }
    }

    pub(crate) fn push(&mut self, action: Action) {
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

    pub(crate) fn as_slice(&self) -> &[Action] {
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

    /// Evict this long after installation regardless of use.
    #[cfg(test)]
    pub(crate) fn hard(mut self, timeout: SimDuration) -> FlowSpec {
        self.hard_timeout = Some(timeout);
        self
    }

    pub fn cookie(mut self, cookie: u64) -> FlowSpec {
        self.cookie = cookie;
        self
    }
}

/// An installed flow entry, as the table reports it: a copy built from the
/// entry's record, not a reference into the table.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// What [`FlowTable::lookup`] hands back for a hit: the winning entry's id and
/// a copy of its actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    pub id: FlowId,
    pub actions: ActionList,
}

/// No slot: the end of a same-matcher chain or of the free list.
const NIL: u32 = u32::MAX;
/// [`Record::idle`] of an entry without an idle timeout.
const NO_IDLE: u32 = u32::MAX;
/// Actions a record holds in place.
const PACKED: usize = 3;

// [`Record::code`]: bits 0..9 are the packed actions' kinds, three bits each
// in list order; bits 9..11 their count; the rest are flags.
const COUNT_SHIFT: u32 = 9;
/// The slot holds an entry (clear on the free list).
const LIVE: u16 = 1 << 11;
/// The matcher has masked nets, kept in the side table.
const MASKED: u16 = 1 << 12;
/// The entry has a hard timeout, kept in the side table.
const HARD: u16 = 1 << 13;
/// The actions did not pack; the side table holds them.
const LONG: u16 = 1 << 14;
/// Any flag that puts the entry in the side table.
const SIDE: u16 = MASKED | HARD | LONG;

/// One entry's hot state — everything an install, a hit or an eviction
/// reads — in one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Record {
    key: ExactKey,
    id: FlowId,
    last_used: SimTime,
    packets: u64,
    /// Operands of the packed actions, in list order.
    operands: [u32; PACKED],
    /// The next record of the same matcher in table order; on the free
    /// list, the next free slot.
    next: u32,
    /// Index into the table's idle timeouts, or [`NO_IDLE`].
    idle: u32,
    priority: u16,
    /// Packed action kinds and count, and the flags above.
    code: u16,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 64);

impl Record {
    fn has(&self, flags: u16) -> bool {
        self.code & flags != 0
    }

    /// Table order: priority descending, then insertion order ascending.
    fn rank(&self) -> (Reverse<u16>, FlowId) {
        (Reverse(self.priority), self.id)
    }

    /// The packed actions, decoded one by one (a record not flagged
    /// [`LONG`]).
    fn packed_actions(&self) -> impl Iterator<Item = Action> {
        let (code, operands) = (self.code, self.operands);
        let count = (code >> COUNT_SHIFT) as usize & 3;
        (0..count).map(move |i| unpack_action(code >> (3 * i) & 7, operands[i]))
    }
}

/// Pack up to [`PACKED`] actions into `(kinds | count, operands)`; `None` if
/// the list is longer or an output port does not fit 32 bits.
fn pack_actions(actions: &[Action]) -> Option<(u16, [u32; PACKED])> {
    if actions.len() > PACKED {
        return None;
    }
    let mut code = (actions.len() as u16) << COUNT_SHIFT;
    let mut operands = [0; PACKED];
    for (i, action) in actions.iter().enumerate() {
        let (kind, operand) = match *action {
            Action::SetSrcIp(ip) => (0, ip.0),
            Action::SetSrcPort(port) => (1, u32::from(port)),
            Action::SetDstIp(ip) => (2, ip.0),
            Action::SetDstPort(port) => (3, u32::from(port)),
            Action::Output(port) => (4, u32::try_from(port.0).ok()?),
            Action::ToController => (5, 0),
            Action::Drop => (6, 0),
        };
        code |= kind << (3 * i);
        operands[i] = operand;
    }
    Some((code, operands))
}

fn unpack_action(kind: u16, operand: u32) -> Action {
    match kind {
        0 => Action::SetSrcIp(IpAddr(operand)),
        1 => Action::SetSrcPort(operand as u16),
        2 => Action::SetDstIp(IpAddr(operand)),
        3 => Action::SetDstPort(operand as u16),
        4 => Action::Output(PortId(operand as usize)),
        5 => Action::ToController,
        _ => Action::Drop,
    }
}

/// The fields no packet reads, by slot.
#[derive(Debug, Clone, Copy)]
struct Cold {
    cookie: u64,
    installed_at: SimTime,
}

/// The fields only seed flows and tests set, for a record flagged [`SIDE`].
#[derive(Debug, Clone)]
struct Side {
    src_net: Option<IpNet>,
    dst_net: Option<IpNet>,
    hard_timeout: Option<SimDuration>,
    /// Set iff the record is flagged [`LONG`].
    actions: Option<ActionList>,
}

/// The entries' storage: records, cold lane and side table by slot, plus
/// the idle timeouts records point into. Slots are stable; a freed one is
/// reused before the slab grows.
#[derive(Debug)]
struct Slab {
    records: Vec<Record>,
    cold: Vec<Cold>,
    side: DetHashMap<u32, Side>,
    /// Every idle timeout ever installed, in order of first use.
    idle_timeouts: Vec<SimDuration>,
    /// Head of the free list.
    free: u32,
}

impl Default for Slab {
    fn default() -> Slab {
        Slab {
            records: Vec::new(),
            cold: Vec::new(),
            side: DetHashMap::default(),
            idle_timeouts: Vec::new(),
            free: NIL,
        }
    }
}

impl Slab {
    fn get(&self, slot: u32) -> &Record {
        &self.records[slot as usize]
    }

    fn get_mut(&mut self, slot: u32) -> &mut Record {
        &mut self.records[slot as usize]
    }

    fn side(&self, slot: u32) -> &Side {
        self.side
            .get(&slot)
            .expect("a record flagged for the side table has an entry there")
    }

    /// Store a new entry in the most recently freed slot, or else in a slot
    /// never used before. Returns its slot.
    fn insert(&mut self, record: Record, cold: Cold, side: Option<Side>) -> u32 {
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.get(slot).next;
            self.records[slot as usize] = record;
            self.cold[slot as usize] = cold;
            slot
        } else {
            let slot = u32::try_from(self.records.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("fewer than 2^32 - 1 flow slots");
            self.records.push(record);
            self.cold.push(cold);
            slot
        };
        if let Some(side) = side {
            self.side.insert(slot, side);
        }
        slot
    }

    /// Overwrite the entry in `slot` with a new one that keeps its place in
    /// its chain.
    fn replace(&mut self, slot: u32, record: Record, cold: Cold, side: Option<Side>) {
        let old = *self.get(slot);
        if old.has(SIDE) {
            self.side.remove(&slot);
        }
        *self.get_mut(slot) = Record {
            next: old.next,
            ..record
        };
        self.cold[slot as usize] = cold;
        if let Some(side) = side {
            self.side.insert(slot, side);
        }
    }

    /// Put a slot on the free list.
    fn free(&mut self, slot: u32) {
        if self.get(slot).has(SIDE) {
            self.side.remove(&slot);
        }
        let next_free = self.free;
        let record = self.get_mut(slot);
        record.code = 0;
        record.next = next_free;
        self.free = slot;
    }

    /// Every occupied slot, ascending.
    fn live(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.records.len() as u32).filter(|&s| self.get(s).has(LIVE))
    }

    fn rank(&self, slot: u32) -> (Reverse<u16>, FlowId) {
        self.get(slot).rank()
    }

    /// The [`Record::idle`] value for `timeout`, adding it to the list on
    /// first use.
    fn idle_class(&mut self, timeout: Option<SimDuration>) -> u32 {
        let Some(timeout) = timeout else {
            return NO_IDLE;
        };
        let class = match self.idle_timeouts.iter().position(|&t| t == timeout) {
            Some(class) => class,
            None => {
                self.idle_timeouts.push(timeout);
                self.idle_timeouts.len() - 1
            }
        };
        u32::try_from(class)
            .ok()
            .filter(|&c| c != NO_IDLE)
            .expect("fewer than 2^32 - 1 idle timeouts")
    }

    fn idle_timeout(&self, slot: u32) -> Option<SimDuration> {
        let idle = self.get(slot).idle;
        (idle != NO_IDLE).then(|| self.idle_timeouts[idle as usize])
    }

    fn hard_timeout(&self, slot: u32) -> Option<SimDuration> {
        self.get(slot)
            .has(HARD)
            .then(|| self.side(slot).hard_timeout)
            .flatten()
    }

    fn matcher(&self, slot: u32) -> FlowMatch {
        let record = self.get(slot);
        let mut matcher = record.key.matcher();
        if record.has(MASKED) {
            let side = self.side(slot);
            matcher.src_net = side.src_net;
            matcher.dst_net = side.dst_net;
        }
        matcher
    }

    fn actions(&self, slot: u32) -> ActionList {
        let record = self.get(slot);
        if record.has(LONG) {
            return self
                .side(slot)
                .actions
                .clone()
                .expect("a record flagged LONG keeps its actions in the side table");
        }
        // Built in place: pushing one by one keeps the spill path in the
        // loop, which costs a `lookup` more than its probe.
        let mut items = [ActionList::PAD; ActionList::INLINE];
        let mut len = 0;
        for (item, action) in items.iter_mut().zip(record.packed_actions()) {
            *item = action;
            len += 1;
        }
        ActionList::Inline { len, items }
    }

    /// The entry in `slot`, as callers see it.
    fn view(&self, slot: u32) -> FlowEntry {
        let record = self.get(slot);
        let cold = self.cold[slot as usize];
        FlowEntry {
            id: record.id,
            priority: record.priority,
            matcher: self.matcher(slot),
            actions: self.actions(slot),
            idle_timeout: self.idle_timeout(slot),
            hard_timeout: self.hard_timeout(slot),
            cookie: cold.cookie,
            installed_at: cold.installed_at,
            last_used: record.last_used,
            packets: record.packets,
        }
    }
}

/// Priority-ordered flow table with hash-indexed exact-match lookup.
///
/// Matching follows OpenFlow semantics: the winning entry is the first in
/// `(priority desc, insertion order asc)` order whose matcher accepts the
/// packet. Internally, exact matchers (no `IpNet` masks) are found through a
/// per-shape [`SlotIndex`] probe and masked matchers through a short ordered
/// fallback list; the module docs describe the structures and DESIGN.md the
/// complexity argument.
#[derive(Debug, Default)]
pub struct FlowTable {
    slab: Slab,
    /// Exact matchers: key → the slot of the best-ranked record with that
    /// key, the head of its chain. Every record in a chain has the *same*
    /// matcher (the key pins all constrained fields) and a distinct
    /// priority.
    index: SlotIndex,
    /// How many exact entries exist per shape.
    shape_counts: [usize; 32],
    /// Bit `s` set iff `shape_counts[s] > 0` — the set of keys to probe per
    /// packet, walked in ascending shape order.
    live_shapes: u32,
    /// Masked (`IpNet`) matchers, sorted by table order.
    masked: Vec<u32>,
    /// Idle expiry of every entry with an idle timeout: handle = slot,
    /// stamp = `last_used`.
    idle: IdleOrder,
    /// Hard expiry of every entry with a hard timeout: handle = slot, stamp
    /// = `installed_at`, never touched.
    hard: IdleOrder,
    next_id: u64,
    len: usize,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// How many entries are installed.
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
        let slot = self.insert(now, spec);
        self.slab.get(slot).id
    }

    /// [`FlowTable::install`], returning the new entry's slot.
    fn insert(&mut self, now: SimTime, spec: FlowSpec) -> u32 {
        let FlowSpec {
            matcher,
            priority,
            actions,
            idle_timeout,
            hard_timeout,
            cookie,
        } = spec;
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let (mut code, operands, long) = match pack_actions(&actions) {
            Some((code, operands)) => (code, operands, None),
            None => (LONG, [0; PACKED], Some(actions)),
        };
        code |= LIVE;
        if !matcher.is_exact() {
            code |= MASKED;
        }
        if hard_timeout.is_some() {
            code |= HARD;
        }
        let side = (code & SIDE != 0).then_some(Side {
            src_net: matcher.src_net,
            dst_net: matcher.dst_net,
            hard_timeout,
            actions: long,
        });
        let record = Record {
            key: ExactKey::of_matcher(&matcher),
            id,
            last_used: now,
            packets: 0,
            operands,
            next: NIL,
            idle: self.slab.idle_class(idle_timeout),
            priority,
            code,
        };
        let cold = Cold {
            cookie,
            installed_at: now,
        };

        let slot = if record.has(MASKED) {
            self.insert_masked(record, cold, side, &matcher)
        } else {
            self.insert_exact(record, cold, side)
        };

        let slab = &self.slab;
        if let Some(idle) = slab.idle_timeout(slot) {
            self.idle.link(slot, idle, now, |h| slab.get(h).last_used);
        }
        if let Some(hard) = slab.hard_timeout(slot) {
            self.hard
                .link(slot, hard, now, |h| slab.cold[h as usize].installed_at);
        }
        slot
    }

    /// One index probe: a new key takes the vacant bucket, a new priority
    /// joins the key's chain at its rank, and a `(priority, match)` already
    /// installed is replaced in place — the chain's priorities are distinct,
    /// so the new entry's place is the old one's.
    fn insert_exact(&mut self, record: Record, cold: Cold, side: Option<Side>) -> u32 {
        let key = record.key;
        let hash = key.hash32();
        let slab = &self.slab;
        let (bucket, head) = match self.index.probe(hash, |s| slab.get(s).key == key) {
            Probe::Vacant { bucket } => {
                let slot = self.slab.insert(record, cold, side);
                self.index.insert_at(bucket, hash, slot);
                self.count_exact(key.shape());
                return slot;
            }
            Probe::Found { bucket, slot } => (bucket, slot),
        };
        let (mut prev, mut at) = (NIL, head);
        while at != NIL && self.slab.get(at).priority > record.priority {
            prev = at;
            at = self.slab.get(at).next;
        }
        if at != NIL && self.slab.get(at).priority == record.priority {
            self.unlink_timeouts(at);
            self.slab.replace(at, record, cold, side);
            return at;
        }
        let slot = self.slab.insert(Record { next: at, ..record }, cold, side);
        match prev {
            NIL => self.index.set(bucket, slot),
            p => self.slab.get_mut(p).next = slot,
        }
        self.count_exact(key.shape());
        slot
    }

    fn insert_masked(
        &mut self,
        record: Record,
        cold: Cold,
        side: Option<Side>,
        matcher: &FlowMatch,
    ) -> u32 {
        let same = self.masked.iter().copied().find(|&s| {
            self.slab.get(s).priority == record.priority && self.slab.matcher(s) == *matcher
        });
        if let Some(slot) = same {
            self.detach(slot);
        }
        let slot = self.slab.insert(record, cold, side);
        // New entries carry the largest id so far, so they go after every
        // entry with priority >= theirs.
        let pos = self
            .masked
            .iter()
            .position(|&s| self.slab.get(s).priority < record.priority)
            .unwrap_or(self.masked.len());
        self.masked.insert(pos, slot);
        self.len += 1;
        slot
    }

    /// Count a new exact entry of `shape`.
    fn count_exact(&mut self, shape: u8) {
        self.shape_counts[shape as usize] += 1;
        self.live_shapes |= 1 << shape;
        self.len += 1;
    }

    /// Winning slot for a packet: best chain head across installed shapes,
    /// then the masked fallback list scanned only while it can still beat
    /// that.
    fn find_slot(&self, p: &Packet) -> Option<u32> {
        let fields = ExactKey::fields_of(p);
        let mut best: Option<u32> = None;
        let mut live = self.live_shapes;
        while live != 0 {
            let shape = live.trailing_zeros() as u8;
            live &= live - 1;
            let key = fields.project(shape);
            // Chain heads are guaranteed matches: the key pins every
            // constrained field to the packet's values.
            let head = self
                .index
                .get(key.hash32(), |s| self.slab.get(s).key == key);
            if let Some(head) = head {
                if best.is_none_or(|b| self.slab.rank(head) < self.slab.rank(b)) {
                    best = Some(head);
                }
            }
        }

        for &slot in &self.masked {
            // The masked list is in table order; once we fall behind the
            // best exact candidate no masked entry can win.
            if best.is_some_and(|b| self.slab.rank(slot) > self.slab.rank(b)) {
                break;
            }
            if self.slab.matcher(slot).matches(p) {
                return Some(slot);
            }
        }
        best
    }

    /// Find the highest-priority matching entry, updating its stats; a hit
    /// hands back its id and actions.
    pub fn lookup(&mut self, now: SimTime, p: &Packet) -> Option<Hit> {
        let slot = self.touch(now, p)?;
        Some(Hit {
            id: self.slab.get(slot).id,
            actions: self.slab.actions(slot),
        })
    }

    /// [`FlowTable::lookup`] without building the hit's action list: the
    /// winning slot, its stats and expiry updated.
    fn touch(&mut self, now: SimTime, p: &Packet) -> Option<u32> {
        let slot = self.find_slot(p)?;
        let record = self.slab.get_mut(slot);
        let last = std::mem::replace(&mut record.last_used, now);
        record.packets += 1;
        if let Some(idle) = self.slab.idle_timeout(slot) {
            let slab = &self.slab;
            self.idle
                .touch(slot, idle, last, now, |h| slab.get(h).last_used);
        }
        Some(slot)
    }

    /// Peek without touching stats (diagnostics).
    pub fn find(&self, p: &Packet) -> Option<FlowEntry> {
        self.find_slot(p).map(|s| self.slab.view(s))
    }

    /// The entry with this id, if installed. O(table): nothing on the packet
    /// path looks entries up by id, so no index is kept for it.
    pub fn get(&self, id: FlowId) -> Option<FlowEntry> {
        self.slot_of(id).map(|s| self.slab.view(s))
    }

    fn slot_of(&self, id: FlowId) -> Option<u32> {
        self.slab.live().find(|&s| self.slab.get(s).id == id)
    }

    /// Remove all entries whose matcher equals `matcher` (OpenFlow strict
    /// delete). Returns the removed entries in table order.
    pub fn delete_matching(&mut self, matcher: &FlowMatch) -> Vec<FlowEntry> {
        let slots: Vec<u32> = if matcher.is_exact() {
            // The key pins the whole matcher, so the chain *is* the result
            // set (already in table order).
            let key = ExactKey::of_matcher(matcher);
            let head = self
                .index
                .get(key.hash32(), |s| self.slab.get(s).key == key);
            std::iter::successors(head, |&s| Some(self.slab.get(s).next).filter(|&n| n != NIL))
                .collect()
        } else {
            self.masked
                .iter()
                .copied()
                .filter(|&s| self.slab.matcher(s) == *matcher)
                .collect()
        };
        slots
            .into_iter()
            .map(|slot| {
                let entry = self.slab.view(slot);
                self.detach(slot);
                entry
            })
            .collect()
    }

    /// Evict every entry whose idle or hard timeout has elapsed at `now`.
    /// Nothing is reported: no controller reads flow-removed notifications
    /// (FlowMemory keeps its own timeouts), so the sweep builds no view and
    /// its eviction order is unobservable.
    pub fn expire_discard(&mut self, now: SimTime) {
        while let Some(slot) = self.first_due(now) {
            self.detach(slot);
        }
    }

    /// The slot of an entry due at or before `now`, if any: an idle list
    /// head, else a hard one.
    fn first_due(&self, now: SimTime) -> Option<u32> {
        self.idle
            .first_due(now)
            .or_else(|| self.hard.first_due(now))
    }

    /// The earliest instant at which some entry could expire — the testbed
    /// schedules its next eviction sweep there. O(timeouts in use): the
    /// list heads.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.idle.next().into_iter().chain(self.hard.next()).min()
    }

    /// How many expiry records the table holds: one list position per
    /// entry per timeout it has.
    #[doc(hidden)] // the `memory_bound` allocation binary divides bytes by it
    pub fn expiry_records(&self) -> usize {
        self.idle.len() + self.hard.len()
    }

    /// Pre-size the records, the cold lane, the idle links and the index for
    /// `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.slab.records.reserve(additional);
        self.slab.cold.reserve(additional);
        self.idle.reserve(additional);
        self.index.reserve(additional);
    }

    /// Iterate over entries in table order (diagnostics): sorts the occupied
    /// slots, then builds each view as the iterator reaches it.
    pub fn iter_ordered(&self) -> impl Iterator<Item = FlowEntry> + '_ {
        self.ordered(self.slab.live())
    }

    /// The entries of [`FlowTable::iter_ordered`] that can overlap
    /// `matcher`, in table order: when `matcher` is satisfiable, every entry
    /// that intersects it, covers it or is covered by it — each of those pins
    /// every exact field `matcher` also pins to the same value — plus every
    /// masked entry, untested. An exact entry is tested on its record alone,
    /// so only the candidates are sorted and decoded: edgeverify's
    /// per-install audit walks this instead of the whole table.
    pub fn iter_ordered_overlapping(
        &self,
        matcher: &FlowMatch,
    ) -> impl Iterator<Item = FlowEntry> + '_ {
        let key = ExactKey::of_matcher(matcher);
        self.ordered(self.slab.live().filter(move |&s| {
            let record = self.slab.get(s);
            let common = record.key.shape() & key.shape();
            record.has(MASKED) || record.key.project(common) == key.project(common)
        }))
    }

    /// Views of `slots` in table order, each built as the iterator reaches
    /// it.
    fn ordered(&self, slots: impl Iterator<Item = u32>) -> impl Iterator<Item = FlowEntry> + '_ {
        let mut slots: Vec<u32> = slots.collect();
        slots.sort_unstable_by_key(|&s| self.slab.rank(s));
        slots.into_iter().map(|s| self.slab.view(s))
    }

    /// First entry earlier in table order whose matcher fully covers `id`'s —
    /// if one exists, `id` can never match a packet. O(table) to find `id`;
    /// the `debug_assertions` install hook asks `FlowTable::shadowing` by
    /// slot.
    #[cfg(test)]
    pub(crate) fn shadowed_by(&self, id: FlowId) -> Option<FlowId> {
        self.shadowing(self.slot_of(id)?)
    }

    /// The first entry earlier in table order that covers the entry in
    /// `slot`, if any. An exact rule is covered by an exact rule only if that
    /// rule's shape is a subset of its own and that rule's key is its own key
    /// projected onto that shape: one index probe per such live shape, whose
    /// chain head is the earliest candidate. Otherwise it is covered by a
    /// masked rule ahead of it. A masked rule takes the table walk.
    #[cfg(any(test, debug_assertions))]
    fn shadowing(&self, slot: u32) -> Option<FlowId> {
        let target = *self.slab.get(slot);
        let rank = target.rank();
        if target.has(MASKED) {
            let matcher = self.slab.matcher(slot);
            return self
                .iter_ordered()
                .take_while(|e| e.id != target.id)
                .find(|e| e.matcher.subsumes(&matcher))
                .map(|e| e.id);
        }
        let shape = target.key.shape() as u32;
        let mut best: Option<u32> = None;
        let mut live = self.live_shapes;
        while live != 0 {
            let s = live.trailing_zeros();
            live &= live - 1;
            if s & !shape != 0 {
                continue;
            }
            let key = target.key.project(s as u8);
            let head = self
                .index
                .get(key.hash32(), |h| self.slab.get(h).key == key);
            if let Some(head) = head {
                let r = self.slab.rank(head);
                if r < rank && best.is_none_or(|b| r < self.slab.rank(b)) {
                    best = Some(head);
                }
            }
        }
        let matcher = target.key.matcher();
        for &m in &self.masked {
            let r = self.slab.rank(m);
            if r >= rank || best.is_some_and(|b| r > self.slab.rank(b)) {
                break;
            }
            if self.slab.matcher(m).subsumes(&matcher) {
                best = Some(m);
                break;
            }
        }
        best.map(|b| self.slab.get(b).id)
    }

    /// Take an entry out of its timeouts' lists.
    fn unlink_timeouts(&mut self, slot: u32) {
        let slab = &self.slab;
        if let Some(idle) = slab.idle_timeout(slot) {
            self.idle.unlink(slot, idle, |h| slab.get(h).last_used);
        }
        if let Some(hard) = slab.hard_timeout(slot) {
            self.hard
                .unlink(slot, hard, |h| slab.cold[h as usize].installed_at);
        }
    }

    /// Unlink an entry from every index and free its slot — one index probe
    /// for an exact entry.
    fn detach(&mut self, slot: u32) {
        self.unlink_timeouts(slot);
        let record = *self.slab.get(slot);
        if record.has(MASKED) {
            self.masked.retain(|&s| s != slot);
        } else {
            let key = record.key;
            let slab = &self.slab;
            let Probe::Found { bucket, slot: head } =
                self.index.probe(key.hash32(), |s| slab.get(s).key == key)
            else {
                panic!("an installed exact entry is indexed");
            };
            if head == slot {
                match record.next {
                    NIL => self.index.remove_at(bucket),
                    next => self.index.set(bucket, next),
                }
            } else {
                let mut prev = head;
                while self.slab.get(prev).next != slot {
                    prev = self.slab.get(prev).next;
                }
                self.slab.get_mut(prev).next = record.next;
            }
            let shape = key.shape();
            let count = &mut self.shape_counts[shape as usize];
            *count -= 1;
            if *count == 0 {
                self.live_shapes &= !(1 << shape);
            }
        }
        self.slab.free(slot);
        self.len -= 1;
    }
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

    /// Peek a parked packet without releasing it — lets an engine attribute
    /// a buffered-packet outcome (release failure, discard) to the packet's
    /// tag before deciding its fate.
    pub fn buffered_packet(&self, buffer_id: BufferId) -> Option<&Packet> {
        self.buffered.get(&buffer_id)
    }

    /// Process a packet arriving on a port.
    pub fn receive(&mut self, now: SimTime, packet: Packet) -> PacketVerdict {
        self.stats.packets += 1;
        let Some(slot) = self.table.touch(now, &packet) else {
            self.stats.table_misses += 1;
            return self.buffer_packet(packet);
        };
        self.stats.table_hits += 1;
        self.apply_slot(now, packet, slot)
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

    /// Apply the actions of the entry in `slot`: a packed list decoded as it
    /// goes, no list built.
    fn apply_slot(&mut self, now: SimTime, packet: Packet, slot: u32) -> PacketVerdict {
        let record = self.table.slab.get(slot);
        if record.has(LONG) {
            let actions = self.table.slab.actions(slot);
            self.apply(now, packet, actions.iter().copied())
        } else {
            let actions = record.packed_actions();
            self.apply(now, packet, actions)
        }
    }

    fn apply(
        &mut self,
        _now: SimTime,
        mut packet: Packet,
        actions: impl IntoIterator<Item = Action>,
    ) -> PacketVerdict {
        for action in actions {
            match action {
                Action::SetSrcIp(ip) => packet.src.ip = ip,
                Action::SetSrcPort(p) => packet.src.port = p,
                Action::SetDstIp(ip) => packet.dst.ip = ip,
                Action::SetDstPort(p) => packet.dst.port = p,
                Action::Output(port) => {
                    assert!(port.0 < self.port_count, "output to unknown port {port:?}");
                    self.stats.forwarded += 1;
                    return PacketVerdict::Forward {
                        packet,
                        out_port: port,
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
    /// run a check-on-install shadowing probe — index probes, not a table
    /// walk, for an exact rule — and record (not panic on) any rule that
    /// arrives dead; see [`InstallWarning`].
    pub fn flow_mod(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        let slot = self.table.insert(now, spec);
        let id = self.table.slab.get(slot).id;
        #[cfg(debug_assertions)]
        if let Some(by) = self.table.shadowing(slot) {
            self.install_warnings.push(InstallWarning {
                installed: id,
                shadowed_by: by,
            });
        }
        id
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
        let Some(slot) = self.table.touch(now, &packet) else {
            self.stats.table_misses += 1;
            self.stats.dropped += 1;
            return PacketVerdict::Dropped;
        };
        self.stats.table_hits += 1;
        self.apply_slot(now, packet, slot)
    }

    /// Drop a buffered packet without forwarding (controller gave up).
    pub fn discard_buffer(&mut self, buffer_id: BufferId) -> Option<Packet> {
        self.buffered.remove(&buffer_id)
    }

    /// Run a timeout sweep (see [`FlowTable::expire_discard`]).
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
mod expiry_tests;
#[cfg(test)]
mod model_tests;
#[cfg(test)]
mod tests;
