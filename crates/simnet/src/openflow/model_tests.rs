//! Model-based equivalence tests of the indexed OpenFlow flow table: under
//! arbitrary operation sequences mixing exact, wildcard and masked (`IpNet`)
//! entries, the hash-indexed implementation must behave exactly like a naive
//! linear scan over a priority-ordered list — identical match results,
//! identical survivors of every eviction sweep (`expire_discard`, the one
//! expiry path the switch runs), identical `next_expiry` schedule — also when a packet is stamped with an instant
//! before the previous touch, as a PDES shard re-stamping its input does.
//! Timeouts are drawn so both expiry schedules see traffic: idle-only entries
//! share three idle timeouts (touch-ordered lists of several members), and
//! hard-only and idle + hard entries go on the heap.
//!
//! The table stores entries as packed records and hands out views, so every
//! view is compared with the model field by field after every op: `get` of
//! every id the model holds (and of one it dropped), `find` of every packet
//! in the universe, the whole of `iter_ordered`, each entry a strict delete
//! removes, and the actions a `lookup` hit hands back. Action lists run from 0 to 6
//! actions, some with an output port past 32 bits, so records whose actions
//! pack and records whose actions spill to the side table mix; a matcher is
//! often installed at two or three priorities in one op, so same-matcher
//! chains form, grow, are replaced into and are deleted from.

use crate::openflow::{
    Action, ActionList, FlowEntry, FlowId, FlowMatch, FlowSpec, FlowTable, IpNet, PortId,
};
use crate::{IpAddr, Packet, SocketAddr};
use proptest::prelude::*;
use simcore::{SimDuration, SimTime};

fn client_ip(c: u8) -> IpAddr {
    IpAddr::new(10, 0, 0, c)
}

fn svc_addr(d: u8) -> SocketAddr {
    SocketAddr::new(IpAddr::new(93, 184, 0, d), 80)
}

fn packet(client: u8, dst: u8) -> Packet {
    Packet::syn(SocketAddr::new(client_ip(client), 40000), svc_addr(dst), 0)
}

/// Matchers drawn from a deliberately small universe so installs collide,
/// replace each other, and overlap in lookup: fully exact per-client rules,
/// partially-wildcarded exact rules, catch-alls, and masked topology routes
/// on either side.
fn matcher_strategy() -> impl Strategy<Value = FlowMatch> {
    let prefix = prop_oneof![Just(8u8), Just(16u8), Just(24u8), Just(32u8)];
    let prefix2 = prop_oneof![Just(8u8), Just(16u8), Just(24u8), Just(32u8)];
    prop_oneof![
        3 => (0u8..4, 0u8..4).prop_map(|(c, d)| {
            FlowMatch::client_to_service(client_ip(c), svc_addr(d))
        }),
        2 => (0u8..4).prop_map(|d| FlowMatch::to_service(svc_addr(d))),
        1 => (0u8..4).prop_map(|c| FlowMatch {
            src_ip: Some(client_ip(c)),
            ..FlowMatch::default()
        }),
        1 => Just(FlowMatch::default()),
        2 => (0u8..4, prefix).prop_map(|(c, p)| {
            FlowMatch::from_net(IpNet::new(client_ip(c), p))
        }),
        2 => (0u8..4, prefix2).prop_map(|(d, p)| {
            FlowMatch::to_net(IpNet::new(svc_addr(d).ip, p))
        }),
        1 => (0u8..4, 0u8..4).prop_map(|(c, d)| FlowMatch {
            src_net: Some(IpNet::new(client_ip(c), 24)),
            dst_ip: Some(svc_addr(d).ip),
            dst_port: Some(80),
            ..FlowMatch::default()
        }),
    ]
}

/// Every action kind, with ports on both sides of 32 bits.
fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        1 => (0u8..4).prop_map(|c| Action::SetSrcIp(client_ip(c))),
        1 => (0u16..3).prop_map(|p| Action::SetSrcPort(8000 + p)),
        1 => (0u8..4).prop_map(|d| Action::SetDstIp(svc_addr(d).ip)),
        1 => (0u16..3).prop_map(|p| Action::SetDstPort(8000 + p)),
        3 => (0usize..4).prop_map(|p| Action::Output(PortId(p))),
        1 => Just(Action::Output(PortId((u32::MAX as usize) + 1))),
        1 => Just(Action::ToController),
        1 => Just(Action::Drop),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    /// Install `matcher` at each of `priorities` in turn, all with the same
    /// actions, timeouts and cookie.
    Install {
        matcher: FlowMatch,
        priorities: Vec<u16>,
        actions: Vec<Action>,
        idle_ms: Option<u64>,
        hard_ms: Option<u64>,
        cookie: u64,
    },
    Packet {
        client: u8,
        dst: u8,
        advance_ms: u64,
    },
    /// A packet stamped `back_ms` *before* the current instant: time steps
    /// backwards for this touch only, pulling the hit entry's idle deadline
    /// in.
    PacketBefore {
        client: u8,
        dst: u8,
        back_ms: u64,
    },
    Expire {
        advance_ms: u64,
    },
    DeleteMatching {
        matcher: FlowMatch,
    },
}

/// `(idle_ms, hard_ms)` of an install.
fn timeouts_strategy() -> impl Strategy<Value = (Option<u64>, Option<u64>)> {
    let shared_idle = || prop_oneof![Just(300u64), Just(1000), Just(2500)];
    prop_oneof![
        4 => shared_idle().prop_map(|idle| (Some(idle), None)),
        1 => (1u64..5000).prop_map(|idle| (Some(idle), None)),
        1 => (1u64..5000).prop_map(|hard| (None, Some(hard))),
        1 => (shared_idle(), 1u64..5000).prop_map(|(idle, hard)| (Some(idle), Some(hard))),
        1 => Just((None, None)),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (
            matcher_strategy(),
            prop::collection::vec(0u16..4, 1..4),
            prop::collection::vec(action_strategy(), 0..7),
            timeouts_strategy(),
            0u64..3,
        )
            .prop_map(|(matcher, priorities, actions, (idle_ms, hard_ms), cookie)| Op::Install {
                matcher, priorities, actions, idle_ms, hard_ms, cookie
            }),
        4 => (0u8..4, 0u8..4, 0u64..500).prop_map(|(client, dst, advance_ms)| Op::Packet {
            client, dst, advance_ms
        }),
        2 => (0u8..4, 0u8..4, 1u64..4000).prop_map(|(client, dst, back_ms)| Op::PacketBefore {
            client, dst, back_ms
        }),
        1 => (0u64..3000).prop_map(|advance_ms| Op::Expire { advance_ms }),
        1 => matcher_strategy().prop_map(|matcher| Op::DeleteMatching { matcher }),
    ]
}

/// The retained reference implementation: a plain `Vec` kept in table order
/// (priority descending, insertion order ascending) and scanned linearly for
/// everything, exactly like the pre-index flow table.
#[derive(Debug)]
struct ModelEntry {
    id: u64,
    priority: u16,
    matcher: FlowMatch,
    actions: Vec<Action>,
    idle: Option<SimDuration>,
    hard: Option<SimDuration>,
    cookie: u64,
    installed: SimTime,
    last_used: SimTime,
    packets: u64,
}

impl ModelEntry {
    /// The view the table must hand out for this entry.
    fn view(&self) -> FlowEntry {
        FlowEntry {
            id: FlowId(self.id),
            priority: self.priority,
            matcher: self.matcher,
            actions: ActionList::from(self.actions.as_slice()),
            idle_timeout: self.idle,
            hard_timeout: self.hard,
            cookie: self.cookie,
            installed_at: self.installed,
            last_used: self.last_used,
            packets: self.packets,
        }
    }

    fn deadline(&self) -> Option<SimTime> {
        let idle = self.idle.map(|d| self.last_used + d);
        let hard = self.hard.map(|d| self.installed + d);
        match (idle, hard) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[derive(Debug, Default)]
struct Model {
    entries: Vec<ModelEntry>,
    next_id: u64,
}

impl Model {
    #[allow(clippy::too_many_arguments)]
    fn install(
        &mut self,
        now: SimTime,
        matcher: FlowMatch,
        priority: u16,
        actions: &[Action],
        idle: Option<SimDuration>,
        hard: Option<SimDuration>,
        cookie: u64,
    ) -> u64 {
        // OFPFC_ADD: same (priority, match) replaces, counters reset.
        self.entries
            .retain(|e| !(e.priority == priority && e.matcher == matcher));
        let pos = self
            .entries
            .iter()
            .position(|e| e.priority < priority)
            .unwrap_or(self.entries.len());
        let id = self.next_id;
        self.next_id += 1;
        self.entries.insert(
            pos,
            ModelEntry {
                id,
                priority,
                matcher,
                actions: actions.to_vec(),
                idle,
                hard,
                cookie,
                installed: now,
                last_used: now,
                packets: 0,
            },
        );
        id
    }

    /// The hit's id and actions.
    fn lookup(&mut self, now: SimTime, p: &Packet) -> Option<(u64, ActionList)> {
        let e = self.entries.iter_mut().find(|e| e.matcher.matches(p))?;
        e.last_used = now;
        e.packets += 1;
        Some((e.id, ActionList::from(e.actions.as_slice())))
    }

    fn find(&self, p: &Packet) -> Option<FlowEntry> {
        self.entries
            .iter()
            .find(|e| e.matcher.matches(p))
            .map(ModelEntry::view)
    }

    fn expire(&mut self, now: SimTime) {
        self.entries
            .retain(|e| e.deadline().is_none_or(|d| d > now));
    }

    fn delete_matching(&mut self, matcher: &FlowMatch) -> Vec<FlowEntry> {
        let mut removed = Vec::new();
        self.entries.retain(|e| {
            if &e.matcher == matcher {
                removed.push(e.view());
                false
            } else {
                true
            }
        });
        removed
    }

    fn next_expiry(&self) -> Option<SimTime> {
        self.entries.iter().filter_map(|e| e.deadline()).min()
    }
}

/// Sweep both at `now`, then compare what survives and the next deadline.
fn sweep(table: &mut FlowTable, model: &mut Model, now: SimTime) -> Result<(), TestCaseError> {
    table.expire_discard(now);
    model.expire(now);
    let want: Vec<FlowEntry> = model.entries.iter().map(ModelEntry::view).collect();
    prop_assert_eq!(
        table.iter_ordered().collect::<Vec<_>>(),
        want,
        "survivors at {}",
        now
    );
    prop_assert_eq!(
        table.next_expiry(),
        model.next_expiry(),
        "next_expiry after the sweep"
    );
    Ok(())
}

/// Every view the table hands out equals the model's, field by field.
fn compare_views(table: &FlowTable, model: &Model) {
    let want: Vec<FlowEntry> = model.entries.iter().map(ModelEntry::view).collect();
    let got: Vec<FlowEntry> = table.iter_ordered().collect();
    assert_eq!(got, want, "iter_ordered");
    for e in &want {
        assert_eq!(table.get(e.id).as_ref(), Some(e), "get({:?})", e.id);
    }
    if let Some(gone) = model
        .next_id
        .checked_sub(1)
        .filter(|&id| !want.iter().any(|e| e.id.0 == id))
    {
        assert_eq!(table.get(FlowId(gone)), None, "get of a removed id");
    }
    for client in 0..4 {
        for dst in 0..4 {
            let p = packet(client, dst);
            assert_eq!(table.find(&p), model.find(&p), "find({client}, {dst})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn flow_table_matches_linear_scan_model(
        ops in prop::collection::vec(op_strategy(), 0..120),
    ) {
        let mut table = FlowTable::new();
        let mut model = Model::default();
        let mut now = SimTime::ZERO;

        for op in ops {
            match op {
                Op::Install { matcher, priorities, actions, idle_ms, hard_ms, cookie } => {
                    let idle = idle_ms.map(SimDuration::from_millis);
                    let hard = hard_ms.map(SimDuration::from_millis);
                    for priority in priorities {
                        let got = table.install(
                            now,
                            FlowSpec {
                                idle_timeout: idle,
                                hard_timeout: hard,
                                ..FlowSpec::new(matcher)
                                    .priority(priority)
                                    .actions(actions.as_slice())
                                    .cookie(cookie)
                            },
                        );
                        let want = model.install(now, matcher, priority, &actions, idle, hard, cookie);
                        prop_assert_eq!(got.0, want, "install ids diverged");
                    }
                }
                Op::Packet { client, dst, advance_ms } => {
                    now += SimDuration::from_millis(advance_ms);
                    // Expire first in both: the testbed sweeps before receive.
                    sweep(&mut table, &mut model, now)?;
                    let p = packet(client, dst);
                    let got = table.lookup(now, &p).map(|hit| (hit.id.0, hit.actions));
                    let want = model.lookup(now, &p);
                    prop_assert_eq!(got, want, "lookup winner at {}", now);
                }
                Op::PacketBefore { client, dst, back_ms } => {
                    let at = now - SimDuration::from_millis(back_ms);
                    let p = packet(client, dst);
                    let got = table.lookup(at, &p).map(|hit| (hit.id.0, hit.actions));
                    let want = model.lookup(at, &p);
                    prop_assert_eq!(got, want, "lookup winner at {} (before {})", at, now);
                }
                Op::Expire { advance_ms } => {
                    now += SimDuration::from_millis(advance_ms);
                    sweep(&mut table, &mut model, now)?;
                }
                Op::DeleteMatching { matcher } => {
                    let got = table.delete_matching(&matcher);
                    prop_assert_eq!(got, model.delete_matching(&matcher), "strict delete");
                }
            }
            prop_assert_eq!(table.len(), model.entries.len(), "table size");
            prop_assert_eq!(table.next_expiry(), model.next_expiry(), "next_expiry");
            compare_views(&table, &model);
        }
    }

    #[test]
    fn next_expiry_is_sound(
        idles in prop::collection::vec(1u64..1000, 1..20),
    ) {
        // next_expiry() never reports an instant later than a real expiry:
        // sweeping at next_expiry always evicts at least one entry.
        let mut table = FlowTable::new();
        for (i, &idle) in idles.iter().enumerate() {
            let matcher = FlowMatch::client_to_service(
                client_ip((i % 250) as u8),
                svc_addr((i / 250) as u8),
            );
            table.install(
                SimTime::ZERO,
                FlowSpec::new(matcher)
                    .priority(1)
                    .idle(SimDuration::from_millis(idle))
                    .cookie(i as u64),
            );
        }
        let at = table.next_expiry().expect("entries have timeouts");
        table.expire_discard(at - SimDuration::from_nanos(1));
        prop_assert_eq!(table.len(), idles.len(), "nothing may expire before next_expiry");
        table.expire_discard(at);
        prop_assert!(table.len() < idles.len(), "something must expire at next_expiry");
    }
}
