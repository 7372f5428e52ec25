//! Model-based equivalence tests of the indexed OpenFlow flow table: under
//! arbitrary operation sequences mixing exact, wildcard and masked (`IpNet`)
//! entries, the hash-indexed implementation must behave exactly like a naive
//! linear scan over a priority-ordered list — identical match results,
//! identical eviction order, identical `FlowRemoved` reasons, identical
//! `next_expiry` schedule — also when a packet is stamped with an instant
//! before the previous touch, as a PDES shard re-stamping its input does.
//! Timeouts are drawn so both expiry schedules see traffic: idle-only entries
//! share three idle timeouts (touch-ordered lists of several members), and
//! hard-only and idle + hard entries go on the heap.

use proptest::prelude::*;
use simcore::{SimDuration, SimTime};
use simnet::openflow::{Action, FlowMatch, FlowSpec, FlowTable, IpNet, PortId, RemovalReason};
use simnet::{IpAddr, Packet, SocketAddr};

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
        1 => Just(FlowMatch::any()),
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

#[derive(Debug, Clone)]
enum Op {
    Install {
        matcher: FlowMatch,
        priority: u16,
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
    DeleteByCookie {
        cookie: u64,
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
        4 => (matcher_strategy(), 0u16..4, timeouts_strategy(), 0u64..3)
            .prop_map(|(matcher, priority, (idle_ms, hard_ms), cookie)| Op::Install {
                matcher, priority, idle_ms, hard_ms, cookie
            }),
        4 => (0u8..4, 0u8..4, 0u64..500).prop_map(|(client, dst, advance_ms)| Op::Packet {
            client, dst, advance_ms
        }),
        2 => (0u8..4, 0u8..4, 1u64..4000).prop_map(|(client, dst, back_ms)| Op::PacketBefore {
            client, dst, back_ms
        }),
        1 => (0u64..3000).prop_map(|advance_ms| Op::Expire { advance_ms }),
        1 => matcher_strategy().prop_map(|matcher| Op::DeleteMatching { matcher }),
        1 => (0u64..3).prop_map(|cookie| Op::DeleteByCookie { cookie }),
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
    idle: Option<SimDuration>,
    hard: Option<SimDuration>,
    cookie: u64,
    installed: SimTime,
    last_used: SimTime,
}

impl ModelEntry {
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
    fn install(
        &mut self,
        now: SimTime,
        matcher: FlowMatch,
        priority: u16,
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
                idle,
                hard,
                cookie,
                installed: now,
                last_used: now,
            },
        );
        id
    }

    fn lookup(&mut self, now: SimTime, p: &Packet) -> Option<u64> {
        let e = self.entries.iter_mut().find(|e| e.matcher.matches(p))?;
        e.last_used = now;
        Some(e.id)
    }

    fn expire(&mut self, now: SimTime) -> Vec<(u64, RemovalReason)> {
        let mut removed = Vec::new();
        self.entries.retain(|e| {
            if e.deadline().is_some_and(|d| d <= now) {
                // Hard timeouts are reported in preference to idle ones.
                let hard_elapsed = e.hard.is_some_and(|h| now.since(e.installed) >= h);
                let reason = if hard_elapsed {
                    RemovalReason::HardTimeout
                } else {
                    RemovalReason::IdleTimeout
                };
                removed.push((e.id, reason));
                false
            } else {
                true
            }
        });
        removed
    }

    fn delete_matching(&mut self, matcher: &FlowMatch) -> Vec<(u64, RemovalReason)> {
        let mut removed = Vec::new();
        self.entries.retain(|e| {
            if &e.matcher == matcher {
                removed.push((e.id, RemovalReason::Deleted));
                false
            } else {
                true
            }
        });
        removed
    }

    fn delete_by_cookie(&mut self, cookie: u64) -> Vec<(u64, RemovalReason)> {
        let mut removed = Vec::new();
        self.entries.retain(|e| {
            if e.cookie == cookie {
                removed.push((e.id, RemovalReason::Deleted));
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

/// Removed-notification fingerprint: identity + reason, in reported order.
fn removal_ids(removed: &[simnet::openflow::FlowRemoved]) -> Vec<(u64, RemovalReason)> {
    removed.iter().map(|r| (r.entry.id.0, r.reason)).collect()
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
                Op::Install { matcher, priority, idle_ms, hard_ms, cookie } => {
                    let idle = idle_ms.map(SimDuration::from_millis);
                    let hard = hard_ms.map(SimDuration::from_millis);
                    let got = table.install(
                        now,
                        FlowSpec::new(matcher)
                            .priority(priority)
                            .action(Action::Output(PortId(0)))
                            .idle_opt(idle)
                            .hard_opt(hard)
                            .cookie(cookie),
                    );
                    let want = model.install(now, matcher, priority, idle, hard, cookie);
                    prop_assert_eq!(got.0, want, "install ids diverged");
                }
                Op::Packet { client, dst, advance_ms } => {
                    now += SimDuration::from_millis(advance_ms);
                    // Expire first in both: the testbed sweeps before receive.
                    let evicted = removal_ids(&table.expire(now));
                    prop_assert_eq!(evicted, model.expire(now), "pre-lookup eviction");
                    let p = packet(client, dst);
                    let got = table.lookup(now, &p).map(|e| e.id.0);
                    let want = model.lookup(now, &p);
                    prop_assert_eq!(got, want, "lookup winner at {}", now);
                }
                Op::PacketBefore { client, dst, back_ms } => {
                    let at = now - SimDuration::from_millis(back_ms);
                    let p = packet(client, dst);
                    let got = table.lookup(at, &p).map(|e| e.id.0);
                    let want = model.lookup(at, &p);
                    prop_assert_eq!(got, want, "lookup winner at {} (before {})", at, now);
                }
                Op::Expire { advance_ms } => {
                    now += SimDuration::from_millis(advance_ms);
                    let evicted = removal_ids(&table.expire(now));
                    prop_assert_eq!(evicted, model.expire(now), "eviction at {}", now);
                }
                Op::DeleteMatching { matcher } => {
                    let got = removal_ids(&table.delete_matching(now, &matcher));
                    prop_assert_eq!(got, model.delete_matching(&matcher), "strict delete");
                }
                Op::DeleteByCookie { cookie } => {
                    let got = removal_ids(&table.delete_by_cookie(now, cookie));
                    prop_assert_eq!(got, model.delete_by_cookie(cookie), "cookie delete");
                }
            }
            prop_assert_eq!(table.len(), model.entries.len(), "table size");
            prop_assert_eq!(table.next_expiry(), model.next_expiry(), "next_expiry");
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
        prop_assert!(table.expire(at - SimDuration::from_nanos(1)).is_empty(),
            "nothing may expire before next_expiry");
        prop_assert!(!table.expire(at).is_empty(), "something must expire at next_expiry");
    }
}
