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
    assert!(FlowMatch::default().subsumes(&broad));
    assert!(!broad.subsumes(&FlowMatch::default()));
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

/// The table walk the index probes in [`FlowTable::shadowing`] replace
/// for exact rules: the first entry ahead in table order that covers
/// `id`'s matcher.
fn shadowed_by_walk(table: &FlowTable, id: FlowId) -> Option<FlowId> {
    let target = table.get(id)?;
    table
        .iter_ordered()
        .take_while(|e| e.id != id)
        .find(|e| e.matcher.subsumes(&target.matcher))
        .map(|e| e.id)
}

/// Matchers over two values per field, each field pinned or not, with a
/// net on either side now and then: shapes nest, keys project onto each
/// other, and masked rules cover exact ones.
fn shadow_matcher() -> impl proptest::Strategy<Value = FlowMatch> {
    use proptest::prelude::*;
    let net = || {
        prop_oneof![
            3 => Just(None),
            1 => (0u8..2, prop_oneof![Just(0u8), Just(24), Just(32)])
                .prop_map(|(d, prefix)| Some(IpNet::new(ip(d), prefix))),
        ]
    };
    let pin = |n: u8| prop::option::of(0..n);
    ((pin(2), pin(2), pin(2), pin(2), pin(2)), (net(), net())).prop_map(
        |((proto, src, sport, dst, dport), (src_net, dst_net))| FlowMatch {
            protocol: proto.map(|p| [Protocol::Tcp, Protocol::Udp][p as usize]),
            src_ip: src.map(ip),
            src_port: sport.map(|p| 40_000 + u16::from(p)),
            dst_ip: dst.map(ip),
            dst_port: dport.map(|p| 80 + u16::from(p)),
            src_net,
            dst_net,
        },
    )
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(512))]

    #[test]
    fn shadowing_by_index_probes_equals_the_table_walk(
        installs in proptest::collection::vec((shadow_matcher(), 0u16..4), 1..40),
        deletes in proptest::collection::vec(shadow_matcher(), 0..6),
    ) {
        let mut table = FlowTable::new();
        for (matcher, priority) in installs {
            let slot = table.insert(t(0), FlowSpec::new(matcher).priority(priority));
            let id = table.slab.get(slot).id;
            proptest::prop_assert_eq!(table.shadowing(slot), shadowed_by_walk(&table, id));
        }
        for matcher in deletes {
            table.delete_matching(&matcher);
        }
        let ids: Vec<FlowId> = table.iter_ordered().map(|e| e.id).collect();
        for id in ids {
            proptest::prop_assert_eq!(table.shadowed_by(id), shadowed_by_walk(&table, id));
        }
    }

    #[test]
    fn the_overlapping_walk_keeps_every_entry_that_can_overlap(
        installs in proptest::collection::vec((shadow_matcher(), 0u16..4), 1..40),
        probe in shadow_matcher(),
    ) {
        let mut table = FlowTable::new();
        for (matcher, priority) in installs {
            table.install(t(0), FlowSpec::new(matcher).priority(priority));
        }
        let near: Vec<FlowEntry> = table.iter_ordered_overlapping(&probe).collect();
        let all: Vec<FlowEntry> = table.iter_ordered().collect();
        // A subsequence of the table walk …
        let mut rest = all.iter();
        for e in &near {
            proptest::prop_assert!(rest.any(|a| a == e), "{:?} out of table order", e.id);
        }
        // … missing no entry that overlaps a satisfiable probe.
        if probe.is_satisfiable() {
            for e in &all {
                let overlaps = e.matcher.intersects(&probe)
                    || e.matcher.subsumes(&probe)
                    || probe.subsumes(&e.matcher);
                proptest::prop_assert!(!overlaps || near.contains(e), "{:?} dropped", e.id);
            }
        }
    }
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
    assert!(FlowMatch::default().matches(&p));
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
        PacketVerdict::PacketIn { packet, buffer_id } => {
            assert_eq!(packet, p);
            assert_eq!(sw.buffered_packet(buffer_id), Some(&p));
        }
        other => panic!("expected PacketIn, got {other:?}"),
    }
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
fn a_hit_on_an_action_list_too_long_to_pack_applies_all_of_it() {
    // Five actions do not fit a record: the hit reads them from the side
    // table, in order, through the same apply as a packed list.
    let mut sw = Switch::new(4);
    let (edge, cloud) = (sa(50, 8080), sa(60, 443));
    sw.flow_mod(
        t(0),
        FlowSpec::new(FlowMatch::to_service(sa(200, 80)))
            .priority(100)
            .action(Action::SetSrcIp(cloud.ip))
            .action(Action::SetSrcPort(cloud.port))
            .action(Action::SetDstIp(edge.ip))
            .action(Action::SetDstPort(edge.port))
            .action(Action::Output(PortId(3))),
    );
    match sw.receive(t(1), service_packet()) {
        PacketVerdict::Forward { packet, out_port } => {
            assert_eq!((packet.src, packet.dst, out_port), (cloud, edge, PortId(3)));
        }
        other => panic!("expected Forward, got {other:?}"),
    }
}

#[test]
fn priority_order_wins() {
    let mut sw = Switch::new(4);
    sw.flow_mod(
        t(0),
        FlowSpec::new(FlowMatch::default())
            .priority(1)
            .actions(out(0)),
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
        FlowSpec::new(FlowMatch::default())
            .priority(5)
            .actions(out(1)),
    );
    sw.flow_mod(
        t(0),
        FlowSpec::new(FlowMatch::default())
            .priority(5)
            .actions(out(2)),
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
        FlowSpec::new(FlowMatch::default())
            .priority(5)
            .actions(out(2)),
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
    assert!(sw.buffered_packet(buffer_id).is_none());
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
    table.expire_discard(t(4999));
    assert_eq!(table.len(), 1);
    table.expire_discard(t(5000));
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
    table.expire_discard(t(5000));
    assert_eq!(table.len(), 1, "refreshed at t=3s");
    table.expire_discard(t(8000));
    assert!(table.is_empty());
}

#[test]
fn hard_timeout_fires_even_with_traffic() {
    let mut table = FlowTable::new();
    table.install(
        t(0),
        FlowSpec::new(FlowMatch::default())
            .priority(10)
            .actions(out(0))
            .idle(SimDuration::from_secs(60))
            .hard(SimDuration::from_secs(10)),
    );
    let p = service_packet();
    assert!(table.lookup(t(9000), &p).is_some());
    table.expire_discard(t(9999));
    assert_eq!(table.len(), 1);
    table.expire_discard(t(10_000));
    assert!(table.is_empty());
}

#[test]
fn next_expiry_tracks_minimum() {
    let mut table = FlowTable::new();
    table.install(
        t(0),
        FlowSpec::new(FlowMatch::default())
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
    table.delete_matching(&FlowMatch::to_service(sa(201, 80)));
    assert_eq!(table.next_expiry(), Some(t(9000)));
    assert!(table.get(id).is_some());
}

#[test]
fn delete_matching_is_strict() {
    let mut table = FlowTable::new();
    let m = FlowMatch::to_service(sa(200, 80));
    table.install(t(0), FlowSpec::new(m).priority(1));
    table.install(t(0), FlowSpec::new(FlowMatch::default()).priority(1));
    table.install(
        t(0),
        FlowSpec::new(FlowMatch::to_service(sa(201, 80))).priority(1),
    );
    assert_eq!(table.delete_matching(&m).len(), 1);
    assert_eq!(table.len(), 2);
}

#[test]
fn delete_matching_spans_priorities_in_table_order() {
    let mut table = FlowTable::new();
    let m = FlowMatch::to_service(sa(200, 80));
    for priority in [1, 9, 5] {
        table.install(t(0), FlowSpec::new(m).priority(priority));
    }
    table.install(t(0), FlowSpec::new(FlowMatch::default()).priority(3));
    let removed = table.delete_matching(&m);
    let priorities: Vec<u16> = removed.iter().map(|e| e.priority).collect();
    assert_eq!(priorities, [9, 5, 1]);
    assert_eq!(table.len(), 1);
}

#[test]
fn lookup_updates_stats() {
    let mut table = FlowTable::new();
    let id = table.install(t(0), FlowSpec::new(FlowMatch::default()).priority(1));
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
        .iter_ordered()
        .flat_map(|e| {
            let idle = e.idle_timeout.map(|d| e.last_used + d);
            let hard = e.hard_timeout.map(|d| e.installed_at + d);
            idle.into_iter().chain(hard)
        })
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
    table.expire_discard(t(600));
    assert_eq!(table.len(), 1);
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
    table.slab.get_mut(slot).last_used = t(500);
    assert_eq!(brute_force_next_expiry(&table), Some(t(800)));
    assert_eq!(table.next_expiry(), Some(t(1300)), "the late answer");

    // Through the one door the same touch keeps the head exact.
    table.slab.get_mut(slot).last_used = t(1200);
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
    // 100 clients × 100 services differing only in their addresses' low
    // bytes: the low 14 bits of the hash (the bucket index of a table
    // this size) must look random — ≈ 7 480 of 16 384 distinct values.
    let mut seen = std::collections::BTreeSet::new();
    for c in 0..100u8 {
        for d in 0..100u8 {
            let m = FlowMatch::client_to_service(IpAddr::new(10, 1, 0, c), sa(d, 80));
            seen.insert(ExactKey::of_matcher(&m).hash32() & 0x3fff);
        }
    }
    assert!(seen.len() > 7_000, "{} distinct bucket indexes", seen.len());
}

#[test]
fn slots_are_reused_but_ids_are_not() {
    let mut table = FlowTable::new();
    let first = table.install(
        t(0),
        FlowSpec::new(FlowMatch::default()).priority(1).cookie(1),
    );
    table.delete_matching(&FlowMatch::default());
    let second = table.install(
        t(2),
        FlowSpec::new(FlowMatch::default()).priority(1).cookie(2),
    );
    assert!(second > first, "flow ids must stay monotonic");
    assert!(table.get(first).is_none());
    assert_eq!(table.get(second).unwrap().cookie, 2);
    assert_eq!(table.len(), 1);
}

#[test]
fn iter_ordered_walks_table_order() {
    let mut table = FlowTable::new();
    table.install(
        t(0),
        FlowSpec::new(FlowMatch::default()).priority(1).cookie(1),
    );
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
        FlowSpec::new(FlowMatch::default())
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
        FlowSpec::new(FlowMatch::default())
            .priority(1)
            .action(Action::ToController),
    );
    match sw.receive(t(1), service_packet()) {
        PacketVerdict::PacketIn { .. } => {}
        other => panic!("{other:?}"),
    }
}
