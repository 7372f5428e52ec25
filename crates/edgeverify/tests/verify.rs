//! Mutation tests: seed each violation class deliberately and assert the
//! verifier reports it with the offending `FlowId`s / document indices —
//! and that the equivalent clean configuration stays silent.

use std::collections::HashSet;

use simcore::{SimDuration, SimTime};
use simnet::openflow::{Action, FlowId, FlowMatch, FlowSpec, FlowTable, PortId};
use simnet::{IpAddr, SocketAddr};

use edgectl::scheduler::ClusterId;
use edgectl::{FlowKey, FlowMemory};
use edgeverify::{CoherenceView, Fabric, FabricSwitch, Link, PacketClass, Verifier, Violation};

fn client(i: u8) -> IpAddr {
    IpAddr::new(10, 1, 0, i)
}
fn svc(i: u8) -> SocketAddr {
    SocketAddr::new(IpAddr::new(93, 184, 0, i), 80)
}
fn instance(i: u8) -> SocketAddr {
    SocketAddr::new(IpAddr::new(10, 0, i, 100), 30000)
}
fn t0() -> SimTime {
    SimTime::ZERO
}

fn redirect_pair(
    table: &mut FlowTable,
    client_ip: IpAddr,
    service: SocketAddr,
    target: SocketAddr,
    idle: Option<SimDuration>,
) -> FlowId {
    let forward = table.install(
        t0(),
        FlowSpec {
            idle_timeout: idle,
            ..FlowSpec::new(FlowMatch::client_to_service(client_ip, service))
                .priority(100)
                .actions(vec![
                    Action::SetDstIp(target.ip),
                    Action::SetDstPort(target.port),
                    Action::Output(PortId(1)),
                ])
        },
    );
    table.install(
        t0(),
        FlowSpec {
            idle_timeout: idle,
            ..FlowSpec::new(FlowMatch {
                protocol: Some(simnet::Protocol::Tcp),
                src_ip: Some(target.ip),
                src_port: Some(target.port),
                dst_ip: Some(client_ip),
                ..FlowMatch::default()
            })
            .priority(100)
            .actions(vec![
                Action::SetSrcIp(service.ip),
                Action::SetSrcPort(service.port),
                Action::Output(PortId(2)),
            ])
        },
    );
    forward
}

// ---------------------------------------------------------------- shadowing

#[test]
fn shadowing_detected_with_provenance() {
    let mut table = FlowTable::new();
    let broad = table.install(
        t0(),
        FlowSpec::new(FlowMatch::to_service(svc(1)))
            .priority(200)
            .action(Action::ToController),
    );
    let narrow = table.install(
        t0(),
        FlowSpec::new(FlowMatch::client_to_service(client(1), svc(1)))
            .priority(100)
            .action(Action::Output(PortId(1))),
    );
    let violations = Verifier::new().check(&table);
    assert_eq!(violations.len(), 1, "{violations:?}");
    match &violations[0] {
        Violation::Shadowed { switch, rule, by } => {
            assert_eq!(*switch, 0);
            assert_eq!(rule.id, narrow);
            assert_eq!(by.id, broad);
        }
        other => panic!("expected Shadowed, got {other}"),
    }
}

#[test]
fn controller_rule_layout_is_clean() {
    // The shapes the real controller installs: per-client redirect pairs at
    // prio 100 plus per-client host routes at prio 99 — no findings.
    let mut table = FlowTable::new();
    redirect_pair(&mut table, client(1), svc(1), instance(1), None);
    redirect_pair(&mut table, client(2), svc(1), instance(1), None);
    redirect_pair(&mut table, client(1), svc(2), instance(2), None);
    table.install(
        t0(),
        FlowSpec::new(FlowMatch {
            dst_ip: Some(client(1)),
            ..FlowMatch::default()
        })
        .priority(99)
        .action(Action::Output(PortId(2))),
    );
    let violations = Verifier::new().check(&table);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn check_install_flags_newly_dead_and_newly_killing_rules() {
    let mut table = FlowTable::new();
    let narrow = table.install(
        t0(),
        FlowSpec::new(FlowMatch::client_to_service(client(1), svc(1)))
            .priority(100)
            .action(Action::Output(PortId(1))),
    );
    // A broad higher-priority rule lands later and kills the existing one.
    let broad = table.install(
        t0(),
        FlowSpec::new(FlowMatch::to_service(svc(1)))
            .priority(200)
            .action(Action::ToController),
    );
    let violations = Verifier::new().check_install(0, &table, broad);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::Shadowed { rule, by, .. } if rule.id == narrow && by.id == broad
        )),
        "{violations:?}"
    );
}

// ------------------------------------------------------------------ overlap

#[test]
fn same_priority_overlap_with_different_destinations_detected() {
    let mut table = FlowTable::new();
    // dst-pinned rule vs src-pinned rule at the same priority: a packet from
    // client 1 to service 1 matches both, and they rewrite differently.
    let first = table.install(
        t0(),
        FlowSpec::new(FlowMatch::to_service(svc(1)))
            .priority(100)
            .actions(vec![
                Action::SetDstIp(instance(1).ip),
                Action::SetDstPort(instance(1).port),
                Action::Output(PortId(1)),
            ]),
    );
    let second = table.install(
        t0(),
        FlowSpec::new(FlowMatch {
            src_ip: Some(client(1)),
            ..FlowMatch::default()
        })
        .priority(100)
        .actions(vec![
            Action::SetDstIp(instance(2).ip),
            Action::SetDstPort(instance(2).port),
            Action::Output(PortId(1)),
        ]),
    );
    let violations = Verifier::new().check(&table);
    assert_eq!(violations.len(), 1, "{violations:?}");
    match &violations[0] {
        Violation::OverlapConflict {
            first: a,
            second: b,
            ..
        } => {
            assert_eq!(a.id, first);
            assert_eq!(b.id, second);
        }
        other => panic!("expected OverlapConflict, got {other}"),
    }
}

#[test]
fn same_priority_overlap_with_same_destination_is_fine() {
    let mut table = FlowTable::new();
    for m in [
        FlowMatch::to_service(svc(1)),
        FlowMatch {
            src_ip: Some(client(1)),
            ..FlowMatch::default()
        },
    ] {
        table.install(
            t0(),
            FlowSpec::new(m).priority(100).action(Action::ToController),
        );
    }
    assert!(Verifier::new().check(&table).is_empty());
}

// -------------------------------------------------------------- reachability

#[test]
fn unsatisfiable_rule_detected() {
    let mut table = FlowTable::new();
    let dead = table.install(
        t0(),
        FlowSpec::new(FlowMatch {
            dst_ip: Some(svc(1).ip),
            dst_net: Some(simnet::IpNet::new(IpAddr::new(192, 168, 0, 0), 16)),
            ..FlowMatch::default()
        })
        .priority(100)
        .action(Action::Drop),
    );
    let violations = Verifier::new().check(&table);
    assert_eq!(violations.len(), 1);
    assert!(
        matches!(&violations[0], Violation::Unsatisfiable { rule, .. } if rule.id == dead),
        "{violations:?}"
    );
}

#[test]
fn blackholed_service_class_detected() {
    let mut table = FlowTable::new();
    let hole = table.install(
        t0(),
        FlowSpec::new(FlowMatch::to_service(svc(1)))
            .priority(200)
            .action(Action::Drop),
    );
    let fabric = Fabric {
        switches: vec![FabricSwitch {
            table: &table,
            links: vec![Link::Cloud, Link::Site, Link::Client],
        }],
        service_addrs: vec![svc(1)],
        classes: vec![PacketClass::client_to_service(
            SocketAddr::new(client(1), 40000),
            svc(1),
            0,
        )],
    };
    let violations = Verifier::new().check_fabric(&fabric);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::Blackholed { switch: 0, rule, .. } if *rule == hole
        )),
        "{violations:?}"
    );
}

#[test]
fn forwarding_loop_across_switches_detected() {
    // Two switches bouncing the class between each other through port 3.
    let mut t1 = FlowTable::new();
    let r1 = t1.install(
        t0(),
        FlowSpec::new(FlowMatch::to_service(svc(1)))
            .priority(100)
            .action(Action::Output(PortId(3))),
    );
    let mut t2 = FlowTable::new();
    let r2 = t2.install(
        t0(),
        FlowSpec::new(FlowMatch::to_service(svc(1)))
            .priority(100)
            .action(Action::Output(PortId(3))),
    );
    let fabric = Fabric {
        switches: vec![
            FabricSwitch {
                table: &t1,
                links: vec![Link::Cloud, Link::Site, Link::Client, Link::ToSwitch(1)],
            },
            FabricSwitch {
                table: &t2,
                links: vec![Link::Cloud, Link::Site, Link::Client, Link::ToSwitch(0)],
            },
        ],
        service_addrs: vec![svc(1)],
        classes: vec![PacketClass::client_to_service(
            SocketAddr::new(client(1), 40000),
            svc(1),
            0,
        )],
    };
    let violations = Verifier::new().check_fabric(&fabric);
    let loop_v = violations
        .iter()
        .find_map(|v| match v {
            Violation::RewriteLoop { path, .. } => Some(path),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected RewriteLoop in {violations:?}"));
    assert_eq!(loop_v, &vec![(0, r1), (1, r2)]);
}

#[test]
fn rewrite_cycle_detected() {
    // One switch whose rewrite rules chase each other: svc1 -> svc2 -> svc1,
    // resubmitted to itself through an inter-switch port looping back.
    let mut t1 = FlowTable::new();
    t1.install(
        t0(),
        FlowSpec::new(FlowMatch::to_service(svc(1)))
            .priority(100)
            .actions(vec![Action::SetDstIp(svc(2).ip), Action::Output(PortId(0))]),
    );
    t1.install(
        t0(),
        FlowSpec::new(FlowMatch::to_service(svc(2)))
            .priority(100)
            .actions(vec![Action::SetDstIp(svc(1).ip), Action::Output(PortId(0))]),
    );
    let fabric = Fabric {
        switches: vec![FabricSwitch {
            table: &t1,
            links: vec![Link::ToSwitch(0)],
        }],
        service_addrs: vec![svc(1), svc(2)],
        classes: vec![PacketClass::client_to_service(
            SocketAddr::new(client(1), 40000),
            svc(1),
            0,
        )],
    };
    let violations = Verifier::new().check_fabric(&fabric);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::RewriteLoop { .. })),
        "{violations:?}"
    );
}

#[test]
fn misrouted_service_class_detected() {
    // Service traffic forwarded out a client access port.
    let mut table = FlowTable::new();
    let bad = table.install(
        t0(),
        FlowSpec::new(FlowMatch::to_service(svc(1)))
            .priority(100)
            .action(Action::Output(PortId(2))),
    );
    let fabric = Fabric {
        switches: vec![FabricSwitch {
            table: &table,
            links: vec![Link::Cloud, Link::Site, Link::Client],
        }],
        service_addrs: vec![svc(1)],
        classes: vec![PacketClass::client_to_service(
            SocketAddr::new(client(1), 40000),
            svc(1),
            0,
        )],
    };
    let violations = Verifier::new().check_fabric(&fabric);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::Misrouted { rule, port: 2, .. } if *rule == bad
        )),
        "{violations:?}"
    );
}

#[test]
fn clean_redirect_reaches_site() {
    let mut table = FlowTable::new();
    redirect_pair(&mut table, client(1), svc(1), instance(1), None);
    let fabric = Fabric {
        switches: vec![FabricSwitch {
            table: &table,
            links: vec![Link::Cloud, Link::Site, Link::Client],
        }],
        service_addrs: vec![svc(1)],
        classes: vec![PacketClass::client_to_service(
            SocketAddr::new(client(1), 40000),
            svc(1),
            0,
        )],
    };
    assert!(Verifier::new().check_fabric(&fabric).is_empty());
}

// ---------------------------------------------------------------- coherence

fn memory_with(key: FlowKey, target: SocketAddr, idle: SimDuration) -> FlowMemory {
    let mut m = FlowMemory::new(idle).unwrap();
    m.remember(t0(), key, edgectl::ServiceId(0), target, Some(ClusterId(0)));
    m
}

#[test]
fn coherent_memory_and_switch_pass() {
    let key = FlowKey {
        client_ip: client(1),
        service_addr: svc(1),
    };
    let mut table = FlowTable::new();
    redirect_pair(
        &mut table,
        client(1),
        svc(1),
        instance(1),
        Some(SimDuration::from_secs(10)),
    );
    let memory = memory_with(key, instance(1), SimDuration::from_secs(60));
    let view = CoherenceView {
        now: t0(),
        memory: &memory,
        tables: vec![&table],
        live_targets: HashSet::from([instance(1)]),
        in_flight: HashSet::new(),
    };
    assert!(Verifier::new().check_coherence(&view).is_empty());

    // …and a memorized flow whose switch entry already expired is the §5b
    // design, not a violation.
    let empty = FlowTable::new();
    let view = CoherenceView {
        now: t0(),
        memory: &memory,
        tables: vec![&empty],
        live_targets: HashSet::new(),
        in_flight: HashSet::new(),
    };
    assert!(Verifier::new().check_coherence(&view).is_empty());
}

#[test]
fn target_mismatch_detected() {
    let key = FlowKey {
        client_ip: client(1),
        service_addr: svc(1),
    };
    let mut table = FlowTable::new();
    let rule = redirect_pair(
        &mut table,
        client(1),
        svc(1),
        instance(2), // switch says instance 2…
        Some(SimDuration::from_secs(10)),
    );
    let memory = memory_with(key, instance(1), SimDuration::from_secs(60)); // …memory says 1
    let view = CoherenceView {
        now: t0(),
        memory: &memory,
        tables: vec![&table],
        live_targets: HashSet::from([instance(1), instance(2)]),
        in_flight: HashSet::new(),
    };
    let violations = Verifier::new().check_coherence(&view);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::TargetMismatch { rule: r, memory_target, switch_target, .. }
                if *r == rule && *memory_target == instance(1) && *switch_target == instance(2)
        )),
        "{violations:?}"
    );
}

#[test]
fn incompatible_timeouts_detected() {
    let key = FlowKey {
        client_ip: client(1),
        service_addr: svc(1),
    };
    let mut table = FlowTable::new();
    let rule = redirect_pair(
        &mut table,
        client(1),
        svc(1),
        instance(1),
        Some(SimDuration::from_secs(120)), // switch entry outlives memory
    );
    let memory = memory_with(key, instance(1), SimDuration::from_secs(60));
    let view = CoherenceView {
        now: t0(),
        memory: &memory,
        tables: vec![&table],
        live_targets: HashSet::from([instance(1)]),
        in_flight: HashSet::new(),
    };
    let violations = Verifier::new().check_coherence(&view);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::IncompatibleTimeouts { rule: r, .. } if r.id == rule
        )),
        "{violations:?}"
    );
}

#[test]
fn stale_redirect_detected() {
    // Switch still rewrites to an instance that is gone, and the controller
    // no longer remembers the flow.
    let mut table = FlowTable::new();
    let rule = redirect_pair(
        &mut table,
        client(1),
        svc(1),
        instance(1),
        Some(SimDuration::from_secs(10)),
    );
    let memory = FlowMemory::new(SimDuration::from_secs(60)).unwrap();
    let view = CoherenceView {
        now: t0(),
        memory: &memory,
        tables: vec![&table],
        live_targets: HashSet::new(), // instance 1 is dead
        in_flight: HashSet::new(),
    };
    let violations = Verifier::new().check_coherence(&view);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::StaleRedirect { rule: r, target, .. }
                if r.id == rule && *target == instance(1)
        )),
        "{violations:?}"
    );

    // The same orphaned rule pointing at a *live* instance is benign.
    let view = CoherenceView {
        now: t0(),
        memory: &memory,
        tables: vec![&table],
        live_targets: HashSet::from([instance(1)]),
        in_flight: HashSet::new(),
    };
    assert!(Verifier::new().check_coherence(&view).is_empty());
}

#[test]
fn orphaned_pending_detected() {
    // A pending placeholder is only legitimate while the dispatcher has a
    // machine in flight for its service — the check is service-level, since
    // a BEST retarget may park the placeholder on a different cluster than
    // the machine's.
    let key = FlowKey {
        client_ip: client(1),
        service_addr: svc(1),
    };
    let mut memory = FlowMemory::new(SimDuration::from_secs(60)).unwrap();
    memory.remember_pending(t0(), key, edgectl::ServiceId(0), Some(ClusterId(0)));
    let table = FlowTable::new();

    // Machine in flight for the service (even on another cluster): clean.
    let view = CoherenceView {
        now: t0(),
        memory: &memory,
        tables: vec![&table],
        live_targets: HashSet::new(),
        in_flight: HashSet::from([(edgectl::ServiceId(0), ClusterId(1))]),
    };
    assert!(Verifier::new().check_coherence(&view).is_empty());

    // No machine anywhere: the held request can never be released.
    let view = CoherenceView {
        now: t0(),
        memory: &memory,
        tables: vec![&table],
        live_targets: HashSet::new(),
        in_flight: HashSet::new(),
    };
    let violations = Verifier::new().check_coherence(&view);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::OrphanedPending { client: c, service: s }
                if *c == client(1) && *s == svc(1)
        )),
        "{violations:?}"
    );
}

// --------------------------------------------------------------------- lint

#[test]
fn annotated_output_lints_clean() {
    let docs = yamlite::parse_all("image: nginx:1.23.2\n").unwrap();
    let out =
        edgectl::annotate_documents(&docs, &edgectl::AnnotateOptions::new("edge-web", 80)).unwrap();
    let violations = edgeverify::lint_annotated(&[out.deployment, out.service]);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn lint_detects_seeded_defects_with_doc_provenance() {
    let docs = yamlite::parse_all("image: nginx:1.23.2\n").unwrap();
    let out =
        edgectl::annotate_documents(&docs, &edgectl::AnnotateOptions::new("edge-web", 80)).unwrap();

    // replicas != 0
    let mut dep = out.deployment.clone();
    dep.set_path("spec.replicas", yamlite::Yaml::Int(3));
    let violations = edgeverify::lint_annotated(&[dep, out.service.clone()]);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::Lint { doc: 0, path, .. } if path == "spec.replicas"
        )),
        "{violations:?}"
    );

    // missing edge.service label on the pod template
    let mut dep = out.deployment.clone();
    dep.at_mut("spec.template.metadata.labels")
        .unwrap()
        .remove("edge.service");
    let violations = edgeverify::lint_annotated(&[dep, out.service.clone()]);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::Lint { doc: 0, path, .. } if path == "spec.template.metadata.labels"
        )),
        "{violations:?}"
    );

    // matchLabels key the template doesn't carry
    let mut dep = out.deployment.clone();
    dep.at_mut("spec.selector.matchLabels")
        .unwrap()
        .insert("tier", yamlite::Yaml::str("backend"));
    let violations = edgeverify::lint_annotated(&[dep, out.service.clone()]);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::Lint { doc: 0, path, .. } if path == "spec.selector.matchLabels"
        )),
        "{violations:?}"
    );

    // duplicate names across two Deployments
    let violations = edgeverify::lint_annotated(&[out.deployment.clone(), out.deployment.clone()]);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::Lint { doc: 1, path, .. } if path == "metadata.name"
        )),
        "{violations:?}"
    );

    // Service targetPort inconsistent with the container's declared port
    let mut dep = out.deployment.clone();
    dep.set_path(
        "spec.template.spec.containers.0.ports",
        yamlite::Yaml::Seq(vec![{
            let mut p = yamlite::Yaml::map();
            p.insert("containerPort", yamlite::Yaml::Int(8080));
            p
        }]),
    );
    let violations = edgeverify::lint_annotated(&[dep, out.service.clone()]);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::Lint { doc: 1, path, .. } if path == "spec.ports.0.targetPort"
        )),
        "{violations:?}"
    );

    // missing edge.service selector on the Service
    let mut svc_doc = out.service.clone();
    svc_doc
        .at_mut("spec.selector")
        .unwrap()
        .remove("edge.service");
    let violations = edgeverify::lint_annotated(&[out.deployment.clone(), svc_doc]);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::Lint { doc: 1, path, .. } if path == "spec.selector"
        )),
        "{violations:?}"
    );
}
