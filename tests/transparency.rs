//! The transparency invariant (paper §II, Fig. 2): to the client, every
//! exchange looks like a cloud access. The switch must rewrite the
//! destination on the way in and restore the cloud address on the way out.

use cluster::{DockerCluster, ServiceTemplate};
use containers::image::synthesize_layers;
use containers::{ImageManifest, Runtime};
use edgectl::controller::INGRESS;
use edgectl::scheduler::NearestWaiting;
use edgectl::{Controller, ControllerConfig, ControllerOutput};
use registry::{Registry, RegistryProfile, RegistrySet};
use simcore::{DurationDist, SimDuration, SimRng, SimTime};
use simnet::openflow::{PacketVerdict, PortId, Switch};
use simnet::{IpAddr, Packet, Protocol, SocketAddr};

fn registries() -> RegistrySet {
    let mut hub = Registry::new(RegistryProfile::docker_hub());
    hub.publish(ImageManifest::new(
        "nginx:1.23.2",
        synthesize_layers(1, 141_000_000, 6),
    ));
    let mut s = RegistrySet::new();
    s.add(hub);
    s
}

#[test]
fn round_trip_is_transparent_to_the_client() {
    let cloud_addr = SocketAddr::new(IpAddr::new(93, 184, 0, 1), 80);
    let client = SocketAddr::new(IpAddr::new(10, 1, 0, 1), 40000);

    let mut switch = Switch::new(8);
    let mut controller = Controller::builder(ControllerConfig::default())
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(PortId(0))
        .build();
    let rng = SimRng::seed_from_u64(1);
    controller.attach_cluster(
        Box::new(DockerCluster::new(
            "edge",
            IpAddr::new(10, 0, 0, 100),
            Runtime::egs(rng.stream("rt")),
            rng.stream("d"),
        )),
        SimDuration::from_micros(300),
        PortId(2),
    );
    controller.catalog.register(
        cloud_addr,
        ServiceTemplate::single(
            "edge-nginx",
            "nginx:1.23.2",
            80,
            DurationDist::constant_ms(100.0),
        ),
    );

    // First packet: miss → PacketIn → deployment → FlowMods + release.
    let syn = Packet::syn(client, cloud_addr, 1);
    let t0 = SimTime::ZERO;
    let PacketVerdict::PacketIn { buffer_id, packet } = switch.receive(t0, syn) else {
        panic!("first packet must miss");
    };
    let mut outputs = Vec::new();
    controller.on_packet_in_at_into(t0, INGRESS, packet, buffer_id, PortId(5), &mut outputs);
    // The dispatcher finishes the deployment over discrete wakeups; drive
    // them like the simulator's event loop would until the machine drains.
    while !controller.in_flight_deployments().is_empty() {
        let Some(at) = controller.next_wakeup() else {
            break;
        };
        controller.on_wakeup_into(at, &mut outputs);
    }
    let mut release_verdict = None;
    for o in outputs {
        match o {
            ControllerOutput::FlowMod { at, spec, .. } => {
                switch.flow_mod(at, spec);
            }
            ControllerOutput::ReleaseViaTable { at, buffer_id, .. } => {
                release_verdict = switch.packet_out_via_table(at, buffer_id);
            }
            ControllerOutput::DropBuffered { .. } => panic!("must not drop"),
            ControllerOutput::FlowDelete { .. } => panic!("no handover in this run"),
        }
    }

    // Outbound: destination rewritten to the edge instance, source intact.
    let Some(PacketVerdict::Forward {
        packet: fwd,
        out_port,
    }) = release_verdict
    else {
        panic!("released packet must forward, got {release_verdict:?}");
    };
    assert_eq!(out_port, PortId(2));
    assert_eq!(fwd.src, client, "client address untouched outbound");
    assert_ne!(fwd.dst, cloud_addr, "destination rewritten to the edge");
    let edge_instance = fwd.dst;

    // Return path: the edge instance answers from its own address; the
    // switch must rewrite it back to the cloud address before the client
    // sees it.
    let response = Packet {
        src: edge_instance,
        dst: client,
        protocol: Protocol::Tcp,
        size: 500,
        tag: 1,
    };
    let t1 = t0 + SimDuration::from_secs(5);
    match switch.receive(t1, response) {
        PacketVerdict::Forward { packet, out_port } => {
            assert_eq!(out_port, PortId(5), "back out the client's port");
            assert_eq!(
                packet.src, cloud_addr,
                "the client sees the cloud address, not {edge_instance}"
            );
            assert_eq!(packet.dst, client);
        }
        other => panic!("response must forward via the reverse flow, got {other:?}"),
    }

    // Subsequent request from the same client: pure data-plane hit, no
    // controller involvement.
    let misses_before = switch.stats.table_misses;
    match switch.receive(
        t1 + SimDuration::from_millis(1),
        Packet::syn(client, cloud_addr, 2),
    ) {
        PacketVerdict::Forward { packet, .. } => assert_eq!(packet.dst, edge_instance),
        other => panic!("second request must hit the flow, got {other:?}"),
    }
    assert_eq!(switch.stats.table_misses, misses_before);
}

#[test]
fn different_clients_get_independent_flows() {
    // Per-client matching means two clients can be redirected independently
    // (the paper's match includes the client address).
    let cloud_addr = SocketAddr::new(IpAddr::new(93, 184, 0, 2), 80);
    let a = SocketAddr::new(IpAddr::new(10, 1, 0, 1), 40000);
    let b = SocketAddr::new(IpAddr::new(10, 1, 0, 2), 40000);

    let mut switch = Switch::new(8);
    // Manually install a redirect for client A only.
    switch.flow_mod(
        SimTime::ZERO,
        simnet::FlowSpec::new(simnet::FlowMatch::client_to_service(a.ip, cloud_addr))
            .priority(100)
            .actions(vec![
                simnet::Action::SetDstIp(IpAddr::new(10, 0, 0, 100)),
                simnet::Action::SetDstPort(8000),
                simnet::Action::Output(PortId(2)),
            ]),
    );
    let t = SimTime::ZERO + SimDuration::from_millis(1);
    assert!(matches!(
        switch.receive(t, Packet::syn(a, cloud_addr, 1)),
        PacketVerdict::Forward { .. }
    ));
    assert!(
        matches!(
            switch.receive(t, Packet::syn(b, cloud_addr, 2)),
            PacketVerdict::PacketIn { .. }
        ),
        "client B's packet must go to the controller"
    );
}
