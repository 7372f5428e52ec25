//! What the controller's test modules share: the one image registry, the
//! one registered service, a client's request to it, and the PacketIn entry
//! answered into a buffer of its own.

use containers::image::synthesize_layers;
use containers::ImageManifest;
use registry::{Registry, RegistryProfile, RegistrySet};
use simcore::SimTime;
use simnet::openflow::{BufferId, PortId};
use simnet::{IpAddr, Packet, SocketAddr};

use super::{Controller, ControllerOutput, INGRESS};

/// Docker Hub holding `nginx:1.23.2`.
pub(super) fn registries() -> RegistrySet {
    let mut hub = Registry::new(RegistryProfile::docker_hub());
    hub.publish(ImageManifest::new(
        "nginx:1.23.2",
        synthesize_layers(1, 141_000_000, 6),
    ));
    let mut s = RegistrySet::new();
    s.add(hub);
    s
}

/// The cloud address the tests register their service under.
pub(super) fn service_addr() -> SocketAddr {
    SocketAddr::new(IpAddr::new(93, 184, 0, 1), 80)
}

/// Client `n`'s address.
pub(super) fn client_ip(n: u8) -> IpAddr {
    IpAddr::new(10, 1, 0, n)
}

/// Client `client`'s SYN to [`service_addr`].
pub(super) fn packet(client: u8, tag: u64) -> Packet {
    Packet::syn(
        SocketAddr::new(client_ip(client), 40_000),
        service_addr(),
        tag,
    )
}

/// A PacketIn at the primary switch; returns what the controller answered.
pub(super) fn packet_in(
    c: &mut Controller,
    now: SimTime,
    packet: Packet,
    buffer_id: BufferId,
    in_port: PortId,
) -> Vec<ControllerOutput> {
    let mut out = Vec::new();
    c.on_packet_in_at_into(now, INGRESS, packet, buffer_id, in_port, &mut out);
    out
}

/// When `outputs` release the buffered packet.
pub(super) fn release_time(outputs: &[ControllerOutput]) -> SimTime {
    outputs
        .iter()
        .find_map(|o| match o {
            ControllerOutput::ReleaseViaTable { at, .. } => Some(*at),
            _ => None,
        })
        .expect("outputs must release the buffered packet")
}
