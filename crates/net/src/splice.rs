//! TCP connection splicing: the per-connection remapping state.
//!
//! Gage's front end establishes a first-leg connection with the client
//! (choosing its own initial sequence number), reads the URL, picks an RPN,
//! and the RPN's local service manager establishes a second-leg connection
//! (with the RPN's own initial sequence number). From then on (paper §3.2):
//!
//! * every **outgoing** packet (RPN → client) has its source address
//!   rewritten to the cluster address and its sequence number shifted from
//!   RPN sequence space into RDN sequence space, and
//! * every **incoming** packet (client → cluster) has its destination
//!   address rewritten to the RPN and its ACK number shifted back into RPN
//!   sequence space.
//!
//! The client never learns it is talking to the RPN, and the RPN's TCP stack
//! never learns the client handshook with someone else.

use std::net::Ipv4Addr;

use gage_obs::{TraceEvent, Tracer};

use crate::addr::{Endpoint, FourTuple};
use crate::packet::Packet;
use crate::seq::SeqNum;

/// Per-connection splice state held by an RPN's local service manager.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceMap {
    client: Endpoint,
    cluster: Endpoint,
    rpn_ip: Ipv4Addr,
    /// `rdn_isn - rpn_isn` on the sequence circle: added to server sequence
    /// numbers on the way out, subtracted from client ACKs on the way in.
    seq_delta: u32,
}

impl SpliceMap {
    /// Builds the splice state once both legs are established.
    ///
    /// `rdn_isn` is the ISN the front end used in its SYN-ACK to the client
    /// (first leg); `rpn_isn` is the ISN the RPN's stack chose on the second
    /// leg.
    pub fn new(
        client: Endpoint,
        cluster: Endpoint,
        rpn_ip: Ipv4Addr,
        rdn_isn: SeqNum,
        rpn_isn: SeqNum,
    ) -> Self {
        SpliceMap {
            client,
            cluster,
            rpn_ip,
            seq_delta: rdn_isn - rpn_isn,
        }
    }

    /// As [`SpliceMap::new`], but also emits a `SpliceSetup` trace record
    /// marking the start of the spliced connection's life cycle. `req` is
    /// the logical request id the splice serves, threading the connection
    /// into that request's causal timeline.
    #[allow(clippy::too_many_arguments)]
    pub fn new_traced(
        client: Endpoint,
        cluster: Endpoint,
        rpn_ip: Ipv4Addr,
        rdn_isn: SeqNum,
        rpn_isn: SeqNum,
        req: u64,
        tracer: &mut Tracer,
    ) -> Self {
        let map = SpliceMap::new(client, cluster, rpn_ip, rdn_isn, rpn_isn);
        tracer.emit(TraceEvent::SpliceSetup {
            req,
            client_ip: u32::from(map.client.ip),
            client_port: map.client.port.get(),
            rpn_ip: u32::from(map.rpn_ip),
            seq_delta: map.seq_delta,
        });
        map
    }

    /// Emits the `SpliceTeardown` trace record closing the life cycle
    /// opened by [`SpliceMap::new_traced`]. Called when the connection's
    /// remap state is retired (FIN/RST or request completion). `req` must
    /// be the id passed to [`SpliceMap::new_traced`].
    pub fn trace_teardown(&self, req: u64, tracer: &mut Tracer) {
        tracer.emit(TraceEvent::SpliceTeardown {
            req,
            client_ip: u32::from(self.client.ip),
            client_port: self.client.port.get(),
        });
    }

    /// The client endpoint of the spliced connection.
    pub fn client(&self) -> Endpoint {
        self.client
    }

    /// The cluster-wide endpoint the client believes it talks to.
    pub fn cluster(&self) -> Endpoint {
        self.cluster
    }

    /// The RPN actually servicing the connection.
    pub fn rpn_ip(&self) -> Ipv4Addr {
        self.rpn_ip
    }

    /// The four-tuple of incoming (client → cluster) packets, i.e. the
    /// connection-table key under which this splice is filed.
    pub fn incoming_tuple(&self) -> FourTuple {
        FourTuple::new(self.client, self.cluster)
    }

    /// Maps a server-side sequence number (RPN space) to what the client
    /// must see (RDN space).
    pub fn server_to_client_seq(&self, seq: SeqNum) -> SeqNum {
        seq + self.seq_delta
    }

    /// Maps a client ACK number (RDN space) back to RPN space.
    pub fn client_to_server_ack(&self, ack: SeqNum) -> SeqNum {
        ack - self.seq_delta
    }

    /// Rewrites an **outgoing** packet in place (RPN → client): source
    /// address becomes the cluster address and the sequence number moves
    /// into RDN space. The client's ACK-of-our-data field (`tcp.ack`)
    /// acknowledges *client* bytes, which live in a shared space, so it is
    /// untouched.
    ///
    /// Returns `false` (leaving the packet unmodified) if the packet is not
    /// from this splice's RPN to its client.
    pub fn remap_outgoing(&self, pkt: &mut Packet) -> bool {
        if pkt.ip.src != self.rpn_ip
            || pkt.tcp.src_port != self.cluster.port
            || pkt.dst() != self.client
        {
            return false;
        }
        pkt.rewrite_src_ip(self.cluster.ip);
        pkt.tcp.seq = self.server_to_client_seq(pkt.tcp.seq);
        true
    }

    /// Rewrites an **incoming** packet in place (client → cluster):
    /// destination address becomes the RPN and the ACK number moves into RPN
    /// space. The client's own sequence number is shared by both legs and is
    /// untouched.
    ///
    /// Returns `false` (leaving the packet unmodified) if the packet is not
    /// from this splice's client to the cluster endpoint.
    pub fn remap_incoming(&self, pkt: &mut Packet) -> bool {
        if pkt.src() != self.client || pkt.dst() != self.cluster {
            return false;
        }
        pkt.rewrite_dst_ip(self.rpn_ip);
        if pkt.is_ack() {
            pkt.tcp.ack = self.client_to_server_ack(pkt.tcp.ack);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Port;
    use bytes::Bytes;

    fn fixture() -> (SpliceMap, Endpoint, Endpoint, Endpoint) {
        let client = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), Port::new(40_000));
        let cluster = Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP);
        let rpn_ip = Ipv4Addr::new(10, 0, 2, 4);
        let rpn = Endpoint::new(rpn_ip, Port::HTTP);
        let map = SpliceMap::new(client, cluster, rpn_ip, SeqNum::new(5_000), SeqNum::new(80));
        (map, client, cluster, rpn)
    }

    #[test]
    fn seq_maps_invert() {
        let (map, ..) = fixture();
        for raw in [0u32, 80, 5_000, u32::MAX - 1] {
            let s = SeqNum::new(raw);
            assert_eq!(map.client_to_server_ack(map.server_to_client_seq(s)), s);
            assert_eq!(map.server_to_client_seq(map.client_to_server_ack(s)), s);
        }
    }

    #[test]
    fn outgoing_rewrite() {
        let (map, client, cluster, rpn) = fixture();
        // RPN sends its first data byte: seq = rpn_isn + 1 = 81.
        let mut pkt = Packet::data(
            rpn,
            client,
            SeqNum::new(81),
            SeqNum::new(123),
            Bytes::from_static(b"HTTP/1.0 200 OK\r\n"),
        );
        assert!(map.remap_outgoing(&mut pkt));
        assert_eq!(pkt.src(), cluster, "client sees the cluster address");
        // 81 - 80 = 1 byte into the stream; client expects 5_000 + 1.
        assert_eq!(pkt.tcp.seq, SeqNum::new(5_001));
        assert_eq!(
            pkt.tcp.ack,
            SeqNum::new(123),
            "ack of client bytes untouched"
        );
    }

    #[test]
    fn incoming_rewrite() {
        let (map, client, cluster, rpn) = fixture();
        // Client ACKs the first 17 server bytes: ack = 5_000 + 1 + 17.
        let mut pkt = Packet::ack(client, cluster, SeqNum::new(123), SeqNum::new(5_018));
        assert!(map.remap_incoming(&mut pkt));
        assert_eq!(pkt.dst().ip, rpn.ip, "delivered to the RPN");
        assert_eq!(pkt.tcp.ack, SeqNum::new(98), "80 + 1 + 17 in RPN space");
        assert_eq!(pkt.tcp.seq, SeqNum::new(123), "client seq untouched");
    }

    #[test]
    fn full_round_trip_is_identity_on_stream_offsets() {
        let (map, client, cluster, rpn) = fixture();
        // Server byte at offset k maps to client-visible seq then the
        // client's ack maps back to offset k+1 in server space.
        for k in [0u32, 1, 100, 6_000] {
            let server_seq = SeqNum::new(80) + 1 + k;
            let mut out = Packet::data(
                rpn,
                client,
                server_seq,
                SeqNum::new(0),
                Bytes::from_static(b"x"),
            );
            assert!(map.remap_outgoing(&mut out));
            let client_ack = out.tcp.seq + 1; // client acks that byte
            let mut inc = Packet::ack(client, cluster, SeqNum::new(0), client_ack);
            assert!(map.remap_incoming(&mut inc));
            assert_eq!(inc.tcp.ack, server_seq + 1);
        }
    }

    #[test]
    fn foreign_packets_left_alone() {
        let (map, client, cluster, _rpn) = fixture();
        let stranger = Endpoint::new(Ipv4Addr::new(9, 9, 9, 9), Port::new(1));
        let mut pkt = Packet::ack(stranger, cluster, SeqNum::new(1), SeqNum::new(1));
        let before = pkt.clone();
        assert!(!map.remap_incoming(&mut pkt));
        assert_eq!(pkt, before);

        let mut pkt2 = Packet::ack(stranger, client, SeqNum::new(1), SeqNum::new(1));
        let before2 = pkt2.clone();
        assert!(!map.remap_outgoing(&mut pkt2));
        assert_eq!(pkt2, before2);
    }

    #[test]
    fn traced_lifecycle_emits_setup_and_teardown() {
        let mut tracer = gage_obs::Tracer::enabled(8);
        let client = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), Port::new(40_000));
        let cluster = Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP);
        let rpn_ip = Ipv4Addr::new(10, 0, 2, 4);
        let map = SpliceMap::new_traced(
            client,
            cluster,
            rpn_ip,
            SeqNum::new(5_000),
            SeqNum::new(80),
            42,
            &mut tracer,
        );
        assert_eq!(
            map,
            SpliceMap::new(client, cluster, rpn_ip, SeqNum::new(5_000), SeqNum::new(80)),
            "tracing never changes splice behaviour"
        );
        map.trace_teardown(42, &mut tracer);
        let events: Vec<TraceEvent> = tracer.ring().unwrap().iter().map(|x| x.event).collect();
        assert_eq!(
            events,
            vec![
                TraceEvent::SpliceSetup {
                    req: 42,
                    client_ip: u32::from(client.ip),
                    client_port: 40_000,
                    rpn_ip: u32::from(rpn_ip),
                    seq_delta: 4_920,
                },
                TraceEvent::SpliceTeardown {
                    req: 42,
                    client_ip: u32::from(client.ip),
                    client_port: 40_000,
                },
            ]
        );
    }

    #[test]
    fn wrapping_isns_still_invert() {
        let client = Endpoint::new(Ipv4Addr::new(1, 1, 1, 1), Port::new(2));
        let cluster = Endpoint::new(Ipv4Addr::new(2, 2, 2, 2), Port::HTTP);
        let map = SpliceMap::new(
            client,
            cluster,
            Ipv4Addr::new(3, 3, 3, 3),
            SeqNum::new(10),            // RDN ISN just past zero
            SeqNum::new(u32::MAX - 10), // RPN ISN just before wrap
        );
        let s = SeqNum::new(u32::MAX - 5);
        let mapped = map.server_to_client_seq(s);
        assert_eq!(mapped, SeqNum::new(15));
        assert_eq!(map.client_to_server_ack(mapped), s);
    }
}
