//! A userspace TCP endpoint state machine (sans-IO).
//!
//! Implements the subset of RFC 793 needed to drive realistic web
//! request/response exchanges through the simulated cluster: active and
//! passive open, in-order data transfer with cumulative ACKs, go-back-N
//! retransmission on timeout, and the full close handshake.
//!
//! Deliberate simplifications (all irrelevant to the paper's phenomena and
//! documented here so nobody mistakes this for a full stack): out-of-order
//! segments are dropped (retransmission recovers), there is no congestion
//! or flow control beyond segmenting at the MSS, no delayed ACKs, and no
//! simultaneous open.
//!
//! The type is *sans-IO*: it never sends anything itself. Every entry point
//! appends [`Output`] actions (packets to transmit, data to deliver,
//! lifecycle notifications) that the owner — a simulated host or a test —
//! executes.

use std::collections::VecDeque;

use bytes::Bytes;

use crate::addr::Endpoint;
use crate::packet::Packet;
use crate::seq::SeqNum;

/// Default maximum segment size used when segmenting application data.
pub const DEFAULT_MSS: usize = 1460;

/// TCP connection states (RFC 793 §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open, waiting for a SYN.
    Listen,
    /// Active open sent, waiting for SYN-ACK.
    SynSent,
    /// SYN received and SYN-ACK sent, waiting for the final ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, waiting for its ACK.
    FinWait1,
    /// Our FIN acked; waiting for the peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Peer closed, then we sent our FIN; waiting for its ACK.
    LastAck,
    /// Both FINs crossed; waiting for the ACK of ours.
    Closing,
    /// Connection done; lingering to absorb stray segments.
    TimeWait,
}

/// Actions produced by the state machine for its owner to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Transmit this packet.
    Send(Packet),
    /// In-order application data arrived.
    Deliver(Bytes),
    /// The three-way handshake completed.
    Established,
    /// The peer has finished sending (FIN received and acked).
    PeerClosed,
    /// The connection reached `Closed` or `TimeWait`.
    Done,
    /// A RST arrived; the connection is dead.
    Reset,
}

/// A single TCP endpoint.
///
/// ```rust
/// use gage_net::endpoint::{TcpEndpoint, Output};
/// use gage_net::addr::{Endpoint, Port};
/// use gage_net::SeqNum;
/// use std::net::Ipv4Addr;
/// use bytes::Bytes;
///
/// let c_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), Port::new(4000));
/// let s_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), Port::new(80));
/// let mut server = TcpEndpoint::listen(s_ep, SeqNum::new(9000));
/// let (mut client, syn) = TcpEndpoint::connect(c_ep, s_ep, SeqNum::new(100));
///
/// let mut out = Vec::new();
/// server.on_segment(&syn, &mut out);                 // SYN -> SYN-ACK
/// let Output::Send(synack) = out.remove(0) else { panic!() };
/// client.on_segment(&synack, &mut out);              // SYN-ACK -> ACK
/// let Output::Established = out.remove(0) else { panic!() };
/// let Output::Send(ack) = out.remove(0) else { panic!() };
/// server.on_segment(&ack, &mut out);
/// assert_eq!(out.remove(0), Output::Established);
///
/// client.send(Bytes::from_static(b"ping"), &mut out);
/// let Output::Send(data) = out.remove(0) else { panic!() };
/// server.on_segment(&data, &mut out);
/// assert_eq!(out.remove(0), Output::Deliver(Bytes::from_static(b"ping")));
/// ```
#[derive(Debug, Clone)]
pub struct TcpEndpoint {
    state: TcpState,
    local: Endpoint,
    remote: Option<Endpoint>,
    mss: usize,
    /// Our initial sequence number.
    iss: SeqNum,
    /// Oldest unacknowledged byte we sent.
    snd_una: SeqNum,
    /// Next sequence number we will send.
    snd_nxt: SeqNum,
    /// Next sequence number we expect from the peer.
    rcv_nxt: SeqNum,
    /// Segments sent but not yet fully acknowledged, for retransmission.
    retransmit: VecDeque<Packet>,
    /// True once we have sent our FIN.
    fin_sent: bool,
}

impl TcpEndpoint {
    /// Creates a passive (listening) endpoint that will use `isn` as its
    /// initial sequence number when a connection arrives.
    pub fn listen(local: Endpoint, isn: SeqNum) -> Self {
        TcpEndpoint {
            state: TcpState::Listen,
            local,
            remote: None,
            mss: DEFAULT_MSS,
            iss: isn,
            snd_una: isn,
            snd_nxt: isn,
            rcv_nxt: SeqNum::new(0),
            retransmit: VecDeque::new(),
            fin_sent: false,
        }
    }

    /// Creates an active endpoint and returns the SYN to transmit.
    pub fn connect(local: Endpoint, remote: Endpoint, isn: SeqNum) -> (Self, Packet) {
        let syn = Packet::syn(local, remote, isn);
        let mut ep = TcpEndpoint {
            state: TcpState::SynSent,
            local,
            remote: Some(remote),
            mss: DEFAULT_MSS,
            iss: isn,
            snd_una: isn,
            snd_nxt: isn + 1,
            rcv_nxt: SeqNum::new(0),
            retransmit: VecDeque::new(),
            fin_sent: false,
        };
        ep.retransmit.push_back(syn.clone());
        (ep, syn)
    }

    /// Overrides the MSS (for tests exercising segmentation).
    pub fn set_mss(&mut self, mss: usize) {
        assert!(mss > 0, "MSS must be positive");
        self.mss = mss;
    }

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// The local endpoint.
    pub fn local(&self) -> Endpoint {
        self.local
    }

    /// The peer, once known.
    pub fn remote(&self) -> Option<Endpoint> {
        self.remote
    }

    /// Our initial sequence number (needed to build a [`crate::SpliceMap`]).
    pub fn isn(&self) -> SeqNum {
        self.iss
    }

    /// Bytes sent but not yet acknowledged.
    pub fn unacked_bytes(&self) -> u32 {
        self.snd_nxt - self.snd_una
    }

    /// True if a retransmission timer should be armed.
    pub fn needs_retransmit_timer(&self) -> bool {
        !self.retransmit.is_empty()
    }

    #[expect(
        clippy::expect_used,
        reason = "only called once a SYN has named the peer: connect sets it, and a listener leaves Listen only through on_listen"
    )]
    fn remote_ep(&self) -> Endpoint {
        self.remote.expect("remote endpoint not yet known")
    }

    fn emit(&mut self, pkt: Packet, track: bool, out: &mut Vec<Output>) {
        if track && pkt.seq_len() > 0 {
            self.retransmit.push_back(pkt.clone());
        }
        out.push(Output::Send(pkt));
    }

    fn send_ack(&mut self, out: &mut Vec<Output>) {
        let pkt = Packet::ack(self.local, self.remote_ep(), self.snd_nxt, self.rcv_nxt);
        self.emit(pkt, false, out);
    }

    fn process_ack(&mut self, ack: SeqNum) {
        if ack.after(self.snd_una) && ack.before_eq(self.snd_nxt) {
            self.snd_una = ack;
            // Drop fully-acknowledged segments from the retransmit queue.
            while let Some(front) = self.retransmit.front() {
                let end = front.tcp.seq + front.seq_len();
                if end.before_eq(self.snd_una) {
                    self.retransmit.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// Queues application data for transmission, emitting MSS-sized data
    /// segments immediately.
    ///
    /// # Panics
    ///
    /// Panics if the connection cannot send (not `Established`/`CloseWait`).
    pub fn send(&mut self, data: Bytes, out: &mut Vec<Output>) {
        assert!(
            matches!(self.state, TcpState::Established | TcpState::CloseWait),
            "send in state {:?}",
            self.state
        );
        let mut offset = 0;
        while offset < data.len() {
            let end = (offset + self.mss).min(data.len());
            let chunk = data.slice(offset..end);
            let pkt = Packet::data(
                self.local,
                self.remote_ep(),
                self.snd_nxt,
                self.rcv_nxt,
                chunk,
            );
            self.snd_nxt += (end - offset) as u32;
            self.emit(pkt, true, out);
            offset = end;
        }
    }

    /// Initiates a close (sends FIN).
    ///
    /// No-op if a FIN was already sent or the connection never opened.
    pub fn close(&mut self, out: &mut Vec<Output>) {
        match self.state {
            TcpState::Established => {
                self.state = TcpState::FinWait1;
            }
            TcpState::CloseWait => {
                self.state = TcpState::LastAck;
            }
            _ => return,
        }
        let fin = Packet::fin(self.local, self.remote_ep(), self.snd_nxt, self.rcv_nxt);
        self.snd_nxt += 1;
        self.fin_sent = true;
        self.emit(fin, true, out);
    }

    /// Retransmits the oldest unacknowledged segment (invoke on RTO expiry).
    pub fn on_retransmit_timeout(&mut self, out: &mut Vec<Output>) {
        if let Some(pkt) = self.retransmit.front() {
            let mut pkt = pkt.clone();
            // Refresh the ACK field to our current receive state.
            if pkt.is_ack() {
                pkt.tcp.ack = self.rcv_nxt;
            }
            out.push(Output::Send(pkt));
        }
    }

    /// Handles an incoming segment addressed to this endpoint.
    pub fn on_segment(&mut self, pkt: &Packet, out: &mut Vec<Output>) {
        if pkt.is_rst() {
            self.state = TcpState::Closed;
            self.retransmit.clear();
            out.push(Output::Reset);
            return;
        }
        match self.state {
            TcpState::Listen => self.on_listen(pkt, out),
            TcpState::SynSent => self.on_syn_sent(pkt, out),
            TcpState::SynRcvd => self.on_syn_rcvd(pkt, out),
            TcpState::Established
            | TcpState::FinWait1
            | TcpState::FinWait2
            | TcpState::CloseWait
            | TcpState::Closing
            | TcpState::LastAck => self.on_synchronized(pkt, out),
            TcpState::Closed | TcpState::TimeWait => {}
        }
    }

    fn on_listen(&mut self, pkt: &Packet, out: &mut Vec<Output>) {
        if !pkt.is_syn() || pkt.is_ack() {
            return;
        }
        self.remote = Some(pkt.src());
        self.rcv_nxt = pkt.tcp.seq + 1;
        self.state = TcpState::SynRcvd;
        let synack = Packet::syn_ack(self.local, pkt.src(), self.iss, self.rcv_nxt);
        self.snd_nxt = self.iss + 1;
        self.emit(synack, true, out);
    }

    fn on_syn_sent(&mut self, pkt: &Packet, out: &mut Vec<Output>) {
        if pkt.is_syn() && pkt.is_ack() && pkt.tcp.ack == self.snd_nxt {
            self.rcv_nxt = pkt.tcp.seq + 1;
            self.process_ack(pkt.tcp.ack);
            self.state = TcpState::Established;
            out.push(Output::Established);
            self.send_ack(out);
        }
    }

    fn on_syn_rcvd(&mut self, pkt: &Packet, out: &mut Vec<Output>) {
        if pkt.is_ack() && !pkt.is_syn() && pkt.tcp.ack == self.snd_nxt {
            self.process_ack(pkt.tcp.ack);
            self.state = TcpState::Established;
            out.push(Output::Established);
            // The handshake ACK may carry data (not generated by this
            // implementation, but accepted for robustness).
            if !pkt.payload.is_empty() {
                self.on_synchronized(pkt, out);
            }
        }
    }

    fn on_synchronized(&mut self, pkt: &Packet, out: &mut Vec<Output>) {
        if pkt.is_ack() {
            let ack = pkt.tcp.ack;
            self.process_ack(ack);
            // FIN-acknowledgment driven transitions.
            if self.fin_sent && self.snd_una == self.snd_nxt {
                match self.state {
                    TcpState::FinWait1 => self.state = TcpState::FinWait2,
                    TcpState::Closing => {
                        self.state = TcpState::TimeWait;
                        out.push(Output::Done);
                    }
                    TcpState::LastAck => {
                        self.state = TcpState::Closed;
                        out.push(Output::Done);
                    }
                    _ => {}
                }
            }
        }

        // In-order data?
        if !pkt.payload.is_empty() {
            if pkt.tcp.seq == self.rcv_nxt {
                self.rcv_nxt += pkt.payload.len() as u32;
                out.push(Output::Deliver(pkt.payload.clone()));
                // FIN may ride on the final data segment; handle below
                // before acking so the ACK covers it too.
                if pkt.is_fin() {
                    self.handle_fin(out);
                }
                self.send_ack(out);
                return;
            }
            // Out of order or duplicate: re-ack what we have.
            self.send_ack(out);
            return;
        }

        if pkt.is_fin() {
            if pkt.tcp.seq == self.rcv_nxt {
                self.handle_fin(out);
                self.send_ack(out);
            } else {
                self.send_ack(out);
            }
        }
    }

    fn handle_fin(&mut self, out: &mut Vec<Output>) {
        self.rcv_nxt += 1;
        out.push(Output::PeerClosed);
        match self.state {
            TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => {
                // Our FIN not yet acked: simultaneous close.
                self.state = TcpState::Closing;
            }
            TcpState::FinWait2 => {
                self.state = TcpState::TimeWait;
                out.push(Output::Done);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Port;
    use crate::tcp::TcpFlags;
    use std::net::Ipv4Addr;

    fn pair() -> (TcpEndpoint, TcpEndpoint, Packet) {
        let c_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), Port::new(4000));
        let s_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), Port::HTTP);
        let server = TcpEndpoint::listen(s_ep, SeqNum::new(9_000));
        let (client, syn) = TcpEndpoint::connect(c_ep, s_ep, SeqNum::new(100));
        (client, server, syn)
    }

    /// Drives all queued Send outputs from `from` into `to` until both sides
    /// go quiet, collecting every non-Send output per side.
    fn pump(
        a: &mut TcpEndpoint,
        b: &mut TcpEndpoint,
        mut pending_to_b: Vec<Packet>,
    ) -> (Vec<Output>, Vec<Output>) {
        let mut a_events = Vec::new();
        let mut b_events = Vec::new();
        let mut to_a: Vec<Packet> = Vec::new();
        let mut to_b = std::mem::take(&mut pending_to_b);
        for _ in 0..200 {
            if to_a.is_empty() && to_b.is_empty() {
                break;
            }
            let mut out = Vec::new();
            for pkt in to_b.drain(..) {
                b.on_segment(&pkt, &mut out);
            }
            for o in out {
                match o {
                    Output::Send(p) => to_a.push(p),
                    other => b_events.push(other),
                }
            }
            let mut out = Vec::new();
            for pkt in to_a.drain(..) {
                a.on_segment(&pkt, &mut out);
            }
            for o in out {
                match o {
                    Output::Send(p) => to_b.push(p),
                    other => a_events.push(other),
                }
            }
        }
        (a_events, b_events)
    }

    fn establish() -> (TcpEndpoint, TcpEndpoint) {
        let (mut client, mut server, syn) = pair();
        let (ce, se) = pump(&mut client, &mut server, vec![syn]);
        assert!(ce.contains(&Output::Established));
        assert!(se.contains(&Output::Established));
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
        (client, server)
    }

    #[test]
    fn three_way_handshake() {
        establish();
    }

    #[test]
    fn data_transfer_both_directions() {
        let (mut client, mut server) = establish();
        let mut out = Vec::new();
        client.send(Bytes::from_static(b"GET /"), &mut out);
        let pkts: Vec<Packet> = out
            .into_iter()
            .map(|o| match o {
                Output::Send(p) => p,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let (_, se) = pump(&mut client, &mut server, pkts);
        assert!(se.contains(&Output::Deliver(Bytes::from_static(b"GET /"))));

        let mut out = Vec::new();
        server.send(Bytes::from_static(b"200 OK"), &mut out);
        let pkts: Vec<Packet> = out
            .into_iter()
            .map(|o| match o {
                Output::Send(p) => p,
                _ => unreachable!(),
            })
            .collect();
        // Pump in the other direction: treat server as "a".
        let (_, ce) = pump(&mut server, &mut client, pkts);
        assert!(ce.contains(&Output::Deliver(Bytes::from_static(b"200 OK"))));
        assert_eq!(client.unacked_bytes(), 0);
        assert_eq!(server.unacked_bytes(), 0);
    }

    #[test]
    fn segmentation_at_mss() {
        let (mut client, mut server) = establish();
        client.set_mss(4);
        let mut out = Vec::new();
        client.send(Bytes::from_static(b"0123456789"), &mut out);
        let sends: Vec<_> = out
            .iter()
            .filter_map(|o| match o {
                Output::Send(p) => Some(p.payload.len()),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![4, 4, 2]);
        let pkts: Vec<Packet> = out
            .into_iter()
            .map(|o| match o {
                Output::Send(p) => p,
                _ => unreachable!(),
            })
            .collect();
        let (_, se) = pump(&mut client, &mut server, pkts);
        let delivered: Vec<u8> = se
            .iter()
            .filter_map(|o| match o {
                Output::Deliver(b) => Some(b.to_vec()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(delivered, b"0123456789");
    }

    #[test]
    fn retransmission_recovers_lost_segment() {
        let (mut client, mut server) = establish();
        let mut out = Vec::new();
        client.send(Bytes::from_static(b"important"), &mut out);
        // Drop the data packet on the floor.
        out.clear();
        assert!(client.needs_retransmit_timer());
        client.on_retransmit_timeout(&mut out);
        let pkts: Vec<Packet> = out
            .into_iter()
            .map(|o| match o {
                Output::Send(p) => p,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pkts.len(), 1);
        let (_, se) = pump(&mut client, &mut server, pkts);
        assert!(se.contains(&Output::Deliver(Bytes::from_static(b"important"))));
        assert!(!client.needs_retransmit_timer(), "timer disarmed after ack");
    }

    #[test]
    fn duplicate_data_is_reacked_not_redelivered() {
        let (mut client, mut server) = establish();
        let mut out = Vec::new();
        client.send(Bytes::from_static(b"x"), &mut out);
        let Output::Send(data) = out.remove(0) else {
            panic!()
        };
        let mut sout = Vec::new();
        server.on_segment(&data, &mut sout);
        let delivers = sout
            .iter()
            .filter(|o| matches!(o, Output::Deliver(_)))
            .count();
        assert_eq!(delivers, 1);
        // Duplicate arrives.
        let mut sout2 = Vec::new();
        server.on_segment(&data, &mut sout2);
        assert!(
            sout2.iter().all(|o| !matches!(o, Output::Deliver(_))),
            "no duplicate delivery"
        );
        assert!(
            sout2
                .iter()
                .any(|o| matches!(o, Output::Send(p) if p.is_ack())),
            "duplicate re-acked"
        );
    }

    #[test]
    fn graceful_close_from_client() {
        let (mut client, mut server) = establish();
        let mut out = Vec::new();
        client.close(&mut out);
        assert_eq!(client.state(), TcpState::FinWait1);
        let pkts: Vec<Packet> = out
            .into_iter()
            .map(|o| match o {
                Output::Send(p) => p,
                _ => unreachable!(),
            })
            .collect();
        let (ce, se) = pump(&mut client, &mut server, pkts);
        assert!(se.contains(&Output::PeerClosed));
        assert_eq!(server.state(), TcpState::CloseWait);
        assert_eq!(client.state(), TcpState::FinWait2);
        assert!(ce.is_empty());

        // Server closes its half.
        let mut out = Vec::new();
        server.close(&mut out);
        assert_eq!(server.state(), TcpState::LastAck);
        let pkts: Vec<Packet> = out
            .into_iter()
            .map(|o| match o {
                Output::Send(p) => p,
                _ => unreachable!(),
            })
            .collect();
        let (se2, ce2) = pump(&mut server, &mut client, pkts);
        assert!(ce2.contains(&Output::PeerClosed));
        assert!(ce2.contains(&Output::Done));
        assert!(se2.contains(&Output::Done));
        assert_eq!(client.state(), TcpState::TimeWait);
        assert_eq!(server.state(), TcpState::Closed);
    }

    #[test]
    fn reset_kills_connection() {
        let (mut client, _server) = establish();
        let peer = client.remote().unwrap();
        let rst = Packet::new(
            peer,
            client.local(),
            SeqNum::new(0),
            SeqNum::new(0),
            TcpFlags::RST,
            Bytes::new(),
        );
        let mut out = Vec::new();
        client.on_segment(&rst, &mut out);
        assert_eq!(out, vec![Output::Reset]);
        assert_eq!(client.state(), TcpState::Closed);
    }

    #[test]
    fn listener_ignores_non_syn() {
        let (_, mut server, _) = pair();
        let stray = Packet::ack(
            Endpoint::new(Ipv4Addr::new(8, 8, 8, 8), Port::new(5)),
            server.local(),
            SeqNum::new(1),
            SeqNum::new(1),
        );
        let mut out = Vec::new();
        server.on_segment(&stray, &mut out);
        assert!(out.is_empty());
        assert_eq!(server.state(), TcpState::Listen);
    }
}
