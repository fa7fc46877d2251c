//! TCP header, flags, and checksum (with IPv4 pseudo-header).

use std::fmt;
use std::net::Ipv4Addr;
use std::ops::{BitOr, BitOrAssign};

use crate::addr::Port;
use crate::ipv4::{internet_checksum, PROTO_TCP};
use crate::seq::SeqNum;

/// Length of a TCP header without options.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP control flags.
///
/// ```rust
/// use gage_net::tcp::TcpFlags;
/// let synack = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(synack.contains(TcpFlags::SYN));
/// assert!(synack.contains(TcpFlags::ACK));
/// assert!(!synack.contains(TcpFlags::FIN));
/// assert_eq!(synack.to_string(), "SYN|ACK");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub const NONE: TcpFlags = TcpFlags(0);
    /// FIN: sender is done sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: the acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// Builds from the raw flag bits.
    pub const fn from_bits(bits: u8) -> Self {
        TcpFlags(bits & 0x3f)
    }

    /// The raw flag bits.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// True if all flags in `other` are set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A TCP header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: Port,
    /// Destination port.
    pub dst_port: Port,
    /// Sequence number of the first payload byte (or the SYN/FIN).
    pub seq: SeqNum,
    /// Acknowledgment number (next byte expected), valid when ACK is set.
    pub ack: SeqNum,
    /// Control flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Builds a header with the given fields and a default window.
    pub fn new(src_port: Port, dst_port: Port, seq: SeqNum, ack: SeqNum, flags: TcpFlags) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 65_535,
        }
    }

    /// Appends the wire representation to `buf`, computing the checksum over
    /// the pseudo-header, this header, and `payload`.
    pub fn write(&self, buf: &mut Vec<u8>, src_ip: Ipv4Addr, dst_ip: Ipv4Addr, payload: &[u8]) {
        let start = buf.len();
        buf.extend_from_slice(&self.src_port.get().to_be_bytes());
        buf.extend_from_slice(&self.dst_port.get().to_be_bytes());
        buf.extend_from_slice(&self.seq.get().to_be_bytes());
        buf.extend_from_slice(&self.ack.get().to_be_bytes());
        buf.push((TCP_HEADER_LEN as u8 / 4) << 4); // data offset
        buf.push(self.flags.bits());
        buf.extend_from_slice(&self.window.to_be_bytes());
        buf.extend_from_slice(&[0, 0]); // checksum placeholder
        buf.extend_from_slice(&[0, 0]); // urgent pointer
        let csum = tcp_checksum(src_ip, dst_ip, &buf[start..], payload);
        buf[start + 16..start + 18].copy_from_slice(&csum.to_be_bytes());
    }

    /// Parses a header from the front of `data`, or `None` if too short.
    pub fn parse(data: &[u8]) -> Option<Self> {
        // Indexing a fixed-size array by constants: rustc rejects an
        // out-of-bounds offset at compile time (`unconditional_panic`).
        let h: &[u8; TCP_HEADER_LEN] = data.get(..TCP_HEADER_LEN)?.try_into().ok()?;
        Some(TcpHeader {
            src_port: Port::new(u16::from_be_bytes([h[0], h[1]])),
            dst_port: Port::new(u16::from_be_bytes([h[2], h[3]])),
            seq: SeqNum::new(u32::from_be_bytes([h[4], h[5], h[6], h[7]])),
            ack: SeqNum::new(u32::from_be_bytes([h[8], h[9], h[10], h[11]])),
            flags: TcpFlags::from_bits(h[13]),
            window: u16::from_be_bytes([h[14], h[15]]),
        })
    }

    /// Sequence space this segment occupies (payload bytes plus one for SYN
    /// and one for FIN).
    pub fn seq_len(&self, payload_len: usize) -> u32 {
        let mut len = payload_len as u32;
        if self.flags.contains(TcpFlags::SYN) {
            len += 1;
        }
        if self.flags.contains(TcpFlags::FIN) {
            len += 1;
        }
        len
    }
}

/// Computes the TCP checksum over the IPv4 pseudo-header, header bytes
/// (checksum field zeroed), and payload.
pub fn tcp_checksum(src: Ipv4Addr, dst: Ipv4Addr, header: &[u8], payload: &[u8]) -> u16 {
    let tcp_len = (header.len() + payload.len()) as u16;
    let mut data = Vec::with_capacity(12 + header.len() + payload.len());
    data.extend_from_slice(&src.octets());
    data.extend_from_slice(&dst.octets());
    data.push(0);
    data.push(PROTO_TCP);
    data.extend_from_slice(&tcp_len.to_be_bytes());
    data.extend_from_slice(header);
    data.extend_from_slice(payload);
    internet_checksum(&data)
}

/// Verifies the checksum of the TCP segment `segment` (header + payload)
/// delivered between `src` and `dst`.
pub fn tcp_checksum_valid(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> bool {
    segment.len() >= TCP_HEADER_LEN && tcp_checksum(src, dst, segment, &[]) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ips() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
    }

    #[test]
    fn header_round_trip() {
        let h = TcpHeader::new(
            Port::new(1234),
            Port::HTTP,
            SeqNum::new(0xdead_beef),
            SeqNum::new(0x1234_5678),
            TcpFlags::SYN | TcpFlags::ACK,
        );
        let (s, d) = ips();
        let mut buf = Vec::new();
        h.write(&mut buf, s, d, b"");
        assert_eq!(buf.len(), TCP_HEADER_LEN);
        assert_eq!(TcpHeader::parse(&buf), Some(h));
    }

    #[test]
    fn checksum_self_verifies_with_payload() {
        let h = TcpHeader::new(
            Port::new(5),
            Port::new(6),
            SeqNum::new(1),
            SeqNum::new(2),
            TcpFlags::ACK | TcpFlags::PSH,
        );
        let (s, d) = ips();
        let payload = b"GET / HTTP/1.0\r\n\r\n";
        let mut buf = Vec::new();
        h.write(&mut buf, s, d, payload);
        buf.extend_from_slice(payload);
        assert!(tcp_checksum_valid(s, d, &buf));
    }

    #[test]
    fn checksum_detects_ip_rewrite_without_update() {
        // The heart of splicing: rewriting addresses invalidates the
        // checksum unless it is recomputed.
        let h = TcpHeader::new(
            Port::new(5),
            Port::new(6),
            SeqNum::new(1),
            SeqNum::new(2),
            TcpFlags::ACK,
        );
        let (s, d) = ips();
        let mut buf = Vec::new();
        h.write(&mut buf, s, d, b"");
        assert!(tcp_checksum_valid(s, d, &buf));
        let other = Ipv4Addr::new(10, 0, 9, 9);
        assert!(!tcp_checksum_valid(other, d, &buf));
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut h = TcpHeader::new(
            Port::new(1),
            Port::new(2),
            SeqNum::new(0),
            SeqNum::new(0),
            TcpFlags::SYN,
        );
        assert_eq!(h.seq_len(0), 1);
        h.flags = TcpFlags::ACK;
        assert_eq!(h.seq_len(10), 10);
        h.flags = TcpFlags::FIN | TcpFlags::ACK;
        assert_eq!(h.seq_len(3), 4);
    }

    #[test]
    fn flags_display() {
        assert_eq!(TcpFlags::NONE.to_string(), "-");
        assert_eq!((TcpFlags::FIN | TcpFlags::ACK).to_string(), "ACK|FIN");
    }

    #[test]
    fn parse_short_is_none() {
        assert!(TcpHeader::parse(&[0u8; 19]).is_none());
    }
}
