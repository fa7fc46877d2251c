//! Userspace packet-level TCP/IP substrate for the Gage reproduction.
//!
//! The Gage paper implements its mechanism as a thin kernel layer between the
//! Ethernet driver and the IP stack: the front-end RDN emulates the first-leg
//! TCP handshake, the chosen back-end RPN's *local service manager* sets up
//! the second-leg connection, and every subsequent packet is rewritten
//! (source/destination address and sequence/ACK numbers) so the client
//! believes it talks to the cluster address while data flows directly to and
//! from the RPN.
//!
//! This crate rebuilds that substrate from scratch in safe Rust:
//!
//! * [`addr`] — MAC / port / endpoint / four-tuple newtypes,
//! * [`seq`] — RFC 793 wrapping sequence-number arithmetic,
//! * [`eth`], [`ipv4`], [`tcp`] — wire-format headers with real checksums,
//! * [`packet`] — composite frames with serialization and parsing,
//! * [`splice`] — the per-connection splice map performing the paper's
//!   sequence-number/address remapping (Section 3.2),
//! * [`endpoint`] — a userspace TCP endpoint state machine (handshake, data
//!   transfer, retransmission, teardown).
//!
//! The cluster simulator (`gage-cluster`) uses [`SpliceMap`] and the
//! address types on every request, but it does not exchange [`Packet`]s:
//! it aggregates each request's packets and credits them to the event
//! count in one batch. [`Packet`] and [`endpoint::TcpEndpoint`] serve the
//! Table 3 microbenchmarks and the splice tests.
//!
//! # Example: splicing two connections
//!
//! ```rust
//! use gage_net::addr::{Endpoint, Port};
//! use gage_net::seq::SeqNum;
//! use gage_net::splice::SpliceMap;
//! use std::net::Ipv4Addr;
//!
//! let client = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), Port::new(40000));
//! let cluster = Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::new(80));
//! let rpn_ip = Ipv4Addr::new(10, 0, 2, 4);
//! // First leg ISN chosen by the RDN, second leg ISN chosen by the RPN:
//! let map = SpliceMap::new(client, cluster, rpn_ip, SeqNum::new(1000), SeqNum::new(99_000));
//! assert_eq!(map.server_to_client_seq(SeqNum::new(99_001)), SeqNum::new(1001));
//! assert_eq!(map.client_to_server_ack(SeqNum::new(1001)), SeqNum::new(99_001));
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod addr;
pub mod endpoint;
pub mod eth;
pub mod ipv4;
pub mod packet;
pub mod seq;
pub mod splice;
pub mod tcp;

pub use addr::{Endpoint, FourTuple, MacAddr, Port};
pub use packet::{Packet, PacketError};
pub use seq::SeqNum;
pub use splice::SpliceMap;
