//! Request classification (paper §3.3).
//!
//! The primary RDN sorts every incoming packet into three categories:
//!
//! 1. **Handshake** — SYN/ACK packets of TCP's three-way handshake, which
//!    the RDN answers itself (emulated handshake, bypassing a kernel stack),
//! 2. **URL request** — the first payload packet, carrying the HTTP request
//!    whose Host determines the subscriber queue,
//! 3. **Other** — everything else, bridged at layer 2 to the owning RPN via
//!    the connection table.

use gage_net::packet::Packet;

/// A parsed HTTP request line plus the classification key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequestInfo {
    /// Request method (`GET`, `POST`, …).
    pub method: String,
    /// Request path (`/index.html`).
    pub path: String,
    /// The host used for subscriber classification, lower-cased, without
    /// any `:port` suffix.
    pub host: String,
}

/// The three packet categories of the primary RDN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketClass {
    /// Handled by the RDN's handshake emulation.
    Handshake,
    /// Contains the URL; goes into a subscriber queue.
    UrlRequest(HttpRequestInfo),
    /// Bridged to the owning RPN (or dropped if unknown).
    Other,
}

/// Classifies `pkt` as the RDN would. `established` says whether the
/// packet's four-tuple is already in the connection table (i.e. the request
/// was already dispatched to an RPN).
pub fn classify_packet(pkt: &Packet, established: bool) -> PacketClass {
    if established {
        // Everything on a dispatched connection is bridged, payload or not.
        return PacketClass::Other;
    }
    if !pkt.payload.is_empty() {
        if let Some(info) = parse_http_request(&pkt.payload) {
            return PacketClass::UrlRequest(info);
        }
        return PacketClass::Other;
    }
    if pkt.is_syn() || pkt.is_ack() {
        return PacketClass::Handshake;
    }
    PacketClass::Other
}

/// Parses the head of an HTTP/1.x request: the request line and the `Host`
/// header, resolved to a host by [`request_host`].
///
/// Returns `None` if the payload does not look like an HTTP request or no
/// host can be determined.
///
/// ```rust
/// use gage_core::classify::parse_http_request;
/// let info = parse_http_request(b"GET /a.html HTTP/1.0\r\nHost: Site1.Example.COM:8080\r\n\r\n").unwrap();
/// assert_eq!(info.host, "site1.example.com");
/// assert_eq!(info.path, "/a.html");
/// assert_eq!(info.method, "GET");
/// ```
pub fn parse_http_request(payload: &[u8]) -> Option<HttpRequestInfo> {
    let text = std::str::from_utf8(payload).ok()?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/") {
        return None;
    }
    if !matches!(
        method,
        "GET" | "HEAD" | "POST" | "PUT" | "DELETE" | "OPTIONS"
    ) {
        return None;
    }
    let host_header = lines.find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("host").then(|| value.trim())
    });
    let host = request_host(target, host_header)?;
    let path = split_absolute(target).map_or(target, |(_, path)| path);
    Some(HttpRequestInfo {
        method: method.to_string(),
        path: path.to_string(),
        host,
    })
}

/// The host a request names, as subscriber classification uses it: an
/// absolute-form target (`GET http://site1/x`) wins over the `Host` header,
/// as RFC 7230 §5.3.2 and §5.4 require; a numeric `:port` suffix is
/// stripped and the result lower-cased. `None` when neither names a
/// non-empty host.
///
/// ```rust
/// use gage_core::classify::request_host;
/// assert_eq!(request_host("/x", Some("Site1.COM:8080")).as_deref(), Some("site1.com"));
/// assert_eq!(request_host("http://a.com/x", Some("b.com")).as_deref(), Some("a.com"));
/// assert_eq!(request_host("/x", Some("")), None);
/// ```
pub fn request_host(target: &str, host_header: Option<&str>) -> Option<String> {
    let raw = match split_absolute(target) {
        Some((authority, _)) => authority,
        None => host_header?,
    };
    let host = match raw.rsplit_once(':') {
        Some((h, port)) if port.chars().all(|c| c.is_ascii_digit()) => h,
        _ => raw,
    };
    (!host.is_empty()).then(|| host.to_ascii_lowercase())
}

/// Splits an absolute-form target `http://authority[/path]` into its
/// authority and path (`/` when absent); `None` for any other form.
fn split_absolute(target: &str) -> Option<(&str, &str)> {
    let rest = target.strip_prefix("http://")?;
    Some(match rest.find('/') {
        Some(i) => rest.split_at(i),
        None => (rest, "/"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gage_net::addr::{Endpoint, Port};
    use gage_net::SeqNum;
    use std::net::Ipv4Addr;

    fn endpoints() -> (Endpoint, Endpoint) {
        (
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), Port::new(40_000)),
            Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP),
        )
    }

    #[test]
    fn syn_is_handshake() {
        let (c, s) = endpoints();
        let pkt = Packet::syn(c, s, SeqNum::new(1));
        assert_eq!(classify_packet(&pkt, false), PacketClass::Handshake);
    }

    #[test]
    fn bare_ack_is_handshake_until_established() {
        let (c, s) = endpoints();
        let pkt = Packet::ack(c, s, SeqNum::new(1), SeqNum::new(2));
        assert_eq!(classify_packet(&pkt, false), PacketClass::Handshake);
        assert_eq!(classify_packet(&pkt, true), PacketClass::Other);
    }

    #[test]
    fn http_payload_is_url_request() {
        let (c, s) = endpoints();
        let pkt = Packet::data(
            c,
            s,
            SeqNum::new(2),
            SeqNum::new(2),
            Bytes::from_static(b"GET /x HTTP/1.0\r\nHost: site9.example.com\r\n\r\n"),
        );
        match classify_packet(&pkt, false) {
            PacketClass::UrlRequest(info) => {
                assert_eq!(info.host, "site9.example.com");
                assert_eq!(info.path, "/x");
            }
            other => panic!("expected UrlRequest, got {other:?}"),
        }
    }

    #[test]
    fn established_connection_payload_is_other() {
        let (c, s) = endpoints();
        let pkt = Packet::data(
            c,
            s,
            SeqNum::new(2),
            SeqNum::new(2),
            Bytes::from_static(b"GET /x HTTP/1.0\r\nHost: a\r\n\r\n"),
        );
        assert_eq!(classify_packet(&pkt, true), PacketClass::Other);
    }

    #[test]
    fn garbage_payload_is_other() {
        let (c, s) = endpoints();
        let pkt = Packet::data(
            c,
            s,
            SeqNum::new(2),
            SeqNum::new(2),
            Bytes::from_static(&[0xff, 0xfe, 0x00, 0x01]),
        );
        assert_eq!(classify_packet(&pkt, false), PacketClass::Other);
    }

    #[test]
    fn absolute_uri_wins_over_host_header() {
        let info =
            parse_http_request(b"GET http://primary.com/page HTTP/1.1\r\nHost: shadow.com\r\n\r\n")
                .unwrap();
        assert_eq!(info.host, "primary.com");
        assert_eq!(info.path, "/page");
    }

    #[test]
    fn absolute_uri_without_path() {
        let info = parse_http_request(b"GET http://bare.com HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(info.host, "bare.com");
        assert_eq!(info.path, "/");
    }

    #[test]
    fn host_port_stripped_case_folded() {
        let info = parse_http_request(b"POST /f HTTP/1.1\r\nHost: MiXeD.CoM:81\r\n\r\n").unwrap();
        assert_eq!(info.host, "mixed.com");
        assert_eq!(info.method, "POST");
    }

    #[test]
    fn rejects_non_http() {
        assert!(parse_http_request(b"HELO smtp.example.com\r\n").is_none());
        assert!(
            parse_http_request(b"GET /x\r\n").is_none(),
            "missing version"
        );
        assert!(
            parse_http_request(b"GET /x HTTP/1.0\r\n\r\n").is_none(),
            "no host"
        );
        assert!(parse_http_request(&[0x80, 0x81]).is_none(), "not UTF-8");
    }
}
