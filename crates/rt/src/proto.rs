//! The RPN → RDN control protocol: newline-delimited JSON messages over a
//! persistent TCP connection.

use std::io::{BufRead, Read, Write};

use gage_core::accounting::UsageReport;

/// The longest control line [`recv_msg`] reads, newline included. A report
/// from `gage-rt`'s back end takes a few hundred bytes per subscriber, so
/// this leaves room for thousands of subscribers while a peer that never
/// sends a newline costs the front end at most this much memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Messages a back end sends the front end.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// First message on the control connection: which HTTP address this
    /// back end serves on (the front end maps it to an `RpnId`).
    Register {
        /// The back end's HTTP listen address, e.g. `127.0.0.1:9001`.
        http_addr: String,
    },
    /// An accounting-cycle usage report.
    Report {
        /// The report body (the `rpn` field is overwritten by the front end
        /// with the id it assigned at registration).
        report: UsageReport,
    },
}

impl ControlMsg {
    /// Serializes to the tagged wire object, e.g.
    /// `{"type":"register","http_addr":"127.0.0.1:9001"}`.
    pub fn to_json(&self) -> gage_json::Json {
        match self {
            ControlMsg::Register { http_addr } => gage_json::Json::obj([
                ("type", gage_json::Json::str("register")),
                ("http_addr", gage_json::Json::str(http_addr)),
            ]),
            ControlMsg::Report { report } => gage_json::Json::obj([
                ("type", gage_json::Json::str("report")),
                ("report", report.to_json()),
            ]),
        }
    }

    /// Parses a wire object written by [`ControlMsg::to_json`].
    pub fn from_json(v: &gage_json::Json) -> Option<Self> {
        match v.get("type")?.as_str()? {
            "register" => Some(ControlMsg::Register {
                http_addr: v.get("http_addr")?.as_str()?.to_string(),
            }),
            "report" => Some(ControlMsg::Report {
                report: UsageReport::from_json(v.get("report")?)?,
            }),
            _ => None,
        }
    }
}

/// Serializes one message as a JSON line.
///
/// # Errors
///
/// Propagates transport errors.
pub fn send_msg<W>(writer: &mut W, msg: &ControlMsg) -> std::io::Result<()>
where
    W: Write,
{
    let mut line = msg.to_json().to_string().into_bytes();
    line.push(b'\n');
    writer.write_all(&line)?;
    writer.flush()
}

/// Reads the next message, or `None` on clean EOF. It consumes at most
/// [`MAX_LINE_BYTES`] + 1 bytes of a line that has no newline within the
/// bound.
///
/// # Errors
///
/// Propagates transport errors; malformed lines, and lines longer than
/// [`MAX_LINE_BYTES`], are reported as `InvalidData`.
pub fn recv_msg<R>(reader: &mut R) -> std::io::Result<Option<ControlMsg>>
where
    R: BufRead,
{
    let invalid = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let mut line = Vec::new();
    let n = reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n > MAX_LINE_BYTES {
        return Err(invalid(format!(
            "control line longer than {MAX_LINE_BYTES} bytes"
        )));
    }
    let line = String::from_utf8(line).map_err(|e| invalid(e.to_string()))?;
    let doc = gage_json::parse(line.trim_end()).map_err(|e| invalid(e.to_string()))?;
    ControlMsg::from_json(&doc)
        .map(Some)
        .ok_or_else(|| invalid("unrecognized control message".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gage_core::node::RpnId;
    use gage_core::resource::ResourceVector;
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn round_trip_json() {
        let msg = ControlMsg::Report {
            report: UsageReport {
                rpn: RpnId(3),
                total: ResourceVector::new(1.0, 2.0, 3.0),
                outstanding_predicted: ResourceVector::new(4.0, 5.0, 6.0),
                per_subscriber: vec![],
            },
        };
        let text = msg.to_json().to_string();
        let back =
            ControlMsg::from_json(&gage_json::parse(&text).expect("parses")).expect("well-formed");
        assert_eq!(back, msg);
    }

    /// A report line with `total.cpu_us` replaced by `value`.
    fn report_line(value: &str) -> String {
        let report = ControlMsg::Report {
            report: UsageReport::empty(RpnId(0)),
        };
        let line = report.to_json().to_string();
        let (head, tail) = line.split_once(r#""cpu_us":0"#).expect("a cpu_us field");
        format!("{head}\"cpu_us\":{value}{tail}\n")
    }

    #[test]
    fn hostile_usage_reports_are_invalid_data() {
        let mut wire = Vec::new();
        let valid = ControlMsg::Report {
            report: UsageReport {
                rpn: RpnId(1),
                total: ResourceVector::new(1.0, 2.0, 3.0),
                outstanding_predicted: ResourceVector::new(4.0, 0.0, 6.0),
                per_subscriber: vec![],
            },
        };
        send_msg(&mut wire, &valid).expect("send");
        let got = recv_msg(&mut wire.as_slice()).expect("valid report");
        assert_eq!(got, Some(valid));
        assert!(recv_msg(&mut report_line("0").as_bytes()).is_ok());
        // `1e999` is out of range and fails to parse.
        for bad in ["-1", "-1e-9", "1e999", "-1e999"] {
            let line = report_line(bad);
            let err = recv_msg(&mut line.as_bytes()).expect_err(&line);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{line}");
        }
    }

    #[test]
    fn a_line_past_the_bound_is_invalid_data() {
        let flood = vec![b'x'; 2 << 20];
        let mut reader = flood.as_slice();
        let err = recv_msg(&mut reader).expect_err("no newline within the bound");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(flood.len() - reader.len() <= MAX_LINE_BYTES + 1);
        // A line of exactly the bound, newline included, is read.
        let mut line = report_line("0").into_bytes();
        line.splice(..0, std::iter::repeat_n(b' ', MAX_LINE_BYTES - line.len()));
        assert!(recv_msg(&mut line.as_slice())
            .expect("at the bound")
            .is_some());
    }

    #[test]
    fn rejects_unknown_type() {
        let doc = gage_json::parse(r#"{"type":"launch_missiles"}"#).expect("parses");
        assert!(ControlMsg::from_json(&doc).is_none());
    }

    #[test]
    fn send_recv_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            send_msg(
                &mut stream,
                &ControlMsg::Register {
                    http_addr: "127.0.0.1:9001".into(),
                },
            )
            .expect("send");
        });
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream);
        let msg = recv_msg(&mut reader).expect("recv").expect("one message");
        client.join().expect("client");
        assert_eq!(
            msg,
            ControlMsg::Register {
                http_addr: "127.0.0.1:9001".into()
            }
        );
        // EOF after the client hangs up.
        assert!(recv_msg(&mut reader).expect("eof").is_none());
    }
}
