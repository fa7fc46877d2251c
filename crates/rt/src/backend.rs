//! The back-end request processing server (RPN role).
//!
//! Serves the evaluation's synthetic content with a *calibrated* cost
//! model: each request holds the node's single CPU for its CPU time and the
//! single disk channel for its disk time (both simulated by holding a lock
//! through a sleep), then streams a response of the requested size.
//! Per-subscriber usage is accumulated and reported to the front end every
//! accounting cycle, echoing the front end's predictions so balances
//! reconcile exactly.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gage_core::accounting::{SubscriberUsage, UsageReport};
use gage_core::node::RpnId;
use gage_core::resource::ResourceVector;
use gage_core::subscriber::SubscriberId;

use crate::http::{
    read_request_head, write_error_response, write_ok_response, DEFAULT_RESPONSE_SIZE,
};
use crate::lock;
use crate::proto::{send_msg, ControlMsg};

/// Service cost calibration for a back end.
#[derive(Debug, Clone, Copy)]
pub struct BackendCost {
    /// Fixed CPU per request, µs.
    pub base_cpu_us: u64,
    /// CPU per KiB of response, µs.
    pub per_kib_cpu_us: u64,
    /// Disk channel time per request, µs (0 = fully cached).
    pub disk_us: u64,
}

impl Default for BackendCost {
    fn default() -> Self {
        BackendCost {
            base_cpu_us: 1_490,
            per_kib_cpu_us: 55,
            disk_us: 0,
        }
    }
}

impl BackendCost {
    /// CPU time for a response of `size` bytes, µs.
    pub fn cpu_us(&self, size: u64) -> u64 {
        self.base_cpu_us + self.per_kib_cpu_us * size / 1024
    }
}

/// Back-end configuration.
#[derive(Debug, Clone)]
pub struct BackendConfig {
    /// HTTP listen address (use port 0 for ephemeral).
    pub listen: SocketAddr,
    /// Where to send accounting reports (the front end's control address);
    /// `None` disables reporting (bypass mode).
    pub report_to: Option<SocketAddr>,
    /// Accounting cycle length.
    pub accounting_cycle: Duration,
    /// Service cost model.
    pub cost: BackendCost,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            listen: "127.0.0.1:0".parse().expect("valid literal address"),
            report_to: None,
            accounting_cycle: Duration::from_millis(100),
            cost: BackendCost::default(),
        }
    }
}

#[derive(Debug, Default)]
struct CycleAccum {
    actual: ResourceVector,
    settled_predicted: ResourceVector,
    completed: u32,
}

#[derive(Debug, Default)]
struct Accounting {
    per_sub: BTreeMap<SubscriberId, CycleAccum>,
    total: ResourceVector,
    served: u64,
    /// Predicted-units work admitted but not yet completed on this node.
    outstanding_predicted: ResourceVector,
}

/// A running back end; stops its worker threads on drop.
#[derive(Debug)]
pub struct BackendHandle {
    /// The bound HTTP address.
    pub http_addr: SocketAddr,
    accounting: Arc<Mutex<Accounting>>,
    stop: Arc<AtomicBool>,
}

impl BackendHandle {
    /// Total requests served so far.
    pub fn served(&self) -> u64 {
        lock(&self.accounting).served
    }

    /// Stops the server: the accept loop exits after the next connection
    /// attempt, the reporting loop after its next tick.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.http_addr);
    }
}

impl Drop for BackendHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts a back end and returns its handle once the listener is bound.
///
/// # Errors
///
/// Fails if the listen address cannot be bound.
pub fn spawn_backend(cfg: BackendConfig) -> std::io::Result<BackendHandle> {
    let listener = TcpListener::bind(cfg.listen)?;
    spawn_backend_on(listener, cfg)
}

/// Starts a back end on an already-bound listener (lets callers learn the
/// address before the front end is configured).
///
/// # Errors
///
/// Fails if the listener's local address cannot be read.
pub fn spawn_backend_on(
    listener: TcpListener,
    cfg: BackendConfig,
) -> std::io::Result<BackendHandle> {
    let http_addr = listener.local_addr()?;
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let stop = Arc::new(AtomicBool::new(false));
    // One CPU, one disk channel: requests hold these locks through their
    // calibrated burn so the node really saturates like single hardware.
    let cpu = Arc::new(Mutex::new(()));
    let disk = Arc::new(Mutex::new(()));

    // Accept loop.
    {
        let accounting = Arc::clone(&accounting);
        let stop = Arc::clone(&stop);
        let cfg = cfg.clone();
        std::thread::spawn(move || loop {
            let Ok((stream, _)) = listener.accept() else {
                break;
            };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let accounting = Arc::clone(&accounting);
            let cpu = Arc::clone(&cpu);
            let disk = Arc::clone(&disk);
            let cost = cfg.cost;
            std::thread::spawn(move || {
                let _ = serve_one(stream, cost, &cpu, &disk, &accounting);
            });
        });
    }

    // Reporting loop.
    if let Some(report_to) = cfg.report_to {
        let accounting = Arc::clone(&accounting);
        let stop = Arc::clone(&stop);
        let cycle = cfg.accounting_cycle;
        std::thread::spawn(move || {
            // Reconnect loop: the front end may start after us.
            while !stop.load(Ordering::SeqCst) {
                let Ok(mut control) = TcpStream::connect(report_to) else {
                    std::thread::sleep(Duration::from_millis(200));
                    continue;
                };
                let register = ControlMsg::Register {
                    http_addr: http_addr.to_string(),
                    accounting_cycle: cycle,
                };
                if send_msg(&mut control, &register).is_err() {
                    continue;
                }
                loop {
                    std::thread::sleep(cycle);
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let report = drain_report(&accounting);
                    if send_msg(&mut control, &ControlMsg::Report { report }).is_err() {
                        break; // reconnect
                    }
                }
            }
        });
    }

    Ok(BackendHandle {
        http_addr,
        accounting,
        stop,
    })
}

fn drain_report(accounting: &Mutex<Accounting>) -> UsageReport {
    let mut acc = lock(accounting);
    let per_sub = std::mem::take(&mut acc.per_sub);
    let per_subscriber = per_sub
        .into_iter()
        .map(|(subscriber, c)| SubscriberUsage {
            subscriber,
            actual: c.actual,
            settled_predicted: c.settled_predicted,
            completed: c.completed,
        })
        .collect();
    let total = acc.total;
    acc.total = ResourceVector::ZERO;
    UsageReport {
        rpn: RpnId(0), // overwritten by the front end per registration
        total,
        outstanding_predicted: acc.outstanding_predicted,
        per_subscriber,
    }
}

fn serve_one(
    mut stream: TcpStream,
    cost: BackendCost,
    cpu: &Mutex<()>,
    disk: &Mutex<()>,
    accounting: &Mutex<Accounting>,
) -> std::io::Result<()> {
    let Ok((head, _rest)) = read_request_head(&mut stream) else {
        let _ = write_error_response(&mut stream, "400 Bad Request");
        return Ok(());
    };
    let size = head.size_hint().unwrap_or(DEFAULT_RESPONSE_SIZE);
    let sub: Option<SubscriberId> = head
        .headers
        .get("x-gage-sub")
        .and_then(|v| v.parse().ok())
        .map(SubscriberId);
    let predicted = head
        .headers
        .get("x-gage-pred")
        .and_then(|v| parse_pred(v))
        .unwrap_or(ResourceVector::ZERO);

    lock(accounting).outstanding_predicted += predicted;

    // CPU phase: hold the node's CPU for the calibrated burn.
    let cpu_us = cost.cpu_us(size);
    {
        let _held = lock(cpu);
        std::thread::sleep(Duration::from_micros(cpu_us));
    }
    // Disk phase.
    if cost.disk_us > 0 {
        let _held = lock(disk);
        std::thread::sleep(Duration::from_micros(cost.disk_us));
    }
    // Network phase: stream the response.
    write_ok_response(&mut stream, size as usize)?;

    let actual = ResourceVector::new(cpu_us as f64, cost.disk_us as f64, size as f64);
    let mut acc = lock(accounting);
    acc.outstanding_predicted = (acc.outstanding_predicted - predicted).clamped_nonnegative();
    acc.total += actual;
    acc.served += 1;
    if let Some(sub) = sub {
        let c = acc.per_sub.entry(sub).or_default();
        c.actual += actual;
        c.settled_predicted += predicted;
        c.completed += 1;
    }
    Ok(())
}

/// Parses the front end's `X-Gage-Pred: cpu;disk;net` header.
fn parse_pred(v: &str) -> Option<ResourceVector> {
    let mut it = v.split(';');
    let cpu = it.next()?.trim().parse().ok()?;
    let disk = it.next()?.trim().parse().ok()?;
    let net = it.next()?.trim().parse().ok()?;
    Some(ResourceVector::new(cpu, disk, net))
}

/// Formats the prediction header value.
pub fn format_pred(v: ResourceVector) -> String {
    format!("{:.1};{:.1};{:.1}", v.cpu_us, v.disk_us, v.net_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, RequestHead};
    use std::io::Write;

    #[test]
    fn serves_requested_size() {
        let backend = spawn_backend(BackendConfig {
            cost: BackendCost {
                base_cpu_us: 100,
                per_kib_cpu_us: 0,
                disk_us: 0,
            },
            ..Default::default()
        })
        .expect("backend starts");
        let mut stream = TcpStream::connect(backend.http_addr).expect("connect");
        let head = RequestHead::get("/x", "any.local", Some(12_345));
        stream.write_all(&head.to_bytes()).expect("write");
        let (code, body) = read_response(&mut stream).expect("response");
        assert_eq!(code, 200);
        assert_eq!(body, 12_345);
        assert_eq!(backend.served(), 1);
    }

    #[test]
    fn accumulates_per_subscriber_usage() {
        let backend = spawn_backend(BackendConfig {
            cost: BackendCost {
                base_cpu_us: 50,
                per_kib_cpu_us: 0,
                disk_us: 10,
            },
            ..Default::default()
        })
        .expect("backend starts");
        let mut stream = TcpStream::connect(backend.http_addr).expect("connect");
        let mut head = RequestHead::get("/x", "any.local", Some(1_000));
        head.headers
            .insert("x-gage-sub".to_string(), "2".to_string());
        head.headers.insert(
            "x-gage-pred".to_string(),
            format_pred(ResourceVector::new(60.0, 10.0, 1_000.0)),
        );
        stream.write_all(&head.to_bytes()).expect("write");
        let (code, _) = read_response(&mut stream).expect("response");
        assert_eq!(code, 200);

        let report = drain_report(&backend.accounting);
        assert_eq!(report.per_subscriber.len(), 1);
        let line = &report.per_subscriber[0];
        assert_eq!(line.subscriber, SubscriberId(2));
        assert_eq!(line.completed, 1);
        assert_eq!(line.actual.cpu_us, 50.0);
        assert_eq!(line.actual.disk_us, 10.0);
        assert_eq!(line.actual.net_bytes, 1_000.0);
        assert_eq!(line.settled_predicted.cpu_us, 60.0);
        // Second drain is empty.
        assert!(drain_report(&backend.accounting).per_subscriber.is_empty());
    }

    #[test]
    fn pred_header_round_trip() {
        let v = ResourceVector::new(1_820.5, 0.0, 6_144.0);
        let parsed = parse_pred(&format_pred(v)).expect("parses");
        assert!((parsed.cpu_us - 1_820.5).abs() < 0.1);
        assert_eq!(parsed.net_bytes, 6_144.0);
        assert!(parse_pred("junk").is_none());
    }
}
