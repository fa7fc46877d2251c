//! The front-end request distribution server (RDN role).
//!
//! Accepts client connections, reads the request head, classifies it by
//! host with the §3.3 classifier's rule ([`request_host`]), queues the
//! connection in its subscriber's queue, and lets the `gage-core`
//! scheduler decide — every scheduling cycle — which queued connections to
//! dispatch to which back end. Dispatched connections are spliced
//! (application-level relay) to the chosen back end. Accounting reports
//! arrive over a control listener and reconcile the scheduler's balances.
//!
//! The control decisions are the scheduler's, as in the simulator: before
//! each cycle its report watchdog writes off a back end that has gone
//! silent, a report brings it back, and a dispatch whose back end refuses
//! the connection bounces back to the head of its queue.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gage_core::classify::request_host;
use gage_core::config::SchedulerConfig;
use gage_core::node::{NodeScheduler, RpnId};
use gage_core::resource::{Grps, ResourceVector};
use gage_core::scheduler::{Dispatch, RequestScheduler, SubscriberCounters, WATCHDOG_GRACE_CYCLES};
use gage_core::subscriber::{SubscriberId, SubscriberRegistry};
use gage_des::{SimDuration, SimTime};
use gage_obs::{Histogram, Registry, TraceEvent, Tracer};

use crate::backend::{format_pred, BackendConfig};
use crate::http::{read_request_head, write_error_response, RequestHead};
use crate::lock;
use crate::proto::{recv_msg, ControlMsg};
use crate::relay::splice;

/// Trace ring size, in records, of `gage-rdn --trace` and of every
/// [`crate::harness::deploy`] front end.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// One hosted site.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// Classification host name.
    pub host: String,
    /// Reservation in GRPS.
    pub reservation: Grps,
}

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Client-facing HTTP listen address.
    pub listen: SocketAddr,
    /// Control listen address for back-end registrations/reports.
    pub control: SocketAddr,
    /// Hosted sites.
    pub sites: Vec<SiteConfig>,
    /// Back-end HTTP addresses (index = `RpnId`).
    pub backends: Vec<SocketAddr>,
    /// Scheduler tunables.
    pub scheduler: SchedulerConfig,
    /// Per-backend capacity estimate for load balancing / spare gating.
    pub backend_capacity: ResourceVector,
    /// Retained trace-record count for gage-obs tracing; `None` disables
    /// tracing entirely (the hot path then pays a single branch).
    pub trace_capacity: Option<usize>,
    /// Deadline for reading a client's whole request head, counted from
    /// the accept. A client that stalls or dribbles its head is answered
    /// 408 and disconnected instead of pinning an accept thread.
    pub client_read_timeout: Duration,
}

impl FrontendConfig {
    /// A loopback configuration with ephemeral ports.
    pub fn loopback(sites: Vec<SiteConfig>, backends: Vec<SocketAddr>) -> Self {
        FrontendConfig {
            listen: "127.0.0.1:0".parse().expect("valid literal address"),
            control: "127.0.0.1:0".parse().expect("valid literal address"),
            sites,
            backends,
            scheduler: SchedulerConfig::default(),
            backend_capacity: ResourceVector::new(1e6, 1e6, 12.5e6),
            trace_capacity: None,
            client_read_timeout: Duration::from_secs(10),
        }
    }
}

/// A queued client connection awaiting dispatch.
#[derive(Debug)]
struct QueuedConn {
    stream: TcpStream,
    head: RequestHead,
    size: u64,
    /// Per-front-end request id, dense from 0, stamped into every trace
    /// record of the request.
    req: u64,
    /// When the connection entered its subscriber queue.
    enqueued: Instant,
}

impl gage_core::scheduler::TraceTag for QueuedConn {
    fn trace_tag(&self) -> u64 {
        self.req
    }
}

/// The scheduler, its trace sink, the request-id counter and the live
/// latency histograms, behind the one lock that every enqueue, cycle and
/// report already takes.
#[derive(Debug)]
struct Front {
    scheduler: RequestScheduler<QueuedConn>,
    tracer: Tracer,
    next_req: u64,
    /// When the front end started. The scheduler's `now`, for the report
    /// watchdog and for trace timestamps, is the time since.
    started: Instant,
    /// The longest accounting cycle a registered back end has announced.
    longest_cycle: Option<Duration>,
    /// Queue wait (enqueue → dispatch) per subscriber, milliseconds.
    queue_wait_ms: Vec<Histogram>,
    /// Dispatch-to-relay-close service time, milliseconds.
    service_ms: Histogram,
}

impl Front {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.started.elapsed().as_nanos() as u64)
    }

    /// How long a back end may stay silent before the watchdog writes it
    /// off: [`WATCHDOG_GRACE_CYCLES`] of the longest accounting cycle
    /// announced so far, or of the back ends' default cycle until one
    /// registers.
    fn watchdog_grace(&self) -> SimDuration {
        let cycle = self
            .longest_cycle
            .unwrap_or(BackendConfig::default().accounting_cycle);
        SimDuration::from_secs_f64(cycle.as_secs_f64()).mul_f64(WATCHDOG_GRACE_CYCLES)
    }
}

type SharedFront = Arc<Mutex<Front>>;

/// A running front end; stops its worker threads on drop.
#[derive(Debug)]
pub struct FrontendHandle {
    /// The bound client-facing address.
    pub http_addr: SocketAddr,
    /// The bound control address (give this to back ends).
    pub control_addr: SocketAddr,
    front: SharedFront,
    stop: Arc<AtomicBool>,
}

impl FrontendHandle {
    /// Lifetime counters for one subscriber.
    pub fn counters(&self, sub: SubscriberId) -> SubscriberCounters {
        lock(&self.front).scheduler.counters(sub)
    }

    /// Live metrics snapshot: each subscriber's queue wait as
    /// `sub{i}.queue_wait_ms` (the simulator's name, observed at every
    /// dispatch, a re-dispatch after a bounce included) and the
    /// dispatch-to-close service time as `frontend.service_ms`, with
    /// p50/p95/p99 in [`Registry::snapshot_json`] and
    /// [`Registry::to_table`].
    pub fn registry(&self) -> Registry {
        let front = lock(&self.front);
        let mut reg = Registry::new();
        for (i, wait) in front.queue_wait_ms.iter().enumerate() {
            reg.set_histogram(&format!("sub{i}.queue_wait_ms"), wait.clone());
        }
        reg.set_histogram("frontend.service_ms", front.service_ms.clone());
        reg
    }

    /// Serializes the trace ring (header + one JSON record per line).
    /// `None` when the front end was spawned without `trace_capacity`.
    ///
    /// Records are stamped with nanoseconds since the front end started,
    /// quantized to the scheduler tick that most recently ran.
    pub fn trace_dump(&self) -> Option<String> {
        lock(&self.front).tracer.dump()
    }

    /// Stops the server: both accept loops exit after the next connection
    /// attempt, the scheduling loop after its next tick.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loops with dummy connections.
        let _ = TcpStream::connect(self.http_addr);
        let _ = TcpStream::connect(self.control_addr);
    }
}

impl Drop for FrontendHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts a front end and returns its handle once both listeners are bound.
///
/// # Errors
///
/// Fails if a listen address cannot be bound or a site host is duplicated.
pub fn spawn_frontend(cfg: FrontendConfig) -> std::io::Result<FrontendHandle> {
    let listener = TcpListener::bind(cfg.listen)?;
    let control_listener = TcpListener::bind(cfg.control)?;
    let http_addr = listener.local_addr()?;
    let control_addr = control_listener.local_addr()?;

    let mut registry = SubscriberRegistry::new();
    for s in &cfg.sites {
        registry
            .register(s.host.clone(), s.reservation)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    }
    let mut nodes = NodeScheduler::new(cfg.scheduler.node_lookahead_secs);
    for _ in &cfg.backends {
        nodes.add_rpn(cfg.backend_capacity);
    }
    let mut tracer = match cfg.trace_capacity {
        Some(capacity) => Tracer::enabled(capacity),
        None => Tracer::disabled(),
    };
    // One `Reservation` record per site up front, mirroring the
    // simulator: dumps become self-describing for `gage-audit`. The
    // runtime frontend is a single RDN, so every site is on shard 0.
    for i in 0..registry.len() {
        let sub = gage_core::subscriber::SubscriberId(i as u32);
        let grps = registry.get(sub).expect("registered").reservation.0;
        tracer.emit(TraceEvent::Reservation {
            sub: i as u32,
            grps,
            shard: 0,
        });
    }
    let front: SharedFront = Arc::new(Mutex::new(Front {
        scheduler: RequestScheduler::new(&registry, cfg.scheduler, nodes),
        tracer,
        next_req: 0,
        started: Instant::now(),
        longest_cycle: None,
        queue_wait_ms: vec![Histogram::default(); registry.len()],
        service_ms: Histogram::default(),
    }));
    let registry = Arc::new(registry);
    let backends = Arc::new(cfg.backends.clone());
    let stop = Arc::new(AtomicBool::new(false));

    // Accept loop: classify and enqueue.
    {
        let front = Arc::clone(&front);
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        let read_timeout = cfg.client_read_timeout;
        std::thread::spawn(move || loop {
            let Ok((stream, _)) = listener.accept() else {
                break;
            };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let front = Arc::clone(&front);
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let _ = classify_and_enqueue(stream, &front, &registry, read_timeout);
            });
        });
    }

    // Scheduling cycle: the report watchdog, then the dispatch pass.
    {
        let front = Arc::clone(&front);
        let backends = Arc::clone(&backends);
        let stop = Arc::clone(&stop);
        let cycle = Duration::from_secs_f64(cfg.scheduler.scheduling_cycle_secs);
        std::thread::spawn(move || loop {
            std::thread::sleep(cycle);
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let dispatches = {
                let mut guard = lock(&front);
                let now = guard.now();
                let grace = guard.watchdog_grace();
                let Front {
                    scheduler,
                    tracer,
                    queue_wait_ms,
                    ..
                } = &mut *guard;
                // Advance the trace clock once per tick: record timestamps
                // are nanoseconds since start, quantized to the cycle.
                tracer.set_now(now);
                while scheduler.write_off_silent(now, grace, tracer).is_some() {}
                let dispatches = scheduler.run_cycle(cycle.as_secs_f64(), tracer);
                for d in &dispatches {
                    if let Some(wait) = queue_wait_ms.get_mut(d.subscriber.0 as usize) {
                        wait.observe(d.request.enqueued.elapsed().as_secs_f64() * 1e3);
                    }
                }
                dispatches
            };
            for d in dispatches {
                let Some(&addr) = backends.get(d.rpn.0 as usize) else {
                    continue;
                };
                let front = Arc::clone(&front);
                std::thread::spawn(move || dispatch_one(d, addr, &front));
            }
        });
    }

    // Control listener: registrations and reports.
    {
        let front = Arc::clone(&front);
        let backends = Arc::clone(&backends);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            let Ok((stream, _)) = control_listener.accept() else {
                break;
            };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let front = Arc::clone(&front);
            let backends = Arc::clone(&backends);
            std::thread::spawn(move || {
                let _ = control_conn(stream, &front, &backends);
            });
        });
    }

    Ok(FrontendHandle {
        http_addr,
        control_addr,
        front,
        stop,
    })
}

/// A client stream whose reads share one deadline: each read waits only
/// for the time left, so a byte that arrives does not restart the clock.
struct HeadReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for HeadReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn classify_and_enqueue(
    mut stream: TcpStream,
    front: &Mutex<Front>,
    registry: &SubscriberRegistry,
    read_timeout: Duration,
) -> std::io::Result<()> {
    // Bound the whole head read: a stalled or byte-dribbling client is
    // turned away instead of holding this thread (and its connection
    // slot) open.
    let mut reader = HeadReader {
        stream: &stream,
        deadline: Instant::now() + read_timeout,
    };
    let head = match read_request_head(&mut reader) {
        Ok((head, _rest)) => head,
        Err(crate::http::HttpError::Io(e))
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            let _ = write_error_response(&mut stream, "408 Request Timeout");
            return Ok(());
        }
        Err(_) => {
            let _ = write_error_response(&mut stream, "400 Bad Request");
            return Ok(());
        }
    };
    // The head is in; splice relies on blocking reads from here on.
    let _ = stream.set_read_timeout(None);
    let Some(host) = request_host(&head.path, head.headers.get("host").map(String::as_str)) else {
        let _ = write_error_response(&mut stream, "400 Bad Request");
        return Ok(());
    };
    let Some(sub) = registry.classify_host(&host) else {
        let _ = write_error_response(&mut stream, "404 Not Found");
        return Ok(());
    };
    let size = head.size_hint().unwrap_or(6 * 1024);
    let rejected = {
        let mut guard = lock(front);
        let Front {
            scheduler,
            tracer,
            next_req,
            ..
        } = &mut *guard;
        let req = *next_req;
        *next_req += 1;
        tracer.emit(TraceEvent::ReqArrival { sub: sub.0, req });
        let queued = QueuedConn {
            stream,
            head,
            size,
            req,
            enqueued: Instant::now(),
        };
        let rejected = scheduler.enqueue(sub, queued, tracer).err();
        if rejected.is_some() {
            tracer.emit(TraceEvent::ReqDropped { sub: sub.0, req });
        }
        rejected
    };
    if let Some(mut rejected) = rejected {
        // Queue full: this is the paper's "dropped" outcome.
        let _ = write_error_response(&mut rejected.stream, "503 Service Unavailable");
    }
    Ok(())
}

/// Relays one dispatched connection to its back end and traces it served
/// once the relay returns. A back end that refuses the connection or the
/// head bounces the dispatch: the scheduler refunds it and puts it back at
/// the head of its queue, or, if that queue has filled since, the client
/// is answered 503 as at arrival.
fn dispatch_one(dispatch: Dispatch<QueuedConn>, backend_addr: SocketAddr, front: &Mutex<Front>) {
    let Dispatch {
        subscriber: sub,
        rpn,
        predicted,
        request: mut conn,
        ..
    } = dispatch;
    let started = Instant::now();
    // Forward the head with Gage's bookkeeping headers, keeping the
    // client's own for a re-dispatch.
    let mut head = conn.head.clone();
    head.headers
        .insert("x-gage-sub".to_string(), sub.0.to_string());
    head.headers
        .insert("x-gage-pred".to_string(), format_pred(predicted));
    head.headers
        .insert("x-size".to_string(), conn.size.to_string());
    let upstream = TcpStream::connect(backend_addr).and_then(|mut upstream| {
        upstream.write_all(&head.to_bytes())?;
        Ok(upstream)
    });
    let Ok(upstream) = upstream else {
        conn.enqueued = Instant::now();
        let mut guard = lock(front);
        let Front {
            scheduler, tracer, ..
        } = &mut *guard;
        if let Err(mut conn) = scheduler.bounce(sub, rpn, predicted, conn, tracer) {
            tracer.emit(TraceEvent::ReqDropped {
                sub: sub.0,
                req: conn.req,
            });
            drop(guard);
            let _ = write_error_response(&mut conn.stream, "503 Service Unavailable");
        }
        return;
    };
    // Application-level splice until both sides close.
    let _ = splice(&conn.stream, &upstream);
    let mut front = lock(front);
    front.tracer.emit(TraceEvent::ReqServed {
        sub: sub.0,
        req: conn.req,
    });
    front
        .service_ms
        .observe(started.elapsed().as_secs_f64() * 1e3);
}

fn control_conn(
    stream: TcpStream,
    front: &Mutex<Front>,
    backends: &[SocketAddr],
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut rpn: Option<RpnId> = None;
    while let Some(msg) = recv_msg(&mut reader)? {
        match msg {
            ControlMsg::Register {
                http_addr,
                accounting_cycle,
            } => {
                rpn = http_addr
                    .parse::<SocketAddr>()
                    .ok()
                    .and_then(|addr| backends.iter().position(|b| *b == addr))
                    .map(|i| RpnId(i as u16));
                if rpn.is_some() {
                    let mut front = lock(front);
                    let longest = front
                        .longest_cycle
                        .map_or(accounting_cycle, |c| c.max(accounting_cycle));
                    front.longest_cycle = Some(longest);
                }
            }
            ControlMsg::Report { mut report } => {
                let Some(rpn) = rpn else {
                    continue; // unregistered peer: ignore
                };
                report.rpn = rpn;
                let mut guard = lock(front);
                let now = guard.now();
                let Front {
                    scheduler, tracer, ..
                } = &mut *guard;
                scheduler.on_report(now, &report, tracer);
            }
        }
    }
    Ok(())
}
