//! The client role: open-loop request issue from the site traces, a
//! per-attempt timeout with bounded retries, and the terminal outcome of
//! every logical request — served, dropped or failed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

use gage_collections::{Slab, SlabKey};
use gage_des::{Context, EventId, SimTime};
use gage_net::addr::{Endpoint, FourTuple, Port};
use gage_obs::TraceEvent;
use gage_workload::Trace;

use super::{Ev, World};

/// The clients' open-loop arrivals, merged into the event loop at pop time
/// (see [`gage_des::Model::next_arrival`]) instead of queued up front.
///
/// One heap entry per site with entries left — `(issue ns, site, entry
/// index)` — is that site's cursor into the trace [`World`] owns, so the
/// source costs O(sites) however long the traces run. Issues come out in
/// `(time, site, entry)` order: at one instant the lower site goes first,
/// and within a site the earlier entry. Each trace must be sorted by
/// `at_us`.
#[derive(Debug, Default)]
pub(super) struct Arrivals {
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
}

impl Arrivals {
    /// Points every site's cursor at its first entry.
    pub(super) fn new(traces: &[Trace]) -> Self {
        let mut arrivals = Arrivals::default();
        for sub in 0..traces.len() {
            arrivals.enter(traces, sub as u32, 0);
        }
        arrivals
    }

    /// Queues entry `idx` of `sub`'s trace, if the trace has one.
    /// Saturating keeps a sorted trace's issue times in order even for an
    /// `at_us` past the nanosecond clock's range.
    fn enter(&mut self, traces: &[Trace], sub: u32, idx: u32) {
        if let Some(e) = traces[sub as usize].entries.get(idx as usize) {
            self.heap
                .push(Reverse((e.at_us.saturating_mul(1_000), sub, idx)));
        }
    }

    /// When the next issue fires.
    pub(super) fn next_at(&self) -> Option<SimTime> {
        self.heap
            .peek()
            .map(|&Reverse((at, _, _))| SimTime::from_nanos(at))
    }

    /// Takes the next issue and advances its site's cursor.
    pub(super) fn pop(&mut self, traces: &[Trace]) -> Option<Ev> {
        let Reverse((_, sub, idx)) = self.heap.pop()?;
        self.enter(traces, sub, idx + 1);
        Some(Ev::Issue { sub, idx })
    }
}

/// What an outstanding client connection is requesting. The URL itself is
/// never copied: `idx` points back into the subscriber's immutable trace,
/// and the front, its queue and the RPN lane all carry the index, so the
/// path is read from the trace where it is needed and issuing (and
/// re-issuing on retry) allocates nothing.
#[derive(Debug, Clone, Copy)]
pub(super) struct UrlInfo {
    /// Trace entry index within the owning subscriber's trace.
    pub(super) idx: u32,
    /// Run-wide logical request id (stable across retries).
    pub(super) req: u64,
}

/// A client's record of one outstanding request attempt.
#[derive(Debug, Clone, Copy)]
struct PendingClientReq {
    /// What the attempt is requesting.
    url: UrlInfo,
    /// When the *first* attempt was issued; latency on eventual success
    /// spans retries.
    first_issued: SimTime,
    /// 0 for the initial send, incremented per retry.
    attempt: u32,
    /// The attempt's client→cluster connection.
    conn: FourTuple,
    /// The armed [`Ev::ClientTimeout`], cancelled when the request resolves;
    /// `None` only while the attempt is being issued.
    timeout: Option<EventId>,
}

/// One subscriber's clients.
#[derive(Debug, Default)]
pub(super) struct ClientSide {
    /// Outstanding request attempts. Every event about an attempt carries
    /// its handle, and a retry takes a fresh one, so a resolved attempt's
    /// late events no longer resolve.
    pending: Slab<PendingClientReq>,
    issued: u64,
}

/// Endpoint a subscriber's client uses for its `n`-th request. Each
/// subscriber owns a /24 of client addresses so the ephemeral-port space
/// never collides within a run.
fn client_endpoint(sub: u32, n: u64) -> Endpoint {
    let ip_idx = ((n / 60_000) % 250) as u8;
    let port = 1_024 + (n % 60_000) as u16;
    Endpoint::new(
        Ipv4Addr::new(10, 10 + (sub / 250) as u8, (sub % 250) as u8, ip_idx + 2),
        Port::new(port),
    )
}

impl World {
    pub(super) fn on_issue(&mut self, ctx: &mut Context<'_, Ev>, sub: u32, idx: u32) {
        let req = self.next_req;
        self.next_req += 1;
        // `offered` counts logical requests once; retries re-send without
        // re-counting, so offered == served + dropped + failed holds exactly.
        self.metrics[sub as usize].offered.record(ctx.now(), 1.0);
        self.tracer.emit(TraceEvent::ReqArrival { sub, req });
        let first_issued = ctx.now();
        self.issue_request(ctx, sub, UrlInfo { idx, req }, first_issued, 0);
    }

    /// Sends attempt `attempt` of a request: opens a fresh connection, arms
    /// the per-attempt timeout (base timeout × backoff^attempt) and starts
    /// the first-leg exchange. The SYN / SYN-ACK / ACK+URL volley is three
    /// network hops, so the URL reaches the RDN at `now + 3·hop`.
    fn issue_request(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        sub: u32,
        url: UrlInfo,
        first_issued: SimTime,
        attempt: u32,
    ) {
        let client = &mut self.clients[sub as usize];
        let n = client.issued;
        client.issued += 1;
        let conn = FourTuple::new(client_endpoint(sub, n), self.cluster_ep);
        let key = client.pending.insert(PendingClientReq {
            url,
            first_issued,
            attempt,
            conn,
            timeout: None,
        });
        // The timer is scheduled before the URL exchange: sequence numbers
        // break same-instant ties.
        let retry = self.params.client_retry;
        let timeout_in = retry.timeout.mul_f64(retry.backoff.powi(attempt as i32));
        let timeout = ctx.schedule_in(timeout_in, Ev::ClientTimeout { sub, pending: key });
        if let Some(p) = client.pending.get_mut(key) {
            p.timeout = Some(timeout);
        }
        self.isn_counter = self.isn_counter.wrapping_add(64_223);
        ctx.schedule_in(self.hop() * 3, Ev::UrlArrive { sub, pending: key });
    }

    /// What attempt `key` of `sub`'s clients requests, and on which
    /// connection, if it is still outstanding — read by the front when the
    /// first leg completes.
    pub(super) fn pending_url(&self, sub: u32, key: SlabKey) -> Option<(UrlInfo, FourTuple)> {
        self.clients[sub as usize]
            .pending
            .get(key)
            .map(|p| (p.url, p.conn))
    }

    pub(super) fn on_client_timeout(&mut self, ctx: &mut Context<'_, Ev>, sub: u32, key: SlabKey) {
        let Some(entry) = self.clients[sub as usize].pending.remove(key) else {
            return; // resolved (served or reset) before the timer fired
        };
        let (url, attempt) = (entry.url, entry.attempt);
        if attempt < self.params.client_retry.max_retries {
            self.tracer.emit(TraceEvent::RequestRetry {
                sub,
                req: url.req,
                attempt: attempt + 1,
            });
            self.issue_request(ctx, sub, url, entry.first_issued, attempt + 1);
            return;
        }
        // Out of retries: the request terminally fails at the client.
        self.metrics[sub as usize].failed.record(ctx.now(), 1.0);
        self.tracer.emit(TraceEvent::RequestFailed {
            sub,
            req: url.req,
            attempts: attempt + 1,
        });
    }

    /// An RST from the RDN (queue overflow, unknown host, unrecoverable
    /// dispatch): the request resolves as dropped and its retry timer is
    /// disarmed.
    pub(super) fn on_client_rst(&mut self, ctx: &mut Context<'_, Ev>, sub: u32, key: SlabKey) {
        if let Some(entry) = self.clients[sub as usize].pending.remove(key) {
            if let Some(timeout) = entry.timeout {
                ctx.cancel(timeout);
            }
            self.metrics[sub as usize].dropped.record(ctx.now(), 1.0);
            self.tracer.emit(TraceEvent::ReqDropped {
                sub,
                req: entry.url.req,
            });
        }
    }

    pub(super) fn on_response_arrive(&mut self, ctx: &mut Context<'_, Ev>, sub: u32, key: SlabKey) {
        if let Some(entry) = self.clients[sub as usize].pending.remove(key) {
            if let Some(timeout) = entry.timeout {
                ctx.cancel(timeout);
            }
            let latency = ctx.now().saturating_since(entry.first_issued);
            self.metrics[sub as usize].served.record(ctx.now(), 1.0);
            self.metrics[sub as usize]
                .latency_ms
                .observe(latency.as_secs_f64() * 1e3);
            self.tracer.emit(TraceEvent::ReqServed {
                sub,
                req: entry.url.req,
            });
        }
    }
}
