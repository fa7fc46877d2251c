//! The client role: open-loop request issue from the site traces, a
//! per-attempt timeout with bounded retries, and the terminal outcome of
//! every logical request — served, dropped or failed.

use std::net::Ipv4Addr;

use gage_collections::DetMap;
use gage_des::{Context, EventId, SimTime};
use gage_net::addr::{Endpoint, FourTuple, Port};
use gage_obs::TraceEvent;

use super::{Ev, World};

/// What an outstanding client connection is requesting. The URL itself is
/// not copied here: `idx` points back into the subscriber's immutable
/// trace, so issuing (and re-issuing on retry) allocates nothing.
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
    /// The armed [`Ev::ClientTimeout`], cancelled when the request resolves.
    timeout: EventId,
}

/// One subscriber's clients.
#[derive(Debug, Default)]
pub(super) struct ClientSide {
    /// Outstanding requests keyed by their client→cluster tuple.
    pending: DetMap<FourTuple, PendingClientReq>,
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
        let retry = self.params.client_retry;
        let timeout_in = retry.timeout.mul_f64(retry.backoff.powi(attempt as i32));
        let timeout = ctx.schedule_in(timeout_in, Ev::ClientTimeout { sub, conn, attempt });
        client.pending.insert(
            conn,
            PendingClientReq {
                url,
                first_issued,
                attempt,
                timeout,
            },
        );
        self.isn_counter = self.isn_counter.wrapping_add(64_223);
        ctx.schedule_in(self.hop() * 3, Ev::UrlArrive { sub, conn });
    }

    /// What attempt `conn` of `sub`'s clients requests, if it is still
    /// outstanding — read by the front when the first leg completes.
    pub(super) fn pending_url(&self, sub: u32, conn: FourTuple) -> Option<UrlInfo> {
        self.clients[sub as usize].pending.get(&conn).map(|p| p.url)
    }

    pub(super) fn on_client_timeout(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        sub: u32,
        conn: FourTuple,
        attempt: u32,
    ) {
        let Some(entry) = self.clients[sub as usize].pending.get(&conn).copied() else {
            return; // resolved (served or reset) before the timer fired
        };
        if entry.attempt != attempt {
            return; // stale timer from an earlier attempt on a reused tuple
        }
        self.clients[sub as usize].pending.remove(&conn);
        let url = entry.url;
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
    pub(super) fn on_client_rst(&mut self, ctx: &mut Context<'_, Ev>, sub: u32, conn: FourTuple) {
        if let Some(entry) = self.clients[sub as usize].pending.remove(&conn) {
            ctx.cancel(entry.timeout);
            self.metrics[sub as usize].dropped.record(ctx.now(), 1.0);
            self.tracer.emit(TraceEvent::ReqDropped {
                sub,
                req: entry.url.req,
            });
        }
    }

    pub(super) fn on_response_arrive(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        sub: u32,
        conn: FourTuple,
    ) {
        if let Some(entry) = self.clients[sub as usize].pending.remove(&conn) {
            ctx.cancel(entry.timeout);
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
