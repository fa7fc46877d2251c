//! Per-request causal timelines reconstructed from a trace ring.
//!
//! A [`TraceRing`] holds a flat, time-ordered stream of events from every
//! subsystem at once. This module folds that stream back into one [`Span`]
//! per request — arrival → classify → enqueue → dispatch → splice →
//! terminal state, including crash-era requeues and client retries — with
//! per-stage durations (queue wait, service, splice legs, retry backoff),
//! the same request-path accounting Magpie/X-Trace apply to real systems,
//! here exact because the stream is deterministic. The same pass collects
//! the cluster-level series the auditor needs: reservations, reservation
//! scale changes and the scheduler-cycle clock.
//!
//! The reconstruction enforces a hard invariant: **every request resolves
//! into at most one terminal state** (`req_served`, `req_dropped` or
//! `request_failed` — exactly the three conservation buckets of
//! `SubscriberMetrics`). A second terminal for the same request id is a
//! reconstruction error; a request with no terminal is *unterminated* and
//! reported so callers (the `gage-audit` binary, the CI smoke job) can fail
//! on it.
//!
//! The fold is one `match` on [`TraceEvent`] that names every variant — no
//! `_ =>` wildcard — so a newly added trace kind is a compile error here
//! until someone decides how the auditor should treat it (`fold` denies
//! `clippy::wildcard_enum_match_arm`).

use crate::{TraceEvent, TraceRecord, TraceRing};

/// The three ways a request's timeline can end, mirroring the
/// `offered == served + dropped + failed` conservation buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Terminal {
    /// The client received its response.
    Served,
    /// The request was refused at admission (queue full → RST).
    Dropped,
    /// The client exhausted its retries.
    Failed,
}

impl Terminal {
    /// Stable snake_case tag for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Terminal::Served => "served",
            Terminal::Dropped => "dropped",
            Terminal::Failed => "failed",
        }
    }
}

/// One request's reconstructed timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request's run-wide id.
    pub req: u64,
    /// The owning subscriber.
    pub sub: u32,
    /// When the client issued the request (`req_arrival`), ns.
    pub arrival_ns: u64,
    /// How (and when, ns) the timeline ended; `None` while in flight.
    pub terminal: Option<(Terminal, u64)>,
    /// Attempts made: 1 + observed `request_retry` records.
    pub attempts: u32,
    /// Crash-era `dispatch_requeue` interceptions.
    pub requeues: u32,
    /// Scheduler queue-full drops observed (each leads to an RST and then
    /// either a retry or the `Dropped` terminal).
    pub sched_drops: u32,
    /// Total time spent waiting in a subscriber queue (every enqueue or
    /// requeue → the dispatch that drained it), ns.
    pub queue_wait_ns: u64,
    /// Total RPN service time (splice setup → teardown, summed over
    /// attempts), ns.
    pub service_ns: u64,
    /// Network/splice legs: dispatch → splice setup, plus last teardown →
    /// the served terminal, ns.
    pub splice_ns: u64,
    /// Dead time between a retry decision and the attempt re-entering a
    /// subscriber queue (client timeout backoff + resend), ns.
    pub retry_backoff_ns: u64,
    /// Trace records folded into this span.
    pub records: u32,
}

impl Span {
    /// End-to-end latency (arrival → terminal), ns; `None` while in flight.
    pub fn latency_ns(&self) -> Option<u64> {
        self.terminal
            .map(|(_, at)| at.saturating_sub(self.arrival_ns))
    }
}

/// Per-subscriber span totals, shaped exactly like the
/// `SubscriberMetrics` conservation buckets for field-for-field
/// cross-checking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Requests issued (`req_arrival` records).
    pub offered: u64,
    /// Spans ending in [`Terminal::Served`].
    pub served: u64,
    /// Spans ending in [`Terminal::Dropped`].
    pub dropped: u64,
    /// Spans ending in [`Terminal::Failed`].
    pub failed: u64,
}

impl SpanTotals {
    /// Whether every offered request reached a terminal state.
    pub fn conserved(&self) -> bool {
        self.offered == self.served + self.dropped + self.failed
    }
}

/// The result of folding a ring: all spans, ordered by request id, and the
/// cluster-level series the span fold has no request to attach to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanReport {
    /// One span per request id seen in the ring, ascending by id.
    pub spans: Vec<Span>,
    /// `(sub, grps, shard)` from `reservation` records, in ring order.
    pub reservations: Vec<(u32, f64, u16)>,
    /// `(t_ns, scale)` from `reservation_scale` records, in ring order.
    pub scales: Vec<(u64, f64)>,
    /// `(t_ns, cycle)` from `sched_cycle` records, in ring order.
    pub cycles: Vec<(u64, u64)>,
}

impl SpanReport {
    /// Request ids that never reached a terminal state (still in flight at
    /// dump time). Empty on a run that drained completely.
    pub fn unterminated(&self) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.terminal.is_none())
            .map(|s| s.req)
            .collect()
    }

    /// Subscriber ids present, ascending.
    pub fn subscribers(&self) -> Vec<u32> {
        let mut subs: Vec<u32> = self.spans.iter().map(|s| s.sub).collect();
        subs.sort_unstable();
        subs.dedup();
        subs
    }

    /// Conservation totals for one subscriber.
    pub fn totals_for(&self, sub: u32) -> SpanTotals {
        let mut t = SpanTotals::default();
        for s in self.spans.iter().filter(|s| s.sub == sub) {
            t.offered += 1;
            match s.terminal {
                Some((Terminal::Served, _)) => t.served += 1,
                Some((Terminal::Dropped, _)) => t.dropped += 1,
                Some((Terminal::Failed, _)) => t.failed += 1,
                None => {}
            }
        }
        t
    }
}

/// Mutable fold state for one request, turned into a [`Span`] at the end.
#[derive(Debug, Clone)]
struct SpanState {
    span: Span,
    last_enqueue_ns: Option<u64>,
    last_dispatch_ns: Option<u64>,
    splice_open_ns: Option<u64>,
    last_teardown_ns: Option<u64>,
    retry_pending_ns: Option<u64>,
}

impl SpanState {
    fn new(req: u64, sub: u32, arrival_ns: u64) -> SpanState {
        SpanState {
            span: Span {
                req,
                sub,
                arrival_ns,
                terminal: None,
                attempts: 1,
                requeues: 0,
                sched_drops: 0,
                queue_wait_ns: 0,
                service_ns: 0,
                splice_ns: 0,
                retry_backoff_ns: 0,
                records: 1,
            },
            last_enqueue_ns: None,
            last_dispatch_ns: None,
            splice_open_ns: None,
            last_teardown_ns: None,
            retry_pending_ns: None,
        }
    }

    fn terminate(&mut self, how: Terminal, at: u64) -> Result<(), String> {
        if let Some((prev, prev_at)) = self.span.terminal {
            return Err(format!(
                "req {}: second terminal {} at {}ns after {} at {}ns",
                self.span.req,
                how.as_str(),
                at,
                prev.as_str(),
                prev_at
            ));
        }
        if how == Terminal::Served {
            if let Some(td) = self.last_teardown_ns {
                self.span.splice_ns += at.saturating_sub(td);
            }
        }
        self.span.terminal = Some((how, at));
        Ok(())
    }
}

/// Folds a ring's records into spans and the cluster-level series.
///
/// # Errors
///
/// Returns a message naming the offending record if the ring overwrote
/// history (the timelines would be missing their oldest records), a
/// request id arrives twice or is out of range, a request-scoped record
/// comes before its `req_arrival`, or a request lands a second terminal
/// state.
pub fn reconstruct(ring: &TraceRing) -> Result<SpanReport, String> {
    if ring.overwritten() > 0 {
        return Err(format!(
            "ring overwrote {} records; timelines would be incomplete \
             (re-run with a larger trace capacity)",
            ring.overwritten()
        ));
    }
    let mut report = SpanReport::default();
    // Request ids count up from 0, one `req_arrival` each, so no id reaches
    // the ring's length, and a Vec indexed by id is both the natural store
    // and deterministic.
    let mut states: Vec<Option<SpanState>> = Vec::new();
    for (i, rec) in ring.iter().enumerate() {
        fold(&mut report, &mut states, ring.len(), rec).map_err(|e| format!("record {i}: {e}"))?;
    }
    report.spans = states.into_iter().flatten().map(|s| s.span).collect();
    Ok(report)
}

/// Folds one record into the report, or into the state of the request it
/// is about.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn fold(
    report: &mut SpanReport,
    states: &mut Vec<Option<SpanState>>,
    ring_len: usize,
    rec: &TraceRecord,
) -> Result<(), String> {
    let t = rec.at.as_nanos();
    match rec.event {
        TraceEvent::SchedCycle { cycle, .. } => report.cycles.push((t, cycle)),
        TraceEvent::ReservationScale { scale } => report.scales.push((t, scale)),
        TraceEvent::Reservation { sub, grps, shard } => {
            report.reservations.push((sub, grps, shard));
        }
        // The other cluster-level records carry no single request's
        // identity, and the auditor reads none of them.
        TraceEvent::AcctReport { .. }
        | TraceEvent::NodeLoad { .. }
        | TraceEvent::NodeDown { .. }
        | TraceEvent::NodeUp { .. }
        | TraceEvent::RpnCrash { .. }
        | TraceEvent::RpnRecover { .. }
        | TraceEvent::RoutesPurged { .. }
        | TraceEvent::QueueStats { .. }
        | TraceEvent::RdnCrash { .. }
        | TraceEvent::RdnRecover { .. }
        | TraceEvent::ReportGossip { .. }
        | TraceEvent::ShardTakeover { .. }
        | TraceEvent::AcctMerge { .. } => {}
        TraceEvent::ReqArrival { sub, req } => {
            if req >= ring_len as u64 {
                return Err(format!(
                    "req {req} out of range: ids count up from 0, one per \
                     req_arrival, and the ring holds {ring_len} records"
                ));
            }
            let idx = req as usize;
            if states.len() <= idx {
                states.resize(idx + 1, None);
            }
            if states[idx].is_some() {
                return Err(format!("req {req}: duplicate req_arrival"));
            }
            states[idx] = Some(SpanState::new(req, sub, t));
        }
        TraceEvent::Enqueue { req, .. } => {
            let s = state_of(states, req, rec)?;
            s.last_enqueue_ns = Some(t);
            if let Some(r) = s.retry_pending_ns.take() {
                s.span.retry_backoff_ns += t.saturating_sub(r);
            }
        }
        TraceEvent::Drop { req, .. } => state_of(states, req, rec)?.span.sched_drops += 1,
        TraceEvent::Dispatch { req, .. } => {
            let s = state_of(states, req, rec)?;
            if let Some(e) = s.last_enqueue_ns.take() {
                s.span.queue_wait_ns += t.saturating_sub(e);
            }
            s.last_dispatch_ns = Some(t);
        }
        TraceEvent::DispatchRequeued { req, .. } => {
            // The dispatch was intercepted en route to a dead node and
            // put back at the queue head: queue waiting resumes now.
            let s = state_of(states, req, rec)?;
            s.span.requeues += 1;
            s.last_enqueue_ns = Some(t);
            s.last_dispatch_ns = None;
        }
        TraceEvent::SpliceSetup { req, .. } => {
            let s = state_of(states, req, rec)?;
            if let Some(d) = s.last_dispatch_ns.take() {
                s.span.splice_ns += t.saturating_sub(d);
            }
            s.splice_open_ns = Some(t);
        }
        TraceEvent::SpliceTeardown { req, .. } => {
            let s = state_of(states, req, rec)?;
            if let Some(open) = s.splice_open_ns.take() {
                s.span.service_ns += t.saturating_sub(open);
            }
            s.last_teardown_ns = Some(t);
        }
        TraceEvent::ReqComplete { req, .. } => {
            state_of(states, req, rec)?;
        }
        TraceEvent::RequestRetry { req, .. } => {
            let s = state_of(states, req, rec)?;
            s.span.attempts += 1;
            s.retry_pending_ns = Some(t);
            // The timed-out attempt's partial stage markers are stale.
            s.last_enqueue_ns = None;
            s.last_dispatch_ns = None;
            s.splice_open_ns = None;
        }
        TraceEvent::ReqServed { req, .. } => {
            state_of(states, req, rec)?.terminate(Terminal::Served, t)?;
        }
        TraceEvent::ReqDropped { req, .. } => {
            state_of(states, req, rec)?.terminate(Terminal::Dropped, t)?;
        }
        TraceEvent::RequestFailed { req, .. } => {
            state_of(states, req, rec)?.terminate(Terminal::Failed, t)?;
        }
    }
    Ok(())
}

/// The state a request-scoped record continues, with the record counted;
/// `req_arrival` must come first because ids are born there.
fn state_of<'a>(
    states: &'a mut [Option<SpanState>],
    req: u64,
    rec: &TraceRecord,
) -> Result<&'a mut SpanState, String> {
    let state = usize::try_from(req)
        .ok()
        .and_then(|idx| states.get_mut(idx))
        .and_then(Option::as_mut)
        .ok_or_else(|| format!("req {req}: {} before req_arrival", rec.event.kind()))?;
    state.span.records += 1;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gage_des::SimTime;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// A hand-written lifecycle: arrival at 0, enqueue at 1, dispatch at 4,
    /// splice 5..=9, served at 11.
    #[test]
    fn happy_path_stages_add_up() {
        let mut t = TraceRing::new(64);
        t.push(ms(0), TraceEvent::ReqArrival { sub: 2, req: 0 });
        t.push(
            ms(1),
            TraceEvent::Enqueue {
                sub: 2,
                req: 0,
                backlog: 1,
            },
        );
        t.push(
            ms(4),
            TraceEvent::Dispatch {
                sub: 2,
                req: 0,
                rpn: 1,
                spare: false,
                predicted_cpu_us: 10.0,
                balance_cpu_us: 1.0,
            },
        );
        t.push(
            ms(5),
            TraceEvent::SpliceSetup {
                req: 0,
                client_ip: 1,
                client_port: 2,
                rpn_ip: 3,
                seq_delta: 4,
            },
        );
        t.push(
            ms(9),
            TraceEvent::SpliceTeardown {
                req: 0,
                client_ip: 1,
                client_port: 2,
            },
        );
        t.push(
            ms(9),
            TraceEvent::ReqComplete {
                sub: 2,
                req: 0,
                rpn: 1,
            },
        );
        t.push(ms(11), TraceEvent::ReqServed { sub: 2, req: 0 });
        let rep = reconstruct(&t).expect("reconstructs");
        assert_eq!(rep.spans.len(), 1);
        let s = &rep.spans[0];
        assert_eq!(s.sub, 2);
        assert_eq!(s.terminal, Some((Terminal::Served, 11_000_000)));
        assert_eq!(s.latency_ns(), Some(11_000_000));
        assert_eq!(s.queue_wait_ns, 3_000_000, "enqueue 1ms -> dispatch 4ms");
        assert_eq!(s.service_ns, 4_000_000, "splice open 5ms -> 9ms");
        assert_eq!(
            s.splice_ns, 3_000_000,
            "dispatch->setup 1ms + teardown->served 2ms"
        );
        assert_eq!(s.attempts, 1);
        assert!(rep.unterminated().is_empty());
        let totals = rep.totals_for(2);
        assert_eq!(totals.offered, 1);
        assert_eq!(totals.served, 1);
        assert!(totals.conserved());
    }

    #[test]
    fn retry_and_requeue_accumulate() {
        let mut t = TraceRing::new(64);
        t.push(ms(0), TraceEvent::ReqArrival { sub: 0, req: 0 });
        t.push(
            ms(1),
            TraceEvent::Enqueue {
                sub: 0,
                req: 0,
                backlog: 1,
            },
        );
        // Crash-era interception: back to the queue head at 3ms.
        t.push(
            ms(2),
            TraceEvent::Dispatch {
                sub: 0,
                req: 0,
                rpn: 1,
                spare: false,
                predicted_cpu_us: 1.0,
                balance_cpu_us: 0.0,
            },
        );
        t.push(
            ms(3),
            TraceEvent::DispatchRequeued {
                sub: 0,
                req: 0,
                rpn: 1,
            },
        );
        // Client times out at 10ms, retries; new attempt enqueued at 14ms.
        t.push(
            ms(10),
            TraceEvent::RequestRetry {
                sub: 0,
                req: 0,
                attempt: 1,
            },
        );
        t.push(
            ms(14),
            TraceEvent::Enqueue {
                sub: 0,
                req: 0,
                backlog: 1,
            },
        );
        t.push(
            ms(15),
            TraceEvent::Dispatch {
                sub: 0,
                req: 0,
                rpn: 0,
                spare: false,
                predicted_cpu_us: 1.0,
                balance_cpu_us: 0.0,
            },
        );
        t.push(ms(20), TraceEvent::ReqServed { sub: 0, req: 0 });
        let rep = reconstruct(&t).expect("reconstructs");
        let s = &rep.spans[0];
        assert_eq!(s.attempts, 2);
        assert_eq!(s.requeues, 1);
        assert_eq!(s.retry_backoff_ns, 4_000_000, "retry 10ms -> enqueue 14ms");
        // enqueue 1 -> dispatch 2 (1ms) + requeue 3 -> retry void, then
        // enqueue 14 -> dispatch 15 (1ms).
        assert_eq!(s.queue_wait_ns, 2_000_000);
    }

    #[test]
    fn double_terminal_is_an_error() {
        let mut t = TraceRing::new(16);
        t.push(ms(0), TraceEvent::ReqArrival { sub: 0, req: 0 });
        t.push(ms(1), TraceEvent::ReqServed { sub: 0, req: 0 });
        t.push(ms(2), TraceEvent::ReqDropped { sub: 0, req: 0 });
        let err = reconstruct(&t).expect_err("double terminal");
        assert!(err.contains("second terminal"), "{err}");
    }

    #[test]
    fn orphan_and_inflight_are_distinguished() {
        // A request-scoped record before its arrival is a hard error...
        let mut t = TraceRing::new(16);
        t.push(ms(1), TraceEvent::ReqServed { sub: 0, req: 7 });
        let err = reconstruct(&t).expect_err("orphan");
        assert!(err.contains("before req_arrival"), "{err}");
        // ...while an arrival with no terminal is merely unterminated.
        let mut t = TraceRing::new(16);
        t.push(ms(0), TraceEvent::ReqArrival { sub: 0, req: 0 });
        let rep = reconstruct(&t).expect("valid");
        assert_eq!(rep.unterminated(), vec![0]);
        assert!(!rep.totals_for(0).conserved());
    }

    #[test]
    fn request_ids_past_the_ring_are_rejected_before_allocating() {
        for req in [100_000_000, 1 << 53, u64::MAX] {
            let mut t = TraceRing::new(2);
            t.push(ms(0), TraceEvent::ReqArrival { sub: 0, req });
            let err = reconstruct(&t).expect_err("hostile id");
            assert!(
                err.starts_with(&format!("record 0: req {req} out of range")),
                "{err}"
            );
        }
    }

    #[test]
    fn overwritten_ring_is_rejected() {
        let mut t = TraceRing::new(2);
        for req in 0..4 {
            t.push(ms(req), TraceEvent::ReqArrival { sub: 0, req });
        }
        let err = reconstruct(&t).expect_err("lossy ring");
        assert!(err.contains("overwrote"), "{err}");
    }
}
