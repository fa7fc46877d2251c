//! The structured trace ring: typed records, a fixed-capacity overwriting
//! buffer, and the [`Tracer`] subsystems emit through.
//!
//! Design constraints (see DESIGN.md §11):
//!
//! * **Zero allocation on the hot path** — a [`TraceEvent`] is a `Copy`
//!   enum of plain scalars; emitting writes one record into a slot of a
//!   buffer allocated once at enable time. Strings appear only at dump
//!   time.
//! * **Deterministic** — records are stamped with [`SimTime`] (set by the
//!   simulation loop via [`Tracer::set_now`]), never a wall clock, so two
//!   same-seed runs produce byte-identical dumps.
//! * **Cheaply disableable** — a disabled [`Tracer`] holds no ring; every
//!   emit is a single branch and the ring is never allocated.

use gage_des::SimTime;
use gage_json::Json;

/// One typed trace record payload.
///
/// Every variant is `Copy` and scalar-only: emitting must not allocate.
/// Endpoint addresses are carried as raw `u32` IPv4 bits + port so this
/// crate needs no dependency on `gage-net`.
///
/// Request-lifecycle variants carry a `req` id: a per-run monotonically
/// assigned request identifier threaded end-to-end (client issue → RDN →
/// RPN → splice → resolution) so the [`crate::spans`] reconstructor can
/// fold a dump back into per-request causal timelines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// One scheduler cycle finished (`RequestScheduler::run_cycle_into`).
    SchedCycle {
        /// Monotonic cycle number since scheduler construction.
        cycle: u64,
        /// Requests dispatched this cycle (reserved + spare).
        dispatched: u32,
        /// How many of those were funded by the spare pass.
        spare: u32,
        /// Total backlog across all subscriber queues after the cycle.
        backlog: u32,
    },
    /// One request left a subscriber queue for an RPN.
    Dispatch {
        /// The queue the request came from.
        sub: u32,
        /// The request's run-wide id (0 when the scheduler's request type
        /// carries no identity).
        req: u64,
        /// The chosen node.
        rpn: u16,
        /// Whether the spare pass (rather than the reservation) funded it.
        spare: bool,
        /// Predicted CPU cost booked for the request, µs.
        predicted_cpu_us: f64,
        /// The subscriber's CPU credit balance after booking, µs.
        balance_cpu_us: f64,
    },
    /// A classified request was accepted into a subscriber queue.
    Enqueue {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
        /// Queue length after the insert.
        backlog: u32,
    },
    /// A classified request was dropped because its queue was full.
    Drop {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
    },
    /// An RPN's local service manager built a splice for a connection.
    SpliceSetup {
        /// The request's run-wide id.
        req: u64,
        /// Client IPv4 address (raw bits).
        client_ip: u32,
        /// Client port.
        client_port: u16,
        /// Servicing RPN's IPv4 address (raw bits).
        rpn_ip: u32,
        /// `rdn_isn - rpn_isn` on the sequence circle.
        seq_delta: u32,
    },
    /// A spliced connection completed and its remap state was retired.
    SpliceTeardown {
        /// The request's run-wide id.
        req: u64,
        /// Client IPv4 address (raw bits).
        client_ip: u32,
        /// Client port.
        client_port: u16,
    },
    /// An RPN accounting report was reconciled at the RDN.
    AcctReport {
        /// The reporting node.
        rpn: u16,
        /// Per-subscriber lines in the report.
        subscribers: u32,
        /// Requests completed across all lines.
        completed: u32,
    },
    /// An RPN's load estimate after reconciling its report.
    NodeLoad {
        /// The node.
        rpn: u16,
        /// Estimated load fraction of the node's dispatch window, `[0, 1+]`.
        load: f64,
    },
    /// The report watchdog wrote a node off (no report within the grace
    /// window) and the scheduler stopped dispatching to it.
    NodeDown {
        /// The node written off.
        rpn: u16,
    },
    /// A written-off node's report arrived again and the scheduler resumed
    /// dispatching to it (the watchdog's symmetric up-path).
    NodeUp {
        /// The node readmitted.
        rpn: u16,
    },
    /// A fault plan fail-stopped an RPN: all its
    /// in-flight work is lost and its accounting chain goes silent.
    RpnCrash {
        /// The crashed node.
        rpn: u16,
    },
    /// A fault plan rebooted a crashed RPN: cold caches, fresh process
    /// table, accounting chain restarted.
    RpnRecover {
        /// The recovered node.
        rpn: u16,
    },
    /// A client request timed out and is being retried on a new connection
    /// (bounded deterministic backoff).
    RequestRetry {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id (stable across retries).
        req: u64,
        /// Retry attempt number just started (1 = first retry).
        attempt: u32,
    },
    /// A client request exhausted its retries and terminally failed — the
    /// third conservation bucket next to served and dropped.
    RequestFailed {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
        /// Total attempts made (initial try + retries).
        attempts: u32,
    },
    /// The RDN purged a written-off node's splice routes from its
    /// connection table.
    RoutesPurged {
        /// The node whose routes were removed.
        rpn: u16,
        /// Entries removed.
        count: u32,
    },
    /// A dispatch addressed to a dead node was intercepted and re-queued at
    /// the front of its subscriber's queue (its booking refunded).
    DispatchRequeued {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
        /// The dead node the dispatch was bound for.
        rpn: u16,
    },
    /// The scheduler re-scaled effective reservations because live capacity
    /// fell below (or recovered to cover) the sum of reservations.
    ReservationScale {
        /// Multiplier applied to every reservation this cycle, `(0, 1]`.
        scale: f64,
    },
    /// A client issued a request — the start of its causal timeline and the
    /// unit the conservation invariant counts (`offered`).
    ReqArrival {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
    },
    /// A client received its response — the `served` terminal state.
    ReqServed {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
    },
    /// A client's request was refused at admission (queue full, RST) —
    /// the `dropped` terminal state.
    ReqDropped {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
    },
    /// An RPN finished servicing a request (response handed to the NIC).
    /// Not a terminal state — the client still has to receive it.
    ReqComplete {
        /// The owning subscriber.
        sub: u32,
        /// The request's run-wide id.
        req: u64,
        /// The node that serviced it.
        rpn: u16,
    },
    /// A subscriber's configured reservation, emitted once when tracing is
    /// enabled so dumps are self-describing for the conformance auditor.
    Reservation {
        /// The subscriber.
        sub: u32,
        /// Reserved general requests per second.
        grps: f64,
        /// The RDN shard the subscriber is homed on (0 with one RDN).
        shard: u16,
    },
    /// Periodic snapshot of the DES event queue's operational counters
    /// (emitted every 64th scheduling cycle), so `tracedump --stats` can
    /// plot queue health over a run.
    QueueStats {
        /// Events pending in the queue at the snapshot.
        depth: u32,
        /// Lifetime events scheduled.
        scheduled: u64,
        /// Lifetime events cancelled before firing.
        cancelled: u64,
        /// Lifetime timing-wheel level cascades.
        cascades: u64,
    },
    /// A fault plan fail-stopped a front-end RDN: its scheduler state,
    /// connection routes and accounting epoch are lost; its subscriber
    /// shard fails over to a surviving peer after the watchdog grace.
    RdnCrash {
        /// The crashed front end.
        rdn: u16,
    },
    /// A fault plan rebooted a crashed RDN: fresh scheduler, new
    /// accounting epoch; its home shard fails back at the next cycle.
    RdnRecover {
        /// The recovered front end.
        rdn: u16,
    },
    /// One RDN gossiped its replicated accounting table to a peer.
    ReportGossip {
        /// The sending front end.
        from: u16,
        /// The receiving front end.
        to: u16,
        /// Rows in the gossiped snapshot.
        rows: u32,
    },
    /// A subscriber shard changed owner (failover to a surviving peer, or
    /// failback to its recovered home RDN).
    ShardTakeover {
        /// The shard that moved.
        shard: u16,
        /// The previous owner.
        from: u16,
        /// The new owner.
        to: u16,
        /// Subscribers in the shard.
        subs: u32,
    },
    /// A gossiped accounting snapshot was merged into a peer's table.
    AcctMerge {
        /// The merging front end.
        rdn: u16,
        /// The snapshot's sender.
        from: u16,
        /// Rows the merge actually changed (0 = duplicate delivery).
        changed: u32,
    },
}

impl TraceEvent {
    /// The subscriber this record is about, for per-subscriber filtering.
    pub fn subscriber(&self) -> Option<u32> {
        match self {
            TraceEvent::Dispatch { sub, .. }
            | TraceEvent::Enqueue { sub, .. }
            | TraceEvent::Drop { sub, .. }
            | TraceEvent::RequestRetry { sub, .. }
            | TraceEvent::RequestFailed { sub, .. }
            | TraceEvent::DispatchRequeued { sub, .. }
            | TraceEvent::ReqArrival { sub, .. }
            | TraceEvent::ReqServed { sub, .. }
            | TraceEvent::ReqDropped { sub, .. }
            | TraceEvent::ReqComplete { sub, .. }
            | TraceEvent::Reservation { sub, .. } => Some(*sub),
            _ => None,
        }
    }

    /// The request id this record is about, for per-request filtering.
    /// `None` for records not tied to one request. Id 0 is an ordinary
    /// request id: the first request of a run.
    pub fn request(&self) -> Option<u64> {
        match self {
            TraceEvent::Dispatch { req, .. }
            | TraceEvent::Enqueue { req, .. }
            | TraceEvent::Drop { req, .. }
            | TraceEvent::SpliceSetup { req, .. }
            | TraceEvent::SpliceTeardown { req, .. }
            | TraceEvent::RequestRetry { req, .. }
            | TraceEvent::RequestFailed { req, .. }
            | TraceEvent::DispatchRequeued { req, .. }
            | TraceEvent::ReqArrival { req, .. }
            | TraceEvent::ReqServed { req, .. }
            | TraceEvent::ReqDropped { req, .. }
            | TraceEvent::ReqComplete { req, .. } => Some(*req),
            _ => None,
        }
    }
}

/// Writes the dump codec of [`TraceEvent`] from one table: each variant's
/// kind tag, then its fields in dump order, each dumped under its own name.
/// The compiler checks the table against the enum: a variant or a field
/// left out of it fails to build.
macro_rules! trace_codec {
    ($($variant:ident $tag:literal { $($field:ident),+ })+) => {
        impl TraceEvent {
            /// Stable snake_case kind tag used in dumps and `tracedump` filters.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $tag,)+
                }
            }

            /// The record's payload as the ordered JSON fields a dump line
            /// carries after `seq`, `t_ns` and `kind`.
            pub fn fields(&self) -> Vec<(&'static str, Json)> {
                match *self {
                    $(TraceEvent::$variant { $($field),+ } => {
                        vec![$((stringify!($field), Json::from($field))),+]
                    })+
                }
            }

            /// Reads the payload of a `kind` record back: the inverse of
            /// [`TraceEvent::fields`].
            fn decode(kind: &str, fields: &mut Fields<'_>) -> Result<TraceEvent, String> {
                Ok(match kind {
                    $($tag => TraceEvent::$variant {
                        $($field: fields.next(stringify!($field))?),+
                    },)+
                    _ => return Err(format!("unknown kind {kind:?}")),
                })
            }
        }
    };
}

trace_codec! {
    SchedCycle "sched_cycle" { cycle, dispatched, spare, backlog }
    Dispatch "dispatch" { sub, req, rpn, spare, predicted_cpu_us, balance_cpu_us }
    Enqueue "enqueue" { sub, req, backlog }
    Drop "drop" { sub, req }
    SpliceSetup "splice_setup" { req, client_ip, client_port, rpn_ip, seq_delta }
    SpliceTeardown "splice_teardown" { req, client_ip, client_port }
    AcctReport "acct_report" { rpn, subscribers, completed }
    NodeLoad "node_load" { rpn, load }
    NodeDown "node_down" { rpn }
    NodeUp "node_up" { rpn }
    RpnCrash "rpn_crash" { rpn }
    RpnRecover "rpn_recover" { rpn }
    RequestRetry "request_retry" { sub, req, attempt }
    RequestFailed "request_failed" { sub, req, attempts }
    RoutesPurged "routes_purged" { rpn, count }
    DispatchRequeued "dispatch_requeue" { sub, req, rpn }
    ReservationScale "reservation_scale" { scale }
    ReqArrival "req_arrival" { sub, req }
    ReqServed "req_served" { sub, req }
    ReqDropped "req_dropped" { sub, req }
    ReqComplete "req_complete" { sub, req, rpn }
    Reservation "reservation" { sub, grps, shard }
    QueueStats "queue_stats" { depth, scheduled, cancelled, cascades }
    RdnCrash "rdn_crash" { rdn }
    RdnRecover "rdn_recover" { rdn }
    ReportGossip "report_gossip" { from, to, rows }
    ShardTakeover "shard_takeover" { shard, from, to, subs }
    AcctMerge "acct_merge" { rdn, from, changed }
}

/// A value type a dump field decodes into, range-checked.
trait Field: Sized {
    fn decode(value: &Json) -> Option<Self>;
}

impl Field for u64 {
    fn decode(value: &Json) -> Option<u64> {
        value.as_u64()
    }
}

impl Field for u32 {
    fn decode(value: &Json) -> Option<u32> {
        value.as_u64()?.try_into().ok()
    }
}

impl Field for u16 {
    fn decode(value: &Json) -> Option<u16> {
        value.as_u64()?.try_into().ok()
    }
}

impl Field for usize {
    fn decode(value: &Json) -> Option<usize> {
        value.as_u64()?.try_into().ok()
    }
}

impl Field for bool {
    fn decode(value: &Json) -> Option<bool> {
        value.as_bool()
    }
}

impl Field for f64 {
    /// `null` is how the writer prints a non-finite value; it reads back
    /// as NaN, which prints as `null` again.
    fn decode(value: &Json) -> Option<f64> {
        match value {
            Json::Null => Some(f64::NAN),
            _ => value.as_f64(),
        }
    }
}

/// Reads one dump line's fields in the order the writer put them.
struct Fields<'a>(std::slice::Iter<'a, (String, Json)>);

impl<'a> Fields<'a> {
    fn of(line: &'a Json) -> Result<Fields<'a>, String> {
        match line {
            Json::Obj(pairs) => Ok(Fields(pairs.iter())),
            _ => Err("not a JSON object".to_string()),
        }
    }

    fn value(&mut self, key: &str) -> Result<&'a Json, String> {
        match self.0.next() {
            Some((k, v)) if k == key => Ok(v),
            Some((k, _)) => Err(format!("expected field {key:?}, found {k:?}")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn next<T: Field>(&mut self, key: &str) -> Result<T, String> {
        let value = self.value(key)?;
        T::decode(value).ok_or_else(|| {
            let ty = std::any::type_name::<T>();
            format!("field {key:?}: {value} is not a {ty}")
        })
    }

    fn str(&mut self, key: &str) -> Result<&'a str, String> {
        let value = self.value(key)?;
        value
            .as_str()
            .ok_or_else(|| format!("field {key:?}: {value} is not a string"))
    }

    fn end(mut self) -> Result<(), String> {
        match self.0.next() {
            Some((k, _)) => Err(format!("unexpected field {k:?}")),
            None => Ok(()),
        }
    }
}

/// Decodes a dump header into `(emitted, retained, overwritten, capacity)`.
fn decode_header(line: &str) -> Result<(u64, usize, u64, usize), String> {
    let json = gage_json::parse(line).map_err(|e| e.to_string())?;
    let mut f = Fields::of(&json)?;
    let schema = f.str("schema")?;
    if schema != TRACE_SCHEMA {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let header = (
        f.next("emitted")?,
        f.next("retained")?,
        f.next("overwritten")?,
        f.next("capacity")?,
    );
    f.end()?;
    Ok(header)
}

/// Decodes one record line.
fn decode_record(line: &str) -> Result<TraceRecord, String> {
    let json = gage_json::parse(line).map_err(|e| e.to_string())?;
    let mut f = Fields::of(&json)?;
    let seq = f.next("seq")?;
    let at = SimTime::from_nanos(f.next("t_ns")?);
    let event = TraceEvent::decode(f.str("kind")?, &mut f)?;
    f.end()?;
    Ok(TraceRecord { seq, at, event })
}

/// One stamped record in the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Monotonic emission number (survives wraparound, so gaps in a dump
    /// reveal exactly how much history the ring overwrote).
    pub seq: u64,
    /// Simulated instant the record was emitted at.
    pub at: SimTime,
    /// The payload.
    pub event: TraceEvent,
}

/// Schema tag stamped into the first line of every dump.
pub const TRACE_SCHEMA: &str = "gage-trace-v1";

/// A fixed-capacity ring of [`TraceRecord`]s. When full, the oldest record
/// is overwritten and counted in [`TraceRing::overwritten`].
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceRecord>,
    capacity: usize,
    /// Next slot to write (wraps at `capacity`).
    next: usize,
    overwritten: u64,
    emitted: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` records. The buffer is
    /// allocated up front; pushes never allocate.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (configuration error, not runtime
    /// input).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        TraceRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            overwritten: 0,
            emitted: 0,
        }
    }

    /// Appends a record, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: TraceEvent) {
        let record = TraceRecord {
            seq: self.emitted,
            at,
            event,
        };
        self.emitted += 1;
        // Branch instead of `%`: the capacity is not a compile-time constant,
        // and an integer divide on every push is measurable at the traced
        // cluster simulation's event rate.
        if self.buf.len() < self.capacity {
            self.buf.push(record);
            self.next = if self.buf.len() == self.capacity {
                0
            } else {
                self.buf.len()
            };
        } else {
            self.buf[self.next] = record;
            self.next += 1;
            if self.next == self.capacity {
                self.next = 0;
            }
            self.overwritten += 1;
        }
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records lost to overwriting since creation.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Total records ever emitted (retained + overwritten).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Iterates retained records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let split = if self.buf.len() < self.capacity {
            0
        } else {
            self.next
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Serializes the ring as a line-oriented dump: a header object, then
    /// one JSON object per retained record, oldest first. Same-seed runs
    /// produce byte-identical dumps (the determinism contract the cluster
    /// test suite enforces).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let header = Json::obj([
            ("schema", Json::str(TRACE_SCHEMA)),
            ("emitted", Json::from(self.emitted)),
            ("retained", Json::from(self.len())),
            ("overwritten", Json::from(self.overwritten)),
            ("capacity", Json::from(self.capacity)),
        ]);
        out.push_str(&header.to_string());
        out.push('\n');
        for r in self.iter() {
            let mut pairs = vec![
                ("seq", Json::from(r.seq)),
                ("t_ns", Json::from(r.at.as_nanos())),
                ("kind", Json::str(r.event.kind())),
            ];
            pairs.extend(r.event.fields());
            out.push_str(&Json::obj(pairs).to_string());
            out.push('\n');
        }
        out
    }

    /// Decodes a dump written by [`TraceRing::dump`], its exact inverse:
    /// `TraceRing::from_dump(&d)?.dump() == d`. The header's counts are
    /// checked against the records, never trusted to size a buffer: the
    /// decoded ring allocates one slot per record line, whatever capacity
    /// the header names.
    ///
    /// # Errors
    ///
    /// A message naming the first offending line if the schema tag is not
    /// [`TRACE_SCHEMA`], a line is not a record of a known kind with every
    /// field present, in order, typed and in range, the `seq` numbers are
    /// not a dense run, or the header's `retained`, `emitted`,
    /// `overwritten` and `capacity` disagree with the records or each
    /// other.
    pub fn from_dump(text: &str) -> Result<TraceRing, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty dump")?;
        let (emitted, retained, overwritten, capacity) =
            decode_header(header).map_err(|e| format!("line 1: {e}"))?;
        let mut buf: Vec<TraceRecord> = Vec::new();
        for (line, n) in lines.zip(2..) {
            let record = decode_record(line).map_err(|e| format!("line {n}: {e}"))?;
            // Retained records are the newest, gap-free suffix of the stream.
            let want = overwritten + buf.len() as u64;
            if record.seq != want {
                return Err(format!("line {n}: seq {} where {want} is due", record.seq));
            }
            buf.push(record);
        }
        if buf.len() != retained {
            return Err(format!(
                "header says {retained} records retained, the dump holds {}",
                buf.len()
            ));
        }
        if emitted != retained as u64 + overwritten {
            return Err(format!(
                "header says {emitted} emitted, not {retained} retained + {overwritten} overwritten"
            ));
        }
        if capacity == 0 || retained > capacity {
            return Err(format!(
                "header capacity {capacity} cannot hold {retained} records"
            ));
        }
        Ok(TraceRing {
            // A full ring iterates from `next`; 0 keeps the records in order.
            next: if retained < capacity { retained } else { 0 },
            buf,
            capacity,
            overwritten,
            emitted,
        })
    }
}

/// The trace sink subsystems emit through: an optional [`TraceRing`] plus
/// the simulated instant records are stamped with.
///
/// Disabled (the default) it holds no ring: every emit is one branch and
/// nothing is allocated. It is a plain owned value. Its owner lends it as
/// `&mut Tracer` to each call that emits, so the scheduler, the splice
/// layer and the cluster world all write into one time-ordered stream.
///
/// ```rust
/// use gage_obs::{TraceEvent, TraceRing, Tracer};
/// use gage_des::SimTime;
///
/// let mut t = Tracer::enabled(1024);
/// t.set_now(SimTime::from_millis(10));
/// t.emit(TraceEvent::Drop { sub: 3, req: 17 });
/// assert_eq!(t.ring().map(TraceRing::len), Some(1));
/// let dump = t.dump().expect("enabled tracer dumps");
/// assert!(dump.lines().count() == 2); // header + one record
/// assert!(Tracer::disabled().dump().is_none());
/// ```
#[derive(Debug, Default)]
pub struct Tracer {
    ring: Option<TraceRing>,
    now: SimTime,
}

impl Tracer {
    /// A tracer that drops every record (near-zero cost: one branch).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer backed by a fresh ring of `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enabled(capacity: usize) -> Tracer {
        Tracer {
            ring: Some(TraceRing::new(capacity)),
            now: SimTime::ZERO,
        }
    }

    /// Whether records are being retained. Emitters can use this to skip
    /// computing record payloads entirely when tracing is off.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Sets the instant subsequent [`Tracer::emit`] calls are stamped with.
    /// The simulation loop calls this as virtual time advances.
    #[inline]
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Emits a record stamped with the instant from [`Tracer::set_now`].
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        if let Some(ring) = &mut self.ring {
            ring.push(self.now, event);
        }
    }

    /// The ring the records land in; `None` when disabled.
    pub fn ring(&self) -> Option<&TraceRing> {
        self.ring.as_ref()
    }

    /// Serializes the ring (see [`TraceRing::dump`]); `None` when disabled.
    pub fn dump(&self) -> Option<String> {
        self.ring.as_ref().map(TraceRing::dump)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(sub: u32) -> TraceEvent {
        TraceEvent::Drop {
            sub,
            req: sub as u64,
        }
    }

    /// One instance of every variant, in declaration order.
    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SchedCycle {
                cycle: 1,
                dispatched: 2,
                spare: 1,
                backlog: 7,
            },
            TraceEvent::Dispatch {
                sub: 0,
                req: 41,
                rpn: 3,
                spare: true,
                predicted_cpu_us: 1.5,
                balance_cpu_us: -0.25,
            },
            TraceEvent::Enqueue {
                sub: 1,
                req: 42,
                backlog: 4,
            },
            TraceEvent::Drop { sub: 1, req: 43 },
            TraceEvent::SpliceSetup {
                req: 44,
                client_ip: 0x0a00_0001,
                client_port: 40_000,
                rpn_ip: 0x0a00_0204,
                seq_delta: 99,
            },
            TraceEvent::SpliceTeardown {
                req: 44,
                client_ip: 0x0a00_0001,
                client_port: 40_000,
            },
            TraceEvent::AcctReport {
                rpn: 2,
                subscribers: 3,
                completed: 11,
            },
            TraceEvent::NodeLoad { rpn: 2, load: 0.75 },
            TraceEvent::NodeDown { rpn: 1 },
            TraceEvent::NodeUp { rpn: 1 },
            TraceEvent::RpnCrash { rpn: 1 },
            TraceEvent::RpnRecover { rpn: 1 },
            TraceEvent::RequestRetry {
                sub: 2,
                req: 45,
                attempt: 1,
            },
            TraceEvent::RequestFailed {
                sub: 2,
                req: 45,
                attempts: 3,
            },
            TraceEvent::RoutesPurged { rpn: 1, count: 17 },
            TraceEvent::DispatchRequeued {
                sub: 2,
                req: 46,
                rpn: 1,
            },
            TraceEvent::ReservationScale { scale: 0.5 },
            TraceEvent::ReqArrival { sub: 0, req: 47 },
            TraceEvent::ReqServed { sub: 0, req: 47 },
            TraceEvent::ReqDropped { sub: 1, req: 48 },
            TraceEvent::ReqComplete {
                sub: 0,
                req: 47,
                rpn: 2,
            },
            TraceEvent::Reservation {
                sub: 0,
                grps: 150.0,
                shard: 0,
            },
            TraceEvent::QueueStats {
                depth: 120,
                scheduled: 10_000,
                cancelled: 321,
                cascades: 42,
            },
            TraceEvent::RdnCrash { rdn: 1 },
            TraceEvent::RdnRecover { rdn: 1 },
            TraceEvent::ReportGossip {
                from: 0,
                to: 1,
                rows: 12,
            },
            TraceEvent::ShardTakeover {
                shard: 1,
                from: 1,
                to: 0,
                subs: 2,
            },
            TraceEvent::AcctMerge {
                rdn: 0,
                from: 1,
                changed: 5,
            },
        ]
    }

    #[test]
    fn ring_retains_in_emission_order() {
        let mut r = TraceRing::new(8);
        for i in 0..5 {
            r.push(SimTime::from_nanos(i), ev(i as u32));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.overwritten(), 0);
        assert_eq!(r.emitted(), 5);
        let seqs: Vec<u64> = r.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraparound_overwrites_oldest_and_counts() {
        let mut r = TraceRing::new(4);
        for i in 0..10u64 {
            r.push(SimTime::from_nanos(i), ev(i as u32));
        }
        assert_eq!(r.len(), 4, "capacity bounds retention");
        assert_eq!(r.overwritten(), 6, "six records lost");
        assert_eq!(r.emitted(), 10);
        // The survivors are exactly the newest four, oldest-first.
        let seqs: Vec<u64> = r.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let subs: Vec<u32> = r.iter().filter_map(|x| x.event.subscriber()).collect();
        assert_eq!(subs, vec![6, 7, 8, 9]);
        // Exactly at the boundary there is no loss.
        let mut exact = TraceRing::new(4);
        for i in 0..4u64 {
            exact.push(SimTime::from_nanos(i), ev(i as u32));
        }
        assert_eq!(exact.overwritten(), 0);
        assert_eq!(exact.iter().count(), 4);
    }

    #[test]
    fn dump_header_reflects_overflow() {
        let mut r = TraceRing::new(2);
        for i in 0..3u64 {
            r.push(SimTime::from_nanos(i), ev(i as u32));
        }
        let dump = r.dump();
        let mut lines = dump.lines();
        assert_eq!(
            lines.next(),
            Some(
                r#"{"schema":"gage-trace-v1","emitted":3,"retained":2,"overwritten":1,"capacity":2}"#
            )
        );
        assert_eq!(lines.count(), 2, "one line per retained record");
    }

    fn ring_of(events: &[TraceEvent]) -> TraceRing {
        let mut r = TraceRing::new(32);
        for (i, e) in events.iter().enumerate() {
            r.push(SimTime::from_millis(i as u64), *e);
        }
        r
    }

    #[test]
    fn from_dump_inverts_every_kind() {
        let events = one_of_each();
        let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 28, "one_of_each() holds every kind once");
        let ring = ring_of(&events);
        let dump = ring.dump();
        let back = TraceRing::from_dump(&dump).expect("decodes");
        assert_eq!(back.dump(), dump);
        assert!(
            back.iter().eq(ring.iter()),
            "every record decodes as written"
        );
        assert_eq!(back.capacity(), 32);
    }

    #[test]
    fn from_dump_reads_null_back_as_nan() {
        let ring = ring_of(&[TraceEvent::NodeLoad {
            rpn: 4,
            load: f64::NAN,
        }]);
        let dump = ring.dump();
        assert!(dump.ends_with("\"kind\":\"node_load\",\"rpn\":4,\"load\":null}\n"));
        let back = TraceRing::from_dump(&dump).expect("decodes");
        assert_eq!(back.dump(), dump);
        let load = back.iter().map(|r| r.event).next();
        assert!(matches!(load, Some(TraceEvent::NodeLoad { rpn: 4, load }) if load.is_nan()));
    }

    #[test]
    fn from_dump_inverts_a_wrapped_ring() {
        let mut r = TraceRing::new(4);
        for i in 0..10u64 {
            r.push(SimTime::from_nanos(i), ev(i as u32));
        }
        let back = TraceRing::from_dump(&r.dump()).expect("decodes");
        assert_eq!(back.dump(), r.dump());
        assert_eq!((back.overwritten(), back.emitted()), (6, 10));
        // The decoded ring keeps wrapping where the original would.
        let (mut a, mut b) = (r, back);
        a.push(SimTime::from_nanos(10), ev(10));
        b.push(SimTime::from_nanos(10), ev(10));
        assert_eq!(b.dump(), a.dump());
    }

    #[test]
    fn from_dump_takes_the_header_capacity_without_allocating_it() {
        let dump = ring_of(&[ev(1)])
            .dump()
            .replace("\"capacity\":32", "\"capacity\":1099511627776");
        let back = TraceRing::from_dump(&dump).expect("decodes");
        assert_eq!(back.capacity(), 1 << 40);
        assert_eq!(back.dump(), dump);
    }

    #[test]
    fn from_dump_rejects_malformed_dumps() {
        let dump = ring_of(&[
            TraceEvent::Enqueue {
                sub: 1,
                req: 5,
                backlog: 2,
            },
            TraceEvent::NodeDown { rpn: 3 },
        ])
        .dump();
        let cases = [
            (String::new(), "empty dump"),
            (
                dump.replace("gage-trace-v1", "gage-trace-v0"),
                "line 1: unexpected schema \"gage-trace-v0\"",
            ),
            (
                dump.replace("node_down", "node_sideways"),
                "line 3: unknown kind \"node_sideways\"",
            ),
            (
                dump.replace(",\"backlog\":2", ""),
                "line 2: missing field \"backlog\"",
            ),
            (
                dump.replace("\"sub\":1", "\"sub\":\"1\""),
                "line 2: field \"sub\": \"1\" is not a u32",
            ),
            (
                dump.replace("\"rpn\":3", "\"rpn\":65536"),
                "line 3: field \"rpn\": 65536 is not a u16",
            ),
            (
                dump.replace(",\"backlog\":2}", ",\"backlog\":2,\"extra\":0}"),
                "line 2: unexpected field \"extra\"",
            ),
            (
                dump.replace("\"retained\":2", "\"retained\":3"),
                "header says 3 records retained, the dump holds 2",
            ),
            (
                dump.replace("\"emitted\":2", "\"emitted\":4"),
                "header says 4 emitted, not 2 retained + 0 overwritten",
            ),
            (
                dump.replace("\"seq\":1", "\"seq\":2"),
                "line 3: seq 2 where 1 is due",
            ),
            (
                format!("{dump}garbage\n"),
                "line 4: json parse error at byte 0: expected a value",
            ),
        ];
        for (bad, want) in cases {
            assert_eq!(
                TraceRing::from_dump(&bad).err().as_deref(),
                Some(want),
                "{bad}"
            );
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.set_now(SimTime::from_secs(1));
        t.emit(ev(0));
        assert!(t.ring().is_none());
        assert!(t.dump().is_none());
    }

    #[test]
    fn tracer_stamps_records_with_its_clock() {
        let mut t = Tracer::enabled(8);
        t.emit(ev(1));
        t.set_now(SimTime::from_millis(5));
        t.emit(ev(2));
        t.emit(ev(3));
        let records: Vec<(u64, u64)> = t
            .ring()
            .expect("enabled")
            .iter()
            .map(|x| (x.seq, x.at.as_nanos()))
            .collect();
        assert_eq!(records, vec![(0, 0), (1, 5_000_000), (2, 5_000_000)]);
    }
}
