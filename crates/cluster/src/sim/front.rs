//! The front-end role: the RDN peers that emulate the handshake, classify,
//! queue and dispatch (paper §3.1–3.3), run the report watchdog, exchange
//! accounting gossip and bridge the ACKs of spliced connections. The
//! control decisions themselves (dispatch, the watchdog, bounce refunds)
//! are [`RequestScheduler`]'s; this module charges their CPU, turns them
//! into events and keeps each front's routes.

use gage_collections::SlabKey;
use gage_core::accounting::UsageReport;
use gage_core::config::{NODE_LOOKAHEAD_SECS, SCHEDULING_CYCLE_SECS};
use gage_core::conn_table::{ConnTable, Route};
use gage_core::merge::{AcctDelta, AcctRow, AcctTable};
use gage_core::node::{NodeScheduler, RpnId};
use gage_core::resource::{Grps, ResourceVector};
use gage_core::scheduler::{RequestScheduler, TraceTag};
use gage_core::subscriber::{SubscriberId, SubscriberRegistry};
use gage_des::{Context, SimDuration, SimTime};
use gage_net::addr::FourTuple;
use gage_net::SeqNum;
use gage_obs::TraceEvent;

use super::rpn::response_packet_counts;
use super::{Ev, World};
use crate::metrics::RdnMetrics;
use crate::params::{ClusterParams, GageMode, NETWORK, RDN_COSTS};

/// A request sitting in an RDN subscriber queue. Its URL stays in the
/// trace: `(site, idx)` names the entry, and `(site, pending)` the issuing
/// client's attempt, which its RST or response must reach.
#[derive(Debug, Clone)]
pub(super) struct PendingRequest {
    pub(super) conn: FourTuple,
    /// The issuing client's site. The Host may classify the request to
    /// another subscriber, whose queue it waits in.
    pub(super) site: u32,
    /// The attempt's handle in the issuing site's client table.
    pub(super) pending: SlabKey,
    /// Trace entry index within the issuing site's trace.
    pub(super) idx: u32,
    /// Run-wide logical request id (stable across retries).
    pub(super) req: u64,
    pub(super) rdn_isn: SeqNum,
    pub(super) size: u64,
    /// When this request (re-)entered the scheduler queue, for the
    /// queue-wait histogram.
    enqueued_at: SimTime,
}

impl TraceTag for PendingRequest {
    fn trace_tag(&self) -> u64 {
        self.req
    }
}

/// Everything the RDN attaches to a dispatched request so the RPN's local
/// service manager can build the splice and echo predictions.
#[doc(hidden)]
#[derive(Debug)]
pub struct DispatchMeta {
    pub(super) sub: SubscriberId,
    pub(super) predicted: ResourceVector,
    /// The dequeued request itself; it goes back in the queue unchanged
    /// if the dispatch bounces.
    pub(super) request: PendingRequest,
    /// The front end that booked the dispatch, and its boot epoch at
    /// dispatch time — a bounced dispatch can only be refunded to the
    /// same life of the same front.
    pub(super) rdn: u16,
    pub(super) rdn_epoch: u32,
}

/// One front-end RDN: the per-peer slice of dispatch state. Every front
/// owns a full request scheduler (non-owned subscribers' reservations
/// masked to zero) over its share of RPN capacity, its own connection
/// table, CPU/interrupt metrics, report watchdog (inside the scheduler)
/// and accounting table — fronts never share mutable state, they exchange
/// only messages.
#[derive(Debug)]
pub(super) struct RdnFront {
    pub(super) scheduler: RequestScheduler<PendingRequest>,
    pub(super) conn_table: ConnTable,
    pub(super) metrics: RdnMetrics,
    /// Conflict-free per-(origin RDN, subscriber) usage rows, converged
    /// by gossip.
    acct: AcctTable,
    /// Boot generation: bumped on every crash so reports, gossip ticks
    /// and dispatch refunds addressed to a previous life are stale.
    epoch: u32,
    /// When the front fail-stopped, while it is down (failover grace
    /// input).
    pub(super) dead_since: Option<SimTime>,
}

impl RdnFront {
    /// Boots a front in boot generation `epoch` with empty queues, routes
    /// and accounting rows. Its scheduler sees every RPN at the per-front
    /// capacity share — `1/rdn_count` of each node, so the peer set as a
    /// whole never oversubscribes one — with every reservation masked to
    /// zero until shard ownership unmasks the owned ones
    /// ([`World::unmask_owned`]). Both [`super::ClusterSim::new`] and a
    /// crash build fronts here.
    ///
    /// Each node's in-flight window is [`NODE_LOOKAHEAD_SECS`] of its
    /// capacity, widened to 1.2 accounting cycles when those are longer.
    /// The window must cover the feedback delay (a bandwidth-delay-product
    /// argument): with a window shorter than the accounting cycle, dispatch
    /// is capped at window/cycle regardless of actual capacity.
    pub(super) fn boot(
        params: &ClusterParams,
        registry: &SubscriberRegistry,
        epoch: u32,
    ) -> RdnFront {
        let share = 1.0 / params.rdn_count as f64;
        let capacity = ResourceVector::new(
            1e6 * params.rpn_speed * share,
            1e6 * share,
            NETWORK.rpn_egress_bytes_per_sec * share,
        );
        let lookahead = NODE_LOOKAHEAD_SECS.max(params.accounting_cycle.as_secs_f64() * 1.2);
        let mut nodes = NodeScheduler::new(lookahead);
        for _ in 0..params.rpn_count {
            nodes.add_rpn(capacity);
        }
        let mut scheduler = RequestScheduler::new(registry, params.scheduler, nodes);
        for i in 0..registry.len() {
            scheduler.set_reservation(SubscriberId(i as u32), Grps(0.0));
        }
        RdnFront {
            scheduler,
            conn_table: ConnTable::new(),
            metrics: RdnMetrics::default(),
            acct: AcctTable::new(),
            epoch,
            dead_since: None,
        }
    }

    pub(super) fn dead(&self) -> bool {
        self.dead_since.is_some()
    }

    /// Whether this front is up and still in boot generation `epoch`.
    fn in_life(&self, epoch: u32) -> bool {
        !self.dead() && self.epoch == epoch
    }
}

impl World {
    /// Charges front end `rdn`'s CPU for handling `packets` packets'
    /// interrupts plus `op_us` of protocol work at `now` — one batched
    /// record regardless of the packet count.
    fn charge_rdn(&mut self, rdn: usize, now: SimTime, packets: u64, op_us: f64) {
        let m = &mut self.fronts[rdn].metrics;
        let int_us = m.interrupt_cost_us(now) * packets as f64;
        m.packets.record(now, packets as f64);
        m.packet_count += packets;
        m.busy
            .add(now, SimDuration::from_secs_f64((op_us + int_us) / 1e6));
    }

    /// Refuses a client request: charges front end `rdn` for the reset
    /// packet and RSTs the connection so the issuing client, attempt
    /// `pending` of site `site`, resolves it as dropped.
    pub(super) fn refuse(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        rdn: usize,
        site: u32,
        pending: SlabKey,
    ) {
        self.charge_rdn(rdn, ctx.now(), 1, 0.0);
        ctx.schedule_in(self.hop(), Ev::ClientRst { sub: site, pending });
    }

    /// Forwards a dispatched request onto the RDN→RPN link, subject to any
    /// active link fault: the frame may vanish (recovery is the client's
    /// timeout) or be delayed.
    fn send_to_rpn(&mut self, ctx: &mut Context<'_, Ev>, rpn: u16, meta: DispatchMeta) {
        let fault = self.faults.link_fault_at(ctx.now(), rpn);
        if let Some(delay) = self.faults.transit(fault, self.hop()) {
            let meta = Box::new(meta);
            ctx.schedule_in(delay, Ev::RpnArrive { rpn, meta });
        }
    }

    /// The collapsed first-leg exchange: charges the SYN + SYN-ACK (setup)
    /// and ACK + URL (classification) packet batches, resolves the Host,
    /// and queues or dispatches the request. Credits the three collapsed
    /// packet events (SYN, SYN-ACK, ACK) to the engine's logical count.
    pub(super) fn on_url_arrive(&mut self, ctx: &mut Context<'_, Ev>, sub: u32, pending: SlabKey) {
        let Some((url, conn)) = self.pending_url(sub, pending) else {
            return; // resolved before the exchange finished
        };
        // The subscriber's home-shard owner answers its cluster address.
        // A dead front end answers nothing: the exchange vanishes on the
        // wire and the client's timeout/retry resolves the request
        // (failover re-homes the shard within the watchdog grace).
        let rdn = self.shards.owner_of(sub) as usize;
        if self.fronts[rdn].dead() {
            return;
        }
        // Classify from the immutable trace before any `&mut self` work
        // below; the queued request names the entry, not a copy of it.
        let trace = &self.traces[sub as usize];
        let entry = &trace.entries[url.idx as usize];
        let size = entry.size_bytes;
        let classified = self.registry.classify_host(trace.host(entry));
        ctx.count_logical(3);
        // Handshake emulation: SYN in, SYN-ACK out. With an asymmetric
        // front-end cluster the setup CPU work moves to a secondary RDN;
        // the primary still sees the packets.
        if self.secondary_busy.is_empty() {
            self.charge_rdn(rdn, ctx.now(), 2, RDN_COSTS.conn_setup_us);
        } else {
            self.charge_rdn(rdn, ctx.now(), 2, 0.0);
            let i = self.secondary_rr % self.secondary_busy.len();
            self.secondary_rr += 1;
            self.secondary_busy[i].add(
                ctx.now(),
                SimDuration::from_secs_f64(RDN_COSTS.conn_setup_us / 1e6),
            );
        }
        self.isn_counter = self.isn_counter.wrapping_add(88_651);
        let rdn_isn = SeqNum::new(self.isn_counter);
        // The handshake ACK and the URL packet itself, classified at 3 µs.
        self.charge_rdn(rdn, ctx.now(), 2, RDN_COSTS.classification_us);
        let Some(sub_id) = classified else {
            self.unknown_host_drops += 1;
            // Still terminate the connection: the issuing client resolves
            // the request as dropped.
            self.refuse(ctx, rdn, sub, pending);
            return;
        };
        let req = PendingRequest {
            conn,
            site: sub,
            pending,
            idx: url.idx,
            req: url.req,
            rdn_isn,
            size,
            enqueued_at: ctx.now(),
        };
        match self.params.mode {
            GageMode::Enabled => {
                let front = &mut self.fronts[rdn];
                if let Err(req) = front.scheduler.enqueue(sub_id, req, &mut self.tracer) {
                    self.refuse(ctx, rdn, req.site, req.pending);
                }
            }
            GageMode::Bypass => {
                let rpn = RpnId((self.rr_next % self.rpns.len()) as u16);
                self.rr_next += 1;
                self.dispatch_to_rpn(ctx, rdn, sub_id, rpn, req, ResourceVector::ZERO);
            }
        }
    }

    fn dispatch_to_rpn(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        rdn: usize,
        sub: SubscriberId,
        rpn: RpnId,
        request: PendingRequest,
        predicted: ResourceVector,
    ) {
        self.fronts[rdn].conn_table.insert(
            request.conn,
            Route {
                rpn,
                rpn_mac: self.rpns[rpn.0 as usize].mac,
            },
        );
        self.charge_rdn(rdn, ctx.now(), 1, RDN_COSTS.forwarding_us);
        let wait_ms = ctx
            .now()
            .saturating_since(request.enqueued_at)
            .as_secs_f64()
            * 1e3;
        self.metrics[sub.0 as usize].queue_wait_ms.observe(wait_ms);
        let meta = DispatchMeta {
            sub,
            predicted,
            request,
            rdn: rdn as u16,
            rdn_epoch: self.fronts[rdn].epoch,
        };
        self.send_to_rpn(ctx, rpn.0, meta);
    }

    /// The RDN scheduler's 10 ms tick: shard failover, each live front's
    /// report watchdog and its dispatch cycle.
    pub(super) fn on_sched_tick(&mut self, ctx: &mut Context<'_, Ev>) {
        // Shard failover/failback precedes dispatch, so every cycle
        // dispatches against settled ownership.
        if self.params.rdn_count > 1 {
            self.rebalance_shards(ctx);
        }
        // Watchdog: a node that has gone silent for `watchdog_grace_cycles`
        // accounting cycles is written off by the scheduler (no dispatch,
        // in-flight work written off), and its splice routes are purged
        // here. Each live front judges silence by its own report stream.
        let grace = self.params.watchdog_grace();
        for f in 0..self.fronts.len() {
            if self.fronts[f].dead() {
                continue;
            }
            let front = &mut self.fronts[f];
            while let Some(rpn) =
                front
                    .scheduler
                    .write_off_silent(ctx.now(), grace, &mut self.tracer)
            {
                let purged = front.conn_table.purge_rpn(rpn);
                if purged > 0 {
                    self.tracer.emit(TraceEvent::RoutesPurged {
                        rpn: rpn.0,
                        count: purged as u32,
                    });
                }
            }
            // Move the scratch buffer out while dispatching
            // (dispatch_to_rpn needs `&mut self`), then park it back,
            // allocation intact — one buffer serves every front in turn.
            let mut dispatches = std::mem::take(&mut self.dispatch_buf);
            self.fronts[f]
                .scheduler
                .run_cycle_into(&mut dispatches, &mut self.tracer);
            for d in dispatches.drain(..) {
                if d.funded_by_spare {
                    self.spare_dispatches += 1;
                } else {
                    self.reserved_dispatches += 1;
                }
                self.dispatch_to_rpn(ctx, f, d.subscriber, d.rpn, d.request, d.predicted);
            }
            self.dispatch_buf = dispatches;
        }
        self.sched_ticks += 1;
        // Every 64th cycle, snapshot the DES queue's operational counters
        // into the trace so tracedump --stats can plot queue health.
        if self.sched_ticks % 64 == 1 && self.tracer.is_enabled() {
            let s = ctx.queue_stats();
            self.tracer.emit(TraceEvent::QueueStats {
                depth: s.depth as u32,
                scheduled: s.scheduled,
                cancelled: s.cancelled,
                cascades: s.cascades,
            });
        }
        ctx.schedule_in(
            SimDuration::from_secs_f64(SCHEDULING_CYCLE_SECS),
            Ev::SchedTick,
        );
    }

    pub(super) fn on_report(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        to_rdn: u16,
        report: UsageReport,
    ) {
        let f = to_rdn as usize;
        if self.fronts[f].dead() {
            return; // addressed to a front that died while it was in flight
        }
        for line in &report.per_subscriber {
            let i = line.subscriber.0 as usize;
            if i < self.metrics.len() {
                self.metrics[i]
                    .observed_usage
                    .record(ctx.now(), line.actual.generic_equivalents());
                self.metrics[i]
                    .observed_completions
                    .record(ctx.now(), f64::from(line.completed));
            }
        }
        // The report restarts its node's silence clock, and brings the node
        // back if the watchdog had written it off.
        let front = &mut self.fronts[f];
        front
            .scheduler
            .on_report(ctx.now(), &report, &mut self.tracer);
        // Fold the report into this front's own accounting rows (it is
        // the single writer of origin `f`); gossip carries them to peers.
        for line in &report.per_subscriber {
            front.acct.accumulate(
                to_rdn,
                line.subscriber.0,
                front.epoch,
                AcctDelta {
                    as_of_ns: ctx.now().as_nanos(),
                    usage: line.actual,
                    settled_predicted: line.settled_predicted,
                    completed: line.completed as u64,
                },
            );
        }
        if self.tracer.is_enabled() {
            let completed: u32 = report.per_subscriber.iter().map(|l| l.completed).sum();
            self.tracer.emit(TraceEvent::AcctReport {
                rpn: report.rpn.0,
                subscribers: report.per_subscriber.len() as u32,
                completed,
            });
            // Load as reconciled by the report: the node's outstanding
            // predicted work relative to its dispatch window.
            self.tracer.emit(TraceEvent::NodeLoad {
                rpn: report.rpn.0,
                load: self.fronts[f].scheduler.nodes().load_fraction(report.rpn),
            });
        }
    }

    /// A front's gossip timer: snapshot its accounting rows and send them
    /// to every peer, subject to any active inter-RDN partition window.
    pub(super) fn on_gossip_tick(&mut self, ctx: &mut Context<'_, Ev>, rdn: u16, epoch: u32) {
        let f = rdn as usize;
        if !self.fronts[f].in_life(epoch) {
            return; // a previous life's chain; recovery armed a fresh one
        }
        let rows = self.fronts[f].acct.rows();
        let hop = self.hop();
        for peer in 0..self.fronts.len() as u16 {
            if peer == rdn {
                continue;
            }
            // A partitioned link loses the snapshot.
            let fault = self.faults.rdn_link_fault_at(ctx.now(), rdn, peer);
            let delivered = self.faults.transit(fault, hop);
            self.tracer.emit(TraceEvent::ReportGossip {
                from: rdn,
                to: peer,
                rows: rows.len() as u32,
            });
            if let Some(delay) = delivered {
                ctx.schedule_in(
                    delay,
                    Ev::GossipArrive {
                        to: peer,
                        from: rdn,
                        rows: Box::new(rows.clone()),
                    },
                );
            }
        }
        ctx.schedule_in(self.params.accounting_cycle, Ev::GossipTick { rdn, epoch });
    }

    /// A peer's gossiped snapshot arrives: merge it. The merge is
    /// conflict-free (epoch-then-componentwise-max), so loss, duplication
    /// and reordering — and transitive relay once a partition heals —
    /// all converge to the same table.
    pub(super) fn on_gossip_arrive(&mut self, to: u16, from: u16, rows: &[AcctRow]) {
        let f = to as usize;
        if self.fronts[f].dead() {
            return;
        }
        let changed = self.fronts[f].acct.merge_rows(rows);
        self.tracer.emit(TraceEvent::AcctMerge {
            rdn: to,
            from,
            changed: changed as u32,
        });
    }

    /// Pulls back a dispatch that bounced off a dead node: removes its
    /// route, refunds its scheduler booking and puts it back at the head of
    /// its queue (or refuses it if the queue has since filled). The refund
    /// targets the life of the front that booked it; if that front has
    /// since crashed, the dispatch simply evaporates and the client's
    /// timeout/retry resolves the request.
    pub(super) fn requeue_undelivered(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        rpn_idx: u16,
        meta: DispatchMeta,
    ) {
        let f = meta.rdn as usize;
        if !self.fronts[f].in_life(meta.rdn_epoch) {
            return;
        }
        let mut request = meta.request;
        self.fronts[f].conn_table.remove(request.conn);
        match self.params.mode {
            GageMode::Enabled => {
                request.enqueued_at = ctx.now();
                let bounced = self.fronts[f].scheduler.bounce(
                    meta.sub,
                    RpnId(rpn_idx),
                    meta.predicted,
                    request,
                    &mut self.tracer,
                );
                if let Err(req) = bounced {
                    self.refuse(ctx, f, req.site, req.pending);
                }
            }
            GageMode::Bypass => {
                // No scheduler queues to return to: refuse outright.
                self.refuse(ctx, f, request.site, request.pending);
            }
        }
    }

    /// Charges the client's ACK/FIN stream for a completed response to the
    /// bridge of the front that dispatched it (boot generation `epoch`)
    /// and drops the route. If that life of the front is gone there is no
    /// bridge, and no route, left to charge — the response itself flows
    /// directly RPN → client, so the request serves either way.
    pub(super) fn bridge_acks(
        &mut self,
        now: SimTime,
        rdn: u16,
        epoch: u32,
        conn: FourTuple,
        size: u64,
    ) {
        let f = rdn as usize;
        if !self.fronts[f].in_life(epoch) {
            return;
        }
        let (_data_pkts, ack_pkts) = response_packet_counts(size);
        self.charge_rdn(
            f,
            now,
            ack_pkts + 1,
            RDN_COSTS.forwarding_us * (ack_pkts + 1) as f64,
        );
        self.fronts[f].conn_table.remove(conn);
    }

    /// Fail-stop crash of front end `rdn`: it reboots through
    /// [`RdnFront::boot`] in its next epoch, so its queued requests,
    /// dispatch bookings, connection routes and accounting rows are lost
    /// and reports, gossip and refunds addressed to the old life are
    /// recognizably stale. Only its CPU and packet meters carry over. In-
    /// flight requests it dispatched still complete (responses flow
    /// directly RPN → client); queued ones resolve through client timeout
    /// and retry against the shard's next owner. Idempotent.
    pub(super) fn on_rdn_crash(&mut self, now: SimTime, rdn: u16) {
        let f = rdn as usize;
        if self.fronts[f].dead() {
            return; // already down
        }
        let epoch = self.fronts[f].epoch.wrapping_add(1);
        let mut cold = RdnFront::boot(&self.params, &self.registry, epoch);
        cold.metrics = std::mem::take(&mut self.fronts[f].metrics);
        cold.dead_since = Some(now);
        self.fronts[f] = cold;
        self.tracer.emit(TraceEvent::RdnCrash { rdn });
    }

    /// Reboot of a crashed front end: it comes back with empty queues, a
    /// cold accounting table (gossip refills peer rows; its own restart
    /// at a higher epoch supersedes stale copies of it elsewhere) and a
    /// re-armed watchdog and gossip chain. Shards it still owns get
    /// their reservations back immediately; adopted ones return at the
    /// next scheduling tick. Idempotent.
    pub(super) fn on_rdn_recover(&mut self, ctx: &mut Context<'_, Ev>, rdn: u16) {
        let f = rdn as usize;
        if !self.fronts[f].dead() {
            return; // already up
        }
        self.fronts[f].dead_since = None;
        self.tracer.emit(TraceEvent::RdnRecover { rdn });
        self.fronts[f].scheduler.restart_report_clocks(ctx.now());
        // Shards whose ownership never left this front (no peer adopted
        // them inside the grace window): the rebalance pass only acts on
        // ownership *changes*.
        self.unmask_owned(rdn);
        if self.params.mode == GageMode::Enabled && self.fronts.len() > 1 {
            let epoch = self.fronts[f].epoch;
            ctx.schedule_in(self.params.accounting_cycle, Ev::GossipTick { rdn, epoch });
        }
    }

    /// Debug view: per-RPN load fractions and per-subscriber (backlog,
    /// balance, predicted) from front end 0's embedded scheduler (the
    /// whole cluster with a single RDN).
    pub fn scheduler_snapshot(&self) -> (Vec<f64>, Vec<(usize, ResourceVector, ResourceVector)>) {
        let s = &self.fronts[0].scheduler;
        let loads = s
            .nodes()
            .rpn_ids()
            .map(|id| s.nodes().load_fraction(id))
            .collect();
        let subs = (0..self.registry.len())
            .map(|i| {
                let sub = SubscriberId(i as u32);
                (s.backlog(sub), s.balance(sub), s.predicted_usage(sub))
            })
            .collect();
        (loads, subs)
    }

    /// Front end `rdn`'s measurement state (packet counts, CPU busy).
    pub fn rdn_metrics(&self, rdn: usize) -> &RdnMetrics {
        &self.fronts[rdn].metrics
    }

    /// Whether front end `rdn` is currently live.
    pub fn rdn_alive(&self, rdn: usize) -> bool {
        !self.fronts[rdn].dead()
    }

    /// Front end `rdn`'s converged accounting rows, sorted by
    /// (origin, subscriber) — the convergence probe for chaos tests.
    pub fn acct_rows(&self, rdn: usize) -> Vec<AcctRow> {
        self.fronts[rdn].acct.rows()
    }

    /// Every front end's graceful-degradation multiplier.
    pub fn degrade_scales(&self) -> Vec<f64> {
        self.fronts
            .iter()
            .map(|f| f.scheduler.degrade_scale())
            .collect()
    }

    /// The cluster's graceful-degradation multiplier (1.0 = full
    /// capacity, <1.0 = reservations scaled down, 0.0 = no live nodes):
    /// the minimum over the front ends. A dead front's fresh scheduler
    /// reads 1.0 (zero demand), so it never drags the minimum down.
    pub fn degrade_scale(&self) -> f64 {
        self.fronts
            .iter()
            .map(|f| f.scheduler.degrade_scale())
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A front's node window spans 1.2 accounting cycles, and never less
    /// than `NODE_LOOKAHEAD_SECS`, on every boot.
    #[test]
    fn node_window_covers_the_accounting_cycle() {
        let registry = SubscriberRegistry::new();
        for (cycle_ms, window_secs) in [(2_000, 2.4), (100, 0.3)] {
            let params = ClusterParams {
                accounting_cycle: SimDuration::from_millis(cycle_ms),
                ..Default::default()
            };
            for epoch in [0, 1] {
                let front = RdnFront::boot(&params, &registry, epoch);
                let window = front.scheduler.nodes().window(RpnId(0));
                assert!(
                    (window.cpu_us - 1e6 * window_secs).abs() < 1e-3,
                    "{cycle_ms} ms cycle, epoch {epoch}: window {} µs of CPU",
                    window.cpu_us
                );
            }
        }
    }
}
