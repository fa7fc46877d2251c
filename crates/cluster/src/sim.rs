//! The simulated Gage cluster: clients, RDN, RPNs and the event loop.
//!
//! The message flow follows the paper's Figure 2. Per request:
//!
//! 1. the client opens a connection to the cluster address; the RDN's
//!    handshake emulation answers SYN-ACK (charging Table-3 setup cost)
//!    and the client follows with the handshake ACK and the URL packet —
//!    the whole first-leg exchange is a single [`Ev::UrlArrive`] event
//!    that charges every packet of the exchange in one batch,
//! 2. the RDN classifies the URL (3 µs), resolves the subscriber by Host,
//!    and queues the request,
//! 3. every 10 ms the request scheduler dispatches queued requests; each
//!    dispatch installs a connection-table route and forwards the request
//!    to the chosen RPN (7 µs),
//! 4. the RPN's local service manager sets up the second-leg connection
//!    (27.2 µs), builds the [`SpliceMap`](gage_net::SpliceMap), and hands
//!    the request to its *lane*: a per-RPN batch of CPU → disk → NIC
//!    service stages evaluated in struct-of-arrays fashion at the next
//!    scheduling-cycle barrier (see
//!    [module docs on lanes](#deterministic-per-rpn-lanes)),
//! 5. the response flows *directly* to the client (sequence/address
//!    remapped, 4.6 µs per data packet); client ACKs flow back through the
//!    RDN bridge (7 µs each) to the RPN (1.3 µs remap each) — all charged
//!    numerically when the response completes,
//! 6. each accounting cycle the RPN rolls up per-process usage by charging
//!    entity and reports it; the RDN reconciles balances and windows.
//!
//! Control-path state (connection-table routes, splice remaps, process
//! trees) is still carried through the real data structures; only the
//! per-packet event traffic is aggregated, with each collapsed packet
//! credited to the engine's event count via [`Context::count_logical`].
//!
//! # Deterministic per-RPN lanes
//!
//! Each RPN owns an *inbox* of newly arrived requests. Between two
//! scheduling-cycle barriers nothing reads another RPN's inbox, so
//! flushing an inbox — chaining each request through the node's CPU, disk
//! and NIC [`BusyLine`](crate::server::BusyLine)s and recording its finish
//! times — is independent per RPN. At the barrier ([`Ev::SchedTick`]) every lane is flushed,
//! optionally on `params.lanes` worker threads over disjoint RPN chunks,
//! and the resulting completions are merged back **in fixed RPN order**
//! and scheduled at their exact finish times. Because a lane's arithmetic
//! depends only on its own RPN's state and the merge order is static,
//! same-seed runs are byte-identical for every lane count.
//! Finish times earlier than the barrier clamp to the barrier instant
//! (the engine never schedules into the past), so a sub-cycle response
//! completes at the next tick — bounded by one 10 ms cycle, well inside
//! every latency band the paper's tables quote.
//!
//! In [`GageMode::Bypass`] there is no scheduling tick, so lanes flush
//! inline on arrival, which degenerates to the exact unbatched timing.
//!
//! # Failure and recovery
//!
//! Faults are injected by a scripted, seeded [`crate::FaultPlan`]
//! (crash/recover events, report-loss windows, degraded RDN→RPN links).
//! Every issued request terminally resolves as *served*, *dropped*
//! (refused by the RDN with an RST) or *failed* (client timeout after
//! bounded retries) — the chaos suite asserts this conservation exactly.
//! A crashed node loses its in-flight work (inbox included); the RDN's
//! report watchdog writes it off ([`TraceEvent::NodeDown`]), purges its
//! splice routes and re-queues dispatches that bounced off it. A
//! recovered node reboots cold (fresh process table, cold cache),
//! restarts its accounting chain, and its first report re-registers it
//! with the RDN ([`TraceEvent::NodeUp`]) — the watchdog's symmetric
//! up-path. While live capacity is short of the reservation sum, the
//! scheduler scales effective reservations proportionally (graceful
//! degradation).
//!
//! # Multi-RDN sharded front end
//!
//! With `params.rdn_count > 1` the front end is a set of peer RDNs, each
//! owning the disjoint subscriber shard [`ClusterParams::shard_of`] maps
//! to it. Each front runs its own request scheduler over `1/rdn_count`
//! of every RPN's capacity, its own connection table, interrupt/CPU
//! metrics and report watchdog; RPNs address one usage report per
//! accounting tick to every front (per-owner usage lines, per-front
//! outstanding backlog) so the front ends never share mutable state.
//!
//! Accounting converges through a conflict-free merge: every front keeps
//! an [`AcctTable`](gage_core::merge::AcctTable) of per-`(origin RDN, subscriber)` monotone usage
//! rows and gossips its full table to its peers once per accounting
//! cycle ([`TraceEvent::ReportGossip`] / [`TraceEvent::AcctMerge`]).
//! Rows merge by epoch-then-componentwise-max, so report loss,
//! duplication and reordering — including healed inter-RDN partitions
//! ([`FaultPlan::rdn_partition`]) — cannot diverge the tables.
//!
//! RDN fail-stop crashes ([`FaultPlan::rdn_crash_at`]) trigger shard
//! failover at the scheduling tick: once a dead front has been silent
//! for the watchdog grace, the lowest-numbered live peer adopts its
//! shard — full reservations are unmasked at the adopter, whose
//! graceful-degradation pass proportionally rescales them against its
//! capacity share ([`TraceEvent::ShardTakeover`]). A recovered home
//! front reclaims its shard at the next tick: queued requests drain to
//! the new owner, so `offered == served + dropped + failed` stays
//! structurally exact through takeover. Ownership is decided solely by
//! the scripted crash schedule — partitions only delay gossip, so there
//! is no split-brain. With `rdn_count == 1` all of this machinery is
//! inert and the run is byte-identical to the single-RDN simulator.
//!
//! # Layout
//!
//! This file holds the [`World`], the [`Ev`] event set, the event dispatch
//! and the [`ClusterSim`] builder. Each role's state and handlers live in a
//! child module: `client` (issue, timeouts, retries), `front` (the RDN
//! peers), `rpn` (the back ends and their lanes) and `shard` (which front
//! answers for which subscribers). Each role has one constructor, used at
//! start-up and again when a crash reboots it cold. Roles call each other
//! synchronously at five points — the front reads a client's pending URL,
//! a completion charges the dispatching front's ACK bridge, a dispatch to a
//! dead RPN bounces back to its front, the scheduling tick runs the lane
//! barrier and the accounting tick reads shard owners — because turning
//! any of them into an event would reorder same-instant events.

mod client;
mod front;
mod rpn;
mod shard;

use std::net::Ipv4Addr;

use gage_core::accounting::UsageReport;
use gage_core::merge::AcctRow;
use gage_core::node::RpnId;
use gage_core::resource::Grps;
use gage_core::scheduler::{Dispatch, SubscriberCounters};
use gage_core::subscriber::{SubscriberId, SubscriberRegistry};
use gage_des::{Context, Model, SimDuration, SimTime, Simulation};
use gage_net::addr::{Endpoint, FourTuple, Port};
use gage_obs::{Registry, TraceEvent, TraceRing, Tracer};
use gage_workload::Trace;

use crate::faults::{FaultEvent, FaultPlan, FaultState};
use crate::metrics::{utilization_in_window, SubscriberMetrics};
use crate::params::{ClusterParams, GageMode, NETWORK};

use front::{DispatchMeta, PendingRequest, RdnFront};
use rpn::Rpn;
use shard::ShardMap;

/// One hosted site: its host name, reservation and offered workload.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Classification host name.
    pub host: String,
    /// Reserved GRPS.
    pub reservation: Grps,
    /// The requests its clients will issue.
    pub trace: Trace,
}

/// Cluster events (public only because [`World`] implements
/// [`Model<Event = Ev>`]; not part of the supported API).
#[doc(hidden)]
#[derive(Debug)]
pub enum Ev {
    /// A client issues trace entry `idx` of subscriber `sub`.
    Issue { sub: u32, idx: u32 },
    /// The client's URL packet reaches the RDN, handshake complete (the
    /// whole 3-hop first-leg exchange collapsed into one event).
    UrlArrive { sub: u32, conn: FourTuple },
    /// An RDN refusal (RST) reaches the client.
    ClientRst { sub: u32, conn: FourTuple },
    /// A dispatched request reaches an RPN. The metadata is boxed to keep
    /// `Ev` small: every wheel slot move copies a full `Ev`, and dispatches
    /// are a small fraction of total events.
    RpnArrive { rpn: u16, meta: Box<DispatchMeta> },
    /// An RPN finished serving a request (NIC drained); valid only in the
    /// node's boot `epoch`.
    Complete {
        rpn: u16,
        epoch: u32,
        conn: FourTuple,
    },
    /// A complete response reaches a client.
    ResponseArrive { sub: u32, conn: FourTuple },
    /// A client's per-attempt request timer expired.
    ClientTimeout {
        sub: u32,
        conn: FourTuple,
        attempt: u32,
    },
    /// The RDN scheduler's 10 ms tick — also the lane barrier.
    SchedTick,
    /// An RPN's accounting-cycle tick (valid only in its boot `epoch`).
    AcctTick { rpn: u16, epoch: u32 },
    /// An accounting report reaches front end `to_rdn`. Boxed for the
    /// same reason as [`Ev::RpnArrive`]: reports are one event per
    /// accounting cycle per front, but their inline size would tax every
    /// event the wheel moves.
    Report {
        to_rdn: u16,
        report: Box<UsageReport>,
    },
    /// Fail-stop crash of an RPN (fault injection).
    CrashRpn { rpn: u16 },
    /// Reboot of a crashed RPN (fault injection).
    RecoverRpn { rpn: u16 },
    /// Fail-stop crash of front end `rdn` (fault injection).
    CrashRdn { rdn: u16 },
    /// Reboot of a crashed front end (fault injection).
    RecoverRdn { rdn: u16 },
    /// Front end `rdn`'s accounting-gossip timer (valid only in its boot
    /// `epoch`; never scheduled with a single RDN).
    GossipTick { rdn: u16, epoch: u32 },
    /// A gossiped accounting-table snapshot reaches front end `to`.
    GossipArrive {
        to: u16,
        from: u16,
        rows: Box<Vec<AcctRow>>,
    },
}

/// The simulation world.
#[derive(Debug)]
pub struct World {
    params: ClusterParams,
    registry: SubscriberRegistry,
    traces: Vec<Trace>,
    cluster_ep: Endpoint,
    /// The front-end RDNs, `params.rdn_count` of them.
    fronts: Vec<RdnFront>,
    rpns: Vec<Rpn>,
    /// Each subscriber's clients.
    clients: Vec<client::ClientSide>,
    /// Which front answers for which subscribers.
    shards: ShardMap,
    rr_next: usize,
    isn_counter: u32,
    /// Next run-wide logical request id. Assigned unconditionally at issue
    /// time (traced or not) so tracing never perturbs behaviour.
    next_req: u64,
    /// Per-subscriber measurement series.
    pub metrics: Vec<SubscriberMetrics>,
    /// Requests dropped because the Host was unknown.
    pub unknown_host_drops: u64,
    /// Lifetime dispatches funded by the reserved pass.
    pub reserved_dispatches: u64,
    /// Lifetime dispatches funded by the spare pass.
    pub spare_dispatches: u64,
    /// CPU busy time of each secondary RDN (handshake offload).
    pub secondary_busy: Vec<gage_des::stats::BusyTracker>,
    secondary_rr: usize,
    /// Reports dropped by the injected loss process.
    pub lost_reports: u64,
    /// Runtime state of the installed [`FaultPlan`] (inactive by default).
    faults: FaultState,
    /// Reused scratch buffer for the 10 ms scheduler tick, so the steady
    /// state allocates no dispatch `Vec` per cycle.
    dispatch_buf: Vec<Dispatch<PendingRequest>>,
    /// Scheduling ticks handled so far (drives the periodic queue-stats
    /// trace record).
    sched_ticks: u64,
    /// Instant of the most recent handled event — the "now" that debug
    /// views evaluate stage occupancy against.
    last_event_at: SimTime,
    /// The simulator's one trace sink, lent to the schedulers and the
    /// splice layer on each call that emits; disabled unless
    /// [`ClusterSim::enable_tracing`] is called.
    tracer: Tracer,
}

impl World {
    fn hop(&self) -> SimDuration {
        NETWORK.hop_latency
    }
}

impl Model for World {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
        // Keep the trace clock on virtual time: every record emitted while
        // handling this event is stamped with the event's instant.
        self.tracer.set_now(ctx.now());
        self.last_event_at = ctx.now();
        match event {
            Ev::Issue { sub, idx } => self.on_issue(ctx, sub, idx),
            Ev::UrlArrive { sub, conn } => self.on_url_arrive(ctx, sub, conn),
            Ev::ClientRst { sub, conn } => self.on_client_rst(ctx, sub, conn),
            Ev::RpnArrive { rpn, meta } => self.on_rpn_arrive(ctx, rpn, *meta),
            Ev::Complete { rpn, epoch, conn } => self.on_complete(ctx, rpn, epoch, conn),
            Ev::ResponseArrive { sub, conn } => self.on_response_arrive(ctx, sub, conn),
            Ev::ClientTimeout { sub, conn, attempt } => {
                self.on_client_timeout(ctx, sub, conn, attempt)
            }
            Ev::SchedTick => self.on_sched_tick(ctx),
            Ev::AcctTick { rpn, epoch } => self.on_acct_tick(ctx, rpn, epoch),
            Ev::Report { to_rdn, report } => self.on_report(ctx, to_rdn, *report),
            // Fail-stop: the node vanishes. The RDN only learns of it when
            // the report watchdog fires; until then dispatches bounce off
            // the dead node and are re-queued.
            Ev::CrashRpn { rpn } => self.on_rpn_crash(rpn),
            Ev::RecoverRpn { rpn } => self.on_rpn_recover(ctx, rpn),
            // Fail-stop of a front end: peers only react through the
            // failover grace; clients through timeout and retry.
            Ev::CrashRdn { rdn } => self.on_rdn_crash(ctx.now(), rdn),
            Ev::RecoverRdn { rdn } => self.on_rdn_recover(ctx, rdn),
            Ev::GossipTick { rdn, epoch } => self.on_gossip_tick(ctx, rdn, epoch),
            Ev::GossipArrive { to, from, rows } => self.on_gossip_arrive(to, from, &rows),
        }
    }
}

/// Builder + runner for a simulated cluster experiment.
#[derive(Debug)]
pub struct ClusterSim {
    sim: Simulation<World>,
}

impl ClusterSim {
    /// Builds a cluster hosting `sites` under `params`, with all client
    /// traffic pre-scheduled from the site traces.
    ///
    /// # Panics
    ///
    /// Panics if `params.rpn_count` or `params.rdn_count` is zero or a
    /// site host is duplicated.
    pub fn new(mut params: ClusterParams, sites: Vec<SiteSpec>, seed: u64) -> Self {
        assert!(params.rpn_count > 0, "need at least one RPN");
        assert!(params.rdn_count > 0, "need at least one RDN");
        // The in-flight window must cover the feedback delay (a
        // bandwidth-delay-product argument): with a window shorter than the
        // accounting cycle, dispatch is capped at window/cycle regardless
        // of actual capacity.
        let min_lookahead = params.accounting_cycle.as_secs_f64() * 1.2;
        if params.scheduler.node_lookahead_secs < min_lookahead {
            params.scheduler.node_lookahead_secs = min_lookahead;
        }
        let mut registry = SubscriberRegistry::new();
        for s in &sites {
            registry
                .register(s.host.clone(), s.reservation)
                .expect("duplicate site host");
        }
        let n_sites = sites.len();
        let mut world = World {
            cluster_ep: Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP),
            fronts: (0..params.rdn_count)
                .map(|_| RdnFront::boot(&params, &registry, 0))
                .collect(),
            rpns: (0..params.rpn_count)
                .map(|i| Rpn::boot(i, &params, n_sites, rpn::clock_skew(seed, i)))
                .collect(),
            clients: (0..n_sites).map(|_| Default::default()).collect(),
            shards: ShardMap::new(&params, n_sites),
            rr_next: 0,
            isn_counter: 1,
            next_req: 0,
            metrics: (0..n_sites).map(|_| SubscriberMetrics::default()).collect(),
            unknown_host_drops: 0,
            reserved_dispatches: 0,
            spare_dispatches: 0,
            secondary_busy: (0..params.secondary_rdns)
                .map(|_| gage_des::stats::BusyTracker::new(crate::metrics::METRIC_BIN))
                .collect(),
            secondary_rr: 0,
            lost_reports: 0,
            faults: FaultState::inactive(),
            dispatch_buf: Vec::new(),
            sched_ticks: 0,
            last_event_at: SimTime::ZERO,
            tracer: Tracer::disabled(),
            traces: Vec::new(),
            registry,
            params,
        };
        for f in 0..world.fronts.len() {
            world.unmask_owned(f as u16);
        }
        let mut sim = Simulation::new(world, seed);
        // Pre-schedule all trace issues, then hand the traces to the world
        // (moved, not copied), then the periodic ticks.
        for (s, site) in sites.iter().enumerate() {
            for (i, e) in site.trace.entries.iter().enumerate() {
                sim.schedule_at(
                    SimTime::from_nanos(e.at_us * 1_000),
                    Ev::Issue {
                        sub: s as u32,
                        idx: i as u32,
                    },
                );
            }
        }
        sim.model_mut().traces = sites.into_iter().map(|s| s.trace).collect();
        if sim.model().params.mode == GageMode::Enabled {
            let cycle = sim.model().params.scheduler.scheduling_cycle_secs;
            sim.schedule_at(
                SimTime::ZERO + SimDuration::from_secs_f64(cycle),
                Ev::SchedTick,
            );
            // All RPNs report on the same accounting-cycle boundary, as on
            // a testbed whose nodes start their Gage modules together. The
            // synchronized observation is what produces Figure 3's >100%
            // deviation at (2 s cycle, 1 s averaging interval). The cycle
            // phase is arbitrary relative to measurement windows (nodes
            // boot whenever), so it is deliberately not a round number.
            let acct = sim.model().params.accounting_cycle;
            let phase = acct.mul_f64(0.37);
            for r in 0..sim.model().rpns.len() {
                sim.schedule_at(
                    SimTime::ZERO + acct + phase,
                    Ev::AcctTick {
                        rpn: r as u16,
                        epoch: 0,
                    },
                );
            }
            // Peer gossip runs once per accounting cycle, phase-staggered
            // per front so snapshots interleave rather than collide. A
            // single-RDN cluster schedules none of it.
            let n_rdn = sim.model().fronts.len();
            for f in 0..n_rdn {
                if n_rdn > 1 {
                    sim.schedule_at(
                        SimTime::ZERO + acct + acct.mul_f64(0.53 + 0.11 * f as f64),
                        Ev::GossipTick {
                            rdn: f as u16,
                            epoch: 0,
                        },
                    );
                }
            }
        }
        ClusterSim { sim }
    }

    /// Runs the simulation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Attaches a trace ring of `capacity` records. The schedulers, the
    /// splice layer and the cluster world all emit into it from this point
    /// on; call before [`ClusterSim::run_until`] for a complete trace.
    /// Same-seed runs produce byte-identical dumps.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_tracing(&mut self, capacity: usize) {
        let now = self.sim.now();
        let world = self.sim.model_mut();
        world.tracer = Tracer::enabled(capacity);
        // One `Reservation` record per subscriber up front (with its home
        // shard), so dumps are self-describing for the conformance
        // auditor and its `--shard` filter.
        world.tracer.set_now(now);
        for i in 0..world.registry.len() {
            let sub = SubscriberId(i as u32);
            let grps = world.registry.get(sub).expect("registered").reservation.0;
            world.tracer.emit(TraceEvent::Reservation {
                sub: i as u32,
                grps,
                shard: world.shards.home(i),
            });
        }
    }

    /// Serializes the trace ring (see [`gage_obs::TraceRing::dump`]);
    /// `None` unless [`ClusterSim::enable_tracing`] was called.
    pub fn trace_dump(&self) -> Option<String> {
        self.world().tracer.dump()
    }

    /// Lends the trace ring to in-process consumers such as
    /// [`gage_obs::audit::audit`], which then skip the text dump; `None`
    /// unless [`ClusterSim::enable_tracing`] was called.
    pub fn trace_ring(&self) -> Option<&TraceRing> {
        self.world().tracer.ring()
    }

    /// Builds a live metrics snapshot of the whole cluster: connection
    /// table, RDN, DES event queue, scheduler counters per subscriber, and
    /// per-RPN state.
    pub fn registry(&self) -> Registry {
        let w = self.world();
        let mut reg = Registry::new();
        // Connection-table internals come from front 0; the summable
        // counters below aggregate across every front.
        w.fronts[0].conn_table.export_metrics(&mut reg);
        let qs = self.sim.queue_stats();
        reg.set_counter("des.queue_depth", qs.depth);
        reg.set_counter("des.events_scheduled", qs.scheduled);
        reg.set_counter("des.events_cancelled", qs.cancelled);
        reg.set_counter("des.wheel_cascades", qs.cascades);
        reg.set_counter("des.wheel_compactions", qs.compactions);
        reg.set_counter(
            "rdn.packets",
            w.fronts.iter().map(|f| f.metrics.packet_count).sum(),
        );
        reg.set_counter("rdn.unknown_host_drops", w.unknown_host_drops);
        reg.set_counter("sched.reserved_dispatches", w.reserved_dispatches);
        reg.set_counter("sched.spare_dispatches", w.spare_dispatches);
        reg.set_counter("reports.lost", w.lost_reports);
        for i in 0..w.registry.len() {
            let sub = SubscriberId(i as u32);
            let sum = |get: fn(SubscriberCounters) -> u64| {
                w.fronts
                    .iter()
                    .map(|f| get(f.scheduler.counters(sub)))
                    .sum()
            };
            reg.set_counter(&format!("sub{i}.accepted"), sum(|c| c.accepted));
            reg.set_counter(&format!("sub{i}.dropped"), sum(|c| c.dropped));
            reg.set_counter(&format!("sub{i}.dispatched"), sum(|c| c.dispatched));
            reg.set_counter(&format!("sub{i}.completed"), sum(|c| c.completed));
            reg.set_counter(
                &format!("sub{i}.failed"),
                w.metrics[i].failed.total() as u64,
            );
            reg.set_histogram(
                &format!("sub{i}.latency_ms"),
                w.metrics[i].latency_ms.clone(),
            );
            reg.set_histogram(
                &format!("sub{i}.queue_wait_ms"),
                w.metrics[i].queue_wait_ms.clone(),
            );
        }
        for (r, rpn) in w.rpns.iter().enumerate() {
            reg.set_counter(&format!("rpn{r}.completed"), rpn.completed_requests);
            // A node's load as the mean of the per-front fractions (each
            // front sees its own bookings against its capacity share).
            let load = w
                .fronts
                .iter()
                .map(|f| f.scheduler.nodes().load_fraction(RpnId(r as u16)))
                .sum::<f64>()
                / w.fronts.len() as f64;
            reg.observe("rpn.load_pct", load * 100.0);
        }
        reg
    }

    /// Installs a [`FaultPlan`]: schedules its crash/recover events (RPN
    /// and RDN, after last-scheduled-wins normalization — see
    /// [`FaultPlan::normalized_events`]) and arms its report-loss,
    /// link-fault and inter-RDN partition windows. Call before
    /// [`ClusterSim::run_until`]; one plan per run.
    ///
    /// # Panics
    ///
    /// Panics if any event names an RPN or RDN out of range.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        let n = self.sim.model().rpns.len();
        let n_rdn = self.sim.model().fronts.len();
        for ev in plan.normalized_events() {
            let (at, event, (role, id, count)) = match ev {
                FaultEvent::Crash { at, rpn } => (at, Ev::CrashRpn { rpn }, ("rpn", rpn, n)),
                FaultEvent::Recover { at, rpn } => (at, Ev::RecoverRpn { rpn }, ("rpn", rpn, n)),
                FaultEvent::RdnCrash { at, rdn } => (at, Ev::CrashRdn { rdn }, ("rdn", rdn, n_rdn)),
                FaultEvent::RdnRecover { at, rdn } => {
                    (at, Ev::RecoverRdn { rdn }, ("rdn", rdn, n_rdn))
                }
            };
            assert!((id as usize) < count, "{role} {id} out of range");
            self.sim.schedule_at(at, event);
        }
        self.sim.model_mut().faults.install(plan);
    }

    /// Mean CPU utilization of each secondary RDN over `[from, to)`.
    pub fn secondary_utilizations(&self, from: SimTime, to: SimTime) -> Vec<f64> {
        self.world()
            .secondary_busy
            .iter()
            .map(|b| utilization_in_window(b, from, to))
            .collect()
    }

    /// Live process count on each RPN (workers + any CGI children).
    pub fn rpn_live_processes(&self) -> Vec<usize> {
        self.world()
            .rpns
            .iter()
            .map(|r| r.processes.live_count())
            .collect()
    }

    /// The world, for metric extraction.
    pub fn world(&self) -> &World {
        self.sim.model()
    }

    /// Events the underlying DES kernel has processed so far: physical
    /// pops plus the logical per-packet events the batched handlers
    /// collapse. Subtract the pops (`queue_stats()`: scheduled − cancelled
    /// − depth) to get the credited share.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Operational counters of the DES event queue (depth, schedule and
    /// cancel totals, wheel cascades/compactions).
    pub fn queue_stats(&self) -> gage_des::QueueStats {
        self.sim.queue_stats()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Builds the end-of-run report over `[from, to)`.
    pub fn report(&self, from: SimTime, to: SimTime) -> crate::metrics::ClusterReport {
        use crate::metrics::{rate_in_window, ClusterReport, SubscriberRow};
        let w = self.world();
        let mut rows = Vec::new();
        let mut total_served = 0.0;
        for (i, m) in w.metrics.iter().enumerate() {
            let sub = w.registry.get(SubscriberId(i as u32)).expect("registered");
            let served = rate_in_window(&m.served, from, to);
            total_served += served;
            rows.push(SubscriberRow {
                subscriber: i as u32,
                host: sub.host.clone(),
                reservation: sub.reservation.0,
                offered: rate_in_window(&m.offered, from, to),
                served,
                dropped: rate_in_window(&m.dropped, from, to),
                failed: rate_in_window(&m.failed, from, to),
                mean_latency_ms: m.latency_ms.mean(),
            });
        }
        // With several fronts, report the busiest one — the front that
        // limits scale-out.
        let rdn_utilization = w
            .fronts
            .iter()
            .map(|f| utilization_in_window(&f.metrics.busy, from, to))
            .fold(0.0, f64::max);
        ClusterReport {
            subscribers: rows,
            total_served,
            rdn_utilization,
            window: (from, to),
        }
    }
}
