//! The RPN role: each back-end node's local service manager (paper §3.4–
//! 3.5). It sets up the second-leg connection and the [`SpliceMap`],
//! serves requests through per-RPN lanes (see the parent module's notes
//! on lanes), charges usage to processes and reports it to every front
//! once per accounting cycle.

use std::net::Ipv4Addr;

use gage_collections::DetMap;
use gage_core::accounting::{SubscriberUsage, UsageReport};
use gage_core::node::RpnId;
use gage_core::resource::ResourceVector;
use gage_core::subscriber::SubscriberId;
use gage_des::{Context, SimDuration, SimTime};
use gage_net::addr::{FourTuple, MacAddr};
use gage_net::splice::SpliceMap;
use gage_net::SeqNum;
use gage_obs::TraceEvent;

use super::front::DispatchMeta;
use super::{Ev, World};
use crate::cache::LruCache;
use crate::params::{ClusterParams, DiskPolicy, GageMode, NETWORK, RPN_COSTS};
use crate::process::{Pid, ProcessTable};
use crate::server::BusyLine;

/// An in-service request on an RPN.
#[derive(Debug)]
struct ActiveReq {
    sub: SubscriberId,
    /// Run-wide logical request id (stable across retries).
    req: u64,
    predicted: ResourceVector,
    splice: SpliceMap,
    size: u64,
    /// Usage in reference-machine units, measured when the lane flushes.
    usage: ResourceVector,
    /// Process the usage is charged to: the subscriber's worker, or a
    /// forked CGI child for dynamic requests.
    pid: Pid,
    /// True if `pid` is a one-shot CGI child to reap on completion.
    reap_pid: bool,
    /// The front end (and its boot epoch) that dispatched the request;
    /// the completion only bridges ACKs through that same life of it.
    rdn: u16,
    rdn_epoch: u32,
    /// CPU and disk stage finish times for [`World::rpn_occupancy`],
    /// filled in when the owning lane flushes (until then the request is
    /// inbox-resident and both read as [`SimTime::MAX`], i.e. "still in
    /// the CPU stage").
    cpu_fin: SimTime,
    disk_fin: SimTime,
}

/// One entry of an RPN lane's inbox: a request waiting for the next
/// barrier flush, in arrival order (struct-of-arrays style — service
/// parameters travel here, identity/accounting state lives in
/// [`ActiveReq`]).
#[derive(Debug)]
struct LaneJob {
    conn: FourTuple,
    /// Arrival instant: service chains from here, not from the barrier,
    /// so batching never costs capacity.
    ready: SimTime,
    path: String,
    size: u64,
    /// CGI cost multiplier (1.0 for static requests).
    cpu_mult: f64,
    /// Per-request Gage overhead in reference-machine µs (0 in bypass).
    overhead_us: f64,
}

/// One entry of an RPN lane's outbox: a finish time the barrier merge
/// turns into an [`Ev::Complete`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct LaneDone {
    conn: FourTuple,
    fin: SimTime,
    /// Whether the request took the disk stage (its collapsed completion
    /// covers one more legacy event).
    has_disk: bool,
}

/// Per-subscriber completion accumulator between accounting reports.
#[derive(Debug, Clone, Copy, Default)]
struct CycleAccum {
    settled_predicted: ResourceVector,
    completed: u32,
}

#[derive(Debug)]
pub(super) struct Rpn {
    ip: Ipv4Addr,
    pub(super) mac: MacAddr,
    cpu: BusyLine,
    disk: BusyLine,
    nic: BusyLine,
    cache: Option<LruCache>,
    pub(super) processes: ProcessTable,
    workers: Vec<Pid>,
    active: DetMap<FourTuple, ActiveReq>,
    /// Requests arrived since the last barrier, in arrival order.
    inbox: Vec<LaneJob>,
    /// Completions produced by the last flush, merged at the barrier.
    outbox: Vec<LaneDone>,
    /// Running sums of predicted vectors of in-service requests, one per
    /// dispatching front end — each accounting tick reports the slice a
    /// front booked itself, without walking `active`.
    outstanding_by_rdn: Vec<ResourceVector>,
    isn_counter: u32,
    cycle: Vec<CycleAccum>,
    total_cycle_usage: ResourceVector,
    pub(super) completed_requests: u64,
    /// Multiplier on this node's timer periods (1.0 ± a few hundred ppm).
    pub(super) clock_skew: f64,
    /// Boot generation: bumped on every crash so events scheduled against a
    /// previous life of the node (completions, accounting ticks) are
    /// recognizably stale and ignored.
    epoch: u32,
    /// Fail-stopped and not yet recovered.
    pub(super) dead: bool,
}

impl Rpn {
    /// Boots RPN `i` cold: idle service lines, an empty page cache, one
    /// worker process per subscriber and nothing in flight. Both
    /// [`super::ClusterSim::new`] and a crash build nodes here, so a reboot
    /// starts exactly as empty as a first boot.
    pub(super) fn boot(i: usize, params: &ClusterParams, n_sites: usize, clock_skew: f64) -> Rpn {
        let mut processes = ProcessTable::new();
        let workers = (0..n_sites)
            .map(|s| processes.launch_entity_root(SubscriberId(s as u32)))
            .collect();
        let cache = match params.service.disk {
            DiskPolicy::Cache { capacity_bytes, .. } => Some(LruCache::new(capacity_bytes)),
            _ => None,
        };
        Rpn {
            ip: Ipv4Addr::new(10, 0, 2, (i + 1) as u8),
            mac: MacAddr::from_node_id((i + 1) as u16),
            cpu: BusyLine::new(),
            disk: BusyLine::new(),
            nic: BusyLine::new(),
            cache,
            processes,
            workers,
            active: DetMap::new(),
            inbox: Vec::new(),
            outbox: Vec::new(),
            outstanding_by_rdn: vec![ResourceVector::ZERO; params.rdn_count],
            isn_counter: 7,
            cycle: vec![CycleAccum::default(); n_sites],
            total_cycle_usage: ResourceVector::ZERO,
            completed_requests: 0,
            clock_skew,
            epoch: 0,
            dead: false,
        }
    }
}

/// Deterministic per-node crystal skew of RPN `i`, in ±200 ppm.
pub(super) fn clock_skew(seed: u64, i: usize) -> f64 {
    let h = seed
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add((i as u64).wrapping_mul(1_442_695_040_888_963_407));
    let ppm = ((h >> 33) % 401) as f64 - 200.0;
    1.0 + ppm * 1e-6
}

/// Flushes one RPN's lane: chains every inbox request through the node's
/// CPU → disk → NIC service lines in arrival order, records per-stage
/// finish times on the matching [`ActiveReq`], and queues a [`LaneDone`]
/// per request for the barrier merge.
///
/// Deliberately a free function over `(&mut Rpn, &ClusterParams)`: it
/// touches no RDN, tracer, RNG or cross-node state, which is what makes
/// flushing all lanes from worker threads sound (the `lane-shared-state`
/// lint keeps interior mutability out of everything reachable from here).
fn flush_lane(rpn: &mut Rpn, params: &ClusterParams) {
    let speed = params.rpn_speed;
    let mut inbox = std::mem::take(&mut rpn.inbox);
    for job in inbox.drain(..) {
        let service_cpu_us = params.service.cpu_us(job.size) * job.cpu_mult;
        let cpu_us = (service_cpu_us + job.overhead_us) / speed;
        let cpu_fin = rpn
            .cpu
            .offer(job.ready, SimDuration::from_secs_f64(cpu_us / 1e6));
        let disk_us = match params.service.disk {
            DiskPolicy::None => 0.0,
            DiskPolicy::PerRequest { us } => us,
            DiskPolicy::Cache {
                seek_us,
                transfer_bytes_per_sec,
                ..
            } => {
                let miss = rpn
                    .cache
                    .as_mut()
                    .is_some_and(|c| !c.access(&job.path, job.size));
                if miss {
                    seek_us + job.size as f64 / transfer_bytes_per_sec * 1e6
                } else {
                    0.0
                }
            }
        };
        let disk_fin = if disk_us > 0.0 {
            rpn.disk
                .offer(cpu_fin, SimDuration::from_secs_f64(disk_us / 1e6))
        } else {
            cpu_fin
        };
        let wire = response_wire_bytes(job.size);
        let nic_fin = rpn.nic.offer(
            disk_fin,
            SimDuration::from_secs_f64(wire / NETWORK.rpn_egress_bytes_per_sec),
        );
        if let Some(req) = rpn.active.get_mut(&job.conn) {
            // CPU is accounted in reference-machine µs.
            req.usage = ResourceVector::new(cpu_us * speed, disk_us, wire);
            req.cpu_fin = cpu_fin;
            req.disk_fin = disk_fin;
        }
        rpn.outbox.push(LaneDone {
            conn: job.conn,
            fin: nic_fin,
            has_disk: disk_us > 0.0,
        });
    }
    rpn.inbox = inbox;
}

pub(super) fn response_packet_counts(size: u64) -> (u64, u64) {
    let data_pkts = (size + 200).div_ceil(NETWORK.mss as u64).max(1);
    (data_pkts, data_pkts) // one ACK per data packet, per the paper
}

fn response_wire_bytes(size: u64) -> f64 {
    let (data_pkts, _) = response_packet_counts(size);
    (size + 200 + data_pkts * 54) as f64
}

impl World {
    /// Flushes every RPN lane (see [`flush_lane`]). With `params.lanes > 1`
    /// the RPN array is split into contiguous chunks flushed by scoped
    /// worker threads; each lane's arithmetic is confined to its own RPN,
    /// so the result is independent of the thread count.
    ///
    /// Threads are only spawned when the barrier batch is large enough to
    /// amortize the ~tens-of-µs spawn/join cost; below
    /// `LANE_PARALLEL_THRESHOLD` jobs the flush runs inline. The
    /// threshold is a pure function of deterministic state (inbox sizes),
    /// and inline vs threaded flushing computes identical results, so the
    /// cutover cannot perturb determinism.
    fn flush_lanes(&mut self) {
        /// Minimum jobs in a barrier batch before worker threads pay off.
        const LANE_PARALLEL_THRESHOLD: usize = 1024;
        let jobs: usize = self.rpns.iter().map(|r| r.inbox.len()).sum();
        if jobs == 0 {
            return;
        }
        let params = &self.params;
        let rpns = &mut self.rpns;
        let lanes = params.lanes.max(1).min(rpns.len());
        if lanes <= 1 || jobs < LANE_PARALLEL_THRESHOLD {
            for rpn in rpns.iter_mut() {
                flush_lane(rpn, params);
            }
        } else {
            let chunk = rpns.len().div_ceil(lanes);
            std::thread::scope(|s| {
                for slice in rpns.chunks_mut(chunk) {
                    s.spawn(move || {
                        for rpn in slice {
                            flush_lane(rpn, params);
                        }
                    });
                }
            });
        }
    }

    /// Merges RPN `r`'s outbox into the event queue: every completion is
    /// scheduled at its exact finish time (clamped to now by the engine)
    /// and the collapsed per-stage events are credited as logical events.
    /// Always called in fixed RPN order — this is the determinism barrier.
    fn merge_outbox(&mut self, ctx: &mut Context<'_, Ev>, r: usize) {
        let epoch = self.rpns[r].epoch;
        let mut outbox = std::mem::take(&mut self.rpns[r].outbox);
        for done in outbox.drain(..) {
            // One legacy CpuDone + NicDone pair collapses into Complete
            // (+1 logical), plus DiskDone when the disk stage ran.
            ctx.count_logical(1 + u64::from(done.has_disk));
            ctx.schedule_at(
                done.fin,
                Ev::Complete {
                    rpn: r as u16,
                    epoch,
                    conn: done.conn,
                },
            );
        }
        self.rpns[r].outbox = outbox;
    }

    /// The lane barrier the scheduling tick runs first: flush every lane
    /// (possibly in parallel), then merge completions back in fixed RPN
    /// order.
    pub(super) fn lane_barrier(&mut self, ctx: &mut Context<'_, Ev>) {
        self.flush_lanes();
        for r in 0..self.rpns.len() {
            self.merge_outbox(ctx, r);
        }
    }

    pub(super) fn on_rpn_arrive(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        rpn_idx: u16,
        meta: DispatchMeta,
    ) {
        if self.rpns[rpn_idx as usize].dead {
            // The node is down; delivery failure is visible at the link
            // layer, so the RDN pulls the dispatch back: its booking is
            // voided and it rejoins the head of its queue for another node.
            self.requeue_undelivered(ctx, rpn_idx, meta);
            return;
        }
        let request = meta.request;
        let (data_pkts, ack_pkts) = response_packet_counts(request.size);
        let overhead_us = match self.params.mode {
            GageMode::Enabled => RPN_COSTS.per_request_us(data_pkts, ack_pkts),
            GageMode::Bypass => 0.0,
        };
        // CGI-style dynamic requests fork a child of the subscriber's
        // worker and burn a multiple of the static CPU cost; the child's
        // usage rolls up to the charging entity through the process tree.
        let dynamic = self
            .params
            .dynamic
            .as_ref()
            .filter(|d| request.path.starts_with(&d.path_prefix))
            .map(|d| d.cpu_multiplier);
        let rpn = &mut self.rpns[rpn_idx as usize];
        rpn.isn_counter = rpn.isn_counter.wrapping_add(104_729);
        let splice = SpliceMap::new_traced(
            request.conn.src,
            self.cluster_ep,
            rpn.ip,
            request.rdn_isn,
            SeqNum::new(rpn.isn_counter),
            request.req,
            &mut self.tracer,
        );
        let worker = rpn.workers[meta.sub.0 as usize];
        let (pid, reap_pid) = if dynamic.is_some() {
            match rpn.processes.spawn_child(worker) {
                Some(child) => (child, true),
                None => (worker, false),
            }
        } else {
            (worker, false)
        };
        rpn.outstanding_by_rdn[meta.rdn as usize] += meta.predicted;
        rpn.active.insert(
            request.conn,
            ActiveReq {
                sub: meta.sub,
                req: request.req,
                predicted: meta.predicted,
                splice,
                size: request.size,
                usage: ResourceVector::ZERO,
                pid,
                reap_pid,
                rdn: meta.rdn,
                rdn_epoch: meta.rdn_epoch,
                cpu_fin: SimTime::MAX,
                disk_fin: SimTime::MAX,
            },
        );
        rpn.inbox.push(LaneJob {
            conn: request.conn,
            ready: ctx.now(),
            path: request.path,
            size: request.size,
            cpu_mult: dynamic.unwrap_or(1.0),
            overhead_us,
        });
        if self.params.mode == GageMode::Bypass {
            // No scheduling tick exists to act as the barrier: flush this
            // lane inline, which reproduces exact unbatched timing.
            flush_lane(&mut self.rpns[rpn_idx as usize], &self.params);
            self.merge_outbox(ctx, rpn_idx as usize);
        }
    }

    /// True if an event stamped with `epoch` belongs to a previous life of
    /// the node (or the node is down) and must be ignored.
    fn stale_epoch(&self, rpn_idx: u16, epoch: u32) -> bool {
        let rpn = &self.rpns[rpn_idx as usize];
        rpn.dead || rpn.epoch != epoch
    }

    /// A request's NIC stage drained: settle its accounting, charge the
    /// bridged ACK/FIN stream, tear the splice down and send the response
    /// on its final hop to the client.
    pub(super) fn on_complete(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        rpn_idx: u16,
        epoch: u32,
        conn: FourTuple,
    ) {
        if self.stale_epoch(rpn_idx, epoch) {
            return;
        }
        let Some(req) = self.rpns[rpn_idx as usize].active.remove(&conn) else {
            return;
        };
        let sub = req.sub;
        req.splice.trace_teardown(req.req, &mut self.tracer);
        self.tracer.emit(TraceEvent::ReqComplete {
            sub: sub.0,
            req: req.req,
            rpn: rpn_idx,
        });
        let actual = req.usage;

        // Charge the owning process (the worker, or the CGI child for
        // dynamic requests) — per-process accounting, paper §3.5.
        let rpn = &mut self.rpns[rpn_idx as usize];
        rpn.processes.charge(req.pid, actual);
        if req.reap_pid {
            rpn.processes.exit(req.pid);
        }
        let acc = &mut rpn.cycle[sub.0 as usize];
        acc.settled_predicted += req.predicted;
        acc.completed += 1;
        rpn.total_cycle_usage += actual;
        rpn.completed_requests += 1;
        rpn.outstanding_by_rdn[req.rdn as usize] -= req.predicted;

        self.bridge_acks(ctx.now(), req.rdn, req.rdn_epoch, conn, req.size);
        ctx.schedule_in(self.hop(), Ev::ResponseArrive { sub: sub.0, conn });
    }

    pub(super) fn on_acct_tick(&mut self, ctx: &mut Context<'_, Ev>, rpn_idx: u16, epoch: u32) {
        if self.stale_epoch(rpn_idx, epoch) {
            return; // crashed nodes stop reporting until recovery reboots them
        }
        // One report per front end, each carrying the usage lines of the
        // subscribers that front currently owns plus the backlog it
        // booked itself. A front with no owned activity still gets an
        // empty report — the heartbeat its watchdog runs on.
        let hop = self.hop();
        let rpn = &mut self.rpns[rpn_idx as usize];
        let rollup = rpn.processes.rollup();
        let mut lines: Vec<Vec<SubscriberUsage>> = vec![Vec::new(); self.fronts.len()];
        for (i, acc) in rpn.cycle.iter_mut().enumerate() {
            let sub = SubscriberId(i as u32);
            let actual = rollup.get(&sub).copied().unwrap_or(ResourceVector::ZERO);
            if acc.completed == 0 && actual == ResourceVector::ZERO {
                continue;
            }
            lines[self.shards.owner_of(sub.0) as usize].push(SubscriberUsage {
                subscriber: sub,
                actual,
                settled_predicted: acc.settled_predicted,
                completed: acc.completed,
            });
            *acc = CycleAccum::default();
        }
        let total = std::mem::replace(&mut rpn.total_cycle_usage, ResourceVector::ZERO);
        for (dest, per_subscriber) in lines.into_iter().enumerate() {
            // Each node reports its remaining predicted backlog so every
            // front's outstanding estimate re-anchors to ground truth —
            // sliced per front, since each front booked only its own
            // dispatches. The whole-node `total` goes to every front (it
            // is observational, not a booking).
            let report = UsageReport {
                rpn: RpnId(rpn_idx),
                total,
                outstanding_predicted: rpn.outstanding_by_rdn[dest],
                per_subscriber,
            };
            // Loss windows draw from the fault plan's own RNG stream so the
            // traffic stream is untouched. One draw per destination, in
            // fixed order.
            let lost = self
                .faults
                .report_loss_at(ctx.now())
                .is_some_and(|p| self.faults.chance(p));
            if lost {
                self.lost_reports += 1;
            } else if !self.fronts[dest].dead() {
                // A report to a dead front vanishes on the wire; it is
                // not an injected loss, so it is not counted as one.
                ctx.schedule_in(
                    hop,
                    Ev::Report {
                        to_rdn: dest as u16,
                        report: Box::new(report),
                    },
                );
            }
        }
        // Each node's periodic timer runs on its own crystal: a fixed skew
        // of a few hundred ppm. Reports therefore stay clustered across the
        // cluster (the nodes started together) while the cluster-wide phase
        // drifts slowly relative to measurement windows, as on real
        // hardware.
        let skew = rpn.clock_skew;
        // Kernel timers also fire with small scheduling noise (±1% of the
        // period here); without it the perfectly-periodic reports alias
        // against averaging windows that are exact multiples of the cycle.
        let noise = 0.99 + 0.02 * ctx.rng().f64();
        ctx.schedule_in(
            self.params.accounting_cycle.mul_f64(skew * noise),
            Ev::AcctTick {
                rpn: rpn_idx,
                epoch,
            },
        );
    }

    /// Fail-stop crash: the node reboots cold through [`Rpn::boot`], so
    /// its in-flight work (inbox included), process table, cache and
    /// service lines are lost. Only its identity, ISN clock and lifetime
    /// completion count carry over, and its boot epoch advances so every
    /// event scheduled against the old life is stale. Idempotent.
    pub(super) fn on_rpn_crash(&mut self, rpn_idx: u16) {
        let idx = rpn_idx as usize;
        let old = &self.rpns[idx];
        if old.dead {
            return; // already down
        }
        let mut cold = Rpn::boot(idx, &self.params, self.registry.len(), old.clock_skew);
        cold.epoch = old.epoch.wrapping_add(1);
        cold.isn_counter = old.isn_counter;
        cold.completed_requests = old.completed_requests;
        cold.dead = true;
        self.rpns[idx] = cold;
        self.tracer.emit(TraceEvent::RpnCrash { rpn: rpn_idx });
    }

    /// Reboot of a crashed node: it comes back cold and restarts its
    /// accounting chain; its first report is what re-registers it with the
    /// RDN (the watchdog's up-path). Idempotent.
    pub(super) fn on_rpn_recover(&mut self, ctx: &mut Context<'_, Ev>, rpn_idx: u16) {
        let rpn = &mut self.rpns[rpn_idx as usize];
        if !rpn.dead {
            return; // already up
        }
        rpn.dead = false;
        let (skew, epoch) = (rpn.clock_skew, rpn.epoch);
        self.tracer.emit(TraceEvent::RpnRecover { rpn: rpn_idx });
        if self.params.mode == GageMode::Enabled {
            ctx.schedule_in(
                self.params.accounting_cycle.mul_f64(skew),
                Ev::AcctTick {
                    rpn: rpn_idx,
                    epoch,
                },
            );
        }
    }

    /// Debug view: per-RPN (active requests, cpu stage, disk stage, nic
    /// stage) occupancy. A request counts toward the stage whose finish
    /// time is still in the future at the last handled event (inbox-
    /// resident requests count as CPU-stage: they have not started).
    pub fn rpn_occupancy(&self) -> Vec<(usize, usize, usize, usize)> {
        let now = self.last_event_at;
        self.rpns
            .iter()
            .map(|r| {
                let active = r.active.len();
                let cpu = r.active.values().filter(|a| a.cpu_fin > now).count();
                let disk = r
                    .active
                    .values()
                    .filter(|a| a.cpu_fin <= now && a.disk_fin > now)
                    .count();
                (active, cpu, disk, active - cpu - disk)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ClusterSim;
    use gage_net::addr::{Endpoint, Port};

    fn sim_with_lanes(lanes: usize) -> ClusterSim {
        let params = ClusterParams {
            rpn_count: 8,
            lanes,
            ..Default::default()
        };
        ClusterSim::new(params, Vec::new(), 7)
    }

    fn stuff_inboxes(world: &mut World, per_rpn: usize) {
        for (r, rpn) in world.rpns.iter_mut().enumerate() {
            for j in 0..per_rpn {
                let i = (r * per_rpn + j) as u32;
                let client = Endpoint::new(Ipv4Addr::from(0x0a01_0000 | i), Port::new(2_000));
                let conn = FourTuple::new(
                    client,
                    Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP),
                );
                rpn.inbox.push(LaneJob {
                    conn,
                    ready: SimTime::from_nanos(u64::from(i) * 1_000),
                    path: format!("/f{}.html", i % 37),
                    size: 1_000 + u64::from(i % 5_000),
                    cpu_mult: 1.0,
                    overhead_us: 75.0,
                });
            }
        }
    }

    /// The scoped-thread flush path (reached only above the parallel
    /// threshold, which no small workload crosses) must compute exactly
    /// what the inline path computes.
    #[test]
    fn threaded_flush_matches_inline_flush() {
        let mut inline = sim_with_lanes(1);
        let mut threaded = sim_with_lanes(4);
        // 8 RPNs x 200 jobs = 1600, comfortably above the 1024-job
        // threshold, so lanes=4 genuinely takes std::thread::scope.
        stuff_inboxes(inline.sim.model_mut(), 200);
        stuff_inboxes(threaded.sim.model_mut(), 200);
        inline.sim.model_mut().flush_lanes();
        threaded.sim.model_mut().flush_lanes();
        for (a, b) in inline.world().rpns.iter().zip(threaded.world().rpns.iter()) {
            assert!(a.inbox.is_empty() && b.inbox.is_empty());
            assert_eq!(a.outbox.len(), 200);
            assert_eq!(a.outbox, b.outbox);
            assert_eq!((a.cpu, a.disk, a.nic), (b.cpu, b.disk, b.nic));
        }
    }
}
