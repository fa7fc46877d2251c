//! The RPN role: each back-end node's local service manager (paper §3.4–
//! 3.5). It sets up the second-leg connection and the [`SpliceMap`],
//! serves each request as it arrives, charges usage to processes and
//! reports it to every front once per accounting cycle.

use std::net::Ipv4Addr;

use gage_collections::{Slab, SlabKey};
use gage_core::accounting::{SubscriberUsage, UsageReport};
use gage_core::node::RpnId;
use gage_core::resource::ResourceVector;
use gage_core::subscriber::SubscriberId;
use gage_des::{Context, SimDuration};
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
    /// The subscriber the request is served and accounted for.
    sub: SubscriberId,
    /// The issuing client's site and its attempt's handle there: the
    /// response goes to that client, whichever subscriber `sub` is.
    site: u32,
    pending: SlabKey,
    /// The client→cluster connection, whose bridge route the completion
    /// drops.
    conn: FourTuple,
    /// Run-wide logical request id (stable across retries).
    req: u64,
    predicted: ResourceVector,
    splice: SpliceMap,
    size: u64,
    /// Usage in reference-machine units, measured when the request is
    /// served on arrival.
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
    /// In-service requests. A reboot starts a fresh slab whose generations
    /// restart, so a handle resolves only in the life that issued it.
    active: Slab<ActiveReq>,
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
            active: Slab::new(),
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

pub(super) fn response_packet_counts(size: u64) -> (u64, u64) {
    let data_pkts = (size + 200).div_ceil(NETWORK.mss as u64).max(1);
    (data_pkts, data_pkts) // one ACK per data packet, per the paper
}

fn response_wire_bytes(size: u64) -> f64 {
    let (data_pkts, _) = response_packet_counts(size);
    (size + 200 + data_pkts * 54) as f64
}

impl World {
    /// A dispatched request reaches RPN `rpn_idx`, whose local service
    /// manager sets up the splice and serves the request at once: it
    /// chains the request through the node's CPU → disk → NIC service
    /// lines from now, records its usage on the [`ActiveReq`] it inserts
    /// and schedules its [`Ev::Complete`] at the NIC finish time,
    /// crediting the collapsed per-stage events as logical events.
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
        let params = &self.params;
        let (data_pkts, ack_pkts) = response_packet_counts(request.size);
        let overhead_us = match params.mode {
            GageMode::Enabled => RPN_COSTS.per_request_us(data_pkts, ack_pkts),
            GageMode::Bypass => 0.0,
        };
        // CGI-style dynamic requests fork a child of the subscriber's
        // worker and burn a multiple of the static CPU cost; the child's
        // usage rolls up to the charging entity through the process tree.
        let path = &self.traces[request.site as usize].entries[request.idx as usize].path;
        let dynamic = params
            .dynamic
            .as_ref()
            .filter(|d| path.starts_with(&d.path_prefix))
            .map(|d| d.cpu_multiplier);
        let speed = params.rpn_speed;
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

        let service_cpu_us = params.service.cpu_us(request.size) * dynamic.unwrap_or(1.0);
        let cpu_us = (service_cpu_us + overhead_us) / speed;
        let cpu_fin = rpn
            .cpu
            .offer(ctx.now(), SimDuration::from_secs_f64(cpu_us / 1e6));
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
                    .is_some_and(|c| !c.access(path, request.size));
                if miss {
                    seek_us + request.size as f64 / transfer_bytes_per_sec * 1e6
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
        let wire = response_wire_bytes(request.size);
        let nic_fin = rpn.nic.offer(
            disk_fin,
            SimDuration::from_secs_f64(wire / NETWORK.rpn_egress_bytes_per_sec),
        );

        rpn.outstanding_by_rdn[meta.rdn as usize] += meta.predicted;
        let active = rpn.active.insert(ActiveReq {
            sub: meta.sub,
            site: request.site,
            pending: request.pending,
            conn: request.conn,
            req: request.req,
            predicted: meta.predicted,
            splice,
            size: request.size,
            // CPU is accounted in reference-machine µs.
            usage: ResourceVector::new(cpu_us * speed, disk_us, wire),
            pid,
            reap_pid,
            rdn: meta.rdn,
            rdn_epoch: meta.rdn_epoch,
        });
        // One legacy CpuDone + NicDone pair collapses into Complete
        // (+1 logical), plus DiskDone when the disk stage ran.
        ctx.count_logical(1 + u64::from(disk_us > 0.0));
        ctx.schedule_at(
            nic_fin,
            Ev::Complete {
                rpn: rpn_idx,
                epoch: rpn.epoch,
                active,
            },
        );
    }

    /// True if an event stamped with `epoch` belongs to a previous life of
    /// the node (or the node is down) and must be ignored.
    fn stale_epoch(&self, rpn_idx: u16, epoch: u32) -> bool {
        let rpn = &self.rpns[rpn_idx as usize];
        rpn.dead || rpn.epoch != epoch
    }

    /// A request's NIC stage drained: settle its accounting, charge the
    /// bridged ACK/FIN stream, tear the splice down and send the response
    /// on its final hop to the issuing client.
    pub(super) fn on_complete(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        rpn_idx: u16,
        epoch: u32,
        active: SlabKey,
    ) {
        // The epoch check comes first: a rebooted node's fresh slab reuses
        // handles, so an old-life handle could alias a new request.
        if self.stale_epoch(rpn_idx, epoch) {
            return;
        }
        let Some(req) = self.rpns[rpn_idx as usize].active.remove(active) else {
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

        self.bridge_acks(ctx.now(), req.rdn, req.rdn_epoch, req.conn, req.size);
        let (sub, pending) = (req.site, req.pending);
        ctx.schedule_in(self.hop(), Ev::ResponseArrive { sub, pending });
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
    /// its in-flight work, process table, cache and service lines are
    /// lost. Only its identity, ISN clock and lifetime completion count
    /// carry over, and its boot epoch advances so every event scheduled
    /// against the old life is stale. Idempotent.
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
}
