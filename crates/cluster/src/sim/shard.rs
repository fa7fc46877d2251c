//! Shard ownership for the multi-RDN front end: which front answers for
//! each subscriber, and the failover/failback moves the scheduling tick
//! makes when a front dies or returns.

use gage_core::resource::Grps;
use gage_core::subscriber::SubscriberId;
use gage_des::Context;
use gage_obs::TraceEvent;

use super::{Ev, World};
use crate::params::ClusterParams;

/// Subscriber → home shard → current owner.
#[derive(Debug)]
pub(super) struct ShardMap {
    /// Home shard of each subscriber, from [`ClusterParams::shard_of`].
    home: Vec<u16>,
    /// Current owner of each shard (index = shard = home RDN); mutated
    /// only by failover/failback at the scheduling tick.
    owner: Vec<u16>,
}

impl ShardMap {
    /// Every subscriber homed per [`ClusterParams::shard_of`], every shard
    /// owned by its home front.
    pub(super) fn new(params: &ClusterParams, n_sites: usize) -> Self {
        ShardMap {
            home: (0..n_sites).map(|i| params.shard_of(i as u32)).collect(),
            owner: (0..params.rdn_count as u16).collect(),
        }
    }

    /// Home shard of subscriber `sub`.
    pub(super) fn home(&self, sub: usize) -> u16 {
        self.home[sub]
    }

    /// The front end currently responsible for `sub`: its home shard's
    /// owner (the home RDN itself except during failover).
    pub(super) fn owner_of(&self, sub: u32) -> u16 {
        self.owner[self.home[sub as usize] as usize]
    }
}

impl World {
    /// Decides who should own each shard and executes the moves. The
    /// policy is deliberately simple and deterministic: a live home RDN
    /// always owns its shard; a shard whose owner has been dead longer
    /// than the watchdog grace is adopted by the lowest-numbered live
    /// peer. Partitions never influence ownership — only the scripted
    /// crash schedule does — so peers cannot disagree (no split-brain).
    pub(super) fn rebalance_shards(&mut self, ctx: &mut Context<'_, Ev>) {
        let grace = self.params.watchdog_grace();
        for shard in 0..self.shards.owner.len() {
            let home = shard as u16;
            let owner = self.shards.owner[shard];
            let desired = if !self.fronts[shard].dead() {
                home
            } else if self.fronts[owner as usize]
                .dead_since
                .is_some_and(|t| ctx.now().saturating_since(t) > grace)
            {
                (0..self.fronts.len() as u16)
                    .find(|&r| !self.fronts[r as usize].dead())
                    .unwrap_or(owner)
            } else {
                owner
            };
            if desired != owner {
                self.move_shard(ctx, home, owner, desired);
            }
        }
    }

    /// Moves shard `shard` from front `from` to front `to`: masks the
    /// shard's reservations at the old owner and drains its queues across
    /// (refusing what no longer fits), then unmasks full reservations at
    /// the adopter — whose graceful-degradation pass rescales them
    /// proportionally if they oversubscribe its capacity share.
    fn move_shard(&mut self, ctx: &mut Context<'_, Ev>, shard: u16, from: u16, to: u16) {
        let subs: Vec<SubscriberId> = (0..self.shards.home.len())
            .filter(|&i| self.shards.home[i] == shard)
            .map(|i| SubscriberId(i as u32))
            .collect();
        if !self.fronts[from as usize].dead() {
            for &sub in &subs {
                let f = &mut self.fronts[from as usize];
                f.scheduler.set_reservation(sub, Grps(0.0));
                for req in f.scheduler.drain_queue(sub) {
                    if let Err(req) = self.fronts[to as usize].scheduler.enqueue(sub, req) {
                        self.refuse(ctx, to as usize, sub.0, req.conn);
                    }
                }
            }
        }
        self.shards.owner[shard as usize] = to;
        self.unmask_owned(to);
        self.tracer.emit(TraceEvent::ShardTakeover {
            shard,
            from,
            to,
            subs: subs.len() as u32,
        });
    }

    /// Gives front `rdn` the full reservation of every subscriber whose
    /// shard it owns. Every front boots with all reservations masked to
    /// zero, so this is the one place ownership turns into reservations:
    /// at start-up, on failover and failback, and when a front reboots
    /// still owning its shard.
    pub(super) fn unmask_owned(&mut self, rdn: u16) {
        for i in 0..self.shards.home.len() {
            if self.shards.owner_of(i as u32) == rdn {
                let sub = SubscriberId(i as u32);
                let full = self.registry.get(sub).expect("registered").reservation;
                self.fronts[rdn as usize]
                    .scheduler
                    .set_reservation(sub, full);
            }
        }
    }

    /// Current owner of each shard (index = shard = home RDN).
    pub fn shard_owners(&self) -> &[u16] {
        &self.shards.owner
    }
}
