//! The RDN's connection table (paper §3.3).
//!
//! After a URL request is dispatched, the packet's four-tuple and the MAC
//! address of the chosen RPN are inserted here; every subsequent packet of
//! the connection is bridged at layer 2 straight to that RPN without
//! re-classification. The table sits on the per-packet fast path, so it is
//! backed by the O(1) deterministic [`DetMap`] rather than an ordered tree.

use gage_collections::DetMap;
use gage_net::addr::{FourTuple, MacAddr};

use crate::node::RpnId;

/// Where packets of a dispatched connection are bridged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The servicing node.
    pub rpn: RpnId,
    /// Its MAC address (the bridge rewrites only the frame destination).
    pub rpn_mac: MacAddr,
}

/// The quadruple-indexed connection table.
///
/// ```rust
/// use gage_core::conn_table::{ConnTable, Route};
/// use gage_core::node::RpnId;
/// use gage_net::addr::{Endpoint, FourTuple, MacAddr, Port};
/// use std::net::Ipv4Addr;
///
/// let mut table = ConnTable::new();
/// let t = FourTuple::new(
///     Endpoint::new(Ipv4Addr::new(1, 2, 3, 4), Port::new(999)),
///     Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP),
/// );
/// let route = Route { rpn: RpnId(4), rpn_mac: MacAddr::from_node_id(4) };
/// table.insert(t, route);
/// assert_eq!(table.lookup(t), Some(route));
/// assert_eq!(table.remove(t), Some(route));
/// assert_eq!(table.lookup(t), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConnTable {
    map: DetMap<FourTuple, Route>,
    /// Routes removed by `retain`/`purge_rpn` (node-down cleanup).
    purged: u64,
    lookups: u64,
}

impl ConnTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Files `tuple` under `route`, returning any previous route.
    pub fn insert(&mut self, tuple: FourTuple, route: Route) -> Option<Route> {
        self.map.insert(tuple, route)
    }

    /// Looks up the route for an incoming packet's four-tuple. Takes
    /// `&mut self` for the lookup counter — a plain field, so the table
    /// stays free of interior mutability and safe to hand to an event lane
    /// (the `lane-shared-state` lint checks exactly that).
    pub fn lookup(&mut self, tuple: FourTuple) -> Option<Route> {
        self.lookups += 1;
        self.map.get(&tuple).copied()
    }

    /// Non-counting lookup for classification checks.
    pub fn contains(&self, tuple: FourTuple) -> bool {
        self.map.contains_key(&tuple)
    }

    /// Removes a connection (on FIN/RST teardown).
    pub fn remove(&mut self, tuple: FourTuple) -> Option<Route> {
        self.map.remove(&tuple)
    }

    /// Active connections.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no connections are filed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Keeps only the routes `keep` approves of; removed entries count as
    /// purges. Iterates the whole table — cleanup path, not per-packet.
    pub fn retain(&mut self, mut keep: impl FnMut(FourTuple, Route) -> bool) -> usize {
        let doomed: Vec<FourTuple> = self
            .map
            .iter()
            .filter(|(t, r)| !keep(**t, **r))
            .map(|(t, _)| *t)
            .collect();
        for t in &doomed {
            self.map.remove(t);
        }
        self.purged += doomed.len() as u64;
        doomed.len()
    }

    /// Removes every route pointing at `rpn` — RDN cleanup when the
    /// watchdog writes a node off, so stale splice routes of a dead node
    /// never bridge packets into the void. Returns how many were purged.
    pub fn purge_rpn(&mut self, rpn: RpnId) -> usize {
        self.retain(|_, route| route.rpn != rpn)
    }

    /// Routes removed by [`ConnTable::retain`]/[`ConnTable::purge_rpn`].
    pub fn purged(&self) -> u64 {
        self.purged
    }

    /// Publishes the table's observability counters into a metrics
    /// registry under the `conn.` prefix.
    pub fn export_metrics(&self, reg: &mut gage_obs::Registry) {
        reg.set_counter("conn.entries", self.len() as u64);
        reg.set_counter("conn.lookups", self.lookups);
        reg.set_counter("conn.purged", self.purged());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gage_net::addr::{Endpoint, Port};
    use std::net::Ipv4Addr;

    fn tuple(client_port: u16) -> FourTuple {
        FourTuple::new(
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), Port::new(client_port)),
            Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP),
        )
    }

    fn route(i: u16) -> Route {
        Route {
            rpn: RpnId(i),
            rpn_mac: MacAddr::from_node_id(i),
        }
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = ConnTable::new();
        assert!(t.is_empty());
        t.insert(tuple(1), route(1));
        t.insert(tuple(2), route(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(tuple(1)), Some(route(1)));
        assert_eq!(t.lookup(tuple(3)), None);
        assert_eq!(t.remove(tuple(1)), Some(route(1)));
        assert_eq!(t.remove(tuple(1)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reinsert_replaces() {
        let mut t = ConnTable::new();
        t.insert(tuple(1), route(1));
        let prev = t.insert(tuple(1), route(9));
        assert_eq!(prev, Some(route(1)));
        assert_eq!(t.lookup(tuple(1)), Some(route(9)));
    }

    #[test]
    fn direction_matters() {
        let mut t = ConnTable::new();
        t.insert(tuple(1), route(1));
        assert!(!t.contains(tuple(1).reversed()));
    }

    /// The `conn.` counters as published to a registry.
    fn counters(t: &ConnTable) -> gage_obs::Registry {
        let mut reg = gage_obs::Registry::new();
        t.export_metrics(&mut reg);
        reg
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut t = ConnTable::new();
        t.insert(tuple(1), route(1));
        t.lookup(tuple(1));
        t.lookup(tuple(2));
        assert_eq!(counters(&t).counter("conn.lookups"), Some(2));
        // `contains` does not count.
        t.contains(tuple(1));
        assert_eq!(counters(&t).counter("conn.lookups"), Some(2));
    }

    #[test]
    fn counters_are_plain_state() {
        // No interior mutability: a cloned table's counters diverge
        // independently, and reads through &ConnTable never change them.
        let mut t = ConnTable::new();
        t.insert(tuple(1), route(1));
        t.lookup(tuple(1));
        let mut clone = t.clone();
        clone.lookup(tuple(2));
        let lookups = |t: &ConnTable| counters(t).counter("conn.lookups");
        assert_eq!(lookups(&t), Some(1), "clone's lookups don't leak back");
        assert_eq!(lookups(&clone), Some(2));
        let shared: &ConnTable = &t;
        assert!(shared.contains(tuple(1)));
        assert_eq!(lookups(shared), Some(1), "shared reads don't count");
    }

    #[test]
    fn export_metrics_publishes_counters() {
        let mut t = ConnTable::new();
        t.insert(tuple(1), route(1));
        t.insert(tuple(2), route(2));
        t.purge_rpn(RpnId(1));
        t.lookup(tuple(2)); // hit
        t.lookup(tuple(1)); // miss
        let reg = counters(&t);
        assert_eq!(reg.counter("conn.entries"), Some(1));
        assert_eq!(reg.counter("conn.lookups"), Some(2));
        assert_eq!(reg.counter("conn.purged"), Some(1));
        assert_eq!(reg.len(), 3, "exactly the three conn.* counters");
    }

    #[test]
    fn purge_rpn_removes_only_dead_routes() {
        let mut t = ConnTable::new();
        t.insert(tuple(1), route(1));
        t.insert(tuple(2), route(2));
        t.insert(tuple(3), route(1));
        t.insert(tuple(4), route(3));
        assert_eq!(t.purge_rpn(RpnId(1)), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.purged(), 2);
        assert_eq!(t.lookup(tuple(1)), None);
        assert_eq!(t.lookup(tuple(3)), None);
        assert_eq!(t.lookup(tuple(2)), Some(route(2)));
        assert_eq!(t.lookup(tuple(4)), Some(route(3)));
        // Purging a node with no routes is a no-op.
        assert_eq!(t.purge_rpn(RpnId(9)), 0);
        assert_eq!(t.purged(), 2);
    }

    #[test]
    fn retain_keeps_survivors_in_order() {
        let mut t = ConnTable::new();
        for (port, rpn) in [(1, 1), (2, 2), (3, 1), (4, 2), (5, 2)] {
            t.insert(tuple(port), route(rpn));
        }
        assert_eq!(t.retain(|_, r| r.rpn == RpnId(2)), 2);
        assert_eq!(t.len(), 3);
        // A second pass visits the survivors in insertion order.
        let mut seen = Vec::new();
        t.retain(|conn, _| {
            seen.push(conn.src.port.get());
            true
        });
        assert_eq!(seen, vec![2, 4, 5]);
        assert_eq!(counters(&t).counter("conn.purged"), Some(2));
    }
}
