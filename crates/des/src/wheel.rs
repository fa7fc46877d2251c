//! Hierarchical timing wheel backing the [`EventQueue`](crate::EventQueue).
//!
//! Six levels of 64 slots each cover the nanosecond clock: level 0 buckets
//! 2^16 ns (~65.5 µs), and each coarser level covers 64× the span of the
//! one below (shifts 16/22/28/34/40/46, top span ≈ 52 days). Events beyond
//! the top level park in an overflow list and redistribute when the clock
//! nears them.
//!
//! The geometry fits what the simulator keeps queued: in-flight work only,
//! since client arrivals merge in at pop time (see
//! [`Model::next_arrival`](crate::Model::next_arrival)). Level 0 spans
//! ~4.2 ms, so a 100 µs network hop files there, and a 10 ms scheduling
//! cycle files at level 1, one cascade away from its drain. A drained fine
//! slot holds at most ~65.5 µs of events, so sorting it stays cheap.
//!
//! Each pending event is stored once, in the node of the [`Slab`] that
//! issues its handle. The node holds `at`, `seq`, the event and the links
//! of an intrusive doubly-linked list: each of the 384 slots and the
//! overflow list is such a list, threaded through the slab, as in Varghese
//! and Lauck's hierarchical wheel (SOSP '87). Scheduling links a node into
//! its slot, a cancel unlinks the node and frees it at once, a cascade
//! relinks nodes without moving their events, and a drained fine slot
//! sorts only `(at, seq, key)` triples into the `front` run. A key
//! cancelled while it waits in the front run stays there, dead, until the
//! run reaches it; the run never holds more than one fine slot.
//!
//! Determinism contract (the reason this exists instead of `BinaryHeap`):
//!
//! * **Pop order** is exactly `(at, seq)` — the same total order the heap
//!   implementation used. Events ahead of the cursor live in wheel slots;
//!   the slot with the smallest start time is drained next, and a drained
//!   fine slot is sorted by `(at, seq)` into the `front` run before
//!   anything pops. Slot starts at every level are multiples of the fine
//!   granularity, so no coarser slot can start strictly inside the fine
//!   slot being drained — the minimum-start scan never skips an event.
//! * **Cascades terminate**: when a coarse slot (level *l* > 0) wins the
//!   scan, the cursor first advances to that slot's start; adjacent levels
//!   differ by 6 bits of shift, so every event in the slot then lands at
//!   level ≤ *l* − 1. Each event re-places through strictly finer levels
//!   until it reaches level 0.
//! * **Handles** are the nodes' [`SlabKey`]s, packed into `EventId`s. A
//!   node is inserted at schedule and removed at pop or cancel, the order
//!   in which the heap implementation inserted and removed its liveness
//!   markers, so a run hands out exactly the handles the heap did.

use std::collections::VecDeque;

use gage_collections::{Slab, SlabKey};

/// Number of wheel levels.
const LEVELS: usize = 6;
/// Slots per level (fixed 64 so occupancy fits one `u64` bitmap).
const SLOTS: usize = 64;
const SLOT_MASK: u64 = 63;
/// Bit shift from nanoseconds to slot index, per level. Adjacent levels
/// differ by exactly 6 bits (= log2 SLOTS), which is what guarantees a
/// cascading event always lands at a strictly finer level.
const SHIFTS: [u32; LEVELS] = [16, 22, 28, 34, 40, 46];
/// Span of one level-0 slot in nanoseconds.
const GRANULARITY: u64 = 1 << SHIFTS[0];
/// The overflow list's index in [`TimingWheel::heads`]. Slot *i* of level
/// *l* is list `l * SLOTS + i`, so the overflow list comes after them all.
const OVERFLOW: usize = LEVELS * SLOTS;
/// The home of a node whose key waits in the front run, on no list.
const FRONT: u16 = OVERFLOW as u16 + 1;

/// Operational counters for the event queue, exposed through the gage-obs
/// registry and `tracedump --stats` so wheel behavior is visible in the
/// existing observability output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Pending (scheduled, not yet fired or cancelled) events.
    pub depth: u64,
    /// Total events ever scheduled, counting each model arrival (which
    /// never enters the queue) when it fires.
    pub scheduled: u64,
    /// Total events cancelled before firing.
    pub cancelled: u64,
    /// Coarse-slot redistributions (including overflow redistributions).
    pub cascades: u64,
    /// Always 0: a cancel frees its event at once, so nothing is left to
    /// compact. Kept because the benchmark still reports it.
    pub compactions: u64,
}

/// One pending event.
#[derive(Debug)]
struct Node<E> {
    /// Firing time in nanoseconds.
    at: u64,
    /// Monotonic schedule order, the deterministic FIFO tie-break.
    seq: u64,
    /// The list the node sits on (an index into [`TimingWheel::heads`]),
    /// or [`FRONT`] while its key waits in the front run.
    home: u16,
    prev: SlabKey,
    next: SlabKey,
    event: E,
}

/// The wheel proper. [`EventQueue`](crate::EventQueue) wraps this with the
/// `SimTime`/`EventId` surface.
#[derive(Debug)]
pub(crate) struct TimingWheel<E> {
    /// One node per pending event; its key is the event's handle. The
    /// insert/remove order matches the old heap implementation's, so
    /// handles are bit-identical.
    nodes: Slab<Node<E>>,
    /// The first node of each slot list, then of the overflow list;
    /// [`SlabKey::NIL`] while the list is empty.
    heads: [SlabKey; OVERFLOW + 1],
    /// Per level, bit *i* set ⇔ slot *i*'s list is non-empty.
    occ: [u64; LEVELS],
    /// Sorted `(at, seq, key)` run of events that fire before `cursor`;
    /// pops come from here. Refilled by draining the next occupied slot.
    front: VecDeque<(u64, u64, SlabKey)>,
    /// No event on the overflow list fires earlier (`u64::MAX` while the
    /// list is empty).
    overflow_min: u64,
    /// Wheel time floor: every listed event fires at or after this
    /// instant. Always a multiple of [`GRANULARITY`].
    cursor: u64,
    next_seq: u64,
    scheduled_total: u64,
    cancelled_total: u64,
    cascades: u64,
}

impl<E> TimingWheel<E> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            nodes: Slab::new(),
            heads: [SlabKey::NIL; OVERFLOW + 1],
            occ: [0; LEVELS],
            front: VecDeque::new(),
            overflow_min: u64::MAX,
            cursor: 0,
            next_seq: 0,
            scheduled_total: 0,
            cancelled_total: 0,
            cascades: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub(crate) fn stats(&self) -> QueueStats {
        // The link recount: listed nodes plus live front keys.
        let live_front = self
            .front
            .iter()
            .filter(|f| self.nodes.get(f.2).is_some_and(|n| n.home == FRONT));
        debug_assert_eq!(
            self.listed() + live_front.count(),
            self.len(),
            "the lists and the front run must hold each pending event once"
        );
        QueueStats {
            depth: self.nodes.len() as u64,
            scheduled: self.scheduled_total,
            cancelled: self.cancelled_total,
            cascades: self.cascades,
            compactions: 0,
        }
    }

    /// Counts an event that fired without passing through the wheel.
    pub(crate) fn count_arrival(&mut self) {
        self.scheduled_total += 1;
    }

    pub(crate) fn schedule(&mut self, at: u64, event: E) -> SlabKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let key = self.nodes.insert(Node {
            at,
            seq,
            home: FRONT,
            prev: SlabKey::NIL,
            next: SlabKey::NIL,
            event,
        });
        self.place(key, at, seq);
        key
    }

    pub(crate) fn cancel(&mut self, key: SlabKey) -> bool {
        let Some(node) = self.nodes.remove(key) else {
            return false;
        };
        if node.home != FRONT {
            let list = usize::from(node.home);
            match self.nodes.get_mut(node.prev) {
                Some(prev) => prev.next = node.next,
                None => self.heads[list] = node.next,
            }
            if let Some(next) = self.nodes.get_mut(node.next) {
                next.prev = node.prev;
            }
            if self.heads[list] == SlabKey::NIL {
                self.mark_empty(list);
            }
        }
        self.cancelled_total += 1;
        true
    }

    pub(crate) fn pop(&mut self) -> Option<(u64, SlabKey, E)> {
        loop {
            if let Some((at, _, key)) = self.front.pop_front() {
                // A key cancelled in the front run no longer resolves.
                if let Some(node) = self.nodes.remove(key) {
                    return Some((at, key, node.event));
                }
                continue;
            }
            if !self.advance() {
                return None;
            }
        }
    }

    pub(crate) fn peek(&mut self) -> Option<u64> {
        loop {
            if let Some(&(at, _, key)) = self.front.front() {
                if self.nodes.contains(key) {
                    return Some(at);
                }
                self.front.pop_front();
                continue;
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Files node `key` in the front run, a slot list, or the overflow list.
    fn place(&mut self, key: SlabKey, at: u64, seq: u64) {
        if at < self.cursor {
            // Late insert (schedule into the already-drained window, e.g.
            // after `peek` advanced the cursor): keep the front run sorted.
            // Only `schedule` gets here, with a node born homed at `FRONT`:
            // a cascade relinks events that fire at or after the cursor.
            let pos = self.front.partition_point(|&(a, s, _)| (a, s) < (at, seq));
            self.front.insert(pos, (at, seq, key));
            return;
        }
        let list = SHIFTS
            .iter()
            .enumerate()
            .find(|&(_, &shift)| (at >> shift) - (self.cursor >> shift) < SLOTS as u64)
            .map_or(OVERFLOW, |(l, &shift)| {
                l * SLOTS + ((at >> shift) & SLOT_MASK) as usize
            });
        match self.occ.get_mut(list / SLOTS) {
            Some(occ) => *occ |= 1 << (list % SLOTS),
            None => self.overflow_min = self.overflow_min.min(at),
        }
        // Link at the head: order within a list never matters, because a
        // fine slot is sorted when it drains.
        let next = std::mem::replace(&mut self.heads[list], key);
        if let Some(head) = self.nodes.get_mut(next) {
            head.prev = key;
        }
        if let Some(node) = self.nodes.get_mut(key) {
            node.home = list as u16;
            node.prev = SlabKey::NIL;
            node.next = next;
        }
    }

    /// Clears the occupancy bit of `list`, now empty, or resets the
    /// overflow horizon.
    fn mark_empty(&mut self, list: usize) {
        match self.occ.get_mut(list / SLOTS) {
            Some(occ) => *occ &= !(1 << (list % SLOTS)),
            None => self.overflow_min = u64::MAX,
        }
    }

    /// Drains or cascades the occupied slot with the smallest start time.
    /// Returns `false` when nothing is listed anywhere (queue exhausted).
    fn advance(&mut self) -> bool {
        // Find the minimum slot start across all levels. On a tie, the
        // COARSER level must go first: its slot spans the finer one, so
        // its events may fire inside the finer slot's window and have to
        // redistribute before that window is drained and sealed. Stores
        // are scanned fine to coarse, overflow last, and only a strictly
        // later start keeps the current best, so the coarser store wins.
        let mut best: Option<(u64, usize)> = None;
        for (l, (&occ, &shift)) in self.occ.iter().zip(&SHIFTS).enumerate() {
            if occ == 0 {
                continue;
            }
            let base = (self.cursor >> shift) & SLOT_MASK;
            let dist = occ.rotate_right(base as u32).trailing_zeros() as u64;
            let start = ((self.cursor >> shift) + dist) << shift;
            match best {
                Some((bs, _)) if bs < start => {}
                _ => best = Some((start, l)),
            }
        }
        if self.heads[OVERFLOW] != SlabKey::NIL {
            let start = self.overflow_min & !(GRANULARITY - 1);
            match best {
                Some((bs, _)) if bs < start => {}
                _ => best = Some((start, LEVELS)),
            }
        }
        let Some((start, l)) = best else {
            return false;
        };
        let list = SHIFTS.get(l).map_or(OVERFLOW, |&shift| {
            l * SLOTS + ((start >> shift) & SLOT_MASK) as usize
        });
        self.mark_empty(list);
        let mut key = std::mem::replace(&mut self.heads[list], SlabKey::NIL);

        if l == 0 {
            // Fine slot: everything in [start, start + GRANULARITY) fires
            // before anything still listed (no coarser slot can start
            // inside this window — all slot starts are multiples of the
            // fine granularity). Sort by (at, seq) and seal the window.
            // `advance` only runs once the front run is empty.
            self.cursor = self.cursor.max(start + GRANULARITY);
            while let Some(node) = self.nodes.get_mut(key) {
                node.home = FRONT;
                self.front.push_back((node.at, node.seq, key));
                key = node.next;
            }
            self.front
                .make_contiguous()
                .sort_unstable_by_key(|&(at, seq, _)| (at, seq));
            return true;
        }
        // A coarse slot, or the overflow list once the clock has caught up
        // with its horizon: advance the cursor to the start, then relink
        // every node. With the cursor at a coarse slot's start, each of its
        // events is within 64 slots of the cursor at level l−1, so it
        // lands at a strictly finer level — the cascade terminates. The
        // earliest overflow event now fits the top level (the cursor's
        // high bits match its own), so an overflow redistribution makes
        // progress even if most of the list parks again.
        self.cascades += 1;
        self.cursor = self.cursor.max(start);
        while let Some(node) = self.nodes.get(key) {
            let (at, seq, next) = (node.at, node.seq, node.next);
            self.place(key, at, seq);
            key = next;
        }
        true
    }

    /// Counts the nodes on every list, checking as it walks that each
    /// node's `prev` link names the node before it, that its home is the
    /// list it sits on, that each list ends in [`SlabKey::NIL`], and that
    /// a slot's occupancy bit is set exactly when its list is non-empty.
    pub(crate) fn listed(&self) -> usize {
        let mut count = 0;
        for (list, &head) in self.heads.iter().enumerate() {
            let (mut prev, mut key) = (SlabKey::NIL, head);
            while let Some(node) = self.nodes.get(key) {
                assert_eq!(
                    (node.prev, usize::from(node.home)),
                    (prev, list),
                    "node {key:?}'s prev link or home disagrees with list {list}"
                );
                (prev, key) = (key, node.next);
                count += 1;
            }
            assert_eq!(key, SlabKey::NIL, "list {list} links to a freed node");
            if let Some(occ) = self.occ.get(list / SLOTS) {
                let occupied = (occ >> (list % SLOTS)) & 1 == 1;
                assert_eq!(
                    occupied,
                    head != SlabKey::NIL,
                    "list {list}'s occupancy bit"
                );
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn drain(w: &mut TimingWheel<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop().map(|(at, _, ev)| (at, ev))).collect()
    }

    fn list_len(w: &TimingWheel<u64>, list: usize) -> usize {
        let mut key = w.heads[list];
        std::iter::from_fn(|| {
            let node = w.nodes.get(key)?;
            key = node.next;
            Some(())
        })
        .count()
    }

    /// Nothing is listed, no slot is marked occupied, and the front run
    /// and the slab are empty.
    fn assert_stores_nothing(w: &TimingWheel<u64>) {
        assert!(
            w.heads.iter().all(|&h| h == SlabKey::NIL),
            "a list is non-empty"
        );
        assert_eq!(w.occ, [0; LEVELS], "an occupancy bit is set");
        assert_eq!(w.listed(), 0);
        assert!(w.front.is_empty());
        assert!(w.is_empty());
    }

    #[test]
    fn multi_level_placement_and_cascade() {
        let mut w = TimingWheel::new();
        // At least one event per level, plus one in overflow (at or beyond
        // 2^52 ns). From cursor 0, level l takes the times below
        // 2^(22 + 6l) that no finer level takes.
        let times = [
            1u64 << 15, // level 0
            1 << 21,    // level 0
            1 << 27,    // level 1
            1 << 33,    // level 2
            1 << 39,    // level 3
            1 << 45,    // level 4
            1 << 51,    // level 5 (top span)
            1 << 55,    // overflow
        ];
        for (i, &t) in times.iter().enumerate() {
            w.schedule(t, i as u64);
        }
        for (l, occ) in w.occ.iter().enumerate() {
            assert_ne!(*occ, 0, "level {l} must hold an event");
        }
        assert_eq!(list_len(&w, OVERFLOW), 1, "far event must park in overflow");
        let popped = drain(&mut w);
        let ats: Vec<u64> = popped.iter().map(|&(at, _)| at).collect();
        assert_eq!(ats, times.to_vec(), "cascades must preserve time order");
        assert!(w.stats().cascades > 0);
    }

    #[test]
    fn same_fine_slot_sorts_by_time_then_seq() {
        let mut w = TimingWheel::new();
        // All inside one level-0 slot, scheduled out of order.
        w.schedule(900, 2);
        w.schedule(100, 0);
        w.schedule(900, 3);
        w.schedule(500, 1);
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(_, e)| e).collect();
        assert_eq!(popped, vec![0, 1, 2, 3]);
    }

    #[test]
    fn late_insert_lands_in_sorted_front() {
        let mut w = TimingWheel::new();
        w.schedule(10, 0);
        w.schedule(2_000_000, 9);
        // Peeking drains slot 0 into the front and advances the cursor.
        assert_eq!(w.peek(), Some(10));
        // A schedule behind the cursor must still pop in time order.
        w.schedule(5, 100);
        w.schedule(10, 1);
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(_, e)| e).collect();
        assert_eq!(popped, vec![100, 0, 1, 9]);
    }

    /// A level-1 slot and a level-0 slot can start at the same instant.
    /// The level-1 slot must cascade first; draining the level-0 slot
    /// first would pop B ahead of the earlier A.
    #[test]
    fn coarser_level_wins_a_slot_start_tie() {
        let mut w = TimingWheel::new();
        let (a, b) = ((1u64 << 22) + 100, (1u64 << 22) + 500);
        w.schedule(a, 1); // A: level 1, slot [2^22, 2^23)
        w.schedule(2_000, 0); // F: level 0
        assert_eq!(w.occ[1].count_ones(), 1, "A files at level 1");
        assert_eq!(w.pop().map(|(at, _, e)| (at, e)), Some((2_000, 0)));
        // With the cursor past F, B fits level 0, in the fine slot that
        // starts where A's level-1 slot does.
        w.schedule(b, 2);
        assert_eq!(w.occ[0].count_ones(), 1, "B files at level 0");
        assert_eq!(drain(&mut w), vec![(a, 1), (b, 2)]);
    }

    /// The same tie between the top level and the overflow list: the
    /// overflow must redistribute first.
    #[test]
    fn overflow_wins_a_slot_start_tie() {
        let mut w = TimingWheel::new();
        let (x, y) = ((1u64 << 52) + 100, (1u64 << 52) + 200);
        w.schedule(x, 1); // X: beyond the top level, parks in overflow
        w.schedule(1 << 51, 0); // W: level 5
        assert_eq!(list_len(&w, OVERFLOW), 1, "X parks in overflow");
        assert_eq!(w.pop().map(|(at, _, e)| (at, e)), Some((1 << 51, 0)));
        // Y fits level 5 now, in the slot starting at 2^52, as X's does.
        w.schedule(y, 2);
        assert_eq!(w.occ[5].count_ones(), 1, "Y files at level 5");
        assert_eq!(drain(&mut w), vec![(x, 1), (y, 2)]);
    }

    #[test]
    fn overflow_redistributes_when_clock_catches_up() {
        let mut w = TimingWheel::new();
        let far = 1u64 << 54;
        w.schedule(far, 1);
        w.schedule(far + 5, 2);
        w.schedule(3, 0);
        assert_eq!(list_len(&w, OVERFLOW), 2, "far events park in overflow");
        let popped = drain(&mut w);
        assert_eq!(popped, vec![(3, 0), (far, 1), (far + 5, 2)]);
        assert_eq!(w.heads[OVERFLOW], SlabKey::NIL);
    }

    /// Schedules `n` events spread over every level and the overflow list,
    /// then cancels them all, checking after every `check_every`-th cancel
    /// that no cancelled event stays listed.
    fn cancel_across_every_store(n: u64, check_every: usize) -> TimingWheel<u64> {
        let mut w = TimingWheel::new();
        // 2^0 to 2^54 ns.
        let keys: Vec<SlabKey> = (0..n)
            .map(|i| w.schedule((1 << (i * 55 / n)) + i, i))
            .collect();
        for (l, occ) in w.occ.iter().enumerate() {
            assert_ne!(*occ, 0, "level {l} must hold events");
        }
        assert_ne!(list_len(&w, OVERFLOW), 0, "overflow must hold events");
        for (i, k) in keys.into_iter().enumerate() {
            assert!(w.cancel(k));
            if i % check_every == 0 {
                assert_eq!(w.listed(), w.len(), "a cancel left its node listed");
            }
        }
        assert_stores_nothing(&w);
        w
    }

    /// A handful of cancels leave nothing behind: no listed node, no
    /// occupancy bit, no front key.
    #[test]
    fn cancelling_every_event_empties_every_list() {
        let mut w = cancel_across_every_store(50, 1);
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn cancels_free_every_store_at_once() {
        let mut w = cancel_across_every_store(5_000, 25);
        assert_eq!(w.stats().compactions, 0);
        w.schedule(7, 42);
        assert_eq!(w.pop().map(|(_, _, e)| e), Some(42));
    }

    /// Churn shaped like `overload`'s client timers: every request arms a
    /// 10 s timeout and disarms it ~0.5 s later, ~2k are armed at once, and
    /// one in 64 times out. A clock event on the last nanosecond of every
    /// 16th fine slot (~1 ms) moves time on; no timer shares its instant,
    /// so popping it leaves the front run empty. After every step the
    /// lists hold exactly the pending events.
    #[test]
    fn client_timer_churn_keeps_only_pending_events_listed() {
        const CLOCK: u64 = u64::MAX;
        const TIMEOUT_NS: u64 = 10_000_000_000;
        const STEP_NS: u64 = 16 * GRANULARITY;
        const STEPS: u64 = 10_500;
        let mut rng = SimRng::seed_from(0x25);
        let mut w = TimingWheel::new();
        let mut disarm: Vec<Vec<SlabKey>> = vec![Vec::new(); STEPS as usize + 600];
        let (mut timeouts, mut fired, mut timers) = (Vec::new(), 0, 0u64);
        let mut peak = 0;
        w.schedule(STEP_NS - 1, CLOCK);
        for step in 0..STEPS {
            let now = (step + 1) * STEP_NS - 1;
            loop {
                let (at, _, ev) = w.pop().expect("the clock event is pending");
                if ev == CLOCK {
                    assert_eq!(at, now);
                    break;
                }
                assert!(at <= now && at % GRANULARITY != GRANULARITY - 1);
                fired += 1;
            }
            for _ in 0..4 {
                let key = w.schedule(now + TIMEOUT_NS, timers);
                timers += 1;
                if rng.index(64) == 0 {
                    timeouts.push(now + TIMEOUT_NS);
                } else {
                    disarm[(step + rng.range_u64(450, 550)) as usize].push(key);
                }
            }
            for key in std::mem::take(&mut disarm[step as usize]) {
                assert!(w.cancel(key));
            }
            w.schedule(now + STEP_NS, CLOCK);
            assert!(w.front.is_empty());
            assert_eq!(w.listed(), w.len());
            peak = peak.max(w.len());
        }
        let end = STEPS * STEP_NS - 1;
        assert_eq!(fired, timeouts.iter().filter(|&&at| at <= end).count());
        assert!(fired > 0 && w.stats().cascades > 0);
        assert!((2_000..3_500).contains(&peak), "peak {peak} pending");
    }
}
