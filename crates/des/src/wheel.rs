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
//! * **Liveness** is the same generational [`Slab`] discipline the heap
//!   used, with identical insert/remove ordering — so the handles
//!   ([`SlabKey`]s, packed into `EventId`s) a run hands out are identical
//!   to what the heap implementation would have produced.
//!
//! Cancellation stays O(1): remove the slab entry and leave the stored
//! record behind as a tombstone; tombstones are dropped when their slot
//! drains or cascades, and a compaction sweep prunes them early if they
//! come to dominate storage.

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
    /// Tombstone compaction sweeps.
    pub compactions: u64,
}

#[derive(Debug)]
struct Entry<E> {
    /// Firing time in nanoseconds.
    at: u64,
    /// Monotonic schedule order, the deterministic FIFO tie-break.
    seq: u64,
    /// Liveness handle; a key that no longer resolves marks a tombstone.
    key: SlabKey,
    event: E,
}

#[derive(Debug)]
struct Level<E> {
    slots: Vec<Vec<Entry<E>>>,
    /// Bit *i* set ⇔ `slots[i]` is non-empty.
    occ: u64,
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occ: 0,
        }
    }
}

/// The wheel proper. [`EventQueue`](crate::EventQueue) wraps this with the
/// `SimTime`/`EventId` surface.
#[derive(Debug)]
pub(crate) struct TimingWheel<E> {
    levels: Vec<Level<E>>,
    /// Sorted `(at, seq)` run of events that fire before `cursor`; pops
    /// come from here. Refilled by draining the next occupied slot.
    front: VecDeque<Entry<E>>,
    /// Events beyond the top level's horizon.
    overflow: Vec<Entry<E>>,
    overflow_min: u64,
    /// Wheel time floor: every stored (non-front) event fires at or after
    /// this instant. Always a multiple of [`GRANULARITY`].
    cursor: u64,
    /// One live marker per pending event; same insert/remove ordering as
    /// the old heap implementation, so handles are bit-identical.
    live: Slab<()>,
    /// Tombstones currently buried in storage.
    tombs: usize,
    /// Entry records currently held across front/slots/overflow. Kept
    /// exactly equal to [`stored_entries`](Self::stored_entries) so the
    /// compaction trigger is O(1) per cancel instead of a 384-slot walk.
    stored: usize,
    /// Recycled slot buffer: drains swap a slot's `Vec` against this so
    /// neither side ever gives its capacity back to the allocator.
    scratch: Vec<Entry<E>>,
    next_seq: u64,
    scheduled_total: u64,
    cancelled_total: u64,
    cascades: u64,
    compactions: u64,
}

impl<E> TimingWheel<E> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            front: VecDeque::new(),
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            cursor: 0,
            live: Slab::new(),
            tombs: 0,
            stored: 0,
            scratch: Vec::new(),
            next_seq: 0,
            scheduled_total: 0,
            cancelled_total: 0,
            cascades: 0,
            compactions: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    pub(crate) fn stats(&self) -> QueueStats {
        debug_assert_eq!(self.stored, self.stored_entries());
        QueueStats {
            depth: self.live.len() as u64,
            scheduled: self.scheduled_total,
            cancelled: self.cancelled_total,
            cascades: self.cascades,
            compactions: self.compactions,
        }
    }

    /// Stored records including tombstones — what compaction bounds.
    pub(crate) fn stored_entries(&self) -> usize {
        self.front.len()
            + self.overflow.len()
            + self
                .levels
                .iter()
                .map(|l| l.slots.iter().map(Vec::len).sum::<usize>())
                .sum::<usize>()
    }

    /// Counts an event that fired without passing through the wheel.
    pub(crate) fn count_arrival(&mut self) {
        self.scheduled_total += 1;
    }

    pub(crate) fn schedule(&mut self, at: u64, event: E) -> SlabKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let key = self.live.insert(());
        self.place(Entry {
            at,
            seq,
            key,
            event,
        });
        key
    }

    pub(crate) fn cancel(&mut self, key: SlabKey) -> bool {
        if self.live.remove(key).is_none() {
            return false;
        }
        self.tombs += 1;
        self.cancelled_total += 1;
        self.maybe_compact();
        true
    }

    pub(crate) fn pop(&mut self) -> Option<(u64, SlabKey, E)> {
        loop {
            if let Some(e) = self.front.pop_front() {
                self.stored -= 1;
                if self.live.remove(e.key).is_some() {
                    return Some((e.at, e.key, e.event));
                }
                self.tombs = self.tombs.saturating_sub(1);
                continue;
            }
            if !self.advance() {
                return None;
            }
        }
    }

    pub(crate) fn peek(&mut self) -> Option<u64> {
        loop {
            if let Some(e) = self.front.front() {
                if self.live.contains(e.key) {
                    return Some(e.at);
                }
                self.front.pop_front();
                self.stored -= 1;
                self.tombs = self.tombs.saturating_sub(1);
                continue;
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Routes an entry to the front run, a wheel slot, or overflow.
    fn place(&mut self, e: Entry<E>) {
        self.stored += 1;
        if e.at < self.cursor {
            // Late insert (schedule into the already-drained window, e.g.
            // after `peek` advanced the cursor): keep the front run sorted.
            // The new entry carries the largest seq, so partitioning on
            // `at` alone lands it after every equal-time sibling.
            let pos = self.front.partition_point(|f| f.at <= e.at);
            self.front.insert(pos, e);
            return;
        }
        for (l, &shift) in SHIFTS.iter().enumerate() {
            if (e.at >> shift) - (self.cursor >> shift) < SLOTS as u64 {
                let idx = ((e.at >> shift) & SLOT_MASK) as usize;
                let level = &mut self.levels[l];
                level.slots[idx].push(e);
                level.occ |= 1 << idx;
                return;
            }
        }
        self.overflow_min = self.overflow_min.min(e.at);
        self.overflow.push(e);
    }

    /// Drains or cascades the occupied slot with the smallest start time.
    /// Returns `false` when nothing is stored anywhere (queue exhausted).
    fn advance(&mut self) -> bool {
        // Find the minimum slot start across all levels. On a tie, the
        // COARSER level must go first: its slot spans the finer one, so
        // its events may fire inside the finer slot's window and have to
        // redistribute before that window is drained and sealed. Stores
        // are scanned fine to coarse, overflow last, and only a strictly
        // later start keeps the current best, so the coarser store wins.
        let mut best: Option<(u64, usize)> = None;
        for (l, level) in self.levels.iter().enumerate() {
            if level.occ == 0 {
                continue;
            }
            let shift = SHIFTS[l];
            let base = (self.cursor >> shift) & SLOT_MASK;
            let dist = level.occ.rotate_right(base as u32).trailing_zeros() as u64;
            let start = ((self.cursor >> shift) + dist) << shift;
            match best {
                Some((bs, _)) if bs < start => {}
                _ => best = Some((start, l)),
            }
        }
        if !self.overflow.is_empty() {
            let start = self.overflow_min & !(GRANULARITY - 1);
            match best {
                Some((bs, _)) if bs < start => {}
                _ => best = Some((start, LEVELS)),
            }
        }
        let Some((start, l)) = best else {
            return false;
        };

        // Every branch swaps the drained store against `scratch` instead of
        // `std::mem::take`-ing it, so slot buffers keep their capacity and a
        // steady-state run stops touching the allocator entirely.
        let mut batch = std::mem::take(&mut self.scratch);
        if l == LEVELS {
            // Overflow redistribution: the clock has caught up with the
            // parked horizon. The earliest parked event now fits the top
            // level (the cursor's high bits match its own), so this makes
            // progress even if most of the list parks again.
            self.cascades += 1;
            self.cursor = self.cursor.max(start);
            std::mem::swap(&mut batch, &mut self.overflow);
            self.overflow_min = u64::MAX;
            self.stored -= batch.len();
            self.replace_live(&mut batch);
        } else if l > 0 {
            // Coarse slot: advance the cursor to the slot start, then
            // redistribute. With the cursor at the slot start every event
            // in it is within 64 slots of the cursor at level l−1, so each
            // lands at a strictly finer level — the cascade terminates.
            self.cascades += 1;
            self.cursor = self.cursor.max(start);
            let idx = ((start >> SHIFTS[l]) & SLOT_MASK) as usize;
            if let Some(level) = self.levels.get_mut(l) {
                std::mem::swap(&mut batch, &mut level.slots[idx]);
                level.occ &= !(1 << idx);
            }
            self.stored -= batch.len();
            self.replace_live(&mut batch);
        } else {
            // Fine slot: everything in [start, start + GRANULARITY) fires
            // before anything still stored (no coarser slot can start
            // inside this window — all slot starts are multiples of the
            // fine granularity). Sort by (at, seq) and seal the window.
            let idx = ((start / GRANULARITY) & SLOT_MASK) as usize;
            self.cursor = self.cursor.max(start + GRANULARITY);
            if let Some(fine) = self.levels.first_mut() {
                std::mem::swap(&mut batch, &mut fine.slots[idx]);
                fine.occ &= !(1 << idx);
            }
            batch.retain(|e| {
                let alive = self.live.contains(e.key);
                if !alive {
                    self.tombs = self.tombs.saturating_sub(1);
                    self.stored -= 1;
                }
                alive
            });
            batch.sort_unstable_by_key(|e| (e.at, e.seq));
            self.front.extend(batch.drain(..));
        }
        self.scratch = batch;
        true
    }

    /// Re-places a drained batch, dropping tombstones on the way. Drains in
    /// place so the caller keeps the buffer's capacity for reuse.
    fn replace_live(&mut self, entries: &mut Vec<Entry<E>>) {
        for e in entries.drain(..) {
            if self.live.contains(e.key) {
                self.place(e);
            } else {
                self.tombs = self.tombs.saturating_sub(1);
            }
        }
    }

    /// Prunes tombstones from every store once they dominate it, so a
    /// cancel-heavy workload (timers disarmed by ACKs) cannot grow storage
    /// past a small multiple of the live event count. Relative order within
    /// each store is preserved, so pop order is unaffected.
    fn maybe_compact(&mut self) {
        if self.tombs <= 64 || self.tombs * 2 <= self.stored {
            return;
        }
        let live = &self.live;
        self.front.retain(|e| live.contains(e.key));
        self.overflow.retain(|e| live.contains(e.key));
        self.overflow_min = self.overflow.iter().map(|e| e.at).min().unwrap_or(u64::MAX);
        for level in &mut self.levels {
            if level.occ == 0 {
                continue;
            }
            let mut occ = 0u64;
            for (i, slot) in level.slots.iter_mut().enumerate() {
                slot.retain(|e| live.contains(e.key));
                if !slot.is_empty() {
                    occ |= 1 << i;
                }
            }
            level.occ = occ;
        }
        self.tombs = 0;
        self.stored = self.stored_entries();
        self.compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop().map(|(at, _, ev)| (at, ev))).collect()
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
        for (l, level) in w.levels.iter().enumerate() {
            assert_ne!(level.occ, 0, "level {l} must hold an event");
        }
        assert!(!w.overflow.is_empty(), "far event must park in overflow");
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
        assert_eq!(w.levels[1].occ.count_ones(), 1, "A files at level 1");
        assert_eq!(w.pop().map(|(at, _, e)| (at, e)), Some((2_000, 0)));
        // With the cursor past F, B fits level 0, in the fine slot that
        // starts where A's level-1 slot does.
        w.schedule(b, 2);
        assert_eq!(w.levels[0].occ.count_ones(), 1, "B files at level 0");
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
        assert_eq!(w.overflow.len(), 1, "X parks in overflow");
        assert_eq!(w.pop().map(|(at, _, e)| (at, e)), Some((1 << 51, 0)));
        // Y fits level 5 now, in the slot starting at 2^52, as X's does.
        w.schedule(y, 2);
        assert_eq!(w.levels[5].occ.count_ones(), 1, "Y files at level 5");
        assert_eq!(drain(&mut w), vec![(x, 1), (y, 2)]);
    }

    #[test]
    fn overflow_redistributes_when_clock_catches_up() {
        let mut w = TimingWheel::new();
        let far = 1u64 << 54;
        w.schedule(far, 1);
        w.schedule(far + 5, 2);
        w.schedule(3, 0);
        assert_eq!(w.overflow.len(), 2, "far events park in overflow");
        let popped = drain(&mut w);
        assert_eq!(popped, vec![(3, 0), (far, 1), (far + 5, 2)]);
        assert!(w.overflow.is_empty());
    }

    #[test]
    fn compaction_prunes_all_stores() {
        let mut w = TimingWheel::new();
        let mut keys = Vec::new();
        for i in 0..5_000u64 {
            // Spread across every level and overflow: 2^0 to 2^54 ns.
            keys.push(w.schedule((1 << (i % 55)) + i, i));
        }
        for (l, level) in w.levels.iter().enumerate() {
            assert_ne!(level.occ, 0, "level {l} must hold events");
        }
        assert!(!w.overflow.is_empty(), "overflow must hold events");
        for k in keys {
            assert!(w.cancel(k));
        }
        assert!(w.is_empty());
        assert!(
            w.stored_entries() < 200,
            "compaction left {} tombstones",
            w.stored_entries()
        );
        assert!(w.stats().compactions > 0);
        w.schedule(7, 42);
        assert_eq!(w.pop().map(|(_, _, e)| e), Some((7, 42)).map(|x| x.1));
    }
}
