//! Cancellable timestamped event queue.

use gage_collections::SlabKey;

use crate::time::SimTime;
use crate::wheel::{QueueStats, TimingWheel};

/// Opaque handle identifying a scheduled event, usable to cancel it before
/// it fires (e.g. a retransmission timer disarmed by an ACK).
///
/// Internally this packs a generational [`SlabKey`], so cancellation is an
/// O(1) arena probe rather than an ordered-set lookup, and a stale handle
/// (already fired or cancelled) can never alias a newer event even when the
/// arena reuses its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// An event popped from the queue: when it fires and its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant the event fires.
    pub at: SimTime,
    /// The handle under which it was scheduled.
    pub id: EventId,
    /// The payload.
    pub event: E,
}

/// A priority queue of events ordered by firing time with deterministic
/// FIFO tie-breaking and O(1) cancellation.
///
/// Backed by a hierarchical timing wheel (the private `wheel` module): the
/// fine level buckets ~65.5 µs of virtual time, coarse levels cover 64×
/// each, and far-future events cascade down as the clock approaches them.
/// Pop order is exactly `(at, schedule order)` — byte-identical to the
/// previous `BinaryHeap` implementation, including the handles it returns
/// — but the common periodic-workload operations (schedule near-future,
/// pop, cancel) are O(1) instead of O(log n).
///
/// ```rust
/// use gage_des::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// let a = q.schedule(SimTime::from_millis(5), "late");
/// let _b = q.schedule(SimTime::from_millis(1), "early");
/// q.cancel(a);
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: TimingWheel<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: TimingWheel::new(),
        }
    }

    /// Schedules `event` to fire at absolute time `at` and returns a handle
    /// that can cancel it.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        EventId(self.wheel.schedule(at.as_nanos(), event).to_raw())
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending, `false` if it had already fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.wheel.cancel(SlabKey::from_raw(id.0))
    }

    /// Removes and returns the earliest pending event, skipping cancelled
    /// entries. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.wheel.pop().map(|(at, key, event)| ScheduledEvent {
            at: SimTime::from_nanos(at),
            id: EventId(key.to_raw()),
            event,
        })
    }

    /// Firing time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek().map(SimTime::from_nanos)
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }

    /// Operational counters: depth, lifetime schedule/cancel totals and
    /// wheel cascades.
    pub fn stats(&self) -> QueueStats {
        self.wheel.stats()
    }

    /// Counts a model arrival the engine fired without queueing it in
    /// `scheduled`, as if it had been scheduled and popped at once.
    pub(crate) fn count_arrival(&mut self) {
        self.wheel.count_arrival();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().id, b);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_does_not_disturb_later_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        let fired = q.pop().unwrap();
        assert_eq!(fired.id, a);
        assert!(!q.cancel(a), "cancelling a fired event reports false");
        let b = q.schedule(t(2), "b");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().id, b);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(99)));
    }

    #[test]
    fn stale_id_does_not_cancel_reused_slot() {
        // After an event fires, its arena slot is reused by the next
        // schedule; the old handle must not be able to kill the new event.
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop().unwrap().id, a);
        let b = q.schedule(t(2), "b");
        assert!(!q.cancel(a), "stale handle must miss");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().id, b);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn schedule_behind_peeked_time_still_pops_first() {
        // Peeking may advance the wheel cursor past the head event's slot;
        // a subsequent schedule at an earlier time must still pop first.
        let mut q = EventQueue::new();
        q.schedule(t(10), "later");
        assert_eq!(q.peek_time(), Some(t(10)));
        q.schedule(t(2), "earlier");
        assert_eq!(q.pop().unwrap().event, "earlier");
        assert_eq!(q.pop().unwrap().event, "later");
    }

    #[test]
    fn interleaved_schedule_pop_cancel() {
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        let a = q.schedule(t(10), 10);
        q.schedule(t(1), 1);
        popped.push(q.pop().unwrap().event);
        q.schedule(t(5), 5);
        q.cancel(a);
        q.schedule(t(7), 7);
        while let Some(e) = q.pop() {
            popped.push(e.event);
        }
        assert_eq!(popped, vec![1, 5, 7]);
    }

    #[test]
    fn stats_track_queue_activity() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        let s = q.stats();
        assert_eq!(s.depth, 1);
        assert_eq!(s.scheduled, 2);
        assert_eq!(s.cancelled, 1);
    }

    #[test]
    fn pop_after_10k_cancels_stays_correct() {
        // Cancel 10k timers around a handful of survivors: each cancel
        // frees its event at once, so the wheel lists exactly the
        // survivors, and pops still come out in time order.
        let mut q = EventQueue::new();
        let mut survivors = Vec::new();
        for i in 0u64..10_500 {
            let id = q.schedule(t(1 + (i * 7) % 10_000), i);
            if i % 21 == 0 {
                survivors.push(i);
            } else {
                assert!(q.cancel(id));
            }
        }
        assert_eq!(q.len(), survivors.len());
        assert_eq!(q.wheel.listed(), q.len(), "cancelled timers stay listed");
        let mut popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(popped.len(), survivors.len());
        popped.sort_unstable();
        survivors.sort_unstable();
        assert_eq!(popped, survivors);
        assert!(q.is_empty());
        // The queue keeps working after the storm.
        q.schedule(t(1), 424_242);
        assert_eq!(q.pop().map(|e| e.event), Some(424_242));
    }
}
