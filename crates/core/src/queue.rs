//! Per-subscriber FIFO request queues with bounded capacity.
//!
//! The RDN allocates one queue per subscriber (paper §3). Requests within a
//! queue are serviced strictly FIFO; the scheduler decides *which queue* to
//! service next. Queues are bounded: when a subscriber's input rate exceeds
//! what its reservation plus its spare-share can drain, the queue overflows
//! and requests are dropped — that is precisely the "Dropped" column of the
//! paper's Table 1.

use crate::subscriber::SubscriberId;
use std::collections::VecDeque;

/// The per-subscriber FIFO queues of the RDN.
///
/// ```rust
/// use gage_core::queue::SubscriberQueues;
/// use gage_core::subscriber::SubscriberId;
///
/// let mut q: SubscriberQueues<&str> = SubscriberQueues::new(2, 2);
/// let s = SubscriberId(0);
/// assert!(q.enqueue(s, "a").is_ok());
/// assert!(q.enqueue(s, "b").is_ok());
/// assert_eq!(q.enqueue(s, "c"), Err("c")); // full: dropped
/// assert_eq!(q.dropped(s), 1);
/// assert_eq!(q.dequeue(s), Some("a"));
/// ```
#[derive(Debug, Clone)]
pub struct SubscriberQueues<R> {
    queues: Vec<VecDeque<R>>,
    capacity: usize,
    dropped: Vec<u64>,
    accepted: Vec<u64>,
    /// Requests across all queues, maintained incrementally so the
    /// per-cycle backlog reads (`total_len`, `all_empty`) are O(1) instead
    /// of a walk over every subscriber.
    total: usize,
}

impl<R> SubscriberQueues<R> {
    /// Creates queues for `subscribers` subscribers, each bounded at
    /// `capacity` requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(subscribers: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        SubscriberQueues {
            queues: (0..subscribers).map(|_| VecDeque::new()).collect(),
            capacity,
            dropped: vec![0; subscribers],
            accepted: vec![0; subscribers],
            total: 0,
        }
    }

    /// Appends a request to `sub`'s queue.
    ///
    /// # Errors
    ///
    /// Returns the request back if the queue is full (after counting the
    /// drop).
    ///
    /// # Panics
    ///
    /// Panics if `sub` is out of range.
    pub fn enqueue(&mut self, sub: SubscriberId, request: R) -> Result<(), R> {
        let idx = sub.0 as usize;
        let q = &mut self.queues[idx];
        if q.len() >= self.capacity {
            self.dropped[idx] += 1;
            return Err(request);
        }
        q.push_back(request);
        self.accepted[idx] += 1;
        self.total += 1;
        Ok(())
    }

    /// Puts a previously-dequeued request back at the *head* of `sub`'s
    /// queue (it keeps its place in line). Used when a dispatch bounced off
    /// a dead node and must be re-scheduled. Does not re-count `accepted` —
    /// the request was already admitted once.
    ///
    /// # Errors
    ///
    /// Returns the request back if the queue is full (after counting the
    /// drop — the bounced request becomes an ordinary overflow drop).
    ///
    /// # Panics
    ///
    /// Panics if `sub` is out of range.
    pub fn requeue_front(&mut self, sub: SubscriberId, request: R) -> Result<(), R> {
        let idx = sub.0 as usize;
        let q = &mut self.queues[idx];
        if q.len() >= self.capacity {
            self.dropped[idx] += 1;
            return Err(request);
        }
        q.push_front(request);
        self.total += 1;
        Ok(())
    }

    /// Removes the head of `sub`'s queue.
    pub fn dequeue(&mut self, sub: SubscriberId) -> Option<R> {
        let popped = self.queues[sub.0 as usize].pop_front();
        if popped.is_some() {
            self.total -= 1;
        }
        popped
    }

    /// Peeks the head of `sub`'s queue.
    pub fn peek(&self, sub: SubscriberId) -> Option<&R> {
        self.queues[sub.0 as usize].front()
    }

    /// Queue length for `sub`.
    pub fn len(&self, sub: SubscriberId) -> usize {
        self.queues[sub.0 as usize].len()
    }

    /// True if `sub`'s queue is empty.
    pub fn is_empty(&self, sub: SubscriberId) -> bool {
        self.queues[sub.0 as usize].is_empty()
    }

    /// Total requests currently queued across all subscribers.
    pub fn total_len(&self) -> usize {
        debug_assert_eq!(self.total, self.queues.iter().map(VecDeque::len).sum());
        self.total
    }

    /// Cumulative drops for `sub`.
    pub fn dropped(&self, sub: SubscriberId) -> u64 {
        self.dropped[sub.0 as usize]
    }

    /// Cumulative accepted enqueues for `sub`.
    pub fn accepted(&self, sub: SubscriberId) -> u64 {
        self.accepted[sub.0 as usize]
    }

    /// True if every queue is empty.
    pub fn all_empty(&self) -> bool {
        self.total_len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SubscriberId {
        SubscriberId(i)
    }

    #[test]
    fn fifo_order_per_subscriber() {
        let mut q = SubscriberQueues::new(2, 10);
        q.enqueue(s(0), 1).unwrap();
        q.enqueue(s(1), 99).unwrap();
        q.enqueue(s(0), 2).unwrap();
        assert_eq!(q.dequeue(s(0)), Some(1));
        assert_eq!(q.dequeue(s(0)), Some(2));
        assert_eq!(q.dequeue(s(0)), None);
        assert_eq!(q.dequeue(s(1)), Some(99));
    }

    #[test]
    fn overflow_counts_and_returns_request() {
        let mut q = SubscriberQueues::new(1, 1);
        q.enqueue(s(0), "keep").unwrap();
        assert_eq!(q.enqueue(s(0), "drop"), Err("drop"));
        assert_eq!(q.dropped(s(0)), 1);
        assert_eq!(q.accepted(s(0)), 1);
        // Draining makes room again.
        q.dequeue(s(0));
        assert!(q.enqueue(s(0), "again").is_ok());
    }

    #[test]
    fn totals_and_emptiness() {
        let mut q = SubscriberQueues::new(3, 5);
        assert!(q.all_empty());
        q.enqueue(s(0), ()).unwrap();
        q.enqueue(s(2), ()).unwrap();
        assert_eq!(q.total_len(), 2);
        assert!(!q.all_empty());
        assert!(q.is_empty(s(1)));
        assert_eq!(q.len(s(2)), 1);
    }

    #[test]
    fn requeue_front_restores_position() {
        let mut q = SubscriberQueues::new(1, 2);
        q.enqueue(s(0), 1).unwrap();
        q.enqueue(s(0), 2).unwrap();
        let head = q.dequeue(s(0)).unwrap();
        assert_eq!(head, 1);
        // A bounced dispatch goes back to the front, not the back.
        q.requeue_front(s(0), head).unwrap();
        assert_eq!(q.dequeue(s(0)), Some(1));
        assert_eq!(q.accepted(s(0)), 2, "requeue does not re-count accepted");
        // Requeue into a full queue becomes an overflow drop.
        q.enqueue(s(0), 3).unwrap();
        assert_eq!(q.requeue_front(s(0), 9), Err(9));
        assert_eq!(q.dropped(s(0)), 1);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = SubscriberQueues::new(1, 5);
        q.enqueue(s(0), 7).unwrap();
        assert_eq!(q.peek(s(0)), Some(&7));
        assert_eq!(q.len(s(0)), 1);
    }
}
