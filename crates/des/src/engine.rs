//! The simulation engine: drives a [`Model`] through its event queue,
//! merging in the model's own pre-sorted arrivals at pop time.

use crate::event::{EventId, EventQueue};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::wheel::QueueStats;

/// A simulation model: owns all mutable world state and reacts to events.
///
/// The engine pops the earliest event, advances the clock, and calls
/// [`Model::handle`], which may schedule or cancel further events through the
/// [`Context`].
///
/// A model may also hold a pre-sorted stream of *arrivals* (an open-loop
/// client trace, say) outside the event queue, so the queue holds only
/// in-flight work. The engine merges it in at pop time: the next arrival
/// fires when it is due at or before the queue's head, so an arrival wins
/// every same-instant tie, as if it had been scheduled before any queued
/// event. An arrival counts in [`QueueStats::scheduled`] when it fires and
/// never in [`QueueStats::depth`], so `scheduled − cancelled − depth`
/// stays the number of events handled.
pub trait Model {
    /// The event payload type (typically one enum covering the whole world).
    type Event;

    /// Reacts to `event` firing at `ctx.now()`.
    fn handle(&mut self, ctx: &mut Context<'_, Self::Event>, event: Self::Event);

    /// When the next arrival fires, if any are left. It must not be
    /// earlier than any event already fired.
    fn next_arrival(&self) -> Option<SimTime> {
        None
    }

    /// Removes and returns the arrival [`Model::next_arrival`] announced.
    fn pop_arrival(&mut self) -> Option<Self::Event> {
        None
    }
}

/// Scheduling capabilities handed to [`Model::handle`].
#[derive(Debug)]
pub struct Context<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    rng: &'a mut SimRng,
    logical: &'a mut u64,
}

impl<'a, E> Context<'a, E> {
    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// An instant in the past is clamped to *now*: the event fires next,
    /// after already-queued events and pending arrivals at the current
    /// instant.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        self.queue.schedule(at.max(self.now), event)
    }

    /// Cancels a pending event; `true` if it had not yet fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// The engine's deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Credits `n` logical events to the engine's processed-event count.
    ///
    /// Batched handlers (e.g. a struct-of-arrays pass that retires a whole
    /// scheduling cycle's worth of per-packet work inside one physical
    /// event) use this so `events_processed` keeps measuring simulated
    /// work, not dispatch overhead.
    pub fn count_logical(&mut self, n: u64) {
        *self.logical += n;
    }

    /// Operational counters of the underlying event queue.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

/// The discrete-event simulation engine.
///
/// ```rust
/// use gage_des::{Model, Context, Simulation, SimDuration, SimTime};
///
/// struct Counter { fired: Vec<u64> }
/// struct At(u64);
///
/// impl Model for Counter {
///     type Event = At;
///     fn handle(&mut self, ctx: &mut Context<'_, At>, ev: At) {
///         self.fired.push(ev.0);
///         assert_eq!(ctx.now().as_millis(), ev.0);
///     }
/// }
///
/// let mut sim = Simulation::new(Counter { fired: vec![] }, 1);
/// sim.schedule_at(SimTime::from_millis(2), At(2));
/// sim.schedule_at(SimTime::from_millis(1), At(1));
/// sim.run_until(SimTime::from_millis(10));
/// assert_eq!(sim.model().fired, vec![1, 2]);
/// ```
#[derive(Debug)]
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    rng: SimRng,
    now: SimTime,
    events_processed: u64,
    logical_events: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates an engine around `model` with the given RNG seed.
    pub fn new(model: M, seed: u64) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            rng: SimRng::seed_from(seed),
            now: SimTime::ZERO,
            events_processed: 0,
            logical_events: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events handled so far: physical pops plus logical events
    /// credited by batched handlers via [`Context::count_logical`].
    pub fn events_processed(&self) -> u64 {
        self.events_processed + self.logical_events
    }

    /// Operational counters of the underlying event queue.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Shared access to the model (for inspection between runs).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model (for reconfiguration between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Schedules an event from outside the model (setup code).
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) -> EventId {
        self.queue.schedule(at.max(self.now), event)
    }

    /// Schedules an event `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: M::Event) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }

    /// Removes the earliest event due at or before `deadline`: the model's
    /// next arrival when it is due at or before the queue's head (so it
    /// wins a same-instant tie), otherwise the queue's head.
    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, M::Event)> {
        let queued = self.queue.peek_time();
        if let Some(at) = self.model.next_arrival() {
            if at <= deadline && queued.is_none_or(|q| at <= q) {
                let event = self.model.pop_arrival()?;
                self.queue.count_arrival();
                return Some((at, event));
            }
        }
        match queued {
            Some(q) if q <= deadline => self.queue.pop().map(|s| (s.at, s.event)),
            _ => None,
        }
    }

    /// Advances the clock to `at` and lets the model handle `event`.
    fn fire(&mut self, at: SimTime, event: M::Event) {
        debug_assert!(at >= self.now, "time ran backwards");
        self.now = at;
        self.events_processed += 1;
        let mut ctx = Context {
            now: self.now,
            queue: &mut self.queue,
            rng: &mut self.rng,
            logical: &mut self.logical_events,
        };
        self.model.handle(&mut ctx, event);
    }

    /// Processes the single earliest event, if any. Returns `false` when
    /// neither the queue nor the model's arrivals hold one.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.pop_due(SimTime::MAX) else {
            return false;
        };
        self.fire(at, event);
        true
    }

    /// Runs until the event queue and the model's arrivals drain.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until nothing is left or the next event would fire after
    /// `deadline`. The clock is left at the later of its current value and
    /// `deadline` only if events (queued or arrivals) reached it; otherwise
    /// it stays at the last event time.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((at, event)) = self.pop_due(deadline) {
            self.fire(at, event);
        }
        if self.now < deadline && (!self.queue.is_empty() || self.model.next_arrival().is_some()) {
            // Advance the clock to the deadline so back-to-back run_until
            // calls observe contiguous windows.
            self.now = deadline;
        }
    }

    /// Number of events pending in the queue (the model's arrivals not
    /// included).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Chain {
        hops: u32,
        done_at: Option<SimTime>,
    }
    enum Ev {
        Hop(u32),
    }

    impl Model for Chain {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, Ev::Hop(n): Ev) {
            if n < self.hops {
                ctx.schedule_in(SimDuration::from_micros(100), Ev::Hop(n + 1));
            } else {
                self.done_at = Some(ctx.now());
            }
        }
    }

    #[test]
    fn chain_of_events_advances_clock() {
        let mut sim = Simulation::new(
            Chain {
                hops: 50,
                done_at: None,
            },
            0,
        );
        sim.schedule_at(SimTime::ZERO, Ev::Hop(0));
        sim.run();
        assert_eq!(
            sim.model().done_at,
            Some(SimTime::ZERO + SimDuration::from_micros(100) * 50)
        );
        assert_eq!(sim.events_processed(), 51);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(
            Chain {
                hops: 1_000_000,
                done_at: None,
            },
            0,
        );
        sim.schedule_at(SimTime::ZERO, Ev::Hop(0));
        sim.run_until(SimTime::from_millis(1));
        assert!(sim.now() <= SimTime::from_millis(1));
        assert!(sim.model().done_at.is_none());
        assert!(sim.pending_events() > 0);
        // Resume.
        sim.run_until(SimTime::from_millis(2));
        assert!(sim.now() <= SimTime::from_millis(2));
    }

    #[test]
    fn deterministic_across_runs() {
        fn run_once() -> u64 {
            struct R {
                acc: u64,
            }
            enum E {
                T,
            }
            impl Model for R {
                type Event = E;
                fn handle(&mut self, ctx: &mut Context<'_, E>, _e: E) {
                    self.acc = self.acc.wrapping_mul(31).wrapping_add(ctx.rng().next_u64());
                    if !self.acc.is_multiple_of(7) {
                        ctx.schedule_in(SimDuration::from_nanos(self.acc % 1000 + 1), E::T);
                    }
                }
            }
            use rand::RngCore;
            let mut sim = Simulation::new(R { acc: 1 }, 77);
            sim.schedule_at(SimTime::ZERO, E::T);
            sim.run_until(SimTime::from_millis(1));
            sim.model().acc
        }
        assert_eq!(run_once(), run_once());
    }

    /// Replays `arrivals` (ms, hops) from outside the queue. An event with
    /// `hops > 0` queues its successor 1 ms later and arms and disarms a
    /// timer, so a run both schedules and cancels.
    struct Replay {
        arrivals: std::collections::VecDeque<(u64, u32)>,
        fired: Vec<(u64, u32)>,
    }

    impl Replay {
        fn new(arrivals: &[(u64, u32)]) -> Self {
            Replay {
                arrivals: arrivals.iter().copied().collect(),
                fired: Vec::new(),
            }
        }
    }

    impl Model for Replay {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Context<'_, u32>, hops: u32) {
            self.fired.push((ctx.now().as_millis(), hops));
            if hops > 0 {
                ctx.schedule_in(SimDuration::from_millis(1), hops - 1);
                let timer = ctx.schedule_in(SimDuration::from_millis(5), 0);
                ctx.cancel(timer);
            }
        }
        fn next_arrival(&self) -> Option<SimTime> {
            self.arrivals
                .front()
                .map(|&(ms, _)| SimTime::from_millis(ms))
        }
        fn pop_arrival(&mut self) -> Option<u32> {
            self.arrivals.pop_front().map(|(_, hops)| hops)
        }
    }

    #[test]
    fn arrival_wins_a_same_instant_tie_with_a_queued_event() {
        let mut sim = Simulation::new(Replay::new(&[(5, 7)]), 0);
        // Queued before the arrival fires, at the same instant, yet later.
        sim.schedule_at(SimTime::from_millis(5), 0);
        sim.schedule_at(SimTime::from_millis(1), 0);
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.model().fired, vec![(1, 0), (5, 7), (5, 0)]);
    }

    #[test]
    fn pending_arrivals_advance_the_clock_to_the_deadline() {
        let mut sim = Simulation::new(Replay::new(&[(1, 0), (9, 0)]), 0);
        sim.run_until(SimTime::from_millis(4));
        assert_eq!(sim.pending_events(), 0, "only an arrival is pending");
        assert_eq!(sim.now(), SimTime::from_millis(4));
        assert_eq!(sim.model().fired, vec![(1, 0)]);
        // Once nothing is left, the clock stays at the last event.
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.now(), SimTime::from_millis(9));
    }

    #[test]
    fn queue_stats_count_every_handled_event_with_arrivals() {
        let mut sim = Simulation::new(Replay::new(&[(0, 3), (2, 3), (2, 0), (30, 3)]), 0);
        sim.run_until(SimTime::from_millis(4));
        let s = sim.queue_stats();
        assert!(s.cancelled > 0 && s.depth > 0);
        let handled = sim.model().fired.len() as u64;
        assert_eq!(s.scheduled - s.cancelled - s.depth, handled);
        assert_eq!(sim.events_processed(), handled);
        sim.run();
        let s = sim.queue_stats();
        assert_eq!(s.depth, 0);
        assert_eq!(s.scheduled - s.cancelled, sim.model().fired.len() as u64);
        assert_eq!(sim.model().fired.len(), 4 + 3 * 3);
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        struct P {
            seen: Vec<u64>,
        }
        enum E {
            A,
            B,
        }
        impl Model for P {
            type Event = E;
            fn handle(&mut self, ctx: &mut Context<'_, E>, e: E) {
                match e {
                    E::A => {
                        self.seen.push(ctx.now().as_millis());
                        // Deliberately in the past.
                        ctx.schedule_at(SimTime::ZERO, E::B);
                    }
                    E::B => self.seen.push(ctx.now().as_millis()),
                }
            }
        }
        let mut sim = Simulation::new(P { seen: vec![] }, 0);
        sim.schedule_at(SimTime::from_millis(5), E::A);
        sim.run();
        assert_eq!(sim.model().seen, vec![5, 5]);
    }
}
