//! Deterministic discrete-event simulation kernel.
//!
//! `gage-des` is the substrate on which the Gage cluster simulation
//! (`gage-cluster`) runs. That simulation models each request's packets
//! in aggregate: a batched handler credits the packets it stands for
//! through [`Context::count_logical`] instead of popping one event per
//! packet. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time
//!   newtypes with saturating arithmetic,
//! * [`EventQueue`] — a cancellable priority queue of timestamped events with
//!   deterministic FIFO tie-breaking,
//! * [`Simulation`] — the engine driving a user [`Model`] until a deadline or
//!   until nothing is pending, merging the model's pre-sorted arrivals
//!   ([`Model::next_arrival`]) into the event queue's order at pop time,
//! * [`SimRng`] — seeded, splittable random streams so that independent
//!   components draw from independent deterministic sequences,
//! * [`stats`] — binned time series, deviation from a target and busy-time
//!   tracking used by the evaluation harnesses.
//!
//! # Example
//!
//! ```rust
//! use gage_des::{Model, Context, Simulation, SimDuration};
//!
//! struct Ping { count: u32 }
//! enum Ev { Tick }
//!
//! impl Model for Ping {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Context<'_, Ev>, _ev: Ev) {
//!         self.count += 1;
//!         if self.count < 10 {
//!             ctx.schedule_in(SimDuration::from_millis(1), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Ping { count: 0 }, 42);
//! sim.schedule_in(SimDuration::ZERO, Ev::Tick);
//! sim.run();
//! assert_eq!(sim.model().count, 10);
//! assert_eq!(sim.now().as_millis(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod event;
mod rng;
pub mod stats;
mod time;
mod wheel;

pub use engine::{Context, Model, Simulation};
pub use event::{EventId, EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use wheel::QueueStats;
