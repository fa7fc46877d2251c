//! Gage's QoS core: request classification, weighted-round-robin credit
//! scheduling, node selection and resource usage accounting.
//!
//! This crate is the paper's contribution, kept deliberately free of any
//! particular substrate: the same [`scheduler::RequestScheduler`] drives
//! both the simulated cluster (`gage-cluster`) and the threaded
//! real-network variant (`gage-rt`).
//!
//! # The pieces (paper §3)
//!
//! * [`subscriber`] — subscribers (virtual web sites) with GRPS
//!   reservations, and host-based classification,
//! * [`resource`] — the three-dimensional resource algebra around the
//!   *generic request* unit (10 ms CPU + 10 ms disk + 2 KB network),
//! * [`classify`] — the RDN's three-way packet classification and HTTP
//!   Host extraction,
//! * [`queue`] — bounded per-subscriber FIFO queues,
//! * [`scheduler`] — the two-pass WRR credit scheduler,
//! * [`node`] — least-loaded RPN selection with outstanding-load tracking,
//! * [`estimator`] — weighted-average per-request usage prediction,
//! * [`accounting`] — accounting-cycle reports and balance reconciliation,
//! * [`merge`] — the conflict-free replicated accounting table peer RDNs
//!   gossip to survive report loss, duplication and crashes,
//! * [`conn_table`] — the four-tuple connection table for L2 bridging,
//! * [`config`] — scheduler tunables and spare-sharing policies.
//!
//! # Example
//!
//! ```rust
//! use gage_core::prelude::*;
//! use gage_obs::Tracer;
//!
//! // Two subscribers, as in the paper's Table 2.
//! let mut registry = SubscriberRegistry::new();
//! let site1 = registry.register("site1.example.com", Grps(250.0)).unwrap();
//! let site2 = registry.register("site2.example.com", Grps(200.0)).unwrap();
//!
//! let mut sched: RequestScheduler<&str> = RequestScheduler::new(
//!     &registry,
//!     SchedulerConfig::default(),
//!     NodeScheduler::new(0.1),
//! );
//! sched.nodes_mut().add_rpn(ResourceVector::new(1e6, 1e6, 12.5e6));
//!
//! let mut tracer = Tracer::disabled();
//! sched.enqueue(site1, "GET /catalog", &mut tracer).unwrap();
//! sched.enqueue(site2, "GET /cart", &mut tracer).unwrap();
//! let dispatched = sched.run_cycle(0.010, &mut tracer);
//! assert_eq!(dispatched.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod classify;
pub mod config;
pub mod conn_table;
pub mod estimator;
pub mod merge;
pub mod node;
pub mod queue;
pub mod resource;
pub mod scheduler;
pub mod subscriber;

/// One-stop imports for typical users.
pub mod prelude {
    pub use crate::accounting::{SubscriberUsage, UsageReport};
    pub use crate::classify::{classify_packet, PacketClass};
    pub use crate::config::{SchedulerConfig, SparePolicy};
    pub use crate::conn_table::{ConnTable, Route};
    pub use crate::estimator::UsageEstimator;
    pub use crate::merge::{AcctRow, AcctTable, UsageCell};
    pub use crate::node::{NodeScheduler, RpnId};
    pub use crate::queue::SubscriberQueues;
    pub use crate::resource::{Grps, ResourceVector};
    pub use crate::scheduler::{Dispatch, RequestScheduler, SubscriberCounters, TraceTag};
    pub use crate::subscriber::{Subscriber, SubscriberId, SubscriberRegistry};
}
