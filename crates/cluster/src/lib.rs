//! A simulated Gage web-server cluster (the paper's testbed, rebuilt as a
//! deterministic discrete-event simulation).
//!
//! The paper evaluates Gage on eight Celeron-600 back-end nodes behind a
//! PIII-450 front end on switched Fast Ethernet. This crate reproduces that
//! testbed mechanistically:
//!
//! * [`server`] — the work-conserving FIFO service lines ([`server::BusyLine`])
//!   that model each RPN's CPU, disk and NIC,
//! * [`cache`] — a byte-budget LRU page cache (the source of per-request
//!   disk variability under SPECWeb99-shaped load),
//! * [`process`] — per-process resource accounting with charging entities
//!   and process-tree rollups (paper §3.5),
//! * [`params`] — calibration: Table-3 per-operation costs, service cost
//!   models (*generic request* vs. static files), the RDN interrupt-
//!   overload model behind §4.3's utilization knee,
//! * [`metrics`] — offered/served/dropped/failed series, observed-usage
//!   series (Figure 3's metric), latency histograms, RDN busy tracking,
//! * [`faults`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   scripting node crash/recovery, report-loss windows and degraded
//!   links, replayable byte-for-byte,
//! * [`sim`] — the event loop wiring clients, the RDN (classification,
//!   handshake emulation, connection table, the `gage-core` scheduler) and
//!   the RPNs (local service manager with real [`gage_net::SpliceMap`]
//!   remapping, web-server model, accounting-cycle reports).
//!
//! # Example: a minimal isolation experiment
//!
//! ```rust
//! use gage_cluster::params::ClusterParams;
//! use gage_cluster::sim::{ClusterSim, SiteSpec};
//! use gage_core::resource::Grps;
//! use gage_des::SimTime;
//! use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut gen = SyntheticGenerator::new(2_000, 1);
//! let trace = Trace::generate(
//!     "gold.example.com",
//!     ArrivalProcess::Constant { rate: 40.0 },
//!     2.0,
//!     &mut gen,
//!     &mut rng,
//! );
//! let params = ClusterParams {
//!     rpn_count: 2,
//!     service: gage_cluster::params::ServiceCostModel::generic_requests(),
//!     ..Default::default()
//! };
//! let sites = vec![SiteSpec {
//!     host: "gold.example.com".into(),
//!     reservation: Grps(50.0),
//!     trace,
//! }];
//! let mut sim = ClusterSim::new(params, sites, 42);
//! sim.run_until(SimTime::from_secs(3));
//! let report = sim.report(SimTime::from_secs(1), SimTime::from_secs(2));
//! assert!(report.subscribers[0].served > 30.0);
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod cache;
pub mod faults;
pub mod metrics;
pub mod params;
pub mod process;
pub mod server;
pub mod sim;

pub use faults::{FaultEvent, FaultPlan};
pub use metrics::{ClusterReport, SubscriberRow};
pub use params::{ClientRetryParams, ClusterParams, GageMode, ServiceCostModel};
pub use sim::{ClusterSim, SiteSpec};
