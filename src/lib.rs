//! Gage — a reproduction of *Performance Guarantees for Cluster-Based
//! Internet Services* (Li, Peng, Gopalan, Chiueh — ICDCS 2003).
//!
//! This facade crate re-exports the workspace crates under one roof:
//!
//! * [`des`] — deterministic discrete-event simulation kernel,
//! * [`net`] — userspace TCP/IP packet substrate with connection splicing,
//! * [`core`] — Gage's QoS core: classification, WRR credit scheduling,
//!   node selection and resource accounting,
//! * [`workload`] — synthetic and SPECWeb99-shaped workload generators,
//! * [`cluster`] — the simulated Gage cluster (each request's packets
//!   charged in aggregate),
//! * [`rt`] — the real-network (threaded TCP) variant with multi-process
//!   binaries,
//! * [`obs`] — deterministic structured tracing + live metrics registry
//!   (see the `--trace` flag and the `tracedump` bin).
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` for
//! the system inventory and experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gage_cluster as cluster;
pub use gage_core as core;
pub use gage_des as des;
pub use gage_net as net;
pub use gage_obs as obs;
pub use gage_rt as rt;
pub use gage_workload as workload;
