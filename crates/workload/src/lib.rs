//! Workload generation for the Gage reproduction.
//!
//! The paper evaluates with two workload types (§4): **synthetic** —
//! constant-rate requests for fixed-size files — and **realistic** — a trace
//! derived from SPECWeb99, replayed at a constant rate in the open-loop
//! style of Banga & Druschel ("Measuring the Capacity of a Web Server").
//!
//! SPECWeb99 itself is proprietary, so [`specweb`] provides a generator with
//! the benchmark's published *shape*: four file classes (0.1–0.9 KB, 1–9 KB,
//! 10–90 KB, 100–900 KB) with the 35/50/14/1 % class mix, Zipf-distributed
//! directory popularity and per-class file popularity. That heavy-tailed mix
//! is what exercises Gage's usage *prediction* error — exactly the effect
//! Figure 3's SPECWeb99 line measures.
//!
//! * [`zipf`] — a from-scratch Zipf sampler (inverse CDF over a precomputed
//!   table, searched from a guide table),
//! * [`fileset`] — per-site SPECWeb99-shaped file populations,
//! * [`arrival`] — open-loop arrival processes (constant, Poisson, on-off),
//! * [`synthetic`] — the fixed-size synthetic workload,
//! * [`specweb`] — the SPECWeb99-shaped request generator,
//! * [`trace`] — timestamped request traces with JSON save/load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod fileset;
pub mod specweb;
pub mod synthetic;
pub mod trace;
pub mod zipf;

pub use arrival::ArrivalProcess;
pub use specweb::SpecWebGenerator;
pub use synthetic::SyntheticGenerator;
pub use trace::{Trace, TraceEntry};

/// A generated request: which of the generator's files is fetched and how
/// large the response will be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratedRequest {
    /// The generator's index of the file, below its file count; its URL
    /// path is [`RequestGenerator::path`] of this index.
    pub file: u32,
    /// Response body size in bytes.
    pub size_bytes: u64,
}

/// A source of requests for one subscriber's site.
pub trait RequestGenerator {
    /// Draws the next request.
    fn next_request(&mut self, rng: &mut dyn rand::RngCore) -> GeneratedRequest;

    /// The URL path of file `file` (e.g. `/dir00004/class1_3`), an index a
    /// drawn request carried. Distinct files have distinct paths.
    fn path(&self, file: u32) -> String;
}
