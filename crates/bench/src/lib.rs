//! Benchmark harnesses that regenerate every table and figure of the Gage
//! paper's evaluation (§4).
//!
//! Each experiment lives in its own module and returns structured results,
//! so the binaries, the integration tests and `EXPERIMENTS.md` generation
//! all share one implementation:
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 1 (performance isolation) | [`table1`] | `table1_isolation` |
//! | Table 2 (spare resource allocation) | [`table2`] | `table2_spare` |
//! | Figure 3 (deviation vs averaging interval) | [`fig3`] | `fig3_deviation` |
//! | Table 3 (per-connection / per-packet overheads) | — | `cargo bench` (`table3_overheads`) |
//! | §4.2 (3.06 % QoS overhead) | [`overhead`] | `overhead_analysis` |
//! | §4.3 (throughput scaling + RDN utilization) | [`scalability`] | `scalability` |
//!
//! Absolute numbers come from this repository's calibrated simulator, not
//! the authors' 2002 testbed; the *shape* of each result (who wins, by what
//! factor, where knees fall) is the reproduction target. `EXPERIMENTS.md`
//! records paper-vs-measured for every row. Simulator wall-clock
//! performance is measured by the separate `simbench` package at the
//! repository root, not here.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod common;
pub mod fig3;
pub mod microbench;
pub mod overhead;
pub mod scalability;
pub mod table1;
pub mod table2;
