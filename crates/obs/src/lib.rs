//! Deterministic structured tracing and live metrics for the Gage stack.
//!
//! The paper's argument is only checkable if the *online* behaviour of the
//! RDN is visible: which subscriber a cycle dispatched for, what the credit
//! balance was when it did, which RPN a splice landed on, how loaded each
//! node looked when an accounting report arrived. `gage-obs` provides that
//! visibility without perturbing the system under test:
//!
//! * [`TraceRing`] / [`Tracer`] — a fixed-capacity ring of typed, `Copy`
//!   [`TraceEvent`] records stamped with [`gage_des::SimTime`]. Emission is
//!   allocation-free; a disabled tracer costs one branch. A `Tracer` is a
//!   plain owned value, lent as `&mut` to each call that emits: the
//!   simulator's world owns one, and `gage-rt` keeps one beside its
//!   scheduler under the lock it already takes. Dumps are line-oriented
//!   JSON and byte-identical across same-seed runs, and
//!   [`TraceRing::from_dump`] decodes one back into the ring that wrote it.
//! * [`Registry`] — named counters / gauges / [`Histogram`]s (with
//!   deterministic p50/p95/p99 estimation) and insertion-ordered,
//!   deterministic export as `gage-json` or a table.
//! * [`spans`] — folds a ring's records back into per-request causal
//!   timelines (arrival → enqueue → dispatch → splice → terminal state)
//!   with per-stage durations, in one `match` on [`TraceEvent`].
//! * [`audit`] — the per-subscriber QoS conformance auditor: delivered
//!   GRPS per window vs. the (possibly fault-rescaled) reservation.
//! * `tracedump` (bin) — pretty-prints and filters dumps by subscriber,
//!   request, event kind and time range.
//! * `gage-audit` (bin) — runs the auditor over a dump file and emits a
//!   human table or a machine JSON conformance report.
//!
//! See DESIGN.md §11 for the record schema, the determinism contract and
//! the measured tracing overhead, and §13 for the span model and the
//! conformance-window definition.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod audit;
mod registry;
mod ring;
pub mod spans;

pub use registry::{Histogram, Registry, METRICS_SCHEMA};
pub use ring::{TraceEvent, TraceRecord, TraceRing, Tracer, TRACE_SCHEMA};
