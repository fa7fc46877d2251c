//! The real-network Gage variant: a splicing front end, cost-calibrated
//! back-end servers and an open-loop load client, all on real TCP sockets
//! with thread-per-connection concurrency.
//!
//! This crate runs the same control plane as the simulated cluster
//! (`gage-cluster`) — host-based classification, per-subscriber queues, the
//! `gage-core` WRR credit scheduler, least-loaded node selection,
//! accounting-cycle usage reports and the report watchdog that routes
//! around a silent back end — against live sockets, suitable for a local
//! multi-process evaluation:
//!
//! ```text
//! gage-rpn  --listen 127.0.0.1:9001 --report-to 127.0.0.1:8100 &
//! gage-rpn  --listen 127.0.0.1:9002 --report-to 127.0.0.1:8100 &
//! gage-rdn  --listen 127.0.0.1:8080 --control 127.0.0.1:8100 \
//!           --site gold.local=200 --site bronze.local=50 \
//!           --backend 127.0.0.1:9001 --backend 127.0.0.1:9002 &
//! gage-client --target 127.0.0.1:8080 --host gold.local --rate 100 --secs 10
//! ```
//!
//! One substitution relative to the paper (documented in `DESIGN.md`):
//! kernel-level TCP splicing with sequence-number rewriting cannot be done
//! from an unprivileged userspace process, so the front end performs an
//! **application-level splice** — after dispatch it relays bytes between the
//! two sockets ([`relay`]). The packet-level splice itself is implemented
//! and tested in `gage-net`.
//!
//! Modules:
//!
//! * [`http`] — a minimal HTTP/1.0 request/response implementation,
//! * [`proto`] — the JSON-lines control protocol for usage reports,
//! * [`backend`] — the RPN server with a calibrated service cost model,
//! * [`frontend`] — the RDN dispatcher embedding the `gage-core` scheduler,
//! * [`relay`] — the application-level splice,
//! * [`client`] — the open-loop load generator,
//! * [`harness`] — in-process spawning of all three roles for tests and
//!   examples.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod backend;
pub mod client;
pub mod frontend;
pub mod harness;
pub mod http;
pub mod proto;
pub mod relay;

pub use backend::{BackendConfig, BackendHandle};
pub use client::{ClientConfig, LoadStats};
pub use frontend::{FrontendConfig, FrontendHandle, SiteConfig};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, taking its data even if a thread panicked while holding
/// it. Every critical section here leaves its data consistent between
/// statements, so one panicked connection thread must not take the whole
/// server down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
