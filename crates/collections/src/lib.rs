//! Deterministic O(1) collections for the Gage hot paths.
//!
//! The paper's RDN bridges every non-URL packet through a four-tuple
//! connection-table lookup and runs the credit scheduler every 10 ms, so
//! per-packet and per-event costs bound achievable throughput. The
//! workspace bans `std::collections::HashMap`/`HashSet` (their iteration
//! order varies per process, which would un-reproduce the paper's tables),
//! but the `BTreeMap` replacements put an O(log n) ordered-tree walk on
//! every packet. This crate restores O(1) amortized operations *without*
//! giving up determinism:
//!
//! * [`DetMap`] — an open-addressing hash map with an explicitly seeded
//!   hash function and insertion-order iteration. Same inputs → same
//!   layout, same iteration order, on every run and platform.
//! * [`Slab`] — a generational arena: O(1) insert/remove/lookup through
//!   ABA-safe [`SlabKey`] handles, with deterministic slot reuse.
//!
//! Both structures are dependency-free and `forbid(unsafe_code)`.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

mod detmap;
mod slab;

pub use detmap::{DetHasher, DetMap, Iter};
pub use slab::{Slab, SlabKey};
