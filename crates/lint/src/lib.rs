//! `gage-lint` — a dependency-free static analyzer for the Gage workspace.
//!
//! The paper's guarantees rest on properties no compiler checks: the
//! simulator must be *deterministic* (same seed → same Table 1), the
//! splice/scheduler *hot path* must never panic mid-connection, and the
//! QoS *accounting math* must not silently compare floats for equality.
//! v2 enforces them as a token-stream analyzer, not a line scanner: every
//! source file is lexed ([`lexer`]) and parsed into items ([`parse`]), the
//! packages are assembled into a workspace model with a cross-file symbol
//! view ([`model`]), and the rules ([`rules`]) run against tokens and
//! items. Comments, string literals and `#[cfg(test)]` regions are
//! invisible to every rule by construction — the false-positive class the
//! v1 regex scanner spent half its code fighting doesn't exist here.
//!
//! # Per-file rules
//!
//! | rule | scope | forbids |
//! |---|---|---|
//! | `determinism-clock` | gage-des, gage-core, gage-cluster, gage-workload, gage-collections, gage-obs | `Instant`, `SystemTime` (wall clocks in simulated time) |
//! | `determinism-rng` | same | `thread_rng`, `rand::random` (unseeded entropy) |
//! | `determinism-hash-order` | same | `HashMap`, `HashSet` (iteration order varies per process) |
//! | `hot-path-panic` | gage-core::{scheduler,queue,classify,conn_table,node}, gage-net::{splice,tcp,packet} | `.unwrap()`, `.expect(`, `panic!`, `todo!`, `unimplemented!` |
//! | `hot-path-index` | same | indexing by integer literal (`data[4]`) |
//! | `hot-path-btree` | gage-core::conn_table, gage-des::event, gage-cluster::sim (with its role modules `sim::{client,front,rpn,shard}`), gage-cluster::cache | `BTreeMap`, `BTreeSet` (O(log n) walk on per-packet state; use `gage_collections::DetMap`/`Slab`) |
//! | `no-print` | all library code | `println!`, `eprintln!`, `dbg!` |
//! | `obs-no-adhoc-print` | gage-core::scheduler, gage-cluster::sim (with its role modules), gage-net::splice, gage-obs | `print!`, `eprint!`, `stdout()`, `stderr()` (instrumented modules report through `Tracer`/`Registry`) |
//! | `crate-attrs` | every lib crate | missing `#![forbid(unsafe_code)]` / `#![warn(missing_docs)]` |
//! | `float-eq` | gage-core | `==`/`!=` on float literals or resource/credit fields |
//! | `trace-kind-exhaustive` | gage-obs::spans | wildcard `_ =>` match arms (the span reconstructor must handle every `TraceEvent` variant explicitly so new kinds fail to compile, not silently vanish from timelines) |
//! | `dep-version` | every `Cargo.toml` | wildcard versions, literal versions outside `[workspace.dependencies]`, duplicated versions |
//!
//! An invariant the type system can hold gets no rule: node liveness
//! changes only through gage-core's report watchdog, which traces every
//! transition, because `NodeScheduler::set_up` is `pub(crate)`.
//!
//! # Cross-file analyses
//!
//! | rule | catches |
//! |---|---|
//! | `rng-stream-discipline` | `SimRng::seed_from` without a named `.split("stream")` derivation outside gage-des; stream labels aliased across two modules |
//! | `trace-kind-coverage` | `TraceEvent` variants with no emit site or no reconstructor consumer arm |
//! | `fault-kind-coverage` | `FaultEvent` variants with no apply site outside the `FaultPlan` builders, or no `TraceEvent` variant carrying the fault into the causal record |
//! | `panic-reachability` | `unwrap`/`expect`/`panic!`-class constructs and literal indexing in callees reachable from the hot-path entry points (`run_cycle_into`, splice remap, `EventQueue::{schedule,pop}`) |
//!
//! # Meta-rules
//!
//! | rule | catches |
//! |---|---|
//! | `unused-allow` | escape comments whose rule no longer fires there, and escapes naming unknown rules |
//!
//! Test code (`#[cfg(test)]` items), binaries (`src/bin/`, `main.rs`),
//! comments and string literals are exempt from source rules. Any line can
//! opt out with a trailing `lint:allow` comment naming the rule(s); a file
//! can opt out of a rule with a `lint:allow-file` comment in its first ten
//! lines. These escapes are the only way to accept a finding, and they are
//! themselves audited: one that stops suppressing anything becomes an
//! `unused-allow` finding. Run as `cargo run -p gage-lint` (`--json` for
//! the `gage-lint-v2` report, `--sarif` for CI annotation upload) or let
//! the `workspace_clean` test gate tier-1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io;
use std::path::Path;

pub mod lexer;
pub mod model;
pub mod parse;
pub mod report;
pub mod rules;

/// One lint finding, anchored to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (see the crate docs for the table).
    pub rule: &'static str,
    /// Path relative to the linted root, `/`-separated.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column (in characters) of the offending token.
    pub col: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The trimmed source line the finding points at.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{} [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Lints the workspace rooted at `root` and returns every finding, sorted
/// by `(file, line, col, rule)`.
///
/// # Errors
///
/// Propagates filesystem errors; fails when `root` contains no
/// `Cargo.toml` at all (a mistyped root must not report success).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let ws = model::load(root)?;
    let mut sink = rules::Sink::default();
    for krate in &ws.crates {
        rules::tokens::run(krate, &mut sink);
    }
    rules::manifest::run(&ws, &mut sink);
    rules::rng::run(&ws, &mut sink);
    rules::trace::run(&ws, &mut sink);
    rules::fault::run(&ws, &mut sink);
    rules::panics::run(&ws, &mut sink);
    // Meta-rule last: it audits what the sink recorded above.
    rules::allows::run(&ws, &mut sink);
    let mut findings = sink.findings;
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(findings)
}

/// Renders findings as the `gage-lint-v2` JSON report (see [`report`]).
#[must_use]
pub fn report_json(findings: &[Finding]) -> String {
    report::to_json(findings)
}

/// Renders findings as a SARIF 2.1.0 log (see [`report`]).
#[must_use]
pub fn report_sarif(findings: &[Finding]) -> String {
    report::to_sarif(findings)
}
