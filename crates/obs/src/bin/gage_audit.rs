//! `gage-audit` — QoS conformance audit of a gage trace dump.
//!
//! ```text
//! gage-audit <path> [--json] [--window SECS] [--tolerance F] [--expect-clean]
//!           [--shard RDN] [--after SECS]
//! ```
//!
//! Reconstructs every request in the dump into its causal timeline, checks
//! the exactly-one-terminal-state invariant, computes delivered service per
//! conformance window against each subscriber's (possibly fault-rescaled)
//! reservation, and prints either a human table (default) or the machine
//! JSON report (`--json`, schema `gage-audit-v1`).
//!
//! * `--window SECS` the conformance window, at least 0.01 s: the paper's
//!   10 ms scheduling cycle (default 1 s);
//! * `--shard RDN`  scope the report to subscribers homed on one RDN's
//!   shard (from the dump's `reservation` records);
//! * `--after SECS` ignore violation runs that *start* before `SECS` —
//!   the post-heal gate for chaos runs, where windows overlapping an
//!   injected RDN crash or partition are expected to violate.
//!
//! Exit status:
//!
//! * 1 if the dump is malformed, the ring overwrote history, a request id
//!   is out of range, or any request fails to reconstruct into exactly one
//!   terminal state;
//! * with `--expect-clean`, also 1 if any request is still unterminated
//!   or any conformance violation is reported (after the
//!   `--shard`/`--after` filters) — the CI clean-run gate;
//! * 2 for a usage error, so a mistyped flag never passes for a detected
//!   violation.

use std::process::ExitCode;

use gage_cli::Args;
use gage_obs::audit::{audit_dump, AuditConfig, MIN_WINDOW_NS};

const USAGE: &str = "gage-audit <path> [--json] [--window SECS] [--tolerance F] [--expect-clean] \
                     [--shard RDN] [--after SECS]";

struct Opts {
    path: String,
    json: bool,
    expect_clean: bool,
    shard: Option<u16>,
    after_ns: Option<u64>,
    config: AuditConfig,
}

fn parse_args(args: &mut Args) -> Result<Opts, String> {
    let defaults = AuditConfig::default();
    let ns = |secs: f64| (secs * 1e9) as u64;
    Ok(Opts {
        json: args.flag("--json"),
        expect_clean: args.flag("--expect-clean"),
        shard: args.opt("--shard")?,
        after_ns: checked(args, "--after", |secs| secs >= 0.0)?.map(ns),
        config: AuditConfig {
            window_ns: checked(args, "--window", |secs| secs * 1e9 >= MIN_WINDOW_NS as f64)?
                .map_or(defaults.window_ns, ns),
            tolerance: checked(args, "--tolerance", |f| (0.0..=1.0).contains(&f))?
                .unwrap_or(defaults.tolerance),
        },
        path: args.free("PATH")?.ok_or("missing dump path")?,
    })
}

/// Pulls `flag`'s value and rejects one outside the range `ok` accepts
/// (NaN is outside every range).
fn checked(args: &mut Args, flag: &str, ok: fn(f64) -> bool) -> Result<Option<f64>, String> {
    match args.opt(flag)? {
        Some(v) if !ok(v) => Err(format!("{flag}: `{v}` is out of range")),
        v => Ok(v),
    }
}

fn main() -> ExitCode {
    let opts = gage_cli::run(USAGE, parse_args);
    let text = match std::fs::read_to_string(&opts.path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gage-audit: cannot read {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let mut report = match audit_dump(&text, &opts.config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gage-audit: {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    if let Some(shard) = opts.shard {
        report.subscribers.retain(|s| s.shard == Some(shard));
        if report.subscribers.is_empty() {
            eprintln!("gage-audit: no subscriber in the dump is homed on shard {shard}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(after_ns) = opts.after_ns {
        for s in &mut report.subscribers {
            s.violations.retain(|v| v.start_ns >= after_ns);
        }
    }
    if opts.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_table());
    }
    if opts.expect_clean {
        if !report.unterminated.is_empty() {
            eprintln!(
                "gage-audit: {} unterminated request(s): {:?}",
                report.unterminated.len(),
                &report.unterminated[..report.unterminated.len().min(10)]
            );
            return ExitCode::FAILURE;
        }
        let violations = report.violation_count();
        if violations > 0 {
            eprintln!("gage-audit: {violations} conformance violation(s) in a run expected clean");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
