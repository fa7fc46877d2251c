//! `tracedump` — pretty-print and filter a gage trace dump.
//!
//! ```text
//! tracedump <path> [--kind K] [--sub N] [--req N] [--from SECS] [--to SECS]
//!           [--check] [--stats]
//! ```
//!
//! * `--kind K`   keep only records of kind `K` (e.g. `dispatch`).
//! * `--sub N`    keep only records about subscriber `N`
//!   (`--subscriber` is accepted as a long alias).
//! * `--req N`    keep only records about request id `N` — one request's
//!   whole causal timeline.
//! * `--from S` / `--to S`   keep records with `S_from <= t < S_to` (seconds).
//! * `--check`    validate only: decode every line, check that the records
//!   re-encode to the same bytes, print a summary, and exit non-zero
//!   otherwise (used by the CI trace-smoke, partition-chaos and
//!   audit-smoke steps).
//! * `--stats`    print per-kind record counts instead of the records.
//!
//! A missing or unparsable flag value is a usage error (exit 2), never a
//! silently dropped filter.

use std::io::Write;
use std::process::ExitCode;

use gage_cli::Args;
use gage_obs::{TraceRecord, TraceRing};

const USAGE: &str = "tracedump <path> [--kind K] [--sub N] [--req N] [--from SECS] [--to SECS] \
                     [--check] [--stats]";

struct Opts {
    path: String,
    kind: Option<String>,
    sub: Option<u64>,
    req: Option<u64>,
    from_secs: Option<f64>,
    to_secs: Option<f64>,
    check: bool,
    stats: bool,
}

fn parse_args(args: &mut Args) -> Result<Opts, String> {
    Ok(Opts {
        kind: args.opt("--kind")?,
        sub: args.opt("--sub|--subscriber")?,
        req: args.opt("--req")?,
        from_secs: args.opt("--from")?,
        to_secs: args.opt("--to")?,
        check: args.flag("--check"),
        stats: args.flag("--stats"),
        path: args.free("PATH")?.ok_or("missing dump path")?,
    })
}

fn keep(record: &TraceRecord, opts: &Opts) -> bool {
    if let Some(kind) = &opts.kind {
        if record.event.kind() != kind {
            return false;
        }
    }
    if let Some(sub) = opts.sub {
        if record.event.subscriber().map(u64::from) != Some(sub) {
            return false;
        }
    }
    if let Some(req) = opts.req {
        if record.event.request() != Some(req) {
            return false;
        }
    }
    let t_secs = record.at.as_nanos() as f64 / 1e9;
    if let Some(from) = opts.from_secs {
        if t_secs < from {
            return false;
        }
    }
    if let Some(to) = opts.to_secs {
        if t_secs >= to {
            return false;
        }
    }
    true
}

/// Renders one record as `  12.345678s  #seq  kind  k=v k=v ...`.
fn render(record: &TraceRecord) -> String {
    let t_secs = record.at.as_nanos() as f64 / 1e9;
    let (seq, kind) = (record.seq, record.event.kind());
    let mut line = format!("{t_secs:>12.6}s  #{seq:<8}  {kind:<15}");
    for (k, v) in record.event.fields() {
        line.push_str(&format!("  {k}={v}"));
    }
    line
}

fn main() -> ExitCode {
    let opts = gage_cli::run(USAGE, parse_args);
    let text = match std::fs::read_to_string(&opts.path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracedump: cannot read {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let ring = match TraceRing::from_dump(&text) {
        Ok(ring) => ring,
        Err(e) => {
            eprintln!("tracedump: invalid dump {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let (emitted, overwritten) = (ring.emitted(), ring.overwritten());
    if opts.check {
        let redump = ring.dump();
        if redump != text {
            let at = match redump.lines().zip(text.lines()).position(|(a, b)| a != b) {
                Some(i) => format!("line {}", i + 1),
                None => "a line ending".to_string(),
            };
            eprintln!(
                "tracedump: invalid dump {}: re-encoding differs at {at}",
                opts.path
            );
            return ExitCode::FAILURE;
        }
        println!(
            "ok: {} records retained ({emitted} emitted, {overwritten} overwritten)",
            ring.len()
        );
        return ExitCode::SUCCESS;
    }
    let kept: Vec<&TraceRecord> = ring.iter().filter(|r| keep(r, &opts)).collect();
    if opts.stats {
        // Per-kind counts in first-seen order (deterministic, no hash map).
        let mut counts: Vec<(&str, u64)> = Vec::new();
        for r in &kept {
            let kind = r.event.kind();
            match counts.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, c)) => *c += 1,
                None => counts.push((kind, 1)),
            }
        }
        for (kind, count) in &counts {
            println!("{kind:<16} {count}");
        }
        println!("total            {}", kept.len());
        return ExitCode::SUCCESS;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "a locked handle lets a downstream `head` closing the pipe end the program quietly instead of panicking mid-print"
    )]
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if overwritten > 0
        && writeln!(
            out,
            "# ring overwrote {overwritten} of {emitted} records; dump starts mid-stream"
        )
        .is_err()
    {
        return ExitCode::SUCCESS;
    }
    for r in &kept {
        if writeln!(out, "{}", render(r)).is_err() {
            return ExitCode::SUCCESS;
        }
    }
    let _ = writeln!(
        out,
        "# {} records shown ({} retained)",
        kept.len(),
        ring.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Opts, String> {
        gage_cli::parse(line.split_whitespace(), parse_args)
    }

    #[test]
    fn well_formed_filters_parse() {
        let opts = parse("--subscriber 3 t.jsonl --req 42 --from 1.5 --to 2").expect("valid flags");
        assert_eq!(opts.path, "t.jsonl");
        assert_eq!((opts.sub, opts.req), (Some(3), Some(42)));
        assert_eq!((opts.from_secs, opts.to_secs), (Some(1.5), Some(2.0)));
    }

    #[test]
    fn bad_or_missing_values_are_usage_errors() {
        assert_eq!(
            parse("t.jsonl --subscriber zero").err().as_deref(),
            Some("--subscriber: cannot parse `zero`")
        );
        assert_eq!(parse("--stats").err().as_deref(), Some("missing dump path"));
        assert_eq!(
            parse("a.jsonl b.jsonl").err().as_deref(),
            Some("unexpected argument `b.jsonl`")
        );
    }
}
