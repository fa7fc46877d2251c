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
//! * `--check`    validate only: parse every line, print a summary, exit
//!   non-zero on any malformed line (used by the CI trace-smoke step).
//! * `--stats`    print per-kind record counts instead of the records.
//!
//! A missing or unparsable flag value is a usage error (exit 1), never a
//! silently dropped filter.

use std::io::Write;
use std::process::ExitCode;

use gage_json::Json;
use gage_obs::parse_dump;

#[derive(Default)]
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

fn usage() -> ExitCode {
    eprintln!(
        "usage: tracedump <path> [--kind K] [--sub N] [--req N] [--from SECS] [--to SECS] \
         [--check] [--stats]"
    );
    ExitCode::FAILURE
}

/// Parses the value following `flag`.
fn value<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--stats" => opts.stats = true,
            "--kind" => opts.kind = Some(value(arg, it.next())?),
            "--sub" | "--subscriber" => opts.sub = Some(value(arg, it.next())?),
            "--req" => opts.req = Some(value(arg, it.next())?),
            "--from" => opts.from_secs = Some(value(arg, it.next())?),
            "--to" => opts.to_secs = Some(value(arg, it.next())?),
            _ if opts.path.is_empty() && !arg.starts_with("--") => opts.path = arg.clone(),
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
    }
    if opts.path.is_empty() {
        return Err("missing dump path".to_string());
    }
    Ok(opts)
}

fn keep(record: &Json, opts: &Opts) -> bool {
    if let Some(kind) = &opts.kind {
        if record.get("kind").and_then(Json::as_str) != Some(kind.as_str()) {
            return false;
        }
    }
    if let Some(sub) = opts.sub {
        if record.get("sub").and_then(Json::as_u64) != Some(sub) {
            return false;
        }
    }
    if let Some(req) = opts.req {
        if record.get("req").and_then(Json::as_u64) != Some(req) {
            return false;
        }
    }
    let t_secs = record.get("t_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e9;
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
fn render(record: &Json) -> String {
    let t_secs = record.get("t_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e9;
    let seq = record.get("seq").and_then(Json::as_u64).unwrap_or(0);
    let kind = record.get("kind").and_then(Json::as_str).unwrap_or("?");
    let mut line = format!("{t_secs:>12.6}s  #{seq:<8}  {kind:<15}");
    if let Json::Obj(pairs) = record {
        for (k, v) in pairs {
            if matches!(k.as_str(), "seq" | "t_ns" | "kind") {
                continue;
            }
            line.push_str(&format!("  {k}={v}"));
        }
    }
    line
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("tracedump: {e}");
            return usage();
        }
    };
    let text = match std::fs::read_to_string(&opts.path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracedump: cannot read {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let (header, records) = match parse_dump(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("tracedump: invalid dump {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let emitted = header.get("emitted").and_then(Json::as_u64).unwrap_or(0);
    let overwritten = header
        .get("overwritten")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if opts.check {
        println!(
            "ok: {} records retained ({emitted} emitted, {overwritten} overwritten)",
            records.len()
        );
        return ExitCode::SUCCESS;
    }
    let kept: Vec<&Json> = records.iter().filter(|r| keep(r, &opts)).collect();
    if opts.stats {
        // Per-kind counts in first-seen order (deterministic, no hash map).
        let mut counts: Vec<(String, u64)> = Vec::new();
        for r in &kept {
            let kind = r.get("kind").and_then(Json::as_str).unwrap_or("?");
            match counts.iter_mut().find(|(k, _)| k == kind) {
                Some((_, c)) => *c += 1,
                None => counts.push((kind.to_string(), 1)),
            }
        }
        for (kind, count) in &counts {
            println!("{kind:<16} {count}");
        }
        println!("total            {}", kept.len());
        return ExitCode::SUCCESS;
    }
    // Write through a handle so a downstream `head` closing the pipe ends
    // the program quietly instead of panicking mid-print.
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
        records.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Opts, String> {
        parse_args(
            &args
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn well_formed_filters_parse() {
        let opts = parse("t.jsonl --sub 3 --req 42 --from 1.5 --to 2").expect("valid flags");
        assert_eq!(opts.path, "t.jsonl");
        assert_eq!((opts.sub, opts.req), (Some(3), Some(42)));
        assert_eq!((opts.from_secs, opts.to_secs), (Some(1.5), Some(2.0)));
    }

    #[test]
    fn bad_or_missing_values_are_usage_errors() {
        for flag in ["--sub", "--subscriber", "--req", "--from", "--to"] {
            let err = parse(&format!("t.jsonl {flag} zero")).err();
            assert_eq!(err, Some(format!("{flag}: cannot parse `zero`")));
        }
        assert_eq!(
            parse("t.jsonl --req").err().as_deref(),
            Some("--req needs a value")
        );
        assert_eq!(parse("--stats").err().as_deref(), Some("missing dump path"));
        assert!(parse("a.jsonl b.jsonl").is_err());
    }
}
