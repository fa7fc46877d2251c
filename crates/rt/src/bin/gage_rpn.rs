//! The Gage back-end (RPN) binary.
//!
//! ```text
//! gage-rpn --listen 127.0.0.1:9001 --report-to 127.0.0.1:8100 \
//!          [--base-cpu-us 1490] [--per-kib-cpu-us 55] [--disk-us 0]
//! ```

use std::process::ExitCode;
use std::time::Duration;

use gage_rt::backend::{spawn_backend, BackendConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: gage-rpn --listen ADDR [--report-to ADDR] \
         [--base-cpu-us N] [--per-kib-cpu-us N] [--disk-us N] [--acct-ms N]"
    );
    ExitCode::from(2)
}

/// Parses `args` (without the program name) into a backend config. Every
/// flag takes a value, and a missing or unparsable one is an error, never
/// a silent default.
fn parse_args(args: &[String]) -> Result<BackendConfig, String> {
    fn value<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
    }
    let mut cfg = BackendConfig::default();
    let mut listen = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--listen" => listen = Some(value(flag, raw)?),
            "--report-to" => cfg.report_to = Some(value(flag, raw)?),
            "--base-cpu-us" => cfg.cost.base_cpu_us = value(flag, raw)?,
            "--per-kib-cpu-us" => cfg.cost.per_kib_cpu_us = value(flag, raw)?,
            "--disk-us" => cfg.cost.disk_us = value(flag, raw)?,
            "--acct-ms" => cfg.accounting_cycle = Duration::from_millis(value(flag, raw)?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    cfg.listen = listen.ok_or("--listen is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("gage-rpn: {e}");
            return usage();
        }
    };
    let handle = match spawn_backend(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("gage-rpn: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("gage-rpn: serving on {}", handle.http_addr);

    // Periodic status line until the process is interrupted.
    loop {
        println!("  served={} total requests", handle.served());
        std::thread::sleep(Duration::from_secs(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<BackendConfig, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    fn parse_err(line: &str) -> String {
        parse(line).err().unwrap_or_default()
    }

    #[test]
    fn well_formed_flags_parse() {
        let line = "--listen 127.0.0.1:9001 --report-to 127.0.0.1:8100 --disk-us 250 --acct-ms 50";
        let cfg = parse(line).expect("valid flags");
        assert_eq!(cfg.listen.to_string(), "127.0.0.1:9001");
        assert_eq!(
            cfg.report_to.map(|a| a.to_string()).as_deref(),
            Some("127.0.0.1:8100")
        );
        assert_eq!(cfg.cost.disk_us, 250);
        assert_eq!(cfg.accounting_cycle, Duration::from_millis(50));
    }

    #[test]
    fn unparsable_values_are_errors() {
        assert_eq!(
            parse_err("--listen 127.0.0.1:9001 --report-to localhost:8100"),
            "--report-to: cannot parse `localhost:8100`"
        );
        for flag in [
            "--base-cpu-us",
            "--per-kib-cpu-us",
            "--disk-us",
            "--acct-ms",
        ] {
            let err = parse_err(&format!("--listen 127.0.0.1:9001 {flag} lots"));
            assert_eq!(err, format!("{flag}: cannot parse `lots`"));
        }
        assert_eq!(parse_err("--listen"), "--listen needs a value");
        assert_eq!(parse_err("--acct-ms 50"), "--listen is required");
    }
}
