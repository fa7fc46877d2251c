//! The Gage back-end (RPN) binary.
//!
//! ```text
//! gage-rpn --listen 127.0.0.1:9001 --report-to 127.0.0.1:8100 \
//!          [--base-cpu-us 1490] [--per-kib-cpu-us 55] [--disk-us 0] [--acct-ms 100]
//! ```

use std::process::ExitCode;
use std::time::Duration;

use gage_cli::Args;
use gage_rt::backend::{spawn_backend, BackendConfig, BackendCost};

const USAGE: &str = "gage-rpn --listen ADDR [--report-to ADDR] \
                     [--base-cpu-us N] [--per-kib-cpu-us N] [--disk-us N] [--acct-ms N]";

fn parse_args(args: &mut Args) -> Result<BackendConfig, String> {
    let d = BackendConfig::default();
    Ok(BackendConfig {
        listen: args.opt("--listen")?.ok_or("--listen is required")?,
        report_to: args.opt("--report-to")?,
        accounting_cycle: args
            .opt("--acct-ms")?
            .map_or(d.accounting_cycle, Duration::from_millis),
        cost: BackendCost {
            base_cpu_us: args.opt("--base-cpu-us")?.unwrap_or(d.cost.base_cpu_us),
            per_kib_cpu_us: args
                .opt("--per-kib-cpu-us")?
                .unwrap_or(d.cost.per_kib_cpu_us),
            disk_us: args.opt("--disk-us")?.unwrap_or(d.cost.disk_us),
        },
        ..d
    })
}

fn main() -> ExitCode {
    let cfg = gage_cli::run(USAGE, parse_args);
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
        gage_cli::parse(line.split_whitespace(), parse_args)
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
        assert_eq!(parse_err("--acct-ms 50"), "--listen is required");
    }
}
