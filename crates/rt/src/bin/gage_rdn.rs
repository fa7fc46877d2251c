//! The Gage front-end (RDN) binary.
//!
//! ```text
//! gage-rdn --listen 127.0.0.1:8080 --control 127.0.0.1:8100 \
//!          --site gold.local=200 --site bronze.local=50 \
//!          --backend 127.0.0.1:9001 --backend 127.0.0.1:9002 \
//!          [--trace trace.jsonl] [--run-secs 30]
//! ```
//!
//! `--trace PATH` enables the gage-obs trace ring (64 Ki records) and
//! writes its dump to PATH when the run ends; `--run-secs N` ends the run
//! after N seconds instead of serving forever. A dump is only written when
//! the run actually ends, so `--trace` is typically paired with
//! `--run-secs`. Inspect the dump with the `tracedump` binary.

use std::process::ExitCode;

use gage_cli::Args;
use gage_core::resource::Grps;
use gage_core::subscriber::SubscriberId;
use gage_rt::frontend::{spawn_frontend, FrontendConfig, SiteConfig};

const USAGE: &str = "gage-rdn --listen ADDR --control ADDR \
                     --site HOST=GRPS [--site ...] --backend ADDR [--backend ...] \
                     [--trace PATH] [--run-secs N]";

/// The front end's config, the trace dump path and the run length.
fn parse_args(args: &mut Args) -> Result<(FrontendConfig, Option<String>, Option<u64>), String> {
    let trace: Option<String> = args.opt("--trace")?;
    let cfg = FrontendConfig {
        listen: args.opt("--listen")?.ok_or("--listen is required")?,
        control: args.opt("--control")?.ok_or("--control is required")?,
        sites: args
            .all("--site")?
            .into_iter()
            .map(site)
            .collect::<Result<_, _>>()?,
        backends: args.all("--backend")?,
        trace: trace.is_some(),
        ..FrontendConfig::loopback(Vec::new(), Vec::new())
    };
    if cfg.sites.is_empty() || cfg.backends.is_empty() {
        return Err("at least one --site and one --backend are required".to_string());
    }
    Ok((cfg, trace, args.opt("--run-secs")?))
}

/// Splits a `--site HOST=GRPS` value.
fn site(raw: String) -> Result<SiteConfig, String> {
    let bad = || format!("--site: cannot parse `{raw}` as HOST=GRPS");
    let (host, grps) = raw.split_once('=').ok_or_else(bad)?;
    Ok(SiteConfig {
        host: host.to_string(),
        reservation: Grps(grps.parse().map_err(|_| bad())?),
    })
}

fn main() -> ExitCode {
    let (cfg, trace, run_secs) = gage_cli::run(USAGE, parse_args);
    let n_sites = cfg.sites.len();
    let handle = match spawn_frontend(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("gage-rdn: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "gage-rdn: serving on {} (control {})",
        handle.http_addr, handle.control_addr
    );

    // Periodic status line until the process is interrupted (or the
    // requested run length elapses).
    let started = std::time::Instant::now();
    loop {
        for i in 0..n_sites {
            let c = handle.counters(SubscriberId(i as u32));
            println!(
                "  sub{}: accepted={} dropped={} dispatched={} completed={}",
                i, c.accepted, c.dropped, c.dispatched, c.completed
            );
        }
        match run_secs {
            None => std::thread::sleep(std::time::Duration::from_secs(5)),
            Some(secs) => {
                let elapsed = started.elapsed().as_secs();
                if elapsed >= secs {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_secs((secs - elapsed).min(5)));
            }
        }
    }

    if let Some(path) = trace {
        let Some(dump) = handle.trace_dump() else {
            eprintln!("gage-rdn: tracing was not enabled");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::write(&path, dump) {
            eprintln!("gage-rdn: failed to write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("gage-rdn: wrote trace to {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_split_into_host_and_reservation() {
        let base = "--listen 127.0.0.1:8080 --control 127.0.0.1:8100 --backend 127.0.0.1:9001";
        let parse = |sites: &str| gage_cli::parse(format!("{base} {sites}").split(' '), parse_args);
        let (cfg, _, _) = parse("--site gold.local=200 --site b.local=50.5").expect("valid");
        let sites: Vec<_> = cfg
            .sites
            .iter()
            .map(|s| (&*s.host, s.reservation.0))
            .collect();
        assert_eq!(sites, [("gold.local", 200.0), ("b.local", 50.5)]);
        for bad in ["gold.local", "gold.local=lots"] {
            let want = format!("--site: cannot parse `{bad}` as HOST=GRPS");
            assert_eq!(parse(&format!("--site {bad}")).err(), Some(want));
        }
    }
}
