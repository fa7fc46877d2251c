//! The open-loop load client binary.
//!
//! ```text
//! gage-client --target 127.0.0.1:8080 --host gold.local --rate 100 \
//!             --secs 10 [--size 6144]
//! ```

use std::time::Duration;

use gage_cli::Args;
use gage_rt::client::{run_load, ClientConfig};
use gage_rt::http::DEFAULT_RESPONSE_SIZE;

const USAGE: &str = "gage-client --target ADDR --host HOST --rate N --secs N [--size BYTES]";

fn parse_args(args: &mut Args) -> Result<ClientConfig, String> {
    Ok(ClientConfig {
        duration: Duration::from_secs(args.opt("--secs")?.unwrap_or(5)),
        size: args.opt("--size")?.unwrap_or(DEFAULT_RESPONSE_SIZE),
        ..ClientConfig::new(
            args.opt("--target")?.ok_or("--target is required")?,
            args.opt::<String>("--host")?.ok_or("--host is required")?,
            args.opt("--rate")?.unwrap_or(10.0),
        )
    })
}

fn main() {
    let cfg = gage_cli::run(USAGE, parse_args);
    let duration = cfg.duration;
    println!(
        "gage-client: {} req/s against {} via {} for {}s",
        cfg.rate,
        cfg.host,
        cfg.target,
        duration.as_secs()
    );
    let stats = run_load(cfg);
    println!(
        "attempted {}  ok {}  dropped {}  errors {}",
        stats.attempted, stats.ok, stats.dropped, stats.errors
    );
    let lat = &stats.latency_ms;
    println!(
        "goodput {:.1} req/s  latency mean {:.1} ms  p50 {:.1} ms  p99 {:.1} ms  max {:.1} ms  bytes {}",
        stats.goodput(duration),
        lat.mean(),
        lat.p50(),
        lat.p99(),
        lat.max(),
        stats.bytes
    );
}
