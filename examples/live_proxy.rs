//! The real-network variant, end to end in one process: spawn a Gage front
//! end and two back ends on loopback TCP, then drive them with two
//! open-loop clients — one inside its contract, one far beyond it.
//!
//! ```text
//! cargo run --release --example live_proxy
//! ```
//!
//! (The same roles are available as standalone binaries — `gage-rdn`,
//! `gage-rpn`, `gage-client` — for a true multi-process run.)

use std::time::Duration;

use gage::rt::backend::BackendCost;
use gage::rt::client::{run_load, ClientConfig};
use gage::rt::harness::{deploy, DeployOptions};

fn main() {
    gage_cli::run("live_proxy", |_| Ok(()));
    // Two back ends, each good for ~200 req/s of 6 KiB responses.
    let deployment = deploy(DeployOptions {
        backends: 2,
        sites: vec![
            ("steady.local".to_string(), 150.0),
            ("greedy.local".to_string(), 20.0),
        ],
        cost: BackendCost {
            base_cpu_us: 4_700,
            per_kib_cpu_us: 50,
            disk_us: 0,
        },
        accounting_cycle: Duration::from_millis(100),
    })
    .expect("deployment starts");
    let target = deployment.frontend.http_addr;
    println!("front end listening on {target}; two back ends attached");

    // Let the back ends register their first usage reports.
    std::thread::sleep(Duration::from_millis(300));

    println!("driving 5s of load: steady.local at 50/s, greedy.local at 600/s ...");
    let steady = std::thread::spawn(move || {
        run_load(ClientConfig {
            duration: Duration::from_secs(5),
            size: 6 * 1024,
            ..ClientConfig::new(target, "steady.local", 50.0)
        })
    });
    let greedy = std::thread::spawn(move || {
        run_load(ClientConfig {
            duration: Duration::from_secs(5),
            size: 6 * 1024,
            ..ClientConfig::new(target, "greedy.local", 600.0)
        })
    });
    let steady = steady.join().expect("steady client");
    let greedy = greedy.join().expect("greedy client");

    for (name, stats) in [("steady", &steady), ("greedy", &greedy)] {
        println!(
            "{name:>7}: attempted {:>5}  ok {:>5}  dropped {:>5}  errors {:>3}  mean latency {:>6.1} ms",
            stats.attempted,
            stats.ok,
            stats.dropped,
            stats.errors,
            stats.latency_ms.mean()
        );
    }
    println!(
        "\nthe steady tenant completed {:.0}% of its requests while the greedy one \
         was shed at the front door ({} × 503).",
        100.0 * steady.ok as f64 / steady.attempted.max(1) as f64,
        greedy.dropped
    );
}
