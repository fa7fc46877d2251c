//! End-to-end test of the real-network variant: an in-process deployment
//! with a front end, two back ends and open-loop clients over loopback TCP.

use std::time::{Duration, Instant};

use gage_core::subscriber::SubscriberId;
use gage_obs::audit::{audit_dump, AuditConfig};
use gage_rt::backend::BackendCost;
use gage_rt::client::{run_load, ClientConfig};
use gage_rt::harness::{deploy, DeployOptions};

#[test]
fn reserved_site_survives_an_overload_next_door() {
    // Two back ends, each able to serve ~200 requests/s of 6 KiB responses
    // (5 ms CPU per request), so the cluster saturates around 400 req/s.
    let deployment = deploy(DeployOptions {
        backends: 2,
        sites: vec![
            ("gold.local".to_string(), 150.0),
            ("hog.local".to_string(), 10.0),
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
    // Let the back ends register before offering load.
    std::thread::sleep(Duration::from_millis(300));

    let gold = std::thread::spawn(move || {
        run_load(ClientConfig {
            duration: Duration::from_secs(4),
            size: 6 * 1024,
            timeout: Duration::from_secs(3),
            ..ClientConfig::new(target, "gold.local", 40.0)
        })
    });
    let hog = std::thread::spawn(move || {
        run_load(ClientConfig {
            duration: Duration::from_secs(4),
            size: 6 * 1024,
            timeout: Duration::from_secs(3),
            ..ClientConfig::new(target, "hog.local", 700.0)
        })
    });

    let gold_stats = gold.join().expect("gold client");
    let hog_stats = hog.join().expect("hog client");

    println!(
        "gold: attempted {} ok {} dropped {} errors {}",
        gold_stats.attempted, gold_stats.ok, gold_stats.dropped, gold_stats.errors
    );
    println!(
        "hog: attempted {} ok {} dropped {} errors {}",
        hog_stats.attempted, hog_stats.ok, hog_stats.dropped, hog_stats.errors
    );

    // The reserved site keeps flowing despite the hog swamping the cluster.
    assert!(
        gold_stats.ok as f64 >= 0.75 * gold_stats.attempted as f64,
        "gold served only {}/{}",
        gold_stats.ok,
        gold_stats.attempted
    );
    // The hog is well above cluster capacity: it must lose requests.
    assert!(
        hog_stats.ok < hog_stats.attempted,
        "hog improbably served everything ({}/{})",
        hog_stats.ok,
        hog_stats.attempted
    );
    assert!(
        hog_stats.dropped > 0,
        "overload should overflow the hog's queue"
    );

    // The front end observed completions via accounting reports.
    std::thread::sleep(Duration::from_millis(300));
    let gold_counters = deployment.frontend.counters(SubscriberId(0));
    assert!(
        gold_counters.completed > 0,
        "accounting reports should reach the scheduler"
    );
}

#[test]
fn unknown_host_is_rejected() {
    let deployment = deploy(DeployOptions::default()).expect("deploys");
    let stats = run_load(ClientConfig {
        duration: Duration::from_millis(500),
        timeout: Duration::from_secs(2),
        ..ClientConfig::new(deployment.frontend.http_addr, "nobody.local", 20.0)
    });
    assert_eq!(stats.ok, 0);
    assert!(stats.errors > 0, "404s count as errors");
}

#[test]
fn small_load_is_fully_served() {
    let deployment = deploy(DeployOptions {
        backends: 1,
        sites: vec![("solo.local".to_string(), 100.0)],
        cost: BackendCost {
            base_cpu_us: 500,
            per_kib_cpu_us: 10,
            disk_us: 0,
        },
        accounting_cycle: Duration::from_millis(100),
    })
    .expect("deploys");
    std::thread::sleep(Duration::from_millis(200));
    let stats = run_load(ClientConfig {
        duration: Duration::from_secs(2),
        size: 2_048,
        timeout: Duration::from_secs(2),
        ..ClientConfig::new(deployment.frontend.http_addr, "solo.local", 30.0)
    });
    println!(
        "solo: attempted {} ok {} dropped {} errors {}",
        stats.attempted, stats.ok, stats.dropped, stats.errors
    );
    assert!(
        stats.ok as f64 >= 0.9 * stats.attempted as f64,
        "light load should be fully served: {}/{}",
        stats.ok,
        stats.attempted
    );
    assert!(stats.bytes >= stats.ok * 2_048);

    // The front end's own trace must audit cleanly. Relay threads record
    // `req_served` after the client already has its bytes, so poll until
    // every request has reached a terminal state or the deadline passes.
    let deadline = Instant::now() + Duration::from_secs(5);
    let report = loop {
        let dump = deployment.frontend.trace_dump().expect("deploy traces");
        let report = audit_dump(&dump, &AuditConfig::default()).expect("live dump audits");
        if report.unterminated.is_empty() || Instant::now() > deadline {
            break report;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        report.unterminated.is_empty(),
        "requests without a terminal record: {:?}",
        report.unterminated
    );
    assert!(
        report.requests >= stats.ok,
        "every served request is traced"
    );
    for sub in &report.subscribers {
        let t = sub.totals;
        assert_eq!(
            t.offered,
            t.served + t.dropped + t.failed,
            "sub{}: {t:?}",
            sub.sub
        );
    }
}

#[test]
fn trace_replay_drives_the_live_stack() {
    use gage_rt::client::replay_trace;
    use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace};
    use rand::SeedableRng;

    let deployment = deploy(DeployOptions {
        backends: 1,
        sites: vec![("replay.local".to_string(), 200.0)],
        cost: BackendCost {
            base_cpu_us: 800,
            per_kib_cpu_us: 20,
            disk_us: 0,
        },
        accounting_cycle: Duration::from_millis(100),
    })
    .expect("deploys");
    std::thread::sleep(Duration::from_millis(200));

    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let mut gen = SyntheticGenerator::new(2_048, 3);
    let trace = Trace::generate(
        "replay.local",
        ArrivalProcess::Constant { rate: 25.0 },
        2.0,
        &mut gen,
        &mut rng,
    );
    let expected = trace.len() as u64;
    let stats = replay_trace(
        deployment.frontend.http_addr,
        &trace,
        Duration::from_secs(3),
    );
    println!(
        "replay: attempted {} ok {} dropped {} errors {}",
        stats.attempted, stats.ok, stats.dropped, stats.errors
    );
    assert_eq!(stats.attempted, expected);
    assert!(
        stats.ok as f64 >= 0.9 * expected as f64,
        "trace replay should mostly succeed: {}/{}",
        stats.ok,
        expected
    );
    assert!(stats.bytes >= stats.ok * 2_048);
}
