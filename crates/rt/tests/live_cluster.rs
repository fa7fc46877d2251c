//! End-to-end test of the real-network variant: an in-process deployment
//! with a front end, two back ends and open-loop clients over loopback TCP.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use gage_core::resource::Grps;
use gage_core::subscriber::SubscriberId;
use gage_obs::audit::{audit_dump, AuditConfig, AuditReport};
use gage_obs::{TraceEvent, TraceRing};
use gage_rt::backend::{spawn_backend_on, BackendConfig, BackendCost};
use gage_rt::client::{run_load, ClientConfig};
use gage_rt::frontend::{spawn_frontend, FrontendConfig, FrontendHandle, SiteConfig};
use gage_rt::harness::{deploy, DeployOptions};
use gage_rt::http::{read_response, RequestHead};

/// One GET of a `size`-byte body for `host` through `target`, answered
/// within 5 s: the status and the body length.
fn get(target: SocketAddr, host: &str, size: u64) -> (u16, u64) {
    let mut stream = TcpStream::connect(target).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("sets a read timeout");
    let head = RequestHead::get("/x", host, Some(size));
    stream.write_all(&head.to_bytes()).expect("sends the head");
    read_response(&mut stream).expect("a response within 5 s")
}

/// The front end's trace records so far.
fn events(frontend: &FrontendHandle) -> Vec<TraceEvent> {
    let dump = frontend.trace_dump().expect("the front end traces");
    let ring = TraceRing::from_dump(&dump).expect("the dump decodes");
    ring.iter().map(|r| r.event).collect()
}

/// Polls the front end's dump until every traced request has reached a
/// terminal record or 5 s pass, and returns the last dump and its audit.
/// Relay threads record `req_served` after the client already has its
/// bytes, so a dump taken at once can still hold requests in flight.
fn quiesced_dump(frontend: &FrontendHandle) -> (String, AuditReport) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let dump = frontend.trace_dump().expect("the front end traces");
        let report = audit_dump(&dump, &AuditConfig::default()).expect("live dump audits");
        if report.unterminated.is_empty() || Instant::now() > deadline {
            return (dump, report);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Exact conservation for every subscriber of an audited dump.
fn assert_conserved(report: &AuditReport) {
    assert!(
        report.unterminated.is_empty(),
        "requests without a terminal record: {:?}",
        report.unterminated
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
fn absolute_form_request_is_served() {
    // RFC 7230 §5.3.2: a server must accept an absolute-form target, whose
    // authority names the host even without a Host header.
    let deployment = deploy(DeployOptions {
        backends: 1,
        sites: vec![("solo.local".to_string(), 100.0)],
        ..DeployOptions::default()
    })
    .expect("deploys");
    std::thread::sleep(Duration::from_millis(200));
    let mut stream = TcpStream::connect(deployment.frontend.http_addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("sets a read timeout");
    stream
        .write_all(b"GET http://solo.local/x HTTP/1.0\r\n\r\n")
        .expect("sends the head");
    let (status, _) = read_response(&mut stream).expect("reads the response");
    assert_eq!(status, 200);
}

#[test]
fn a_client_dribbling_its_head_gets_408_when_the_head_deadline_passes() {
    // A byte every 100 ms keeps each read well inside the 300 ms timeout,
    // but the timeout bounds the whole head, which never completes here.
    // A timeout per read would answer only after the last of these bytes,
    // 8 s or more after the first.
    const HEAD: &[u8] = b"GET /a/path/long/enough/to/dribble HTTP/1.0\r\n\
                          Host: solo.local\r\nUser-Agent: dribbler/1.0\r\n";
    assert!(HEAD.len() >= 80);
    let frontend = spawn_frontend(FrontendConfig {
        client_read_timeout: Duration::from_millis(300),
        ..FrontendConfig::loopback(Vec::new(), Vec::new())
    })
    .expect("starts");
    let mut stream = TcpStream::connect(frontend.http_addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("sets a read timeout");
    let mut dribble = stream.try_clone().expect("clones the stream");
    let dribbler = std::thread::spawn(move || {
        for byte in HEAD {
            if dribble.write_all(&[*byte]).is_err() {
                break; // the front end hung up
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    let start = Instant::now();
    let (status, _) = read_response(&mut stream).expect("a response within 5 s");
    let waited = start.elapsed();
    assert_eq!(status, 408);
    assert!(waited < Duration::from_secs(5), "408 after {waited:?}");
    dribbler
        .join()
        .expect("the client stops once the front end hangs up");
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

    // The front end's own trace must audit cleanly.
    let (dump, report) = quiesced_dump(&deployment.frontend);
    assert_conserved(&report);
    assert!(
        report.requests >= stats.ok,
        "every served request is traced"
    );
    // Each dispatch observed its queue wait, under the simulator's name.
    let ring = TraceRing::from_dump(&dump).expect("the dump decodes");
    let dispatches = ring
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Dispatch { .. }))
        .count() as u64;
    let registry = deployment.frontend.registry();
    let waits = registry
        .histogram("sub0.queue_wait_ms")
        .expect("queue wait is exported per subscriber");
    assert_eq!(waits.count(), dispatches);
}

#[test]
fn a_back_end_that_shuts_down_is_written_off_and_routed_around() {
    let deployment = deploy(DeployOptions {
        backends: 2,
        sites: vec![("solo.local".to_string(), 100.0)],
        cost: BackendCost {
            base_cpu_us: 500,
            per_kib_cpu_us: 10,
            disk_us: 0,
        },
        accounting_cycle: Duration::from_millis(100),
    })
    .expect("deploys");
    std::thread::sleep(Duration::from_millis(300));
    let gone = &deployment.backends[0];
    gone.shutdown();
    // Its reports stop, so the watchdog writes it off.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !events(&deployment.frontend).contains(&TraceEvent::NodeDown { rpn: 0 }) {
        assert!(
            Instant::now() < deadline,
            "no node_down for rpn 0 within 5 s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let served = gone.served();
    for i in 0..30 {
        let (status, _) = get(deployment.frontend.http_addr, "solo.local", 1_024);
        assert_eq!(status, 200, "request {i}");
    }
    assert_eq!(
        gone.served(),
        served,
        "nothing dispatched to the dead back end"
    );
}

#[test]
fn dispatches_bounce_off_a_refusing_back_end_until_it_is_written_off() {
    // Back end 0's port refuses connections; back end 1 serves. Both are
    // idle, so the scheduler picks back end 0 first.
    let refusing = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("an ephemeral port");
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let serving = listener.local_addr().expect("has an address");
    let sites = vec![SiteConfig {
        host: "solo.local".to_string(),
        reservation: Grps(100.0),
    }];
    let frontend = spawn_frontend(FrontendConfig {
        trace: true,
        ..FrontendConfig::loopback(sites, vec![refusing, serving])
    })
    .expect("starts");
    let _backend = spawn_backend_on(
        listener,
        BackendConfig {
            report_to: Some(frontend.control_addr),
            ..BackendConfig::default()
        },
    )
    .expect("starts");
    for i in 0..20 {
        let (status, _) = get(frontend.http_addr, "solo.local", 1_024);
        assert_eq!(status, 200, "request {i}");
    }
    let (dump, report) = quiesced_dump(&frontend);
    assert_conserved(&report);
    let ring = TraceRing::from_dump(&dump).expect("the dump decodes");
    let bounced = |e: &TraceEvent| matches!(e, TraceEvent::DispatchRequeued { rpn: 0, .. });
    assert!(
        ring.iter().any(|r| bounced(&r.event)),
        "no dispatch_requeue"
    );
    assert!(
        ring.iter()
            .any(|r| r.event == TraceEvent::NodeDown { rpn: 0 }),
        "no node_down"
    );
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
