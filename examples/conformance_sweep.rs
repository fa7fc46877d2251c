//! Conformance sweep: run the cluster through a set of progressively
//! nastier scenarios and audit every run's trace with the gage-audit
//! pipeline.
//!
//! ```text
//! cargo run --release --example conformance_sweep [-- --json] [--dump-dir DIR]
//! ```
//!
//! Four scenarios, same seed:
//!
//! 1. **baseline** — two subscribers, both offering less than they
//!    reserved: the audit is clean.
//! 2. **overload** — one subscriber floods the front door. The auditor
//!    flags the flood's onset (queueing pushes completions across window
//!    edges while credits adapt) and then the steady state holds: the
//!    well-behaved subscriber keeps its reservation (paper Table 1
//!    isolation).
//! 3. **crash-rescale** — one of two nodes dies mid-run with the default
//!    (fast) watchdog: reservations rescale within the grace period, so
//!    delivered service meets the *rescaled* promise and the audit stays
//!    clean.
//! 4. **crash-stale** — the same crash with a slow watchdog: the scheduler
//!    keeps promising capacity the dead node can no longer deliver, and
//!    the auditor flags violation windows overlapping the crash epoch.
//!
//! With `--json` each scenario prints the machine-readable audit report
//! (the same schema `gage-audit --json` emits); otherwise the human table.
//! With `--dump-dir DIR` every scenario's raw trace is also written to
//! `DIR/<scenario>.jsonl` for offline replay through the `gage-audit`
//! binary.

use gage::cluster::params::{ClientRetryParams, ClusterParams, ServiceCostModel};
use gage::cluster::sim::{ClusterSim, SiteSpec};
use gage::cluster::FaultPlan;
use gage::core::resource::Grps;
use gage::des::{SimDuration, SimTime};
use gage::obs::audit::{audit_dump, AuditConfig};
use gage::workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HORIZON_S: u64 = 20;

fn site(host: &str, reservation: f64, rate: f64, seed: u64) -> SiteSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    SiteSpec {
        host: host.to_string(),
        reservation: Grps(reservation),
        trace: Trace::generate(
            host,
            ArrivalProcess::Constant { rate },
            HORIZON_S as f64,
            &mut gen,
            &mut rng,
        ),
    }
}

struct Scenario {
    name: &'static str,
    expect: &'static str,
    rpn_count: usize,
    /// `None` drops the second subscriber entirely (crash scenarios keep
    /// the offered load just above the surviving node's capacity, so a
    /// second flow would tip the run into congestion collapse and drown
    /// the watchdog comparison being demonstrated).
    spiky_rate: Option<f64>,
    max_retries: u32,
    crash: bool,
    watchdog_grace_cycles: f64,
}

fn run_scenario(s: &Scenario) -> ClusterSim {
    let mut sites = vec![site("gold.example.com", 150.0, 120.0, 3)];
    if let Some(rate) = s.spiky_rate {
        sites.push(site("spiky.example.com", 50.0, rate, 4));
    }
    let params = ClusterParams {
        rpn_count: s.rpn_count,
        service: ServiceCostModel::generic_requests(),
        client_retry: ClientRetryParams {
            timeout: SimDuration::from_secs(1),
            max_retries: s.max_retries,
            backoff: 2.0,
        },
        watchdog_grace_cycles: s.watchdog_grace_cycles,
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 7);
    sim.enable_tracing(1 << 18);
    if s.crash {
        let mut plan = FaultPlan::new(1);
        plan.crash_for(SimTime::from_secs(8), 1, SimDuration::from_secs(5));
        sim.apply_fault_plan(&plan);
    }
    // Drain well past the trace horizon so every request reaches a
    // terminal state before the dump is taken.
    sim.run_until(SimTime::from_secs(HORIZON_S + 6));
    sim
}

fn main() {
    let (json, dump_dir): (bool, Option<String>) =
        gage_cli::run("conformance_sweep [--json] [--dump-dir DIR]", |args| {
            Ok((args.flag("--json"), args.opt("--dump-dir")?))
        });

    let scenarios = [
        Scenario {
            name: "baseline",
            expect: "clean: both subscribers under their reservations",
            rpn_count: 3,
            spiky_rate: Some(40.0),
            max_retries: 1,
            crash: false,
            watchdog_grace_cycles: 4.5,
        },
        Scenario {
            name: "overload",
            expect: "transient onset windows only; steady state holds",
            rpn_count: 3,
            spiky_rate: Some(400.0),
            max_retries: 1,
            crash: false,
            watchdog_grace_cycles: 4.5,
        },
        Scenario {
            name: "crash-rescale",
            expect: "clean: watchdog rescales reservations within grace",
            rpn_count: 2,
            spiky_rate: None,
            max_retries: 0,
            crash: true,
            watchdog_grace_cycles: 4.5,
        },
        Scenario {
            name: "crash-stale",
            expect: "violations overlapping the crash epoch (8s..13s)",
            rpn_count: 2,
            spiky_rate: None,
            max_retries: 0,
            crash: true,
            watchdog_grace_cycles: 60.0,
        },
    ];

    let mut summary = Vec::new();
    for s in &scenarios {
        let sim = run_scenario(s);
        let dump = sim.trace_dump().expect("tracing enabled");
        if let Some(dir) = &dump_dir {
            let path = format!("{dir}/{}.jsonl", s.name);
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &dump))
            {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
        let report = match audit_dump(&dump, &AuditConfig::default()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("audit of scenario {} failed: {e}", s.name);
                std::process::exit(1);
            }
        };
        if json {
            println!("{}", report.to_json());
        } else {
            println!("=== {} ===", s.name);
            print!("{}", report.to_table());
            println!();
        }
        summary.push((s.name, s.expect, report.requests, report.violation_count()));
    }

    if !json {
        println!("sweep summary:");
        for (name, expect, requests, violations) in &summary {
            println!(
                "  {name:<14} {requests:>6} requests  {violations:>2} violation window(s)  [{expect}]"
            );
        }
        println!(
            "\nthe auditor flags exactly where delivered service fell below the (rescaled)\n\
             promise: crash-stale breaks the guarantee because the slow watchdog keeps\n\
             promising capacity a dead node can no longer deliver, while crash-rescale\n\
             stays clean because the default watchdog shrinks the promise in time."
        );
    }
}
