//! Partition chaos: a 4-RDN / 32-RPN cluster rides out an RDN crash, an
//! inter-RDN gossip partition and a 25% report-loss window — and must come
//! out exactly conserved, converged and (post-heal) conformant.
//!
//! ```text
//! cargo run --release --example partition_chaos [-- --trace trace.jsonl]
//! ```
//!
//! The script: RDN 1 fail-stops at t=6 s and reboots at t=10 s (its shard
//! fails over to the lowest-numbered survivor after the watchdog grace,
//! then fails back); RDN 2's gossip links are cut from t=4 s to t=9 s; a
//! quarter of all RPN usage reports vanish between t=3 s and t=10 s. All
//! faults have healed by t=10 s, so CI gates the audit with `--after 12`:
//!
//! ```text
//! gage-audit trace.jsonl --expect-clean --after 12
//! ```
//!
//! The binary itself checks the structural invariants and exits non-zero
//! if any fails: exact per-subscriber conservation (`offered == served +
//! dropped + failed`), every shard back home on its recovered owner, and
//! all four accounting tables byte-equal after the final gossip rounds.

use gage::cluster::params::{ClientRetryParams, ClusterParams, ServiceCostModel};
use gage::cluster::sim::{ClusterSim, SiteSpec};
use gage::cluster::FaultPlan;
use gage::core::resource::Grps;
use gage::des::{SimDuration, SimTime};
use gage::workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HORIZON: f64 = 16.0;
const RATE: f64 = 80.0;
const RDNS: usize = 4;

fn main() {
    let trace_path: Option<String> =
        gage_cli::run("partition_chaos [--trace PATH]", |args| args.opt("--trace"));

    // Eight subscribers, two homed on each of the four shards (pinned via
    // shard_overrides so the scenario doesn't depend on the hash layout).
    // Each offers 80 req/s against a 100-GRPS reservation: the cluster is
    // comfortably provisioned, so any post-heal violation the audit finds
    // is a scheduler bug, not an overload artifact.
    let mut rng = StdRng::seed_from_u64(42);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    let sites: Vec<SiteSpec> = (0..8)
        .map(|i| {
            let host = format!("s{i}.example.com");
            SiteSpec {
                reservation: Grps(100.0),
                trace: Trace::generate(
                    &host,
                    ArrivalProcess::Constant { rate: RATE },
                    HORIZON,
                    &mut gen,
                    &mut rng,
                ),
                host,
            }
        })
        .collect();

    let params = ClusterParams {
        rpn_count: 32,
        rdn_count: RDNS,
        shard_overrides: (0..8u32).map(|i| (i, (i as usize % RDNS) as u16)).collect(),
        service: ServiceCostModel::generic_requests(),
        client_retry: ClientRetryParams {
            timeout: SimDuration::from_secs(1),
            max_retries: 1,
            backoff: 2.0,
        },
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 17);
    sim.enable_tracing(1 << 20);

    let mut plan = FaultPlan::new(9);
    plan.rdn_crash_for(SimTime::from_secs(6), 1, SimDuration::from_secs(4));
    plan.rdn_partition(
        SimTime::from_secs(4),
        SimTime::from_secs(9),
        Some(2),
        1.0,
        SimDuration::ZERO,
    );
    plan.report_loss(SimTime::from_secs(3), SimTime::from_secs(10), 0.25);
    sim.apply_fault_plan(&plan);

    // Horizon 16 plus drain: the last client retries resolve by ~19, the
    // final usage reports and gossip rounds land well before 22.
    sim.run_until(SimTime::from_secs(22));

    let w = sim.world();
    let mut failures = 0usize;

    println!("partition_chaos: 4 RDNs, 32 RPNs, 8 subscribers at {RATE:.0} req/s each");
    println!("faults: RDN 1 down 6s-10s, RDN 2 gossip cut 4s-9s, 25% report loss 3s-10s\n");
    println!("  sub  offered   served  dropped  failed  conserved");
    for (i, m) in w.metrics.iter().enumerate() {
        let offered = m.offered.total() as u64;
        let served = m.served.total() as u64;
        let dropped = m.dropped.total() as u64;
        let failed = m.failed.total() as u64;
        let ok = offered == served + dropped + failed && served > 0;
        if !ok {
            failures += 1;
        }
        println!(
            "  s{i}   {offered:>7} {served:>8} {dropped:>8} {failed:>7}  {}",
            if ok { "yes" } else { "NO" }
        );
    }

    let owners = w.shard_owners();
    let home: Vec<u16> = (0..RDNS as u16).collect();
    let owners_ok = owners == home.as_slice() && (0..RDNS).all(|f| w.rdn_alive(f));
    if !owners_ok {
        failures += 1;
    }
    println!("\nshard owners after heal: {owners:?} (want {home:?})");

    let reference = w.acct_rows(0);
    let converged = !reference.is_empty() && (1..RDNS).all(|f| w.acct_rows(f) == reference);
    if !converged {
        failures += 1;
    }
    println!(
        "accounting tables: {} rows per front, {}",
        reference.len(),
        if converged {
            "all four byte-equal"
        } else {
            "DIVERGED"
        }
    );

    if let Some(path) = trace_path {
        let dump = sim.trace_dump().expect("tracing was enabled above");
        match std::fs::write(&path, dump) {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if failures > 0 {
        eprintln!("\n{failures} invariant(s) violated");
        std::process::exit(1);
    }
    println!("\nall structural invariants hold");
}
