//! Multi-RDN chaos suite: shard failover, inter-RDN partitions and
//! report loss must not break conservation, determinism or accounting
//! convergence.
//!
//! The scripted scenario: a 4-RDN / 8-RPN cluster with two subscribers
//! pinned to each shard, one RDN crash mid-run, an inter-RDN partition
//! isolating another peer's gossip, and a 25% report-loss window over
//! the same stretch. After everything heals:
//!
//! 1. **Conservation** — `offered == served + dropped + failed`, exactly,
//!    per subscriber, straight through takeover and failback.
//! 2. **Ownership** — every shard is back home and every front is back
//!    to full, unscaled reservations.
//! 3. **Convergence** — all four accounting tables hold identical rows:
//!    the CRDT merge erased the partition, the lost reports and the
//!    crashed front's epoch restart.
//! 4. **Replayability** — two same-seed runs dump byte-identical traces.

use gage_cluster::params::{ClientRetryParams, ClusterParams, ServiceCostModel};
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_cluster::FaultPlan;
use gage_core::resource::Grps;
use gage_des::{SimDuration, SimTime};
use gage_obs::audit::{audit_dump, AuditConfig};
use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HORIZON: f64 = 12.0;
const RATE: f64 = 40.0;

fn site(host: &str, seed: u64) -> SiteSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    SiteSpec {
        host: host.to_string(),
        reservation: Grps(60.0),
        trace: Trace::generate(
            host,
            ArrivalProcess::Constant { rate: RATE },
            HORIZON,
            &mut gen,
            &mut rng,
        ),
    }
}

/// Byte length and FNV-1a-64 digest of the chaos scenario's dump: the
/// trace contract pinned exactly, so a refactor cannot drift within it. A
/// change that alters the trace on purpose updates both constants in its
/// own diff.
const CHAOS_DUMP_LEN: usize = 4_646_192;
const CHAOS_DUMP_FNV1A64: u64 = 0x32cd_1b55_9b53_4e1d;

/// The same pin for that dump without its `queue_stats` records, the only
/// ones that describe the event queue rather than the simulated cluster.
/// A change to the queue alone updates the pair above and leaves this one.
const CHAOS_QUEUE_FREE_DUMP_LEN: usize = 4_642_883;
const CHAOS_QUEUE_FREE_DUMP_FNV1A64: u64 = 0xbfc3_2a01_9330_2617;

/// The same pin for the chaos dump's audit report, as `to_json()` and as
/// `to_table()`.
const CHAOS_AUDIT_JSON_LEN: usize = 12_439;
const CHAOS_AUDIT_JSON_FNV1A64: u64 = 0xf2ce_3751_7e6f_350e;
const CHAOS_AUDIT_TABLE_LEN: usize = 1_061;
const CHAOS_AUDIT_TABLE_FNV1A64: u64 = 0x74f3_4aa9_10cc_9b55;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `dump` with every `queue_stats` line removed.
fn without_queue_stats(dump: &str) -> String {
    dump.split_inclusive('\n')
        .filter(|line| !line.contains("\"kind\":\"queue_stats\""))
        .collect()
}

/// The shared chaos scenario, run once per test.
fn run_chaos() -> (ClusterSim, String) {
    let sites: Vec<SiteSpec> = (0..8)
        .map(|i| site(&format!("s{i}.example.com"), 100 + i as u64))
        .collect();
    let params = ClusterParams {
        rpn_count: 8,
        rdn_count: 4,
        // Pin two subscribers per shard so the scenario is independent of
        // the hash layout: sub i lives on shard i % 4.
        shard_overrides: (0..8).map(|i| (i, (i % 4) as u16)).collect(),
        service: ServiceCostModel::generic_requests(),
        client_retry: ClientRetryParams {
            timeout: SimDuration::from_secs(1),
            max_retries: 1,
            backoff: 2.0,
        },
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 17);
    sim.enable_tracing(1 << 18);
    let mut plan = FaultPlan::new(9);
    // RDN 1 fail-stops at t=4 and reboots at t=7; its shard is adopted
    // once the failover grace (4.5 accounting cycles) elapses and
    // reclaimed at the first tick after reboot.
    plan.rdn_crash_for(SimTime::from_secs(4), 1, SimDuration::from_secs(3));
    // RDN 2's gossip links are cut 3s..6s — its accounting rows keep
    // flowing again (and converge transitively) after the heal.
    plan.rdn_partition(
        SimTime::from_secs(3),
        SimTime::from_secs(6),
        Some(2),
        1.0,
        SimDuration::ZERO,
    );
    // A quarter of all usage reports vanish over the same stretch.
    plan.report_loss(SimTime::from_secs(2), SimTime::from_secs(8), 0.25);
    sim.apply_fault_plan(&plan);
    // Horizon 12 plus drain: last retries resolve by ~15, the final
    // usage reports and gossip rounds land well before 18.
    sim.run_until(SimTime::from_secs(18));
    let dump = sim.trace_dump().expect("tracing enabled");
    (sim, dump)
}

#[test]
fn partition_heal_chaos_conserves_and_converges() {
    let (sim, dump) = run_chaos();

    // 1. Exact conservation, counts not rates.
    for (i, m) in sim.world().metrics.iter().enumerate() {
        let offered = m.offered.total() as u64;
        let served = m.served.total() as u64;
        let dropped = m.dropped.total() as u64;
        let failed = m.failed.total() as u64;
        assert_eq!(
            offered,
            served + dropped + failed,
            "sub{i}: offered {offered} != served {served} + dropped {dropped} + failed {failed}"
        );
        assert!(served > 0, "sub{i} must serve through the chaos");
    }

    // 2. Everything healed: every front live, every shard back home,
    //    every front back at full (unscaled) reservations.
    let w = sim.world();
    for f in 0..4 {
        assert!(w.rdn_alive(f), "rdn {f} must be back up");
    }
    assert_eq!(w.shard_owners(), &[0, 1, 2, 3], "shards back home");
    for (f, scale) in w.degrade_scales().iter().enumerate() {
        assert!(
            (scale - 1.0).abs() < 1e-9,
            "front {f} still degraded: {scale}"
        );
    }

    // 3. Accounting convergence: after the final gossip rounds, all four
    //    tables are identical — loss, duplication, the partition and the
    //    crashed front's epoch restart all merged away.
    let reference = w.acct_rows(0);
    assert!(
        !reference.is_empty(),
        "accounting rows must exist after a served run"
    );
    for f in 1..4 {
        assert_eq!(
            w.acct_rows(f),
            reference,
            "front {f}'s accounting table diverged from front 0's"
        );
    }

    // 4. The causal record is complete: the crash pair, both takeover
    //    directions, gossip traffic and merges are all in the dump.
    for needle in [
        "rdn_crash",
        "rdn_recover",
        "shard_takeover",
        "report_gossip",
        "acct_merge",
    ] {
        assert!(dump.contains(needle), "trace must contain {needle}");
    }
    let takeovers = dump.matches("shard_takeover").count();
    assert!(
        takeovers >= 2,
        "expected adoption and failback, saw {takeovers} takeover(s)"
    );
}

/// The whole chaos scenario — takeover, partition, loss and heal — must
/// replay byte-identically from the same seed.
#[test]
fn chaos_dump_replays_byte_identically() {
    let (_, first) = run_chaos();
    let (_, second) = run_chaos();
    assert!(first == second, "same-seed chaos runs diverged");
    assert_eq!(
        (first.len(), fnv1a64(first.as_bytes())),
        (CHAOS_DUMP_LEN, CHAOS_DUMP_FNV1A64),
        "the chaos dump changed (length, FNV-1a-64); if the change is \
         intended, update CHAOS_DUMP_LEN and CHAOS_DUMP_FNV1A64 in the same diff"
    );
    let queue_free = without_queue_stats(&first);
    assert_eq!(
        (queue_free.len(), fnv1a64(queue_free.as_bytes())),
        (CHAOS_QUEUE_FREE_DUMP_LEN, CHAOS_QUEUE_FREE_DUMP_FNV1A64),
        "the chaos dump changed outside its queue_stats records (length, \
         FNV-1a-64); if the change is intended, update \
         CHAOS_QUEUE_FREE_DUMP_LEN and CHAOS_QUEUE_FREE_DUMP_FNV1A64 in the \
         same diff"
    );
    let report = audit_dump(&first, &AuditConfig::default()).expect("chaos dump audits");
    let (json, table) = (report.to_json().to_string(), report.to_table());
    assert_eq!(
        (
            json.len(),
            fnv1a64(json.as_bytes()),
            table.len(),
            fnv1a64(table.as_bytes())
        ),
        (
            CHAOS_AUDIT_JSON_LEN,
            CHAOS_AUDIT_JSON_FNV1A64,
            CHAOS_AUDIT_TABLE_LEN,
            CHAOS_AUDIT_TABLE_FNV1A64
        ),
        "the chaos dump's audit report changed (JSON length and FNV-1a-64, \
         table length and FNV-1a-64); if the change is intended, update the \
         CHAOS_AUDIT_* constants in the same diff"
    );
}
