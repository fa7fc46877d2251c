//! End-to-end audit suite: the span reconstructor and the conformance
//! auditor against real `ClusterSim` trace dumps.
//!
//! Four invariants are enforced:
//!
//! 1. **Terminal-state coverage** — on a seeded run (with and without a
//!    [`FaultPlan`]) every issued request reconstructs into exactly one
//!    terminal state once all in-flight work has drained.
//! 2. **Exact cross-check** — per-subscriber span totals equal the sim's
//!    own [`SubscriberMetrics`] counters field-for-field.
//! 3. **Replayability** — the audit JSON report of two same-seed runs is
//!    byte-identical, pinned by digest, and auditing the ring in process
//!    gives the same report as auditing its text dump.
//! 4. **Violation detection** — a no-fault baseline reports zero
//!    conformance violations, while a mid-run crash produces a violation
//!    window overlapping the crash epoch.

use gage_cluster::params::{ClientRetryParams, ClusterParams, ServiceCostModel};
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_cluster::FaultPlan;
use gage_core::resource::Grps;
use gage_des::{SimDuration, SimTime};
use gage_obs::audit::{audit, audit_dump, AuditConfig, AuditReport};
use gage_obs::spans::reconstruct;
use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn site(host: &str, reservation: f64, rate: f64, horizon: f64, seed: u64) -> SiteSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    SiteSpec {
        host: host.to_string(),
        reservation: Grps(reservation),
        trace: Trace::generate(
            host,
            ArrivalProcess::Constant { rate },
            horizon,
            &mut gen,
            &mut rng,
        ),
    }
}

fn fast_retry(max_retries: u32) -> ClientRetryParams {
    ClientRetryParams {
        timeout: SimDuration::from_secs(1),
        max_retries,
        backoff: 2.0,
    }
}

/// A no-fault run: one comfortably-provisioned site, trace horizon
/// `horizon`, drained for 6 extra seconds so nothing is in flight at dump
/// time.
fn baseline_run(seed: u64, horizon: u64) -> ClusterSim {
    let sites = vec![
        site("a.example.com", 150.0, 100.0, horizon as f64, 3),
        site("b.example.com", 80.0, 60.0, horizon as f64, 4),
    ];
    let params = ClusterParams {
        rpn_count: 3,
        service: ServiceCostModel::generic_requests(),
        client_retry: fast_retry(1),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, seed);
    sim.enable_tracing(1 << 18);
    sim.run_until(SimTime::from_secs(horizon + 6));
    sim
}

/// A crash run mirroring the chaos suite: one of two nodes dies at t=10
/// for 4 s, no retries, drained well past the trace horizon. The slow
/// watchdog (3 s of grace) keeps the scheduler promising the full 150
/// GRPS while only one 100-GRPS node is serving — the under-delivery the
/// auditor must flag.
fn crash_run(seed: u64) -> ClusterSim {
    let horizon = 30.0;
    let sites = vec![site("s.example.com", 150.0, 120.0, horizon, 3)];
    let params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel::generic_requests(),
        client_retry: fast_retry(0),
        watchdog_grace_cycles: 30.0,
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, seed);
    sim.enable_tracing(1 << 18);
    let mut plan = FaultPlan::new(1);
    plan.crash_for(SimTime::from_secs(10), 1, SimDuration::from_secs(4));
    sim.apply_fault_plan(&plan);
    sim.run_until(SimTime::from_secs(36));
    sim
}

/// Every issued request lands in exactly one terminal state, and the span
/// totals equal the sim's own metrics counters field-for-field.
fn assert_spans_match_metrics(sim: &ClusterSim) {
    let ring = sim.trace_ring().expect("tracing enabled");
    let report = reconstruct(ring).expect("ring reconstructs");
    assert_eq!(
        report.unterminated(),
        Vec::<u64>::new(),
        "every request must reach exactly one terminal state"
    );
    let offered_total: u64 = sim
        .world()
        .metrics
        .iter()
        .map(|m| m.offered.total() as u64)
        .sum();
    assert_eq!(report.spans.len() as u64, offered_total, "span per request");
    for (i, m) in sim.world().metrics.iter().enumerate() {
        let totals = report.totals_for(i as u32);
        assert!(totals.conserved(), "sub{i} spans conserve");
        assert_eq!(totals.offered, m.offered.total() as u64, "sub{i} offered");
        assert_eq!(totals.served, m.served.total() as u64, "sub{i} served");
        assert_eq!(totals.dropped, m.dropped.total() as u64, "sub{i} dropped");
        assert_eq!(totals.failed, m.failed.total() as u64, "sub{i} failed");
    }
}

#[test]
fn baseline_run_reconstructs_every_request() {
    let sim = baseline_run(42, 12);
    assert_spans_match_metrics(&sim);
}

#[test]
fn crash_run_reconstructs_every_request() {
    let sim = crash_run(7);
    assert_spans_match_metrics(&sim);
}

/// Byte length and FNV-1a-64 digest of `crash_run(7)`'s audit report, as
/// `to_json()` and as `to_table()`: the report contract pinned exactly, so
/// a refactor of the decoder or the fold cannot drift within it. A change
/// that alters the report on purpose updates these constants in its own
/// diff.
const AUDIT_JSON_LEN: usize = 3_609;
const AUDIT_JSON_FNV1A64: u64 = 0x2696_280f_b9f1_8624;
const AUDIT_TABLE_LEN: usize = 351;
const AUDIT_TABLE_FNV1A64: u64 = 0x4cba_2e30_2bcb_778a;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn audit_json_is_byte_identical_across_same_seed_runs() {
    let audit = |_: ()| -> (String, String) {
        let sim = crash_run(7);
        let dump = sim.trace_dump().expect("tracing enabled");
        let report = audit_dump(&dump, &AuditConfig::default()).expect("audit succeeds");
        (report.to_json().to_string(), report.to_table())
    };
    let (a, table) = audit(());
    let (b, _) = audit(());
    assert!(a.len() > 1_000, "report covers real activity");
    assert_eq!(a, b, "same-seed audit reports diverged");
    assert_eq!(
        (
            a.len(),
            fnv1a64(a.as_bytes()),
            table.len(),
            fnv1a64(table.as_bytes())
        ),
        (
            AUDIT_JSON_LEN,
            AUDIT_JSON_FNV1A64,
            AUDIT_TABLE_LEN,
            AUDIT_TABLE_FNV1A64
        ),
        "crash_run(7)'s audit report changed (JSON length and FNV-1a-64, \
         table length and FNV-1a-64); if the change is intended, update the \
         AUDIT_* constants in the same diff"
    );
}

#[test]
fn no_fault_baseline_reports_zero_violations() {
    let sim = baseline_run(42, 12);
    let dump = sim.trace_dump().expect("tracing enabled");
    let report = audit_dump(&dump, &AuditConfig::default()).expect("audit succeeds");
    assert!(report.unterminated.is_empty());
    assert_eq!(
        report.violation_count(),
        0,
        "no-fault baseline must be conformant: {}",
        report.to_table()
    );
    // The report is substantive: every subscriber has windows, totals and
    // a populated latency histogram.
    for s in &report.subscribers {
        assert!(!s.windows.is_empty(), "sub{} has windows", s.sub);
        assert!(s.totals.offered > 0, "sub{} saw traffic", s.sub);
        assert_eq!(
            s.latency_ms.count(),
            s.totals.served,
            "sub{} latency",
            s.sub
        );
        assert!(s.reservation_grps.is_some(), "sub{} reservation", s.sub);
    }
}

#[test]
fn crash_run_reports_violation_overlapping_crash_epoch() {
    let sim = crash_run(7);
    let ring = sim.trace_ring().expect("tracing enabled");
    let report: AuditReport = audit(ring, &AuditConfig::default()).expect("audit succeeds");
    // Auditing the ring in process and auditing its text dump agree.
    let dump = sim.trace_dump().expect("tracing enabled");
    let from_text = audit_dump(&dump, &AuditConfig::default()).expect("dump audits");
    assert_eq!(
        from_text, report,
        "the in-process audit differs from the dump's"
    );
    assert!(
        report.violation_count() > 0,
        "losing half the cluster must violate the reservation: {}",
        report.to_table()
    );
    // The crash epoch is [10 s, 14 s) plus the watchdog lag; at least one
    // violation window must overlap [10 s, 20 s).
    let overlaps = report.subscribers.iter().any(|s| {
        s.violations
            .iter()
            .any(|v| v.start_ns < 20_000_000_000 && v.end_ns > 10_000_000_000)
    });
    assert!(
        overlaps,
        "no violation window overlaps the crash epoch: {}",
        report.to_table()
    );
}
