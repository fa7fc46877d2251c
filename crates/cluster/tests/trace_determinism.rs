//! Trace determinism regression: two `ClusterSim` runs with the same seed
//! must produce **byte-identical** trace dumps (the gage-obs contract —
//! records are stamped with virtual time only, the ring is shared in
//! deterministic emission order, and serialization is insertion-ordered).
//! Also checks the dump decodes back into the ring that wrote it and covers
//! every event family the stack emits.

use gage_cluster::params::{ClusterParams, ServiceCostModel};
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_core::resource::Grps;
use gage_des::SimTime;
use gage_obs::TraceRing;
use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sites(horizon: f64, seed: u64) -> Vec<SiteSpec> {
    // Poisson arrivals (RNG exercised) plus an overloaded site so drops and
    // the spare pass appear in the trace.
    [("a", 250.0, 220.0, 11), ("b", 50.0, 260.0, 22)]
        .into_iter()
        .map(|(name, reservation, rate, salt)| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000) + salt);
            let mut gen = SyntheticGenerator::new(2_000, 1);
            // Trace host must match the registered host, or every request is
            // dropped at classification and the trace never sees a dispatch.
            let host = format!("{name}.example.com");
            let trace = Trace::generate(
                &host,
                ArrivalProcess::Poisson { rate },
                horizon,
                &mut gen,
                &mut rng,
            );
            SiteSpec {
                host,
                reservation: Grps(reservation),
                trace,
            }
        })
        .collect()
}

/// Byte length and FNV-1a-64 digest of the seed-42, 6 s dump: the trace
/// contract pinned exactly, so a refactor cannot drift within it. A change
/// that alters the trace on purpose updates both constants in its own diff.
const DUMP_LEN: usize = 1_587_308;
const DUMP_FNV1A64: u64 = 0xf693_92fb_fbdc_4060;

/// The same pin for that dump without its `queue_stats` records, the only
/// ones that describe the event queue rather than the simulated cluster.
/// A change to the queue alone updates the pair above and leaves this one.
const QUEUE_FREE_DUMP_LEN: usize = 1_586_188;
const QUEUE_FREE_DUMP_FNV1A64: u64 = 0x9ed4_c9c3_52d8_d55d;

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

fn traced_run(seed: u64, horizon: u64) -> String {
    traced_run_of(sites(horizon as f64, seed), seed, horizon)
}

fn traced_run_of(sites: Vec<SiteSpec>, seed: u64, horizon: u64) -> String {
    let params = ClusterParams {
        rpn_count: 3,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, seed);
    sim.enable_tracing(1 << 17);
    sim.run_until(SimTime::from_secs(horizon));
    sim.trace_dump().expect("tracing enabled")
}

#[test]
fn same_seed_trace_dumps_are_byte_identical() {
    let first = traced_run(42, 6);
    let second = traced_run(42, 6);
    assert!(first.len() > 10_000, "trace covers real activity");
    assert!(
        first == second,
        "two traced runs with seed 42 diverged; tracing is nondeterministic"
    );
    assert_eq!(
        (first.len(), fnv1a64(first.as_bytes())),
        (DUMP_LEN, DUMP_FNV1A64),
        "the seed-42 dump changed (length, FNV-1a-64); if the change is \
         intended, update DUMP_LEN and DUMP_FNV1A64 in the same diff"
    );
    let queue_free = without_queue_stats(&first);
    assert_eq!(
        (queue_free.len(), fnv1a64(queue_free.as_bytes())),
        (QUEUE_FREE_DUMP_LEN, QUEUE_FREE_DUMP_FNV1A64),
        "the seed-42 dump changed outside its queue_stats records (length, \
         FNV-1a-64); if the change is intended, update QUEUE_FREE_DUMP_LEN \
         and QUEUE_FREE_DUMP_FNV1A64 in the same diff"
    );
}

/// Clients replay a site trace in `at_us` order whatever order it comes
/// in: handed over reversed, it gives the dump of its own stable sort by
/// `at_us`. Instants are rounded down to 10 ms so that many entries share
/// one and the sort's stability decides their order.
#[test]
fn out_of_order_trace_replays_as_its_stable_sort() {
    let mut reversed = sites(2.0, 7);
    for site in &mut reversed {
        for e in &mut site.trace.entries {
            e.at_us -= e.at_us % 10_000;
        }
        site.trace.entries.reverse();
    }
    let mut sorted = reversed.clone();
    for site in &mut sorted {
        site.trace.entries.sort_by_key(|e| e.at_us);
    }
    let order = |sites: &[SiteSpec]| -> Vec<(u64, String)> {
        let trace = &sites[0].trace;
        trace
            .entries
            .iter()
            .map(|e| (e.at_us, trace.path(e).to_string()))
            .collect()
    };
    assert_ne!(
        order(&reversed),
        order(&sorted),
        "the input is out of order"
    );
    assert!(
        traced_run_of(reversed, 7, 2) == traced_run_of(sorted, 7, 2),
        "a reversed trace replayed differently from its stable sort"
    );
}

#[test]
fn different_seed_traces_diverge() {
    // Guards the assertion above against vacuity: if the trace stopped
    // covering the run, identical dumps would prove nothing.
    let a = traced_run(42, 6);
    let b = traced_run(43, 6);
    assert!(a != b, "seeds 42 and 43 produced identical trace dumps");
}

#[test]
fn trace_dump_is_valid_and_covers_all_event_families() {
    let dump = traced_run(42, 6);
    let ring = TraceRing::from_dump(&dump).expect("dump decodes");
    assert_eq!(ring.dump(), dump, "decoding inverts the dump byte for byte");
    assert_eq!(ring.overwritten(), 0);

    let count = |kind: &str| ring.iter().filter(|r| r.event.kind() == kind).count();
    for kind in [
        "sched_cycle",
        "dispatch",
        "enqueue",
        "drop",
        "splice_setup",
        "splice_teardown",
        "acct_report",
        "node_load",
    ] {
        assert!(count(kind) > 0, "no {kind} records in a 6 s overloaded run");
    }
    // Timestamps are monotone non-decreasing (virtual-time stamped in
    // emission order); `from_dump` has checked that seq numbers are dense.
    let mut last_t = SimTime::ZERO;
    for (i, r) in ring.iter().enumerate() {
        assert!(r.at >= last_t, "record {i} went back in time");
        last_t = r.at;
    }
}

#[test]
fn untraced_run_matches_traced_run_behaviour() {
    // Tracing must observe, not perturb: the served/offered metrics of a
    // traced run must equal those of an untraced run with the same seed.
    let params = ClusterParams {
        rpn_count: 3,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut plain = ClusterSim::new(params.clone(), sites(6.0, 42), 42);
    plain.run_until(SimTime::from_secs(6));
    let mut traced = ClusterSim::new(params, sites(6.0, 42), 42);
    traced.enable_tracing(1 << 16);
    traced.run_until(SimTime::from_secs(6));
    let window = (SimTime::from_secs(1), SimTime::from_secs(5));
    assert_eq!(
        plain.report(window.0, window.1).to_table(),
        traced.report(window.0, window.1).to_table(),
        "tracing changed simulation behaviour"
    );
}
