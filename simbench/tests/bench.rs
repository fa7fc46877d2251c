//! The benchmark's own checks, on shortened horizons. Run them with
//! `cargo test --release --offline --manifest-path simbench/Cargo.toml`.

use gage_des::{Context, Model, SimDuration, SimTime, Simulation};
use gage_json::Json;
use simbench::run::{popped, run, Mode, SPANS};
use simbench::workload::Workload;
use simbench::{measure, Metric};

/// Arrival horizon short enough for a debug build, long enough for the
/// sharded workload's faults (the last heals at 14 s) to play out.
fn short_horizon(w: Workload) -> u64 {
    match w {
        Workload::ShardedChaos => 16,
        Workload::Reserved | Workload::Overload => 4,
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    gage_json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A model that schedules and cancels but never credits logical events,
/// so every processed event is a pop.
struct Ticker;

impl Model for Ticker {
    type Event = u32;

    fn handle(&mut self, ctx: &mut Context<'_, u32>, n: u32) {
        if n > 0 {
            ctx.schedule_in(SimDuration::from_millis(1), n - 1);
            let doomed = ctx.schedule_in(SimDuration::from_millis(5), n);
            ctx.cancel(doomed);
        }
    }
}

#[test]
fn popped_counts_exactly_the_handled_events() {
    let mut sim = Simulation::new(Ticker, 1);
    sim.schedule_at(SimTime::ZERO, 200);
    sim.schedule_at(SimTime::from_secs(10), 0);
    sim.run_until(SimTime::from_millis(100));
    let stats = sim.queue_stats();
    assert!(stats.cancelled > 0 && stats.depth > 0);
    assert_eq!(popped(&stats), sim.events_processed());
}

#[test]
fn popped_plus_credited_equals_events_processed() {
    for w in Workload::ALL {
        let o = run(w, 3, short_horizon(w), Mode::Plain).outcome;
        assert_eq!(
            o.popped() + o.credited(),
            o.events_processed,
            "{}",
            w.name()
        );
        assert!(o.popped() <= o.events_processed, "{}", w.name());
        assert!(o.credited() > 0, "{}: batched handlers credit", w.name());
    }
}

#[test]
fn slicing_and_tracing_leave_the_digest_unchanged() {
    for w in Workload::ALL {
        let plain = run(w, 5, short_horizon(w), Mode::Plain);
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        for mode in [Mode::Sliced, Mode::Traced] {
            let other = run(w, 5, short_horizon(w), mode);
            assert!(other.failures.is_empty(), "{:?}", other.failures);
            assert_eq!(
                other.outcome.digest,
                plain.outcome.digest,
                "{} {mode:?}",
                w.name()
            );
        }
    }
}

#[test]
fn the_seed_fixes_the_inputs() {
    let a = Workload::Overload.generate(7, 2);
    let b = Workload::Overload.generate(7, 2);
    let c = Workload::Overload.generate(8, 2);
    let traces = |i: &simbench::workload::Inputs| {
        i.sites.iter().map(|s| s.trace.clone()).collect::<Vec<_>>()
    };
    assert_eq!(traces(&a), traces(&b));
    assert_ne!(traces(&a), traces(&c));
    let plan = |w: Workload, seed| w.generate(seed, 1).plan.map(|p| p.seed());
    assert_eq!(
        plan(Workload::ShardedChaos, 7),
        plan(Workload::ShardedChaos, 7)
    );
    assert_ne!(
        plan(Workload::ShardedChaos, 7),
        plan(Workload::ShardedChaos, 8)
    );
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    let w = Workload::Reserved;
    for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let m = measure(w, 1, short_horizon(w), 0, traced);
        assert_eq!(m.failed, 0, "{:?}", m.lines);
        assert_eq!(printed(&m.metrics), listed(&doc, key), "{key}");
        for metric in &m.metrics {
            assert!(valid_name(&metric.name), "bad name {}", metric.name);
        }
    }
}

#[test]
fn span_self_times_reconcile_with_wall_time() {
    let w = Workload::ShardedChaos;
    let r = run(w, 2, short_horizon(w), Mode::Traced);
    let spanned = SPANS.iter().map(|s| r.spans.self_s(s)).sum::<f64>();
    assert!(
        (spanned - r.spans.total_s()).abs() < 1e-9,
        "a call outside SPANS was spanned"
    );
    let gap = r.wall_s - spanned;
    assert!(
        gap >= 0.0 && gap <= 0.02 * r.wall_s,
        "spans cover {spanned:.4} s of {:.4} s",
        r.wall_s
    );
}
