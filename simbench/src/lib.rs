//! End-to-end and per-layer benchmark of the deterministic Gage cluster
//! simulator.
//!
//! One single-threaded process drives the public API — `Trace::generate`,
//! `ClusterSim::new`, `apply_fault_plan`, `run_until`, `report`,
//! `registry`, `trace_dump` and `gage_obs::audit::audit_dump` — with
//! `lanes = 1` and no sockets. [`measure`] runs one workload for a wall
//! budget and returns either the end-to-end metrics (tracing off) or the
//! per-layer metrics (from traced runs), together with the outcome of the
//! output checks. `README.md` explains the workloads and metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod run;
pub mod stats;
pub mod workload;

use std::time::{Duration, Instant};

use run::{Mode, Run, SPANS};
use stats::{median, quantile};
use workload::Workload;

/// Fewest measured runs per invocation, whatever the wall budget.
const MIN_PLAIN_RUNS: usize = 5;
/// Fewest (sliced, traced) pairs per traced invocation.
const MIN_TRACED_PAIRS: usize = 2;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What one benchmark invocation produced.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Human-readable summary lines.
    pub lines: Vec<String>,
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Simulation runs made.
    pub attempted: u64,
    /// Runs that failed at least one output check.
    pub failed: u64,
}

/// Runs `workload` from `seed` over `horizon_secs` of arrivals, repeating
/// until `seconds` of wall time have passed. With `traced` false it
/// reports the end-to-end metrics of plain runs; with `traced` true the
/// per-layer metrics of traced runs. Either way one plain, one sliced and
/// one traced run take part, and every run's digest must match.
pub fn measure(
    workload: Workload,
    seed: u64,
    horizon_secs: u64,
    seconds: u64,
    traced: bool,
) -> Measurement {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let once = |mode| run::run(workload, seed, horizon_secs, mode);
    let mut plain = vec![once(Mode::Plain)];
    // The high-water mark of one set-up and run. Later runs reuse the
    // freed memory, but less predictably, and the traced runs' ring and
    // dump would dwarf it.
    let peak_rss = peak_rss_mib();
    let mut sliced = Vec::new();
    let mut traced_runs = Vec::new();
    if traced {
        while traced_runs.len() < MIN_TRACED_PAIRS || started.elapsed() < budget {
            sliced.push(once(Mode::Sliced));
            traced_runs.push(once(Mode::Traced));
        }
    } else {
        while plain.len() < MIN_PLAIN_RUNS || started.elapsed() < budget {
            plain.push(once(Mode::Plain));
        }
        sliced.push(once(Mode::Sliced));
        traced_runs.push(once(Mode::Traced));
    }

    let reference = &plain[0];
    let runs: Vec<&Run> = plain.iter().chain(&sliced).chain(&traced_runs).collect();
    let mut lines = vec![format!(
        "simbench {}: seed {seed}, {horizon_secs} s of arrivals + {} s drain; \
         {} plain, {} sliced, {} traced runs",
        workload.name(),
        workload.drain_secs(),
        plain.len(),
        sliced.len(),
        traced_runs.len()
    )];
    // Failed checks per run; a metric that could not be measured counts
    // against the reference run.
    let mut failures: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let mut f = r.failures.clone();
            f.extend(shape_failures(workload, r));
            if r.outcome.digest != reference.outcome.digest {
                f.push(format!(
                    "{:?} run digest {:016x} != plain run's {:016x}",
                    r.mode, r.outcome.digest, reference.outcome.digest
                ));
            }
            f
        })
        .collect();
    let o = &reference.outcome;
    lines.push(format!(
        "offered {} served {} dropped {} failed {}; {} latency samples; digest {:016x}",
        o.offered,
        o.served,
        o.dropped,
        o.failed,
        o.latency_ms.count(),
        o.digest
    ));

    let metrics = if traced {
        lines.extend(time_table(&traced_runs[0]));
        per_layer(&sliced, &traced_runs)
    } else {
        let mut metrics = end_to_end(workload, horizon_secs, &plain);
        let rss = peak_rss.unwrap_or_else(|| {
            failures[0].push("cannot read VmHWM from /proc/self/status".to_string());
            0.0
        });
        metrics.insert(3, metric("peak_rss_mib", "MiB", rss));
        metrics
    };
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        failures[0].push(format!("{} is not finite", m.name));
    }
    lines.extend(
        failures
            .iter()
            .flatten()
            .map(|f| format!("CHECK FAILED: {f}")),
    );
    Measurement {
        lines,
        metrics,
        attempted: runs.len() as u64,
        failed: failures.iter().filter(|f| !f.is_empty()).count() as u64,
    }
}

/// Checks that the workload exercises the layers it claims to.
fn shape_failures(workload: Workload, r: &Run) -> Vec<String> {
    let o = &r.outcome;
    let refused = o.counter_sum("sub", ".dropped");
    let mut failures = Vec::new();
    match workload {
        Workload::Reserved if refused != 0 || o.served != o.offered => failures.push(format!(
            "reserved: {refused} refused, {} of {} served",
            o.served, o.offered
        )),
        Workload::Overload if refused * 3 < o.offered => {
            failures.push(format!("overload: only {refused} of {} refused", o.offered))
        }
        _ => {}
    }
    if let Some(t) = &r.trace {
        let (takeover, merge) = (t.kind("shard_takeover"), t.kind("acct_merge"));
        let sharded = workload.rdn_count() > 1;
        if sharded && (takeover == 0 || merge == 0) || !sharded && (takeover, merge) != (0, 0) {
            failures.push(format!(
                "{}: {takeover} shard takeovers, {merge} accounting merges",
                workload.name()
            ));
        }
    }
    failures
}

/// The end-to-end metrics of the plain runs (all but `peak_rss_mib`).
fn end_to_end(workload: Workload, horizon_secs: u64, plain: &[Run]) -> Vec<Metric> {
    let o = &plain[0].outcome;
    let resolved = (o.served + o.dropped + o.failed) as f64;
    let end_secs = (horizon_secs + workload.drain_secs()) as f64;
    let run_until_s = fastest(plain, Run::run_until_s);
    let offered = o.offered as f64;
    vec![
        metric("sim_reqs_per_wall_s", "req/s", resolved / run_until_s),
        metric("sim_speedup", "sim_s/s", end_secs / run_until_s),
        metric("setup_s", "s", fastest(plain, Run::setup_s)),
        metric("served_frac", "ratio", o.served as f64 / offered),
        metric(
            "answered_frac",
            "ratio",
            (o.served + o.dropped) as f64 / offered,
        ),
        metric(
            "guarantee_met_frac",
            "ratio",
            o.windows_met as f64 / o.windows as f64,
        ),
        metric("sim_latency_p50_ms", "sim_ms", o.latency_ms.quantile(0.50)),
        metric("sim_latency_p99_ms", "sim_ms", o.latency_ms.quantile(0.99)),
    ]
}

/// The smallest `time` among `runs`, seconds. Every run does the same
/// work; on a shared host, interference only ever adds time, in bursts
/// lasting seconds that can cover most of a run's iterations. The fastest
/// of many is the steadiest estimate of what the code costs: over six seeds
/// its spread was 3–6%, against 4–29% for the median.
fn fastest(runs: &[Run], time: fn(&Run) -> f64) -> f64 {
    runs.iter().map(time).fold(f64::INFINITY, f64::min)
}

/// The per-layer metrics: counts from the traced runs (identical in every
/// run of a seed), wall times as medians over the traced runs, and the
/// untraced sliced runs as the tracing-overhead baseline.
fn per_layer(sliced: &[Run], traced: &[Run]) -> Vec<Metric> {
    let t = &traced[0];
    let o = &t.outcome;
    let trace = t.trace.as_ref();
    let kind = |k: &str| trace.map_or(0, |s| s.kind(k)) as f64;
    let med =
        |runs: &[Run], f: &dyn Fn(&Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let span = |name: &'static str| med(traced, &|r| r.spans.self_s(name));
    let plain_run_until = fastest(sliced, Run::run_until_s);
    let traced_run_until = fastest(traced, Run::run_until_s);
    let popped = o.popped() as f64;
    let (reserved, spare) = (
        o.counter("sched.reserved_dispatches") as f64,
        o.counter("sched.spare_dispatches") as f64,
    );
    let slices: Vec<f64> = traced.iter().flat_map(|r| r.slice_ms.clone()).collect();
    let mut metrics = vec![
        metric("workload.generate_s", "s", span("generate")),
        metric("workload.entries", "count", o.entries as f64),
        metric("cluster.new_s", "s", span("new")),
        metric("des.prescheduled", "count", o.prescheduled as f64),
        metric("des.popped", "count", popped),
        metric("des.credited", "count", o.credited() as f64),
        metric("des.cancelled", "count", o.queue.cancelled as f64),
        metric("des.cascades", "count", o.queue.cascades as f64),
        metric("des.compactions", "count", o.queue.compactions as f64),
        metric("des.pops_per_req", "ratio", popped / o.offered as f64),
        metric("des.ns_per_pop", "ns", plain_run_until * 1e9 / popped),
        metric("rdn.packets", "count", o.counter("rdn.packets") as f64),
        metric(
            "rdn.refused",
            "count",
            o.counter_sum("sub", ".dropped") as f64,
        ),
        metric(
            "rdn.unknown_host_drops",
            "count",
            o.counter("rdn.unknown_host_drops") as f64,
        ),
        metric("rdn.cpu_util", "ratio", o.rdn_cpu_util),
        metric("conn.entries", "count", o.counter("conn.entries") as f64),
        metric("conn.lookups", "count", o.counter("conn.lookups") as f64),
        metric("sched.reserved_dispatches", "count", reserved),
        metric("sched.spare_dispatches", "count", spare),
        metric("sched.spare_share", "ratio", spare / (reserved + spare)),
        metric(
            "sched.queue_wait_p99_ms",
            "sim_ms",
            o.queue_wait_ms.quantile(0.99),
        ),
        metric(
            "rpn.completed",
            "count",
            o.counter_sum("rpn", ".completed") as f64,
        ),
        metric(
            "rpn.load_pct_p50",
            "pct",
            trace.map_or(0.0, |s| s.rpn_load_pct.quantile(0.5)),
        ),
        metric(
            "acct.reports_lost",
            "count",
            o.counter("reports.lost") as f64,
        ),
        metric("acct.rows", "count", o.acct_rows as f64),
        metric("trace.report_gossip", "count", kind("report_gossip")),
        metric("trace.acct_merge", "count", kind("acct_merge")),
        metric("trace.shard_takeover", "count", kind("shard_takeover")),
        metric("trace.dispatch_requeue", "count", kind("dispatch_requeue")),
        metric("trace.request_retry", "count", kind("request_retry")),
        metric(
            "obs.trace_overhead_pct",
            "pct",
            (traced_run_until - plain_run_until) / plain_run_until * 100.0,
        ),
        metric(
            "obs.records",
            "count",
            trace.map_or(0, |s| s.records) as f64,
        ),
        metric(
            "obs.overwritten",
            "count",
            trace.map_or(0, |s| s.overwritten) as f64,
        ),
        metric("obs.dump_s", "s", span("trace_dump")),
        metric("obs.audit_s", "s", span("audit_dump")),
    ];
    metrics.extend(
        SPANS
            .iter()
            .map(|&name| metric(format!("span.{name}.self_s"), "s", span(name))),
    );
    metrics.push(metric("run.traced_wall_s", "s", med(traced, &|r| r.wall_s)));
    metrics.push(metric("run.slice_ms_p50", "ms", quantile(&slices, 0.50)));
    metrics.push(metric("run.slice_ms_p99", "ms", quantile(&slices, 0.99)));
    metrics
}

/// "Where the time goes" in one traced run: each span's self time and its
/// share of the run's wall time.
fn time_table(r: &Run) -> Vec<String> {
    let mut lines = vec![format!(
        "where the time goes (traced run, {:.3} s wall):",
        r.wall_s
    )];
    for name in SPANS {
        let s = r.spans.self_s(name);
        lines.push(format!(
            "  {name:<17} {:>9.4} s {:>6.1}%",
            s,
            100.0 * s / r.wall_s
        ));
    }
    let rest = r.wall_s - r.spans.total_s();
    lines.push(format!(
        "  {:<17} {:>9.4} s {:>6.1}%",
        "(between spans)",
        rest,
        100.0 * rest / r.wall_s
    ));
    lines
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
