//! One simulation run through the public API, with the benchmark's own
//! wall-clock spans around every call, and the checks on its outputs.

use std::collections::BTreeMap;
use std::time::Instant;

use gage_cluster::metrics::METRIC_BIN;
use gage_cluster::ClusterSim;
use gage_des::{QueueStats, SimTime};
use gage_json::Json;
use gage_obs::audit::{audit_dump, AuditConfig, AuditReport};
use gage_obs::Histogram;

use crate::stats::{digest, Pooled};
use crate::workload::{Inputs, Workload};

/// How a run drives the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off, one `run_until` call to the end: the measured run.
    Plain,
    /// Tracing off, `run_until` in 1-simulated-second slices.
    Sliced,
    /// The gage-obs ring on, sliced, then `trace_dump` and `audit_dump`.
    Traced,
}

/// The calls the benchmark spans, in the order a run makes them.
pub const SPANS: [&str; 9] = [
    "generate",
    "new",
    "enable_tracing",
    "apply_fault_plan",
    "run_until",
    "report",
    "registry",
    "trace_dump",
    "audit_dump",
];

/// Wall time accumulated per spanned call. The calls never nest, so each
/// span's self time is its whole duration.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    secs: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Runs `f` as one span of `name`, returning its result and duration.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        *self.secs.entry(name).or_default() += secs;
        (out, secs)
    }

    /// Total self time of `name` in seconds (zero if never called).
    pub fn self_s(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every span's self time.
    pub fn total_s(&self) -> f64 {
        self.secs.values().sum()
    }
}

/// Trace-derived counters of a traced run.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Records emitted into the ring.
    pub records: u64,
    /// Records lost to ring overwriting.
    pub overwritten: u64,
    /// Retained records per trace kind.
    pub kinds: BTreeMap<String, u64>,
    /// Per-RPN load samples (percent) taken at every 1-s slice boundary
    /// inside the horizon.
    pub rpn_load_pct: Pooled,
}

impl TraceStats {
    /// Retained records of `kind`.
    pub fn kind(&self, kind: &str) -> u64 {
        self.kinds.get(kind).copied().unwrap_or(0)
    }
}

/// What the simulator computed. Every field is in simulated units and
/// repeats exactly for a given seed, whatever the mode.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Digest of the report and the registry snapshot.
    pub digest: u64,
    /// Requests offered, across subscribers.
    pub offered: u64,
    /// Requests served.
    pub served: u64,
    /// Requests refused (RST at the client).
    pub dropped: u64,
    /// Requests that timed out after their retries.
    pub failed: u64,
    /// (subscriber, 1-s window) pairs with at least one entitled request.
    pub windows: u64,
    /// Of those, the pairs where served ≥ 0.85 × min(offered, reservation).
    pub windows_met: u64,
    /// Client latency of served requests, ms, pooled across subscribers.
    pub latency_ms: Pooled,
    /// RDN queue wait of dispatched attempts, ms, pooled.
    pub queue_wait_ms: Pooled,
    /// Trace entries generated (offered requests scheduled at set-up).
    pub entries: u64,
    /// Events the queue held right after `ClusterSim::new`.
    pub prescheduled: u64,
    /// Event-queue counters at the end of the run.
    pub queue: QueueStats,
    /// `events_processed()` at the end of the run.
    pub events_processed: u64,
    /// Busiest RDN's CPU utilization over the horizon.
    pub rdn_cpu_util: f64,
    /// Counters of the registry snapshot, by name.
    pub counters: BTreeMap<String, u64>,
    /// Accounting rows on front 0.
    pub acct_rows: u64,
}

impl Outcome {
    /// A registry counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of the registry counters named `<prefix><i><suffix>`.
    pub fn counter_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(prefix)
                    .and_then(|rest| rest.strip_suffix(suffix))
                    .is_some_and(|i| !i.is_empty() && i.bytes().all(|b| b.is_ascii_digit()))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Events popped from the queue and handled (see [`popped`]).
    pub fn popped(&self) -> u64 {
        popped(&self.queue)
    }

    /// Logical per-packet events that batched handlers credited without a
    /// pop.
    pub fn credited(&self) -> u64 {
        self.events_processed.saturating_sub(self.popped())
    }
}

/// Events an event queue has popped: everything scheduled that was
/// neither cancelled nor is still pending.
pub fn popped(q: &QueueStats) -> u64 {
    q.scheduled - q.cancelled - q.depth
}

/// One finished run.
#[derive(Debug, Clone)]
pub struct Run {
    /// How it was driven.
    pub mode: Mode,
    /// Wall time per spanned call.
    pub spans: Spans,
    /// Wall time from the first span's start to the last span's end.
    pub wall_s: f64,
    /// Wall time of each 1-s `run_until` slice, ms (sliced modes only).
    pub slice_ms: Vec<f64>,
    /// What the simulator computed.
    pub outcome: Outcome,
    /// Trace-derived counters (traced runs only).
    pub trace: Option<TraceStats>,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
}

impl Run {
    /// Set-up wall time: trace generation, cluster construction and fault
    /// installation.
    pub fn setup_s(&self) -> f64 {
        ["generate", "new", "apply_fault_plan"]
            .iter()
            .map(|s| self.spans.self_s(s))
            .sum()
    }

    /// Wall time spent inside `run_until`.
    pub fn run_until_s(&self) -> f64 {
        self.spans.self_s("run_until")
    }
}

/// Ring capacity for a traced run: comfortably above the records the
/// workloads emit (about ten per request plus per-cycle records), so
/// nothing is overwritten. Only touched slots become resident.
fn trace_capacity(entries: u64, end_secs: u64, rpns: usize) -> usize {
    let per_sec = 400 + 40 * rpns as u64;
    (16 * entries + per_sec * end_secs) as usize
}

/// Runs `workload` over `horizon_secs` of arrivals (plus its drain) from
/// `seed`, driven as `mode`, and checks the outputs.
pub fn run(workload: Workload, seed: u64, horizon_secs: u64, mode: Mode) -> Run {
    let end_secs = horizon_secs + workload.drain_secs();
    let mut spans = Spans::default();
    let mut slice_ms = Vec::new();
    let mut loads: Vec<Histogram> = Vec::new();

    let started = Instant::now();
    let (inputs, _) = spans.time("generate", || workload.generate(seed, horizon_secs));
    let Inputs {
        params,
        sites,
        sim_seed,
        plan,
    } = inputs;
    let entries: u64 = sites.iter().map(|s| s.trace.len() as u64).sum();
    let rpns = params.rpn_count;
    let (mut sim, _) = spans.time("new", || ClusterSim::new(params, sites, sim_seed));
    let prescheduled = sim.queue_stats().scheduled;
    if mode == Mode::Traced {
        let capacity = trace_capacity(entries, end_secs, rpns);
        spans.time("enable_tracing", || sim.enable_tracing(capacity));
    }
    if let Some(plan) = &plan {
        spans.time("apply_fault_plan", || sim.apply_fault_plan(plan));
    }
    if mode == Mode::Plain {
        spans.time("run_until", || sim.run_until(SimTime::from_secs(end_secs)));
    } else {
        for t in 1..=end_secs {
            let (_, secs) = spans.time("run_until", || sim.run_until(SimTime::from_secs(t)));
            slice_ms.push(secs * 1e3);
            if mode == Mode::Traced && t <= horizon_secs {
                let (reg, _) = spans.time("registry", || sim.registry());
                loads.extend(reg.histogram("rpn.load_pct").cloned());
            }
        }
    }
    let horizon = SimTime::from_secs(horizon_secs);
    let (report, _) = spans.time("report", || sim.report(SimTime::ZERO, horizon));
    let (registry, _) = spans.time("registry", || sim.registry());
    let dumped = (mode == Mode::Traced).then(|| {
        let (dump, _) = spans.time("trace_dump", || sim.trace_dump().unwrap_or_default());
        let (audit, _) = spans.time("audit_dump", || audit_dump(&dump, &AuditConfig::default()));
        (dump, audit)
    });
    let wall_s = started.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    let snapshot = registry.snapshot_json();
    let counters = registry_counters(&snapshot);
    let snapshot = format!("{report:?}\n{snapshot}");
    let w = sim.world();
    let (mut offered, mut served, mut dropped, mut failed) = (0, 0, 0, 0);
    let (mut windows, mut windows_met) = (0, 0);
    let bins_per_window = (1_000_000_000 / METRIC_BIN.as_nanos()) as usize;
    let mut totals = Vec::new();
    for (i, (m, row)) in w.metrics.iter().zip(&report.subscribers).enumerate() {
        let (o, s, d, f) = (
            m.offered.total() as u64,
            m.served.total() as u64,
            m.dropped.total() as u64,
            m.failed.total() as u64,
        );
        totals.push([o, s, d, f]);
        if o != s + d + f {
            failures.push(format!(
                "sub{i}: offered {o} != served {s} + dropped {d} + failed {f}"
            ));
        }
        (offered, served, dropped, failed) = (offered + o, served + s, dropped + d, failed + f);
        // The conformance auditor's definition, over the horizon: a window
        // is entitled to min(offered, reservation × 1 s) requests and meets
        // the guarantee when it serves at least 85% of that.
        let window_sum = |bins: &[f64], win: usize| -> f64 {
            let lo = (win * bins_per_window).min(bins.len());
            let hi = ((win + 1) * bins_per_window).min(bins.len());
            bins[lo..hi].iter().sum()
        };
        for win in 0..horizon_secs as usize {
            let entitled = window_sum(m.offered.bins(), win).min(row.reservation);
            if entitled >= 1.0 {
                windows += 1;
                if window_sum(m.served.bins(), win) >= 0.85 * entitled {
                    windows_met += 1;
                }
            }
        }
    }
    if entries != offered {
        failures.push(format!("{entries} trace entries but {offered} offered"));
    }
    if w.unknown_host_drops != 0 {
        failures.push(format!(
            "{} requests dropped as unknown hosts",
            w.unknown_host_drops
        ));
    }
    let rdns = workload.rdn_count();
    if rdns > 1 {
        let home: Vec<u16> = (0..rdns as u16).collect();
        if w.shard_owners() != home.as_slice() || !(0..rdns).all(|f| w.rdn_alive(f)) {
            failures.push(format!(
                "shards not back home after heal: owners {:?}",
                w.shard_owners()
            ));
        }
        let reference = w.acct_rows(0);
        if reference.is_empty() || !(1..rdns).all(|f| w.acct_rows(f) == reference) {
            failures.push("accounting tables did not converge".to_string());
        }
    }

    let trace = dumped.map(|(dump, audit)| {
        let stats = trace_stats(&dump, loads);
        if stats.overwritten != 0 {
            failures.push(format!(
                "trace ring overwrote {} records",
                stats.overwritten
            ));
        }
        match audit {
            Ok(report) => check_audit(&report, &totals, &mut failures),
            Err(e) => failures.push(format!("audit failed: {e}")),
        }
        stats
    });

    let outcome = Outcome {
        digest: digest(&snapshot),
        offered,
        served,
        dropped,
        failed,
        windows,
        windows_met,
        latency_ms: Pooled::new(w.metrics.iter().map(|m| &m.latency_ms)),
        queue_wait_ms: Pooled::new(w.metrics.iter().map(|m| &m.queue_wait_ms)),
        entries,
        prescheduled,
        queue: sim.queue_stats(),
        events_processed: sim.events_processed(),
        rdn_cpu_util: report.rdn_utilization,
        counters,
        acct_rows: w.acct_rows(0).len() as u64,
    };
    Run {
        mode,
        spans,
        wall_s,
        slice_ms,
        outcome,
        trace,
        failures,
    }
}

/// Every counter of a registry snapshot, by name.
fn registry_counters(snapshot: &Json) -> BTreeMap<String, u64> {
    let metrics = snapshot.get("metrics").and_then(Json::as_array);
    metrics
        .unwrap_or_default()
        .iter()
        .filter(|m| m.get("kind").and_then(Json::as_str) == Some("counter"))
        .filter_map(|m| {
            let name = m.get("name").and_then(Json::as_str)?;
            Some((name.to_string(), m.get("value").and_then(Json::as_u64)?))
        })
        .collect()
}

/// Record counts per kind, read from the dump's `"kind":"…"` fields.
fn trace_stats(dump: &str, loads: Vec<Histogram>) -> TraceStats {
    let mut lines = dump.lines();
    let header = lines
        .next()
        .and_then(|l| gage_json::parse(l).ok())
        .unwrap_or(Json::Null);
    let field = |k: &str| header.get(k).and_then(Json::as_u64).unwrap_or(0);
    let mut kinds = BTreeMap::new();
    for line in lines {
        if let Some(rest) = line.split_once("\"kind\":\"").map(|(_, r)| r) {
            let kind = rest.split('"').next().unwrap_or_default();
            *kinds.entry(kind.to_string()).or_insert(0) += 1;
        }
    }
    TraceStats {
        records: field("emitted"),
        overwritten: field("overwritten"),
        kinds,
        rpn_load_pct: Pooled::new(&loads),
    }
}

/// The auditor rebuilds every request from the trace alone; its
/// per-subscriber `[offered, served, dropped, failed]` must equal the
/// simulator's own `totals`.
fn check_audit(audit: &AuditReport, totals: &[[u64; 4]], failures: &mut Vec<String>) {
    if !audit.unterminated.is_empty() {
        failures.push(format!(
            "audit: {} requests never terminated",
            audit.unterminated.len()
        ));
    }
    for (i, want) in totals.iter().enumerate() {
        let got = audit
            .subscribers
            .iter()
            .find(|s| s.sub as usize == i)
            .map_or([0; 4], |s| {
                let t = &s.totals;
                [t.offered, t.served, t.dropped, t.failed]
            });
        if got != *want {
            failures.push(format!(
                "audit: sub{i} totals {got:?} != simulator's {want:?}"
            ));
        }
    }
}
