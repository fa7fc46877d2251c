//! The per-subscriber QoS conformance auditor.
//!
//! The paper's guarantee is windowed: each subscriber should receive its
//! reserved GRPS in every scheduling interval where it has demand, even
//! under overload and co-tenant misbehaviour. This module checks that claim
//! *from the trace alone*: it folds a ring into per-request spans
//! ([`crate::spans`]), buckets arrivals and completions into fixed
//! conformance windows, derives each subscriber's effective entitlement
//! from the ring's own `reservation` records and any `reservation_scale`
//! events (fault-era capacity rescaling), and flags **violation windows**
//! where delivered service fell below `tolerance ×
//! min(offered, effective reservation)` — demand-limited windows are never
//! violations. Consecutive violating windows merge into one [`Violation`]
//! with start/end scheduler cycles (mapped through `sched_cycle` records)
//! and a depth (worst fractional shortfall).
//!
//! Everything is a pure function of the records, so same-seed runs
//! produce byte-identical JSON reports, and auditing a ring in process
//! gives the same report as auditing its dump.

use std::fmt::Write as _;

use gage_json::Json;

use crate::spans::{SpanTotals, Terminal};
use crate::{Histogram, TraceRing};

/// Schema tag stamped into every JSON conformance report.
pub const AUDIT_SCHEMA: &str = "gage-audit-v1";

/// The shortest conformance window, ns: the paper's 10 ms scheduling
/// cycle. A window is a unit of promised service, and nothing is promised
/// for less than one cycle; the auditor also keeps counters per window, so
/// a shorter one would size them by nanoseconds.
pub const MIN_WINDOW_NS: u64 = 10_000_000;

/// Auditor knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// Conformance window length, ns, at least [`MIN_WINDOW_NS`]. Defaults
    /// to one second — two orders of magnitude above the 10 ms scheduling
    /// cycle, so queueing jitter inside a window doesn't read as a
    /// violation.
    pub window_ns: u64,
    /// Fraction of the expected service a window may fall short of before
    /// it counts as violated.
    pub tolerance: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            window_ns: 1_000_000_000,
            tolerance: 0.85,
        }
    }
}

/// One conformance window for one subscriber.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStat {
    /// Window index (window `w` covers `[w*window_ns, (w+1)*window_ns)`).
    pub index: u64,
    /// Requests that arrived in the window.
    pub offered: u64,
    /// Requests served (client response received) in the window.
    pub served: u64,
    /// Service the subscriber was entitled to expect this window:
    /// `min(offered, effective_reservation × window_secs)`, requests.
    pub expected: f64,
    /// The effective (fault-rescaled) reservation during the window, GRPS.
    /// Absent when the ring holds no `reservation` record for the
    /// subscriber — then `expected` falls back to offered demand.
    pub eff_reservation_grps: Option<f64>,
    /// Whether this window violated conformance.
    pub violation: bool,
}

/// A maximal run of consecutive violating windows for one subscriber.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// First violating window index.
    pub start_window: u64,
    /// Last violating window index (inclusive).
    pub end_window: u64,
    /// Start of the run, ns.
    pub start_ns: u64,
    /// End of the run (exclusive window edge), ns.
    pub end_ns: u64,
    /// First scheduler cycle at or after `start_ns` (0 if the ring holds
    /// no `sched_cycle` records).
    pub start_cycle: u64,
    /// Last scheduler cycle at or before `end_ns` (0 if none).
    pub end_cycle: u64,
    /// Worst fractional shortfall across the run:
    /// `max(1 - served/expected)`, in `(0, 1]`.
    pub depth: f64,
}

/// Everything the auditor concluded about one subscriber.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriberAudit {
    /// The subscriber.
    pub sub: u32,
    /// Configured reservation from the ring's `reservation` record, GRPS.
    pub reservation_grps: Option<f64>,
    /// The RDN shard the subscriber is homed on, from the same record.
    pub shard: Option<u16>,
    /// Conservation totals reconstructed from spans — cross-checked
    /// field-for-field against `SubscriberMetrics` by the cluster tests.
    pub totals: SpanTotals,
    /// End-to-end latency of served requests, milliseconds.
    pub latency_ms: Histogram,
    /// Total per-request queue wait, milliseconds.
    pub queue_wait_ms: Histogram,
    /// Every conformance window, in order.
    pub windows: Vec<WindowStat>,
    /// Merged violation runs, in order.
    pub violations: Vec<Violation>,
}

/// The full conformance report for one ring.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// The knobs the report was computed with.
    pub config: AuditConfig,
    /// Requests reconstructed from the ring.
    pub requests: u64,
    /// Request ids that never reached a terminal state.
    pub unterminated: Vec<u64>,
    /// Per-subscriber results, ascending by subscriber id.
    pub subscribers: Vec<SubscriberAudit>,
}

impl AuditReport {
    /// Total violation runs across all subscribers.
    pub fn violation_count(&self) -> usize {
        self.subscribers.iter().map(|s| s.violations.len()).sum()
    }

    /// Serializes the report as one deterministic JSON object.
    pub fn to_json(&self) -> Json {
        let subs: Vec<Json> = self
            .subscribers
            .iter()
            .map(|s| {
                let windows: Vec<Json> = s
                    .windows
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("w", Json::from(w.index)),
                            ("offered", Json::from(w.offered)),
                            ("served", Json::from(w.served)),
                            ("expected", Json::from(w.expected)),
                            (
                                "eff_reservation_grps",
                                w.eff_reservation_grps.map_or(Json::Null, Json::from),
                            ),
                            ("violation", Json::from(w.violation)),
                        ])
                    })
                    .collect();
                let violations: Vec<Json> = s
                    .violations
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("start_window", Json::from(v.start_window)),
                            ("end_window", Json::from(v.end_window)),
                            ("start_ns", Json::from(v.start_ns)),
                            ("end_ns", Json::from(v.end_ns)),
                            ("start_cycle", Json::from(v.start_cycle)),
                            ("end_cycle", Json::from(v.end_cycle)),
                            ("depth", Json::from(v.depth)),
                        ])
                    })
                    .collect();
                let hist = |h: &Histogram| {
                    Json::obj([
                        ("count", Json::from(h.count())),
                        ("mean", Json::from(h.mean())),
                        ("p50", Json::from(h.p50())),
                        ("p95", Json::from(h.p95())),
                        ("p99", Json::from(h.p99())),
                    ])
                };
                Json::obj([
                    ("sub", Json::from(s.sub)),
                    (
                        "reservation_grps",
                        s.reservation_grps.map_or(Json::Null, Json::from),
                    ),
                    ("shard", s.shard.map_or(Json::Null, Json::from)),
                    ("offered", Json::from(s.totals.offered)),
                    ("served", Json::from(s.totals.served)),
                    ("dropped", Json::from(s.totals.dropped)),
                    ("failed", Json::from(s.totals.failed)),
                    ("latency_ms", hist(&s.latency_ms)),
                    ("queue_wait_ms", hist(&s.queue_wait_ms)),
                    ("windows", Json::Arr(windows)),
                    ("violations", Json::Arr(violations)),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::str(AUDIT_SCHEMA)),
            ("window_ns", Json::from(self.config.window_ns)),
            ("tolerance", Json::from(self.config.tolerance)),
            ("requests", Json::from(self.requests)),
            (
                "unterminated",
                Json::Arr(self.unterminated.iter().map(|r| Json::from(*r)).collect()),
            ),
            (
                "violations_total",
                Json::from(self.violation_count() as u64),
            ),
            ("subscribers", Json::Arr(subs)),
        ])
    }

    /// Renders the report as a human-readable table: one summary row per
    /// subscriber, then every violation run.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "conformance audit  window={}ms tolerance={:.2}  requests={} unterminated={} violations={}",
            self.config.window_ns / 1_000_000,
            self.config.tolerance,
            self.requests,
            self.unterminated.len(),
            self.violation_count(),
        );
        let _ = writeln!(
            out,
            "{:>4}  {:>10}  {:>8} {:>8} {:>8} {:>8}  {:>9} {:>9} {:>9}  {:>5}",
            "sub",
            "res_grps",
            "offered",
            "served",
            "dropped",
            "failed",
            "lat_p50ms",
            "lat_p95ms",
            "lat_p99ms",
            "viol"
        );
        for s in &self.subscribers {
            let res = s
                .reservation_grps
                .map_or("-".to_string(), |r| format!("{r:.1}"));
            let _ = writeln!(
                out,
                "{:>4}  {:>10}  {:>8} {:>8} {:>8} {:>8}  {:>9.2} {:>9.2} {:>9.2}  {:>5}",
                s.sub,
                res,
                s.totals.offered,
                s.totals.served,
                s.totals.dropped,
                s.totals.failed,
                s.latency_ms.p50(),
                s.latency_ms.p95(),
                s.latency_ms.p99(),
                s.violations.len(),
            );
        }
        for s in &self.subscribers {
            for v in &s.violations {
                let _ = writeln!(
                    out,
                    "VIOLATION sub={} windows {}..={} ({:.1}s..{:.1}s) cycles {}..={} depth={:.2}",
                    s.sub,
                    v.start_window,
                    v.end_window,
                    v.start_ns as f64 / 1e9,
                    v.end_ns as f64 / 1e9,
                    v.start_cycle,
                    v.end_cycle,
                    v.depth,
                );
            }
        }
        out
    }
}

/// The smallest reservation scale in effect at any point during
/// `[start_ns, end_ns)` — conservative: a subscriber is only entitled to
/// what the degraded cluster could owe it.
fn min_scale_in(scales: &[(u64, f64)], start_ns: u64, end_ns: u64) -> f64 {
    // Scale active as the window opens: last change at or before start.
    let mut scale = scales
        .iter()
        .take_while(|(t, _)| *t <= start_ns)
        .last()
        .map_or(1.0, |(_, s)| *s);
    for (t, s) in scales {
        if *t > start_ns && *t < end_ns {
            scale = scale.min(*s);
        }
    }
    scale
}

/// First scheduler cycle at or after `t_ns`; falls back to the last known
/// cycle, then 0.
fn cycle_at_or_after(cycles: &[(u64, u64)], t_ns: u64) -> u64 {
    cycles
        .iter()
        .find(|(t, _)| *t >= t_ns)
        .or_else(|| cycles.last())
        .map_or(0, |(_, c)| *c)
}

/// Last scheduler cycle at or before `t_ns`; 0 if none.
fn cycle_at_or_before(cycles: &[(u64, u64)], t_ns: u64) -> u64 {
    cycles
        .iter()
        .take_while(|(t, _)| *t <= t_ns)
        .last()
        .map_or(0, |(_, c)| *c)
}

/// Folds a ring into spans ([`crate::spans::reconstruct`]) and audits them.
///
/// # Errors
///
/// Fails on everything [`crate::spans::reconstruct`] rejects (overwritten
/// ring, out-of-range or duplicate ids, orphan records, double terminals),
/// and on a window shorter than [`MIN_WINDOW_NS`].
pub fn audit(ring: &TraceRing, config: &AuditConfig) -> Result<AuditReport, String> {
    let window_ns = config.window_ns;
    if window_ns < MIN_WINDOW_NS {
        return Err(format!(
            "window of {window_ns} ns is shorter than the {MIN_WINDOW_NS} ns scheduling cycle"
        ));
    }
    let spans = crate::spans::reconstruct(ring)?;
    let window_secs = window_ns as f64 / 1e9;

    // The audited horizon ends at the last request activity; trailing
    // idle simulation time would read as demand-free (never-violating)
    // windows anyway.
    let horizon_ns = spans
        .spans
        .iter()
        .flat_map(|s| std::iter::once(s.arrival_ns).chain(s.terminal.map(|(_, at)| at)))
        .max()
        .unwrap_or(0);
    let window_count = horizon_ns / window_ns + 1;

    let mut subscribers = Vec::new();
    for sub in spans.subscribers() {
        let totals = spans.totals_for(sub);
        let homed = spans.reservations.iter().find(|(s, _, _)| *s == sub);
        let reservation = homed.map(|(_, grps, _)| *grps);

        let mut offered = vec![0u64; window_count as usize];
        let mut served = vec![0u64; window_count as usize];
        let mut latency_ms = Histogram::default();
        let mut queue_wait_ms = Histogram::default();
        for s in spans.spans.iter().filter(|s| s.sub == sub) {
            offered[(s.arrival_ns / window_ns) as usize] += 1;
            if let Some((Terminal::Served, at)) = s.terminal {
                served[(at / window_ns) as usize] += 1;
                if let Some(lat) = s.latency_ns() {
                    latency_ms.observe(lat as f64 / 1e6);
                }
                queue_wait_ms.observe(s.queue_wait_ns as f64 / 1e6);
            }
        }

        let mut windows = Vec::with_capacity(window_count as usize);
        for w in 0..window_count {
            let start_ns = w * window_ns;
            let end_ns = start_ns + window_ns;
            let eff = reservation.map(|r| r * min_scale_in(&spans.scales, start_ns, end_ns));
            let demand = offered[w as usize] as f64;
            let entitled = eff.map_or(demand, |e| (e * window_secs).min(demand));
            // Below one expected request a window carries no signal.
            let expected = if entitled >= 1.0 { entitled } else { 0.0 };
            let violation =
                expected > 0.0 && (served[w as usize] as f64) < config.tolerance * expected;
            windows.push(WindowStat {
                index: w,
                offered: offered[w as usize],
                served: served[w as usize],
                expected,
                eff_reservation_grps: eff,
                violation,
            });
        }

        // Merge consecutive violating windows into runs.
        let mut violations: Vec<Violation> = Vec::new();
        for w in &windows {
            if !w.violation {
                continue;
            }
            let depth = 1.0 - w.served as f64 / w.expected;
            let start_ns = w.index * window_ns;
            let end_ns = start_ns + window_ns;
            match violations.last_mut() {
                Some(run) if run.end_window + 1 == w.index => {
                    run.end_window = w.index;
                    run.end_ns = end_ns;
                    run.end_cycle = cycle_at_or_before(&spans.cycles, end_ns);
                    run.depth = run.depth.max(depth);
                }
                _ => violations.push(Violation {
                    start_window: w.index,
                    end_window: w.index,
                    start_ns,
                    end_ns,
                    start_cycle: cycle_at_or_after(&spans.cycles, start_ns),
                    end_cycle: cycle_at_or_before(&spans.cycles, end_ns),
                    depth,
                }),
            }
        }

        subscribers.push(SubscriberAudit {
            sub,
            reservation_grps: reservation,
            shard: homed.map(|(_, _, shard)| *shard),
            totals,
            latency_ms,
            queue_wait_ms,
            windows,
            violations,
        });
    }

    Ok(AuditReport {
        config: *config,
        requests: spans.spans.len() as u64,
        unterminated: spans.unterminated(),
        subscribers,
    })
}

/// Decodes a dump ([`TraceRing::from_dump`]) and audits it.
///
/// # Errors
///
/// Fails on everything [`TraceRing::from_dump`] and [`audit`] reject.
pub fn audit_dump(dump: &str, config: &AuditConfig) -> Result<AuditReport, String> {
    audit(&TraceRing::from_dump(dump)?, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;
    use gage_des::SimTime;

    /// Builds a dump where sub 0 (reservation 10 GRPS) offers 10 req/s for
    /// 4 s and is served everything except in second 2, where service
    /// collapses to 2 requests.
    fn dump_with_gap() -> String {
        let mut t = TraceRing::new(1 << 10);
        t.push(
            SimTime::from_nanos(0),
            TraceEvent::Reservation {
                sub: 0,
                grps: 10.0,
                shard: 0,
            },
        );
        let mut req = 0u64;
        for sec in 0..4u64 {
            for i in 0..10u64 {
                let at = SimTime::from_millis(sec * 1_000 + i * 90);
                t.push(at, TraceEvent::ReqArrival { sub: 0, req });
                let starved = sec == 2 && i >= 2;
                if !starved {
                    t.push(
                        SimTime::from_millis(sec * 1_000 + i * 90 + 5),
                        TraceEvent::ReqServed { sub: 0, req },
                    );
                } else {
                    // Starved requests resolve later (second 3) so the
                    // dump still conserves.
                    t.push(
                        SimTime::from_millis(3_000 + 900 + i),
                        TraceEvent::ReqServed { sub: 0, req },
                    );
                }
                req += 1;
            }
        }
        // A cycle clock: one sched_cycle per 100 ms.
        for c in 0..40u64 {
            t.push(
                SimTime::from_millis(c * 100),
                TraceEvent::SchedCycle {
                    cycle: c,
                    dispatched: 1,
                    spare: 0,
                    backlog: 0,
                },
            );
        }
        t.dump()
    }

    #[test]
    fn gap_is_flagged_with_cycles_and_depth() {
        let rep = audit_dump(&dump_with_gap(), &AuditConfig::default()).expect("audits");
        assert_eq!(rep.requests, 40);
        assert!(rep.unterminated.is_empty());
        assert_eq!(rep.subscribers.len(), 1);
        let s = &rep.subscribers[0];
        assert_eq!(s.reservation_grps, Some(10.0));
        assert!(s.totals.conserved());
        assert_eq!(s.violations.len(), 1, "exactly the starved second");
        let v = &s.violations[0];
        assert_eq!(v.start_window, 2);
        assert_eq!(v.end_window, 2);
        // depth: served 2 of expected 10 -> 0.8.
        assert!((v.depth - 0.8).abs() < 1e-9, "depth={}", v.depth);
        // Cycle mapping: window 2 covers 2.0s..3.0s = cycles 20..=30.
        assert_eq!(v.start_cycle, 20);
        assert_eq!(v.end_cycle, 30);
        // Window 3 is over-served (catch-up) and must not violate.
        assert!(!s.windows[3].violation);
    }

    #[test]
    fn windows_shorter_than_one_cycle_are_rejected() {
        let config = AuditConfig {
            window_ns: MIN_WINDOW_NS - 1,
            ..AuditConfig::default()
        };
        let err = audit_dump(&dump_with_gap(), &config).expect_err("sub-cycle window");
        assert!(
            err.contains("shorter than the 10000000 ns scheduling cycle"),
            "{err}"
        );
    }

    #[test]
    fn demand_free_windows_never_violate() {
        let mut t = TraceRing::new(64);
        t.push(
            SimTime::from_nanos(0),
            TraceEvent::Reservation {
                sub: 1,
                grps: 100.0,
                shard: 0,
            },
        );
        // One lonely request at t=5s, served promptly: every other window
        // is demand-free.
        t.push(
            SimTime::from_secs(5),
            TraceEvent::ReqArrival { sub: 1, req: 0 },
        );
        t.push(
            SimTime::from_millis(5_010),
            TraceEvent::ReqServed { sub: 1, req: 0 },
        );
        let rep = audit_dump(&t.dump(), &AuditConfig::default()).expect("audits");
        assert_eq!(rep.violation_count(), 0);
    }

    #[test]
    fn reservation_scale_shrinks_the_entitlement() {
        let mut t = TraceRing::new(1 << 10);
        t.push(
            SimTime::from_nanos(0),
            TraceEvent::Reservation {
                sub: 0,
                grps: 10.0,
                shard: 0,
            },
        );
        // Capacity halves during second 0: entitlement is 5, and serving
        // 5 of 10 offered is then conformant.
        t.push(
            SimTime::from_nanos(0),
            TraceEvent::ReservationScale { scale: 0.5 },
        );
        for req in 0..10u64 {
            t.push(
                SimTime::from_millis(req * 90),
                TraceEvent::ReqArrival { sub: 0, req },
            );
            // Half served in-window, half next second (conserves).
            let at = if req < 5 {
                SimTime::from_millis(req * 90 + 5)
            } else {
                SimTime::from_millis(1_500 + req)
            };
            t.push(at, TraceEvent::ReqServed { sub: 0, req });
        }
        let rep = audit_dump(&t.dump(), &AuditConfig::default()).expect("audits");
        let s = &rep.subscribers[0];
        assert_eq!(s.windows[0].eff_reservation_grps, Some(5.0));
        assert!(
            !s.windows[0].violation,
            "serving the rescaled entitlement is conformant"
        );
    }

    #[test]
    fn report_json_is_schema_tagged_and_stable() {
        let dump = dump_with_gap();
        let a = audit_dump(&dump, &AuditConfig::default()).expect("audits");
        let b = audit_dump(&dump, &AuditConfig::default()).expect("audits");
        let (ja, jb) = (a.to_json().to_string(), b.to_json().to_string());
        assert_eq!(ja, jb, "same dump, same bytes");
        assert!(ja.starts_with("{\"schema\":\"gage-audit-v1\""));
        assert_eq!(gage_json::parse(&ja).map(|j| j.to_string()), Ok(ja.clone()));
        assert!(ja.contains(",\"violations_total\":1,"), "{ja}");
        let table = a.to_table();
        assert!(table.contains("VIOLATION sub=0"));
        assert!(table.contains("lat_p95ms"));
    }
}
