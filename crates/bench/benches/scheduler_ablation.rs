//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * cost of one scheduling cycle as the subscriber count grows (the
//!   scheduler runs every 10 ms, so its cycle cost bounds how many
//!   subscribers one RDN can host),
//! * cost of the spare pass under each [`SparePolicy`],
//! * cost of applying one accounting report.
//!
//! `run_cycle` consumes the queued backlog, so each measured iteration
//! rebuilds its scheduler; the separately-reported `build_*` baseline lets
//! the setup cost be subtracted by eye.

use gage_bench::microbench::time_it;
use gage_core::accounting::{SubscriberUsage, UsageReport};
use gage_core::config::{SchedulerConfig, SparePolicy};
use gage_core::node::{NodeScheduler, RpnId};
use gage_core::resource::{Grps, ResourceVector};
use gage_core::scheduler::RequestScheduler;
use gage_core::subscriber::{SubscriberId, SubscriberRegistry};
use gage_des::SimTime;
use gage_obs::Tracer;

fn build_scheduler(
    subscribers: usize,
    backlog: usize,
    policy: SparePolicy,
) -> RequestScheduler<u64> {
    let mut registry = SubscriberRegistry::new();
    for i in 0..subscribers {
        registry
            .register(format!("site{i}.example.com"), Grps(50.0))
            .expect("unique hosts");
    }
    let cfg = SchedulerConfig {
        spare_policy: policy,
        queue_capacity: backlog.max(1),
        ..Default::default()
    };
    let mut sched = RequestScheduler::new(&registry, cfg, NodeScheduler::new(0.3));
    for _ in 0..8 {
        sched
            .nodes_mut()
            .add_rpn(ResourceVector::new(1e6, 1e6, 12.5e6));
    }
    let mut tracer = Tracer::disabled();
    for s in 0..subscribers {
        for r in 0..backlog {
            let _ = sched.enqueue(SubscriberId(s as u32), r as u64, &mut tracer);
        }
    }
    sched
}

fn scheduling_cycle_vs_subscribers() {
    for &n in &[1usize, 10, 100, 1_000] {
        time_it(&format!("build_{n}_subs"), || {
            build_scheduler(n, 4, SparePolicy::ProportionalToReservation)
        });
        time_it(&format!("build+run_cycle_{n}_subs"), || {
            let mut s = build_scheduler(n, 4, SparePolicy::ProportionalToReservation);
            s.run_cycle(0.010, &mut Tracer::disabled())
        });
    }
}

fn spare_policy_cost() {
    for (name, policy) in [
        ("reservation", SparePolicy::ProportionalToReservation),
        ("demand", SparePolicy::ProportionalToDemand),
        ("none", SparePolicy::None),
    ] {
        time_it(&format!("build+run_cycle_spare_{name}"), || {
            let mut s = build_scheduler(100, 16, policy);
            s.run_cycle(0.010, &mut Tracer::disabled())
        });
    }
}

fn report_application() {
    let report = UsageReport {
        rpn: RpnId(3),
        total: ResourceVector::generic_request() * 100.0,
        outstanding_predicted: ResourceVector::ZERO,
        per_subscriber: (0..100)
            .map(|i| SubscriberUsage {
                subscriber: SubscriberId(i),
                actual: ResourceVector::generic_request(),
                settled_predicted: ResourceVector::generic_request(),
                completed: 1,
            })
            .collect(),
    };
    let mut s = build_scheduler(100, 0, SparePolicy::ProportionalToReservation);
    let mut tracer = Tracer::disabled();
    time_it("on_report_100_subscribers", || {
        s.on_report(SimTime::ZERO, std::hint::black_box(&report), &mut tracer)
    });
}

fn main() {
    println!("Scheduler ablation\n");
    scheduling_cycle_vs_subscribers();
    spare_policy_cost();
    report_application();
}
