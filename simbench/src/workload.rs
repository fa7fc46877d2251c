//! The three benchmark workloads, built from a seed.
//!
//! Each workload leans on a different layer of the simulator (see
//! `README.md` for the reasoning and the measured layer profile):
//!
//! * `reserved` — every request is within its reservation and served, so
//!   the accept → reserved dispatch → RPN lane → accounting path does the
//!   work and the refusal path idles;
//! * `overload` — about twice the cluster's capacity under the §4.3
//!   static-file cost model with its RPN page cache, so classification,
//!   queue overflow, RST and the spare pass dominate;
//! * `sharded_chaos` — four peer RDNs under scripted faults, the only
//!   workload where gossip merge, shard takeover and failback, dispatch
//!   requeue and client retry run.
//!
//! All clients are open-loop: Poisson arrivals are generated up front and
//! pre-scheduled by `ClusterSim::new`. The seed is the only source of
//! variation; the simulator receives only what [`Workload::generate`]
//! derives from it and the fixed [`TESTBED_SEED`].

use gage_cluster::params::{ClientRetryParams, ClusterParams, ServiceCostModel};
use gage_cluster::sim::SiteSpec;
use gage_cluster::FaultPlan;
use gage_core::resource::Grps;
use gage_des::{SimDuration, SimTime};
use gage_workload::{
    ArrivalProcess, RequestGenerator, SpecWebGenerator, SyntheticGenerator, Trace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1 RDN, 8 RPNs, generic requests at ~70% of capacity, every
    /// subscriber under its reservation.
    Reserved,
    /// 1 RDN, 8 RPNs, SPECWeb99-shaped static files at ~2× capacity with
    /// skewed demand.
    Overload,
    /// 4 RDNs, 32 RPNs, 8 subscribers at ~80% of reservation, under an RDN
    /// crash, a gossip partition, report loss and RPN churn.
    ShardedChaos,
}

/// Everything one simulation run needs, derived from the workload seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Cluster configuration.
    pub params: ClusterParams,
    /// Hosted sites with their pre-generated traces.
    pub sites: Vec<SiteSpec>,
    /// Seed of the simulator's own random stream.
    pub sim_seed: u64,
    /// Scripted faults, if the workload has any.
    pub plan: Option<FaultPlan>,
}

/// A subscriber of a workload: reservation and offered Poisson rate.
struct Sub {
    reservation: f64,
    rate: f64,
}

/// Seed of the simulator's own stream, which draws the simulated
/// testbed's physics: each RPN's crystal skew and its timer noise. It is
/// fixed, like the node counts, because it moves the simulated latency
/// quantiles by ±10% from one value to the next; the workload seed varies
/// only what clients send and which faults strike.
pub const TESTBED_SEED: u64 = 17;

/// SplitMix64 finalizer: derives independent stream seeds from the
/// workload seed, so one `--seed` fixes every input.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Reserved,
        Workload::Overload,
        Workload::ShardedChaos,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reserved => "reserved",
            Workload::Overload => "overload",
            Workload::ShardedChaos => "sharded_chaos",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated seconds of client arrivals.
    pub fn horizon_secs(self) -> u64 {
        match self {
            Workload::Reserved => 120,
            Workload::Overload => 20,
            Workload::ShardedChaos => 24,
        }
    }

    /// Simulated seconds every run continues past the horizon: enough for
    /// the last arrivals (and, under faults, their retries) to resolve and
    /// for the final accounting and gossip rounds to land.
    pub fn drain_secs(self) -> u64 {
        match self {
            Workload::Reserved | Workload::Overload => 5,
            Workload::ShardedChaos => 6,
        }
    }

    /// Number of peer RDNs.
    pub fn rdn_count(self) -> usize {
        self.params().rdn_count
    }

    fn subs(self) -> Vec<Sub> {
        let sub = |reservation, rate| Sub { reservation, rate };
        match self {
            // 800 GRPS of capacity (8 RPNs × 100 generic requests/s); each
            // subscriber offers 70% of its reservation.
            Workload::Reserved => vec![
                sub(250.0, 175.0),
                sub(250.0, 175.0),
                sub(150.0, 105.0),
                sub(150.0, 105.0),
            ],
            // 8 RPNs serve about 2,450 SPECWeb-shaped req/s, so ~4,900
            // req/s is twice capacity. Subscriber 0 offers far above its
            // reservation, subscriber 1 stays below its own.
            Workload::Overload => vec![
                sub(200.0, 2_800.0),
                sub(200.0, 300.0),
                sub(200.0, 900.0),
                sub(200.0, 900.0),
            ],
            // 3,200 GRPS over 32 RPNs split evenly; everyone at 70%. At 80%
            // the fault-driven tail holds about 1% of requests, so the p99
            // swings by a third from seed to seed.
            Workload::ShardedChaos => (0..8).map(|_| sub(400.0, 280.0)).collect(),
        }
    }

    fn params(self) -> ClusterParams {
        match self {
            Workload::Reserved => ClusterParams {
                rpn_count: 8,
                service: ServiceCostModel::generic_requests(),
                lanes: 1,
                ..Default::default()
            },
            Workload::Overload => ClusterParams {
                rpn_count: 8,
                service: ServiceCostModel::static_files(),
                lanes: 1,
                ..Default::default()
            },
            Workload::ShardedChaos => ClusterParams {
                rpn_count: 32,
                rdn_count: 4,
                // Two subscribers homed on each shard.
                shard_overrides: (0..8u32).map(|i| (i, (i % 4) as u16)).collect(),
                service: ServiceCostModel::generic_requests(),
                // Short timeouts so clients of the crashed RDN retry and,
                // when the retry also times out, fail within the drain.
                client_retry: ClientRetryParams {
                    timeout: SimDuration::from_secs(1),
                    max_retries: 1,
                    backoff: 2.0,
                },
                lanes: 1,
                ..Default::default()
            },
        }
    }

    fn plan(self, seed: u64) -> Option<FaultPlan> {
        if self != Workload::ShardedChaos {
            return None;
        }
        let s = SimTime::from_secs;
        let mut plan = FaultPlan::new(seed);
        plan.report_loss(s(3), s(10), 0.25);
        plan.rdn_partition(s(4), s(9), Some(2), 1.0, SimDuration::ZERO);
        plan.rdn_crash_for(s(6), 1, SimDuration::from_secs(4));
        // RPN churn on a fixed schedule: six nodes, one every 2 s, each
        // down for 1.5 s. Drawing them from the seed instead moves the
        // latency quantiles by up to 8% from seed to seed.
        for (i, rpn) in [3u16, 11, 19, 27, 7, 23].into_iter().enumerate() {
            plan.crash_for(s(2 + 2 * i as u64), rpn, SimDuration::from_millis(1_500));
        }
        Some(plan)
    }

    /// Generates the run's inputs: per-subscriber Poisson traces, the
    /// cluster configuration and the fault plan, all from `seed`.
    pub fn generate(self, seed: u64, horizon_secs: u64) -> Inputs {
        let horizon = horizon_secs as f64;
        let sites = self
            .subs()
            .into_iter()
            .enumerate()
            .map(|(i, sub)| {
                let host = format!("s{i}.{}.example.com", self.name().replace('_', "-"));
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1 + i as u64));
                let mut generator: Box<dyn RequestGenerator> = match self {
                    Workload::Overload => Box::new(SpecWebGenerator::for_target_rate(sub.rate)),
                    Workload::Reserved | Workload::ShardedChaos => {
                        Box::new(SyntheticGenerator::new(2_000, 1))
                    }
                };
                let trace = Trace::generate(
                    &host,
                    ArrivalProcess::Poisson { rate: sub.rate },
                    horizon,
                    generator.as_mut(),
                    &mut rng,
                );
                SiteSpec {
                    host,
                    reservation: Grps(sub.reservation),
                    trace,
                }
            })
            .collect();
        Inputs {
            params: self.params(),
            sites,
            sim_seed: TESTBED_SEED,
            plan: self.plan(derive_seed(seed, 200)),
        }
    }
}
