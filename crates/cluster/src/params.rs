//! Cluster calibration parameters.
//!
//! The parts of the paper's testbed no experiment varies are constants:
//! Table 3's per-connection and per-packet costs ([`RDN_COSTS`],
//! [`RPN_COSTS`]), the RDN's interrupt-overload knee of §4.3
//! ([`INTERRUPTS`]) and 100 Mb/s Fast Ethernet links through a
//! contention-free switch ([`NETWORK`]). What experiments do vary lives in
//! [`ClusterParams`], whose defaults model 600 MHz Celeron RPNs serving
//! ~550 static 6 KB requests per second.

use gage_core::config::SchedulerConfig;
use gage_core::scheduler::WATCHDOG_GRACE_CYCLES;
use gage_des::SimDuration;

/// Per-operation costs charged to the RDN's CPU (paper Table 3, columns
/// 1, 3, 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdnCosts {
    /// First-leg TCP setup handled by the handshake emulation, per
    /// connection.
    pub conn_setup_us: f64,
    /// Request classification, per URL packet.
    pub classification_us: f64,
    /// Connection-table lookup + L2 forward, per bridged packet.
    pub forwarding_us: f64,
}

/// The RDN's Table 3 costs.
pub const RDN_COSTS: RdnCosts = RdnCosts {
    conn_setup_us: 29.3,
    classification_us: 3.0,
    forwarding_us: 7.0,
};

/// Per-operation costs charged to an RPN's CPU by the local service manager
/// (paper Table 3, columns 2, 5, 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RpnCosts {
    /// Second-leg TCP setup, per connection.
    pub conn_setup_us: f64,
    /// Address/ACK remap of an incoming packet.
    pub remap_in_us: f64,
    /// Address/sequence remap of an outgoing packet.
    pub remap_out_us: f64,
}

/// The RPN's Table 3 costs.
pub const RPN_COSTS: RpnCosts = RpnCosts {
    conn_setup_us: 27.2,
    remap_in_us: 1.3,
    remap_out_us: 4.6,
};

impl RpnCosts {
    /// Per-request Gage overhead on an RPN: second-leg setup plus the
    /// remapping of `data_packets` outgoing and `ack_packets` incoming
    /// packets. The paper's "5 data-ACK packet pairs" shape gives §4.2's
    /// 56.7 µs.
    pub fn per_request_us(&self, data_packets: u64, ack_packets: u64) -> f64 {
        self.conn_setup_us
            + self.remap_out_us * data_packets as f64
            + self.remap_in_us * ack_packets as f64
    }
}

/// How much a request costs the back-end application to serve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiskPolicy {
    /// Never touches the disk (everything cached).
    None,
    /// Every request performs one I/O of the given channel time — the
    /// *generic request* model (10 ms).
    PerRequest {
        /// Disk channel time per request, µs.
        us: f64,
    },
    /// LRU page cache: misses pay `seek_us` plus transfer at
    /// `transfer_bytes_per_sec`.
    Cache {
        /// Cache capacity in bytes.
        capacity_bytes: u64,
        /// Positioning time per miss, µs.
        seek_us: f64,
        /// Sequential transfer rate, bytes/second.
        transfer_bytes_per_sec: f64,
    },
}

/// Application-level service cost model for one site (or the whole cluster).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCostModel {
    /// Fixed CPU per request (parsing, syscalls, app logic), µs.
    pub base_cpu_us: f64,
    /// CPU per KiB of response (copy/checksum), µs.
    pub per_kib_cpu_us: f64,
    /// Disk behaviour.
    pub disk: DiskPolicy,
}

impl ServiceCostModel {
    /// Static-file workload calibrated so a Celeron-600 RPN sustains
    /// ~550 req/s for 6 KB files (the paper's scalability experiment).
    pub fn static_files() -> Self {
        ServiceCostModel {
            base_cpu_us: 1_490.0,
            per_kib_cpu_us: 55.0,
            disk: DiskPolicy::Cache {
                capacity_bytes: 32 << 20, // half of the RPN's 64 MB
                seek_us: 8_000.0,
                transfer_bytes_per_sec: 20e6,
            },
        }
    }

    /// The *generic request* workload: 10 ms CPU + 10 ms disk per request
    /// (used for Tables 1 and 2, where rates are in GRPS and one RPN
    /// sustains ~100 generic requests/s).
    pub fn generic_requests() -> Self {
        ServiceCostModel {
            base_cpu_us: 10_000.0,
            per_kib_cpu_us: 0.0,
            disk: DiskPolicy::PerRequest { us: 10_000.0 },
        }
    }

    /// CPU time to serve a response of `size_bytes`, µs.
    pub fn cpu_us(&self, size_bytes: u64) -> f64 {
        self.base_cpu_us + self.per_kib_cpu_us * (size_bytes as f64 / 1024.0)
    }
}

/// The RDN's per-packet interrupt-cost model.
///
/// Interrupt handling costs `base_us` per packet at low rates. Past
/// `threshold_pps` the per-packet cost rises steeply (receive-livelock
/// behaviour), producing the utilization knee of §4.3. `overload_exp`
/// controls how sharp the knee is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterruptModel {
    /// Cost per packet at low rate, µs.
    pub base_us: f64,
    /// Packet rate at which overload sets in, packets/second.
    pub threshold_pps: f64,
    /// Exponent of the overload term.
    pub overload_exp: f64,
}

/// The RDN's interrupt model, calibrated to the §4.3 knee.
pub const INTERRUPTS: InterruptModel = InterruptModel {
    base_us: 4.0,
    threshold_pps: 49_500.0,
    overload_exp: 20.0,
};

impl InterruptModel {
    /// Per-packet interrupt cost at the given sustained packet rate, µs.
    pub fn cost_us(&self, rate_pps: f64) -> f64 {
        if rate_pps <= 0.0 {
            return self.base_us;
        }
        let x = rate_pps / self.threshold_pps;
        self.base_us * (1.0 + x.powf(self.overload_exp))
    }
}

/// Network propagation/forwarding parameters (the switch fabric itself is
/// contention-free, per the paper's testbed note).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// One-way per-hop latency, including switch forwarding.
    pub hop_latency: SimDuration,
    /// RPN NIC egress bandwidth, bytes/second (Fast Ethernet).
    pub rpn_egress_bytes_per_sec: f64,
    /// TCP maximum segment size used to count response packets.
    pub mss: usize,
}

/// The testbed's Fast Ethernet links.
pub const NETWORK: NetworkParams = NetworkParams {
    hop_latency: SimDuration::from_micros(100),
    rpn_egress_bytes_per_sec: 12.5e6,
    mss: 1460,
};

/// Client-side request timeout and bounded deterministic-backoff retry.
///
/// Every issued request must terminally resolve as served, dropped, or
/// **failed**: if no response (or RST) arrives within
/// `timeout * backoff^attempt`, the client abandons the connection and —
/// while attempts remain — reissues the request on a fresh connection.
/// After `max_retries` retries the request is counted in the `failed`
/// conservation bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientRetryParams {
    /// Base response timeout for the first attempt.
    pub timeout: SimDuration,
    /// Retries after the initial attempt (0 = fail on first timeout).
    pub max_retries: u32,
    /// Multiplier applied to the timeout per attempt (deterministic
    /// exponential backoff; 1.0 = constant timeout).
    pub backoff: f64,
}

impl Default for ClientRetryParams {
    fn default() -> Self {
        ClientRetryParams {
            // Generously above any healthy-cluster queueing delay so the
            // timeout path only fires under faults.
            timeout: SimDuration::from_secs(10),
            max_retries: 2,
            backoff: 2.0,
        }
    }
}

/// Whether the QoS layer is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GageMode {
    /// Full Gage: classification, queues, scheduling, accounting, splicing.
    Enabled,
    /// Baseline "without Gage": the front end dispatches immediately
    /// round-robin, no QoS bookkeeping, no per-request Gage overhead on the
    /// RPNs (the paper's 550.5 req/s comparison point).
    Bypass,
}

/// Configuration of CGI-style dynamic request handling.
///
/// The paper highlights that per-process accounting "automatically works
/// for CGI programs without any additional mechanisms": each dynamic
/// request forks a child of the subscriber's worker, burns extra CPU, and
/// its usage rolls up to the charging entity through the process tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicRequests {
    /// Requests whose path starts with this prefix are dynamic.
    pub path_prefix: String,
    /// CPU multiplier relative to the static cost model.
    pub cpu_multiplier: f64,
}

impl Default for DynamicRequests {
    fn default() -> Self {
        DynamicRequests {
            path_prefix: "/cgi/".to_string(),
            cpu_multiplier: 5.0,
        }
    }
}

/// Everything needed to instantiate a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Number of back-end RPNs.
    pub rpn_count: usize,
    /// Number of peer front-end RDNs. Each owns a disjoint subscriber
    /// shard (see [`ClusterParams::shard_of`]); peers exchange usage
    /// accounting over the simulated network and adopt a dead peer's
    /// shard after the watchdog grace. `1` (the default) reproduces the
    /// paper's single-RDN front end exactly.
    pub rdn_count: usize,
    /// Explicit shard-map overrides: `(subscriber index, shard)` pairs
    /// consulted before the hash. Out-of-range shards panic at
    /// construction (configuration error).
    pub shard_overrides: Vec<(u32, u16)>,
    /// QoS layer on or off.
    pub mode: GageMode,
    /// Scheduler tunables (scheduling cycle, spare policy, …).
    pub scheduler: SchedulerConfig,
    /// Accounting cycle: how often each RPN reports usage (paper Figure 3
    /// sweeps 50 ms – 2 s).
    pub accounting_cycle: SimDuration,
    /// Application service costs.
    pub service: ServiceCostModel,
    /// RPN CPU speed relative to the reference Celeron 600 (1.0 = paper
    /// testbed).
    pub rpn_speed: f64,
    /// Secondary RDNs in an asymmetric front-end cluster (paper §3): they
    /// shoulder the TCP handshake emulation, leaving the primary with
    /// classification, scheduling and forwarding. 0 = primary does it all.
    pub secondary_rdns: usize,
    /// Optional CGI-style dynamic request handling.
    pub dynamic: Option<DynamicRequests>,
    /// Report-watchdog grace window, in accounting cycles: a node whose
    /// last report is older than `watchdog_grace_cycles * accounting_cycle`
    /// is written off (scheduler stops dispatching to it) until a report
    /// arrives again. The default is gage-core's
    /// [`WATCHDOG_GRACE_CYCLES`], which `gage-rt` uses too.
    pub watchdog_grace_cycles: f64,
    /// Client-side timeout/retry policy (the `failed` conservation bucket).
    pub client_retry: ClientRetryParams,
    /// Has no effect: every RPN serves each request as it arrives,
    /// whatever the value. The field remains only because the `simbench`
    /// benchmark still sets it.
    pub lanes: usize,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            rpn_count: 8,
            rdn_count: 1,
            shard_overrides: Vec::new(),
            mode: GageMode::Enabled,
            scheduler: SchedulerConfig::default(),
            accounting_cycle: SimDuration::from_millis(100),
            service: ServiceCostModel::static_files(),
            rpn_speed: 1.0,
            secondary_rdns: 0,
            dynamic: None,
            watchdog_grace_cycles: WATCHDOG_GRACE_CYCLES,
            client_retry: ClientRetryParams::default(),
            lanes: 1,
        }
    }
}

impl ClusterParams {
    /// How long a silent node or a dead front end is given before the
    /// watchdog writes it off: `watchdog_grace_cycles` accounting cycles.
    pub fn watchdog_grace(&self) -> SimDuration {
        self.accounting_cycle.mul_f64(self.watchdog_grace_cycles)
    }

    /// The home shard of subscriber `sub`: the explicit override when one
    /// exists, otherwise a splitmix64-style hash of the subscriber index
    /// modulo [`ClusterParams::rdn_count`] (consistent-hash flavour: the
    /// map depends only on `(sub, rdn_count)`, never on registration
    /// order, so it is stable across runs and identical on every peer).
    pub fn shard_of(&self, sub: u32) -> u16 {
        if let Some((_, shard)) = self.shard_overrides.iter().find(|(s, _)| *s == sub) {
            return *shard;
        }
        if self.rdn_count <= 1 {
            return 0;
        }
        let mut z = u64::from(sub).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % self.rdn_count as u64) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_defaults() {
        assert_eq!(RDN_COSTS.conn_setup_us, 29.3);
        assert_eq!(RDN_COSTS.classification_us, 3.0);
        assert_eq!(RDN_COSTS.forwarding_us, 7.0);
        assert_eq!(RPN_COSTS.conn_setup_us, 27.2);
        assert_eq!(RPN_COSTS.remap_in_us, 1.3);
        assert_eq!(RPN_COSTS.remap_out_us, 4.6);
    }

    #[test]
    fn paper_56_7us_overhead() {
        // 5 data-ACK pairs: 5 outgoing remaps + 5 incoming remaps + setup.
        let overhead = RPN_COSTS.per_request_us(5, 5);
        assert!((overhead - 56.7).abs() < 1e-9, "got {overhead}");
    }

    #[test]
    fn static_file_rate_calibration() {
        // 6 KB request ≈ 1.82 ms CPU → ~550 req/s on one RPN.
        let m = ServiceCostModel::static_files();
        let cpu = m.cpu_us(6 * 1024);
        let rate = 1e6 / cpu;
        assert!((540.0..=560.0).contains(&rate), "rate {rate:.1}");
    }

    #[test]
    fn generic_request_is_10ms_10ms() {
        let m = ServiceCostModel::generic_requests();
        assert_eq!(m.cpu_us(2_000), 10_000.0);
        assert!(matches!(m.disk, DiskPolicy::PerRequest { us } if us == 10_000.0));
    }

    #[test]
    fn shard_map_is_stable_and_overridable() {
        let mut p = ClusterParams {
            rdn_count: 4,
            ..Default::default()
        };
        // Deterministic: same input, same shard; all shards in range.
        for sub in 0..64u32 {
            let s = p.shard_of(sub);
            assert_eq!(s, p.shard_of(sub));
            assert!((s as usize) < p.rdn_count);
        }
        // The hash actually spreads subscribers across shards.
        let mut seen = [false; 4];
        for sub in 0..64u32 {
            seen[p.shard_of(sub) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 subs cover all 4 shards");
        // Overrides beat the hash.
        p.shard_overrides.push((5, 3));
        assert_eq!(p.shard_of(5), 3);
        // One RDN: everything is shard 0.
        let single = ClusterParams::default();
        assert_eq!(single.shard_of(123), 0);
    }

    #[test]
    fn interrupt_knee_shape() {
        let base = INTERRUPTS.base_us;
        let low = INTERRUPTS.cost_us(10_000.0);
        let at = INTERRUPTS.cost_us(49_500.0);
        let high = INTERRUPTS.cost_us(90_000.0);
        assert!(low < 1.1 * base);
        assert!((at - 2.0 * base).abs() < 1e-9, "doubles at threshold");
        assert!(high > 10.0 * base, "blows up past threshold");
    }
}
