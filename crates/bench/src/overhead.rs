//! §4.2 — overhead analysis: the per-request cost of QoS support and its
//! share of an RPN's CPU at the sustained service rate (the paper's
//! 56.7 µs × 540 req/s ≈ 3.06 % result).

use gage_cluster::params::RPN_COSTS;

use crate::scalability;

/// The overhead analysis results.
#[derive(Debug, Clone, PartialEq)]
pub struct Overhead {
    /// Per-request Gage cost on an RPN (second-leg setup + remaps), µs.
    pub per_request_us: f64,
    /// Sustained per-RPN service rate with Gage, req/s.
    pub sustained_rate: f64,
    /// Overhead as a fraction of one RPN's CPU, percent.
    pub cpu_pct: f64,
    /// Measured throughput penalty vs. the no-Gage baseline, percent.
    pub throughput_penalty_pct: f64,
}

/// Computes the analysis (runs the 1-RPN saturation experiments).
pub fn run(seed: u64) -> Overhead {
    // The paper's request shape: 5 data-ACK packet pairs.
    let per_request_us = RPN_COSTS.per_request_us(5, 5);

    let s = scalability::run_one_rpn_pair(seed);
    let sustained_rate = s.0;
    let baseline = s.1;
    let cpu_pct = per_request_us * sustained_rate / 1e6 * 100.0;
    let throughput_penalty_pct = 100.0 * (baseline - sustained_rate) / baseline;
    Overhead {
        per_request_us,
        sustained_rate,
        cpu_pct,
        throughput_penalty_pct,
    }
}

/// Renders the analysis.
pub fn render(o: &Overhead) -> String {
    format!(
        "per-request Gage overhead on an RPN: {:.1} µs (paper: 56.7 µs)\n\
         sustained per-RPN rate with Gage:    {:.1} req/s (paper: 540)\n\
         QoS overhead share of RPN CPU:       {:.2}% (paper: 3.06%)\n\
         throughput penalty vs. no-Gage:      {:.1}% (paper: 1.8%)\n",
        o.per_request_us, o.sustained_rate, o.cpu_pct, o.throughput_penalty_pct
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_a_few_percent() {
        let o = run(7);
        crate::common::assert_golden(
            &render(&o),
            include_str!("../golden/overhead.txt"),
            "overhead.txt",
        );
        assert!((o.per_request_us - 56.7).abs() < 1e-9);
        assert!(
            (2.0..=4.0).contains(&o.cpu_pct),
            "CPU share {:.2}%",
            o.cpu_pct
        );
        assert!(
            (0.5..=6.0).contains(&o.throughput_penalty_pct),
            "penalty {:.1}%",
            o.throughput_penalty_pct
        );
    }
}
