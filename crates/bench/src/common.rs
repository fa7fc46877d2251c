//! Shared plumbing for the experiment harnesses.

use gage_cluster::params::ClusterParams;
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_core::resource::Grps;
use gage_des::SimTime;
use gage_workload::{ArrivalProcess, RequestGenerator, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default seed used by the binaries (results are deterministic per seed).
pub const DEFAULT_SEED: u64 = 20030519; // ICDCS 2003 conference dates

/// Builds a constant-rate synthetic site (the paper's workload for Tables
/// 1–2: requests shaped like generic requests with 2 KB responses).
pub fn generic_site(host: &str, reservation: f64, rate: f64, horizon: f64, seed: u64) -> SiteSpec {
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

/// Builds a constant-rate site with an arbitrary request generator.
pub fn site_with_generator<G: RequestGenerator>(
    host: &str,
    reservation: f64,
    rate: f64,
    horizon: f64,
    generator: &mut G,
    seed: u64,
) -> SiteSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    SiteSpec {
        host: host.to_string(),
        reservation: Grps(reservation),
        trace: Trace::generate(
            host,
            ArrivalProcess::Constant { rate },
            horizon,
            generator,
            &mut rng,
        ),
    }
}

/// Runs a cluster for `horizon_secs` and reports over the second half
/// (skipping warm-up and the final ramp-down window).
pub fn run_and_report(
    params: ClusterParams,
    sites: Vec<SiteSpec>,
    horizon_secs: u64,
    seed: u64,
) -> (ClusterSim, gage_cluster::ClusterReport) {
    let mut sim = ClusterSim::new(params, sites, seed);
    sim.run_until(SimTime::from_secs(horizon_secs));
    let report = sim.report(
        SimTime::from_secs(horizon_secs / 2),
        SimTime::from_secs(horizon_secs - 2),
    );
    (sim, report)
}

/// Renders rows as a fixed-width table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("{:>w$}  ", h, w = widths[i]));
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        out.push_str(&"-".repeat(widths[i]));
        out.push_str("  ");
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", cell, w = widths[i]));
        }
        out.push('\n');
    }
    out
}

/// Asserts that `rendered` is byte-identical to `golden`, the committed
/// text of `crates/bench/golden/<file>`. Each harness pins its seed-7
/// rendering this way, so a refactor cannot drift inside the loose shape
/// bounds its test also checks.
#[cfg(test)]
pub(crate) fn assert_golden(rendered: &str, golden: &str, file: &str) {
    assert!(
        rendered == golden,
        "the rendering drifted from crates/bench/golden/{file}; if the change is \
         intentional, replace that file with this text:\n{rendered}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["Site", "Served"],
            &[
                vec!["site1".into(), "259.4".into()],
                vec!["longer-name".into(), "1.0".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("longer-name"));
        // All rows the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn generic_site_rate() {
        let s = generic_site("x.com", 100.0, 50.0, 2.0, 1);
        assert_eq!(s.trace.len(), 100);
        assert_eq!(s.reservation, Grps(100.0));
    }
}
