//! A dependency-free micro-benchmark loop for the `harness = false`
//! benches: calibrated batch sizing, median-of-samples reporting.

use std::time::{Duration, Instant};

/// One benchmark's timing summary, nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Benchmark name.
    pub name: String,
    /// Median over the sample batches.
    pub median_ns: f64,
    /// Mean over the sample batches.
    pub mean_ns: f64,
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<24} median {:>10.1} ns/iter   mean {:>10.1} ns/iter",
            self.name, self.median_ns, self.mean_ns
        )
    }
}

/// Times `op` (called repeatedly) and prints + returns a [`Timing`].
///
/// The batch size is calibrated so one batch takes roughly a millisecond,
/// then `SAMPLES` batches are measured and summarized.
#[expect(
    clippy::print_stdout,
    reason = "the harness = false benches report through this one line"
)]
pub fn time_it<F, R>(name: &str, mut op: F) -> Timing
where
    F: FnMut() -> R,
{
    const SAMPLES: usize = 30;
    // Calibrate: grow the batch until it takes >= ~1 ms.
    let mut batch: u64 = 1;
    loop {
        let started = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(op());
        }
        let took = started.elapsed();
        if took >= Duration::from_millis(1) || batch >= 1 << 24 {
            break;
        }
        batch *= 4;
    }
    let mut per_iter: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(op());
            }
            started.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let median_ns = per_iter[per_iter.len() / 2];
    let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    let t = Timing {
        name: name.to_string(),
        median_ns,
        mean_ns,
    };
    println!("{t}");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_positive_timings() {
        let t = time_it("noop_add", || std::hint::black_box(1u64) + 1);
        assert!(t.median_ns > 0.0);
        assert!(t.mean_ns > 0.0);
    }
}
