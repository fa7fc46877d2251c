//! Open-loop arrival processes.
//!
//! The paper's clients issue requests at a *constant* rate regardless of
//! completions (the Banga–Druschel load-generation method), which is what
//! exposes overload behaviour. Poisson and on-off variants are provided for
//! the robustness experiments.

use rand::Rng;

/// How request arrivals are spaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Exactly `rate` arrivals per second, evenly spaced (the paper's
    /// method).
    Constant {
        /// Arrivals per second.
        rate: f64,
    },
    /// Poisson arrivals with mean `rate` per second.
    Poisson {
        /// Mean arrivals per second.
        rate: f64,
    },
    /// Alternating bursts: `on_rate` arrivals/s for `on_secs`, then silence
    /// for `off_secs`.
    OnOff {
        /// Rate while on.
        on_rate: f64,
        /// Burst length in seconds.
        on_secs: f64,
        /// Gap length in seconds.
        off_secs: f64,
    },
}

impl ArrivalProcess {
    /// Long-run mean arrival rate (per second).
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Constant { rate } | ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::OnOff {
                on_rate,
                on_secs,
                off_secs,
            } => on_rate * on_secs / (on_secs + off_secs),
        }
    }

    /// Generates all arrival instants in `[0, horizon_secs)`, in seconds.
    ///
    /// Deterministic for `Constant` and `OnOff`; randomized for `Poisson`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_secs` or any rate, burst length or gap length is
    /// NaN or infinite; the message names the field. Such an input would
    /// otherwise never stop producing arrivals.
    pub fn arrivals<R: Rng + ?Sized>(&self, horizon_secs: f64, rng: &mut R) -> Vec<f64> {
        let finite =
            |field: &str, v: f64| assert!(v.is_finite(), "{field} must be finite, got {v}");
        finite("horizon_secs", horizon_secs);
        let mut out = Vec::new();
        match *self {
            ArrivalProcess::Constant { rate } => {
                finite("rate", rate);
                if rate <= 0.0 {
                    return out;
                }
                // Index-based to avoid floating-point drift at boundaries.
                let n = (horizon_secs * rate).ceil() as u64;
                for i in 0..n {
                    let t = i as f64 / rate;
                    if t < horizon_secs {
                        out.push(t);
                    }
                }
            }
            ArrivalProcess::Poisson { rate } => {
                finite("rate", rate);
                if rate <= 0.0 {
                    return out;
                }
                let mut t = 0.0;
                loop {
                    let u: f64 = rng.gen();
                    t += -(1.0 - u).ln() / rate;
                    if t >= horizon_secs {
                        break;
                    }
                    out.push(t);
                }
            }
            ArrivalProcess::OnOff {
                on_rate,
                on_secs,
                off_secs,
            } => {
                finite("on_rate", on_rate);
                finite("on_secs", on_secs);
                finite("off_secs", off_secs);
                if on_rate <= 0.0 || on_secs <= 0.0 {
                    return out;
                }
                let period = on_secs + off_secs;
                let per_burst = (on_secs * on_rate).ceil() as u64;
                let mut cycle = 0u64;
                loop {
                    let cycle_start = cycle as f64 * period;
                    if cycle_start >= horizon_secs {
                        break;
                    }
                    for i in 0..per_burst {
                        let t = cycle_start + i as f64 / on_rate;
                        if t < (cycle_start + on_secs).min(horizon_secs)
                            && t - cycle_start < on_secs
                        {
                            out.push(t);
                        }
                    }
                    cycle += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_rate_spacing() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = ArrivalProcess::Constant { rate: 100.0 }.arrivals(1.0, &mut rng);
        assert_eq!(a.len(), 100);
        assert!((a[1] - a[0] - 0.01).abs() < 1e-12);
        assert!(a.last().unwrap() < &1.0);
    }

    #[test]
    fn poisson_mean_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = ArrivalProcess::Poisson { rate: 200.0 }.arrivals(50.0, &mut rng);
        let n = a.len() as f64;
        assert!((n - 10_000.0).abs() < 400.0, "got {n} arrivals");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn onoff_duty_cycle() {
        let mut rng = StdRng::seed_from_u64(0);
        let p = ArrivalProcess::OnOff {
            on_rate: 100.0,
            on_secs: 1.0,
            off_secs: 1.0,
        };
        let a = p.arrivals(4.0, &mut rng);
        assert_eq!(a.len(), 200, "two on-periods of 100");
        assert!((p.mean_rate() - 50.0).abs() < 1e-12);
        // No arrivals during off windows.
        assert!(a.iter().all(|&t| (t % 2.0) < 1.0 + 1e-9));
    }

    #[test]
    fn zero_rate_is_silent() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(ArrivalProcess::Constant { rate: 0.0 }
            .arrivals(10.0, &mut rng)
            .is_empty());
        assert!(ArrivalProcess::Poisson { rate: 0.0 }
            .arrivals(10.0, &mut rng)
            .is_empty());
    }

    fn arrivals(process: ArrivalProcess, horizon_secs: f64) -> Vec<f64> {
        process.arrivals(horizon_secs, &mut StdRng::seed_from_u64(0))
    }

    #[test]
    #[should_panic(expected = "rate must be finite, got NaN")]
    fn nan_poisson_rate_rejected() {
        let rate = f64::NAN;
        arrivals(ArrivalProcess::Poisson { rate }, 1.0);
    }

    #[test]
    #[should_panic(expected = "rate must be finite, got inf")]
    fn infinite_poisson_rate_rejected() {
        let rate = f64::INFINITY;
        arrivals(ArrivalProcess::Poisson { rate }, 1.0);
    }

    #[test]
    #[should_panic(expected = "rate must be finite, got inf")]
    fn infinite_constant_rate_rejected() {
        let rate = f64::INFINITY;
        arrivals(ArrivalProcess::Constant { rate }, 1.0);
    }

    #[test]
    #[should_panic(expected = "horizon_secs must be finite, got NaN")]
    fn nan_poisson_horizon_rejected() {
        arrivals(ArrivalProcess::Poisson { rate: 10.0 }, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "horizon_secs must be finite, got NaN")]
    fn nan_onoff_horizon_rejected() {
        let p = ArrivalProcess::OnOff {
            on_rate: 10.0,
            on_secs: 1.0,
            off_secs: 1.0,
        };
        arrivals(p, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "on_secs must be finite, got inf")]
    fn infinite_burst_length_rejected() {
        let p = ArrivalProcess::OnOff {
            on_rate: 10.0,
            on_secs: f64::INFINITY,
            off_secs: 1.0,
        };
        arrivals(p, 5.0);
    }

    #[test]
    fn mean_rates() {
        assert_eq!(ArrivalProcess::Constant { rate: 9.0 }.mean_rate(), 9.0);
        assert_eq!(ArrivalProcess::Poisson { rate: 3.0 }.mean_rate(), 3.0);
    }
}
