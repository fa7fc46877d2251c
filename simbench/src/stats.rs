//! Small statistics helpers: medians and quantiles of wall-clock samples,
//! quantiles of pooled log2 histograms, and the run digest.

use gage_obs::Histogram;

/// Median of `values` (mean of the two middle values for an even count);
/// zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values`; zero for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Several [`Histogram`]s merged bucket by bucket, so a quantile can be
/// taken over their union (per-subscriber latencies pooled across
/// subscribers, per-RPN loads pooled across samples).
#[derive(Debug, Clone, PartialEq)]
pub struct Pooled {
    count: u64,
    min: f64,
    max: f64,
    buckets: Vec<u64>,
}

impl Pooled {
    /// Merges `hists`.
    pub fn new<'a>(hists: impl IntoIterator<Item = &'a Histogram>) -> Pooled {
        let mut pooled = Pooled {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        };
        for h in hists.into_iter().filter(|h| h.count() > 0) {
            pooled.count += h.count();
            pooled.min = pooled.min.min(h.min());
            pooled.max = pooled.max.max(h.max());
            pooled
                .buckets
                .resize(pooled.buckets.len().max(h.buckets().len()), 0);
            for (sum, c) in pooled.buckets.iter_mut().zip(h.buckets()) {
                *sum += c;
            }
        }
        pooled
    }

    /// Samples in the union.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Quantile `q` of the union, estimated exactly as
    /// [`Histogram::quantile`] estimates it for one histogram: find the
    /// log2 bucket holding rank `ceil(q × count)`, interpolate linearly
    /// inside it and clamp to the observed range.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && cum + c >= rank {
                let lo = if i == 0 { 0.0 } else { 2f64.powi(i as i32 - 1) };
                let hi = 2f64.powi(i as i32);
                let frac = (rank - cum) as f64 / c as f64;
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }
}

/// FNV-1a over `text`: a stable fingerprint of a run's report and
/// registry snapshot.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn one_pooled_histogram_matches_its_own_quantiles() {
        let mut h = Histogram::default();
        for v in [0.5, 3.0, 7.0, 7.5, 12.0, 40.0, 41.0, 300.0] {
            h.observe(v);
        }
        let pooled = Pooled::new([&h]);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(pooled.quantile(q), h.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn pooling_equals_observing_into_one_histogram() {
        let (mut a, mut b, mut both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for i in 0..200 {
            let v = f64::from(i) * 1.7;
            if i % 3 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            both.observe(v);
        }
        let pooled = Pooled::new([&a, &b]);
        assert_eq!(pooled.count(), 200);
        for q in [0.5, 0.99] {
            assert_eq!(pooled.quantile(q), both.quantile(q));
        }
    }
}
