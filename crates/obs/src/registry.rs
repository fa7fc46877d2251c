//! The live metrics registry: named counters, gauges and histograms with
//! deterministic, insertion-ordered export.
//!
//! Subsystems publish into a [`Registry`] by name; the registry renders the
//! whole set as a `gage-json` snapshot (schema [`METRICS_SCHEMA`]) or a
//! human-readable table. Entries live in a `Vec` keyed by linear scan —
//! metric counts are tens, not thousands, and insertion order makes the
//! export byte-stable across same-seed runs (no hash-map iteration).

use std::fmt::Write as _;

use gage_json::Json;

/// Schema tag stamped into every metrics snapshot.
pub const METRICS_SCHEMA: &str = "gage-metrics-v1";

/// Power-of-two histogram buckets; values above `2^(BUCKETS-2)` land in the
/// final overflow bucket.
const BUCKETS: usize = 32;

/// A log2-bucketed histogram of non-negative samples.
///
/// Bucket `i` counts samples `v` with `2^(i-1) < v <= 2^i` (bucket 0 takes
/// everything `<= 1`). Alongside the buckets it tracks exact count, sum,
/// min and max, so means are exact and quantiles are bucket-approximate.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one sample; negative or NaN samples are clamped to zero.
    pub fn observe(&mut self, value: f64) {
        let v = if value.is_finite() && value > 0.0 {
            value
        } else {
            0.0
        };
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = if v <= 1.0 {
            0
        } else {
            (v.log2().ceil() as usize).min(BUCKETS - 1)
        };
        self.buckets[idx] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample, or zero before the first observation.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, or zero before the first observation.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or zero before the first observation.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The raw log2 bucket counts. Bucket `i` counts samples in
    /// `(2^(i-1), 2^i]`; bucket 0 takes everything `<= 1`.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Bucket-estimated quantile `q` (clamped to `[0, 1]`).
    ///
    /// Walks the fixed log2 buckets to the one containing the rank
    /// `ceil(q * count)` sample and interpolates linearly inside it, then
    /// clamps the estimate to the exact observed `[min, max]`. Entirely a
    /// function of the bucket counts — same samples, same answer, on any
    /// platform — which is what lets same-seed snapshots stay
    /// byte-identical.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let lo = if i == 0 { 0.0 } else { 2f64.powi(i as i32 - 1) };
                let hi = 2f64.powi(i as i32);
                let frac = (rank - cum) as f64 / c as f64;
                return (lo + frac * (hi - lo)).clamp(self.min(), self.max());
            }
            cum += c;
        }
        self.max()
    }

    /// Median estimate (see [`Histogram::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (see [`Histogram::quantile`]).
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (see [`Histogram::quantile`]).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    fn to_json(&self) -> Json {
        // Buckets export as (upper_bound, count) pairs for the non-empty
        // ones only, keeping snapshots compact.
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                Json::obj([
                    ("le", Json::from(2f64.powi(i as i32))),
                    ("count", Json::from(*c)),
                ])
            })
            .collect();
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("min", Json::from(self.min())),
            ("max", Json::from(self.max())),
            ("mean", Json::from(self.mean())),
            ("p50", Json::from(self.p50())),
            ("p95", Json::from(self.p95())),
            ("p99", Json::from(self.p99())),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Counter(u64),
    Gauge(f64),
    // Boxed: a histogram's fixed bucket array dwarfs the other variants.
    Histogram(Box<Histogram>),
}

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    name: String,
    value: Value,
}

/// An insertion-ordered set of named metrics.
///
/// ```rust
/// use gage_obs::Registry;
///
/// let mut reg = Registry::new();
/// reg.set_counter("conn.lookups", 120);
/// reg.inc_counter("conn.lookups", 3);
/// reg.set_gauge("rdn.cpu_util", 0.97);
/// reg.observe("rpn.load_pct", 42.0);
/// assert_eq!(reg.counter("conn.lookups"), Some(123));
/// let snap = reg.snapshot_json().to_string();
/// assert!(snap.contains("\"schema\":\"gage-metrics-v1\""));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    entries: Vec<Entry>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn entry_mut(&mut self, name: &str) -> Option<&mut Entry> {
        self.entries.iter_mut().find(|e| e.name == name)
    }

    fn entry(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.name == name)
    }

    fn upsert(&mut self, name: &str, value: Value) {
        match self.entry_mut(name) {
            Some(e) => e.value = value,
            None => self.entries.push(Entry {
                name: name.to_string(),
                value,
            }),
        }
    }

    /// Sets (or registers) a counter to an absolute value.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.upsert(name, Value::Counter(value));
    }

    /// Adds to a counter, registering it at `delta` if absent. If `name`
    /// currently holds a different metric kind it is reset to a counter.
    pub fn inc_counter(&mut self, name: &str, delta: u64) {
        match self.entry_mut(name) {
            Some(Entry {
                value: Value::Counter(c),
                ..
            }) => *c += delta,
            _ => self.upsert(name, Value::Counter(delta)),
        }
    }

    /// Sets (or registers) a gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.upsert(name, Value::Gauge(value));
    }

    /// Records a histogram sample, registering the histogram if absent. If
    /// `name` currently holds a different metric kind it is reset to a
    /// fresh histogram first.
    pub fn observe(&mut self, name: &str, value: f64) {
        match self.entry_mut(name) {
            Some(Entry {
                value: Value::Histogram(h),
                ..
            }) => h.observe(value),
            _ => {
                let mut h = Histogram::default();
                h.observe(value);
                self.upsert(name, Value::Histogram(Box::new(h)));
            }
        }
    }

    /// Installs (or replaces) a prebuilt histogram under `name`.
    ///
    /// Used by exporters that accumulate histograms elsewhere (e.g. the
    /// per-subscriber latency histograms inside `SubscriberMetrics`) and
    /// publish them wholesale at snapshot time.
    pub fn set_histogram(&mut self, name: &str, histogram: Histogram) {
        self.upsert(name, Value::Histogram(Box::new(histogram)));
    }

    /// Reads back a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entry(name)?.value {
            Value::Counter(c) => Some(c),
            _ => None,
        }
    }

    /// Reads back a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.entry(name)?.value {
            Value::Gauge(g) => Some(g),
            _ => None,
        }
    }

    /// Reads back a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match &self.entry(name)?.value {
            Value::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the registry as one JSON object. Metrics appear in
    /// registration order, so same-seed runs snapshot byte-identically.
    pub fn snapshot_json(&self) -> Json {
        let metrics: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                let (kind, value) = match &e.value {
                    Value::Counter(c) => ("counter", Json::from(*c)),
                    Value::Gauge(g) => ("gauge", Json::from(*g)),
                    Value::Histogram(h) => ("histogram", h.to_json()),
                };
                Json::obj([
                    ("name", Json::str(e.name.clone())),
                    ("kind", Json::str(kind)),
                    ("value", value),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::str(METRICS_SCHEMA)),
            ("metrics", Json::Arr(metrics)),
        ])
    }

    /// Renders the registry as an aligned human-readable table.
    pub fn to_table(&self) -> String {
        let width = self
            .entries
            .iter()
            .map(|e| e.name.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let mut out = String::new();
        let _ = writeln!(out, "{:<width$}  {:>9}  value", "metric", "kind");
        for e in &self.entries {
            match &e.value {
                Value::Counter(c) => {
                    let _ = writeln!(out, "{:<width$}  {:>9}  {}", e.name, "counter", c);
                }
                Value::Gauge(g) => {
                    let _ = writeln!(out, "{:<width$}  {:>9}  {:.4}", e.name, "gauge", g);
                }
                Value::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{:<width$}  {:>9}  n={} mean={:.3} min={:.3} max={:.3} \
                         p50={:.3} p95={:.3} p99={:.3}",
                        e.name,
                        "histogram",
                        h.count(),
                        h.mean(),
                        h.min(),
                        h.max(),
                        h.p50(),
                        h.p95(),
                        h.p99(),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut reg = Registry::new();
        reg.set_counter("a", 7);
        reg.inc_counter("a", 3);
        reg.inc_counter("fresh", 2);
        reg.set_gauge("g", 0.5);
        assert_eq!(reg.counter("a"), Some(10));
        assert_eq!(reg.counter("fresh"), Some(2));
        assert_eq!(reg.gauge("g"), Some(0.5));
        assert_eq!(reg.counter("g"), None, "kind-checked accessors");
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0.5, 1.0, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 104.5).abs() < 1e-9);
        assert!((h.mean() - 26.125).abs() < 1e-9);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 100.0);
        // 0.5 and 1.0 share bucket 0; 3.0 -> 2^2; 100 -> 2^7.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[7], 1);
        // Hostile samples clamp rather than corrupt.
        h.observe(f64::NAN);
        h.observe(-4.0);
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn quantiles_are_bucket_accurate_and_deterministic() {
        // Empty histogram: all quantiles are zero.
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);

        // Single value: every quantile collapses to it (min/max clamp).
        let mut h = Histogram::default();
        h.observe(10.0);
        assert_eq!(h.p50(), 10.0);
        assert_eq!(h.p99(), 10.0);

        // 1..=100: p50 lands in the 2^6 bucket (33..=64 -> 32 samples),
        // p95/p99 in the 2^7 bucket. The estimate must sit inside the
        // containing bucket's range and respect ordering.
        let mut h = Histogram::default();
        for v in 1..=100 {
            h.observe(v as f64);
        }
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!((32.0..=64.0).contains(&p50), "p50={p50}");
        assert!((64.0..=100.0).contains(&p95), "p95={p95}");
        assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max());
        // Same samples in a different order: identical estimates.
        let mut h2 = Histogram::default();
        for v in (1..=100).rev() {
            h2.observe(v as f64);
        }
        assert_eq!(h2.p50(), p50);
        assert_eq!(h2.p95(), p95);
        assert_eq!(h2.p99(), p99);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn set_histogram_installs_prebuilt() {
        let mut h = Histogram::default();
        for v in [2.0, 4.0, 8.0] {
            h.observe(v);
        }
        let mut reg = Registry::new();
        reg.set_histogram("sub0.latency_ms", h.clone());
        assert_eq!(reg.histogram("sub0.latency_ms"), Some(&h));
        let text = reg.snapshot_json().to_string();
        assert!(text.contains("\"p50\":"), "snapshot carries quantiles");
        assert!(text.contains("\"buckets\":["), "snapshot carries buckets");
        assert!(reg.to_table().contains("p95="));
    }

    #[test]
    fn snapshot_is_ordered_and_parses() {
        let mut reg = Registry::new();
        reg.set_gauge("zebra", 1.0);
        reg.set_counter("apple", 2);
        reg.observe("mango", 8.0);
        let text = reg.snapshot_json().to_string();
        let v = gage_json::parse(&text).expect("snapshot parses");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some(METRICS_SCHEMA));
        let names: Vec<&str> = v
            .get("metrics")
            .and_then(Json::as_array)
            .expect("metrics array")
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, vec!["zebra", "apple", "mango"], "insertion order");
    }

    #[test]
    fn table_lists_every_metric() {
        let mut reg = Registry::new();
        reg.set_counter("conn.purged", 4);
        reg.set_gauge("rdn.cpu_util", 0.875);
        reg.observe("rpn.load_pct", 55.0);
        let table = reg.to_table();
        assert!(table.contains("conn.purged"));
        assert!(table.contains("0.8750"));
        assert!(table.contains("n=1"));
    }
}
