//! Multi-resource usage vectors and the *generic request* accounting unit.
//!
//! Gage's QoS metric is the **generic request per second (GRPS)**: one
//! generic URL request is defined (paper §3.1) to consume 10 ms of CPU time,
//! 10 ms of disk channel time and 2,000 bytes of network bandwidth. All
//! balances, reservations, predictions and usage reports in the scheduler
//! are three-dimensional [`ResourceVector`]s in those units.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// CPU time one generic request consumes, in microseconds.
pub const GENERIC_CPU_US: f64 = 10_000.0;
/// Disk channel time one generic request consumes, in microseconds.
pub const GENERIC_DISK_US: f64 = 10_000.0;
/// Network bandwidth one generic request consumes, in bytes.
pub const GENERIC_NET_BYTES: f64 = 2_000.0;

/// A quantity of the three resources Gage accounts for. Components may be
/// negative (balances go into debt when actual usage exceeds credit).
///
/// ```rust
/// use gage_core::resource::ResourceVector;
/// let r = ResourceVector::generic_request() * 2.0;
/// assert_eq!(r.cpu_us, 20_000.0);
/// assert!((r.generic_equivalents() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector {
    /// CPU time, microseconds.
    pub cpu_us: f64,
    /// Disk channel time, microseconds.
    pub disk_us: f64,
    /// Network bandwidth, bytes.
    pub net_bytes: f64,
}

impl ResourceVector {
    /// The zero vector.
    pub const ZERO: ResourceVector = ResourceVector {
        cpu_us: 0.0,
        disk_us: 0.0,
        net_bytes: 0.0,
    };

    /// Builds a vector from explicit components.
    pub const fn new(cpu_us: f64, disk_us: f64, net_bytes: f64) -> Self {
        ResourceVector {
            cpu_us,
            disk_us,
            net_bytes,
        }
    }

    /// The cost of one generic URL request (10 ms CPU, 10 ms disk, 2 KB net).
    pub const fn generic_request() -> Self {
        ResourceVector {
            cpu_us: GENERIC_CPU_US,
            disk_us: GENERIC_DISK_US,
            net_bytes: GENERIC_NET_BYTES,
        }
    }

    /// The per-second entitlement of a reservation of `grps` generic
    /// requests per second.
    pub fn per_second_for_grps(grps: f64) -> Self {
        Self::generic_request() * grps
    }

    /// The number of generic requests this vector is equivalent to, taking
    /// the **bottleneck** (maximum) across dimensions — the dimension that
    /// runs out first is the one that limits admission.
    pub fn generic_equivalents(self) -> f64 {
        let c = self.cpu_us / GENERIC_CPU_US;
        let d = self.disk_us / GENERIC_DISK_US;
        let n = self.net_bytes / GENERIC_NET_BYTES;
        c.max(d).max(n)
    }

    /// True if every component is ≥ 0.
    pub fn all_nonnegative(self) -> bool {
        self.cpu_us >= 0.0 && self.disk_us >= 0.0 && self.net_bytes >= 0.0
    }

    /// True if any component is < 0.
    pub fn any_negative(self) -> bool {
        !self.all_nonnegative()
    }

    /// True if every component is ≤ that of `other`.
    pub fn fits_within(self, other: ResourceVector) -> bool {
        self.cpu_us <= other.cpu_us
            && self.disk_us <= other.disk_us
            && self.net_bytes <= other.net_bytes
    }

    /// Component-wise minimum.
    pub fn min(self, other: ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu_us: self.cpu_us.min(other.cpu_us),
            disk_us: self.disk_us.min(other.disk_us),
            net_bytes: self.net_bytes.min(other.net_bytes),
        }
    }

    /// Component-wise maximum.
    pub fn max(self, other: ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu_us: self.cpu_us.max(other.cpu_us),
            disk_us: self.disk_us.max(other.disk_us),
            net_bytes: self.net_bytes.max(other.net_bytes),
        }
    }

    /// Clamps every component to at most the corresponding component of
    /// `cap` (used to bound how much unused credit a queue may hoard).
    pub fn capped_at(self, cap: ResourceVector) -> ResourceVector {
        self.min(cap)
    }

    /// Clamps negative components to zero.
    pub fn clamped_nonnegative(self) -> ResourceVector {
        self.max(ResourceVector::ZERO)
    }

    /// Serializes to a JSON object `{"cpu_us":…,"disk_us":…,"net_bytes":…}`.
    pub fn to_json(self) -> gage_json::Json {
        gage_json::Json::obj([
            ("cpu_us", gage_json::Json::Num(self.cpu_us)),
            ("disk_us", gage_json::Json::Num(self.disk_us)),
            ("net_bytes", gage_json::Json::Num(self.net_bytes)),
        ])
    }

    /// Reads a vector written by [`ResourceVector::to_json`]; `None` if any
    /// field is missing, non-numeric, negative or not finite.
    ///
    /// The wire form carries measured or predicted usage, which is never
    /// negative. A negative component would credit a subscriber's balance
    /// (`balance += retire − actual`), and an infinite or NaN one would
    /// poison the usage estimator.
    pub fn from_json(v: &gage_json::Json) -> Option<Self> {
        let component = |name: &str| {
            let x = v.get(name)?.as_f64()?;
            (x.is_finite() && x >= 0.0).then_some(x)
        };
        Some(ResourceVector {
            cpu_us: component("cpu_us")?,
            disk_us: component("disk_us")?,
            net_bytes: component("net_bytes")?,
        })
    }

    /// The largest fraction `self[dim] / denom[dim]` across dimensions with
    /// a positive denominator; 0 if all denominators are non-positive.
    /// Used by the node scheduler as a load metric.
    pub fn max_fraction_of(self, denom: ResourceVector) -> f64 {
        let mut worst: f64 = 0.0;
        for (num, den) in [
            (self.cpu_us, denom.cpu_us),
            (self.disk_us, denom.disk_us),
            (self.net_bytes, denom.net_bytes),
        ] {
            if den > 0.0 {
                worst = worst.max(num / den);
            }
        }
        worst
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, o: ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu_us: self.cpu_us + o.cpu_us,
            disk_us: self.disk_us + o.disk_us,
            net_bytes: self.net_bytes + o.net_bytes,
        }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, o: ResourceVector) {
        *self = *self + o;
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;
    fn sub(self, o: ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu_us: self.cpu_us - o.cpu_us,
            disk_us: self.disk_us - o.disk_us,
            net_bytes: self.net_bytes - o.net_bytes,
        }
    }
}

impl SubAssign for ResourceVector {
    fn sub_assign(&mut self, o: ResourceVector) {
        *self = *self - o;
    }
}

impl Mul<f64> for ResourceVector {
    type Output = ResourceVector;
    fn mul(self, k: f64) -> ResourceVector {
        ResourceVector {
            cpu_us: self.cpu_us * k,
            disk_us: self.disk_us * k,
            net_bytes: self.net_bytes * k,
        }
    }
}

impl Neg for ResourceVector {
    type Output = ResourceVector;
    fn neg(self) -> ResourceVector {
        self * -1.0
    }
}

impl Sum for ResourceVector {
    fn sum<I: Iterator<Item = ResourceVector>>(iter: I) -> ResourceVector {
        iter.fold(ResourceVector::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu={:.0}us disk={:.0}us net={:.0}B",
            self.cpu_us, self.disk_us, self.net_bytes
        )
    }
}

/// A reservation expressed in generic requests per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Grps(pub f64);

impl Grps {
    /// The per-second resource entitlement this reservation grants.
    pub fn per_second(self) -> ResourceVector {
        ResourceVector::per_second_for_grps(self.0)
    }

    /// The raw rate.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Grps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GRPS", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_request_equivalence() {
        let one = ResourceVector::generic_request();
        assert!((one.generic_equivalents() - 1.0).abs() < 1e-12);
        // A CPU-heavy request counts by its bottleneck.
        let heavy = ResourceVector::new(20_000.0, 1_000.0, 100.0);
        assert!((heavy.generic_equivalents() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn grps_per_second_scales() {
        let r = Grps(50.0).per_second();
        assert_eq!(r.cpu_us, 500_000.0);
        assert_eq!(r.disk_us, 500_000.0);
        assert_eq!(r.net_bytes, 100_000.0);
    }

    #[test]
    fn algebra() {
        let a = ResourceVector::new(1.0, 2.0, 3.0);
        let b = ResourceVector::new(10.0, 20.0, 30.0);
        assert_eq!(a + b, ResourceVector::new(11.0, 22.0, 33.0));
        assert_eq!(b - a, ResourceVector::new(9.0, 18.0, 27.0));
        assert_eq!(a * 2.0, ResourceVector::new(2.0, 4.0, 6.0));
        assert_eq!(-a, ResourceVector::new(-1.0, -2.0, -3.0));
        let sum: ResourceVector = [a, b].into_iter().sum();
        assert_eq!(sum, a + b);
    }

    #[test]
    fn from_json_rejects_negative_and_non_finite_components() {
        let v = ResourceVector::new(1.5, 0.0, 2_000.0);
        assert_eq!(ResourceVector::from_json(&v.to_json()), Some(v));
        // `gage_json::parse` rejects `1e999`, but a `Json` built in process
        // can still hold infinity or NaN.
        for bad in [-1.0, -0.001, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for doc in [
                ResourceVector::new(bad, 0.0, 2_000.0),
                ResourceVector::new(1.5, bad, 2_000.0),
                ResourceVector::new(1.5, 0.0, bad),
            ]
            .map(ResourceVector::to_json)
            {
                assert_eq!(ResourceVector::from_json(&doc), None, "{doc:?}");
            }
        }
    }

    #[test]
    fn negativity_checks() {
        assert!(ResourceVector::ZERO.all_nonnegative());
        assert!(ResourceVector::new(-0.1, 5.0, 5.0).any_negative());
        assert!(ResourceVector::new(1.0, -1.0, 1.0).any_negative());
        assert!(ResourceVector::new(1.0, 1.0, -1.0).any_negative());
    }

    #[test]
    fn caps_and_clamps() {
        let v = ResourceVector::new(100.0, -5.0, 50.0);
        let cap = ResourceVector::new(60.0, 60.0, 60.0);
        assert_eq!(v.capped_at(cap), ResourceVector::new(60.0, -5.0, 50.0));
        assert_eq!(
            v.clamped_nonnegative(),
            ResourceVector::new(100.0, 0.0, 50.0)
        );
    }

    #[test]
    fn fits_within_is_componentwise() {
        let small = ResourceVector::new(1.0, 1.0, 1.0);
        let big = ResourceVector::new(2.0, 2.0, 2.0);
        assert!(small.fits_within(big));
        assert!(!big.fits_within(small));
        let mixed = ResourceVector::new(0.5, 3.0, 1.0);
        assert!(!mixed.fits_within(big) || big.cpu_us >= 3.0);
    }

    #[test]
    fn max_fraction_picks_bottleneck() {
        let load = ResourceVector::new(50.0, 10.0, 10.0);
        let cap = ResourceVector::new(100.0, 100.0, 10.0);
        assert!(
            (load.max_fraction_of(cap) - 1.0).abs() < 1e-12,
            "net is the bottleneck"
        );
        assert_eq!(load.max_fraction_of(ResourceVector::ZERO), 0.0);
    }
}
