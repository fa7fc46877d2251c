//! Seeded, splittable random streams.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random stream.
///
/// Each simulation component should own its own `SimRng`, obtained via
/// [`SimRng::stream`] or [`SimRng::split`], so that adding randomness
/// consumption in one component does not perturb the sequence seen by
/// another (a classic source of irreproducible simulations). Outside this
/// crate every stream is named: `SimRng::seed_from` is crate-private, so
/// an unnamed root stream elsewhere fails to compile.
///
/// ```rust
/// use gage_des::SimRng;
/// use rand::RngCore;
/// let mut a = SimRng::stream(7, "clients");
/// let mut b = SimRng::stream(7, "disk");
/// // Independent deterministic streams:
/// let xs: Vec<u64> = (0..3).map(|_| a.next_u64()).collect();
/// let mut a2 = SimRng::stream(7, "clients");
/// let xs2: Vec<u64> = (0..3).map(|_| a2.next_u64()).collect();
/// assert_eq!(xs, xs2);
/// let _ = b.next_u64();
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub(crate) fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// The stream named `label` under `seed`: the same bits as
    /// `seed_from(seed).split(label)`.
    pub fn stream(seed: u64, label: &str) -> Self {
        SimRng::seed_from(seed).split(label)
    }

    /// Derives an independent child stream named by `label`.
    ///
    /// The child seed depends on the parent seed and the label but not on
    /// how much randomness the parent has already consumed after this call,
    /// so splits should be performed up front during model construction.
    pub fn split(&mut self, label: &str) -> SimRng {
        // FNV-1a over the label mixed with fresh parent entropy.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let seed = h ^ self.inner.gen::<u64>();
        SimRng::seed_from(seed)
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index over empty domain");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p` of returning `true`
    /// (`p` is clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed value with the given mean (inverse rate).
    /// Returns 0 for a non-positive mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse-CDF; 1-u avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut root = SimRng::seed_from(1);
        let mut a = root.split("a");
        let mut root2 = SimRng::seed_from(1);
        let mut b = root2.split("b");
        // Overwhelmingly likely to differ immediately.
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exp_has_roughly_correct_mean() {
        let mut rng = SimRng::seed_from(99);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.2,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn exp_nonpositive_mean_is_zero() {
        let mut rng = SimRng::seed_from(4);
        assert_eq!(rng.exp(0.0), 0.0);
        assert_eq!(rng.exp(-3.0), 0.0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0), "clamped above 1");
        assert!(!rng.chance(-1.0), "clamped below 0");
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SimRng::seed_from(6);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let i = rng.index(7);
            assert!(i < 7);
        }
    }
}
