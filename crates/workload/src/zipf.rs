//! A Zipf(α) sampler over `{0, …, n-1}` via a precomputed inverse CDF.
//!
//! Implemented from scratch to keep the dependency set small; exact for
//! the table-based range sizes used here (up to a few tens of thousands of
//! items).

use rand::Rng;

/// Samples ranks with probability ∝ `1 / (rank+1)^alpha`.
///
/// A draw `u` maps to the number of CDF entries below it, the rank a
/// binary search of the CDF returns. A guide table splits `[0, 1)` into
/// `n` equal buckets and records where each bucket's lower edge falls in
/// the CDF, so a draw starts at its bucket's entry and walks past the
/// entries in the bucket: O(1) expected work per draw.
///
/// ```rust
/// use gage_workload::zipf::Zipf;
/// use rand::SeedableRng;
/// let z = Zipf::new(100, 1.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let first = z.sample(&mut rng);
/// assert!(first < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[k]` is the number of CDF entries below `k / n`: where a draw
    /// in bucket `k` starts its walk.
    guide: Vec<usize>,
}

impl Zipf {
    /// Builds a sampler over `n` items with exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `alpha` is negative/NaN.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(alpha >= 0.0, "alpha must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let mut guide = Vec::with_capacity(n);
        let mut below = 0;
        for k in 0..n {
            let edge = k as f64 / n as f64;
            while below < n && cdf[below] < edge {
                below += 1;
            }
            guide.push(below);
        }
        Zipf { cdf, guide }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the sampler covers a single item.
    pub fn is_empty(&self) -> bool {
        false // constructor guarantees n > 0
    }

    /// Draws a rank in `[0, n)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The rank a uniform draw `u` maps to: the number of CDF entries below
    /// `u`, clamped to `n - 1`.
    fn rank_of(&self, u: f64) -> usize {
        let n = self.cdf.len();
        // The guide entry is only a start hint, since `u·n` may round into
        // the next bucket: walk back while the entry before is not below
        // `u`, then forward past every entry below `u`.
        let mut i = self.guide[((u * n as f64) as usize).min(n - 1)];
        while i > 0 && self.cdf[i - 1] >= u {
            i -= 1;
        }
        while i < n && self.cdf[i] < u {
            i += 1;
        }
        i.min(n - 1)
    }

    /// Probability mass of `rank`.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank >= self.cdf.len() {
            return 0.0;
        }
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The sampler as it was before the guide table: a binary search of
    /// the CDF. Kept as the reference [`Zipf::rank_of`] must match.
    fn binary_search_rank(z: &Zipf, u: f64) -> usize {
        match z
            .cdf
            .binary_search_by(|w| w.partial_cmp(&u).expect("weights are finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(z.cdf.len() - 1),
        }
    }

    /// Seeded table sizes and exponents, probed at random draws, at every
    /// CDF value and bucket edge `k / n`, and at the neighbouring doubles
    /// of each, where a rounding slip would show. Sizes are log-uniform in
    /// `1..20_000`, so every magnitude is probed. A steep table crowds
    /// most of its CDF values into the top bucket, and a probe at each one
    /// walks that bucket, so two tables per exponent keep the test short.
    #[test]
    fn guide_search_matches_binary_search() {
        let mut rng = StdRng::seed_from_u64(23);
        for alpha in [0.0, 0.5, 1.0, 1.2, 2.0, 3.5] {
            for _ in 0..2 {
                let n = 20_000f64.powf(rng.gen()) as usize;
                let z = Zipf::new(n, alpha);
                // With ties the binary search could return any equal entry.
                assert!(
                    z.cdf.windows(2).all(|w| w[0] < w[1]),
                    "n {n} alpha {alpha}: CDF has ties"
                );
                let draws: Vec<f64> = (0..1_000).map(|_| rng.gen()).collect();
                let edges = (0..n).map(|k| k as f64 / n as f64);
                for p in z.cdf.iter().copied().chain(edges).chain(draws) {
                    for u in [p.next_down(), p, p.next_up()] {
                        assert_eq!(
                            z.rank_of(u),
                            binary_search_rank(&z, u),
                            "n {n} alpha {alpha} u {u:?}"
                        );
                    }
                }
            }
        }
    }

    /// The guide entry is only a start hint: from any hint, even one past
    /// the answer, the walk lands on the binary search's rank.
    #[test]
    fn any_start_hint_gives_the_exact_rank() {
        let mut rng = StdRng::seed_from_u64(24);
        for alpha in [0.0, 1.0, 3.5] {
            let n = rng.gen_range(1..500usize);
            let mut z = Zipf::new(n, alpha);
            z.guide = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let draws: Vec<f64> = (0..1_000).map(|_| rng.gen()).collect();
            for p in z.cdf.iter().copied().chain(draws) {
                for u in [p.next_down(), p, p.next_up()] {
                    assert_eq!(
                        z.rank_of(u),
                        binary_search_rank(&z, u),
                        "n {n} alpha {alpha} u {u:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(50, 1.2);
        let total: f64 = (0..50).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(z.pmf(99), 0.0);
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn rank_zero_dominates() {
        let z = Zipf::new(1000, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(10));
        assert!(z.pmf(10) > z.pmf(500));
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let z = Zipf::new(20, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let mut counts = [0u32; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate() {
            let emp = f64::from(count) / n as f64;
            let exp = z.pmf(r);
            assert!(
                (emp - exp).abs() < 0.01,
                "rank {r}: empirical {emp:.4} vs pmf {exp:.4}"
            );
        }
    }

    #[test]
    fn single_item_always_zero() {
        let z = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
