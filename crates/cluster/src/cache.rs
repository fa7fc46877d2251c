//! A byte-capacity LRU file cache, modeling an RPN's page cache.
//!
//! Whether a request hits the cache decides whether it pays the disk model's
//! I/O time — the main source of per-request resource variability under the
//! SPECWeb99-shaped workload.

use gage_collections::DetMap;

/// LRU cache keyed by file path with a total byte budget.
///
/// ```rust
/// use gage_cluster::cache::LruCache;
/// let mut c = LruCache::new(10_000);
/// assert!(!c.access("/a", 6_000), "first access misses");
/// assert!(c.access("/a", 6_000), "now cached");
/// assert!(!c.access("/b", 6_000), "evicts /a to fit");
/// assert!(!c.access("/a", 6_000), "/a was evicted");
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity_bytes: u64,
    used_bytes: u64,
    /// path -> size, least recently used first: a hit moves its entry to
    /// the back, so eviction pops the front in O(1).
    entries: DetMap<String, u64>,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// Creates a cache holding at most `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        LruCache {
            capacity_bytes,
            used_bytes: 0,
            entries: DetMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Records an access to `path` of `size_bytes`. Returns `true` on hit.
    /// On miss the file is brought in, evicting least-recently-used entries
    /// as needed; files larger than the whole cache are never cached.
    pub fn access(&mut self, path: &str, size_bytes: u64) -> bool {
        if self.entries.move_to_back(path) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if size_bytes > self.capacity_bytes {
            return false;
        }
        while self.used_bytes + size_bytes > self.capacity_bytes {
            let Some((_, size)) = self.entries.pop_front() else {
                break;
            };
            self.used_bytes -= size;
        }
        self.entries.insert(path.to_string(), size_bytes);
        self.used_bytes += size_bytes;
        false
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of cached files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime (hits, misses).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit rate in `[0, 1]` (0 if no accesses yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The cache as it was before the recency list: every access stamps
    /// its entry from a clock, and eviction scans for the smallest stamp.
    /// Kept as the reference [`LruCache`] must match access for access.
    struct StampLru {
        capacity_bytes: u64,
        used_bytes: u64,
        /// path -> (size, last-use stamp)
        entries: BTreeMap<String, (u64, u64)>,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl StampLru {
        fn new(capacity_bytes: u64) -> Self {
            StampLru {
                capacity_bytes,
                used_bytes: 0,
                entries: BTreeMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, path: &str, size_bytes: u64) -> bool {
            self.clock += 1;
            if let Some(entry) = self.entries.get_mut(path) {
                entry.1 = self.clock;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            if size_bytes > self.capacity_bytes {
                return false;
            }
            while self.used_bytes + size_bytes > self.capacity_bytes {
                let Some(victim) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, &(_, stamp))| stamp)
                    .map(|(k, _)| k.clone())
                else {
                    break;
                };
                if let Some((sz, _)) = self.entries.remove(&victim) {
                    self.used_bytes -= sz;
                }
            }
            self.entries
                .insert(path.to_string(), (size_bytes, self.clock));
            self.used_bytes += size_bytes;
            false
        }
    }

    /// Seeded access streams over varied capacities: a hot set re-accessed
    /// half the time, files from tiny to larger than the whole cache, and
    /// the odd hit reporting a different size (both keep the cached one).
    #[test]
    fn matches_min_stamp_reference() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = if seed % 4 == 0 {
                rng.gen_range(1..64u64)
            } else {
                rng.gen_range(1_000..200_000u64)
            };
            let files = rng.gen_range(4..400usize);
            let sizes: Vec<u64> = (0..files)
                .map(|_| match rng.gen_range(0..20u32) {
                    0 => capacity + rng.gen_range(1..1_000u64),
                    1..=3 => rng.gen_range(capacity / 4..=capacity),
                    _ => rng.gen_range(1..=(capacity / 8).max(1)),
                })
                .collect();
            let hot = files.min(8);
            let mut lru = LruCache::new(capacity);
            let mut reference = StampLru::new(capacity);
            for step in 0..4_000 {
                let f = if rng.gen_bool(0.5) {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(0..files)
                };
                let size = if rng.gen_range(0..50u32) == 0 {
                    rng.gen_range(0..=capacity * 2)
                } else {
                    sizes[f]
                };
                let path = format!("/f{f}");
                let ctx = format!("seed {seed} step {step} {path} ({size} B)");
                assert_eq!(
                    lru.access(&path, size),
                    reference.access(&path, size),
                    "{ctx}"
                );
                assert_eq!(lru.used_bytes(), reference.used_bytes, "{ctx}");
                assert_eq!(lru.len(), reference.entries.len(), "{ctx}");
                assert_eq!(lru.stats(), (reference.hits, reference.misses), "{ctx}");
                assert!(lru.used_bytes() <= capacity, "{ctx}");
            }
        }
    }

    #[test]
    fn hot_set_stays_resident() {
        let mut c = LruCache::new(100);
        c.access("/hot", 50);
        for _ in 0..10 {
            assert!(c.access("/hot", 50));
        }
        assert_eq!(c.stats(), (10, 1));
    }

    #[test]
    fn eviction_is_lru() {
        let mut c = LruCache::new(100);
        c.access("/a", 40);
        c.access("/b", 40);
        c.access("/a", 40); // refresh a
        c.access("/c", 40); // evicts b (LRU)
        assert!(c.access("/a", 40), "a survived");
        assert!(!c.access("/b", 40), "b was evicted");
    }

    #[test]
    fn oversized_files_bypass_cache() {
        let mut c = LruCache::new(100);
        assert!(!c.access("/huge", 1_000));
        assert!(!c.access("/huge", 1_000), "still not cached");
        assert_eq!(c.used_bytes(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_respected() {
        let mut c = LruCache::new(100);
        for i in 0..20 {
            c.access(&format!("/f{i}"), 30);
            assert!(c.used_bytes() <= 100);
            assert!(c.len() <= 3);
        }
    }

    #[test]
    fn hit_rate_math() {
        let mut c = LruCache::new(1000);
        assert_eq!(c.hit_rate(), 0.0);
        c.access("/x", 10);
        c.access("/x", 10);
        c.access("/x", 10);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
