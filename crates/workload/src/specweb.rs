//! SPECWeb99-shaped request generation.
//!
//! Draws a directory by Zipf popularity, a class by the 35/50/14/1 % mix
//! and a file within the class by Zipf popularity — reproducing the
//! heavy-tailed response-size distribution of the benchmark's static GET
//! workload (the part the paper's trace exercises).
//!
//! A draw names its file by index and takes the size from a per-directory
//! table, so it allocates nothing; [`RequestGenerator::path`] formats a
//! file's path when a trace first meets the file.

use rand::Rng;

use crate::fileset::{FileId, FileSet, CLASS_COUNT, CLASS_MIX, FILES_PER_CLASS};
use crate::zipf::Zipf;
use crate::{GeneratedRequest, RequestGenerator};

/// The SPECWeb99-shaped generator for one site.
///
/// ```rust
/// use gage_workload::{SpecWebGenerator, RequestGenerator};
/// use rand::SeedableRng;
///
/// let mut g = SpecWebGenerator::for_target_rate(400.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let r = g.next_request(&mut rng);
/// assert!(g.path(r.file).starts_with("/dir"));
/// assert!(r.size_bytes >= 102 && r.size_bytes <= 943_718);
/// ```
#[derive(Debug, Clone)]
pub struct SpecWebGenerator {
    fileset: FileSet,
    dir_zipf: Zipf,
    file_zipf: Zipf,
    /// Size of file `class × 9 + file`, the same in every directory.
    sizes: [u64; FILES_PER_DIR as usize],
}

/// Files in one directory. A draw's file index is `dir × 36 + class × 9 +
/// file`.
const FILES_PER_DIR: u32 = CLASS_COUNT * FILES_PER_CLASS;

impl SpecWebGenerator {
    /// Builds a generator over an explicit file population.
    pub fn new(fileset: FileSet) -> Self {
        SpecWebGenerator {
            fileset,
            dir_zipf: Zipf::new(fileset.dir_count as usize, 1.0),
            file_zipf: Zipf::new(FILES_PER_CLASS as usize, 1.0),
            sizes: std::array::from_fn(|i| {
                FileId {
                    dir: 0,
                    class: i as u32 / FILES_PER_CLASS,
                    file: i as u32 % FILES_PER_CLASS,
                }
                .size_bytes()
            }),
        }
    }

    /// Builds a generator with the population SPECWeb99 prescribes for the
    /// given offered load.
    pub fn for_target_rate(ops_per_sec: f64) -> Self {
        SpecWebGenerator::new(FileSet::for_target_rate(ops_per_sec))
    }

    /// The underlying file population.
    pub fn fileset(&self) -> FileSet {
        self.fileset
    }

    fn sample_class<R: Rng + ?Sized>(rng: &mut R) -> u32 {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (c, p) in CLASS_MIX.iter().enumerate() {
            acc += p;
            if u < acc {
                return c as u32;
            }
        }
        (CLASS_MIX.len() - 1) as u32
    }

    /// Draws one file id.
    pub fn sample_file<R: Rng + ?Sized>(&self, rng: &mut R) -> FileId {
        FileId {
            dir: self.dir_zipf.sample(rng) as u32,
            class: Self::sample_class(rng),
            file: self.file_zipf.sample(rng) as u32,
        }
    }
}

impl RequestGenerator for SpecWebGenerator {
    fn next_request(&mut self, rng: &mut dyn rand::RngCore) -> GeneratedRequest {
        let id = self.sample_file(rng);
        let in_dir = id.class * FILES_PER_CLASS + id.file;
        GeneratedRequest {
            file: id.dir * FILES_PER_DIR + in_dir,
            size_bytes: self.sizes[in_dir as usize],
        }
    }

    fn path(&self, file: u32) -> String {
        let in_dir = file % FILES_PER_DIR;
        FileId {
            dir: file / FILES_PER_DIR,
            class: in_dir / FILES_PER_CLASS,
            file: in_dir % FILES_PER_CLASS,
        }
        .path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrivalProcess, Trace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// Digest of the first 1,000 draws at seed 2003 for 400 ops/s.
    const SEEDED_DRAWS_FNV1A64: u64 = 0xacf5_c19d_25d4_c588;

    #[test]
    fn class_mix_is_respected() {
        let g = SpecWebGenerator::for_target_rate(100.0);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let mut counts = [0u32; 4];
        for _ in 0..n {
            counts[g.sample_file(&mut rng).class as usize] += 1;
        }
        let fracs: Vec<f64> = counts.iter().map(|&c| f64::from(c) / n as f64).collect();
        for (i, expected) in CLASS_MIX.iter().enumerate() {
            assert!(
                (fracs[i] - expected).abs() < 0.01,
                "class {i}: {:.3} vs {expected}",
                fracs[i]
            );
        }
    }

    #[test]
    fn all_samples_in_population() {
        let g = SpecWebGenerator::for_target_rate(50.0);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(g.fileset().contains(g.sample_file(&mut rng)));
        }
    }

    #[test]
    fn draws_of_one_file_share_its_path() {
        let mut g = SpecWebGenerator::for_target_rate(100.0);
        let mut rng = StdRng::seed_from_u64(8);
        let process = ArrivalProcess::Constant { rate: 1_000.0 };
        let t = Trace::generate("spec.example.com", process, 5.0, &mut g, &mut rng);
        let mut table = BTreeSet::new();
        for s in t.strings() {
            assert!(table.insert(&**s), "{s} is in the table twice");
        }
        let paths: BTreeSet<&str> = t.entries.iter().map(|e| &**t.path(e)).collect();
        assert_eq!(table.len(), paths.len() + 1, "the drawn paths and the host");
        for e in &t.entries {
            assert_eq!(t.host(e), "spec.example.com");
            let id = FileId::parse_path(t.path(e)).expect("a SPECWeb path");
            assert_eq!(e.size_bytes, id.size_bytes(), "{}", t.path(e));
        }
        assert!(paths.len() < t.len() / 2, "popular files are drawn again");
    }

    /// Every SPECWeb trace is this draw sequence: a seed must keep giving
    /// the same paths and sizes (FNV-1a-64 of one `path size` line each).
    #[test]
    fn seeded_draws_are_pinned() {
        let mut g = SpecWebGenerator::for_target_rate(400.0);
        let mut rng = StdRng::seed_from_u64(2003);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..1_000 {
            let r = g.next_request(&mut rng);
            for b in format!("{} {}\n", g.path(r.file), r.size_bytes).bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(digest, SEEDED_DRAWS_FNV1A64, "got {digest:#018x}");
    }

    #[test]
    fn size_distribution_is_heavy_tailed() {
        let mut g = SpecWebGenerator::for_target_rate(100.0);
        let mut rng = StdRng::seed_from_u64(5);
        let sizes: Vec<u64> = (0..20_000)
            .map(|_| g.next_request(&mut rng).size_bytes)
            .collect();
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        assert!(
            mean > 2.0 * median,
            "mean {mean:.0} should dwarf median {median:.0}"
        );
    }

    #[test]
    fn popular_directories_dominate() {
        let g = SpecWebGenerator::for_target_rate(500.0);
        let mut rng = StdRng::seed_from_u64(6);
        let n = 30_000;
        let mut dir0 = 0u32;
        for _ in 0..n {
            if g.sample_file(&mut rng).dir == 0 {
                dir0 += 1;
            }
        }
        let frac = f64::from(dir0) / n as f64;
        // Zipf(1) over 125 dirs gives rank 0 about 1/H(125) ≈ 18%.
        assert!(frac > 0.10, "dir0 frac {frac:.3}");
    }
}
