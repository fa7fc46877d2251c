//! SPECWeb99-shaped file populations.
//!
//! SPECWeb99's static workload organizes each site's files into directories
//! of 36 files: four *classes* of nine files each. Class `c` file `f` has
//! size `(f+1) × 10^c × 0.1 KB`, i.e. class 0 spans 0.1–0.9 KB, class 1
//! 1–9 KB, class 2 10–90 KB and class 3 100–900 KB. Classes are accessed
//! with probabilities 35/50/14/1 % and directories/files with Zipf-like
//! popularity. This module reproduces that structure.

/// Files per class within one directory.
pub const FILES_PER_CLASS: u32 = 9;
/// Classes per directory.
pub const CLASS_COUNT: u32 = 4;
/// SPECWeb99 class access mix (class 0..=3).
pub const CLASS_MIX: [f64; 4] = [0.35, 0.50, 0.14, 0.01];

/// Identifies one file in a SPECWeb99-shaped population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId {
    /// Directory index.
    pub dir: u32,
    /// Class 0–3.
    pub class: u32,
    /// File index within the class, 0–8.
    pub file: u32,
}

impl FileId {
    /// Size of this file in bytes.
    pub fn size_bytes(self) -> u64 {
        // (file+1) × 0.1 KB × 10^class, with 1 KB = 1024 B as SPECWeb does.
        let base = 1024.0 / 10.0; // 0.1 KB
        (f64::from(self.file + 1) * base * 10f64.powi(self.class as i32)).round() as u64
    }

    /// The URL path of this file, mirroring the SPECWeb99 layout.
    pub fn path(self) -> String {
        format!("/dir{:05}/class{}_{}", self.dir, self.class, self.file)
    }

    /// Parses a path produced by [`FileId::path`].
    pub fn parse_path(path: &str) -> Option<FileId> {
        let rest = path.strip_prefix("/dir")?;
        let (dir_s, file_part) = rest.split_once("/class")?;
        let (class_s, file_s) = file_part.split_once('_')?;
        let id = FileId {
            dir: dir_s.parse().ok()?,
            class: class_s.parse().ok()?,
            file: file_s.parse().ok()?,
        };
        (id.class < CLASS_COUNT && id.file < FILES_PER_CLASS).then_some(id)
    }
}

/// One site's file population: `dir_count` directories of 36 files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSet {
    /// Number of directories.
    pub dir_count: u32,
}

impl FileSet {
    /// SPECWeb99 scales the directory count with the offered load:
    /// `dirs = 25 + (load in ops/sec) / 5`.
    pub fn for_target_rate(ops_per_sec: f64) -> Self {
        FileSet {
            dir_count: (25.0 + ops_per_sec / 5.0).ceil() as u32,
        }
    }

    /// Total number of files.
    pub fn file_count(&self) -> u64 {
        u64::from(self.dir_count) * u64::from(CLASS_COUNT * FILES_PER_CLASS)
    }

    /// Total bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        let per_dir: u64 = (0..CLASS_COUNT)
            .flat_map(|c| {
                (0..FILES_PER_CLASS).map(move |f| {
                    FileId {
                        dir: 0,
                        class: c,
                        file: f,
                    }
                    .size_bytes()
                })
            })
            .sum();
        per_dir * u64::from(self.dir_count)
    }

    /// True if `id` belongs to this population.
    pub fn contains(&self, id: FileId) -> bool {
        id.dir < self.dir_count && id.class < CLASS_COUNT && id.file < FILES_PER_CLASS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_sizes_match_specweb() {
        let f = |class, file| {
            FileId {
                dir: 0,
                class,
                file,
            }
            .size_bytes()
        };
        assert_eq!(f(0, 0), 102); // 0.1 KB
        assert_eq!(f(0, 8), 922); // 0.9 KB
        assert_eq!(f(1, 0), 1_024); // 1 KB
        assert_eq!(f(2, 4), 51_200); // 50 KB
        assert_eq!(f(3, 8), 921_600); // 900 KB
    }

    #[test]
    fn path_round_trip() {
        let id = FileId {
            dir: 123,
            class: 2,
            file: 7,
        };
        assert_eq!(id.path(), "/dir00123/class2_7");
        assert_eq!(FileId::parse_path(&id.path()), Some(id));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(FileId::parse_path("/index.html"), None);
        assert_eq!(FileId::parse_path("/dir00001/class9_0"), None);
        assert_eq!(FileId::parse_path("/dir00001/class1_9"), None);
        assert_eq!(FileId::parse_path("/dirX/class1_1"), None);
    }

    #[test]
    fn fileset_scaling_rule() {
        let fs = FileSet::for_target_rate(400.0);
        assert_eq!(fs.dir_count, 105);
        assert_eq!(fs.file_count(), 105 * 36);
        assert!(fs.contains(FileId {
            dir: 104,
            class: 3,
            file: 8
        }));
        assert!(!fs.contains(FileId {
            dir: 105,
            class: 0,
            file: 0
        }));
    }

    #[test]
    fn class_mix_sums_to_one() {
        let s: f64 = CLASS_MIX.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_bytes_counts_all_classes() {
        let fs = FileSet { dir_count: 1 };
        // Per directory: sum over classes of (1+..+9) × 0.1KB × 10^c
        // = 45 × 102.4 × (1 + 10 + 100 + 1000) ≈ 5.12 MB.
        let total = fs.total_bytes();
        assert!(total > 5_000_000 && total < 5_250_000, "total {total}");
    }
}
