//! The paper's synthetic workload: every request fetches a fixed-size file.
//!
//! §4.1 uses "a constant synthetic workload with each request accessing a
//! file of the size of 6 KBytes".

use std::sync::Arc;

use crate::{GeneratedRequest, RequestGenerator};

/// Default synthetic response size (the paper's 6 KB).
pub const DEFAULT_SIZE_BYTES: u64 = 6 * 1024;

/// Generates requests that rotate over `file_count` identical-size files.
/// Each path is formatted on its file's first request; later requests for
/// the file share that string.
///
/// ```rust
/// use gage_workload::synthetic::SyntheticGenerator;
/// use gage_workload::RequestGenerator;
/// use rand::SeedableRng;
///
/// let mut g = SyntheticGenerator::new(6144, 4);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let r = g.next_request(&mut rng);
/// assert_eq!(r.size_bytes, 6144);
/// assert_eq!(&*r.path, "/file0000.html");
/// assert_eq!(&*g.next_request(&mut rng).path, "/file0001.html");
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticGenerator {
    size_bytes: u64,
    file_count: u32,
    next: u32,
    /// Path of file `i`, filled in rotation order on its first request.
    paths: Vec<Arc<str>>,
}

impl SyntheticGenerator {
    /// Creates a generator of `size_bytes` responses over `file_count`
    /// distinct paths (rotated round-robin so cache behaviour is uniform).
    ///
    /// # Panics
    ///
    /// Panics if `file_count` is zero.
    pub fn new(size_bytes: u64, file_count: u32) -> Self {
        assert!(file_count > 0, "need at least one file");
        SyntheticGenerator {
            size_bytes,
            file_count,
            next: 0,
            paths: Vec::new(),
        }
    }

    /// The paper's 6 KB single-file workload.
    pub fn paper_default() -> Self {
        SyntheticGenerator::new(DEFAULT_SIZE_BYTES, 1)
    }

    /// Response size of every request.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }
}

impl RequestGenerator for SyntheticGenerator {
    fn next_request(&mut self, _rng: &mut dyn rand::RngCore) -> GeneratedRequest {
        let i = self.next;
        self.next = (self.next + 1) % self.file_count;
        let path = match self.paths.get(i as usize) {
            Some(path) => Arc::clone(path),
            None => {
                let path: Arc<str> = Arc::from(format!("/file{i:04}.html"));
                self.paths.push(Arc::clone(&path));
                path
            }
        };
        GeneratedRequest {
            path,
            size_bytes: self.size_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rotates_round_robin() {
        let mut g = SyntheticGenerator::new(100, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let paths: Vec<String> = (0..6)
            .map(|_| g.next_request(&mut rng).path.to_string())
            .collect();
        assert_eq!(
            paths,
            vec![
                "/file0000.html",
                "/file0001.html",
                "/file0002.html",
                "/file0000.html",
                "/file0001.html",
                "/file0002.html"
            ]
        );
    }

    #[test]
    fn paper_default_is_6kb() {
        let mut g = SyntheticGenerator::paper_default();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(g.next_request(&mut rng).size_bytes, 6144);
        assert_eq!(g.size_bytes(), 6144);
    }

    #[test]
    #[should_panic(expected = "at least one file")]
    fn zero_files_rejected() {
        let _ = SyntheticGenerator::new(100, 0);
    }
}
