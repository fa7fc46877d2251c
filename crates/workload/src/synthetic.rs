//! The paper's synthetic workload: every request fetches a fixed-size file.
//!
//! §4.1 uses "a constant synthetic workload with each request accessing a
//! file of the size of 6 KBytes".

use crate::{GeneratedRequest, RequestGenerator};

/// Generates requests that rotate over `file_count` identical-size files,
/// `/file0000.html`, `/file0001.html`, and so on.
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
/// assert_eq!(g.path(r.file), "/file0000.html");
/// let r = g.next_request(&mut rng);
/// assert_eq!(g.path(r.file), "/file0001.html");
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticGenerator {
    size_bytes: u64,
    file_count: u32,
    next: u32,
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
        }
    }
}

impl RequestGenerator for SyntheticGenerator {
    fn next_request(&mut self, _rng: &mut dyn rand::RngCore) -> GeneratedRequest {
        let file = self.next;
        self.next = (self.next + 1) % self.file_count;
        GeneratedRequest {
            file,
            size_bytes: self.size_bytes,
        }
    }

    fn path(&self, file: u32) -> String {
        format!("/file{file:04}.html")
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
            .map(|_| {
                let r = g.next_request(&mut rng);
                g.path(r.file)
            })
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
    #[should_panic(expected = "at least one file")]
    fn zero_files_rejected() {
        let _ = SyntheticGenerator::new(100, 0);
    }
}
