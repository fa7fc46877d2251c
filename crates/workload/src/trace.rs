//! Timestamped request traces with JSON persistence.
//!
//! The paper's clients "load the trace from a file and issue requests to
//! Gage at a constant rate". [`Trace::generate`] combines an arrival process
//! with a request generator to produce such a trace; [`Trace::save_json`] /
//! [`Trace::load_json`] persist it. Timestamps are integer microseconds so
//! traces round-trip bit-exactly through JSON.
//!
//! A trace holds one copy of each distinct string: every entry's `host`
//! and `path` is a clone of a shared [`Arc<str>`], so an entry is 48
//! bytes and owns no heap memory of its own.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::sync::Arc;

use rand::Rng;

use crate::arrival::ArrivalProcess;
use crate::{GeneratedRequest, RequestGenerator};

/// One timestamped request against one host.
///
/// `host` and `path` are handles to strings the whole trace shares (one
/// per distinct host and per distinct path), so cloning an entry copies
/// no text. They read as `&str` through `Deref`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Issue time, microseconds from trace start.
    pub at_us: u64,
    /// Target host (classification key).
    pub host: Arc<str>,
    /// Request path.
    pub path: Arc<str>,
    /// Response size the server will produce, bytes.
    pub size_bytes: u64,
}

impl TraceEntry {
    /// Issue time in seconds.
    pub fn at_secs(&self) -> f64 {
        self.at_us as f64 / 1e6
    }
}

/// An ordered request trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Entries sorted by `at_us`.
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    /// Generates a trace for `host`: arrivals from `process` over
    /// `horizon_secs`, requests from `generator`. Every entry shares one
    /// copy of `host`.
    ///
    /// # Panics
    ///
    /// Panics if `process` or `horizon_secs` is not finite (see
    /// [`ArrivalProcess::arrivals`]).
    pub fn generate<G, R>(
        host: &str,
        process: ArrivalProcess,
        horizon_secs: f64,
        generator: &mut G,
        rng: &mut R,
    ) -> Self
    where
        G: RequestGenerator + ?Sized,
        R: Rng,
    {
        let host: Arc<str> = Arc::from(host);
        let entries = process
            .arrivals(horizon_secs, rng)
            .into_iter()
            .map(|at| {
                let GeneratedRequest { path, size_bytes } = generator.next_request(rng);
                TraceEntry {
                    at_us: (at * 1e6).round() as u64,
                    host: Arc::clone(&host),
                    path,
                    size_bytes,
                }
            })
            .collect();
        Trace { entries }
    }

    /// Merges several traces into one, re-sorted by time (stable, so
    /// same-instant entries keep their per-trace order).
    pub fn merge(traces: impl IntoIterator<Item = Trace>) -> Self {
        let mut entries: Vec<TraceEntry> = traces.into_iter().flat_map(|t| t.entries).collect();
        entries.sort_by_key(|e| e.at_us);
        Trace { entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the trace has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Duration covered (time of the last entry), seconds.
    pub fn duration_secs(&self) -> f64 {
        self.entries.last().map_or(0.0, TraceEntry::at_secs)
    }

    /// Mean offered rate over the covered duration, requests/second.
    pub fn mean_rate(&self) -> f64 {
        let d = self.duration_secs();
        if d <= 0.0 {
            0.0
        } else {
            self.len() as f64 / d
        }
    }

    /// Writes the trace as JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_json<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                gage_json::Json::obj([
                    ("at_us", gage_json::Json::from(e.at_us)),
                    ("host", gage_json::Json::str(&*e.host)),
                    ("path", gage_json::Json::str(&*e.path)),
                    ("size_bytes", gage_json::Json::from(e.size_bytes)),
                ])
            })
            .collect();
        let doc = gage_json::Json::obj([("entries", gage_json::Json::Arr(entries))]);
        writer.write_all(doc.to_string().as_bytes())
    }

    /// Reads a trace written by [`Trace::save_json`]. Entries with equal
    /// hosts or equal paths share one copy of the string.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; malformed documents are reported as
    /// `InvalidData`.
    pub fn load_json<R: Read>(mut reader: R) -> std::io::Result<Self> {
        let mut text = String::new();
        reader.read_to_string(&mut text)?;
        let invalid = |what: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("trace json: {what}"),
            )
        };
        let doc = gage_json::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let mut strings: BTreeSet<Arc<str>> = BTreeSet::new();
        let mut share = |s: &str| -> Arc<str> {
            if let Some(shared) = strings.get(s) {
                return Arc::clone(shared);
            }
            let shared: Arc<str> = Arc::from(s);
            strings.insert(Arc::clone(&shared));
            shared
        };
        let entries = doc
            .get("entries")
            .and_then(gage_json::Json::as_array)
            .ok_or_else(|| invalid("missing entries array"))?
            .iter()
            .map(|v| {
                Some(TraceEntry {
                    at_us: v.get("at_us")?.as_u64()?,
                    host: share(v.get("host")?.as_str()?),
                    path: share(v.get("path")?.as_str()?),
                    size_bytes: v.get("size_bytes")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| invalid("malformed entry"))?;
        Ok(Trace { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    /// Asserts that equal strings among `strings` are one shared copy.
    fn assert_shared<'a>(strings: impl IntoIterator<Item = &'a Arc<str>>) {
        let mut first: BTreeMap<&str, &Arc<str>> = BTreeMap::new();
        for (i, s) in strings.into_iter().enumerate() {
            let shared = first.entry(s).or_insert(s);
            assert!(Arc::ptr_eq(shared, s), "string {i} ({s}) is a copy");
        }
    }

    fn sample_trace() -> Trace {
        let mut g = SyntheticGenerator::new(6144, 2);
        let mut rng = StdRng::seed_from_u64(0);
        Trace::generate(
            "site1.example.com",
            ArrivalProcess::Constant { rate: 50.0 },
            2.0,
            &mut g,
            &mut rng,
        )
    }

    #[test]
    fn generate_constant_rate() {
        let t = sample_trace();
        assert_eq!(t.len(), 100);
        assert!((t.mean_rate() - 50.0).abs() < 1.0);
        assert!(t.entries.iter().all(|e| &*e.host == "site1.example.com"));
        assert!(t.entries.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert_eq!(t.entries[1].at_us, 20_000, "50/s spacing is 20ms");
    }

    #[test]
    fn entries_own_no_strings() {
        assert!(std::mem::size_of::<TraceEntry>() <= 48);
        let t = sample_trace();
        let host = &t.entries[0].host;
        assert!(t.entries.iter().all(|e| Arc::ptr_eq(&e.host, host)));
        // Two files in rotation: entry i and entry i + 2 fetch the same one.
        for (i, pair) in t.entries.windows(3).enumerate() {
            assert!(Arc::ptr_eq(&pair[0].path, &pair[2].path), "entry {i}");
        }
    }

    #[test]
    fn merge_interleaves_sorted() {
        let mut g = SyntheticGenerator::new(100, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let a = Trace::generate(
            "a.com",
            ArrivalProcess::Constant { rate: 10.0 },
            1.0,
            &mut g,
            &mut rng,
        );
        let b = Trace::generate(
            "b.com",
            ArrivalProcess::Constant { rate: 7.0 },
            1.0,
            &mut g,
            &mut rng,
        );
        let m = Trace::merge([a.clone(), b.clone()]);
        assert_eq!(m.len(), a.len() + b.len());
        assert!(m.entries.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn json_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.save_json(&mut buf).unwrap();
        let back = Trace::load_json(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn loaded_entries_share_equal_strings() {
        let mut g = SyntheticGenerator::new(100, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let mut site = |host| {
            let process = ArrivalProcess::Poisson { rate: 40.0 };
            Trace::generate(host, process, 2.0, &mut g, &mut rng)
        };
        let t = Trace::merge([site("a.com"), site("b.com")]);
        let mut buf = Vec::new();
        t.save_json(&mut buf).unwrap();
        let back = Trace::load_json(buf.as_slice()).unwrap();
        assert_eq!(back, t);
        assert_shared(back.entries.iter().map(|e| &e.host));
        assert_shared(back.entries.iter().map(|e| &e.path));
        let distinct =
            |f: fn(&TraceEntry) -> &str| back.entries.iter().map(f).collect::<BTreeSet<_>>().len();
        assert_eq!(distinct(|e| &e.host), 2);
        assert_eq!(distinct(|e| &e.path), 3);
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.duration_secs(), 0.0);
        assert_eq!(t.mean_rate(), 0.0);
    }
}
