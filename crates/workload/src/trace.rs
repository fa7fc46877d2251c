//! Timestamped request traces with JSON persistence.
//!
//! The paper's clients "load the trace from a file and issue requests to
//! Gage at a constant rate". [`Trace::generate`] combines an arrival process
//! with a request generator to produce such a trace; [`Trace::save_json`] /
//! [`Trace::load_json`] persist it. Timestamps are integer microseconds so
//! traces round-trip bit-exactly through JSON.
//!
//! A trace keeps its hosts and paths in one string table, and an entry
//! names its host and path by their index in it, so an entry is 24 bytes,
//! `Copy`, and owns nothing. [`Trace::host`] and [`Trace::path`] read an
//! entry's strings.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::Arc;

use rand::Rng;

use crate::arrival::ArrivalProcess;
use crate::{GeneratedRequest, RequestGenerator};

/// One timestamped request against one host.
///
/// `host` and `path` index the string table of the [`Trace`] that holds
/// the entry; read them through [`Trace::host`] and [`Trace::path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Issue time, microseconds from trace start.
    pub at_us: u64,
    /// Response size the server will produce, bytes.
    pub size_bytes: u64,
    /// Target host (classification key), as a string-table index.
    pub host: u32,
    /// Request path, as a string-table index.
    pub path: u32,
}

impl TraceEntry {
    /// Issue time in seconds.
    pub fn at_secs(&self) -> f64 {
        self.at_us as f64 / 1e6
    }
}

/// An ordered request trace.
///
/// Two traces are equal when they hold the same requests: entry by entry,
/// the same time, size, host text and path text, however their string
/// tables are laid out.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Entries sorted by `at_us`.
    pub entries: Vec<TraceEntry>,
    /// The hosts and paths the entries name by index.
    strings: Vec<Arc<str>>,
}

impl Trace {
    /// Generates a trace for `host`: arrivals from `process` over
    /// `horizon_secs`, requests from `generator`. The table holds `host`
    /// and the path of each file drawn, each formatted once, on the file's
    /// first draw.
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
        let mut strings: Vec<Arc<str>> = vec![Arc::from(host)];
        // Table index of each file's path. The host holds index 0, so a 0
        // marks a file not drawn yet.
        let mut ids: Vec<u32> = Vec::new();
        let entries = process
            .arrivals(horizon_secs, rng)
            .into_iter()
            .map(|at| {
                let GeneratedRequest { file, size_bytes } = generator.next_request(rng);
                let slot = file as usize;
                if slot >= ids.len() {
                    ids.resize(slot + 1, 0);
                }
                if ids[slot] == 0 {
                    ids[slot] = strings.len() as u32;
                    strings.push(Arc::from(generator.path(file)));
                }
                TraceEntry {
                    at_us: (at * 1e6).round() as u64,
                    size_bytes,
                    host: 0,
                    path: ids[slot],
                }
            })
            .collect();
        Trace { entries, strings }
    }

    /// Merges several traces into one, re-sorted by time (stable, so
    /// same-instant entries keep their per-trace order). The merged table
    /// holds each distinct string once.
    pub fn merge(traces: impl IntoIterator<Item = Trace>) -> Self {
        let mut table = Interner::default();
        let mut entries = Vec::new();
        for trace in traces {
            let ids: Vec<u32> = trace.strings.iter().map(|s| table.id(s)).collect();
            entries.extend(trace.entries.iter().map(|e| TraceEntry {
                host: ids[e.host as usize],
                path: ids[e.path as usize],
                ..*e
            }));
        }
        entries.sort_by_key(|e| e.at_us);
        Trace {
            entries,
            strings: table.strings,
        }
    }

    /// The host `entry` targets.
    pub fn host(&self, entry: &TraceEntry) -> &str {
        &self.strings[entry.host as usize]
    }

    /// The path `entry` requests, as the table's shared handle: a holder
    /// such as a page cache keeps a clone of it, not a copy of the text.
    pub fn path(&self, entry: &TraceEntry) -> &Arc<str> {
        &self.strings[entry.path as usize]
    }

    /// What `entry` asks for: its time, size, host and path.
    fn request(&self, entry: &TraceEntry) -> (u64, u64, &str, &str) {
        (
            entry.at_us,
            entry.size_bytes,
            self.host(entry),
            self.path(entry),
        )
    }

    /// The string table that entries index.
    pub fn strings(&self) -> &[Arc<str>] {
        &self.strings
    }

    /// The table index of `text`, which is added if no table string equals
    /// it. Linear in the table's size: it serves edits to a trace, not the
    /// building of one.
    pub fn intern(&mut self, text: &str) -> u32 {
        let id = match self.strings.iter().position(|s| **s == *text) {
            Some(id) => id,
            None => {
                self.strings.push(Arc::from(text));
                self.strings.len() - 1
            }
        };
        id as u32
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
                    ("host", gage_json::Json::str(self.host(e))),
                    ("path", gage_json::Json::str(&**self.path(e))),
                    ("size_bytes", gage_json::Json::from(e.size_bytes)),
                ])
            })
            .collect();
        let doc = gage_json::Json::obj([("entries", gage_json::Json::Arr(entries))]);
        writer.write_all(doc.to_string().as_bytes())
    }

    /// Reads a trace written by [`Trace::save_json`]. The table holds each
    /// distinct host and path once.
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
        let mut table = Interner::default();
        let entries = doc
            .get("entries")
            .and_then(gage_json::Json::as_array)
            .ok_or_else(|| invalid("missing entries array"))?
            .iter()
            .map(|v| {
                Some(TraceEntry {
                    at_us: v.get("at_us")?.as_u64()?,
                    host: table.id(v.get("host")?.as_str()?),
                    path: table.id(v.get("path")?.as_str()?),
                    size_bytes: v.get("size_bytes")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| invalid("malformed entry"))?;
        Ok(Trace {
            entries,
            strings: table.strings,
        })
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| self.request(a) == other.request(b))
    }
}

impl Eq for Trace {}

/// Builds a string table that holds each distinct text once.
#[derive(Default)]
struct Interner {
    strings: Vec<Arc<str>>,
    ids: BTreeMap<Arc<str>, u32>,
}

impl Interner {
    /// The table index of `text`, added on its first appearance.
    fn id(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = self.strings.len() as u32;
        let shared: Arc<str> = Arc::from(text);
        self.strings.push(Arc::clone(&shared));
        self.ids.insert(shared, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// Asserts that `t`'s table holds no text twice and returns its size.
    fn distinct_table(t: &Trace) -> usize {
        let mut seen = BTreeSet::new();
        for s in t.strings() {
            assert!(seen.insert(&**s), "{s} is in the table twice");
        }
        seen.len()
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
        assert!(t.entries.iter().all(|e| t.host(e) == "site1.example.com"));
        assert!(t.entries.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert_eq!(t.entries[1].at_us, 20_000, "50/s spacing is 20ms");
    }

    #[test]
    fn entries_own_no_strings() {
        assert_eq!(std::mem::size_of::<TraceEntry>(), 24);
        let t = sample_trace();
        assert_eq!(distinct_table(&t), 3, "the host and two paths");
        assert!(t.entries.iter().all(|e| e.host == t.entries[0].host));
        // Two files in rotation: entry i and entry i + 2 fetch the same one.
        for (i, pair) in t.entries.windows(3).enumerate() {
            assert_eq!(pair[0].path, pair[2].path, "entry {i}");
            assert_ne!(pair[0].path, pair[1].path, "entry {i}");
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

    /// Merging remaps each source's ids into one table: the merged entries
    /// are the source requests, stably sorted by time, and a path both
    /// sources draw is one table string.
    #[test]
    fn merged_entries_resolve_to_the_source_requests() {
        let mut g = SyntheticGenerator::new(100, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let mut site = |host, rate| {
            let process = ArrivalProcess::Constant { rate };
            Trace::generate(host, process, 1.0, &mut g, &mut rng)
        };
        let (a, b) = (site("a.com", 10.0), site("b.com", 5.0));
        fn requests(t: &Trace) -> Vec<(u64, u64, &str, &str)> {
            t.entries.iter().map(|e| t.request(e)).collect()
        }
        let mut expected = requests(&a);
        expected.extend(requests(&b));
        expected.sort_by_key(|r| r.0);
        let merged = Trace::merge([a.clone(), b.clone()]);
        assert_eq!(requests(&merged), expected);
        assert_eq!(merged.entries[0].host, merged.entries[2].host);
        assert_eq!(merged.host(&merged.entries[1]), "b.com", "a.com first at 0");
        assert_eq!(distinct_table(&merged), 5, "two hosts and three paths");
        let mut buf = Vec::new();
        merged.save_json(&mut buf).unwrap();
        assert_eq!(Trace::load_json(buf.as_slice()).unwrap(), merged);
        assert_ne!(merged, Trace::merge([b, a]), "same requests, other order");
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
        assert_eq!(distinct_table(&back), 5, "two hosts and three paths");
    }

    #[test]
    fn intern_reuses_an_equal_string() {
        let mut t = sample_trace();
        let host = t.entries[0].host;
        assert_eq!(t.intern("site1.example.com"), host);
        let ghost = t.intern("ghost.example.com");
        assert_eq!(t.intern("ghost.example.com"), ghost);
        t.entries[0].host = ghost;
        assert_eq!(t.host(&t.entries[0]), "ghost.example.com");
        assert_eq!(distinct_table(&t), 4);
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.duration_secs(), 0.0);
        assert_eq!(t.mean_rate(), 0.0);
    }
}
