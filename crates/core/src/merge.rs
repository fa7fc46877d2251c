//! Conflict-free merging of per-RDN usage accounting.
//!
//! With several peer RDNs each owning a subscriber shard, the usage ledger
//! becomes a distributed table: every RDN accumulates usage for the
//! subscribers it currently owns and gossips its view to its peers over
//! the simulated network. Reports can be lost, duplicated, reordered or
//! delayed by partitions, and an RDN can crash and restart mid-window —
//! so the table must converge to the same totals no matter which subset
//! of messages arrives in which order.
//!
//! The scheme is the classic state-based CRDT table (the Garage
//! LWW-table / merge pattern, adapted to Gage's accounting rows):
//!
//! * Rows are keyed by `(origin RDN, subscriber)`. Only the origin RDN
//!   ever *writes* a row, so each row has a single writer and the
//!   counters in it ([`UsageCell::usage`], [`UsageCell::settled_predicted`],
//!   [`UsageCell::completed`]) are monotonically non-decreasing.
//! * Merging two copies of a row takes the componentwise maximum — for
//!   monotone counters, max-merge is commutative, associative and
//!   idempotent, so duplication and reordering are harmless and a lost
//!   message is healed by any later copy.
//! * A crash resets the origin's counters, which would break monotonicity;
//!   the [`UsageCell::epoch`] guards against that. The origin bumps its
//!   epoch on every boot, and a row with a higher epoch replaces a lower
//!   one wholesale (last-writer-wins at epoch granularity). Equal epochs
//!   fall back to max-merge.
//!
//! See DESIGN.md §16 for the protocol walkthrough and the convergence
//! argument.

use std::collections::btree_map::{BTreeMap, Entry};

use crate::resource::ResourceVector;

/// One row of the replicated accounting table: everything an origin RDN
/// knows about one subscriber's cumulative usage since the origin's boot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageCell {
    /// Boot epoch of the origin RDN when this row was written. Higher
    /// epochs replace lower ones wholesale.
    pub epoch: u32,
    /// Origin-local simulated timestamp (ns) of the last update folded
    /// into this cell. Merges take the max; purely informational.
    pub as_of_ns: u64,
    /// Cumulative actual resource usage settled for this subscriber.
    /// Monotone within an epoch.
    pub usage: ResourceVector,
    /// Cumulative predicted usage retired against dispatches. Monotone
    /// within an epoch.
    pub settled_predicted: ResourceVector,
    /// Cumulative completed request count. Monotone within an epoch.
    pub completed: u64,
}

impl UsageCell {
    /// An empty cell at epoch 0.
    pub const ZERO: UsageCell = UsageCell {
        epoch: 0,
        as_of_ns: 0,
        usage: ResourceVector::ZERO,
        settled_predicted: ResourceVector::ZERO,
        completed: 0,
    };

    /// Folds `other` into `self` with CRDT semantics: a higher epoch wins
    /// wholesale, a lower one is ignored, equal epochs take the
    /// componentwise maximum. Returns `true` when `self` changed.
    pub fn merge_from(&mut self, other: &UsageCell) -> bool {
        if other.epoch > self.epoch {
            let changed = self != other;
            *self = *other;
            return changed;
        }
        if other.epoch < self.epoch {
            return false;
        }
        let merged = UsageCell {
            epoch: self.epoch,
            as_of_ns: self.as_of_ns.max(other.as_of_ns),
            usage: self.usage.max(other.usage),
            settled_predicted: self.settled_predicted.max(other.settled_predicted),
            completed: self.completed.max(other.completed),
        };
        let changed = *self != merged;
        *self = merged;
        changed
    }
}

/// One exported row: `(origin RDN, subscriber index, cell)`. The wire and
/// snapshot format of the table.
pub type AcctRow = (u16, u32, UsageCell);

/// One origin-side accounting delta: what a single usage report settles
/// for one subscriber, ready to fold into the origin's own row.
#[derive(Debug, Clone, Copy)]
pub struct AcctDelta {
    /// Origin-local simulated timestamp (ns) of the report.
    pub as_of_ns: u64,
    /// Actual resource usage settled by the report.
    pub usage: ResourceVector,
    /// Predicted usage retired against dispatches by the report.
    pub settled_predicted: ResourceVector,
    /// Requests completed by the report.
    pub completed: u64,
}

/// The replicated accounting table one RDN holds: its own rows plus the
/// freshest copies of every peer's rows it has seen.
#[derive(Debug, Clone, Default)]
pub struct AcctTable {
    /// Rows keyed by `(origin RDN, subscriber)`.
    cells: BTreeMap<(u16, u32), UsageCell>,
}

impl AcctTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        AcctTable::default()
    }

    /// Number of rows (origin × subscriber pairs) present.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no rows are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Origin-side write: folds one accounting delta into this RDN's own
    /// row for `sub`. A newer `epoch` resets the row (boot discipline);
    /// the same epoch accumulates monotonically.
    pub fn accumulate(&mut self, origin: u16, sub: u32, epoch: u32, delta: AcctDelta) {
        let cell = self.cells.entry((origin, sub)).or_insert(UsageCell::ZERO);
        if epoch != cell.epoch {
            *cell = UsageCell {
                epoch,
                ..UsageCell::ZERO
            };
        }
        cell.as_of_ns = cell.as_of_ns.max(delta.as_of_ns);
        cell.usage += delta.usage;
        cell.settled_predicted += delta.settled_predicted;
        cell.completed += delta.completed;
    }

    /// Merges one received row. Returns `true` when the table changed.
    pub fn merge_row(&mut self, origin: u16, sub: u32, cell: &UsageCell) -> bool {
        match self.cells.entry((origin, sub)) {
            Entry::Occupied(mut mine) => mine.get_mut().merge_from(cell),
            Entry::Vacant(slot) => {
                slot.insert(*cell);
                true
            }
        }
    }

    /// Merges a batch of rows (a gossip payload); returns how many rows
    /// changed.
    pub fn merge_rows(&mut self, rows: &[AcctRow]) -> usize {
        rows.iter()
            .filter(|(origin, sub, cell)| self.merge_row(*origin, *sub, cell))
            .count()
    }

    /// Full-table snapshot in key order — deterministic, suitable both as
    /// a gossip payload and for convergence equality checks.
    #[must_use]
    pub fn rows(&self) -> Vec<AcctRow> {
        self.cells
            .iter()
            .map(|(&(origin, sub), cell)| (origin, sub, *cell))
            .collect()
    }

    /// This table's row for `(origin, sub)`, if any.
    #[must_use]
    pub fn get(&self, origin: u16, sub: u32) -> Option<&UsageCell> {
        self.cells.get(&(origin, sub))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(epoch: u32, as_of_ns: u64, cpu: f64, completed: u64) -> UsageCell {
        UsageCell {
            epoch,
            as_of_ns,
            usage: ResourceVector::new(cpu, cpu / 2.0, cpu * 10.0),
            settled_predicted: ResourceVector::new(cpu, cpu / 2.0, cpu * 10.0),
            completed,
        }
    }

    fn delta(as_of_ns: u64, cpu: f64, completed: u64) -> AcctDelta {
        AcctDelta {
            as_of_ns,
            usage: ResourceVector::new(cpu, 0.0, 0.0),
            settled_predicted: ResourceVector::ZERO,
            completed,
        }
    }

    #[test]
    fn merge_is_commutative_associative_idempotent() {
        let a = cell(1, 10, 100.0, 3);
        let b = cell(1, 20, 80.0, 5);
        let c = cell(2, 5, 10.0, 1);

        // Commutative.
        let mut ab = a;
        ab.merge_from(&b);
        let mut ba = b;
        ba.merge_from(&a);
        assert_eq!(ab, ba);

        // Associative.
        let mut abc = a;
        abc.merge_from(&b);
        abc.merge_from(&c);
        let mut bc = b;
        bc.merge_from(&c);
        let mut a_bc = a;
        a_bc.merge_from(&bc);
        assert_eq!(abc, a_bc);

        // Idempotent.
        let mut aa = a;
        assert!(!aa.merge_from(&a));
        assert_eq!(aa, a);
    }

    #[test]
    fn higher_epoch_wins_wholesale() {
        // A post-crash row with *smaller* counters must still replace the
        // pre-crash row: the epoch, not the magnitude, decides.
        let pre = cell(3, 900, 500.0, 50);
        let post = cell(4, 100, 1.0, 1);
        let mut m = pre;
        assert!(m.merge_from(&post));
        assert_eq!(m, post);
        // And the stale pre-crash copy arriving late is ignored.
        assert!(!m.merge_from(&pre));
        assert_eq!(m, post);
    }

    #[test]
    fn accumulate_resets_on_epoch_bump() {
        let mut t = AcctTable::new();
        t.accumulate(0, 7, 1, delta(100, 5.0, 2));
        t.accumulate(0, 7, 1, delta(200, 5.0, 2));
        assert_eq!(t.get(0, 7).unwrap().completed, 4);
        // Boot: epoch bump resets the row before accumulating.
        t.accumulate(0, 7, 2, delta(300, 1.0, 1));
        let c = t.get(0, 7).unwrap();
        assert_eq!(c.epoch, 2);
        assert_eq!(c.completed, 1);
        assert!((c.usage.cpu_us - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_merge_counts_changes_and_converges() {
        let mut a = AcctTable::new();
        let mut b = AcctTable::new();
        a.accumulate(0, 1, 1, delta(10, 3.0, 1));
        b.accumulate(1, 1, 1, delta(20, 9.0, 2));

        let rows_a = a.rows();
        let rows_b = b.rows();
        assert_eq!(a.merge_rows(&rows_b), 1);
        assert_eq!(b.merge_rows(&rows_a), 1);
        assert_eq!(a.rows(), b.rows(), "tables converge after exchange");
        // Re-delivering either payload changes nothing (idempotence).
        assert_eq!(a.merge_rows(&rows_b), 0);
        assert_eq!(a.merge_rows(&rows_a), 0);
    }

    /// Satellite: any permutation + duplication + dropped-prefix of a
    /// report stream merges to identical balances. The stream is a
    /// sequence of cumulative snapshots from each origin; delivering any
    /// subset that includes each origin's *latest* snapshot (in any order,
    /// any multiplicity) must converge to the same table.
    #[test]
    fn permutation_duplication_and_dropped_prefix_converge() {
        // Deterministic xorshift so the test needs no rand dependency.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };

        // Build per-origin cumulative snapshot streams with an epoch bump
        // (crash + restart) in the middle of origin 1's stream.
        let mut streams: Vec<Vec<AcctRow>> = Vec::new();
        for origin in 0u16..3 {
            let mut snaps = Vec::new();
            let mut tbl = AcctTable::new();
            let mut epoch = 1u32;
            for step in 0..12u64 {
                if origin == 1 && step == 6 {
                    epoch += 1; // crash: counters restart under a new epoch
                }
                for sub in 0..4u32 {
                    let cpu = (next() % 1000) as f64;
                    tbl.accumulate(
                        origin,
                        sub,
                        epoch,
                        AcctDelta {
                            as_of_ns: step * 100,
                            usage: ResourceVector::new(cpu, cpu, cpu),
                            settled_predicted: ResourceVector::new(cpu, cpu, cpu),
                            completed: next() % 3,
                        },
                    );
                }
                snaps.push(tbl.rows());
            }
            streams.push(snaps.concat());
        }
        let full: Vec<AcctRow> = streams.concat();

        // Reference: in-order, exactly-once delivery.
        let mut reference = AcctTable::new();
        reference.merge_rows(&full);
        let want = reference.rows();

        for trial in 0..16u64 {
            // Drop a prefix of each origin's stream — but keep the final
            // snapshot (prefix-drop models lost early reports; the last
            // cumulative snapshot subsumes them).
            let mut delivered: Vec<AcctRow> = Vec::new();
            for s in &streams {
                let rows_per_snap = s.len() / 12;
                let keep_from = ((next() % 11) as usize) * rows_per_snap;
                delivered.extend_from_slice(&s[keep_from.min(s.len() - rows_per_snap)..]);
            }
            // Duplicate a random slice.
            let dup_from = (next() as usize) % delivered.len();
            let dup_to = dup_from + ((next() as usize) % (delivered.len() - dup_from));
            let dup: Vec<AcctRow> = delivered[dup_from..dup_to].to_vec();
            delivered.extend(dup);
            // Permute (Fisher–Yates with the deterministic generator).
            for i in (1..delivered.len()).rev() {
                let j = (next() as usize) % (i + 1);
                delivered.swap(i, j);
            }

            let mut got = AcctTable::new();
            got.merge_rows(&delivered);
            assert_eq!(
                got.rows(),
                want,
                "trial {trial}: mangled delivery diverged from reference"
            );
        }
    }
}
