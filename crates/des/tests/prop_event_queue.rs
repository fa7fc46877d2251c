//! Randomized tests of the event queue and time arithmetic, driven by a
//! seeded RNG so every run checks the same cases.
//!
//! The timing-wheel queue is additionally cross-checked against a
//! reference model that replicates the original `BinaryHeap` + tombstone
//! implementation verbatim: the wheel must produce the **same pop
//! sequence and the same `EventId`s** under arbitrary interleavings of
//! schedule/cancel/pop/peek, including far-future events that cascade
//! through multiple wheel levels and 10k-cancel churn.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gage_collections::{Slab, SlabKey};
use gage_des::{EventQueue, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Popping always yields events in non-decreasing time order, with
/// FIFO tie-breaking, regardless of insertion order.
#[test]
fn pops_sorted_stable() {
    let mut rng = StdRng::seed_from_u64(0x51);
    for _ in 0..64 {
        let n = rng.gen_range(1..200);
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), (t, i));
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(ev) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(ev.at >= lt, "time went backwards");
                if ev.at == lt {
                    assert!(ev.event.1 > li, "FIFO violated on ties");
                }
            }
            assert_eq!(SimTime::from_millis(ev.event.0), ev.at);
            last = Some((ev.at, ev.event.1));
        }
        assert!(q.is_empty());
    }
}

/// Cancelled events never come out; everything else always does.
#[test]
fn cancellation_is_exact() {
    let mut rng = StdRng::seed_from_u64(0x52);
    for _ in 0..64 {
        let n = rng.gen_range(1..100);
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1_000)).collect();
        let cancel_mask: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule(SimTime::from_millis(t), i)))
            .collect();
        let mut expect: std::collections::HashSet<usize> = (0..times.len()).collect();
        for (i, id) in &ids {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                assert!(q.cancel(*id));
                expect.remove(i);
            }
        }
        assert_eq!(q.len(), expect.len());
        let mut seen = std::collections::HashSet::new();
        while let Some(ev) = q.pop() {
            assert!(seen.insert(ev.event), "duplicate delivery");
        }
        assert_eq!(seen, expect);
    }
}

/// Reference model: the pre-wheel `BinaryHeap`-backed queue, reproduced
/// operation for operation (same `Slab` liveness discipline, same lazy
/// tombstones), so the wheel's pop order *and* handed-out `EventId`s can
/// be compared against it exactly. `EventId` is opaque, so identity is
/// compared through its `Debug` form against the model's raw slab key.
struct HeapModel {
    heap: BinaryHeap<ModelEntry>,
    live: Slab<()>,
    next_seq: u64,
}

struct ModelEntry {
    at: u64,
    seq: u64,
    slot: SlabKey,
    payload: u64,
}

impl PartialEq for ModelEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for ModelEntry {}
impl PartialOrd for ModelEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ModelEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl HeapModel {
    fn new() -> Self {
        HeapModel {
            heap: BinaryHeap::new(),
            live: Slab::new(),
            next_seq: 0,
        }
    }

    /// Returns the raw id the real queue must hand out for this schedule.
    fn schedule(&mut self, at: u64, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.live.insert(());
        self.heap.push(ModelEntry {
            at,
            seq,
            slot,
            payload,
        });
        slot.to_raw()
    }

    fn cancel(&mut self, raw: u64) -> bool {
        self.live.remove(SlabKey::from_raw(raw)).is_some()
    }

    fn pop(&mut self) -> Option<(u64, u64, u64)> {
        while let Some(e) = self.heap.pop() {
            if self.live.remove(e.slot).is_some() {
                return Some((e.at, e.slot.to_raw(), e.payload));
            }
        }
        None
    }

    fn peek(&mut self) -> Option<u64> {
        loop {
            let e = self.heap.peek()?;
            if self.live.contains(e.slot) {
                return Some(e.at);
            }
            self.heap.pop();
        }
    }

    fn len(&self) -> usize {
        self.live.len()
    }
}

fn id_debug(raw: u64) -> String {
    format!("EventId({raw})")
}

/// Drives the wheel and the heap model through an identical randomized op
/// sequence and asserts every observable agrees: handed-out ids, cancel
/// results, peeked times, and the full pop sequence. `boundary_pct` of the
/// schedules land just past a level-1 or level-2 slot start.
fn cross_check(
    seed: u64,
    iters: usize,
    horizon_ns: u64,
    cancel_pct: u32,
    pop_pct: u32,
    boundary_pct: u32,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut model = HeapModel::new();
    let mut ids: Vec<(gage_des::EventId, u64)> = Vec::new();
    let mut payload = 0u64;
    let mut now = 0u64;
    for _ in 0..iters {
        let roll = rng.gen_range(0..100u32);
        if roll < cancel_pct && !ids.is_empty() {
            // Cancel a random handle, possibly stale or already cancelled:
            // both sides must agree on whether it was still pending.
            let (id, raw) = ids[rng.gen_range(0..ids.len())];
            assert_eq!(wheel.cancel(id), model.cancel(raw));
        } else if roll < cancel_pct + pop_pct {
            let got = wheel.pop();
            let want = model.pop();
            match (got, want) {
                (None, None) => {}
                (Some(g), Some((at, raw, pl))) => {
                    assert_eq!(g.at.as_nanos(), at, "pop time diverged");
                    assert_eq!(format!("{:?}", g.id), id_debug(raw), "EventId diverged");
                    assert_eq!(g.event, pl, "payload diverged");
                    now = now.max(at);
                }
                (g, w) => panic!("pop presence diverged: {g:?} vs {w:?}"),
            }
        } else if roll < cancel_pct + pop_pct + 5 {
            assert_eq!(wheel.peek_time().map(SimTime::as_nanos), model.peek());
        } else {
            // Bias schedules toward the near future (the periodic-cycle
            // workload) but reach the whole horizon so upper levels and
            // overflow stay exercised. Boundary schedules (drawn only when
            // asked for, so the other cases keep their streams) sit in the
            // first fine slot of a coarse slot a few slots ahead: whether
            // they file at the coarse level or one finer depends on the
            // clock, so coarse and fine slots come to start together.
            let at = if boundary_pct > 0 && rng.gen_range(0..100u32) < boundary_pct {
                let shift = if rng.gen_bool(0.5) { 22 } else { 28 };
                (((now >> shift) + rng.gen_range(1..4u64)) << shift) + rng.gen_range(0..1_024u64)
            } else if rng.gen_range(0..4u32) == 0 {
                now + rng.gen_range(0..horizon_ns)
            } else {
                now + rng.gen_range(0..20_000_000u64) // within 20 ms
            };
            payload += 1;
            let raw = model.schedule(at, payload);
            let id = wheel.schedule(SimTime::from_nanos(at), payload);
            assert_eq!(format!("{id:?}"), id_debug(raw), "schedule id diverged");
            ids.push((id, raw));
        }
        assert_eq!(wheel.len(), model.len());
    }
    // Drain both completely: full remaining order must match.
    loop {
        let got = wheel.pop();
        let want = model.pop();
        match (got, want) {
            (None, None) => break,
            (Some(g), Some((at, raw, pl))) => {
                assert_eq!((g.at.as_nanos(), g.event), (at, pl));
                assert_eq!(format!("{:?}", g.id), id_debug(raw));
            }
            (g, w) => panic!("drain diverged: {g:?} vs {w:?}"),
        }
    }
    assert!(wheel.is_empty());
}

/// Mixed schedule/cancel/pop/peek interleavings at cycle-scale times.
#[test]
fn wheel_matches_heap_model_on_interleavings() {
    for seed in [0x61, 0x62, 0x63, 0x64] {
        cross_check(seed, 4_000, 50_000_000, 25, 30, 0);
    }
}

/// Far-future events that must cascade through multiple wheel levels
/// (a horizon of 2^54 ns, ~208 days, spans all six levels plus overflow).
#[test]
fn wheel_matches_heap_model_across_level_cascades() {
    for seed in [0x71, 0x72] {
        cross_check(seed, 1_500, 1u64 << 54, 15, 35, 0);
    }
}

/// 10k-cancel churn: cancellation dominates, compaction kicks in, and the
/// survivors still pop in exactly the model's order with the model's ids.
#[test]
fn wheel_matches_heap_model_under_cancel_churn() {
    cross_check(0x81, 12_000, 10_000_000_000, 60, 10, 0);
}

/// Events just past level-1 and level-2 slot starts, where a coarse slot
/// and a fine one start at the same instant: the coarse one must
/// redistribute before the fine one drains.
#[test]
fn wheel_matches_heap_model_at_slot_start_ties() {
    for seed in [0x91, 0x92, 0x93, 0x94] {
        cross_check(seed, 4_000, 50_000_000, 10, 35, 50);
    }
}

/// Time arithmetic: (t + d) - t == d and ordering is consistent.
#[test]
fn time_arithmetic() {
    let mut rng = StdRng::seed_from_u64(0x53);
    for _ in 0..256 {
        let base: u64 = rng.gen_range(0..u64::MAX / 4);
        let d: u64 = rng.gen_range(0..u64::MAX / 4);
        let t = SimTime::from_nanos(base);
        let dur = SimDuration::from_nanos(d);
        assert_eq!((t + dur) - t, dur);
        assert!((t + dur) >= t);
        assert_eq!((t + dur) - dur, t);
        assert_eq!(t.saturating_since(t + dur), SimDuration::ZERO);
    }
}

/// Duration scaling round-trips through f64 within tolerance.
#[test]
fn duration_f64_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x54);
    for _ in 0..256 {
        let ms: u64 = rng.gen_range(0..10_000_000);
        let d = SimDuration::from_millis(ms);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        let err = back.as_nanos().abs_diff(d.as_nanos());
        assert!(err <= 1 + d.as_nanos() / 1_000_000_000, "err {err}");
    }
}
