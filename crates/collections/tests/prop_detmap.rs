//! Randomized cross-check of `DetMap` against `BTreeMap` (the workspace's
//! previous deterministic baseline): same membership after an arbitrary
//! seeded insert/remove/pop/move interleaving, iteration order equal to a
//! plain key-list model, and identical iteration order across two
//! same-seed runs.

use gage_collections::{DetMap, Slab, SlabKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Replays `ops` seeded random operations and returns the map plus a
/// BTreeMap model maintained in lockstep.
fn drive(seed: u64, ops: usize) -> (DetMap<u64, u64>, BTreeMap<u64, u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut map = DetMap::with_seed(seed ^ 0xDEAD_BEEF);
    let mut model = BTreeMap::new();
    for i in 0..ops {
        // Narrow key space forces collisions, replacements, and tombstones.
        let key = rng.gen_range(0u64..512);
        match rng.gen_range(0u32..12) {
            0..=5 => {
                let v = i as u64;
                assert_eq!(map.insert(key, v), model.insert(key, v), "insert({key})");
            }
            6..=8 => {
                assert_eq!(map.remove(&key), model.remove(&key), "remove({key})");
            }
            9 => {
                if let Some((k, v)) = map.pop_front() {
                    assert_eq!(model.remove(&k), Some(v), "pop_front -> {k}");
                } else {
                    assert!(model.is_empty());
                }
            }
            _ => {
                let present = model.contains_key(&key);
                assert_eq!(map.move_to_back(&key), present, "move_to_back({key})");
            }
        }
        assert_eq!(map.get(&key), model.get(&key));
        assert_eq!(map.contains_key(&key), model.contains_key(&key));
        assert_eq!(map.len(), model.len());
    }
    (map, model)
}

#[test]
fn membership_matches_btreemap_model() {
    for seed in [1u64, 7, 42, 20030519] {
        let (map, model) = drive(seed, 20_000);
        // Same key/value sets, independent of iteration order.
        let mut from_map: Vec<(u64, u64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        from_map.sort_unstable();
        let from_model: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(from_map, from_model, "seed {seed}");
    }
}

#[test]
fn iteration_order_identical_across_same_seed_runs() {
    let order = |seed: u64| {
        let (map, _) = drive(seed, 20_000);
        map.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
    };
    assert_eq!(order(11), order(11));
    assert_eq!(order(20030519), order(20030519));
}

#[test]
fn iteration_order_is_pure_insertion_order() {
    // Regardless of hash layout, iteration must follow the insertion order
    // of the surviving keys, with `move_to_back` counting as a fresh
    // insertion — the order the cluster determinism digest relies on and
    // the page cache evicts from with `pop_front`.
    let mut rng = StdRng::seed_from_u64(3);
    let mut map = DetMap::with_seed(99);
    let mut expected: Vec<u64> = Vec::new();
    for i in 0..5_000 {
        let key = rng.gen_range(0u64..256);
        match rng.gen_range(0u32..10) {
            0..=5 => {
                if map.insert(key, key).is_none() {
                    expected.push(key);
                }
            }
            6..=7 => {
                if map.remove(&key).is_some() {
                    expected.retain(|k| *k != key);
                }
            }
            8 => {
                if let Some((k, _)) = map.pop_front() {
                    assert_eq!(expected.remove(0), k, "pop_front at op {i}");
                }
            }
            _ => {
                if map.move_to_back(&key) {
                    expected.retain(|k| *k != key);
                    expected.push(key);
                }
            }
        }
    }
    let got: Vec<u64> = map.keys().copied().collect();
    assert_eq!(got, expected);
}

#[test]
fn slab_randomized_against_model() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut slab: Slab<u64> = Slab::new();
    let mut live: BTreeMap<u64, u64> = BTreeMap::new(); // raw key -> value
    let mut dead: Vec<SlabKey> = Vec::new();
    for i in 0..20_000u64 {
        if rng.gen_bool(0.55) || live.is_empty() {
            let k = slab.insert(i);
            assert_eq!(live.insert(k.to_raw(), i), None, "key reuse while live");
        } else {
            let nth = rng.gen_range(0..live.len());
            let raw = *live.keys().nth(nth).expect("nth < len");
            let v = live.remove(&raw).expect("model has key");
            let key = SlabKey::from_raw(raw);
            assert_eq!(slab.remove(key), Some(v));
            dead.push(key);
        }
        assert_eq!(slab.len(), live.len());
    }
    for (raw, v) in &live {
        assert_eq!(slab.get(SlabKey::from_raw(*raw)), Some(v));
    }
    for key in dead {
        assert_eq!(slab.get(key), None, "stale key resolved");
    }
}
