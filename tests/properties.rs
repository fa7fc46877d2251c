//! Randomized property tests over the core data structures and invariants.
//!
//! Each property is checked against a few hundred cases drawn from a seeded
//! [`StdRng`], so failures are deterministic and reproducible.

use gage::core::conn_table::{ConnTable, Route};
use gage::core::node::RpnId;
use gage::core::queue::SubscriberQueues;
use gage::core::resource::ResourceVector;
use gage::core::subscriber::SubscriberId;
use gage::net::addr::{Endpoint, FourTuple, MacAddr, Port};
use gage::net::splice::SpliceMap;
use gage::net::SeqNum;
use gage::workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

const CASES: usize = 256;

fn rv(rng: &mut StdRng) -> ResourceVector {
    ResourceVector::new(
        rng.gen_range(-1e9..1e9),
        rng.gen_range(-1e9..1e9),
        rng.gen_range(-1e9..1e9),
    )
}

// ---- ResourceVector algebra ----

#[test]
fn resource_add_sub_inverse() {
    let mut rng = StdRng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let (a, b) = (rv(&mut rng), rv(&mut rng));
        let back = (a + b) - b;
        assert!((back.cpu_us - a.cpu_us).abs() <= 1e-6 * (1.0 + a.cpu_us.abs()));
        assert!((back.disk_us - a.disk_us).abs() <= 1e-6 * (1.0 + a.disk_us.abs()));
        assert!((back.net_bytes - a.net_bytes).abs() <= 1e-6 * (1.0 + a.net_bytes.abs()));
    }
}

#[test]
fn resource_min_max_bracket() {
    let mut rng = StdRng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let (a, b) = (rv(&mut rng), rv(&mut rng));
        let lo = a.min(b);
        let hi = a.max(b);
        assert!(lo.fits_within(hi));
        assert!(lo.fits_within(a) && lo.fits_within(b));
        assert!(a.fits_within(hi) && b.fits_within(hi));
    }
}

#[test]
fn resource_clamp_is_nonnegative() {
    let mut rng = StdRng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        assert!(rv(&mut rng).clamped_nonnegative().all_nonnegative());
    }
}

#[test]
fn generic_equivalents_scale() {
    let mut rng = StdRng::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let a: f64 = rng.gen_range(0.0..1e6);
        let k: f64 = rng.gen_range(0.0..1e3);
        let v = ResourceVector::generic_request() * a;
        let scaled = v * k;
        let lhs = scaled.generic_equivalents();
        let rhs = v.generic_equivalents() * k;
        assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + rhs.abs()));
    }
}

// ---- Sequence-number arithmetic ----

#[test]
fn seq_add_sub_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xB1);
    for _ in 0..CASES {
        let base: u32 = rng.gen();
        let delta: u32 = rng.gen();
        let s = SeqNum::new(base);
        assert_eq!((s + delta) - s, delta);
        assert_eq!((s + delta) - delta, s);
    }
}

#[test]
fn seq_before_is_antisymmetric_for_small_deltas() {
    let mut rng = StdRng::seed_from_u64(0xB2);
    for _ in 0..CASES {
        let base: u32 = rng.gen();
        let delta: u32 = rng.gen_range(1..1_000_000);
        let a = SeqNum::new(base);
        let b = a + delta;
        assert!(a.before(b));
        assert!(!b.before(a));
        assert!(b.after(a));
    }
}

#[test]
fn seq_window_contains_exactly_len() {
    let mut rng = StdRng::seed_from_u64(0xB3);
    for _ in 0..CASES {
        let base: u32 = rng.gen();
        let len: u32 = rng.gen_range(1..10_000);
        let probe: u32 = rng.gen();
        let lo = SeqNum::new(base);
        let p = SeqNum::new(probe);
        let inside = p.in_window(lo, len);
        let dist = p - lo;
        assert_eq!(inside, dist < len);
    }
}

// ---- Splice remapping is a bijection on sequence space ----

fn splice_map(rdn_isn: u32, rpn_isn: u32) -> SpliceMap {
    SpliceMap::new(
        Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), Port::new(4000)),
        Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP),
        Ipv4Addr::new(10, 0, 2, 4),
        SeqNum::new(rdn_isn),
        SeqNum::new(rpn_isn),
    )
}

#[test]
fn splice_seq_maps_invert() {
    let mut rng = StdRng::seed_from_u64(0xC1);
    for _ in 0..CASES {
        let map = splice_map(rng.gen(), rng.gen());
        let x = SeqNum::new(rng.gen());
        assert_eq!(map.client_to_server_ack(map.server_to_client_seq(x)), x);
        assert_eq!(map.server_to_client_seq(map.client_to_server_ack(x)), x);
    }
}

#[test]
fn splice_preserves_stream_offsets() {
    let mut rng = StdRng::seed_from_u64(0xC2);
    for _ in 0..CASES {
        let rdn_isn: u32 = rng.gen();
        let rpn_isn: u32 = rng.gen();
        let offset: u32 = rng.gen_range(0..1_000_000);
        let map = splice_map(rdn_isn, rpn_isn);
        // Byte at server offset k appears at client offset k.
        let server_seq = SeqNum::new(rpn_isn) + 1 + offset;
        let client_seq = map.server_to_client_seq(server_seq);
        assert_eq!(client_seq - (SeqNum::new(rdn_isn) + 1), offset);
    }
}

// ---- Queues: conservation of requests ----

#[test]
fn queue_conserves_requests() {
    let mut rng = StdRng::seed_from_u64(0xD1);
    for _ in 0..64 {
        let n_ops = rng.gen_range(1..200);
        let mut q: SubscriberQueues<u64> = SubscriberQueues::new(3, 8);
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        let mut dequeued = 0u64;
        for _ in 0..n_ops {
            let s = SubscriberId(rng.gen_range(0u32..3));
            let val: u64 = rng.gen_range(0u64..1000);
            if val.is_multiple_of(3) {
                if q.dequeue(s).is_some() {
                    dequeued += 1;
                }
            } else {
                match q.enqueue(s, val) {
                    Ok(_) => accepted += 1,
                    Err(_) => dropped += 1,
                }
            }
        }
        assert_eq!(accepted, dequeued + q.total_len() as u64);
        let total_counted: u64 = (0..3)
            .map(|i| q.accepted(SubscriberId(i)) + q.dropped(SubscriberId(i)))
            .sum();
        assert_eq!(total_counted, accepted + dropped);
    }
}

// ---- Connection table behaves like a map ----

#[test]
fn conn_table_matches_model() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    for _ in 0..32 {
        let n_ops = rng.gen_range(1..300);
        let mut table = ConnTable::new();
        let mut model: std::collections::BTreeMap<u16, Route> = std::collections::BTreeMap::new();
        let cluster = Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP);
        let tuple = |k: u16| {
            FourTuple::new(
                Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), Port::new(1000 + k)),
                cluster,
            )
        };
        for _ in 0..n_ops {
            let key: u16 = rng.gen_range(0u16..50);
            match rng.gen_range(0u8..3) {
                0 => {
                    let route = Route {
                        rpn: RpnId(key % 8),
                        rpn_mac: MacAddr::from_node_id(key % 8),
                    };
                    assert_eq!(table.insert(tuple(key), route), model.insert(key, route));
                }
                1 => {
                    assert_eq!(table.lookup(tuple(key)), model.get(&key).copied());
                }
                _ => {
                    assert_eq!(table.remove(tuple(key)), model.remove(&key));
                }
            }
            assert_eq!(table.len(), model.len());
        }
    }
}

// ---- Zipf sampler ----

#[test]
fn zipf_pmf_is_a_distribution() {
    let mut rng = StdRng::seed_from_u64(0xF1);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..200);
        let alpha: f64 = rng.gen_range(0.0..3.0);
        let z = Zipf::new(n, alpha);
        let total: f64 = (0..n).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Monotone non-increasing in rank.
        for r in 1..n {
            assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-12);
        }
    }
}

#[test]
fn zipf_samples_in_range() {
    let mut rng = StdRng::seed_from_u64(0xF2);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..100);
        let alpha: f64 = rng.gen_range(0.0..2.0);
        let z = Zipf::new(n, alpha);
        let mut sample_rng = StdRng::seed_from_u64(rng.gen());
        for _ in 0..50 {
            assert!(z.sample(&mut sample_rng) < n);
        }
    }
}
