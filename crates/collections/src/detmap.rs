//! A deterministic, seedable, insertion-ordered open-addressing hash map.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Sentinel for "no slot" in the insertion-order links.
const NIL: u32 = u32::MAX;
/// Index-table sentinel: bucket never used.
const EMPTY: u32 = u32::MAX;
/// Index-table sentinel: bucket held an entry that was removed.
const TOMB: u32 = u32::MAX - 1;
/// Hash seed used by [`DetMap::new`]; any fixed value works, runs only need
/// to agree with themselves.
const DEFAULT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fast, explicitly seeded [`Hasher`] (FxHash-style multiply-rotate with
/// a murmur-style finalizer). Unlike `RandomState` it has **no per-process
/// entropy**: the same seed and input produce the same hash on every run
/// and platform, which is what makes [`DetMap`] layouts reproducible.
#[derive(Debug, Clone)]
pub struct DetHasher {
    state: u64,
}

impl DetHasher {
    /// Creates a hasher whose stream is a pure function of `seed`.
    pub fn with_seed(seed: u64) -> Self {
        DetHasher {
            state: seed ^ 0x51_7c_c1_b7_27_22_0a_95,
        }
    }

    #[inline]
    fn mix(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Finalizer spreads entropy into the low bits (the map masks with
        // a power-of-two capacity, so low bits must carry the hash).
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut i = 0;
        while i + 8 <= bytes.len() {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[i..i + 8]);
            self.mix(u64::from_le_bytes(w));
            i += 8;
        }
        if i < bytes.len() {
            let mut w = [0u8; 8];
            w[..bytes.len() - i].copy_from_slice(&bytes[i..]);
            // Tag the tail with its length so "ab" + "" ≠ "a" + "b".
            self.mix(u64::from_le_bytes(w) ^ ((bytes.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.mix(v as u8 as u64);
    }
    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.mix(v as u16 as u64);
    }
    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.mix(v as u32 as u64);
    }
    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.mix(v as u64);
    }
}

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    hash: u64,
    prev: u32,
    next: u32,
}

/// A deterministic hash map with **insertion-order iteration**.
///
/// Layout is index-map style: a dense slab of nodes (threaded on a
/// doubly-linked list in insertion order) plus a power-of-two
/// open-addressing index of slab positions with tombstone deletion. All
/// operations are O(1) amortized; iteration visits the *surviving* keys in
/// insertion order, where [`move_to_back`](Self::move_to_back) counts as a
/// fresh insertion and replacing a present key's value does not. The order
/// is a pure function of the insert/remove/move sequence, never of pointer
/// values or process entropy.
///
/// ```rust
/// use gage_collections::DetMap;
/// let mut m = DetMap::new();
/// m.insert("b", 2);
/// m.insert("a", 1);
/// m.insert("c", 3);
/// m.remove(&"a");
/// let order: Vec<&str> = m.keys().copied().collect();
/// assert_eq!(order, vec!["b", "c"]);
/// assert_eq!(m.get(&"c"), Some(&3));
/// ```
#[derive(Clone)]
pub struct DetMap<K, V> {
    slots: Vec<Option<Node<K, V>>>,
    /// Vacant slab positions, reused LIFO (deterministically).
    free: Vec<u32>,
    head: u32,
    tail: u32,
    /// Open-addressing table of slab positions (`EMPTY` / `TOMB` sentinels).
    index: Vec<u32>,
    len: usize,
    tombs: usize,
    seed: u64,
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for DetMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> DetMap<K, V> {
    /// Creates an empty map with the workspace-default hash seed.
    pub fn new() -> Self {
        Self::with_seed(DEFAULT_SEED)
    }

    /// Creates an empty map hashing with `seed`. Two maps built with the
    /// same seed and operation sequence are layout-identical.
    pub fn with_seed(seed: u64) -> Self {
        DetMap {
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            index: Vec::new(),
            len: 0,
            tombs: 0,
            seed,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        for b in &mut self.index {
            *b = EMPTY;
        }
        self.len = 0;
        self.tombs = 0;
    }

    /// Iterates `(key, value)` pairs in insertion order (as defined on
    /// [`DetMap`], so a moved key comes after every key it was moved past).
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            slots: &self.slots,
            next: self.head,
            remaining: self.len,
        }
    }

    /// Iterates keys in insertion order (as for [`iter`](Self::iter)).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in insertion order (as for [`iter`](Self::iter)).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// The front of the insertion order (as for [`iter`](Self::iter)): the
    /// surviving entry least recently inserted or moved to the back, if any.
    pub fn front(&self) -> Option<(&K, &V)> {
        if self.head == NIL {
            return None;
        }
        let node = self.slots.get(self.head as usize)?.as_ref()?;
        Some((&node.key, &node.value))
    }

    #[inline]
    fn node_mut(&mut self, slot: u32) -> Option<&mut Node<K, V>> {
        self.slots.get_mut(slot as usize).and_then(|s| s.as_mut())
    }

    /// Closes the order-list gap between a node's `prev` and `next`.
    #[inline]
    fn unlink(&mut self, prev: u32, next: u32) {
        if prev == NIL {
            self.head = next;
        } else if let Some(p) = self.node_mut(prev) {
            p.next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else if let Some(nx) = self.node_mut(next) {
            nx.prev = prev;
        }
    }

    /// Appends the live node at `slot` to the back of the order list.
    #[inline]
    fn link_back(&mut self, slot: u32) {
        let tail = self.tail;
        if let Some(n) = self.node_mut(slot) {
            n.prev = tail;
            n.next = NIL;
        }
        if tail == NIL {
            self.head = slot;
        } else if let Some(t) = self.node_mut(tail) {
            t.next = slot;
        }
        self.tail = slot;
    }
}

impl<K: Hash + Eq, V> DetMap<K, V> {
    /// Hashes any borrowed form of a key; `Borrow` requires it to hash
    /// exactly like the owned key.
    #[inline]
    fn hash_of<Q: Hash + ?Sized>(&self, key: &Q) -> u64 {
        let mut h = DetHasher::with_seed(self.seed);
        key.hash(&mut h);
        h.finish()
    }

    /// Probes the index for `key`; returns `(bucket, slot)` when present.
    #[inline]
    fn find<Q>(&self, hash: u64, key: &Q) -> Option<(usize, u32)>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut pos = (hash as usize) & mask;
        loop {
            match self.index[pos] {
                EMPTY => return None,
                TOMB => {}
                slot => {
                    if let Some(node) = self.slots.get(slot as usize).and_then(|s| s.as_ref()) {
                        if node.hash == hash && node.key.borrow() == key {
                            return Some((pos, slot));
                        }
                    }
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Inserts `key → value`; returns the previous value if the key was
    /// present (its insertion-order position is kept).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.reserve_one();
        let hash = self.hash_of(&key);
        if let Some((_, slot)) = self.find(hash, &key) {
            if let Some(node) = self.slots.get_mut(slot as usize).and_then(|s| s.as_mut()) {
                return Some(std::mem::replace(&mut node.value, value));
            }
        }
        // New key: claim a slab slot, append to the order list, and file it
        // in the first reusable bucket of the probe sequence.
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize] = Some(Node {
            key,
            value,
            hash,
            prev: NIL,
            next: NIL,
        });
        self.link_back(slot);

        let mask = self.index.len() - 1;
        let mut pos = (hash as usize) & mask;
        loop {
            match self.index[pos] {
                EMPTY => {
                    self.index[pos] = slot;
                    break;
                }
                TOMB => {
                    self.index[pos] = slot;
                    self.tombs -= 1;
                    break;
                }
                _ => pos = (pos + 1) & mask,
            }
        }
        self.len += 1;
        None
    }

    /// The value filed under `key`, if present.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        let hash = self.hash_of(key);
        let (_, slot) = self.find(hash, key)?;
        self.slots
            .get(slot as usize)
            .and_then(|s| s.as_ref())
            .map(|n| &n.value)
    }

    /// True if `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        let hash = self.hash_of(key);
        self.find(hash, key).is_some()
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let hash = self.hash_of(key);
        let (bucket, slot) = self.find(hash, key)?;
        self.remove_slot(bucket, slot).map(|n| n.value)
    }

    /// Removes and returns the [`front`](Self::front) entry.
    pub fn pop_front(&mut self) -> Option<(K, V)> {
        if self.head == NIL {
            return None;
        }
        let slot = self.head;
        let hash = self.slots.get(slot as usize)?.as_ref()?.hash;
        // Find the head's bucket by probing for its slot number; the entry
        // is live, so the probe sequence reaches it before any EMPTY.
        let mask = self.index.len() - 1;
        let mut pos = (hash as usize) & mask;
        loop {
            match self.index[pos] {
                EMPTY => return None, // index invariant broken; fail closed
                s if s == slot => break,
                _ => pos = (pos + 1) & mask,
            }
        }
        self.remove_slot(pos, slot).map(|n| (n.key, n.value))
    }

    /// Moves `key` to the back of the insertion order, as if it had just
    /// been inserted (its value is kept), without touching the index or
    /// allocating. Returns
    /// whether `key` was present. With [`pop_front`](Self::pop_front) this
    /// makes the map an O(1) recency list.
    pub fn move_to_back<Q>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = self.hash_of(key);
        let Some((_, slot)) = self.find(hash, key) else {
            return false;
        };
        if slot != self.tail {
            if let Some((prev, next)) = self.node_mut(slot).map(|n| (n.prev, n.next)) {
                self.unlink(prev, next);
                self.link_back(slot);
            }
        }
        true
    }

    fn remove_slot(&mut self, bucket: usize, slot: u32) -> Option<Node<K, V>> {
        let node = self.slots.get_mut(slot as usize)?.take()?;
        self.index[bucket] = TOMB;
        self.tombs += 1;
        self.unlink(node.prev, node.next);
        self.free.push(slot);
        self.len -= 1;
        Some(node)
    }

    /// Ensures the index can absorb one more entry at < 7/8 combined
    /// (live + tombstone) load, growing or compacting as needed.
    fn reserve_one(&mut self) {
        let cap = self.index.len();
        if cap == 0 {
            self.index = vec![EMPTY; 8];
            return;
        }
        if (self.len + self.tombs + 1) * 8 < cap * 7 {
            return;
        }
        // Grow when genuinely loaded; otherwise rebuild at the same size to
        // purge tombstones.
        let new_cap = if (self.len + 1) * 2 >= cap {
            cap * 2
        } else {
            cap
        };
        self.rebuild(new_cap);
    }

    fn rebuild(&mut self, new_cap: usize) {
        let mut index = vec![EMPTY; new_cap];
        let mask = new_cap - 1;
        let mut cur = self.head;
        while cur != NIL {
            let (hash, next) = match self.slots.get(cur as usize).and_then(|s| s.as_ref()) {
                Some(n) => (n.hash, n.next),
                None => break, // order-list invariant broken; fail closed
            };
            let mut pos = (hash as usize) & mask;
            while index[pos] != EMPTY {
                pos = (pos + 1) & mask;
            }
            index[pos] = cur;
            cur = next;
        }
        self.index = index;
        self.tombs = 0;
    }
}

/// Insertion-order iterator over a [`DetMap`].
#[derive(Debug)]
pub struct Iter<'a, K, V> {
    slots: &'a [Option<Node<K, V>>],
    next: u32,
    remaining: usize,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == NIL {
            return None;
        }
        let node = self.slots.get(self.next as usize)?.as_ref()?;
        self.next = node.next;
        self.remaining = self.remaining.saturating_sub(1);
        Some((&node.key, &node.value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<'a, K, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = DetMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1u64, "one"), None);
        assert_eq!(m.insert(2, "two"), None);
        assert_eq!(m.insert(1, "uno"), Some("one"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1), Some(&"uno"));
        assert!(m.contains_key(&2));
        assert_eq!(m.remove(&1), Some("uno"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&1), None);
    }

    #[test]
    fn iteration_is_insertion_order() {
        let mut m = DetMap::new();
        for k in [5u32, 3, 9, 1, 7] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![5, 3, 9, 1, 7]);
        m.remove(&9);
        m.insert(4, 40);
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![5, 3, 1, 7, 4]);
        assert_eq!(m.front(), Some((&5, &50)));
    }

    #[test]
    fn reinsert_keeps_original_position() {
        let mut m = DetMap::new();
        m.insert("a", 1);
        m.insert("b", 2);
        m.insert("a", 3); // same key: value replaced, position kept
        let pairs: Vec<(&str, i32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs, vec![("a", 3), ("b", 2)]);
    }

    #[test]
    fn pop_front_is_fifo_over_survivors() {
        let mut m = DetMap::new();
        for k in 0u32..6 {
            m.insert(k, k);
        }
        m.remove(&0);
        m.remove(&2);
        assert_eq!(m.pop_front(), Some((1, 1)));
        assert_eq!(m.pop_front(), Some((3, 3)));
        assert_eq!(m.len(), 2);
    }

    fn order(m: &DetMap<u32, u32>) -> Vec<u32> {
        m.keys().copied().collect()
    }

    fn abc() -> DetMap<u32, u32> {
        let mut m = DetMap::new();
        for k in [1, 2, 3] {
            m.insert(k, k * 10);
        }
        m
    }

    #[test]
    fn move_to_back_from_head() {
        let mut m = abc();
        assert!(m.move_to_back(&1));
        assert_eq!(order(&m), vec![2, 3, 1]);
        assert_eq!(m.front(), Some((&2, &20)));
        assert_eq!(m.pop_front(), Some((2, 20)));
    }

    #[test]
    fn move_to_back_from_tail_is_a_no_op() {
        let mut m = abc();
        assert!(m.move_to_back(&3));
        assert_eq!(order(&m), vec![1, 2, 3]);
        m.insert(4, 40);
        assert_eq!(order(&m), vec![1, 2, 3, 4]);
    }

    #[test]
    fn move_to_back_from_middle() {
        let mut m = abc();
        assert!(m.move_to_back(&2));
        assert_eq!(order(&m), vec![1, 3, 2]);
        // The links stay consistent for later removals and appends.
        assert_eq!(m.remove(&3), Some(30));
        m.insert(5, 50);
        assert_eq!(order(&m), vec![1, 2, 5]);
        assert_eq!(m.get(&2), Some(&20));
    }

    #[test]
    fn move_to_back_single_entry() {
        let mut m = DetMap::new();
        m.insert(9u32, 90u32);
        assert!(m.move_to_back(&9));
        assert_eq!(order(&m), vec![9]);
        assert_eq!(m.pop_front(), Some((9, 90)));
        assert!(m.is_empty());
    }

    #[test]
    fn move_to_back_absent_key() {
        let mut m = abc();
        assert!(!m.move_to_back(&7));
        assert_eq!(order(&m), vec![1, 2, 3]);
        assert!(!DetMap::<u32, u32>::new().move_to_back(&1));
    }

    #[test]
    fn move_to_back_borrows_string_keys() {
        let mut m = DetMap::new();
        m.insert("/a".to_string(), 1);
        m.insert("/b".to_string(), 2);
        assert!(m.move_to_back("/a"));
        let keys: Vec<&str> = m.keys().map(String::as_str).collect();
        assert_eq!(keys, vec!["/b", "/a"]);
    }

    #[test]
    fn survives_heavy_tombstone_churn() {
        let mut m = DetMap::new();
        for round in 0u64..50 {
            for k in 0u64..100 {
                m.insert(round * 1_000 + k, k);
            }
            for k in 0u64..100 {
                assert_eq!(m.remove(&(round * 1_000 + k)), Some(k));
            }
        }
        assert!(m.is_empty());
        m.insert(7, 7);
        assert_eq!(m.get(&7), Some(&7));
    }

    #[test]
    fn same_seed_same_layout_same_order() {
        let build = || {
            let mut m = DetMap::with_seed(42);
            for k in 0u64..1_000 {
                m.insert(k.wrapping_mul(0x9E37_79B9), k);
            }
            for k in (0u64..1_000).step_by(3) {
                m.remove(&k.wrapping_mul(0x9E37_79B9));
            }
            m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn clear_keeps_working() {
        let mut m = DetMap::new();
        for k in 0u32..100 {
            m.insert(k, ());
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        m.insert(1, ());
        assert_eq!(m.len(), 1);
        assert_eq!(m.front(), Some((&1, &())));
    }

    #[test]
    fn string_keys_work() {
        let mut m = DetMap::new();
        m.insert("alpha".to_string(), 1);
        m.insert("beta".to_string(), 2);
        assert_eq!(m.get(&"alpha".to_string()), Some(&1));
        assert_eq!(m.remove(&"beta".to_string()), Some(2));
    }

    #[test]
    fn hasher_is_stable_for_tails() {
        // Distinct byte strings with shared prefixes must hash apart.
        let h = |bytes: &[u8]| {
            let mut h = DetHasher::with_seed(1);
            h.write(bytes);
            h.finish()
        };
        assert_ne!(h(b"a"), h(b"ab"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefg"));
        assert_eq!(h(b"abcdefgh"), h(b"abcdefgh"));
    }
}
