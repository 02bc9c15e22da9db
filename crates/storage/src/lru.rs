//! An order-preserving LRU cache with O(1) access, insert and removal.
//!
//! Used for the disk caches (volatile and non-volatile), the second-level
//! NVEM database buffer and the main-memory buffer.  Besides the usual LRU
//! operations it supports scanning from the least-recently-used end for the
//! first entry matching a predicate — needed to find "the least recently
//! accessed unmodified page" when a non-volatile cache handles a write miss.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    /// `None` only for slots on the free list.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU cache.
#[derive(Debug, Clone)]
pub struct LruCache<K: Eq + Hash + Clone, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (capacity >= 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be at least 1");
        Self {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if the cache is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// True if `key` is cached.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Marks `key` as most recently used.  Returns false if absent.
    pub fn touch(&mut self, key: &K) -> bool {
        if let Some(&idx) = self.map.get(key) {
            self.detach(idx);
            self.attach_front(idx);
            true
        } else {
            false
        }
    }

    /// Returns the value for `key` and marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if let Some(&idx) = self.map.get(key) {
            self.detach(idx);
            self.attach_front(idx);
            self.nodes[idx].value.as_ref()
        } else {
            None
        }
    }

    /// Mutable access to the value for `key`, marking it most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if let Some(&idx) = self.map.get(key) {
            self.detach(idx);
            self.attach_front(idx);
            self.nodes[idx].value.as_mut()
        } else {
            None
        }
    }

    /// Returns the value for `key` without affecting recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&idx| self.nodes[idx].value.as_ref())
    }

    /// Mutable access without affecting recency.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        if let Some(&idx) = self.map.get(key) {
            self.nodes[idx].value.as_mut()
        } else {
            None
        }
    }

    /// Inserts (or updates) `key`, marking it most recently used.  If the
    /// cache is full the least-recently-used entry is evicted and returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = Some(value);
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        let evicted = if self.is_full() { self.pop_lru() } else { None };
        let idx = if let Some(free) = self.free.pop() {
            self.nodes[free] = Node {
                key: key.clone(),
                value: Some(value),
                prev: NIL,
                next: NIL,
            };
            free
        } else {
            self.nodes.push(Node {
                key: key.clone(),
                value: Some(value),
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        self.nodes[idx].value.take()
    }

    /// Removes and returns the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let key = self.nodes[self.tail].key.clone();
        let value = self.remove(&key)?;
        Some((key, value))
    }

    /// Key of the least-recently-used entry.
    pub fn least_recent_key(&self) -> Option<&K> {
        (self.tail != NIL).then(|| &self.nodes[self.tail].key)
    }

    /// Scans from the least-recently-used end and returns the key of the first
    /// entry whose value matches `pred`.
    pub fn lru_matching<F: Fn(&V) -> bool>(&self, pred: F) -> Option<K> {
        let mut idx = self.tail;
        while idx != NIL {
            if self.nodes[idx].value.as_ref().is_some_and(&pred) {
                return Some(self.nodes[idx].key.clone());
            }
            idx = self.nodes[idx].prev;
        }
        None
    }

    /// Iterates from least-recently-used to most-recently-used.
    pub fn iter_lru(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut idx = self.tail;
        std::iter::from_fn(move || {
            if idx == NIL {
                None
            } else {
                let node = &self.nodes[idx];
                idx = node.prev;
                Some((
                    &node.key,
                    node.value.as_ref().expect("live node has a value"),
                ))
            }
        })
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut c = LruCache::new(3);
        assert!(c.insert(1, "a").is_none());
        assert!(c.insert(2, "b").is_none());
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.peek(&2), Some(&"b"));
        assert_eq!(c.len(), 2);
        assert!(!c.is_full());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.get(&1); // 2 is now LRU
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert!(c.contains(&1) && c.contains(&3));
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(c.insert(1, 11).is_none());
        assert_eq!(c.peek(&1), Some(&11));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c = LruCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!(c.remove(&2), Some(20));
        assert_eq!(c.len(), 2);
        assert!(!c.contains(&2));
        c.insert(4, 40);
        c.insert(5, 50); // evicts 1 (LRU)
        assert!(!c.contains(&1));
        assert!(c.contains(&3) && c.contains(&4) && c.contains(&5));
    }

    #[test]
    fn pop_lru_order() {
        let mut c = LruCache::new(3);
        c.insert(1, 'a');
        c.insert(2, 'b');
        c.insert(3, 'c');
        c.touch(&1);
        assert_eq!(c.pop_lru(), Some((2, 'b')));
        assert_eq!(c.pop_lru(), Some((3, 'c')));
        assert_eq!(c.pop_lru(), Some((1, 'a')));
        assert_eq!(c.pop_lru(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_matching_finds_oldest_matching_entry() {
        let mut c = LruCache::new(4);
        c.insert(1, true); // dirty
        c.insert(2, false); // clean
        c.insert(3, true);
        c.insert(4, false);
        // Oldest clean entry is 2.
        assert_eq!(c.lru_matching(|dirty| !*dirty), Some(2));
        // Oldest dirty entry is 1.
        assert_eq!(c.lru_matching(|dirty| *dirty), Some(1));
        assert_eq!(c.lru_matching(|_| false), None);
    }

    #[test]
    fn iter_lru_walks_from_cold_to_hot() {
        let mut c = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&1);
        let order: Vec<i32> = c.iter_lru().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn peek_does_not_change_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.peek(&1);
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((1, 10)));
    }

    #[test]
    fn get_mut_and_peek_mut() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        *c.peek_mut(&1).unwrap() += 1;
        // peek_mut did not touch; 1 is still LRU.
        assert_eq!(c.least_recent_key(), Some(&1));
        *c.get_mut(&1).unwrap() += 1;
        assert_eq!(c.peek(&1), Some(&12));
        assert_eq!(c.least_recent_key(), Some(&2));
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = LruCache::new(2);
        c.insert(1, 1);
        c.clear();
        assert!(c.is_empty());
        assert!(c.insert(2, 2).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_one_cache() {
        let mut c = LruCache::new(1);
        assert!(c.insert(1, 'x').is_none());
        assert_eq!(c.insert(2, 'y'), Some((1, 'x')));
        assert_eq!(c.least_recent_key(), Some(&2));
    }

    #[test]
    fn capacity_one_eviction_order_under_churn() {
        // At capacity 1 the sole resident entry is simultaneously MRU and
        // LRU: every insert of a new key must evict exactly the previous
        // key, in insertion order, and touch/get must not change that.
        let mut c = LruCache::new(1);
        c.insert(10, "a");
        c.get(&10);
        c.touch(&10);
        assert!(c.is_full());
        for (next, prev) in [(11u64, 10u64), (12, 11), (13, 12)] {
            let evicted = c.insert(next, "x");
            assert_eq!(evicted.map(|(k, _)| k), Some(prev));
            assert_eq!(c.len(), 1);
            assert_eq!(c.least_recent_key(), Some(&next));
            assert!(c.contains(&next) && !c.contains(&prev));
        }
        // Re-inserting the resident key is an update, not an eviction.
        assert!(c.insert(13, "y").is_none());
        assert_eq!(c.peek(&13), Some(&"y"));
    }

    #[test]
    fn capacity_one_predicate_scan() {
        let mut c = LruCache::new(1);
        assert_eq!(c.lru_matching(|_: &bool| true), None);
        c.insert(7, true);
        assert_eq!(c.lru_matching(|dirty| *dirty), Some(7));
        assert_eq!(c.lru_matching(|dirty| !*dirty), None);
    }

    #[test]
    fn lru_matching_models_find_from_lru_for_unmodified_pages() {
        // The non-volatile disk cache's "least recently used unmodified page"
        // lookup: values count pending destages, 0 = clean (replaceable).
        let mut c: LruCache<u64, u32> = LruCache::new(4);
        c.insert(1, 0); // clean, oldest
        c.insert(2, 2); // dirty
        c.insert(3, 0); // clean
        c.insert(4, 1); // dirty
        assert_eq!(c.lru_matching(|pending| *pending == 0), Some(1));
        // Touching page 1 makes page 3 the LRU clean frame.
        c.touch(&1);
        assert_eq!(c.lru_matching(|pending| *pending == 0), Some(3));
        // Dirty pages become candidates once their destages complete.
        *c.peek_mut(&2).unwrap() = 0;
        assert_eq!(c.lru_matching(|pending| *pending == 0), Some(2));
        // With every frame dirty the scan finds nothing.
        for k in [1, 2, 3] {
            *c.peek_mut(&k).unwrap() = 1;
        }
        assert_eq!(c.lru_matching(|pending| *pending == 0), None);
        // The scan must not disturb recency: page 2 is still the LRU frame.
        assert_eq!(c.least_recent_key(), Some(&2));
    }

    #[test]
    fn heavy_mixed_workload_is_consistent() {
        // Cross-check against a naive reference implementation.
        let mut c = LruCache::new(8);
        let mut reference: Vec<(u32, u32)> = Vec::new(); // front = MRU
        let mut seed = 123456789u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as u32
        };
        for step in 0..5000u32 {
            let key = next() % 20;
            match next() % 4 {
                0 | 1 => {
                    // insert
                    if let Some(pos) = reference.iter().position(|(k, _)| *k == key) {
                        reference.remove(pos);
                    } else if reference.len() == 8 {
                        reference.pop();
                    }
                    reference.insert(0, (key, step));
                    c.insert(key, step);
                }
                2 => {
                    // get
                    let expect = reference.iter().position(|(k, _)| *k == key);
                    let got = c.get(&key).copied();
                    match expect {
                        Some(pos) => {
                            let entry = reference.remove(pos);
                            assert_eq!(got, Some(entry.1));
                            reference.insert(0, entry);
                        }
                        None => assert_eq!(got, None),
                    }
                }
                _ => {
                    // remove
                    let expect = reference.iter().position(|(k, _)| *k == key);
                    let got = c.remove(&key);
                    match expect {
                        Some(pos) => {
                            let entry = reference.remove(pos);
                            assert_eq!(got, Some(entry.1));
                        }
                        None => assert_eq!(got, None),
                    }
                }
            }
            assert_eq!(c.len(), reference.len());
            // LRU order must match the reference exactly.
            let order: Vec<u32> = c.iter_lru().map(|(k, _)| *k).collect();
            let expected: Vec<u32> = reference.iter().rev().map(|(k, _)| *k).collect();
            assert_eq!(order, expected, "divergence at step {step}");
        }
    }
}
