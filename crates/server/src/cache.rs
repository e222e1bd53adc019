//! A small LRU response cache.
//!
//! Keyed by (matrix fingerprint, method, ε, requested seed) — see
//! [`crate::service`] — and holding `Arc`s to finished outcomes. Recency
//! is tracked with a monotone counter and a `BTreeMap` recency index, so
//! `get`/`insert` are `O(log n)` and eviction always removes the
//! least-recently-used entry. Capacity 0 disables the cache entirely.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A least-recently-used map with a fixed capacity.
#[derive(Debug)]
pub(crate) struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, (V, u64)>,
    recency: BTreeMap<u64, K>,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
        }
    }

    /// Number of live entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entries are cached.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        let (value, stamp) = self.map.get_mut(key)?;
        self.recency.remove(stamp);
        *stamp = tick;
        self.recency.insert(tick, key.clone());
        Some(value)
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry if the cache would overflow. No-op at capacity 0.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, stamp)) = self.map.get(&key) {
            self.recency.remove(stamp);
        }
        self.map.insert(key.clone(), (value, tick));
        self.recency.insert(tick, key);
        while self.map.len() > self.capacity {
            let (&oldest, _) = self.recency.iter().next().expect("recency desynced");
            let victim = self.recency.remove(&oldest).expect("recency desynced");
            self.map.remove(&victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // refresh a
        c.insert("c", 3); // evicts b
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        c.insert("c", 3); // evicts b, not a
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert!(c.is_empty());
        assert_eq!(c.get(&"a"), None);
    }

    #[test]
    fn heavy_churn_keeps_map_and_recency_in_sync() {
        let mut c = LruCache::new(8);
        for i in 0..1000u32 {
            c.insert(i % 13, i);
            if i % 3 == 0 {
                c.get(&(i % 7));
            }
            assert!(c.len() <= 8);
            assert_eq!(c.map.len(), c.recency.len());
        }
    }
}
