//! Gain buckets: the O(1)-update priority structure of Fiduccia–Mattheyses.
//!
//! Vertices are kept in doubly-linked lists, one list per integer gain
//! value. All links are intrusive `i64` arrays indexed by vertex id — no
//! allocation after construction, following the flat-structure idiom of
//! the performance guide.
//!
//! Bucket heads have two storages behind one interface: a flat array
//! indexed by `gain + range` when the gain range is small (the common
//! case — O(1) head lookup), and a `BTreeMap` keyed by gain when it is
//! not, so a single heavy net cannot force an allocation proportional to
//! the total net weight. Both storages keep the same discipline —
//! insert at the head of a bucket (LIFO), scan buckets in descending
//! gain order — so the chosen storage never changes which vertex a scan
//! returns.

use crate::Idx;
use std::collections::BTreeMap;

const NIL: i64 = -1;

/// Largest gain range stored as a flat bucket array (2·range+1 slots);
/// beyond this the sparse map is used instead.
const DENSE_RANGE_MAX: i64 = 1 << 16;

/// Bucket-head storage: dense array for small ranges, sorted map for
/// pathological ones. The sparse map holds only non-empty buckets, so
/// its reverse iteration visits exactly the buckets the dense scan
/// visits, in the same order.
#[derive(Debug, Clone)]
enum Store {
    Dense {
        /// `heads[g + range]` is the first vertex with (clamped) gain `g`.
        heads: Vec<i64>,
        /// Upper bound on the highest non-empty bucket index; decays lazily.
        max_index: i64,
    },
    Sparse {
        /// `heads[g]` is the first vertex with (clamped) gain `g`;
        /// keys exist only while their bucket is non-empty.
        heads: BTreeMap<i64, i64>,
    },
}

/// A bucket-array priority structure mapping vertices to integer gains.
///
/// Gains are clamped to `[-range, +range]`; clamping only affects move
/// *ordering* (the realised gain is always recomputed by the partition
/// state), so a clamped structure stays correct, just marginally less
/// greedy on pathological weight distributions.
#[derive(Debug, Clone)]
pub struct GainBuckets {
    range: i64,
    store: Store,
    prev: Vec<i64>,
    next: Vec<i64>,
    gain: Vec<i64>,
    in_bucket: Vec<bool>,
    len: usize,
}

fn store_for(range: i64) -> Store {
    if range <= DENSE_RANGE_MAX {
        Store::Dense {
            heads: vec![NIL; (2 * range + 1) as usize],
            max_index: -1,
        }
    } else {
        Store::Sparse {
            heads: BTreeMap::new(),
        }
    }
}

impl GainBuckets {
    /// Creates an empty structure for `num_vertices` vertices with gains in
    /// `[-range, +range]`.
    pub fn new(num_vertices: usize, range: i64) -> Self {
        let range = range.max(0);
        GainBuckets {
            range,
            store: store_for(range),
            prev: vec![NIL; num_vertices],
            next: vec![NIL; num_vertices],
            gain: vec![0; num_vertices],
            in_bucket: vec![false; num_vertices],
            len: 0,
        }
    }

    /// Empties the structure and re-sizes it for `num_vertices` vertices
    /// with gains in `[-range, +range]`, reusing existing allocations —
    /// the scratch-buffer path for repeated FM passes and levels.
    pub fn reset(&mut self, num_vertices: usize, range: i64) {
        let range = range.max(0);
        self.range = range;
        match (&mut self.store, range <= DENSE_RANGE_MAX) {
            (
                Store::Dense {
                    heads, max_index, ..
                },
                true,
            ) => {
                heads.clear();
                heads.resize((2 * range + 1) as usize, NIL);
                *max_index = -1;
            }
            (Store::Sparse { heads }, false) => heads.clear(),
            (store, _) => *store = store_for(range),
        }
        self.prev.clear();
        self.prev.resize(num_vertices, NIL);
        self.next.clear();
        self.next.resize(num_vertices, NIL);
        self.gain.clear();
        self.gain.resize(num_vertices, 0);
        self.in_bucket.clear();
        self.in_bucket.resize(num_vertices, false);
        self.len = 0;
    }

    #[inline]
    fn clamp(&self, g: i64) -> i64 {
        g.clamp(-self.range, self.range)
    }

    /// Number of vertices currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no vertices are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `v` is currently stored.
    #[inline]
    pub fn contains(&self, v: Idx) -> bool {
        self.in_bucket[v as usize]
    }

    /// The stored (clamped) gain of `v`; meaningful only if stored.
    #[inline]
    pub fn gain_of(&self, v: Idx) -> i64 {
        self.gain[v as usize]
    }

    /// Inserts `v` with the given gain. Panics in debug mode if present.
    pub fn insert(&mut self, v: Idx, gain: i64) {
        debug_assert!(!self.in_bucket[v as usize], "vertex {v} already stored");
        let g = self.clamp(gain);
        let vi = v as i64;
        let head = match &mut self.store {
            Store::Dense { heads, max_index } => {
                let idx = (g + self.range) as usize;
                let head = heads[idx];
                heads[idx] = vi;
                *max_index = (*max_index).max(idx as i64);
                head
            }
            Store::Sparse { heads } => {
                let slot = heads.entry(g).or_insert(NIL);
                std::mem::replace(slot, vi)
            }
        };
        self.next[v as usize] = head;
        self.prev[v as usize] = NIL;
        if head != NIL {
            self.prev[head as usize] = vi;
        }
        self.gain[v as usize] = g;
        self.in_bucket[v as usize] = true;
        self.len += 1;
    }

    /// Removes `v`. Panics in debug mode if absent.
    pub fn remove(&mut self, v: Idx) {
        debug_assert!(self.in_bucket[v as usize], "vertex {v} not stored");
        let p = self.prev[v as usize];
        let n = self.next[v as usize];
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            let g = self.gain[v as usize];
            match &mut self.store {
                Store::Dense { heads, .. } => heads[(g + self.range) as usize] = n,
                Store::Sparse { heads } => {
                    if n != NIL {
                        heads.insert(g, n);
                    } else {
                        heads.remove(&g);
                    }
                }
            }
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
        self.in_bucket[v as usize] = false;
        self.len -= 1;
    }

    /// Adds `delta` to the gain of a stored vertex, relinking it at the
    /// head of its new bucket — exactly `remove` then `insert`, which the
    /// dense store does in one unlink-and-relink without the membership
    /// and length bookkeeping that cancels out.
    pub fn adjust(&mut self, v: Idx, delta: i64) {
        debug_assert!(self.in_bucket[v as usize], "vertex {v} not stored");
        let vi = v as usize;
        let old = self.gain[vi];
        let g = self.clamp(old + delta);
        let Store::Dense { heads, max_index } = &mut self.store else {
            self.remove(v);
            self.insert(v, g);
            return;
        };
        let (p, n) = (self.prev[vi], self.next[vi]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            heads[(old + self.range) as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
        let idx = (g + self.range) as usize;
        let head = heads[idx];
        heads[idx] = v as i64;
        *max_index = (*max_index).max(idx as i64);
        if head != NIL {
            self.prev[head as usize] = v as i64;
        }
        self.next[vi] = head;
        self.prev[vi] = NIL;
        self.gain[vi] = g;
    }

    /// Scans vertices in non-increasing gain order, returning the first one
    /// accepted by `feasible`, inspecting at most `cap` candidates.
    /// The returned vertex is *not* removed.
    pub fn best_where(&mut self, mut feasible: impl FnMut(Idx) -> bool, cap: usize) -> Option<Idx> {
        let mut inspected = 0usize;
        let next = &self.next;
        match &mut self.store {
            Store::Dense { heads, max_index } => {
                // Decay the max pointer past empty buckets first.
                while *max_index >= 0 && heads[*max_index as usize] == NIL {
                    *max_index -= 1;
                }
                let mut idx = *max_index;
                while idx >= 0 && inspected < cap {
                    let mut node = heads[idx as usize];
                    while node != NIL && inspected < cap {
                        inspected += 1;
                        let v = node as Idx;
                        if feasible(v) {
                            return Some(v);
                        }
                        node = next[node as usize];
                    }
                    idx -= 1;
                }
            }
            Store::Sparse { heads } => {
                // Keys exist only for non-empty buckets, so this reverse
                // walk is the dense scan minus the empty-slot skipping.
                for (_, &head) in heads.iter().rev() {
                    let mut node = head;
                    while node != NIL && inspected < cap {
                        inspected += 1;
                        let v = node as Idx;
                        if feasible(v) {
                            return Some(v);
                        }
                        node = next[node as usize];
                    }
                    if inspected >= cap {
                        break;
                    }
                }
            }
        }
        None
    }

    /// The current maximum stored gain, if any vertex is stored.
    pub fn max_gain(&mut self) -> Option<i64> {
        match &mut self.store {
            Store::Dense { heads, max_index } => {
                while *max_index >= 0 && heads[*max_index as usize] == NIL {
                    *max_index -= 1;
                }
                if *max_index >= 0 {
                    Some(*max_index - self.range)
                } else {
                    None
                }
            }
            Store::Sparse { heads } => heads.keys().next_back().copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_best() {
        let mut b = GainBuckets::new(5, 10);
        b.insert(0, 3);
        b.insert(1, -2);
        b.insert(2, 7);
        assert_eq!(b.len(), 3);
        assert_eq!(b.max_gain(), Some(7));
        assert_eq!(b.best_where(|_| true, 100), Some(2));
    }

    #[test]
    fn best_respects_feasibility() {
        let mut b = GainBuckets::new(5, 10);
        b.insert(0, 5);
        b.insert(1, 5);
        b.insert(2, 1);
        let skip0 = b.best_where(|v| v != 0, 100).unwrap();
        assert_ne!(skip0, 0);
        let only2 = b.best_where(|v| v == 2, 100);
        assert_eq!(only2, Some(2));
    }

    #[test]
    fn remove_relinks() {
        let mut b = GainBuckets::new(4, 10);
        b.insert(0, 2);
        b.insert(1, 2);
        b.insert(2, 2);
        b.remove(1); // middle of the list
        assert!(!b.contains(1));
        assert_eq!(b.len(), 2);
        // Both remaining vertices still reachable.
        let mut seen = vec![];
        while let Some(v) = b.best_where(|_| true, 100) {
            seen.push(v);
            b.remove(v);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 2]);
    }

    #[test]
    fn adjust_moves_between_buckets() {
        let mut b = GainBuckets::new(3, 10);
        b.insert(0, 0);
        b.insert(1, 1);
        b.adjust(0, 5);
        assert_eq!(b.best_where(|_| true, 100), Some(0));
        b.adjust(0, -9);
        assert_eq!(b.best_where(|_| true, 100), Some(1));
        assert_eq!(b.gain_of(0), -4);
    }

    #[test]
    fn gains_are_clamped_not_lost() {
        let mut b = GainBuckets::new(2, 3);
        b.insert(0, 100);
        b.insert(1, -100);
        assert_eq!(b.gain_of(0), 3);
        assert_eq!(b.gain_of(1), -3);
        assert_eq!(b.best_where(|_| true, 100), Some(0));
        b.adjust(0, -100);
        assert_eq!(b.gain_of(0), -3);
    }

    #[test]
    fn cap_limits_inspection() {
        let mut b = GainBuckets::new(10, 5);
        for v in 0..10 {
            b.insert(v, 5);
        }
        // With cap 3 and a predicate rejecting everything, no candidate.
        assert_eq!(b.best_where(|_| false, 3), None);
    }

    #[test]
    fn max_gain_decays_after_removals() {
        let mut b = GainBuckets::new(3, 10);
        b.insert(0, 8);
        b.insert(1, 2);
        b.remove(0);
        assert_eq!(b.max_gain(), Some(2));
        b.remove(1);
        assert_eq!(b.max_gain(), None);
        assert!(b.is_empty());
    }

    #[test]
    fn huge_range_does_not_allocate_proportionally() {
        // A single heavy net used to force a 2·range+1 bucket array; the
        // sparse store makes this O(live gains) instead. range ≈ 2^40
        // would need a 16 TiB head array if still dense.
        let mut b = GainBuckets::new(4, 1 << 40);
        b.insert(0, 1 << 39);
        b.insert(1, -(1 << 39));
        b.insert(2, 0);
        assert_eq!(b.max_gain(), Some(1 << 39));
        assert_eq!(b.best_where(|_| true, 100), Some(0));
        b.adjust(0, -(1 << 40));
        assert_eq!(b.best_where(|_| true, 100), Some(2));
        b.remove(2);
        // 0 re-entered the −2^39 bucket after 1, so LIFO puts it first.
        assert_eq!(b.best_where(|_| true, 100), Some(0));
    }

    #[test]
    fn reset_reuses_and_clears() {
        let mut b = GainBuckets::new(8, 12);
        for v in 0..8 {
            b.insert(v, v as i64 - 4);
        }
        b.reset(5, 6);
        assert!(b.is_empty());
        assert_eq!(b.max_gain(), None);
        for v in 0..5 {
            assert!(!b.contains(v));
        }
        b.insert(3, 2);
        b.insert(4, -2);
        assert_eq!(b.best_where(|_| true, 100), Some(3));
        // Crossing the dense/sparse threshold re-targets the store.
        b.reset(3, 1 << 30);
        assert!(b.is_empty());
        b.insert(0, 1 << 29);
        assert_eq!(b.max_gain(), Some(1 << 29));
        b.reset(3, 4);
        assert!(b.is_empty());
        b.insert(1, 3);
        assert_eq!(b.best_where(|_| true, 100), Some(1));
    }

    /// The two storages must pick identical vertices under identical
    /// operation sequences — the scan order is part of the determinism
    /// contract, not an implementation detail.
    #[test]
    fn dense_and_sparse_scan_orders_agree() {
        // range 8 → dense; range DENSE_RANGE_MAX+1 → sparse. Same inserts,
        // same gains (all within ±8 so clamping is identical).
        let mut dense = GainBuckets::new(16, 8);
        let mut sparse = GainBuckets::new(16, DENSE_RANGE_MAX + 1);
        let gains = [3, -1, 3, 0, 8, -8, 3, 5, 5, 0, -3, 8, 1, 2, -2, 4];
        for (v, &g) in gains.iter().enumerate() {
            dense.insert(v as Idx, g);
            sparse.insert(v as Idx, g);
        }
        // Interleave removals and adjustments, then drain both fully.
        for v in [4, 9, 2] {
            dense.remove(v);
            sparse.remove(v);
        }
        for (v, d) in [(0, -5), (7, 2), (10, 6)] {
            dense.adjust(v, d);
            sparse.adjust(v, d);
        }
        loop {
            assert_eq!(dense.max_gain(), sparse.max_gain());
            let a = dense.best_where(|_| true, 100);
            let b = sparse.best_where(|_| true, 100);
            assert_eq!(a, b);
            let Some(v) = a else { break };
            dense.remove(v);
            sparse.remove(v);
        }
    }
}
