//! Deterministic request placement: rendezvous hashing over the
//! placement key.
//!
//! Every (key, shard id) pair hashes — via the workspace's shared
//! [`mix64`] finaliser — to a 64-bit score; the highest score wins.
//! Rendezvous hashing gives the two properties the router's contracts
//! rest on:
//!
//! * **stability** — removing a shard remaps *only* the keys that shard
//!   owned (~1/K of the keyspace for K shards); every other key keeps
//!   its owner, so shard-local caches stay warm through topology
//!   changes;
//! * **purity** — placement is a function of (key, shard ids) alone,
//!   never of load or arrival order, which is what makes a session's
//!   response stream identical for 1 shard and K shards.

use crate::config::ShardSpec;
use mg_core::service::{mix64, name_fingerprint};
use std::cmp::Reverse;

/// The replica set of a key: the indices of the top-`r` shards by
/// rendezvous score, best first. `rank(key, s, 1)` is the single owner;
/// growing `r` only ever *appends* ranks, so enabling replication never
/// moves a key's primary. Ties break toward the lower index; `r` is
/// clamped to the shard count (and to ≥ 1).
pub fn rank(key: u64, shards: &[ShardSpec], r: usize) -> Vec<usize> {
    let mut scored: Vec<(usize, u64)> = shards
        .iter()
        .enumerate()
        .map(|(index, s)| (index, mix64(key ^ name_fingerprint(&s.id))))
        .collect();
    // A stable sort: equal scores keep the lower index first.
    scored.sort_by_key(|s| Reverse(s.1));
    scored.truncate(r.clamp(1, shards.len().max(1)));
    scored.into_iter().map(|(index, _)| index).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(n: usize) -> Vec<ShardSpec> {
        (0..n)
            .map(|i| ShardSpec {
                id: format!("s{i}"),
                addr: format!("127.0.0.1:{}", 7100 + i),
            })
            .collect()
    }

    #[test]
    fn single_shard_owns_everything() {
        let t = shards(1);
        for key in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(rank(key, &t, 1), vec![0]);
        }
    }

    #[test]
    fn placement_is_deterministic_and_in_range() {
        let t = shards(5);
        for key in 0..500u64 {
            let a = rank(mix64(key), &t, 1)[0];
            assert!(a < 5);
            assert_eq!(a, rank(mix64(key), &t, 1)[0]);
        }
    }

    #[test]
    fn rankings_match_the_pinned_placements() {
        // Pinned: a change that moves keys turns every shard cache cold.
        let t = shards(4);
        let pinned: [[usize; 4]; 8] = [
            [3, 1, 0, 2],
            [1, 3, 0, 2],
            [0, 2, 1, 3],
            [2, 3, 1, 0],
            [1, 2, 0, 3],
            [0, 2, 3, 1],
            [0, 1, 2, 3],
            [1, 3, 0, 2],
        ];
        for (k, expected) in pinned.iter().enumerate() {
            assert_eq!(rank(mix64(k as u64), &t, 4), expected, "key {k}");
        }
    }

    #[test]
    fn growing_r_appends_ranks_without_moving_earlier_ones() {
        let t = shards(5);
        for key in 0..200u64 {
            let key = mix64(key);
            let full = rank(key, &t, 5);
            assert_eq!(full.len(), 5);
            for r in 1..=5usize {
                assert_eq!(rank(key, &t, r), full[..r].to_vec());
            }
            // A ranking is a permutation prefix: no shard appears twice.
            let mut seen = full.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 5, "ranking repeats a shard: {full:?}");
        }
    }

    #[test]
    fn r_clamps_to_the_shard_count() {
        let t = shards(3);
        assert_eq!(rank(7, &t, 10).len(), 3);
        assert_eq!(rank(7, &t, 0).len(), 1);
    }

    #[test]
    fn second_ranks_spread_like_first_ranks() {
        // The rank-2 replica of a key is itself ~uniform over the other
        // shards — the property that keeps failover load spread out.
        let t = shards(4);
        let mut counts = [0usize; 4];
        for key in 0..4000u64 {
            counts[rank(mix64(key), &t, 2)[1]] += 1;
        }
        for (index, count) in counts.iter().enumerate() {
            assert!(
                *count > 500,
                "shard {index} underrepresented at rank 2: {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_shard_remaps_only_its_keys() {
        let t = shards(4);
        let mut shrunk = t.clone();
        let removed = shrunk.remove(2);
        let mut moved = 0usize;
        let total = 2000u64;
        for key in 0..total {
            let before = &t[rank(mix64(key), &t, 1)[0]];
            let after = &shrunk[rank(mix64(key), &shrunk, 1)[0]];
            if before.id == removed.id {
                moved += 1;
            } else {
                assert_eq!(before.id, after.id, "key {key} moved without cause");
            }
        }
        // The removed shard owned ~1/4 of the keys; only those moved.
        assert!(moved > total as usize / 8 && moved < total as usize / 2);
    }
}
