//! Property tests of the placement function (the satellite contract):
//! every fingerprint maps to exactly one live shard, the distribution
//! over random fingerprints stays within 2× of uniform, and removing one
//! of K shards remaps only ~1/K of the keys.

use mg_router::{rank, ShardSpec};
use proptest::prelude::*;

fn shards(k: usize) -> Vec<ShardSpec> {
    (0..k)
        .map(|i| ShardSpec {
            id: format!("shard-{i}"),
            addr: format!("10.0.0.{i}:7077"),
        })
        .collect()
}

/// A deterministic stream of well-spread fingerprints (the real keys are
/// `mix64` outputs, i.e. uniform u64s).
fn fingerprints(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            // xorshift64* — independent of the placement hash family.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        })
        .collect()
}

proptest! {
    #[test]
    fn every_fingerprint_maps_to_exactly_one_live_shard(
        key in any::<u64>(),
        k in 1usize..9,
    ) {
        let topology = shards(k);
        let shard = rank(key, &topology, 1)[0];
        prop_assert!(shard < k, "picked shard {shard} of {k}");
        // Exactly one: placement is a function (same inputs, same pick).
        prop_assert_eq!(shard, rank(key, &topology, 1)[0]);
    }

    #[test]
    fn distribution_stays_within_2x_of_uniform_for_equal_weights(
        seed in any::<u64>(),
        k in 2usize..7,
    ) {
        let topology = shards(k);
        let n = 1000usize;
        let mut counts = vec![0usize; k];
        for key in fingerprints(seed, n) {
            counts[rank(key, &topology, 1)[0]] += 1;
        }
        let uniform = n / k;
        for (shard, &count) in counts.iter().enumerate() {
            prop_assert!(
                count <= 2 * uniform,
                "shard {shard} got {count} of {n} keys over {k} shards (2x bound {})",
                2 * uniform
            );
            prop_assert!(
                count >= uniform / 2,
                "shard {shard} starved with {count} of {n} keys over {k} shards"
            );
        }
    }

    #[test]
    fn removing_one_of_k_shards_remaps_only_its_keys(
        seed in any::<u64>(),
        k in 2usize..7,
        victim_index in any::<u8>(),
    ) {
        let full = shards(k);
        let victim = victim_index as usize % k;
        let mut survivors = full.clone();
        let removed = survivors.remove(victim);

        let n = 1000usize;
        let mut owned_by_victim = 0usize;
        for key in fingerprints(seed, n) {
            let before = &full[rank(key, &full, 1)[0]];
            let after = &survivors[rank(key, &survivors, 1)[0]];
            if before.id == removed.id {
                owned_by_victim += 1;
            } else {
                // Rendezvous minimality: a surviving shard's keys never
                // move when another shard leaves.
                prop_assert_eq!(&before.id, &after.id);
            }
        }
        // Only the victim's ~n/k keys remapped (2x tolerance, same as the
        // distribution bound).
        prop_assert!(
            owned_by_victim <= 2 * n / k,
            "victim owned {owned_by_victim} of {n} keys over {k} shards"
        );
    }

}
