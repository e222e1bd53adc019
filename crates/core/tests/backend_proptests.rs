//! Property tests of the backend registry contract: for *every*
//! registered backend, on random COO matrices, the returned partition is
//! valid (each nonzero assigned exactly once, parts in range), the
//! reported volume is true, the ε balance bound of eqn (1) holds up to
//! one atomic row/column group, and the result is a pure function of the
//! seed.

use mg_core::{all_backends, Method};
use mg_partitioner::BisectionTargets;
use mg_sparse::{communication_volume, Coo};
use proptest::prelude::*;

fn arb_coo() -> impl Strategy<Value = Coo> {
    // Up to ~120 nonzeros: large enough to cover the odd-nnz regime where
    // the even-split budget exceeds the global part_budget (n >= 67), so
    // the balance assertion is exercised against the real contract.
    mg_test_support::strategies::arb_coo(20, 1, 120)
}

proptest! {
    /// Validity and balance for every backend. The balance limit is the
    /// per-side budget of the even bisection targets the backend actually
    /// runs under ([`BisectionTargets::budgets`]); the medium-grain
    /// row/column *groups* move atomically, so a side may overshoot it by
    /// at most one atom: the largest line minus one.
    #[test]
    fn every_backend_partition_is_valid_and_balanced(a in arb_coo(), seed in 0u64..40) {
        let budgets = BisectionTargets::even(a.nnz() as u64, 0.03).budgets();
        let largest_line = a
            .row_counts()
            .into_iter()
            .chain(a.col_counts())
            .max()
            .unwrap_or(0) as u64;
        let atom_slack = largest_line.saturating_sub(1);
        for backend in all_backends() {
            for method in [
                Method::MediumGrain { refine: false },
                Method::MediumGrain { refine: true },
            ] {
                let r = backend.bipartition(&a, method, 0.03, seed);
                prop_assert!(
                    r.partition.check_against(&a).is_ok(),
                    "{}: invalid partition", backend.name()
                );
                prop_assert_eq!(
                    r.volume,
                    communication_volume(&a, &r.partition),
                    "{}: stale volume", backend.name()
                );
                let sizes = r.partition.part_sizes();
                prop_assert!(
                    sizes.iter().zip(budgets.iter()).all(|(&s, &b)| s <= b + atom_slack),
                    "{}: sizes {:?} exceed budgets {:?} (+{atom_slack})",
                    backend.name(), sizes, budgets
                );
            }
        }
    }

    /// Determinism: same (matrix, method, ε, seed) → same partition, for
    /// every backend. This is the per-job half of the sweep/service
    /// byte-determinism contract.
    #[test]
    fn every_backend_is_a_pure_function_of_the_seed(a in arb_coo(), seed in 0u64..40) {
        for backend in all_backends() {
            let m = Method::MediumGrain { refine: false };
            let x = backend.bipartition(&a, m, 0.03, seed);
            let y = backend.bipartition(&a, m, 0.03, seed);
            prop_assert_eq!(
                x.partition.parts(),
                y.partition.parts(),
                "{} diverged on identical inputs", backend.name()
            );
            prop_assert_eq!(x.volume, y.volume);
        }
    }
}
