//! Property-based tests of the paper's algorithms themselves: Algorithm 1
//! split rules, the eqn (6) volume identity for arbitrary splits, the
//! monotonicity of Algorithm 2, and the eqn (1) compliance of every
//! method.

use mg_core::split::split_with_preference;
use mg_core::{
    initial_split, iterative_refinement, GlobalPreference, MediumGrainModel, Method, Split,
};
use mg_hypergraph::VertexBipartition;
use mg_partitioner::PartitionerConfig;
use mg_sparse::{communication_volume, Coo, Idx, NonzeroPartition};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_coo() -> impl Strategy<Value = Coo> {
    mg_test_support::strategies::arb_coo(14, 1, 47)
}

proptest! {
    /// Algorithm 1 invariants: every nonzero assigned; singleton columns in
    /// Ar; singleton rows (of non-singleton columns) in Ac; the score rule
    /// for the rest.
    #[test]
    fn algorithm1_branch_rules_hold(a in arb_coo(), pref in any::<bool>()) {
        let pref = if pref { GlobalPreference::Rows } else { GlobalPreference::Columns };
        let split = split_with_preference(&a, pref);
        prop_assert_eq!(split.assignment().len(), a.nnz());
        let nzr = a.row_counts();
        let nzc = a.col_counts();
        for (k, (i, j)) in a.iter().enumerate() {
            let (r, c) = (nzr[i as usize], nzc[j as usize]);
            let in_row = split.in_row(k);
            if c == 1 {
                prop_assert!(in_row, "singleton column must go to Ar");
            } else if r == 1 {
                prop_assert!(!in_row, "singleton row must go to Ac");
            } else if r < c {
                prop_assert!(in_row);
            } else if r > c {
                prop_assert!(!in_row);
            } else {
                prop_assert_eq!(in_row, pref == GlobalPreference::Rows);
            }
        }
    }

    /// eqn (6): the medium-grain hypergraph cut equals the communication
    /// volume of the mapped partition, for random splits and assignments —
    /// not just the heuristic split.
    #[test]
    fn volume_identity_for_arbitrary_splits(
        a in arb_coo(),
        split_seed in 0u64..1000,
        side_seed in 0u64..1000,
    ) {
        let in_row: Vec<bool> = (0..a.nnz())
            .map(|k| (k as u64 * 37 + split_seed).is_multiple_of(3))
            .collect();
        let split = Split::from_assignment(in_row);
        let model = MediumGrainModel::build(&a, &split);
        let nv = model.hypergraph.num_vertices() as usize;
        let sides: Vec<u8> = (0..nv).map(|v| ((v as u64 * 11 + side_seed) % 2) as u8).collect();
        let cut = VertexBipartition::new(&model.hypergraph, sides.clone()).cut_weight();
        let np = model.to_nonzero_partition(&a, &sides);
        prop_assert_eq!(cut, communication_volume(&a, &np));
    }

    /// The medium-grain hypergraph never exceeds m + n vertices and its
    /// weight always equals the nonzero count.
    #[test]
    fn model_size_bounds(a in arb_coo(), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let split = initial_split(&a, &mut rng);
        let model = MediumGrainModel::build(&a, &split);
        prop_assert!(model.hypergraph.num_vertices() <= a.rows() + a.cols());
        prop_assert!(model.hypergraph.num_nets() <= a.rows() + a.cols());
        prop_assert_eq!(model.hypergraph.total_vertex_weight(), a.nnz() as u64);
    }

    /// Algorithm 2 is monotone non-increasing from any feasible start.
    #[test]
    fn iterative_refinement_is_monotone(a in arb_coo(), seed in 0u64..200) {
        let parts: Vec<Idx> = (0..a.nnz()).map(|k| ((k as u64 + seed) % 2) as Idx).collect();
        let p = NonzeroPartition::new(2, parts).expect("bipartition");
        let before = communication_volume(&a, &p);
        // A generous epsilon keeps arbitrary alternating starts feasible.
        let refined = iterative_refinement(&a, &p, 0.5);
        prop_assert!(refined.volume <= before);
        prop_assert_eq!(
            refined.volume,
            communication_volume(&a, &refined.partition)
        );
    }

    /// Every method respects eqn (1) and reports its true volume.
    #[test]
    fn methods_respect_the_balance_constraint(a in arb_coo(), seed in 0u64..50) {
        let cfg = PartitionerConfig::mondriaan_like();
        for method in [
            Method::LocalBest { refine: false },
            Method::MediumGrain { refine: false },
            Method::MediumGrain { refine: true },
            Method::FineGrain { refine: false },
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = method.bipartition(&a, 0.03, &cfg, &mut rng);
            prop_assert_eq!(r.partition.parts().len(), a.nnz());
            prop_assert_eq!(r.volume, communication_volume(&a, &r.partition));
            // With few nonzeros the integral even-split bound dominates
            // ε·N/2; part_budget's max(⌈N/2⌉, …) makes that explicit.
            // LB and MG move whole rows/columns atomically, so their
            // guaranteed bound is target + (max atom − 1): greedy initial
            // placement can overshoot by at most one atom and FM never
            // worsens the violation. FG atoms are single nonzeros, so it
            // must meet the strict budget.
            let budget = mg_sparse::part_budget(a.nnz(), 2, 0.03);
            let largest_line = a
                .row_counts()
                .into_iter()
                .chain(a.col_counts())
                .max()
                .unwrap_or(0) as u64;
            let target = (a.nnz() as u64).div_ceil(2);
            let limit = match method {
                Method::FineGrain { .. } => budget,
                _ => budget.max(target + largest_line.saturating_sub(1)),
            };
            let sizes = r.partition.part_sizes();
            prop_assert!(
                sizes.iter().all(|&s| s <= limit),
                "{}: sizes {:?} exceed limit {}", method.label(), sizes, limit
            );
        }
    }

    /// Degenerate splits reproduce the 1D models exactly (the paper's
    /// reduction argument): all-Ac ⇒ row-net (no column ever cut is false —
    /// rather, volume equals the row-net cut); here we check the model
    /// shape claim on sizes.
    #[test]
    fn degenerate_splits_have_1d_shape(a in arb_coo()) {
        let all_c = MediumGrainModel::build(&a, &Split::all_columns(a.nnz()));
        let nonempty_cols = a.col_counts().iter().filter(|&&c| c > 0).count();
        prop_assert_eq!(all_c.hypergraph.num_vertices() as usize, nonempty_cols);
        let all_r = MediumGrainModel::build(&a, &Split::all_rows(a.nnz()));
        let nonempty_rows = a.row_counts().iter().filter(|&&c| c > 0).count();
        prop_assert_eq!(all_r.hypergraph.num_vertices() as usize, nonempty_rows);
    }
}
