//! Property-based tests for the sparse substrate: representation
//! invariants, metric identities, and the SpMV simulator's agreement with
//! the closed-form volume.

use mg_sparse::io::{read_matrix_market, write_matrix_market};
use mg_sparse::partition::communication_volume_reference;
use mg_sparse::spmv::{serial_spmv, simulate_spmv};
use mg_sparse::{
    bsp_cost, communication_volume, load_imbalance, max_part_size, Coo, Idx, LineIndex,
    NonzeroPartition,
};
use proptest::prelude::*;

/// Strategy: a small random matrix (dims 1..=16, up to 48 candidate
/// entries, duplicates removed by the constructor).
fn arb_coo() -> impl Strategy<Value = Coo> {
    mg_test_support::strategies::arb_coo(16, 0, 47)
}

/// Strategy: a matrix plus a p-way partition of its nonzeros.
fn arb_partitioned() -> impl Strategy<Value = (Coo, NonzeroPartition)> {
    mg_test_support::strategies::arb_partitioned(16, 47, 5)
}

proptest! {
    #[test]
    fn transpose_is_involutive(a in arb_coo()) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// Row `i`'s span of the index holds exactly row `i`'s entries.
    #[test]
    fn csr_roundtrips_entries(a in arb_coo()) {
        let index = LineIndex::new(&a);
        let back: Vec<(Idx, Idx)> = (0..a.rows())
            .flat_map(|i| a.entries()[index.row_nonzero_ids(i)].iter().map(move |&(_, j)| (i, j)))
            .collect();
        prop_assert_eq!(back.as_slice(), a.entries());
    }

    /// The index's columns are the rows of the transpose, and its line
    /// lengths are the nonzero counts.
    #[test]
    fn csc_agrees_with_transpose_csr(a in arb_coo()) {
        let index = LineIndex::new(&a);
        let t = a.transpose();
        let tindex = LineIndex::new(&t);
        for j in 0..a.cols() {
            let trow: Vec<Idx> = t.entries()[tindex.row_nonzero_ids(j)].iter().map(|&(_, i)| i).collect();
            prop_assert_eq!(index.col(j), trow.as_slice());
        }
        let row_len: Vec<Idx> = (0..a.rows()).map(|i| index.row_len(i)).collect();
        let col_len: Vec<Idx> = (0..a.cols()).map(|j| index.col_len(j)).collect();
        prop_assert_eq!(row_len, a.row_counts());
        prop_assert_eq!(col_len, a.col_counts());
    }

    #[test]
    fn row_and_col_counts_sum_to_nnz(a in arb_coo()) {
        let rc: u64 = a.row_counts().iter().map(|&c| c as u64).sum();
        let cc: u64 = a.col_counts().iter().map(|&c| c as u64).sum();
        prop_assert_eq!(rc, a.nnz() as u64);
        prop_assert_eq!(cc, a.nnz() as u64);
    }

    #[test]
    fn matrix_market_roundtrip(a in arb_coo()) {
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).expect("write");
        let b = read_matrix_market(buf.as_slice()).expect("read");
        prop_assert_eq!(a, b);
    }

    /// The O(N) stamped volume computation agrees with the brute-force
    /// per-line set oracle.
    #[test]
    fn volume_matches_reference((a, p) in arb_partitioned()) {
        prop_assert_eq!(
            communication_volume(&a, &p),
            communication_volume_reference(&a, &p)
        );
    }

    /// The SpMV simulator transfers exactly `V` words and computes the
    /// right answer, for any matrix and partition.
    #[test]
    fn simulator_counts_exactly_the_volume((a, p) in arb_partitioned()) {
        let report = simulate_spmv(&a, &p, None);
        prop_assert_eq!(report.total_words(), communication_volume(&a, &p));
        prop_assert_eq!(report.output, serial_spmv(&a));
    }

    /// Per-phase h-relations can never exceed the phase's total word count,
    /// and their sum is bounded by the volume.
    #[test]
    fn bsp_cost_is_bounded_by_volume((a, p) in arb_partitioned()) {
        let cost = bsp_cost(&a, &p);
        prop_assert!(cost.total() <= communication_volume(&a, &p));
    }

    /// Volume is invariant under part relabeling (swap for bipartitions).
    #[test]
    fn volume_invariant_under_swap(a in arb_coo(), flip in proptest::collection::vec(0u32..2, 0..48)) {
        let nnz = a.nnz();
        if flip.len() >= nnz {
            let parts: Vec<Idx> = flip[..nnz].to_vec();
            let p = NonzeroPartition::new(2, parts).expect("two parts");
            prop_assert_eq!(
                communication_volume(&a, &p),
                communication_volume(&a, &p.swapped())
            );
        }
    }

    #[test]
    fn imbalance_and_max_part_are_consistent((_, p) in arb_partitioned()) {
        let n = p.parts().len();
        if n > 0 {
            let expected =
                max_part_size(&p) as f64 * p.num_parts() as f64 / n as f64 - 1.0;
            prop_assert!((load_imbalance(&p) - expected).abs() < 1e-12);
        }
    }

    /// The index's row spans are contiguous and cover `0..nnz` in the
    /// canonical row-major order, and the starts slices agree with them.
    #[test]
    fn coo_csr_coo_roundtrip(a in arb_coo()) {
        let index = LineIndex::new(&a);
        prop_assert_eq!(index.nnz(), a.nnz());
        prop_assert_eq!(index.row_starts().len(), a.rows() as usize + 1);
        let mut covered = 0usize;
        for i in 0..a.rows() {
            let span = index.row_nonzero_ids(i);
            prop_assert_eq!(span.start, covered, "row {} span must be contiguous", i);
            prop_assert_eq!(span.len(), index.row_len(i) as usize);
            prop_assert_eq!(index.row_starts()[i as usize + 1] as usize, span.end);
            covered = span.end;
        }
        prop_assert_eq!(covered, a.nnz());
    }

    /// The index's columns round-trip through the same canonical COO.
    #[test]
    fn coo_csc_coo_roundtrip(a in arb_coo()) {
        let index = LineIndex::new(&a);
        prop_assert_eq!(index.col_starts().len(), a.cols() as usize + 1);
        let mut entries = Vec::with_capacity(a.nnz());
        for j in 0..a.cols() {
            let span = index.col_starts()[j as usize] as usize..index.col_starts()[j as usize + 1] as usize;
            prop_assert_eq!(span.len(), index.col(j).len());
            for &i in index.col(j) {
                entries.push((i, j));
            }
        }
        let back = Coo::new(a.rows(), a.cols(), entries).expect("column indices are in bounds");
        prop_assert_eq!(back, a);
    }

    /// Column nonzero ids are a permutation of 0..nnz that agrees with the
    /// coordinates stored in the COO (the id is the row-major position).
    #[test]
    fn csc_nonzero_ids_are_consistent(a in arb_coo()) {
        let index = LineIndex::new(&a);
        let mut seen = vec![false; a.nnz()];
        for j in 0..a.cols() {
            for (&i, &k) in index.col(j).iter().zip(index.col_nonzero_ids(j)) {
                prop_assert_eq!(a.entry(k as usize), (i, j));
                prop_assert!(!seen[k as usize], "nonzero id {} appears twice", k);
                seen[k as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn select_preserves_coordinates(a in arb_coo(), mask in proptest::collection::vec(any::<bool>(), 0..48)) {
        let ids: Vec<Idx> = (0..a.nnz())
            .filter(|&k| mask.get(k).copied().unwrap_or(false))
            .map(|k| k as Idx)
            .collect();
        let sub = a.select(&ids);
        prop_assert_eq!(sub.nnz(), ids.len());
        for &k in &ids {
            let (i, j) = a.entry(k as usize);
            prop_assert!(sub.contains(i, j));
        }
    }
}
