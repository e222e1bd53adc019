//! Property tests of the paper's central theorem through the facade:
//! eqn (6) — the medium-grain hypergraph cut equals the communication
//! volume of the mapped 2D partition — plus the degeneration claims of
//! §III-A (all-Ac ⇒ row-net, all-Ar ⇒ column-net).

use mediumgrain::core::{MediumGrainModel, Split};
use mediumgrain::hypergraph::{column_net_model, row_net_model, VertexBipartition};
use mediumgrain::prelude::*;
use mediumgrain::sparse::{Coo, LineIndex};
use proptest::prelude::*;

fn arb_coo() -> impl Strategy<Value = Coo> {
    mg_test_support::strategies::arb_coo(15, 1, 59)
}

proptest! {
    /// eqn (6) for arbitrary splits and arbitrary bipartitions.
    #[test]
    fn medium_grain_cut_is_the_communication_volume(
        a in arb_coo(),
        split_bits in proptest::collection::vec(any::<bool>(), 60),
        side_bits in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let in_row: Vec<bool> = (0..a.nnz()).map(|k| split_bits[k % split_bits.len()]).collect();
        let split = Split::from_assignment(in_row);
        let model = MediumGrainModel::build(&a, &split);
        let nv = model.hypergraph.num_vertices() as usize;
        let sides: Vec<u8> = (0..nv).map(|v| side_bits[v % side_bits.len()] as u8).collect();
        let cut = VertexBipartition::new(&model.hypergraph, sides.clone()).cut_weight();
        let partition = model.to_nonzero_partition(&a, &sides);
        prop_assert_eq!(cut, communication_volume(&a, &partition));
    }

    /// §III-A: with every nonzero in Ac, the medium-grain model *is* the
    /// row-net model — same cut for the corresponding assignment.
    #[test]
    fn all_ac_split_degenerates_to_row_net(
        a in arb_coo(),
        side_bits in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let model = MediumGrainModel::build(&a, &Split::all_columns(a.nnz()));
        let rn = row_net_model(&a, &LineIndex::new(&a));
        // Column j of A ↔ medium-grain col vertex (when non-empty) and
        // row-net vertex j. Assign both from the same bit stream.
        let rn_sides: Vec<u8> = (0..a.cols() as usize)
            .map(|j| side_bits[j % side_bits.len()] as u8)
            .collect();
        let mg_sides: Vec<u8> = (0..a.cols())
            .filter_map(|j| model.col_vertex(j).map(|_| rn_sides[j as usize]))
            .collect();
        let mg_cut = VertexBipartition::new(&model.hypergraph, mg_sides).cut_weight();
        let rn_cut = VertexBipartition::new(&rn.hypergraph, rn_sides.clone()).cut_weight();
        prop_assert_eq!(mg_cut, rn_cut);
        // And both equal the volume of the column partitioning of A.
        let np = rn.to_nonzero_partition(&a, &rn_sides);
        prop_assert_eq!(rn_cut, communication_volume(&a, &np));
    }

    /// §III-A, symmetric claim: all-Ar ⇒ column-net model.
    #[test]
    fn all_ar_split_degenerates_to_column_net(
        a in arb_coo(),
        side_bits in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let model = MediumGrainModel::build(&a, &Split::all_rows(a.nnz()));
        let cn = column_net_model(&a, &LineIndex::new(&a));
        let cn_sides: Vec<u8> = (0..a.rows() as usize)
            .map(|i| side_bits[i % side_bits.len()] as u8)
            .collect();
        let mg_sides: Vec<u8> = (0..a.rows())
            .filter_map(|i| model.row_vertex(i).map(|_| cn_sides[i as usize]))
            .collect();
        let mg_cut = VertexBipartition::new(&model.hypergraph, mg_sides).cut_weight();
        let cn_cut = VertexBipartition::new(&cn.hypergraph, cn_sides).cut_weight();
        prop_assert_eq!(mg_cut, cn_cut);
    }

    /// Load-balance bookkeeping of §III-A: the number of nonzeros in part
    /// k of A equals the vertex weight of side k in the hypergraph of B.
    #[test]
    fn group_weights_count_nonzeros(
        a in arb_coo(),
        split_bits in proptest::collection::vec(any::<bool>(), 60),
        side_bits in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let in_row: Vec<bool> = (0..a.nnz()).map(|k| split_bits[k % split_bits.len()]).collect();
        let split = Split::from_assignment(in_row);
        let model = MediumGrainModel::build(&a, &split);
        let nv = model.hypergraph.num_vertices() as usize;
        let sides: Vec<u8> = (0..nv).map(|v| side_bits[v % side_bits.len()] as u8).collect();
        let bp = VertexBipartition::new(&model.hypergraph, sides.clone());
        let partition = model.to_nonzero_partition(&a, &sides);
        let sizes = partition.part_sizes();
        prop_assert_eq!(bp.part_weight(0), sizes[0]);
        prop_assert_eq!(bp.part_weight(1), sizes[1]);
    }
}
