//! Property-based tests for the hypergraph substrate: structural
//! invariants, the cut/volume identity for every classical model, and the
//! incremental bipartition state.

use mg_hypergraph::{
    column_net_model, dedup_nets, fine_grain_model, row_net_model, Hypergraph, Idx,
    VertexBipartition,
};
use mg_sparse::{communication_volume, Coo};
use proptest::prelude::*;

fn arb_coo() -> impl Strategy<Value = Coo> {
    mg_test_support::strategies::arb_coo(12, 0, 39)
}

fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    mg_test_support::strategies::arb_hypergraph(1, 12, 1..6, 0..6, 0..10)
}

proptest! {
    #[test]
    fn builder_output_always_validates(h in arb_hypergraph()) {
        prop_assert!(h.validate().is_ok());
    }

    #[test]
    fn dedup_preserves_cut_for_any_sides(h in arb_hypergraph(), seed in 0u64..1000) {
        let d = dedup_nets(&h);
        prop_assert!(d.validate().is_ok());
        let nv = h.num_vertices() as usize;
        let sides: Vec<u8> = (0..nv).map(|v| ((v as u64 * 31 + seed) % 2) as u8).collect();
        let c1 = VertexBipartition::new(&h, sides.clone()).cut_weight();
        let c2 = VertexBipartition::new(&d, sides).cut_weight();
        prop_assert_eq!(c1, c2);
    }

    /// The central identity: hypergraph cut == communication volume of the
    /// induced nonzero partition, for all three classical models.
    #[test]
    fn model_cut_equals_matrix_volume(a in arb_coo(), seed in 0u64..1000) {
        for model in [row_net_model(&a), column_net_model(&a), fine_grain_model(&a)] {
            let nv = model.hypergraph.num_vertices() as usize;
            let sides: Vec<u8> = (0..nv)
                .map(|v| ((v as u64 * 17 + seed) % 2) as u8)
                .collect();
            let cut = VertexBipartition::new(&model.hypergraph, sides.clone()).cut_weight();
            let np = model.to_nonzero_partition(&a, &sides);
            prop_assert_eq!(cut, communication_volume(&a, &np), "model {:?}", model.kind);
        }
    }

    /// Moving a vertex twice restores the exact state; the incremental
    /// bookkeeping never drifts from a fresh rebuild.
    #[test]
    fn incremental_moves_never_drift(h in arb_hypergraph(), moves in proptest::collection::vec(0usize..12, 0..24)) {
        let nv = h.num_vertices() as usize;
        let sides: Vec<u8> = (0..nv).map(|v| (v % 2) as u8).collect();
        let mut bp = VertexBipartition::new(&h, sides);
        for &mv in &moves {
            let v = (mv % nv) as Idx;
            let predicted = bp.gain(&h, v);
            let realised = bp.move_vertex(&h, v);
            prop_assert_eq!(predicted, realised);
        }
        prop_assert!(bp.validate(&h).is_ok());
    }

    /// The one-sweep move reports every net of the moved vertex, in
    /// incidence order, with the pre-move count on its side, the net size
    /// and the pre-move sides — what `pins_in` and `sides` said just before
    /// — and leaves the same state as a plain move.
    #[test]
    fn move_visitor_reports_pre_move_counts(h in arb_hypergraph(), moves in proptest::collection::vec(0usize..12, 0..24)) {
        let nv = h.num_vertices() as usize;
        let sides: Vec<u8> = (0..nv).map(|v| (v % 2) as u8).collect();
        let mut bp = VertexBipartition::new(&h, sides.clone());
        let mut plain = VertexBipartition::new(&h, sides);
        for &mv in &moves {
            let v = (mv % nv) as Idx;
            let from = bp.side(v);
            let expected: Vec<(Idx, Idx, Idx)> = h
                .vertex_nets(v)
                .iter()
                .map(|&n| (n, bp.pins_in(n, from), bp.pins_in(n, 0) + bp.pins_in(n, 1)))
                .collect();
            let before = bp.sides().to_vec();
            let mut reported = Vec::new();
            let realised = bp.move_vertex_with(&h, v, |n, in_from, size, sides| {
                assert_eq!(sides, &before[..]);
                reported.push((n, in_from, size));
            });
            prop_assert_eq!(&reported, &expected);
            for &(n, _, size) in &reported {
                prop_assert_eq!(size, h.net_size(n));
            }
            prop_assert_eq!(realised, plain.move_vertex(&h, v));
            prop_assert!(bp.validate(&h).is_ok());
        }
        prop_assert_eq!(bp.sides(), plain.sides());
        prop_assert_eq!(bp.cut_weight(), plain.cut_weight());
    }

    /// Total weights are conserved between the two parts.
    #[test]
    fn part_weights_sum_to_total(h in arb_hypergraph(), seed in 0u64..1000) {
        let nv = h.num_vertices() as usize;
        let sides: Vec<u8> = (0..nv).map(|v| ((v as u64 + seed) % 2) as u8).collect();
        let bp = VertexBipartition::new(&h, sides);
        prop_assert_eq!(
            bp.part_weight(0) + bp.part_weight(1),
            h.total_vertex_weight()
        );
    }

    /// Cut weight is bounded by the total net weight.
    #[test]
    fn cut_bounded_by_total_net_weight(h in arb_hypergraph(), seed in 0u64..1000) {
        let nv = h.num_vertices() as usize;
        let total: u64 = (0..h.num_nets()).map(|n| h.net_weight(n)).sum();
        let sides: Vec<u8> = (0..nv).map(|v| ((v as u64 * 7 + seed) % 2) as u8).collect();
        let bp = VertexBipartition::new(&h, sides);
        prop_assert!(bp.cut_weight() <= total);
    }

    /// Partition validity: the bipartition state assigns every vertex
    /// exactly one side, and keeps doing so under arbitrary move sequences.
    #[test]
    fn every_vertex_has_exactly_one_side(h in arb_hypergraph(), moves in proptest::collection::vec(0usize..12, 0..16)) {
        let nv = h.num_vertices() as usize;
        let sides: Vec<u8> = (0..nv).map(|v| (v % 2) as u8).collect();
        let mut bp = VertexBipartition::new(&h, sides);
        prop_assert_eq!(bp.sides().len(), nv);
        for &mv in &moves {
            bp.move_vertex(&h, (mv % nv) as Idx);
        }
        prop_assert_eq!(bp.sides().len(), nv);
        prop_assert!(bp.sides().iter().all(|&s| s < 2), "side out of range");
        let members: u64 = (0..2u8)
            .map(|p| bp.sides().iter().filter(|&&s| s == p).count() as u64)
            .sum();
        prop_assert_eq!(members, nv as u64, "each vertex must be in exactly one part");
        prop_assert!(bp.validate(&h).is_ok());
    }

    /// Model back-mappings are valid partitions: every nonzero of the
    /// matrix lands in exactly one of the two parts.
    #[test]
    fn model_partitions_assign_every_nonzero_exactly_once(a in arb_coo(), seed in 0u64..1000) {
        for model in [row_net_model(&a), column_net_model(&a), fine_grain_model(&a)] {
            let nv = model.hypergraph.num_vertices() as usize;
            let sides: Vec<u8> = (0..nv)
                .map(|v| ((v as u64 * 23 + seed) % 2) as u8)
                .collect();
            let np = model.to_nonzero_partition(&a, &sides);
            prop_assert!(np.check_against(&a).is_ok(), "model {:?}", model.kind);
            prop_assert_eq!(np.parts().len(), a.nnz());
            prop_assert!(np.parts().iter().all(|&p| p < 2));
            prop_assert_eq!(
                np.part_sizes().iter().sum::<u64>(),
                a.nnz() as u64,
                "parts must cover the nonzeros exactly once"
            );
        }
    }
}
