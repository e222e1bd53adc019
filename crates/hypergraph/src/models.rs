//! The classical hypergraph models for sparse matrix partitioning (§II).
//!
//! Each model turns an `m×n` matrix `A` into a [`Hypergraph`] whose vertex
//! partitions correspond to nonzero partitions of `A`, such that for a
//! bipartition the hypergraph cut weight equals the communication volume:
//!
//! | model | vertices | nets | produces |
//! |---|---|---|---|
//! | row-net | columns (n) | rows (m) | 1D column partitioning |
//! | column-net | rows (m) | columns (n) | 1D row partitioning |
//! | fine-grain | nonzeros (N) | rows + columns (m+n) | fully 2D partitioning |
//!
//! The medium-grain model lives in `mg-core` (it needs the `A = Ar + Ac`
//! split and the `B` matrix), but it reuses this crate's machinery.

use crate::{Hypergraph, HypergraphBuilder, Idx};
use mg_sparse::{Coo, LineIndex, NonzeroPartition};

/// Which classical model a [`MatrixModel`] was built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Vertices are columns; nets are rows. `B = A` in the paper's framing.
    RowNet,
    /// Vertices are rows; nets are columns. `B = Aᵀ`.
    ColumnNet,
    /// Vertices are nonzeros; nets are rows and columns. `B = F(A)`.
    FineGrain,
}

/// A hypergraph derived from a matrix, with enough provenance to translate
/// vertex partitions back into nonzero partitions.
#[derive(Debug, Clone)]
pub struct MatrixModel {
    /// The model used.
    pub kind: ModelKind,
    /// The derived hypergraph.
    pub hypergraph: Hypergraph,
}

impl MatrixModel {
    /// Translates a vertex bipartition (`sides[v] ∈ {0, 1}`) into a
    /// partition of the matrix nonzeros.
    pub fn to_nonzero_partition(&self, a: &Coo, sides: &[u8]) -> NonzeroPartition {
        let parts: Vec<Idx> = match self.kind {
            ModelKind::RowNet => a
                .entries()
                .iter()
                .map(|&(_, j)| sides[j as usize] as Idx)
                .collect(),
            ModelKind::ColumnNet => a
                .entries()
                .iter()
                .map(|&(i, _)| sides[i as usize] as Idx)
                .collect(),
            ModelKind::FineGrain => (0..a.nnz()).map(|k| sides[k] as Idx).collect(),
        };
        NonzeroPartition::new(2, parts).expect("sides are 0/1")
    }
}

/// Builds the row-net model of `a`, whose index is `index`: one vertex per
/// column of `A` (weight = column nonzero count), one net per row
/// (weight 1). Single-pin nets are dropped — they can never be cut.
pub fn row_net_model(a: &Coo, index: &LineIndex) -> MatrixModel {
    let weights: Vec<u64> = (0..a.cols()).map(|j| u64::from(index.col_len(j))).collect();
    let mut b = HypergraphBuilder::new(weights).drop_singleton_nets();
    for i in 0..a.rows() {
        b.add_net(
            1,
            a.entries()[index.row_nonzero_ids(i)]
                .iter()
                .map(|&(_, j)| j),
        );
    }
    MatrixModel {
        kind: ModelKind::RowNet,
        hypergraph: b.build(),
    }
}

/// Builds the column-net model: one vertex per row of `A` (weight = row
/// nonzero count), one net per column (weight 1).
pub fn column_net_model(a: &Coo, index: &LineIndex) -> MatrixModel {
    let weights: Vec<u64> = (0..a.rows()).map(|i| u64::from(index.row_len(i))).collect();
    let mut b = HypergraphBuilder::new(weights).drop_singleton_nets();
    for j in 0..a.cols() {
        b.add_net(1, index.col(j).iter().copied());
    }
    MatrixModel {
        kind: ModelKind::ColumnNet,
        hypergraph: b.build(),
    }
}

/// Builds the fine-grain model: one vertex per nonzero (weight 1), one net
/// per row and one per column (weight 1 each).
pub fn fine_grain_model(a: &Coo, index: &LineIndex) -> MatrixModel {
    let mut b = HypergraphBuilder::new(vec![1u64; a.nnz()]).drop_singleton_nets();
    for i in 0..a.rows() {
        b.add_net(1, index.row_nonzero_ids(i).map(|k| k as Idx));
    }
    for j in 0..a.cols() {
        b.add_net(1, index.col_nonzero_ids(j).iter().copied());
    }
    MatrixModel {
        kind: ModelKind::FineGrain,
        hypergraph: b.build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VertexBipartition;
    use mg_sparse::communication_volume;

    fn sample() -> Coo {
        // 3x4 pattern:
        //  x x . x
        //  . x x .
        //  x . x x
        Coo::new(
            3,
            4,
            vec![
                (0, 0),
                (0, 1),
                (0, 3),
                (1, 1),
                (1, 2),
                (2, 0),
                (2, 2),
                (2, 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn row_net_sizes_and_weights() {
        let a = sample();
        let m = row_net_model(&a, &LineIndex::new(&a));
        let h = &m.hypergraph;
        assert_eq!(h.num_vertices(), 4);
        // All three rows have ≥ 2 pins, none dropped.
        assert_eq!(h.num_nets(), 3);
        assert_eq!(h.total_vertex_weight(), a.nnz() as u64);
        assert_eq!(h.vertex_weight(1), 2);
        h.validate().unwrap();
    }

    #[test]
    fn column_net_is_row_net_of_transpose() {
        let a = sample();
        let cn = column_net_model(&a, &LineIndex::new(&a));
        let t = a.transpose();
        let rn_t = row_net_model(&t, &LineIndex::new(&t));
        assert_eq!(cn.hypergraph, rn_t.hypergraph);
    }

    #[test]
    fn fine_grain_sizes() {
        let a = sample();
        let m = fine_grain_model(&a, &LineIndex::new(&a));
        let h = &m.hypergraph;
        assert_eq!(h.num_vertices() as usize, a.nnz());
        assert_eq!(h.total_vertex_weight(), a.nnz() as u64);
        // Rows: 3,2,3 pins; columns: 2,2,2,2 — all kept.
        assert_eq!(h.num_nets(), 7);
        h.validate().unwrap();
    }

    /// For every model, the hypergraph cut of a bipartition must equal the
    /// communication volume of the induced nonzero partition.
    #[test]
    fn cut_equals_volume_for_all_models() {
        let a = sample();
        let index = LineIndex::new(&a);
        for model in [
            row_net_model(&a, &index),
            column_net_model(&a, &index),
            fine_grain_model(&a, &index),
        ] {
            let h = &model.hypergraph;
            let nv = h.num_vertices() as usize;
            // Try a few assignments, including skewed ones.
            for pattern in 0..8u32 {
                let sides: Vec<u8> = (0..nv)
                    .map(|v| (v as u32 + pattern).is_multiple_of(3) as u8)
                    .collect();
                let bp = VertexBipartition::new(h, sides.clone());
                let np = model.to_nonzero_partition(&a, &sides);
                assert_eq!(
                    bp.cut_weight(),
                    communication_volume(&a, &np),
                    "model {:?}, pattern {pattern}",
                    model.kind
                );
            }
        }
    }

    #[test]
    fn singleton_rows_do_not_create_nets() {
        let a = Coo::new(3, 3, vec![(0, 0), (1, 0), (1, 1), (2, 2)]).unwrap();
        let m = row_net_model(&a, &LineIndex::new(&a));
        // Rows 0 and 2 have one nonzero each: only row 1 remains as a net.
        assert_eq!(m.hypergraph.num_nets(), 1);
    }

    #[test]
    fn empty_matrix_models() {
        let a = Coo::empty(3, 2);
        assert_eq!(
            row_net_model(&a, &LineIndex::new(&a)).hypergraph.num_nets(),
            0
        );
        assert_eq!(
            column_net_model(&a, &LineIndex::new(&a))
                .hypergraph
                .num_vertices(),
            3
        );
        assert_eq!(
            fine_grain_model(&a, &LineIndex::new(&a))
                .hypergraph
                .num_vertices(),
            0
        );
    }
}
