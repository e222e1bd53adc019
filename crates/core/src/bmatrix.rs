//! The composite medium-grain model (§III-A).
//!
//! Given a split `A = Ar + Ac`, the paper forms the
//! `(m+n) × (m+n)` matrix of eqn (4)
//!
//! ```text
//!       B = [ Iₙ    (Ar)ᵀ ]
//!           [ Ac    Iₘ    ]
//! ```
//!
//! and applies the row-net model to `B`. Column `j < n` of `B` represents
//! *the group of nonzeros of column `j` of `A` assigned to `Ac`*; column
//! `n + i` represents *the group of nonzeros of row `i` assigned to `Ar`*.
//! The identity diagonals are dummy nonzeros that glue the two groups of
//! one row/column together so the hypergraph cut counts exactly the
//! communication volume of the mapped 2D partition of `A` (eqn (6)).
//!
//! Per the paper we drop rows/columns of `B` containing only their dummy
//! diagonal: empty groups become no vertices, and nets that shrink to a
//! single pin cannot be cut. This is why the medium-grain hypergraph is
//! often *smaller* than `m + n` vertices — the source of its speed
//! advantage over 1D localbest in Fig 5.
//!
//! B is laid out straight from A: [`ALayout`] holds A's row starts and
//! column-major order, computed once per matrix, and
//! [`MediumGrainModel::lay_out`] writes B's pins and vertex→net lists
//! into the model's own buffers in two walks over A, one per order. The
//! group sizes give every net's size up front, so nothing is sorted,
//! deduplicated or transposed afterwards. Algorithm 2 re-lays one model
//! per KL run; see [`crate::refine`].

use crate::split::Split;
use mg_hypergraph::Hypergraph;
use mg_sparse::{Coo, Idx, NonzeroPartition};

/// Sentinel for "this row/column has no group vertex" and "this row/column
/// has no net".
const NONE: Idx = Idx::MAX;

/// What laying out B needs of `A` besides the split: its row starts and
/// its column-major order. Computed once per matrix.
#[derive(Debug, Clone)]
pub struct ALayout {
    /// Row `i`'s entries are `row_start[i]..row_start[i + 1]` (the
    /// canonical order is row-major).
    row_start: Vec<usize>,
    /// Column `j`'s entries are `col_entry[col_start[j]..col_start[j + 1]]`.
    col_start: Vec<usize>,
    /// Entry ids in column-major order, rows ascending within a column.
    col_entry: Vec<Idx>,
    /// `col_row[p]` is the row of entry `col_entry[p]`.
    col_row: Vec<Idx>,
}

impl ALayout {
    /// Computes the layout of `a`: one pass counts the rows and columns,
    /// one places every entry in column-major order.
    pub fn new(a: &Coo) -> Self {
        let entries = a.entries();
        let mut row_start = vec![0usize; a.rows() as usize + 1];
        let mut col_start = vec![0usize; a.cols() as usize + 1];
        for &(i, j) in entries {
            row_start[i as usize + 1] += 1;
            col_start[j as usize + 1] += 1;
        }
        for i in 1..row_start.len() {
            row_start[i] += row_start[i - 1];
        }
        for j in 1..col_start.len() {
            col_start[j] += col_start[j - 1];
        }
        let mut col_entry = vec![0 as Idx; entries.len()];
        let mut col_row = vec![0 as Idx; entries.len()];
        let mut next = col_start.clone();
        for (k, &(i, j)) in entries.iter().enumerate() {
            let p = next[j as usize];
            next[j as usize] += 1;
            col_entry[p] = k as Idx;
            col_row[p] = i;
        }
        ALayout {
            row_start,
            col_start,
            col_entry,
            col_row,
        }
    }
}

/// The medium-grain hypergraph of a split matrix, with the bookkeeping to
/// map vertex bipartitions back to nonzero partitions of `A`.
#[derive(Debug, Clone, Default)]
pub struct MediumGrainModel {
    /// The row-net hypergraph of `B` (dummy-only rows/columns removed).
    pub hypergraph: Hypergraph,
    /// Per column `j` of `A`: `[vertex, net]` — the vertex id of its
    /// group (`Ac`) and the id of its net minus the number of row nets,
    /// each `NONE` where absent. Column nets follow the row nets.
    cols: Vec<[Idx; 2]>,
    /// Per row `i` of `A`: `[vertex, net]` of its group (`Ar`) and net.
    rows: Vec<[Idx; 2]>,
    /// Number of column-group vertices: the id of the first row group.
    col_vertices: Idx,
    /// The split this model was laid out for (`true` = in `Ar`).
    in_row: Vec<bool>,
}

impl MediumGrainModel {
    /// Builds the model from a matrix and a split.
    ///
    /// Vertex weights are the group sizes (the paper's `nzc(j) − 1` on `B`,
    /// i.e. dummy excluded), so hypergraph balance is nonzero balance on
    /// `A`. Nets carry weight 1; single-pin nets are dropped.
    pub fn build(a: &Coo, split: &Split) -> Self {
        assert_eq!(
            split.assignment().len(),
            a.nnz(),
            "split does not match matrix"
        );
        let mut model = MediumGrainModel::default();
        model.lay_out(a, &ALayout::new(a), |k| split.in_row(k));
        model
    }

    /// Lays out B for the split `in_row` (`true` puts nonzero `k` in
    /// `Ar`) in this model's buffers, replacing what they held.
    ///
    /// Vertices: the non-empty column groups in column order, then the
    /// non-empty row groups in row order. Nets: row `i` of A is the net
    /// over the column groups of its `Ac` nonzeros plus its own row group
    /// (the dummy diagonal of B); column `j` is the net over its own
    /// column group plus the row groups of its `Ar` nonzeros. Row nets
    /// come first, and a net of under two pins is dropped. Pins are
    /// ascending within a net and nets ascending within a vertex.
    pub fn lay_out(&mut self, a: &Coo, layout: &ALayout, in_row: impl Fn(usize) -> bool) {
        let entries = a.entries();
        let mut csr = std::mem::take(&mut self.hypergraph).into_csr();

        // The split, and the group sizes: Ar nonzeros per row, Ac
        // nonzeros per column (held where the vertex ids go).
        self.in_row.clear();
        self.in_row.extend((0..entries.len()).map(in_row));
        self.cols.clear();
        self.cols.resize(a.cols() as usize, [0, NONE]);
        self.rows.clear();
        for row in layout.row_start.windows(2) {
            let span = row[0]..row[1];
            let mut ar = 0;
            for (&(_, j), &is_row) in entries[span.clone()].iter().zip(&self.in_row[span]) {
                ar += Idx::from(is_row);
                self.cols[j as usize][0] += Idx::from(!is_row);
            }
            self.rows.push([ar, NONE]);
        }

        // Vertex ids and weights; the nets that keep two pins or more,
        // sized from the group sizes. `col_pins` counts the pins that are
        // column groups: their net lists come first in `vtx_nets`.
        csr.vertex_weights.clear();
        let (mut col_pins, mut pins) = (0usize, 0usize);
        let mut col_nets = 0 as Idx;
        for (col, len) in self.cols.iter_mut().zip(layout.col_start.windows(2)) {
            let size = col[0];
            let own = usize::from(size > 0);
            let net_size = own + (len[1] - len[0]) - size as usize;
            if size > 0 {
                col[0] = csr.vertex_weights.len() as Idx;
                csr.vertex_weights.push(u64::from(size));
            } else {
                col[0] = NONE;
            }
            if net_size >= 2 {
                col[1] = col_nets;
                col_nets += 1;
                col_pins += own;
                pins += net_size;
            }
        }
        self.col_vertices = csr.vertex_weights.len() as Idx;
        let mut row_nets = 0 as Idx;
        for (row, len) in self.rows.iter_mut().zip(layout.row_start.windows(2)) {
            let size = row[0];
            let others = (len[1] - len[0]) - size as usize;
            let net_size = others + usize::from(size > 0);
            if size > 0 {
                row[0] = csr.vertex_weights.len() as Idx;
                csr.vertex_weights.push(u64::from(size));
            } else {
                row[0] = NONE;
            }
            if net_size >= 2 {
                row[1] = row_nets;
                row_nets += 1;
                col_pins += others;
                pins += net_size;
            }
        }
        let num_nets = (row_nets + col_nets) as usize;
        csr.net_weights.clear();
        csr.net_weights.resize(num_nets, 1);
        csr.net_ptr.clear();
        csr.net_ptr.push(0);
        // Each nonzero writes one pin and one net-list entry; a write
        // whose condition fails lands in the sink slot past the end, so
        // the walks do not branch per nonzero.
        let sink = pins;
        csr.net_pins.clear();
        csr.net_pins.resize(pins + 1, 0);
        csr.vtx_ptr.clear();
        csr.vtx_ptr.resize(csr.vertex_weights.len() + 1, 0);
        csr.vtx_nets.clear();
        csr.vtx_nets.resize(pins + 1, 0);

        // Row-major walk: the row nets' pins (the column groups of the
        // row's Ac nonzeros, then its own group) and the row groups' net
        // lists (its own net, then the nets of its Ar nonzeros' columns).
        let (mut pin, mut listed) = (0, col_pins);
        for (&[v, net], range) in self.rows.iter().zip(layout.row_start.windows(2)) {
            let kept = net != NONE;
            if v != NONE && kept {
                csr.vtx_nets[listed] = net;
                listed += 1;
            }
            let span = range[0]..range[1];
            for (&(_, j), &is_row) in entries[span.clone()].iter().zip(&self.in_row[span]) {
                let [col_v, col_net] = self.cols[j as usize];
                let is_pin = !is_row && kept;
                csr.net_pins[if is_pin { pin } else { sink }] = col_v;
                pin += usize::from(is_pin);
                let is_listed = is_row && col_net != NONE;
                csr.vtx_nets[if is_listed { listed } else { sink }] =
                    row_nets.wrapping_add(col_net);
                listed += usize::from(is_listed);
            }
            if kept {
                if v != NONE {
                    csr.net_pins[pin] = v;
                    pin += 1;
                }
                csr.net_ptr.push(pin);
            }
            if v != NONE {
                csr.vtx_ptr[v as usize + 1] = listed;
            }
        }
        debug_assert_eq!(listed, pins);

        // Column-major walk: the column nets' pins (its own group, then
        // the row groups of its Ar nonzeros) and the column groups' net
        // lists (the nets of its Ac nonzeros' rows, then its own net).
        listed = 0;
        for (&[v, net], range) in self.cols.iter().zip(layout.col_start.windows(2)) {
            let kept = net != NONE;
            if kept && v != NONE {
                csr.net_pins[pin] = v;
                pin += 1;
            }
            let span = range[0]..range[1];
            for (&k, &i) in layout.col_entry[span.clone()]
                .iter()
                .zip(&layout.col_row[span])
            {
                let [row_v, row_net] = self.rows[i as usize];
                let is_row = self.in_row[k as usize];
                let is_pin = is_row && kept;
                csr.net_pins[if is_pin { pin } else { sink }] = row_v;
                pin += usize::from(is_pin);
                let is_listed = !is_row && row_net != NONE;
                csr.vtx_nets[if is_listed { listed } else { sink }] = row_net;
                listed += usize::from(is_listed);
            }
            if kept {
                csr.net_ptr.push(pin);
                if v != NONE {
                    csr.vtx_nets[listed] = row_nets + net;
                    listed += 1;
                }
            }
            if v != NONE {
                csr.vtx_ptr[v as usize + 1] = listed;
            }
        }
        debug_assert_eq!((pin, listed), (pins, col_pins));
        csr.net_pins.truncate(pins);
        csr.vtx_nets.truncate(pins);

        self.hypergraph = Hypergraph::from_csr(csr);
    }

    /// Vertex id of column group `j`, if it exists.
    pub fn col_vertex(&self, j: Idx) -> Option<Idx> {
        let v = self.cols[j as usize][0];
        (v != NONE).then_some(v)
    }

    /// Vertex id of row group `i`, if it exists.
    pub fn row_vertex(&self, i: Idx) -> Option<Idx> {
        let v = self.rows[i as usize][0];
        (v != NONE).then_some(v)
    }

    /// Fills `sides` with the vertex assignment in which every column
    /// group is on `col_side` and every row group on the other side.
    ///
    /// This is how Algorithm 2 seeds FM: it derives the split from the
    /// partition itself (`Ar ← A0, Ac ← A1` or the reverse), so every
    /// group is pure and the side of a group is the side of its kind.
    pub fn pure_sides(&self, col_side: u8, sides: &mut Vec<u8>) {
        sides.clear();
        sides.resize(self.col_vertices as usize, col_side);
        sides.resize(self.hypergraph.num_vertices() as usize, 1 - col_side);
    }

    /// Translates a vertex bipartition of the model into the 2D nonzero
    /// partition of `A` defined by eqn (5): an `Ac` nonzero follows its
    /// column group, an `Ar` nonzero follows its row group.
    pub fn to_nonzero_partition(&self, a: &Coo, sides: &[u8]) -> NonzeroPartition {
        assert_eq!(sides.len(), self.hypergraph.num_vertices() as usize);
        let parts: Vec<Idx> = a
            .entries()
            .iter()
            .enumerate()
            .map(|(k, &(i, j))| {
                let v = if self.in_row[k] {
                    self.rows[i as usize][0]
                } else {
                    self.cols[j as usize][0]
                };
                debug_assert_ne!(v, NONE, "group of an assigned nonzero must exist");
                sides[v as usize] as Idx
            })
            .collect();
        NonzeroPartition::new(2, parts).expect("sides are 0/1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{split_with_preference, GlobalPreference, Split};
    use mg_hypergraph::VertexBipartition;
    use mg_sparse::communication_volume;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> Coo {
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
    fn weights_sum_to_nnz() {
        let a = sample();
        let split = split_with_preference(&a, GlobalPreference::Columns);
        let model = MediumGrainModel::build(&a, &split);
        assert_eq!(model.hypergraph.total_vertex_weight(), a.nnz() as u64);
        model.hypergraph.validate().unwrap();
    }

    #[test]
    fn vertex_count_at_most_m_plus_n() {
        let a = sample();
        for split in [
            split_with_preference(&a, GlobalPreference::Columns),
            split_with_preference(&a, GlobalPreference::Rows),
            Split::all_columns(a.nnz()),
            Split::all_rows(a.nnz()),
        ] {
            let model = MediumGrainModel::build(&a, &split);
            assert!(model.hypergraph.num_vertices() <= a.rows() + a.cols());
        }
    }

    #[test]
    fn all_columns_split_degenerates_to_row_net() {
        // With everything in Ac, the model must be exactly the row-net
        // model: n column vertices (weights nzc), row nets.
        let a = sample();
        let model = MediumGrainModel::build(&a, &Split::all_columns(a.nnz()));
        let rn = mg_hypergraph::row_net_model(&a);
        // Same vertex count (every column of `sample` is non-empty) and
        // same weights; nets may be ordered differently but here both are
        // rows-in-order.
        assert_eq!(
            model.hypergraph.num_vertices(),
            rn.hypergraph.num_vertices()
        );
        assert_eq!(
            model.hypergraph.vertex_weights(),
            rn.hypergraph.vertex_weights()
        );
        assert_eq!(model.hypergraph.num_nets(), rn.hypergraph.num_nets());
    }

    /// The volume-equality theorem (eqn (6)): for *any* split and *any*
    /// vertex bipartition, hypergraph cut == communication volume of the
    /// mapped partition of A.
    #[test]
    fn cut_equals_volume_exhaustive_small() {
        let a = Coo::new(2, 3, vec![(0, 0), (0, 1), (1, 1), (1, 2)]).unwrap();
        // All 2^4 splits × all 2^(num vertices) assignments.
        for split_mask in 0..16u32 {
            let split =
                Split::from_assignment((0..4).map(|k| (split_mask >> k) & 1 == 1).collect());
            let model = MediumGrainModel::build(&a, &split);
            let nv = model.hypergraph.num_vertices();
            for side_mask in 0..(1u32 << nv) {
                let sides: Vec<u8> = (0..nv).map(|v| ((side_mask >> v) & 1) as u8).collect();
                let cut = VertexBipartition::new(&model.hypergraph, sides.clone()).cut_weight();
                let np = model.to_nonzero_partition(&a, &sides);
                let vol = communication_volume(&a, &np);
                assert_eq!(
                    cut, vol,
                    "split {split_mask:04b}, sides {side_mask:b}, \
                     cut {cut} != volume {vol}"
                );
            }
        }
    }

    #[test]
    fn cut_equals_volume_random() {
        let mut rng = StdRng::seed_from_u64(99);
        let a = mg_sparse::gen::erdos_renyi(20, 15, 120, &mut rng);
        for _ in 0..20 {
            let split = Split::from_assignment((0..a.nnz()).map(|_| rng.gen::<bool>()).collect());
            let model = MediumGrainModel::build(&a, &split);
            let nv = model.hypergraph.num_vertices() as usize;
            let sides: Vec<u8> = (0..nv).map(|_| rng.gen_range(0..2) as u8).collect();
            let cut = VertexBipartition::new(&model.hypergraph, sides.clone()).cut_weight();
            let np = model.to_nonzero_partition(&a, &sides);
            assert_eq!(cut, communication_volume(&a, &np));
        }
    }

    #[test]
    fn sides_from_partition_round_trips() {
        let a = sample();
        // Partition by "row < 1 → part 0"; encode as split Ar←A0, Ac←A1.
        let parts: Vec<Idx> = a.iter().map(|(i, _)| (i > 0) as Idx).collect();
        let np = NonzeroPartition::new(2, parts).unwrap();
        let split = Split::from_assignment((0..a.nnz()).map(|k| np.part_of(k) == 0).collect());
        let model = MediumGrainModel::build(&a, &split);
        // Ar holds part 0, so the column groups are all on side 1.
        let mut sides = Vec::new();
        model.pure_sides(1, &mut sides);
        let round = model.to_nonzero_partition(&a, &sides);
        assert_eq!(round, np);
        // Encoded volume must equal the partition's volume.
        let cut = VertexBipartition::new(&model.hypergraph, sides).cut_weight();
        assert_eq!(cut, communication_volume(&a, &np));
    }

    #[test]
    fn empty_groups_get_no_vertices() {
        let a = sample();
        let model = MediumGrainModel::build(&a, &Split::all_columns(a.nnz()));
        for i in 0..a.rows() {
            assert!(model.row_vertex(i).is_none());
        }
        for j in 0..a.cols() {
            assert!(model.col_vertex(j).is_some());
        }
    }

    /// B as eqn (4) defines it, through the general hypergraph builder:
    /// column groups then row groups as vertices, row nets then column
    /// nets, single-pin nets dropped.
    fn reference_b(a: &Coo, split: &Split) -> mg_hypergraph::Hypergraph {
        let (m, n) = (a.rows() as usize, a.cols() as usize);
        let (mut col_size, mut row_size) = (vec![0u64; n], vec![0u64; m]);
        for (k, &(i, j)) in a.entries().iter().enumerate() {
            if split.in_row(k) {
                row_size[i as usize] += 1;
            } else {
                col_size[j as usize] += 1;
            }
        }
        let mut weights = Vec::new();
        let mut vertex = |size: u64| {
            weights.push(size);
            (weights.len() - 1) as Idx
        };
        let col_v: Vec<Option<Idx>> = col_size
            .iter()
            .map(|&s| (s > 0).then(|| vertex(s)))
            .collect();
        let row_v: Vec<Option<Idx>> = row_size
            .iter()
            .map(|&s| (s > 0).then(|| vertex(s)))
            .collect();
        let mut builder = mg_hypergraph::HypergraphBuilder::new(weights).drop_singleton_nets();
        for (i, &own) in row_v.iter().enumerate() {
            let ac = a
                .iter()
                .enumerate()
                .filter(|&(k, (r, _))| r as usize == i && !split.in_row(k));
            let pins: Vec<Idx> = ac
                .filter_map(|(_, (_, j))| col_v[j as usize])
                .chain(own)
                .collect();
            builder.add_net(1, pins);
        }
        for (j, &own) in col_v.iter().enumerate() {
            let ar = a
                .iter()
                .enumerate()
                .filter(|&(k, (_, c))| c as usize == j && split.in_row(k));
            let pins: Vec<Idx> = own
                .into_iter()
                .chain(ar.filter_map(|(_, (i, _))| row_v[i as usize]))
                .collect();
            builder.add_net(1, pins);
        }
        builder.build()
    }

    /// Laying B out again in used buffers gives the hypergraph eqn (4)
    /// defines — every vertex, net and pin in the same place — with
    /// empty rows and columns, empty groups and single-pin nets about.
    #[test]
    fn relayout_in_used_buffers_matches_the_reference_b() {
        let mut rng = StdRng::seed_from_u64(5);
        let spread = mg_sparse::gen::erdos_renyi(30, 20, 150, &mut rng);
        let a = Coo::new(
            60,
            41,
            spread.iter().map(|(i, j)| (2 * i, 2 * j + 1)).collect(),
        )
        .unwrap();
        let layout = ALayout::new(&a);
        let mut model = MediumGrainModel::default();
        for round in 0..12 {
            let split = match round {
                0 => Split::all_rows(a.nnz()),
                1 => Split::all_columns(a.nnz()),
                _ => Split::from_assignment((0..a.nnz()).map(|_| rng.gen::<bool>()).collect()),
            };
            model.lay_out(&a, &layout, |k| split.in_row(k));
            assert_eq!(model.hypergraph, reference_b(&a, &split), "round {round}");
            assert_eq!(
                model.hypergraph,
                MediumGrainModel::build(&a, &split).hypergraph
            );
        }
    }
}
