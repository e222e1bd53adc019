//! Incremental bipartition state over a hypergraph.
//!
//! [`VertexBipartition`] tracks, for every net, how many of its pins lie in
//! part 0, plus the two part weights and the total cut weight. Moving a
//! vertex updates all of this in `O(degree)` — the primitive both FM
//! refinement (`mg-partitioner`) and Algorithm 2's single-run KL
//! (`mg-core`) are built on.

use crate::{Hypergraph, Idx};

/// A 2-way vertex partition with incrementally maintained cut state.
#[derive(Debug, Clone)]
pub struct VertexBipartition {
    side: Vec<u8>,
    /// Per net: `[pins currently in part 0, net size]`, packed into one
    /// 8-byte slot so a count lookup or a move touches one entry instead
    /// of a count plus two CSR offsets.
    nets: Vec<[Idx; 2]>,
    part_weight: [u64; 2],
    cut_weight: u64,
}

impl VertexBipartition {
    /// Builds the state for an initial assignment (`sides[v] ∈ {0, 1}`).
    pub fn new(h: &Hypergraph, side: Vec<u8>) -> Self {
        assert_eq!(side.len(), h.num_vertices() as usize);
        debug_assert!(side.iter().all(|&s| s <= 1));
        let mut part_weight = [0u64; 2];
        for v in 0..h.num_vertices() {
            part_weight[side[v as usize] as usize] += h.vertex_weight(v);
        }
        let mut nets = Vec::with_capacity(h.num_nets() as usize);
        let mut cut_weight = 0u64;
        for (_, w, pins) in h.nets() {
            let zeros = pins.iter().filter(|&&v| side[v as usize] == 0).count() as Idx;
            let size = pins.len() as Idx;
            nets.push([zeros, size]);
            if zeros != 0 && zeros != size {
                cut_weight += w;
            }
        }
        VertexBipartition {
            side,
            nets,
            part_weight,
            cut_weight,
        }
    }

    /// All vertices on part 0.
    pub fn all_zero(h: &Hypergraph) -> Self {
        Self::new(h, vec![0; h.num_vertices() as usize])
    }

    /// Current side of vertex `v`.
    #[inline]
    pub fn side(&self, v: Idx) -> u8 {
        self.side[v as usize]
    }

    /// The full assignment.
    #[inline]
    pub fn sides(&self) -> &[u8] {
        &self.side
    }

    /// Consumes the state, returning the assignment vector.
    pub fn into_sides(self) -> Vec<u8> {
        self.side
    }

    /// Σ net weights over nets with pins in both parts. For bipartitions
    /// this equals the connectivity metric `Σ (λ_n − 1)·w(n)`.
    #[inline]
    pub fn cut_weight(&self) -> u64 {
        self.cut_weight
    }

    /// Vertex weight currently in `part`.
    #[inline]
    pub fn part_weight(&self, part: u8) -> u64 {
        self.part_weight[part as usize]
    }

    /// Number of pins of net `n` in `part`.
    #[inline]
    pub fn pins_in(&self, n: Idx, part: u8) -> Idx {
        let [zeros, size] = self.nets[n as usize];
        if part == 0 {
            zeros
        } else {
            size - zeros
        }
    }

    /// `true` if net `n` has pins in both parts.
    #[inline]
    pub fn is_cut(&self, n: Idx) -> bool {
        let [zeros, size] = self.nets[n as usize];
        zeros != 0 && zeros != size
    }

    /// The FM gain of moving `v` to the other side: the decrease in cut
    /// weight if the move were applied now.
    pub fn gain(&self, h: &Hypergraph, v: Idx) -> i64 {
        let from = self.side[v as usize];
        let mut gain = 0i64;
        for &n in h.vertex_nets(v) {
            let size = self.nets[n as usize][1];
            if size < 2 {
                continue; // a single-pin net can never be cut or uncut
            }
            let w = h.net_weight(n) as i64;
            let in_from = self.pins_in(n, from);
            if in_from == 1 {
                gain += w; // v is the last pin on its side: move uncuts n
            } else if in_from == size {
                gain -= w; // net entirely on v's side: move cuts n
            }
        }
        gain
    }

    /// Flips vertex `v` to the other side, maintaining all incremental
    /// state. Returns the realised gain (cut decrease).
    pub fn move_vertex(&mut self, h: &Hypergraph, v: Idx) -> i64 {
        self.move_vertex_with(h, v, |_, _, _, _| {})
    }

    /// [`move_vertex`](Self::move_vertex) that also reports every net of
    /// `v`, in `h.vertex_nets(v)` order, to `visit` as
    /// `(net, pins on v's side before the move, net size, sides)`. The
    /// sides are the pre-move assignment (`v` flips after the walk), so a
    /// visitor can derive both the before and the after state of each net
    /// from the one sweep — the FM gain update's single pass over `v`'s
    /// nets.
    #[inline]
    pub fn move_vertex_with(
        &mut self,
        h: &Hypergraph,
        v: Idx,
        mut visit: impl FnMut(Idx, Idx, Idx, &[u8]),
    ) -> i64 {
        let from = self.side[v as usize];
        let to = 1 - from;
        let before = self.cut_weight;
        // Moving off side 0 lowers the zero count, onto it raises it.
        let step: Idx = if from == 0 { Idx::MAX } else { 1 };
        for &n in h.vertex_nets(v) {
            let [zeros, size] = self.nets[n as usize];
            let in_from = if from == 0 { zeros } else { size - zeros };
            if size > 1 {
                if in_from == size {
                    self.cut_weight += h.net_weight(n); // first pin leaves a pure net
                } else if in_from == 1 {
                    self.cut_weight -= h.net_weight(n); // last pin on v's side leaves
                }
            }
            visit(n, in_from, size, &self.side);
            self.nets[n as usize][0] = zeros.wrapping_add(step);
        }
        let w = h.vertex_weight(v);
        self.part_weight[from as usize] -= w;
        self.part_weight[to as usize] += w;
        self.side[v as usize] = to;
        before as i64 - self.cut_weight as i64
    }

    /// Rebuilds the state from scratch and checks that the incremental
    /// bookkeeping matches; for tests and debug assertions.
    pub fn validate(&self, h: &Hypergraph) -> Result<(), String> {
        let fresh = VertexBipartition::new(h, self.side.clone());
        if fresh.cut_weight != self.cut_weight {
            return Err(format!(
                "cut weight drifted: incremental {} vs fresh {}",
                self.cut_weight, fresh.cut_weight
            ));
        }
        if fresh.part_weight != self.part_weight {
            return Err(format!(
                "part weights drifted: incremental {:?} vs fresh {:?}",
                self.part_weight, fresh.part_weight
            ));
        }
        if fresh.nets.len() != self.nets.len() {
            return Err("net count drifted".into());
        }
        for (n, (fresh, kept)) in fresh.nets.iter().zip(&self.nets).enumerate() {
            if fresh[1] != kept[1] {
                return Err(format!(
                    "net {n}: size drifted: {} vs {}",
                    kept[1], fresh[1]
                ));
            }
            if fresh[0] != kept[0] {
                return Err(format!(
                    "net {n}: pins in part 0 drifted: {} vs {}",
                    kept[0], fresh[0]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn path_graph() -> Hypergraph {
        // 4 vertices in a path: nets {0,1}, {1,2}, {2,3}, weights 1.
        let mut b = HypergraphBuilder::new(vec![1; 4]);
        b.add_net(1, [0, 1]);
        b.add_net(1, [1, 2]);
        b.add_net(1, [2, 3]);
        b.build()
    }

    #[test]
    fn initial_cut_counts() {
        let h = path_graph();
        let bp = VertexBipartition::new(&h, vec![0, 0, 1, 1]);
        assert_eq!(bp.cut_weight(), 1); // only net {1,2} is cut
        assert_eq!(bp.part_weight(0), 2);
        assert_eq!(bp.part_weight(1), 2);
        assert!(bp.is_cut(1));
        assert!(!bp.is_cut(0));
    }

    #[test]
    fn gain_predicts_move() {
        let h = path_graph();
        let bp = VertexBipartition::new(&h, vec![0, 0, 1, 1]);
        for v in 0..4 {
            let mut trial = bp.clone();
            let predicted = trial.gain(&h, v);
            let realised = trial.move_vertex(&h, v);
            assert_eq!(predicted, realised, "vertex {v}");
            trial.validate(&h).unwrap();
        }
    }

    #[test]
    fn move_and_move_back_restores_state() {
        let h = path_graph();
        let orig = VertexBipartition::new(&h, vec![0, 1, 0, 1]);
        let mut bp = orig.clone();
        for v in 0..4 {
            bp.move_vertex(&h, v);
            bp.move_vertex(&h, v);
            assert_eq!(bp.cut_weight(), orig.cut_weight());
            assert_eq!(bp.sides(), orig.sides());
        }
    }

    #[test]
    fn weighted_nets_and_vertices() {
        let mut b = HypergraphBuilder::new(vec![3, 5]);
        b.add_net(7, [0, 1]);
        let h = b.build();
        let mut bp = VertexBipartition::new(&h, vec![0, 1]);
        assert_eq!(bp.cut_weight(), 7);
        assert_eq!(bp.part_weight(0), 3);
        let gain = bp.move_vertex(&h, 0);
        assert_eq!(gain, 7);
        assert_eq!(bp.cut_weight(), 0);
        assert_eq!(bp.part_weight(1), 8);
    }

    #[test]
    fn all_zero_has_no_cut() {
        let h = path_graph();
        let bp = VertexBipartition::all_zero(&h);
        assert_eq!(bp.cut_weight(), 0);
        assert_eq!(bp.part_weight(1), 0);
    }

    #[test]
    fn validate_catches_fresh_state() {
        let h = path_graph();
        let mut bp = VertexBipartition::new(&h, vec![0, 1, 1, 0]);
        for v in [0, 2, 3, 1, 0] {
            bp.move_vertex(&h, v);
            bp.validate(&h).unwrap();
        }
    }
}
