//! The hypergraph data structure.
//!
//! Layout follows the idioms of high-performance partitioners (PaToH,
//! Mondriaan, hMetis): two flat CSR incidence arrays — nets→pins and
//! vertices→nets — so both "which vertices does this net touch" and "which
//! nets does this vertex belong to" are contiguous slices. All indices are
//! `u32`; weights are `u64`.

use crate::Idx;

/// An immutable weighted hypergraph `H = (V, N)`.
///
/// Invariants (checked by [`Hypergraph::validate`], enforced by the
/// builder):
/// * pins within a net are sorted ascending and unique,
/// * nets within a vertex's net list are sorted ascending and unique,
/// * the two incidence structures are transposes of each other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    vertex_weights: Vec<u64>,
    net_weights: Vec<u64>,
    /// nets → pins, CSR.
    net_ptr: Vec<usize>,
    net_pins: Vec<Idx>,
    /// vertices → nets, CSR (derived).
    vtx_ptr: Vec<usize>,
    vtx_nets: Vec<Idx>,
    total_vertex_weight: u64,
}

impl Hypergraph {
    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> Idx {
        self.vertex_weights.len() as Idx
    }

    /// Number of nets `|N|`.
    #[inline]
    pub fn num_nets(&self) -> Idx {
        self.net_weights.len() as Idx
    }

    /// Total number of pins `Σ_n |n|`.
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.net_pins.len()
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn vertex_weight(&self, v: Idx) -> u64 {
        self.vertex_weights[v as usize]
    }

    /// All vertex weights.
    #[inline]
    pub fn vertex_weights(&self) -> &[u64] {
        &self.vertex_weights
    }

    /// Sum of all vertex weights.
    #[inline]
    pub fn total_vertex_weight(&self) -> u64 {
        self.total_vertex_weight
    }

    /// Weight of net `n`.
    #[inline]
    pub fn net_weight(&self, n: Idx) -> u64 {
        self.net_weights[n as usize]
    }

    /// The vertices of net `n`, sorted ascending.
    #[inline]
    pub fn net_pins(&self, n: Idx) -> &[Idx] {
        &self.net_pins[self.net_ptr[n as usize]..self.net_ptr[n as usize + 1]]
    }

    /// Number of pins of net `n`.
    #[inline]
    pub fn net_size(&self, n: Idx) -> Idx {
        (self.net_ptr[n as usize + 1] - self.net_ptr[n as usize]) as Idx
    }

    /// The nets containing vertex `v`, sorted ascending.
    #[inline]
    pub fn vertex_nets(&self, v: Idx) -> &[Idx] {
        &self.vtx_nets[self.vtx_ptr[v as usize]..self.vtx_ptr[v as usize + 1]]
    }

    /// Number of nets containing vertex `v`.
    #[inline]
    pub fn degree(&self, v: Idx) -> Idx {
        (self.vtx_ptr[v as usize + 1] - self.vtx_ptr[v as usize]) as Idx
    }

    /// Iterates `(net, weight, pins)`.
    pub fn nets(&self) -> impl Iterator<Item = (Idx, u64, &[Idx])> + '_ {
        (0..self.num_nets()).map(move |n| (n, self.net_weight(n), self.net_pins(n)))
    }

    /// Exhaustively checks the structural invariants; for tests.
    pub fn validate(&self) -> Result<(), String> {
        let nv = self.num_vertices() as usize;
        for (n, _, pins) in self.nets() {
            if !pins.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("net {n} pins not sorted/unique: {pins:?}"));
            }
            if let Some(&last) = pins.last() {
                if last as usize >= nv {
                    return Err(format!("net {n} pin {last} out of bounds"));
                }
            }
        }
        // Transpose consistency.
        let mut pin_count = 0usize;
        for v in 0..self.num_vertices() {
            let nets = self.vertex_nets(v);
            if !nets.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("vertex {v} net list not sorted/unique"));
            }
            for &n in nets {
                if self.net_pins(n).binary_search(&v).is_err() {
                    return Err(format!("vertex {v} lists net {n} but is not a pin"));
                }
            }
            pin_count += nets.len();
        }
        if pin_count != self.num_pins() {
            return Err(format!(
                "pin count mismatch: vertex side {pin_count}, net side {}",
                self.num_pins()
            ));
        }
        if self.total_vertex_weight != self.vertex_weights.iter().sum::<u64>() {
            return Err("cached total vertex weight is stale".into());
        }
        Ok(())
    }
}

/// The CSR buffers of a [`Hypergraph`], for a producer that lays out the
/// nets and the vertex→net lists itself and reuses the buffers from one
/// hypergraph to the next ([`Hypergraph::from_csr`],
/// [`Hypergraph::into_csr`]).
#[derive(Debug, Clone, Default)]
pub struct HypergraphCsr {
    /// Weight per vertex.
    pub vertex_weights: Vec<u64>,
    /// Weight per net.
    pub net_weights: Vec<u64>,
    /// `net_pins[net_ptr[n]..net_ptr[n + 1]]` are the pins of net `n`.
    pub net_ptr: Vec<usize>,
    /// Pins of all nets, each net's ascending and unique.
    pub net_pins: Vec<Idx>,
    /// `vtx_nets[vtx_ptr[v]..vtx_ptr[v + 1]]` are the nets of vertex `v`.
    pub vtx_ptr: Vec<usize>,
    /// Nets of all vertices, each vertex's ascending: the transpose of
    /// the pins.
    pub vtx_nets: Vec<Idx>,
}

impl Default for Hypergraph {
    /// The hypergraph with no vertices and no nets.
    fn default() -> Self {
        Hypergraph::from_csr(HypergraphCsr {
            net_ptr: vec![0],
            vtx_ptr: vec![0],
            ..HypergraphCsr::default()
        })
    }
}

impl Hypergraph {
    /// Takes buffers that already hold a hypergraph. The invariants of
    /// [`Hypergraph`] are the caller's to keep; debug builds check them.
    pub fn from_csr(csr: HypergraphCsr) -> Self {
        let h = Hypergraph {
            total_vertex_weight: csr.vertex_weights.iter().sum(),
            vertex_weights: csr.vertex_weights,
            net_weights: csr.net_weights,
            net_ptr: csr.net_ptr,
            net_pins: csr.net_pins,
            vtx_ptr: csr.vtx_ptr,
            vtx_nets: csr.vtx_nets,
        };
        debug_assert_eq!(h.net_ptr.len(), h.net_weights.len() + 1);
        debug_assert_eq!(h.vtx_ptr.len(), h.vertex_weights.len() + 1);
        debug_assert_eq!(h.validate(), Ok(()));
        h
    }

    /// Gives the buffers back, for the next hypergraph to be laid out in.
    pub fn into_csr(self) -> HypergraphCsr {
        HypergraphCsr {
            vertex_weights: self.vertex_weights,
            net_weights: self.net_weights,
            net_ptr: self.net_ptr,
            net_pins: self.net_pins,
            vtx_ptr: self.vtx_ptr,
            vtx_nets: self.vtx_nets,
        }
    }
}

/// Incremental constructor for [`Hypergraph`].
///
/// Collects nets one at a time, then [`HypergraphBuilder::build`] sorts and
/// deduplicates pins, drops empty nets (an empty net can never be cut) and
/// derives the vertex→net incidence with a counting sort.
#[derive(Debug, Clone, Default)]
pub struct HypergraphBuilder {
    vertex_weights: Vec<u64>,
    net_weights: Vec<u64>,
    net_ptr: Vec<usize>,
    net_pins: Vec<Idx>,
    drop_singletons: bool,
}

impl HypergraphBuilder {
    /// Starts a hypergraph with the given per-vertex weights.
    pub fn new(vertex_weights: Vec<u64>) -> Self {
        assert!(vertex_weights.len() < Idx::MAX as usize);
        HypergraphBuilder {
            vertex_weights,
            net_weights: Vec::new(),
            net_ptr: vec![0],
            net_pins: Vec::new(),
            drop_singletons: false,
        }
    }

    /// Also drop single-pin nets at build time. A single-pin net can never
    /// be cut, so this loses nothing for cut or λ−1 metrics and shrinks the
    /// pin structure (the paper notes the same for dummy-only rows of `B`).
    pub fn drop_singleton_nets(mut self) -> Self {
        self.drop_singletons = true;
        self
    }

    /// Appends a net with the given weight and pins (any order, duplicates
    /// tolerated and removed at build).
    pub fn add_net(&mut self, weight: u64, pins: impl IntoIterator<Item = Idx>) {
        self.net_pins.extend(pins);
        self.net_ptr.push(self.net_pins.len());
        self.net_weights.push(weight);
    }

    /// Number of nets added so far.
    pub fn num_nets(&self) -> usize {
        self.net_weights.len()
    }

    /// Finalises the hypergraph.
    pub fn build(mut self) -> Hypergraph {
        let num_vertices = self.vertex_weights.len();
        // Sort/dedup pins per net in place, compacting as we go; optionally
        // drop empty and singleton nets.
        let mut write_pin = 0usize;
        let mut write_net = 0usize;
        let num_nets = self.net_weights.len();
        let min_size = if self.drop_singletons { 2 } else { 1 };
        let mut new_ptr = vec![0usize];
        for n in 0..num_nets {
            let (lo, hi) = (self.net_ptr[n], self.net_ptr[n + 1]);
            let pins = &mut self.net_pins[lo..hi];
            // Most producers (the matrix models, contraction) emit
            // pins already strictly increasing; skip the sort *and* the
            // dedup compaction for them.
            let sorted_unique = pins.windows(2).all(|w| w[0] < w[1]);
            let len = if sorted_unique {
                if cfg!(debug_assertions) {
                    for &p in pins.iter() {
                        debug_assert!((p as usize) < num_vertices, "pin out of bounds");
                    }
                }
                pins.len()
            } else {
                pins.sort_unstable();
                let mut len = 0usize;
                for idx in 0..pins.len() {
                    debug_assert!((pins[idx] as usize) < num_vertices, "pin out of bounds");
                    if len == 0 || pins[len - 1] != pins[idx] {
                        pins[len] = pins[idx];
                        len += 1;
                    }
                }
                len
            };
            if len >= min_size {
                self.net_pins.copy_within(lo..lo + len, write_pin);
                write_pin += len;
                new_ptr.push(write_pin);
                self.net_weights[write_net] = self.net_weights[n];
                write_net += 1;
            }
        }
        self.net_pins.truncate(write_pin);
        self.net_weights.truncate(write_net);
        let net_ptr = new_ptr;

        // Derive vertex → net incidence by counting sort over pins.
        let mut vtx_ptr = vec![0usize; num_vertices + 1];
        for &v in &self.net_pins {
            vtx_ptr[v as usize + 1] += 1;
        }
        for v in 0..num_vertices {
            vtx_ptr[v + 1] += vtx_ptr[v];
        }
        let mut vtx_nets = vec![0 as Idx; self.net_pins.len()];
        let mut next = vtx_ptr.clone();
        for n in 0..write_net {
            for p in net_ptr[n]..net_ptr[n + 1] {
                let v = self.net_pins[p] as usize;
                vtx_nets[next[v]] = n as Idx;
                next[v] += 1;
            }
        }

        let total_vertex_weight = self.vertex_weights.iter().sum();
        Hypergraph {
            vertex_weights: self.vertex_weights,
            net_weights: self.net_weights,
            net_ptr,
            net_pins: self.net_pins,
            vtx_ptr,
            vtx_nets,
            total_vertex_weight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Hypergraph {
        // 3 vertices, nets {0,1}, {1,2}, {0,1,2}.
        let mut b = HypergraphBuilder::new(vec![1, 2, 3]);
        b.add_net(1, [0, 1]);
        b.add_net(1, [2, 1]);
        b.add_net(5, [2, 0, 1]);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let h = triangle();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_nets(), 3);
        assert_eq!(h.num_pins(), 7);
        assert_eq!(h.net_pins(1), &[1, 2]);
        assert_eq!(h.net_weight(2), 5);
        assert_eq!(h.vertex_weight(1), 2);
        assert_eq!(h.total_vertex_weight(), 6);
        assert_eq!(h.degree(1), 3);
        assert_eq!(h.vertex_nets(0), &[0, 2]);
        h.validate().unwrap();
    }

    #[test]
    fn pins_are_sorted_and_deduped() {
        let mut b = HypergraphBuilder::new(vec![1; 4]);
        b.add_net(1, [3, 1, 3, 0, 1]);
        let h = b.build();
        assert_eq!(h.net_pins(0), &[0, 1, 3]);
        h.validate().unwrap();
    }

    #[test]
    fn empty_nets_are_dropped() {
        let mut b = HypergraphBuilder::new(vec![1; 3]);
        b.add_net(1, []);
        b.add_net(2, [1]);
        let h = b.build();
        assert_eq!(h.num_nets(), 1);
        assert_eq!(h.net_pins(0), &[1]);
    }

    #[test]
    fn singleton_nets_dropped_when_requested() {
        let mut b = HypergraphBuilder::new(vec![1; 3]).drop_singleton_nets();
        b.add_net(1, [1]);
        b.add_net(2, [0, 2]);
        b.add_net(3, [2, 2, 2]);
        let h = b.build();
        assert_eq!(h.num_nets(), 1);
        assert_eq!(h.net_pins(0), &[0, 2]);
        assert_eq!(h.net_weight(0), 2);
        h.validate().unwrap();
    }

    #[test]
    fn vertex_incidence_is_transpose() {
        let h = triangle();
        for v in 0..h.num_vertices() {
            for &n in h.vertex_nets(v) {
                assert!(h.net_pins(n).contains(&v));
            }
        }
        for (n, _, pins) in h.nets() {
            for &v in pins {
                assert!(h.vertex_nets(v).contains(&n));
            }
        }
    }

    #[test]
    fn isolated_vertices_have_empty_net_lists() {
        let mut b = HypergraphBuilder::new(vec![1; 5]);
        b.add_net(1, [0, 4]);
        let h = b.build();
        for v in 1..4 {
            assert!(h.vertex_nets(v).is_empty());
            assert_eq!(h.degree(v), 0);
        }
        h.validate().unwrap();
    }
}
