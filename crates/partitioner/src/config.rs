//! Partitioner configuration and the two engine presets.

/// How the coarsening phase groups vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarseningScheme {
    /// Greedy pairwise matching by heaviest net connectivity, visiting
    /// vertices in random order — the scheme of Mondriaan's internal
    /// partitioner.
    HeavyConnectivityMatching,
    /// Agglomerative (absorption) clustering: a vertex may join an already
    /// formed cluster, giving a faster size reduction with slightly less
    /// even cluster weights — the flavour of PaToH's HCC scheme.
    Agglomerative,
}

/// Tuning knobs of the multilevel bipartitioner.
///
/// The two presets correspond to the two hypergraph partitioners the paper
/// evaluates with; every field takes a different value in each.
#[derive(Debug, Clone)]
pub struct PartitionerConfig {
    /// Coarsening stops once the hypergraph has at most this many vertices.
    pub coarsest_vertices: u32,
    /// Coarsening also stops when a level shrinks the vertex count by less
    /// than this fraction (stall detection).
    pub min_reduction: f64,
    /// Scheme used to group vertices during coarsening.
    pub coarsening: CoarseningScheme,
    /// Nets larger than this are ignored when scoring connectivity (they
    /// carry almost no signal and dominate the runtime on skewed inputs).
    pub max_scored_net_size: u32,
    /// No cluster may exceed this fraction of the total vertex weight.
    pub max_cluster_weight_fraction: f64,
    /// Number of initial-partition candidates generated at the coarsest
    /// level (each is FM-polished; the best is kept).
    pub initial_candidates: u32,
    /// Maximum FM passes per refinement invocation.
    pub fm_max_passes: u32,
    /// An FM pass aborts after this many consecutive non-improving tentative
    /// moves (0 disables early abort). Bounds worst-case pass time on large
    /// skewed inputs at a negligible quality cost.
    pub fm_stall_limit: u32,
    /// Boundary-only FM (PaToH-style lazy gain buckets); see
    /// [`crate::fm::FmLimits::boundary_only`].
    pub boundary_fm: bool,
}

impl PartitionerConfig {
    /// Preset standing in for Mondriaan's internal hypergraph partitioner:
    /// pairwise heavy-connectivity matching, a moderately coarse stop, a
    /// handful of initial candidates.
    pub fn mondriaan_like() -> Self {
        PartitionerConfig {
            coarsest_vertices: 200,
            min_reduction: 0.05,
            coarsening: CoarseningScheme::HeavyConnectivityMatching,
            max_scored_net_size: 256,
            max_cluster_weight_fraction: 0.2,
            initial_candidates: 8,
            fm_max_passes: 8,
            fm_stall_limit: 2000,
            boundary_fm: false,
        }
    }

    /// Preset standing in for PaToH: agglomerative clustering (faster
    /// coarsening), more initial candidates, slightly deeper refinement —
    /// a second engine of genuinely different character, which is all the
    /// paper's Fig 6/Table II need (see DESIGN.md §5).
    pub fn patoh_like() -> Self {
        PartitionerConfig {
            coarsest_vertices: 120,
            min_reduction: 0.03,
            coarsening: CoarseningScheme::Agglomerative,
            max_scored_net_size: 512,
            max_cluster_weight_fraction: 0.15,
            initial_candidates: 12,
            fm_max_passes: 10,
            fm_stall_limit: 3000,
            boundary_fm: true,
        }
    }
}

impl Default for PartitionerConfig {
    fn default() -> Self {
        Self::mondriaan_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_scheme() {
        let m = PartitionerConfig::mondriaan_like();
        let p = PartitionerConfig::patoh_like();
        assert_eq!(m.coarsening, CoarseningScheme::HeavyConnectivityMatching);
        assert_eq!(p.coarsening, CoarseningScheme::Agglomerative);
        assert!(p.initial_candidates > m.initial_candidates);
    }

    #[test]
    fn default_is_mondriaan_like() {
        let d = PartitionerConfig::default();
        assert_eq!(d.coarsest_vertices, 200);
    }
}
