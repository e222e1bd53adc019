//! Vertex grouping for coarsening: heavy-connectivity matching and
//! agglomerative clustering.
//!
//! Both schemes produce a *clustering*: a map `vertex → cluster id` with
//! cluster ids contiguous in `0..num_clusters`. Pairwise matching is the
//! special case where clusters have at most two members.

use crate::config::{CoarseningScheme, PartitionerConfig};
use crate::Idx;
use mg_hypergraph::Hypergraph;
use rand::seq::SliceRandom;
use rand::Rng;

/// A clustering of the vertices of a hypergraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// `cluster[v]` is the cluster id of vertex `v`, in `0..num_clusters`.
    pub cluster: Vec<Idx>,
    /// Number of clusters.
    pub num_clusters: Idx,
}

impl Clustering {
    /// Checks contiguity of cluster ids; for tests.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.num_clusters as usize];
        for &c in &self.cluster {
            if c >= self.num_clusters {
                return Err(format!("cluster id {c} out of range"));
            }
            seen[c as usize] = true;
        }
        if !seen.iter().all(|&s| s) {
            return Err("cluster ids are not contiguous".into());
        }
        Ok(())
    }
}

/// Scratch buffers for connectivity scoring, reused across vertices.
struct Scorer {
    score: Vec<u64>,
    touched: Vec<Idx>,
}

impl Scorer {
    fn new(n: usize) -> Self {
        Scorer {
            score: vec![0; n],
            touched: Vec::new(),
        }
    }

    #[inline]
    fn bump(&mut self, target: Idx, amount: u64) {
        if self.score[target as usize] == 0 {
            self.touched.push(target);
        }
        self.score[target as usize] += amount;
    }

    fn reset(&mut self) {
        for &t in &self.touched {
            self.score[t as usize] = 0;
        }
        self.touched.clear();
    }
}

/// Groups vertices for one coarsening level according to the configured
/// scheme. Never produces a cluster heavier than
/// `config.max_cluster_weight_fraction · total_weight` (subject to single
/// vertices already exceeding it, which stay singletons).
pub fn cluster_vertices<R: Rng>(
    h: &Hypergraph,
    config: &PartitionerConfig,
    rng: &mut R,
) -> Clustering {
    match config.coarsening {
        CoarseningScheme::HeavyConnectivityMatching => heavy_matching(h, config, rng),
        CoarseningScheme::Agglomerative => agglomerative(h, config, rng),
    }
}

/// Greedy pairwise matching: visit vertices in random order; match each
/// unmatched vertex with the unmatched neighbour sharing the largest total
/// net weight (net sizes above `max_scored_net_size` skipped; each net's
/// contribution is scaled by `1/(|n|−1)` so huge nets do not drown local
/// structure).
fn heavy_matching<R: Rng>(h: &Hypergraph, config: &PartitionerConfig, rng: &mut R) -> Clustering {
    let n = h.num_vertices() as usize;
    let max_cluster_weight = cluster_weight_cap(h, config);
    let mut order: Vec<Idx> = (0..n as Idx).collect();
    order.shuffle(rng);
    let mut mate = vec![Idx::MAX; n];
    let mut scorer = Scorer::new(n);

    for &v in &order {
        if mate[v as usize] != Idx::MAX {
            continue;
        }
        let wv = h.vertex_weight(v);
        for &net in h.vertex_nets(v) {
            let size = h.net_size(net);
            if size < 2 || size > config.max_scored_net_size {
                continue;
            }
            // Scale so a 2-pin net counts as much as its full weight.
            let contribution = (h.net_weight(net) * 1024) / (size as u64 - 1);
            for &u in h.net_pins(net) {
                if u != v && mate[u as usize] == Idx::MAX {
                    scorer.bump(u, contribution.max(1));
                }
            }
        }
        let mut best: Option<(u64, Idx)> = None;
        for &u in &scorer.touched {
            if h.vertex_weight(u) + wv > max_cluster_weight {
                continue;
            }
            let s = scorer.score[u as usize];
            if best.is_none_or(|(bs, bu)| s > bs || (s == bs && u < bu)) {
                best = Some((s, u));
            }
        }
        if let Some((_, u)) = best {
            mate[v as usize] = u;
            mate[u as usize] = v;
        }
        scorer.reset();
    }

    // Compact mates into contiguous cluster ids.
    let mut cluster = vec![Idx::MAX; n];
    let mut next = 0 as Idx;
    for v in 0..n {
        if cluster[v] != Idx::MAX {
            continue;
        }
        cluster[v] = next;
        let m = mate[v];
        if m != Idx::MAX {
            cluster[m as usize] = next;
        }
        next += 1;
    }
    Clustering {
        cluster,
        num_clusters: next,
    }
}

/// Agglomerative (absorption) clustering: visiting vertices in random
/// order, each unassigned vertex joins the cluster with the strongest
/// connectivity among its neighbours (matched or not), subject to the
/// cluster weight cap; otherwise it seeds a new cluster.
fn agglomerative<R: Rng>(h: &Hypergraph, config: &PartitionerConfig, rng: &mut R) -> Clustering {
    let n = h.num_vertices() as usize;
    let max_cluster_weight = cluster_weight_cap(h, config);
    let mut order: Vec<Idx> = (0..n as Idx).collect();
    order.shuffle(rng);
    let mut cluster = vec![Idx::MAX; n];
    let mut cluster_weight: Vec<u64> = Vec::new();
    let mut scorer = Scorer::new(n);

    for &v in &order {
        if cluster[v as usize] != Idx::MAX {
            continue;
        }
        let wv = h.vertex_weight(v);
        // Score *clusters* through neighbouring vertices.
        for &net in h.vertex_nets(v) {
            let size = h.net_size(net);
            if size < 2 || size > config.max_scored_net_size {
                continue;
            }
            let contribution = (h.net_weight(net) * 1024) / (size as u64 - 1);
            for &u in h.net_pins(net) {
                if u != v {
                    scorer.bump(u, contribution.max(1));
                }
            }
        }
        // Aggregate neighbour scores per target cluster (or singleton
        // neighbour), pick the best feasible.
        let mut best: Option<(u64, Idx)> = None; // (score, neighbour vertex)
        for &u in &scorer.touched {
            let target_weight = match cluster[u as usize] {
                Idx::MAX => h.vertex_weight(u),
                c => cluster_weight[c as usize],
            };
            if target_weight + wv > max_cluster_weight {
                continue;
            }
            let s = scorer.score[u as usize];
            if best.is_none_or(|(bs, bu)| s > bs || (s == bs && u < bu)) {
                best = Some((s, u));
            }
        }
        match best {
            Some((_, u)) => {
                let c = match cluster[u as usize] {
                    Idx::MAX => {
                        let c = cluster_weight.len() as Idx;
                        cluster_weight.push(h.vertex_weight(u));
                        cluster[u as usize] = c;
                        c
                    }
                    c => c,
                };
                cluster[v as usize] = c;
                cluster_weight[c as usize] += wv;
            }
            None => {
                let c = cluster_weight.len() as Idx;
                cluster_weight.push(wv);
                cluster[v as usize] = c;
            }
        }
        scorer.reset();
    }
    Clustering {
        cluster,
        num_clusters: cluster_weight.len() as Idx,
    }
}

fn cluster_weight_cap(h: &Hypergraph, config: &PartitionerConfig) -> u64 {
    let total = h.total_vertex_weight();
    ((total as f64 * config.max_cluster_weight_fraction).ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_hypergraph::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new(vec![1; n]);
        for v in 0..n - 1 {
            b.add_net(1, [v as Idx, v as Idx + 1]);
        }
        b.build()
    }

    #[test]
    fn matching_pairs_neighbours() {
        let h = chain(10);
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(1);
        let c = heavy_matching(&h, &cfg, &mut rng);
        c.validate().unwrap();
        assert!(c.num_clusters < 10, "no contraction happened");
        // Matched vertices must be hypergraph neighbours (chain: adjacent).
        for v in 0..10u32 {
            for u in 0..10u32 {
                if v != u && c.cluster[v as usize] == c.cluster[u as usize] {
                    assert_eq!((v as i64 - u as i64).abs(), 1, "{v} vs {u}");
                }
            }
        }
    }

    #[test]
    fn matching_clusters_have_at_most_two_members() {
        let h = chain(20);
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(2);
        let c = heavy_matching(&h, &cfg, &mut rng);
        let mut sizes = vec![0; c.num_clusters as usize];
        for &cl in &c.cluster {
            sizes[cl as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s <= 2));
    }

    #[test]
    fn agglomerative_reduces_more() {
        let h = chain(40);
        let mut cfg = PartitionerConfig::patoh_like();
        cfg.max_cluster_weight_fraction = 0.5;
        let mut rng = StdRng::seed_from_u64(3);
        let c = agglomerative(&h, &cfg, &mut rng);
        c.validate().unwrap();
        assert!(c.num_clusters < 25, "agglomerative barely contracted");
    }

    #[test]
    fn weight_cap_respected() {
        // Star: center heavy, leaves light; tight cap forbids big clusters.
        let mut b = HypergraphBuilder::new(vec![10, 1, 1, 1, 1]);
        for leaf in 1..5 {
            b.add_net(1, [0, leaf as Idx]);
        }
        let h = b.build();
        let mut cfg = PartitionerConfig::patoh_like();
        cfg.max_cluster_weight_fraction = 0.2; // cap ≈ 3: center can't merge
        let mut rng = StdRng::seed_from_u64(4);
        for scheme in [
            CoarseningScheme::HeavyConnectivityMatching,
            CoarseningScheme::Agglomerative,
        ] {
            cfg.coarsening = scheme;
            let c = cluster_vertices(&h, &cfg, &mut rng);
            c.validate().unwrap();
            let mut weights = vec![0u64; c.num_clusters as usize];
            for v in 0..5u32 {
                weights[c.cluster[v as usize] as usize] += h.vertex_weight(v);
            }
            assert!(
                weights.iter().all(|&w| w <= 10),
                "scheme {scheme:?} built an overweight cluster: {weights:?}"
            );
        }
    }

    #[test]
    fn isolated_vertices_stay_singletons() {
        let mut b = HypergraphBuilder::new(vec![1; 4]);
        b.add_net(1, [0, 1]);
        let h = b.build(); // vertices 2, 3 isolated
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(6);
        let c = heavy_matching(&h, &cfg, &mut rng);
        assert_ne!(c.cluster[2], c.cluster[3]);
        assert_ne!(c.cluster[2], c.cluster[0]);
    }
}
