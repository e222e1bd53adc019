//! One enum for every bipartitioning method the paper compares.
//!
//! §IV evaluates six configurations: localbest (LB), fine-grain (FG) and
//! medium-grain (MG), each with and without iterative refinement (IR). The
//! row-net and column-net models are also exposed individually (LB is their
//! best-of-two).

use crate::baselines::{localbest_bipartition, model_bipartition};
use crate::medium_grain::medium_grain_bipartition_with_targets;
use crate::refine::iterative_refinement_with_budgets;
use mg_hypergraph::ModelKind;
use mg_partitioner::{BisectionTargets, PartitionerConfig};
use mg_sparse::{communication_volume, Coo, NonzeroPartition};
use rand::Rng;

/// Outcome of a bipartitioning method on a matrix.
#[derive(Debug, Clone)]
pub struct BipartitionResult {
    /// The 2-way nonzero partition.
    pub partition: NonzeroPartition,
    /// Its communication volume (eqn (3)).
    pub volume: u64,
    /// Iterations of Algorithm 2 performed (0 without IR).
    pub ir_iterations: u32,
}

impl BipartitionResult {
    pub(crate) fn from_partition(a: &Coo, partition: NonzeroPartition) -> Self {
        let volume_timer = mg_obs::phase("volume_count");
        let volume = communication_volume(a, &partition);
        drop(volume_timer);
        BipartitionResult {
            partition,
            volume,
            ir_iterations: 0,
        }
    }
}

/// A sparse matrix bipartitioning method of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// 1D row-net model (column partitioning).
    RowNet {
        /// Apply Algorithm 2 afterwards.
        refine: bool,
    },
    /// 1D column-net model (row partitioning).
    ColumnNet {
        /// Apply Algorithm 2 afterwards.
        refine: bool,
    },
    /// Best of row-net and column-net — Mondriaan ≤ 3.11's default.
    LocalBest {
        /// Apply Algorithm 2 afterwards.
        refine: bool,
    },
    /// 2D fine-grain model (one vertex per nonzero).
    FineGrain {
        /// Apply Algorithm 2 afterwards.
        refine: bool,
    },
    /// The paper's 2D medium-grain method — Mondriaan 4.0's default.
    MediumGrain {
        /// Apply Algorithm 2 afterwards.
        refine: bool,
    },
}

impl Method {
    /// Every refine×model configuration, in label order: RN, RN+IR, CN,
    /// CN+IR, LB, LB+IR, FG, FG+IR, MG, MG+IR. This is the exhaustive
    /// domain of the name codec ([`Method::name`] / [`Method::parse_name`]).
    pub fn all() -> [Method; 10] {
        [
            Method::RowNet { refine: false },
            Method::RowNet { refine: true },
            Method::ColumnNet { refine: false },
            Method::ColumnNet { refine: true },
            Method::LocalBest { refine: false },
            Method::LocalBest { refine: true },
            Method::FineGrain { refine: false },
            Method::FineGrain { refine: true },
            Method::MediumGrain { refine: false },
            Method::MediumGrain { refine: true },
        ]
    }

    /// The six configurations of Fig 4/5/6 and Tables I/II, in the paper's
    /// column order: LB, LB+IR, MG, MG+IR, FG, FG+IR.
    pub fn paper_set() -> [Method; 6] {
        [
            Method::LocalBest { refine: false },
            Method::LocalBest { refine: true },
            Method::MediumGrain { refine: false },
            Method::MediumGrain { refine: true },
            Method::FineGrain { refine: false },
            Method::FineGrain { refine: true },
        ]
    }

    /// The paper's abbreviation for this configuration.
    pub fn label(&self) -> &'static str {
        match self {
            Method::RowNet { refine: false } => "RN",
            Method::RowNet { refine: true } => "RN+IR",
            Method::ColumnNet { refine: false } => "CN",
            Method::ColumnNet { refine: true } => "CN+IR",
            Method::LocalBest { refine: false } => "LB",
            Method::LocalBest { refine: true } => "LB+IR",
            Method::FineGrain { refine: false } => "FG",
            Method::FineGrain { refine: true } => "FG+IR",
            Method::MediumGrain { refine: false } => "MG",
            Method::MediumGrain { refine: true } => "MG+IR",
        }
    }

    /// The canonical lowercase name of this configuration, as accepted by
    /// CLI `-m` lists and the service protocol: `rn`, `rn-ir`, `cn`,
    /// `cn-ir`, `lb`, `lb-ir`, `fg`, `fg-ir`, `mg`, `mg-ir`.
    pub fn name(&self) -> &'static str {
        match self {
            Method::RowNet { refine: false } => "rn",
            Method::RowNet { refine: true } => "rn-ir",
            Method::ColumnNet { refine: false } => "cn",
            Method::ColumnNet { refine: true } => "cn-ir",
            Method::LocalBest { refine: false } => "lb",
            Method::LocalBest { refine: true } => "lb-ir",
            Method::FineGrain { refine: false } => "fg",
            Method::FineGrain { refine: true } => "fg-ir",
            Method::MediumGrain { refine: false } => "mg",
            Method::MediumGrain { refine: true } => "mg-ir",
        }
    }

    /// Parses a method from either the canonical lowercase name
    /// ([`Method::name`], e.g. `mg-ir`) or the paper abbreviation
    /// ([`Method::label`], e.g. `MG+IR`), case-insensitively. The single
    /// codec every layer (CLI args, sweep records, service protocol) goes
    /// through, so the spellings can never drift apart.
    pub fn parse_name(raw: &str) -> Result<Method, String> {
        let normalized: String = raw
            .trim()
            .chars()
            .map(|c| match c {
                '+' | '_' => '-',
                c => c.to_ascii_lowercase(),
            })
            .collect();
        Method::all()
            .into_iter()
            .find(|m| m.name() == normalized)
            .ok_or_else(|| {
                let names: Vec<&str> = Method::all().iter().map(|m| m.name()).collect();
                format!(
                    "unknown method {raw:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }

    /// Whether iterative refinement is enabled.
    pub fn refines(&self) -> bool {
        match *self {
            Method::RowNet { refine }
            | Method::ColumnNet { refine }
            | Method::LocalBest { refine }
            | Method::FineGrain { refine }
            | Method::MediumGrain { refine } => refine,
        }
    }

    /// Bipartitions `a` under the load-imbalance constraint of eqn (1)
    /// with parameter `epsilon` (the paper uses ε = 0.03 throughout).
    pub fn bipartition<R: Rng>(
        &self,
        a: &Coo,
        epsilon: f64,
        config: &PartitionerConfig,
        rng: &mut R,
    ) -> BipartitionResult {
        let targets = BisectionTargets::even(a.nnz() as u64, epsilon);
        self.bipartition_with_targets(a, &targets, config, rng)
    }

    /// Bipartitions with explicit (possibly uneven) nonzero targets, the
    /// primitive recursive bisection builds on.
    pub fn bipartition_with_targets<R: Rng>(
        &self,
        a: &Coo,
        targets: &BisectionTargets,
        config: &PartitionerConfig,
        rng: &mut R,
    ) -> BipartitionResult {
        let mut result = match *self {
            Method::RowNet { .. } => model_bipartition(a, ModelKind::RowNet, targets, config, rng),
            Method::ColumnNet { .. } => {
                model_bipartition(a, ModelKind::ColumnNet, targets, config, rng)
            }
            Method::LocalBest { .. } => localbest_bipartition(a, targets, config, rng),
            Method::FineGrain { .. } => {
                model_bipartition(a, ModelKind::FineGrain, targets, config, rng)
            }
            Method::MediumGrain { .. } => {
                medium_grain_bipartition_with_targets(a, targets, config, rng)
            }
        };
        if self.refines() {
            let budgets = targets.budgets();
            let refined = iterative_refinement_with_budgets(a, &result.partition, budgets);
            // Monotone whenever the input was feasible; from an infeasible
            // start (an atomic row/column group heavier than the budget)
            // the FM inside IR repairs balance first, possibly at a volume
            // cost — the desired behaviour.
            debug_assert!(
                refined.volume <= result.volume
                    || result
                        .partition
                        .part_sizes()
                        .iter()
                        .zip(budgets.iter())
                        .any(|(&s, &b)| s > b)
            );
            result = BipartitionResult {
                partition: refined.partition,
                volume: refined.volume,
                ir_iterations: refined.iterations,
            };
        }
        result
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_sparse::load_imbalance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_set_labels() {
        let labels: Vec<&str> = Method::paper_set().iter().map(|m| m.label()).collect();
        assert_eq!(labels, vec!["LB", "LB+IR", "MG", "MG+IR", "FG", "FG+IR"]);
    }

    #[test]
    fn name_codec_round_trips_all_ten_configurations() {
        let all = Method::all();
        assert_eq!(all.len(), 10);
        let mut seen = std::collections::HashSet::new();
        for method in all {
            // name → method.
            assert_eq!(Method::parse_name(method.name()).unwrap(), method);
            // Display (= paper label) → method.
            assert_eq!(Method::parse_name(&method.to_string()).unwrap(), method);
            assert_eq!(Method::parse_name(method.label()).unwrap(), method);
            // Case- and separator-insensitive.
            assert_eq!(
                Method::parse_name(&method.name().to_ascii_uppercase()).unwrap(),
                method
            );
            assert_eq!(
                Method::parse_name(&method.name().replace('-', "_")).unwrap(),
                method
            );
            assert!(seen.insert(method.name()), "duplicate name");
            assert!(seen.insert(method.label()), "name/label collision");
        }
    }

    #[test]
    fn parse_name_rejects_unknown_spellings() {
        for bad in ["", "medium", "mg+", "mgir", "mg ir", "ir-mg"] {
            let err = Method::parse_name(bad).unwrap_err();
            assert!(
                err.contains("mg-ir"),
                "error should list valid names: {err}"
            );
        }
    }

    #[test]
    fn every_method_partitions_a_laplacian_within_budget() {
        let a = mg_sparse::gen::laplacian_2d(12, 12);
        let cfg = PartitionerConfig::mondriaan_like();
        for method in [
            Method::RowNet { refine: false },
            Method::ColumnNet { refine: false },
            Method::LocalBest { refine: false },
            Method::FineGrain { refine: false },
            Method::MediumGrain { refine: false },
            Method::MediumGrain { refine: true },
        ] {
            let mut rng = StdRng::seed_from_u64(7);
            let result = method.bipartition(&a, 0.03, &cfg, &mut rng);
            result.partition.check_against(&a).unwrap();
            assert!(
                load_imbalance(&result.partition) <= 0.03 + 1e-9,
                "{method} violated balance: {}",
                load_imbalance(&result.partition)
            );
            assert_eq!(
                result.volume,
                communication_volume(&a, &result.partition),
                "{method} reported a stale volume"
            );
            assert!(
                result.volume > 0,
                "{method}: a connected Laplacian must cut"
            );
        }
    }

    #[test]
    fn refinement_never_hurts() {
        let a = mg_sparse::gen::laplacian_2d(16, 8);
        let cfg = PartitionerConfig::mondriaan_like();
        for (plain, refined) in [
            (
                Method::LocalBest { refine: false },
                Method::LocalBest { refine: true },
            ),
            (
                Method::FineGrain { refine: false },
                Method::FineGrain { refine: true },
            ),
            (
                Method::MediumGrain { refine: false },
                Method::MediumGrain { refine: true },
            ),
        ] {
            let a_res = plain.bipartition(&a, 0.03, &cfg, &mut StdRng::seed_from_u64(3));
            let b_res = refined.bipartition(&a, 0.03, &cfg, &mut StdRng::seed_from_u64(3));
            assert!(
                b_res.volume <= a_res.volume,
                "{refined}: {} > {}",
                b_res.volume,
                a_res.volume
            );
        }
    }

    #[test]
    fn empty_matrix_is_fine() {
        let a = Coo::empty(5, 5);
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(1);
        let r = Method::MediumGrain { refine: true }.bipartition(&a, 0.03, &cfg, &mut rng);
        assert_eq!(r.volume, 0);
        assert_eq!(r.partition.parts().len(), 0);
    }

    #[test]
    fn single_nonzero_matrix() {
        let a = Coo::new(3, 3, vec![(1, 1)]).unwrap();
        let cfg = PartitionerConfig::mondriaan_like();
        for method in Method::paper_set() {
            let mut rng = StdRng::seed_from_u64(2);
            let r = method.bipartition(&a, 0.03, &cfg, &mut rng);
            assert_eq!(r.volume, 0, "{method}");
        }
    }
}
