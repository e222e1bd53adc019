//! The partitioner backends behind one engine seam.
//!
//! The paper's evaluation runs every [`Method`] on two multilevel engines
//! (Mondriaan's internal partitioner and PaToH). This module puts that
//! pair behind one trait: a [`PartitionBackend`] is a deterministic
//! bipartitioning engine — seeded by a plain `u64`, so results are a pure
//! function of (matrix, method, targets, seed) — and the registry maps
//! canonical lowercase names onto `&'static` instances, mirroring the
//! [`Method`] name codec ([`parse_backend`] ignores case and surrounding
//! whitespace).
//!
//! Two backends are registered: `mondriaan` and `patoh`, the multilevel
//! presets [`PartitionerConfig::mondriaan_like`] and
//! [`PartitionerConfig::patoh_like`]. Each honors the full hypergraph
//! model and the refine flag of the method it is given.

use crate::methods::{BipartitionResult, Method};
use mg_partitioner::{BisectionTargets, PartitionerConfig};
use mg_sparse::Coo;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic 2-way partitioning engine.
///
/// The contract every implementation must satisfy: the returned partition
/// assigns every nonzero of `a` to exactly one of two parts, and the
/// result is a **pure function** of `(a, method, targets, seed)` — no
/// global state, no thread-count dependence, no wall clock. That is what
/// lets sweeps and the service stay byte-deterministic whatever backend a
/// cell or request selects.
pub trait PartitionBackend: Send + Sync {
    /// Canonical lowercase registry name (`mondriaan`, `patoh`).
    fn name(&self) -> &'static str;

    /// One-line human description.
    fn description(&self) -> &'static str;

    /// Bipartitions `a` with explicit (possibly uneven) nonzero targets,
    /// the primitive recursive bisection builds on. `targets.target`
    /// should sum to `a.nnz()`; implementations must not panic on
    /// inconsistent targets, but may then miss both budgets.
    fn bipartition_with_targets(
        &self,
        a: &Coo,
        method: Method,
        targets: &BisectionTargets,
        seed: u64,
    ) -> BipartitionResult;

    /// Bipartitions `a` under the standard eqn (1) constraint with
    /// parameter `epsilon`.
    fn bipartition(&self, a: &Coo, method: Method, epsilon: f64, seed: u64) -> BipartitionResult {
        let targets = BisectionTargets::even(a.nnz() as u64, epsilon);
        self.bipartition_with_targets(a, method, &targets, seed)
    }
}

impl std::fmt::Debug for dyn PartitionBackend + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionBackend")
            .field("name", &self.name())
            .finish()
    }
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

static MONDRIAAN: MultilevelBackend = MultilevelBackend {
    name: "mondriaan",
    description: "multilevel FM, Mondriaan-like preset",
    config: PartitionerConfig::mondriaan_like,
};
static PATOH: MultilevelBackend = MultilevelBackend {
    name: "patoh",
    description: "multilevel FM, PaToH-like preset",
    config: PartitionerConfig::patoh_like,
};

/// Name of the backend used when none is requested (the paper's primary
/// engine).
pub const DEFAULT_BACKEND: &str = "mondriaan";

/// Every registered backend, in canonical registry order.
pub fn all_backends() -> [&'static dyn PartitionBackend; 2] {
    [&MONDRIAAN, &PATOH]
}

/// The canonical names of every registered backend, in registry order.
pub fn backend_names() -> [&'static str; 2] {
    [MONDRIAAN.name(), PATOH.name()]
}

/// Resolves a backend by name, ignoring case and surrounding whitespace;
/// the error message lists every valid name — the single lookup every layer
/// (CLI `--backend`, sweep configs, the service protocol) goes through.
pub fn parse_backend(raw: &str) -> Result<&'static dyn PartitionBackend, String> {
    let normalized = raw.trim().to_ascii_lowercase();
    all_backends()
        .into_iter()
        .find(|b| b.name() == normalized)
        .ok_or_else(|| {
            format!(
                "unknown backend {raw:?} (expected one of {})",
                backend_names().join(", ")
            )
        })
}

// --------------------------------------------------------------------------
// Multilevel backends (the two engine presets)
// --------------------------------------------------------------------------

/// A backend wrapping the multilevel hypergraph bipartitioner with one of
/// the [`PartitionerConfig`] presets.
struct MultilevelBackend {
    name: &'static str,
    description: &'static str,
    config: fn() -> PartitionerConfig,
}

impl PartitionBackend for MultilevelBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn bipartition_with_targets(
        &self,
        a: &Coo,
        method: Method,
        targets: &BisectionTargets,
        seed: u64,
    ) -> BipartitionResult {
        let config = (self.config)();
        let mut rng = StdRng::seed_from_u64(seed);
        method.bipartition_with_targets(a, targets, &config, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_sparse::{communication_volume, load_imbalance};

    #[test]
    fn registry_names_are_canonical_and_unique() {
        let names = backend_names();
        assert_eq!(names, ["mondriaan", "patoh"]);
        let mut seen = std::collections::HashSet::new();
        for (backend, name) in all_backends().iter().zip(names) {
            assert_eq!(backend.name(), name);
            assert!(seen.insert(name), "duplicate backend name {name}");
            // Canonical: lowercase, exactly what parse_backend
            // normalises to.
            assert_eq!(name, name.to_ascii_lowercase(), "{name} is not canonical");
        }
        assert!(seen.contains(DEFAULT_BACKEND));
        assert_eq!(
            parse_backend(DEFAULT_BACKEND).unwrap().name(),
            DEFAULT_BACKEND
        );
    }

    #[test]
    fn parse_backend_round_trips_and_normalises() {
        for backend in all_backends() {
            let name = backend.name();
            assert_eq!(parse_backend(name).unwrap().name(), name);
            assert_eq!(
                parse_backend(&name.to_ascii_uppercase()).unwrap().name(),
                name
            );
            assert_eq!(parse_backend(&format!(" {name} ")).unwrap().name(), name);
        }
        let err = parse_backend("hmetis").unwrap_err();
        assert!(
            err.ends_with("(expected one of mondriaan, patoh)"),
            "error lists names: {err}"
        );
        assert!(parse_backend("").is_err());
    }

    #[test]
    fn multilevel_backends_match_the_direct_method_call() {
        let a = mg_sparse::gen::laplacian_2d(12, 12);
        let method = Method::MediumGrain { refine: true };
        for (name, config) in [
            ("mondriaan", PartitionerConfig::mondriaan_like()),
            ("patoh", PartitionerConfig::patoh_like()),
        ] {
            let via_backend = parse_backend(name)
                .unwrap()
                .bipartition(&a, method, 0.03, 42);
            let mut rng = StdRng::seed_from_u64(42);
            let direct = method.bipartition(&a, 0.03, &config, &mut rng);
            assert_eq!(via_backend.volume, direct.volume, "{name}");
            assert_eq!(
                via_backend.partition.parts(),
                direct.partition.parts(),
                "{name}"
            );
        }
    }

    #[test]
    fn every_backend_partitions_a_laplacian_validly() {
        let a = mg_sparse::gen::laplacian_2d(12, 12);
        for backend in all_backends() {
            for method in [
                Method::MediumGrain { refine: false },
                Method::MediumGrain { refine: true },
            ] {
                let r = backend.bipartition(&a, method, 0.03, 7);
                r.partition
                    .check_against(&a)
                    .unwrap_or_else(|e| panic!("{}: invalid partition: {e:?}", backend.name()));
                assert_eq!(
                    r.volume,
                    communication_volume(&a, &r.partition),
                    "{} reported a stale volume",
                    backend.name()
                );
                assert!(
                    load_imbalance(&r.partition) <= 0.03 + 1e-9,
                    "{} violated balance: {}",
                    backend.name(),
                    load_imbalance(&r.partition)
                );
            }
        }
    }

    #[test]
    fn every_backend_is_deterministic_in_its_seed() {
        let a = mg_sparse::gen::laplacian_2d(10, 14);
        for backend in all_backends() {
            let m = Method::MediumGrain { refine: false };
            let x = backend.bipartition(&a, m, 0.03, 99);
            let y = backend.bipartition(&a, m, 0.03, 99);
            assert_eq!(
                x.partition.parts(),
                y.partition.parts(),
                "{} is not a pure function of its seed",
                backend.name()
            );
        }
    }

    #[test]
    fn refine_flag_never_hurts_any_backend() {
        let a = mg_sparse::gen::laplacian_2d(16, 8);
        for backend in all_backends() {
            let plain = backend.bipartition(&a, Method::MediumGrain { refine: false }, 0.03, 5);
            let refined = backend.bipartition(&a, Method::MediumGrain { refine: true }, 0.03, 5);
            assert!(
                refined.volume <= plain.volume,
                "{}: IR worsened {} -> {}",
                backend.name(),
                plain.volume,
                refined.volume
            );
        }
    }

    #[test]
    fn backends_handle_empty_and_singleton_matrices() {
        let empty = Coo::empty(4, 4);
        let single = Coo::new(3, 3, vec![(1, 2)]).unwrap();
        for backend in all_backends() {
            for method in [
                Method::MediumGrain { refine: false },
                Method::MediumGrain { refine: true },
            ] {
                let r = backend.bipartition(&empty, method, 0.03, 1);
                assert_eq!(r.volume, 0, "{}", backend.name());
                assert_eq!(r.partition.parts().len(), 0, "{}", backend.name());
                let r = backend.bipartition(&single, method, 0.03, 1);
                assert_eq!(r.volume, 0, "{}", backend.name());
                r.partition.check_against(&single).unwrap();
            }
        }
    }

    #[test]
    fn inconsistent_targets_do_not_panic_any_backend() {
        // targets summing to less than nnz violate the documented
        // contract; backends must still return a valid partition.
        let a = mg_sparse::gen::laplacian_2d(6, 6);
        let bad = BisectionTargets {
            target: [2, 2],
            epsilon: 0.0,
        };
        for backend in all_backends() {
            let r = backend.bipartition_with_targets(
                &a,
                Method::MediumGrain { refine: false },
                &bad,
                1,
            );
            r.partition
                .check_against(&a)
                .unwrap_or_else(|e| panic!("{}: {e:?}", backend.name()));
        }
    }
}
