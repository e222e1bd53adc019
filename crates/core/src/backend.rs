//! Pluggable partitioner backends behind one engine seam.
//!
//! The paper's evaluation runs every [`Method`] on two multilevel engines
//! (Mondriaan's internal partitioner and PaToH). This module turns that
//! hard-coded pair into an extensible registry: a [`PartitionBackend`] is
//! any deterministic bipartitioning engine — seeded by a plain `u64`, so
//! results are a pure function of (matrix, method, targets, seed) — and
//! the registry maps canonical lowercase names onto `&'static` instances,
//! mirroring the [`Method`] name codec ([`parse_backend`] accepts the
//! same spelling liberties as [`Method::parse_name`]).
//!
//! Four backends are registered:
//!
//! * `mondriaan` / `patoh` — the existing multilevel presets
//!   ([`PartitionerConfig::preset`]), which honor the full hypergraph
//!   model of the method they are given;
//! * `coarse-grain` — a direct 1D baseline that keeps whole rows (or
//!   whole columns, whichever direction cuts less) atomic, in the spirit
//!   of Mondriaan's coarse-grain scheme: LPT-greedy assignment plus a
//!   balance repair pass, no multilevel machinery at all;
//! * `geometric` — recursive-coordinate-bisection in the style of
//!   Fagginger Auer & Bisseling's many-core partitioner (arXiv:1105.4490):
//!   nonzeros are points `(i, j)`, split by a single coordinate cut along
//!   the axis with the larger spread, snapped to a grid line when the
//!   balance budget allows.
//!
//! The non-multilevel backends interpret only the method's refine flag
//! (Algorithm 2 applies to *any* bipartitioning); their
//! [`BackendCapabilities::honors_model`] is `false`.

use crate::methods::{BipartitionResult, Method};
use crate::refine::{iterative_refinement_with_budgets, RefineOptions};
use mg_partitioner::{BisectionTargets, PartitionerConfig};
use mg_sparse::{Coo, Idx, NonzeroPartition};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The atomic unit a backend moves between parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Individual nonzeros (2D methods).
    Nonzero,
    /// Whole rows or whole columns (1D methods); balance is only
    /// achievable down to the heaviest row/column.
    RowOrColumn,
}

/// What a backend can and cannot do — consulted by callers that pick a
/// backend per request (the service) or per instance (the sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendCapabilities {
    /// Interprets the hypergraph model of the [`Method`] it is given
    /// (rn/cn/lb/fg/mg). Backends with `false` run their own algorithm
    /// and honor only the method's refine flag.
    pub honors_model: bool,
    /// Results vary with the seed. Seed-invariant backends still satisfy
    /// the determinism contract trivially.
    pub seed_sensitive: bool,
    /// Relies on the nonzero coordinates as geometry (requires an
    /// inferable embedding; for matrices, `(row, col)` always is one).
    pub uses_geometry: bool,
    /// Smallest unit assigned atomically.
    pub granularity: Granularity,
}

/// A deterministic 2-way partitioning engine.
///
/// The contract every implementation must satisfy: the returned partition
/// assigns every nonzero of `a` to exactly one of two parts, and the
/// result is a **pure function** of `(a, method, targets, seed)` — no
/// global state, no thread-count dependence, no wall clock. That is what
/// lets sweeps and the service stay byte-deterministic whatever backend a
/// cell or request selects.
pub trait PartitionBackend: Send + Sync {
    /// Canonical lowercase registry name (`mondriaan`, `coarse-grain`, …).
    fn name(&self) -> &'static str;

    /// One-line human description.
    fn description(&self) -> &'static str;

    /// What this backend can do.
    fn capabilities(&self) -> BackendCapabilities;

    /// The multilevel engine preset backing this backend, if it is one —
    /// the seam recursive bisection and ablation benches use to reach the
    /// underlying [`PartitionerConfig`].
    fn engine_config(&self) -> Option<PartitionerConfig> {
        None
    }

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
    preset: "mondriaan",
};
static PATOH: MultilevelBackend = MultilevelBackend { preset: "patoh" };
static COARSE_GRAIN: CoarseGrainBackend = CoarseGrainBackend;
static GEOMETRIC: GeometricBackend = GeometricBackend;

/// Name of the backend used when none is requested (the paper's primary
/// engine).
pub const DEFAULT_BACKEND: &str = "mondriaan";

/// Every registered backend, in canonical registry order.
pub fn all_backends() -> [&'static dyn PartitionBackend; 4] {
    [&MONDRIAAN, &PATOH, &COARSE_GRAIN, &GEOMETRIC]
}

/// The canonical names of every registered backend, in registry order.
pub fn backend_names() -> [&'static str; 4] {
    [
        MONDRIAAN.name(),
        PATOH.name(),
        COARSE_GRAIN.name(),
        GEOMETRIC.name(),
    ]
}

/// Resolves a backend by name. Accepts the same spelling liberties as the
/// [`Method`] codec (case-insensitive; `+`/`_` normalise to `-`), and the
/// error message lists every valid name — the single lookup every layer
/// (CLI `--backend`, sweep configs, the service protocol) goes through.
pub fn parse_backend(raw: &str) -> Result<&'static dyn PartitionBackend, String> {
    let normalized: String = raw
        .trim()
        .chars()
        .map(|c| match c {
            '+' | '_' => '-',
            c => c.to_ascii_lowercase(),
        })
        .collect();
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
// Multilevel backends (the two original engine presets)
// --------------------------------------------------------------------------

/// A backend wrapping the multilevel hypergraph bipartitioner with one of
/// the named [`PartitionerConfig`] presets.
struct MultilevelBackend {
    preset: &'static str,
}

impl PartitionBackend for MultilevelBackend {
    fn name(&self) -> &'static str {
        self.preset
    }

    fn description(&self) -> &'static str {
        match self.preset {
            "mondriaan" => "multilevel FM, Mondriaan-like preset",
            _ => "multilevel FM, PaToH-like preset",
        }
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities {
            honors_model: true,
            seed_sensitive: true,
            uses_geometry: false,
            granularity: Granularity::Nonzero,
        }
    }

    fn engine_config(&self) -> Option<PartitionerConfig> {
        PartitionerConfig::preset(self.preset)
    }

    fn bipartition_with_targets(
        &self,
        a: &Coo,
        method: Method,
        targets: &BisectionTargets,
        seed: u64,
    ) -> BipartitionResult {
        let config = self.engine_config().expect("registered preset");
        let mut rng = StdRng::seed_from_u64(seed);
        method.bipartition_with_targets(a, targets, &config, &mut rng)
    }
}

// --------------------------------------------------------------------------
// Shared helpers for the direct (non-multilevel) backends
// --------------------------------------------------------------------------

/// SplitMix64 finaliser (tie-break hashing and derived-seed mixing; also
/// used by [`crate::recursive`] for per-node backend seeds).
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn empty_result(a: &Coo) -> BipartitionResult {
    BipartitionResult::from_partition(
        a,
        NonzeroPartition::new(2, Vec::new()).expect("empty partition"),
    )
}

/// Applies Algorithm 2 when the method asks for it — the half of
/// [`Method`] every backend honors, since iterative refinement applies to
/// the output of *any* bipartitioning.
fn maybe_refine(
    a: &Coo,
    result: BipartitionResult,
    method: Method,
    targets: &BisectionTargets,
) -> BipartitionResult {
    if !method.refines() {
        return result;
    }
    let refined = iterative_refinement_with_budgets(
        a,
        &result.partition,
        targets.budgets(),
        &RefineOptions::default(),
    );
    BipartitionResult {
        partition: refined.partition,
        volume: refined.volume,
        ir_iterations: refined.iterations,
    }
}

// --------------------------------------------------------------------------
// coarse-grain: direct 1D row/column baseline
// --------------------------------------------------------------------------

/// The 1D coarse-grain baseline: whole rows (or whole columns) are atomic.
///
/// For each direction the atoms are LPT-assigned toward the targets
/// (heaviest first, seeded tie-breaks) and a repair pass walks atoms from
/// an over-budget side while that strictly reduces the total violation.
/// The direction with the smaller `(violation, volume)` wins, ties going
/// to rows — the same preference order as localbest.
struct CoarseGrainBackend;

/// Assigns `weights` atoms to two sides aiming at `targets`. Returns the
/// side per atom. Deterministic in `seed` (used only for tie-breaking
/// among equal-weight atoms).
fn assign_atoms(weights: &[u64], targets: &BisectionTargets, seed: u64) -> Vec<u8> {
    let mut order: Vec<usize> = (0..weights.len()).filter(|&i| weights[i] > 0).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), splitmix(seed ^ i as u64)));

    // Normalised-load greedy: put the next atom where it leaves the
    // relative loads most even. Targets of zero (degenerate uneven splits)
    // count as one unit to keep the cross-multiplication meaningful.
    let t = [targets.target[0].max(1), targets.target[1].max(1)];
    let mut size = [0u64; 2];
    let mut side = vec![0u8; weights.len()];
    for &i in &order {
        let w = weights[i];
        let load0 = u128::from(size[0] + w) * u128::from(t[1]);
        let load1 = u128::from(size[1] + w) * u128::from(t[0]);
        let s = usize::from(load1 < load0);
        side[i] = s as u8;
        size[s] += w;
    }

    // Repair: move the lightest atoms off an over-budget side while that
    // strictly reduces the total violation.
    let budgets = targets.budgets();
    let violation = |size: &[u64; 2]| -> u64 {
        size[0].saturating_sub(budgets[0]) + size[1].saturating_sub(budgets[1])
    };
    let mut by_weight = order;
    by_weight.reverse(); // lightest first
    for _ in 0..weights.len() {
        let current = violation(&size);
        if current == 0 {
            break;
        }
        let heavy =
            usize::from(size[1].saturating_sub(budgets[1]) > size[0].saturating_sub(budgets[0]));
        let Some(&atom) = by_weight.iter().find(|&&i| side[i] as usize == heavy) else {
            break;
        };
        let w = weights[atom];
        let mut moved = size;
        moved[heavy] -= w;
        moved[1 - heavy] += w;
        if violation(&moved) >= current {
            break;
        }
        side[atom] = (1 - heavy) as u8;
        size = moved;
    }
    side
}

impl PartitionBackend for CoarseGrainBackend {
    fn name(&self) -> &'static str {
        "coarse-grain"
    }

    fn description(&self) -> &'static str {
        "direct 1D baseline, whole rows/columns atomic"
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities {
            honors_model: false,
            seed_sensitive: true,
            uses_geometry: false,
            granularity: Granularity::RowOrColumn,
        }
    }

    fn bipartition_with_targets(
        &self,
        a: &Coo,
        method: Method,
        targets: &BisectionTargets,
        seed: u64,
    ) -> BipartitionResult {
        if a.nnz() == 0 {
            return empty_result(a);
        }
        let row_weights: Vec<u64> = a.row_counts().iter().map(|&c| c as u64).collect();
        let col_weights: Vec<u64> = a.col_counts().iter().map(|&c| c as u64).collect();
        let by_rows = assign_atoms(&row_weights, targets, seed);
        let by_cols = assign_atoms(&col_weights, targets, splitmix(seed ^ 0xC01));

        let project = |sides: &[u8], use_rows: bool| -> BipartitionResult {
            let parts: Vec<Idx> = a
                .iter()
                .map(|(i, j)| Idx::from(sides[if use_rows { i } else { j } as usize]))
                .collect();
            BipartitionResult::from_partition(
                a,
                NonzeroPartition::new(2, parts).expect("sides are 0/1"),
            )
        };
        let rows = project(&by_rows, true);
        let cols = project(&by_cols, false);

        let budgets = targets.budgets();
        let violation = |r: &BipartitionResult| -> u64 {
            r.partition
                .part_sizes()
                .iter()
                .zip(budgets.iter())
                .map(|(&s, &b)| s.saturating_sub(b))
                .sum()
        };
        let best = if (violation(&rows), rows.volume) <= (violation(&cols), cols.volume) {
            rows
        } else {
            cols
        };
        maybe_refine(a, best, method, targets)
    }
}

// --------------------------------------------------------------------------
// geometric: recursive coordinate bisection
// --------------------------------------------------------------------------

/// Coordinate bisection on the nonzero positions, per arXiv:1105.4490:
/// each nonzero is the point `(i, j)`; one cut along the axis with the
/// larger coordinate spread splits the sorted point list at the balance
/// target, snapped to the nearest grid-line boundary the budget allows
/// (cutting *between* distinct coordinates keeps that line's row or
/// column whole, which is exactly what kills volume).
struct GeometricBackend;

impl PartitionBackend for GeometricBackend {
    fn name(&self) -> &'static str {
        "geometric"
    }

    fn description(&self) -> &'static str {
        "coordinate bisection on nonzero positions"
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities {
            honors_model: false,
            seed_sensitive: false,
            uses_geometry: true,
            granularity: Granularity::Nonzero,
        }
    }

    fn bipartition_with_targets(
        &self,
        a: &Coo,
        method: Method,
        targets: &BisectionTargets,
        _seed: u64,
    ) -> BipartitionResult {
        let nnz = a.nnz();
        if nnz == 0 {
            return empty_result(a);
        }
        // Axis with the larger spread of occupied coordinates.
        let (mut min_i, mut max_i, mut min_j, mut max_j) = (Idx::MAX, 0, Idx::MAX, 0);
        for (i, j) in a.iter() {
            min_i = min_i.min(i);
            max_i = max_i.max(i);
            min_j = min_j.min(j);
            max_j = max_j.max(j);
        }
        let split_rows = (max_i - min_i) >= (max_j - min_j);

        let mut order: Vec<u32> = (0..nnz as u32).collect();
        if !split_rows {
            order.sort_by_key(|&k| {
                let (i, j) = a.entry(k as usize);
                (j, i)
            });
        }
        let coord = |k: u32| -> Idx {
            let (i, j) = a.entry(k as usize);
            if split_rows {
                i
            } else {
                j
            }
        };

        // Feasible window for the cut position, and the balance target.
        // When the targets sum to nnz (every in-tree caller), lo <= hi
        // because each budget covers its target; inconsistent targets
        // from an external caller collapse the window to the nearest
        // feasible point instead of panicking in `clamp`.
        let budgets = targets.budgets();
        let lo = (nnz as u64).saturating_sub(budgets[1]) as usize;
        let hi = (budgets[0].min(nnz as u64)) as usize;
        let lo = lo.min(hi);
        let t0 = (targets.target[0] as usize).clamp(lo, hi);

        // Snap to the grid-line boundary nearest the target, if any lies
        // inside the window; otherwise cut mid-line at the target itself.
        let mut split = t0;
        let mut best_distance = usize::MAX;
        for p in lo.max(1)..=hi.min(nnz.saturating_sub(1)) {
            if coord(order[p - 1]) != coord(order[p]) {
                let distance = p.abs_diff(t0);
                if distance < best_distance {
                    best_distance = distance;
                    split = p;
                }
            }
        }

        let mut parts = vec![0 as Idx; nnz];
        for (pos, &k) in order.iter().enumerate() {
            parts[k as usize] = Idx::from(pos >= split);
        }
        let result = BipartitionResult::from_partition(
            a,
            NonzeroPartition::new(2, parts).expect("sides are 0/1"),
        );
        maybe_refine(a, result, method, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_sparse::{communication_volume, load_imbalance};

    #[test]
    fn registry_names_are_canonical_and_unique() {
        let names = backend_names();
        assert_eq!(names.len(), 4);
        let mut seen = std::collections::HashSet::new();
        for (backend, name) in all_backends().iter().zip(names) {
            assert_eq!(backend.name(), name);
            assert!(seen.insert(name), "duplicate backend name {name}");
            // Canonical: lowercase, '-' separated — exactly what
            // parse_backend normalises to.
            assert_eq!(
                name,
                name.to_ascii_lowercase().replace(['+', '_'], "-"),
                "{name} is not canonical"
            );
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
            assert_eq!(parse_backend(&name.replace('-', "_")).unwrap().name(), name);
        }
        let err = parse_backend("hmetis").unwrap_err();
        assert!(err.contains("coarse-grain"), "error lists names: {err}");
        assert!(parse_backend("").is_err());
    }

    #[test]
    fn multilevel_backends_expose_their_presets() {
        assert_eq!(
            parse_backend("mondriaan")
                .unwrap()
                .engine_config()
                .unwrap()
                .coarsest_vertices,
            PartitionerConfig::mondriaan_like().coarsest_vertices
        );
        assert!(parse_backend("patoh").unwrap().engine_config().is_some());
        assert!(parse_backend("coarse-grain")
            .unwrap()
            .engine_config()
            .is_none());
        assert!(parse_backend("geometric")
            .unwrap()
            .engine_config()
            .is_none());
    }

    #[test]
    fn mondriaan_backend_matches_the_direct_method_call() {
        let a = mg_sparse::gen::laplacian_2d(12, 12);
        let via_backend = parse_backend("mondriaan").unwrap().bipartition(
            &a,
            Method::MediumGrain { refine: true },
            0.03,
            42,
        );
        let mut rng = StdRng::seed_from_u64(42);
        let direct = Method::MediumGrain { refine: true }.bipartition(
            &a,
            0.03,
            &PartitionerConfig::mondriaan_like(),
            &mut rng,
        );
        assert_eq!(via_backend.volume, direct.volume);
        assert_eq!(via_backend.partition.parts(), direct.partition.parts());
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
    fn coarse_grain_keeps_one_direction_whole() {
        let a = mg_sparse::gen::laplacian_2d(12, 12);
        let r = parse_backend("coarse-grain").unwrap().bipartition(
            &a,
            Method::MediumGrain { refine: false },
            0.03,
            3,
        );
        let rl = mg_sparse::row_lambdas(&a, &r.partition);
        let cl = mg_sparse::col_lambdas(&a, &r.partition);
        assert!(
            rl.iter().all(|&l| l <= 1) || cl.iter().all(|&l| l <= 1),
            "coarse-grain split both rows and columns"
        );
    }

    #[test]
    fn geometric_backend_is_balanced_and_cheap_on_a_grid() {
        let a = mg_sparse::gen::laplacian_2d(20, 20);
        let r = parse_backend("geometric").unwrap().bipartition(
            &a,
            Method::MediumGrain { refine: false },
            0.03,
            0,
        );
        r.partition.check_against(&a).unwrap();
        assert!(load_imbalance(&r.partition) <= 0.03 + 1e-9);
        // A coordinate cut through a 20×20 Laplacian severs O(k) rows.
        assert!(
            r.volume <= 64,
            "geometric cut unexpectedly bad: {}",
            r.volume
        );
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
    fn capabilities_distinguish_the_backend_families() {
        assert!(
            parse_backend("mondriaan")
                .unwrap()
                .capabilities()
                .honors_model
        );
        assert!(parse_backend("patoh").unwrap().capabilities().honors_model);
        let coarse = parse_backend("coarse-grain").unwrap().capabilities();
        assert!(!coarse.honors_model);
        assert_eq!(coarse.granularity, Granularity::RowOrColumn);
        let geo = parse_backend("geometric").unwrap().capabilities();
        assert!(geo.uses_geometry);
        assert!(!geo.seed_sensitive);
        assert_eq!(geo.granularity, Granularity::Nonzero);
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

    #[test]
    fn uneven_targets_are_respected_by_direct_backends() {
        let a = mg_sparse::gen::laplacian_2d(14, 14);
        let nnz = a.nnz() as u64;
        let target0 = nnz * 3 / 4;
        let targets = BisectionTargets {
            target: [target0, nnz - target0],
            epsilon: 0.1,
        };
        let budgets = targets.budgets();
        for name in ["geometric", "coarse-grain"] {
            let r = parse_backend(name).unwrap().bipartition_with_targets(
                &a,
                Method::MediumGrain { refine: false },
                &targets,
                11,
            );
            let sizes = r.partition.part_sizes();
            assert!(
                sizes[0] <= budgets[0] && sizes[1] <= budgets[1],
                "{name}: sizes {sizes:?} exceed budgets {budgets:?}"
            );
        }
    }
}
