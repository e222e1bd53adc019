//! The matrix suite generator.
//!
//! [`generate`] expands a [`CollectionSpec`] into a deterministic list of
//! named matrices covering the paper's three classes in roughly the paper's
//! proportions (26% rectangular, 44% symmetric, 30% square non-symmetric).
//! Instance sizes are spread log-uniformly between the scale's bounds so
//! profiles aggregate over small and large problems alike, mirroring the
//! 500 – 5M nonzero span of the original test set (scaled down to keep the
//! full sweep tractable on one machine).

use mg_sparse::{gen, Coo, Idx};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How big a collection to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionScale {
    /// 16 small matrices (≤ ~4k nonzeros); used by tests and CI.
    Smoke,
    /// 96 matrices up to ~60k nonzeros; the default experiment set.
    Default,
    /// 144 matrices up to ~400k nonzeros; closer to the paper's span
    /// (a substantially longer sweep).
    Large,
}

impl CollectionScale {
    /// (instances per family variant, max nonzeros target)
    fn parameters(self) -> (usize, usize) {
        match self {
            CollectionScale::Smoke => (1, 4_000),
            CollectionScale::Default => (6, 60_000),
            CollectionScale::Large => (9, 400_000),
        }
    }
}

/// Specification of a deterministic collection.
#[derive(Debug, Clone)]
pub struct CollectionSpec {
    /// Master seed of the one RNG stream that [`generate`] threads
    /// through the families in order: a matrix's content depends on every
    /// draw before it.
    pub seed: u64,
    /// Size of the collection.
    pub scale: CollectionScale,
}

impl Default for CollectionSpec {
    fn default() -> Self {
        CollectionSpec {
            seed: 20140519, // IPDPS 2014, Phoenix, AZ — first day
            scale: CollectionScale::Default,
        }
    }
}

/// A named matrix of the collection.
#[derive(Debug, Clone)]
pub struct CollectionEntry {
    /// Unique name, e.g. `laplace2d_08_k40`.
    pub name: String,
    /// Generator family, e.g. `laplace2d`.
    pub family: &'static str,
    /// The matrix.
    pub matrix: Coo,
}

/// Log-uniform interpolation between `lo` and `hi` for step `i` of `n`.
fn log_interp(lo: usize, hi: usize, i: usize, n: usize) -> usize {
    if n <= 1 {
        return hi.min(lo.max(hi / 2));
    }
    let t = i as f64 / (n - 1) as f64;
    ((lo as f64).ln() + t * ((hi as f64).ln() - (lo as f64).ln()))
        .exp()
        .round() as usize
}

fn push(entries: &mut Vec<CollectionEntry>, family: &'static str, name: String, matrix: Coo) {
    entries.push(CollectionEntry {
        name,
        family,
        matrix,
    });
}

/// Generates the collection for a spec. Deterministic in `spec`.
pub fn generate(spec: &CollectionSpec) -> Vec<CollectionEntry> {
    let (per_family, max_nnz) = spec.scale.parameters();
    let min_nnz = 500usize;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut entries: Vec<CollectionEntry> = Vec::new();

    // --- Symmetric families (target ≈ 44%). -----------------------------
    // 2D Laplacians, 5-point: nnz ≈ 5k².
    for i in 0..per_family {
        let nnz = log_interp(min_nnz, max_nnz, i, per_family);
        let k = (((nnz as f64) / 5.0).sqrt().round() as Idx).max(4);
        push(
            &mut entries,
            "laplace2d",
            format!("laplace2d_{i:02}_k{k}"),
            gen::laplacian_2d(k, k),
        );
    }
    // 2D Laplacians, 9-point, non-square grids.
    for i in 0..per_family {
        let nnz = log_interp(min_nnz, max_nnz, i, per_family);
        let kx = (((nnz as f64) / 9.0).sqrt().round() as Idx).max(4);
        let ky = (kx / 2).max(3);
        push(
            &mut entries,
            "laplace2d9",
            format!("laplace2d9_{i:02}_k{kx}x{ky}"),
            gen::laplacian_2d_9pt(kx, ky * 2),
        );
    }
    // 3D Laplacians: nnz ≈ 7k³.
    for i in 0..per_family {
        let nnz = log_interp(min_nnz, max_nnz, i, per_family);
        let k = (((nnz as f64) / 7.0).cbrt().round() as Idx).max(3);
        push(
            &mut entries,
            "laplace3d",
            format!("laplace3d_{i:02}_k{k}"),
            gen::laplacian_3d(k, k, k),
        );
    }
    // Random symmetric.
    for i in 0..per_family {
        let nnz = log_interp(min_nnz, max_nnz, i, per_family);
        let n = ((nnz / 8) as Idx).max(16);
        push(
            &mut entries,
            "randsym",
            format!("randsym_{i:02}_n{n}"),
            gen::random_symmetric(n, nnz, &mut rng),
        );
    }
    // Power-law symmetric (Chung–Lu), two exponents.
    for (alpha_tag, alpha) in [("a07", 0.7), ("a11", 1.1)] {
        for i in 0..per_family {
            let nnz = log_interp(min_nnz, max_nnz, i, per_family);
            let n = ((nnz / 6) as Idx).max(24);
            push(
                &mut entries,
                "chunglu",
                format!("chunglu{alpha_tag}_{i:02}_n{n}"),
                gen::chung_lu_symmetric(n, nnz, alpha, &mut rng),
            );
        }
    }
    // Perturbed bands.
    for i in 0..per_family {
        let nnz = log_interp(min_nnz, max_nnz, i, per_family);
        let bw = 2 + (i as Idx % 5);
        let n = ((nnz as u64 / (2 * bw as u64 + 1)) as Idx).max(16);
        push(
            &mut entries,
            "band",
            format!("band_{i:02}_n{n}_b{bw}"),
            gen::perturbed_band(n, bw, 0.2, (nnz / 50).max(1), &mut rng),
        );
    }
    // Arrow matrices (hard for 1D).
    for i in 0..per_family {
        let nnz = log_interp(min_nnz, max_nnz, i, per_family);
        // arrow nnz ≈ 3·core + border·(2·core+1)
        let border = 2 + (i as Idx % 4);
        let core = ((nnz as u64 / (3 + 2 * border as u64)) as Idx).max(8);
        push(
            &mut entries,
            "arrow",
            format!("arrow_{i:02}_n{}_b{border}", core + border),
            gen::arrow(core + border, border),
        );
    }

    // --- Square non-symmetric families (target ≈ 30%). ------------------
    // Square Erdős–Rényi with full diagonal.
    for i in 0..per_family {
        let nnz = log_interp(min_nnz, max_nnz, i, per_family);
        let n = ((nnz / 7) as Idx).max(16);
        push(
            &mut entries,
            "ersq",
            format!("ersq_{i:02}_n{n}"),
            gen::erdos_renyi_square(n, nnz, &mut rng),
        );
    }
    // Directed scale-free.
    for i in 0..per_family {
        let nnz = log_interp(min_nnz, max_nnz, i, per_family);
        let n = ((nnz / 6) as Idx).max(24);
        push(
            &mut entries,
            "scalefree",
            format!("scalefree_{i:02}_n{n}"),
            gen::scale_free_directed(n, nnz, 0.7, 1.2, &mut rng),
        );
    }
    // RMAT.
    for i in 0..per_family {
        let nnz = log_interp(min_nnz, max_nnz, i, per_family);
        let scale = ((nnz as f64 / 8.0).log2().round() as u32).clamp(6, 18);
        push(
            &mut entries,
            "rmat",
            format!("rmat_{i:02}_s{scale}"),
            gen::rmat(scale, nnz, 0.57, 0.19, 0.19, &mut rng),
        );
    }
    // Block diagonal with coupling (block fill is directional → nonsym).
    for i in 0..per_family {
        let nnz = log_interp(min_nnz, max_nnz, i, per_family);
        let blocks = 3 + (i as Idx % 5);
        let bs = (((nnz as f64 / blocks as f64) / 0.3).sqrt().round() as Idx).clamp(4, 256);
        push(
            &mut entries,
            "blockdiag",
            format!("blockdiag_{i:02}_b{blocks}x{bs}"),
            gen::block_diagonal(blocks, bs, 0.25, (bs as usize / 3).max(1), &mut rng),
        );
    }

    // --- Rectangular families (target ≈ 26%). ---------------------------
    // Tall and wide Erdős–Rényi.
    for (tag, ratio) in [("tall", 4.0f64), ("wide", 0.25)] {
        for i in 0..per_family {
            let nnz = log_interp(min_nnz, max_nnz, i, per_family);
            let cells = (nnz as f64) / 0.02; // 2% fill
            let m = ((cells * ratio).sqrt().round() as Idx).max(12);
            let n = ((cells / ratio).sqrt().round() as Idx).max(12);
            push(
                &mut entries,
                "errect",
                format!("errect_{tag}_{i:02}_{m}x{n}"),
                gen::erdos_renyi(m, n, nnz, &mut rng),
            );
        }
    }
    // Term–document.
    for i in 0..per_family {
        let nnz = log_interp(min_nnz, max_nnz, i, per_family);
        let docs = ((nnz / 8) as Idx).max(16);
        let terms = (docs * 3).max(32);
        push(
            &mut entries,
            "termdoc",
            format!("termdoc_{i:02}_{terms}x{docs}"),
            gen::term_document(terms, docs, 8, &mut rng),
        );
    }
    // Extremely tall (the paper's m >> n regime where 1D already wins).
    for i in 0..per_family {
        let nnz = log_interp(min_nnz, max_nnz, i, per_family);
        let n = 8 + (i as Idx % 8);
        let m = ((nnz / 3) as Idx).max(32);
        push(
            &mut entries,
            "verytall",
            format!("verytall_{i:02}_{m}x{n}"),
            gen::erdos_renyi(m, n, nnz, &mut rng),
        );
    }

    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_sparse::stats::{MatrixClass, PatternStats};
    use std::collections::HashSet;

    #[test]
    fn smoke_collection_is_generated() {
        let spec = CollectionSpec {
            seed: 1,
            scale: CollectionScale::Smoke,
        };
        let c = generate(&spec);
        assert!(c.len() >= 15, "only {} matrices", c.len());
        for e in &c {
            assert!(e.matrix.nnz() > 0, "{} is empty", e.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let c = generate(&CollectionSpec {
            seed: 2,
            scale: CollectionScale::Smoke,
        });
        let names: HashSet<&str> = c.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names.len(), c.len());
    }

    #[test]
    fn deterministic_generation() {
        let spec = CollectionSpec {
            seed: 3,
            scale: CollectionScale::Smoke,
        };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.matrix, y.matrix);
        }
    }

    #[test]
    fn all_three_classes_are_represented() {
        let c = generate(&CollectionSpec {
            seed: 4,
            scale: CollectionScale::Smoke,
        });
        let mut seen = HashSet::new();
        for e in &c {
            seen.insert(PatternStats::compute(&e.matrix).class());
        }
        assert!(seen.contains(&MatrixClass::Rectangular));
        assert!(seen.contains(&MatrixClass::Symmetric));
        assert!(seen.contains(&MatrixClass::SquareNonSymmetric));
    }

    #[test]
    fn class_mix_roughly_matches_the_paper() {
        let c = generate(&CollectionSpec {
            seed: 5,
            scale: CollectionScale::Default,
        });
        let total = c.len() as f64;
        let classes: Vec<MatrixClass> = c
            .iter()
            .map(|e| PatternStats::compute(&e.matrix).class())
            .collect();
        let frac = |cl: MatrixClass| classes.iter().filter(|&&c| c == cl).count() as f64 / total;
        let sym = frac(MatrixClass::Symmetric);
        let rect = frac(MatrixClass::Rectangular);
        let sqr = frac(MatrixClass::SquareNonSymmetric);
        // Paper: 44% / 26% / 30%. Generators can drift (a random square
        // pattern may come out symmetric by chance), allow wide bands.
        assert!((0.30..=0.60).contains(&sym), "sym fraction {sym}");
        assert!((0.15..=0.40).contains(&rect), "rect fraction {rect}");
        assert!((0.15..=0.45).contains(&sqr), "sqr fraction {sqr}");
    }

    #[test]
    fn nnz_spans_the_scale_range() {
        let c = generate(&CollectionSpec {
            seed: 6,
            scale: CollectionScale::Default,
        });
        let min = c.iter().map(|e| e.matrix.nnz()).min().unwrap();
        let max = c.iter().map(|e| e.matrix.nnz()).max().unwrap();
        assert!(min < 2_000, "min nnz {min}");
        assert!(max > 20_000, "max nnz {max}");
    }
}
