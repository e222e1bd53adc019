//! Deterministic fixture matrices shared by integration tests.

use mg_sparse::{gen, Coo};

use crate::seeded_rng;

/// The standard cross-crate integration workload: one matrix per structural
/// family the paper's collection distinguishes, all derived from seed 77.
///
/// Used by `tests/pipeline.rs`; kept small enough that a full
/// methods × workload sweep stays in CI-friendly time.
pub fn standard_workload() -> Vec<(&'static str, Coo)> {
    let mut rng = seeded_rng(77);
    vec![
        ("laplace2d", gen::laplacian_2d(24, 24)),
        ("laplace3d", gen::laplacian_3d(8, 8, 8)),
        ("chunglu", gen::chung_lu_symmetric(300, 3000, 0.9, &mut rng)),
        (
            "scalefree",
            gen::scale_free_directed(250, 2500, 0.8, 1.2, &mut rng),
        ),
        ("rect_tall", gen::erdos_renyi(400, 80, 3200, &mut rng)),
        ("termdoc", gen::term_document(500, 160, 7, &mut rng)),
        ("arrow", gen::arrow(200, 4)),
        ("rmat", gen::rmat(9, 4000, 0.57, 0.19, 0.19, &mut rng)),
    ]
}
