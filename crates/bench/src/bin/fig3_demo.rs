//! Fig 3 reproduction: bipartition the gd97_b twin 100 times with each
//! model and report the best volume found.
//!
//! Paper result (on the real gd97_b): best of 100 runs was 31 for row-net,
//! 31 for column-net, 12 for fine-grain and 11 (the proven optimum) for
//! the medium-grain method, which hit it in 19 of 100 runs. Our twin has
//! the same shape; expect the same *ordering* (MG < FG << 1D models).

use mg_bench::experiments::{fig3_gd97b, render_fig3};
use mg_bench::write_artifact;
use mg_collection::gd97b_twin;
use mg_core::{parse_backend, Method};
use mg_sparse::{spy, spy_partitioned, CommunicationReport};

fn main() {
    let runs = 100;
    let rows = fig3_gd97b(runs);
    let mut report = render_fig3(&rows, runs);

    // The visual half of Fig 3: the original pattern and the best
    // medium-grain 2D partitioning found.
    let a = gd97b_twin();
    let backend = parse_backend("mondriaan").expect("registered backend");
    let best = (0..runs)
        .map(|run| {
            let method = Method::MediumGrain { refine: true };
            backend.bipartition(&a, method, 0.03, 0xf163 ^ run as u64)
        })
        .min_by_key(|r| r.volume)
        .expect("at least one run");

    report.push_str("\noriginal pattern (A):\n");
    report.push_str(&spy(&a, 47, 47));
    report.push_str(&format!(
        "\nbest MG+IR 2D partitioning (volume {}):\n",
        best.volume
    ));
    report.push_str(&spy_partitioned(&a, &best.partition, 47, 47));
    report.push_str(&format!(
        "\n{}\n",
        CommunicationReport::compute(&a, &best.partition).render()
    ));

    println!("{report}");
    let path = write_artifact("fig3_gd97b.txt", &report);
    println!("written: {}", path.display());
}
