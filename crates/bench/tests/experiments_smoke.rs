//! Smoke-scale integration test of the whole experiment harness: every
//! figure/table function runs, produces well-formed output, shows the
//! qualitative orderings the paper reports, and reproduces the pinned
//! values of `tests/data/paper_smoke_golden.txt` exactly.

use mg_bench::experiments::{
    fig3_gd97b, fig4_profiles, fig5_time_profile, multiway_volume_profile, paper_sweep,
    patoh_multiway_sweep, render_fig3, render_table2, table1_geomeans, table2_rows,
};
use mg_collection::{CollectionScale, CollectionSpec};

/// The deterministic harness outputs at smoke scale (collection seed 11,
/// one run): the Fig 4 profiles, Table I's volume table and Table II.
/// Wall-clock columns are never pinned. The file is a sequence of
/// sections, each headed by a `== name` line.
const GOLDEN: &str = include_str!("data/paper_smoke_golden.txt");

/// Compares `actual` with the golden section `name`. On a mismatch the
/// actual text is written to the temp dir for inspection.
fn assert_golden(name: &str, actual: &str) {
    let header = format!("== {name}\n");
    let expected = GOLDEN.find(&header).map(|i| {
        let start = i + header.len();
        let end = GOLDEN[start..]
            .find("\n== ")
            .map_or(GOLDEN.len(), |j| start + j + 1);
        &GOLDEN[start..end]
    });
    if expected != Some(actual) {
        let path = std::env::temp_dir().join(format!("paper_smoke_golden.{name}"));
        std::fs::write(&path, actual).ok();
        panic!(
            "{name} moved from the golden; actual output written to {}\n\
             expected:\n{}\nactual:\n{actual}",
            path.display(),
            expected.unwrap_or("(no such section)")
        );
    }
}

fn smoke() -> CollectionSpec {
    CollectionSpec {
        seed: 11,
        scale: CollectionScale::Smoke,
    }
}

#[test]
fn fig3_produces_all_methods() {
    let rows = fig3_gd97b(5);
    assert_eq!(rows.len(), 5);
    for (label, best, mean, hits) in &rows {
        assert!(!label.is_empty());
        assert!(*best > 0, "{label}: a connected graph must have volume");
        assert!(*mean >= *best as f64);
        assert!(*hits >= 1);
    }
    let txt = render_fig3(&rows, 5);
    assert!(txt.contains("MG+IR"));
}

#[test]
fn full_experiment_pipeline_at_smoke_scale() {
    let records = paper_sweep(smoke(), "mondriaan", 1, 0);
    assert!(!records.is_empty());
    // 6 methods per matrix.
    assert_eq!(records.len() % 6, 0);

    // Fig 4: four subsets, profiles monotone, fractions in [0, 1].
    let profiles = fig4_profiles(&records);
    assert_eq!(profiles.len(), 4);
    for (name, p) in &profiles {
        assert_eq!(p.labels.len(), 6, "{name}");
        for row in &p.fractions {
            assert!(row.windows(2).all(|w| w[0] <= w[1] + 1e-12), "{name}");
            assert!(row.iter().all(|&f| (0.0..=1.0).contains(&f)), "{name}");
        }
        // Paper column order.
        assert_eq!(p.labels[0], "LB");
        assert_eq!(p.labels[3], "MG+IR");
    }

    // Fig 5: time profile over all matrices.
    let time_profile = fig5_time_profile(&records);
    assert_eq!(time_profile.cases, records.len() / 6);

    // Table I: LB column is exactly 1, MG+IR no worse than LB overall.
    let (volume, time) = table1_geomeans(&records);
    assert!((volume.cell("All", "LB").unwrap() - 1.0).abs() < 1e-9);
    assert!((time.cell("All", "LB").unwrap() - 1.0).abs() < 1e-9);
    let mgir = volume.cell("All", "MG+IR").unwrap();
    assert!(
        mgir <= 1.0,
        "MG+IR must not lose to LB on volume overall, got {mgir}"
    );
    // IR never hurts on average (it is monotone per matrix).
    assert!(volume.cell("All", "LB+IR").unwrap() <= 1.0 + 1e-9);

    for (name, profile) in &profiles {
        assert_golden(&format!("fig4_{name}.csv"), &profile.to_csv());
    }
    assert_golden("table1_volume.csv", &volume.to_csv());
}

#[test]
fn multiway_pipeline_at_smoke_scale() {
    let p2 = patoh_multiway_sweep(smoke(), 1, 0, 2);
    let p4 = patoh_multiway_sweep(smoke(), 1, 0, 4);
    assert_eq!(p2.len(), p4.len());
    for r in p2.iter().chain(&p4) {
        assert!(r.volume_avg >= 0.0);
        assert!(r.bsp_cost_avg <= r.volume_avg + 1e-9, "{}", r.matrix);
    }
    let profile = multiway_volume_profile(&p4);
    assert_eq!(profile.labels.len(), 6);
    let (methods, vol, cost) = table2_rows(&p2);
    let lb = methods.iter().position(|m| m == "LB").unwrap();
    assert!((vol[lb] - 1.0).abs() < 1e-9);
    assert!((cost[lb] - 1.0).abs() < 1e-9);
    let txt = render_table2(&p2, &p4);
    assert!(txt.contains("Vol p2"));
    assert_golden("table2.txt", &txt);
}
