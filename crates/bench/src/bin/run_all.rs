//! Runs every experiment of the paper in sequence, reusing sweeps where
//! figures share data, and writes all artifacts (CSV + text) under
//! `results/` (or `$MG_RESULTS_DIR`).
//!
//! Flags: `--scale smoke|default|large --runs N --threads N --seed N`. A
//! bad flag is one `fatal` log line on stderr and exit code 1.

use mg_bench::experiments::{
    class_summary, fig3_gd97b, fig4_profiles, fig5_time_profile, multiway_volume_profile,
    paper_sweep, patoh_multiway_sweep, render_fig3, render_table2, table1_geomeans,
};
use mg_bench::{
    multiway_to_csv, records_to_csv, records_to_jsonl, run_batch_sweep, sort_by_cell,
    write_artifact, BatchSweepConfig, CliOptions,
};
use std::time::Instant;

/// One progress event on stderr (structured, level info, silenced by
/// `MGPART_LOG=error`).
fn progress(step: &str, detail: &str) {
    mg_obs::log::info(
        "experiment_step",
        &[("step", step.into()), ("detail", detail.into())],
    );
}

fn main() {
    mg_obs::log::init_from_env();
    let opts = match CliOptions::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(message) => {
            mg_obs::log::error("fatal", &[("message", message.as_str().into())]);
            std::process::exit(1);
        }
    };
    let t0 = Instant::now();
    let mut summary = String::from("# Experiment summary (run_all)\n\n");
    summary.push_str(&format!(
        "scale: {:?}, runs: {}, seed: {}\n\n",
        opts.scale, opts.runs, opts.seed
    ));

    // --- Fig 3 ---
    progress("1/5", "fig3 (gd97_b twin, 100 runs/method)");
    let fig3 = render_fig3(&fig3_gd97b(100), 100);
    println!("{fig3}");
    write_artifact("fig3_gd97b.txt", &fig3);
    summary.push_str("## Fig 3\n\n```\n");
    summary.push_str(&fig3);
    summary.push_str("```\n\n");

    // --- Figs 4, 5 and Table I share the Mondriaan-like sweep, run once
    // through the batch engine so the JSONL stream and the figures come
    // from the same records. ---
    progress("2/5", "Mondriaan-like batched sweep (figs 4, 5, table I)");
    let batch_config = BatchSweepConfig {
        threads: opts.threads,
        ..BatchSweepConfig::paper(opts.collection(), "mondriaan", opts.runs)
    };
    let mut records = run_batch_sweep(&batch_config).expect("the paper sweep config is valid");
    write_artifact("sweep_p2.jsonl", &records_to_jsonl(&records));
    sort_by_cell(&mut records);
    write_artifact("fig4_records.csv", &records_to_csv(&records));
    summary.push_str(&format!(
        "collection: {} matrices ({})\n\n",
        records.len() / 6,
        class_summary(&records)
    ));
    for (name, profile) in fig4_profiles(&records) {
        write_artifact(&format!("fig4_{name}.csv"), &profile.to_csv());
        summary.push_str(&format!("## Fig 4 ({name})\n\n```\n"));
        summary.push_str(&profile.render_ascii(16));
        summary.push_str("```\n\n");
    }
    let time_profile = fig5_time_profile(&records);
    write_artifact("fig5_time.csv", &time_profile.to_csv());
    summary.push_str("## Fig 5 (time)\n\n```\n");
    summary.push_str(&time_profile.render_ascii(16));
    summary.push_str("```\n\n");

    let (volume_table, time_table) = table1_geomeans(&records);
    let t1v = volume_table.render("Table I (top) — Com.Vol. relative to LB");
    let t1t = time_table.render("Table I (bottom) — Time relative to LB");
    println!("{t1v}\n{t1t}");
    write_artifact("table1_volume.csv", &volume_table.to_csv());
    write_artifact("table1_time.csv", &time_table.to_csv());
    summary.push_str(&format!("## Table I\n\n```\n{t1v}\n{t1t}```\n\n"));

    // --- Fig 6a: PaToH-like p = 2. ---
    progress("3/5", "PaToH-like sweep (fig 6a)");
    let patoh_records = paper_sweep(opts.collection(), "patoh", opts.runs, opts.threads);
    write_artifact("fig6_records_p2.csv", &records_to_csv(&patoh_records));
    let fig6a = &fig4_profiles(&patoh_records)[0].1;
    write_artifact("fig6a_p2.csv", &fig6a.to_csv());
    summary.push_str("## Fig 6a (PaToH-like, p = 2)\n\n```\n");
    summary.push_str(&fig6a.render_ascii(16));
    summary.push_str("```\n\n");

    // --- Fig 6b / Table II: p-way sweeps. ---
    progress("4/5", "PaToH-like p = 2 multiway sweep (table II)");
    let p2 = patoh_multiway_sweep(opts.collection(), opts.runs, opts.threads, 2);
    write_artifact("table2_records_p2.csv", &multiway_to_csv(&p2));
    progress("5/5", "PaToH-like p = 64 multiway sweep (fig 6b, table II)");
    let p64 = patoh_multiway_sweep(opts.collection(), 1, opts.threads, 64);
    write_artifact("table2_records_p64.csv", &multiway_to_csv(&p64));
    let fig6b = multiway_volume_profile(&p64);
    write_artifact("fig6b_p64.csv", &fig6b.to_csv());
    summary.push_str("## Fig 6b (PaToH-like, p = 64)\n\n```\n");
    summary.push_str(&fig6b.render_ascii(16));
    summary.push_str("```\n\n");
    let table2 = render_table2(&p2, &p64);
    println!("{table2}");
    write_artifact("table2.txt", &table2);
    summary.push_str(&format!("## Table II\n\n```\n{table2}```\n\n"));

    summary.push_str(&format!(
        "total wall time: {:.1}s\n",
        t0.elapsed().as_secs_f64()
    ));
    let path = write_artifact("summary.md", &summary);
    mg_obs::log::info(
        "experiments_done",
        &[
            ("seconds", t0.elapsed().as_secs_f64().into()),
            ("summary", path.display().to_string().into()),
        ],
    );
}
