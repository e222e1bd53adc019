//! Ablation study for the design choices DESIGN.md calls out:
//!
//! 1. **Initial split strategy** (§III-B / §V): Algorithm 1 vs. the
//!    degenerate all-Ac / all-Ar splits (≡ 1D models) vs. a random split.
//! 2. **Coarsening scheme**: heavy-connectivity matching vs. agglomerative
//!    clustering vs. random matching.
//! 3. **Restricted V-cycles**: 0 vs. 2 extra cycles.
//!
//! Prints normalised geometric means of communication volume (and time)
//! over the collection, relative to the paper's default configuration.
//!
//! Flags: `--scale smoke|default|large --runs N --threads N --seed N`.

use mg_bench::geomean::geometric_mean;
use mg_bench::{write_artifact, CliOptions};
use mg_collection::generate;
use mg_core::{medium_grain_bipartition_with_split, split_with_strategy, Method, SplitStrategy};
use mg_partitioner::{BisectionTargets, CoarseningScheme, PartitionerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One ablation configuration: a name and a closure producing (volume,
/// seconds) for a matrix and seed.
type Variant = (
    &'static str,
    Box<dyn Fn(&mg_sparse::Coo, u64) -> (u64, f64) + Sync>,
);

fn variants() -> Vec<Variant> {
    let mut v: Vec<Variant> = Vec::new();

    // --- Baseline: the paper's MG+IR with the default engine. ---
    v.push((
        "MG+IR (paper)",
        Box::new(|a, seed| {
            let cfg = PartitionerConfig::mondriaan_like();
            let mut rng = StdRng::seed_from_u64(seed);
            let t = Instant::now();
            let r = Method::MediumGrain { refine: true }.bipartition(a, 0.03, &cfg, &mut rng);
            (r.volume, t.elapsed().as_secs_f64())
        }),
    ));

    // --- 1. Split strategies (without IR, isolating the splitter). ---
    for (name, strategy) in [
        ("split: algorithm1", SplitStrategy::Algorithm1),
        ("split: all-Ac (row-net)", SplitStrategy::AllColumns),
        ("split: all-Ar (col-net)", SplitStrategy::AllRows),
        ("split: random", SplitStrategy::Random),
    ] {
        v.push((
            name,
            Box::new(move |a, seed| {
                let cfg = PartitionerConfig::mondriaan_like();
                let mut rng = StdRng::seed_from_u64(seed);
                let t = Instant::now();
                let split = split_with_strategy(a, strategy, &mut rng);
                let targets = BisectionTargets::even(a.nnz() as u64, 0.03);
                let r = medium_grain_bipartition_with_split(a, &split, &targets, &cfg, &mut rng);
                (r.volume, t.elapsed().as_secs_f64())
            }),
        ));
    }

    // --- 2. Coarsening schemes (plain MG). ---
    for (name, scheme) in [
        ("coarsen: HCM", CoarseningScheme::HeavyConnectivityMatching),
        ("coarsen: agglomerative", CoarseningScheme::Agglomerative),
        ("coarsen: random", CoarseningScheme::RandomMatching),
    ] {
        v.push((
            name,
            Box::new(move |a, seed| {
                let mut cfg = PartitionerConfig::mondriaan_like();
                cfg.coarsening = scheme;
                let mut rng = StdRng::seed_from_u64(seed);
                let t = Instant::now();
                let r = Method::MediumGrain { refine: false }.bipartition(a, 0.03, &cfg, &mut rng);
                (r.volume, t.elapsed().as_secs_f64())
            }),
        ));
    }

    // --- 3. V-cycles. ---
    v.push((
        "vcycles: 2",
        Box::new(|a, seed| {
            let mut cfg = PartitionerConfig::mondriaan_like();
            cfg.vcycles = 2;
            let mut rng = StdRng::seed_from_u64(seed);
            let t = Instant::now();
            let r = Method::MediumGrain { refine: false }.bipartition(a, 0.03, &cfg, &mut rng);
            (r.volume, t.elapsed().as_secs_f64())
        }),
    ));

    v
}

fn main() {
    let opts = CliOptions::parse();
    let entries = generate(&opts.collection());
    let configs = variants();
    eprintln!(
        "ablation: {} matrices x {} variants x {} runs",
        entries.len(),
        configs.len(),
        opts.runs
    );

    // volumes[variant][matrix], times[variant][matrix]
    let volumes = Mutex::new(vec![vec![0.0f64; entries.len()]; configs.len()]);
    let times = Mutex::new(vec![vec![0.0f64; entries.len()]; configs.len()]);
    let cursor = AtomicUsize::new(0);
    let workers = if opts.threads > 0 {
        opts.threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    };

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= entries.len() {
                    break;
                }
                let a = &entries[idx].matrix;
                for (vi, (_, f)) in configs.iter().enumerate() {
                    let mut vol = 0.0;
                    let mut time = 0.0;
                    for run in 0..opts.runs {
                        let (v, t) = f(a, (idx as u64) << 20 | (vi as u64) << 8 | run as u64);
                        vol += v as f64;
                        time += t;
                    }
                    volumes.lock().expect("no worker panicked")[vi][idx] = vol / opts.runs as f64;
                    times.lock().expect("no worker panicked")[vi][idx] = time / opts.runs as f64;
                }
            });
        }
    });

    let volumes = volumes.into_inner().expect("no worker panicked");
    let times = times.into_inner().expect("no worker panicked");

    // Normalise against the baseline (variant 0).
    let mut out = String::from("Ablation — geometric means relative to MG+IR (paper defaults)\n\n");
    out.push_str(&format!(
        "{:<28} {:>8} {:>8}\n",
        "variant", "volume", "time"
    ));
    for (vi, (name, _)) in configs.iter().enumerate() {
        let vol_ratios: Vec<f64> = (0..entries.len())
            .filter(|&c| volumes[0][c] > 0.0)
            .map(|c| volumes[vi][c] / volumes[0][c])
            .collect();
        let time_ratios: Vec<f64> = (0..entries.len())
            .filter(|&c| times[0][c] > 0.0)
            .map(|c| times[vi][c] / times[0][c])
            .collect();
        out.push_str(&format!(
            "{:<28} {:>8.3} {:>8.3}\n",
            name,
            geometric_mean(&vol_ratios),
            geometric_mean(&time_ratios)
        ));
    }
    println!("{out}");
    write_artifact("ablation.txt", &out);
}
