//! The batched sweep substrate: job expansion and a deterministic
//! parallel scheduler.
//!
//! An experiment sweep is a dense cross product of (matrix × method × ε)
//! cells. [`expand_jobs`] lays those cells out in a canonical order and
//! stamps each with a seed derived from a *stable hash of its key*
//! ([`job_seed`]), never from its position in the sweep — so adding a
//! method or reordering the ε list cannot perturb any other cell's RNG
//! stream. [`run_batch`] then executes the jobs on a pool of workers that
//! claim indices in order from one shared atomic cursor.
//! Results are returned in job order regardless of which worker ran what,
//! so the output is bit-for-bit identical for every thread count — the §V
//! determinism contract extended from a single split to a whole sweep.

use std::sync::atomic::{AtomicUsize, Ordering};

/// One (matrix × method × ε) cell of a sweep, run on a named backend.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJob {
    /// Position in the canonical job order (matrix-major, then method,
    /// then ε). This is a convenience for slicing results, *not* a seed
    /// input.
    pub index: usize,
    /// Index of the matrix in the collection passed to [`expand_jobs`].
    pub matrix_index: usize,
    /// Index of the method label.
    pub method_index: usize,
    /// Index of the ε value.
    pub epsilon_index: usize,
    /// Canonical backend name (part of the seed key): cells run on
    /// different engines draw independent RNG streams, so adding a
    /// backend to a campaign cannot perturb any existing cell.
    pub backend: String,
    /// Matrix name (part of the seed key).
    pub matrix: String,
    /// Method label (part of the seed key).
    pub method: String,
    /// Load-imbalance parameter (part of the seed key).
    pub epsilon: f64,
    /// Stable per-job seed: [`job_seed`] of the (backend, matrix, method,
    /// ε) key.
    pub seed: u64,
}

/// SplitMix64 finaliser; mixes all input bits into all output bits.
fn splitmix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The stable seed of a sweep cell: FNV-1a over the (backend, matrix,
/// method, ε) key folded with the master seed. Depends only on the key,
/// never on where the cell sits in the job list.
pub fn job_seed(master: u64, backend: &str, matrix: &str, method: &str, epsilon: f64) -> u64 {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = FNV_OFFSET;
    for chunk in [
        backend.as_bytes(),
        &[0xFF],
        matrix.as_bytes(),
        &[0xFF],
        method.as_bytes(),
        &[0xFF],
    ] {
        for &b in chunk {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    for b in epsilon.to_bits().to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    splitmix(h ^ master)
}

/// Derives the seed of one repetition (`run`) within a job's stream.
pub fn run_seed(job: &BatchJob, run: u32) -> u64 {
    splitmix(job.seed ^ (u64::from(run) << 1 | 1))
}

/// Expands the (matrix × method × ε) cross product into the canonical job
/// list for one `backend`: matrix-major, then method, then ε.
pub fn expand_jobs(
    backend: &str,
    matrices: &[String],
    methods: &[String],
    epsilons: &[f64],
    master_seed: u64,
) -> Vec<BatchJob> {
    let mut jobs = Vec::with_capacity(matrices.len() * methods.len() * epsilons.len());
    for (matrix_index, matrix) in matrices.iter().enumerate() {
        for (method_index, method) in methods.iter().enumerate() {
            for (epsilon_index, &epsilon) in epsilons.iter().enumerate() {
                jobs.push(BatchJob {
                    index: jobs.len(),
                    matrix_index,
                    method_index,
                    epsilon_index,
                    backend: backend.to_string(),
                    matrix: matrix.clone(),
                    method: method.clone(),
                    epsilon,
                    seed: job_seed(master_seed, backend, matrix, method, epsilon),
                });
            }
        }
    }
    jobs
}

/// Resolves a requested worker count: positive values pass through, `0`
/// means one worker per available core (falling back to 4 when the
/// parallelism cannot be queried). The single resolution rule shared by
/// the sweep harness and the serving front end.
pub fn worker_count(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
}

/// Runs `worker(job_index)` for every index in `0..num_jobs` on `threads`
/// workers and returns the results **in job order**.
///
/// Scheduling: every worker claims the next index from one shared atomic
/// cursor (`fetch_add` claims each index exactly once) until the indices
/// run out, so a worker stuck on one slow cell cannot idle the rest of the
/// pool. The caller's `worker` must be a pure function of the index for
/// the output to be deterministic — seed it from the job key, not from
/// thread identity.
pub fn run_batch<T, F>(num_jobs: usize, threads: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(num_jobs.max(1));
    let next = AtomicUsize::new(0);

    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= num_jobs {
                            break;
                        }
                        out.push((index, worker(index)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });

    let mut tagged: Vec<(usize, T)> = per_worker.into_iter().flatten().collect();
    debug_assert_eq!(tagged.len(), num_jobs);
    tagged.sort_by_key(|&(index, _)| index);
    debug_assert!(tagged.iter().enumerate().all(|(i, &(index, _))| i == index));
    tagged.into_iter().map(|(_, value)| value).collect()
}

/// [`run_batch`] over an explicit job list: `worker(&jobs[i])` for every
/// job, results in job order.
pub fn run_jobs<T, F>(jobs: &[BatchJob], threads: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(&BatchJob) -> T + Sync,
{
    run_batch(jobs.len(), threads, |index| worker(&jobs[index]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn names(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{prefix}{i}")).collect()
    }

    #[test]
    fn expansion_covers_the_cross_product_in_canonical_order() {
        let jobs = expand_jobs("be", &names("m", 3), &names("M", 2), &[0.03, 0.1], 7);
        assert_eq!(jobs.len(), 12);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.index, i);
            assert_eq!(job.backend, "be");
        }
        // Matrix-major, then method, then epsilon.
        assert_eq!(jobs[0].matrix, "m0");
        assert_eq!(jobs[1].epsilon, 0.1);
        assert_eq!(jobs[2].method, "M1");
        assert_eq!(jobs[4].matrix, "m1");
    }

    #[test]
    fn seeds_depend_on_the_key_not_the_sweep_order() {
        let full = expand_jobs("be", &names("m", 3), &names("M", 3), &[0.03, 0.1], 42);
        // The same cell in a smaller sweep (fewer matrices, one method,
        // reversed epsilons) must get the same seed.
        let partial = expand_jobs(
            "be",
            &["m2".to_string()],
            &["M1".to_string()],
            &[0.1, 0.03],
            42,
        );
        let cell = full
            .iter()
            .find(|j| j.matrix == "m2" && j.method == "M1" && j.epsilon == 0.1)
            .unwrap();
        assert_eq!(cell.seed, partial[0].seed);
        assert_eq!(
            cell.seed,
            job_seed(42, "be", "m2", "M1", 0.1),
            "seed must be reproducible from the key alone"
        );
    }

    #[test]
    fn distinct_keys_get_distinct_seeds() {
        let jobs = expand_jobs("be", &names("m", 4), &names("M", 3), &[0.01, 0.03, 0.1], 9);
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), jobs.len());
    }

    #[test]
    fn distinct_backends_draw_independent_streams() {
        let a = job_seed(7, "mondriaan", "m0", "MG", 0.03);
        let b = job_seed(7, "patoh", "m0", "MG", 0.03);
        let c = job_seed(7, "geometric", "m0", "MG", 0.03);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn run_seed_streams_are_distinct_per_run() {
        let jobs = expand_jobs("be", &names("m", 1), &names("M", 1), &[0.03], 1);
        let a = run_seed(&jobs[0], 0);
        let b = run_seed(&jobs[0], 1);
        assert_ne!(a, b);
        assert_ne!(a, jobs[0].seed);
    }

    #[test]
    fn batch_results_come_back_in_job_order() {
        for threads in [1usize, 2, 3, 8, 19] {
            let out = run_batch(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicU32> = (0..57).map(|_| AtomicU32::new(0)).collect();
        let out = run_batch(counters.len(), 5, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), counters.len());
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn empty_batch_and_oversubscribed_pool() {
        assert!(run_batch(0, 8, |i| i).is_empty());
        assert_eq!(run_batch(3, 64, |i| i), vec![0, 1, 2]);
    }
}
