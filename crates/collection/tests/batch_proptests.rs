//! Property tests for the batch scheduler: no job lost, none duplicated,
//! output order independent of thread count, seeds a pure function of the
//! job key.

use mg_collection::batch::{expand_jobs, job_seed, run_batch};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

proptest! {
    #[test]
    fn every_index_executes_exactly_once(
        num_jobs in 0usize..180,
        threads in 1usize..24,
    ) {
        let counters: Vec<AtomicU32> = (0..num_jobs).map(|_| AtomicU32::new(0)).collect();
        let out = run_batch(num_jobs, threads, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        prop_assert_eq!(out.len(), num_jobs);
        for (i, c) in counters.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "job {} ran {} times",
                i, c.load(Ordering::Relaxed));
        }
    }

    #[test]
    fn results_are_in_job_order_for_any_thread_count(
        num_jobs in 0usize..150,
        threads in 1usize..24,
    ) {
        let out = run_batch(num_jobs, threads, |i| 3 * i + 1);
        prop_assert_eq!(out, (0..num_jobs).map(|i| 3 * i + 1).collect::<Vec<_>>());
    }

    #[test]
    fn expansion_is_a_bijection_onto_the_cross_product(
        matrices in 1usize..10,
        methods in 1usize..6,
        epsilons in 1usize..5,
        master in proptest::strategy::Just(0x5EEDu64),
    ) {
        let names: Vec<String> = (0..matrices).map(|i| format!("m{i}")).collect();
        let labels: Vec<String> = (0..methods).map(|i| format!("M{i}")).collect();
        let eps: Vec<f64> = (1..=epsilons).map(|i| i as f64 / 100.0).collect();
        let jobs = expand_jobs("backend", &names, &labels, &eps, master);
        prop_assert_eq!(jobs.len(), matrices * methods * epsilons);
        // Every cell appears exactly once and carries the seed of its key.
        let mut seen = std::collections::HashSet::new();
        for job in &jobs {
            prop_assert!(
                seen.insert((job.matrix_index, job.method_index, job.epsilon_index)),
                "cell ({}, {}, {}) duplicated",
                job.matrix_index, job.method_index, job.epsilon_index
            );
            prop_assert_eq!(
                job.seed,
                job_seed(master, &job.backend, &job.matrix, &job.method, job.epsilon)
            );
        }
    }

    #[test]
    fn scheduling_survives_wildly_uneven_job_costs(
        threads in 1usize..16,
    ) {
        // Job 0 is made much slower than the rest; the pool must still
        // produce the complete, ordered result set.
        let out = run_batch(40, threads, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        prop_assert_eq!(out, (0..40).collect::<Vec<_>>());
    }
}
