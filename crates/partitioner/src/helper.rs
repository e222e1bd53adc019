//! The idle-core gate: at most one helper thread per bipartition, and only
//! while a core would otherwise sit idle.
//!
//! Two pieces of a large bipartition are independent of each other: the
//! FM polish of the initial candidates, and the KL run of Algorithm 2's
//! other direction. A [`Spare`] runs such work on one scoped helper
//! thread, one job at a time, while its caller goes on. A helper works
//! only while the process-wide count of threads inside a bipartition
//! (callers marked by [`enter`] plus working helpers) is below
//! `available_parallelism()`. So a fully loaded sweep or service never
//! oversubscribes its cores, and a lone request borrows the core that
//! would otherwise idle.
//!
//! Callers combine the two results so that they never depend on whether
//! the helper ran: the determinism contract holds at any load.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::OnceLock;
use std::thread::Scope;

/// Threads currently inside a bipartition: entered callers plus running
/// helpers.
static BUSY: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Nesting depth of [`enter`] on this thread; only the outermost
    /// guard counts the thread as busy.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Cores the process may use, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether a bipartition may run work on a helper thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Helper {
    /// Spawn a helper only for a large input and only through the
    /// idle-core gate — what every production path uses.
    Gated,
    /// Always spawn one, whatever the size and the load: lets tests pin
    /// the parallel path to the sequential one.
    Always,
    /// Never spawn one.
    Never,
}

/// Marks the calling thread as inside a bipartition until dropped; see
/// [`enter`].
#[must_use = "the thread counts as busy only while the guard lives"]
pub struct Occupancy {
    /// The guard belongs to the thread whose depth it raised.
    _not_send: PhantomData<*const ()>,
}

/// Counts the calling thread as inside a bipartition for the idle-core
/// gate. Reentrant: nested calls (recursive bisection, IR after a
/// multilevel run) count the thread once.
pub fn enter() -> Occupancy {
    DEPTH.with(|depth| {
        if depth.get() == 0 {
            BUSY.fetch_add(1, Ordering::SeqCst);
        }
        depth.set(depth.get() + 1);
    });
    Occupancy {
        _not_send: PhantomData,
    }
}

impl Drop for Occupancy {
    fn drop(&mut self) {
        DEPTH.with(|depth| {
            depth.set(depth.get() - 1);
            if depth.get() == 0 {
                BUSY.fetch_sub(1, Ordering::SeqCst);
            }
        });
    }
}

/// A claimed helper slot; released when the helper finishes, panics
/// included.
struct Slot;

impl Drop for Slot {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Claims a helper slot if the policy grants one: under [`Helper::Gated`]
/// only for a `large` input and while a core is idle.
fn claim(helper: Helper, large: bool) -> Option<Slot> {
    match helper {
        Helper::Never => None,
        Helper::Always => {
            BUSY.fetch_add(1, Ordering::SeqCst);
            Some(Slot)
        }
        Helper::Gated => {
            if !large {
                return None;
            }
            let cores = cores();
            BUSY.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |busy| {
                (busy < cores).then_some(busy + 1)
            })
            .ok()
            .map(|_| Slot)
        }
    }
}

/// `true` when, under [`Helper::Gated`], more threads are inside a
/// bipartition than there are cores — a worker started one after this
/// helper was granted. A helper that takes work piece by piece stops
/// taking more, leaving the rest to its caller.
pub fn crowded(helper: Helper) -> bool {
    helper == Helper::Gated && BUSY.load(Ordering::SeqCst) > cores()
}

/// The helper thread of one bipartition: takes one job at a time, never
/// makes its caller wait for a job the caller no longer needs, and holds
/// a slot of the idle-core gate only while it works.
///
/// The thread is spawned on the first granted [`offer`](Self::offer) and
/// ends when the `Spare` drops (after finishing the job in hand; the
/// enclosing scope joins it).
pub struct Spare<'scope, 'env, J, R> {
    scope: &'scope Scope<'scope, 'env>,
    helper: Helper,
    large: bool,
    /// The work, until the thread is spawned and takes it.
    work: Option<Box<dyn FnMut(J) -> R + Send + 'scope>>,
    jobs: Option<Sender<(J, Slot)>>,
    results: Option<Receiver<R>>,
    /// A job was handed over and its result not yet collected.
    busy: bool,
}

impl<'scope, 'env, J: Send + 'scope, R: Send + 'scope> Spare<'scope, 'env, J, R> {
    /// A helper for `scope` that runs `work` on each job it accepts, under
    /// `helper`'s policy (`large` is the input-size half of the gate).
    pub fn new(
        scope: &'scope Scope<'scope, 'env>,
        helper: Helper,
        large: bool,
        work: impl FnMut(J) -> R + Send + 'scope,
    ) -> Self {
        Spare {
            scope,
            helper,
            large,
            work: Some(Box::new(work)),
            jobs: None,
            results: None,
            busy: false,
        }
    }

    /// Hands the helper `job()` if it is idle and the gate grants a slot;
    /// returns whether it did. A result left over from an earlier job
    /// (one its caller did not [`take`](Self::take)) is discarded.
    pub fn offer(&mut self, job: impl FnOnce() -> J) -> bool {
        if self.busy {
            let finished = self.results.as_ref().is_some_and(|r| r.try_recv().is_ok());
            if !finished {
                return false;
            }
            self.busy = false;
        }
        let Some(slot) = claim(self.helper, self.large) else {
            return false;
        };
        if let Some(mut work) = self.work.take() {
            let (job_tx, job_rx) = mpsc::channel::<(J, Slot)>();
            let (result_tx, result_rx) = mpsc::channel();
            self.scope.spawn(move || {
                for (job, slot) in job_rx {
                    let result = work(job);
                    drop(slot);
                    if result_tx.send(result).is_err() {
                        break;
                    }
                }
            });
            self.jobs = Some(job_tx);
            self.results = Some(result_rx);
        }
        let handed = self
            .jobs
            .as_ref()
            .is_some_and(|jobs| jobs.send((job(), slot)).is_ok());
        self.busy = handed;
        handed
    }

    /// Waits for the result of the job last handed over by
    /// [`offer`](Self::offer).
    ///
    /// # Panics
    /// If no job is outstanding, or the helper panicked.
    pub fn take(&mut self) -> R {
        assert!(self.busy, "no job outstanding");
        self.busy = false;
        self.results
            .as_ref()
            .and_then(|results| results.recv().ok())
            .expect("helper thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spare_runs_jobs_on_another_thread() {
        let caller = std::thread::current().id();
        std::thread::scope(|scope| {
            let mut spare = Spare::new(scope, Helper::Always, false, |()| {
                std::thread::current().id()
            });
            assert!(spare.offer(|| ()));
            assert_ne!(spare.take(), caller);
        });
    }

    #[test]
    fn gated_spare_skips_small_inputs() {
        std::thread::scope(|scope| {
            let mut spare = Spare::new(scope, Helper::Gated, false, |()| ());
            assert!(!spare.offer(|| ()));
        });
    }

    #[test]
    fn spare_declines_while_busy_and_drops_uncollected_results() {
        std::thread::scope(|scope| {
            let mut spare = Spare::new(scope, Helper::Always, false, |x: u64| x * 2);
            assert!(spare.offer(|| 21));
            assert_eq!(spare.take(), 42);
            // Left uncollected: the next offer drops it once finished, or
            // declines while the helper is still on it.
            assert!(spare.offer(|| 1));
            while !spare.offer(|| 5) {
                std::thread::yield_now();
            }
            assert_eq!(spare.take(), 10);
        });
        std::thread::scope(|scope| {
            let mut spare = Spare::new(scope, Helper::Never, true, |x: u64| x);
            assert!(!spare.offer(|| 1));
        });
    }

    #[test]
    fn enter_is_reentrant() {
        // Other tests run concurrently, so only this thread's own
        // contribution is observable: nested guards leave depth 2 and
        // the last drop returns it to 0.
        let outer = enter();
        let inner = enter();
        assert_eq!(DEPTH.with(Cell::get), 2);
        drop(inner);
        assert_eq!(DEPTH.with(Cell::get), 1);
        drop(outer);
        assert_eq!(DEPTH.with(Cell::get), 0);
    }
}
