//! The idle-core gate: at most one helper thread per bipartition, and only
//! while a core would otherwise sit idle.
//!
//! Two pieces of a large bipartition are independent of each other: the
//! FM polish of the initial candidates, and the KL run of Algorithm 2's
//! other direction. [`spawn`] runs such a piece on a scoped helper thread
//! while its caller goes on; a caller keeps at most one helper
//! outstanding. A helper is spawned only while the process-wide count of
//! threads inside a bipartition (callers marked by [`enter`] plus running
//! helpers) is below `available_parallelism()`. So a fully loaded sweep
//! or service never oversubscribes its cores, and a lone request borrows
//! the core that would otherwise idle.
//!
//! Callers combine the two results so that they never depend on whether
//! the helper ran: the determinism contract holds at any load.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::{Scope, ScopedJoinHandle};

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

/// Runs `work` on a scoped thread named `mg-helper` if `helper`'s policy
/// grants a slot of the idle-core gate (under [`Helper::Gated`]: only for
/// a `large` input and while a core is idle); `None` otherwise. The slot
/// is released when `work` returns or panics, and also when the OS
/// refuses the thread, in which case this returns `None` and the caller
/// does the work itself.
pub fn spawn<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    helper: Helper,
    large: bool,
    work: impl FnOnce() -> T + Send + 'scope,
) -> Option<ScopedJoinHandle<'scope, T>> {
    let slot = claim(helper, large)?;
    std::thread::Builder::new()
        .name("mg-helper".into())
        .spawn_scoped(scope, move || {
            let _slot = slot;
            work()
        })
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_follows_the_policy() {
        std::thread::scope(|scope| {
            let name = spawn(scope, Helper::Always, false, || {
                std::thread::current().name().map(str::to_owned)
            });
            let name = name.expect("always granted").join().unwrap();
            assert_eq!(name.as_deref(), Some("mg-helper"));
            assert!(spawn(scope, Helper::Gated, false, || ()).is_none());
            assert!(spawn(scope, Helper::Never, true, || ()).is_none());
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
