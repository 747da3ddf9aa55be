//! Zero-dependency data-parallel executor.
//!
//! The simulation-dominated hot paths of this workspace (per-node flip
//! influence, per-candidate scoring, blocks of LAC-generation pivots,
//! blocked Monte-Carlo measurement, the per-circuit loops of the
//! experiment binaries) are embarrassingly
//! parallel: every work item is a pure function of shared read-only
//! state. This module fans such loops out over OS threads while keeping
//! the workspace's two non-negotiable properties:
//!
//! * **Hermetic.** No external crates (no rayon): plain
//!   [`std::thread::scope`] plus an atomic work counter. Because the
//!   workspace forbids `unsafe`, a persistent pool (which would need
//!   lifetime-erased job queues) is off the table; instead, worker
//!   threads are spawned per call and borrow the caller's data through
//!   the scope. Spawn cost is a few tens of microseconds per worker —
//!   negligible against the millisecond-scale loops this wraps, and the
//!   primitives fall back to inline execution for tiny inputs.
//! * **Deterministic.** Results are collected by item index, so
//!   [`par_map`] / [`par_indices`] return exactly what the serial loop
//!   would: output is **bit-identical regardless of thread count**. Work
//!   items must themselves be pure (same input → same output), which
//!   every caller in this workspace guarantees by construction.
//!
//! The worker count comes from `ALSRAC_THREADS` when set (a positive
//! integer; `1` short-circuits every primitive to inline execution) and
//! otherwise from [`std::thread::available_parallelism`], read once and
//! cached. Tests and benchmarks that need to compare thread counts inside
//! one process use [`with_threads`], a scoped override.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::OnceLock;

/// Cached `ALSRAC_THREADS` / `available_parallelism` decision.
static CONFIGURED: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Scoped override installed by [`with_threads`] (0 = none).
    static OVERRIDE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Set inside pool workers so nested primitives run inline instead of
    /// oversubscribing the machine.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Parses an `ALSRAC_THREADS` value: a positive integer selects that many
/// workers; `0`, empty, or garbage fall back to auto-detection (`None`).
fn parse_threads(value: &str) -> Option<usize> {
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// The worker count from the environment / hardware, cached on first use.
///
/// `ALSRAC_THREADS` wins when it parses to a positive integer; otherwise
/// [`std::thread::available_parallelism`] decides (1 when even that is
/// unavailable).
pub fn configured_threads() -> usize {
    *CONFIGURED.get_or_init(|| {
        std::env::var("ALSRAC_THREADS")
            .ok()
            .as_deref()
            .and_then(parse_threads)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The worker count in effect on this thread: a [`with_threads`] override
/// when active, the cached configuration otherwise.
pub fn current_threads() -> usize {
    let overridden = OVERRIDE.with(|o| o.get());
    if overridden > 0 {
        overridden
    } else {
        configured_threads()
    }
}

/// Runs `f` with the worker count forced to `threads` on this thread.
///
/// The override nests and always restores the previous value, including on
/// panic. It exists for determinism tests and benchmarks that compare
/// serial (`threads = 1`) against parallel execution inside one process —
/// production callers should rely on `ALSRAC_THREADS` instead.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads > 0, "worker count must be positive");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(threads)));
    f()
}

/// Maps `f` over `0..n` in parallel, returning results in index order.
///
/// The scheduling is dynamic (an atomic counter hands out indices), so
/// uneven items balance across workers, but placement is by index: the
/// result is identical to `(0..n).map(f).collect()` whenever `f` is pure.
/// Runs inline when the effective worker count is 1, when `n < 2`, or when
/// called from inside another pool primitive.
pub fn par_indices<U: Send>(n: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    par_indices_init(n, || (), |(), i| f(i))
}

/// Maps `f` over a slice in parallel, preserving input order.
///
/// Equivalent to `items.iter().map(f).collect()` for pure `f`, at any
/// thread count.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    par_indices_init(items.len(), || (), |(), i| f(&items[i]))
}

/// Like [`par_indices`], with a per-worker scratch state.
///
/// `init` runs once per worker (once total on the inline path) and the
/// resulting state is threaded through every item that worker processes —
/// the idiom for reusable arenas (e.g. simulation scratch buffers) whose
/// allocation should not be paid per item. Determinism is unchanged:
/// results are placed by index, so `f` must be pure *given a warmed-up
/// scratch* — the scratch may cache capacity but must not leak values
/// between items.
pub fn par_indices_init<S, U: Send>(
    n: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> U + Sync,
) -> Vec<U> {
    let threads = current_threads().min(n);
    if threads <= 1 || IN_POOL.with(|p| p.get()) {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, U)>();
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let init = &init;
            let f = &f;
            scope.spawn(move || {
                IN_POOL.with(|p| p.set(true));
                let mut scratch = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // The receiver outlives the scope; a send can only fail
                    // after a sibling worker panicked, and then the scope
                    // itself propagates that panic.
                    let _ = tx.send((i, f(&mut scratch, i)));
                }
            });
        }
        drop(tx);
        for (i, value) in rx {
            slots[i] = Some(value);
        }
    });
    slots
        .into_iter()
        .map(|v| v.expect("every index was dispatched exactly once"))
        .collect()
}

/// Like [`par_map`], with a per-worker scratch state (see
/// [`par_indices_init`]).
pub fn par_map_init<T: Sync, S, U: Send>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> U + Sync,
) -> Vec<U> {
    par_indices_init(items.len(), init, |scratch, i| f(scratch, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_indices_preserves_order() {
        let got = with_threads(4, || par_indices(100, |i| i * i));
        let want: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_matches_serial_map_at_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let serial: Vec<u64> = items.iter().map(f).collect();
        for threads in [1, 2, 3, 8] {
            let parallel = with_threads(threads, || par_map(&items, f));
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_run_inline() {
        let empty: Vec<u8> = Vec::new();
        assert!(with_threads(8, || par_map(&empty, |&b| b)).is_empty());
        assert_eq!(with_threads(8, || par_indices(1, |i| i + 7)), vec![7]);
    }

    #[test]
    fn with_threads_nests_and_restores() {
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
        // Outside any override the configured count is in effect.
        assert_eq!(current_threads(), configured_threads());
    }

    #[test]
    fn nested_primitives_run_inline_in_workers() {
        // A nested par_indices inside a worker must not deadlock or
        // oversubscribe; it runs inline and still returns ordered results.
        let got = with_threads(4, || {
            par_indices(8, |i| par_indices(4, move |j| i * 10 + j))
        });
        for (i, inner) in got.iter().enumerate() {
            assert_eq!(inner, &vec![i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3]);
        }
    }

    #[test]
    fn par_map_init_matches_serial_at_every_thread_count() {
        // Scratch caches capacity only; results must not depend on which
        // worker processed which item.
        let items: Vec<usize> = (0..97).collect();
        let run = |threads| {
            with_threads(threads, || {
                par_map_init(&items, Vec::<u64>::new, |scratch: &mut Vec<u64>, &x| {
                    scratch.clear();
                    scratch.extend((0..=x as u64).map(|v| v * v));
                    scratch.iter().sum::<u64>()
                })
            })
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_indices_init_runs_init_once_per_worker_inline() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let got = with_threads(1, || {
            par_indices_init(
                5,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |(), i| i * 2,
            )
        });
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
        assert_eq!(inits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("many"), None);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_indices(16, |i| {
                    assert!(i != 11, "boom");
                    i
                })
            })
        });
        assert!(result.is_err());
    }
}
