//! `sim-pool` — a std-only work-stealing thread pool with scoped fork/join.
//!
//! The simulation stack is embarrassingly parallel at two levels (suite
//! cells, work-groups) but the workspace is offline-only, so this crate
//! provides the minimum machinery those levels need with zero external
//! dependencies:
//!
//! * [`parallel_map`] — run `f(0..n)` across worker threads and return the
//!   results **in index order**. Threads are spawned scoped
//!   ([`std::thread::scope`]), so `f` may borrow from the caller's stack.
//! * a per-worker [`deque::TaskDeque`] (fixed-capacity Chase–Lev) so idle
//!   workers steal from busy ones instead of waiting on a shared lock.
//! * a global thread-count knob: [`set_threads`] (wired to `--threads N` in
//!   the harness) or the `SIM_THREADS` environment variable, defaulting to
//!   [`std::thread::available_parallelism`].
//!
//! Nested calls never oversubscribe: a `parallel_map` issued from inside a
//! worker runs serially inline ([`in_worker`]), which is exactly what the
//! two-level suite-cells / work-groups nesting wants.
//!
//! A panic in any task is caught, the remaining tasks are abandoned, and the
//! first panic payload is re-raised on the caller thread after all workers
//! have joined — the same contract as `std::thread::scope`.

pub mod deque;

use deque::{Steal, TaskDeque};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Hard cap on the configured thread count; protects against absurd
/// `SIM_THREADS` values.
pub const MAX_THREADS: usize = 256;

/// 0 = not yet resolved (lazily read from `SIM_THREADS` / host parallelism).
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when called from inside a pool worker (including the caller thread
/// while it participates in a `parallel_map`).
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Override the global worker count (e.g. from `--threads N`). Clamped to
/// `1..=MAX_THREADS`.
pub fn set_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// The configured worker count: an explicit [`set_threads`] value, else
/// `SIM_THREADS`, else the host's available parallelism.
pub fn threads() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let resolved = default_threads();
    // Benign race: every contender computes the same value.
    let _ = THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    THREADS.load(Ordering::Relaxed)
}

fn default_threads() -> usize {
    if let Ok(s) = std::env::var("SIM_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            return n.clamp(1, MAX_THREADS);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(MAX_THREADS))
        .unwrap_or(1)
}

/// Result slots shared across workers. Each slot is written by exactly one
/// task (ownership of an index is handed out once by the deques), then read
/// only after every worker has joined.
struct Slots<T>(Vec<std::cell::UnsafeCell<Option<T>>>);

// SAFETY: disjoint slots are written by distinct tasks; the deque CAS hands
// each index to exactly one worker, and results are read after the scope
// joins (a happens-before edge via thread join).
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    /// SAFETY: must be called at most once per index, from the single worker
    /// that owns the task.
    unsafe fn set(&self, i: usize, v: T) {
        *self.0[i].get() = Some(v);
    }
}

/// Run `f(i)` for `i in 0..n` on the global pool and collect the results in
/// index order. See [`parallel_map_threads`].
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_threads(threads(), n, f)
}

/// Run `f(i)` for `i in 0..n` on `threads` workers (the caller participates
/// as worker 0) and collect the results in index order.
///
/// Runs serially inline when `threads <= 1`, `n <= 1`, or when already inside
/// a pool worker (nested parallelism would oversubscribe the host).
pub fn parallel_map_threads<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 || in_worker() {
        return (0..n).map(f).collect();
    }

    let workers = threads.min(n);
    // Contiguous blocks per worker: preserves locality, and the steal end
    // (FIFO) hands thieves the far end of a block.
    let deques: Vec<TaskDeque> = (0..workers)
        .map(|_| TaskDeque::with_capacity(n.div_ceil(workers) + 1))
        .collect();
    for i in 0..n {
        let owner = i * workers / n;
        assert!(deques[owner].push(i), "deque sized for its block");
    }

    let slots: Slots<T> = Slots((0..n).map(|_| std::cell::UnsafeCell::new(None)).collect());
    let panicked = AtomicBool::new(false);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let worker = |id: usize| {
        let was = IN_WORKER.with(|w| w.replace(true));
        loop {
            if panicked.load(Ordering::Relaxed) {
                break;
            }
            let task = deques[id].pop().or_else(|| steal_any(&deques, id));
            let Some(i) = task else { break };
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(v) => unsafe { slots.set(i, v) },
                Err(p) => {
                    panicked.store(true, Ordering::Relaxed);
                    let mut slot = panic_payload.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(p);
                    }
                }
            }
        }
        IN_WORKER.with(|w| w.set(was));
    };

    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|id| s.spawn(move || worker(id))).collect();
        worker(0);
        for h in handles {
            let _ = h.join();
        }
    });

    if let Some(p) = panic_payload
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
    {
        resume_unwind(p);
    }

    slots
        .0
        .into_iter()
        .map(|c| c.into_inner().expect("every task produced a result"))
        .collect()
}

/// A task that panicked inside [`try_parallel_map`], reduced to its message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

/// Extract a human-readable message from a panic payload.
pub fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Like [`parallel_map`], but each task is individually isolated: a panic in
/// task `i` yields `Err(TaskPanic)` in slot `i` instead of poisoning the
/// whole map. The remaining tasks still run to completion.
///
/// The pool injects no faults of its own. Deterministic worker deaths are
/// the caller's: the harness rolls them inside each cell task from that
/// cell's own fault plan, and this isolation turns them into per-task
/// `Err`s at any thread count.
pub fn try_parallel_map<T, F>(n: usize, f: F) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map(n, |i| {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| TaskPanic {
            message: panic_message(&p),
        })
    })
}

/// Scan the other deques for work; retry while any steal hits a race.
fn steal_any(deques: &[TaskDeque], id: usize) -> Option<usize> {
    let w = deques.len();
    loop {
        let mut contended = false;
        for k in 1..w {
            match deques[(id + k) % w].steal() {
                Steal::Taken(i) => return Some(i),
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
        }
        if !contended {
            return None;
        }
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_identity_in_order() {
        let out = parallel_map_threads(8, 1000, |i| i * 3);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn serial_paths_match_parallel() {
        let serial = parallel_map_threads(1, 64, |i| i as u64 * i as u64);
        let par = parallel_map_threads(4, 64, |i| i as u64 * i as u64);
        assert_eq!(serial, par);
    }

    #[test]
    fn zero_and_one_tasks() {
        assert_eq!(parallel_map_threads(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_threads(8, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn try_map_isolates_panics() {
        let out = try_parallel_map(16, |i| {
            if i % 5 == 3 {
                panic!("boom at {i}");
            }
            i * 2
        });
        assert_eq!(out.len(), 16);
        for (i, r) in out.iter().enumerate() {
            if i % 5 == 3 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.message, format!("boom at {i}"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2);
            }
        }
    }

    #[test]
    fn try_map_all_ok_matches_plain_map() {
        let plain = parallel_map_threads(4, 32, |i| i + 1);
        let tried: Vec<usize> = try_parallel_map(32, |i| i + 1)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(plain, tried);
    }

    #[test]
    fn threads_clamped() {
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(8);
        assert_eq!(threads(), 8);
    }
}
