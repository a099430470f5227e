//! Concurrent cells that make one launch simulate it once: a suite pass
//! serves the same launches from the memo at any worker count, because a
//! miss on a launch already in flight waits for its result. A second pass
//! in the same process simulates nothing, and still counts the optimizer
//! runs its launches stand for.

use harness::{run_suite_with, to_jsonl, SuiteConfig};
use kernel_ir::memo::{clear, reuse_count, simulated_count};
use kernel_ir::opt::{stats, PassCounters, Pipeline};
use std::sync::Mutex;

/// The memo, its counters, the pass counters and the worker count are
/// process-wide, so the tests in this binary take turns.
static TURN: Mutex<()> = Mutex::new(());

fn turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// One test-scale suite pass: (launches simulated, launches reused, jsonl).
fn pass(passes: Option<&Pipeline>) -> (u64, u64, String) {
    let cfg = SuiteConfig {
        passes: passes.cloned(),
        ..SuiteConfig::default()
    };
    let (simulated, reused) = (simulated_count(), reuse_count());
    let out = to_jsonl(&run_suite_with(&hpc_kernels::test_suite(), &cfg));
    (simulated_count() - simulated, reuse_count() - reused, out)
}

#[test]
fn every_pair_launch_is_reused_at_any_thread_count() {
    let _turn = turn();
    let first_pass = |threads| {
        sim_pool::set_threads(threads);
        clear();
        pass(None)
    };
    let (simulated, serial, expected) = first_pass(1);
    // Each of the 18 OpenMP cells reuses its Serial sibling's launch, and
    // red's two OpenMP cells its second launch too (20). hist counts
    // integers in both precisions, so its double-precision Serial, OpenCL
    // and OpenCL-Opt launches reuse the single-precision ones (3).
    assert_eq!(serial, 23, "launches reused at one thread");
    for threads in [2, 8] {
        let (s, reused, out) = first_pass(threads);
        assert_eq!((s, reused), (simulated, serial), "at {threads} threads");
        assert_eq!(out, expected, "bytes at {threads} threads");
    }
}

#[test]
fn a_repeated_suite_pass_simulates_nothing() {
    let _turn = turn();
    for passes in [None, Some(Pipeline::full())] {
        for threads in [1, 8] {
            sim_pool::set_threads(threads);
            clear();
            let (simulated, reused, first) = pass(passes.as_ref());
            let (again, all_reused, second) = pass(passes.as_ref());
            let at = format!("passes {passes:?}, {threads} threads");
            assert_eq!(again, 0, "{at}: the second pass simulated");
            assert_eq!(all_reused, simulated + reused, "{at}: launches reused");
            assert_eq!(second, first, "{at}: bytes");
        }
    }
}

/// A launch that reuses a stored optimizer run counts that run's
/// counters, so a pass reads the same `opt::stats` delta whether its
/// launches optimized or hit.
#[test]
fn a_repeated_pass_counts_the_optimizer_as_the_first() {
    let _turn = turn();
    fn delta(a: PassCounters, b: PassCounters) -> [u64; 9] {
        let f = |c: PassCounters| {
            [
                c.programs,
                c.folded,
                c.propagated,
                c.simplified,
                c.reduced,
                c.numbered,
                c.hoisted,
                c.dead_stores,
                c.dead_code,
            ]
        };
        let (a, b) = (f(a), f(b));
        std::array::from_fn(|i| b[i] - a[i])
    }
    sim_pool::set_threads(1);
    clear();
    let full = Pipeline::full();
    let s0 = stats();
    pass(Some(&full));
    let s1 = stats();
    pass(Some(&full));
    let s2 = stats();
    assert!(s1.programs > s0.programs, "the pipeline ran");
    assert_eq!(delta(s1, s2), delta(s0, s1));
}
