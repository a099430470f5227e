//! Concurrent cells that make one launch simulate it once: a suite pass
//! serves the same launches from the memo at any worker count, because a
//! miss on a launch already in flight waits for its result.

use harness::{run_suite, to_jsonl};
use kernel_ir::memo::{clear, reuse_count};

#[test]
fn every_pair_launch_is_reused_at_any_thread_count() {
    let benches = hpc_kernels::test_suite();
    let pass = |threads| {
        sim_pool::set_threads(threads);
        clear();
        let before = reuse_count();
        let out = to_jsonl(&run_suite(&benches, false));
        (reuse_count() - before, out)
    };
    let (serial, expected) = pass(1);
    // 18 (bench, precision) pairs; red's CPU version makes two launches.
    assert!(serial >= 20, "only {serial} launches reused at one thread");
    for threads in [2, 8] {
        let (reused, out) = pass(threads);
        assert_eq!(reused, serial, "launches reused at {threads} threads");
        assert_eq!(out, expected, "bytes at {threads} threads");
    }
}
