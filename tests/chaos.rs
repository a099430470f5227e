//! Chaos-mode acceptance: under a fixed `--fault-seed`, the suite must
//! survive every injected failure (no panic escapes the harness), record
//! the casualties as structured failure rows, stay byte-identical across
//! thread counts, and resume from a truncated checkpoint to the exact
//! artifacts of an uninterrupted run. The plan rides in
//! `SuiteConfig::faults` alone — worker deaths included.

use harness::{decode_entry, run_suite_with, to_csv, to_jsonl, CellEntry, SuiteConfig};
use hpc_kernels::test_suite;
use sim_server::cache::Cache;

const SEED: u64 = 7;

/// The cells a checkpoint file restores.
fn load(path: &std::path::Path) -> Vec<CellEntry> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut cache = Cache::new(usize::MAX);
    cache
        .restore(text.as_bytes(), |p| decode_entry(p).map(|_| p.to_owned()))
        .expect("a simcache file");
    text.lines()
        .filter_map(|l| cache.peek(l.split('|').next()?.parse().ok()?))
        .map(|c| decode_entry(&c.value).unwrap())
        .collect()
}

fn chaos_cfg() -> SuiteConfig {
    SuiteConfig {
        faults: Some(sim_faults::FaultPlan::new(SEED)),
        state_tag: "test".into(),
        ..SuiteConfig::default()
    }
}

#[test]
fn chaos_suite_survives_and_stays_deterministic() {
    // Injected panics are expected; keep them out of the test log but
    // leave genuine panics (test bugs) loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| sim_faults::is_injected(s))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    // The suite completes under fire at any thread count — the call
    // returning at all means no injected panic escaped cell isolation.
    sim_pool::set_threads(1);
    let r1 = run_suite_with(&test_suite(), &chaos_cfg());
    sim_pool::set_threads(8);
    let r8 = run_suite_with(&test_suite(), &chaos_cfg());

    let (ok, skipped, failed) = r8.counts();
    assert_eq!(ok + skipped + failed, 9 * 4 * 2, "no cell lost");
    assert!(ok > 0, "chaos must not kill everything at these rates");
    assert!(
        failed > 0,
        "seed {SEED} is known to produce at least one failure at test scale"
    );
    // Failed cells carry structured, tagged diagnostics.
    for (key, err) in r8.failed_cells() {
        assert!(
            sim_faults::is_injected(&err.message) || err.message.contains("CL_OUT_OF_RESOURCES"),
            "unexpected genuine failure in {key:?}: {err:?}"
        );
    }
    // Fault stats actually fired across sites.
    let fired: u64 = sim_faults::stats().iter().map(|(_, n)| n).sum();
    assert!(fired > 0, "no faults fired");

    // Same seed, different thread counts: byte-identical artifacts, and
    // the failure rows appear in them.
    let csv = to_csv(&r8);
    assert_eq!(to_csv(&r1), csv, "chaos CSV differs across thread counts");
    assert_eq!(
        to_jsonl(&r1),
        to_jsonl(&r8),
        "chaos JSONL differs across thread counts"
    );
    assert!(csv.contains(",fail,"), "failure rows missing from CSV");
    assert!(to_jsonl(&r8).contains("\"status\":\"fail\""));

    // ---- interrupted + resumed == uninterrupted ----
    let state = std::env::temp_dir().join(format!("chaos-suite-{}.state", std::process::id()));
    let _ = std::fs::remove_file(&state);
    let full_cfg = SuiteConfig {
        checkpoint: Some(state.clone()),
        ..chaos_cfg()
    };
    let r_full = run_suite_with(&test_suite(), &full_cfg);
    assert_eq!(
        to_csv(&r_full),
        csv,
        "checkpointing must not change results"
    );

    // Simulate a crash partway through: keep the magic line and the first
    // 20 finished cells, drop the rest.
    let text = std::fs::read_to_string(&state).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "simcache v1");
    assert!(lines.len() > 23, "expected a populated state file");
    let truncated: String = lines[..21].iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&state, truncated).unwrap();
    assert_eq!(load(&state).len(), 20, "truncated state still loads");

    let resume_cfg = SuiteConfig {
        checkpoint: Some(state.clone()),
        resume: true,
        ..chaos_cfg()
    };
    let r_resumed = run_suite_with(&test_suite(), &resume_cfg);
    assert_eq!(
        to_csv(&r_resumed),
        csv,
        "resumed artifacts differ from uninterrupted run"
    );
    assert_eq!(to_jsonl(&r_resumed), to_jsonl(&r_full));
    // The rewritten checkpoint converged to the full state again,
    // worker-panicked cells included: a worker death rolls on the cell's
    // key, so its row is recorded like any other failure.
    let final_cells = load(&state);
    let is_worker_panic = |e: &CellEntry| matches!(e, CellEntry::Failed(f) if f.kind == harness::FailKind::WorkerPanic);
    let worker_panics = r_full.cells.values().filter(|e| is_worker_panic(e)).count();
    assert!(worker_panics > 0, "seed {SEED} kills at least one worker");
    assert_eq!(final_cells.len(), 9 * 4 * 2);
    assert_eq!(
        final_cells.iter().filter(|e| is_worker_panic(e)).count(),
        worker_panics
    );
    let _ = std::fs::remove_file(&state);
}
