//! `bench-self` — the simulator benchmarking itself.
//!
//! Runs the warm suite once per (engine, worker-thread) combination —
//! scalar and columnar interpreters at 1 and 8 workers — and reports the
//! wall-clock of each pass. Because both engines are bit-deterministic
//! *and* bit-identical to each other, all four passes must produce
//! byte-identical CSV/JSONL exports — `--check` turns that invariant into
//! a hard failure (exit 2), which is what CI runs.
//!
//! Results are written as `BENCH_sim.json` (at the current directory, i.e.
//! the repo root when invoked from there) so speedups can be tracked
//! across commits: `columnar_speedup` is the single-thread interpreter
//! gain from the SoA rewrite, `parallel_speedup` the threading gain on
//! top of it (`null` on a host with one hardware thread, where threading
//! cannot gain and the ratio would only measure noise), and `per_bench`
//! breaks the single-thread comparison down by family (interpreter-bound
//! families vs device-model-bound ones).

use crate::{run_suite, run_suite_with, to_csv, to_jsonl, SuiteConfig};
use hpc_kernels::Benchmark;
use kernel_ir::opt::Pipeline;
use kernel_ir::Engine;
use std::time::Instant;

/// Worker counts every pass is measured at, mirroring the CI matrix.
pub const THREAD_POINTS: [usize; 2] = [1, 8];

/// One timed suite pass: engine × worker threads → wall-clock.
pub struct BenchRow {
    /// `"scalar"` or `"columnar"`.
    pub engine: &'static str,
    /// Worker threads the pass used.
    pub sim_threads: usize,
    /// Optimizer pipeline the pass pinned (`"-"` = unoptimized).
    pub passes: &'static str,
    /// Wall-clock of the warm suite, seconds.
    pub wall_s: f64,
}

/// Single-thread scalar-vs-columnar wall-clock for one benchmark family.
/// The suite aggregate mixes interpreter-bound families (where the SoA
/// engine shines) with gather-replay-bound ones (spmv, red — dominated by
/// the device models' per-lane cache walks, identical on both engines);
/// the per-family rows keep the interpreter gain visible.
pub struct BenchCompare {
    pub bench: &'static str,
    pub scalar_1_s: f64,
    pub columnar_1_s: f64,
    /// scalar@1 / columnar@1 for this family.
    pub speedup: f64,
}

/// Outcome of one self-benchmark.
pub struct SelfBench {
    /// Host hardware parallelism.
    pub host_threads: usize,
    /// `"test"` or `"paper"` input scale.
    pub scale: &'static str,
    /// One row per engine per thread count, in measurement order.
    pub rows: Vec<BenchRow>,
    /// Per-benchmark-family single-thread engine comparison.
    pub per_bench: Vec<BenchCompare>,
    /// Single-thread gain of the columnar engine: scalar@1 / columnar@1.
    pub columnar_speedup: f64,
    /// Threading gain of the columnar engine: columnar@1 / columnar@8.
    /// `None` when the host has fewer than 2 hardware threads.
    pub parallel_speedup: Option<f64>,
    /// Interpreter gain of the canonical full optimizer pipeline on the
    /// columnar engine: columnar@1 unoptimized / columnar@1 optimized.
    /// Fewer executed instructions -> less interpreter work per launch.
    pub opt_speedup: f64,
    /// Whether every pass produced byte-identical CSV and JSONL exports
    /// (the engines' shared determinism contract). Optimized passes are
    /// compared against each other (their simulated times legitimately
    /// differ from the unoptimized runs), unoptimized passes against the
    /// first unoptimized pass.
    pub outputs_identical: bool,
}

impl SelfBench {
    /// Machine-readable form, written to `BENCH_sim.json`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "    {{ \"engine\": \"{}\", \"sim_threads\": {}, \"passes\": \"{}\", \
                     \"wall_s\": {:.6} }}",
                    r.engine, r.sim_threads, r.passes, r.wall_s
                )
            })
            .collect();
        let per_bench: Vec<String> = self
            .per_bench
            .iter()
            .map(|b| {
                format!(
                    "    {{ \"bench\": \"{}\", \"scalar_1_s\": {:.6}, \"columnar_1_s\": {:.6}, \
                     \"speedup\": {:.3} }}",
                    b.bench, b.scalar_1_s, b.columnar_1_s, b.speedup
                )
            })
            .collect();
        format!(
            "{{\n  \"host_threads\": {},\n  \"scale\": \"{}\",\n  \"rows\": [\n{}\n  ],\n  \
             \"per_bench\": [\n{}\n  ],\n  \
             \"columnar_speedup\": {:.3},\n  \"parallel_speedup\": {},\n  \
             \"opt_speedup\": {:.3},\n  \
             \"outputs_identical\": {}\n}}\n",
            self.host_threads,
            self.scale,
            rows.join(",\n"),
            per_bench.join(",\n"),
            self.columnar_speedup,
            self.parallel_speedup
                .map_or("null".to_string(), |x| format!("{x:.3}")),
            self.opt_speedup,
            self.outputs_identical
        )
    }

    /// Human-readable one-screen summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "self-benchmark ({} scale, host has {} hardware threads)\n",
            self.scale, self.host_threads
        );
        for r in &self.rows {
            s.push_str(&format!(
                "  {:<8} engine, {} worker{}{}: {:.3} s\n",
                r.engine,
                r.sim_threads,
                if r.sim_threads == 1 { " " } else { "s" },
                if r.passes == "-" {
                    String::new()
                } else {
                    format!(", passes={}", r.passes)
                },
                r.wall_s
            ));
        }
        if !self.per_bench.is_empty() {
            s.push_str("  per-family (1 worker, scalar -> columnar):\n");
            for b in &self.per_bench {
                s.push_str(&format!(
                    "    {:<10} {:>8.3} s -> {:>8.3} s  ({:.2}x)\n",
                    b.bench, b.scalar_1_s, b.columnar_1_s, b.speedup
                ));
            }
        }
        let parallel = match self.parallel_speedup {
            Some(x) => format!("{x:.2}x"),
            None => "n/a (one hardware thread: threading cannot gain)".to_string(),
        };
        s.push_str(&format!(
            "  columnar speedup (1 worker) : {:.2}x\n\
             \x20 parallel speedup (columnar): {parallel}\n\
             \x20 optimizer speedup (full)   : {:.2}x\n\
             \x20 outputs identical          : {}\n",
            self.columnar_speedup, self.opt_speedup, self.outputs_identical
        ));
        s
    }
}

/// One timed suite pass at a fixed engine, worker count and optimizer
/// pipeline; returns wall-clock plus the byte-comparable exports. The
/// pipeline rides in `SuiteConfig::passes`, which scopes every cell on
/// the worker that runs it.
fn timed_pass(
    benches: &[Box<dyn Benchmark>],
    engine: Engine,
    threads: usize,
    passes: Option<&Pipeline>,
) -> (f64, String, String) {
    kernel_ir::set_engine(engine);
    sim_pool::set_threads(threads);
    let cfg = SuiteConfig {
        passes: passes.cloned(),
        ..SuiteConfig::default()
    };
    let t0 = Instant::now();
    let results = run_suite_with(benches, &cfg);
    let dt = t0.elapsed().as_secs_f64();
    (dt, to_csv(&results), to_jsonl(&results))
}

/// Run the self-benchmark. Restores the configured engine and thread count
/// afterwards.
pub fn run(test_scale: bool) -> SelfBench {
    let benches = if test_scale {
        hpc_kernels::test_suite()
    } else {
        hpc_kernels::suite()
    };
    let configured_engine = kernel_ir::engine();
    let configured_threads = sim_pool::threads().max(1);
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Warm-up pass: first-touch page faults, lazy allocator growth and
    // icache warming would otherwise all land on the first measurement.
    sim_pool::set_threads(1);
    let _ = run_suite(&benches, false);

    let mut rows = Vec::new();
    let mut exports: Vec<(String, String)> = Vec::new();
    let full = Pipeline::full();
    let mut wall = |eng: Engine, threads: usize, passes: Option<&Pipeline>| -> f64 {
        let (dt, csv, jsonl) = timed_pass(&benches, eng, threads, passes);
        rows.push(BenchRow {
            engine: eng.name(),
            sim_threads: threads,
            passes: if passes.is_some() { "full" } else { "-" },
            wall_s: dt,
        });
        exports.push((csv, jsonl));
        dt
    };
    let scalar_1 = wall(Engine::Scalar, THREAD_POINTS[0], None);
    let _scalar_n = wall(Engine::Scalar, THREAD_POINTS[1], None);
    let col_1 = wall(Engine::Columnar, THREAD_POINTS[0], None);
    let col_n = wall(Engine::Columnar, THREAD_POINTS[1], None);
    // Optimized passes: the canonical full pipeline on the columnar
    // engine, at both worker counts (their exports must agree with each
    // other — not with the unoptimized runs, whose simulated times
    // legitimately differ).
    let opt_1 = wall(Engine::Columnar, THREAD_POINTS[0], Some(&full));
    let _opt_n = wall(Engine::Columnar, THREAD_POINTS[1], Some(&full));

    // Per-family single-thread comparison (timing only — the byte-equality
    // check above uses the full-suite passes, whose per-cell seeds depend
    // on position in the full bench list).
    let mut per_bench = Vec::new();
    for i in 0..benches.len() {
        let fam = &benches[i..i + 1];
        let (s1, _, _) = timed_pass(fam, Engine::Scalar, 1, None);
        let (c1, _, _) = timed_pass(fam, Engine::Columnar, 1, None);
        per_bench.push(BenchCompare {
            bench: benches[i].name(),
            scalar_1_s: s1,
            columnar_1_s: c1,
            speedup: s1 / c1.max(1e-9),
        });
    }

    kernel_ir::set_engine(configured_engine);
    sim_pool::set_threads(configured_threads);

    let (base_csv, base_jsonl) = &exports[0];
    let unopt_identical = exports[1..4]
        .iter()
        .all(|(c, j)| c == base_csv && j == base_jsonl);
    let opt_identical = exports[4] == exports[5];
    let outputs_identical = unopt_identical && opt_identical;

    SelfBench {
        host_threads,
        scale: if test_scale { "test" } else { "paper" },
        rows,
        per_bench,
        columnar_speedup: scalar_1 / col_1.max(1e-9),
        parallel_speedup: (host_threads >= 2).then(|| col_1 / col_n.max(1e-9)),
        opt_speedup: col_1 / opt_1.max(1e-9),
        outputs_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_thread_host_publishes_no_parallel_speedup() {
        let b = SelfBench {
            host_threads: 1,
            scale: "test",
            rows: Vec::new(),
            per_bench: Vec::new(),
            columnar_speedup: 2.0,
            parallel_speedup: None,
            opt_speedup: 1.0,
            outputs_identical: true,
        };
        assert!(b.to_json().contains("\"parallel_speedup\": null,"));
        assert!(b.summary().contains("parallel speedup (columnar): n/a"));
        let two = SelfBench {
            parallel_speedup: Some(1.5),
            ..b
        };
        assert!(two.to_json().contains("\"parallel_speedup\": 1.500,"));
    }
}
