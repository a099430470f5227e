//! `harness autotune` — phase-ordering search over the optimizer's pass
//! pipelines, evaluated as content-addressed serving cells.
//!
//! Phase ordering is the classic compiler autotuning problem: the passes
//! in [`kernel_ir::opt`] are individually semantics-preserving, but how
//! much work they remove depends on the order they run in (`cse` before
//! `licm` hoists the deduplicated value once; after it, twice). Rather
//! than inventing a bespoke search loop, the autotuner leans on the
//! serving stack this repo already has: every (pipeline, kernel) trial is
//! an ordinary sweep cell whose [`sim_server::key::CellSpec`] carries the
//! pass list, so trials are content-addressed, cacheable, shardable by
//! `harness route`, and byte-reproducible like any other experiment.
//!
//! Two evaluation backends share the same report:
//!
//! * **local** (no `--addr`): cells run in-process through
//!   [`run_one`] — the exact evaluator `harness serve` uses.
//! * **fleet** (`--addr`): each candidate pipeline becomes one
//!   `POST /v1/sweep` against a running `serve` or `route` instance; the
//!   JSONL rows carry `total_ops`, `time_s` and `output_digest`, which is
//!   everything selection needs. Re-running the tuner against a warm
//!   fleet is nearly free — every trial is a cache hit.
//!
//! Selection is by *executed instruction count* (`total_ops`), not
//! wall-clock: the simulator is deterministic, so ops are exactly
//! reproducible across machines, and simulated `time_s` follows ops
//! anyway. The headline safety invariant — every pipeline produces
//! byte-identical outputs — is checked via the per-cell output digest and
//! reported as `outputs_identical` (`--check` turns a violation into
//! exit 2).

use crate::runner::{run_one, CellEntry, SuiteConfig};
use kernel_ir::opt::{Pass, Pipeline};
use sim_server::http;
use sim_server::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;
use telemetry::log;

/// Knobs for [`run`] (CLI flags map onto this 1:1).
#[derive(Clone, Debug)]
pub struct AutotuneConfig {
    /// Tune at test scale (CI) instead of paper scale.
    pub test_scale: bool,
    /// Shrink the candidate set to a smoke-sized handful.
    pub smoke: bool,
    /// Evaluate through a running `serve`/`route` instance instead of
    /// in-process.
    pub addr: Option<String>,
    /// Request timeout for fleet evaluation.
    pub timeout_ms: Option<u64>,
}

/// What one (pipeline, kernel) trial measured.
#[derive(Clone, Debug)]
struct Sample {
    time_s: f64,
    total_ops: u64,
    digest: String,
}

/// Best pipeline found for one kernel.
#[derive(Clone, Debug)]
pub struct BenchBest {
    pub bench: String,
    /// Executed ops without any optimization.
    pub baseline_ops: u64,
    /// Winning pipeline ("-" when no pipeline beat the baseline).
    pub best_passes: String,
    pub best_ops: u64,
    /// Percentage of executed instructions removed by the winner.
    pub ops_saved_pct: f64,
    /// Simulated-time gain of the winner (baseline / best).
    pub time_speedup: f64,
    /// Every candidate produced this kernel's exact output bytes.
    pub outputs_identical: bool,
}

/// Outcome of one autotune run, written to `BENCH_opt.json`.
pub struct AutotuneReport {
    pub scale: &'static str,
    /// `"local"` or the fleet address.
    pub mode: String,
    /// Candidate pipelines in evaluation order ("-" = unoptimized).
    pub pipelines: Vec<String>,
    pub benches: Vec<BenchBest>,
    /// Conjunction of every per-kernel digest check.
    pub outputs_identical: bool,
}

impl AutotuneReport {
    /// Machine-readable form, written to `BENCH_opt.json`.
    pub fn to_json(&self) -> String {
        let pipelines: Vec<String> = self
            .pipelines
            .iter()
            .map(|p| format!("\"{}\"", json::escape(p)))
            .collect();
        let rows: Vec<String> = self
            .benches
            .iter()
            .map(|b| {
                format!(
                    "    {{ \"bench\": \"{}\", \"baseline_ops\": {}, \"best_passes\": \"{}\", \
                     \"best_ops\": {}, \"ops_saved_pct\": {:.2}, \"time_speedup\": {:.3}, \
                     \"outputs_identical\": {} }}",
                    json::escape(&b.bench),
                    b.baseline_ops,
                    json::escape(&b.best_passes),
                    b.best_ops,
                    b.ops_saved_pct,
                    b.time_speedup,
                    b.outputs_identical
                )
            })
            .collect();
        format!(
            "{{\n  \"scale\": \"{}\",\n  \"mode\": \"{}\",\n  \"pipelines\": [{}],\n  \
             \"per_bench\": [\n{}\n  ],\n  \"outputs_identical\": {}\n}}\n",
            self.scale,
            json::escape(&self.mode),
            pipelines.join(", "),
            rows.join(",\n"),
            self.outputs_identical
        )
    }

    /// Human-readable one-screen summary.
    pub fn summary(&self) -> String {
        let mode = if self.mode == "local" {
            "local".to_string()
        } else {
            format!("fleet @ {}", self.mode)
        };
        let mut s = format!(
            "autotune ({} scale, {}, {} candidate pipelines)\n",
            self.scale,
            mode,
            self.pipelines.len()
        );
        for b in &self.benches {
            s.push_str(&format!(
                "  {:<10} {:>12} -> {:>12} ops  ({:.1}% saved, {:.2}x time)  best: {}\n",
                b.bench, b.baseline_ops, b.best_ops, b.ops_saved_pct, b.time_speedup, b.best_passes
            ));
        }
        s.push_str(&format!(
            "  outputs identical across all pipelines: {}\n",
            self.outputs_identical
        ));
        s
    }
}

/// The candidate set: unoptimized baseline, every single pass, the
/// canonical full ordering, and seeded Fisher-Yates shuffles of it. All
/// deterministic — the same invocation always tries the same orderings,
/// so fleet-side caching across runs actually hits.
fn candidates(smoke: bool) -> Vec<Option<String>> {
    let mut out: Vec<Option<String>> = vec![None];
    if !smoke {
        for p in Pass::ALL {
            out.push(Some(p.name().to_string()));
        }
    }
    out.push(Some(Pipeline::full().to_string()));
    let mut seen: BTreeSet<String> = out.iter().flatten().cloned().collect();
    let want = if smoke { 2 } else { 6 };
    let mut added = 0;
    for seed in 1u64..64 {
        if added == want {
            break;
        }
        let mut passes = Pass::ALL.to_vec();
        let mut rng = sim_rng::Pcg32::seed_from_u64(0xA0707 + seed);
        for i in (1..passes.len()).rev() {
            passes.swap(i, rng.gen_range_usize(0, i + 1));
        }
        let s = Pipeline::of(&passes).to_string();
        if seen.insert(s.clone()) {
            out.push(Some(s));
            added += 1;
        }
    }
    out
}

/// Evaluate one candidate in-process: every suite kernel at
/// OpenCL-Opt/single, the grid the optimizer actually targets.
fn eval_local(
    benches: &[Box<dyn hpc_kernels::Benchmark>],
    pipeline: Option<&str>,
) -> Result<BTreeMap<String, Sample>, String> {
    let passes = match pipeline {
        None => None,
        Some(p) => Some(Pipeline::parse(p).map_err(|e| format!("bad candidate pipeline: {e}"))?),
    };
    let cfg = SuiteConfig {
        passes,
        ..SuiteConfig::default()
    };
    let mut out = BTreeMap::new();
    for (bi, b) in benches.iter().enumerate() {
        match run_one(
            b.as_ref(),
            bi,
            hpc_kernels::Variant::OpenClOpt,
            hpc_kernels::Precision::F32,
            &cfg,
        ) {
            CellEntry::Ok(cell) => {
                out.insert(
                    b.name().to_string(),
                    Sample {
                        time_s: cell.outcome.time_s,
                        total_ops: cell.counters.total_ops(),
                        digest: format!("{:016x}", cell.output_digest),
                    },
                );
            }
            CellEntry::Skipped(_) => {}
            CellEntry::Failed(e) => {
                return Err(format!(
                    "{} under '{}': {}",
                    b.name(),
                    pipeline.unwrap_or("-"),
                    e.message
                ))
            }
        }
    }
    Ok(out)
}

/// Evaluate one candidate through a running `serve`/`route` instance:
/// one sweep request, trials keyed (and cached) by their pass list.
fn eval_fleet(
    addr: &str,
    scale: &str,
    bench_names: &[&str],
    pipeline: Option<&str>,
    timeout: Duration,
) -> Result<BTreeMap<String, Sample>, String> {
    let cells: Vec<String> = bench_names
        .iter()
        .map(|b| {
            format!(
                "{{\"bench\":\"{}\",\"version\":\"OpenCL-Opt\",\"precision\":\"single\"}}",
                json::escape(b)
            )
        })
        .collect();
    let passes = pipeline
        .map(|p| format!(",\"passes\":\"{}\"", json::escape(p)))
        .unwrap_or_default();
    let body = format!(
        "{{\"scale\":\"{scale}\"{passes},\"cells\":[{}]}}",
        cells.join(",")
    );
    let (status, resp) = http::request(addr, "POST", "/v1/sweep", body.as_bytes(), timeout)
        .map_err(|e| format!("sweep to {addr} failed: {e}"))?;
    let text = String::from_utf8_lossy(&resp);
    if status != 200 {
        return Err(format!(
            "sweep to {addr} got HTTP {status}: {}",
            text.trim()
        ));
    }
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let row = json::parse(line).map_err(|e| format!("bad sweep row: {e}"))?;
        let bench = row
            .get("bench")
            .and_then(Json::as_str)
            .ok_or("sweep row without 'bench'")?
            .to_string();
        match row.get("status").and_then(Json::as_str) {
            Some("ok") => {}
            Some("skip") => continue,
            other => {
                return Err(format!(
                    "{bench} under '{}': status {:?}",
                    pipeline.unwrap_or("-"),
                    other
                ))
            }
        }
        let field = |k: &str| row.get(k).ok_or(format!("ok row without '{k}'"));
        out.insert(
            bench,
            Sample {
                time_s: field("time_s")?.as_f64().ok_or("bad time_s")?,
                total_ops: field("total_ops")?.as_u64().ok_or("bad total_ops")?,
                digest: field("output_digest")?
                    .as_str()
                    .ok_or("bad output_digest")?
                    .to_string(),
            },
        );
    }
    Ok(out)
}

/// Run the phase-ordering search and select per-kernel winners.
pub fn run(cfg: &AutotuneConfig) -> Result<AutotuneReport, String> {
    let scale = if cfg.test_scale { "test" } else { "paper" };
    let benches = if cfg.test_scale {
        hpc_kernels::test_suite()
    } else {
        hpc_kernels::suite()
    };
    let bench_names: Vec<&str> = benches.iter().map(|b| b.name()).collect();
    let cands = candidates(cfg.smoke);
    let timeout = Duration::from_millis(cfg.timeout_ms.unwrap_or(600_000));

    let mut evals: Vec<(String, BTreeMap<String, Sample>)> = Vec::new();
    for cand in &cands {
        let label = cand.clone().unwrap_or_else(|| "-".into());
        log::progress(&format!(
            "autotune: evaluating pipeline '{label}' ({} kernels)...",
            bench_names.len()
        ));
        let samples = match &cfg.addr {
            Some(addr) => eval_fleet(addr, scale, &bench_names, cand.as_deref(), timeout)?,
            None => eval_local(&benches, cand.as_deref())?,
        };
        evals.push((label, samples));
    }

    let (_, baseline) = &evals[0];
    let mut rows = Vec::new();
    for (bench, base) in baseline {
        let mut best_label = "-".to_string();
        let mut best: Sample = base.clone();
        let mut identical = true;
        for (label, samples) in &evals[1..] {
            let Some(s) = samples.get(bench) else {
                // A kernel that succeeded unoptimized must not vanish
                // under a pipeline; treat it as a digest violation.
                identical = false;
                continue;
            };
            if s.digest != base.digest {
                identical = false;
            }
            // Strictly-better keeps the baseline on ties, and first-wins
            // among equal candidates keeps selection deterministic.
            if s.total_ops < best.total_ops {
                best = s.clone();
                best_label = label.clone();
            }
        }
        rows.push(BenchBest {
            bench: bench.clone(),
            baseline_ops: base.total_ops,
            best_passes: best_label,
            best_ops: best.total_ops,
            ops_saved_pct: 100.0 * (base.total_ops.saturating_sub(best.total_ops)) as f64
                / (base.total_ops.max(1)) as f64,
            time_speedup: base.time_s / best.time_s.max(1e-12),
            outputs_identical: identical,
        });
    }

    let outputs_identical = rows.iter().all(|r| r.outputs_identical);
    Ok(AutotuneReport {
        scale,
        mode: cfg.addr.clone().unwrap_or_else(|| "local".into()),
        pipelines: evals.into_iter().map(|(l, _)| l).collect(),
        benches: rows,
        outputs_identical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_sets_are_deterministic_and_valid() {
        let full = candidates(false);
        assert_eq!(full, candidates(false));
        assert_eq!(full[0], None);
        // baseline + 7 singles + full + 6 shuffles, all distinct.
        assert_eq!(full.len(), 15);
        let uniq: BTreeSet<_> = full.iter().collect();
        assert_eq!(uniq.len(), full.len());
        for c in full.iter().flatten() {
            Pipeline::parse(c).expect("candidate parses");
        }
        let smoke = candidates(true);
        assert_eq!(smoke.len(), 4);
        assert!(smoke.iter().all(|c| full.contains(c)));
    }

    #[test]
    fn local_autotune_finds_a_win_and_identical_outputs() {
        let rep = run(&AutotuneConfig {
            test_scale: true,
            smoke: true,
            addr: None,
            timeout_ms: None,
        })
        .expect("autotune runs");
        assert!(rep.outputs_identical, "a pass changed kernel outputs");
        assert!(!rep.benches.is_empty());
        // The optimizer must pay for itself somewhere: at least one kernel
        // executes strictly fewer instructions under some pipeline.
        assert!(
            rep.benches.iter().any(|b| b.best_ops < b.baseline_ops),
            "no kernel improved: {}",
            rep.summary()
        );
        let json = rep.to_json();
        assert!(json.contains("\"outputs_identical\": true"));
        // A kernel with nothing to save reads "0.0% saved", never "-0.0%".
        let summary = rep.summary();
        assert!(
            rep.benches.iter().any(|b| b.ops_saved_pct == 0.0),
            "{summary}"
        );
        assert!(summary.contains("(0.0% saved, "), "{summary}");
        assert!(!summary.contains("-0.0%"), "{summary}");
    }
}
