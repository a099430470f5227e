//! `perfbench` — the repository's benchmark: two serving workloads that drive
//! the `harness` CLI from outside (child processes, HTTP) and check every
//! output byte against offline references, plus a traced run that times
//! each simulator layer through its public functions. See `README.md`.

pub mod fleet;
pub mod loadgen;
pub mod offline;
pub mod stats;

use std::sync::atomic::{AtomicU64, Ordering};

/// Operations attempted and failed (non-200, transport error, or bytes
/// that differ from the reference).
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Count one operation; returns `ok` for chaining.
    pub fn check(&self, ok: bool, what: &str) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            // Only the first few mismatches are worth a line each.
            if self.failed.fetch_add(1, Ordering::Relaxed) < 5 {
                eprintln!("perfbench: FAILED {what}");
            }
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Host facts and sample counts, printed beside the metrics.
    pub facts: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn fact(&mut self, name: impl Into<String>, value: impl ToString) {
        self.facts.push((name.into(), value.to_string()));
    }
}

/// Mean absolute relative error (%) of the measured speedups in JSONL
/// `rows` against the paper's, over cells the paper gives a number for.
pub fn paper_err_pct(rows: &str) -> f64 {
    use sim_server::json::{self, Json};
    let mut errs = Vec::new();
    for row in rows.lines().filter_map(|l| json::parse(l).ok()) {
        let field = |k: &str| row.get(k).and_then(Json::as_str);
        let (Some(bench), Some(version), Some(precision), Some(measured)) = (
            field("bench"),
            field("version"),
            field("precision"),
            row.get("speedup").and_then(Json::as_f64),
        ) else {
            continue;
        };
        let v = hpc_kernels::Variant::ALL
            .into_iter()
            .find(|v| offline::version_wire(*v) == version);
        let p = match precision {
            "single" => hpc_kernels::Precision::F32,
            _ => hpc_kernels::Precision::F64,
        };
        if let Some(paper) = v.and_then(|v| harness::paper::speedup(bench, v, p)) {
            errs.push((measured - paper).abs() / paper);
        }
    }
    if errs.is_empty() {
        return 0.0;
    }
    100.0 * errs.iter().sum::<f64>() / errs.len() as f64
}
