//! Offline references: every byte the serving workloads may receive,
//! computed in-process through the same public entry points the program
//! serves from (`run_one` per cell, `jsonl_row` per row), so a served
//! response can be compared byte for byte.

use crate::loadgen::GRID_CELLS;
use harness::{cell_spec, jsonl_row, run_one, CellEntry, SuiteConfig, SuiteResults};
use hpc_kernels::{Benchmark, Precision, Variant};
use kernel_ir::opt::Pipeline;
use sim_server::key::CellSpec;
use std::collections::HashMap;

/// Grid cell `c` in `harness jsonl` order: benchmark, then precision, then
/// version.
pub fn coord(c: usize) -> (usize, Precision, Variant) {
    (c / 8, Precision::ALL[(c % 8) / 4], Variant::ALL[c % 4])
}

/// Wire spelling of a version (`OpenCL Opt` -> `OpenCL-Opt`).
pub fn version_wire(v: Variant) -> String {
    v.label().replace(' ', "-")
}

fn precision_wire(p: Precision) -> &'static str {
    match p {
        Precision::F32 => "single",
        Precision::F64 => "double",
    }
}

/// Canonical form of a pass list, as the server folds it into cell keys.
pub fn canonical_passes(p: &str) -> String {
    Pipeline::parse(p)
        .expect("seeded pipelines use known pass names")
        .to_string()
}

/// JSON body of `POST /v1/sweep` for `cells` under `passes` at test scale.
pub fn sweep_request(passes: Option<&str>, cells: &[usize], bench_names: &[String]) -> String {
    let items: Vec<String> = cells
        .iter()
        .map(|&c| {
            let (b, prec, v) = coord(c);
            format!(
                "{{\"bench\":\"{}\",\"version\":\"{}\",\"precision\":\"{}\"}}",
                bench_names[b],
                version_wire(v),
                precision_wire(prec)
            )
        })
        .collect();
    let passes = passes
        .map(|p| format!(",\"passes\":\"{}\"", canonical_passes(p)))
        .unwrap_or_default();
    format!(
        "{{\"scale\":\"test\"{passes},\"cells\":[{}]}}",
        items.join(",")
    )
}

/// Body of a full-grid sweep under `passes`.
pub fn grid_request(passes: Option<&str>) -> String {
    let passes = passes
        .map(|p| format!(",\"passes\":\"{}\"", canonical_passes(p)))
        .unwrap_or_default();
    format!("{{\"scale\":\"test\"{passes},\"cells\":\"all\"}}")
}

/// Reference cell entries at test scale, keyed by (pipeline, cell).
pub struct Offline {
    benches: Vec<Box<dyn Benchmark>>,
    pub bench_names: Vec<String>,
    pipelines: Vec<Option<String>>,
    entries: HashMap<(usize, usize), CellEntry>,
}

impl Offline {
    pub fn new(pipelines: Vec<Option<String>>) -> Offline {
        let benches = hpc_kernels::test_suite();
        let bench_names = benches.iter().map(|b| b.name().to_string()).collect();
        Offline {
            benches,
            bench_names,
            pipelines,
            entries: HashMap::new(),
        }
    }

    /// Pipelines known to this reference, by index.
    pub fn pipelines(&self) -> &[Option<String>] {
        &self.pipelines
    }

    /// Add a pipeline at the next index.
    pub fn push_pipeline(&mut self, p: Option<String>) {
        self.pipelines.push(p);
    }

    /// Evaluate every missing (pipeline, cell) pair on the simulation pool,
    /// exactly as `harness serve` evaluates a batch.
    pub fn ensure(&mut self, wanted: impl IntoIterator<Item = (usize, usize)>) {
        let mut todo: Vec<(usize, usize)> = wanted
            .into_iter()
            .filter(|k| !self.entries.contains_key(k))
            .collect();
        todo.sort_unstable();
        todo.dedup();
        let benches = &self.benches;
        let pipelines = &self.pipelines;
        let got = sim_pool::parallel_map(todo.len(), |i| {
            let (p, c) = todo[i];
            let (b, prec, v) = coord(c);
            let cfg = SuiteConfig {
                passes: pipelines[p].as_deref().map(|s| Pipeline::parse(s).unwrap()),
                ..SuiteConfig::default()
            };
            run_one(benches[b].as_ref(), b, v, prec, &cfg)
        });
        self.entries.extend(todo.into_iter().zip(got));
    }

    fn entry(&self, p: usize, c: usize) -> &CellEntry {
        self.entries
            .get(&(p, c))
            .expect("reference entries are computed before they are compared")
    }

    /// Expected `POST /v1/sweep` body: one row per requested cell, ratio
    /// columns computed over the request's own cells.
    pub fn sweep_body(&self, p: usize, cells: &[usize]) -> String {
        let mut results = SuiteResults {
            cells: HashMap::new(),
            bench_names: self.bench_names.clone(),
        };
        for &c in cells {
            let (b, prec, v) = coord(c);
            let bits = if prec == Precision::F32 { 32 } else { 64 };
            results.cells.insert(
                (self.bench_names[b].clone(), v, bits),
                self.entry(p, c).clone(),
            );
        }
        let mut out = String::new();
        for &c in cells {
            let (b, prec, v) = coord(c);
            out.push_str(&jsonl_row(&results, &self.bench_names[b], v, prec));
            out.push('\n');
        }
        out
    }

    /// Expected full-grid body (`harness jsonl --test-scale` bytes).
    pub fn grid_body(&self, p: usize) -> String {
        let cells: Vec<usize> = (0..GRID_CELLS).collect();
        self.sweep_body(p, &cells)
    }

    fn spec(&self, p: usize, c: usize) -> CellSpec {
        let (b, prec, v) = coord(c);
        let passes = self.pipelines[p].as_deref().map(canonical_passes);
        cell_spec(
            "test",
            None,
            passes.as_deref(),
            &self.bench_names[b],
            v,
            prec,
        )
    }

    /// Content address of a cell, as `GET /v1/cell/<key>` takes it.
    pub fn cell_key(&self, p: usize, c: usize) -> String {
        self.spec(p, c).key().to_string()
    }

    /// Expected `GET /v1/cell/<key>` body.
    pub fn cell_body(&self, p: usize, c: usize) -> String {
        let spec = self.spec(p, c);
        let key = spec.key();
        let row = self.sweep_body(p, &[c]);
        format!(
            "{{\"key\":\"{key}\",\"spec\":\"{}\",\"row\":{}}}\n",
            sim_server::json::escape(&spec.canonical()),
            row.trim_end()
        )
    }
}
