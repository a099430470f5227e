//! # harness — figure regeneration for the reproduction
//!
//! Runs the nine-benchmark suite on the simulated Exynos 5250 (Serial /
//! OpenMP on `cpu-sim`, OpenCL / OpenCL-Opt on `mali-gpu` via
//! `ocl-runtime`), measures power/energy with the simulated Yokogawa WT230
//! per the paper's §IV-D methodology, and prints paper-vs-measured tables
//! for every figure. Also hosts the serving layer (`harness serve` /
//! `harness submit`, see [`serve`]) that exposes sweeps over HTTP with a
//! content-addressed result cache. See the `harness` binary for the CLI.

pub mod ablation;
pub mod artifact;
pub mod autotune;
pub mod bench_self;
pub mod checkpoint;
pub mod dvfs;
pub mod export;
pub mod figures;
pub mod hetero;
pub mod paper;
pub mod profile;
pub mod roofline;
pub mod route;
pub mod runner;
pub mod serve;
pub mod trace;

pub use artifact::atomic_write;
pub use autotune::{AutotuneConfig, AutotuneReport};
pub use checkpoint::{cell_spec, decode_entry, encode_entry};
pub use export::{jsonl_row, parse_csv, to_csv, to_jsonl};
pub use figures::{fig2, fig3, fig4, headline, summary};
pub use route::RouteConfig;
pub use runner::{
    measure, run_one, run_suite, run_suite_with, Cell, CellCoord, CellEntry, CellError, FailKind,
    SuiteConfig, SuiteResults,
};
pub use serve::{ServeConfig, SubmitConfig};
pub use trace::write_traces;
