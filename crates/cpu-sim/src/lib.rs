//! # cpu-sim — ARM Cortex-A15 timing model
//!
//! Executes `kernel-ir` programs the way the paper's *Serial* and *OpenMP*
//! benchmark builds run on the Exynos 5250's Cortex-A15 pair:
//!
//! * **functional**: results are bit-identical to the interpreter's
//!   reference semantics (the same program text runs on the GPU model);
//! * **scalar**: no NEON — vector-typed IR ops are charged lane-by-lane,
//!   matching §IV-B's "these versions do not make use of vector
//!   instructions";
//! * **timing**: a calibrated per-op cycle table + L1/L2/DRAM hierarchy
//!   (roofline combination of compute and bandwidth, with exposed latency
//!   for scattered gathers);
//! * **OpenMP**: static block partition of work-groups over two cores with
//!   shared DRAM bandwidth and a fork/join overhead — which is exactly why
//!   memory-bound benchmarks only reach the paper's 1.2× while
//!   compute-bound ones approach 1.9×.
//!
//! A run is two stages. [`CortexA15::profile`] does the costly,
//! cores-independent work — the functional pass and the cache replay —
//! and returns a [`CpuProfile`]; [`CortexA15::time`] turns a profile into
//! a [`CpuReport`] for a given core count (partition, SMP penalty,
//! bandwidth roofline, fork/join overhead, DVFS throttle roll).
//! [`CortexA15::run`] is `time` over `profile`, so a caller timing one
//! launch on 1 and 2 cores can simulate it once.

pub mod config;
pub mod device;

pub use config::CortexA15Config;
pub use device::{CortexA15, CpuProfile, CpuReport};
