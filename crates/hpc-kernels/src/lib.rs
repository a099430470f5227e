//! # hpc-kernels — the nine HPC benchmarks of the study (§IV-A)
//!
//! Each module implements one benchmark in the paper's four versions
//! (Serial / OpenMP on the Cortex-A15 model, OpenCL / OpenCL-Opt on the
//! Mali-T604 model) and both precisions, with a plain-Rust reference
//! implementation used to validate every run's output.
//!
//! | Module | Benchmark | Stress axis |
//! |---|---|---|
//! | [`spmv`] | sparse matrix–vector multiply | load imbalance, gathers |
//! | [`vecop`] | element-wise vector add | memory bandwidth |
//! | [`hist`] | histogram | atomics, privatization |
//! | [`stencil3d`] | 7-point 3-D stencil | strided access, reuse |
//! | [`red`] | two-stage reduction | parallel→sequential adaptation |
//! | [`amcd`] | Metropolis Monte-Carlo | divergence, transcendental |
//! | [`nbody`] | all-pairs gravity | compute, AOS layout |
//! | [`conv2d`] | 5×5 2-D convolution | spatial locality, vectorization |
//! | [`dmmm`] | dense matrix multiply | data reuse, compute |

pub mod amcd;
pub mod common;
pub mod conv2d;
pub mod dmmm;
pub mod hist;
pub mod memo;
pub mod nbody;
pub mod red;
pub mod spmv;
pub mod stencil3d;
pub mod suite;
pub mod vecop;

pub use common::{take_output_digest, Benchmark, Precision, RunOutcome, RunSkip, Variant};
pub use suite::{mid_suite, suite, test_suite};
