//! # kernel-ir — a structured OpenCL-like kernel IR
//!
//! This crate is the substrate beneath the whole Mali-T604 reproduction: a
//! compact intermediate representation for OpenCL-C-style compute kernels,
//! together with an interpreter that
//!
//! 1. **computes real results** (so every simulated benchmark can be
//!    validated against a plain-Rust reference implementation), and
//! 2. **emits a complete event stream** (arithmetic issues, classified
//!    memory accesses, atomics, barriers) to an [`ExecTracer`], from which
//!    the device models in `cpu-sim` and `mali-gpu` derive cycles, cache
//!    traffic and power activity.
//!
//! The IR is deliberately *structured* (counted loops, scalar conditionals,
//! top-level barriers): that is the shape of the paper's nine kernels, it
//! keeps the interpreter trivially correct, and it makes the optimization
//! passes of the `mali-hpc` crate (vectorization, unrolling) analyzable.
//!
//! ## Quick example
//!
//! ```
//! use kernel_ir::prelude::*;
//!
//! // c[i] = a[i] + b[i]
//! let mut kb = KernelBuilder::new("vecadd");
//! let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
//! let b = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
//! let c = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
//! let gid = kb.query_global_id(0);
//! let va = kb.load(Scalar::F32, a, gid.into());
//! let vb = kb.load(Scalar::F32, b, gid.into());
//! let s = kb.bin(BinOp::Add, va.into(), vb.into(), VType::scalar(Scalar::F32));
//! kb.store(c, gid.into(), s.into());
//! let program = kb.finish();
//! program.validate().unwrap();
//!
//! let mut pool = MemoryPool::new();
//! let ab = pool.add(vec![1.0f32; 16].into());
//! let bb = pool.add(vec![2.0f32; 16].into());
//! let cb = pool.add(BufferData::zeroed(Scalar::F32, 16));
//! let bindings = [ArgBinding::Global(ab), ArgBinding::Global(bb), ArgBinding::Global(cb)];
//! run_ndrange(&program, &bindings, &mut pool, NDRange::d1(16, 4), &mut NullTracer).unwrap();
//! assert_eq!(pool.get(cb).as_f32(), &[3.0f32; 16]);
//! ```

pub mod builder;
pub(crate) mod columnar;
pub mod display;
pub mod exec;
pub mod instr;
pub mod memo;
pub mod memory;
pub mod ops;
pub mod opt;
pub mod program;
pub mod stats;
pub mod trace;
pub mod types;
pub mod value;

pub use builder::KernelBuilder;
pub use exec::{
    check_bindings, engine, run_ndrange, run_ndrange_sharded, run_ndrange_with_engine, set_engine,
    ArgBinding, DecodedProgram, Engine, ExecError, GroupExecutor, LaunchStats, NDRange,
    LOCAL_MEM_BASE, LOCAL_MEM_STRIDE,
};
pub use instr::{
    widen, ArgDecl, ArgIdx, AtomicOp, BinOp, Builtin, Hints, HorizOp, Op, Operand, Reg, UnOp,
};
pub use memory::{BufferData, MemoryPool, BUFFER_ALIGN};
pub use ops::{bin_result_type, eval_bin, eval_mad, eval_select, eval_un};
pub use opt::{Pass, PassCounters, Pipeline};
pub use program::{Program, ValidationError};
pub use stats::{analyze, StaticMix};
pub use trace::{
    AccessKind, CountingTracer, ExecTracer, MemAccess, NullTracer, OpClass, Pattern,
    RecordingTracer, ShardTracer,
};
pub use types::{Access, MemSpace, Scalar, VType, MAX_LANES};
pub use value::{Lanes, Value};

/// Everything needed to build and run kernels.
pub mod prelude {
    pub use crate::builder::KernelBuilder;
    pub use crate::exec::{run_ndrange, ArgBinding, GroupExecutor, NDRange};
    pub use crate::instr::{
        ArgDecl, ArgIdx, AtomicOp, BinOp, Builtin, Hints, HorizOp, Op, Operand, Reg, UnOp,
    };
    pub use crate::memory::{BufferData, MemoryPool};
    pub use crate::program::Program;
    pub use crate::trace::{CountingTracer, ExecTracer, NullTracer};
    pub use crate::types::{Access, MemSpace, Scalar, VType};
    pub use crate::value::Value;
}
