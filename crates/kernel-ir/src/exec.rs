//! The IR interpreter.
//!
//! Execution is per-work-group: all work-items of a group run each barrier
//! phase to completion before the next phase starts (the strongest legal
//! schedule, equivalent to any OpenCL-conformant one for barrier-correct
//! kernels). Every issued op and memory access is reported to an
//! [`ExecTracer`], which is how the device models meter cost without the
//! interpreter knowing anything about cycles.
//!
//! # Hot path
//!
//! Programs are pre-decoded once per launch into a flat, dense-indexed
//! [`DecodedProgram`]: immediates are splatted to their consumer's type at
//! decode time, register/destination types and op classes are resolved, and
//! argument bindings are baked into each load/store, so the per-item
//! execution loop does no type resolution and no per-use `Value` splats.
//! Register files and local-memory buffers live in an [`ExecScratch`] reused
//! across groups.
//!
//! # Parallel work-groups
//!
//! Work-groups are independent between barriers, so [`run_ndrange_sharded`]
//! executes them on a work-stealing pool (`sim-pool`). Cost accounting stays
//! **bit-identical** to serial execution through a record/replay scheme: see
//! [`ShardTracer`]. Kernels that perform global atomics are the one coupling
//! between groups — those launches fall back to serial group execution (and
//! say so in [`LaunchStats::serial_reason`]).

use crate::instr::{ArgDecl, AtomicOp, BinOp, Builtin, HorizOp, Op, Operand, UnOp};
use crate::memory::{BufferData, MemoryPool};
use crate::ops::{eval_bin, eval_mad, eval_select, eval_un};
use crate::program::Program;
use crate::trace::{
    AccessKind, ExecTracer, MemAccess, OpClass, Pattern, RecordingTracer, ShardTracer,
};
use crate::types::{MemSpace, Scalar, VType, MAX_LANES};
use crate::value::Value;
use std::cell::RefCell;

/// Simulated base address of the per-group "local memory" window. On Mali
/// local memory is carved out of global memory; we place it in a distinct
/// high region so cache models can still tell the spaces apart if they care.
pub const LOCAL_MEM_BASE: u64 = 1 << 40;
/// Address stride reserved per work-group for its local buffers.
pub const LOCAL_MEM_STRIDE: u64 = 1 << 20;

/// An OpenCL-style 3-dimensional index space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NDRange {
    pub global: [usize; 3],
    pub local: [usize; 3],
}

impl NDRange {
    /// 1-D range.
    pub fn d1(global: usize, local: usize) -> Self {
        NDRange {
            global: [global, 1, 1],
            local: [local, 1, 1],
        }
    }

    /// 2-D range.
    pub fn d2(gx: usize, gy: usize, lx: usize, ly: usize) -> Self {
        NDRange {
            global: [gx, gy, 1],
            local: [lx, ly, 1],
        }
    }

    /// 3-D range.
    pub fn d3(g: [usize; 3], l: [usize; 3]) -> Self {
        NDRange {
            global: g,
            local: l,
        }
    }

    pub fn num_groups(&self) -> [usize; 3] {
        [
            self.global[0] / self.local[0],
            self.global[1] / self.local[1],
            self.global[2] / self.local[2],
        ]
    }

    pub fn total_groups(&self) -> usize {
        let g = self.num_groups();
        g[0] * g[1] * g[2]
    }

    pub fn group_size(&self) -> usize {
        self.local[0] * self.local[1] * self.local[2]
    }

    pub fn total_items(&self) -> usize {
        self.global[0] * self.global[1] * self.global[2]
    }

    /// Check divisibility, as `clEnqueueNDRangeKernel` does.
    pub fn valid(&self) -> bool {
        (0..3).all(|d| {
            self.local[d] > 0 && self.global[d] > 0 && self.global[d].is_multiple_of(self.local[d])
        })
    }

    /// Linear group id → 3-D group coordinates.
    pub fn group_coords(&self, linear: usize) -> [usize; 3] {
        let n = self.num_groups();
        [
            linear % n[0],
            (linear / n[0]) % n[1],
            linear / (n[0] * n[1]),
        ]
    }
}

/// One bound kernel argument.
#[derive(Clone, Debug)]
pub enum ArgBinding {
    /// Global buffer: index into the launch's [`MemoryPool`].
    Global(usize),
    /// Local buffer: element count to allocate per work-group.
    LocalSize(usize),
    /// By-value scalar.
    Scalar(Value),
}

/// Execution error surfaced to the runtime layer.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    InvalidNDRange(NDRange),
    BindingMismatch(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InvalidNDRange(n) => {
                write!(
                    f,
                    "global size {:?} not divisible by local size {:?}",
                    n.global, n.local
                )
            }
            ExecError::BindingMismatch(s) => write!(f, "argument binding mismatch: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Check bindings against the program's argument declarations.
pub fn check_bindings(
    program: &Program,
    bindings: &[ArgBinding],
    pool: &MemoryPool,
) -> Result<(), ExecError> {
    if bindings.len() != program.args.len() {
        return Err(ExecError::BindingMismatch(format!(
            "kernel {} expects {} args, got {}",
            program.name,
            program.args.len(),
            bindings.len()
        )));
    }
    for (i, (decl, bind)) in program.args.iter().zip(bindings).enumerate() {
        match (decl, bind) {
            (ArgDecl::GlobalBuf { elem, .. }, ArgBinding::Global(idx)) => {
                if *idx >= pool.len() {
                    return Err(ExecError::BindingMismatch(format!(
                        "arg {i}: buffer index {idx} out of pool range"
                    )));
                }
                if pool.get(*idx).elem() != *elem {
                    return Err(ExecError::BindingMismatch(format!(
                        "arg {i}: buffer elem {:?} != declared {elem:?}",
                        pool.get(*idx).elem()
                    )));
                }
            }
            (ArgDecl::LocalBuf { .. }, ArgBinding::LocalSize(_)) => {}
            (ArgDecl::Scalar { ty }, ArgBinding::Scalar(v)) => {
                if v.vtype() != VType::scalar(*ty) {
                    return Err(ExecError::BindingMismatch(format!(
                        "arg {i}: scalar {:?} != declared {ty:?}",
                        v.vtype()
                    )));
                }
            }
            _ => {
                return Err(ExecError::BindingMismatch(format!(
                    "arg {i}: binding kind does not match declaration"
                )))
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoded program
// ---------------------------------------------------------------------------

/// A pre-resolved operand: registers carry their final index (and broadcast
/// width when the consumer is wider); immediates are splatted to the
/// consumer's type once, at decode time.
#[derive(Clone, Debug)]
pub(crate) enum DOperand {
    /// Register whose declared width already matches the consumer's.
    Reg(u32),
    /// Register broadcast to `width` lanes at each use.
    RegBc(u32, u8),
    /// Immediate pre-splatted to the consumer's type.
    Const(Value),
}

/// Where a buffer op lands, with the binding already resolved.
#[derive(Clone, Copy, Debug)]
pub(crate) enum DLoc {
    /// Index into the launch's [`MemoryPool`].
    Global(usize),
    /// Kernel-argument index of a per-group local buffer.
    Local(usize),
}

/// One decoded instruction. Destination registers are dense `u32` indices;
/// result types, op classes and traced types are resolved at decode time.
#[derive(Clone, Debug)]
pub(crate) enum DOp {
    Bin {
        dst: u32,
        op: BinOp,
        a: DOperand,
        b: DOperand,
        class: OpClass,
        ty: VType,
    },
    Un {
        dst: u32,
        op: UnOp,
        a: DOperand,
        class: OpClass,
        ty: VType,
    },
    Mad {
        dst: u32,
        a: DOperand,
        b: DOperand,
        c: DOperand,
        ty: VType,
    },
    Select {
        dst: u32,
        cond: DOperand,
        a: DOperand,
        b: DOperand,
        ty: VType,
    },
    Mov {
        dst: u32,
        a: DOperand,
        ty: VType,
    },
    CastReg {
        dst: u32,
        src: u32,
        to: Scalar,
        ty: VType,
    },
    Horiz {
        dst: u32,
        op: HorizOp,
        src: u32,
        ty: VType,
    },
    Extract {
        dst: u32,
        src: u32,
        lane: u8,
        ty: VType,
    },
    Insert {
        dst: u32,
        v: DOperand,
        lane: u8,
        ty: VType,
    },
    Query {
        dst: u32,
        q: Builtin,
    },
    /// By-value scalar arg read: free register write, no memory event.
    LoadScalarArg {
        dst: u32,
        v: Value,
    },
    Load {
        dst: u32,
        loc: DLoc,
        idx: DOperand,
        ty: VType,
        stream: u32,
    },
    VLoad {
        dst: u32,
        loc: DLoc,
        base: DOperand,
        ty: VType,
        stream: u32,
    },
    Store {
        loc: DLoc,
        idx: DOperand,
        val: DOperand,
        vt: VType,
        stream: u32,
    },
    VStore {
        loc: DLoc,
        base: DOperand,
        val: u32,
        stream: u32,
    },
    Atomic {
        op: AtomicOp,
        loc: DLoc,
        idx: DOperand,
        val: DOperand,
        /// Pre-splatted constant 1 for `atomic_inc`.
        one: Value,
        old: Option<u32>,
        elem: Scalar,
        stream: u32,
    },
    For {
        var: u32,
        elem: Scalar,
        start: DOperand,
        end: DOperand,
        step: DOperand,
        body: (u32, u32),
    },
    If {
        cond: DOperand,
        then: (u32, u32),
        els: (u32, u32),
    },
}

/// A [`Program`] decoded against one launch's bindings: flat op arena,
/// per-phase ranges, the zeroed register-file template, and the local-buffer
/// layout. Built once per launch, shared read-only by all workers.
pub struct DecodedProgram {
    pub(crate) ops: Vec<DOp>,
    /// Top-level barrier phases as `ops` ranges, in execution order.
    pub(crate) phases: Vec<(u32, u32)>,
    /// Zero-of-declared-type template copied into each item's register file.
    pub(crate) reg_init: Vec<Value>,
    /// Declared type of each register (drives the columnar engine's
    /// per-register column layout).
    pub(crate) reg_tys: Vec<VType>,
    /// Per-argument local-buffer spec: `(elem, len)` for local args.
    pub(crate) local_specs: Vec<Option<(Scalar, usize)>>,
    /// Whether any atomic targets a global buffer (forces serial groups).
    pub(crate) has_global_atomic: bool,
    /// Whether the columnar engine may run this program: every atomic must be
    /// an integer RMW without an `old` capture, so the final memory bits are
    /// independent of the order work-items apply them.
    pub(crate) columnar_ok: bool,
}

impl DecodedProgram {
    /// Decode `program` against `bindings`. The caller must have validated
    /// the bindings with [`check_bindings`] first.
    pub fn decode(program: &Program, bindings: &[ArgBinding], pool: &MemoryPool) -> Self {
        let mut dec = Decoder {
            prog: program,
            bindings,
            pool,
            ops: Vec::new(),
            has_global_atomic: false,
            columnar_ok: true,
        };
        let phases = program
            .phases()
            .iter()
            .map(|phase| dec.block(phase))
            .collect();
        let local_specs = program
            .args
            .iter()
            .zip(bindings)
            .map(|(decl, bind)| match (decl, bind) {
                (ArgDecl::LocalBuf { elem }, ArgBinding::LocalSize(n)) => Some((*elem, *n)),
                _ => None,
            })
            .collect();
        DecodedProgram {
            ops: dec.ops,
            phases,
            reg_init: program.regs.iter().map(|t| Value::zero(*t)).collect(),
            reg_tys: program.regs.clone(),
            local_specs,
            has_global_atomic: dec.has_global_atomic,
            columnar_ok: dec.columnar_ok,
        }
    }

    /// Whether this launch performs atomics on global buffers.
    pub fn has_global_atomic(&self) -> bool {
        self.has_global_atomic
    }

    /// Whether the columnar engine can execute this launch bit-identically.
    pub fn columnar_ok(&self) -> bool {
        self.columnar_ok
    }
}

/// Splat an immediate to the consumer's type (decode-time twin of the old
/// per-use `eval_operand` immediate path).
fn splat_imm(o: &Operand, want: VType) -> Value {
    match o {
        Operand::Reg(_) => unreachable!("register operand in immediate splat"),
        Operand::ImmF(x) => match want.elem {
            Scalar::F32 => Value::splat_f32(*x as f32, want.width),
            Scalar::F64 => Value::splat_f64(*x, want.width),
            other => panic!("float immediate in {other} context"),
        },
        Operand::ImmI(x) => match want.elem {
            Scalar::F32 => Value::splat_f32(*x as f32, want.width),
            Scalar::F64 => Value::splat_f64(*x as f64, want.width),
            Scalar::I32 => Value::splat_i32(*x as i32, want.width),
            Scalar::I64 => Value::splat_i64(*x, want.width),
            Scalar::U32 => Value::splat_u32(*x as u32, want.width),
            Scalar::U64 => Value::splat_u64(*x as u64, want.width),
            Scalar::Bool => panic!("integer immediate in bool context"),
        },
    }
}

struct Decoder<'a> {
    prog: &'a Program,
    bindings: &'a [ArgBinding],
    pool: &'a MemoryPool,
    ops: Vec<DOp>,
    has_global_atomic: bool,
    columnar_ok: bool,
}

impl Decoder<'_> {
    fn operand(&self, o: &Operand, want: VType) -> DOperand {
        match o {
            Operand::Reg(r) => {
                if self.prog.reg_ty(*r).width == want.width {
                    DOperand::Reg(r.0)
                } else {
                    DOperand::RegBc(r.0, want.width)
                }
            }
            imm => DOperand::Const(splat_imm(imm, want)),
        }
    }

    /// Decode a block contiguously into the arena. Nested bodies are decoded
    /// first (they land earlier in the arena); ranges are unaffected.
    fn block(&mut self, ops: &[Op]) -> (u32, u32) {
        let mut decoded = Vec::with_capacity(ops.len());
        for op in ops {
            decoded.push(self.op(op));
        }
        let start = self.ops.len() as u32;
        self.ops.extend(decoded);
        (start, self.ops.len() as u32)
    }

    /// Resolve a buffer argument to its location and stream id.
    fn loc(&self, buf: crate::instr::ArgIdx, what: &str) -> (DLoc, u32) {
        match &self.bindings[buf.0 as usize] {
            ArgBinding::Global(pool_idx) => (DLoc::Global(*pool_idx), buf.0),
            ArgBinding::LocalSize(_) => (DLoc::Local(buf.0 as usize), buf.0),
            ArgBinding::Scalar(_) => panic!("{what} scalar argument"),
        }
    }

    /// Element type of a buffer argument.
    fn buf_elem(&self, buf: crate::instr::ArgIdx) -> Scalar {
        match (
            &self.prog.args[buf.0 as usize],
            &self.bindings[buf.0 as usize],
        ) {
            (ArgDecl::GlobalBuf { .. }, ArgBinding::Global(pool_idx)) => {
                self.pool.get(*pool_idx).elem()
            }
            (ArgDecl::LocalBuf { elem }, _) => *elem,
            _ => unreachable!("checked by check_bindings"),
        }
    }

    fn op(&mut self, op: &Op) -> DOp {
        let prog = self.prog;
        match op {
            Op::Bin {
                dst,
                op: b,
                a,
                b: rhs,
            } => {
                let dt = prog.reg_ty(*dst);
                let src_ty = if b.is_compare() {
                    // operand type comes from whichever side is a register
                    match (a, rhs) {
                        (Operand::Reg(r), _) | (_, Operand::Reg(r)) => prog.reg_ty(*r),
                        _ => panic!("compare with two immediates"),
                    }
                } else {
                    dt
                };
                let class = match b {
                    BinOp::Mul => OpClass::Mul,
                    BinOp::Div | BinOp::Rem => OpClass::Div,
                    _ => OpClass::Simple,
                };
                DOp::Bin {
                    dst: dst.0,
                    op: *b,
                    a: self.operand(a, src_ty),
                    b: self.operand(rhs, src_ty),
                    class,
                    ty: src_ty,
                }
            }
            Op::Un { dst, op: u, a } => {
                let dt = prog.reg_ty(*dst);
                let class = match u {
                    UnOp::Exp | UnOp::Log => OpClass::Transcendental,
                    UnOp::Rsqrt => OpClass::Rsqrt,
                    _ if u.is_special() => OpClass::Special,
                    _ => OpClass::Simple,
                };
                DOp::Un {
                    dst: dst.0,
                    op: *u,
                    a: self.operand(a, dt),
                    class,
                    ty: dt,
                }
            }
            Op::Mad { dst, a, b, c } => {
                let dt = prog.reg_ty(*dst);
                DOp::Mad {
                    dst: dst.0,
                    a: self.operand(a, dt),
                    b: self.operand(b, dt),
                    c: self.operand(c, dt),
                    ty: dt,
                }
            }
            Op::Select { dst, cond, a, b } => {
                let dt = prog.reg_ty(*dst);
                DOp::Select {
                    dst: dst.0,
                    cond: self.operand(
                        cond,
                        VType {
                            elem: Scalar::Bool,
                            width: dt.width,
                        },
                    ),
                    a: self.operand(a, dt),
                    b: self.operand(b, dt),
                    ty: dt,
                }
            }
            Op::Mov { dst, a } => {
                let dt = prog.reg_ty(*dst);
                DOp::Mov {
                    dst: dst.0,
                    a: self.operand(a, dt),
                    ty: dt,
                }
            }
            Op::Cast { dst, a } => {
                let dt = prog.reg_ty(*dst);
                match a {
                    Operand::Reg(r) => DOp::CastReg {
                        dst: dst.0,
                        src: r.0,
                        to: dt.elem,
                        ty: dt,
                    },
                    // Immediate: splat-to-dt then cast-to-dt.elem is just the
                    // splat; traced identically to Mov (OpClass::Move, dt).
                    imm => DOp::Mov {
                        dst: dst.0,
                        a: DOperand::Const(splat_imm(imm, dt).cast(dt.elem)),
                        ty: dt,
                    },
                }
            }
            Op::Horiz { dst, op: h, a } => {
                let src = match a {
                    Operand::Reg(r) => r,
                    _ => panic!("horizontal reduction of immediate"),
                };
                DOp::Horiz {
                    dst: dst.0,
                    op: *h,
                    src: src.0,
                    ty: prog.reg_ty(*src),
                }
            }
            Op::Extract { dst, a, lane } => {
                let src = match a {
                    Operand::Reg(r) => r,
                    _ => panic!("extract from immediate"),
                };
                DOp::Extract {
                    dst: dst.0,
                    src: src.0,
                    lane: *lane,
                    ty: VType::scalar(prog.reg_ty(*src).elem),
                }
            }
            Op::Insert { dst, v, lane } => {
                let dt = prog.reg_ty(*dst);
                DOp::Insert {
                    dst: dst.0,
                    v: self.operand(v, VType::scalar(dt.elem)),
                    lane: *lane,
                    ty: VType::scalar(dt.elem),
                }
            }
            Op::Query { dst, q } => DOp::Query { dst: dst.0, q: *q },
            Op::Load { dst, buf, idx } => {
                let dt = prog.reg_ty(*dst);
                if let ArgBinding::Scalar(v) = &self.bindings[buf.0 as usize] {
                    return DOp::LoadScalarArg { dst: dst.0, v: *v };
                }
                let iw = operand_width(prog, idx);
                let (loc, stream) = self.loc(*buf, "load from");
                DOp::Load {
                    dst: dst.0,
                    loc,
                    idx: self.operand(
                        idx,
                        VType {
                            elem: Scalar::U32,
                            width: iw.max(1),
                        },
                    ),
                    ty: dt,
                    stream,
                }
            }
            Op::VLoad { dst, buf, base } => {
                let dt = prog.reg_ty(*dst);
                let (loc, stream) = self.loc(*buf, "vload from");
                DOp::VLoad {
                    dst: dst.0,
                    loc,
                    base: self.operand(base, VType::scalar(Scalar::U32)),
                    ty: dt,
                    stream,
                }
            }
            Op::Store { buf, idx, val } => {
                let iw = operand_width(prog, idx);
                let vt = VType {
                    elem: self.buf_elem(*buf),
                    width: iw,
                };
                let (loc, stream) = self.loc(*buf, "store to");
                DOp::Store {
                    loc,
                    idx: self.operand(
                        idx,
                        VType {
                            elem: Scalar::U32,
                            width: iw,
                        },
                    ),
                    val: self.operand(val, vt),
                    vt,
                    stream,
                }
            }
            Op::VStore { buf, base, val } => {
                let v = match val {
                    Operand::Reg(r) => r,
                    _ => panic!("vstore of immediate"),
                };
                let (loc, stream) = self.loc(*buf, "vstore to");
                DOp::VStore {
                    loc,
                    base: self.operand(base, VType::scalar(Scalar::U32)),
                    val: v.0,
                    stream,
                }
            }
            Op::Atomic {
                op: aop,
                buf,
                idx,
                val,
                old,
            } => {
                let elem = self.buf_elem(*buf);
                let (loc, stream) = self.loc(*buf, "atomic on");
                if matches!(loc, DLoc::Global(_)) {
                    self.has_global_atomic = true;
                }
                // The columnar engine applies atomics instruction-major, not
                // item-major. That is only bit-equivalent when the RMW is an
                // integer commutative/associative update whose intermediate
                // (`old`) value is never observed.
                if old.is_some() || !elem.is_int() {
                    self.columnar_ok = false;
                }
                DOp::Atomic {
                    op: *aop,
                    loc,
                    idx: self.operand(idx, VType::scalar(Scalar::U32)),
                    val: self.operand(val, VType::scalar(elem)),
                    one: splat_imm(&Operand::ImmI(1), VType::scalar(elem)),
                    old: old.map(|r| r.0),
                    elem,
                    stream,
                }
            }
            Op::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let vt = prog.reg_ty(*var);
                let body = self.block(body);
                DOp::For {
                    var: var.0,
                    elem: vt.elem,
                    start: self.operand(start, vt),
                    end: self.operand(end, vt),
                    step: self.operand(step, vt),
                    body,
                }
            }
            Op::If { cond, then, els } => {
                let then = self.block(then);
                let els = self.block(els);
                DOp::If {
                    cond: self.operand(cond, VType::scalar(Scalar::Bool)),
                    then,
                    els,
                }
            }
            Op::Barrier => {
                unreachable!("barriers are phase boundaries, split by Program::phases")
            }
        }
    }
}

/// Element-index width of an index operand used for gathers.
fn operand_width(prog: &Program, o: &Operand) -> u8 {
    match o {
        Operand::Reg(r) => prog.reg_ty(*r).width,
        _ => 1,
    }
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

/// Per-work-item execution state.
struct ItemCtx {
    regs: Vec<Value>,
    global_id: [usize; 3],
    local_id: [usize; 3],
}

/// Per-group mutable memory state (local buffers + their addresses), shared
/// by the scalar and columnar engines.
#[derive(Default)]
pub(crate) struct GroupState {
    pub(crate) locals: Vec<Option<BufferData>>,
    pub(crate) local_addrs: Vec<u64>,
}

impl GroupState {
    /// Make the local-buffer set match `dp` (no-op when it already does).
    pub(crate) fn prepare(&mut self, dp: &DecodedProgram) {
        let locals_match = self.locals.len() == dp.local_specs.len()
            && dp
                .local_specs
                .iter()
                .zip(&self.locals)
                .all(|(spec, have)| match (spec, have) {
                    (Some((e, n)), Some(b)) => b.elem() == *e && b.len() == *n,
                    (None, None) => true,
                    _ => false,
                });
        if !locals_match {
            self.locals = dp
                .local_specs
                .iter()
                .map(|s| s.map(|(e, n)| BufferData::zeroed(e, n)))
                .collect();
            self.local_addrs = vec![0; dp.local_specs.len()];
        }
    }

    /// Zero the local buffers and lay out their simulated addresses for
    /// `group_linear`.
    pub(crate) fn begin_group(&mut self, dp: &DecodedProgram, group_linear: usize) {
        let mut next_local = LOCAL_MEM_BASE + group_linear as u64 * LOCAL_MEM_STRIDE;
        for (i, spec) in dp.local_specs.iter().enumerate() {
            match spec {
                Some((elem, n)) => {
                    if let Some(b) = self.locals[i].as_mut() {
                        b.zero_fill();
                    }
                    self.local_addrs[i] = next_local;
                    next_local += (*n as u64 * elem.bytes() as u64).max(64);
                }
                None => self.local_addrs[i] = 0,
            }
        }
    }
}

/// Reusable execution scratch: item contexts (register files) and local
/// buffers survive across groups — and, via a thread-local, across the tasks
/// a pool worker executes — instead of being reallocated per group.
#[derive(Default)]
struct ExecScratch {
    items: Vec<ItemCtx>,
    group: GroupState,
}

impl ExecScratch {
    /// Make the scratch shape match `dp`/`ndr` (no-op when it already does).
    fn prepare(&mut self, dp: &DecodedProgram, ndr: NDRange) {
        let n_items = ndr.group_size();
        let n_regs = dp.reg_init.len();
        if self.items.len() != n_items
            || self.items.first().is_some_and(|it| it.regs.len() != n_regs)
        {
            self.items = (0..n_items)
                .map(|_| ItemCtx {
                    regs: dp.reg_init.clone(),
                    global_id: [0; 3],
                    local_id: [0; 3],
                })
                .collect();
        }
        self.group.prepare(dp);
    }

    /// Reset item ids/registers and local buffers for `group_linear`.
    fn begin_group(&mut self, dp: &DecodedProgram, ndr: NDRange, group_linear: usize) {
        let group_id = ndr.group_coords(group_linear);
        let lsz = ndr.local;
        for (lin, item) in self.items.iter_mut().enumerate() {
            item.local_id = [
                lin % lsz[0],
                (lin / lsz[0]) % lsz[1],
                lin / (lsz[0] * lsz[1]),
            ];
            item.global_id = [
                group_id[0] * lsz[0] + item.local_id[0],
                group_id[1] * lsz[1] + item.local_id[1],
                group_id[2] * lsz[2] + item.local_id[2],
            ];
            item.regs.copy_from_slice(&dp.reg_init);
        }
        self.group.begin_group(dp, group_linear);
    }
}

thread_local! {
    /// Worker-local scratch for the sharded engine: reused across every
    /// group a pool worker executes.
    static SCRATCH: RefCell<ExecScratch> = RefCell::new(ExecScratch::default());
}

/// Execute one work-group into `tracer`, reusing `scratch`.
fn exec_group_into<T: ExecTracer>(
    dp: &DecodedProgram,
    ndr: NDRange,
    group_linear: usize,
    pool: &mut MemoryPool,
    scratch: &mut ExecScratch,
    tracer: &mut T,
) {
    tracer.group_start();
    scratch.prepare(dp, ndr);
    scratch.begin_group(dp, ndr, group_linear);
    let n_items = ndr.group_size() as u32;
    let n_phases = dp.phases.len();
    let ExecScratch { items, group } = scratch;
    for (pi, range) in dp.phases.iter().enumerate() {
        for item in items.iter_mut() {
            if pi == 0 {
                tracer.thread_start();
            }
            exec_range(dp, pool, group, ndr, item, *range, tracer);
        }
        if pi + 1 < n_phases {
            tracer.barrier(n_items);
        }
    }
}

// ---------------------------------------------------------------------------
// The hot loop
// ---------------------------------------------------------------------------

/// Operand value: a borrow of a register or decoded constant when no
/// broadcast is needed (the common case — no 136-byte `Value` copy), an
/// owned temporary otherwise.
enum OpVal<'a> {
    Ref(&'a Value),
    Own(Value),
}

impl OpVal<'_> {
    #[inline]
    fn get(&self) -> &Value {
        match self {
            OpVal::Ref(v) => v,
            OpVal::Own(v) => v,
        }
    }
}

#[inline]
fn ev<'a>(regs: &'a [Value], o: &'a DOperand) -> OpVal<'a> {
    match o {
        DOperand::Reg(i) => OpVal::Ref(&regs[*i as usize]),
        DOperand::RegBc(i, w) => OpVal::Own(regs[*i as usize].broadcast(*w)),
        DOperand::Const(v) => OpVal::Ref(v),
    }
}

fn exec_range<T: ExecTracer>(
    dp: &DecodedProgram,
    pool: &mut MemoryPool,
    grp: &mut GroupState,
    ndr: NDRange,
    item: &mut ItemCtx,
    range: (u32, u32),
    tracer: &mut T,
) {
    for i in range.0..range.1 {
        exec_dop(dp, pool, grp, ndr, item, &dp.ops[i as usize], tracer);
    }
}

#[inline]
fn exec_dop<T: ExecTracer>(
    dp: &DecodedProgram,
    pool: &mut MemoryPool,
    grp: &mut GroupState,
    ndr: NDRange,
    item: &mut ItemCtx,
    op: &DOp,
    tracer: &mut T,
) {
    match op {
        DOp::Bin {
            dst,
            op,
            a,
            b,
            class,
            ty,
        } => {
            let r = {
                let va = ev(&item.regs, a);
                let vb = ev(&item.regs, b);
                tracer.op(*class, *ty);
                eval_bin(*op, va.get(), vb.get())
            };
            item.regs[*dst as usize] = r;
        }
        DOp::Un {
            dst,
            op,
            a,
            class,
            ty,
        } => {
            let r = {
                let va = ev(&item.regs, a);
                tracer.op(*class, *ty);
                eval_un(*op, va.get())
            };
            item.regs[*dst as usize] = r;
        }
        DOp::Mad { dst, a, b, c, ty } => {
            let r = {
                let va = ev(&item.regs, a);
                let vb = ev(&item.regs, b);
                let vc = ev(&item.regs, c);
                tracer.op(OpClass::Mad, *ty);
                eval_mad(va.get(), vb.get(), vc.get())
            };
            item.regs[*dst as usize] = r;
        }
        DOp::Select {
            dst,
            cond,
            a,
            b,
            ty,
        } => {
            let r = {
                let vc = ev(&item.regs, cond);
                let va = ev(&item.regs, a);
                let vb = ev(&item.regs, b);
                tracer.op(OpClass::Move, *ty);
                eval_select(vc.get(), va.get(), vb.get())
            };
            item.regs[*dst as usize] = r;
        }
        DOp::Mov { dst, a, ty } => {
            tracer.op(OpClass::Move, *ty);
            let r = *ev(&item.regs, a).get();
            item.regs[*dst as usize] = r;
        }
        DOp::CastReg { dst, src, to, ty } => {
            tracer.op(OpClass::Move, *ty);
            let r = item.regs[*src as usize].cast(*to);
            item.regs[*dst as usize] = r;
        }
        DOp::Horiz { dst, op, src, ty } => {
            tracer.op(OpClass::Horizontal, *ty);
            let src = &item.regs[*src as usize];
            let r = match op {
                HorizOp::Add => src.reduce_add(),
                HorizOp::Min => src.reduce_min(),
                HorizOp::Max => src.reduce_max(),
            };
            item.regs[*dst as usize] = r;
        }
        DOp::Extract { dst, src, lane, ty } => {
            tracer.op(OpClass::Move, *ty);
            let r = item.regs[*src as usize].extract(*lane as usize);
            item.regs[*dst as usize] = r;
        }
        DOp::Insert { dst, v, lane, ty } => {
            let val = *ev(&item.regs, v).get();
            tracer.op(OpClass::Move, *ty);
            let cur = item.regs[*dst as usize];
            item.regs[*dst as usize] = cur.insert(*lane as usize, &val);
        }
        DOp::Query { dst, q } => {
            let v = match q {
                Builtin::GlobalId(d) => item.global_id[*d as usize],
                Builtin::LocalId(d) => item.local_id[*d as usize],
                Builtin::GroupId(d) => item.global_id[*d as usize] / ndr.local[*d as usize],
                Builtin::GlobalSize(d) => ndr.global[*d as usize],
                Builtin::LocalSize(d) => ndr.local[*d as usize],
                Builtin::NumGroups(d) => ndr.num_groups()[*d as usize],
            };
            tracer.op(OpClass::Move, VType::scalar(Scalar::U32));
            item.regs[*dst as usize] = Value::u32(v as u32);
        }
        DOp::LoadScalarArg { dst, v } => {
            item.regs[*dst as usize] = *v;
        }
        DOp::Load {
            dst,
            loc,
            idx,
            ty,
            stream,
        } => {
            let val = {
                let vidx = ev(&item.regs, idx);
                let vidx = vidx.get();
                match loc {
                    DLoc::Global(pool_idx) => {
                        let data = pool.get(*pool_idx);
                        let val = if ty.width == 1 {
                            data.get(vidx.lane_index(0))
                        } else {
                            data.gather(vidx)
                        };
                        emit_global_access(
                            pool,
                            *pool_idx,
                            vidx,
                            *ty,
                            AccessKind::Read,
                            *stream,
                            tracer,
                        );
                        val
                    }
                    DLoc::Local(arg_idx) => {
                        let base = grp.local_addrs[*arg_idx];
                        let data = grp.locals[*arg_idx].as_ref().expect("local buffer");
                        let val = if ty.width == 1 {
                            data.get(vidx.lane_index(0))
                        } else {
                            data.gather(vidx)
                        };
                        emit_local_access(base, vidx, *ty, AccessKind::Read, *stream, tracer);
                        val
                    }
                }
            };
            item.regs[*dst as usize] = val;
        }
        DOp::VLoad {
            dst,
            loc,
            base,
            ty,
            stream,
        } => {
            let b = ev(&item.regs, base).get().lane_index(0);
            let pattern = if ty.width == 1 {
                Pattern::Scalar
            } else {
                Pattern::Contiguous
            };
            let val = match loc {
                DLoc::Global(pool_idx) => {
                    let val = pool.get(*pool_idx).vload(b, ty.width);
                    tracer.mem(
                        &MemAccess {
                            stream: *stream,
                            space: MemSpace::Global,
                            kind: AccessKind::Read,
                            addr: pool.elem_addr(*pool_idx, b),
                            bytes: ty.bytes(),
                            elem: ty.elem,
                            width: ty.width,
                            pattern,
                        },
                        &[],
                    );
                    val
                }
                DLoc::Local(arg_idx) => {
                    let addr = grp.local_addrs[*arg_idx] + b as u64 * ty.elem.bytes() as u64;
                    let data = grp.locals[*arg_idx].as_ref().expect("local buffer");
                    let val = data.vload(b, ty.width);
                    tracer.mem(
                        &MemAccess {
                            stream: *stream,
                            space: MemSpace::Local,
                            kind: AccessKind::Read,
                            addr,
                            bytes: ty.bytes(),
                            elem: ty.elem,
                            width: ty.width,
                            pattern,
                        },
                        &[],
                    );
                    val
                }
            };
            item.regs[*dst as usize] = val;
        }
        DOp::Store {
            loc,
            idx,
            val,
            vt,
            stream,
        } => {
            let vidx = ev(&item.regs, idx);
            let vidx = vidx.get();
            let vval = ev(&item.regs, val);
            let vval = vval.get();
            match loc {
                DLoc::Global(pool_idx) => {
                    emit_global_access(
                        pool,
                        *pool_idx,
                        vidx,
                        *vt,
                        AccessKind::Write,
                        *stream,
                        tracer,
                    );
                    let data = pool.get_mut(*pool_idx);
                    for lane in 0..vt.width as usize {
                        data.set(vidx.lane_index(lane), vval, lane);
                    }
                }
                DLoc::Local(arg_idx) => {
                    let base = grp.local_addrs[*arg_idx];
                    emit_local_access(base, vidx, *vt, AccessKind::Write, *stream, tracer);
                    let data = grp.locals[*arg_idx].as_mut().expect("local buffer");
                    for lane in 0..vt.width as usize {
                        data.set(vidx.lane_index(lane), vval, lane);
                    }
                }
            }
        }
        DOp::VStore {
            loc,
            base,
            val,
            stream,
        } => {
            let b = ev(&item.regs, base).get().lane_index(0);
            let vval = &item.regs[*val as usize];
            let vt = vval.vtype();
            let pattern = if vt.width == 1 {
                Pattern::Scalar
            } else {
                Pattern::Contiguous
            };
            match loc {
                DLoc::Global(pool_idx) => {
                    tracer.mem(
                        &MemAccess {
                            stream: *stream,
                            space: MemSpace::Global,
                            kind: AccessKind::Write,
                            addr: pool.elem_addr(*pool_idx, b),
                            bytes: vt.bytes(),
                            elem: vt.elem,
                            width: vt.width,
                            pattern,
                        },
                        &[],
                    );
                    let vval = item.regs[*val as usize];
                    pool.get_mut(*pool_idx).vstore(b, &vval);
                }
                DLoc::Local(arg_idx) => {
                    let addr = grp.local_addrs[*arg_idx] + b as u64 * vt.elem.bytes() as u64;
                    tracer.mem(
                        &MemAccess {
                            stream: *stream,
                            space: MemSpace::Local,
                            kind: AccessKind::Write,
                            addr,
                            bytes: vt.bytes(),
                            elem: vt.elem,
                            width: vt.width,
                            pattern,
                        },
                        &[],
                    );
                    let vval = item.regs[*val as usize];
                    grp.locals[*arg_idx]
                        .as_mut()
                        .expect("local buffer")
                        .vstore(b, &vval);
                }
            }
        }
        DOp::Atomic {
            op,
            loc,
            idx,
            val,
            one,
            old,
            elem,
            stream,
        } => {
            let i = ev(&item.regs, idx).get().lane_index(0);
            let (space, addr) = match loc {
                DLoc::Global(pool_idx) => (MemSpace::Global, pool.elem_addr(*pool_idx, i)),
                DLoc::Local(arg_idx) => (
                    MemSpace::Local,
                    grp.local_addrs[*arg_idx] + i as u64 * elem.bytes() as u64,
                ),
            };
            let vval = *ev(&item.regs, val).get();
            tracer.mem(
                &MemAccess {
                    stream: *stream,
                    space,
                    kind: AccessKind::Atomic,
                    addr,
                    bytes: elem.bytes(),
                    elem: *elem,
                    width: 1,
                    pattern: Pattern::Scalar,
                },
                &[],
            );
            let data: &mut BufferData = match loc {
                DLoc::Global(pool_idx) => pool.get_mut(*pool_idx),
                DLoc::Local(arg_idx) => grp.locals[*arg_idx].as_mut().expect("local buffer"),
            };
            let cur = data.get(i);
            let next = match op {
                AtomicOp::Add => eval_bin(BinOp::Add, &cur, &vval),
                AtomicOp::Inc => eval_bin(BinOp::Add, &cur, one),
                AtomicOp::Min => eval_bin(BinOp::Min, &cur, &vval),
                AtomicOp::Max => eval_bin(BinOp::Max, &cur, &vval),
            };
            data.set(i, &next, 0);
            if let Some(o) = old {
                item.regs[*o as usize] = cur;
            }
        }
        DOp::For {
            var,
            elem,
            start,
            end,
            step,
            body,
        } => {
            let (mut i, end_i, step_i) = (
                ev(&item.regs, start).get().lane_i64(0),
                ev(&item.regs, end).get().lane_i64(0),
                ev(&item.regs, step).get().lane_i64(0),
            );
            assert!(step_i != 0, "zero loop step");
            while (step_i > 0 && i < end_i) || (step_i < 0 && i > end_i) {
                item.regs[*var as usize] = match elem {
                    Scalar::I32 => Value::i32(i as i32),
                    Scalar::I64 => Value::i64(i),
                    Scalar::U32 => Value::u32(i as u32),
                    Scalar::U64 => Value::u64(i as u64),
                    other => panic!("loop counter of type {other}"),
                };
                tracer.loop_iter();
                exec_range(dp, pool, grp, ndr, item, *body, tracer);
                i += step_i;
            }
        }
        DOp::If { cond, then, els } => {
            let c = ev(&item.regs, cond).get().lane_bool(0);
            tracer.op(OpClass::Simple, VType::scalar(Scalar::Bool));
            if c {
                exec_range(dp, pool, grp, ndr, item, *then, tracer);
            } else {
                exec_range(dp, pool, grp, ndr, item, *els, tracer);
            }
        }
    }
}

fn emit_global_access<T: ExecTracer>(
    pool: &MemoryPool,
    pool_idx: usize,
    vidx: &Value,
    vt: VType,
    kind: AccessKind,
    stream: u32,
    tracer: &mut T,
) {
    let w = vidx.width();
    if w == 1 {
        tracer.mem(
            &MemAccess {
                stream,
                space: MemSpace::Global,
                kind,
                addr: pool.elem_addr(pool_idx, vidx.lane_index(0)),
                bytes: vt.elem.bytes(),
                elem: vt.elem,
                width: 1,
                pattern: Pattern::Scalar,
            },
            &[],
        );
    } else {
        let mut lane_addrs = [0u64; MAX_LANES];
        for (lane, slot) in lane_addrs.iter_mut().enumerate().take(w as usize) {
            *slot = pool.elem_addr(pool_idx, vidx.lane_index(lane));
        }
        tracer.mem(
            &MemAccess {
                stream,
                space: MemSpace::Global,
                kind,
                addr: lane_addrs[0],
                bytes: vt.elem.bytes() * w as u32,
                elem: vt.elem,
                width: w,
                pattern: Pattern::Gather,
            },
            &lane_addrs[..w as usize],
        );
    }
}

fn emit_local_access<T: ExecTracer>(
    base: u64,
    vidx: &Value,
    vt: VType,
    kind: AccessKind,
    stream: u32,
    tracer: &mut T,
) {
    let w = vidx.width();
    if w == 1 {
        tracer.mem(
            &MemAccess {
                stream,
                space: MemSpace::Local,
                kind,
                addr: base + vidx.lane_index(0) as u64 * vt.elem.bytes() as u64,
                bytes: vt.elem.bytes(),
                elem: vt.elem,
                width: 1,
                pattern: Pattern::Scalar,
            },
            &[],
        );
    } else {
        let mut lane_addrs = [0u64; MAX_LANES];
        for (lane, slot) in lane_addrs.iter_mut().enumerate().take(w as usize) {
            *slot = base + vidx.lane_index(lane) as u64 * vt.elem.bytes() as u64;
        }
        tracer.mem(
            &MemAccess {
                stream,
                space: MemSpace::Local,
                kind,
                addr: lane_addrs[0],
                bytes: vt.elem.bytes() * w as u32,
                elem: vt.elem,
                width: w,
                pattern: Pattern::Gather,
            },
            &lane_addrs[..w as usize],
        );
    }
}

// ---------------------------------------------------------------------------
// Engine selection
// ---------------------------------------------------------------------------

/// Which interpreter core executes work-groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The original per-item path: one work-item at a time, per-item
    /// register files of boxed-width `Value`s.
    Scalar,
    /// The columnar path: registers are SoA columns indexed by work-item,
    /// each decoded instruction runs across the whole group as a tight
    /// monomorphic loop, divergence is handled with active-masks.
    Columnar,
}

impl Engine {
    /// Stable name, as accepted by the `SIM_EXEC` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Columnar => "columnar",
        }
    }
}

/// 0 = unresolved (read `SIM_EXEC` lazily), 1 = scalar, 2 = columnar.
static ENGINE: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// The configured execution engine. Resolved once from the `SIM_EXEC`
/// environment variable (`scalar` | `columnar`, default columnar) unless
/// [`set_engine`] was called first.
pub fn engine() -> Engine {
    match ENGINE.load(std::sync::atomic::Ordering::Relaxed) {
        1 => Engine::Scalar,
        2 => Engine::Columnar,
        _ => {
            let e = match std::env::var("SIM_EXEC") {
                Ok(v) if v == "scalar" => Engine::Scalar,
                Ok(v) if v == "columnar" || v.is_empty() => Engine::Columnar,
                Ok(v) => panic!("SIM_EXEC must be 'scalar' or 'columnar', got '{v}'"),
                Err(_) => Engine::Columnar,
            };
            set_engine(e);
            e
        }
    }
}

/// Select the execution engine for subsequent launches (overrides
/// `SIM_EXEC`). Launches in flight keep the engine they resolved at start.
pub fn set_engine(e: Engine) {
    let v = match e {
        Engine::Scalar => 1,
        Engine::Columnar => 2,
    };
    ENGINE.store(v, std::sync::atomic::Ordering::Relaxed);
}

/// The engine a launch of `dp` actually uses under `requested`: launches the
/// columnar core cannot reproduce bit-identically fall back to scalar.
fn resolve_engine(requested: Engine, dp: &DecodedProgram) -> Engine {
    if requested == Engine::Columnar && dp.columnar_ok {
        Engine::Columnar
    } else {
        Engine::Scalar
    }
}

/// Scratch for whichever engine a launch resolves to; only the used side
/// allocates.
#[derive(Default)]
struct EngineScratch {
    scalar: ExecScratch,
    columnar: crate::columnar::ColScratch,
}

thread_local! {
    /// Worker-local columnar scratch for the sharded engine.
    static COL_SCRATCH: RefCell<crate::columnar::ColScratch> =
        RefCell::new(crate::columnar::ColScratch::default());
}

// ---------------------------------------------------------------------------
// Serial executor (public API, unchanged)
// ---------------------------------------------------------------------------

/// Executes one work-group at a time.
pub struct GroupExecutor<'a, T: ExecTracer> {
    dp: DecodedProgram,
    pool: &'a mut MemoryPool,
    ndrange: NDRange,
    pub tracer: &'a mut T,
    scratch: EngineScratch,
    engine: Engine,
}

impl<'a, T: ExecTracer> GroupExecutor<'a, T> {
    /// Build an executor on the globally configured [`engine`].
    pub fn new(
        program: &'a Program,
        bindings: &'a [ArgBinding],
        pool: &'a mut MemoryPool,
        ndrange: NDRange,
        tracer: &'a mut T,
    ) -> Result<Self, ExecError> {
        Self::with_engine(program, bindings, pool, ndrange, tracer, engine())
    }

    /// Build an executor on an explicit engine (differential tests compare
    /// both cores in-process without touching the global selection).
    pub fn with_engine(
        program: &'a Program,
        bindings: &'a [ArgBinding],
        pool: &'a mut MemoryPool,
        ndrange: NDRange,
        tracer: &'a mut T,
        engine: Engine,
    ) -> Result<Self, ExecError> {
        if !ndrange.valid() {
            return Err(ExecError::InvalidNDRange(ndrange));
        }
        // Ambient optimizer pipeline (opt::set_passes / opt::with_passes), the
        // same hook for every engine and thread count so results stay
        // byte-identical across the execution matrix.
        let opt = crate::opt::executed(program);
        let program = opt.as_deref().unwrap_or(program);
        check_bindings(program, bindings, pool)?;
        let dp = DecodedProgram::decode(program, bindings, pool);
        let engine = resolve_engine(engine, &dp);
        Ok(GroupExecutor {
            dp,
            pool,
            ndrange,
            tracer,
            scratch: EngineScratch::default(),
            engine,
        })
    }

    /// The engine this launch resolved to (columnar may fall back to scalar
    /// for launches it cannot reproduce bit-identically).
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Run one work-group identified by its linear id.
    pub fn run_group(&mut self, group_linear: usize) {
        match self.engine {
            Engine::Scalar => exec_group_into(
                &self.dp,
                self.ndrange,
                group_linear,
                self.pool,
                &mut self.scratch.scalar,
                self.tracer,
            ),
            Engine::Columnar => crate::columnar::exec_group_columnar(
                &self.dp,
                self.ndrange,
                group_linear,
                self.pool,
                &mut self.scratch.columnar,
                self.tracer,
            ),
        }
    }

    /// Run every group in linear order (functional-reference schedule).
    pub fn run_all(&mut self) {
        for g in 0..self.ndrange.total_groups() {
            self.run_group(g);
        }
    }
}

/// Convenience: run a full NDRange over a pool with a tracer on the globally
/// configured engine.
pub fn run_ndrange<T: ExecTracer>(
    program: &Program,
    bindings: &[ArgBinding],
    pool: &mut MemoryPool,
    ndrange: NDRange,
    tracer: &mut T,
) -> Result<(), ExecError> {
    let mut ex = GroupExecutor::new(program, bindings, pool, ndrange, tracer)?;
    ex.run_all();
    Ok(())
}

/// [`run_ndrange`] with an explicit engine.
pub fn run_ndrange_with_engine<T: ExecTracer>(
    program: &Program,
    bindings: &[ArgBinding],
    pool: &mut MemoryPool,
    ndrange: NDRange,
    tracer: &mut T,
    engine: Engine,
) -> Result<(), ExecError> {
    let mut ex = GroupExecutor::with_engine(program, bindings, pool, ndrange, tracer, engine)?;
    ex.run_all();
    Ok(())
}

// ---------------------------------------------------------------------------
// Sharded (parallel) executor
// ---------------------------------------------------------------------------

/// What the sharded engine actually did for one launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchStats {
    /// Total work-groups executed.
    pub groups: usize,
    /// Worker threads the group loop ran on (1 = serial).
    pub threads: usize,
    /// Why the launch was forced serial despite a multi-thread request.
    pub serial_reason: Option<&'static str>,
    /// Interpreter core the launch resolved to. Never exported into result
    /// artifacts — outputs are byte-identical across engines by contract.
    pub engine: Engine,
}

/// `&mut MemoryPool` smuggled across worker threads.
///
/// SAFETY: sound only under the OpenCL data-parallel contract the interpreter
/// already assumes — distinct work-groups never race on the same buffer
/// element (racy kernels are undefined behaviour in OpenCL itself), and
/// kernels performing *global* atomics (the one sanctioned cross-group
/// coupling) are excluded by the caller, which runs them serially.
struct PoolPtr(*mut MemoryPool);
unsafe impl Send for PoolPtr {}
unsafe impl Sync for PoolPtr {}

impl PoolPtr {
    /// SAFETY: callers must only touch buffer elements their work-group owns
    /// (see the type-level contract above).
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self) -> &mut MemoryPool {
        &mut *self.0
    }
}

/// How many groups to execute per fork/join window. Bounds the memory held
/// by recorded-but-not-yet-replayed `MemAccess` logs.
fn window_size(threads: usize) -> usize {
    (threads * 8).max(32)
}

/// Run a full NDRange with work-groups executed in parallel on `threads`
/// workers, producing **bit-identical** tracer state to a serial run.
///
/// Each group's op-side events accumulate into a [`ShardTracer::Shard`] on
/// the worker that executes it; its memory accesses are recorded. The main
/// thread then absorbs shards and replays access logs in ascending group
/// order — the same canonical order the serial engine uses — so every
/// floating-point accumulation and every stateful cache-model transition
/// happens identically for any thread count, including 1.
///
/// Launches with global atomics run their groups serially (the replayed
/// trace stays deterministic, but the *functional* RMW order must be the
/// group order); [`LaunchStats::serial_reason`] reports this.
pub fn run_ndrange_sharded<T>(
    program: &Program,
    bindings: &[ArgBinding],
    pool: &mut MemoryPool,
    ndrange: NDRange,
    tracer: &mut T,
    threads: usize,
) -> Result<LaunchStats, ExecError>
where
    T: ShardTracer + Sync,
{
    if !ndrange.valid() {
        return Err(ExecError::InvalidNDRange(ndrange));
    }
    // Same ambient-optimizer hook as `GroupExecutor::with_engine`.
    let opt = crate::opt::executed(program);
    let program = opt.as_deref().unwrap_or(program);
    check_bindings(program, bindings, pool)?;
    let dp = DecodedProgram::decode(program, bindings, pool);
    let total = ndrange.total_groups();
    let eng = resolve_engine(engine(), &dp);

    let threads = threads.max(1);
    let (threads, serial_reason) = if dp.has_global_atomic && threads > 1 {
        (1, Some("global atomics force serial work-groups"))
    } else {
        (threads, None)
    };

    let window = window_size(threads);
    let pp = PoolPtr(pool as *mut MemoryPool);
    let dp_ref = &dp;
    let mut g0 = 0;
    while g0 < total {
        let count = window.min(total - g0);
        let tracer_ref: &T = tracer;
        let chunk: Vec<(T::Shard, Vec<MemAccess>, Vec<u64>)> =
            sim_pool::parallel_map_threads(threads, count, |k| {
                let group = g0 + k;
                // SAFETY: see `PoolPtr` — groups touch disjoint elements.
                let pool_mut = unsafe { pp.get() };
                let mut rec = RecordingTracer::new(tracer_ref.make_shard());
                match eng {
                    Engine::Scalar => SCRATCH.with(|s| {
                        let mut scratch = s.borrow_mut();
                        exec_group_into(dp_ref, ndrange, group, pool_mut, &mut scratch, &mut rec);
                    }),
                    Engine::Columnar => COL_SCRATCH.with(|s| {
                        let mut scratch = s.borrow_mut();
                        crate::columnar::exec_group_columnar(
                            dp_ref,
                            ndrange,
                            group,
                            pool_mut,
                            &mut scratch,
                            &mut rec,
                        );
                    }),
                }
                (rec.shard, rec.mem_log, rec.lane_log)
            });
        for (shard, mems, lanes) in chunk {
            tracer.absorb_group(shard, &mems, &lanes);
        }
        g0 += count;
    }
    Ok(LaunchStats {
        groups: total,
        threads,
        serial_reason,
        engine: eng,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::instr::BinOp;
    use crate::trace::{CountingTracer, NullTracer};
    use crate::types::Access;

    /// c[i] = a[i] + b[i]
    fn vecadd_kernel() -> Program {
        let mut kb = KernelBuilder::new("vecadd");
        let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let b = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let c = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
        let gid = kb.query_global_id(0);
        let va = kb.load(Scalar::F32, a, gid.into());
        let vb = kb.load(Scalar::F32, b, gid.into());
        let s = kb.bin(BinOp::Add, va.into(), vb.into(), VType::scalar(Scalar::F32));
        kb.store(c, gid.into(), s.into());
        kb.finish()
    }

    #[test]
    fn vecadd_computes() {
        let p = vecadd_kernel();
        p.validate().expect("valid kernel");
        let mut pool = MemoryPool::new();
        let a = pool.add(BufferData::from(
            (0..64).map(|i| i as f32).collect::<Vec<_>>(),
        ));
        let b = pool.add(BufferData::from(vec![1.0f32; 64]));
        let c = pool.add(BufferData::zeroed(Scalar::F32, 64));
        let bindings = [
            ArgBinding::Global(a),
            ArgBinding::Global(b),
            ArgBinding::Global(c),
        ];
        let mut t = NullTracer;
        run_ndrange(&p, &bindings, &mut pool, NDRange::d1(64, 16), &mut t).unwrap();
        for i in 0..64 {
            assert_eq!(pool.get(c).as_f32()[i], i as f32 + 1.0);
        }
    }

    #[test]
    fn vecadd_event_counts() {
        let p = vecadd_kernel();
        let mut pool = MemoryPool::new();
        let a = pool.add(BufferData::zeroed(Scalar::F32, 64));
        let b = pool.add(BufferData::zeroed(Scalar::F32, 64));
        let c = pool.add(BufferData::zeroed(Scalar::F32, 64));
        let bindings = [
            ArgBinding::Global(a),
            ArgBinding::Global(b),
            ArgBinding::Global(c),
        ];
        let mut t = CountingTracer::default();
        run_ndrange(&p, &bindings, &mut pool, NDRange::d1(64, 16), &mut t).unwrap();
        assert_eq!(t.threads, 64);
        assert_eq!(t.groups, 4);
        assert_eq!(t.loads, 128);
        assert_eq!(t.stores, 64);
        assert_eq!(t.bytes_read, 128 * 4);
        assert_eq!(t.bytes_written, 64 * 4);
    }

    #[test]
    fn vectorized_vecadd_matches_scalar() {
        // float4 version: gid processes elements [4*gid, 4*gid+4)
        let mut kb = KernelBuilder::new("vecadd4");
        let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let b = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let c = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
        let gid = kb.query_global_id(0);
        let base = kb.bin(
            BinOp::Mul,
            gid.into(),
            Operand::ImmI(4),
            VType::scalar(Scalar::U32),
        );
        let va = kb.vload(Scalar::F32, 4, a, base.into());
        let vb = kb.vload(Scalar::F32, 4, b, base.into());
        let s = kb.bin(BinOp::Add, va.into(), vb.into(), VType::new(Scalar::F32, 4));
        kb.vstore(c, base.into(), s.into());
        let p = kb.finish();
        p.validate().expect("valid");

        let mut pool = MemoryPool::new();
        let a = pool.add(BufferData::from(
            (0..64).map(|i| i as f32 * 0.5).collect::<Vec<_>>(),
        ));
        let b = pool.add(BufferData::from(
            (0..64).map(|i| i as f32).collect::<Vec<_>>(),
        ));
        let c = pool.add(BufferData::zeroed(Scalar::F32, 64));
        let bindings = [
            ArgBinding::Global(a),
            ArgBinding::Global(b),
            ArgBinding::Global(c),
        ];
        let mut t = CountingTracer::default();
        run_ndrange(&p, &bindings, &mut pool, NDRange::d1(16, 8), &mut t).unwrap();
        for i in 0..64 {
            assert_eq!(pool.get(c).as_f32()[i], i as f32 * 1.5);
        }
        // 16 threads × 2 vloads, all contiguous.
        assert_eq!(t.loads, 32);
        assert_eq!(t.contiguous, 32 + 16);
        assert_eq!(t.bytes_read, 128 * 4);
    }

    #[test]
    fn barrier_phases_share_local_memory() {
        // Each item writes its local id to local mem; after the barrier,
        // item 0 sums them and stores to out[group_id].
        let mut kb = KernelBuilder::new("localsum");
        let out = kb.arg_global(Scalar::U32, Access::WriteOnly, true);
        let scratch = kb.arg_local(Scalar::U32);
        let lid = kb.query_local_id(0);
        kb.store(scratch, lid.into(), lid.into());
        kb.barrier();
        let lid2 = kb.query_local_id(0);
        let is_zero = kb.bin(
            BinOp::Eq,
            lid2.into(),
            Operand::ImmI(0),
            VType::scalar(Scalar::U32),
        );
        kb.if_then(is_zero.into(), |kb| {
            let acc = kb.mov(Operand::ImmI(0), VType::scalar(Scalar::U32));
            let lsz = kb.query_local_size(0);
            kb.for_loop(Operand::ImmI(0), lsz.into(), Operand::ImmI(1), |kb, i| {
                let v = kb.load(Scalar::U32, scratch, i.into());
                kb.bin_into(acc, BinOp::Add, acc.into(), v.into());
            });
            let gid = kb.query_group_id(0);
            kb.store(out, gid.into(), acc.into());
        });
        let p = kb.finish();
        p.validate().expect("valid");

        let mut pool = MemoryPool::new();
        let out_b = pool.add(BufferData::zeroed(Scalar::U32, 4));
        let bindings = [ArgBinding::Global(out_b), ArgBinding::LocalSize(8)];
        let mut t = NullTracer;
        run_ndrange(&p, &bindings, &mut pool, NDRange::d1(32, 8), &mut t).unwrap();
        // sum of 0..8 = 28 in every group
        for g in 0..4 {
            assert_eq!(pool.get(out_b).as_u32()[g], 28);
        }
    }

    #[test]
    fn atomics_serialize_correctly() {
        let mut kb = KernelBuilder::new("count");
        let out = kb.arg_global(Scalar::U32, Access::ReadWrite, false);
        kb.atomic(AtomicOp::Inc, out, Operand::ImmI(0), Operand::ImmI(0));
        let p = kb.finish();
        p.validate().expect("valid");
        let mut pool = MemoryPool::new();
        let out_b = pool.add(BufferData::zeroed(Scalar::U32, 1));
        let mut t = CountingTracer::default();
        run_ndrange(
            &p,
            &[ArgBinding::Global(out_b)],
            &mut pool,
            NDRange::d1(100, 10),
            &mut t,
        )
        .unwrap();
        assert_eq!(pool.get(out_b).as_u32()[0], 100);
        assert_eq!(t.atomics, 100);
    }

    #[test]
    fn scalar_args_are_readable() {
        let mut kb = KernelBuilder::new("saxpy_alpha");
        let x = kb.arg_global(Scalar::F32, Access::ReadWrite, true);
        let alpha = kb.arg_scalar(Scalar::F32);
        let gid = kb.query_global_id(0);
        let va = kb.load_scalar_arg(alpha);
        let vx = kb.load(Scalar::F32, x, gid.into());
        let r = kb.bin(BinOp::Mul, vx.into(), va.into(), VType::scalar(Scalar::F32));
        kb.store(x, gid.into(), r.into());
        let p = kb.finish();
        p.validate().expect("valid");
        let mut pool = MemoryPool::new();
        let x_b = pool.add(BufferData::from(vec![2.0f32; 8]));
        let bindings = [ArgBinding::Global(x_b), ArgBinding::Scalar(Value::f32(3.0))];
        run_ndrange(&p, &bindings, &mut pool, NDRange::d1(8, 8), &mut NullTracer).unwrap();
        assert_eq!(pool.get(x_b).as_f32(), &[6.0f32; 8]);
    }

    #[test]
    fn uninitialized_registers_read_zero_across_group_reuse() {
        // A register written only under a condition must read as the
        // declared type's zero everywhere else — including in later groups
        // whose reused register-file slot was written by an earlier group.
        let mut kb = KernelBuilder::new("stale");
        let out = kb.arg_global(Scalar::U32, Access::WriteOnly, true);
        let acc = kb.reg(VType::scalar(Scalar::U32));
        let gid = kb.query_global_id(0);
        let is0 = kb.bin(
            BinOp::Eq,
            gid.into(),
            Operand::ImmI(0),
            VType::scalar(Scalar::U32),
        );
        kb.if_then(is0.into(), |kb| {
            kb.mov_into(acc, Operand::ImmI(7));
        });
        kb.store(out, gid.into(), acc.into());
        let p = kb.finish();
        p.validate().expect("valid");

        for eng in [Engine::Scalar, Engine::Columnar] {
            let mut pool = MemoryPool::new();
            let out_b = pool.add(BufferData::zeroed(Scalar::U32, 8));
            let mut t = NullTracer;
            let bindings = [ArgBinding::Global(out_b)];
            // Local size 1: every group reuses the same item slot, so a
            // stale-value leak from group 0's write would surface directly.
            let mut ex = GroupExecutor::with_engine(
                &p,
                &bindings,
                &mut pool,
                NDRange::d1(8, 1),
                &mut t,
                eng,
            )
            .unwrap();
            assert_eq!(ex.engine(), eng, "kernel should not force a fallback");
            ex.run_all();
            let got = pool.get(out_b).as_u32();
            assert_eq!(got[0], 7, "{eng:?}");
            assert_eq!(&got[1..], &[0u32; 7], "{eng:?}");
        }
    }

    #[test]
    fn columnar_matches_scalar_counters_and_outputs() {
        let p = vecadd_kernel();
        let run = |eng: Engine| {
            let mut pool = MemoryPool::new();
            let a = pool.add(BufferData::from(
                (0..96).map(|i| i as f32 * 0.25).collect::<Vec<_>>(),
            ));
            let b = pool.add(BufferData::from(vec![1.5f32; 96]));
            let c = pool.add(BufferData::zeroed(Scalar::F32, 96));
            let bindings = [
                ArgBinding::Global(a),
                ArgBinding::Global(b),
                ArgBinding::Global(c),
            ];
            let mut t = CountingTracer::default();
            // Non-power-of-2 local size exercises ragged columns.
            run_ndrange_with_engine(&p, &bindings, &mut pool, NDRange::d1(96, 12), &mut t, eng)
                .unwrap();
            (t, pool.get(c).as_f32().to_vec())
        };
        let (ts, outs) = run(Engine::Scalar);
        let (tc, outc) = run(Engine::Columnar);
        assert_eq!(ts, tc, "telemetry counters must match across engines");
        assert_eq!(outs, outc, "outputs must match across engines");
    }

    #[test]
    fn invalid_ndrange_rejected() {
        let p = vecadd_kernel();
        let mut pool = MemoryPool::new();
        let a = pool.add(BufferData::zeroed(Scalar::F32, 64));
        let b = pool.add(BufferData::zeroed(Scalar::F32, 64));
        let c = pool.add(BufferData::zeroed(Scalar::F32, 64));
        let bindings = [
            ArgBinding::Global(a),
            ArgBinding::Global(b),
            ArgBinding::Global(c),
        ];
        let err = run_ndrange(
            &p,
            &bindings,
            &mut pool,
            NDRange::d1(63, 16),
            &mut NullTracer,
        );
        assert!(matches!(err, Err(ExecError::InvalidNDRange(_))));
    }

    #[test]
    fn binding_mismatch_rejected() {
        let p = vecadd_kernel();
        let mut pool = MemoryPool::new();
        let a = pool.add(BufferData::zeroed(Scalar::F32, 64));
        let err = run_ndrange(
            &p,
            &[ArgBinding::Global(a)],
            &mut pool,
            NDRange::d1(64, 16),
            &mut NullTracer,
        );
        assert!(matches!(err, Err(ExecError::BindingMismatch(_))));
    }

    #[test]
    fn ndrange_helpers() {
        let n = NDRange::d2(64, 32, 8, 4);
        assert_eq!(n.num_groups(), [8, 8, 1]);
        assert_eq!(n.total_groups(), 64);
        assert_eq!(n.group_size(), 32);
        assert_eq!(n.total_items(), 2048);
        assert_eq!(n.group_coords(9), [1, 1, 0]);
    }

    #[test]
    fn for_loop_with_negative_step() {
        let mut kb = KernelBuilder::new("countdown");
        let out = kb.arg_global(Scalar::I32, Access::ReadWrite, false);
        let acc = kb.mov(Operand::ImmI(0), VType::scalar(Scalar::I32));
        kb.for_loop_typed(
            Scalar::I32,
            Operand::ImmI(5),
            Operand::ImmI(0),
            Operand::ImmI(-1),
            |kb, i| {
                kb.bin_into(acc, BinOp::Add, acc.into(), i.into());
            },
        );
        kb.store(out, Operand::ImmI(0), acc.into());
        let p = kb.finish();
        p.validate().expect("valid");
        let mut pool = MemoryPool::new();
        let out_b = pool.add(BufferData::zeroed(Scalar::I32, 1));
        run_ndrange(
            &p,
            &[ArgBinding::Global(out_b)],
            &mut pool,
            NDRange::d1(1, 1),
            &mut NullTracer,
        )
        .unwrap();
        assert_eq!(pool.get(out_b).as_i32()[0], 5 + 4 + 3 + 2 + 1);
    }

    // --- sharded engine ----------------------------------------------------

    /// Minimal ShardTracer: shards are CountingTracers; absorb merges the
    /// shard and replays memory accesses into the main counter.
    #[derive(Default)]
    struct CountingShardTracer {
        total: CountingTracer,
    }

    impl ShardTracer for CountingShardTracer {
        type Shard = CountingTracer;
        fn make_shard(&self) -> CountingTracer {
            CountingTracer::default()
        }
        fn absorb_group(&mut self, shard: CountingTracer, mem: &[MemAccess], lanes: &[u64]) {
            let t = &mut self.total;
            t.ops += shard.ops;
            t.special_ops += shard.special_ops;
            t.mad_ops += shard.mad_ops;
            t.barriers += shard.barriers;
            t.loop_iters += shard.loop_iters;
            t.threads += shard.threads;
            t.groups += shard.groups;
            t.lanes_issued += shard.lanes_issued;
            let mut lc = 0usize;
            for a in mem {
                let w = if a.pattern == Pattern::Gather {
                    a.width as usize
                } else {
                    0
                };
                t.mem(a, &lanes[lc..lc + w]);
                lc += w;
            }
        }
    }

    fn barrier_kernel() -> Program {
        let mut kb = KernelBuilder::new("localsum");
        let out = kb.arg_global(Scalar::U32, Access::WriteOnly, true);
        let scratch = kb.arg_local(Scalar::U32);
        let lid = kb.query_local_id(0);
        kb.store(scratch, lid.into(), lid.into());
        kb.barrier();
        let lid2 = kb.query_local_id(0);
        let is_zero = kb.bin(
            BinOp::Eq,
            lid2.into(),
            Operand::ImmI(0),
            VType::scalar(Scalar::U32),
        );
        kb.if_then(is_zero.into(), |kb| {
            let acc = kb.mov(Operand::ImmI(0), VType::scalar(Scalar::U32));
            let lsz = kb.query_local_size(0);
            kb.for_loop(Operand::ImmI(0), lsz.into(), Operand::ImmI(1), |kb, i| {
                let v = kb.load(Scalar::U32, scratch, i.into());
                kb.bin_into(acc, BinOp::Add, acc.into(), v.into());
            });
            let gid = kb.query_group_id(0);
            kb.store(out, gid.into(), acc.into());
        });
        kb.finish()
    }

    fn run_sharded_counts(threads: usize) -> (CountingTracer, Vec<u32>, LaunchStats) {
        let p = barrier_kernel();
        let mut pool = MemoryPool::new();
        let out_b = pool.add(BufferData::zeroed(Scalar::U32, 16));
        let bindings = [ArgBinding::Global(out_b), ArgBinding::LocalSize(8)];
        let mut t = CountingShardTracer::default();
        let stats = run_ndrange_sharded(
            &p,
            &bindings,
            &mut pool,
            NDRange::d1(128, 8),
            &mut t,
            threads,
        )
        .unwrap();
        (t.total, pool.get(out_b).as_u32().to_vec(), stats)
    }

    #[test]
    fn sharded_matches_serial_tracer_and_results() {
        let p = barrier_kernel();
        let mut pool = MemoryPool::new();
        let out_b = pool.add(BufferData::zeroed(Scalar::U32, 16));
        let bindings = [ArgBinding::Global(out_b), ArgBinding::LocalSize(8)];
        let mut serial = CountingTracer::default();
        run_ndrange(&p, &bindings, &mut pool, NDRange::d1(128, 8), &mut serial).unwrap();
        let serial_out = pool.get(out_b).as_u32().to_vec();

        for threads in [1, 4, 8] {
            let (counts, out, stats) = run_sharded_counts(threads);
            assert_eq!(out, serial_out, "results diverged at {threads} threads");
            assert_eq!(stats.threads, threads);
            assert_eq!(stats.serial_reason, None);
            assert_eq!(counts.ops, serial.ops);
            assert_eq!(counts.loads, serial.loads);
            assert_eq!(counts.stores, serial.stores);
            assert_eq!(counts.local_accesses, serial.local_accesses);
            assert_eq!(counts.barriers, serial.barriers);
            assert_eq!(counts.loop_iters, serial.loop_iters);
            assert_eq!(counts.threads, serial.threads);
            assert_eq!(counts.groups, serial.groups);
        }
    }

    #[test]
    fn sharded_atomics_fall_back_to_serial() {
        let mut kb = KernelBuilder::new("count");
        let out = kb.arg_global(Scalar::U32, Access::ReadWrite, false);
        kb.atomic(AtomicOp::Inc, out, Operand::ImmI(0), Operand::ImmI(0));
        let p = kb.finish();
        let mut pool = MemoryPool::new();
        let out_b = pool.add(BufferData::zeroed(Scalar::U32, 1));
        let mut t = CountingShardTracer::default();
        let stats = run_ndrange_sharded(
            &p,
            &[ArgBinding::Global(out_b)],
            &mut pool,
            NDRange::d1(100, 10),
            &mut t,
            8,
        )
        .unwrap();
        assert_eq!(stats.threads, 1);
        assert!(stats.serial_reason.is_some());
        assert_eq!(pool.get(out_b).as_u32()[0], 100);
        assert_eq!(t.total.atomics, 100);
    }

    #[test]
    fn local_atomics_do_not_force_serial() {
        // Atomic on a *local* buffer is per-group state — safe in parallel.
        let mut kb = KernelBuilder::new("localcount");
        let out = kb.arg_global(Scalar::U32, Access::WriteOnly, true);
        let scratch = kb.arg_local(Scalar::U32);
        kb.atomic(AtomicOp::Inc, scratch, Operand::ImmI(0), Operand::ImmI(0));
        kb.barrier();
        let lid = kb.query_local_id(0);
        let is_zero = kb.bin(
            BinOp::Eq,
            lid.into(),
            Operand::ImmI(0),
            VType::scalar(Scalar::U32),
        );
        kb.if_then(is_zero.into(), |kb| {
            let v = kb.load(Scalar::U32, scratch, Operand::ImmI(0));
            let gid = kb.query_group_id(0);
            kb.store(out, gid.into(), v.into());
        });
        let p = kb.finish();
        let mut pool = MemoryPool::new();
        let out_b = pool.add(BufferData::zeroed(Scalar::U32, 4));
        let mut t = CountingShardTracer::default();
        let stats = run_ndrange_sharded(
            &p,
            &[ArgBinding::Global(out_b), ArgBinding::LocalSize(1)],
            &mut pool,
            NDRange::d1(32, 8),
            &mut t,
            4,
        )
        .unwrap();
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.serial_reason, None);
        assert_eq!(pool.get(out_b).as_u32(), &[8, 8, 8, 8]);
    }

    #[test]
    fn executor_reuse_across_groups_is_clean() {
        // Registers and local buffers are reused across groups; a kernel
        // whose result would change if state leaked between groups.
        let p = barrier_kernel();
        let mut pool = MemoryPool::new();
        let out_b = pool.add(BufferData::zeroed(Scalar::U32, 8));
        let bindings = [ArgBinding::Global(out_b), ArgBinding::LocalSize(4)];
        run_ndrange(
            &p,
            &bindings,
            &mut pool,
            NDRange::d1(32, 4),
            &mut NullTracer,
        )
        .unwrap();
        // each group sums 0+1+2+3 = 6
        assert_eq!(pool.get(out_b).as_u32(), &[6u32; 8]);
    }
}
