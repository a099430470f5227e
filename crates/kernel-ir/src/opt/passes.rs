//! The optimization passes, each a function over [`Ssa`] form.
//!
//! Legality ground rules (the byte-identical-results invariant):
//!
//! - Constant arithmetic goes through the interpreter's own `eval_*`
//!   helpers, and immediates are materialized exactly the way the decoder's
//!   `splat_imm` will re-materialize them, so folding is bit-exact by
//!   construction. NaN lanes are never turned into immediates.
//! - Float rewrites are restricted to exact IEEE identities (`x*1.0`,
//!   `x/1.0`, `x-0.0`, double negation). `x+0.0` is *not* an identity
//!   (`-0.0 + 0.0 == +0.0`) and float `Mul`+`Add` is never fused into `Mad`
//!   (`Mad` lowers to `mul_add`, which rounds once, not twice).
//! - Integer rewrites lean on the IR's wrapping semantics; `Mul`+`Add`
//!   fusion and multiply-by-power-of-two strength reduction are exact.
//! - Trapping ops (integer `Div`/`Rem`) are never speculated (licm), never
//!   folded unless the divisor is a known all-nonzero constant, and
//!   `Div`/`Rem` strength reduction is unsigned-only.
//! - `dse`/`dce` may delete memory events (the overwritten store, a dead
//!   load) without changing any result byte; this is the one documented
//!   observable deviation (DESIGN.md §17).
//!
//! Everything iterates `Vec`s/`BTreeMap`s only — pass output is fully
//! deterministic, a requirement for content-addressed serving cells.

use super::ssa::{BlockId, InstKind, Shape, Ssa, VOp, ValId};
use super::PassCounters;
use crate::instr::{BinOp, Builtin, UnOp};
use crate::ops::{eval_bin, eval_mad, eval_select, eval_un};
use crate::types::{Scalar, VType};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Materialize an immediate operand at `ty`, exactly as the decoder's
/// `splat_imm` will at launch. Returns `None` for contexts immediates
/// cannot legally take (`Bool`, or a float immediate in an int context).
fn imm_value(o: &VOp, ty: VType) -> Option<Value> {
    let w = ty.width;
    match (o, ty.elem) {
        (VOp::ImmF(x), Scalar::F32) => Some(Value::splat_f32(*x as f32, w)),
        (VOp::ImmF(x), Scalar::F64) => Some(Value::splat_f64(*x, w)),
        (VOp::ImmF(_), _) => None,
        (VOp::ImmI(x), Scalar::F32) => Some(Value::splat_f32(*x as f32, w)),
        (VOp::ImmI(x), Scalar::F64) => Some(Value::splat_f64(*x as f64, w)),
        (VOp::ImmI(x), Scalar::I32) => Some(Value::splat_i32(*x as i32, w)),
        (VOp::ImmI(x), Scalar::I64) => Some(Value::splat_i64(*x, w)),
        (VOp::ImmI(x), Scalar::U32) => Some(Value::splat_u32(*x as u32, w)),
        (VOp::ImmI(x), Scalar::U64) => Some(Value::splat_u64(*x as u64, w)),
        (VOp::ImmI(_), Scalar::Bool) => None,
        (VOp::Val(_) | VOp::Reg(_), _) => None,
    }
}

/// Turn a known constant value into an immediate operand, but only when the
/// round trip through `splat_imm` is bit-exact: the value must be lane-
/// uniform, non-`Bool`, and float lanes must not be NaN (NaN payloads do
/// not survive an f32→f64→f32 round trip portably).
fn value_to_imm(v: &Value) -> Option<VOp> {
    let w = v.width() as usize;
    match v.elem() {
        Scalar::Bool => None,
        Scalar::F32 | Scalar::F64 => {
            let x = v.lane_f64(0);
            if x.is_nan() {
                return None;
            }
            for i in 1..w {
                if v.lane_f64(i).to_bits() != x.to_bits() {
                    return None;
                }
            }
            Some(VOp::ImmF(x))
        }
        _ => {
            let x = v.lane_i64(0);
            for i in 1..w {
                if v.lane_i64(i) != x {
                    return None;
                }
            }
            Some(VOp::ImmI(x))
        }
    }
}

/// Bitwise lane-by-lane equality (distinguishes `-0.0` from `0.0`, treats
/// equal-payload NaNs as equal).
fn bits_eq(a: &Value, b: &Value) -> bool {
    if a.vtype() != b.vtype() {
        return false;
    }
    (0..a.width() as usize).all(|i| match a.elem() {
        Scalar::F32 | Scalar::F64 => a.lane_f64(i).to_bits() == b.lane_f64(i).to_bits(),
        Scalar::Bool => a.lane_bool(i) == b.lane_bool(i),
        _ => a.lane_i64(i) == b.lane_i64(i),
    })
}

/// Static use counts of every value (phi arguments included).
fn use_counts(f: &Ssa) -> Vec<usize> {
    let mut uses = vec![0usize; f.insts.len()];
    for blk in &f.blocks {
        for &v in &blk.insts {
            for o in Ssa::operands(&f.insts[v].kind) {
                if let VOp::Val(u) = o {
                    uses[u] += 1;
                }
            }
        }
    }
    uses
}

// ---------------------------------------------------------------------------
// cf — constant folding + propagation
// ---------------------------------------------------------------------------

/// Evaluate `v` if all its operands are known constants; `None` otherwise.
/// Trapping cases (int div/rem with a zero divisor lane) are left alone so
/// the runtime trap survives.
fn const_eval(f: &Ssa, vals: &[Option<Value>], v: ValId) -> Option<Value> {
    let inst = &f.insts[v];
    let ty = inst.ty?;
    let opv = |o: &VOp, want: VType| -> Option<Value> {
        match o {
            VOp::Val(u) => vals[*u].map(|x| x.broadcast(want.width)),
            imm => imm_value(imm, want),
        }
    };
    match &inst.kind {
        InstKind::Bin { op, a, b } => {
            let want = if op.is_compare() {
                // Operand element type comes from whichever side is a value.
                let elem = [a, b]
                    .iter()
                    .find_map(|o| o.as_val().and_then(|u| f.insts[u].ty))
                    .map(|t| t.elem)?;
                VType {
                    elem,
                    width: ty.width,
                }
            } else {
                ty
            };
            let av = opv(a, want)?;
            let bv = opv(b, want)?;
            if matches!(op, BinOp::Div | BinOp::Rem) && want.elem.is_int() {
                // Keep the division-by-zero trap.
                if (0..bv.width() as usize).any(|i| bv.lane_i64(i) == 0) {
                    return None;
                }
            }
            Some(eval_bin(*op, &av, &bv))
        }
        InstKind::Un { op, a } => Some(eval_un(*op, &opv(a, ty)?)),
        InstKind::Mad { a, b, c } => Some(eval_mad(&opv(a, ty)?, &opv(b, ty)?, &opv(c, ty)?)),
        InstKind::Select { cond, a, b } => {
            let cw = VType {
                elem: Scalar::Bool,
                width: ty.width,
            };
            Some(eval_select(&opv(cond, cw)?, &opv(a, ty)?, &opv(b, ty)?))
        }
        InstKind::Mov { a } => opv(a, ty),
        InstKind::Cast { a } => {
            // Only fold through a known value — an immediate source has no
            // defined pre-cast type.
            let u = a.as_val()?;
            Some(vals[u]?.cast(ty.elem))
        }
        InstKind::Horiz { op, a } => {
            let u = a.as_val()?;
            let av = vals[u]?;
            if av.elem() == Scalar::Bool {
                return None;
            }
            Some(match op {
                crate::instr::HorizOp::Add => av.reduce_add(),
                crate::instr::HorizOp::Min => av.reduce_min(),
                crate::instr::HorizOp::Max => av.reduce_max(),
            })
        }
        InstKind::Extract { a, lane } => {
            let u = a.as_val()?;
            Some(vals[u]?.extract(*lane as usize))
        }
        InstKind::Insert { vec, v: val, lane } => {
            let vecv = opv(vec, ty)?;
            let vv = opv(val, VType::scalar(ty.elem))?;
            Some(vecv.insert(*lane as usize, &vv))
        }
        InstKind::Phi { args } => {
            let mut merged: Option<Value> = None;
            for (_, a) in args {
                let av = opv(a, ty)?;
                match &merged {
                    None => merged = Some(av),
                    Some(m) if bits_eq(m, &av) => {}
                    Some(_) => return None,
                }
            }
            merged
        }
        InstKind::Undef => Some(Value::zero(ty)),
        _ => None,
    }
}

pub(crate) fn const_fold(f: &mut Ssa, c: &mut PassCounters) {
    // Forward dataflow to a fixpoint (loop-carried constants converge on
    // the second sweep).
    let mut vals: Vec<Option<Value>> = vec![None; f.insts.len()];
    let rpo = f.rpo.clone();
    loop {
        let mut changed = false;
        for &b in &rpo {
            for i in 0..f.blocks[b].insts.len() {
                let v = f.blocks[b].insts[i];
                if vals[v].is_some() {
                    continue;
                }
                if let Some(val) = const_eval(f, &vals, v) {
                    vals[v] = Some(val);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Fold: rewrite fully-known pure computations to `Mov` of an immediate.
    // Phis stay phis (lowering materializes them as edge copies), and a
    // `Select` with a known lane-uniform condition collapses to the taken
    // arm even when the arm itself is unknown.
    for b in 0..f.blocks.len() {
        for i in 0..f.blocks[b].insts.len() {
            let v = f.blocks[b].insts[i];
            let foldable = matches!(
                f.insts[v].kind,
                InstKind::Bin { .. }
                    | InstKind::Un { .. }
                    | InstKind::Mad { .. }
                    | InstKind::Select { .. }
                    | InstKind::Cast { .. }
                    | InstKind::Horiz { .. }
                    | InstKind::Extract { .. }
                    | InstKind::Insert { .. }
            );
            if !foldable {
                continue;
            }
            if let Some(val) = &vals[v] {
                if let Some(imm) = value_to_imm(val) {
                    f.insts[v].kind = InstKind::Mov { a: imm };
                    c.folded += 1;
                    continue;
                }
            }
            if let InstKind::Select {
                cond: VOp::Val(u),
                a,
                b: alt,
            } = f.insts[v].kind
            {
                if let Some(cv) = &vals[u] {
                    let w = cv.width() as usize;
                    let first = cv.lane_bool(0);
                    if (1..w).all(|i| cv.lane_bool(i) == first) {
                        f.insts[v].kind = InstKind::Mov {
                            a: if first { a } else { alt },
                        };
                        c.folded += 1;
                    }
                }
            }
        }
    }

    // Propagate: rewrite operand uses of known constants to immediates,
    // wherever the validator (and the trap rules) allow an immediate.
    let mut propagated = 0u64;
    for b in 0..f.blocks.len() {
        for i in 0..f.blocks[b].insts.len() {
            let v = f.blocks[b].insts[i];
            let mut kind = std::mem::replace(&mut f.insts[v].kind, InstKind::Barrier);
            propagate_into(&mut kind, &vals, f, &mut propagated);
            f.insts[v].kind = kind;
        }
    }
    c.propagated += propagated;
}

/// Constant value of operand `o`, as an immediate, if representable.
fn imm_of(o: &VOp, vals: &[Option<Value>]) -> Option<VOp> {
    match o {
        VOp::Val(u) => vals[*u].as_ref().and_then(value_to_imm),
        _ => None,
    }
}

fn propagate_into(kind: &mut InstKind, vals: &[Option<Value>], f: &Ssa, n: &mut u64) {
    let width_of = |o: &VOp| -> u8 {
        match o {
            VOp::Val(u) => f.insts[*u].ty.map(|t| t.width).unwrap_or(1),
            _ => 1,
        }
    };
    fn prop(o: &mut VOp, vals: &[Option<Value>], n: &mut u64) {
        if let Some(imm) = imm_of(o, vals) {
            *o = imm;
            *n += 1;
        }
    }
    // Indices must stay non-negative as immediates (the validator rejects
    // negative immediate indices; a negative *runtime* index is a trap the
    // original program keeps).
    fn prop_idx(o: &mut VOp, vals: &[Option<Value>], n: &mut u64) {
        if let Some(VOp::ImmI(x)) = imm_of(o, vals) {
            if x >= 0 {
                *o = VOp::ImmI(x);
                *n += 1;
            }
        }
    }
    match kind {
        InstKind::Bin { op, a, b } if op.is_compare() => {
            // A compare needs at least one register side.
            let a_imm = !matches!(a, VOp::Val(_));
            let b_imm = !matches!(b, VOp::Val(_));
            if !a_imm && !b_imm {
                let before = *n;
                prop(a, vals, n);
                if *n == before {
                    prop(b, vals, n);
                }
            } else if !a_imm {
                prop(a, vals, n);
            }
            // else: a already immediate, b must stay a register.
        }
        InstKind::Bin { a, b, .. } => {
            prop(a, vals, n);
            prop(b, vals, n);
        }
        InstKind::Un { a, .. } | InstKind::Mov { a } => prop(a, vals, n),
        InstKind::Mad { a, b, c } => {
            prop(a, vals, n);
            prop(b, vals, n);
            prop(c, vals, n);
        }
        InstKind::Select { a, b, .. } => {
            // Never the condition (no Bool immediates).
            prop(a, vals, n);
            prop(b, vals, n);
        }
        // The source vector stays a value, like a phi argument (below).
        InstKind::Insert { v, .. } => prop(v, vals, n),
        InstKind::Load { idx, .. } => prop_idx(idx, vals, n),
        InstKind::VLoad { base, .. } => prop_idx(base, vals, n),
        InstKind::Store { idx, val, .. } => {
            // An immediate index means a width-1 store; only legal when the
            // index was scalar to begin with.
            if width_of(idx) == 1 {
                prop_idx(idx, vals, n);
            }
            prop(val, vals, n);
        }
        InstKind::VStore { base, .. } => {
            // `val` must stay a register (validator).
            prop_idx(base, vals, n);
        }
        InstKind::Atomic { idx, val, .. } => {
            prop_idx(idx, vals, n);
            prop(val, vals, n);
        }
        InstKind::LoopBounds { start, end, step } => {
            prop(start, vals, n);
            prop(end, vals, n);
            // `ImmI(0)` steps are rejected by the validator; a runtime zero
            // step simply iterates zero times, so keep it in a register.
            if let Some(VOp::ImmI(x)) = imm_of(step, vals) {
                if x != 0 {
                    *step = VOp::ImmI(x);
                    *n += 1;
                }
            }
        }
        // Horiz/Extract/VStore-val/Cast sources and If/Select conditions
        // must remain registers. Phi arguments stay values: lowering
        // coalesces them with the phi, and an immediate argument would
        // turn that free copy into a move while its old definition stays.
        // An `Insert` source vector is coalesced the same way.
        InstKind::Cast { .. }
        | InstKind::Phi { .. }
        | InstKind::Horiz { .. }
        | InstKind::Extract { .. }
        | InstKind::IfCond { .. }
        | InstKind::Query { .. }
        | InstKind::ScalarArg { .. }
        | InstKind::Barrier
        | InstKind::Undef
        | InstKind::ForIndex => {}
    }
}

// ---------------------------------------------------------------------------
// alg — algebraic simplification + copy propagation
// ---------------------------------------------------------------------------

pub(crate) fn algebraic(f: &mut Ssa, c: &mut PassCounters) {
    // Identity rewrites create new `Mov`s that the forwarding sweep must then
    // fold through (e.g. `neg(neg(x))` -> `Mov x` -> uses rewritten to `x`),
    // so iterate to a fixpoint. Each round strictly shrinks the set of
    // non-`Mov` rewritable instructions, so this terminates quickly.
    while algebraic_round(f, c) {}
}

fn algebraic_round(f: &mut Ssa, c: &mut PassCounters) -> bool {
    let mut changed = false;
    // Copy propagation: resolve `Mov` chains (exact-type only — a widening
    // broadcast Mov is a real operation) and trivial phis.
    let n = f.insts.len();
    let mut fwd: Vec<Option<ValId>> = vec![None; n];
    for (v, slot) in fwd.iter_mut().enumerate() {
        match &f.insts[v].kind {
            InstKind::Mov { a: VOp::Val(u) } if f.insts[v].ty == f.insts[*u].ty => {
                *slot = Some(*u);
            }
            InstKind::Phi { args } if !args.is_empty() => {
                let mut same: Option<ValId> = None;
                let mut trivial = true;
                for (_, a) in args {
                    match a {
                        VOp::Val(u) if *u == v => {}
                        VOp::Val(u) if same.is_none() || same == Some(*u) => same = Some(*u),
                        _ => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial {
                    if let Some(u) = same {
                        if f.insts[v].ty == f.insts[u].ty {
                            *slot = Some(u);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    let resolve = |mut v: ValId| -> ValId {
        let mut hops = 0;
        while let Some(u) = fwd[v] {
            v = u;
            hops += 1;
            if hops > n {
                break; // defensive: mutually-trivial phi cycle
            }
        }
        v
    };
    for b in 0..f.blocks.len() {
        for i in 0..f.blocks[b].insts.len() {
            let v = f.blocks[b].insts[i];
            // Phi arguments keep their copies: lowering coalesces a copy
            // with the phi, while its source may be live across the edge.
            if matches!(f.insts[v].kind, InstKind::Phi { .. }) {
                continue;
            }
            let mut kind = std::mem::replace(&mut f.insts[v].kind, InstKind::Barrier);
            for o in Ssa::operands_mut(&mut kind) {
                if let VOp::Val(u) = o {
                    let r = resolve(*u);
                    if r != *u {
                        *u = r;
                        changed = true;
                    }
                }
            }
            f.insts[v].kind = kind;
        }
    }

    // Identity rewrites.
    let same_vop = |a: &VOp, b: &VOp| -> bool {
        match (a, b) {
            (VOp::Val(x), VOp::Val(y)) => x == y,
            (VOp::ImmI(x), VOp::ImmI(y)) => x == y,
            (VOp::ImmF(x), VOp::ImmF(y)) => x.to_bits() == y.to_bits(),
            _ => false,
        }
    };
    let is_zero_i = |o: &VOp| matches!(o, VOp::ImmI(0));
    // `+0.0` only — `x - (+0.0) == x` exactly, `x - (-0.0)` is not.
    let is_pos_zero_f = |o: &VOp| {
        matches!(o, VOp::ImmI(0)) || matches!(o, VOp::ImmF(x) if x.to_bits() == 0.0f64.to_bits())
    };
    let is_one = |o: &VOp, float: bool| {
        matches!(o, VOp::ImmI(1)) || (float && matches!(o, VOp::ImmF(x) if *x == 1.0))
    };
    for v in 0..n {
        let ty = match f.insts[v].ty {
            Some(t) => t,
            None => continue,
        };
        let int = ty.elem.is_int();
        let float = ty.elem.is_float();
        let new_kind: Option<InstKind> = match &f.insts[v].kind {
            InstKind::Bin { op, a, b } if !op.is_compare() => {
                let mv = |o: &VOp| Some(InstKind::Mov { a: *o });
                let zero = || Some(InstKind::Mov { a: VOp::ImmI(0) });
                match op {
                    BinOp::Add if int && is_zero_i(b) => mv(a),
                    BinOp::Add if int && is_zero_i(a) => mv(b),
                    BinOp::Sub if int && is_zero_i(b) => mv(a),
                    BinOp::Sub if int && same_vop(a, b) => zero(),
                    BinOp::Sub if float && is_pos_zero_f(b) => mv(a),
                    BinOp::Mul if (int || float) && is_one(b, float) => mv(a),
                    BinOp::Mul if (int || float) && is_one(a, float) => mv(b),
                    BinOp::Mul if int && (is_zero_i(a) || is_zero_i(b)) => zero(),
                    BinOp::Div if (int || float) && is_one(b, float) => mv(a),
                    BinOp::Rem if int && is_one(b, false) => zero(),
                    BinOp::And if int && same_vop(a, b) => mv(a),
                    BinOp::And if int && (is_zero_i(a) || is_zero_i(b)) => zero(),
                    BinOp::Or if int && same_vop(a, b) => mv(a),
                    BinOp::Or if int && is_zero_i(b) => mv(a),
                    BinOp::Or if int && is_zero_i(a) => mv(b),
                    BinOp::Xor if int && same_vop(a, b) => zero(),
                    BinOp::Xor if int && is_zero_i(b) => mv(a),
                    BinOp::Xor if int && is_zero_i(a) => mv(b),
                    BinOp::Shl | BinOp::Shr if int && is_zero_i(b) => mv(a),
                    BinOp::Min | BinOp::Max if same_vop(a, b) => mv(a),
                    _ => None,
                }
            }
            InstKind::Mad { a, b, c } if int => {
                if is_zero_i(a) || is_zero_i(b) {
                    Some(InstKind::Mov { a: *c })
                } else if is_zero_i(c) {
                    Some(InstKind::Bin {
                        op: BinOp::Mul,
                        a: *a,
                        b: *b,
                    })
                } else if is_one(b, false) {
                    Some(InstKind::Bin {
                        op: BinOp::Add,
                        a: *a,
                        b: *c,
                    })
                } else if is_one(a, false) {
                    Some(InstKind::Bin {
                        op: BinOp::Add,
                        a: *b,
                        b: *c,
                    })
                } else {
                    None
                }
            }
            InstKind::Select { a, b, .. } if same_vop(a, b) => Some(InstKind::Mov { a: *a }),
            InstKind::Un { op: UnOp::Neg, a } => match a.as_val() {
                // --x == x exactly: ints wrap, floats flip the sign bit.
                Some(u) => match &f.insts[u].kind {
                    InstKind::Un {
                        op: UnOp::Neg,
                        a: inner,
                    } if f.insts[u].ty == Some(ty) => Some(InstKind::Mov { a: *inner }),
                    _ => None,
                },
                None => None,
            },
            InstKind::Un { op: UnOp::Abs, a } => match a.as_val() {
                Some(u) => match &f.insts[u].kind {
                    InstKind::Un { op: UnOp::Abs, .. } if f.insts[u].ty == Some(ty) => {
                        Some(InstKind::Mov { a: VOp::Val(u) })
                    }
                    _ => None,
                },
                None => None,
            },
            _ => None,
        };
        if let Some(k) = new_kind {
            f.insts[v].kind = k;
            c.simplified += 1;
            changed = true;
        }
    }
    changed
}

// ---------------------------------------------------------------------------
// sr — strength reduction
// ---------------------------------------------------------------------------

/// `Some(k)` when `o` is an integer immediate equal to `2^k`, `k >= 1`,
/// and `2^k` is exactly representable in `elem` (so the decoder's wrapping
/// materialization cannot change the divisor).
fn pow2_shift(o: &VOp, elem: Scalar) -> Option<i64> {
    let bits = (elem.bytes() * 8) as i64;
    match o {
        VOp::ImmI(x) if *x >= 2 && (x & (x - 1)) == 0 => {
            let k = x.trailing_zeros() as i64;
            (k < bits).then_some(k)
        }
        _ => None,
    }
}

pub(crate) fn strength_reduce(f: &mut Ssa, c: &mut PassCounters) {
    let uses = use_counts(f);
    for v in 0..f.insts.len() {
        let ty = match f.insts[v].ty {
            Some(t) => t,
            None => continue,
        };
        if !ty.elem.is_int() {
            continue;
        }
        let unsigned = matches!(ty.elem, Scalar::U32 | Scalar::U64);
        let new_kind: Option<InstKind> = match &f.insts[v].kind {
            // Wrapping multiply by 2^k is a shift for signed and unsigned.
            InstKind::Bin {
                op: BinOp::Mul,
                a,
                b,
            } => {
                if let Some(k) = pow2_shift(b, ty.elem) {
                    Some(InstKind::Bin {
                        op: BinOp::Shl,
                        a: *a,
                        b: VOp::ImmI(k),
                    })
                } else {
                    pow2_shift(a, ty.elem).map(|k| InstKind::Bin {
                        op: BinOp::Shl,
                        a: *b,
                        b: VOp::ImmI(k),
                    })
                }
            }
            // Unsigned-only: signed division rounds toward zero, an
            // arithmetic shift would round toward -inf.
            InstKind::Bin {
                op: BinOp::Div,
                a,
                b,
            } if unsigned => pow2_shift(b, ty.elem).map(|k| InstKind::Bin {
                op: BinOp::Shr,
                a: *a,
                b: VOp::ImmI(k),
            }),
            InstKind::Bin {
                op: BinOp::Rem,
                a,
                b,
            } if unsigned => pow2_shift(b, ty.elem).map(|k| InstKind::Bin {
                op: BinOp::And,
                a: *a,
                b: VOp::ImmI((1i64 << k) - 1),
            }),
            // Integer Mul feeding a single Add fuses into Mad (wrapping
            // multiply-then-add, bit-identical to the separate ops; float
            // Mad is fused-rounding and must never be formed this way).
            InstKind::Bin {
                op: BinOp::Add,
                a,
                b,
            } => {
                let try_fuse = |m: &VOp, other: &VOp| -> Option<InstKind> {
                    let u = m.as_val()?;
                    if uses[u] != 1 {
                        return None;
                    }
                    match &f.insts[u].kind {
                        InstKind::Bin {
                            op: BinOp::Mul,
                            a: ma,
                            b: mb,
                        } if f.insts[u].ty.map(|t| t.elem) == Some(ty.elem) => {
                            Some(InstKind::Mad {
                                a: *ma,
                                b: *mb,
                                c: *other,
                            })
                        }
                        _ => None,
                    }
                };
                try_fuse(a, b).or_else(|| try_fuse(b, a))
            }
            _ => None,
        };
        if let Some(k) = new_kind {
            f.insts[v].kind = k;
            c.reduced += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// cse — dominator-scoped global value numbering
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum OKey {
    V(ValId),
    F(u64),
    I(i64),
}

fn okey(o: &VOp) -> OKey {
    match o {
        VOp::Val(u) => OKey::V(*u),
        VOp::ImmF(x) => OKey::F(x.to_bits()),
        VOp::ImmI(x) => OKey::I(*x),
        VOp::Reg(_) => unreachable!("register operand after renaming"),
    }
}

type ExprKey = (u8, u32, Vec<OKey>, (u8, u8));

fn scalar_tag(s: Scalar) -> u8 {
    match s {
        Scalar::F32 => 0,
        Scalar::F64 => 1,
        Scalar::I32 => 2,
        Scalar::I64 => 3,
        Scalar::U32 => 4,
        Scalar::U64 => 5,
        Scalar::Bool => 6,
    }
}

fn builtin_tag(q: Builtin) -> u32 {
    match q {
        Builtin::GlobalId(d) => d as u32,
        Builtin::LocalId(d) => 16 + d as u32,
        Builtin::GroupId(d) => 32 + d as u32,
        Builtin::GlobalSize(d) => 48 + d as u32,
        Builtin::LocalSize(d) => 64 + d as u32,
        Builtin::NumGroups(d) => 80 + d as u32,
    }
}

/// Key for a pure, CSE-able instruction; `None` for everything else
/// (memory ops, `Mov` — copy-prop's job — and machinery).
fn expr_key(f: &Ssa, v: ValId) -> Option<ExprKey> {
    let inst = &f.insts[v];
    let ty = inst.ty?;
    let tyk = (scalar_tag(ty.elem), ty.width);
    match &inst.kind {
        InstKind::Bin { op, a, b } => {
            let mut ops = vec![okey(a), okey(b)];
            // Commutative canonicalization for exact-int operators only.
            let commutative_int = ty.elem.is_int()
                && matches!(
                    op,
                    BinOp::Add
                        | BinOp::Mul
                        | BinOp::And
                        | BinOp::Or
                        | BinOp::Xor
                        | BinOp::Min
                        | BinOp::Max
                );
            if commutative_int {
                ops.sort();
            }
            Some((1, *op as u32, ops, tyk))
        }
        InstKind::Un { op, a } => Some((2, *op as u32, vec![okey(a)], tyk)),
        InstKind::Mad { a, b, c } => Some((3, 0, vec![okey(a), okey(b), okey(c)], tyk)),
        InstKind::Select { cond, a, b } => Some((4, 0, vec![okey(cond), okey(a), okey(b)], tyk)),
        InstKind::Cast { a } => Some((5, 0, vec![okey(a)], tyk)),
        InstKind::Horiz { op, a } => Some((6, *op as u32, vec![okey(a)], tyk)),
        InstKind::Extract { a, lane } => Some((7, *lane as u32, vec![okey(a)], tyk)),
        InstKind::Insert { vec, v, lane } => Some((8, *lane as u32, vec![okey(vec), okey(v)], tyk)),
        InstKind::Query { q } => Some((9, builtin_tag(*q), vec![], tyk)),
        InstKind::ScalarArg { arg } => Some((10, arg.0, vec![], tyk)),
        _ => None,
    }
}

pub(crate) fn cse(f: &mut Ssa, c: &mut PassCounters) {
    let children = f.dom_children();
    let mut table: BTreeMap<ExprKey, Vec<ValId>> = BTreeMap::new();
    fn walk(
        f: &mut Ssa,
        b: BlockId,
        children: &[Vec<BlockId>],
        table: &mut BTreeMap<ExprKey, Vec<ValId>>,
        numbered: &mut u64,
    ) {
        let mut scoped: Vec<ExprKey> = Vec::new();
        for i in 0..f.blocks[b].insts.len() {
            let v = f.blocks[b].insts[i];
            let Some(key) = expr_key(f, v) else { continue };
            if let Some(existing) = table.get(&key).and_then(|s| s.last()) {
                f.insts[v].kind = InstKind::Mov {
                    a: VOp::Val(*existing),
                };
                *numbered += 1;
            } else {
                table.entry(key.clone()).or_default().push(v);
                scoped.push(key);
            }
        }
        for &ch in &children[b] {
            walk(f, ch, children, table, numbered);
        }
        for key in scoped.into_iter().rev() {
            table.get_mut(&key).expect("scoped key present").pop();
        }
    }
    let mut numbered = 0u64;
    walk(f, 0, &children, &mut table, &mut numbered);
    c.numbered += numbered;
}

// ---------------------------------------------------------------------------
// licm — loop-invariant code motion
// ---------------------------------------------------------------------------

fn blocks_in(shapes: &[Shape], out: &mut BTreeSet<BlockId>) {
    for s in shapes {
        match s {
            Shape::Seq(b) => {
                out.insert(*b);
            }
            Shape::If { then_s, els_s, .. } => {
                blocks_in(then_s, out);
                blocks_in(els_s, out);
            }
            Shape::For { header, body_s, .. } => {
                out.insert(*header);
                blocks_in(body_s, out);
            }
        }
    }
}

/// Pure, non-trapping, non-memory — safe to speculate in a preheader even
/// when the loop runs zero times or the defining path was conditional.
fn hoistable_kind(kind: &InstKind, elem_int: impl Fn(&VOp) -> bool) -> bool {
    match kind {
        // Integer div/rem can trap; hoisting would speculate the trap.
        InstKind::Bin {
            op: BinOp::Div, b, ..
        }
        | InstKind::Bin {
            op: BinOp::Rem, b, ..
        } => !elem_int(b),
        InstKind::Bin { .. }
        | InstKind::Un { .. }
        | InstKind::Mad { .. }
        | InstKind::Select { .. }
        | InstKind::Mov { .. }
        | InstKind::Cast { .. }
        | InstKind::Horiz { .. }
        | InstKind::Extract { .. }
        | InstKind::Insert { .. }
        | InstKind::Query { .. }
        | InstKind::ScalarArg { .. } => true,
        _ => false,
    }
}

pub(crate) fn licm(f: &mut Ssa, c: &mut PassCounters) {
    let shapes = f.shapes.clone();
    licm_shapes(f, &shapes, c);
}

fn licm_shapes(f: &mut Ssa, shapes: &[Shape], c: &mut PassCounters) {
    for s in shapes {
        match s {
            Shape::Seq(_) => {}
            Shape::If { then_s, els_s, .. } => {
                licm_shapes(f, then_s, c);
                licm_shapes(f, els_s, c);
            }
            Shape::For {
                bounds,
                header,
                body_s,
                ..
            } => {
                // Innermost loops first, so invariants bubble outward.
                licm_shapes(f, body_s, c);
                let mut lblocks = BTreeSet::new();
                lblocks.insert(*header);
                blocks_in(body_s, &mut lblocks);
                let pre = f.insts[*bounds].block;
                loop {
                    let mut moved = false;
                    for &b in lblocks.clone().iter() {
                        let list = f.blocks[b].insts.clone();
                        for v in list {
                            if f.insts[v].ty.is_none() {
                                continue;
                            }
                            let div_trap_guard = |o: &VOp| match f.insts[v].ty {
                                Some(t) => t.elem.is_int() && !matches!(o, VOp::ImmI(x) if *x != 0),
                                None => true,
                            };
                            if !hoistable_kind(&f.insts[v].kind, div_trap_guard) {
                                continue;
                            }
                            let invariant =
                                Ssa::operands(&f.insts[v].kind).iter().all(|o| match o {
                                    VOp::Val(u) => !lblocks.contains(&f.insts[*u].block),
                                    _ => true,
                                });
                            if !invariant {
                                continue;
                            }
                            // Move v into the preheader, before the bounds
                            // anchor (so bounds still evaluate last).
                            let pos = f.blocks[b]
                                .insts
                                .iter()
                                .position(|&x| x == v)
                                .expect("inst in its block");
                            f.blocks[b].insts.remove(pos);
                            let anchor = f.blocks[pre]
                                .insts
                                .iter()
                                .position(|&x| x == *bounds)
                                .expect("bounds anchor in preheader");
                            f.blocks[pre].insts.insert(anchor, v);
                            f.insts[v].block = pre;
                            c.hoisted += 1;
                            moved = true;
                        }
                    }
                    if !moved {
                        break;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// dse — dead-store elimination
// ---------------------------------------------------------------------------

pub(crate) fn dse(f: &mut Ssa, c: &mut PassCounters) {
    for b in 0..f.blocks.len() {
        // (buf, vstore?, index operand, width) → store awaiting overwrite.
        let mut last: BTreeMap<(u32, bool, OKey, u8), ValId> = BTreeMap::new();
        let mut dead: BTreeSet<ValId> = BTreeSet::new();
        for i in 0..f.blocks[b].insts.len() {
            let v = f.blocks[b].insts[i];
            match &f.insts[v].kind {
                InstKind::Store { buf, idx, .. } => {
                    let w = match idx {
                        VOp::Val(u) => f.insts[*u].ty.map(|t| t.width).unwrap_or(1),
                        _ => 1,
                    };
                    if let Some(prev) = last.insert((buf.0, false, okey(idx), w), v) {
                        dead.insert(prev);
                    }
                }
                InstKind::VStore { buf, base, val } => {
                    let w = match val {
                        VOp::Val(u) => f.insts[*u].ty.map(|t| t.width).unwrap_or(1),
                        _ => 1,
                    };
                    if let Some(prev) = last.insert((buf.0, true, okey(base), w), v) {
                        dead.insert(prev);
                    }
                }
                // Any read (or atomic, or phase boundary) may observe the
                // earlier store: forget everything.
                InstKind::Load { .. }
                | InstKind::VLoad { .. }
                | InstKind::Atomic { .. }
                | InstKind::Barrier => last.clear(),
                _ => {}
            }
        }
        if !dead.is_empty() {
            c.dead_stores += dead.len() as u64;
            f.blocks[b].insts.retain(|v| !dead.contains(v));
        }
    }
}

// ---------------------------------------------------------------------------
// dce — dead-code elimination
// ---------------------------------------------------------------------------

pub(crate) fn dce(f: &mut Ssa, c: &mut PassCounters) {
    let n = f.insts.len();
    let mut live = vec![false; n];
    let mut work: Vec<ValId> = Vec::new();
    let mark = |live: &mut Vec<bool>, work: &mut Vec<ValId>, u: ValId| {
        if !live[u] {
            live[u] = true;
            work.push(u);
        }
    };
    for blk in &f.blocks {
        for &v in &blk.insts {
            if Ssa::is_root(&f.insts[v].kind) {
                mark(&mut live, &mut work, v);
            }
        }
    }
    while let Some(v) = work.pop() {
        for o in Ssa::operands(&f.insts[v].kind) {
            if let VOp::Val(u) = o {
                mark(&mut live, &mut work, u);
            }
        }
    }
    let mut removed = 0u64;
    for blk in &mut f.blocks {
        let before = blk.insts.len();
        blk.insts.retain(|&v| live[v]);
        removed += (before - blk.insts.len()) as u64;
    }
    c.dead_code += removed;
}
