//! Loop unrolling (§III-B "Loop Unrolling").
//!
//! Replicates a counted loop's body `factor` times per iteration, widening
//! the step. Replication enlarges basic blocks (more VLIW packing
//! opportunities on the Mali arithmetic pipe) and halves/quarters the
//! back-edge overhead — but it also raises the register footprint, which
//! is the "code replication can also lead to performance degradation"
//! caveat: on the GPU model the extra loop-variable registers reduce
//! occupancy, and past the register file it stops paying.

use kernel_ir::{BinOp, Op, Operand, Program, Reg};

/// Why a loop was not unrolled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnrollRefusal {
    /// No top-level `For` loop found.
    NoLoop,
    /// Loop bounds are not compile-time immediates.
    DynamicBounds,
    /// Trip count is not a multiple of the factor (the paper's "last
    /// iterations handling" overhead — we refuse rather than emit a
    /// remainder loop).
    TripNotDivisible { trip: i64, factor: u32 },
    /// The body writes the loop variable.
    BodyWritesCounter,
    /// factor < 2 is a no-op.
    TrivialFactor,
}

impl std::fmt::Display for UnrollRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnrollRefusal::NoLoop => f.write_str("no top-level loop to unroll"),
            UnrollRefusal::DynamicBounds => f.write_str("loop bounds not immediate"),
            UnrollRefusal::TripNotDivisible { trip, factor } => {
                write!(f, "trip count {trip} not divisible by {factor}")
            }
            UnrollRefusal::BodyWritesCounter => f.write_str("loop body writes the counter"),
            UnrollRefusal::TrivialFactor => f.write_str("factor must be >= 2"),
        }
    }
}

fn body_writes(body: &[Op], var: Reg) -> bool {
    let mut found = false;
    for op in body {
        op.visit(&mut |o| {
            if o.dst_reg() == Some(var) {
                found = true;
            }
        });
    }
    found
}

/// Substitute register `from` with `to` in all *operand* positions of an op
/// tree (destinations are left alone — see [`unroll`] for why that is
/// sound).
fn subst_operands(op: &mut Op, from: Reg, to: Reg) {
    let fix = |o: &mut Operand| {
        if let Operand::Reg(r) = o {
            if *r == from {
                *o = Operand::Reg(to);
            }
        }
    };
    match op {
        Op::Bin { a, b, .. } => {
            fix(a);
            fix(b);
        }
        Op::Un { a, .. } | Op::Mov { a, .. } | Op::Cast { a, .. } => fix(a),
        Op::Mad { a, b, c, .. } => {
            fix(a);
            fix(b);
            fix(c);
        }
        Op::Select { cond, a, b, .. } => {
            fix(cond);
            fix(a);
            fix(b);
        }
        Op::Horiz { a, .. } | Op::Extract { a, .. } => fix(a),
        Op::Insert { v, .. } => fix(v),
        Op::Load { idx, .. } => fix(idx),
        Op::VLoad { base, .. } => fix(base),
        Op::Store { idx, val, .. } => {
            fix(idx);
            fix(val);
        }
        Op::VStore { base, val, .. } => {
            fix(base);
            fix(val);
        }
        Op::Atomic { idx, val, .. } => {
            fix(idx);
            fix(val);
        }
        Op::For {
            start,
            end,
            step,
            body,
            ..
        } => {
            fix(start);
            fix(end);
            fix(step);
            for o in body {
                subst_operands(o, from, to);
            }
        }
        Op::If { cond, then, els } => {
            fix(cond);
            for o in then.iter_mut().chain(els) {
                subst_operands(o, from, to);
            }
        }
        Op::Query { .. } | Op::Barrier => {}
    }
}

/// Rewrite destination registers `from` → `to` in an op tree.
fn rename_dst(op: &mut Op, from: Reg, to: Reg) {
    let fix = |d: &mut Reg| {
        if *d == from {
            *d = to;
        }
    };
    match op {
        Op::Bin { dst, .. }
        | Op::Un { dst, .. }
        | Op::Mad { dst, .. }
        | Op::Select { dst, .. }
        | Op::Mov { dst, .. }
        | Op::Cast { dst, .. }
        | Op::Horiz { dst, .. }
        | Op::Extract { dst, .. }
        | Op::Insert { dst, .. }
        | Op::Query { dst, .. }
        | Op::Load { dst, .. }
        | Op::VLoad { dst, .. } => fix(dst),
        Op::Atomic { old, .. } => {
            if let Some(o) = old {
                fix(o);
            }
        }
        Op::For { var, body, .. } => {
            fix(var);
            for o in body {
                rename_dst(o, from, to);
            }
        }
        Op::If { then, els, .. } => {
            for o in then.iter_mut().chain(els) {
                rename_dst(o, from, to);
            }
        }
        Op::Store { .. } | Op::VStore { .. } | Op::Barrier => {}
    }
}

/// Registers whose first action in the body is an *unconditional,
/// top-level write*: iteration-local temporaries, safe to rename per
/// replica. Registers read before written (loop-carried accumulators,
/// values defined outside) keep their names — and so does anything whose
/// first write sits inside nested control flow, because a skipped branch
/// would make the value loop-carried at runtime.
///
/// Returned in body (first-touch) order, so each unroll of one program
/// names its temporaries alike: the launch memo keys programs by their
/// text, and a hash-ordered rename would make every build a new program.
fn body_temporaries(body: &[Op]) -> Vec<Reg> {
    #[derive(Clone, Copy, PartialEq)]
    enum First {
        Read,
        Write,
    }
    /// Each register's first touch, in the order the body touches them.
    fn touch(first: &mut Vec<(Reg, First)>, r: Reg, class: First) {
        if !first.iter().any(|&(q, _)| q == r) {
            first.push((r, class));
        }
    }
    let mut first = Vec::new();
    fn scan(ops: &[Op], first: &mut Vec<(Reg, First)>, depth: u32) {
        for op in ops {
            // Reads first (an op like `acc = acc + v` reads acc).
            let mut read = |o: &Operand| {
                if let Operand::Reg(r) = o {
                    touch(first, *r, First::Read);
                }
            };
            match op {
                Op::Bin { a, b, .. } => {
                    read(a);
                    read(b);
                }
                Op::Un { a, .. } | Op::Mov { a, .. } | Op::Cast { a, .. } => read(a),
                Op::Mad { a, b, c, .. } => {
                    read(a);
                    read(b);
                    read(c);
                }
                Op::Select { cond, a, b, .. } => {
                    read(cond);
                    read(a);
                    read(b);
                }
                Op::Horiz { a, .. } | Op::Extract { a, .. } => read(a),
                Op::Insert { v, .. } => read(v),
                Op::Load { idx, .. } => read(idx),
                Op::VLoad { base, .. } => read(base),
                Op::Store { idx, val, .. } => {
                    read(idx);
                    read(val);
                }
                Op::VStore { base, val, .. } => {
                    read(base);
                    read(val);
                }
                Op::Atomic { idx, val, .. } => {
                    read(idx);
                    read(val);
                }
                Op::For {
                    start, end, step, ..
                } => {
                    read(start);
                    read(end);
                    read(step);
                }
                Op::If { cond, .. } => read(cond),
                Op::Query { .. } | Op::Barrier => {}
            }
            if let Some(d) = op.dst_reg() {
                // A write inside an If/For may not execute every iteration:
                // treat it as loop-carried (non-renameable).
                let class = if depth == 0 {
                    First::Write
                } else {
                    First::Read
                };
                touch(first, d, class);
            }
            match op {
                Op::For { body, .. } => scan(body, first, depth + 1),
                Op::If { then, els, .. } => {
                    scan(then, first, depth + 1);
                    scan(els, first, depth + 1);
                }
                _ => {}
            }
        }
    }
    scan(body, &mut first, 0);
    first
        .into_iter()
        .filter_map(|(r, f)| (f == First::Write).then_some(r))
        .collect()
}

/// Unroll the **first** top-level `For` loop of `p` by `factor`.
///
/// Soundness: the `factor` replicas execute in the same order as the
/// original iterations. Loop-carried registers (read before written —
/// accumulators) keep their names so their sequential semantics are
/// untouched; iteration-local temporaries (written before read) get fresh
/// names per replica — which is what a real unrolling compiler does to
/// expose ILP, and what makes unrolling *cost registers* (the §III-B
/// "code replication can also lead to performance degradation" caveat).
pub fn unroll(p: &Program, factor: u32) -> Result<Program, UnrollRefusal> {
    if factor < 2 {
        return Err(UnrollRefusal::TrivialFactor);
    }
    let loop_pos = p
        .body
        .iter()
        .position(|op| matches!(op, Op::For { .. }))
        .ok_or(UnrollRefusal::NoLoop)?;
    let Op::For {
        var,
        start,
        end,
        step,
        body,
    } = &p.body[loop_pos]
    else {
        unreachable!()
    };
    let (Operand::ImmI(s), Operand::ImmI(e), Operand::ImmI(st)) = (start, end, step) else {
        return Err(UnrollRefusal::DynamicBounds);
    };
    if *st == 0 {
        return Err(UnrollRefusal::DynamicBounds);
    }
    let trip = if *st > 0 {
        (e - s + st - 1).div_euclid(*st).max(0)
    } else {
        (s - e + (-st) - 1).div_euclid(-st).max(0)
    };
    if trip % factor as i64 != 0 {
        return Err(UnrollRefusal::TripNotDivisible { trip, factor });
    }
    if body_writes(body, *var) {
        return Err(UnrollRefusal::BodyWritesCounter);
    }

    let mut out = p.clone();
    out.name = format!("{}_u{factor}", p.name);
    let var = *var;
    let var_ty = p.reg_ty(var);
    let (s, st) = (*s, *st);
    let body: Vec<Op> = body.clone();

    let temporaries = body_temporaries(&body);
    // Iterations with no memory writes and no nested control flow are
    // independent through memory, so their ops can interleave — the ILP
    // schedule a real unroller emits, which is also what makes all
    // `factor` iterations' temporaries live at once (register pressure).
    // Otherwise clones stay sequential (always safe).
    let interleave = !body.iter().any(|op| {
        let mut found = false;
        op.visit(&mut |o| {
            found |= matches!(
                o,
                Op::Store { .. }
                    | Op::VStore { .. }
                    | Op::Atomic { .. }
                    | Op::If { .. }
                    | Op::For { .. }
                    | Op::Barrier
            )
        });
        found
    });

    // Build each replica's op stream (replica 0 = original body).
    let mut replicas: Vec<Vec<Op>> = vec![body.clone()];
    let mut preludes: Vec<Op> = Vec::new();
    for k in 1..factor {
        let var_k = Reg(out.regs.len() as u32);
        out.regs.push(var_ty);
        preludes.push(Op::Bin {
            dst: var_k,
            op: BinOp::Add,
            a: Operand::Reg(var),
            b: Operand::ImmI(k as i64 * st),
        });
        // Fresh names for this replica's temporaries.
        let renames: Vec<(Reg, Reg)> = temporaries
            .iter()
            .map(|&t| {
                let fresh = Reg(out.regs.len() as u32);
                out.regs.push(p.reg_ty(t));
                (t, fresh)
            })
            .collect();
        let mut clone_ops = Vec::with_capacity(body.len());
        for op in &body {
            let mut c = op.clone();
            subst_operands(&mut c, var, var_k);
            for &(from, to) in &renames {
                subst_operands(&mut c, from, to);
                rename_dst(&mut c, from, to);
            }
            clone_ops.push(c);
        }
        replicas.push(clone_ops);
    }

    let mut new_body: Vec<Op> = preludes;
    if interleave {
        // Round-robin by op index: per-accumulator update order still
        // follows iteration order (k ascending at each index), so float
        // summation is bit-identical to the sequential schedule.
        for i in 0..body.len() {
            for replica in &mut replicas {
                new_body.push(std::mem::replace(&mut replica[i], Op::Barrier));
            }
        }
    } else {
        for replica in replicas {
            new_body.extend(replica);
        }
    }
    out.body[loop_pos] = Op::For {
        var,
        start: Operand::ImmI(s),
        end: Operand::ImmI(s + trip * st),
        step: Operand::ImmI(st * factor as i64),
        body: new_body,
    };
    out.validate()
        .expect("unroller produced invalid IR — pass bug");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_ir::prelude::*;
    use kernel_ir::{Access, BufferData, CountingTracer, NullTracer, Scalar};

    /// out[gid] = sum_{i<16} a[gid*16 + i]
    fn rowsum() -> Program {
        let mut kb = KernelBuilder::new("rowsum");
        let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let o = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
        let gid = kb.query_global_id(0);
        let base = kb.bin(
            BinOp::Mul,
            gid.into(),
            Operand::ImmI(16),
            VType::scalar(Scalar::U32),
        );
        let acc = kb.mov(Operand::ImmF(0.0), VType::scalar(Scalar::F32));
        kb.for_loop(
            Operand::ImmI(0),
            Operand::ImmI(16),
            Operand::ImmI(1),
            |kb, i| {
                let idx = kb.bin(
                    BinOp::Add,
                    base.into(),
                    i.into(),
                    VType::scalar(Scalar::U32),
                );
                let v = kb.load(Scalar::F32, a, idx.into());
                kb.bin_into(acc, BinOp::Add, acc.into(), v.into());
            },
        );
        kb.store(o, gid.into(), acc.into());
        kb.finish()
    }

    fn run(p: &Program) -> (Vec<f32>, CountingTracer) {
        let n = 8;
        let mut pool = MemoryPool::new();
        let a = pool.add(BufferData::from(
            (0..n * 16).map(|i| (i % 7) as f32).collect::<Vec<_>>(),
        ));
        let o = pool.add(BufferData::zeroed(Scalar::F32, n));
        let mut t = CountingTracer::default();
        run_ndrange(
            p,
            &[ArgBinding::Global(a), ArgBinding::Global(o)],
            &mut pool,
            NDRange::d1(n, 4),
            &mut t,
        )
        .unwrap();
        (pool.get(o).as_f32().to_vec(), t)
    }

    #[test]
    fn unrolled_matches_original() {
        let p = rowsum();
        let (base_out, base_t) = run(&p);
        for f in [2u32, 4, 8, 16] {
            let u = unroll(&p, f).unwrap();
            let (out, t) = run(&u);
            assert_eq!(base_out, out, "factor {f} changed results");
            // Back-edges shrink by the factor.
            assert_eq!(t.loop_iters, base_t.loop_iters / f as u64);
        }
    }

    /// out[gid] = sum_{i<8} f(a[gid*8 + i]), where f is a chain of ten
    /// iteration-local temporaries; returns the kernel and the chain's
    /// registers in body order.
    fn chain() -> (Program, Vec<Reg>) {
        let mut kb = KernelBuilder::new("chain");
        let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let o = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
        let gid = kb.query_global_id(0);
        let acc = kb.mov(Operand::ImmF(0.0), VType::scalar(Scalar::F32));
        let mut temps = Vec::new();
        kb.for_loop(
            Operand::ImmI(0),
            Operand::ImmI(8),
            Operand::ImmI(1),
            |kb, i| {
                let u32 = VType::scalar(Scalar::U32);
                let base = kb.bin(BinOp::Mul, gid.into(), Operand::ImmI(8), u32);
                let idx = kb.bin(BinOp::Add, base.into(), i.into(), u32);
                let mut v = kb.load(Scalar::F32, a, idx.into());
                temps.extend([base, idx, v]);
                for k in 1..=7 {
                    v = kb.bin(
                        BinOp::Add,
                        v.into(),
                        Operand::ImmF(k as f64),
                        VType::scalar(Scalar::F32),
                    );
                    temps.push(v);
                }
                kb.bin_into(acc, BinOp::Add, acc.into(), v.into());
            },
        );
        kb.store(o, gid.into(), acc.into());
        (kb.finish(), temps)
    }

    #[test]
    fn unrolling_is_a_function_of_the_program() {
        let (p, temps) = chain();
        let Some(Op::For { body, .. }) = p.body.iter().find(|op| matches!(op, Op::For { .. }))
        else {
            panic!("chain has a loop");
        };
        assert_eq!(body_temporaries(body), temps, "body order");
        // Ten temporaries have 10! orders: a hash-ordered rename differs
        // between calls.
        let first = unroll(&p, 4).unwrap();
        for _ in 0..4 {
            assert_eq!(unroll(&p, 4).unwrap(), first);
        }
        assert_eq!(run(&first).0, run(&p).0);
    }

    #[test]
    fn register_footprint_grows() {
        let p = rowsum();
        let u4 = unroll(&p, 4).unwrap();
        assert!(u4.register_footprint() > p.register_footprint());
    }

    #[test]
    fn refuses_non_divisible_trip() {
        let p = rowsum(); // trip 16
        assert_eq!(
            unroll(&p, 3).unwrap_err(),
            UnrollRefusal::TripNotDivisible {
                trip: 16,
                factor: 3
            }
        );
    }

    #[test]
    fn refuses_no_loop() {
        let mut kb = KernelBuilder::new("flat");
        let a = kb.arg_global(Scalar::F32, Access::ReadWrite, true);
        let gid = kb.query_global_id(0);
        let v = kb.load(Scalar::F32, a, gid.into());
        kb.store(a, gid.into(), v.into());
        assert_eq!(unroll(&kb.finish(), 2).unwrap_err(), UnrollRefusal::NoLoop);
    }

    #[test]
    fn refuses_trivial_factor() {
        assert_eq!(
            unroll(&rowsum(), 1).unwrap_err(),
            UnrollRefusal::TrivialFactor
        );
    }

    #[test]
    fn refuses_dynamic_bounds() {
        let mut kb = KernelBuilder::new("dyn");
        let a = kb.arg_global(Scalar::F32, Access::ReadWrite, true);
        let n = kb.arg_scalar(Scalar::U32);
        let gid = kb.query_global_id(0);
        let nv = kb.load_scalar_arg(n);
        let acc = kb.mov(Operand::ImmF(0.0), VType::scalar(Scalar::F32));
        kb.for_loop(Operand::ImmI(0), nv.into(), Operand::ImmI(1), |kb, _| {
            kb.bin_into(acc, BinOp::Add, acc.into(), Operand::ImmF(1.0));
        });
        kb.store(a, gid.into(), acc.into());
        assert_eq!(
            unroll(&kb.finish(), 2).unwrap_err(),
            UnrollRefusal::DynamicBounds
        );
    }

    #[test]
    fn unroll_then_unroll_composes() {
        let p = rowsum();
        let u2 = unroll(&p, 2).unwrap();
        let u2x2 = unroll(&u2, 2).unwrap();
        let (a, _) = run(&p);
        let (b, t) = run(&u2x2);
        assert_eq!(a, b);
        assert_eq!(t.loop_iters, 8 * 16 / 4);
    }

    #[test]
    fn conditionally_written_register_carries_across_iterations() {
        // Regression: `if (cond) { t = ... }; acc += t` — t is loop-carried
        // through iterations where the branch is skipped, so renaming it
        // per replica would zero it. Values must match the rolled loop.
        let mut kb = KernelBuilder::new("carry");
        let o = kb.arg_global(Scalar::F32, Access::ReadWrite, false);
        let t = kb.mov(Operand::ImmF(0.0), VType::scalar(Scalar::F32));
        let acc = kb.mov(Operand::ImmF(0.0), VType::scalar(Scalar::F32));
        kb.for_loop_typed(
            Scalar::I32,
            Operand::ImmI(0),
            Operand::ImmI(8),
            Operand::ImmI(1),
            |kb, i| {
                let rem = kb.bin(
                    BinOp::Rem,
                    i.into(),
                    Operand::ImmI(3),
                    VType::scalar(Scalar::I32),
                );
                let hit = kb.bin(
                    BinOp::Eq,
                    rem.into(),
                    Operand::ImmI(0),
                    VType::scalar(Scalar::I32),
                );
                kb.if_then(hit.into(), |kb| {
                    let cast = kb.cast(i.into(), VType::scalar(Scalar::F32));
                    kb.mov_into(t, cast.into());
                });
                kb.bin_into(acc, BinOp::Add, acc.into(), t.into());
            },
        );
        let gid = kb.query_global_id(0);
        kb.store(o, gid.into(), acc.into());
        let p = kb.finish();
        let run_it = |p: &Program| {
            let mut pool = MemoryPool::new();
            let ob = pool.add(BufferData::zeroed(Scalar::F32, 1));
            run_ndrange(
                p,
                &[ArgBinding::Global(ob)],
                &mut pool,
                NDRange::d1(1, 1),
                &mut NullTracer,
            )
            .unwrap();
            pool.get(ob).as_f32()[0]
        };
        let rolled = run_it(&p);
        // t holds the last multiple of 3 seen: 0,0,0,3,3,3,6,6 -> acc = 21.
        assert_eq!(rolled, 21.0);
        for f in [2u32, 4] {
            let u = unroll(&p, f).unwrap();
            assert_eq!(run_it(&u), rolled, "factor {f} broke the carried value");
        }
    }

    #[test]
    fn negative_step_loops_unroll() {
        let mut kb = KernelBuilder::new("down");
        let o = kb.arg_global(Scalar::I32, Access::ReadWrite, false);
        let acc = kb.mov(Operand::ImmI(0), VType::scalar(Scalar::I32));
        kb.for_loop_typed(
            Scalar::I32,
            Operand::ImmI(8),
            Operand::ImmI(0),
            Operand::ImmI(-1),
            |kb, i| {
                kb.bin_into(acc, BinOp::Add, acc.into(), i.into());
            },
        );
        let gid = kb.query_global_id(0);
        kb.store(o, gid.into(), acc.into());
        let p = kb.finish();
        let u = unroll(&p, 4).unwrap();
        let mut pool = MemoryPool::new();
        let ob = pool.add(BufferData::zeroed(Scalar::I32, 1));
        run_ndrange(
            &u,
            &[ArgBinding::Global(ob)],
            &mut pool,
            NDRange::d1(1, 1),
            &mut NullTracer,
        )
        .unwrap();
        assert_eq!(pool.get(ob).as_i32()[0], 8 + 7 + 6 + 5 + 4 + 3 + 2 + 1);
    }
}
