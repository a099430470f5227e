//! SSA optimizing pass pipeline over kernel programs.
//!
//! Programs are lifted into SSA form ([`ssa`]: CFG construction, dominator
//! tree, phi placement, rename), run through a configurable sequence of
//! scalar optimization passes ([`passes`]: constant folding/propagation,
//! algebraic simplification, strength reduction, global value numbering,
//! loop-invariant code motion, dead-store and dead-code elimination), and
//! lowered back to the flat structured instruction stream both execution
//! engines interpret.
//!
//! The hard invariant: an optimized program must produce **byte-identical
//! results** to the original under either `SIM_EXEC` engine at any
//! `SIM_THREADS` width. Every fold goes through the interpreter's own
//! `eval_*` helpers so constant arithmetic is bit-exact, float rewrites are
//! restricted to exact identities (`x*1.0`, `x/1.0`), integer rewrites rely
//! on the IR's wrapping semantics, and trapping ops (integer div/rem) are
//! never speculated or folded with an unproven divisor. Passes that legally
//! change the observable *memory-event stream* (dse, dce) are documented in
//! DESIGN.md §17; none change results.
//!
//! Selection is ambient: [`set_passes`] picks a process-wide pipeline
//! (off until someone sets one) and [`with_passes`] scopes an override to
//! one closure. The library reads no environment variable for it; the
//! harness suite runner scopes every cell to the pass list in its
//! configuration, which is also the pass list in its cell key.

pub(crate) mod passes;
pub(crate) mod ssa;

use crate::program::Program;
use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, Mutex, RwLock};

/// One optimization pass. Order of application is the pipeline's order;
/// [`Pass::ALL`] is the canonical "full" ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pass {
    /// `cf` — constant folding + propagation (bit-exact via `eval_*`).
    ConstFold,
    /// `alg` — algebraic identities and copy propagation.
    Algebraic,
    /// `sr` — strength reduction (mul/div/rem by powers of two, int mad
    /// fusion).
    StrengthReduce,
    /// `cse` — dominator-scoped global value numbering.
    Cse,
    /// `licm` — loop-invariant code motion to loop preheaders.
    Licm,
    /// `dse` — dead-store elimination (same-block exact overwrites).
    Dse,
    /// `dce` — dead-code elimination (mark/sweep from side effects).
    Dce,
}

impl Pass {
    /// Canonical full pipeline order, as run by `--passes full`.
    pub const ALL: [Pass; 7] = [
        Pass::ConstFold,
        Pass::Algebraic,
        Pass::StrengthReduce,
        Pass::Cse,
        Pass::Licm,
        Pass::Dse,
        Pass::Dce,
    ];

    /// Stable short name, as accepted by [`Pipeline::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Pass::ConstFold => "cf",
            Pass::Algebraic => "alg",
            Pass::StrengthReduce => "sr",
            Pass::Cse => "cse",
            Pass::Licm => "licm",
            Pass::Dse => "dse",
            Pass::Dce => "dce",
        }
    }

    fn parse(name: &str) -> Option<Pass> {
        Pass::ALL.iter().copied().find(|p| p.name() == name)
    }
}

/// An ordered list of passes. Parsed from a comma-separated string; the
/// same string is folded into serving cell keys so pass orderings cache and
/// shard like any other experiment axis.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Pipeline {
    passes: Vec<Pass>,
}

impl Pipeline {
    /// Parse a comma-separated pass list (`"cf,cse,licm"`). The empty
    /// string parses to the empty (no-op) pipeline; `"full"` expands to the
    /// canonical [`Pass::ALL`] ordering. Unknown names are an error.
    pub fn parse(s: &str) -> Result<Pipeline, String> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Pipeline::default());
        }
        if s == "full" {
            return Ok(Pipeline::full());
        }
        let mut passes = Vec::new();
        for name in s.split(',') {
            let name = name.trim();
            match Pass::parse(name) {
                Some(p) => passes.push(p),
                None => {
                    return Err(format!(
                        "unknown pass '{name}' (known: {}, or 'full')",
                        Pass::ALL.map(|p| p.name()).join(",")
                    ))
                }
            }
        }
        Ok(Pipeline { passes })
    }

    /// The canonical full pipeline (`cf,alg,sr,cse,licm,dse,dce`).
    pub fn full() -> Pipeline {
        Pipeline {
            passes: Pass::ALL.to_vec(),
        }
    }

    /// Build from an explicit pass sequence.
    pub fn of(passes: &[Pass]) -> Pipeline {
        Pipeline {
            passes: passes.to_vec(),
        }
    }

    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Optimize `p`: lift to SSA, run the passes in order, lower back and
    /// compact registers. The result is validated; an invalid lowering is a
    /// bug in this module and panics loudly rather than executing a
    /// miscompiled kernel.
    pub fn run(&self, p: &Program) -> Program {
        self.run_counted(p).0
    }

    /// [`run`](Self::run), also returning the counters this run added to
    /// [`stats`].
    pub(crate) fn run_counted(&self, p: &Program) -> (Program, PassCounters) {
        if self.passes.is_empty() {
            return (p.clone(), PassCounters::default());
        }
        let mut func = ssa::Ssa::build(p);
        let mut counters = PassCounters {
            programs: 1,
            ..Default::default()
        };
        for pass in &self.passes {
            match pass {
                Pass::ConstFold => passes::const_fold(&mut func, &mut counters),
                Pass::Algebraic => passes::algebraic(&mut func, &mut counters),
                Pass::StrengthReduce => passes::strength_reduce(&mut func, &mut counters),
                Pass::Cse => passes::cse(&mut func, &mut counters),
                Pass::Licm => passes::licm(&mut func, &mut counters),
                Pass::Dse => passes::dse(&mut func, &mut counters),
                Pass::Dce => passes::dce(&mut func, &mut counters),
            }
        }
        let out = func.lower();
        let out = ssa::compact_registers(&out);
        if let Err(errs) = out.validate() {
            panic!(
                "optimizer pipeline '{self}' produced an invalid program for '{}': {errs:?}\n\
                 --- optimized ---\n{out}",
                p.name
            );
        }
        count(&counters);
        (out, counters)
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.write_str(&names.join(","))
    }
}

/// Per-pass optimization telemetry, accumulated process-wide across every
/// optimized launch. (Deliberately separate from `telemetry::Counters`,
/// whose wire codec is append-only per its own rules.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassCounters {
    /// Programs run through a non-empty pipeline.
    pub programs: u64,
    /// `cf`: instructions folded to constants.
    pub folded: u64,
    /// `cf`: operand uses rewritten to immediates.
    pub propagated: u64,
    /// `alg`: instructions simplified by algebraic identities.
    pub simplified: u64,
    /// `sr`: instructions strength-reduced.
    pub reduced: u64,
    /// `cse`: expressions numbered away to a dominating equal.
    pub numbered: u64,
    /// `licm`: instructions hoisted to a loop preheader.
    pub hoisted: u64,
    /// `dse`: dead stores eliminated.
    pub dead_stores: u64,
    /// `dce`: dead instructions eliminated.
    pub dead_code: u64,
}

impl PassCounters {
    fn accumulate(&mut self, o: &PassCounters) {
        self.programs += o.programs;
        self.folded += o.folded;
        self.propagated += o.propagated;
        self.simplified += o.simplified;
        self.reduced += o.reduced;
        self.numbered += o.numbered;
        self.hoisted += o.hoisted;
        self.dead_stores += o.dead_stores;
        self.dead_code += o.dead_code;
    }

    /// Total instructions eliminated or improved across all passes.
    pub fn total_rewrites(&self) -> u64 {
        self.folded
            + self.simplified
            + self.reduced
            + self.numbered
            + self.hoisted
            + self.dead_stores
            + self.dead_code
    }
}

static STATS: Mutex<PassCounters> = Mutex::new(PassCounters {
    programs: 0,
    folded: 0,
    propagated: 0,
    simplified: 0,
    reduced: 0,
    numbered: 0,
    hoisted: 0,
    dead_stores: 0,
    dead_code: 0,
});

/// Add one run's counters to [`stats`]: what [`Pipeline::run`] does, and
/// what the launch memo does for a launch that reuses a stored run instead
/// of running its pipeline again.
pub(crate) fn count(c: &PassCounters) {
    STATS.lock().unwrap().accumulate(c);
}

/// Snapshot of the process-wide pass counters.
pub fn stats() -> PassCounters {
    *STATS.lock().unwrap()
}

/// Snapshot and reset the process-wide pass counters.
pub fn take_stats() -> PassCounters {
    std::mem::take(&mut *STATS.lock().unwrap())
}

/// The process-wide pipeline set by [`set_passes`]; `None` = no
/// optimization.
static GLOBAL: RwLock<Option<Arc<Pipeline>>> = RwLock::new(None);

thread_local! {
    /// Stack of scoped overrides installed by [`with_passes`].
    static OVERRIDE: RefCell<Vec<Option<Arc<Pipeline>>>> = const { RefCell::new(Vec::new()) };
}

/// The pipeline ambient launches should apply, if any: the innermost
/// [`with_passes`] scope on this thread, else the process-wide
/// [`set_passes`] selection.
pub fn ambient() -> Option<Arc<Pipeline>> {
    OVERRIDE
        .with(|o| o.borrow().last().cloned())
        .unwrap_or_else(|| GLOBAL.read().unwrap().clone())
}

thread_local! {
    /// A handed program (by address) and the program it executes, resolved
    /// once by the launch memo for the launch in flight on this thread.
    static RESOLVED: RefCell<Option<(*const Program, Arc<Program>)>> = const { RefCell::new(None) };
}

/// The program a launch of `p` executes: `p` under the ambient pipeline
/// (`None` = `p` itself). Both engines' launch hooks resolve through here.
pub(crate) fn executed(p: &Program) -> Option<Arc<Program>> {
    let resolved = RESOLVED.with(|r| match &*r.borrow() {
        Some((at, q)) if std::ptr::eq(*at, p) => Some(Arc::clone(q)),
        _ => None,
    });
    resolved.or_else(|| ambient().map(|pl| Arc::new(pl.run(p))))
}

/// Run `f` with `executed(p)` answered by `q` (what `executed(p)` already
/// returned on this thread), so a launch optimizes its program once.
pub(crate) fn with_executed<R>(p: &Program, q: Option<Arc<Program>>, f: impl FnOnce() -> R) -> R {
    struct Guard(Option<(*const Program, Arc<Program>)>);
    impl Drop for Guard {
        fn drop(&mut self) {
            RESOLVED.with(|r| *r.borrow_mut() = self.0.take());
        }
    }
    let Some(q) = q else { return f() };
    let _g = Guard(RESOLVED.with(|r| r.replace(Some((p, q)))));
    f()
}

/// Select the pass pipeline for subsequent launches process-wide (`None`
/// or an empty pipeline disables optimization). Launches in flight keep
/// what they resolved at start.
pub fn set_passes(p: Option<Pipeline>) {
    *GLOBAL.write().unwrap() = p.filter(|p| !p.is_empty()).map(Arc::new);
}

/// Run `f` with the ambient pipeline overridden on this thread only —
/// including `None`, which forces *no* optimization regardless of the
/// process-wide selection. This is how the serving layer pins each cell to
/// exactly the pass list in its cell key. Nests; panic-safe.
///
/// **This thread only**: pool workers resolve their own ambient and do not
/// inherit the caller's override. Code that fans work out (the harness
/// suite runner distributes cells across `sim_pool` workers) must carry
/// the pipeline to the executing thread and install it there — which is
/// what `SuiteConfig::passes` does — rather than wrapping the fan-out
/// call site in `with_passes`.
pub fn with_passes<R>(p: Option<Pipeline>, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    OVERRIDE.with(|o| {
        o.borrow_mut()
            .push(p.filter(|p| !p.is_empty()).map(Arc::new))
    });
    let _g = Guard;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_and_errors() {
        let p = Pipeline::parse("cf, cse ,licm").unwrap();
        assert_eq!(p.to_string(), "cf,cse,licm");
        assert_eq!(p.passes().len(), 3);
        assert_eq!(Pipeline::parse("").unwrap(), Pipeline::default());
        assert!(Pipeline::parse("").unwrap().is_empty());
        assert_eq!(Pipeline::parse("full").unwrap(), Pipeline::full());
        assert_eq!(Pipeline::full().to_string(), "cf,alg,sr,cse,licm,dse,dce");
        let err = Pipeline::parse("cf,bogus").unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        // Repeats and arbitrary orderings are allowed — that is the point
        // of phase-ordering search.
        assert_eq!(Pipeline::parse("dce,dce,cf").unwrap().passes().len(), 3);
    }

    #[test]
    fn with_passes_scopes_and_nests() {
        let outer = Pipeline::parse("cf").unwrap();
        let inner = Pipeline::parse("dce").unwrap();
        with_passes(Some(outer.clone()), || {
            assert_eq!(ambient().unwrap().as_ref(), &outer);
            with_passes(Some(inner.clone()), || {
                assert_eq!(ambient().unwrap().as_ref(), &inner);
            });
            with_passes(None, || assert!(ambient().is_none()));
            assert_eq!(ambient().unwrap().as_ref(), &outer);
        });
    }

    #[test]
    fn empty_pipeline_normalizes_to_none() {
        with_passes(Some(Pipeline::default()), || assert!(ambient().is_none()));
    }
}

#[cfg(test)]
mod exec_tests {
    use super::*;
    use crate::exec::{run_ndrange, run_ndrange_with_engine, ArgBinding, Engine, NDRange};
    use crate::instr::{BinOp, HorizOp, Operand, UnOp};
    use crate::memory::{BufferData, MemoryPool};
    use crate::prelude::KernelBuilder;
    use crate::program::Program;
    use crate::trace::NullTracer;
    use crate::types::{Access, Scalar, VType};

    const N: usize = 64;
    const LOCAL: usize = 16;

    /// A deliberately redundancy-rich kernel touching every structured
    /// construct: loops (invariants + loop-carried state), an `If`, vector
    /// ops with insert/extract, common subexpressions, folds, identities,
    /// power-of-two strength-reduction targets, dead code, and registers
    /// read before they are written (which read zero).
    fn gauntlet() -> Program {
        let mut kb = KernelBuilder::new("gauntlet");
        let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let b = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let out = kb.arg_global(Scalar::F32, Access::WriteOnly, false);
        let iout = kb.arg_global(Scalar::U32, Access::WriteOnly, false);
        let scale = kb.arg_scalar(Scalar::F32);

        let gid = kb.query_global_id(0);
        // Constant-foldable address math with pow2 strength reduction bait.
        let four = kb.bin(
            BinOp::Add,
            Operand::ImmI(1),
            Operand::ImmI(3),
            VType::scalar(Scalar::U32),
        );
        let idx = kb.bin(
            BinOp::Mul,
            gid.into(),
            Operand::ImmI(1),
            VType::scalar(Scalar::U32),
        );
        let q = kb.bin(
            BinOp::Div,
            idx.into(),
            four.into(),
            VType::scalar(Scalar::U32),
        );
        let r = kb.bin(
            BinOp::Rem,
            idx.into(),
            four.into(),
            VType::scalar(Scalar::U32),
        );
        let qr = kb.mad(q.into(), four.into(), r.into(), VType::scalar(Scalar::U32));
        kb.store(iout, gid.into(), qr.into());
        // Read before its one write: the read sees zero, not 42.
        let late = kb.reg(VType::scalar(Scalar::F32));
        let early = kb.bin(
            BinOp::Add,
            late.into(),
            Operand::ImmF(1.0),
            VType::scalar(Scalar::F32),
        );
        kb.mov_into(late, Operand::ImmF(42.0));
        // Dead.
        let _ = kb.bin(
            BinOp::Sub,
            early.into(),
            Operand::ImmF(5.0),
            VType::scalar(Scalar::F32),
        );

        let x = kb.load(Scalar::F32, a, idx.into());
        let y = kb.load(Scalar::F32, b, idx.into());
        let sv = kb.load_scalar_arg(scale);
        // Common subexpression, twice.
        let s1 = kb.bin(BinOp::Add, x.into(), y.into(), VType::scalar(Scalar::F32));
        let s2 = kb.bin(BinOp::Add, x.into(), y.into(), VType::scalar(Scalar::F32));
        // Float identities (exact only).
        let t1 = kb.bin(
            BinOp::Mul,
            s1.into(),
            Operand::ImmF(1.0),
            VType::scalar(Scalar::F32),
        );
        let t2 = kb.bin(
            BinOp::Div,
            s2.into(),
            Operand::ImmF(1.0),
            VType::scalar(Scalar::F32),
        );
        let neg = kb.un(UnOp::Neg, t1.into(), VType::scalar(Scalar::F32));
        let pos = kb.un(UnOp::Neg, neg.into(), VType::scalar(Scalar::F32));

        // Loop with an invariant multiply and a loop-carried accumulator.
        let acc = kb.mov(Operand::ImmF(0.0), VType::scalar(Scalar::F32));
        kb.for_loop(
            Operand::ImmI(0),
            Operand::ImmI(8),
            Operand::ImmI(2),
            |kb, i| {
                let inv = kb.bin(
                    BinOp::Mul,
                    sv.into(),
                    Operand::ImmF(0.25),
                    VType::scalar(Scalar::F32),
                );
                let fi = kb.cast(i.into(), VType::scalar(Scalar::F32));
                let term = kb.mad(fi.into(), inv.into(), t2.into(), VType::scalar(Scalar::F32));
                kb.bin_into(acc, BinOp::Add, acc.into(), term.into());
            },
        );

        // Vector segment: vload, insert/extract, horizontal reduce.
        let base = kb.bin(
            BinOp::Mul,
            gid.into(),
            Operand::ImmI(1),
            VType::scalar(Scalar::U32),
        );
        let capped = kb.bin(
            BinOp::Min,
            base.into(),
            Operand::ImmI((N - 4) as i64),
            VType::scalar(Scalar::U32),
        );
        let vv = kb.vload(Scalar::F32, 4, a, capped.into());
        let lane2 = kb.extract(vv, 2);
        kb.insert_into(vv, lane2.into(), 0);
        // Inserted into a vector never written before: its other lanes
        // read zero.
        let fresh = kb.reg(VType {
            elem: Scalar::F32,
            width: 4,
        });
        kb.insert_into(fresh, lane2.into(), 1);
        kb.insert_into(vv, lane2.into(), 3);
        let fsum = kb.horiz(HorizOp::Add, fresh);
        kb.insert_into(vv, fsum.into(), 2);
        let hsum = kb.horiz(HorizOp::Add, vv);

        // Divergent tail (both arms run). `maybe` is written on one arm
        // only: the other arm, and the join after it, read its zero.
        let cold = kb.bin(
            BinOp::Lt,
            pos.into(),
            Operand::ImmF(0.0),
            VType::scalar(Scalar::F32),
        );
        let maybe = kb.reg(VType::scalar(Scalar::F32));
        kb.if_then_else(
            cold.into(),
            |kb| {
                kb.bin_into(acc, BinOp::Add, acc.into(), hsum.into());
                kb.mov_into(maybe, hsum.into());
            },
            |kb| {
                kb.bin_into(acc, BinOp::Mul, acc.into(), Operand::ImmF(1.0));
                kb.bin_into(acc, BinOp::Sub, acc.into(), pos.into());
                kb.bin_into(acc, BinOp::Add, acc.into(), maybe.into());
            },
        );
        kb.mad_into(acc, maybe.into(), early.into(), acc.into());
        // Dead store (overwritten below, no read between).
        kb.store(out, gid.into(), Operand::ImmF(-1.0));
        kb.store(out, gid.into(), acc.into());
        let p = kb.finish();
        p.validate().unwrap();
        p
    }

    /// Static op count, nested bodies included.
    fn op_count(p: &Program) -> usize {
        let mut n = 0;
        for op in &p.body {
            op.visit(&mut |_| n += 1);
        }
        n
    }

    fn run(p: &Program, engine: Option<Engine>) -> (Vec<u32>, Vec<u32>) {
        let mut pool = MemoryPool::new();
        let a = pool.add(BufferData::from(
            (0..N).map(|i| (i as f32 * 0.37).sin()).collect::<Vec<_>>(),
        ));
        let b = pool.add(BufferData::from(
            (0..N).map(|i| 1.0 - i as f32 * 0.11).collect::<Vec<_>>(),
        ));
        let out = pool.add(BufferData::zeroed(Scalar::F32, N));
        let iout = pool.add(BufferData::zeroed(Scalar::U32, N));
        let bindings = [
            ArgBinding::Global(a),
            ArgBinding::Global(b),
            ArgBinding::Global(out),
            ArgBinding::Global(iout),
            ArgBinding::Scalar(crate::value::Value::f32(2.5)),
        ];
        let nd = NDRange::d1(N, LOCAL);
        match engine {
            Some(e) => {
                run_ndrange_with_engine(p, &bindings, &mut pool, nd, &mut NullTracer, e).unwrap()
            }
            None => run_ndrange(p, &bindings, &mut pool, nd, &mut NullTracer).unwrap(),
        };
        let fbits = pool.get(out).as_f32().iter().map(|x| x.to_bits()).collect();
        let ibits = pool.get(iout).as_u32().to_vec();
        (fbits, ibits)
    }

    #[test]
    fn every_single_pass_and_orderings_preserve_results() {
        let p = gauntlet();
        let baseline_s = run(&p, Some(Engine::Scalar));
        let baseline_c = run(&p, Some(Engine::Columnar));
        assert_eq!(baseline_s, baseline_c, "engines disagree before optimizing");

        let mut pipelines: Vec<Pipeline> =
            Pass::ALL.iter().map(|&pa| Pipeline::of(&[pa])).collect();
        pipelines.push(Pipeline::full());
        pipelines.push(Pipeline::parse("dce,licm,cse,sr,alg,cf").unwrap());
        pipelines.push(Pipeline::parse("cf,cf,cse,cse,dce,dce").unwrap());
        for pl in &pipelines {
            let opt = pl.run(&p);
            opt.validate()
                .unwrap_or_else(|e| panic!("pipeline '{pl}' produced invalid IR: {e:?}"));
            assert!(
                op_count(&opt) <= op_count(&p),
                "pipeline '{pl}' added ops\n--- optimized ---\n{opt}"
            );
            assert_eq!(
                run(&opt, Some(Engine::Scalar)),
                baseline_s,
                "pipeline '{pl}' changed results (scalar)\n--- optimized ---\n{opt}"
            );
            assert_eq!(
                run(&opt, Some(Engine::Columnar)),
                baseline_s,
                "pipeline '{pl}' changed results (columnar)\n--- optimized ---\n{opt}"
            );
        }
    }

    #[test]
    fn full_pipeline_and_cf_dce_shrink_the_gauntlet_and_count_it() {
        let p = gauntlet();
        // Executed-instruction count is the metric that matters: hoisting
        // shrinks the per-iteration *dynamic* stream, not the static one.
        fn executed_ops(p: &Program) -> u64 {
            let mut pool = MemoryPool::new();
            let a = pool.add(BufferData::from(vec![0.5f32; N]));
            let b = pool.add(BufferData::from(vec![0.25f32; N]));
            let out = pool.add(BufferData::zeroed(Scalar::F32, N));
            let iout = pool.add(BufferData::zeroed(Scalar::U32, N));
            let bindings = [
                ArgBinding::Global(a),
                ArgBinding::Global(b),
                ArgBinding::Global(out),
                ArgBinding::Global(iout),
                ArgBinding::Scalar(crate::value::Value::f32(2.5)),
            ];
            let mut t = crate::trace::CountingTracer::default();
            run_ndrange(p, &bindings, &mut pool, NDRange::d1(N, LOCAL), &mut t).unwrap();
            t.ops
        }
        for pl in [Pipeline::full(), Pipeline::parse("cf,dce").unwrap()] {
            let before_stats = stats();
            let opt = pl.run(&p);
            let after_stats = stats();
            let (base_ops, opt_ops) = (executed_ops(&p), executed_ops(&opt));
            assert!(
                opt_ops < base_ops,
                "'{pl}' failed to shrink the gauntlet: {base_ops} -> {opt_ops} executed ops\n{opt}"
            );
            assert!(
                after_stats.total_rewrites() > before_stats.total_rewrites(),
                "pass counters did not move"
            );
            assert!(after_stats.programs > before_stats.programs);
        }
    }

    #[test]
    fn integer_division_by_zero_still_traps_at_run_time() {
        let mut kb = KernelBuilder::new("dz");
        let o = kb.arg_global(Scalar::I32, Access::ReadWrite, false);
        let a = kb.mov(Operand::ImmI(4), VType::scalar(Scalar::I32));
        let d = kb.bin(
            BinOp::Div,
            a.into(),
            Operand::ImmI(0),
            VType::scalar(Scalar::I32),
        );
        let gid = kb.query_global_id(0);
        kb.store(o, gid.into(), d.into());
        let p = kb.finish();
        let mut pipelines: Vec<Pipeline> =
            Pass::ALL.iter().map(|&pa| Pipeline::of(&[pa])).collect();
        pipelines.push(Pipeline::full());
        for pl in pipelines {
            // Optimizing must not fault at compile time...
            let opt = pl.run(&p);
            // ...and the fault must still happen at run time.
            let faulted = std::panic::catch_unwind(|| {
                let mut pool = MemoryPool::new();
                let out = pool.add(BufferData::zeroed(Scalar::I32, 1));
                let nd = NDRange::d1(1, 1);
                run_ndrange(
                    &opt,
                    &[ArgBinding::Global(out)],
                    &mut pool,
                    nd,
                    &mut NullTracer,
                )
            });
            assert!(
                !matches!(faulted, Ok(Ok(_))),
                "'{pl}' lost the division-by-zero fault:\n{opt}"
            );
        }
    }

    #[test]
    fn ambient_passes_apply_at_launch() {
        let p = gauntlet();
        let plain = run(&p, None);
        let optimized = with_passes(Some(Pipeline::full()), || run(&p, None));
        assert_eq!(plain, optimized, "ambient optimized launch diverged");
    }

    #[test]
    fn pipeline_output_is_deterministic() {
        let p = gauntlet();
        let o1 = Pipeline::full().run(&p);
        let o2 = Pipeline::full().run(&p);
        assert_eq!(o1, o2, "same pipeline, same input, different output");
        // A cleanup is idempotent: a second `cf,dce` finds nothing to do.
        let cf_dce = Pipeline::parse("cf,dce").unwrap();
        let once = cf_dce.run(&p);
        let twice = cf_dce.run(&once);
        assert_eq!(
            op_count(&once),
            op_count(&twice),
            "cf,dce is not at a fixed point"
        );
        assert_eq!(run(&once, None), run(&twice, None));
    }
}
