//! The launch memo on the CPU path: the OpenMP cell reuses the Serial
//! cell's simulation, a reused outcome is indistinguishable from a fresh
//! one, a pipeline that executes the same program reuses it too, and
//! anything that could change a profile misses.
//!
//! The memo and its reuse counter are process-wide and some tests flip
//! process-wide settings (engine, thread count), so the tests of this
//! binary run one at a time.

use hpc_kernels::common::run_cpu_kernel;
use hpc_kernels::{take_output_digest, test_suite, Precision, RunOutcome, Variant};
use kernel_ir::memo::reuse_count;
use kernel_ir::opt::Pipeline;
use kernel_ir::prelude::*;
use kernel_ir::{Access, BufferData, Engine};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run one cell, returning its outcome, output digest and how many CPU
/// launches it took from the memo.
fn cell(bench: &str, v: Variant, prec: Precision) -> (RunOutcome, u64, u64) {
    let b = test_suite()
        .into_iter()
        .find(|b| b.name() == bench)
        .unwrap();
    let _ = take_output_digest();
    let before = reuse_count();
    let out = b.run(v, prec).unwrap();
    (out, take_output_digest(), reuse_count() - before)
}

fn assert_same_outcome(a: &RunOutcome, b: &RunOutcome, what: &str) {
    assert_eq!(a.time_s.to_bits(), b.time_s.to_bits(), "{what}: time");
    assert_eq!(a.activity, b.activity, "{what}: activity");
    assert_eq!(a.validated, b.validated, "{what}: validated");
    assert_eq!(a.max_rel_err.to_bits(), b.max_rel_err.to_bits(), "{what}");
    assert_eq!(a.note, b.note, "{what}: note");
    let (ta, tb) = (&a.telemetry, &b.telemetry);
    assert_eq!(ta.counters, tb.counters, "{what}: counters");
    assert_eq!(ta.commands, tb.commands, "{what}: commands");
    assert_eq!(ta.core_spans, tb.core_spans, "{what}: core spans");
}

#[test]
fn serial_then_openmp_reuses_the_profile_once() {
    let _g = one_at_a_time();
    kernel_ir::memo::clear();
    let cf = Pipeline::parse("cf").unwrap();
    let run = |v| kernel_ir::opt::with_passes(Some(cf.clone()), || cell("spmv", v, Precision::F32));
    let (_, _, serial) = run(Variant::Serial);
    assert_eq!(serial, 0, "the Serial cell simulates");
    let (_, _, omp) = run(Variant::OpenMp);
    assert_eq!(omp, 1, "the OpenMP cell takes the Serial cell's profile");
    let (_, _, again) = run(Variant::OpenMp);
    assert_eq!(again, 1, "a third run hits again");
}

#[test]
fn a_pipeline_that_executes_the_same_program_reuses_the_simulation() {
    let _g = one_at_a_time();
    // Two pass lists that optimize spmv's CPU kernel to one program.
    let first = Pipeline::parse("alg,dce").unwrap();
    let second = Pipeline::parse("alg,dce,dce").unwrap();
    let run = |p: &Pipeline| {
        kernel_ir::opt::with_passes(Some(p.clone()), || {
            cell("spmv", Variant::Serial, Precision::F32)
        })
    };
    kernel_ir::memo::clear();
    let (fresh, fresh_digest, hits) = run(&second);
    assert_eq!(hits, 0, "an empty memo simulates");
    kernel_ir::memo::clear();
    let (_, _, hits) = run(&first);
    assert_eq!(hits, 0, "the first pipeline simulates");
    let (reused, reused_digest, hits) = run(&second);
    assert_eq!(hits, 1, "{second} executes what {first} executed");
    assert_same_outcome(&fresh, &reused, "spmv/Serial/single");
    assert_eq!(fresh_digest, reused_digest, "output digest");
}

#[test]
fn a_reused_openmp_outcome_equals_a_fresh_one() {
    let _g = one_at_a_time();
    for b in test_suite() {
        for prec in Precision::ALL {
            let what = format!("{}/{}", b.name(), prec.label());
            // The first run simulates and leaves its profile behind; the
            // second reuses it (every launch of the cell: red has two).
            kernel_ir::memo::clear();
            let (fresh, fresh_digest, _) = cell(b.name(), Variant::OpenMp, prec);
            let (reused, reused_digest, hits) = cell(b.name(), Variant::OpenMp, prec);
            assert!(hits >= 1, "{what}: second run reused nothing");
            assert_same_outcome(&fresh, &reused, &what);
            assert_eq!(fresh_digest, reused_digest, "{what}: output digest");
        }
    }
}

/// out[i] = a[i] * 1.0 + b[i].
fn add_kernel() -> Program {
    let mut kb = KernelBuilder::new("memo-add");
    let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
    let b = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
    let c = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
    let gid = kb.query_global_id(0);
    let va = kb.load(Scalar::F32, a, gid.into());
    let vb = kb.load(Scalar::F32, b, gid.into());
    let f32x1 = VType::scalar(Scalar::F32);
    let one = kb.bin(BinOp::Mul, va.into(), Operand::ImmF(1.0), f32x1);
    let s = kb.bin(BinOp::Add, one.into(), vb.into(), f32x1);
    kb.store(c, gid.into(), s.into());
    kb.finish()
}

/// Launch `add_kernel` on `a` (and a ones vector) and return
/// (reused launches, output buffer).
fn launch(a: Vec<f32>, nd: NDRange) -> (u64, BufferData) {
    let n = a.len();
    let mut pool = MemoryPool::new();
    let bind = [
        ArgBinding::Global(pool.add(BufferData::from(a))),
        ArgBinding::Global(pool.add(BufferData::from(vec![1.0f32; n]))),
        ArgBinding::Global(pool.add(BufferData::zeroed(Scalar::F32, n))),
    ];
    let before = reuse_count();
    let (_, _, pool, _) = run_cpu_kernel(&add_kernel(), &bind, pool, nd, 2);
    (reuse_count() - before, pool.get(2).clone())
}

#[test]
fn anything_that_could_change_a_profile_misses() {
    let _g = one_at_a_time();
    let zeros = vec![0.0f32; 256];
    let nd = NDRange::d1(256, 64);
    let (hits, expected) = launch(zeros.clone(), nd);
    assert_eq!(hits, 0, "first launch simulates");

    // `alg` rewrites `x * 1.0` away, so the executed program changes.
    let (hits, _) =
        kernel_ir::opt::with_passes(Some(Pipeline::full()), || launch(zeros.clone(), nd));
    assert_eq!(hits, 0, "a pipeline that changes the executed program");

    let engine = kernel_ir::engine();
    kernel_ir::set_engine(match engine {
        Engine::Scalar => Engine::Columnar,
        Engine::Columnar => Engine::Scalar,
    });
    let (hits, _) = launch(zeros.clone(), nd);
    kernel_ir::set_engine(engine);
    assert_eq!(hits, 0, "another engine");

    let threads = sim_pool::threads();
    sim_pool::set_threads(if threads == 1 { 2 } else { 1 });
    let (hits, _) = launch(zeros.clone(), nd);
    sim_pool::set_threads(threads);
    assert_eq!(hits, 0, "another thread count");

    let (hits, _) = launch(zeros.clone(), NDRange::d1(256, 32));
    assert_eq!(hits, 0, "another NDRange");

    let mut flipped = zeros.clone();
    flipped[97] = -0.0;
    let (hits, _) = launch(flipped, nd);
    assert_eq!(hits, 0, "one input element 0.0 -> -0.0");

    // The original launch's entry outlived all of the above.
    let (hits, out) = launch(zeros, nd);
    assert_eq!(hits, 1, "the unchanged launch still hits");
    assert_eq!(out, expected, "a hit restores the written buffer");
}
