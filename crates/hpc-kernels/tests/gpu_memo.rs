//! The launch memo on the Mali path: a pipeline that executes the same
//! program reuses an OpenCL cell's simulation with identical bytes, a
//! memoized report equals a fresh `MaliT604::run`, the DVFS throttle is
//! rolled per launch after the memo, and another device configuration
//! misses.
//!
//! The memo and its reuse counter are process-wide, so the tests of this
//! binary run one at a time.

use hpc_kernels::common::gpu;
use hpc_kernels::{take_output_digest, test_suite, Precision, RunOutcome, Variant};
use kernel_ir::memo::reuse_count;
use kernel_ir::opt::Pipeline;
use kernel_ir::prelude::*;
use kernel_ir::{Access, ArgBinding, BufferData, NDRange};
use mali_gpu::{MaliConfig, MaliReport, MaliT604};
use ocl_runtime::{Context, KernelArg, MemFlags};
use sim_faults::{FaultPlan, FaultRates};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run one cell under `passes`, returning its outcome, output digest and
/// how many launches it took from the memo.
fn cell(bench: &str, v: Variant, passes: &Pipeline) -> (RunOutcome, u64, u64) {
    let b = test_suite()
        .into_iter()
        .find(|b| b.name() == bench)
        .unwrap();
    let _ = take_output_digest();
    let before = reuse_count();
    let out = kernel_ir::opt::with_passes(Some(passes.clone()), || b.run(v, Precision::F32));
    (out.unwrap(), take_output_digest(), reuse_count() - before)
}

#[test]
fn a_pipeline_that_executes_the_same_program_reuses_an_opencl_cell() {
    let _g = one_at_a_time();
    // Two pass lists that optimize the naive spmv kernel to one program.
    let first = Pipeline::parse("alg,dce").unwrap();
    let second = Pipeline::parse("alg,dce,dce").unwrap();
    kernel_ir::memo::clear();
    let (fresh, fresh_digest, hits) = cell("spmv", Variant::OpenCl, &second);
    assert_eq!(hits, 0, "an empty memo simulates");
    kernel_ir::memo::clear();
    let (_, _, hits) = cell("spmv", Variant::OpenCl, &first);
    assert_eq!(hits, 0, "the first pipeline simulates");
    let (reused, reused_digest, hits) = cell("spmv", Variant::OpenCl, &second);
    assert_eq!(hits, 1, "{second} executes what {first} executed");
    assert_eq!(fresh.time_s.to_bits(), reused.time_s.to_bits(), "time");
    assert_eq!(fresh.activity, reused.activity, "activity");
    assert_eq!(fresh.note, reused.note, "note");
    assert_eq!(fresh.telemetry.counters, reused.telemetry.counters);
    assert_eq!(fresh.telemetry.commands, reused.telemetry.commands);
    assert_eq!(fresh.telemetry.core_spans, reused.telemetry.core_spans);
    assert_eq!(fresh_digest, reused_digest, "output digest");
}

/// out[i] = a[i] + 1.0; with `dead_wide`, also an unused double16 value
/// that raises the register footprint until `dce` removes it.
fn inc_program(dead_wide: bool) -> Program {
    let mut kb = KernelBuilder::new("gpu-memo-inc");
    let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
    let c = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
    let gid = kb.query_global_id(0);
    let va = kb.load(Scalar::F32, a, gid.into());
    if dead_wide {
        kb.mov(Operand::ImmF(2.0), VType::new(Scalar::F64, 16));
    }
    let f32x1 = VType::scalar(Scalar::F32);
    let s = kb.bin(BinOp::Add, va.into(), Operand::ImmF(1.0), f32x1);
    kb.store(c, gid.into(), s.into());
    kb.finish()
}

fn inc_kernel() -> Program {
    inc_program(false)
}

const N: usize = 1024;

fn input() -> BufferData {
    BufferData::from((0..N).map(|i| i as f32).collect::<Vec<_>>())
}

/// Enqueue `inc_kernel` on a fresh context over `device`; returns the
/// report, the output buffer and how many launches the memo served.
fn enqueue(device: MaliT604) -> (MaliReport, BufferData, u64) {
    enqueue_program(device, inc_kernel())
}

fn enqueue_program(device: MaliT604, program: Program) -> (MaliReport, BufferData, u64) {
    let mut ctx = Context::new(device);
    let a = ctx.create_buffer_init(input(), MemFlags::AllocHostPtr);
    let c = ctx.create_buffer(Scalar::F32, N, MemFlags::AllocHostPtr);
    let k = ctx.build_kernel(program).unwrap();
    let before = reuse_count();
    let args = [KernelArg::Buf(a), KernelArg::Buf(c)];
    let info = ctx
        .enqueue_nd_range(&k, [N, 1, 1], Some([64, 1, 1]), &args)
        .unwrap();
    let hits = reuse_count() - before;
    (info.report, ctx.buffer_data(c).clone(), hits)
}

/// `MaliT604::run` of the same launch on a fresh pool.
fn run_fresh(device: &MaliT604) -> (MaliReport, BufferData) {
    run_fresh_program(device, &inc_kernel())
}

fn run_fresh_program(device: &MaliT604, program: &Program) -> (MaliReport, BufferData) {
    let mut pool = MemoryPool::new();
    pool.add(input());
    pool.add(BufferData::zeroed(Scalar::F32, N));
    let bind = [ArgBinding::Global(0), ArgBinding::Global(1)];
    let nd = NDRange::d1(N, 64);
    let report = device.run(program, &bind, &mut pool, nd).unwrap();
    (report, pool.get(1).clone())
}

#[test]
fn a_memoized_report_equals_a_fresh_run() {
    let _g = one_at_a_time();
    kernel_ir::memo::clear();
    let (first, _, hits) = enqueue(gpu());
    assert_eq!(hits, 0, "first launch simulates");
    let (reused, out, hits) = enqueue(gpu());
    assert_eq!(hits, 1, "the repeat is served");
    let (fresh, fresh_out) = run_fresh(&gpu());
    assert_eq!(first, fresh);
    assert_eq!(reused, fresh, "memoized report == MaliT604::run");
    assert_eq!(out, fresh_out, "memoized output == MaliT604::run");
}

#[test]
fn a_memoized_launch_rolls_its_own_throttle() {
    let _g = one_at_a_time();
    kernel_ir::memo::clear();
    let rates = FaultRates {
        dvfs_throttle: 1.0,
        ..FaultRates::zero()
    };
    let throttling = || Some(FaultPlan::new(7).with_rates(rates));
    // A throttled launch stores the unthrottled report ...
    let (throttled, _, hits) = sim_faults::with_plan(throttling(), || enqueue(gpu()));
    assert_eq!(hits, 0);
    assert!(
        throttled.dvfs_throttle.is_some(),
        "the plan throttles every launch"
    );
    let (plain, _, hits) = enqueue(gpu());
    assert_eq!(hits, 1);
    assert_eq!(plain, run_fresh(&gpu()).0, "no plan, no throttle");
    // ... and a served launch under the plan rolls the throttle again.
    let (again, _, hits) = sim_faults::with_plan(throttling(), || enqueue(gpu()));
    assert_eq!(hits, 1);
    assert_eq!(again, throttled);
    let fresh = sim_faults::with_plan(throttling(), || run_fresh(&gpu()).0);
    assert_eq!(again, fresh, "== MaliT604::run under the same plan");
}

#[test]
fn another_mali_config_misses() {
    let _g = one_at_a_time();
    kernel_ir::memo::clear();
    let (base, _, _) = enqueue(gpu());
    let slow = MaliT604::new(MaliConfig {
        freq_hz: MaliConfig::default().freq_hz / 2.0,
        ..MaliConfig::default()
    });
    let (report, _, hits) = enqueue(slow.clone());
    assert_eq!(hits, 0, "a DVFS point is another device");
    assert_eq!(report, run_fresh(&slow).0);
    assert!(report.time_s > base.time_s);
}

/// Mali occupancy reads the footprint of the program the device is
/// handed, so two handed programs that execute as one still miss.
#[test]
fn the_handed_program_is_part_of_the_key() {
    let _g = one_at_a_time();
    kernel_ir::memo::clear();
    let dce = Pipeline::parse("dce").unwrap();
    let (lean, fat) = (inc_program(false), inc_program(true));
    assert_eq!(dce.run(&lean), dce.run(&fat), "dce executes both alike");
    assert!(fat.register_footprint() > lean.register_footprint());
    let on = |p: &Program| {
        kernel_ir::opt::with_passes(Some(dce.clone()), || {
            let fresh = run_fresh_program(&gpu(), p).0;
            (enqueue_program(gpu(), p.clone()), fresh)
        })
    };
    let ((first, _, hits), fresh) = on(&lean);
    assert_eq!((hits, &first), (0, &fresh));
    let ((second, _, hits), fresh) = on(&fat);
    assert_eq!(hits, 0, "another handed program");
    assert_eq!(second, fresh);
    assert_ne!(second.footprint, first.footprint);
}
