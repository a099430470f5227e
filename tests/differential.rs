//! Differential testing: randomly generated kernels must produce identical
//! results on the plain interpreter, the Cortex-A15 device (1 and 2 cores)
//! and the Mali-T604 device. The devices only *meter* — they must never
//! change semantics. This is the deepest guarantee behind every number in
//! EXPERIMENTS.md.

use kernel_ir::prelude::*;
use kernel_ir::Access;
use sim_rng::Pcg32;

/// A recipe for one random op in a straight-line elementwise kernel.
#[derive(Clone, Debug)]
enum Step {
    Add(f32),
    Mul(f32),
    Mad(f32, f32),
    Sub(f32),
    MinC(f32),
    MaxC(f32),
    Abs,
    Neg,
    Sqrt,
    /// clamp-to-zero via compare+select
    Relu,
    CastRoundTrip,
}

fn uniform(rng: &mut Pcg32, span: f32) -> f32 {
    (rng.next_f64() as f32 * 2.0 - 1.0) * span
}

fn random_step(rng: &mut Pcg32) -> Step {
    match rng.gen_below(11) {
        0 => Step::Add(uniform(rng, 8.0)),
        1 => Step::Mul(uniform(rng, 4.0)),
        2 => Step::Mad(uniform(rng, 4.0), uniform(rng, 8.0)),
        3 => Step::Sub(uniform(rng, 8.0)),
        4 => Step::MinC(uniform(rng, 8.0)),
        5 => Step::MaxC(uniform(rng, 8.0)),
        6 => Step::Abs,
        7 => Step::Neg,
        8 => Step::Sqrt,
        9 => Step::Relu,
        _ => Step::CastRoundTrip,
    }
}

fn random_steps(rng: &mut Pcg32, lo: usize, hi: usize) -> Vec<Step> {
    let n = rng.gen_range_usize(lo, hi);
    (0..n).map(|_| random_step(rng)).collect()
}

fn random_input(rng: &mut Pcg32, n: usize, span: f32) -> Vec<f32> {
    (0..n).map(|_| uniform(rng, span)).collect()
}

/// Build the kernel: out[i] = chain(a[i]).
fn build(steps: &[Step]) -> Program {
    let f32s = VType::scalar(Scalar::F32);
    let mut kb = KernelBuilder::new("chain");
    let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
    let o = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
    let gid = kb.query_global_id(0);
    let mut cur = kb.load(Scalar::F32, a, gid.into());
    for s in steps {
        cur = match s {
            Step::Add(c) => kb.bin(BinOp::Add, cur.into(), Operand::ImmF(*c as f64), f32s),
            Step::Mul(c) => kb.bin(BinOp::Mul, cur.into(), Operand::ImmF(*c as f64), f32s),
            Step::Mad(m, c) => kb.mad(
                cur.into(),
                Operand::ImmF(*m as f64),
                Operand::ImmF(*c as f64),
                f32s,
            ),
            Step::Sub(c) => kb.bin(BinOp::Sub, cur.into(), Operand::ImmF(*c as f64), f32s),
            Step::MinC(c) => kb.bin(BinOp::Min, cur.into(), Operand::ImmF(*c as f64), f32s),
            Step::MaxC(c) => kb.bin(BinOp::Max, cur.into(), Operand::ImmF(*c as f64), f32s),
            Step::Abs => kb.un(UnOp::Abs, cur.into(), f32s),
            Step::Neg => kb.un(UnOp::Neg, cur.into(), f32s),
            Step::Sqrt => {
                // keep the domain non-negative first
                let nn = kb.un(UnOp::Abs, cur.into(), f32s);
                kb.un(UnOp::Sqrt, nn.into(), f32s)
            }
            Step::Relu => {
                let neg = kb.bin(BinOp::Lt, cur.into(), Operand::ImmF(0.0), f32s);
                kb.select(neg.into(), Operand::ImmF(0.0), cur.into(), f32s)
            }
            Step::CastRoundTrip => {
                let d = kb.cast(cur.into(), VType::scalar(Scalar::F64));
                kb.cast(d.into(), f32s)
            }
        };
    }
    kb.store(o, gid.into(), cur.into());
    kb.finish()
}

fn run_interp(p: &Program, input: &[f32], wg: usize) -> Vec<f32> {
    let mut pool = MemoryPool::new();
    let a = pool.add(input.to_vec().into());
    let o = pool.add(BufferData::zeroed(Scalar::F32, input.len()));
    run_ndrange(
        p,
        &[ArgBinding::Global(a), ArgBinding::Global(o)],
        &mut pool,
        NDRange::d1(input.len(), wg),
        &mut NullTracer,
    )
    .unwrap();
    pool.get(o).as_f32().to_vec()
}

fn run_cpu(p: &Program, input: &[f32], wg: usize, cores: u32) -> Vec<f32> {
    let mut pool = MemoryPool::new();
    let a = pool.add(input.to_vec().into());
    let o = pool.add(BufferData::zeroed(Scalar::F32, input.len()));
    cpu_sim::CortexA15::default()
        .run(
            p,
            &[ArgBinding::Global(a), ArgBinding::Global(o)],
            &mut pool,
            NDRange::d1(input.len(), wg),
            cores,
        )
        .unwrap();
    pool.get(o).as_f32().to_vec()
}

fn run_gpu(p: &Program, input: &[f32], wg: usize) -> Vec<f32> {
    let mut pool = MemoryPool::new();
    let a = pool.add(input.to_vec().into());
    let o = pool.add(BufferData::zeroed(Scalar::F32, input.len()));
    mali_gpu::MaliT604::default()
        .run(
            p,
            &[ArgBinding::Global(a), ArgBinding::Global(o)],
            &mut pool,
            NDRange::d1(input.len(), wg),
        )
        .unwrap();
    pool.get(o).as_f32().to_vec()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// All four execution paths agree bit-for-bit on random op chains.
#[test]
fn devices_agree_bitwise() {
    let mut rng = Pcg32::seed_from_u64(0xD1FF);
    for case in 0..48 {
        let steps = random_steps(&mut rng, 1, 12);
        let input = random_input(&mut rng, 64, 50.0);
        let wg = [8usize, 16, 32][rng.gen_range_usize(0, 3)];
        let p = build(&steps);
        p.validate().unwrap();
        let base = run_interp(&p, &input, wg);
        assert_eq!(
            bits(&base),
            bits(&run_cpu(&p, &input, wg, 1)),
            "case {case}: CPU-1 diverged on {steps:?}"
        );
        assert_eq!(
            bits(&base),
            bits(&run_cpu(&p, &input, wg, 2)),
            "case {case}: CPU-2 diverged on {steps:?}"
        );
        assert_eq!(
            bits(&base),
            bits(&run_gpu(&p, &input, wg)),
            "case {case}: GPU diverged on {steps:?}"
        );
    }
}

/// Vectorization of the same random chain is also bit-exact (lane-wise
/// ops are order-independent per element).
#[test]
fn vectorized_random_chain_bit_exact() {
    let mut rng = Pcg32::seed_from_u64(0x7EC7);
    for case in 0..48 {
        let steps = random_steps(&mut rng, 1, 10);
        let input = random_input(&mut rng, 64, 50.0);
        let p = build(&steps);
        let base = run_interp(&p, &input, 16);
        for w in [2u8, 4, 8] {
            let v = mali_hpc::vectorize(&p, w).unwrap();
            let mut pool = MemoryPool::new();
            let a = pool.add(input.clone().into());
            let o = pool.add(BufferData::zeroed(Scalar::F32, input.len()));
            run_ndrange(
                &v.program,
                &[ArgBinding::Global(a), ArgBinding::Global(o)],
                &mut pool,
                NDRange::d1(input.len() / w as usize, 8),
                &mut NullTracer,
            )
            .unwrap();
            assert_eq!(
                bits(&base),
                bits(pool.get(o).as_f32()),
                "case {case}: width {w} diverged on {steps:?}"
            );
        }
    }
}

/// Constant folding + DCE (`cf,dce`, the cleanup `mali_hpc::autotune` runs
/// on every candidate) preserves random-chain semantics bit-exactly.
#[test]
fn optimizer_random_chain_bit_exact() {
    let mut rng = Pcg32::seed_from_u64(0xF01D);
    for case in 0..48 {
        let steps = random_steps(&mut rng, 1, 12);
        let input = random_input(&mut rng, 32, 50.0);
        let p = build(&steps);
        let opt = kernel_ir::Pipeline::parse("cf,dce").unwrap().run(&p);
        assert_eq!(
            bits(&run_interp(&p, &input, 8)),
            bits(&run_interp(&opt, &input, 8)),
            "case {case}: optimizer diverged on {steps:?}"
        );
    }
}

/// Multi-dimensional id plumbing: a 3-D kernel writing its linearized
/// global id must produce the identity permutation on every device.
#[test]
fn three_dimensional_ids_agree() {
    let mut kb = KernelBuilder::new("id3");
    let o = kb.arg_global(Scalar::U32, Access::WriteOnly, true);
    let gx = kb.query_global_id(0);
    let gy = kb.query_global_id(1);
    let gz = kb.query_global_id(2);
    let sx = kb.query_global_size(0);
    let sy = kb.query_global_size(1);
    // idx = (gz*sy + gy)*sx + gx
    let t1 = kb.bin(BinOp::Mul, gz.into(), sy.into(), VType::scalar(Scalar::U32));
    let t2 = kb.bin(BinOp::Add, t1.into(), gy.into(), VType::scalar(Scalar::U32));
    let t3 = kb.bin(BinOp::Mul, t2.into(), sx.into(), VType::scalar(Scalar::U32));
    let idx = kb.bin(BinOp::Add, t3.into(), gx.into(), VType::scalar(Scalar::U32));
    kb.store(o, idx.into(), idx.into());
    let p = kb.finish();
    p.validate().unwrap();

    let ndr = NDRange::d3([8, 6, 4], [4, 3, 2]);
    let n = ndr.total_items();
    let expected: Vec<u32> = (0..n as u32).collect();

    let mut pool = MemoryPool::new();
    let o1 = pool.add(BufferData::zeroed(Scalar::U32, n));
    run_ndrange(
        &p,
        &[ArgBinding::Global(o1)],
        &mut pool,
        ndr,
        &mut NullTracer,
    )
    .unwrap();
    assert_eq!(pool.get(o1).as_u32(), expected.as_slice());

    let mut pool2 = MemoryPool::new();
    let o2 = pool2.add(BufferData::zeroed(Scalar::U32, n));
    mali_gpu::MaliT604::default()
        .run(&p, &[ArgBinding::Global(o2)], &mut pool2, ndr)
        .unwrap();
    assert_eq!(pool2.get(o2).as_u32(), expected.as_slice());

    let mut pool3 = MemoryPool::new();
    let o3 = pool3.add(BufferData::zeroed(Scalar::U32, n));
    cpu_sim::CortexA15::default()
        .run(&p, &[ArgBinding::Global(o3)], &mut pool3, ndr, 2)
        .unwrap();
    assert_eq!(pool3.get(o3).as_u32(), expected.as_slice());
}
