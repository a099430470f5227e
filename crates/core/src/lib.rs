//! # mali-hpc — OpenCL optimization techniques for the Mali GPU compute
//! architecture
//!
//! The library form of the paper's contribution (Grasso et al., IPDPS 2014,
//! §III): every optimization technique the paper identifies for the
//! Mali-T604, implemented over the `kernel-ir` representation and the
//! simulated device stack, plus the umbrella re-exports of that stack.
//!
//! | Paper technique (§III) | Here |
//! |---|---|
//! | Memory allocation & mapping (host) | [`ocl_runtime::MemFlags`], map vs copy paths in [`ocl_runtime::Context`] |
//! | Load distribution / work-sizes | [`tuning::sweep`], [`tuning::wg_size_candidates`], [`tuning::guide_global_size`] |
//! | Memory spaces (no local-memory win) | modelled in `mali-gpu`; see its `local_memory_costs_like_global` test |
//! | Thread divergence (absent on Mali) | modelled in `mali-gpu`; see its `no_divergence_penalty` test |
//! | Vectorization | [`vectorize::vectorize`] |
//! | Vector sizes | [`tuning::VECTOR_WIDTH_CANDIDATES`] + sweep |
//! | Loop unrolling | [`unroll::unroll`] |
//! | Empirical autotuning (the §III close / Phothilimthana et al. direction) | [`autotune::autotune`] |
//! | Constant folding + DCE (what `const` licenses the compiler to do) | [`kernel_ir::opt`] `cf,dce` ([`kernel_ir::Pipeline`]) |
//! | Data organization (AOS→SOA) | [`layout`] |
//! | Directives & type qualifiers | [`kernel_ir::Hints`], honoured by the `ocl-runtime` compiler |

pub mod autotune;
pub mod layout;
pub mod tuning;
pub mod unroll;
pub mod vectorize;

pub use autotune::{autotune, AutotuneResult, Candidate, CandidateSkip, SearchSpace, Trial};
pub use layout::{aos_flatten, aos_to_soa, soa_to_aos, Particle, ParticlesSoa};
pub use tuning::{
    guide_global_size, largest_dividing_pow2, local_divides_global, sweep, wg_size_candidates,
    wg_tiles_global, TuningEntry, TuningResult, VECTOR_WIDTH_CANDIDATES,
};
pub use unroll::{unroll, UnrollRefusal};
pub use vectorize::{vectorize, VectorizeRefusal, Vectorized};

// Umbrella re-exports: the full simulated stack.
pub use cpu_sim;
pub use kernel_ir;
pub use mali_gpu;
pub use memsim;
pub use ocl_runtime;
pub use powersim;

#[cfg(test)]
mod randomized_tests {
    //! Seeded randomized sweeps (the former proptest suite, rewritten over
    //! the in-tree PRNG so the workspace builds offline).

    use super::*;
    use kernel_ir::prelude::*;
    use kernel_ir::{Access, BufferData, NullTracer, Scalar};
    use sim_rng::Pcg32;

    /// Build `out[i] = (a[i] + k1) * a[i] + k2` style elementwise kernels
    /// with a parameterized op chain.
    fn chain_kernel(muls: usize, k: f64) -> Program {
        let mut kb = KernelBuilder::new("chain");
        let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let o = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
        let gid = kb.query_global_id(0);
        let v = kb.load(Scalar::F32, a, gid.into());
        let mut cur = v;
        for i in 0..muls {
            let imm = Operand::ImmF(k + i as f64);
            cur = kb.mad(
                cur.into(),
                imm,
                Operand::ImmF(0.5),
                VType::scalar(Scalar::F32),
            );
        }
        kb.store(o, gid.into(), cur.into());
        kb.finish()
    }

    fn run(p: &Program, input: &[f32], items: usize, wg: usize) -> Vec<f32> {
        let mut pool = MemoryPool::new();
        let a = pool.add(BufferData::from(input.to_vec()));
        let o = pool.add(BufferData::zeroed(Scalar::F32, input.len()));
        run_ndrange(
            p,
            &[ArgBinding::Global(a), ArgBinding::Global(o)],
            &mut pool,
            NDRange::d1(items, wg),
            &mut NullTracer,
        )
        .unwrap();
        pool.get(o).as_f32().to_vec()
    }

    fn random_input(rng: &mut Pcg32, n: usize, span: f32) -> Vec<f32> {
        (0..n)
            .map(|_| (rng.next_f64() as f32 * 2.0 - 1.0) * span)
            .collect()
    }

    /// Vectorization preserves semantics for arbitrary op chains,
    /// inputs and widths.
    #[test]
    fn vectorize_preserves_semantics() {
        let mut rng = Pcg32::seed_from_u64(0x7EC);
        for _ in 0..64 {
            let muls = rng.gen_range_usize(0, 6);
            let k = rng.next_f64() * 4.0 - 2.0;
            let input = random_input(&mut rng, 64, 100.0);
            let width = [2u8, 4, 8, 16][rng.gen_range_usize(0, 4)];
            let p = chain_kernel(muls, k);
            let scalar = run(&p, &input, 64, 8);
            let v = vectorize(&p, width).unwrap();
            let vectored = run(&v.program, &input, 64 / width as usize, 4);
            assert_eq!(scalar, vectored, "muls {muls} k {k} width {width}");
        }
    }

    /// Unrolling preserves semantics for arbitrary divisible factors.
    #[test]
    fn unroll_preserves_semantics() {
        let mut rng = Pcg32::seed_from_u64(0x0210);
        for _ in 0..48 {
            let input = random_input(&mut rng, 64, 10.0);
            let factor = [2u32, 4, 8][rng.gen_range_usize(0, 3)];
            // out[gid] = sum of a[gid*8..gid*8+8]
            let mut kb = KernelBuilder::new("rs");
            let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
            let o = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
            let gid = kb.query_global_id(0);
            let base = kb.bin(
                BinOp::Mul,
                gid.into(),
                Operand::ImmI(8),
                VType::scalar(Scalar::U32),
            );
            let acc = kb.mov(Operand::ImmF(0.0), VType::scalar(Scalar::F32));
            kb.for_loop(
                Operand::ImmI(0),
                Operand::ImmI(8),
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
            let p = kb.finish();
            let u = unroll(&p, factor).unwrap();
            assert_eq!(
                run(&p, &input, 8, 4),
                run(&u, &input, 8, 4),
                "factor {factor}"
            );
        }
    }

    /// AOS/SOA conversion round-trips (including non-finite bit patterns).
    #[test]
    fn layout_roundtrip() {
        let mut rng = Pcg32::seed_from_u64(0x1A10);
        for _ in 0..64 {
            let n = rng.gen_range_usize(0, 50);
            let aos: Vec<Particle<f32>> = (0..n)
                .map(|_| Particle {
                    x: f32::from_bits(rng.next_u32()),
                    y: f32::from_bits(rng.next_u32()),
                    z: f32::from_bits(rng.next_u32()),
                    m: (rng.next_f64() as f32) * 10.0,
                })
                .collect();
            let back = soa_to_aos(&aos_to_soa(&aos));
            // Compare bitwise so NaN payloads round-trip too.
            assert_eq!(aos.len(), back.len());
            for (a, b) in aos.iter().zip(&back) {
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.y.to_bits(), b.y.to_bits());
                assert_eq!(a.z.to_bits(), b.z.to_bits());
                assert_eq!(a.m.to_bits(), b.m.to_bits());
            }
        }
    }
}
