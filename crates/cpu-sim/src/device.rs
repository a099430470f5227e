//! The Cortex-A15 device: executes kernel-ir programs functionally and
//! derives Serial (1-core) / OpenMP (2-core) timing, cache behaviour and
//! power activity.
//!
//! Scheduling model: the NDRange's work-groups are the OpenMP loop
//! iterations; a `cores`-way run partitions them into contiguous blocks
//! (static scheduling, like the paper's OpenMP builds), so per-group cost
//! differences surface as load imbalance — the effect `spmv` is designed to
//! measure.

use crate::config::CortexA15Config;
use kernel_ir::{
    run_ndrange_sharded, ArgBinding, ExecError, ExecTracer, MemAccess, MemoryPool, NDRange,
    OpClass, Pattern, Program, Scalar, ShardTracer, VType,
};
use memsim::{Hierarchy, HierarchyStats, StrideClassifier};
use powersim::Activity;
use telemetry::{Counters, WorkSpan};

/// Timing/energy outcome of one CPU run.
#[derive(Clone, Debug, PartialEq)]
pub struct CpuReport {
    /// Wall-clock time of the parallel region, seconds.
    pub time_s: f64,
    /// Core-compute component (max over cores), seconds.
    pub compute_time_s: f64,
    /// DRAM bandwidth component, seconds.
    pub mem_time_s: f64,
    /// Cores the run occupied.
    pub cores_used: u32,
    /// Activity vector for the power model.
    pub activity: Activity,
    /// Cache/DRAM statistics.
    pub hier: HierarchyStats,
    /// Total issued compute cycles (all cores).
    pub total_cycles: f64,
    /// Performance-counter snapshot for this run.
    pub counters: Counters,
    /// Per-core work-group execution intervals (simulated time, seconds,
    /// relative to the start of the parallel region).
    pub spans: Vec<WorkSpan>,
    /// Host worker threads the simulation's group loop actually ran on
    /// (1 = serial). Simulation-engine metadata — distinct from
    /// `cores_used`, which is the *modeled* A15 core count — and excluded
    /// from exported counters so suite outputs stay byte-identical across
    /// `SIM_THREADS` settings.
    pub sim_threads: usize,
    /// Why the engine forced serial group execution (e.g. global atomics),
    /// if it did.
    pub sim_serial_reason: Option<&'static str>,
    /// Injected mid-run DVFS throttle factor (> 1 stretches every
    /// time-like quantity), if the ambient fault plan fired one.
    pub dvfs_throttle: Option<f64>,
}

/// The cores-independent outcome of one CPU launch: what the functional
/// pass and the cache replay produced, before any core partition. Produced
/// by [`CortexA15::profile`], consumed by [`CortexA15::time`].
#[derive(Clone, Debug, PartialEq)]
pub struct CpuProfile {
    /// Kernel name (keys the DVFS throttle roll).
    pub program_name: String,
    /// Compute cycles charged to each work-group, in group order.
    pub group_cycles: Vec<f64>,
    /// Cache/DRAM statistics of the whole launch.
    pub hier: HierarchyStats,
    /// Performance counters, hierarchy included.
    pub counters: Counters,
    /// Host worker threads the group loop ran on (see
    /// [`CpuReport::sim_threads`]).
    pub sim_threads: usize,
    /// Why the engine forced serial group execution, if it did.
    pub sim_serial_reason: Option<&'static str>,
}

/// Mem-side tracer state: the cache hierarchy and stride classifiers whose
/// transitions depend on the global access order. Op-side cycles accumulate
/// per group in a [`CpuShard`]; [`ShardTracer::absorb_group`] recombines the
/// two halves in ascending group order, identically for 1..N sim threads.
struct CpuTracer<'c> {
    cfg: &'c CortexA15Config,
    hier: Hierarchy,
    /// Compute cycles charged to each completed group.
    group_cycles: Vec<f64>,
    strides: StrideClassifier,
    counters: Counters,
}

/// One work-group's op-side cycle accumulator (arithmetic, loop and
/// work-item overheads — everything whose cost needs no cache state).
struct CpuShard<'c> {
    cfg: &'c CortexA15Config,
    cur: f64,
    counters: Counters,
}

fn op_cost(c: &CortexA15Config, class: OpClass, ty: VType) -> f64 {
    let base = match class {
        OpClass::Simple => c.cy_simple,
        OpClass::Mul => c.cy_mul,
        OpClass::Mad => c.cy_mad,
        OpClass::Div => c.cy_div,
        OpClass::Special => c.cy_sqrt,
        OpClass::Rsqrt => c.cy_rsqrt,
        OpClass::Transcendental => c.cy_transcendental,
        OpClass::Move => c.cy_move,
        OpClass::Horizontal => c.cy_horiz,
    };
    // No NEON: vector ops are scalarized lane by lane.
    let lanes = ty.width as f64;
    let f64x = if ty.elem == Scalar::F64 {
        c.f64_factor
    } else {
        1.0
    };
    // Integer address arithmetic dual-issues and hides behind FP.
    let intx =
        if ty.elem.is_int() && matches!(class, OpClass::Simple | OpClass::Mul | OpClass::Move) {
            c.int_op_factor
        } else {
            1.0
        };
    base * lanes * f64x * intx / c.ilp
}

impl ExecTracer for CpuShard<'_> {
    fn op(&mut self, class: OpClass, ty: VType) {
        self.counters.note_op(class, ty);
        self.cur += op_cost(self.cfg, class, ty);
    }

    fn loop_iter(&mut self) {
        self.counters.note_loop_iter();
        self.cur += self.cfg.cy_loop / self.cfg.ilp;
    }

    fn thread_start(&mut self) {
        self.counters.note_thread_start();
        self.cur += self.cfg.cy_item / self.cfg.ilp;
    }

    fn group_start(&mut self) {
        self.counters.note_group_start();
    }

    fn barrier(&mut self, items: u32) {
        // Barriers are free on a sequential CPU schedule (each phase is a
        // plain loop) — but still counted.
        self.counters.note_barrier(items);
    }
}

impl<'c> CpuTracer<'c> {
    fn new(cfg: &'c CortexA15Config) -> Self {
        CpuTracer {
            cfg,
            hier: Hierarchy::with_l1(cfg.l1, cfg.l2),
            group_cycles: Vec::new(),
            strides: StrideClassifier::default(),
            counters: Counters::default(),
        }
    }

    /// Replay one recorded memory access through the stateful cache model,
    /// charging cycles to the group being absorbed.
    fn replay_mem(&mut self, a: &MemAccess, lanes: &[u64], cur: &mut f64) {
        self.counters.note_mem(a);
        let c = self.cfg;
        let write = matches!(a.kind, kernel_ir::AccessKind::Write);
        let atomic = matches!(a.kind, kernel_ir::AccessKind::Atomic);
        // Issue cost: one AGU slot per lane (scalarized, no NEON loads).
        *cur += c.cy_mem_issue * a.width as f64 / c.ilp;
        if atomic {
            *cur += c.cy_atomic;
        }
        match a.pattern {
            Pattern::Scalar | Pattern::Contiguous => {
                // Scalar streams that hop around (indirect x[col[j]]) are
                // scattered traffic even though each access is scalar.
                let streaming = a.pattern == Pattern::Contiguous
                    || self.strides.classify_stream(a.stream, a.addr);
                let out = self
                    .hier
                    .access(a.addr, a.bytes, write || atomic, streaming);
                *cur += out.l1_hits as f64 * c.cy_l1_hit + out.l2_hits as f64 * c.cy_l2_hit;
                if !streaming {
                    // Scattered misses expose latency the prefetcher can't
                    // hide.
                    *cur += out.dram_lines as f64
                        * c.dram.latency
                        * c.scatter_latency_exposure
                        * c.freq_hz;
                }
                // Streaming DRAM lines are charged through the bandwidth
                // term; the prefetcher hides their latency.
            }
            Pattern::Gather => {
                debug_assert_eq!(lanes.len(), a.width as usize);
                let lane_bytes = a.elem.bytes();
                for &addr in lanes {
                    let out = self.hier.access(addr, lane_bytes, write || atomic, false);
                    *cur += out.l1_hits as f64 * c.cy_l1_hit + out.l2_hits as f64 * c.cy_l2_hit;
                    // Scattered misses expose part of the DRAM latency to
                    // the core (the OoO window can't hide 110 ns).
                    *cur += out.dram_lines as f64
                        * c.dram.latency
                        * c.scatter_latency_exposure
                        * c.freq_hz;
                }
            }
        }
    }
}

impl<'c> ShardTracer for CpuTracer<'c> {
    type Shard = CpuShard<'c>;

    fn make_shard(&self) -> CpuShard<'c> {
        CpuShard {
            cfg: self.cfg,
            cur: 0.0,
            counters: Counters::default(),
        }
    }

    fn absorb_group(&mut self, shard: CpuShard<'c>, mem: &[MemAccess], lanes: &[u64]) {
        self.counters.merge_in(&shard.counters);
        let mut cur = shard.cur;
        let mut lc = 0usize;
        for a in mem {
            let nl = if a.pattern == Pattern::Gather {
                a.width as usize
            } else {
                0
            };
            self.replay_mem(a, &lanes[lc..lc + nl], &mut cur);
            lc += nl;
        }
        self.group_cycles.push(cur);
    }
}

/// The device.
#[derive(Clone, Debug, Default)]
pub struct CortexA15 {
    pub cfg: CortexA15Config,
}

impl CortexA15 {
    pub fn new(cfg: CortexA15Config) -> Self {
        CortexA15 { cfg }
    }

    /// Execute `program` over `ndrange` using `cores` cores (1 = the
    /// paper's Serial build, 2 = OpenMP). Mutates buffers in `pool`.
    ///
    /// Equivalent to [`time`](Self::time) over [`profile`](Self::profile):
    /// callers that time one launch at several core counts profile once.
    pub fn run(
        &self,
        program: &Program,
        bindings: &[ArgBinding],
        pool: &mut MemoryPool,
        ndrange: NDRange,
        cores: u32,
    ) -> Result<CpuReport, ExecError> {
        Ok(self.time(&self.profile(program, bindings, pool, ndrange)?, cores))
    }

    /// The cores-independent part of a run: execute `program` functionally
    /// (mutating buffers in `pool`) and replay its memory events through
    /// the L1/L2 hierarchy in group order. Reads no fault plan, so one
    /// profile serves every core count and every fault seed.
    pub fn profile(
        &self,
        program: &Program,
        bindings: &[ArgBinding],
        pool: &mut MemoryPool,
        ndrange: NDRange,
    ) -> Result<CpuProfile, ExecError> {
        let mut tracer = CpuTracer::new(&self.cfg);
        let stats = run_ndrange_sharded(
            program,
            bindings,
            pool,
            ndrange,
            &mut tracer,
            sim_pool::threads(),
        )?;
        debug_assert_eq!(tracer.group_cycles.len(), ndrange.total_groups().max(1));
        let hier = tracer.hier.stats;
        let mut counters = tracer.counters;
        counters.absorb_hier(&hier);
        Ok(CpuProfile {
            program_name: program.name.clone(),
            group_cycles: tracer.group_cycles,
            hier,
            counters,
            sim_threads: stats.threads,
            sim_serial_reason: stats.serial_reason,
        })
    }

    /// The timing post-pass: partition the profiled work-groups over
    /// `cores` cores and combine compute and DRAM time into a report. Rolls
    /// the DVFS throttle fault (keyed on `cores`) under the ambient plan.
    pub fn time(&self, profile: &CpuProfile, cores: u32) -> CpuReport {
        assert!(
            cores >= 1 && cores <= self.cfg.max_cores,
            "cores must be in 1..={}",
            self.cfg.max_cores
        );
        let groups = &profile.group_cycles;

        // Static block partition over cores. Each group's interval on its
        // core is recorded as a telemetry span (in wall-clock seconds, with
        // the SMP penalty applied so spans line up with compute time).
        let mut core_cycles = vec![0.0f64; cores as usize];
        let chunk = groups.len().div_ceil(cores as usize).max(1);
        let smp = if cores > 1 {
            self.cfg.smp_compute_penalty
        } else {
            1.0
        };
        let cy_to_s = smp / self.cfg.freq_hz;
        let mut spans = Vec::with_capacity(groups.len());
        for (i, g) in groups.iter().enumerate() {
            let core = (i / chunk).min(cores as usize - 1);
            let start = core_cycles[core];
            core_cycles[core] = start + *g;
            spans.push(WorkSpan {
                core: core as u32,
                group: i as u32,
                start_s: start * cy_to_s,
                end_s: core_cycles[core] * cy_to_s,
            });
        }
        let total_cycles: f64 = core_cycles.iter().sum();
        let compute_time = core_cycles.iter().cloned().fold(0.0, f64::max) * smp / self.cfg.freq_hz;
        // Memory time: DRAM-side limit (controller efficiency, scatter
        // derating) or the cores' aggregate streaming capability, whichever
        // binds.
        let hier = profile.hier;
        let traffic = hier.traffic;
        let dram_side = traffic.bandwidth_time(&self.cfg.dram);
        let aggregate_core_bw =
            self.cfg.core_stream_bw * (1.0 + self.cfg.smp_bw_scale * (cores as f64 - 1.0));
        let core_side = traffic.total_bytes(&self.cfg.dram) as f64 / aggregate_core_bw;
        let mem_time = dram_side.max(core_side);
        let region_overhead = if cores > 1 {
            self.cfg.omp_region_overhead_s
        } else {
            0.0
        };
        let time_s = compute_time.max(mem_time) + region_overhead;

        let mut cpu_busy = [0.0f64; 2];
        for c in 0..cores.min(2) as usize {
            // A core is busy (not clock-gated) for the whole region when it
            // has work; scale by its share when imbalanced.
            let share = if compute_time > 0.0 {
                (core_cycles[c] / self.cfg.freq_hz / compute_time).clamp(0.0, 1.0)
            } else {
                1.0
            };
            // Memory-stalled time still burns most of the core power; count
            // busy as the max of compute share and the stall window.
            cpu_busy[c] = time_s * share.max(if mem_time > compute_time { 0.85 } else { 0.0 });
        }

        let activity = Activity {
            duration_s: time_s,
            cpu_busy_s: cpu_busy,
            gpu_active_s: 0.0,
            gpu_arith_util_s: 0.0,
            gpu_ls_util_s: 0.0,
            dram_bytes: hier.traffic.total_lines() * self.cfg.dram.line_bytes as u64,
        };

        let mut report = CpuReport {
            time_s,
            compute_time_s: compute_time,
            mem_time_s: mem_time,
            cores_used: cores,
            activity,
            hier,
            total_cycles,
            counters: profile.counters.clone(),
            spans,
            sim_threads: profile.sim_threads,
            sim_serial_reason: profile.sim_serial_reason,
            dvfs_throttle: None,
        };
        maybe_throttle(&mut report, &profile.program_name);
        report
    }
}

/// Fault injection: the `interactive` governor throttles the big cluster
/// mid-run, stretching every time-like quantity by one uniform factor.
/// Keyed on the kernel name, core count and group count so the decision is
/// a pure function of the run. Counters and traffic are unaffected.
fn maybe_throttle(report: &mut CpuReport, program_name: &str) {
    let Some(plan) = sim_faults::current() else {
        return;
    };
    let seq = sim_faults::hash_key(program_name)
        ^ (report.spans.len() as u64)
        ^ ((report.cores_used as u64) << 32);
    if !plan.roll(sim_faults::FaultSite::DvfsThrottle, seq) {
        return;
    }
    let k = plan.uniform(sim_faults::FaultSite::DvfsThrottle, seq, 1.1, 1.4);
    sim_faults::note(sim_faults::FaultSite::DvfsThrottle);
    report.dvfs_throttle = Some(k);
    report.time_s *= k;
    report.compute_time_s *= k;
    report.mem_time_s *= k;
    report.activity.duration_s *= k;
    report.activity.cpu_busy_s[0] *= k;
    report.activity.cpu_busy_s[1] *= k;
    for s in &mut report.spans {
        s.start_s *= k;
        s.end_s *= k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_ir::prelude::*;
    use kernel_ir::{Access, BufferData};

    /// out[i] = a[i] * a[i] with heavy per-item compute (to be compute-bound).
    fn compute_heavy(n_iters: i64) -> Program {
        let mut kb = KernelBuilder::new("heavy");
        let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let out = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
        let gid = kb.query_global_id(0);
        let v = kb.load(Scalar::F32, a, gid.into());
        let acc = kb.mov(v.into(), VType::scalar(Scalar::F32));
        kb.for_loop(
            Operand::ImmI(0),
            Operand::ImmI(n_iters),
            Operand::ImmI(1),
            |kb, _| {
                kb.mad_into(
                    acc,
                    acc.into(),
                    Operand::ImmF(1.0000001),
                    Operand::ImmF(1e-7),
                );
            },
        );
        kb.store(out, gid.into(), acc.into());
        kb.finish()
    }

    fn streaming_kernel() -> Program {
        let mut kb = KernelBuilder::new("stream");
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

    fn setup_streaming(n: usize) -> (MemoryPool, [ArgBinding; 3]) {
        let mut pool = MemoryPool::new();
        let a = pool.add(BufferData::from(vec![1.0f32; n]));
        let b = pool.add(BufferData::from(vec![2.0f32; n]));
        let c = pool.add(BufferData::zeroed(Scalar::F32, n));
        (
            pool,
            [
                ArgBinding::Global(a),
                ArgBinding::Global(b),
                ArgBinding::Global(c),
            ],
        )
    }

    #[test]
    fn computes_correct_results() {
        let dev = CortexA15::default();
        let p = streaming_kernel();
        let (mut pool, bindings) = setup_streaming(1024);
        dev.run(&p, &bindings, &mut pool, NDRange::d1(1024, 64), 1)
            .unwrap();
        assert!(pool.get(2).as_f32().iter().all(|&x| x == 3.0));
    }

    #[test]
    fn compute_bound_kernel_scales_with_cores() {
        let dev = CortexA15::default();
        let p = compute_heavy(2000);
        let mk = || {
            let mut pool = MemoryPool::new();
            let a = pool.add(BufferData::from(vec![1.0f32; 128]));
            let out = pool.add(BufferData::zeroed(Scalar::F32, 128));
            (pool, [ArgBinding::Global(a), ArgBinding::Global(out)])
        };
        let (mut p1, b1) = mk();
        let r1 = dev.run(&p, &b1, &mut p1, NDRange::d1(128, 16), 1).unwrap();
        let (mut p2, b2) = mk();
        let r2 = dev.run(&p, &b2, &mut p2, NDRange::d1(128, 16), 2).unwrap();
        let speedup = r1.time_s / r2.time_s;
        // The smp_compute_penalty keeps even perfect splits below 2.0x,
        // matching the paper's observed 1.2..1.9 band.
        assert!(
            (1.55..=1.95).contains(&speedup),
            "compute-bound OpenMP speedup {speedup:.2} outside 1.55..1.95"
        );
    }

    #[test]
    fn memory_bound_kernel_scales_poorly() {
        let dev = CortexA15::default();
        let p = streaming_kernel();
        let n = 1 << 20; // 12 MiB of traffic >> L2
        let (mut p1, b1) = setup_streaming(n);
        let r1 = dev.run(&p, &b1, &mut p1, NDRange::d1(n, 256), 1).unwrap();
        let (mut p2, b2) = setup_streaming(n);
        let r2 = dev.run(&p, &b2, &mut p2, NDRange::d1(n, 256), 2).unwrap();
        let speedup = r1.time_s / r2.time_s;
        assert!(
            speedup < 1.6,
            "memory-bound kernel should not scale to 2 cores (got {speedup:.2})"
        );
    }

    #[test]
    fn time_positive_and_decomposed() {
        let dev = CortexA15::default();
        let p = streaming_kernel();
        let (mut pool, bindings) = setup_streaming(4096);
        let r = dev
            .run(&p, &bindings, &mut pool, NDRange::d1(4096, 64), 1)
            .unwrap();
        assert!(r.time_s > 0.0);
        assert!(r.time_s + 1e-15 >= r.compute_time_s.max(r.mem_time_s));
        assert!(r.activity.dram_bytes > 0);
        assert_eq!(r.cores_used, 1);
        assert_eq!(r.activity.cpu_busy_s[1], 0.0);
    }

    #[test]
    fn omp_run_uses_second_core() {
        let dev = CortexA15::default();
        let p = compute_heavy(100);
        let mut pool = MemoryPool::new();
        let a = pool.add(BufferData::from(vec![1.0f32; 256]));
        let out = pool.add(BufferData::zeroed(Scalar::F32, 256));
        let b = [ArgBinding::Global(a), ArgBinding::Global(out)];
        let r = dev.run(&p, &b, &mut pool, NDRange::d1(256, 16), 2).unwrap();
        assert!(r.activity.cpu_busy_s[1] > 0.0);
    }

    #[test]
    fn imbalanced_groups_hurt_two_core_time() {
        // Group 0..7 heavy, 8..15 trivial → block partition puts all heavy
        // work on core 0.
        let mut kb = KernelBuilder::new("imb");
        let out = kb.arg_global(Scalar::F32, Access::ReadWrite, true);
        let gid = kb.query_global_id(0);
        let half = kb.bin(
            BinOp::Lt,
            gid.into(),
            Operand::ImmI(128),
            VType::scalar(Scalar::U32),
        );
        let acc = kb.mov(Operand::ImmF(1.0), VType::scalar(Scalar::F32));
        kb.if_then(half.into(), |kb| {
            kb.for_loop(
                Operand::ImmI(0),
                Operand::ImmI(5000),
                Operand::ImmI(1),
                |kb, _| {
                    kb.mad_into(acc, acc.into(), Operand::ImmF(0.9999), Operand::ImmF(1e-6));
                },
            );
        });
        kb.store(out, gid.into(), acc.into());
        let p = kb.finish();
        let dev = CortexA15::default();
        let mut pool = MemoryPool::new();
        let o = pool.add(BufferData::zeroed(Scalar::F32, 256));
        let b = [ArgBinding::Global(o)];
        let r1 = dev.run(&p, &b, &mut pool, NDRange::d1(256, 16), 1).unwrap();
        let r2 = dev.run(&p, &b, &mut pool, NDRange::d1(256, 16), 2).unwrap();
        let speedup = r1.time_s / r2.time_s;
        assert!(
            speedup < 1.25,
            "all-heavy-on-one-core should not speed up (got {speedup:.2})"
        );
    }

    #[test]
    fn f64_slower_than_f32() {
        let mk = |elem: Scalar| {
            let mut kb = KernelBuilder::new("fp");
            let a = kb.arg_global(elem, Access::ReadOnly, true);
            let out = kb.arg_global(elem, Access::WriteOnly, true);
            let gid = kb.query_global_id(0);
            let v = kb.load(elem, a, gid.into());
            let acc = kb.mov(v.into(), VType::scalar(elem));
            kb.for_loop(
                Operand::ImmI(0),
                Operand::ImmI(500),
                Operand::ImmI(1),
                |kb, _| {
                    kb.mad_into(
                        acc,
                        acc.into(),
                        Operand::ImmF(1.000001),
                        Operand::ImmF(1e-9),
                    );
                },
            );
            kb.store(out, gid.into(), acc.into());
            kb.finish()
        };
        let dev = CortexA15::default();
        let run = |elem: Scalar| {
            let mut pool = MemoryPool::new();
            let (a, o) = match elem {
                Scalar::F32 => (
                    pool.add(BufferData::from(vec![1.0f32; 64])),
                    pool.add(BufferData::zeroed(Scalar::F32, 64)),
                ),
                _ => (
                    pool.add(BufferData::from(vec![1.0f64; 64])),
                    pool.add(BufferData::zeroed(Scalar::F64, 64)),
                ),
            };
            let b = [ArgBinding::Global(a), ArgBinding::Global(o)];
            dev.run(&mk(elem), &b, &mut pool, NDRange::d1(64, 16), 1)
                .unwrap()
                .time_s
        };
        let t32 = run(Scalar::F32);
        let t64 = run(Scalar::F64);
        assert!(
            t64 > t32,
            "f64 ({t64:.3e}) should be slower than f32 ({t32:.3e})"
        );
    }

    #[test]
    fn gather_misses_cost_latency() {
        // Random gather over a large buffer vs contiguous reads of the same
        // volume: gather must be slower.
        let n: usize = 1 << 18;
        let mut kb = KernelBuilder::new("gather");
        let idx_buf = kb.arg_global(Scalar::U32, Access::ReadOnly, true);
        let x = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let out = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
        let gid = kb.query_global_id(0);
        let i = kb.load(Scalar::U32, idx_buf, gid.into());
        // gather via a width-1 indirect load: still classified Scalar
        // pattern, so build a width-2 index vector to force Gather.
        let iv = kb.mov(Operand::ImmI(0), VType::new(Scalar::U32, 2));
        kb.insert_into(iv, i.into(), 0);
        kb.insert_into(iv, i.into(), 1);
        let v = kb.load(Scalar::F32, x, iv.into());
        let s = kb.horiz(HorizOp::Add, v);
        kb.store(out, gid.into(), s.into());
        let p = kb.finish();
        p.validate().unwrap();

        let dev = CortexA15::default();
        let run = |indices: Vec<u32>| {
            let mut pool = MemoryPool::new();
            let ib = pool.add(BufferData::from(indices));
            let xb = pool.add(BufferData::zeroed(Scalar::F32, n));
            let ob = pool.add(BufferData::zeroed(Scalar::F32, n / 16));
            let b = [
                ArgBinding::Global(ib),
                ArgBinding::Global(xb),
                ArgBinding::Global(ob),
            ];
            dev.run(&p, &b, &mut pool, NDRange::d1(n / 16, 64), 1)
                .unwrap()
                .time_s
        };
        let seq: Vec<u32> = (0..n as u32 / 16).collect();
        let scattered: Vec<u32> = (0..n as u32 / 16)
            .map(|i| (i.wrapping_mul(2654435761)) % (n as u32))
            .collect();
        let t_seq = run(seq);
        let t_rand = run(scattered);
        assert!(
            t_rand > 1.5 * t_seq,
            "scattered gather ({t_rand:.3e}) should be ≫ sequential ({t_seq:.3e})"
        );
    }

    /// `run` is `time` over `profile`, at every core count, for every test
    /// kernel of this module; one profile serves both core counts.
    #[test]
    fn run_equals_time_over_profile() {
        let dev = CortexA15::default();
        let launches: Vec<(Program, Vec<BufferData>, NDRange)> = vec![
            (
                streaming_kernel(),
                vec![
                    BufferData::from(vec![1.0f32; 4096]),
                    BufferData::from(vec![2.0f32; 4096]),
                    BufferData::zeroed(Scalar::F32, 4096),
                ],
                NDRange::d1(4096, 64),
            ),
            (
                compute_heavy(300),
                vec![
                    BufferData::from(vec![1.0f32; 256]),
                    BufferData::zeroed(Scalar::F32, 256),
                ],
                NDRange::d1(256, 16),
            ),
            (
                compute_heavy(7),
                vec![
                    BufferData::from(vec![1.5f32; 250]),
                    BufferData::zeroed(Scalar::F32, 250),
                ],
                NDRange::d1(250, 50),
            ),
        ];
        for (p, bufs, nd) in launches {
            let fresh = || {
                let mut pool = MemoryPool::new();
                let b: Vec<ArgBinding> = bufs
                    .iter()
                    .map(|d| ArgBinding::Global(pool.add(d.clone())))
                    .collect();
                (pool, b)
            };
            let (mut pp, b) = fresh();
            let profile = dev.profile(&p, &b, &mut pp, nd).unwrap();
            for cores in 1..=2 {
                let (mut rp, b) = fresh();
                let r = dev.run(&p, &b, &mut rp, nd, cores).unwrap();
                assert_eq!(r, dev.time(&profile, cores), "{} x{cores}", p.name);
                for i in 0..rp.len() {
                    assert_eq!(rp.get(i), pp.get(i), "{} buffer {i}", p.name);
                }
            }
        }
    }

    /// A profile is the same under any fault plan (so it can be shared
    /// between cells of different seeds); only `time` rolls the throttle.
    #[test]
    fn profile_reads_no_fault_plan() {
        let dev = CortexA15::default();
        let p = streaming_kernel();
        let nd = NDRange::d1(2048, 64);
        let mut rates = sim_faults::FaultRates::zero();
        rates.dvfs_throttle = 1.0;
        let plan = sim_faults::FaultPlan::new(7).with_rates(rates);
        let (mut p0, b) = setup_streaming(2048);
        let plain = dev.profile(&p, &b, &mut p0, nd).unwrap();
        let (mut p1, b) = setup_streaming(2048);
        let planned = sim_faults::with_plan(Some(plan), || dev.profile(&p, &b, &mut p1, nd));
        assert_eq!(planned.unwrap(), plain);
        assert_eq!(dev.time(&plain, 2).dvfs_throttle, None);
        let throttled = sim_faults::with_plan(Some(plan), || dev.time(&plain, 2));
        assert!(throttled.dvfs_throttle.is_some(), "time rolls the throttle");
    }
}
