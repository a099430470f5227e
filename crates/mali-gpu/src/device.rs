//! The Mali-T604 device: functional execution plus timing, occupancy and
//! activity modelling.
//!
//! Timing model (per DESIGN.md §4): the hardware job manager hands
//! work-groups to shader cores round-robin; each group costs
//! `max(arith_slots / pipes, ls_cycles) + items·cy_thread +
//! cy_group_dispatch` core cycles; device time is the roofline
//! `max(slowest core, global-atomic serialization, DRAM bandwidth)` plus
//! the kernel-launch overhead. There is **no thread-divergence penalty** —
//! work-items are independently scheduled threads (§III-B) — and **local
//! memory is physically global**, so local accesses run through the same L2
//! model as global ones.

use crate::config::MaliConfig;
use kernel_ir::{
    run_ndrange_sharded, ArgBinding, ExecError, ExecTracer, MemAccess, MemoryPool, NDRange,
    OpClass, Pattern, Program, ShardTracer, VType,
};
use memsim::{AddrMap, Hierarchy, HierarchyStats, StrideClassifier};
use powersim::Activity;
use telemetry::{Counters, WorkSpan};

/// Launch failure modes of the simulated driver stack.
#[derive(Clone, Debug, PartialEq)]
pub enum MaliError {
    /// `CL_OUT_OF_RESOURCES`: the work-group's register demand exceeds the
    /// core's register file (wg_size × per-thread footprint > file size).
    OutOfResources {
        footprint: u32,
        wg_size: u32,
        available: u32,
    },
    /// NDRange / binding problems (maps to CL_INVALID_* at the API layer).
    Exec(ExecError),
}

impl std::fmt::Display for MaliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaliError::OutOfResources {
                footprint,
                wg_size,
                available,
            } => write!(
                f,
                "CL_OUT_OF_RESOURCES: work-group of {wg_size} threads × {footprint} regs \
                 exceeds the {available}-register file"
            ),
            MaliError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MaliError {}

impl From<ExecError> for MaliError {
    fn from(e: ExecError) -> Self {
        MaliError::Exec(e)
    }
}

/// Timing/energy outcome of one GPU launch.
#[derive(Clone, Debug, PartialEq)]
pub struct MaliReport {
    /// Wall-clock time including launch overhead, seconds.
    pub time_s: f64,
    /// Slowest-core compute component (arith/LS/thread/dispatch), seconds.
    pub compute_time_s: f64,
    /// DRAM bandwidth component, seconds.
    pub mem_time_s: f64,
    /// Global-atomic serialization component, seconds.
    pub atomic_time_s: f64,
    /// Exposed memory latency due to limited occupancy, seconds.
    pub exposure_s: f64,
    /// Resident threads per core for this kernel (occupancy).
    pub resident_threads: u32,
    /// Per-thread register footprint (128-bit registers).
    pub footprint: u32,
    /// Activity vector for the power model.
    pub activity: Activity,
    /// L2/DRAM statistics.
    pub hier: HierarchyStats,
    /// Work-groups executed.
    pub groups: usize,
    /// Performance-counter snapshot for this launch.
    pub counters: Counters,
    /// Per-core work-group execution intervals (simulated time, seconds,
    /// relative to the start of the compute phase).
    pub spans: Vec<WorkSpan>,
    /// Host worker threads the simulation's group loop actually ran on
    /// (1 = serial). Simulation-engine metadata, **not** part of the modeled
    /// device state — deliberately excluded from exported counters so suite
    /// outputs stay byte-identical across `SIM_THREADS` settings.
    pub sim_threads: usize,
    /// Why the engine forced serial group execution (e.g. global atomics),
    /// if it did.
    pub sim_serial_reason: Option<&'static str>,
    /// Injected mid-run DVFS throttle factor (> 1 stretches every
    /// time-like quantity), if the ambient fault plan fired one.
    pub dvfs_throttle: Option<f64>,
}

/// Per-run accumulation (the mem-side, group-order-stateful half of the
/// device model: cache hierarchy, stride classifiers, atomic hotspot map).
/// Op-side costs accumulate per group in a [`MaliShard`]; the engine feeds
/// both back through [`ShardTracer::absorb_group`] in ascending group order,
/// so the accounting is bit-identical for any worker-thread count.
struct MaliTracer<'c> {
    cfg: &'c MaliConfig,
    hier: Hierarchy,
    /// (arith_slots, ls_cycles, threads) charged per group.
    groups: Vec<GroupCost>,
    global_atomics: u64,
    /// Per-L2-line global-atomic counts (hotspot serialization model).
    atomic_lines: AddrMap<u64>,
    total_arith_slots: f64,
    total_ls_cycles: f64,
    strides: StrideClassifier,
    counters: Counters,
}

#[derive(Clone, Copy, Default)]
struct GroupCost {
    arith_slots: f64,
    ls_cycles: f64,
    threads: u32,
}

/// Arithmetic-pipe slots for one op of type `ty`.
fn slots_for(c: &MaliConfig, class: OpClass, ty: VType) -> f64 {
    let base = match class {
        OpClass::Simple => c.slots_simple,
        OpClass::Mul => c.slots_mul,
        OpClass::Mad => c.slots_mad,
        OpClass::Div => c.slots_div,
        OpClass::Special | OpClass::Rsqrt => c.slots_special,
        OpClass::Transcendental => c.slots_transcendental,
        OpClass::Move => c.slots_move,
        OpClass::Horizontal => c.slots_horiz,
    };
    let bits = ty.elem.bytes() as f64 * 8.0 * ty.width as f64;
    let units = (bits / 128.0).ceil().max(1.0);
    let special = matches!(
        class,
        OpClass::Special | OpClass::Rsqrt | OpClass::Transcendental | OpClass::Div
    );
    if ty.width == 1 && !special {
        // VLIW packing of independent scalar ops (long-latency special
        // ops monopolize the pipe and do not co-issue; f64 scalars
        // pack far worse in the 128-bit datapath).
        let coissue = if ty.elem == kernel_ir::Scalar::F64 {
            c.scalar_coissue_f64
        } else {
            c.scalar_coissue
        };
        base / coissue
    } else {
        base * units
    }
}

/// One work-group's op-side accumulator, filled on whichever pool worker
/// executes the group. Holds only per-group state (arith slots, barrier LS
/// cycles, thread counts, op counters); memory accesses never reach it —
/// the engine records and replays those through [`MaliTracer`].
struct MaliShard<'c> {
    cfg: &'c MaliConfig,
    cur: GroupCost,
    counters: Counters,
}

impl ExecTracer for MaliShard<'_> {
    fn op(&mut self, class: OpClass, ty: VType) {
        self.counters.note_op(class, ty);
        self.cur.arith_slots += slots_for(self.cfg, class, ty);
    }

    fn loop_iter(&mut self) {
        self.counters.note_loop_iter();
        self.cur.arith_slots += self.cfg.slots_loop / self.cfg.scalar_coissue;
    }

    fn thread_start(&mut self) {
        self.counters.note_thread_start();
        self.cur.threads += 1;
    }

    fn group_start(&mut self) {
        self.counters.note_group_start();
    }

    fn barrier(&mut self, items: u32) {
        self.counters.note_barrier(items);
        // A barrier drains the core's pipelines: charge one thread-switch
        // per item.
        self.cur.ls_cycles += items as f64 * 1.0;
    }
}

impl<'c> MaliTracer<'c> {
    fn new(cfg: &'c MaliConfig) -> Self {
        MaliTracer {
            cfg,
            hier: Hierarchy::l2_only(cfg.l2),
            groups: Vec::new(),
            global_atomics: 0,
            atomic_lines: AddrMap::default(),
            total_arith_slots: 0.0,
            total_ls_cycles: 0.0,
            strides: StrideClassifier::default(),
            counters: Counters::default(),
        }
    }

    /// Replay one recorded memory access through the stateful hierarchy /
    /// stride / atomic models, charging LS cycles to the group being
    /// absorbed.
    fn replay_mem(&mut self, a: &MemAccess, lanes: &[u64], cur: &mut GroupCost) {
        self.counters.note_mem(a);
        let c = self.cfg;
        let write = !matches!(a.kind, kernel_ir::AccessKind::Read);
        match a.kind {
            kernel_ir::AccessKind::Atomic => {
                // Atomics execute in the L2's atomic unit. Global-space
                // atomics serialize device-wide; local-space atomics (one
                // line per work-group) stay core-parallel on the LS pipe.
                let _ = self.hier.access(a.addr, a.bytes, true, false);
                match a.space {
                    kernel_ir::MemSpace::Global => {
                        self.global_atomics += 1;
                        *self.atomic_lines.entry(a.addr / 64).or_insert(0) += 1;
                    }
                    kernel_ir::MemSpace::Local => cur.ls_cycles += c.atomic_local_cy,
                }
                cur.ls_cycles += c.ls_issue + c.atomic_local_cy;
            }
            _ => match a.pattern {
                Pattern::Scalar | Pattern::Contiguous => {
                    let streaming = a.pattern == Pattern::Contiguous
                        || self.strides.classify_stream(a.stream, a.addr);
                    let out = self.hier.access(a.addr, a.bytes, write, streaming);
                    let beats = (a.bytes as f64 / 16.0).ceil().max(1.0);
                    cur.ls_cycles += c.ls_issue * beats + out.l2_hits as f64 * c.cy_l2_hit;
                    // Scattered *global* accesses expose L2 latency; local
                    // memory (one hot line per group) stays pipelined.
                    if !streaming && a.space == kernel_ir::MemSpace::Global {
                        cur.ls_cycles += c.cy_ls_scatter;
                    }
                }
                Pattern::Gather => {
                    debug_assert_eq!(lanes.len(), a.width as usize);
                    let lane_bytes = a.elem.bytes();
                    cur.ls_cycles += c.ls_issue + c.ls_gather_lane * (a.width as f64 - 1.0);
                    let scatter = if a.space == kernel_ir::MemSpace::Global {
                        c.cy_ls_scatter
                    } else {
                        0.0
                    };
                    for &addr in lanes {
                        let out = self.hier.access(addr, lane_bytes, write, false);
                        cur.ls_cycles += out.l2_hits as f64 * c.cy_l2_hit + scatter;
                    }
                }
            },
        }
    }
}

impl<'c> ShardTracer for MaliTracer<'c> {
    type Shard = MaliShard<'c>;

    fn make_shard(&self) -> MaliShard<'c> {
        MaliShard {
            cfg: self.cfg,
            cur: GroupCost::default(),
            counters: Counters::default(),
        }
    }

    fn absorb_group(&mut self, shard: MaliShard<'c>, mem: &[MemAccess], lanes: &[u64]) {
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
        self.total_arith_slots += cur.arith_slots;
        self.total_ls_cycles += cur.ls_cycles;
        self.groups.push(cur);
    }
}

/// The device.
#[derive(Clone, Debug, Default)]
pub struct MaliT604 {
    pub cfg: MaliConfig,
}

impl MaliT604 {
    pub fn new(cfg: MaliConfig) -> Self {
        MaliT604 { cfg }
    }

    /// Resource check performed at enqueue time (the simulated driver's
    /// `CL_OUT_OF_RESOURCES` path).
    pub fn check_resources(&self, program: &Program, ndrange: NDRange) -> Result<(), MaliError> {
        let footprint = program.register_footprint();
        let wg = ndrange.group_size() as u32;
        if !self.cfg.wg_fits(footprint, wg) {
            return Err(MaliError::OutOfResources {
                footprint,
                wg_size: wg,
                available: self.cfg.registers_per_core,
            });
        }
        Ok(())
    }

    /// Execute a kernel over an NDRange. Mutates buffers in `pool`.
    /// [`simulate`](Self::simulate), then [`throttle`](Self::throttle).
    pub fn run(
        &self,
        program: &Program,
        bindings: &[ArgBinding],
        pool: &mut MemoryPool,
        ndrange: NDRange,
    ) -> Result<MaliReport, MaliError> {
        let mut report = self.simulate(program, bindings, pool, ndrange)?;
        Self::throttle(&mut report, &program.name);
        Ok(report)
    }

    /// The pure simulation of a launch: resource check, functional
    /// execution, timing, occupancy and activity. Reads no fault plan, so
    /// its report is a function of the launch alone.
    pub fn simulate(
        &self,
        program: &Program,
        bindings: &[ArgBinding],
        pool: &mut MemoryPool,
        ndrange: NDRange,
    ) -> Result<MaliReport, MaliError> {
        self.check_resources(program, ndrange)?;
        let mut tracer = MaliTracer::new(&self.cfg);
        let stats = run_ndrange_sharded(
            program,
            bindings,
            pool,
            ndrange,
            &mut tracer,
            sim_pool::threads(),
        )?;
        let groups = tracer.groups;
        debug_assert_eq!(groups.len(), ndrange.total_groups().max(1));
        let cfg = &self.cfg;

        // Job manager: round-robin groups over shader cores. Record each
        // group's interval on its core as a telemetry span.
        let cores = cfg.shader_cores as usize;
        let mut core_cycles = vec![0.0f64; cores];
        let mut spans = Vec::with_capacity(groups.len());
        for (i, g) in groups.iter().enumerate() {
            let arith = g.arith_slots / cfg.arith_pipes as f64;
            let group_cycles =
                arith.max(g.ls_cycles) + g.threads as f64 * cfg.cy_thread + cfg.cy_group_dispatch;
            let core = i % cores;
            let start = core_cycles[core];
            core_cycles[core] = start + group_cycles;
            spans.push(WorkSpan {
                core: core as u32,
                group: i as u32,
                start_s: start / cfg.freq_hz,
                end_s: core_cycles[core] / cfg.freq_hz,
            });
        }
        let compute_time = core_cycles.iter().cloned().fold(0.0, f64::max) / cfg.freq_hz;

        // Occupancy-dependent latency exposure for scattered traffic.
        let footprint = program.register_footprint();
        let resident = cfg.resident_threads(footprint).min(cfg.max_wg_size);
        let hiding = (resident as f64 / cfg.full_hiding_threads as f64).clamp(0.2, 1.0);
        let traffic = tracer.hier.stats.traffic;
        let exposure_s = traffic.scatter_lines as f64 * cfg.dram.latency * cfg.scatter_exposure
            / hiding
            / cores as f64;

        // DRAM roofline: controller-side efficiency vs the GPU LS path cap.
        let dram_side = traffic.bandwidth_time(&cfg.dram);
        let gpu_side = traffic.total_bytes(&cfg.dram) as f64 / cfg.gpu_stream_bw;
        let mem_time = dram_side.max(gpu_side);

        // Hotspot serialization: atomics to the same L2 line serialize in
        // the atomic unit; independent lines pipeline across banks.
        let hottest_line = tracer.atomic_lines.values().copied().max().unwrap_or(0);
        let atomic_time = hottest_line as f64 * cfg.atomic_global_serial_cy / cfg.freq_hz;

        let busy_time = (compute_time + exposure_s).max(mem_time).max(atomic_time);
        let time_s = busy_time + cfg.launch_overhead_s;

        let hier = tracer.hier.stats;
        let mut counters = tracer.counters;
        counters.absorb_hier(&hier);
        counters.resident_threads = resident;
        counters.max_resident_threads = cfg.max_wg_size;
        counters.registers_per_thread = footprint;
        let activity = Activity {
            duration_s: time_s,
            cpu_busy_s: [0.0, 0.0],
            gpu_active_s: time_s,
            gpu_arith_util_s: tracer.total_arith_slots / (cfg.total_pipes() as f64 * cfg.freq_hz),
            gpu_ls_util_s: (tracer.total_ls_cycles / cfg.shader_cores as f64
                + hottest_line as f64 * cfg.atomic_global_serial_cy)
                / cfg.freq_hz,
            dram_bytes: hier.traffic.total_lines() * cfg.dram.line_bytes as u64,
        };

        Ok(MaliReport {
            time_s,
            compute_time_s: compute_time,
            mem_time_s: mem_time,
            atomic_time_s: atomic_time,
            exposure_s,
            resident_threads: resident,
            footprint,
            activity,
            hier,
            groups: groups.len(),
            counters,
            spans,
            sim_threads: stats.threads,
            sim_serial_reason: stats.serial_reason,
            dvfs_throttle: None,
        })
    }

    /// Fault injection: under the ambient plan, a mid-run governor
    /// throttle may drop the GPU clock, stretching every time-like quantity
    /// of `report` by one uniform factor. Keyed on the kernel name and
    /// group count so the decision is a pure function of the launch,
    /// independent of scheduling. Counters and DRAM traffic are unaffected
    /// — only the clock changed, not the work.
    pub fn throttle(report: &mut MaliReport, program_name: &str) {
        let Some(plan) = sim_faults::current() else {
            return;
        };
        let seq = sim_faults::hash_key(program_name) ^ report.groups as u64;
        if !plan.roll(sim_faults::FaultSite::DvfsThrottle, seq) {
            return;
        }
        let k = plan.uniform(sim_faults::FaultSite::DvfsThrottle, seq, 1.1, 1.4);
        sim_faults::note(sim_faults::FaultSite::DvfsThrottle);
        report.dvfs_throttle = Some(k);
        report.time_s *= k;
        report.compute_time_s *= k;
        report.mem_time_s *= k;
        report.atomic_time_s *= k;
        report.exposure_s *= k;
        report.activity.duration_s *= k;
        report.activity.gpu_active_s *= k;
        report.activity.gpu_arith_util_s *= k;
        report.activity.gpu_ls_util_s *= k;
        for s in &mut report.spans {
            s.start_s *= k;
            s.end_s *= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_ir::prelude::*;
    use kernel_ir::{Access, BufferData, Scalar};

    fn vecadd_scalar() -> Program {
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

    fn vecadd_vec4() -> Program {
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
        kb.finish()
    }

    fn setup(n: usize) -> (MemoryPool, Vec<ArgBinding>) {
        let mut pool = MemoryPool::new();
        let a = pool.add(BufferData::from(
            (0..n).map(|i| i as f32).collect::<Vec<_>>(),
        ));
        let b = pool.add(BufferData::from(vec![1.0f32; n]));
        let c = pool.add(BufferData::zeroed(Scalar::F32, n));
        (
            pool,
            vec![
                ArgBinding::Global(a),
                ArgBinding::Global(b),
                ArgBinding::Global(c),
            ],
        )
    }

    #[test]
    fn computes_correctly() {
        let dev = MaliT604::default();
        let p = vecadd_scalar();
        let (mut pool, b) = setup(1024);
        dev.run(&p, &b, &mut pool, NDRange::d1(1024, 128)).unwrap();
        assert_eq!(pool.get(2).as_f32()[17], 18.0);
    }

    #[test]
    fn vectorization_speeds_up_streaming_kernel() {
        // The §III-B vectorization guideline: same work, fewer threads,
        // wide loads → must be faster in the model.
        let dev = MaliT604::default();
        let n = 1 << 18;
        let (mut p1, b1) = setup(n);
        let r_scalar = dev
            .run(&vecadd_scalar(), &b1, &mut p1, NDRange::d1(n, 128))
            .unwrap();
        let (mut p2, b2) = setup(n);
        let r_vec = dev
            .run(&vecadd_vec4(), &b2, &mut p2, NDRange::d1(n / 4, 128))
            .unwrap();
        // Same results.
        assert_eq!(p1.get(2).as_f32()[n - 1], p2.get(2).as_f32()[n - 1]);
        let speedup = r_scalar.time_s / r_vec.time_s;
        assert!(
            speedup > 1.5,
            "float4 vecadd should beat scalar by >1.5x (got {speedup:.2})"
        );
    }

    #[test]
    fn no_divergence_penalty() {
        // Two kernels with identical per-item work, one routed through an
        // `if` on the thread id parity, one straight-line with select. On
        // warp architectures the branchy one pays ~2x; on Mali (per-thread
        // scheduling) both cost about the same.
        let mk = |branchy: bool| {
            let mut kb = KernelBuilder::new("div");
            let a = kb.arg_global(Scalar::F32, Access::ReadWrite, true);
            let gid = kb.query_global_id(0);
            let par = kb.bin(
                BinOp::And,
                gid.into(),
                Operand::ImmI(1),
                VType::scalar(Scalar::U32),
            );
            let is_odd = kb.bin(
                BinOp::Eq,
                par.into(),
                Operand::ImmI(1),
                VType::scalar(Scalar::U32),
            );
            let v = kb.load(Scalar::F32, a, gid.into());
            let dst = kb.mov(Operand::ImmF(0.0), VType::scalar(Scalar::F32));
            if branchy {
                kb.if_then_else(
                    is_odd.into(),
                    |kb| {
                        let t = kb.mad(
                            v.into(),
                            Operand::ImmF(2.0),
                            Operand::ImmF(1.0),
                            VType::scalar(Scalar::F32),
                        );
                        kb.mov_into(dst, t.into());
                    },
                    |kb| {
                        let t = kb.mad(
                            v.into(),
                            Operand::ImmF(3.0),
                            Operand::ImmF(-1.0),
                            VType::scalar(Scalar::F32),
                        );
                        kb.mov_into(dst, t.into());
                    },
                );
            } else {
                let t1 = kb.mad(
                    v.into(),
                    Operand::ImmF(2.0),
                    Operand::ImmF(1.0),
                    VType::scalar(Scalar::F32),
                );
                kb.mov_into(dst, t1.into());
            }
            kb.store(a, gid.into(), dst.into());
            kb.finish()
        };
        let dev = MaliT604::default();
        let n = 1 << 14;
        let run = |p: &Program| {
            let mut pool = MemoryPool::new();
            let a = pool.add(BufferData::from(vec![1.0f32; n]));
            dev.run(p, &[ArgBinding::Global(a)], &mut pool, NDRange::d1(n, 128))
                .unwrap()
                .time_s
        };
        let t_branchy = run(&mk(true));
        let t_straight = run(&mk(false));
        let ratio = t_branchy / t_straight;
        assert!(
            (0.8..1.35).contains(&ratio),
            "divergent branches must not double cost on Mali (ratio {ratio:.2})"
        );
    }

    #[test]
    fn out_of_resources_on_fat_kernel() {
        let mut kb = KernelBuilder::new("fat");
        let a = kb.arg_global(Scalar::F64, Access::ReadWrite, true);
        // 20 simultaneously-live double16 values = 20 x 8 = 160 hw
        // regs/thread: all defined up front, all consumed at the end.
        let mut regs = Vec::new();
        for i in 0..20 {
            regs.push(kb.mov(Operand::ImmF(i as f64), VType::new(Scalar::F64, 16)));
        }
        let acc = kb.mov(Operand::ImmF(0.0), VType::new(Scalar::F64, 16));
        for r in &regs {
            kb.bin_into(acc, BinOp::Add, acc.into(), (*r).into());
        }
        let s = kb.horiz(HorizOp::Add, acc);
        let gid = kb.query_global_id(0);
        kb.store(a, gid.into(), s.into());
        let p = kb.finish();
        let dev = MaliT604::default();
        let mut pool = MemoryPool::new();
        let ab = pool.add(BufferData::zeroed(Scalar::F64, 256));
        let err = dev
            .run(
                &p,
                &[ArgBinding::Global(ab)],
                &mut pool,
                NDRange::d1(256, 64),
            )
            .unwrap_err();
        assert!(matches!(err, MaliError::OutOfResources { .. }), "{err}");
        let _ = regs;
        // A smaller work-group fits.
        let ok = dev.run(
            &p,
            &[ArgBinding::Global(ab)],
            &mut pool,
            NDRange::d1(256, 8),
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn global_atomics_serialize() {
        let mk = |local: bool| {
            let mut kb = KernelBuilder::new("atom");
            let out = kb.arg_global(Scalar::U32, Access::ReadWrite, false);
            let scratch = kb.arg_local(Scalar::U32);
            let lid = kb.query_local_id(0);
            if local {
                kb.atomic(AtomicOp::Inc, scratch, lid.into(), Operand::ImmI(0));
            } else {
                kb.atomic(AtomicOp::Inc, out, Operand::ImmI(0), Operand::ImmI(0));
            }
            kb.finish()
        };
        let dev = MaliT604::default();
        let n = 1 << 16;
        let run = |p: &Program| {
            let mut pool = MemoryPool::new();
            let o = pool.add(BufferData::zeroed(Scalar::U32, 256));
            let b = [ArgBinding::Global(o), ArgBinding::LocalSize(256)];
            dev.run(p, &b, &mut pool, NDRange::d1(n, 128)).unwrap()
        };
        let r_global = run(&mk(false));
        let r_local = run(&mk(true));
        assert!(r_global.atomic_time_s > 0.0);
        assert!(
            r_global.time_s > 1.3 * r_local.time_s,
            "global atomic storm ({:.3e}) should be slower than local ({:.3e})",
            r_global.time_s,
            r_local.time_s
        );
    }

    #[test]
    fn local_memory_costs_like_global() {
        // §III-B "Memory Spaces": local memory is physically global on
        // Mali, so staging data into local memory buys nothing.
        let direct = {
            let mut kb = KernelBuilder::new("direct");
            let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
            let out = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
            let gid = kb.query_global_id(0);
            let acc = kb.mov(Operand::ImmF(0.0), VType::scalar(Scalar::F32));
            kb.for_loop(
                Operand::ImmI(0),
                Operand::ImmI(16),
                Operand::ImmI(1),
                |kb, i| {
                    let v = kb.load(Scalar::F32, a, i.into());
                    kb.bin_into(acc, BinOp::Add, acc.into(), v.into());
                },
            );
            kb.store(out, gid.into(), acc.into());
            kb.finish()
        };
        let staged = {
            let mut kb = KernelBuilder::new("staged");
            let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
            let out = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
            let tile = kb.arg_local(Scalar::F32);
            let lid = kb.query_local_id(0);
            let in_range = kb.bin(
                BinOp::Lt,
                lid.into(),
                Operand::ImmI(16),
                VType::scalar(Scalar::U32),
            );
            kb.if_then(in_range.into(), |kb| {
                let v = kb.load(Scalar::F32, a, lid.into());
                kb.store(tile, lid.into(), v.into());
            });
            kb.barrier();
            let gid = kb.query_global_id(0);
            let acc = kb.mov(Operand::ImmF(0.0), VType::scalar(Scalar::F32));
            kb.for_loop(
                Operand::ImmI(0),
                Operand::ImmI(16),
                Operand::ImmI(1),
                |kb, i| {
                    let v = kb.load(Scalar::F32, tile, i.into());
                    kb.bin_into(acc, BinOp::Add, acc.into(), v.into());
                },
            );
            kb.store(out, gid.into(), acc.into());
            kb.finish()
        };
        let dev = MaliT604::default();
        let n = 1 << 14;
        let run = |p: &Program, has_local: bool| {
            let mut pool = MemoryPool::new();
            let a = pool.add(BufferData::from(vec![1.0f32; n]));
            let o = pool.add(BufferData::zeroed(Scalar::F32, n));
            let mut b = vec![ArgBinding::Global(a), ArgBinding::Global(o)];
            if has_local {
                b.push(ArgBinding::LocalSize(16));
            }
            dev.run(p, &b, &mut pool, NDRange::d1(n, 64))
                .unwrap()
                .time_s
        };
        let t_direct = run(&direct, false);
        let t_staged = run(&staged, true);
        assert!(
            t_staged >= t_direct * 0.95,
            "local staging must not win on Mali (direct {t_direct:.3e}, staged {t_staged:.3e})"
        );
    }

    #[test]
    fn report_fields_consistent() {
        let dev = MaliT604::default();
        let (mut pool, b) = setup(4096);
        let r = dev
            .run(&vecadd_scalar(), &b, &mut pool, NDRange::d1(4096, 128))
            .unwrap();
        assert!(r.time_s >= dev.cfg.launch_overhead_s);
        assert_eq!(r.groups, 32);
        assert!(r.activity.gpu_active_s > 0.0);
        assert!(r.activity.dram_bytes > 0);
        assert!(r.footprint > 0);
        assert!(r.resident_threads > 0);
    }

    #[test]
    fn wider_vectors_raise_footprint_and_lower_occupancy() {
        let mk = |w: u8| {
            let mut kb = KernelBuilder::new("w");
            let a = kb.arg_global(Scalar::F32, Access::ReadWrite, true);
            let gid = kb.query_global_id(0);
            let base = kb.bin(
                BinOp::Mul,
                gid.into(),
                Operand::ImmI(w as i64),
                VType::scalar(Scalar::U32),
            );
            let v = kb.vload(Scalar::F32, w, a, base.into());
            let s = kb.bin(
                BinOp::Add,
                v.into(),
                Operand::ImmF(1.0),
                VType::new(Scalar::F32, w),
            );
            kb.vstore(a, base.into(), s.into());
            kb.finish()
        };
        let dev = MaliT604::default();
        let n = 1 << 12;
        let run = |w: u8| {
            let mut pool = MemoryPool::new();
            let a = pool.add(BufferData::zeroed(Scalar::F32, n));
            dev.run(
                &mk(w),
                &[ArgBinding::Global(a)],
                &mut pool,
                NDRange::d1(n / w as usize, 64),
            )
            .unwrap()
        };
        let r4 = run(4);
        let r16 = run(16);
        assert!(r16.footprint > r4.footprint);
        assert!(r16.resident_threads <= r4.resident_threads);
    }
}
