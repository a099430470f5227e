//! Context + command-queue: buffers, the two host↔device data paths, and
//! kernel enqueue with the driver's (imperfect) automatic local-size choice.
//!
//! The §III-A host-code guidelines exist because of two behaviours this
//! module models explicitly:
//!
//! * **Memory allocation and mapping** — Mali shares one physical memory
//!   with the CPU. Buffers created with `CL_MEM_ALLOC_HOST_PTR` and accessed
//!   with `clEnqueueMapBuffer`/`clEnqueueUnmapMemObject` move **no** data;
//!   `CL_MEM_USE_HOST_PTR` buffers accessed with `clEnqueueWrite/ReadBuffer`
//!   pay a full memcpy each way.
//! * **Load distribution** — passing `local_work_size = NULL` lets the
//!   driver pick; its heuristic (largest 1-D divisor) is sometimes bad,
//!   which is why the paper "strongly suggests to manually tune" it.

use crate::compiler::{build_for, BuildError, CompiledKernel, Profile};
use crate::error::ClError;
use kernel_ir::{ArgBinding, ArgDecl, BufferData, MemoryPool, NDRange, Scalar, Value};
use mali_gpu::{MaliReport, MaliT604};
use powersim::Activity;
use telemetry::{Counters, WorkSpan};

/// Buffer-allocation flags (the relevant subset of `cl_mem_flags`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemFlags {
    /// `CL_MEM_ALLOC_HOST_PTR`: driver-allocated, CPU+GPU visible —
    /// map/unmap is (nearly) free. The paper's recommended path.
    AllocHostPtr,
    /// `CL_MEM_USE_HOST_PTR` over a malloc'd region: the driver cannot map
    /// it into the GPU address space for free; read/write (and even map)
    /// degenerate to copies.
    UseHostPtr,
}

/// Handle to a device buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufId(usize);

/// One argument for a kernel launch.
#[derive(Clone, Debug)]
pub enum KernelArg {
    Buf(BufId),
    Scalar(Value),
    /// `clSetKernelArg(…, size, NULL)` for a `__local` buffer: element count.
    Local(usize),
}

/// What a queue event was.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    WriteBuffer { bytes: u64 },
    ReadBuffer { bytes: u64 },
    Map { bytes: u64 },
    Unmap { bytes: u64 },
    Kernel { name: String },
}

/// One profiled command, like `CL_QUEUE_PROFILING_ENABLE` would give.
#[derive(Clone, Debug)]
pub struct Event {
    pub kind: EventKind,
    pub time_s: f64,
    /// Queue-relative CL_PROFILING_COMMAND_START, seconds. The queue is
    /// in-order, so each command starts when the previous one ends.
    pub start_s: f64,
    /// Queue-relative CL_PROFILING_COMMAND_END.
    pub end_s: f64,
    pub activity: Activity,
    /// Kernel launches carry the device's performance-counter snapshot;
    /// transfer commands carry `None`.
    pub counters: Option<Counters>,
    /// Kernel launches carry per-core work-group spans, queue-relative
    /// (already offset by this event's `start_s` and the launch overhead).
    pub spans: Vec<WorkSpan>,
}

/// Host-side transfer cost constants.
#[derive(Clone, Copy, Debug)]
pub struct HostCosts {
    /// Sustained single-core memcpy bandwidth, bytes/s.
    pub memcpy_bw: f64,
    /// Fixed driver overhead per read/write call, seconds.
    pub rw_call_overhead_s: f64,
    /// Fixed overhead per map/unmap (page-table + cache maintenance setup).
    pub map_overhead_s: f64,
    /// Cache clean/invalidate throughput for mapped ranges, bytes/s.
    pub cache_maint_bw: f64,
}

impl Default for HostCosts {
    fn default() -> Self {
        HostCosts {
            memcpy_bw: 1.3e9,
            rw_call_overhead_s: 15e-6,
            map_overhead_s: 18e-6,
            cache_maint_bw: 12e9,
        }
    }
}

struct BufferSlot {
    pool_idx: usize,
    flags: MemFlags,
}

/// An OpenCL-ish context + in-order command queue over one Mali device.
pub struct Context {
    pub device: MaliT604,
    /// Device profile (§II-B). The T604 is Full Profile; set Embedded to
    /// model the pre-T600 generation of embedded GPUs.
    pub profile: Profile,
    pub host_costs: HostCosts,
    pool: MemoryPool,
    buffers: Vec<BufferSlot>,
    events: Vec<Event>,
    /// In-order queue clock: end timestamp of the last enqueued command.
    queue_clock: f64,
    /// Per-context enqueue counter; sequences the fault-injection rolls so
    /// they are a pure function of this context's call history.
    fault_seq: u64,
}

/// Result handle of a kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchInfo {
    pub report: MaliReport,
    /// Local size actually used (driver-chosen when the caller passed None).
    pub local: [usize; 3],
    /// True when the driver picked the local size.
    pub driver_chose_local: bool,
}

impl Context {
    pub fn new(device: MaliT604) -> Self {
        Context {
            device,
            profile: Profile::Full,
            host_costs: HostCosts::default(),
            pool: MemoryPool::new(),
            buffers: Vec::new(),
            events: Vec::new(),
            queue_clock: 0.0,
            fault_seq: 0,
        }
    }

    // ---- buffers -------------------------------------------------------

    /// `clCreateBuffer`, zero-initialized.
    pub fn create_buffer(&mut self, elem: Scalar, len: usize, flags: MemFlags) -> BufId {
        self.create_buffer_init(BufferData::zeroed(elem, len), flags)
    }

    /// `clCreateBuffer` with initial contents already host-resident (models
    /// CL_MEM_COPY_HOST_PTR-style initialization without charging the queue
    /// — the paper excludes initialization from measurements).
    pub fn create_buffer_init(&mut self, data: BufferData, flags: MemFlags) -> BufId {
        let pool_idx = self.pool.add(data);
        self.buffers.push(BufferSlot { pool_idx, flags });
        BufId(self.buffers.len() - 1)
    }

    fn push_event(&mut self, kind: EventKind, time_s: f64, activity: Activity) {
        self.push_event_full(kind, time_s, activity, None, Vec::new());
    }

    fn push_event_full(
        &mut self,
        kind: EventKind,
        time_s: f64,
        activity: Activity,
        counters: Option<Counters>,
        spans: Vec<WorkSpan>,
    ) {
        let start_s = self.queue_clock;
        self.queue_clock += time_s;
        self.events.push(Event {
            kind,
            time_s,
            start_s,
            end_s: self.queue_clock,
            activity,
            counters,
            spans,
        });
    }

    fn slot(&self, b: BufId) -> Result<&BufferSlot, ClError> {
        self.buffers
            .get(b.0)
            .ok_or_else(|| ClError::InvalidMemObject(format!("buffer {}", b.0)))
    }

    /// Raw read access without queue cost (test/validation helper, not a
    /// host-code path).
    pub fn buffer_data(&self, b: BufId) -> &BufferData {
        self.pool.get(self.buffers[b.0].pool_idx)
    }

    fn bytes_of(&self, b: BufId) -> u64 {
        self.pool.get(self.buffers[b.0].pool_idx).bytes()
    }

    /// `clEnqueueWriteBuffer`: host→device copy (the path §III-A tells you
    /// to avoid on this architecture).
    pub fn enqueue_write_buffer(&mut self, b: BufId, data: BufferData) -> Result<(), ClError> {
        let slot = self.slot(b)?;
        let pool_idx = slot.pool_idx;
        if data.elem() != self.pool.get(pool_idx).elem()
            || data.len() != self.pool.get(pool_idx).len()
        {
            return Err(ClError::InvalidValue("write shape mismatch".into()));
        }
        let bytes = data.bytes();
        *self.pool.get_mut(pool_idx) = data;
        self.push_copy_event(EventKind::WriteBuffer { bytes }, bytes);
        Ok(())
    }

    /// `clEnqueueReadBuffer`: device→host copy.
    pub fn enqueue_read_buffer(&mut self, b: BufId) -> Result<BufferData, ClError> {
        let slot = self.slot(b)?;
        let data = self.pool.get(slot.pool_idx).clone();
        let bytes = data.bytes();
        self.push_copy_event(EventKind::ReadBuffer { bytes }, bytes);
        Ok(data)
    }

    fn push_copy_event(&mut self, kind: EventKind, bytes: u64) {
        let c = self.host_costs;
        let t = c.rw_call_overhead_s + bytes as f64 / c.memcpy_bw;
        self.push_event(
            kind,
            t,
            Activity {
                duration_s: t,
                cpu_busy_s: [t, 0.0],
                // memcpy reads + writes the span.
                dram_bytes: 2 * bytes,
                ..Default::default()
            },
        );
    }

    /// `clEnqueueMapBuffer`: returns mutable host access. Free of copies for
    /// `ALLOC_HOST_PTR` buffers (cache maintenance only); `USE_HOST_PTR`
    /// buffers degenerate to a full copy, as the Mali driver does.
    pub fn enqueue_map_buffer(&mut self, b: BufId) -> Result<&mut BufferData, ClError> {
        let slot = self.slot(b)?;
        let (pool_idx, flags) = (slot.pool_idx, slot.flags);
        let bytes = self.bytes_of(b);
        let c = self.host_costs;
        let (kind, t, dram) = match flags {
            MemFlags::AllocHostPtr => (
                EventKind::Map { bytes },
                c.map_overhead_s + bytes as f64 / c.cache_maint_bw,
                0,
            ),
            MemFlags::UseHostPtr => (
                EventKind::Map { bytes },
                c.rw_call_overhead_s + bytes as f64 / c.memcpy_bw,
                2 * bytes,
            ),
        };
        self.push_event(
            kind,
            t,
            Activity {
                duration_s: t,
                cpu_busy_s: [t, 0.0],
                dram_bytes: dram,
                ..Default::default()
            },
        );
        Ok(self.pool.get_mut(pool_idx))
    }

    /// `clEnqueueUnmapMemObject`.
    pub fn enqueue_unmap(&mut self, b: BufId) -> Result<(), ClError> {
        let slot = self.slot(b)?;
        let flags = slot.flags;
        let bytes = self.bytes_of(b);
        let c = self.host_costs;
        let (t, dram) = match flags {
            MemFlags::AllocHostPtr => (c.map_overhead_s + bytes as f64 / c.cache_maint_bw, 0),
            MemFlags::UseHostPtr => (c.rw_call_overhead_s + bytes as f64 / c.memcpy_bw, 2 * bytes),
        };
        self.push_event(
            EventKind::Unmap { bytes },
            t,
            Activity {
                duration_s: t,
                cpu_busy_s: [t, 0.0],
                dram_bytes: dram,
                ..Default::default()
            },
        );
        Ok(())
    }

    // ---- programs --------------------------------------------------------

    /// `clBuildProgram` + `clCreateKernel` against this device's profile.
    ///
    /// Fault injection: the ambient plan may reject the build outright
    /// (`CL_BUILD_PROGRAM_FAILURE`), keyed on the program name so the
    /// decision is reproducible — and re-rolled per retry scope.
    pub fn build_kernel(&self, program: kernel_ir::Program) -> Result<CompiledKernel, ClError> {
        if let Some(plan) = sim_faults::current() {
            let seq = sim_faults::hash_key(&program.name);
            if plan.roll(sim_faults::FaultSite::BuildFailure, seq) {
                sim_faults::note(sim_faults::FaultSite::BuildFailure);
                return Err(ClError::BuildProgramFailure(format!(
                    "{} simulated compiler front-end crash building '{}'",
                    sim_faults::TAG,
                    program.name
                )));
            }
        }
        build_for(program, self.profile)
            .map_err(|e: BuildError| ClError::BuildProgramFailure(e.to_string()))
    }

    // ---- enqueue -----------------------------------------------------------

    /// The driver's automatic local-size heuristic used when the host
    /// passes `local_work_size = NULL`: the largest power-of-two divisor of
    /// the *first* global dimension, capped by the device limit and the
    /// kernel's register budget. Ignores higher dimensions and locality —
    /// deliberately faithful to "the driver is not always capable of doing
    /// a good selection" (§III-A).
    pub fn driver_local_size(&self, kernel: &CompiledKernel, global: [usize; 3]) -> [usize; 3] {
        let regs_cap = self
            .device
            .cfg
            .resident_threads(kernel.footprint)
            .min(self.device.cfg.max_wg_size)
            .max(1);
        let mut wg = 1usize;
        while wg * 2 <= regs_cap as usize && global[0].is_multiple_of(wg * 2) && wg * 2 <= 256 {
            wg *= 2;
        }
        [wg, 1, 1]
    }

    /// `clEnqueueNDRangeKernel`. `local = None` invokes the driver
    /// heuristic above.
    pub fn enqueue_nd_range(
        &mut self,
        kernel: &CompiledKernel,
        global: [usize; 3],
        local: Option<[usize; 3]>,
        args: &[KernelArg],
    ) -> Result<LaunchInfo, ClError> {
        let driver_chose = local.is_none();
        let local = local.unwrap_or_else(|| self.driver_local_size(kernel, global));
        for d in 0..3 {
            if local[d] == 0 || global[d] == 0 || !global[d].is_multiple_of(local[d]) {
                return Err(ClError::InvalidWorkGroupSize(format!(
                    "global {global:?} not divisible by local {local:?}"
                )));
            }
        }
        let wg: usize = local.iter().product();
        if wg > self.device.cfg.max_wg_size as usize {
            return Err(ClError::InvalidWorkGroupSize(format!(
                "work-group of {wg} exceeds device max {}",
                self.device.cfg.max_wg_size
            )));
        }
        // Bind args.
        if args.len() != kernel.program.args.len() {
            return Err(ClError::InvalidKernelArgs(format!(
                "kernel {} takes {} args, got {}",
                kernel.program.name,
                kernel.program.args.len(),
                args.len()
            )));
        }
        let mut bindings = Vec::with_capacity(args.len());
        for (i, (a, decl)) in args.iter().zip(&kernel.program.args).enumerate() {
            let kind_ok = matches!(
                (a, decl),
                (KernelArg::Buf(_), ArgDecl::GlobalBuf { .. })
                    | (KernelArg::Scalar(_), ArgDecl::Scalar { .. })
                    | (KernelArg::Local(_), ArgDecl::LocalBuf { .. })
            );
            if !kind_ok {
                return Err(ClError::InvalidKernelArgs(format!(
                    "kernel {}: arg {i} kind mismatch (declared {decl:?})",
                    kernel.program.name
                )));
            }
            bindings.push(match a {
                KernelArg::Buf(b) => ArgBinding::Global(self.slot(*b)?.pool_idx),
                KernelArg::Scalar(v) => ArgBinding::Scalar(*v),
                KernelArg::Local(n) => ArgBinding::LocalSize(*n),
            });
        }
        // Fault injection: after the host-side checks pass, the driver may
        // still fail the enqueue. Sequenced by this context's enqueue
        // counter so the decision replays identically for a given context
        // history regardless of threads.
        let fault_seq = self.fault_seq;
        self.fault_seq += 1;
        if let Some(plan) = sim_faults::current() {
            if plan.roll(sim_faults::FaultSite::EnqueueOutOfResources, fault_seq) {
                sim_faults::note(sim_faults::FaultSite::EnqueueOutOfResources);
                return Err(ClError::OutOfResources {
                    footprint: kernel.footprint,
                    wg_size: wg as u32,
                });
            }
            if plan.roll(sim_faults::FaultSite::InvalidKernelArgs, fault_seq) {
                sim_faults::note(sim_faults::FaultSite::InvalidKernelArgs);
                return Err(ClError::InvalidKernelArgs(format!(
                    "{} driver lost an argument binding for kernel {}",
                    sim_faults::TAG,
                    kernel.program.name
                )));
            }
        }
        let ndr = NDRange { global, local };
        // Simulated through the launch memo (an identical earlier launch in
        // this process hands over its report and written buffers); the DVFS
        // throttle is rolled per launch afterwards, as `MaliT604::run` does.
        let device = &self.device;
        let mut report = kernel_ir::memo::launch(
            &device.cfg,
            &kernel.program,
            &bindings,
            &mut self.pool,
            ndr,
            |r: &MaliReport| r.spans.len() * std::mem::size_of::<WorkSpan>(),
            |pool| device.simulate(&kernel.program, &bindings, pool, ndr),
        )
        .map_err(ClError::from)?;
        MaliT604::throttle(&mut report, &kernel.program.name);
        if let Some(reason) = report.sim_serial_reason {
            telemetry::log::debug(&format!(
                "kernel {}: simulation ran work-groups serially ({reason})",
                kernel.program.name
            ));
        }
        // §III-B directives/type qualifiers: small win on the compute side.
        if kernel.hint_factor < 1.0 && report.compute_time_s >= report.mem_time_s {
            let launch = self.device.cfg.launch_overhead_s;
            let busy = (report.time_s - launch).max(0.0) * kernel.hint_factor;
            report.time_s = busy + launch;
            report.compute_time_s *= kernel.hint_factor;
            report.activity.duration_s = report.time_s;
            report.activity.gpu_active_s = report.time_s;
            for s in &mut report.spans {
                s.start_s *= kernel.hint_factor;
                s.end_s *= kernel.hint_factor;
            }
        }
        // Queue-relative spans: compute starts after the launch overhead.
        let span_base = self.queue_clock + self.device.cfg.launch_overhead_s;
        let spans: Vec<WorkSpan> = report
            .spans
            .iter()
            .map(|s| WorkSpan {
                core: s.core,
                group: s.group,
                start_s: span_base + s.start_s,
                end_s: span_base + s.end_s,
            })
            .collect();
        self.push_event_full(
            EventKind::Kernel {
                name: kernel.program.name.clone(),
            },
            report.time_s,
            report.activity,
            Some(report.counters.clone()),
            spans,
        );
        Ok(LaunchInfo {
            report,
            local,
            driver_chose_local: driver_chose,
        })
    }

    // ---- queue drain ---------------------------------------------------------

    /// `clFinish`: drain and return all profiled events. The queue clock
    /// keeps running across `finish` calls (timestamps stay comparable).
    pub fn finish(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Total time and activity of the events recorded so far, without
    /// draining (kernel events only when `kernels_only`).
    pub fn timeline(&self, kernels_only: bool) -> (f64, Activity) {
        let mut t = 0.0;
        let mut act = Activity::default();
        for e in &self.events {
            if kernels_only && !matches!(e.kind, EventKind::Kernel { .. }) {
                continue;
            }
            t += e.time_s;
            act = act.concat(&e.activity);
        }
        (t, act)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_ir::prelude::*;
    use kernel_ir::Access;

    fn saxpy() -> kernel_ir::Program {
        let mut kb = KernelBuilder::new("saxpy");
        let x = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let y = kb.arg_global(Scalar::F32, Access::ReadWrite, true);
        let a = kb.arg_scalar(Scalar::F32);
        let gid = kb.query_global_id(0);
        let va = kb.load_scalar_arg(a);
        let vx = kb.load(Scalar::F32, x, gid.into());
        let vy = kb.load(Scalar::F32, y, gid.into());
        let r = kb.mad(va.into(), vx.into(), vy.into(), VType::scalar(Scalar::F32));
        kb.store(y, gid.into(), r.into());
        kb.finish()
    }

    #[test]
    fn end_to_end_launch() {
        let mut ctx = Context::new(MaliT604::default());
        let n = 1024;
        let x = ctx.create_buffer_init(vec![1.0f32; n].into(), MemFlags::AllocHostPtr);
        let y = ctx.create_buffer_init(vec![2.0f32; n].into(), MemFlags::AllocHostPtr);
        let k = ctx.build_kernel(saxpy()).unwrap();
        let info = ctx
            .enqueue_nd_range(
                &k,
                [n, 1, 1],
                Some([64, 1, 1]),
                &[
                    KernelArg::Buf(x),
                    KernelArg::Buf(y),
                    KernelArg::Scalar(Value::f32(3.0)),
                ],
            )
            .unwrap();
        assert!(!info.driver_chose_local);
        assert!(ctx.buffer_data(y).as_f32().iter().all(|&v| v == 5.0));
        let events = ctx.finish();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].kind, EventKind::Kernel { .. }));
    }

    #[test]
    fn driver_picks_local_size_when_none() {
        let mut ctx = Context::new(MaliT604::default());
        let n = 768; // divisible by 256
        let x = ctx.create_buffer(Scalar::F32, n, MemFlags::AllocHostPtr);
        let y = ctx.create_buffer(Scalar::F32, n, MemFlags::AllocHostPtr);
        let k = ctx.build_kernel(saxpy()).unwrap();
        let info = ctx
            .enqueue_nd_range(
                &k,
                [n, 1, 1],
                None,
                &[
                    KernelArg::Buf(x),
                    KernelArg::Buf(y),
                    KernelArg::Scalar(Value::f32(1.0)),
                ],
            )
            .unwrap();
        assert!(info.driver_chose_local);
        assert_eq!(info.local[0], 256);
    }

    #[test]
    fn driver_local_respects_register_budget() {
        // A register-fat kernel forces the heuristic below 256.
        let mut kb = KernelBuilder::new("fat");
        let a = kb.arg_global(Scalar::F32, Access::ReadWrite, true);
        // 16 simultaneously-live float16 vectors = 64 hw regs/thread.
        let mut regs = Vec::new();
        for i in 0..16 {
            regs.push(kb.mov(Operand::ImmF(i as f64), VType::new(Scalar::F32, 16)));
        }
        let acc = kb.mov(Operand::ImmF(0.0), VType::new(Scalar::F32, 16));
        for r in &regs {
            kb.bin_into(acc, kernel_ir::BinOp::Add, acc.into(), (*r).into());
        }
        let s = kb.horiz(kernel_ir::HorizOp::Add, acc);
        let gid = kb.query_global_id(0);
        let v = kb.load(Scalar::F32, a, gid.into());
        let sum = kb.bin(
            kernel_ir::BinOp::Add,
            v.into(),
            s.into(),
            VType::scalar(Scalar::F32),
        );
        kb.store(a, gid.into(), sum.into());
        let ctx = Context::new(MaliT604::default());
        let k = ctx.build_kernel(kb.finish()).unwrap();
        let local = ctx.driver_local_size(&k, [4096, 1, 1]);
        assert!(local[0] * k.footprint as usize <= 2048);
        assert!(local[0] < 256);
    }

    #[test]
    fn map_path_cheaper_than_copy_path() {
        let n = 1 << 20;
        // Copy-based flow.
        let mut ctx1 = Context::new(MaliT604::default());
        let b1 = ctx1.create_buffer(Scalar::F32, n, MemFlags::UseHostPtr);
        ctx1.enqueue_write_buffer(b1, vec![1.0f32; n].into())
            .unwrap();
        let _ = ctx1.enqueue_read_buffer(b1).unwrap();
        let (t_copy, a_copy) = ctx1.timeline(false);
        // Map-based flow.
        let mut ctx2 = Context::new(MaliT604::default());
        let b2 = ctx2.create_buffer(Scalar::F32, n, MemFlags::AllocHostPtr);
        {
            let data = ctx2.enqueue_map_buffer(b2).unwrap();
            if let BufferData::F32(v) = data {
                v.fill(1.0);
            }
        }
        ctx2.enqueue_unmap(b2).unwrap();
        let (t_map, a_map) = ctx2.timeline(false);
        assert!(
            t_copy > 3.0 * t_map,
            "copies ({t_copy:.2e}s) should dwarf map/unmap ({t_map:.2e}s)"
        );
        assert!(a_copy.dram_bytes > a_map.dram_bytes);
    }

    #[test]
    fn mapping_use_host_ptr_still_copies() {
        let n = 1 << 20;
        let mut ctx = Context::new(MaliT604::default());
        let alloc = ctx.create_buffer(Scalar::F32, n, MemFlags::AllocHostPtr);
        let useptr = ctx.create_buffer(Scalar::F32, n, MemFlags::UseHostPtr);
        let _ = ctx.enqueue_map_buffer(alloc).unwrap();
        let events_a = ctx.finish();
        let _ = ctx.enqueue_map_buffer(useptr).unwrap();
        let events_u = ctx.finish();
        assert!(events_u[0].time_s > 3.0 * events_a[0].time_s);
    }

    #[test]
    fn bad_local_size_rejected() {
        let mut ctx = Context::new(MaliT604::default());
        let x = ctx.create_buffer(Scalar::F32, 100, MemFlags::AllocHostPtr);
        let y = ctx.create_buffer(Scalar::F32, 100, MemFlags::AllocHostPtr);
        let k = ctx.build_kernel(saxpy()).unwrap();
        let err = ctx
            .enqueue_nd_range(
                &k,
                [100, 1, 1],
                Some([64, 1, 1]),
                &[
                    KernelArg::Buf(x),
                    KernelArg::Buf(y),
                    KernelArg::Scalar(Value::f32(1.0)),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, ClError::InvalidWorkGroupSize(_)));
    }

    #[test]
    fn wrong_arg_count_rejected() {
        let mut ctx = Context::new(MaliT604::default());
        let x = ctx.create_buffer(Scalar::F32, 64, MemFlags::AllocHostPtr);
        let k = ctx.build_kernel(saxpy()).unwrap();
        let err = ctx
            .enqueue_nd_range(&k, [64, 1, 1], Some([64, 1, 1]), &[KernelArg::Buf(x)])
            .unwrap_err();
        assert!(matches!(err, ClError::InvalidKernelArgs(_)));
    }

    #[test]
    fn profiling_timestamps_are_in_order_and_consistent() {
        let mut ctx = Context::new(MaliT604::default());
        let x = ctx.create_buffer(Scalar::F32, 1 << 14, MemFlags::AllocHostPtr);
        let y = ctx.create_buffer(Scalar::F32, 1 << 14, MemFlags::AllocHostPtr);
        let k = ctx.build_kernel(saxpy()).unwrap();
        let _ = ctx.enqueue_map_buffer(x).unwrap();
        ctx.enqueue_unmap(x).unwrap();
        ctx.enqueue_nd_range(
            &k,
            [1 << 14, 1, 1],
            Some([64, 1, 1]),
            &[
                KernelArg::Buf(x),
                KernelArg::Buf(y),
                KernelArg::Scalar(Value::f32(2.0)),
            ],
        )
        .unwrap();
        let events = ctx.finish();
        assert_eq!(events.len(), 3);
        let mut clock = 0.0;
        for e in &events {
            assert_eq!(e.start_s, clock, "in-order queue: start == previous end");
            assert!((e.end_s - e.start_s - e.time_s).abs() < 1e-15);
            clock = e.end_s;
        }
        // The clock survives a finish(): the next command starts where the
        // drained timeline ended.
        ctx.enqueue_unmap(y).unwrap();
        let next = ctx.finish();
        assert_eq!(next[0].start_s, clock);
    }

    #[test]
    fn timeline_kernels_only_filter() {
        let mut ctx = Context::new(MaliT604::default());
        let x = ctx.create_buffer(Scalar::F32, 256, MemFlags::AllocHostPtr);
        let y = ctx.create_buffer(Scalar::F32, 256, MemFlags::AllocHostPtr);
        ctx.enqueue_write_buffer(x, vec![1.0f32; 256].into())
            .unwrap();
        let k = ctx.build_kernel(saxpy()).unwrap();
        ctx.enqueue_nd_range(
            &k,
            [256, 1, 1],
            Some([64, 1, 1]),
            &[
                KernelArg::Buf(x),
                KernelArg::Buf(y),
                KernelArg::Scalar(Value::f32(1.0)),
            ],
        )
        .unwrap();
        let (t_all, _) = ctx.timeline(false);
        let (t_k, _) = ctx.timeline(true);
        assert!(t_all > t_k);
        assert!(t_k > 0.0);
    }
}
