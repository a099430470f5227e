//! In-process layer timing for the traced run: each simulator layer is
//! called through its public functions and every call is wrapped in a
//! span, so a layer's self time is its span minus the child spans it
//! contains. Nothing inside the program is instrumented.

use harness::{jsonl_row, measure, Cell, CellEntry, SuiteResults};
use hpc_kernels::common::{gpu, prng_uniform};
use hpc_kernels::{amcd, conv2d, dmmm, hist, nbody, red, spmv, stencil3d, vecop};
use hpc_kernels::{Benchmark, Precision, Variant};
use kernel_ir::opt::Pipeline;
use kernel_ir::{
    run_ndrange_with_engine, AccessKind, ArgBinding, BufferData, CountingTracer, Engine, Hints,
    MemSpace, MemoryPool, NDRange, NullTracer, Pattern, Program, RecordingTracer, Scalar,
};
use memsim::Hierarchy;
use perfbench::Report;
use std::collections::BTreeMap;
use std::time::Instant;
use telemetry::TraceBuilder;

/// Spans of the traced run, kept in memory and written once at the end.
pub struct Spans {
    t0: Instant,
    pub trace: TraceBuilder,
    /// Self time per layer, seconds.
    pub self_s: BTreeMap<String, f64>,
}

impl Spans {
    pub fn new() -> Spans {
        let mut trace = TraceBuilder::new();
        trace.process_name(1, "perfbench traced run");
        for (tid, name) in [(0, "cells"), (1, "layers")] {
            trace.thread_name(1, tid, name);
        }
        Spans {
            t0: Instant::now(),
            trace,
            self_s: BTreeMap::new(),
        }
    }

    /// Run `f` inside a span named `name` in category `layer`; returns its
    /// result and duration (s).
    pub fn time<R>(
        &mut self,
        layer: &str,
        name: &str,
        tid: u32,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.t0.elapsed().as_secs_f64();
        let t = Instant::now();
        let r = f();
        let dur = t.elapsed().as_secs_f64();
        self.trace.span(name, layer, 1, tid, start, dur);
        (r, dur)
    }

    pub fn add_self(&mut self, layer: &str, s: f64) {
        *self.self_s.entry(layer.to_string()).or_default() += s;
    }
}

/// One family's naive OpenCL launch, rebuilt from the family's public
/// kernel and input builders.
struct Launch {
    family: &'static str,
    program: Program,
    buffers: Vec<BufferData>,
    /// `None` = global buffer `i` in order; `Some(n)` = local buffer.
    local_args: Vec<Option<usize>>,
    global: [usize; 3],
    local: Option<[usize; 3]>,
}

fn f32s(v: &[f64]) -> BufferData {
    Precision::F32.buffer(v)
}

fn zeros(n: usize) -> BufferData {
    BufferData::zeroed(Scalar::F32, n)
}

/// The test-scale instance of every family, as the serving workloads
/// evaluate it.
fn launches() -> Vec<Launch> {
    let p = Precision::F32;
    let globals = |n: usize| vec![None; n];
    let mut out = Vec::new();

    let s: spmv::Spmv = spmv::Spmv::test_size();
    let m = s.matrix();
    out.push(Launch {
        family: "spmv",
        program: s.kernel(p, Hints::default()),
        buffers: vec![
            BufferData::U32(m.row_ptr.clone()),
            BufferData::U32(m.col.clone()),
            f32s(&m.val),
            f32s(&m.x),
            zeros(s.rows),
        ],
        local_args: globals(5),
        global: [s.rows, 1, 1],
        local: None,
    });
    let v: vecop::Vecop = vecop::Vecop::test_size();
    out.push(Launch {
        family: "vecop",
        program: v.kernel(p),
        buffers: vec![
            f32s(&prng_uniform(1, v.n)),
            f32s(&prng_uniform(2, v.n)),
            zeros(v.n),
        ],
        local_args: globals(3),
        global: [v.n, 1, 1],
        local: None,
    });
    let h: hist::Hist = hist::Hist::test_size();
    out.push(Launch {
        family: "hist",
        program: h.kernel(p),
        buffers: vec![
            BufferData::U32(h.input()),
            BufferData::zeroed(Scalar::U32, h.buckets),
        ],
        local_args: globals(2),
        global: [h.n, 1, 1],
        local: None,
    });
    let st: stencil3d::Stencil3d = stencil3d::Stencil3d::test_size();
    let n = st.dim - 2;
    out.push(Launch {
        family: "3dstc",
        program: st.kernel(p),
        buffers: vec![f32s(&st.input()), zeros(st.dim * st.dim * st.dim)],
        local_args: globals(2),
        global: [n, n, n],
        local: None,
    });
    let r: red::Red = red::Red::test_size();
    out.push(Launch {
        family: "red",
        program: r.stage1(p),
        buffers: vec![f32s(&r.input()), zeros(r.naive_groups), zeros(1)],
        local_args: vec![None, None, Some(r.wg)],
        global: [r.wg * r.naive_groups, 1, 1],
        local: Some([r.wg, 1, 1]),
    });
    let a: amcd::Amcd = amcd::Amcd::test_size();
    out.push(Launch {
        family: "amcd",
        program: a.kernel(p, Hints::default()),
        buffers: vec![f32s(&a.init())],
        local_args: globals(1),
        global: [a.walkers, 1, 1],
        local: None,
    });
    let nb: nbody::Nbody = nbody::Nbody::test_size();
    out.push(Launch {
        family: "nbody",
        program: nb.kernel(p, Hints::default()),
        buffers: vec![f32s(&nb.bodies()), zeros(nb.n * 4)],
        local_args: globals(2),
        global: [nb.n, 1, 1],
        local: None,
    });
    let c: conv2d::Conv2d = conv2d::Conv2d::test_size();
    out.push(Launch {
        family: "2dcon",
        program: c.kernel(p),
        buffers: vec![
            f32s(&c.input()),
            zeros(c.n * c.n),
            f32s(&prng_uniform(3, 25)),
        ],
        local_args: globals(3),
        global: [c.n - 4, c.n - 4, 1],
        local: None,
    });
    let d: dmmm::Dmmm = dmmm::Dmmm::test_size();
    let (x, y) = d.inputs();
    out.push(Launch {
        family: "dmmm",
        program: d.kernel(p),
        buffers: vec![f32s(&x), f32s(&y), zeros(d.n * d.n)],
        local_args: globals(3),
        global: [d.n, d.n, 1],
        local: None,
    });
    out
}

impl Launch {
    /// The program as the OpenCL runtime compiles it, and the launch
    /// geometry (the runtime's choice when the family passes no local size).
    fn compiled(&self) -> (Program, NDRange) {
        let ctx = ocl_runtime::Context::new(gpu());
        let k = ctx
            .build_kernel(self.program.clone())
            .expect("single-precision naive kernels build");
        let local = self
            .local
            .unwrap_or_else(|| ctx.driver_local_size(&k, self.global));
        (k.program, NDRange::d3(self.global, local))
    }

    fn pool(&self) -> (MemoryPool, Vec<ArgBinding>) {
        let mut pool = MemoryPool::new();
        let mut next = self.buffers.iter();
        let bindings = self
            .local_args
            .iter()
            .map(|a| match a {
                Some(n) => ArgBinding::LocalSize(*n),
                None => ArgBinding::Global(
                    pool.add(next.next().expect("one buffer per global arg").clone()),
                ),
            })
            .collect();
        (pool, bindings)
    }
}

/// Replay a recorded access stream into the Mali L2 model; returns
/// (accesses, L2 hits).
fn replay(log: &RecordingTracer<NullTracer>) -> (u64, u64) {
    let mut h = Hierarchy::l2_only(mali_gpu::MaliConfig::default().l2);
    let mut lanes = log.lane_log.iter();
    let mut n = 0u64;
    for a in &log.mem_log {
        let write = a.kind != AccessKind::Read;
        let lane_addrs: Vec<u64> = if a.pattern == Pattern::Gather {
            lanes.by_ref().take(a.width as usize).copied().collect()
        } else {
            vec![a.addr]
        };
        if a.space != MemSpace::Global {
            continue;
        }
        let bytes = if a.pattern == Pattern::Gather {
            a.elem.bytes()
        } else {
            a.bytes
        };
        for addr in lane_addrs {
            h.access(addr, bytes, write, false);
            n += 1;
        }
    }
    (n, h.l2_stats().hits)
}

/// Time every layer on the test-scale grid and add the per-layer metrics
/// to `report`.
pub fn run(spans: &mut Spans, report: &mut Report) {
    sim_pool::set_threads(1);
    let benches: Vec<Box<dyn Benchmark>> = hpc_kernels::test_suite();
    let names: Vec<String> = benches.iter().map(|b| b.name().to_string()).collect();

    // hpc-kernels + powersim over the grid, in `harness jsonl` order.
    let mut results = SuiteResults {
        cells: Default::default(),
        bench_names: names.clone(),
    };
    let model = powersim::PowerModel::default();
    for (bi, b) in benches.iter().enumerate() {
        let mut run_s = 0.0;
        for prec in Precision::ALL {
            for v in Variant::ALL {
                let label = format!("{}/{}/{}", b.name(), v.label(), prec.label());
                let _ = hpc_kernels::take_output_digest();
                let (outcome, dur) = spans.time("hpc-kernels", &label, 0, || b.run(v, prec));
                run_s += dur;
                let bits = if prec == Precision::F32 { 32 } else { 64 };
                let entry = match outcome {
                    Ok(outcome) => {
                        let output_digest = hpc_kernels::take_output_digest();
                        let seed = (bi as u64) << 8 | bits as u64;
                        let ((m, iterations, energy_j), dur) =
                            spans.time("powersim", "runner::measure", 1, || {
                                measure(&outcome, &model, seed)
                            });
                        spans.add_self("powersim", dur);
                        CellEntry::Ok(Cell {
                            counters: outcome.telemetry.counters.clone(),
                            outcome,
                            measurement: m,
                            iterations,
                            energy_j,
                            attempts: 1,
                            output_digest,
                        })
                    }
                    Err(skip) => CellEntry::Skipped(skip),
                };
                results.cells.insert((b.name().to_string(), v, bits), entry);
            }
        }
        report.metric(format!("hpc-kernels.{}.run_s", b.name()), run_s, "s");
    }
    let ((), export_s) = spans.time("harness.export", "jsonl_row x72", 1, || {
        for name in &names {
            for prec in Precision::ALL {
                for v in Variant::ALL {
                    std::hint::black_box(jsonl_row(&results, name, v, prec));
                }
            }
        }
    });

    // Device models, interpreter, memsim and optimizer on each family's
    // naive OpenCL kernel.
    let (mut ops, mut mem_events, mut exec_s) = (0u64, 0u64, 0.0);
    let (mut accesses, mut l2_hits, mut memsim_s) = (0u64, 0u64, 0.0);
    let (mut mali_s, mut cpu_s, mut opt_s, mut opt_ops) = (0.0, 0.0, 0.0, 0u64);
    for l in launches() {
        let (program, nd) = l.compiled();
        let f = l.family;
        let (mut pool, bind) = l.pool();
        let mut count = CountingTracer::default();
        let (r, dur) = spans.time("kernel-ir.exec", &format!("{f} exec"), 1, || {
            run_ndrange_with_engine(&program, &bind, &mut pool, nd, &mut count, Engine::Columnar)
        });
        r.expect("naive kernels execute");
        exec_s += dur;
        ops += count.ops;
        mem_events += count.loads + count.stores + count.atomics;

        let (mut pool, bind) = l.pool();
        let mut rec = RecordingTracer::new(NullTracer);
        run_ndrange_with_engine(&program, &bind, &mut pool, nd, &mut rec, Engine::Columnar)
            .expect("naive kernels execute");
        let ((n, hits), dur) = spans.time("memsim", &format!("{f} l2 replay"), 1, || replay(&rec));
        memsim_s += dur;
        accesses += n;
        l2_hits += hits;

        let (mut pool, bind) = l.pool();
        let (r, dur) = spans.time("mali-gpu", &format!("{f} MaliT604::run"), 1, || {
            gpu().run(&program, &bind, &mut pool, nd)
        });
        r.expect("naive kernels launch on the GPU model");
        mali_s += dur;
        let (mut pool, bind) = l.pool();
        let cpu = cpu_sim::CortexA15::new(cpu_sim::CortexA15Config::default());
        let (r, dur) = spans.time("cpu-sim", &format!("{f} CortexA15::run"), 1, || {
            cpu.run(&program, &bind, &mut pool, nd, 2)
        });
        r.expect("naive kernels launch on the CPU model");
        cpu_s += dur;

        let (optimized, dur) =
            spans.time("kernel-ir.opt", &format!("{f} Pipeline::run"), 1, || {
                Pipeline::full().run(&program)
            });
        opt_s += dur;
        let (mut pool, bind) = l.pool();
        let mut count = CountingTracer::default();
        run_ndrange_with_engine(
            &optimized,
            &bind,
            &mut pool,
            nd,
            &mut count,
            Engine::Columnar,
        )
        .expect("optimized kernels execute");
        opt_ops += count.ops;
    }
    // A GPU-model run contains one interpreter pass and the L2 replay of
    // its access stream; what remains is record/replay and device timing.
    // A CPU-model run contains one interpreter pass too, but it feeds the
    // CPU's own cache hierarchy, which cannot be timed from outside: its
    // self time keeps that cache model.
    let mali_self = mali_s - exec_s - memsim_s;
    let cpu_self = cpu_s - exec_s;
    for (layer, s) in [
        ("kernel-ir.exec", exec_s),
        ("memsim", memsim_s),
        ("mali-gpu", mali_self),
        ("cpu-sim", cpu_self),
        ("kernel-ir.opt", opt_s),
        ("harness.export", export_s),
    ] {
        spans.add_self(layer, s);
    }
    report.metric("kernel-ir.exec.ops", ops as f64, "count");
    report.metric("kernel-ir.exec.mem_events", mem_events as f64, "count");
    report.metric("kernel-ir.exec.self_s", exec_s, "s");
    report.metric(
        "kernel-ir.exec.ns_per_op",
        exec_s * 1e9 / ops.max(1) as f64,
        "ns",
    );
    report.metric("mali-gpu.self_s", mali_self, "s");
    report.metric("cpu-sim.self_s", cpu_self, "s");
    report.metric("memsim.accesses", accesses as f64, "count");
    report.metric(
        "memsim.l2_hit_rate",
        l2_hits as f64 / accesses.max(1) as f64,
        "ratio",
    );
    report.metric("memsim.self_s", memsim_s, "s");
    report.metric(
        "memsim.ns_per_access",
        memsim_s * 1e9 / accesses.max(1) as f64,
        "ns",
    );
    report.metric("kernel-ir.opt.self_s", opt_s, "s");
    report.metric(
        "kernel-ir.opt.ops_saved_pct",
        100.0 * (1.0 - opt_ops as f64 / ops.max(1) as f64),
        "%",
    );
    report.metric("powersim.self_s", spans.self_s["powersim"], "s");
    report.metric("harness.export.self_s", export_s, "s");
}
