//! Shared benchmark infrastructure: precisions, variants, run outcomes,
//! device plumbing and validation helpers.

use cpu_sim::{CortexA15, CortexA15Config};
use kernel_ir::{ArgBinding, BufferData, MemoryPool, NDRange, Program, Scalar};
use mali_gpu::{MaliConfig, MaliT604};
use ocl_runtime::{ClError, CompiledKernel, Context, EventKind, KernelArg, MemFlags};
use powersim::Activity;
use telemetry::{CommandSpan, RunTelemetry};

/// Floating-point precision of a benchmark run (§V runs every benchmark in
/// both).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    F32,
    F64,
}

impl Precision {
    pub fn elem(self) -> Scalar {
        match self {
            Precision::F32 => Scalar::F32,
            Precision::F64 => Scalar::F64,
        }
    }

    /// Relative-error tolerance for validation against the f64 reference.
    pub fn tol(self) -> f64 {
        match self {
            Precision::F32 => 2e-3,
            Precision::F64 => 1e-9,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "single",
            Precision::F64 => "double",
        }
    }

    pub const ALL: [Precision; 2] = [Precision::F32, Precision::F64];

    /// Build a typed buffer from f64 data.
    pub fn buffer(self, data: &[f64]) -> BufferData {
        match self {
            Precision::F32 => BufferData::F32(data.iter().map(|&x| x as f32).collect()),
            Precision::F64 => BufferData::F64(data.to_vec()),
        }
    }
}

/// The four benchmark versions of §IV-B.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Plain scalar code on one Cortex-A15.
    Serial,
    /// Threaded scalar code on two Cortex-A15 cores.
    OpenMp,
    /// Naive OpenCL port on the Mali-T604 (driver-chosen local size).
    OpenCl,
    /// OpenCL + the §III optimization techniques.
    OpenClOpt,
}

impl Variant {
    pub const ALL: [Variant; 4] = [
        Variant::Serial,
        Variant::OpenMp,
        Variant::OpenCl,
        Variant::OpenClOpt,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Variant::Serial => "Serial",
            Variant::OpenMp => "OpenMP",
            Variant::OpenCl => "OpenCL",
            Variant::OpenClOpt => "OpenCL Opt",
        }
    }

    pub fn on_gpu(self) -> bool {
        matches!(self, Variant::OpenCl | Variant::OpenClOpt)
    }
}

/// One measured benchmark run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Parallel-region time, seconds (kernel events only for GPU runs,
    /// matching §IV-D's exclusion of initialization).
    pub time_s: f64,
    /// Activity of the measured region for the power model.
    pub activity: Activity,
    /// Output matched the f64 reference within tolerance.
    pub validated: bool,
    /// Worst relative error observed.
    pub max_rel_err: f64,
    /// Free-form annotation (e.g. fallback decisions, tuned parameters).
    pub note: Option<String>,
    /// Counter snapshot + span timeline of the measured region.
    pub telemetry: RunTelemetry,
}

/// Why a variant could not produce a result (the paper's missing bars).
#[derive(Clone, Debug, PartialEq)]
pub enum RunSkip {
    /// `CL_BUILD_PROGRAM_FAILURE` — the amcd double-precision driver bug.
    CompilerBug(String),
    /// Launch failed and no fallback existed.
    LaunchFailure(String),
}

impl std::fmt::Display for RunSkip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunSkip::CompilerBug(s) => write!(f, "compiler bug: {s}"),
            RunSkip::LaunchFailure(s) => write!(f, "launch failure: {s}"),
        }
    }
}

/// Problem-size scaling so tests run the same code in seconds while the
/// harness uses paper-scale inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeClass {
    /// Small inputs for unit tests.
    Test,
    /// Full evaluation inputs.
    Full,
}

/// One of the nine benchmarks.
pub trait Benchmark: Sync {
    /// The paper's short name (spmv, vecop, …).
    fn name(&self) -> &'static str;

    /// One-line description from §IV-A.
    fn description(&self) -> &'static str;

    /// Execute one variant at one precision.
    fn run(&self, variant: Variant, prec: Precision) -> Result<RunOutcome, RunSkip>;
}

/// Shared device handles; construction is cheap, every run builds fresh
/// state so caches start cold like the paper's per-run measurements.
pub fn cpu() -> CortexA15 {
    CortexA15::new(CortexA15Config::default())
}

pub fn gpu() -> MaliT604 {
    MaliT604::new(MaliConfig::default())
}

/// Run a kernel on 1 or 2 CPU cores, returning (time, activity, pool,
/// telemetry). The launch is profiled through [`crate::memo`], so the
/// Serial and OpenMP cells of one benchmark simulate it once between them.
pub fn run_cpu_kernel(
    program: &Program,
    bindings: &[ArgBinding],
    mut pool: MemoryPool,
    ndrange: NDRange,
    cores: u32,
) -> (f64, Activity, MemoryPool, RunTelemetry) {
    let dev = cpu();
    let profile = crate::memo::profile(&dev, program, bindings, &mut pool, ndrange);
    let report = dev.time(&profile, cores);
    let telemetry = RunTelemetry {
        counters: report.counters.clone(),
        commands: vec![CommandSpan {
            name: program.name.clone(),
            cat: "cpu",
            start_s: 0.0,
            end_s: report.time_s,
        }],
        core_spans: report.spans.clone(),
    };
    (report.time_s, report.activity, pool, telemetry)
}

/// Merge two run telemetries sequentially: the second run's spans are
/// shifted to start where the first ended (multi-phase CPU benchmarks).
pub fn chain_telemetry(first: RunTelemetry, second: &RunTelemetry) -> RunTelemetry {
    let mut out = first;
    let base = out.commands.iter().map(|c| c.end_s).fold(0.0, f64::max);
    out.counters = out.counters.merge(&second.counters);
    out.commands
        .extend(second.commands.iter().map(|c| CommandSpan {
            name: c.name.clone(),
            cat: c.cat,
            start_s: base + c.start_s,
            end_s: base + c.end_s,
        }));
    out.core_spans
        .extend(second.core_spans.iter().map(|s| telemetry::WorkSpan {
            core: s.core,
            group: s.group,
            start_s: base + s.start_s,
            end_s: base + s.end_s,
        }));
    out
}

/// Drain a GPU context's profiled events into run telemetry: queue
/// commands become [`CommandSpan`]s, kernel events contribute their
/// counter snapshots (merged) and per-core work-group spans.
pub fn collect_gpu_telemetry(ctx: &mut Context) -> RunTelemetry {
    let mut tel = RunTelemetry::default();
    let mut have_counters = false;
    for e in ctx.finish() {
        let (name, cat) = match &e.kind {
            EventKind::Kernel { name } => (name.clone(), "kernel"),
            EventKind::WriteBuffer { bytes } => (format!("write {bytes} B"), "write"),
            EventKind::ReadBuffer { bytes } => (format!("read {bytes} B"), "read"),
            EventKind::Map { bytes } => (format!("map {bytes} B"), "map"),
            EventKind::Unmap { bytes } => (format!("unmap {bytes} B"), "unmap"),
        };
        tel.commands.push(CommandSpan {
            name,
            cat,
            start_s: e.start_s,
            end_s: e.end_s,
        });
        if let Some(c) = &e.counters {
            tel.counters = if have_counters {
                tel.counters.merge(c)
            } else {
                c.clone()
            };
            have_counters = true;
        }
        tel.core_spans.extend(e.spans.iter().copied());
    }
    tel
}

/// Build a fresh GPU context with `buffers` pre-loaded via the recommended
/// `ALLOC_HOST_PTR` path (initialization is excluded from measurement, as
/// in §IV-D).
pub fn gpu_context(buffers: Vec<BufferData>) -> (Context, Vec<ocl_runtime::BufId>) {
    let mut ctx = Context::new(gpu());
    let ids = buffers
        .into_iter()
        .map(|b| ctx.create_buffer_init(b, MemFlags::AllocHostPtr))
        .collect();
    (ctx, ids)
}

/// Enqueue a kernel and return its (kernel-event) time and activity.
pub fn launch(
    ctx: &mut Context,
    kernel: &CompiledKernel,
    global: [usize; 3],
    local: Option<[usize; 3]>,
    args: &[KernelArg],
) -> Result<(f64, Activity), ClError> {
    let info = ctx.enqueue_nd_range(kernel, global, local, args)?;
    Ok((info.report.time_s, info.report.activity))
}

/// FNV-1a offset basis; the digest accumulator rests here between cells.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

std::thread_local! {
    static OUTPUT_DIGEST: std::cell::Cell<u64> = const { std::cell::Cell::new(FNV_OFFSET) };
}

fn digest_fold(word: u64) {
    OUTPUT_DIGEST.with(|d| {
        let mut h = d.get();
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
        d.set(h);
    });
}

/// Take the FNV-1a digest of every output element validated on this thread
/// since the last call, resetting the accumulator. The harness runner calls
/// this around each cell attempt; the optimizer's differential oracle compares
/// the value across pass pipelines and execution engines.
pub fn take_output_digest() -> u64 {
    OUTPUT_DIGEST.with(|d| d.replace(FNV_OFFSET))
}

/// Max relative error between a typed output buffer and the f64 reference.
///
/// Also folds the bit pattern of every output element into the thread-local
/// output digest (see [`take_output_digest`]) — every benchmark funnels its
/// result buffers through here, so the digest covers the full suite output
/// without per-kernel plumbing.
pub fn max_rel_err(out: &BufferData, reference: &[f64]) -> f64 {
    assert_eq!(out.len(), reference.len(), "validation length mismatch");
    digest_fold(out.len() as u64);
    let mut worst: f64 = 0.0;
    for (i, &r) in reference.iter().enumerate() {
        let got = out.elem_f64(i);
        digest_fold(got.to_bits());
        let denom = r.abs().max(1e-12);
        worst = worst.max((got - r).abs() / denom);
    }
    worst
}

/// Validation outcome helper.
pub fn validate(out: &BufferData, reference: &[f64], prec: Precision) -> (bool, f64) {
    let err = max_rel_err(out, reference);
    (err <= prec.tol(), err)
}

/// Deterministic pseudo-random f64s in [0,1) (xorshift64*; no external
/// state, reproducible across the suite).
pub fn prng_uniform(seed: u64, n: usize) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let v = s.wrapping_mul(0x2545F4914F6CDD1D);
            (v >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_buffers() {
        let data = [1.5, 2.5];
        assert_eq!(Precision::F32.buffer(&data).elem(), Scalar::F32);
        assert_eq!(Precision::F64.buffer(&data).elem(), Scalar::F64);
        assert_eq!(Precision::F64.buffer(&data).as_f64(), &data);
    }

    #[test]
    fn rel_err_math() {
        let out = BufferData::F32(vec![1.0, 2.0]);
        let err = max_rel_err(&out, &[1.0, 2.002]);
        assert!((err - 0.001).abs() < 1e-4);
        let (ok32, _) = validate(&out, &[1.0, 2.002], Precision::F32);
        assert!(ok32);
        let (ok64, _) = validate(&out, &[1.0, 2.002], Precision::F64);
        assert!(!ok64);
    }

    #[test]
    fn prng_deterministic_and_uniform() {
        let a = prng_uniform(7, 1000);
        let b = prng_uniform(7, 1000);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean: f64 = a.iter().sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        assert_ne!(prng_uniform(8, 10), prng_uniform(7, 10));
    }

    #[test]
    fn output_digest_tracks_validated_bits() {
        let _ = take_output_digest(); // reset whatever earlier tests folded
        let out = BufferData::F32(vec![1.0, 2.0]);
        max_rel_err(&out, &[1.0, 2.0]);
        let d1 = take_output_digest();
        max_rel_err(&out, &[1.0, 2.002]); // different reference, same output bits
        let d2 = take_output_digest();
        assert_eq!(d1, d2, "digest depends only on the output buffer");
        max_rel_err(&BufferData::F32(vec![1.0, 2.5]), &[1.0, 2.5]);
        let d3 = take_output_digest();
        assert_ne!(d1, d3, "different output bits change the digest");
        assert_eq!(take_output_digest(), take_output_digest(), "take resets");
    }

    #[test]
    fn variant_labels() {
        assert_eq!(Variant::OpenClOpt.label(), "OpenCL Opt");
        assert!(Variant::OpenCl.on_gpu());
        assert!(!Variant::OpenMp.on_gpu());
    }
}
