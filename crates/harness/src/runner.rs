//! Suite execution + measurement: runs every benchmark/variant/precision,
//! applies the §IV-D methodology (stretch runs to meter-friendly windows,
//! 20 repetitions on the simulated WT230), and caches the results.
//!
//! Robustness: every cell runs isolated behind `catch_unwind`, transient
//! faults (the deterministic injection of `sim-faults`, or anything that
//! looks like a resource exhaustion) are retried with recorded exponential
//! backoff, and whatever still fails is captured as a structured
//! [`CellError`] row instead of aborting the suite. With a checkpoint path
//! configured, every completed cell is persisted (atomically, as a
//! `simcache v1` file keyed like the server's cache) so an interrupted
//! sweep can `--resume` without redoing finished work.

use crate::artifact::atomic_write;
use crate::checkpoint::{cell_spec, decode_entry, encode_entry};
use hpc_kernels::{Benchmark, Precision, RunOutcome, RunSkip, Variant};
use powersim::{Measurement, PowerModel, Wt230};
use sim_server::cache::Cache;
use sim_server::key::CellSpec;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use telemetry::{log, Counters};

/// One fully-measured cell (benchmark × variant × precision).
#[derive(Clone, Debug)]
pub struct Cell {
    pub outcome: RunOutcome,
    pub measurement: Measurement,
    /// Back-to-back repetitions inside the measured window (§IV-D: "we
    /// adjusted the number of iterations ... long enough to get an accurate
    /// energy consumption figure").
    pub iterations: u32,
    /// Energy of one run of the workload, joules.
    pub energy_j: f64,
    /// Performance-counter snapshot of the measured region (one iteration;
    /// copied out of `outcome.telemetry` so reports can index it directly).
    pub counters: Counters,
    /// How many attempts the cell took (1 = clean first try; > 1 means
    /// transient faults were retried away).
    pub attempts: u32,
    /// FNV-1a digest of every validated output element (bit patterns, not
    /// values). Two runs of the same cell — across thread counts, execution
    /// engines and optimizer pipelines — must agree on this; the autotuner
    /// and the SSA differential oracle compare it to prove pass legality.
    pub output_digest: u64,
}

/// Failure classification for a cell that produced no result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailKind {
    /// Kernel compilation failed and retries were exhausted.
    Build,
    /// Kernel enqueue/launch failed and retries were exhausted.
    Launch,
    /// The run completed but its output missed the validation tolerance.
    Validation,
    /// The pool worker executing the cell died (injected or genuine).
    WorkerPanic,
    /// The benchmark body panicked.
    Panic,
    /// Never ran: an earlier failure tripped `--fail-fast`.
    Aborted,
    /// A routed cell's backend shard was unreachable or answered with an
    /// error (`harness route` degradation; never produced offline).
    ShardDown,
}

impl FailKind {
    pub fn label(self) -> &'static str {
        match self {
            FailKind::Build => "build",
            FailKind::Launch => "launch",
            FailKind::Validation => "validation",
            FailKind::WorkerPanic => "worker-panic",
            FailKind::Panic => "panic",
            FailKind::Aborted => "aborted",
            FailKind::ShardDown => "shard-down",
        }
    }

    pub fn from_label(s: &str) -> Option<FailKind> {
        Some(match s {
            "build" => FailKind::Build,
            "launch" => FailKind::Launch,
            "validation" => FailKind::Validation,
            "worker-panic" => FailKind::WorkerPanic,
            "panic" => FailKind::Panic,
            "aborted" => FailKind::Aborted,
            "shard-down" => FailKind::ShardDown,
            _ => return None,
        })
    }
}

/// A cell that failed after isolation and retries. Exported as a
/// structured row (CSV `status=fail`, JSONL `"status":"fail"`), never as
/// an abort of the whole suite.
#[derive(Clone, Debug, PartialEq)]
pub struct CellError {
    pub kind: FailKind,
    pub message: String,
    /// Attempts consumed (0 for `Aborted` cells that never started).
    pub attempts: u32,
    /// Total recorded retry backoff, milliseconds. Recorded rather than
    /// slept: wall-clock sleeps would make artifacts depend on scheduling.
    pub backoff_ms: u64,
}

/// The tri-state outcome of one suite cell.
// `Ok(Cell)` dwarfs the other variants, but it is also the overwhelmingly
// common one and the suite holds at most 72 entries — boxing would add an
// indirection to every normal-path access to save bytes nobody misses.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum CellEntry {
    /// Ran and measured.
    Ok(Cell),
    /// Deliberately skipped (the paper's missing bars, e.g. the amcd
    /// double-precision compiler bug).
    Skipped(RunSkip),
    /// Failed after isolation + retries.
    Failed(CellError),
}

impl CellEntry {
    pub fn ok(&self) -> Option<&Cell> {
        match self {
            CellEntry::Ok(c) => Some(c),
            _ => None,
        }
    }

    pub fn skip(&self) -> Option<&RunSkip> {
        match self {
            CellEntry::Skipped(s) => Some(s),
            _ => None,
        }
    }

    pub fn failure(&self) -> Option<&CellError> {
        match self {
            CellEntry::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// Cell coordinates: (benchmark name, variant, precision bits). This is
/// the in-process index into a sweep's results; the *content address* of a
/// cell (which also pins scale, fault seed, pass pipeline, device and
/// model version) is [`sim_server::key::CellKey`], built via [`cell_spec`].
pub type CellCoord = (String, Variant, u8);

/// Knobs for [`run_suite_with`].
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Emit per-cell progress lines.
    pub verbose: bool,
    /// Fault plan for chaos runs, the only source of a cell's faults
    /// (worker deaths included). `None` (the default) reproduces the
    /// fault-free pipeline bit for bit, whatever plan the caller's thread
    /// has in scope.
    pub faults: Option<sim_faults::FaultPlan>,
    /// Attempts per cell before a transient fault becomes a [`CellError`].
    pub max_attempts: u32,
    /// Base of the recorded exponential backoff (ms): attempt `k` adds
    /// `base << (k-1)`.
    pub backoff_base_ms: u64,
    /// Stop scheduling new cells after the first failure (failures are
    /// still recorded; pending cells become `Aborted` rows). Off by
    /// default: keep-going is what a long unattended sweep wants.
    pub fail_fast: bool,
    /// Checkpoint file (`simcache v1`): every completed cell is persisted
    /// here (atomic rewrite) so a crashed run can resume.
    pub checkpoint: Option<PathBuf>,
    /// Reuse the cells of `checkpoint` whose key matches instead of
    /// rerunning them; its other cells stay in the file.
    pub resume: bool,
    /// Scale tag ("paper" / "test") in every cell key.
    pub state_tag: String,
    /// Optimizer pipeline applied to every kernel launched by the sweep;
    /// `None` (the default) runs unoptimized. Authoritative: every cell is
    /// scoped to exactly this pipeline, whatever the process-wide
    /// [`kernel_ir::opt::set_passes`] selection, so a cell's passes always
    /// match its content-address key.
    pub passes: Option<kernel_ir::opt::Pipeline>,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            verbose: false,
            faults: None,
            max_attempts: 3,
            backoff_base_ms: 50,
            fail_fast: false,
            checkpoint: None,
            resume: false,
            state_tag: String::new(),
            passes: None,
        }
    }
}

/// Results of a full sweep.
pub struct SuiteResults {
    pub cells: HashMap<CellCoord, CellEntry>,
    pub bench_names: Vec<String>,
}

pub(crate) fn prec_key(p: Precision) -> u8 {
    match p {
        Precision::F32 => 32,
        Precision::F64 => 64,
    }
}

/// Minimum measured-window length (seconds of simulated time).
const MIN_WINDOW_S: f64 = 2.0;

/// Measure one outcome with the meter methodology.
pub fn measure(outcome: &RunOutcome, model: &PowerModel, seed: u64) -> (Measurement, u32, f64) {
    let iterations = (MIN_WINDOW_S / outcome.time_s.max(1e-9))
        .ceil()
        .clamp(1.0, 1e8) as u32;
    let window = outcome.activity.repeat(iterations);
    let mut meter = Wt230::with_defaults(seed);
    let m = meter.measure(model, &window, 20);
    let energy = m.energy_per_iteration(iterations);
    (m, iterations, energy)
}

// Short-lived per-attempt value; see the size note on `CellEntry`.
#[allow(clippy::large_enum_variant)]
enum AttemptOutcome {
    Done(Cell),
    Skip(RunSkip),
    Invalid(f64),
    Panicked(String),
}

/// One isolated, retried cell.
///
/// A cell's bytes come only from `cfg` and its coordinates: the attempt
/// runs under exactly `cfg.passes` and a plan derived from `cfg.faults`,
/// never under whatever the calling thread has in scope.
fn run_cell(
    b: &dyn Benchmark,
    bi: usize,
    v: Variant,
    prec: Precision,
    model: &PowerModel,
    cfg: &SuiteConfig,
) -> CellEntry {
    if let Some(plan) = cfg.faults {
        // Worker deaths roll on the cell's position in the full grid —
        // the task index of the offline sweep — so a served cell dies
        // exactly when the same cell dies offline. The panic escapes to
        // the caller's `try_parallel_map`, which records it as this
        // task's failure.
        let vi = Variant::ALL
            .iter()
            .position(|x| *x == v)
            .expect("ALL lists every variant");
        let pi = Precision::ALL
            .iter()
            .position(|x| *x == prec)
            .expect("and every precision");
        plan.maybe_kill_worker(((bi * Precision::ALL.len() + pi) * Variant::ALL.len() + vi) as u64);
    }
    let scope = format!("{}/{}/{}", b.name(), v.label(), prec.label());
    let mut backoff_ms = 0u64;
    let max_attempts = cfg.max_attempts.max(1);
    for attempt in 1..=max_attempts {
        let body = || {
            // Drain whatever a previous attempt (or unrelated validation on
            // this thread) folded, so the digest covers exactly this attempt.
            let _ = hpc_kernels::take_output_digest();
            match catch_unwind(AssertUnwindSafe(|| b.run(v, prec))) {
                Err(p) => AttemptOutcome::Panicked(sim_pool::panic_message(&p)),
                Ok(Err(skip)) => AttemptOutcome::Skip(skip),
                Ok(Ok(outcome)) => {
                    if !outcome.validated {
                        AttemptOutcome::Invalid(outcome.max_rel_err)
                    } else {
                        let output_digest = hpc_kernels::take_output_digest();
                        let seed = (bi as u64) << 8 | prec_key(prec) as u64;
                        let (m, iters, energy) = measure(&outcome, model, seed);
                        let counters = outcome.telemetry.counters.clone();
                        AttemptOutcome::Done(Cell {
                            outcome,
                            measurement: m,
                            iterations: iters,
                            energy_j: energy,
                            counters,
                            attempts: attempt,
                            output_digest,
                        })
                    }
                }
            }
        };
        // Each attempt gets its own derived plan so a retry re-rolls every
        // fault site (otherwise a deterministic fault would refire forever
        // and "retry" would be a lie).
        let plan = cfg
            .faults
            .map(|p| p.derive(&format!("{scope}/a{}", attempt - 1)));
        let out = sim_faults::with_plan(plan, || {
            kernel_ir::opt::with_passes(cfg.passes.clone(), body)
        });
        match out {
            AttemptOutcome::Done(cell) => return CellEntry::Ok(cell),
            AttemptOutcome::Panicked(message) => {
                // A panic is a bug (or an injected worker death caught one
                // level up), not a transient driver hiccup: no retry.
                return CellEntry::Failed(CellError {
                    kind: FailKind::Panic,
                    message,
                    attempts: attempt,
                    backoff_ms,
                });
            }
            AttemptOutcome::Invalid(err) => {
                // Wrong answers are deterministic in this simulator;
                // retrying would reproduce them.
                return CellEntry::Failed(CellError {
                    kind: FailKind::Validation,
                    message: format!("output validation failed (max rel err {err:.3e})"),
                    attempts: attempt,
                    backoff_ms,
                });
            }
            AttemptOutcome::Skip(skip) => {
                let message = skip.to_string();
                let transient =
                    sim_faults::is_injected(&message) || message.contains("CL_OUT_OF_RESOURCES");
                if !transient {
                    // Genuine, permanent skip (the paper's missing bars).
                    return CellEntry::Skipped(skip);
                }
                if attempt == max_attempts {
                    let kind = match &skip {
                        RunSkip::CompilerBug(_) => FailKind::Build,
                        RunSkip::LaunchFailure(_) => FailKind::Launch,
                    };
                    return CellEntry::Failed(CellError {
                        kind,
                        message,
                        attempts: attempt,
                        backoff_ms,
                    });
                }
                backoff_ms += cfg.backoff_base_ms << (attempt - 1);
                if cfg.verbose {
                    log::progress(&format!(
                        "retry {scope} (attempt {}/{max_attempts}, backoff {backoff_ms} ms): {message}",
                        attempt + 1
                    ));
                }
            }
        }
    }
    unreachable!("the attempt loop always returns")
}

/// Run, retry and measure one isolated cell under the default power
/// model — the serving layer's entry point (offline sweeps go through
/// [`run_suite_with`]). `bench_index` must be the benchmark's index in
/// the *full* suite: the measurement seed and the worker-death roll
/// derive from it, and a served cell must meter (and die) identically to
/// the same cell in an offline sweep.
pub fn run_one(
    b: &dyn Benchmark,
    bench_index: usize,
    v: Variant,
    prec: Precision,
    cfg: &SuiteConfig,
) -> CellEntry {
    run_cell(b, bench_index, v, prec, &PowerModel::default(), cfg)
}

/// Run and measure the whole suite with default (fault-free, keep-going)
/// configuration. Progress goes through the [`telemetry::log`] levels;
/// `verbose = false` keeps a caller (tests, machine-readable subcommands)
/// silent regardless of the global level.
pub fn run_suite(benches: &[Box<dyn Benchmark>], verbose: bool) -> SuiteResults {
    run_suite_with(
        benches,
        &SuiteConfig {
            verbose,
            ..SuiteConfig::default()
        },
    )
}

/// Run and measure the whole suite under an explicit [`SuiteConfig`].
///
/// Cells (benchmark × precision × variant) are independent — each builds
/// fresh pools and device state and meters with a per-cell seed — so they
/// run on the `sim-pool` work-stealing pool. Every per-cell artifact
/// (timing, energy, counters, skip/failure rows) is deterministic in the
/// cell alone — fault rolls included, because the plan is a pure function
/// of (seed, scope, site, sequence) — so results are identical for any
/// `SIM_THREADS`; only the order of progress log lines varies. The one
/// documented exception is `fail_fast`, whose set of `Aborted` cells
/// depends on completion order.
pub fn run_suite_with(benches: &[Box<dyn Benchmark>], cfg: &SuiteConfig) -> SuiteResults {
    let model = PowerModel::default();
    let names: Vec<String> = benches.iter().map(|b| b.name().to_string()).collect();
    let mut jobs = Vec::new();
    for bi in 0..benches.len() {
        for prec in Precision::ALL {
            for v in Variant::ALL {
                jobs.push((bi, prec, v));
            }
        }
    }

    let fault_seed = cfg.faults.map(|p| p.seed());
    let passes = cfg.passes.as_ref().map(|p| p.to_string());
    let spec_of = |bi: usize, v, prec| {
        cell_spec(
            &cfg.state_tag,
            fault_seed,
            passes.as_deref(),
            &names[bi],
            v,
            prec,
        )
    };
    // Finished cells by content address. On resume, every cell of the
    // file is kept — cells of other sweeps are carried over untouched —
    // and each job reuses only the cell under its own key.
    let store = cfg.checkpoint.as_ref().map(|path| {
        let mut cache = Cache::new(usize::MAX);
        if cfg.resume {
            let restored = std::fs::read(path)
                .ok()
                .and_then(|bytes| cache.restore(&bytes, |p| decode_entry(p).is_some()));
            if cfg.verbose {
                log::progress(&match restored {
                    Some(n) => format!("resuming: {n} cells loaded from {}", path.display()),
                    None => format!("no simcache file at {}; starting fresh", path.display()),
                });
            }
        }
        (path, Mutex::new(cache))
    });
    let abort = AtomicBool::new(false);

    let raw = sim_pool::try_parallel_map(jobs.len(), |j| {
        let (bi, prec, v) = jobs[j];
        let spec = spec_of(bi, v, prec);
        if let Some((_, cache)) = &store {
            let cache = cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(e) = cache
                .peek(spec.key())
                .and_then(|c| decode_entry(&c.payload))
            {
                return e;
            }
        }
        if cfg.fail_fast && abort.load(Ordering::Relaxed) {
            return CellEntry::Failed(CellError {
                kind: FailKind::Aborted,
                message: "not run: an earlier cell failed (--fail-fast)".into(),
                attempts: 0,
                backoff_ms: 0,
            });
        }
        if cfg.verbose {
            log::progress(&format!(
                "[{}/{}] {} {} {}",
                bi + 1,
                benches.len(),
                names[bi],
                v.label(),
                prec.label()
            ));
        }
        let entry = run_cell(benches[bi].as_ref(), bi, v, prec, &model, cfg);
        if cfg.fail_fast && matches!(entry, CellEntry::Failed(_)) {
            abort.store(true, Ordering::Relaxed);
        }
        if let Some((path, cache)) = &store {
            checkpoint_cell(path, cache, spec, &entry);
        }
        entry
    });

    let mut cells = HashMap::new();
    for ((bi, prec, v), res) in jobs.into_iter().zip(raw) {
        let entry = match res {
            Ok(e) => e,
            Err(tp) => {
                let entry = CellEntry::Failed(CellError {
                    kind: FailKind::WorkerPanic,
                    message: tp.message,
                    attempts: 1,
                    backoff_ms: 0,
                });
                // A worker death rolls on the cell's key like every other
                // fault, so its row is as reusable as any other (the
                // server caches the same row).
                if let Some((path, cache)) = &store {
                    checkpoint_cell(path, cache, spec_of(bi, v, prec), &entry);
                }
                entry
            }
        };
        cells.insert((names[bi].clone(), v, prec_key(prec)), entry);
    }
    SuiteResults {
        cells,
        bench_names: names,
    }
}

/// Add a finished cell to the checkpoint store and rewrite the file.
fn checkpoint_cell(path: &Path, store: &Mutex<Cache>, spec: CellSpec, entry: &CellEntry) {
    let mut cache = store.lock().unwrap_or_else(|e| e.into_inner());
    cache.insert(spec, encode_entry(entry));
    if let Err(e) = atomic_write(path, &cache.snapshot()) {
        log::progress(&format!(
            "warning: failed to checkpoint to {}: {e}",
            path.display()
        ));
    }
}

impl SuiteResults {
    pub fn entry(&self, bench: &str, v: Variant, prec: Precision) -> Option<&CellEntry> {
        self.cells.get(&(bench.to_string(), v, prec_key(prec)))
    }

    pub fn cell(&self, bench: &str, v: Variant, prec: Precision) -> Option<&Cell> {
        self.entry(bench, v, prec).and_then(CellEntry::ok)
    }

    pub fn skip_reason(&self, bench: &str, v: Variant, prec: Precision) -> Option<&RunSkip> {
        self.entry(bench, v, prec).and_then(CellEntry::skip)
    }

    pub fn failure(&self, bench: &str, v: Variant, prec: Precision) -> Option<&CellError> {
        self.entry(bench, v, prec).and_then(CellEntry::failure)
    }

    /// All failed cells, sorted by coordinates (deterministic for
    /// reporting and exit-code decisions).
    pub fn failed_cells(&self) -> Vec<(&CellCoord, &CellError)> {
        let mut out: Vec<_> = self
            .cells
            .iter()
            .filter_map(|(k, e)| e.failure().map(|f| (k, f)))
            .collect();
        out.sort_by_key(|(k, _)| {
            (
                k.0.clone(),
                Variant::ALL.iter().position(|v| *v == k.1),
                k.2,
            )
        });
        out
    }

    /// (ok, skipped, failed) cell counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for e in self.cells.values() {
            match e {
                CellEntry::Ok(_) => c.0 += 1,
                CellEntry::Skipped(_) => c.1 += 1,
                CellEntry::Failed(_) => c.2 += 1,
            }
        }
        c
    }

    /// Speedup over Serial (same precision).
    pub fn speedup(&self, bench: &str, v: Variant, prec: Precision) -> Option<f64> {
        let serial = self.cell(bench, Variant::Serial, prec)?;
        let cell = self.cell(bench, v, prec)?;
        Some(serial.outcome.time_s / cell.outcome.time_s)
    }

    /// Measured mean power normalized to Serial.
    pub fn power_ratio(&self, bench: &str, v: Variant, prec: Precision) -> Option<f64> {
        let serial = self.cell(bench, Variant::Serial, prec)?;
        let cell = self.cell(bench, v, prec)?;
        Some(cell.measurement.mean_power_w / serial.measurement.mean_power_w)
    }

    /// Energy-to-solution normalized to Serial.
    pub fn energy_ratio(&self, bench: &str, v: Variant, prec: Precision) -> Option<f64> {
        let serial = self.cell(bench, Variant::Serial, prec)?;
        let cell = self.cell(bench, v, prec)?;
        Some(cell.energy_j / serial.energy_j)
    }

    /// Mean over benchmarks of a per-cell metric (skipping missing cells).
    pub fn mean_over_benches(
        &self,
        v: Variant,
        prec: Precision,
        f: impl Fn(&Self, &str, Variant, Precision) -> Option<f64>,
    ) -> f64 {
        let vals: Vec<f64> = self
            .bench_names
            .iter()
            .filter_map(|b| f(self, b, v, prec))
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::Activity;

    fn fake_outcome(t: f64) -> RunOutcome {
        RunOutcome {
            time_s: t,
            activity: Activity {
                duration_s: t,
                cpu_busy_s: [t, 0.0],
                ..Default::default()
            },
            validated: true,
            max_rel_err: 0.0,
            note: None,
            telemetry: Default::default(),
        }
    }

    #[test]
    fn measure_stretches_short_runs() {
        let model = PowerModel::default();
        let (m, iters, energy) = measure(&fake_outcome(1e-3), &model, 1);
        assert!(iters >= 2000);
        assert!(m.duration_s >= 2.0);
        // Energy per iteration ≈ P × 1 ms.
        let p = model.average_power(&fake_outcome(1e-3).activity);
        assert!((energy - p * 1e-3).abs() / (p * 1e-3) < 0.01);
    }

    #[test]
    fn measure_long_runs_once() {
        let model = PowerModel::default();
        let (_, iters, _) = measure(&fake_outcome(5.0), &model, 1);
        assert_eq!(iters, 1);
    }

    #[test]
    fn fail_kind_labels_round_trip() {
        for k in [
            FailKind::Build,
            FailKind::Launch,
            FailKind::Validation,
            FailKind::WorkerPanic,
            FailKind::Panic,
            FailKind::Aborted,
            FailKind::ShardDown,
        ] {
            assert_eq!(FailKind::from_label(k.label()), Some(k));
        }
        assert_eq!(FailKind::from_label("nope"), None);
    }

    /// A panicking benchmark becomes a Failed row, not a suite abort, and
    /// clean cells still measure.
    #[test]
    fn panicking_benchmark_is_isolated() {
        struct Bomb;
        impl Benchmark for Bomb {
            fn name(&self) -> &'static str {
                "bomb"
            }
            fn description(&self) -> &'static str {
                "test fixture"
            }
            fn run(&self, v: Variant, _p: Precision) -> Result<RunOutcome, RunSkip> {
                if v == Variant::OpenMp {
                    panic!("synthetic benchmark bug");
                }
                Ok(fake_outcome(1e-3))
            }
        }
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let benches: Vec<Box<dyn Benchmark>> = vec![Box::new(Bomb)];
        let r = run_suite(&benches, false);
        std::panic::set_hook(prev);
        let (ok, skipped, failed) = r.counts();
        assert_eq!((ok, skipped, failed), (6, 0, 2));
        let f = r.failure("bomb", Variant::OpenMp, Precision::F32).unwrap();
        assert_eq!(f.kind, FailKind::Panic);
        assert!(f.message.contains("synthetic benchmark bug"));
        assert_eq!(f.attempts, 1);
        let c = r.cell("bomb", Variant::Serial, Precision::F32).unwrap();
        assert_eq!(c.attempts, 1);
    }

    /// An invalid result is a Validation failure row (the old harness
    /// asserted and killed the whole process here).
    #[test]
    fn invalid_output_is_a_validation_failure() {
        struct Wrong;
        impl Benchmark for Wrong {
            fn name(&self) -> &'static str {
                "wrong"
            }
            fn description(&self) -> &'static str {
                "test fixture"
            }
            fn run(&self, _v: Variant, _p: Precision) -> Result<RunOutcome, RunSkip> {
                let mut o = fake_outcome(1e-3);
                o.validated = false;
                o.max_rel_err = 0.5;
                Ok(o)
            }
        }
        let benches: Vec<Box<dyn Benchmark>> = vec![Box::new(Wrong)];
        let r = run_suite(&benches, false);
        let (ok, skipped, failed) = r.counts();
        assert_eq!((ok, skipped, failed), (0, 0, 8));
        let f = r.failure("wrong", Variant::Serial, Precision::F64).unwrap();
        assert_eq!(f.kind, FailKind::Validation);
        assert!(f.message.contains("validation"));
    }

    /// Injected (tagged) skips are retried with recorded backoff; a cell
    /// that keeps faulting becomes a Failed row with the attempt count.
    #[test]
    fn injected_faults_retry_then_fail() {
        use std::sync::atomic::AtomicU32;
        struct Flaky {
            calls: AtomicU32,
        }
        impl Benchmark for Flaky {
            fn name(&self) -> &'static str {
                "flaky"
            }
            fn description(&self) -> &'static str {
                "test fixture"
            }
            fn run(&self, v: Variant, p: Precision) -> Result<RunOutcome, RunSkip> {
                // One designated cell fails twice then succeeds; another
                // fails forever.
                if v == Variant::OpenCl && p == Precision::F32 {
                    let n = self.calls.fetch_add(1, Ordering::Relaxed);
                    if n < 2 {
                        return Err(RunSkip::CompilerBug(format!(
                            "{} synthetic transient",
                            sim_faults::TAG
                        )));
                    }
                } else if v == Variant::OpenClOpt && p == Precision::F32 {
                    return Err(RunSkip::LaunchFailure(format!(
                        "{} permanent chaos",
                        sim_faults::TAG
                    )));
                }
                Ok(fake_outcome(1e-3))
            }
        }
        let benches: Vec<Box<dyn Benchmark>> = vec![Box::new(Flaky {
            calls: AtomicU32::new(0),
        })];
        // Retries only engage when a fault plan is configured.
        let cfg = SuiteConfig {
            faults: Some(sim_faults::FaultPlan::new(1).with_rates(sim_faults::FaultRates::zero())),
            ..SuiteConfig::default()
        };
        let r = run_suite_with(&benches, &cfg);
        let healed = r.cell("flaky", Variant::OpenCl, Precision::F32).unwrap();
        assert_eq!(healed.attempts, 3);
        let f = r
            .failure("flaky", Variant::OpenClOpt, Precision::F32)
            .unwrap();
        assert_eq!(f.kind, FailKind::Launch);
        assert_eq!(f.attempts, 3);
        // 50 + 100 recorded backoff for two retries.
        assert_eq!(f.backoff_ms, 150);
        assert!(sim_faults::is_injected(&f.message));
    }

    /// Untagged skips are permanent: no retry, exported as Skipped.
    #[test]
    fn genuine_skips_are_not_retried() {
        use std::sync::atomic::AtomicU32;
        use std::sync::Arc;
        struct Legit {
            calls: Arc<AtomicU32>,
        }
        impl Benchmark for Legit {
            fn name(&self) -> &'static str {
                "legit"
            }
            fn description(&self) -> &'static str {
                "test fixture"
            }
            fn run(&self, _v: Variant, _p: Precision) -> Result<RunOutcome, RunSkip> {
                self.calls.fetch_add(1, Ordering::Relaxed);
                Err(RunSkip::CompilerBug("CL_BUILD_PROGRAM_FAILURE".into()))
            }
        }
        let calls = Arc::new(AtomicU32::new(0));
        let benches: Vec<Box<dyn Benchmark>> = vec![Box::new(Legit {
            calls: calls.clone(),
        })];
        let r = run_suite(&benches, false);
        let (ok, skipped, failed) = r.counts();
        assert_eq!((ok, skipped, failed), (0, 8, 0));
        // 8 cells, one call each: no retries burned on permanent skips.
        assert_eq!(calls.load(Ordering::Relaxed), 8);
        assert!(r
            .skip_reason("legit", Variant::Serial, Precision::F32)
            .is_some());
    }
}
