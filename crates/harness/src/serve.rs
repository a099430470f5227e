//! `harness serve` / `harness submit` — the experiment service.
//!
//! This module mounts the generic `sim-server` kernel (HTTP, cache,
//! scheduler) onto the simulator: request cells are normalized through
//! [`checkpoint::cell_spec`] into the same key space the `--state`
//! checkpoint uses, results are stored as [`checkpoint::encode_entry`]
//! payloads, and sweep responses are rendered by [`export::jsonl_row`] —
//! the exact formatter behind `harness jsonl`. Those three shared code
//! paths are what make the service's contract hold: a served sweep is
//! byte-identical to the offline artifact, a warm cache is
//! indistinguishable from a cold one, and a checkpoint file *is* a cache
//! file (`serve --cache suite.state`).
//!
//! Endpoints (see DESIGN.md §12 and the README quickstart):
//!
//! * `POST /v1/sweep` — JSON batch request, JSONL response rows in
//!   request order. Ratio columns (speedup/power/energy) are computed
//!   over the *request's* result set, so a full-grid sweep reproduces
//!   `harness jsonl` exactly and a subset sweep reports `null` where the
//!   serial baseline was not requested.
//! * `GET /v1/cell/<key>` — inspect one cached cell by content address
//!   (no LRU or counter side effects).
//! * `GET /metrics` — text exposition of cache/scheduler/service
//!   counters.
//! * `GET /healthz` — liveness.
//! * `POST /v1/shutdown` — graceful stop: in-flight work drains, the
//!   cache is persisted, the acceptor exits.
//!
//! Determinism: a cell's bytes are a pure function of its spec (the
//! simulator's existing thread-count guarantee), so cache state,
//! coalescing, batching and arrival order can change only *when* a cell
//! is computed, never what the client receives.

use crate::checkpoint::{self, cell_spec};
use crate::export;
use crate::runner::{
    run_one, CellCoord, CellEntry, CellError, FailKind, SuiteConfig, SuiteResults,
};
use hpc_kernels::{Benchmark, Precision, Variant};
use sim_server::cache::Cache;
use sim_server::http::{self, Request, Response, Server, StopHandle};
use sim_server::json::{self, Json};
use sim_server::key::{CellKey, CellSpec};
use sim_server::metrics::{self, Metrics, Stage};
use sim_server::reqtrace::{us_since, RequestRecord, TraceConfig, TraceId, Tracer, TRACE_HEADER};
use sim_server::retry::RetryPolicy;
use sim_server::scheduler::{AdmitError, Lane, Scheduler, Slot};
use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::log;

/// Server configuration (CLI flags map onto this 1:1).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Cell cache capacity (entries); 0 disables caching.
    pub capacity: usize,
    /// Scheduler queue bound; sweeps that would push past it get 429.
    pub queue_cap: usize,
    /// Cache persistence file (`simcache v1`, written atomically after
    /// every completed batch and on shutdown). A `--state` sweep
    /// checkpoint is such a file, so naming one warm-starts the cache.
    pub cache_path: Option<PathBuf>,
    /// Request-trace output directory (`--trace-dir`); `None` disables
    /// tracing. Tracing writes headers and files only — response bytes
    /// are untouched.
    pub trace_dir: Option<PathBuf>,
    /// Deterministic 1-in-N trace sampling (`--trace-sample`); 0 samples
    /// nothing (slow requests may still be force-sampled).
    pub trace_sample: u64,
    /// Force-sample requests slower than this (`--slow-ms`).
    pub slow_ms: Option<u64>,
    /// Per-connection socket I/O timeout (`--timeout-ms`); `None` uses
    /// [`http::DEFAULT_IO_TIMEOUT_MS`]. Also bounds how long a handler
    /// waits for a wedged evaluation before answering 503.
    pub timeout_ms: Option<u64>,
    /// Handler worker threads (`--workers`); requests beyond this run
    /// concurrently only at the connection level, queued in the lanes.
    pub workers: usize,
    /// Sweeps naming at most this many cells share the interactive lane
    /// with `GET /v1/cell` (`--priority-cells`); larger sweeps are bulk.
    pub priority_cells: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".into(),
            capacity: 1024,
            queue_cap: 256,
            cache_path: None,
            trace_dir: None,
            trace_sample: 0,
            slow_ms: None,
            timeout_ms: None,
            workers: http::DEFAULT_WORKERS,
            priority_cells: http::DEFAULT_PRIORITY_CELLS,
        }
    }
}

/// Build the [`Tracer`] for a serving process from its CLI-level knobs.
/// Shared by `harness serve` and `harness route`.
pub(crate) fn make_tracer(
    trace_dir: &Option<PathBuf>,
    trace_sample: u64,
    slow_ms: Option<u64>,
    service: &str,
) -> io::Result<Tracer> {
    match trace_dir {
        None => Ok(Tracer::disabled()),
        Some(dir) => Tracer::new(
            TraceConfig {
                dir: dir.clone(),
                sample: trace_sample,
                slow_ms,
            },
            service,
        ),
    }
}

/// Labels accepted (and emitted) on the wire, in suite order.
const VERSIONS: [Variant; 4] = Variant::ALL;
const SCALES: [&str; 2] = ["test", "paper"];

fn variant_from_wire(s: &str) -> Option<Variant> {
    VERSIONS
        .into_iter()
        .find(|v| v.label().replace(' ', "-") == s)
}

fn precision_from_wire(s: &str) -> Option<Precision> {
    match s {
        "single" => Some(Precision::F32),
        "double" => Some(Precision::F64),
        _ => None,
    }
}

pub(crate) fn spec_coord(spec: &CellSpec) -> Option<(CellCoord, Precision)> {
    let v = variant_from_wire(&spec.version)?;
    let prec = match spec.precision {
        32 => Precision::F32,
        64 => Precision::F64,
        _ => return None,
    };
    Some(((spec.bench.clone(), v, spec.precision), prec))
}

/// Precision back onto the wire ("single" / "double"); inverse of
/// [`precision_from_wire`] for valid specs.
pub(crate) fn precision_to_wire(bits: u8) -> &'static str {
    if bits == 64 {
        "double"
    } else {
        "single"
    }
}

/// Parse and validate a sweep request body into specs + coords, in
/// request order. Returns a human-readable error for a 400. Shared by
/// the single-process engine and the `harness route` front (the router
/// must resolve cell keys itself to partition the sweep by shard).
pub(crate) fn parse_sweep(
    bench_names: &[String],
    body: &[u8],
) -> Result<Vec<(CellSpec, Precision)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let scale = match doc.get("scale") {
        None => "test",
        Some(s) => s.as_str().ok_or("'scale' must be a string")?,
    };
    if !SCALES.contains(&scale) {
        return Err(format!("unknown scale '{scale}' (have: test, paper)"));
    }
    let fault_seed = match doc.get("fault_seed") {
        None => None,
        Some(Json::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or("'fault_seed' must be an unsigned integer")?,
        ),
    };
    let passes = match doc.get("passes") {
        None => None,
        Some(Json::Null) => None,
        Some(v) => {
            let s = v.as_str().ok_or("'passes' must be a string")?;
            // Admission-time validation: reject unknown pass names with a
            // 400 instead of failing every cell at evaluation time. The
            // canonical (normalized) form goes into the key so equivalent
            // spellings share a content address.
            let pl = kernel_ir::opt::Pipeline::parse(s).map_err(|e| format!("'passes': {e}"))?;
            Some(pl.to_string())
        }
    };
    let cells = doc.get("cells").ok_or("missing 'cells'")?;
    let mut out = Vec::new();
    if cells.as_str() == Some("all") {
        for bench in bench_names {
            for prec in Precision::ALL {
                for v in VERSIONS {
                    out.push((
                        cell_spec(scale, fault_seed, passes.as_deref(), bench, v, prec),
                        prec,
                    ));
                }
            }
        }
        return Ok(out);
    }
    let arr = cells
        .as_arr()
        .ok_or("'cells' must be \"all\" or an array")?;
    if arr.is_empty() {
        return Err("'cells' is empty".into());
    }
    for (i, c) in arr.iter().enumerate() {
        let field = |k: &str| -> Result<&str, String> {
            c.get(k)
                .and_then(Json::as_str)
                .ok_or(format!("cells[{i}]: missing string field '{k}'"))
        };
        let bench = field("bench")?;
        if !bench_names.iter().any(|b| b == bench) {
            return Err(format!(
                "cells[{i}]: unknown benchmark '{bench}' (have: {})",
                bench_names.join(", ")
            ));
        }
        let version = field("version")?;
        let v = variant_from_wire(version).ok_or(format!(
            "cells[{i}]: unknown version '{version}' (have: Serial, OpenMP, OpenCL, OpenCL-Opt)"
        ))?;
        let precision = field("precision")?;
        let prec = precision_from_wire(precision).ok_or(format!(
            "cells[{i}]: unknown precision '{precision}' (have: single, double)"
        ))?;
        out.push((
            cell_spec(scale, fault_seed, passes.as_deref(), bench, v, prec),
            prec,
        ));
    }
    Ok(out)
}

// ---- evaluation (dispatcher side) ----

/// Evaluate one batch of distinct cells on `sim-pool` and return one
/// encoded payload per spec, in order. Runs on the dispatcher thread, so
/// the pool's fork/join region is entered from exactly one place.
fn eval_batch(
    test: &[Box<dyn Benchmark>],
    paper: &[Box<dyn Benchmark>],
    batch: &[CellSpec],
) -> Vec<String> {
    let raw = sim_pool::try_parallel_map(batch.len(), |i| {
        let spec = &batch[i];
        let benches = if spec.scale == "test" { test } else { paper };
        let Some(((bench, v, _), prec)) = spec_coord(spec) else {
            // Admission validates specs; reaching this means a bug, but a
            // structured failure row beats a panic in a long-lived server.
            return CellEntry::Failed(CellError {
                kind: FailKind::Launch,
                message: format!("unresolvable cell spec: {}", spec.canonical()),
                attempts: 0,
                backoff_ms: 0,
            });
        };
        let Some(bi) = benches.iter().position(|b| b.name() == bench) else {
            return CellEntry::Failed(CellError {
                kind: FailKind::Launch,
                message: format!("unknown benchmark '{bench}'"),
                attempts: 0,
                backoff_ms: 0,
            });
        };
        // Specs are validated at admission, so a parse failure here means
        // the key was forged; fail the cell rather than silently running
        // it unoptimized under an optimized key.
        let passes = match spec.passes.as_deref().map(kernel_ir::opt::Pipeline::parse) {
            None => None,
            Some(Ok(pl)) => Some(pl),
            Some(Err(e)) => {
                return CellEntry::Failed(CellError {
                    kind: FailKind::Launch,
                    message: format!("bad pass pipeline in cell spec: {e}"),
                    attempts: 0,
                    backoff_ms: 0,
                })
            }
        };
        let cfg = SuiteConfig {
            faults: spec.fault_seed.map(sim_faults::FaultPlan::new),
            passes,
            ..SuiteConfig::default()
        };
        run_one(benches[bi].as_ref(), bi, v, prec, &cfg)
    });
    raw.into_iter()
        .map(|r| match r {
            Ok(entry) => entry,
            Err(tp) => CellEntry::Failed(CellError {
                kind: FailKind::WorkerPanic,
                message: tp.message,
                attempts: 1,
                backoff_ms: 0,
            }),
        })
        .map(|e| checkpoint::encode_entry(&e))
        .collect()
}

// ---- the engine ----

/// Where a request's resolution time went, filled by [`Engine::resolve`].
/// Per-cell vectors feed the stage histograms; the `_total` fields feed
/// the request's trace spans.
#[derive(Default)]
struct ResolveReport {
    cache_hits: u64,
    cache_misses: u64,
    /// Per distinct cell: one cache-probe duration.
    lookup_us: Vec<u64>,
    /// Per evaluated cell: admission-to-dispatch wait.
    queue_us: Vec<u64>,
    /// Per evaluated cell: its batch's evaluation time.
    eval_us: Vec<u64>,
    /// Wall-clock of the whole cache-probe loop.
    lookup_total_us: u64,
    /// Wall-clock of the scheduler admission call.
    admit_us: u64,
    /// Wall-clock spent blocked on slots.
    wait_total_us: u64,
}

struct Engine {
    cache: Arc<Mutex<Cache>>,
    scheduler: Scheduler,
    metrics: Mutex<Metrics>,
    /// Benchmark names in suite order (identical for both scales).
    bench_names: Vec<String>,
    stop: StopHandle,
    cache_file: Arc<CacheFile>,
    tracer: Tracer,
    started: Instant,
    /// The HTTP server's per-lane dispatch counters, shared so the
    /// `/metrics` page can render them.
    lanes: Arc<http::LaneMetrics>,
    /// Upper bound on one slot wait before the handler answers 503.
    wait_timeout: Duration,
}

/// The `--cache` persistence file. A persist snapshots the cache under
/// its lock but writes the file after releasing it, so cache hits never
/// wait on file I/O (the dispatcher persists after every batch at idle
/// CPU priority); `writing` orders concurrent persists so they neither
/// interleave in the staging file nor land older-snapshot-last.
struct CacheFile {
    path: Option<PathBuf>,
    writing: Mutex<()>,
}

impl CacheFile {
    fn persist(&self, cache: &Mutex<Cache>) {
        let Some(p) = &self.path else { return };
        let _writing = self.writing.lock().unwrap_or_else(|e| e.into_inner());
        let snapshot = cache.lock().unwrap_or_else(|e| e.into_inner()).snapshot();
        if let Err(e) = crate::artifact::atomic_write(p, &snapshot) {
            log::progress(&format!(
                "warning: cache persist to {} failed: {e}",
                p.display()
            ));
        }
    }
}

impl Engine {
    fn new(
        cfg: &ServeConfig,
        stop: StopHandle,
        lanes: Arc<http::LaneMetrics>,
    ) -> io::Result<Engine> {
        let tracer = make_tracer(
            &cfg.trace_dir,
            cfg.trace_sample,
            cfg.slow_ms,
            &format!("sim-server {}", cfg.addr),
        )?;
        let bench_names: Vec<String> = hpc_kernels::test_suite()
            .iter()
            .map(|b| b.name().to_string())
            .collect();

        let mut cache = Cache::new(cfg.capacity);
        if let Some(path) = &cfg.cache_path {
            if let Ok(bytes) = std::fs::read(path) {
                let n = cache
                    .restore(&bytes, |payload| {
                        checkpoint::decode_entry(payload).is_some()
                    })
                    .unwrap_or(0);
                log::progress(&format!(
                    "cache: restored {n} cells from {}",
                    path.display()
                ));
            }
        }
        let cache = Arc::new(Mutex::new(cache));
        let cache_file = Arc::new(CacheFile {
            path: cfg.cache_path.clone(),
            writing: Mutex::new(()),
        });

        let scheduler = {
            let cache = cache.clone();
            let cache_file = cache_file.clone();
            Scheduler::start(cfg.queue_cap, move || {
                // Built on the dispatcher thread: benchmark suites are
                // `Sync` but deliberately not `Send`.
                let test = hpc_kernels::test_suite();
                let paper = hpc_kernels::suite();
                move |batch: &[CellSpec]| {
                    let payloads = eval_batch(&test, &paper, batch);
                    {
                        let mut c = cache.lock().unwrap_or_else(|e| e.into_inner());
                        for (spec, payload) in batch.iter().zip(&payloads) {
                            c.insert(spec.clone(), payload.clone());
                        }
                    }
                    cache_file.persist(&cache);
                    payloads
                }
            })
        };

        Ok(Engine {
            cache,
            scheduler,
            metrics: Mutex::new(Metrics::default()),
            bench_names,
            stop,
            cache_file,
            tracer,
            started: Instant::now(),
            lanes,
            wait_timeout: Duration::from_millis(cfg.timeout_ms.unwrap_or(http::DEFAULT_TIMEOUT_MS)),
        })
    }

    fn handle(&self, req: &Request) -> Response {
        let t0 = Instant::now();
        // One trace id per request: the inbound header's (the router
        // propagates its ingress id to every shard) or a fresh one. Ids
        // live in headers, log lines and trace files only — never in the
        // response body, so tracing cannot perturb byte-identity.
        let id = TraceId::from_header(req.header(TRACE_HEADER));
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .requests += 1;
        let resp = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::text(200, "ok\n"),
            ("GET", "/metrics") => self.metrics_page(),
            ("POST", "/v1/sweep") => self.traced(req, id, t0, Self::sweep),
            ("POST", "/v1/cells") => self.traced(req, id, t0, Self::cells),
            ("POST", "/v1/shutdown") => {
                self.cache_file.persist(&self.cache);
                self.stop.stop();
                Response::text(200, "shutting down\n")
            }
            ("GET", path) if path.starts_with("/v1/cell/") => self.cell(&path["/v1/cell/".len()..]),
            _ => Response::json(404, "{\"error\":\"no such route\"}\n"),
        };
        resp.with_header(TRACE_HEADER, &id.to_string())
    }

    /// Run a sweep-evaluating endpoint with per-request tracing: build
    /// the span record, time the whole request, and hand the finished
    /// record to the tracer (request log + sampled Perfetto file).
    fn traced(
        &self,
        req: &Request,
        id: TraceId,
        t0: Instant,
        endpoint: fn(&Self, &Request, &mut RequestRecord) -> Response,
    ) -> Response {
        let mut rec = RequestRecord::new(id, &req.path);
        let resp = endpoint(self, req, &mut rec);
        rec.status = resp.status;
        rec.total_us = us_since(t0);
        self.tracer.finish(&rec);
        resp
    }

    fn metrics_page(&self) -> Response {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let (cache_stats, entries) = (cache.stats(), cache.len());
        drop(cache);
        let sched = self.scheduler.stats();
        let lanes = self.lanes.snapshot();
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        Response::text(
            200,
            metrics::render(
                &m,
                &cache_stats,
                entries,
                &sched,
                &lanes,
                self.started.elapsed().as_secs(),
            ),
        )
    }

    fn bad(&self, msg: &str) -> Response {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .bad_requests += 1;
        Response::json(400, format!("{{\"error\":\"{}\"}}\n", json::escape(msg)))
    }

    /// `GET /v1/cell/<key>`: pure inspection — `peek`, no LRU stamp
    /// refresh, no hit/miss accounting. Ratio columns in the row are
    /// batch-relative and therefore null here (except Serial's own 1.0).
    fn cell(&self, keyhex: &str) -> Response {
        let Ok(key) = keyhex.parse::<CellKey>() else {
            return self.bad("cell key must be 16 hex digits");
        };
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let Some(cached) = cache.peek(key) else {
            return Response::json(404, "{\"error\":\"cell not in cache\"}\n");
        };
        let spec = cached.spec.clone();
        let payload = cached.payload.clone();
        drop(cache);
        let Some((coord, prec)) = spec_coord(&spec) else {
            return Response::json(500, "{\"error\":\"cached spec unresolvable\"}\n");
        };
        let Some(entry) = checkpoint::decode_entry(&payload) else {
            return Response::json(500, "{\"error\":\"cached payload corrupt\"}\n");
        };
        let (bench, v, _) = coord.clone();
        let results = SuiteResults {
            cells: HashMap::from([(coord, entry)]),
            bench_names: vec![bench.clone()],
        };
        let row = export::jsonl_row(&results, &bench, v, prec);
        Response::json(
            200,
            format!(
                "{{\"key\":\"{key}\",\"spec\":\"{}\",\"row\":{row}}}\n",
                json::escape(&spec.canonical())
            ),
        )
    }

    /// Resolve payloads for a request's *distinct* cells: cache hits
    /// immediately, misses through the scheduler. `Err` carries a
    /// ready-to-send backpressure/shutdown/failure response.
    ///
    /// One cache lookup per distinct cell; misses are admitted while the
    /// cache lock is held, so a cell cannot complete (and be evicted)
    /// between the check and the admit. Misses queue in `lane`, the lane
    /// the HTTP reactor already classified the request into.
    ///
    /// Fills `rep` with per-cell timings: one `lookup_us` sample per
    /// distinct cell, one `queue_us`/`eval_us` sample per cell actually
    /// evaluated — counts that depend only on the work, not on how the
    /// fleet is sharded, so router-merged stage histograms reconcile
    /// exactly with a single-process run.
    fn resolve(
        &self,
        cells: &[(CellSpec, Precision)],
        lane: Lane,
        rep: &mut ResolveReport,
    ) -> Result<HashMap<CellKey, String>, Response> {
        let mut payloads: HashMap<CellKey, String> = HashMap::new();
        let mut pending: Vec<(CellKey, Arc<Slot>)> = Vec::new();
        {
            let lookup_started = Instant::now();
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            let mut need: Vec<CellSpec> = Vec::new();
            for (spec, _) in cells {
                let key = spec.key();
                if payloads.contains_key(&key) || need.iter().any(|s| s.key() == key) {
                    continue;
                }
                let probe_started = Instant::now();
                let cached = cache.get(key);
                rep.lookup_us.push(us_since(probe_started));
                match cached {
                    Some(c) => {
                        rep.cache_hits += 1;
                        payloads.insert(key, c.payload);
                    }
                    None => {
                        rep.cache_misses += 1;
                        need.push(spec.clone());
                    }
                }
            }
            rep.lookup_total_us = us_since(lookup_started);
            let admit_started = Instant::now();
            let admitted = self.scheduler.admit(&need, lane);
            rep.admit_us = us_since(admit_started);
            match admitted {
                Ok(slots) => {
                    pending.extend(need.iter().map(|s| s.key()).zip(slots));
                }
                Err(AdmitError::Busy {
                    queue_depth,
                    queue_cap,
                }) => {
                    self.metrics
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .rejected_requests += 1;
                    return Err(Response::json(
                        429,
                        format!(
                            "{{\"error\":\"queue full\",\"queue_depth\":{queue_depth},\"queue_cap\":{queue_cap}}}\n"
                        ),
                    )
                    .with_header("Retry-After", "1"));
                }
                Err(AdmitError::ShuttingDown) => {
                    return Err(Response::json(503, "{\"error\":\"shutting down\"}\n"));
                }
                Err(AdmitError::Poisoned) => {
                    return Err(Response::json(
                        500,
                        "{\"error\":\"scheduler dispatcher is dead\"}\n",
                    ));
                }
            }
        }
        let wait_started = Instant::now();
        for (key, slot) in pending {
            // An abandoned slot (the batch evaluator panicked) is a 500,
            // not a hang: the scheduler settles every admitted slot. A
            // wedged evaluation that never settles is a 503 after the
            // deadline rather than a connection parked forever.
            let Some((outcome, timing)) = slot.wait_deadline(self.wait_timeout) else {
                self.metrics
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .wait_timeouts += 1;
                rep.wait_total_us = us_since(wait_started);
                return Err(Response::json(
                    503,
                    "{\"error\":\"evaluation wait timed out\"}\n",
                ));
            };
            rep.queue_us.push(timing.queue_us);
            rep.eval_us.push(timing.eval_us);
            match outcome {
                Ok(payload) => {
                    payloads.insert(key, payload);
                }
                Err(abandoned) => {
                    rep.wait_total_us = us_since(wait_started);
                    return Err(Response::json(
                        500,
                        format!(
                            "{{\"error\":\"evaluation failed: {}\"}}\n",
                            json::escape(&abandoned.message)
                        ),
                    ));
                }
            }
        }
        rep.wait_total_us = us_since(wait_started);
        Ok(payloads)
    }

    /// Record a finished (or failed) resolution into the stage
    /// histograms and the request's trace record. `format_us` is `Some`
    /// only when the request produced a response body — error paths
    /// contribute no `format` or `sweep_time` samples, matching the
    /// pre-histogram behaviour.
    fn record_stages(
        &self,
        rec: &mut RequestRecord,
        parse_us: u64,
        rep: &ResolveReport,
        format_us: Option<u64>,
        started: Instant,
    ) {
        {
            let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
            m.record_stage(Stage::Parse, parse_us);
            m.record_stage(Stage::Admit, rep.admit_us);
            for &us in &rep.lookup_us {
                m.record_stage(Stage::CacheLookup, us);
            }
            for &us in &rep.queue_us {
                m.record_stage(Stage::QueueWait, us);
            }
            for &us in &rep.eval_us {
                m.record_stage(Stage::EvalBatch, us);
            }
            if let Some(us) = format_us {
                m.record_stage(Stage::Format, us);
                m.sweep_time.record_us(us_since(started));
            }
        }
        // Trace spans: the handler's sequential phases. Queue-wait and
        // evaluation overlap across a batch's cells, so their spans show
        // the request's worst cell.
        let mut off = 0;
        rec.span("parse", off, parse_us);
        off += parse_us;
        rec.span("cache_lookup", off, rep.lookup_total_us);
        off += rep.lookup_total_us;
        rec.span("admit", off, rep.admit_us);
        off += rep.admit_us;
        if !rep.queue_us.is_empty() {
            let queue = *rep.queue_us.iter().max().unwrap();
            let eval = *rep.eval_us.iter().max().unwrap();
            rec.span("queue_wait", off, queue);
            rec.span("eval_batch", off + queue, eval);
        }
        off += rep.wait_total_us;
        if let Some(us) = format_us {
            rec.span("format", off, us);
        }
        rec.note("cache_hits", rep.cache_hits);
        rec.note("cache_misses", rep.cache_misses);
    }

    fn sweep(&self, req: &Request, rec: &mut RequestRecord) -> Response {
        let started = Instant::now();
        let parsed = parse_sweep(&self.bench_names, &req.body);
        let parse_us = us_since(started);
        let cells = match parsed {
            Ok(c) => c,
            Err(msg) => return self.bad(&msg),
        };
        rec.note("cells", cells.len());
        rec.note("lane", req.lane.name());
        {
            let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
            m.sweeps += 1;
            m.cells_requested += cells.len() as u64;
        }
        let mut rep = ResolveReport::default();
        let payloads = match self.resolve(&cells, req.lane, &mut rep) {
            Ok(p) => p,
            Err(resp) => {
                self.record_stages(rec, parse_us, &rep, None, started);
                return resp;
            }
        };

        // Decode into a SuiteResults over exactly the requested cells, so
        // the shared jsonl formatter computes ratios against the request's
        // own serial baselines (full grid => identical to `harness jsonl`).
        let format_started = Instant::now();
        let mut results = SuiteResults {
            cells: HashMap::new(),
            bench_names: self.bench_names.clone(),
        };
        for (spec, _) in &cells {
            let Some((coord, _)) = spec_coord(spec) else {
                continue;
            };
            if results.cells.contains_key(&coord) {
                continue;
            }
            let payload = &payloads[&spec.key()];
            let entry = checkpoint::decode_entry(payload).unwrap_or_else(|| {
                CellEntry::Failed(CellError {
                    kind: FailKind::WorkerPanic,
                    message: "cached payload corrupt".into(),
                    attempts: 0,
                    backoff_ms: 0,
                })
            });
            results.cells.insert(coord, entry);
        }
        let mut body = String::new();
        for (spec, prec) in &cells {
            let Some(((bench, v, _), _)) = spec_coord(spec) else {
                continue;
            };
            body.push_str(&export::jsonl_row(&results, &bench, v, *prec));
            body.push('\n');
        }
        self.record_stages(rec, parse_us, &rep, Some(us_since(format_started)), started);
        Response::jsonl(200, body)
    }

    /// `POST /v1/cells` — the router's internal data plane: same request
    /// body as `/v1/sweep`, but the response is one `<key> <payload>`
    /// line per *distinct* requested cell (first-occurrence order), where
    /// the payload is the `checkpoint::encode_entry` encoding. Shipping
    /// raw entries instead of formatted rows lets `harness route` compute
    /// ratio columns over the whole request rather than per-shard
    /// subsets — that is what keeps a routed sweep byte-identical to a
    /// single-process one.
    fn cells(&self, req: &Request, rec: &mut RequestRecord) -> Response {
        let started = Instant::now();
        let parsed = parse_sweep(&self.bench_names, &req.body);
        let parse_us = us_since(started);
        let cells = match parsed {
            Ok(c) => c,
            Err(msg) => return self.bad(&msg),
        };
        rec.note("cells", cells.len());
        rec.note("lane", req.lane.name());
        {
            let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
            m.sweeps += 1;
            m.cells_requested += cells.len() as u64;
        }
        let mut rep = ResolveReport::default();
        let payloads = match self.resolve(&cells, req.lane, &mut rep) {
            Ok(p) => p,
            Err(resp) => {
                self.record_stages(rec, parse_us, &rep, None, started);
                return resp;
            }
        };
        let format_started = Instant::now();
        let mut body = String::new();
        let mut seen: HashSet<CellKey> = HashSet::new();
        for (spec, _) in &cells {
            let key = spec.key();
            if seen.insert(key) {
                body.push_str(&format!("{key} {}\n", payloads[&key]));
            }
        }
        self.record_stages(rec, parse_us, &rep, Some(us_since(format_started)), started);
        Response::text(200, body)
    }
}

// ---- entry points ----

/// A server running on a background thread (tests, embedding).
pub struct RunningServer {
    pub addr: SocketAddr,
    stop: StopHandle,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// Stop accepting, drain in-flight work, and join the server thread.
    pub fn shutdown(self) -> io::Result<()> {
        self.stop.stop();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

fn run_on(mut server: Server, cfg: ServeConfig) -> io::Result<()> {
    if let Some(ms) = cfg.timeout_ms {
        server.set_io_timeout(Duration::from_millis(ms));
    }
    server.set_workers(cfg.workers);
    server.set_priority_cells(cfg.priority_cells);
    let stop = server.stop_handle();
    let engine = Engine::new(&cfg, stop, server.lane_metrics())?;
    server.run(|req| engine.handle(req))?;
    // Dropping the engine shuts the scheduler down (drains, then joins).
    engine.cache_file.persist(&engine.cache);
    Ok(())
}

/// Bind and serve on a background thread; returns the resolved address.
pub fn start(cfg: ServeConfig) -> io::Result<RunningServer> {
    let server = Server::bind(&cfg.addr)?;
    let addr = server.local_addr()?;
    let stop = server.stop_handle();
    let thread = std::thread::Builder::new()
        .name("sim-server-acceptor".into())
        .spawn(move || run_on(server, cfg))?;
    Ok(RunningServer { addr, stop, thread })
}

/// Bind and serve on the calling thread (the `harness serve` path).
/// Prints the resolved listen address to stdout first, so scripts binding
/// port 0 can discover the port.
pub fn serve(cfg: ServeConfig) -> io::Result<()> {
    let server = Server::bind(&cfg.addr)?;
    let addr = server.local_addr()?;
    println!("listening on {addr}");
    io::stdout().flush()?;
    run_on(server, cfg)
}

// ---- the submit client ----

/// Client configuration for `harness submit`.
#[derive(Clone, Debug)]
pub struct SubmitConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Problem-size scale tag ("test" / "paper").
    pub scale: String,
    /// Fault-injection seed forwarded with the sweep.
    pub fault_seed: Option<u64>,
    /// Optimizer pass pipeline forwarded with the sweep (`--passes`,
    /// comma-separated pass names). Folded into every cell's content
    /// address by the server.
    pub passes: Option<String>,
    /// `None` sweeps the full grid; `Some` holds `bench/version/precision`
    /// triples (e.g. `spmv/OpenCL-Opt/single`).
    pub cells: Option<Vec<String>>,
    /// Fetch and print `/metrics` instead of sweeping.
    pub metrics: bool,
    /// Request a graceful server shutdown instead of sweeping.
    pub shutdown: bool,
    /// Attempts before giving up on transient connection failures
    /// (`--retry-budget`); backoff is seeded from `fault_seed`.
    pub retry_budget: u32,
    /// Request timeout (`--timeout-ms`); `None` uses
    /// [`http::DEFAULT_TIMEOUT_MS`].
    pub timeout_ms: Option<u64>,
}

/// Transport errors worth retrying from the client: the server may be
/// mid-restart (refused), mid-shutdown (reset/aborted), or briefly
/// wedged (timeout). Anything else — DNS failure, a malformed response —
/// will not heal by waiting.
fn transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

/// Build the JSON body for a sweep request.
fn sweep_body(cfg: &SubmitConfig) -> Result<String, String> {
    let cells = match &cfg.cells {
        None => "\"all\"".to_string(),
        Some(list) => {
            let mut items = Vec::new();
            for c in list {
                let parts: Vec<&str> = c.split('/').collect();
                let [bench, version, precision] = parts[..] else {
                    return Err(format!(
                        "bad cell '{c}' (want bench/version/precision, e.g. spmv/OpenCL-Opt/single)"
                    ));
                };
                items.push(format!(
                    "{{\"bench\":\"{}\",\"version\":\"{}\",\"precision\":\"{}\"}}",
                    json::escape(bench),
                    json::escape(version),
                    json::escape(precision)
                ));
            }
            format!("[{}]", items.join(","))
        }
    };
    let seed = match cfg.fault_seed {
        Some(s) => format!(",\"fault_seed\":{s}"),
        None => String::new(),
    };
    let passes = match &cfg.passes {
        Some(p) => format!(",\"passes\":\"{}\"", json::escape(p)),
        None => String::new(),
    };
    Ok(format!(
        "{{\"scale\":\"{}\"{seed}{passes},\"cells\":{cells}}}",
        json::escape(&cfg.scale)
    ))
}

/// Run one client interaction; prints the response body to stdout.
/// Returns the process exit code (0 ok, 1 server/transport error).
/// Transient connection failures (refused, reset, timed out) are retried
/// up to the configured budget with seeded exponential backoff before
/// the client gives up — a server restarting between waves no longer
/// fails the whole script.
pub fn submit(cfg: &SubmitConfig) -> i32 {
    let (method, path, body) = if cfg.shutdown {
        ("POST", "/v1/shutdown", String::new())
    } else if cfg.metrics {
        ("GET", "/metrics", String::new())
    } else {
        match sweep_body(cfg) {
            Ok(b) => ("POST", "/v1/sweep", b),
            Err(msg) => {
                // Usage-shaped error: the caller maps it to exit 2.
                eprintln!("{msg}");
                return 2;
            }
        }
    };
    let timeout = Duration::from_millis(cfg.timeout_ms.unwrap_or(http::DEFAULT_TIMEOUT_MS));
    let policy = RetryPolicy {
        budget: cfg.retry_budget.max(1),
        seed: cfg.fault_seed.unwrap_or(0),
        ..RetryPolicy::default()
    };
    let salt = sim_server::key::fnv1a64(path.as_bytes());
    let mut attempt = 0u32;
    let result = loop {
        match http::request(&cfg.addr, method, path, body.as_bytes(), timeout) {
            Err(e) if transient(&e) && attempt + 1 < policy.budget => {
                let wait = policy.backoff_ms(salt, attempt);
                eprintln!(
                    "request to {} failed ({e}); retrying in {wait} ms (attempt {} of {})",
                    cfg.addr,
                    attempt + 2,
                    policy.budget
                );
                std::thread::sleep(Duration::from_millis(wait));
                attempt += 1;
            }
            other => break other,
        }
    };
    match result {
        Ok((200, body)) => {
            let mut out = io::stdout();
            if cfg.metrics {
                // Human-facing rendering: aligned columns, histogram
                // families summarized as derived percentiles.
                let page = String::from_utf8_lossy(&body);
                let _ = out.write_all(metrics::pretty(&page).as_bytes());
            } else {
                let _ = out.write_all(&body);
            }
            let _ = out.flush();
            0
        }
        Ok((status, body)) => {
            eprintln!(
                "server returned {status}: {}",
                String::from_utf8_lossy(&body).trim_end()
            );
            1
        }
        Err(e) => {
            eprintln!("request to {} failed: {e}", cfg.addr);
            1
        }
    }
}
