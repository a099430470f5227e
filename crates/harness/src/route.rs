//! `harness route` — sharded multi-process serving.
//!
//! A thin HTTP front that partitions the cell key space across N backend
//! `harness serve` processes with consistent hashing
//! ([`sim_server::router::Ring`]): the [`sim_server::key::CellKey`] is a
//! pure function of the spec, so every cell deterministically lands on
//! the same shard, shard caches stay hot, and in-flight coalescing keeps
//! working inside each backend.
//!
//! The router speaks the same public surface as a single `harness serve`
//! (`/v1/sweep`, `/v1/cell/<key>`, `/metrics`, `/healthz`,
//! `/v1/shutdown`) but fans the work out over the backends' internal
//! `POST /v1/cells` data plane, which returns **raw encoded entries**
//! (`checkpoint::encode_entry`) instead of formatted rows. That is the
//! load-bearing design choice: ratio columns (speedup/power/energy) are
//! computed over the *request's* result set, so the router must collect
//! all payloads first and format once — per-shard formatting would
//! compute ratios over shard-local subsets and break the byte-identity
//! contract. With every shard healthy, a routed full-grid sweep is
//! byte-identical to single-process `harness serve` and to offline
//! `harness jsonl`.
//!
//! Failure semantics (DESIGN.md §13, §16):
//! * transport failures are retried with seeded exponential backoff and
//!   jitter within a per-request budget (`--retry-budget`); injected
//!   chaos faults skip the real sleep, so chaos runs stay fast;
//! * each shard has a circuit breaker (`--breaker-threshold`
//!   consecutive transport failures → open; a cooldown later, one
//!   half-open `/healthz` probe re-closes or re-opens it), so a dead
//!   shard stops eating the retry budget of every sweep;
//! * with `--replicas R`, every key's cells can fail over to the next
//!   `R-1` distinct successor shards on the ring; a down or erroring
//!   shard only degrades to structured `status=fail`/`shard-down` rows
//!   once *every* owner is down — the sweep still answers 200;
//! * a busy shard (429) is retried after its `Retry-After` (capped;
//!   malformed/missing headers fall back to a documented 1 s default),
//!   and only once the budget is spent does the whole sweep 429,
//!   propagating the maximum `Retry-After` (already-computed cells are
//!   cached on their shards, so the retry is cheap);
//! * `/healthz` aggregates shard liveness (503 lists the casualties);
//!   `/metrics` sums shard counters and histograms (declared gauges
//!   such as uptime take the max) and appends `sim_router_*` lines, including per-shard breaker states.

use crate::checkpoint;
use crate::export;
use crate::runner::{CellEntry, CellError, FailKind, SuiteResults};
use crate::serve::{make_tracer, parse_sweep, precision_to_wire, spec_coord};
use sim_faults::FaultPlan;
use sim_server::breaker::{Breaker, Decision};
use sim_server::http::{self, Request, Response, Server, StopHandle};
use sim_server::json;
use sim_server::key::{fnv1a64, CellKey, CellSpec};
use sim_server::metrics as server_metrics;
use sim_server::reqtrace::{us_since, RequestRecord, TraceId, Tracer, TRACE_HEADER};
use sim_server::retry::{self, RetryPolicy};
use sim_server::router::Ring;
use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use telemetry::log;

/// Router configuration (CLI flags map onto this 1:1).
#[derive(Clone, Debug)]
pub struct RouteConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Backend `harness serve` addresses. Shard identity is positional:
    /// reordering the list remaps the key space (and cools every cache).
    pub shards: Vec<String>,
    /// Owners per key (`--replicas`): 1 disables failover; R gives every
    /// key a primary plus `R-1` distinct ring-successor followers.
    pub replicas: usize,
    /// Max attempts per shard sub-request (`--retry-budget`, min 1).
    pub retry_budget: u32,
    /// Consecutive transport failures that trip a shard's breaker
    /// (`--breaker-threshold`).
    pub breaker_threshold: u32,
    /// Deterministic *network* chaos seed (`--fault-seed`/`FAULT_SEED`):
    /// the router injects connect refusals, stalls, truncations and
    /// garbage status lines into its own fan-out client. Never installed
    /// ambiently — cell evaluation on the shards is untouched.
    pub fault_seed: Option<u64>,
    /// Shard sub-request timeout override in ms (`--timeout-ms`);
    /// `None` uses [`http::DEFAULT_TIMEOUT_MS`].
    pub timeout_ms: Option<u64>,
    /// Request-trace output directory (`--trace-dir`); `None` disables
    /// tracing. The router's ingress trace id is stamped onto every
    /// shard sub-request, so shard traces correlate by id.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Deterministic 1-in-N trace sampling (`--trace-sample`).
    pub trace_sample: u64,
    /// Force-sample requests slower than this (`--slow-ms`).
    pub slow_ms: Option<u64>,
    /// Handler worker threads for the router front (`--workers`).
    pub workers: usize,
    /// Sweeps naming at most this many cells ride the interactive lane
    /// (`--priority-cells`); larger sweeps are bulk.
    pub priority_cells: usize,
}

/// An open breaker waits this long before granting a half-open probe.
const BREAKER_COOLDOWN: Duration = Duration::from_millis(500);
/// Cap on how long one 429 `Retry-After` is honored per retry: enough to
/// let real backpressure drain, short enough that a sweep's retry budget
/// is bounded in wall-clock time.
const RETRY_AFTER_CAP_MS: u64 = 250;

#[derive(Default)]
struct RouterMetrics {
    requests: u64,
    sweeps: u64,
    cells_routed: u64,
    shard_errors: u64,
    rejected: u64,
    bad_requests: u64,
    retries: u64,
    failovers: u64,
}

/// What one shard's `/v1/cells` sub-request produced.
enum ShardOutcome {
    /// Payloads by content address.
    Cells(HashMap<CellKey, String>),
    /// Backend backpressure: retry the whole sweep later.
    Busy { retry_after: u64 },
    /// Unreachable or answered with an error; its cells become
    /// `shard-down` failure rows.
    Down(String),
}

struct Router {
    shards: Vec<String>,
    ring: Ring,
    /// Benchmark names in suite order (identical for both scales).
    bench_names: Vec<String>,
    metrics: Mutex<RouterMetrics>,
    stop: StopHandle,
    tracer: Tracer,
    /// One circuit breaker per shard, indexed like `shards`.
    breakers: Vec<Mutex<Breaker>>,
    policy: RetryPolicy,
    /// Owners per key (≥ 1); clamped to the shard count by the ring.
    replicas: usize,
    /// Network chaos plan for the fan-out client (`--fault-seed`).
    net_plan: Option<FaultPlan>,
    /// Shard sub-request timeout (sweeps may simulate the full grid).
    sweep_timeout: Duration,
    /// Health probes and metric scrapes must not hang the front.
    probe_timeout: Duration,
    /// The HTTP front's per-lane dispatch counters, shared with the
    /// server so `/metrics` can render them as `sim_router_lane_*`.
    lanes: std::sync::Arc<http::LaneMetrics>,
}

/// Build the `/v1/cells` sub-request body for one shard's specs. All
/// specs of one sweep share scale, fault seed and pass pipeline, so they
/// are lifted from the first spec.
fn cells_body(specs: &[&CellSpec]) -> String {
    let items: Vec<String> = specs
        .iter()
        .map(|s| {
            format!(
                "{{\"bench\":\"{}\",\"version\":\"{}\",\"precision\":\"{}\"}}",
                json::escape(&s.bench),
                json::escape(&s.version),
                precision_to_wire(s.precision)
            )
        })
        .collect();
    let seed = specs[0]
        .fault_seed
        .map(|s| format!(",\"fault_seed\":{s}"))
        .unwrap_or_default();
    let passes = specs[0]
        .passes
        .as_deref()
        .map(|p| format!(",\"passes\":\"{}\"", json::escape(p)))
        .unwrap_or_default();
    format!(
        "{{\"scale\":\"{}\"{seed}{passes},\"cells\":[{}]}}",
        json::escape(&specs[0].scale),
        items.join(",")
    )
}

/// Parse a `/v1/cells` response body (`<key> <payload>` lines).
fn parse_cells_response(body: &[u8]) -> Option<HashMap<CellKey, String>> {
    let text = std::str::from_utf8(body).ok()?;
    let mut out = HashMap::new();
    for line in text.lines() {
        let (keyhex, payload) = line.split_once(' ')?;
        out.insert(keyhex.parse::<CellKey>().ok()?, payload.to_string());
    }
    Some(out)
}

fn shard_down_entry(message: String) -> CellEntry {
    CellEntry::Failed(CellError {
        kind: FailKind::ShardDown,
        message,
        attempts: 1,
        backoff_ms: 0,
    })
}

impl Router {
    fn new(
        cfg: &RouteConfig,
        stop: StopHandle,
        lanes: std::sync::Arc<http::LaneMetrics>,
    ) -> io::Result<Router> {
        let bench_names: Vec<String> = hpc_kernels::test_suite()
            .iter()
            .map(|b| b.name().to_string())
            .collect();
        let tracer = make_tracer(
            &cfg.trace_dir,
            cfg.trace_sample,
            cfg.slow_ms,
            &format!("sim-router {}", cfg.addr),
        )?;
        let sweep_timeout =
            Duration::from_millis(cfg.timeout_ms.unwrap_or(http::DEFAULT_TIMEOUT_MS));
        let probe_timeout =
            sweep_timeout.min(Duration::from_millis(http::DEFAULT_PROBE_TIMEOUT_MS));
        Ok(Router {
            ring: Ring::new(cfg.shards.len()),
            breakers: cfg
                .shards
                .iter()
                .map(|_| Mutex::new(Breaker::new(cfg.breaker_threshold, BREAKER_COOLDOWN)))
                .collect(),
            shards: cfg.shards.clone(),
            bench_names,
            metrics: Mutex::new(RouterMetrics::default()),
            stop,
            tracer,
            policy: RetryPolicy {
                budget: cfg.retry_budget.max(1),
                seed: cfg.fault_seed.unwrap_or(0),
                ..RetryPolicy::default()
            },
            replicas: cfg.replicas.max(1),
            // The chaos plan is scoped to the network ("net" fork of the
            // seed) and handed to the client per attempt — never
            // installed ambiently, so shard-side cell evaluation (which
            // reads the *ambient* plan) is untouched.
            net_plan: cfg.fault_seed.map(|s| FaultPlan::new(s).derive("net")),
            sweep_timeout,
            probe_timeout,
            lanes,
        })
    }

    fn breaker(&self, shard: usize) -> MutexGuard<'_, Breaker> {
        self.breakers[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// May `shard` take traffic right now? Consults the breaker; an open
    /// breaker past its cooldown grants one half-open `/healthz` probe
    /// (control-plane: deliberately not under chaos), whose outcome
    /// closes or re-opens the breaker.
    fn shard_available(&self, shard: usize) -> bool {
        let decision = self.breaker(shard).decide();
        match decision {
            Decision::Allow => true,
            Decision::Deny => false,
            Decision::Probe => {
                let ok = matches!(
                    http::request(
                        &self.shards[shard],
                        "GET",
                        "/healthz",
                        b"",
                        self.probe_timeout
                    ),
                    Ok((200, _))
                );
                let mut b = self.breaker(shard);
                if ok {
                    b.on_success();
                } else {
                    b.on_failure();
                }
                ok
            }
        }
    }

    fn note_retry(&self) {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retries += 1;
    }

    /// One shard sub-request with the full retry loop: transport
    /// failures back off (seeded; injected chaos skips the real sleep)
    /// and feed the shard's breaker; 429s wait out `Retry-After`
    /// (capped, defaulted when malformed) and retry. Returns only once
    /// the outcome is settled for this shard.
    fn call_shard(&self, shard: usize, specs: &[&CellSpec], id_hex: &str) -> ShardOutcome {
        let addr = &self.shards[shard];
        let body = cells_body(specs);
        let salt = fnv1a64(body.as_bytes());
        let mut attempt: u32 = 0;
        loop {
            let chaos = self.net_plan.as_ref().map(|p| {
                http::chaos_attempt_plan(p, "POST", "/v1/cells", body.as_bytes(), attempt)
            });
            let result = http::request_with_chaos(
                addr,
                "POST",
                "/v1/cells",
                &[(TRACE_HEADER, id_hex)],
                body.as_bytes(),
                self.sweep_timeout,
                chaos.as_ref(),
            );
            attempt += 1;
            match result {
                Ok((200, _, resp)) => {
                    self.breaker(shard).on_success();
                    return match parse_cells_response(&resp) {
                        Some(map) => ShardOutcome::Cells(map),
                        None => ShardOutcome::Down(format!(
                            "shard {addr} returned an unparseable cells response"
                        )),
                    };
                }
                Ok((429, headers, _)) => {
                    // The shard answered: transport is fine.
                    self.breaker(shard).on_success();
                    let retry_after = retry::parse_retry_after(
                        headers
                            .iter()
                            .find(|(k, _)| k == "retry-after")
                            .map(|(_, v)| v.as_str()),
                    );
                    if attempt >= self.policy.budget {
                        return ShardOutcome::Busy { retry_after };
                    }
                    self.note_retry();
                    std::thread::sleep(Duration::from_millis(
                        retry_after.saturating_mul(1000).min(RETRY_AFTER_CAP_MS),
                    ));
                }
                Ok((status, _, resp)) => {
                    // A non-2xx answer is the shard's deterministic
                    // verdict, not a transport flake: no retry.
                    self.breaker(shard).on_success();
                    return ShardOutcome::Down(format!(
                        "shard {addr} answered {status}: {}",
                        String::from_utf8_lossy(&resp).trim_end()
                    ));
                }
                Err(e) => {
                    self.breaker(shard).on_failure();
                    let msg = format!("shard {addr} unreachable: {e}");
                    if attempt >= self.policy.budget {
                        return ShardOutcome::Down(msg);
                    }
                    self.note_retry();
                    // Backoff is recorded into the policy's seeded
                    // schedule; injected chaos faults skip the real
                    // sleep so chaotic sweeps stay fast.
                    if !sim_faults::is_injected(&msg) {
                        std::thread::sleep(Duration::from_millis(
                            self.policy.backoff_ms(salt, attempt - 1),
                        ));
                    }
                }
            }
        }
    }

    fn handle(&self, req: &Request) -> Response {
        let t0 = Instant::now();
        // One trace id per request, accepted inbound or generated here;
        // `sweep` stamps it onto every shard sub-request. Header-only:
        // response bytes never carry it.
        let id = TraceId::from_header(req.header(TRACE_HEADER));
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .requests += 1;
        let resp = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/metrics") => self.metrics_page(),
            ("POST", "/v1/sweep") => {
                let mut rec = RequestRecord::new(id, &req.path);
                let resp = self.sweep(req, &mut rec);
                rec.status = resp.status;
                rec.total_us = us_since(t0);
                self.tracer.finish(&rec);
                resp
            }
            ("POST", "/v1/shutdown") => {
                // Best-effort fan-out: the fleet is one logical service,
                // so a router shutdown drains the backends too.
                for addr in &self.shards {
                    if let Err(e) =
                        http::request(addr, "POST", "/v1/shutdown", b"", self.probe_timeout)
                    {
                        log::progress(&format!("warning: shutdown of shard {addr} failed: {e}"));
                    }
                }
                self.stop.stop();
                Response::text(200, "shutting down\n")
            }
            ("GET", path) if path.starts_with("/v1/cell/") => {
                self.cell_proxy(path, &path["/v1/cell/".len()..])
            }
            _ => Response::json(404, "{\"error\":\"no such route\"}\n"),
        };
        resp.with_header(TRACE_HEADER, &id.to_string())
    }

    fn bad(&self, msg: &str) -> Response {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .bad_requests += 1;
        Response::json(400, format!("{{\"error\":\"{}\"}}\n", json::escape(msg)))
    }

    /// Probe every shard concurrently; healthy means HTTP 200.
    fn probe_shards(&self) -> Vec<Result<(), String>> {
        let mut states: Vec<Result<(), String>> = Vec::with_capacity(self.shards.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|addr| {
                    scope.spawn(move || {
                        match http::request(addr, "GET", "/healthz", b"", self.probe_timeout) {
                            Ok((200, _)) => Ok(()),
                            Ok((status, _)) => Err(format!("answered {status}")),
                            Err(e) => Err(format!("unreachable: {e}")),
                        }
                    })
                })
                .collect();
            for h in handles {
                states.push(h.join().unwrap_or_else(|_| Err("probe panicked".into())));
            }
        });
        states
    }

    fn healthz(&self) -> Response {
        let states = self.probe_shards();
        if states.iter().all(Result::is_ok) {
            return Response::text(200, "ok\n");
        }
        let mut body = String::new();
        for (i, (addr, state)) in self.shards.iter().zip(&states).enumerate() {
            match state {
                Ok(()) => body.push_str(&format!("shard {i} {addr}: ok\n")),
                Err(e) => body.push_str(&format!("shard {i} {addr}: {e}\n")),
            }
        }
        Response::text(503, body)
    }

    /// Aggregate shard `/metrics` pages ([`server_metrics::aggregate_pages`])
    /// and append the router's own counters.
    fn metrics_page(&self) -> Response {
        let mut pages: Vec<String> = Vec::new();
        let mut up = 0usize;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|addr| {
                    scope.spawn(move || {
                        match http::request(addr, "GET", "/metrics", b"", self.probe_timeout) {
                            Ok((200, body)) => String::from_utf8(body).ok(),
                            _ => None,
                        }
                    })
                })
                .collect();
            for h in handles {
                if let Some(page) = h.join().ok().flatten() {
                    pages.push(page);
                    up += 1;
                }
            }
        });
        let mut out = server_metrics::aggregate_pages(&pages);
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        // Typed router lines: the `# TYPE` declarations are what tells
        // a downstream aggregation that e.g. `sim_router_replicas` is a
        // gauge (max across pages), not a counter to sum.
        for (name, help, kind, v) in [
            (
                "sim_router_shards",
                "Backend shards configured on this router.",
                "gauge",
                self.shards.len() as u64,
            ),
            (
                "sim_router_shards_up",
                "Backend shards that answered the last metrics scrape.",
                "gauge",
                up as u64,
            ),
            (
                "sim_router_replicas",
                "Owners per cell key (1 = no failover).",
                "gauge",
                self.replicas as u64,
            ),
            (
                "sim_router_requests_total",
                "HTTP requests accepted by the router front.",
                "counter",
                m.requests,
            ),
            (
                "sim_router_sweeps_total",
                "Sweep requests routed.",
                "counter",
                m.sweeps,
            ),
            (
                "sim_router_cells_routed_total",
                "Distinct cells partitioned across shards.",
                "counter",
                m.cells_routed,
            ),
            (
                "sim_router_shard_errors_total",
                "Shard sub-requests that settled as errors.",
                "counter",
                m.shard_errors,
            ),
            (
                "sim_router_rejected_total",
                "Sweeps answered 429 because a shard stayed busy.",
                "counter",
                m.rejected,
            ),
            (
                "sim_router_bad_requests_total",
                "Requests rejected with 4xx other than 429.",
                "counter",
                m.bad_requests,
            ),
            (
                "sim_router_retries_total",
                "Shard sub-request retries.",
                "counter",
                m.retries,
            ),
            (
                "sim_router_failovers_total",
                "Cells re-routed to a replica owner.",
                "counter",
                m.failovers,
            ),
            (
                "sim_router_net_stall_recorded_ms_total",
                "Injected network stall time recorded (not slept).",
                "counter",
                http::net_stall_recorded_ms_total(),
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {v}\n"
            ));
        }
        drop(m);
        out.push_str(
            "# HELP sim_router_breaker_state Per-shard circuit breaker (0 closed, 1 half-open, 2 open).\n\
             # TYPE sim_router_breaker_state gauge\n",
        );
        for (i, b) in self.breakers.iter().enumerate() {
            let state = b.lock().unwrap_or_else(|e| e.into_inner()).state();
            out.push_str(&format!(
                "sim_router_breaker_state{{shard=\"{i}\"}} {}\n",
                state.code()
            ));
        }
        server_metrics::render_lanes("sim_router", &self.lanes.snapshot(), &mut out);
        Response::text(200, out)
    }

    /// Proxy a cell inspection to the shard that owns the key.
    fn cell_proxy(&self, path: &str, keyhex: &str) -> Response {
        let Ok(key) = keyhex.parse::<CellKey>() else {
            return self.bad("cell key must be 16 hex digits");
        };
        let addr = &self.shards[self.ring.shard_of(key)];
        match http::request(addr, "GET", path, b"", self.probe_timeout) {
            Ok((status, body)) => Response::json(status, body),
            Err(e) => Response::json(
                503,
                format!(
                    "{{\"error\":\"shard {} unreachable: {}\"}}\n",
                    json::escape(addr),
                    json::escape(&e.to_string())
                ),
            ),
        }
    }

    fn sweep(&self, req: &Request, rec: &mut RequestRecord) -> Response {
        let started = Instant::now();
        let parsed = parse_sweep(&self.bench_names, &req.body);
        let parse_us = us_since(started);
        rec.span("parse", 0, parse_us);
        let cells = match parsed {
            Ok(c) => c,
            Err(msg) => return self.bad(&msg),
        };

        // Each distinct cell gets an owner list: the primary plus
        // `replicas - 1` distinct ring successors it may fail over to.
        struct PendingCell<'a> {
            spec: &'a CellSpec,
            owners: Vec<usize>,
            /// Next owner rank to try.
            rank: usize,
            last_err: Option<String>,
        }
        let mut seen: HashSet<CellKey> = HashSet::new();
        let mut pending: Vec<PendingCell<'_>> = Vec::new();
        for (spec, _) in &cells {
            let key = spec.key();
            if seen.insert(key) {
                pending.push(PendingCell {
                    spec,
                    owners: self.ring.owners(key, self.replicas),
                    rank: 0,
                    last_err: None,
                });
            }
        }
        {
            let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
            m.sweeps += 1;
            m.cells_routed += seen.len() as u64;
        }

        // Fan out in waves. Wave 0 targets every cell's first available
        // owner (the primary unless its breaker is open); a shard that
        // fails its whole retry budget sends its cells to the next wave,
        // which re-routes them to their next owner. A cell degrades to a
        // `shard-down` row only when every owner has been exhausted.
        let id_hex = rec.id.to_string();
        let mut payloads: HashMap<CellKey, String> = HashMap::new();
        let mut down: HashMap<CellKey, String> = HashMap::new();
        let mut shards_down: HashSet<usize> = HashSet::new();
        let mut wave = 0usize;
        while !pending.is_empty() {
            // Assign every pending cell to its next live owner, skipping
            // shards whose breaker denies traffic right now. Availability
            // is computed once per shard per wave.
            let mut available: HashMap<usize, bool> = HashMap::new();
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
            let mut exhausted: Vec<usize> = Vec::new();
            let mut failovers = 0u64;
            for (idx, cell) in pending.iter_mut().enumerate() {
                while cell.rank < cell.owners.len() {
                    let shard = cell.owners[cell.rank];
                    let ok = *available
                        .entry(shard)
                        .or_insert_with(|| self.shard_available(shard));
                    if ok {
                        break;
                    }
                    cell.last_err
                        .get_or_insert_with(|| format!("shard {shard} quarantined (breaker open)"));
                    cell.rank += 1;
                }
                if cell.rank >= cell.owners.len() {
                    exhausted.push(idx);
                } else {
                    if cell.rank > 0 {
                        failovers += 1;
                    }
                    groups[cell.owners[cell.rank]].push(idx);
                }
            }
            if failovers > 0 {
                self.metrics
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .failovers += failovers;
            }
            for idx in &exhausted {
                let cell = &pending[*idx];
                down.insert(
                    cell.spec.key(),
                    cell.last_err
                        .clone()
                        .unwrap_or_else(|| "no owner available".into()),
                );
            }
            if groups.iter().all(Vec::is_empty) {
                break;
            }

            // Contact this wave's shards concurrently, propagating the
            // ingress trace id so every shard's spans and log lines
            // carry it: the first on this thread, each other one on a
            // scoped thread. A panicking call settles as that shard
            // being down, not as a 500.
            let fanout_off = us_since(started);
            let call = |shard: usize| {
                let specs: Vec<&CellSpec> =
                    groups[shard].iter().map(|&i| pending[i].spec).collect();
                let shard_started = Instant::now();
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    self.call_shard(shard, &specs, &id_hex)
                }))
                .unwrap_or_else(|_| ShardOutcome::Down("sub-request panicked".into()));
                (outcome, us_since(shard_started))
            };
            let contacted: Vec<usize> = (0..groups.len())
                .filter(|&shard| !groups[shard].is_empty())
                .collect();
            let mut outcomes: Vec<Option<(ShardOutcome, u64)>> =
                (0..self.shards.len()).map(|_| None).collect();
            let (&first, rest) = contacted.split_first().expect("a wave contacts a shard");
            std::thread::scope(|scope| {
                let call = &call;
                let handles: Vec<_> = rest
                    .iter()
                    .map(|&shard| (shard, scope.spawn(move || call(shard))))
                    .collect();
                outcomes[first] = Some(call(first));
                for (shard, h) in handles {
                    outcomes[shard] = Some(h.join().expect("shard calls catch panics"));
                }
            });
            // One span per contacted shard; they overlap, all starting
            // at the wave's fan-out point. Failover waves carry a wave
            // suffix so traces show the re-route.
            for (i, o) in outcomes.iter().enumerate() {
                if let Some((_, dur_us)) = o {
                    let name = if wave == 0 {
                        format!("shard_{i}")
                    } else {
                        format!("shard_{i}_w{wave}")
                    };
                    rec.span(name, fanout_off, *dur_us);
                }
            }

            // Backpressure first: a busy shard makes the sweep
            // retryable as a whole (its siblings' finished cells are
            // cached, so the client's retry costs only the busy shard's
            // work).
            let max_retry = outcomes
                .iter()
                .flatten()
                .filter_map(|(o, _)| match o {
                    ShardOutcome::Busy { retry_after } => Some(*retry_after),
                    _ => None,
                })
                .max();
            if let Some(retry_after) = max_retry {
                self.metrics
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .rejected += 1;
                return Response::json(
                    429,
                    format!("{{\"error\":\"shard busy\",\"retry_after\":{retry_after}}}\n"),
                )
                .with_header("Retry-After", &retry_after.to_string());
            }

            // Settle this wave: resolved cells leave `pending`, cells on
            // a down shard advance to their next owner.
            let mut next_wave: Vec<usize> = Vec::new();
            for (shard, outcome) in outcomes.into_iter().enumerate() {
                match outcome {
                    None => {}
                    Some((ShardOutcome::Cells(map), _)) => payloads.extend(map),
                    Some((ShardOutcome::Busy { .. }, _)) => unreachable!("busy handled above"),
                    Some((ShardOutcome::Down(msg), _)) => {
                        self.metrics
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .shard_errors += 1;
                        shards_down.insert(shard);
                        log::progress(&format!("warning: {msg}"));
                        for &idx in &groups[shard] {
                            next_wave.push(idx);
                        }
                        for &idx in &groups[shard] {
                            let cell = &mut pending[idx];
                            cell.rank += 1;
                            cell.last_err = Some(msg.clone());
                        }
                    }
                }
            }
            next_wave.sort_unstable();
            let keep: HashSet<usize> = next_wave.into_iter().collect();
            let mut idx = 0usize;
            pending.retain(|_| {
                let k = keep.contains(&idx);
                idx += 1;
                k
            });
            wave += 1;
        }
        let shards_down = shards_down.len();

        // Assemble one SuiteResults over exactly the requested cells and
        // format once — the same shared `jsonl_row` path as the backends
        // and the offline artifact, which is what keeps routed bytes
        // identical to unrouted ones.
        let format_off = us_since(started);
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
            let key = spec.key();
            let entry = match payloads.get(&key) {
                Some(payload) => checkpoint::decode_entry(payload)
                    .unwrap_or_else(|| shard_down_entry("shard payload corrupt".into())),
                None => shard_down_entry(
                    down.get(&key)
                        .cloned()
                        .unwrap_or_else(|| "shard returned no payload for cell".into()),
                ),
            };
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
        rec.span("format", format_off, us_since(started) - format_off);
        rec.note("cells", seen.len());
        rec.note("shards", self.shards.len());
        rec.note("shards_down", shards_down);
        log::debug(&format!(
            "routed sweep: {} cells over {} shards in {} ms",
            seen.len(),
            self.shards.len(),
            started.elapsed().as_millis()
        ));
        Response::jsonl(200, body)
    }
}

// ---- entry points ----

/// A router running on a background thread (tests, embedding).
pub struct RunningRouter {
    pub addr: SocketAddr,
    stop: StopHandle,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl RunningRouter {
    /// Stop the router's acceptor and join its thread. Backends are left
    /// running (only `POST /v1/shutdown` drains the whole fleet).
    pub fn shutdown(self) -> io::Result<()> {
        self.stop.stop();
        self.thread
            .join()
            .map_err(|_| io::Error::other("router thread panicked"))?
    }
}

fn run_on(mut server: Server, cfg: RouteConfig) -> io::Result<()> {
    server.set_workers(cfg.workers);
    server.set_priority_cells(cfg.priority_cells);
    let stop = server.stop_handle();
    let router = Router::new(&cfg, stop, server.lane_metrics())?;
    server.run(|req| router.handle(req))
}

/// Bind and route on a background thread; returns the resolved address.
pub fn start(cfg: RouteConfig) -> io::Result<RunningRouter> {
    let server = Server::bind(&cfg.addr)?;
    let addr = server.local_addr()?;
    let stop = server.stop_handle();
    let thread = std::thread::Builder::new()
        .name("sim-router-acceptor".into())
        .spawn(move || run_on(server, cfg))?;
    Ok(RunningRouter { addr, stop, thread })
}

/// Bind and route on the calling thread (the `harness route` path).
/// Prints the resolved listen address to stdout first, so scripts
/// binding port 0 can discover the port.
pub fn route(cfg: RouteConfig) -> io::Result<()> {
    let server = Server::bind(&cfg.addr)?;
    let addr = server.local_addr()?;
    println!("listening on {addr}");
    io::stdout().flush()?;
    run_on(server, cfg)
}
