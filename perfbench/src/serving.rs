//! The two serving workloads.
//!
//! * `serve-zipf` — one `harness serve` with a bounded cache; a seeded
//!   Zipf stream of 1-8-cell sweeps (plus cell GETs) over a key space
//!   larger than the cache, with every twentieth a cold eight-cell
//!   sweep under a fresh pass pipeline, open loop at a fixed rate; then
//!   the stream without cold sweeps closed loop on two connections.
//! * `route-mixed` — `harness route` over two `serve` shards with cold
//!   caches; one connection sends full-grid bulk sweeps back to back, each
//!   under a fresh pass pipeline (every cell misses), while the other
//!   sends single-cell interactive probes back to back, every twentieth of
//!   them under a fresh pass pipeline too.
//!
//! Every response is kept and compared byte for byte with the offline
//! reference after its phase, so checking costs the load nothing.

use crate::Ctx;
use perfbench::fleet::{self, Proc};
use perfbench::loadgen::{
    closed_loop, distinct_pipelines, open_loop, probe_stream, zipf_workload, Clock, Sample,
    Scheduled, Sweep, ZipfStream, GRID_CELLS, ZIPF_CAPACITY,
};
use perfbench::offline::{grid_request, sweep_request, Offline};
use perfbench::{paper_err_pct, stats, Report, Tally};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Handler threads of every `serve` / `route` process.
pub const WORKERS: &str = "2";
/// Slices per run. Each slice starts its own server (fleet), warms it,
/// and then carries its share of the measured load, so the set-up samples
/// (`setup_s`, and serve-zipf's cold grids) are spread over the whole run
/// instead of bunched at its start, where one slow spell of the host would
/// set them all.
const ZIPF_SLICES: usize = 5;
const ROUTE_SLICES: usize = 8;

/// serve-zipf: open-loop rate (sweeps/s), and the share of each slice
/// spent in the open-loop (latency) phase; the rest is the closed-loop
/// (capacity) phase.
const ZIPF_RATE: f64 = 60.0;
const OPEN_SHARE: f64 = 0.7;
/// route-mixed: every this-many-th probe names a fresh pass pipeline, so it
/// misses and is evaluated beside the bulk batches — the case the
/// priority lanes exist for.
const PROBE_MISS_EVERY: usize = 20;
/// Unmeasured warm-up traffic at the start of each slice, seconds.
const WARMUP_SECS: f64 = 0.25;

/// What the traced run needs beyond the end-to-end report.
#[derive(Default)]
pub struct Observed {
    /// `/metrics` deltas over the measured phases.
    pub deltas: HashMap<String, f64>,
    /// How late the open-loop generator sent each request, ms.
    pub late_ms: Vec<f64>,
    /// p50 of the reported latencies, ms (for the tracing overhead).
    pub p50_ms: f64,
    /// Per-process request-trace directories.
    pub trace_dirs: Vec<PathBuf>,
    /// Client-observed sent-to-done time (us) of every measured sweep,
    /// by the trace id it was sent with.
    pub client_us: HashMap<String, f64>,
}

/// One response, kept for checking after its phase.
struct Response {
    /// The `X-Sim-Trace-Id` it was sent with.
    trace: String,
    /// Expected-body selector: index into the phase's request list.
    op: usize,
    /// `GET /v1/cell` follow-up rather than the sweep itself.
    get: bool,
    status: u16,
    body: Vec<u8>,
    sample: Sample,
}

fn call(addr: &str, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    fleet::request(addr, method, path, body.as_bytes(), &[]).unwrap_or((0, Vec::new()))
}

/// Trace ids of the requests this process sends, so the traced run can
/// join each client-side sample to the server's request log.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(0x5eed_0000_0000_0000);

/// Perform one exchange with a fresh trace id (`call(trace_id)`) and keep
/// its response with its timing.
fn timed(
    clock: Clock,
    due_us: u64,
    op: usize,
    get: bool,
    call: impl FnOnce(&str) -> (u16, Vec<u8>),
) -> Response {
    let trace = format!("{:016x}", NEXT_TRACE.fetch_add(1, Ordering::Relaxed));
    let sent_us = clock.now_us();
    let (status, body) = call(&trace);
    Response {
        trace,
        op,
        get,
        status,
        body,
        sample: Sample {
            due_us,
            sent_us,
            done_us: clock.now_us(),
        },
    }
}

fn trace_args(dir: Option<&Path>, name: &str, dirs: &mut Vec<PathBuf>) -> io::Result<Vec<String>> {
    let Some(dir) = dir else {
        return Ok(Vec::new());
    };
    let d = dir.join(name);
    std::fs::create_dir_all(&d)?;
    dirs.push(d.clone());
    Ok(vec![
        "--trace-dir".into(),
        d.display().to_string(),
        "--trace-sample".into(),
        "1".into(),
    ])
}

/// `call` with the trace id header set.
fn traced_call(addr: &str, method: &str, path: &str, body: &str, trace: &str) -> (u16, Vec<u8>) {
    let header = [(sim_server::reqtrace::TRACE_HEADER, trace)];
    fleet::request(addr, method, path, body.as_bytes(), &header).unwrap_or((0, Vec::new()))
}

/// Sent-to-done time (us) of each sweep response, by trace id.
fn client_us<'a>(done: impl IntoIterator<Item = &'a Response>) -> HashMap<String, f64> {
    done.into_iter()
        .filter(|r| !r.get)
        .map(|r| {
            let us = r.sample.done_us.saturating_sub(r.sample.sent_us) as f64;
            (r.trace.clone(), us)
        })
        .collect()
}

fn latencies(r: &[Response]) -> Vec<f64> {
    r.iter().map(|r| r.sample.latency_ms()).collect()
}

/// Report p50/p99 of `lat` with their sample counts.
fn percentiles(report: &mut Report, lat: &[f64], what: &str) {
    report.metric("p50_ms", stats::quantile(lat, 0.5), "ms");
    report.metric("p99_ms", stats::quantile(lat, 0.99), "ms");
    report.fact(format!("{what}_latency_samples"), lat.len());
    report.fact("p99_samples_beyond", stats::beyond(lat.len(), 0.99));
}

/// Sweeps that bring a cold server to the stream's starting state: the
/// `capacity` most popular keys, in rank order, at most 8 cells a sweep.
fn warm_plan(ranking: &[usize], capacity: usize) -> Vec<Sweep> {
    let mut plan: Vec<Sweep> = Vec::new();
    for &k in ranking.iter().take(capacity) {
        let (p, c) = (k / GRID_CELLS, k % GRID_CELLS);
        match plan.last_mut() {
            Some(s) if s.pipeline == p && s.cells.len() < 8 => s.cells.push(c),
            _ => plan.push(Sweep {
                pipeline: p,
                cells: vec![c],
                get: None,
            }),
        }
    }
    plan
}

/// Add the `/metrics` deltas between two scrapes to `total`.
fn add(
    total: &mut HashMap<String, f64>,
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
) {
    for (k, v) in after {
        *total.entry(k.clone()).or_default() += v - before.get(k).copied().unwrap_or(0.0);
    }
}

pub fn zipf(ctx: &Ctx, tally: &Tally, trace: Option<&Path>) -> io::Result<(Report, Observed)> {
    let mut report = Report::default();
    let mut obs = Observed::default();
    let (keys, stream) = zipf_workload(ctx.seed, ZIPF_RATE);
    let slice_secs = ctx.seconds / ZIPF_SLICES as f64;
    let open_secs = slice_secs * OPEN_SHARE;
    let closed_secs = slice_secs - open_secs;
    // Each slice replays its share of the open-loop stream on schedule.
    // Warm-up and the closed-loop phases send a stream of the same seed
    // without cold sweeps back to back, so capacity measures the request
    // path rather than eight-cell evaluations.
    let n_open = (ZIPF_RATE * open_secs).ceil() as usize;
    let open_ops = stream.generate(&keys, ZIPF_SLICES * n_open);
    let hot = ZipfStream {
        cold_every: 0,
        ..stream.clone()
    };
    let mut warmup_ops = hot.generate(&keys, 512 + (1 << 16));
    let closed_ops = warmup_ops.split_off(512);
    let is_cold = |s: &Sweep| s.pipeline >= keys.pipelines.len();
    let n_cold = open_ops.iter().filter(|o| is_cold(&o.sweep)).count();
    let open_slices: Vec<Vec<Scheduled>> = open_ops
        .chunks(n_open)
        .map(|c| {
            let t0 = c[0].at_us;
            c.iter()
                .map(|op| Scheduled {
                    at_us: op.at_us - t0,
                    sweep: op.sweep.clone(),
                })
                .collect()
        })
        .collect();

    // Reference entries for the whole key space and every cold sweep
    // (test scale is cheap).
    sim_pool::set_threads(2);
    let mut offline = Offline::new(
        keys.pipelines
            .iter()
            .cloned()
            .chain(stream.cold_pipelines(&keys, n_cold).into_iter().map(Some))
            .collect(),
    );
    offline.ensure(
        (0..keys.len())
            .chain(open_ops.iter().flat_map(|o| o.sweep.keys()))
            .map(|k| (k / GRID_CELLS, k % GRID_CELLS)),
    );
    let warm = warm_plan(&keys.ranking, ZIPF_CAPACITY);
    let names = offline.bench_names.clone();
    let pipes = offline.pipelines().to_vec();
    let body_of = |s: &Sweep| sweep_request(pipes[s.pipeline].as_deref(), &s.cells, &names);
    let grids: Vec<String> = (0..keys.pipelines.len())
        .map(|p| offline.grid_body(p))
        .collect();
    let warm_expected: Vec<String> = warm
        .iter()
        .map(|s| offline.sweep_body(s.pipeline, &s.cells))
        .collect();

    // A sweep (response `op`) and its cell GET, if any.
    let send = |addr: &str, s: &Sweep, op: usize, clock: Clock, due: u64| {
        let sweep = timed(clock, due, op, false, |id| {
            traced_call(addr, "POST", "/v1/sweep", &body_of(s), id)
        });
        let done = sweep.sample.done_us;
        let mut out = vec![sweep];
        if let Some(j) = s.get {
            let key = offline.cell_key(s.pipeline, s.cells[j]);
            out.push(timed(clock, done, op, true, |id| {
                traced_call(addr, "GET", &format!("/v1/cell/{key}"), "", id)
            }));
        }
        out
    };

    let capacity = ZIPF_CAPACITY.to_string();
    let mut args: Vec<String> = ["serve", "--workers", WORKERS, "--capacity", &capacity]
        .map(String::from)
        .to_vec();
    args.extend(trace_args(trace, "serve", &mut obs.trace_dirs)?);
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (mut setup, mut grid_s, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut warmup, mut open, mut closed) = (Vec::new(), Vec::new(), Vec::new());
    let mut closed_elapsed = Duration::ZERO;
    for (k, slice) in open_slices.iter().enumerate() {
        // Set-up: spawn to ready, ready meaning the cache holds the
        // stream's starting state. It first sweeps the full grid cold
        // under every pipeline of the key space (the `wall_s` samples),
        // then warms the most popular keys.
        let t0 = Instant::now();
        let server = Proc::server(&ctx.harness, &argv)?;
        let addr = server.addr.as_str();
        for (p, expected) in grids.iter().enumerate() {
            let g0 = Instant::now();
            let (status, body) = call(
                addr,
                "POST",
                "/v1/sweep",
                &grid_request(pipes[p].as_deref()),
            );
            grid_s.push(g0.elapsed().as_secs_f64());
            tally.check(
                status == 200 && body == expected.as_bytes(),
                "cold full-grid sweep differs from offline",
            );
        }
        for (s, expected) in warm.iter().zip(&warm_expected) {
            let (status, body) = call(addr, "POST", "/v1/sweep", &body_of(s));
            tally.check(
                status == 200 && body == expected.as_bytes(),
                "warm-up sweep differs from offline",
            );
        }
        setup.push(t0.elapsed().as_secs_f64());

        // Warm-up, unmeasured: lazy allocation in the fresh process is
        // done before timing starts.
        let (w, _) = closed_loop(2, secs(WARMUP_SECS), |i, c, d| {
            let op = i % warmup_ops.len();
            send(addr, &warmup_ops[op].sweep, op, c, d)
        });
        warmup.extend(w);
        let before = fleet::scrape(addr)?;
        let base = k * n_open;
        open.extend(open_loop(slice, 2, secs(open_secs), |i, c, d| {
            send(addr, &slice[i].sweep, base + i, c, d)
        }));
        let base = closed.iter().filter(|r: &&Response| !r.get).count();
        let (c, elapsed) = closed_loop(2, secs(closed_secs), |i, c, d| {
            send(
                addr,
                &closed_ops[(base + i) % closed_ops.len()].sweep,
                base + i,
                c,
                d,
            )
        });
        closed_elapsed += elapsed;
        closed.extend(c);
        add(&mut obs.deltas, &before, &fleet::scrape(addr)?);
        rss.push(server.peak_rss_mb());
        server.shutdown();
    }

    // Check every byte.
    let check = |ops: &[Scheduled], r: &Response| {
        let s = &ops[r.op % ops.len()].sweep;
        let expected = if r.get {
            offline.cell_body(s.pipeline, s.cells[s.get.unwrap()])
        } else {
            offline.sweep_body(s.pipeline, &s.cells)
        };
        tally.check(
            r.status == 200 && r.body == expected.as_bytes(),
            &format!(
                "response {} (status {}) differs from offline",
                r.op, r.status
            ),
        );
    };
    warmup.iter().for_each(|r| check(&warmup_ops, r));
    open.iter().for_each(|r| check(&open_ops, r));
    closed.iter().for_each(|r| check(&closed_ops, r));

    let lat = latencies(&open);
    obs.p50_ms = stats::quantile(&lat, 0.5);
    obs.late_ms = open.iter().map(|r| r.sample.late_ms()).collect();
    obs.client_us = client_us(open.iter().chain(&closed));
    let closed_cells: usize = closed
        .iter()
        .filter(|r| !r.get)
        .map(|r| closed_ops[r.op % closed_ops.len()].sweep.cells.len())
        .sum();
    let closed_s = closed_elapsed.as_secs_f64();
    report.metric("rss_mb", stats::median(&rss), "MiB");
    report.metric("wall_s", stats::median(&grid_s), "s");
    report.metric("paper_err_pct", paper_err_pct(&grids[0]), "%");
    percentiles(&mut report, &lat, "open_loop");
    report.metric("peak_rps", closed.len() as f64 / closed_s, "req/s");
    report.metric("cells_per_s", closed_cells as f64 / closed_s, "cells/s");
    report.metric("setup_s", stats::median(&setup), "s");
    let d = &obs.deltas;
    let (hits, misses) = (
        d.get("sim_server_cache_hits").copied().unwrap_or(0.0),
        d.get("sim_server_cache_misses").copied().unwrap_or(0.0),
    );
    report.fact("scale", "test");
    report.fact("capacity", ZIPF_CAPACITY);
    report.fact("key_space", keys.len());
    report.fact(
        "cell_hit_ratio",
        format!("{:.4}", hits / (hits + misses).max(1.0)),
    );
    report.fact("open_loop_rate_per_s", ZIPF_RATE);
    report.fact(
        "cold_sweeps",
        open.iter()
            .filter(|r| !r.get && is_cold(&open_ops[r.op].sweep))
            .count(),
    );
    report.fact("closed_loop_connections", 2);
    report.fact("closed_loop_requests", closed.len());
    report.fact("wall_s_samples", grid_s.len());
    report.fact("slices", ZIPF_SLICES);
    Ok((report, obs))
}

pub fn route(ctx: &Ctx, tally: &Tally, trace: Option<&Path>) -> io::Result<(Report, Observed)> {
    let mut report = Report::default();
    let mut obs = Observed::default();
    let slice_secs = ctx.seconds / ROUTE_SLICES as f64;
    // Probes are sent back to back, so their send times are unused.
    let probes = probe_stream(ctx.seed, 1.0, 1 << 16, PROBE_MISS_EVERY);
    let warmup_probes = probe_stream(ctx.seed ^ 0xc105_ed00, 1.0, 8192, 0);
    // Fresh pipelines: probe misses take them from the front (pipeline
    // `p` of a probe is `probe_fresh[p - 1]`), bulk sweeps from the back.
    let mut probe_fresh = distinct_pipelines(ctx.seed, 6144);
    let bulk = probe_fresh.split_off(4096);

    sim_pool::set_threads(2);
    let mut offline = Offline::new(
        std::iter::once(None)
            .chain(probe_fresh.iter().cloned().map(Some))
            .collect(),
    );
    offline.ensure((0..GRID_CELLS).map(|c| (0, c)));
    let names = offline.bench_names.clone();
    let grid0 = offline.grid_body(0);
    let pipes = offline.pipelines().to_vec();
    let probe = |addr: &str, s: &Sweep, op: usize, clock: Clock, due: u64| {
        let body = sweep_request(pipes[s.pipeline].as_deref(), &s.cells, &names);
        vec![timed(clock, due, op, false, |id| {
            traced_call(addr, "POST", "/v1/sweep", &body, id)
        })]
    };

    let mut shard_args: Vec<Vec<String>> = Vec::new();
    for s in 0..2 {
        let mut args: Vec<String> = ["serve", "--workers", WORKERS].map(String::from).to_vec();
        args.extend(trace_args(
            trace,
            &format!("shard{s}"),
            &mut obs.trace_dirs,
        )?);
        shard_args.push(args);
    }
    let router_trace = trace_args(trace, "router", &mut obs.trace_dirs)?;
    let (mut setup, mut rss) = (Vec::new(), Vec::new());
    let (mut warmup, mut probed, mut bulk_done) = (Vec::new(), Vec::new(), Vec::new());
    let (mut elapsed, mut bulk_elapsed) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..ROUTE_SLICES {
        // Set-up: two shards and the router, spawn to ready, ready meaning
        // the probe cells are cached (one full-grid sweep through the
        // router).
        let t0 = Instant::now();
        let mut procs = Vec::new();
        for args in &shard_args {
            let argv: Vec<&str> = args.iter().map(String::as_str).collect();
            procs.push(Proc::server(&ctx.harness, &argv)?);
        }
        let shards = format!("{},{}", procs[0].addr, procs[1].addr);
        let mut args: Vec<String> = ["route", "--workers", WORKERS, "--shards", &shards]
            .map(String::from)
            .to_vec();
        args.extend(router_trace.iter().cloned());
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        procs.push(Proc::server(&ctx.harness, &argv)?);
        let addr = procs[2].addr.as_str();
        let (status, body) = call(addr, "POST", "/v1/sweep", &grid_request(None));
        tally.check(
            status == 200 && body == grid0.as_bytes(),
            "routed warm-up grid differs from offline",
        );
        setup.push(t0.elapsed().as_secs_f64());

        let (w, _) = closed_loop(2, secs(WARMUP_SECS), |i, c, d| {
            let op = i % warmup_probes.len();
            probe(addr, &warmup_probes[op].sweep, op, c, d)
        });
        warmup.extend(w);
        let before = fleet::scrape(addr)?;
        // One connection sends bulk sweeps back to back, the other probes.
        let (bulk_base, probe_base) = (bulk_done.len(), probed.len());
        let ((b, b_elapsed), (p, p_elapsed)) = std::thread::scope(|s| {
            let bulk_lane = s.spawn(|| {
                closed_loop(1, secs(slice_secs), |i, clock, due| {
                    let op = bulk_base + i;
                    vec![timed(clock, due, op, false, |id| {
                        traced_call(
                            addr,
                            "POST",
                            "/v1/sweep",
                            &grid_request(Some(&bulk[op % bulk.len()])),
                            id,
                        )
                    })]
                })
            });
            let probed = closed_loop(1, secs(slice_secs), |i, c, d| {
                let op = probe_base + i;
                probe(addr, &probes[op % probes.len()].sweep, op, c, d)
            });
            (bulk_lane.join().expect("bulk lane does not panic"), probed)
        });
        bulk_done.extend(b);
        probed.extend(p);
        bulk_elapsed += b_elapsed;
        elapsed += p_elapsed;
        add(&mut obs.deltas, &before, &fleet::scrape(addr)?);
        rss.push(procs.iter().map(Proc::peak_rss_mb).sum::<f64>());
        shutdown_fleet(procs);
    }

    // Check every byte: probes against their own pipeline's offline cell,
    // each bulk sweep against its own pipeline's offline grid.
    let phases = [(&warmup_probes, &warmup), (&probes, &probed)];
    offline.ensure(phases.iter().flat_map(|(ops, done)| {
        done.iter().map(|r| {
            let s = &ops[r.op % ops.len()].sweep;
            (s.pipeline, s.cells[0])
        })
    }));
    for (ops, done) in phases {
        for r in done.iter() {
            let s = &ops[r.op % ops.len()].sweep;
            tally.check(
                r.status == 200 && r.body == offline.sweep_body(s.pipeline, &s.cells).as_bytes(),
                &format!("probe {} (status {}) differs from offline", r.op, r.status),
            );
        }
    }
    let first = offline.pipelines().len();
    for r in &bulk_done {
        offline.push_pipeline(Some(bulk[r.op % bulk.len()].clone()));
    }
    offline.ensure(
        (first..offline.pipelines().len()).flat_map(|p| (0..GRID_CELLS).map(move |c| (p, c))),
    );
    for (n, r) in bulk_done.iter().enumerate() {
        tally.check(
            r.status == 200 && r.body == offline.grid_body(first + n).as_bytes(),
            &format!(
                "bulk sweep {} (status {}) differs from offline",
                r.op, r.status
            ),
        );
    }

    let lat = latencies(&probed);
    obs.p50_ms = stats::quantile(&lat, 0.5);
    obs.client_us = client_us(probed.iter().chain(&bulk_done));
    let bulk_s: Vec<f64> = bulk_done
        .iter()
        .map(|r| (r.sample.done_us - r.sample.sent_us) as f64 / 1e6)
        .collect();
    let misses = probed
        .iter()
        .filter(|r| probes[r.op % probes.len()].sweep.pipeline > 0)
        .count();
    report.metric("rss_mb", stats::median(&rss), "MiB");
    report.metric("wall_s", stats::median(&bulk_s), "s");
    report.metric("paper_err_pct", paper_err_pct(&grid0), "%");
    percentiles(&mut report, &lat, "probe");
    report.metric(
        "peak_rps",
        probed.len() as f64 / elapsed.as_secs_f64(),
        "req/s",
    );
    report.metric(
        "cells_per_s",
        (bulk_done.len() * GRID_CELLS) as f64 / bulk_elapsed.as_secs_f64(),
        "cells/s",
    );
    report.metric("setup_s", stats::median(&setup), "s");
    report.fact("scale", "test");
    report.fact("shards", 2);
    report.fact("bulk_sweeps", bulk_done.len());
    report.fact("probe_misses", misses);
    report.fact("slices", ROUTE_SLICES);
    Ok((report, obs))
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Router first (it forwards the shutdown fleet-wide), then the shards.
fn shutdown_fleet(mut procs: Vec<Proc>) {
    let router = procs.pop().expect("router is last");
    router.shutdown();
    for p in procs {
        p.shutdown();
    }
}
