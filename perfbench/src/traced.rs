//! The traced run (`--trace 1`): per-layer metrics for one workload.
//!
//! * In-process: every simulator layer timed through its public functions
//!   on the test-scale grid the serving workloads evaluate, see
//!   [`crate::layers`].
//! * The workload is run twice at half length, once plain and once with
//!   `--trace-dir --trace-sample 1` on every process; the serving layers'
//!   numbers are `/metrics` `_sum`/`_count` deltas over the measured
//!   phases plus the request logs, joined by trace id.
//!
//! Layers a workload does not exercise report 0. Spans are written once
//! at the end: `layers.json` (Perfetto) and `self_time.txt`.

use crate::layers::{self, Spans};
use crate::serving::{self, Observed};
use crate::Ctx;
use perfbench::{fleet, stats, Report, Tally};
use std::collections::HashMap;
use std::fmt::Write;
use std::io;
use std::path::Path;

/// `_sum / _count` of a histogram's delta (0 with no samples).
fn mean(d: &HashMap<String, f64>, hist: &str) -> f64 {
    let count = d.get(&format!("{hist}_count")).copied().unwrap_or(0.0);
    let sum = d.get(&format!("{hist}_sum")).copied().unwrap_or(0.0);
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

fn get(d: &HashMap<String, f64>, name: &str) -> f64 {
    d.get(name).copied().unwrap_or(0.0)
}

/// One line of a `requests.log`.
struct LogLine {
    trace: String,
    endpoint: String,
    total_us: f64,
}

fn request_log(dir: &Path) -> Vec<LogLine> {
    let text = std::fs::read_to_string(dir.join("requests.log")).unwrap_or_default();
    text.lines()
        .filter_map(|line| {
            let field = |k: &str| {
                line.split(' ')
                    .find_map(|f| f.strip_prefix(k).and_then(|f| f.strip_prefix('=')))
            };
            Some(LogLine {
                trace: field("trace")?.to_string(),
                endpoint: field("endpoint")?.to_string(),
                total_us: field("total_us")?.parse().ok()?,
            })
        })
        .collect()
}

fn serving_metrics(obs: &Observed, report: &mut Report) {
    let d = &obs.deltas;
    for stage in [
        "parse",
        "admit",
        "cache_lookup",
        "queue_wait",
        "eval_batch",
        "format",
    ] {
        report.metric(
            format!("sim-server.{stage}_us"),
            mean(d, &format!("sim_server_stage_{stage}_us")),
            "us",
        );
    }
    let (hits, misses) = (
        get(d, "sim_server_cache_hits"),
        get(d, "sim_server_cache_misses"),
    );
    report.metric(
        "sim-server.cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    report.metric(
        "sim-server.cache.evictions",
        get(d, "sim_server_cache_evictions"),
        "count",
    );
    let batches = get(d, "sim_server_batches_total");
    report.metric(
        "sim-server.cells_per_batch",
        if batches > 0.0 {
            get(d, "sim_server_cells_simulated_total") / batches
        } else {
            0.0
        },
        "cells",
    );
    report.metric(
        "sim-server.lane.interactive_wait_us",
        mean(d, "sim_server_lane_wait_interactive_us"),
        "us",
    );
    report.metric(
        "sim-server.lane.bulk_wait_us",
        mean(d, "sim_server_lane_wait_bulk_us"),
        "us",
    );
    report.metric(
        "sim-server.lane.promoted_bulk",
        get(d, "sim_server_lane_promoted_bulk_total"),
        "count",
    );

    let logs: Vec<(String, Vec<LogLine>)> = obs
        .trace_dirs
        .iter()
        .map(|dir| {
            let name = dir
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            (name, request_log(dir))
        })
        .collect();
    let front_name = if logs.iter().any(|(n, _)| n == "router") {
        "router"
    } else {
        "serve"
    };
    let front: Vec<&LogLine> = logs
        .iter()
        .filter(|(n, _)| n == front_name)
        .flat_map(|(_, l)| l.iter().filter(|r| r.endpoint == "/v1/sweep"))
        .collect();

    // Client-observed sweep latency minus the front process's own account
    // of the same request, joined by trace id (set-up and warm-up requests
    // carry no client sample and drop out).
    let http: Vec<f64> = front
        .iter()
        .filter_map(|r| obs.client_us.get(&r.trace).map(|c| c - r.total_us))
        .collect();
    report.metric(
        "sim-server.http.overhead_us",
        if http.is_empty() {
            0.0
        } else {
            http.iter().sum::<f64>() / http.len() as f64
        },
        "us",
    );
    report.fact("http_overhead_samples", http.len());

    // Router time not spent waiting for its slowest shard, per request.
    let mut shard_max: HashMap<&str, f64> = HashMap::new();
    for (_, log) in logs.iter().filter(|(n, _)| n.starts_with("shard")) {
        for l in log.iter().filter(|l| l.endpoint == "/v1/cells") {
            let e = shard_max.entry(l.trace.as_str()).or_default();
            *e = e.max(l.total_us);
        }
    }
    let overheads: Vec<f64> = front
        .iter()
        .filter_map(|r| {
            shard_max
                .get(r.trace.as_str())
                .map(|s| (r.total_us - s) / 1e3)
        })
        .collect();
    report.metric(
        "harness.route.overhead_ms",
        if overheads.is_empty() {
            0.0
        } else {
            stats::median(&overheads)
        },
        "ms",
    );
    report.metric(
        "harness.route.cells_routed",
        get(d, "sim_router_cells_routed_total"),
        "count",
    );
    report.metric(
        "harness.route.retries",
        get(d, "sim_router_retries_total"),
        "count",
    );
    // No percentile with fewer than ten samples beyond it.
    let late = &obs.late_ms;
    report.metric(
        "loadgen.late_p99_ms",
        if stats::beyond(late.len(), 0.99) >= 10 {
            stats::quantile(late, 0.99)
        } else {
            0.0
        },
        "ms",
    );
    report.fact("late_samples", late.len());
}

pub fn run(ctx: &Ctx, tally: &Tally, workload: &str) -> io::Result<Report> {
    let dir = fleet::scratch_dir(&ctx.root, &format!("trace-{workload}"))?;
    let mut report = Report::default();
    let mut spans = Spans::new();
    layers::run(&mut spans, &mut report);

    // The workload at half length, plain and then traced.
    let half = Ctx {
        harness: ctx.harness.clone(),
        root: ctx.root.clone(),
        seed: ctx.seed,
        seconds: ctx.seconds / 2.0,
    };
    let run = |trace: Option<&Path>| {
        if workload == "serve-zipf" {
            serving::zipf(&half, tally, trace)
        } else {
            serving::route(&half, tally, trace)
        }
    };
    let (_, plain) = run(None)?;
    let (_, mut traced) = run(Some(&dir))?;
    // Generator lateness does not depend on tracing: both halves together
    // leave enough samples beyond p99.
    traced.late_ms.extend(&plain.late_ms);
    serving_metrics(&traced, &mut report);
    report.metric(
        "trace_overhead_pct",
        100.0 * (traced.p50_ms / plain.p50_ms - 1.0),
        "%",
    );

    std::fs::write(dir.join("layers.json"), spans.trace.to_json())?;
    let mut summary = String::from("layer self time (s)\n");
    for (layer, s) in &spans.self_s {
        let _ = writeln!(summary, "{layer:<20} {s:.6}");
    }
    std::fs::write(dir.join("self_time.txt"), &summary)?;
    eprint!("{summary}");
    report.fact("scale", "test");
    report.fact("trace_dir", dir.display());
    Ok(report)
}
