//! `/metrics` counters, stage histograms and their text exposition.
//!
//! Prometheus-style text: `# HELP`/`# TYPE` comments, plain `name value`
//! lines for counters and gauges (grep-compatible for the CI smoke), and
//! full `_bucket{le="..."}`/`_sum`/`_count` families for latencies via
//! [`telemetry::LatencyHistogram`]. The histogram families are the fleet's
//! unit of wall-clock truth: bucket counts are plain counters, so the
//! router merges shard pages by *summation* and the result is exactly the
//! histogram a single process would have recorded ([`aggregate_pages`]).
//! Every line belongs to a `# TYPE`-declared family, and aggregation
//! classifies lines by that declaration alone.

use crate::cache::CacheStats;
use crate::http::LaneSnapshot;
use crate::scheduler::SchedulerStats;
use std::collections::HashMap;
use telemetry::LatencyHistogram;

/// The per-request pipeline stages instrumented by the serving layer.
///
/// `Parse`, `Admit` and `Format` are recorded once per request;
/// `CacheLookup`, `QueueWait` and `EvalBatch` are recorded once per
/// *cell* (the queue/eval stages only for cache misses), so their
/// `_count` depends only on the work done, not on how the fleet is
/// sharded — a 2-shard sweep and a single process report the same
/// per-cell sample counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    Parse,
    Admit,
    CacheLookup,
    QueueWait,
    EvalBatch,
    Format,
}

impl Stage {
    pub const ALL: [Stage; 6] = [
        Stage::Parse,
        Stage::Admit,
        Stage::CacheLookup,
        Stage::QueueWait,
        Stage::EvalBatch,
        Stage::Format,
    ];

    /// The stage's short name (also its span name in request traces).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Admit => "admit",
            Stage::CacheLookup => "cache_lookup",
            Stage::QueueWait => "queue_wait",
            Stage::EvalBatch => "eval_batch",
            Stage::Format => "format",
        }
    }

    /// The `/metrics` family name. Ends in `_us` only *before* the
    /// exposition suffixes (`_bucket{...}`, `_sum`, `_count`), so the
    /// aggregation max-rule for scalar `*_us` lines never touches
    /// histogram lines.
    pub fn metric_name(self) -> String {
        format!("sim_server_stage_{}_us", self.name())
    }

    fn help(self) -> &'static str {
        match self {
            Stage::Parse => "Request body parse + validation time per request.",
            Stage::Admit => "Scheduler admission time (lock + queue reservation) per request.",
            Stage::CacheLookup => "Content-addressed cache probe time per cell.",
            Stage::QueueWait => "Admission-to-dispatch wait per simulated cell.",
            Stage::EvalBatch => "Simulator evaluation time per simulated cell.",
            Stage::Format => "Result decode + response formatting time per request.",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Admit => 1,
            Stage::CacheLookup => 2,
            Stage::QueueWait => 3,
            Stage::EvalBatch => 4,
            Stage::Format => 5,
        }
    }
}

/// Server-level request counters + sweep/stage latency histograms.
#[derive(Default)]
pub struct Metrics {
    pub requests: u64,
    pub sweeps: u64,
    pub cells_requested: u64,
    pub rejected_requests: u64,
    pub bad_requests: u64,
    /// Handlers that gave up waiting for an evaluation (answered 503).
    pub wait_timeouts: u64,
    /// End-to-end sweep service time, one sample per `/v1/sweep` or
    /// `/v1/cells` request.
    pub sweep_time: LatencyHistogram,
    stages: [LatencyHistogram; 6],
}

impl Metrics {
    /// Record one duration into a stage histogram.
    pub fn record_stage(&mut self, stage: Stage, us: u64) {
        self.stages[stage.index()].record_us(us);
    }

    /// Read access to a stage histogram.
    pub fn stage(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage.index()]
    }
}

/// Render the full metrics page from the stat sources. `uptime_secs` is
/// the caller's process uptime (a gauge; the router aggregate takes the
/// max, i.e. the oldest shard).
pub fn render(
    m: &Metrics,
    cache: &CacheStats,
    cache_entries: usize,
    sched: &SchedulerStats,
    lanes: &LaneSnapshot,
    uptime_secs: u64,
) -> String {
    let mut out = String::new();
    let mut line = |name: &str, help: &str, kind: &str, v: u64| {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        out.push_str(name);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    };
    line(
        "sim_server_requests_total",
        "HTTP requests accepted by this process.",
        "counter",
        m.requests,
    );
    line(
        "sim_server_sweeps_total",
        "Sweep-evaluating requests served (/v1/sweep + /v1/cells).",
        "counter",
        m.sweeps,
    );
    line(
        "sim_server_cells_requested_total",
        "Cells named by incoming sweeps (before cache/coalescing).",
        "counter",
        m.cells_requested,
    );
    line(
        "sim_server_rejected_requests_total",
        "Requests rejected with 429 (queue full).",
        "counter",
        m.rejected_requests,
    );
    line(
        "sim_server_bad_requests_total",
        "Requests rejected with 4xx other than 429.",
        "counter",
        m.bad_requests,
    );
    line(
        "sim_server_wait_timeouts_total",
        "Handlers that timed out waiting for an evaluation (answered 503).",
        "counter",
        m.wait_timeouts,
    );
    line(
        "sim_server_cache_hits",
        "Cell results served from the content-addressed cache.",
        "counter",
        cache.hits,
    );
    line(
        "sim_server_cache_misses",
        "Cell lookups that missed the cache.",
        "counter",
        cache.misses,
    );
    line(
        "sim_server_cache_insertions",
        "Cell results inserted into the cache.",
        "counter",
        cache.insertions,
    );
    line(
        "sim_server_cache_evictions",
        "Cache entries evicted by the LRU policy.",
        "counter",
        cache.evictions,
    );
    line(
        "sim_server_cache_entries",
        "Cache entries currently resident.",
        "gauge",
        cache_entries as u64,
    );
    line(
        "sim_server_cells_simulated_total",
        "Cells actually evaluated by the simulator.",
        "counter",
        sched.simulated,
    );
    line(
        "sim_server_cells_coalesced_total",
        "Cell requests coalesced onto an already in-flight cell.",
        "counter",
        sched.coalesced,
    );
    line(
        "sim_server_sweeps_rejected_busy_total",
        "Admissions refused because the queue was full.",
        "counter",
        sched.rejected,
    );
    line(
        "sim_server_batches_total",
        "Dispatcher batches evaluated.",
        "counter",
        sched.batches,
    );
    line(
        "sim_server_eval_panics_total",
        "Batch evaluations that panicked (caught).",
        "counter",
        sched.eval_panics,
    );
    line(
        "sim_server_cells_abandoned_total",
        "In-flight cells abandoned by a dying dispatcher.",
        "counter",
        sched.abandoned,
    );
    line(
        "sim_server_queue_depth",
        "Cells waiting in the scheduler queue.",
        "gauge",
        sched.queue_depth as u64,
    );
    line(
        "sim_server_in_flight",
        "Cells admitted but not yet settled.",
        "gauge",
        sched.in_flight as u64,
    );
    line(
        "sim_server_queue_depth_interactive",
        "Cells waiting in the scheduler's interactive lane.",
        "gauge",
        sched.interactive_depth as u64,
    );
    line(
        "sim_server_queue_depth_bulk",
        "Cells waiting in the scheduler's bulk lane.",
        "gauge",
        sched.bulk_depth as u64,
    );
    line(
        "sim_server_bulk_promotions_total",
        "Bulk batches promoted past queued interactive work by aging.",
        "counter",
        sched.bulk_promotions,
    );
    line(
        "sim_server_uptime_seconds",
        "Seconds since this server process started.",
        "gauge",
        uptime_secs,
    );

    out.push_str(
        "# HELP sim_server_sweep_time_us End-to-end sweep service time per request, microseconds.\n\
         # TYPE sim_server_sweep_time_us histogram\n",
    );
    m.sweep_time.render("sim_server_sweep_time_us", &mut out);
    for stage in Stage::ALL {
        let name = stage.metric_name();
        out.push_str(&format!(
            "# HELP {name} {}\n# TYPE {name} histogram\n",
            stage.help()
        ));
        m.stage(stage).render(&name, &mut out);
    }

    render_lanes("sim_server", lanes, &mut out);
    out
}

/// Append the HTTP front-end metrics (accepted connections, per-lane
/// queue depth gauges, dispatch/promotion counters, queue-wait
/// histograms) under the given family prefix (`sim_server` on shard
/// pages, `sim_router` on the router's own page).
pub fn render_lanes(prefix: &str, lanes: &LaneSnapshot, out: &mut String) {
    let mut line = |name: String, help: &str, kind: &str, v: u64| {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        out.push_str(&format!("{name} {v}\n"));
    };
    line(
        format!("{prefix}_http_connections_total"),
        "TCP connections accepted (kept-alive connections carry many requests).",
        "counter",
        lanes.connections,
    );
    line(
        format!("{prefix}_lane_depth_interactive"),
        "HTTP requests queued in the interactive dispatch lane.",
        "gauge",
        lanes.interactive_depth,
    );
    line(
        format!("{prefix}_lane_depth_bulk"),
        "HTTP requests queued in the bulk dispatch lane.",
        "gauge",
        lanes.bulk_depth,
    );
    line(
        format!("{prefix}_lane_dispatched_interactive_total"),
        "HTTP requests dispatched from the interactive lane.",
        "counter",
        lanes.dispatched_interactive,
    );
    line(
        format!("{prefix}_lane_dispatched_bulk_total"),
        "HTTP requests dispatched from the bulk lane.",
        "counter",
        lanes.dispatched_bulk,
    );
    line(
        format!("{prefix}_lane_promoted_bulk_total"),
        "Bulk requests dispatched past waiting interactive work by aging.",
        "counter",
        lanes.promoted_bulk,
    );
    for (lane, hist) in [
        ("interactive", &lanes.wait_interactive),
        ("bulk", &lanes.wait_bulk),
    ] {
        let name = format!("{prefix}_lane_wait_{lane}_us");
        out.push_str(&format!(
            "# HELP {name} Queue wait before dispatch for the {lane} lane, microseconds.\n\
             # TYPE {name} histogram\n"
        ));
        hist.render(&name, out);
    }
}

/// A metric line's value during aggregation.
enum Agg {
    U64(u64),
    F64(f64),
    /// Unparseable value: passed through verbatim (first occurrence wins).
    Raw(String),
}

/// Gauges that are *extensive* — each shard holds a disjoint share of
/// one fleet-wide quantity — so summation is the correct cross-shard
/// aggregate. Every other declared gauge takes the max (worst/oldest
/// shard): summing `sim_server_uptime_seconds`, `sim_router_replicas`
/// or `sim_router_breaker_state{shard="i"}` across pages fabricates a
/// value no process reported.
const SUMMED_GAUGES: &[&str] = &[
    "sim_server_cache_entries",
    "sim_server_queue_depth",
    "sim_server_in_flight",
    "sim_server_queue_depth_interactive",
    "sim_server_queue_depth_bulk",
    "sim_server_lane_depth_interactive",
    "sim_server_lane_depth_bulk",
    "sim_router_lane_depth_interactive",
    "sim_router_lane_depth_bulk",
];

/// True when cross-shard summation would fabricate a value and the max
/// is the honest aggregate. Classification is driven by the pages' own
/// `# TYPE` declarations: declared gauges take the max unless they are
/// on the [`SUMMED_GAUGES`] extensive allowlist; declared counters and
/// histograms always sum (summing cumulative bucket counts is an exact
/// histogram merge), and so do undeclared lines. The label block is
/// stripped first so `sim_router_breaker_state{shard="0"}` matches its
/// family's TYPE declaration.
fn max_aggregated(name: &str, types: &HashMap<String, String>) -> bool {
    let base = name.split('{').next().unwrap_or(name);
    types.get(base).is_some_and(|t| t == "gauge") && !SUMMED_GAUGES.contains(&base)
}

/// Aggregate several exposition pages (one per shard) into one.
///
/// * `#` comment lines pass through once each, first-seen order.
/// * Numeric `name value` lines sum across shards — which is an *exact*
///   histogram merge for `_bucket`/`_sum`/`_count` lines, since sums of
///   cumulative counts are cumulative counts of the merged histogram —
///   except gauges (classified from the pages' `# TYPE` declarations,
///   see [`max_aggregated`]), which take the max unless they are
///   extensive ([`SUMMED_GAUGES`]).
/// * Lines whose value parses as neither u64 nor f64 pass through
///   verbatim, so a shard can never silently vanish from the page.
///
/// Line order follows first appearance across the pages, so lines
/// present on only some shards are kept, not dropped.
pub fn aggregate_pages(pages: &[String]) -> String {
    // Pre-pass: collect every `# TYPE name kind` declaration so that
    // classification does not depend on which page a value line appears
    // in relative to its declaration.
    let mut types: HashMap<String, String> = HashMap::new();
    for page in pages {
        for line in page.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some((name, kind)) = rest.split_once(' ') {
                    types.insert(name.to_string(), kind.to_string());
                }
            }
        }
    }
    let mut order: Vec<String> = Vec::new();
    let mut totals: HashMap<String, Agg> = HashMap::new();
    let mut comments: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for page in pages {
        for line in page.lines() {
            if line.starts_with('#') {
                if comments.insert(line) {
                    order.push(line.to_string());
                }
                continue;
            }
            let Some((name, value)) = line.rsplit_once(' ') else {
                // No separator at all: pass the line through once.
                if !totals.contains_key(line) {
                    order.push(line.to_string());
                    totals.insert(line.to_string(), Agg::Raw(String::new()));
                }
                continue;
            };
            let parsed = match value.parse::<u64>() {
                Ok(v) => Agg::U64(v),
                Err(_) => match value.parse::<f64>() {
                    Ok(v) => Agg::F64(v),
                    Err(_) => Agg::Raw(value.to_string()),
                },
            };
            match totals.get_mut(name) {
                None => {
                    order.push(name.to_string());
                    totals.insert(name.to_string(), parsed);
                }
                Some(slot) => {
                    let take_max = max_aggregated(name, &types);
                    match (slot, parsed) {
                        (Agg::U64(a), Agg::U64(b)) => {
                            *a = if take_max { (*a).max(b) } else { *a + b }
                        }
                        (slot @ Agg::U64(_), Agg::F64(b)) => {
                            let a = match slot {
                                Agg::U64(a) => *a as f64,
                                _ => unreachable!(),
                            };
                            *slot = Agg::F64(if take_max { a.max(b) } else { a + b });
                        }
                        (Agg::F64(a), Agg::U64(b)) => {
                            let b = b as f64;
                            *a = if take_max { a.max(b) } else { *a + b }
                        }
                        (Agg::F64(a), Agg::F64(b)) => *a = if take_max { a.max(b) } else { *a + b },
                        // A raw value freezes the line at its first form;
                        // later numeric values cannot meaningfully combine
                        // with it.
                        (Agg::Raw(_), _) => {}
                        (slot, raw @ Agg::Raw(_)) => *slot = raw,
                    }
                }
            }
        }
    }
    let mut out = String::new();
    for name in order {
        match &totals.get(&name) {
            None => {
                // A comment line.
                out.push_str(&name);
                out.push('\n');
            }
            Some(Agg::U64(v)) => out.push_str(&format!("{name} {v}\n")),
            Some(Agg::F64(v)) => out.push_str(&format!("{name} {v}\n")),
            Some(Agg::Raw(v)) if v.is_empty() => {
                out.push_str(&name);
                out.push('\n');
            }
            Some(Agg::Raw(v)) => out.push_str(&format!("{name} {v}\n")),
        }
    }
    out
}

/// Pretty-print an exposition page for humans (`harness submit
/// --metrics`): comments dropped, `name value` lines aligned into two
/// columns, histogram families collapsed into one summary line each with
/// p50/p95/p99/mean derived from the buckets. Scalar lines keep the
/// `name<spaces>value` shape so CI greps like `^name +value$` still hold.
pub fn pretty(page: &str) -> String {
    // Histogram family names, in order of first appearance.
    let mut families: Vec<String> = Vec::new();
    for line in page.lines() {
        if let Some(idx) = line.find("_bucket{le=\"") {
            let name = &line[..idx];
            if !families.iter().any(|f| f == name) {
                families.push(name.to_string());
            }
        }
    }
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut emitted: std::collections::HashSet<String> = std::collections::HashSet::new();
    for line in page.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some(idx) = line.find("_bucket{le=\"") {
            let name = line[..idx].to_string();
            if emitted.insert(name.clone()) {
                let summary = match LatencyHistogram::parse(page, &name) {
                    Some(h) => format!(
                        "p50={}us p95={}us p99={}us mean={}us count={}",
                        h.p50_us(),
                        h.p95_us(),
                        h.p99_us(),
                        h.mean_us(),
                        h.count()
                    ),
                    None => "unparseable histogram".to_string(),
                };
                rows.push((name, summary));
            }
            continue;
        }
        // Suppress the _sum/_count companions of a collapsed family.
        if families.iter().any(|f| {
            line.strip_prefix(f.as_str())
                .is_some_and(|rest| rest.starts_with("_sum ") || rest.starts_with("_count "))
        }) {
            continue;
        }
        match line.rsplit_once(' ') {
            Some((name, value)) => rows.push((name.to_string(), value.to_string())),
            None => rows.push((line.to_string(), String::new())),
        }
    }
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, value) in rows {
        if value.is_empty() {
            out.push_str(&name);
        } else {
            out.push_str(&format!("{name:<width$}  {value}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_page() -> String {
        let mut m = Metrics {
            requests: 3,
            sweeps: 2,
            cells_requested: 144,
            ..Metrics::default()
        };
        m.sweep_time.record_us(100);
        m.sweep_time.record_us(200);
        m.record_stage(Stage::Parse, 10);
        m.record_stage(Stage::QueueWait, 1000);
        let cache = CacheStats {
            hits: 72,
            misses: 72,
            insertions: 72,
            evictions: 0,
        };
        let sched = SchedulerStats {
            queue_depth: 1,
            in_flight: 2,
            simulated: 72,
            coalesced: 3,
            rejected: 0,
            batches: 4,
            eval_panics: 5,
            abandoned: 6,
            interactive_depth: 1,
            bulk_depth: 0,
            bulk_promotions: 7,
        };
        let mut lanes = LaneSnapshot {
            interactive_depth: 2,
            bulk_depth: 1,
            dispatched_interactive: 11,
            dispatched_bulk: 3,
            promoted_bulk: 1,
            connections: 4,
            ..LaneSnapshot::default()
        };
        lanes.wait_interactive.record_us(50);
        lanes.wait_bulk.record_us(5000);
        render(&m, &cache, 72, &sched, &lanes, 9)
    }

    #[test]
    fn renders_every_counter_once() {
        let page = sample_page();
        for want in [
            "sim_server_requests_total 3",
            "sim_server_sweeps_total 2",
            "sim_server_cells_requested_total 144",
            "sim_server_cache_hits 72",
            "sim_server_cache_misses 72",
            "sim_server_cache_entries 72",
            "sim_server_cells_simulated_total 72",
            "sim_server_cells_coalesced_total 3",
            "sim_server_queue_depth 1",
            "sim_server_in_flight 2",
            "sim_server_eval_panics_total 5",
            "sim_server_cells_abandoned_total 6",
            "sim_server_wait_timeouts_total 0",
            "sim_server_queue_depth_interactive 1",
            "sim_server_queue_depth_bulk 0",
            "sim_server_bulk_promotions_total 7",
            "sim_server_lane_depth_interactive 2",
            "sim_server_lane_depth_bulk 1",
            "sim_server_lane_dispatched_interactive_total 11",
            "sim_server_lane_dispatched_bulk_total 3",
            "sim_server_lane_promoted_bulk_total 1",
            "sim_server_http_connections_total 4",
            "sim_server_lane_wait_interactive_us_count 1",
            "sim_server_lane_wait_bulk_us_bucket{le=\"8192\"} 1",
            "sim_server_uptime_seconds 9",
            // Histogram families: cumulative buckets + sum + count.
            "sim_server_sweep_time_us_bucket{le=\"128\"} 1",
            "sim_server_sweep_time_us_bucket{le=\"+Inf\"} 2",
            "sim_server_sweep_time_us_count 2",
            "sim_server_stage_parse_us_count 1",
            "sim_server_stage_queue_wait_us_bucket{le=\"1024\"} 1",
            "sim_server_stage_eval_batch_us_count 0",
        ] {
            assert!(
                page.lines().any(|l| l == want),
                "missing {want:?} in:\n{page}"
            );
        }
        // Every family and scalar is annotated.
        assert!(page.contains("# HELP sim_server_requests_total "), "{page}");
        assert!(
            page.contains("# TYPE sim_server_sweep_time_us histogram"),
            "{page}"
        );
        // The page round-trips through the histogram parser.
        let h = telemetry::LatencyHistogram::parse(&page, "sim_server_sweep_time_us").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_us(), 300);
    }

    /// Classification comes from `# TYPE` declarations only: an
    /// undeclared line sums whatever its name suffix.
    #[test]
    fn undeclared_lines_sum() {
        let a = "sim_server_cache_hits 10\nsome_latency_us 500\n".to_string();
        let b = "sim_server_cache_hits 32\nsome_latency_us 200\nextra_total 1\n".to_string();
        let c = "some_age_seconds 3\n".to_string();
        let merged = aggregate_pages(&[a, b, c]);
        assert_eq!(
            merged,
            "sim_server_cache_hits 42\nsome_latency_us 700\nextra_total 1\nsome_age_seconds 3\n"
        );
    }

    /// Each previously mis-summed gauge, pinned line by line: a declared
    /// gauge must aggregate max across pages, never sum.
    #[test]
    fn declared_gauges_aggregate_max_not_sum() {
        let page = |name: &str, v: u64| format!("# TYPE {name} gauge\n{name} {v}\n");
        let merged_value = |name: &str, line_name: &str, a: u64, b: u64| {
            let pages = [
                format!("# TYPE {name} gauge\n{line_name} {a}\n"),
                format!("# TYPE {name} gauge\n{line_name} {b}\n"),
            ];
            let merged = aggregate_pages(&pages);
            merged
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{line_name} ")))
                .unwrap_or_else(|| panic!("no {line_name} line in:\n{merged}"))
                .parse::<u64>()
                .unwrap()
        };

        // sim_server_uptime_seconds: oldest shard, not fleet-total age.
        let m = aggregate_pages(&[page("sim_server_uptime_seconds", 10), {
            page("sim_server_uptime_seconds", 4)
        }]);
        assert!(m.contains("sim_server_uptime_seconds 10"), "{m}");

        // sim_router_replicas: every shard reports the same fleet-wide
        // replica count; 2 + 2 = 4 would double it.
        assert_eq!(
            merged_value("sim_router_replicas", "sim_router_replicas", 2, 2),
            2
        );

        // sim_router_breaker_state{shard="0"}: a 0/1 state, not a count —
        // the label block must not hide the family's TYPE declaration.
        assert_eq!(
            merged_value(
                "sim_router_breaker_state",
                "sim_router_breaker_state{shard=\"0\"}",
                1,
                0
            ),
            1
        );

        // Declared counters still sum even without a latency suffix...
        let pages = [
            "# TYPE sim_router_retries_total counter\nsim_router_retries_total 3\n".to_string(),
            "# TYPE sim_router_retries_total counter\nsim_router_retries_total 4\n".to_string(),
        ];
        assert!(
            aggregate_pages(&pages).contains("sim_router_retries_total 7"),
            "typed counters must sum"
        );
        // ...and extensive gauges (disjoint per-shard shares of one
        // fleet-wide quantity) still sum despite the gauge TYPE.
        for name in ["sim_server_queue_depth", "sim_server_lane_depth_bulk"] {
            let pages = [page(name, 2), page(name, 3)];
            let merged = aggregate_pages(&pages);
            assert!(merged.contains(&format!("{name} 5")), "{name}:\n{merged}");
        }
    }

    #[test]
    fn aggregation_keeps_one_sided_comments_and_raw_lines() {
        let a = "# HELP x y\n# TYPE x counter\nx 1\n".to_string();
        let b = "# HELP x y\nx 2\nonly_on_b 7\nweird not-a-number\n".to_string();
        let merged = aggregate_pages(&[a, b]);
        // Comments deduped, one-sided numeric lines kept, raw values
        // passed through verbatim.
        assert_eq!(
            merged,
            "# HELP x y\n# TYPE x counter\nx 3\nonly_on_b 7\nweird not-a-number\n"
        );
        // Float values survive and sum.
        let merged = aggregate_pages(&["f 1.5\n".to_string(), "f 2.25\n".to_string()]);
        assert_eq!(merged, "f 3.75\n");
    }

    #[test]
    fn aggregation_merges_histograms_exactly() {
        let page = |samples: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &s in samples {
                h.record_us(s);
            }
            h.to_exposition("m_us")
        };
        let a = page(&[1, 100, 70_000]);
        let b = page(&[2, 100, 1 << 30]);
        let merged = aggregate_pages(&[a, b]);
        let got = LatencyHistogram::parse(&merged, "m_us").unwrap();
        let mut want = LatencyHistogram::new();
        for s in [1u64, 100, 70_000, 2, 100, 1 << 30] {
            want.record_us(s);
        }
        assert_eq!(got, want, "summed pages must equal the merged histogram");
    }

    #[test]
    fn pretty_aligns_and_summarizes_histograms() {
        let page = sample_page();
        let out = pretty(&page);
        // No comments, no raw bucket lines.
        assert!(!out.contains('#'), "{out}");
        assert!(!out.contains("_bucket{"), "{out}");
        assert!(!out.contains("sim_server_sweep_time_us_sum"), "{out}");
        // Scalar lines stay grep-compatible: name, spaces, value.
        let hits = out
            .lines()
            .find(|l| l.starts_with("sim_server_cache_hits"))
            .unwrap();
        assert!(
            hits.trim_end().ends_with(" 72") && hits.contains("  "),
            "{hits:?}"
        );
        // Histogram families collapse to a one-line summary.
        let sweep = out
            .lines()
            .find(|l| l.starts_with("sim_server_sweep_time_us "))
            .unwrap();
        assert!(sweep.contains("p50=128us"), "{sweep}");
        assert!(sweep.contains("p99=256us"), "{sweep}");
        assert!(sweep.contains("count=2"), "{sweep}");
        // All value columns start at the same offset: after the name,
        // the run of padding spaces ends at one shared column.
        let offsets: std::collections::HashSet<usize> = out
            .lines()
            .map(|l| {
                let sp = l.find(' ').unwrap();
                sp + l[sp..].chars().take_while(|c| *c == ' ').count()
            })
            .collect();
        assert_eq!(offsets.len(), 1, "misaligned columns:\n{out}");
    }
}
