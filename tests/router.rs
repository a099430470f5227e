//! End-to-end tests of `harness route` — sharded multi-process serving.
//!
//! The contract under test: a routed full-grid sweep over N backends is
//! byte-identical to the offline `harness jsonl` artifact (and therefore
//! to a single-process `harness serve`), a dead shard degrades to
//! structured `shard-down` failure rows for *its* cells only (the sweep
//! still answers 200), backend backpressure propagates as 429 with the
//! shard's `Retry-After`, and `/metrics`//`/healthz` aggregate across
//! the fleet.

use harness::runner::run_suite_with;
use harness::{to_jsonl, SuiteConfig};
use hpc_kernels::{test_suite, Precision, Variant};
use sim_server::http::{request, request_full};
use sim_server::key::CellKey;
use sim_server::router::Ring;
use std::sync::OnceLock;
use std::time::Duration;

const T: Duration = Duration::from_secs(600);

/// One offline fault-free test-scale sweep, shared across tests: the
/// byte-identity reference for routed full-grid sweeps.
fn offline_jsonl() -> &'static String {
    static OFFLINE: OnceLock<String> = OnceLock::new();
    OFFLINE.get_or_init(|| to_jsonl(&run_suite_with(&test_suite(), &SuiteConfig::default())))
}

fn shard(queue: usize) -> harness::serve::RunningServer {
    shard_traced(queue, None)
}

fn shard_traced(queue: usize, dir: Option<std::path::PathBuf>) -> harness::serve::RunningServer {
    harness::serve::start(harness::ServeConfig {
        addr: "127.0.0.1:0".into(),
        capacity: 1024,
        queue_cap: queue,
        cache_path: None,
        trace_sample: u64::from(dir.is_some()),
        trace_dir: dir,
        slow_ms: None,
        timeout_ms: None,
        ..harness::ServeConfig::default()
    })
    .expect("shard starts")
}

fn router_over(shards: &[&harness::serve::RunningServer]) -> harness::route::RunningRouter {
    router_traced(shards, None)
}

fn router_traced(
    shards: &[&harness::serve::RunningServer],
    dir: Option<std::path::PathBuf>,
) -> harness::route::RunningRouter {
    harness::route::start(harness::RouteConfig {
        addr: "127.0.0.1:0".into(),
        shards: shards.iter().map(|s| s.addr.to_string()).collect(),
        trace_sample: u64::from(dir.is_some()),
        trace_dir: dir,
        slow_ms: None,
        replicas: 1,
        retry_budget: 1,
        breaker_threshold: 3,
        fault_seed: None,
        timeout_ms: None,
        workers: sim_server::http::DEFAULT_WORKERS,
        priority_cells: sim_server::http::DEFAULT_PRIORITY_CELLS,
    })
    .expect("router starts")
}

fn sweep(addr: &str, body: &str) -> (u16, String) {
    let (st, resp) = request(addr, "POST", "/v1/sweep", body.as_bytes(), T).unwrap();
    (st, String::from_utf8(resp).unwrap())
}

fn metric(addr: &str, name: &str) -> u64 {
    let (st, body) = request(addr, "GET", "/metrics", b"", T).unwrap();
    assert_eq!(st, 200);
    let text = String::from_utf8(body).unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{text}"))
        .parse()
        .unwrap()
}

/// Cell keys of the full test-scale grid in `cells:"all"` request order
/// (bench-major, then precision, then version — one key per row).
fn full_grid_keys() -> Vec<CellKey> {
    let mut keys = Vec::new();
    for b in test_suite() {
        for prec in Precision::ALL {
            for v in Variant::ALL {
                keys.push(harness::cell_spec("test", None, None, b.name(), v, prec).key());
            }
        }
    }
    keys
}

/// The headline contract: a full-grid sweep routed over two shards is
/// byte-identical to the offline artifact, both shards do real work, and
/// the router's `/metrics` aggregates the fleet.
#[test]
fn two_shard_full_sweep_matches_offline_artifact() {
    let shards = [shard(256), shard(256)];
    let router = router_over(&[&shards[0], &shards[1]]);
    let addr = router.addr.to_string();

    let (st, body) = request(&addr, "GET", "/healthz", b"", T).unwrap();
    assert_eq!((st, body.as_slice()), (200, b"ok\n".as_slice()));

    let req = r#"{"scale":"test","cells":"all"}"#;
    let (st, cold) = sweep(&addr, req);
    assert_eq!(st, 200);
    assert_eq!(
        &cold,
        offline_jsonl(),
        "routed full-grid sweep must be byte-identical to `harness jsonl`"
    );

    // The ring actually partitioned the work: each shard simulated a
    // nonzero share, and the shares cover the grid exactly.
    let a = metric(
        &shards[0].addr.to_string(),
        "sim_server_cells_simulated_total",
    );
    let b = metric(
        &shards[1].addr.to_string(),
        "sim_server_cells_simulated_total",
    );
    assert_eq!(a + b, 72, "shards simulated {a} + {b} cells");
    assert!(a > 0 && b > 0, "one shard got all the work: {a} vs {b}");

    // Warm repeat: cache state must not change response bytes.
    let (st, warm) = sweep(&addr, req);
    assert_eq!(st, 200);
    assert_eq!(cold, warm);

    // Aggregated metrics: summed shard counters plus router-own lines.
    assert_eq!(metric(&addr, "sim_server_cells_simulated_total"), 72);
    assert_eq!(metric(&addr, "sim_server_cache_hits"), 72);
    assert_eq!(metric(&addr, "sim_router_shards"), 2);
    assert_eq!(metric(&addr, "sim_router_shards_up"), 2);
    assert_eq!(metric(&addr, "sim_router_sweeps_total"), 2);
    assert_eq!(metric(&addr, "sim_router_cells_routed_total"), 144);

    // Cell inspection proxies to the owning shard and answers the same
    // bytes a direct hit would.
    let ring = Ring::new(2);
    let key =
        harness::cell_spec("test", None, None, "vecop", Variant::Serial, Precision::F32).key();
    let (st, via_router) = request(&addr, "GET", &format!("/v1/cell/{key}"), b"", T).unwrap();
    assert_eq!(st, 200);
    let owner = shards[ring.shard_of(key)].addr.to_string();
    let (st, direct) = request(&owner, "GET", &format!("/v1/cell/{key}"), b"", T).unwrap();
    assert_eq!(st, 200);
    assert_eq!(via_router, direct);
    let (st, _) = request(&addr, "GET", "/v1/cell/nope", b"", T).unwrap();
    assert_eq!(st, 400);

    router.shutdown().unwrap();
    let [s0, s1] = shards;
    s0.shutdown().unwrap();
    s1.shutdown().unwrap();
}

/// Every value line on a shard page and on the router page belongs to a
/// `# TYPE`-declared family (histogram `_bucket`/`_sum`/`_count` lines
/// through their family), so cross-shard aggregation classifies each
/// line by its declaration and never by its name.
#[test]
fn every_metrics_line_belongs_to_a_declared_family() {
    let s0 = shard(256);
    let router = router_over(&[&s0]);
    let addr = router.addr.to_string();
    let one =
        r#"{"scale":"test","cells":[{"bench":"hist","version":"Serial","precision":"single"}]}"#;
    assert_eq!(sweep(&addr, one).0, 200);
    for at in [s0.addr.to_string(), addr] {
        let (st, body) = request(&at, "GET", "/metrics", b"", T).unwrap();
        assert_eq!(st, 200);
        let page = String::from_utf8(body).unwrap();
        let types: std::collections::HashMap<&str, &str> = page
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' '))
            .collect();
        let histogram = |family: &str| types.get(family) == Some(&"histogram");
        for line in page.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            let declared = types.contains_key(name)
                || ["_bucket", "_sum", "_count"]
                    .iter()
                    .any(|sfx| name.strip_suffix(sfx).is_some_and(histogram));
            assert!(declared, "undeclared line on {at}: {line}");
        }
    }
    router.shutdown().unwrap();
    s0.shutdown().unwrap();
}

/// Connections are kept and pooled at both hops: fifty sequential
/// one-cell probes through the router accept a few connections on each
/// process, not one per probe.
#[test]
fn routed_probes_reuse_kept_connections() {
    let shards = [shard(256), shard(256)];
    let router = router_over(&[&shards[0], &shards[1]]);
    let addr = router.addr.to_string();
    let benches: Vec<String> = test_suite().iter().map(|b| b.name().to_string()).collect();
    for i in 0..50 {
        let probe = format!(
            r#"{{"scale":"test","cells":[{{"bench":"{}","version":"Serial","precision":"single"}}]}}"#,
            benches[i % benches.len()]
        );
        assert_eq!(sweep(&addr, &probe).0, 200);
    }
    let mut pages = vec![(addr.clone(), "sim_router_http_connections_total")];
    for s in &shards {
        let at = s.addr.to_string();
        assert!(
            metric(&at, "sim_server_sweeps_total") > 0,
            "{at} got no probe"
        );
        pages.push((at, "sim_server_http_connections_total"));
    }
    for (at, name) in pages {
        let accepted = metric(&at, name);
        assert!(
            (1..=4).contains(&accepted),
            "{at} accepted {accepted} connections for 50 probes"
        );
    }
    router.shutdown().unwrap();
    let [s0, s1] = shards;
    s0.shutdown().unwrap();
    s1.shutdown().unwrap();
}

/// Kill one shard: the sweep still answers 200, the dead shard's cells
/// come back as structured `shard-down` failure rows, and every cell the
/// surviving shard owns is untouched. `/healthz` turns 503 and names the
/// casualty.
#[test]
fn dead_shard_degrades_to_failure_rows_for_its_cells_only() {
    let s0 = shard(256);
    let s1 = shard(256);
    let router = router_over(&[&s0, &s1]);
    let addr = router.addr.to_string();

    let req = r#"{"scale":"test","cells":"all"}"#;
    let (st, healthy) = sweep(&addr, req);
    assert_eq!(st, 200);

    // Take shard 1 down; its listener closes, so the router's next
    // sub-request gets connection-refused.
    s1.shutdown().unwrap();

    let (st, degraded) = sweep(&addr, req);
    assert_eq!(st, 200, "a dead shard must not turn the sweep into a 500");

    let ring = Ring::new(2);
    let keys = full_grid_keys();
    let healthy_rows: Vec<&str> = healthy.lines().collect();
    let degraded_rows: Vec<&str> = degraded.lines().collect();
    assert_eq!(degraded_rows.len(), keys.len());
    let mut dead = 0;
    for ((row, before), key) in degraded_rows.iter().zip(&healthy_rows).zip(&keys) {
        if ring.shard_of(*key) == 1 {
            dead += 1;
            assert!(row.contains("\"status\":\"fail\""), "{row}");
            assert!(row.contains("\"fail_kind\":\"shard-down\""), "{row}");
        } else {
            // Rows the live shard owns keep their identity fields and
            // never carry a shard-down marker. (Ratio columns may differ
            // from the healthy sweep if a serial baseline died.)
            assert!(!row.contains("shard-down"), "{row}");
            let ident = |r: &str| {
                let mut f: Vec<&str> = r.split(',').collect();
                f.truncate(3);
                f.join(",")
            };
            assert_eq!(ident(row), ident(before));
        }
    }
    assert!(dead > 0, "the ring gave shard 1 no cells; test is vacuous");

    let (st, body) = request(&addr, "GET", "/healthz", b"", T).unwrap();
    assert_eq!(st, 503);
    let body = String::from_utf8(body).unwrap();
    assert!(body.contains("shard 0") && body.contains(": ok"), "{body}");
    assert!(body.contains("shard 1"), "{body}");

    assert!(metric(&addr, "sim_router_shard_errors_total") >= 1);
    assert_eq!(metric(&addr, "sim_router_shards_up"), 1);

    router.shutdown().unwrap();
    s0.shutdown().unwrap();
}

/// Observability across the fleet: one trace id follows a sweep from the
/// router to every shard, tracing changes no response bytes, and the
/// router's `/metrics` histogram families are the *exact* bucket-wise
/// sum of the shard histograms — per-cell stage counts equal what a
/// single-process sweep would record, independent of sharding.
#[test]
fn traced_two_shard_sweep_propagates_ids_and_merges_histograms_exactly() {
    use sim_server::http::request_with;
    use sim_server::TRACE_HEADER;
    use telemetry::LatencyHistogram;

    let base = std::env::temp_dir().join(format!("sim-router-e2e-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let s0 = shard_traced(256, Some(base.join("shard0")));
    let s1 = shard_traced(256, Some(base.join("shard1")));
    let router = router_traced(&[&s0, &s1], Some(base.join("router")));
    let addr = router.addr.to_string();

    let id = "feedfacecafef00d";
    let req = r#"{"scale":"test","cells":"all"}"#;
    let (st, headers, body) = request_with(
        &addr,
        "POST",
        "/v1/sweep",
        &[(TRACE_HEADER, id)],
        req.as_bytes(),
        T,
    )
    .unwrap();
    assert_eq!(st, 200);
    let echoed = headers
        .iter()
        .find(|(k, _)| k == "x-sim-trace-id")
        .map(|(_, v)| v.as_str());
    assert_eq!(echoed, Some(id), "headers: {headers:?}");
    assert_eq!(
        std::str::from_utf8(&body).unwrap(),
        offline_jsonl(),
        "tracing must not change routed response bytes"
    );

    // The router stamped its trace id onto both shard sub-requests: each
    // shard's structured log carries the *router's* id.
    for i in 0..2 {
        let log = std::fs::read_to_string(base.join(format!("shard{i}/requests.log"))).unwrap();
        assert!(
            log.lines()
                .any(|l| l.contains(&format!("trace={id}")) && l.contains("endpoint=/v1/cells")),
            "shard {i} never saw trace {id}:\n{log}"
        );
    }

    // The router's own Perfetto trace names each shard fan-out span.
    let trace =
        std::fs::read_to_string(base.join("router").join(format!("req-{id}.json"))).unwrap();
    sim_server::json::parse(&trace).expect("router trace is valid JSON");
    for span in [
        "\"name\":\"shard_0\"",
        "\"name\":\"shard_1\"",
        "\"name\":\"format\"",
    ] {
        assert!(trace.contains(span), "{trace}");
    }

    // Aggregated histograms are the exact bucket-wise sum of the shards'.
    let page = |a: &str| {
        let (st, body) = request(a, "GET", "/metrics", b"", T).unwrap();
        assert_eq!(st, 200);
        String::from_utf8(body).unwrap()
    };
    let (rp, p0, p1) = (
        page(&addr),
        page(&s0.addr.to_string()),
        page(&s1.addr.to_string()),
    );
    for stage in [
        "sim_server_stage_cache_lookup_us",
        "sim_server_stage_queue_wait_us",
        "sim_server_stage_eval_batch_us",
        "sim_server_sweep_time_us",
    ] {
        let h0 =
            LatencyHistogram::parse(&p0, stage).unwrap_or_else(|| panic!("{stage} not on shard 0"));
        let h1 =
            LatencyHistogram::parse(&p1, stage).unwrap_or_else(|| panic!("{stage} not on shard 1"));
        let routed =
            LatencyHistogram::parse(&rp, stage).unwrap_or_else(|| panic!("{stage} not on router"));
        let mut merged = h0;
        merged.merge(&h1);
        assert_eq!(
            routed.to_exposition(stage),
            merged.to_exposition(stage),
            "router aggregation of {stage} must be an exact histogram merge"
        );
    }
    // Per-cell stages record one sample per grid cell no matter how the
    // fleet is sharded: the merged count equals a single-process run's.
    for per_cell in [
        "sim_server_stage_cache_lookup_us",
        "sim_server_stage_queue_wait_us",
        "sim_server_stage_eval_batch_us",
    ] {
        let routed = LatencyHistogram::parse(&rp, per_cell).unwrap();
        assert_eq!(routed.count(), 72, "{per_cell}");
    }

    router.shutdown().unwrap();
    s0.shutdown().unwrap();
    s1.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&base);
}

/// A busy backend (429) makes the whole routed sweep retryable, and the
/// shard's Retry-After survives the hop.
#[test]
fn busy_shard_propagates_429_and_retry_after() {
    let s0 = shard(0); // queue bound 0: every new cell is a 429
    let router = router_over(&[&s0]);
    let addr = router.addr.to_string();

    let body =
        r#"{"scale":"test","cells":[{"bench":"vecop","version":"Serial","precision":"single"}]}"#;
    let (st, headers, resp) = request_full(&addr, "POST", "/v1/sweep", body.as_bytes(), T).unwrap();
    assert_eq!(st, 429);
    let retry = headers
        .iter()
        .find(|(k, _)| k == "retry-after")
        .map(|(_, v)| v.as_str());
    assert_eq!(retry, Some("1"), "headers: {headers:?}");
    assert!(String::from_utf8_lossy(&resp).contains("shard busy"));
    assert_eq!(metric(&addr, "sim_router_rejected_total"), 1);

    router.shutdown().unwrap();
    s0.shutdown().unwrap();
}

/// Malformed sweeps are rejected by the router itself — no shard traffic,
/// proper 400s — and unknown routes get 404.
#[test]
fn router_validates_requests_before_fanning_out() {
    let s0 = shard(16);
    let router = router_over(&[&s0]);
    let addr = router.addr.to_string();

    for (body, want) in [
        ("{not json", "bad JSON"),
        (r#"{"scale":"test"}"#, "missing 'cells'"),
        (
            r#"{"scale":"test","cells":[{"bench":"nope","version":"Serial","precision":"single"}]}"#,
            "unknown benchmark",
        ),
    ] {
        let (st, resp) = sweep(&addr, body);
        assert_eq!(st, 400, "{body} -> {resp}");
        assert!(resp.contains(want), "{body} -> {resp}");
    }
    let (st, _) = request(&addr, "PUT", "/v1/sweep", b"{}", T).unwrap();
    assert_eq!(st, 404);
    assert_eq!(metric(&addr, "sim_router_bad_requests_total"), 3);
    // The backend never saw a sweep.
    assert_eq!(metric(&s0.addr.to_string(), "sim_server_sweeps_total"), 0);

    router.shutdown().unwrap();
    s0.shutdown().unwrap();
}
