//! End-to-end tests of the experiment service over a real TCP socket.
//!
//! The contract under test: a served sweep is byte-identical to the
//! offline `harness jsonl` artifact, a warm (cached) response is
//! byte-identical to the cold one that populated it, a checkpoint is a
//! cache file, the cache persists across server restarts, and
//! backpressure/validation surface as proper HTTP statuses — all
//! regardless of thread count, cache state or arrival order.

use harness::runner::run_suite_with;
use harness::{to_jsonl, SuiteConfig};
use hpc_kernels::{test_suite, Precision, Variant};
use sim_server::http::request;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

const T: Duration = Duration::from_secs(600);

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sim-server-e2e-{name}-{}", std::process::id()))
}

/// One offline fault-free test-scale sweep, shared across tests: its
/// JSONL artifact is the byte-identity reference and its checkpoint file
/// is a ready-made cache file.
fn offline() -> &'static (String, PathBuf) {
    static OFFLINE: OnceLock<(String, PathBuf)> = OnceLock::new();
    OFFLINE.get_or_init(|| {
        let state = tmp("offline-state");
        let cfg = SuiteConfig {
            checkpoint: Some(state.clone()),
            state_tag: "test".into(),
            ..SuiteConfig::default()
        };
        let results = run_suite_with(&test_suite(), &cfg);
        (to_jsonl(&results), state)
    })
}

fn serve(capacity: usize, queue: usize, cache: Option<PathBuf>) -> harness::serve::RunningServer {
    harness::serve::start(harness::ServeConfig {
        addr: "127.0.0.1:0".into(),
        capacity,
        queue_cap: queue,
        cache_path: cache,
        trace_dir: None,
        trace_sample: 0,
        slow_ms: None,
        timeout_ms: None,
        ..harness::ServeConfig::default()
    })
    .expect("server starts")
}

/// A server with request tracing on: every request sampled into `dir`.
fn serve_traced(dir: PathBuf) -> harness::serve::RunningServer {
    harness::serve::start(harness::ServeConfig {
        addr: "127.0.0.1:0".into(),
        capacity: 1024,
        queue_cap: 256,
        cache_path: None,
        trace_dir: Some(dir),
        trace_sample: 1,
        slow_ms: None,
        timeout_ms: None,
        ..harness::ServeConfig::default()
    })
    .expect("traced server starts")
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

fn sweep(addr: &str, body: &str) -> (u16, String) {
    let (st, resp) = request(addr, "POST", "/v1/sweep", body.as_bytes(), T).unwrap();
    (st, String::from_utf8(resp).unwrap())
}

/// Cold sweep simulates; an identical second sweep is served entirely
/// from cache; both bodies are byte-identical to each other and to the
/// offline artifact. Single cells are inspectable by content address.
#[test]
fn cold_then_warm_full_sweep_matches_offline_artifact() {
    let (offline_jsonl, _) = offline();
    let srv = serve(1024, 256, None);
    let addr = srv.addr.to_string();

    let (st, body) = request(&addr, "GET", "/healthz", b"", T).unwrap();
    assert_eq!((st, body.as_slice()), (200, b"ok\n".as_slice()));

    let req = r#"{"scale":"test","cells":"all"}"#;
    let (st, cold) = sweep(&addr, req);
    assert_eq!(st, 200);
    assert_eq!(metric(&addr, "sim_server_cache_misses"), 72);
    assert_eq!(metric(&addr, "sim_server_cache_hits"), 0);
    assert_eq!(metric(&addr, "sim_server_cells_simulated_total"), 72);

    let (st, warm) = sweep(&addr, req);
    assert_eq!(st, 200);
    assert_eq!(cold, warm, "cache state must not change response bytes");
    assert_eq!(
        &cold, offline_jsonl,
        "served full-grid sweep must be byte-identical to `harness jsonl`"
    );
    assert_eq!(metric(&addr, "sim_server_cache_hits"), 72);
    assert_eq!(metric(&addr, "sim_server_cells_simulated_total"), 72);

    // Single-cell inspection by content address (vecop Serial single is
    // its own serial baseline, so its row carries speedup 1).
    let key =
        harness::cell_spec("test", None, None, "vecop", Variant::Serial, Precision::F32).key();
    let (st, body) = request(&addr, "GET", &format!("/v1/cell/{key}"), b"", T).unwrap();
    let body = String::from_utf8(body).unwrap();
    assert_eq!(st, 200, "{body}");
    assert!(body.contains(&format!("\"key\":\"{key}\"")), "{body}");
    assert!(body.contains("\"bench\":\"vecop\""), "{body}");
    assert!(body.contains("\"speedup\":1"), "{body}");

    // Unknown key -> 404; malformed key -> 400.
    let (st, _) = request(&addr, "GET", "/v1/cell/ffffffffffffffff", b"", T).unwrap();
    assert_eq!(st, 404);
    let (st, _) = request(&addr, "GET", "/v1/cell/nope", b"", T).unwrap();
    assert_eq!(st, 400);

    srv.shutdown().unwrap();
}

/// Subset sweeps: rows come back in request order, intra-request
/// duplicates coalesce to one simulation, and ratios are computed over
/// the request's own result set (null without a serial baseline).
#[test]
fn subset_sweeps_coalesce_and_order_rows() {
    let srv = serve(64, 64, None);
    let addr = srv.addr.to_string();

    // The same cell requested twice in one sweep: two rows, one
    // simulation — deterministic coalescing, no thread races involved.
    let dup = r#"{"scale":"test","cells":[
        {"bench":"vecop","version":"OpenCL","precision":"single"},
        {"bench":"vecop","version":"OpenCL","precision":"single"}]}"#;
    let (st, body) = sweep(&addr, dup);
    assert_eq!(st, 200);
    let rows: Vec<&str> = body.lines().collect();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0], rows[1]);
    assert_eq!(metric(&addr, "sim_server_cells_simulated_total"), 1);
    assert_eq!(metric(&addr, "sim_server_cache_misses"), 1);
    // No serial baseline in the request: ratio columns are null.
    assert!(rows[0].contains("\"speedup\":null"), "{}", rows[0]);

    // Adding the baseline turns the ratios on; row order follows the
    // request, not the suite.
    let with_serial = r#"{"scale":"test","cells":[
        {"bench":"vecop","version":"OpenCL","precision":"single"},
        {"bench":"vecop","version":"Serial","precision":"single"}]}"#;
    let (st, body) = sweep(&addr, with_serial);
    assert_eq!(st, 200);
    let rows: Vec<&str> = body.lines().collect();
    assert_eq!(rows.len(), 2);
    assert!(rows[0].contains("\"version\":\"OpenCL\""), "{}", rows[0]);
    assert!(rows[1].contains("\"version\":\"Serial\""), "{}", rows[1]);
    assert!(!rows[0].contains("\"speedup\":null"), "{}", rows[0]);
    // Only Serial was new; the OpenCL cell came from cache.
    assert_eq!(metric(&addr, "sim_server_cells_simulated_total"), 2);

    srv.shutdown().unwrap();
}

/// Malformed requests get 400s with explanations, never a panic or a
/// simulation.
#[test]
fn invalid_sweeps_are_rejected() {
    let srv = serve(16, 16, None);
    let addr = srv.addr.to_string();
    for (body, want) in [
        ("{not json", "bad JSON"),
        (r#"{"scale":"huge","cells":"all"}"#, "unknown scale"),
        (r#"{"scale":"test"}"#, "missing 'cells'"),
        (r#"{"scale":"test","cells":[]}"#, "'cells' is empty"),
        (
            r#"{"scale":"test","cells":[{"bench":"nope","version":"Serial","precision":"single"}]}"#,
            "unknown benchmark",
        ),
        (
            r#"{"scale":"test","cells":[{"bench":"vecop","version":"CUDA","precision":"single"}]}"#,
            "unknown version",
        ),
        (
            r#"{"scale":"test","cells":[{"bench":"vecop","version":"Serial","precision":"half"}]}"#,
            "unknown precision",
        ),
        (
            r#"{"scale":"test","fault_seed":-1,"cells":"all"}"#,
            "unsigned integer",
        ),
    ] {
        let (st, resp) = sweep(&addr, body);
        assert_eq!(st, 400, "{body} -> {resp}");
        assert!(resp.contains(want), "{body} -> {resp}");
    }
    assert_eq!(metric(&addr, "sim_server_bad_requests_total"), 8);
    assert_eq!(metric(&addr, "sim_server_cells_simulated_total"), 0);
    let (st, _) = request(&addr, "PUT", "/v1/sweep", b"{}", T).unwrap();
    assert_eq!(st, 404);
    srv.shutdown().unwrap();
}

/// queue bound 0: every sweep that needs new work is pushed back with
/// 429 before anything is enqueued.
#[test]
fn zero_queue_capacity_rejects_with_429() {
    let srv = serve(16, 0, None);
    let addr = srv.addr.to_string();
    let (st, body) = sweep(
        &addr,
        r#"{"scale":"test","cells":[{"bench":"vecop","version":"Serial","precision":"single"}]}"#,
    );
    assert_eq!(st, 429);
    assert!(body.contains("queue full"), "{body}");
    assert_eq!(metric(&addr, "sim_server_cells_simulated_total"), 0);
    assert_eq!(metric(&addr, "sim_server_sweeps_rejected_busy_total"), 1);
    srv.shutdown().unwrap();
}

/// Oversized requests are refused with 413 (not 400, which is reserved
/// for malformed ones) before the body is read, and the connection-level
/// rejection leaves the server fully operational.
#[test]
fn oversized_requests_get_413_and_the_server_survives() {
    use std::io::{Read, Write};

    let srv = serve(16, 16, None);
    let addr = srv.addr.to_string();

    // Declared body over the 16 MiB cap: refused up front — no need to
    // send (or allocate) the body itself.
    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    conn.write_all(b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 17000000\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    let _ = conn.read_to_string(&mut resp);
    assert!(resp.starts_with("HTTP/1.1 413 "), "{resp}");

    // Malformed (non-numeric length) stays a 400.
    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    conn.write_all(b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: lots\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    let _ = conn.read_to_string(&mut resp);
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");

    // The server kept serving throughout.
    let (st, body) = request(&addr, "GET", "/healthz", b"", T).unwrap();
    assert_eq!((st, body.as_slice()), (200, b"ok\n".as_slice()));
    srv.shutdown().unwrap();
}

/// A sweep checkpoint is a `simcache` file: served with `--cache`, the
/// first sweep comes entirely from the checkpointed cells and still
/// matches the offline artifact byte for byte.
#[test]
fn checkpoint_warm_start_serves_without_simulating() {
    let (offline_jsonl, state) = offline();
    let srv = serve(1024, 256, Some(state.clone()));
    let addr = srv.addr.to_string();
    let (st, body) = sweep(&addr, r#"{"scale":"test","cells":"all"}"#);
    assert_eq!(st, 200);
    assert_eq!(&body, offline_jsonl);
    assert_eq!(metric(&addr, "sim_server_cache_hits"), 72);
    assert_eq!(metric(&addr, "sim_server_cache_misses"), 0);
    assert_eq!(metric(&addr, "sim_server_cells_simulated_total"), 0);
    srv.shutdown().unwrap();
}

/// A cache file written by an older model keys its cells under that
/// model's version, so none of them answers for this one: every cell is
/// simulated afresh and the sweep matches the offline artifact.
#[test]
fn stale_model_version_cells_are_not_served() {
    let (offline_jsonl, _) = offline();
    let mut stale = sim_server::cache::Cache::new(usize::MAX);
    let planted = harness::encode_entry(&harness::CellEntry::Failed(harness::CellError {
        kind: harness::FailKind::Panic,
        message: "bytes of an older model".into(),
        attempts: 1,
        backoff_ms: 0,
    }));
    for b in test_suite() {
        for prec in Precision::ALL {
            for v in Variant::ALL {
                let spec = harness::cell_spec("test", None, None, b.name(), v, prec);
                assert_ne!(spec.sim_version, "0.1.0");
                let old = sim_server::key::CellSpec {
                    sim_version: "0.1.0".into(),
                    ..spec
                };
                stale.insert(old, planted.clone());
            }
        }
    }
    assert_eq!(stale.len(), 72);
    let path = tmp("stale-cache");
    std::fs::write(&path, stale.snapshot()).unwrap();
    let srv = serve(1024, 256, Some(path.clone()));
    let addr = srv.addr.to_string();
    let (st, body) = sweep(&addr, r#"{"scale":"test","cells":"all"}"#);
    assert_eq!(st, 200);
    assert_eq!(&body, offline_jsonl);
    assert_eq!(metric(&addr, "sim_server_cache_hits"), 0);
    assert_eq!(metric(&addr, "sim_server_cache_misses"), 72);
    assert_eq!(metric(&addr, "sim_server_cells_simulated_total"), 72);
    srv.shutdown().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// The persisted cache survives a server restart: the second process
/// serves the same bytes without re-simulating.
#[test]
fn cache_persists_across_restarts() {
    let cache = tmp("persist-cache");
    let _ = std::fs::remove_file(&cache);
    let req = r#"{"scale":"test","cells":[
        {"bench":"hist","version":"Serial","precision":"single"},
        {"bench":"hist","version":"OpenCL-Opt","precision":"single"}]}"#;

    let srv = serve(64, 64, Some(cache.clone()));
    let addr = srv.addr.to_string();
    let (st, first) = sweep(&addr, req);
    assert_eq!(st, 200);
    srv.shutdown().unwrap();
    assert!(cache.exists(), "shutdown persists the cache");

    let srv = serve(64, 64, Some(cache.clone()));
    let addr = srv.addr.to_string();
    let (st, second) = sweep(&addr, req);
    assert_eq!(st, 200);
    assert_eq!(first, second);
    assert_eq!(metric(&addr, "sim_server_cache_hits"), 2);
    assert_eq!(metric(&addr, "sim_server_cells_simulated_total"), 0);
    srv.shutdown().unwrap();
    let _ = std::fs::remove_file(&cache);
}

/// Request tracing is purely observational: with `--trace-dir` on and
/// every request sampled, the response bytes are still byte-identical to
/// the offline artifact, the client-supplied trace id is echoed back and
/// names the Perfetto file on disk, the trace is valid JSON naming every
/// pipeline stage, and the structured request log carries the stage
/// timings.
#[test]
fn tracing_never_changes_response_bytes_and_writes_artifacts() {
    use sim_server::http::request_with;
    use sim_server::TRACE_HEADER;

    let (offline_jsonl, _) = offline();
    let dir = tmp("trace-dir");
    let _ = std::fs::remove_dir_all(&dir);
    let srv = serve_traced(dir.clone());
    let addr = srv.addr.to_string();

    // Client-supplied id: accepted, echoed, and it names the artifact.
    let id = "00000000deadbeef";
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
        offline_jsonl,
        "tracing must not change response bytes"
    );

    // The sampled trace is on disk, is valid JSON, and names each stage.
    let trace_path = dir.join(format!("req-{id}.json"));
    let trace = std::fs::read_to_string(&trace_path).expect("sampled trace written");
    sim_server::json::parse(&trace).expect("trace is valid JSON");
    for stage in [
        "parse",
        "cache_lookup",
        "admit",
        "queue_wait",
        "eval_batch",
        "format",
    ] {
        assert!(trace.contains(&format!("\"name\":\"{stage}\"")), "{trace}");
    }

    // One structured log line per request, stage timings inline.
    let log = std::fs::read_to_string(dir.join("requests.log")).unwrap();
    let line = log
        .lines()
        .find(|l| l.contains(&format!("trace={id}")))
        .unwrap_or_else(|| panic!("no log line for {id} in:\n{log}"));
    for field in [
        "endpoint=/v1/sweep",
        "status=200",
        "cells=72",
        "parse_us=",
        "eval_batch_us=",
        "sampled=yes",
    ] {
        assert!(line.contains(field), "{line}");
    }

    // A request without the header gets a generated 16-hex id echoed.
    let (st, headers, _) =
        request_with(&addr, "POST", "/v1/sweep", &[], req.as_bytes(), T).unwrap();
    assert_eq!(st, 200);
    let generated = headers
        .iter()
        .find(|(k, _)| k == "x-sim-trace-id")
        .map(|(_, v)| v.as_str())
        .expect("trace id echoed even when client sent none");
    assert_eq!(generated.len(), 16, "{generated}");
    assert!(generated.chars().all(|c| c.is_ascii_hexdigit()));

    // The metrics page grew histogram families and metadata.
    let (st, page) = request(&addr, "GET", "/metrics", b"", T).unwrap();
    assert_eq!(st, 200);
    let page = String::from_utf8(page).unwrap();
    assert!(page.contains("# HELP sim_server_cache_hits"), "{page}");
    assert!(page.contains("# TYPE sim_server_sweep_time_us histogram"));
    assert!(page.contains("sim_server_sweep_time_us_bucket{le=\"+Inf\"}"));
    assert!(page.contains("sim_server_stage_eval_batch_us_count 72"));
    assert!(page.contains("sim_server_stage_queue_wait_us_count 72"));
    assert!(page.contains("sim_server_stage_cache_lookup_us_count 144"));
    assert!(metric(&addr, "sim_server_uptime_seconds") < 600);
    // Percentiles come from the buckets; no scalar percentile gauge
    // (unmergeable across shards) is exported.
    assert!(!page.contains("sim_server_sweep_time_p95_us"), "{page}");

    srv.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault seeds are part of the content address: the same cell with a
/// different (or no) seed is a different key and simulates separately,
/// and a seeded served cell matches the offline chaos pipeline.
#[test]
fn fault_seed_is_part_of_the_cell_identity() {
    let k0 = harness::cell_spec("test", None, None, "red", Variant::Serial, Precision::F32).key();
    let k7 = harness::cell_spec(
        "test",
        Some(7),
        None,
        "red",
        Variant::Serial,
        Precision::F32,
    )
    .key();
    assert_ne!(k0, k7);

    let srv = serve(64, 64, None);
    let addr = srv.addr.to_string();
    let cell = r#"{"bench":"red","version":"Serial","precision":"single"}"#;
    let (st, plain) = sweep(&addr, &format!(r#"{{"scale":"test","cells":[{cell}]}}"#));
    assert_eq!(st, 200);
    let (st, seeded) = sweep(
        &addr,
        &format!(r#"{{"scale":"test","fault_seed":7,"cells":[{cell}]}}"#),
    );
    assert_eq!(st, 200);
    assert_eq!(metric(&addr, "sim_server_cells_simulated_total"), 2);

    // Offline equivalent of the seeded run: same per-cell fault plan.
    let cfg = SuiteConfig {
        faults: Some(sim_faults::FaultPlan::new(7)),
        ..SuiteConfig::default()
    };
    let offline_seeded = run_suite_with(&test_suite(), &cfg);
    let row = harness::jsonl_row(&offline_seeded, "red", Variant::Serial, Precision::F32);
    assert_eq!(seeded.trim_end(), row);
    // And the unseeded row differs only if a fault actually fired; both
    // must at minimum be valid rows for the same cell.
    assert!(plain.contains("\"bench\":\"red\""));

    srv.shutdown().unwrap();
}

/// The reactor holds open sockets without spending a thread or a worker
/// on them: with 1000 idle connections parked on the server, a full
/// sweep still completes and stays byte-identical to `harness jsonl`.
#[test]
fn thousand_idle_connections_do_not_perturb_sweep_bytes() {
    let (offline_jsonl, _) = offline();
    let srv = serve(1024, 256, None);
    let addr = srv.addr.to_string();

    // Park 1000 open connections that never send a byte. Kept alive
    // until the end of the test; the server must serve around them.
    let idle: Vec<std::net::TcpStream> = (0..1000)
        .map(|i| {
            std::net::TcpStream::connect(&addr)
                .unwrap_or_else(|e| panic!("idle connection {i} failed: {e}"))
        })
        .collect();
    assert_eq!(idle.len(), 1000);

    let (st, body) = sweep(&addr, r#"{"scale":"test","cells":"all"}"#);
    assert_eq!(st, 200);
    assert_eq!(
        &body, offline_jsonl,
        "sweep under 1000 idle connections must match the offline artifact"
    );

    // The parked sockets are still usable afterwards.
    let (st, _) = request(&addr, "GET", "/healthz", b"", T).unwrap();
    assert_eq!(st, 200);
    drop(idle);
    srv.shutdown().unwrap();
}

/// Priority scheduling end to end: with one worker and several bulk
/// full-grid sweeps queued, an interactive request sent afterwards is
/// answered before the queued bulk work, and the per-lane queue-wait
/// histograms record both lanes.
#[test]
fn interactive_request_overtakes_queued_bulk_sweeps() {
    let srv = harness::serve::start(harness::ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        priority_cells: 2,
        ..harness::ServeConfig::default()
    })
    .expect("server starts");
    let addr = srv.addr.to_string();

    // Four bulk sweeps with distinct fault seeds: no response is cached,
    // so each occupies the single worker for a full-grid evaluation. The
    // launch memo makes every sweep after the first quick, so the
    // interactive request goes out once the reactor reports bulk sweeps
    // queued behind the one running, not after a fixed sleep.
    let order: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for seed in 1..=4u64 {
            let addr = &addr;
            let order = &order;
            scope.spawn(move || {
                let body = format!(r#"{{"scale":"test","fault_seed":{seed},"cells":"all"}}"#);
                let (st, _) = sweep(addr, &body);
                assert_eq!(st, 200);
                order.lock().unwrap().push(format!("bulk{seed}"));
            });
        }
        // Wait until two bulk sweeps are queued, then send the interactive
        // request; it must jump the bulk queue. (`/metrics` rides the
        // interactive lane too, so each poll returns between two sweeps.)
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while metric(&addr, "sim_server_lane_depth_bulk") < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "bulk sweeps never queued"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let (st, _) = request(&addr, "GET", "/healthz", b"", T).unwrap();
        assert_eq!(st, 200);
        order.lock().unwrap().push("interactive".into());
    });
    let order = order.into_inner().unwrap();
    assert_eq!(order.len(), 5, "all five requests completed: {order:?}");
    let pos = |name: &str| order.iter().position(|o| o == name).unwrap();
    assert!(
        pos("interactive") < order.len() - 1,
        "interactive request must finish before the last queued bulk sweep: {order:?}"
    );

    // Both lanes' wait histograms recorded samples, and bulk dispatches
    // are visible per lane.
    assert!(metric(&addr, "sim_server_lane_wait_interactive_us_count") >= 1);
    assert!(metric(&addr, "sim_server_lane_wait_bulk_us_count") >= 4);
    assert!(metric(&addr, "sim_server_lane_dispatched_bulk_total") >= 4);
    assert_eq!(metric(&addr, "sim_server_wait_timeouts_total"), 0);
    srv.shutdown().unwrap();
}

/// A request gets one lane decision, made by the HTTP reactor however its
/// JSON is spaced, and `serve` admits the request's cells to that same
/// scheduler lane. `priority_cells` exceeds the grid, so only the
/// `"cells":"all"` rule can make this sweep bulk.
#[test]
fn spaced_full_grid_sweep_rides_the_bulk_lane_at_both_layers() {
    let (offline_jsonl, _) = offline();
    let dir = tmp("lane-trace");
    let _ = std::fs::remove_dir_all(&dir);
    let srv = harness::serve::start(harness::ServeConfig {
        addr: "127.0.0.1:0".into(),
        priority_cells: 100,
        trace_dir: Some(dir.clone()),
        trace_sample: 1,
        ..harness::ServeConfig::default()
    })
    .expect("server starts");
    let addr = srv.addr.to_string();

    let (st, body) = sweep(&addr, r#"{"scale":"test","cells" : "all"}"#);
    assert_eq!(st, 200);
    assert_eq!(&body, offline_jsonl);
    assert_eq!(metric(&addr, "sim_server_lane_dispatched_bulk_total"), 1);
    let log = std::fs::read_to_string(dir.join("requests.log")).unwrap();
    let line = log
        .lines()
        .find(|l| l.contains("endpoint=/v1/sweep"))
        .unwrap_or_else(|| panic!("no sweep line in:\n{log}"));
    assert!(line.contains(" lane=bulk "), "{line}");
    srv.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
