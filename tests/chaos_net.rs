//! End-to-end tests of the serving fleet's network fault tolerance
//! (DESIGN.md §16): deterministic network chaos in the router's fan-out
//! client, seeded retries, per-shard circuit breakers, and replica
//! failover on the ring.
//!
//! The headline contract: with `--replicas 2`, a routed full-grid sweep
//! that loses a shard mid-run emits JSONL *byte-identical* to the
//! offline `harness jsonl` artifact — zero `shard-down` rows — because
//! every key fails over to its distinct ring-successor owner. With
//! replicas disabled the same loss degrades to structured `shard-down`
//! rows and an open breaker, exactly as before.

use harness::runner::run_suite_with;
use harness::{to_jsonl, SuiteConfig};
use hpc_kernels::{test_suite, Precision, Variant};
use sim_server::http::request;
use sim_server::router::Ring;
use std::sync::OnceLock;
use std::time::Duration;

const T: Duration = Duration::from_secs(600);

/// The byte-identity reference: one offline fault-free test-scale sweep.
fn offline_jsonl() -> &'static String {
    static OFFLINE: OnceLock<String> = OnceLock::new();
    OFFLINE.get_or_init(|| to_jsonl(&run_suite_with(&test_suite(), &SuiteConfig::default())))
}

fn shard() -> harness::serve::RunningServer {
    harness::serve::start(harness::ServeConfig {
        addr: "127.0.0.1:0".into(),
        capacity: 1024,
        queue_cap: 256,
        cache_path: None,
        trace_dir: None,
        trace_sample: 0,
        slow_ms: None,
        timeout_ms: None,
        ..harness::ServeConfig::default()
    })
    .expect("shard starts")
}

struct RouterKnobs {
    replicas: usize,
    retry_budget: u32,
    breaker_threshold: u32,
    fault_seed: Option<u64>,
}

fn router_with(
    shards: &[&harness::serve::RunningServer],
    knobs: RouterKnobs,
) -> harness::route::RunningRouter {
    harness::route::start(harness::RouteConfig {
        addr: "127.0.0.1:0".into(),
        shards: shards.iter().map(|s| s.addr.to_string()).collect(),
        replicas: knobs.replicas,
        retry_budget: knobs.retry_budget,
        breaker_threshold: knobs.breaker_threshold,
        fault_seed: knobs.fault_seed,
        timeout_ms: None,
        trace_dir: None,
        trace_sample: 0,
        slow_ms: None,
        workers: sim_server::http::DEFAULT_WORKERS,
        priority_cells: sim_server::http::DEFAULT_PRIORITY_CELLS,
    })
    .expect("router starts")
}

fn sweep(addr: &str) -> (u16, String) {
    let body = r#"{"scale":"test","cells":"all"}"#;
    let (st, resp) = request(addr, "POST", "/v1/sweep", body.as_bytes(), T).unwrap();
    (st, String::from_utf8(resp).unwrap())
}

/// Read one metric line, with or without labels, e.g.
/// `metric(addr, "sim_router_breaker_state{shard=\"1\"}")`.
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

/// The tentpole contract: with `--replicas 2` over two shards, killing
/// one shard mid-run changes *no response bytes* — every cell the dead
/// shard owned fails over to its ring-successor, the sweep still answers
/// 200 with zero `shard-down` rows, and the failover is visible on
/// `/metrics`.
#[test]
fn replica_failover_keeps_sweeps_byte_identical_after_shard_loss() {
    let s0 = shard();
    let s1 = shard();
    let router = router_with(
        &[&s0, &s1],
        RouterKnobs {
            replicas: 2,
            retry_budget: 2,
            breaker_threshold: 2,
            fault_seed: None,
        },
    );
    let addr = router.addr.to_string();

    let (st, healthy) = sweep(&addr);
    assert_eq!(st, 200);
    assert_eq!(&healthy, offline_jsonl(), "healthy baseline");

    // Count the casualties-to-be so the assertion below is not vacuous.
    let ring = Ring::new(2);
    let mut dead_cells = 0u64;
    for b in test_suite() {
        for prec in Precision::ALL {
            for v in Variant::ALL {
                let key = harness::cell_spec("test", None, None, b.name(), v, prec).key();
                if ring.shard_of(key) == 1 {
                    dead_cells += 1;
                }
            }
        }
    }
    assert!(dead_cells > 0, "ring gave shard 1 nothing; test is vacuous");

    // Kill shard 1 mid-run: its listener closes, the router's next
    // sub-request is refused and its cells re-route to shard 0.
    s1.shutdown().unwrap();

    let (st, failed_over) = sweep(&addr);
    assert_eq!(st, 200);
    assert_eq!(
        &failed_over,
        offline_jsonl(),
        "one-shard loss with replicas=2 must not change a single byte"
    );
    assert!(
        !failed_over.contains("shard-down"),
        "failover must leave no shard-down rows"
    );
    assert_eq!(metric(&addr, "sim_router_failovers_total"), dead_cells);
    assert!(metric(&addr, "sim_router_shard_errors_total") >= 1);

    // Every sweep stays identical while the shard is gone (the follower
    // now serves its keys from cache).
    let (st, again) = sweep(&addr);
    assert_eq!(st, 200);
    assert_eq!(&again, offline_jsonl());

    router.shutdown().unwrap();
    s0.shutdown().unwrap();
}

/// With replicas disabled the old degradation contract holds: the dead
/// shard's cells come back as structured `shard-down` rows, and once the
/// breaker trips, `/metrics` reports the shard quarantined (state 2) and
/// later sweeps skip it outright.
#[test]
fn without_replicas_a_dead_shard_degrades_and_trips_its_breaker() {
    let s0 = shard();
    let s1 = shard();
    let router = router_with(
        &[&s0, &s1],
        RouterKnobs {
            replicas: 1,
            retry_budget: 1,
            breaker_threshold: 1,
            fault_seed: None,
        },
    );
    let addr = router.addr.to_string();

    s1.shutdown().unwrap();

    let (st, degraded) = sweep(&addr);
    assert_eq!(st, 200, "a dead shard must not turn the sweep into a 500");
    let ring = Ring::new(2);
    let mut dead = 0;
    let mut row = degraded.lines();
    for b in test_suite() {
        for prec in Precision::ALL {
            for v in Variant::ALL {
                let key = harness::cell_spec("test", None, None, b.name(), v, prec).key();
                let r = row.next().unwrap();
                if ring.shard_of(key) == 1 {
                    dead += 1;
                    assert!(r.contains("\"fail_kind\":\"shard-down\""), "{r}");
                } else {
                    assert!(!r.contains("shard-down"), "{r}");
                }
            }
        }
    }
    assert!(dead > 0);

    // threshold=1: the first transport failure opened the breaker.
    assert_eq!(metric(&addr, "sim_router_breaker_state{shard=\"0\"}"), 0);
    assert_eq!(metric(&addr, "sim_router_breaker_state{shard=\"1\"}"), 2);
    assert_eq!(metric(&addr, "sim_router_failovers_total"), 0);

    // With the breaker open, the quarantined shard is skipped outright
    // (no `/v1/cells` attempt, so no new shard error) and its cells
    // still degrade to shard-down rows; the live shard's rows are
    // byte-identical to the first degraded sweep.
    let errors_before = metric(&addr, "sim_router_shard_errors_total");
    let (st, quarantined) = sweep(&addr);
    assert_eq!(st, 200);
    for (before, after) in degraded.lines().zip(quarantined.lines()) {
        if before.contains("shard-down") {
            // Same structured failure; only `fail_detail` may differ
            // ("unreachable" vs "quarantined (breaker open)").
            assert!(after.contains("\"fail_kind\":\"shard-down\""), "{after}");
        } else {
            assert_eq!(before, after);
        }
    }
    assert_eq!(
        metric(&addr, "sim_router_shard_errors_total"),
        errors_before,
        "an open breaker must suppress data-plane attempts"
    );

    router.shutdown().unwrap();
    s0.shutdown().unwrap();
}

/// Deterministic network chaos: with `--fault-seed` set, the router's
/// fan-out client injects connect refusals, truncations and garbage
/// status lines, the seeded retry loop heals them within the budget, and
/// the response is *still* byte-identical to the offline artifact — on
/// every run, because every roll is a pure function of
/// `(seed, request content, attempt)`.
#[test]
fn seeded_network_chaos_heals_within_the_retry_budget() {
    // The rolls hash the shard sub-request bodies, which carry the cells'
    // canonical specs: a change to the key schema or the model version
    // re-rolls them, and may leave this seed drawing no fault at all.
    let knobs = || RouterKnobs {
        replicas: 2,
        retry_budget: 6,
        breaker_threshold: 3,
        fault_seed: Some(0xC4A10),
    };

    let s0 = shard();
    let s1 = shard();
    let router = router_with(&[&s0, &s1], knobs());
    let addr = router.addr.to_string();

    let (st, chaotic) = sweep(&addr);
    assert_eq!(st, 200);
    assert_eq!(
        &chaotic,
        offline_jsonl(),
        "chaos must be healed by retries, not change response bytes"
    );
    let retries = metric(&addr, "sim_router_retries_total");
    assert!(
        retries > 0,
        "seed 0xC4A10 injected no faults; test is vacuous"
    );

    // Same seed, fresh fleet: the same chaos schedule replays exactly.
    let t0 = shard();
    let t1 = shard();
    let router2 = router_with(&[&t0, &t1], knobs());
    let addr2 = router2.addr.to_string();
    let (st, replay) = sweep(&addr2);
    assert_eq!(st, 200);
    assert_eq!(replay, chaotic);
    assert_eq!(
        metric(&addr2, "sim_router_retries_total"),
        retries,
        "chaos rolls must not depend on ports, timing or thread count"
    );

    router.shutdown().unwrap();
    router2.shutdown().unwrap();
    for s in [s0, s1, t0, t1] {
        s.shutdown().unwrap();
    }
}

/// Chaos plus a real casualty: truncated responses *and* a shard killed
/// mid-sweep, with a replica covering the loss — still byte-identical.
#[test]
fn chaos_and_shard_loss_combined_stay_byte_identical_with_replicas() {
    let s0 = shard();
    let s1 = shard();
    let router = router_with(
        &[&s0, &s1],
        RouterKnobs {
            replicas: 2,
            retry_budget: 6,
            breaker_threshold: 3,
            fault_seed: Some(0xC4A10),
        },
    );
    let addr = router.addr.to_string();

    let (st, healthy) = sweep(&addr);
    assert_eq!(st, 200);
    assert_eq!(&healthy, offline_jsonl());

    s1.shutdown().unwrap();

    let (st, survived) = sweep(&addr);
    assert_eq!(st, 200);
    assert_eq!(
        &survived,
        offline_jsonl(),
        "chaos + one-shard loss with replicas=2 must not change bytes"
    );
    assert!(metric(&addr, "sim_router_failovers_total") > 0);

    router.shutdown().unwrap();
    s0.shutdown().unwrap();
}
