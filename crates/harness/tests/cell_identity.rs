//! A cell's bytes come only from its key. These tests drive the real
//! binary — environment variables included — and demand that offline
//! `harness jsonl`, a `serve` process and a 2-shard `route` fleet agree
//! byte for byte, whatever process-wide setting the serving side was
//! started with.

use harness::cell_spec;
use hpc_kernels::{Precision, Variant};
use sim_server::cache::Cache;
use sim_server::key::fnv1a64;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

const FULL: &str = "cf,alg,sr,cse,licm,dse,dce";

/// A harness command with the byte-affecting environment cleared;
/// `SIM_EXEC`/`SIM_THREADS` pass through, since they must not matter.
fn harness(args: &[&str]) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_harness"));
    c.args(args)
        .env_remove("SIM_PASSES")
        .env_remove("FAULT_SEED");
    c
}

/// Run to completion and return stdout (exit codes vary: failure rows
/// exit 1 by contract).
fn stdout(mut c: Command) -> String {
    let out = c.stderr(Stdio::null()).output().expect("spawn harness");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Run to completion and return how many cells the sweep simulated: with
/// `--verbose` the runner logs one `[i/n] bench version precision` line
/// per cell it runs and none for a cell it reuses from its checkpoint.
fn cells_run(mut c: Command) -> (String, usize) {
    let out = c.output().expect("spawn harness");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let run = stderr
        .lines()
        .filter(|l| l.starts_with('[') && l.contains("/9] "))
        .count();
    (String::from_utf8(out.stdout).expect("utf-8 output"), run)
}

fn submit(addr: &str, extra: &[&str]) -> String {
    let mut args = vec!["submit", "--addr", addr, "--test-scale"];
    args.extend_from_slice(extra);
    stdout(harness(&args))
}

/// A `serve`/`route` process, killed on drop. Holds its stdout open so
/// the server never writes into a closed pipe.
struct Listener {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Listener {
    fn start(mut c: Command) -> Listener {
        let mut child = c
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn listener");
        let mut out = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        let addr = loop {
            line.clear();
            assert!(out.read_line(&mut line).unwrap() > 0, "listener exited");
            if let Some(a) = line.trim().strip_prefix("listening on ") {
                break a.to_string();
            }
        };
        Listener {
            child,
            _stdout: out,
            addr,
        }
    }

    fn serve(args: &[&str]) -> Listener {
        let mut all = vec!["serve", "--addr", "127.0.0.1:0"];
        all.extend_from_slice(args);
        Listener::start(harness(&all))
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn metric(addr: &str, name: &str) -> u64 {
    let (st, body) = sim_server::http::request(
        addr,
        "GET",
        "/metrics",
        b"",
        std::time::Duration::from_secs(60),
    )
    .expect("metrics page");
    assert_eq!(st, 200);
    let page = String::from_utf8(body).unwrap();
    page.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .parse()
        .unwrap()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cell-identity-{name}-{}", std::process::id()))
}

/// Worker deaths are part of a seeded cell's key, so a seeded sweep
/// kills the same workers offline, through `serve`, and through `route`.
#[test]
fn seeded_worker_deaths_match_offline_serve_and_route() {
    let offline = stdout(harness(&["jsonl", "--test-scale", "--fault-seed", "11"]));
    assert_eq!(offline.lines().count(), 72);
    assert!(
        offline.contains("\"fail_kind\":\"worker-panic\""),
        "seed 11 kills at least one worker at test scale"
    );

    let srv = Listener::serve(&[]);
    assert_eq!(submit(&srv.addr, &["--fault-seed", "11"]), offline, "serve");

    let s0 = Listener::serve(&[]);
    let s1 = Listener::serve(&[]);
    let shards = format!("{},{}", s0.addr, s1.addr);
    let router = Listener::start(harness(&[
        "route",
        "--addr",
        "127.0.0.1:0",
        "--shards",
        &shards,
    ]));
    assert_eq!(
        submit(&router.addr, &["--fault-seed", "11"]),
        offline,
        "2-shard route"
    );
}

/// `SIM_PASSES` configures the CLI's own sweeps only: a server started
/// under it answers a sweep that names no pipeline unoptimized.
#[test]
fn serve_ignores_sim_passes() {
    let plain = stdout(harness(&["jsonl", "--test-scale"]));
    let mut optimized = harness(&["jsonl", "--test-scale"]);
    optimized.env("SIM_PASSES", "full");
    assert_ne!(stdout(optimized), plain, "SIM_PASSES=full changes CLI rows");

    let mut serve = harness(&["serve", "--addr", "127.0.0.1:0"]);
    serve.env("SIM_PASSES", "full");
    let srv = Listener::start(serve);
    assert_eq!(submit(&srv.addr, &[]), plain);
}

/// A checkpoint written under `SIM_PASSES` keys its cells under the
/// pipeline that ran, so serving it as a cache answers an optimized sweep
/// from the file and simulates a plain one afresh.
#[test]
fn checkpoint_keys_name_the_ambient_pipeline() {
    let state = tmp("state");
    let _ = std::fs::remove_file(&state);
    let mut suite = harness(&["suite", "--test-scale", "--state"]);
    suite.arg(&state).env("SIM_PASSES", "full");
    stdout(suite);
    let mut cache = Cache::new(usize::MAX);
    let bytes = std::fs::read(&state).expect("checkpoint written");
    assert_eq!(
        cache.restore(&bytes, |p| harness::decode_entry(p).map(|_| p.to_owned())),
        Some(72)
    );
    for b in hpc_kernels::test_suite() {
        for prec in Precision::ALL {
            for v in Variant::ALL {
                let key = cell_spec("test", None, Some(FULL), b.name(), v, prec).key();
                assert!(cache.peek(key).is_some(), "{} {v:?} {prec:?}", b.name());
            }
        }
    }

    let srv = Listener::serve(&["--cache", state.to_str().unwrap()]);
    let plain = stdout(harness(&["jsonl", "--test-scale"]));
    assert_eq!(submit(&srv.addr, &[]), plain, "plain sweep is unoptimized");
    let mut optimized = harness(&["jsonl", "--test-scale"]);
    optimized.env("SIM_PASSES", "full");
    assert_eq!(
        submit(&srv.addr, &["--passes", FULL]),
        stdout(optimized),
        "optimized sweep matches the checkpointed cells"
    );
    assert_eq!(metric(&srv.addr, "sim_server_cache_hits"), 72);
    assert_eq!(metric(&srv.addr, "sim_server_cells_simulated_total"), 72);
    let _ = std::fs::remove_file(&state);
}

/// A server's cache file resumes a sweep: the suite runs only the cells
/// the file lacks. A resume under another fault seed or pipeline reuses
/// none of them, and leaves them in the file for the sweep they belong to.
#[test]
fn a_served_cache_file_resumes_only_the_cells_it_lacks() {
    let file = tmp("served-cache");
    let _ = std::fs::remove_file(&file);
    let srv = Listener::serve(&["--cache", file.to_str().unwrap()]);
    let four = "spmv/Serial/single,spmv/OpenCL-Opt/single,hist/OpenMP/double,dmmm/OpenCL/double";
    assert_eq!(submit(&srv.addr, &["--cells", four]).lines().count(), 4);
    stdout(harness(&["submit", "--addr", &srv.addr, "--shutdown"]));

    let resume = |extra: &[&str]| {
        let mut args = vec!["jsonl", "--test-scale", "--verbose", "--resume", "--state"];
        args.push(file.to_str().unwrap());
        args.extend_from_slice(extra);
        cells_run(harness(&args))
    };
    let (rows, run) = resume(&[]);
    assert_eq!(rows, stdout(harness(&["jsonl", "--test-scale"])));
    assert_eq!(run, 68, "the 4 served cells are reused");
    assert_eq!(
        resume(&["--fault-seed", "7"]).1,
        72,
        "another seed reuses none"
    );
    assert_eq!(
        resume(&["--passes", "full"]).1,
        72,
        "another pipeline reuses none"
    );
    assert_eq!(resume(&[]).1, 0, "the plain cells are still in the file");
    let _ = std::fs::remove_file(&file);
}

/// The model version moves with the bytes: these digests pin the
/// test-scale `jsonl` artifact of model version 1. A change that alters
/// any cell's bytes fails here until [`harness::checkpoint::MODEL_VERSION`]
/// is bumped (so old cache and checkpoint files stop answering) and the
/// digests are re-recorded.
#[test]
fn golden_digests_pin_the_model_version() {
    const PINNED: [(&[&str], u64); 3] = [
        (&[], 0x45b5_d61d_4b7b_5904),
        (&["--passes", "full"], 0x36b4_7d27_e8a6_d2ee),
        (&["--fault-seed", "7"], 0xfc76_425c_fb88_c25e),
    ];
    assert_eq!(
        harness::checkpoint::MODEL_VERSION,
        "1",
        "the digests below were recorded under model version 1: re-record them"
    );
    for (extra, want) in PINNED {
        let mut args = vec!["jsonl", "--test-scale"];
        args.extend_from_slice(extra);
        let got = fnv1a64(stdout(harness(&args)).as_bytes());
        assert_eq!(
            got, want,
            "jsonl --test-scale {extra:?} bytes changed (digest {got:#018x}): \
             bump the model version and update this digest"
        );
    }
}

/// An OpenMP cell served on its own simulates its CPU launch itself; in an
/// offline sweep it reuses its Serial sibling's profile. The bytes agree.
#[test]
fn openmp_cells_evaluated_alone_match_shared_evaluation() {
    let omp: Vec<String> = hpc_kernels::test_suite()
        .iter()
        .flat_map(|b| ["single", "double"].map(|p| format!("{}/OpenMP/{p}", b.name())))
        .collect();
    assert_eq!(omp.len(), 18);
    let srv = Listener::serve(&[]);
    let alone = submit(&srv.addr, &["--cells", &omp.join(",")]);
    assert_eq!(alone.lines().count(), 18);
    let offline = stdout(harness(&["jsonl", "--test-scale"]));
    assert_eq!(submit(&srv.addr, &[]), offline);
}
