//! A cell's bytes come only from its key. These tests drive the real
//! binary — environment variables included — and demand that offline
//! `harness jsonl`, a `serve` process and a 2-shard `route` fleet agree
//! byte for byte, whatever process-wide setting the serving side was
//! started with.

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

/// A checkpoint written under `SIM_PASSES` names the pipeline that ran,
/// so warming a server from it keys those cells as optimized: a plain
/// sweep is simulated afresh, an optimized one is served from the warm
/// cells.
#[test]
fn checkpoint_header_names_the_ambient_pipeline() {
    let state = tmp("state");
    let _ = std::fs::remove_file(&state);
    let mut suite = harness(&["suite", "--test-scale", "--state"]);
    suite.arg(&state).env("SIM_PASSES", "full");
    stdout(suite);
    let (header, cells) = harness::checkpoint::load(&state).expect("checkpoint written");
    assert_eq!(header.passes.as_deref(), Some(FULL));
    assert_eq!(cells.len(), 72);

    let srv = Listener::serve(&["--warm", state.to_str().unwrap()]);
    let plain = stdout(harness(&["jsonl", "--test-scale"]));
    assert_eq!(submit(&srv.addr, &[]), plain, "plain sweep is unoptimized");
    let mut optimized = harness(&["jsonl", "--test-scale"]);
    optimized.env("SIM_PASSES", "full");
    assert_eq!(
        submit(&srv.addr, &["--passes", FULL]),
        stdout(optimized),
        "optimized sweep matches the warm cells"
    );
    let _ = std::fs::remove_file(&state);
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
