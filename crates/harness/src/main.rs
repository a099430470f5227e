//! CLI for the reproduction harness.
//!
//! ```text
//! harness all            # every figure + summary (paper-scale inputs)
//! harness fig2a|fig2b    # Figure 2 speedups
//! harness fig3a|fig3b    # Figure 3 power
//! harness fig4a|fig4b    # Figure 4 energy-to-solution
//! harness summary        # §V-D headline numbers
//! harness suite          # run the sweep, print a completion report
//! harness ablation       # §III per-technique decomposition
//! harness dvfs           # extension: GPU frequency/voltage sweep
//! harness roofline       # roofline placement of the GPU kernels
//! harness hetero         # extension: CPU+GPU co-execution splits
//! harness csv            # machine-readable results (one row per cell)
//! harness jsonl          # same cells as JSON Lines (counter fields incl.)
//! harness profile <b>    # per-variant performance-counter report
//! harness bench-self     # simulator self-benchmark -> BENCH_sim.json
//! harness autotune       # optimizer phase-ordering search -> BENCH_opt.json
//! harness serve          # HTTP experiment service (cache + batching)
//! harness route          # shard a sweep across serve backends
//! harness submit         # client for a running serve/route instance
//! ```
//!
//! Run `harness --help` for the flags (fault injection, resume,
//! fail-fast, traces, threads) and the exit-code contract.

use harness::{fig2, fig3, fig4, run_suite_with, summary, SuiteConfig};
use hpc_kernels::Precision;
use telemetry::log;

const KNOWN: [&str; 21] = [
    "all",
    "fig2a",
    "fig2b",
    "fig3a",
    "fig3b",
    "fig4a",
    "fig4b",
    "summary",
    "suite",
    "ablation",
    "dvfs",
    "roofline",
    "hetero",
    "csv",
    "jsonl",
    "profile",
    "bench-self",
    "autotune",
    "serve",
    "route",
    "submit",
];

fn usage() -> String {
    format!(
        "usage: harness [{}] [flags]

flags:
  --test-scale        small inputs (fast; CI scale)
  --trace <dir>       one Chrome trace file per cell + metrics.jsonl
  --threads <n>       simulation worker threads (or SIM_THREADS env)
  --fault-seed <n>    enable deterministic fault injection with this seed
                      (or FAULT_SEED env); same seed => byte-identical
                      artifacts at any thread count, and the same rows as
                      serving the sweep with 'submit --fault-seed <n>'
  --state <path>      checkpoint file for suite runs, in the simcache
                      format 'serve --cache' reads (default suite.state
                      when --resume is given; otherwise no checkpointing
                      unless --state is passed)
  --resume            reuse the checkpoint's cells whose key (scale,
                      fault seed, passes, model version) matches instead
                      of rerunning them
  --keep-going        record cell failures and continue (default)
  --fail-fast         stop scheduling new cells after the first failure
                      (remaining cells export as status=fail/aborted;
                      which cells were reached depends on thread timing)
  --check             with bench-self: exit 2 unless every engine/thread
                      pass produced byte-identical outputs; with autotune:
                      exit 2 unless every pipeline produced byte-identical
                      kernel outputs
  --passes <list>     run kernels through this optimizer pass pipeline
                      (comma-separated, e.g. cf,cse,dce, or 'full'; or
                      SIM_PASSES env; default: unoptimized); for
                      suite/figure runs it pins the sweep's pipeline, for
                      submit it is forwarded with the sweep; either way it
                      is folded into every cell key; serve and route
                      ignore it (a served cell's pipeline is the one its
                      request names)
  --quiet | --verbose log verbosity
  --help              this text

autotune flags:
  --test-scale        tune at test scale (default: paper scale)
  --smoke             smoke-sized candidate set (baseline, full, 2
                      shuffles) instead of the full search
  --addr <host:port>  evaluate candidates through a running serve/route
                      instance (default: in-process); each candidate is
                      one sweep, cells cached by their pass list
  --check             exit 2 unless outputs were identical across all
                      candidate pipelines
  --timeout-ms <n>    fleet request timeout (default 600000)

serve flags:
  --addr <host:port>  bind address (default 127.0.0.1:8080; port 0 binds
                      an ephemeral port, printed as 'listening on ...')
  --capacity <n>      result-cache capacity in cells (default 1024; 0
                      disables caching)
  --queue <n>         scheduler queue bound; overflowing sweeps get 429
                      (default 256)
  --cache <path>      persist the cache here (atomic rewrite after every
                      batch; restored on startup); a --state checkpoint
                      is a cache file, so this also serves a finished
                      sweep
  --trace-dir <dir>   per-request tracing: requests.log (one line per
                      sweep request) plus req-<traceid>.json Perfetto
                      traces for sampled requests; response bytes are
                      never affected
  --trace-sample <n>  trace 1 in n requests, keyed off the trace id hash
                      (deterministic: replaying the same ids samples the
                      same requests; default 1, 0 disables sampling)
  --slow-ms <n>       force-sample requests slower than n milliseconds
                      regardless of --trace-sample
  --timeout-ms <n>    per-connection socket timeout override (default
                      30000); also bounds how long a handler waits for a
                      wedged evaluation before answering 503
  --workers <n>       handler worker threads (default 4); connections are
                      held by a non-blocking reactor, so open sockets are
                      bounded by the fd limit, not the worker count
  --priority-cells <n> sweeps naming at most n cells share the
                      interactive dispatch lane with GET /v1/cell
                      (default 8); larger sweeps queue in the bulk lane,
                      which ages onto the fast lane so it never starves

route flags:
  --addr <host:port>  bind address (default 127.0.0.1:8080; port 0 binds
                      an ephemeral port, printed as 'listening on ...')
  --shards <list>     comma-separated serve backend addresses (required);
                      the cell key space is consistent-hashed across the
                      list, so order is part of the deployment identity
  --replicas <n>      owners per cell key (default 1): each key gets a
                      primary plus n-1 distinct ring-successor followers,
                      and cells fail over when the primary's breaker opens;
                      shard-down rows appear only when every owner is down
  --retry-budget <n>  max attempts per shard sub-request (default 3);
                      transport failures back off with seeded jitter, 429s
                      wait out Retry-After (capped; malformed headers fall
                      back to 1 s)
  --breaker-threshold <n>  consecutive transport failures that open a
                      shard's circuit breaker (default 3); open shards are
                      skipped until a half-open /healthz probe succeeds
  --fault-seed <n>    inject deterministic *network* chaos (connect
                      refusals, recorded stalls, truncated responses,
                      garbage status lines) into the router's fan-out
                      client; cell evaluation on the shards is untouched
  --timeout-ms <n>    shard sub-request timeout (default 600000)
  --workers <n>, --priority-cells <n>  as for serve, applied to the
                      router's own front (lane metrics: sim_router_lane_*)
  --trace-dir, --trace-sample, --slow-ms as for serve; the router stamps
                      its ingress trace id onto every shard sub-request
                      (X-Sim-Trace-Id), so one id follows a sweep fleet-wide

submit flags:
  --addr <host:port>  server or router to talk to (required)
  --test-scale        sweep at test scale (default: paper scale)
  --fault-seed <n>    forward a fault-injection seed with the sweep
  --cells <list>      comma-separated bench/version/precision triples
                      (e.g. spmv/OpenCL-Opt/single); default: full grid
  --metrics           print /metrics instead of sweeping
  --shutdown          ask the server to shut down gracefully
  --retry-budget <n>  attempts for transient connection failures before
                      exiting 1 (default 3, seeded backoff between tries)
  --timeout-ms <n>    request timeout (default 600000)

exit codes:
  0  every cell ran (skips from the paper's known driver bugs are fine)
  1  at least one cell failed (status=fail rows in the artifacts), or an
     artifact could not be written
  2  usage or configuration error, or a bench-self --check determinism
     violation",
        KNOWN.join("|")
    )
}

struct Opts {
    test_scale: bool,
    quiet: bool,
    verbose: bool,
    check: bool,
    smoke: bool,
    passes: Option<kernel_ir::opt::Pipeline>,
    trace_dir: Option<std::path::PathBuf>,
    fault_seed: Option<u64>,
    state: Option<std::path::PathBuf>,
    resume: bool,
    fail_fast: bool,
    addr: Option<String>,
    capacity: usize,
    queue: usize,
    cache: Option<std::path::PathBuf>,
    cells: Option<Vec<String>>,
    shards: Vec<String>,
    metrics: bool,
    shutdown: bool,
    req_trace_dir: Option<std::path::PathBuf>,
    trace_sample: u64,
    slow_ms: Option<u64>,
    replicas: usize,
    retry_budget: u32,
    breaker_threshold: u32,
    timeout_ms: Option<u64>,
    workers: usize,
    priority_cells: usize,
    cmds: Vec<String>,
}

/// Parse the command line. `Err` is a usage error (exit 2), never a panic.
fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        test_scale: false,
        quiet: false,
        verbose: false,
        check: false,
        smoke: false,
        passes: None,
        trace_dir: None,
        fault_seed: None,
        state: None,
        resume: false,
        fail_fast: false,
        addr: None,
        capacity: 1024,
        queue: 256,
        cache: None,
        cells: None,
        shards: Vec::new(),
        metrics: false,
        shutdown: false,
        req_trace_dir: None,
        trace_sample: 1,
        slow_ms: None,
        replicas: 1,
        retry_budget: 3,
        breaker_threshold: 3,
        timeout_ms: None,
        workers: sim_server::http::DEFAULT_WORKERS,
        priority_cells: sim_server::http::DEFAULT_PRIORITY_CELLS,
        cmds: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--test-scale" => o.test_scale = true,
            "--quiet" => o.quiet = true,
            "--verbose" => o.verbose = true,
            "--check" => o.check = true,
            "--smoke" => o.smoke = true,
            "--passes" => match it.next() {
                Some(p) if !p.starts_with("--") => match kernel_ir::opt::Pipeline::parse(p) {
                    Ok(pl) => o.passes = Some(pl),
                    Err(e) => return Err(format!("--passes: {e}")),
                },
                _ => return Err("--passes needs a comma-separated pass list argument".into()),
            },
            "--keep-going" => o.fail_fast = false,
            "--fail-fast" => o.fail_fast = true,
            "--resume" => o.resume = true,
            "--help" | "-h" => return Err(String::new()),
            "--trace" => match it.next() {
                Some(dir) if !dir.starts_with("--") => o.trace_dir = Some(dir.into()),
                _ => return Err("--trace needs a directory argument".into()),
            },
            "--state" => match it.next() {
                Some(p) if !p.starts_with("--") => o.state = Some(p.into()),
                _ => return Err("--state needs a file path argument".into()),
            },
            "--threads" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => sim_pool::set_threads(n),
                _ => return Err("--threads needs a positive integer argument".into()),
            },
            "--fault-seed" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => o.fault_seed = Some(n),
                _ => return Err("--fault-seed needs an unsigned integer argument".into()),
            },
            "--addr" => match it.next() {
                Some(a) if !a.starts_with("--") && !a.is_empty() => o.addr = Some(a.clone()),
                _ => return Err("--addr needs a host:port argument".into()),
            },
            "--capacity" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => o.capacity = n,
                _ => return Err("--capacity needs an unsigned integer argument".into()),
            },
            "--queue" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => o.queue = n,
                _ => return Err("--queue needs an unsigned integer argument".into()),
            },
            "--cache" => match it.next() {
                Some(p) if !p.starts_with("--") => o.cache = Some(p.into()),
                _ => return Err("--cache needs a file path argument".into()),
            },
            "--cells" => match it.next() {
                Some(l) if !l.starts_with("--") && !l.is_empty() => {
                    o.cells = Some(l.split(',').map(str::to_string).collect())
                }
                _ => return Err("--cells needs a comma-separated list argument".into()),
            },
            "--shards" => match it.next() {
                Some(l) if !l.starts_with("--") && !l.is_empty() => {
                    o.shards = l
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect();
                    if o.shards.is_empty() {
                        return Err("--shards needs at least one host:port".into());
                    }
                }
                _ => return Err("--shards needs a comma-separated list argument".into()),
            },
            "--metrics" => o.metrics = true,
            "--shutdown" => o.shutdown = true,
            "--trace-dir" => match it.next() {
                Some(dir) if !dir.starts_with("--") => o.req_trace_dir = Some(dir.into()),
                _ => return Err("--trace-dir needs a directory argument".into()),
            },
            "--trace-sample" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => o.trace_sample = n,
                _ => return Err("--trace-sample needs an unsigned integer argument".into()),
            },
            "--slow-ms" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => o.slow_ms = Some(n),
                _ => return Err("--slow-ms needs an unsigned integer argument".into()),
            },
            "--replicas" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => o.replicas = n,
                _ => return Err("--replicas needs a positive integer argument".into()),
            },
            "--retry-budget" => match it.next().map(|n| n.parse::<u32>()) {
                Some(Ok(n)) if n >= 1 => o.retry_budget = n,
                _ => return Err("--retry-budget needs a positive integer argument".into()),
            },
            "--breaker-threshold" => match it.next().map(|n| n.parse::<u32>()) {
                Some(Ok(n)) if n >= 1 => o.breaker_threshold = n,
                _ => return Err("--breaker-threshold needs a positive integer argument".into()),
            },
            "--timeout-ms" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => o.timeout_ms = Some(n),
                _ => return Err("--timeout-ms needs a positive integer argument".into()),
            },
            "--workers" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => o.workers = n,
                _ => return Err("--workers needs a positive integer argument".into()),
            },
            "--priority-cells" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => o.priority_cells = n,
                _ => return Err("--priority-cells needs an unsigned integer argument".into()),
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            cmd => o.cmds.push(cmd.to_string()),
        }
    }
    if o.fault_seed.is_none() {
        if let Ok(s) = std::env::var("FAULT_SEED") {
            match s.trim().parse::<u64>() {
                Ok(n) => o.fault_seed = Some(n),
                Err(_) => return Err(format!("FAULT_SEED must be an unsigned integer, got '{s}'")),
            }
        }
    }
    if let (None, Ok(s)) = (&o.passes, std::env::var("SIM_PASSES")) {
        let pl = kernel_ir::opt::Pipeline::parse(&s).map_err(|e| format!("SIM_PASSES: {e}"))?;
        o.passes = Some(pl).filter(|p| !p.is_empty());
    }
    Ok(o)
}

/// Print a completion report for a sweep; returns the process exit code
/// (0 clean, 1 if any cell failed).
fn report_outcome(results: &harness::SuiteResults, faulty: bool) -> i32 {
    let (ok, skipped, failed) = results.counts();
    log::progress(&format!(
        "suite complete: {ok} ok, {skipped} skipped, {failed} failed"
    ));
    if faulty {
        let stats = sim_faults::stats();
        let fired: Vec<String> = stats
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(s, n)| format!("{} x{n}", s.label()))
            .collect();
        log::progress(&format!(
            "injected faults: {}",
            if fired.is_empty() {
                "none fired".to_string()
            } else {
                fired.join(", ")
            }
        ));
    }
    if failed == 0 {
        return 0;
    }
    for ((bench, v, prec), err) in results.failed_cells() {
        eprintln!(
            "FAILED {bench} {} f{prec}: [{}] {} (attempts {}, backoff {} ms)",
            v.label(),
            err.kind.label(),
            err.message,
            err.attempts,
            err.backoff_ms
        );
    }
    1
}

/// Commands that launch kernels directly rather than through the suite
/// runner. `None` when `cmd` is a suite command.
fn run_standalone(cmd: &str, o: &Opts) -> Option<i32> {
    let code = match cmd {
        "profile" => {
            let Some(name) = o.cmds.get(1) else {
                eprintln!("usage: harness profile <bench> [--test-scale]");
                return Some(2);
            };
            let benches = if o.test_scale {
                hpc_kernels::test_suite()
            } else {
                hpc_kernels::suite()
            };
            let Some(b) = benches.iter().find(|b| b.name() == *name) else {
                let names: Vec<&str> = benches.iter().map(|b| b.name()).collect();
                eprintln!("unknown benchmark '{name}' (have: {})", names.join(", "));
                return Some(2);
            };
            print!("{}", harness::profile::report(b.as_ref()));
            0
        }
        "bench-self" => {
            log::progress("self-benchmark: warm-up pass, then serial and parallel suite runs...");
            let b = harness::bench_self::run(o.test_scale);
            let path = std::path::Path::new("BENCH_sim.json");
            if let Err(e) = harness::atomic_write(path, b.to_json().as_bytes()) {
                eprintln!("failed to write {}: {e}", path.display());
                return Some(1);
            }
            print!("{}", b.summary());
            println!("wrote {}", path.display());
            if o.check && !b.outputs_identical {
                eprintln!("bench-self --check: engine/thread passes produced different outputs");
                return Some(2);
            }
            0
        }
        "ablation" => {
            print!("{}", harness::ablation::report(o.test_scale));
            0
        }
        "dvfs" => {
            print!("{}", harness::dvfs::report());
            0
        }
        "hetero" => {
            print!("{}", harness::hetero::report());
            0
        }
        "roofline" => {
            print!("{}", harness::roofline::report(Precision::F32));
            print!("\n{}", harness::roofline::report(Precision::F64));
            0
        }
        _ => return None,
    };
    Some(code)
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return 0;
            }
            eprintln!("{msg}");
            eprintln!("{}", usage());
            return 2;
        }
    };
    let cmd = o.cmds.first().map(String::as_str).unwrap_or("all");
    if !KNOWN.contains(&cmd) {
        eprintln!("unknown command '{cmd}'");
        eprintln!("{}", usage());
        return 2;
    }

    // Machine-readable subcommands keep stderr clean unless asked not to.
    let machine = matches!(cmd, "csv" | "jsonl" | "submit");
    log::set_level(if o.quiet {
        log::Level::Quiet
    } else if o.verbose {
        log::Level::Debug
    } else if machine {
        log::Level::Quiet
    } else {
        log::Level::Progress
    });

    // Injected panics are expected events — in a seeded sweep here, or in
    // a seeded request inside `serve` — so keep their reports out of
    // stderr, but leave genuine panics loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let injected = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .is_some_and(sim_faults::is_injected);
        if !injected {
            default_hook(info);
        }
    }));

    // The serving layer takes fault seeds and pass lists per request, from
    // each cell's key, so a served cell computes exactly what an offline
    // `run_suite_with` of the same configuration computes.
    if cmd == "serve" {
        let cfg = harness::ServeConfig {
            addr: o.addr.unwrap_or_else(|| "127.0.0.1:8080".into()),
            capacity: o.capacity,
            queue_cap: o.queue,
            cache_path: o.cache,
            trace_dir: o.req_trace_dir,
            trace_sample: o.trace_sample,
            slow_ms: o.slow_ms,
            timeout_ms: o.timeout_ms,
            workers: o.workers,
            priority_cells: o.priority_cells,
        };
        return match harness::serve::serve(cfg) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("serve failed: {e}");
                1
            }
        };
    }
    if cmd == "route" {
        if o.shards.is_empty() {
            eprintln!("route needs --shards <host:port,host:port,...>");
            eprintln!("{}", usage());
            return 2;
        }
        let cfg = harness::RouteConfig {
            addr: o.addr.unwrap_or_else(|| "127.0.0.1:8080".into()),
            shards: o.shards,
            replicas: o.replicas,
            retry_budget: o.retry_budget,
            breaker_threshold: o.breaker_threshold,
            fault_seed: o.fault_seed,
            timeout_ms: o.timeout_ms,
            trace_dir: o.req_trace_dir,
            trace_sample: o.trace_sample,
            slow_ms: o.slow_ms,
            workers: o.workers,
            priority_cells: o.priority_cells,
        };
        return match harness::route::route(cfg) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("route failed: {e}");
                1
            }
        };
    }
    if cmd == "submit" {
        let Some(addr) = o.addr else {
            eprintln!("submit needs --addr <host:port>");
            eprintln!("{}", usage());
            return 2;
        };
        return harness::serve::submit(&harness::SubmitConfig {
            addr,
            scale: if o.test_scale { "test" } else { "paper" }.into(),
            fault_seed: o.fault_seed,
            passes: o.passes.as_ref().map(|p| p.to_string()),
            cells: o.cells,
            metrics: o.metrics,
            shutdown: o.shutdown,
            retry_budget: o.retry_budget,
            timeout_ms: o.timeout_ms,
        });
    }
    if cmd == "autotune" {
        let cfg = harness::AutotuneConfig {
            test_scale: o.test_scale,
            smoke: o.smoke,
            addr: o.addr,
            timeout_ms: o.timeout_ms,
        };
        return match harness::autotune::run(&cfg) {
            Ok(rep) => {
                let path = std::path::Path::new("BENCH_opt.json");
                if let Err(e) = harness::atomic_write(path, rep.to_json().as_bytes()) {
                    eprintln!("failed to write {}: {e}", path.display());
                    return 1;
                }
                print!("{}", rep.summary());
                println!("wrote {}", path.display());
                if o.check && !rep.outputs_identical {
                    eprintln!("autotune --check: a pass pipeline changed kernel outputs");
                    return 2;
                }
                0
            }
            Err(e) => {
                eprintln!("autotune failed: {e}");
                1
            }
        };
    }

    let fault_plan = o.fault_seed.map(sim_faults::FaultPlan::new);
    if let Some(seed) = o.fault_seed {
        log::progress(&format!("fault injection enabled (seed {seed})"));
    }
    // Commands that launch kernels outside the suite runner take the plan
    // and the pipeline ambiently, scoped here; suite cells take both from
    // their `SuiteConfig` below.
    kernel_ir::opt::set_passes(o.passes.clone());
    if let Some(code) = sim_faults::with_plan(fault_plan, || run_standalone(cmd, &o)) {
        return code;
    }

    let benches = if o.test_scale {
        hpc_kernels::test_suite()
    } else {
        hpc_kernels::suite()
    };
    log::progress(&format!(
        "running the {} suite ({} benchmarks x 4 versions x 2 precisions)...",
        if o.test_scale {
            "test-scale"
        } else {
            "paper-scale"
        },
        benches.len()
    ));
    // Checkpointing engages when a state path is named or a resume is
    // requested (default path: suite.state). Plain figure runs stay
    // file-free.
    let checkpoint = o
        .state
        .clone()
        .or_else(|| o.resume.then(|| std::path::PathBuf::from("suite.state")));
    let cfg = SuiteConfig {
        verbose: true,
        faults: fault_plan,
        fail_fast: o.fail_fast,
        checkpoint,
        resume: o.resume,
        state_tag: if o.test_scale { "test" } else { "paper" }.into(),
        passes: o.passes.clone(),
        ..SuiteConfig::default()
    };
    let results = run_suite_with(&benches, &cfg);

    if let Some(dir) = &o.trace_dir {
        match harness::write_traces(&results, dir) {
            Ok(paths) => log::progress(&format!(
                "wrote {} trace files + metrics.jsonl to {}",
                paths.len(),
                dir.display()
            )),
            Err(e) => {
                eprintln!("failed to write traces to {}: {e}", dir.display());
                return 1;
            }
        }
    }

    if cmd == "csv" {
        print!("{}", harness::to_csv(&results));
        return report_outcome(&results, fault_plan.is_some());
    }
    if cmd == "jsonl" {
        print!("{}", harness::to_jsonl(&results));
        return report_outcome(&results, fault_plan.is_some());
    }
    let wants = |c: &str| cmd == "all" || cmd == c;
    if wants("fig2a") {
        println!("{}", fig2(&results, Precision::F32));
    }
    if wants("fig2b") {
        println!("{}", fig2(&results, Precision::F64));
    }
    if wants("fig3a") {
        println!("{}", fig3(&results, Precision::F32));
    }
    if wants("fig3b") {
        println!("{}", fig3(&results, Precision::F64));
    }
    if wants("fig4a") {
        println!("{}", fig4(&results, Precision::F32));
    }
    if wants("fig4b") {
        println!("{}", fig4(&results, Precision::F64));
    }
    if wants("summary") {
        println!("{}", summary(&results));
    }
    report_outcome(&results, fault_plan.is_some())
}
