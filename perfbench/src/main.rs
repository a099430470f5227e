//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against the `harness` CLI and prints, as its last
//! stdout line, `{"correct","attempted","failed","metrics"}`: the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics from a
//! separate traced run (`--trace 1`). Normally started through `run.py`,
//! which builds the CLI and this binary first.

mod layers;
mod serving;
mod traced;

use perfbench::Tally;
use std::path::PathBuf;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub harness: PathBuf,
    pub root: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

const WORKLOADS: [&str; 2] = ["serve-zipf", "route-mixed"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         --harness <path> [--root <dir>]",
        WORKLOADS.join("|")
    )
}

struct Args {
    workload: String,
    trace: bool,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut harness = None;
    let mut root = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--harness" => harness = Some(PathBuf::from(value)),
            "--root" => root = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        trace: trace.ok_or("--trace is required")?,
        ctx: Ctx {
            harness: harness.ok_or("--harness is required")?,
            root,
            seed: seed.ok_or("--seed is required")?,
            seconds,
        },
    })
}

fn main() {
    std::process::exit(run());
}

/// (steal, total) jiffies of all CPUs from `/proc/stat` (zeros if
/// unreadable).
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Share of CPU time the hypervisor gave to other guests between two
/// readings: a slow run on a busy host shows here.
fn steal_pct(before: (u64, u64), after: (u64, u64)) -> String {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return "unknown".into();
    }
    format!(
        "{:.2}",
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    )
}

fn run() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return 2;
        }
    };
    if !args.ctx.harness.is_file() {
        eprintln!(
            "perfbench: no harness binary at {}",
            args.ctx.harness.display()
        );
        return 2;
    }
    // The in-process references and the traced layer run must see the
    // same configuration as the children: columnar engine, no ambient
    // passes, no fault plan.
    kernel_ir::set_engine(kernel_ir::Engine::Columnar);
    kernel_ir::opt::set_passes(None);

    let tally = Tally::default();
    let ctx = &args.ctx;
    let cpu_before = cpu_ticks();
    let result = match (args.workload.as_str(), args.trace) {
        ("serve-zipf", false) => serving::zipf(ctx, &tally, None).map(|r| r.0),
        ("route-mixed", false) => serving::route(ctx, &tally, None).map(|r| r.0),
        (w, true) => traced::run(ctx, &tally, w),
        _ => unreachable!("workload names are validated"),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return 1;
        }
    };
    // A p99 needs at least ten samples beyond it.
    let beyond = report
        .facts
        .iter()
        .find(|(k, _)| k == "p99_samples_beyond")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    if !args.trace && beyond.is_some_and(|n| n < 10) {
        eprintln!(
            "perfbench: only {} samples beyond p99; run longer (--seconds)",
            beyond.unwrap_or(0)
        );
        return 1;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = [
        ("workload", args.workload.clone()),
        ("trace", u8::from(args.trace).to_string()),
        ("seed", ctx.seed.to_string()),
        ("seconds", ctx.seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("sim_threads", "1".into()),
        ("serve_workers", serving::WORKERS.into()),
        ("host_steal_pct", steal_pct(cpu_before, cpu_ticks())),
    ];
    report
        .facts
        .splice(0..0, host.map(|(k, v)| (k.to_string(), v)));

    let (attempted, failed) = (tally.attempted(), tally.failed());
    let correct = failed == 0 && attempted > 0;
    let facts: Vec<String> = report
        .facts
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", sim_server::json::escape(v)))
        .collect();
    println!("{{\"facts\":{{{}}}}}", facts.join(","));
    for (k, v) in &report.facts {
        eprintln!("  {k:<28} {v}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            eprintln!("  {:<40} {:>14.6} {}", m.name, m.value, m.unit);
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if correct {
        0
    } else {
        1
    }
}
