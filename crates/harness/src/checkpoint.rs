//! Cell identity and the cell payload codec.
//!
//! [`cell_spec`] normalizes a sweep cell into its canonical
//! [`CellSpec`]; [`encode_entry`]/[`decode_entry`] serialize a finished
//! [`CellEntry`] as one `|`-joined token line — floats as IEEE-754 bit
//! patterns in hex, so the round trip is exact and a resumed or served
//! cell is byte-identical to a freshly simulated one.
//!
//! There is one on-disk cell format, `simcache v1`
//! ([`sim_server::cache::Cache::snapshot`]): one `key|canonical
//! spec|payload` line per cell. The `--state` sweep checkpoint and
//! `serve --cache` both write it, so a checkpoint is served as a cache
//! and a server's cache file resumes a sweep. Reuse is decided by the
//! key alone: scale, fault seed, pass pipeline and [`MODEL_VERSION`]
//! are all in it, so a file written under another configuration or by
//! another model reuses no cell.

use crate::runner::{Cell, CellEntry, CellError, FailKind};
use hpc_kernels::{Precision, RunOutcome, RunSkip, Variant};
use powersim::{Activity, Measurement};
use sim_server::key::{esc, fbits, unesc, CellSpec, Tokens};
use telemetry::{CommandSpan, Counters, RunTelemetry, WorkSpan};

/// Device fingerprint of the simulated platform, part of every cell key.
pub const DEVICE: &str = "exynos5250";

/// Version of the simulation model, part of every cell key. Bump it in
/// any change that alters the bytes of some cell (timing, energy,
/// counters, digests, skip or failure rows): old `simcache` files then
/// stop answering for the new model instead of serving stale bytes. The
/// golden digests in `tests/cell_identity.rs` fail until it is bumped.
pub const MODEL_VERSION: &str = "1";

/// Build the canonical [`CellSpec`] for one cell of a sweep at scale
/// `tag` under `fault_seed` and `passes`. This is the single place where
/// harness domain types (variant labels with spaces, [`Precision`]) are
/// normalized into the wire/key form, so the checkpoint, the server
/// cache and the HTTP API cannot drift apart.
pub fn cell_spec(
    tag: &str,
    fault_seed: Option<u64>,
    passes: Option<&str>,
    bench: &str,
    v: Variant,
    prec: Precision,
) -> CellSpec {
    CellSpec {
        sim_version: MODEL_VERSION.to_string(),
        device: DEVICE.to_string(),
        scale: tag.to_string(),
        bench: bench.to_string(),
        version: v.label().replace(' ', "-"),
        precision: crate::runner::prec_key(prec),
        fault_seed,
        passes: passes.map(str::to_string),
    }
}

/// `CommandSpan::cat` is a `&'static str`; map the stored string back to
/// the known statics (unknown categories make the line corrupt).
fn static_cat(s: &str) -> Option<&'static str> {
    Some(match s {
        "kernel" => "kernel",
        "write" => "write",
        "read" => "read",
        "map" => "map",
        "unmap" => "unmap",
        "cpu" => "cpu",
        _ => return None,
    })
}

fn push_counters(t: &mut Vec<String>, c: &Counters) {
    for v in c.ops_by_class {
        t.push(v.to_string());
    }
    for v in c.width_hist {
        t.push(v.to_string());
    }
    for v in [c.flops, c.int_ops, c.special_ops] {
        t.push(fbits(v));
    }
    for v in [
        c.loads,
        c.stores,
        c.atomics,
        c.bytes_read,
        c.bytes_written,
        c.local_accesses,
        c.gather_accesses,
        c.contiguous_accesses,
        c.barriers,
        c.loop_iters,
        c.threads,
        c.groups,
        c.hier_accesses,
        c.l1_hits,
        c.l2_hits,
        c.dram_lines,
        c.dram_stream_lines,
        c.dram_scatter_lines,
        c.dram_writeback_lines,
    ] {
        t.push(v.to_string());
    }
    for v in [
        c.resident_threads,
        c.max_resident_threads,
        c.registers_per_thread,
    ] {
        t.push(v.to_string());
    }
}

fn read_counters(t: &mut Tokens) -> Option<Counters> {
    let mut ops_by_class = [0u64; 9];
    for v in &mut ops_by_class {
        *v = t.u64()?;
    }
    let mut width_hist = [0u64; 5];
    for v in &mut width_hist {
        *v = t.u64()?;
    }
    // Exhaustive literal: adding a Counters field breaks this build until
    // the checkpoint codec learns about it.
    Some(Counters {
        ops_by_class,
        width_hist,
        flops: t.f64()?,
        int_ops: t.f64()?,
        special_ops: t.f64()?,
        loads: t.u64()?,
        stores: t.u64()?,
        atomics: t.u64()?,
        bytes_read: t.u64()?,
        bytes_written: t.u64()?,
        local_accesses: t.u64()?,
        gather_accesses: t.u64()?,
        contiguous_accesses: t.u64()?,
        barriers: t.u64()?,
        loop_iters: t.u64()?,
        threads: t.u64()?,
        groups: t.u64()?,
        hier_accesses: t.u64()?,
        l1_hits: t.u64()?,
        l2_hits: t.u64()?,
        dram_lines: t.u64()?,
        dram_stream_lines: t.u64()?,
        dram_scatter_lines: t.u64()?,
        dram_writeback_lines: t.u64()?,
        resident_threads: t.u32()?,
        max_resident_threads: t.u32()?,
        registers_per_thread: t.u32()?,
    })
}

fn push_cell(t: &mut Vec<String>, cell: &Cell) {
    t.push(cell.attempts.to_string());
    let o = &cell.outcome;
    t.push(fbits(o.time_s));
    let a = &o.activity;
    for v in [
        a.duration_s,
        a.cpu_busy_s[0],
        a.cpu_busy_s[1],
        a.gpu_active_s,
        a.gpu_arith_util_s,
        a.gpu_ls_util_s,
    ] {
        t.push(fbits(v));
    }
    t.push(a.dram_bytes.to_string());
    t.push(if o.validated { "1" } else { "0" }.into());
    t.push(fbits(o.max_rel_err));
    t.push(match &o.note {
        Some(n) => format!("+{}", esc(n)),
        None => "-".into(),
    });
    push_counters(t, &o.telemetry.counters);
    t.push(o.telemetry.commands.len().to_string());
    for c in &o.telemetry.commands {
        t.push(esc(&c.name));
        t.push(esc(c.cat));
        t.push(fbits(c.start_s));
        t.push(fbits(c.end_s));
    }
    t.push(o.telemetry.core_spans.len().to_string());
    for s in &o.telemetry.core_spans {
        t.push(s.core.to_string());
        t.push(s.group.to_string());
        t.push(fbits(s.start_s));
        t.push(fbits(s.end_s));
    }
    let m = &cell.measurement;
    for v in [
        m.duration_s,
        m.mean_power_w,
        m.std_power_w,
        m.mean_energy_j,
        m.std_energy_j,
    ] {
        t.push(fbits(v));
    }
    t.push(m.repetitions.to_string());
    t.push(cell.iterations.to_string());
    t.push(fbits(cell.energy_j));
    t.push(format!("{:016x}", cell.output_digest));
}

fn read_cell(t: &mut Tokens) -> Option<Cell> {
    let attempts = t.u32()?;
    let time_s = t.f64()?;
    let activity = Activity {
        duration_s: t.f64()?,
        cpu_busy_s: [t.f64()?, t.f64()?],
        gpu_active_s: t.f64()?,
        gpu_arith_util_s: t.f64()?,
        gpu_ls_util_s: t.f64()?,
        dram_bytes: t.u64()?,
    };
    let validated = match t.str()? {
        "1" => true,
        "0" => false,
        _ => return None,
    };
    let max_rel_err = t.f64()?;
    let note = match t.str()? {
        "-" => None,
        s => Some(unesc(s.strip_prefix('+')?)?),
    };
    let counters = read_counters(t)?;
    let n_cmds = t.usize()?;
    // Cap counts to the remaining token estimate to avoid absurd
    // allocations from a corrupt line.
    if n_cmds > 1_000_000 {
        return None;
    }
    let mut commands = Vec::with_capacity(n_cmds);
    for _ in 0..n_cmds {
        commands.push(CommandSpan {
            name: t.string()?,
            cat: static_cat(&t.string()?)?,
            start_s: t.f64()?,
            end_s: t.f64()?,
        });
    }
    let n_spans = t.usize()?;
    if n_spans > 10_000_000 {
        return None;
    }
    let mut core_spans = Vec::with_capacity(n_spans);
    for _ in 0..n_spans {
        core_spans.push(WorkSpan {
            core: t.u32()?,
            group: t.u32()?,
            start_s: t.f64()?,
            end_s: t.f64()?,
        });
    }
    let measurement = Measurement {
        duration_s: t.f64()?,
        mean_power_w: t.f64()?,
        std_power_w: t.f64()?,
        mean_energy_j: t.f64()?,
        std_energy_j: t.f64()?,
        repetitions: t.u32()?,
    };
    let iterations = t.u32()?;
    let energy_j = t.f64()?;
    let output_digest = u64::from_str_radix(t.str()?, 16).ok()?;
    Some(Cell {
        outcome: RunOutcome {
            time_s,
            activity,
            validated,
            max_rel_err,
            note,
            telemetry: RunTelemetry {
                counters: counters.clone(),
                commands,
                core_spans,
            },
        },
        measurement,
        iterations,
        energy_j,
        counters,
        attempts,
        output_digest,
    })
}

fn push_entry(t: &mut Vec<String>, entry: &CellEntry) {
    match entry {
        CellEntry::Ok(cell) => {
            t.push("ok".into());
            push_cell(t, cell);
        }
        CellEntry::Skipped(skip) => {
            t.push("skip".into());
            let (kind, msg) = match skip {
                RunSkip::CompilerBug(m) => ("compiler-bug", m),
                RunSkip::LaunchFailure(m) => ("launch-failure", m),
            };
            t.push(kind.into());
            t.push(esc(msg));
        }
        CellEntry::Failed(err) => {
            t.push("fail".into());
            t.push(err.kind.label().into());
            t.push(esc(&err.message));
            t.push(err.attempts.to_string());
            t.push(err.backoff_ms.to_string());
        }
    }
}

fn read_entry(t: &mut Tokens) -> Option<CellEntry> {
    Some(match t.str()? {
        "ok" => CellEntry::Ok(read_cell(t)?),
        "skip" => {
            let kind = t.str()?.to_string();
            let msg = t.string()?;
            CellEntry::Skipped(match kind.as_str() {
                "compiler-bug" => RunSkip::CompilerBug(msg),
                "launch-failure" => RunSkip::LaunchFailure(msg),
                _ => return None,
            })
        }
        "fail" => CellEntry::Failed(CellError {
            kind: FailKind::from_label(t.str()?)?,
            message: t.string()?,
            attempts: t.u32()?,
            backoff_ms: t.u64()?,
        }),
        _ => return None,
    })
}

/// Serialize one [`CellEntry`] as a standalone '|'-joined token string —
/// the payload of a `simcache` line, whether a sweep checkpoint or the
/// server wrote it.
pub fn encode_entry(entry: &CellEntry) -> String {
    let mut t = Vec::new();
    push_entry(&mut t, entry);
    t.join("|")
}

/// Inverse of [`encode_entry`]. `None` on any corruption.
pub fn decode_entry(s: &str) -> Option<CellEntry> {
    read_entry(&mut Tokens::new(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_suite;
    use sim_server::cache::Cache;

    #[test]
    fn a_checkpoint_round_trips_exactly_through_the_cache_format() {
        let results = run_suite(&hpc_kernels::test_suite(), false);
        let spec = |(bench, v, prec): &crate::runner::CellCoord| {
            let prec = if *prec == 32 {
                Precision::F32
            } else {
                Precision::F64
            };
            cell_spec("test", Some(42), Some("cf,cse,dce"), bench, *v, prec)
        };
        let mut cache = Cache::new(usize::MAX);
        for (coord, entry) in &results.cells {
            cache.insert(spec(coord), encode_entry(entry));
        }
        let bytes = cache.snapshot();
        let mut back = Cache::new(usize::MAX);
        let n = back.restore(&bytes, |p| decode_entry(p).map(|_| p.to_owned()));
        assert_eq!(n, Some(results.cells.len()));
        // Byte-exact: serializing the restored cells reproduces the file.
        assert_eq!(back.snapshot(), bytes);
        // Spot-check bit-exact floats through the round trip.
        for (k, e) in &results.cells {
            let payload = &back.peek(spec(k).key()).expect("cell restored").value;
            match (e, &decode_entry(payload).unwrap()) {
                (CellEntry::Ok(a), CellEntry::Ok(b)) => {
                    assert_eq!(a.outcome.time_s.to_bits(), b.outcome.time_s.to_bits());
                    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
                    assert_eq!(a.counters, b.counters);
                    assert_eq!(a.outcome.telemetry.commands, b.outcome.telemetry.commands);
                    assert_eq!(
                        a.outcome.telemetry.core_spans,
                        b.outcome.telemetry.core_spans
                    );
                    assert_eq!(a.measurement, b.measurement);
                    assert_eq!(a.attempts, b.attempts);
                    assert_eq!(a.output_digest, b.output_digest);
                }
                (CellEntry::Skipped(a), CellEntry::Skipped(b)) => assert_eq!(a, b),
                (CellEntry::Failed(a), CellEntry::Failed(b)) => assert_eq!(a, b),
                (a, b) => panic!("variant mismatch for {k:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn entry_payloads_round_trip_standalone() {
        let results = run_suite(&hpc_kernels::test_suite(), false);
        for entry in results.cells.values() {
            let enc = encode_entry(entry);
            assert_eq!(enc.lines().count(), 1);
            let back = decode_entry(&enc).expect("payload decodes");
            // Re-encoding the decoded entry is byte-identical.
            assert_eq!(encode_entry(&back), enc);
        }
        assert!(decode_entry("ok|truncated").is_none());
        assert!(decode_entry("nonsense").is_none());
    }
}
