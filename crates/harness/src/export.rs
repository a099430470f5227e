//! CSV export of suite results, for external plotting of the figures.
//!
//! One row per (benchmark, version, precision) cell with the raw measured
//! quantities plus the serial-normalized ratios the paper's figures plot.
//! Skipped cells (the amcd double-precision driver bug) export with a
//! `skip_reason` and empty numeric fields, and failed cells (chaos runs,
//! genuine bugs) export with `status=fail` plus the structured failure
//! columns — so a plotting script sees the missing bars explicitly and a
//! chaos sweep never silently loses a cell.

use crate::runner::{Cell, CellEntry, SuiteResults};
use hpc_kernels::{Precision, Variant};
use std::collections::HashMap;
use std::fmt::Write as _;

/// CSV header, stable across releases (append-only policy).
pub const HEADER: &str = "bench,version,precision,time_s,power_w,power_sigma_w,\
energy_j,iterations,speedup,power_ratio,energy_ratio,note,skip_reason,\
status,fail_kind,fail_detail,attempts";

fn esc(s: &str) -> String {
    // RFC 4180: a field containing separators, quotes OR line breaks must
    // be quoted (embedded quotes doubled). Newlines used to slip through
    // unquoted and broke the row structure of the file.
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Minimal RFC 4180 parser for the round-trip test and downstream tools:
/// splits `csv` into records of fields, honouring quoted fields that
/// contain commas, doubled quotes and embedded line breaks.
pub fn parse_csv(csv: &str) -> Vec<Vec<String>> {
    let mut records = Vec::new();
    let mut record = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = csv.chars().peekable();
    while let Some(c) = chars.next() {
        if quoted {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => quoted = false,
                c => field.push(c),
            }
        } else {
            match c {
                '"' => quoted = true,
                ',' => record.push(std::mem::take(&mut field)),
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                '\r' => {}
                c => field.push(c),
            }
        }
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    records
}

/// Render the whole sweep as CSV.
pub fn to_csv(results: &SuiteResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    for bench in &results.bench_names {
        for prec in Precision::ALL {
            for v in Variant::ALL {
                match results.entry(bench, v, prec) {
                    Some(CellEntry::Ok(cell)) => {
                        let _ = writeln!(
                            out,
                            "{bench},{},{},{:.6e},{:.4},{:.6},{:.6e},{},{},{},{},{},,ok,,,{}",
                            v.label().replace(' ', "-"),
                            prec.label(),
                            cell.outcome.time_s,
                            cell.measurement.mean_power_w,
                            cell.measurement.std_power_w,
                            cell.energy_j,
                            cell.iterations,
                            fmt_ratio(results.speedup(bench, v, prec)),
                            fmt_ratio(results.power_ratio(bench, v, prec)),
                            fmt_ratio(results.energy_ratio(bench, v, prec)),
                            esc(cell.outcome.note.as_deref().unwrap_or("")),
                            cell.attempts,
                        );
                    }
                    Some(CellEntry::Skipped(reason)) => {
                        let _ = writeln!(
                            out,
                            "{bench},{},{},,,,,,,,,,{},skip,,,",
                            v.label().replace(' ', "-"),
                            prec.label(),
                            esc(&reason.to_string()),
                        );
                    }
                    Some(CellEntry::Failed(err)) => {
                        let _ = writeln!(
                            out,
                            "{bench},{},{},,,,,,,,,,,fail,{},{},{}",
                            v.label().replace(' ', "-"),
                            prec.label(),
                            err.kind.label(),
                            esc(&err.message),
                            err.attempts,
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "{bench},{},{},,,,,,,,,,,,,,",
                            v.label().replace(' ', "-"),
                            prec.label(),
                        );
                    }
                }
            }
        }
    }
    out
}

fn fmt_ratio(r: Option<f64>) -> String {
    r.map(|x| format!("{x:.4}")).unwrap_or_default()
}

// ---- JSONL metrics artifact ----
//
// One JSON object per cell, one line each. Schema is append-only like the
// CSV header: existing keys never change meaning, new keys only get added
// (documented in DESIGN.md §Observability).

fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn jstr(s: &str) -> String {
    format!("\"{}\"", telemetry::json_escape(s))
}

/// The three measured quantities a row's ratio columns are taken
/// against: a cell's own, or its Serial baseline's.
#[derive(Clone, Copy, Debug)]
struct RatioInputs {
    time_s: f64,
    mean_power_w: f64,
    energy_j: f64,
}

impl RatioInputs {
    fn of(cell: &Cell) -> RatioInputs {
        RatioInputs {
            time_s: cell.outcome.time_s,
            mean_power_w: cell.measurement.mean_power_w,
            energy_j: cell.energy_j,
        }
    }
}

/// One cell's JSONL row, rendered once and reused across requests.
///
/// Every column of a row depends on the cell alone except the three
/// ratio columns (`speedup`, `power_ratio`, `energy_ratio`), which are
/// taken against the Serial cell of the same (bench, precision) in the
/// *request's* result set. So the row keeps its fixed text pre-rendered
/// in two parts, `bench` … `iterations` and `note` …
/// `arithmetic_intensity`, plus the cell's own ratio inputs, and
/// [`render`](Row::render) writes the ratio columns between the two.
/// Skip, fail and missing cells have no ratio columns: their whole row
/// is fixed. `harness jsonl`, `serve` and `route` all render through
/// this one type, so their bytes agree by construction.
#[derive(Clone, Debug)]
pub struct Row {
    /// The whole row without its ratio columns.
    text: String,
    /// Where the ratio columns go in `text` (ok rows only).
    split: usize,
    /// `Some` exactly for ok cells: the row carries ratio columns.
    ratios: Option<RatioInputs>,
}

impl Row {
    /// Render the fixed parts of the cell at (`bench`, `v`, `prec`);
    /// `None` is a cell the sweep does not hold (coordinates only).
    pub fn new(bench: &str, v: Variant, prec: Precision, entry: Option<&CellEntry>) -> Row {
        let mut text = format!(
            "{{\"bench\":{},\"version\":{},\"precision\":{}",
            jstr(bench),
            jstr(&v.label().replace(' ', "-")),
            jstr(prec.label())
        );
        let mut ratios = None;
        match entry {
            Some(CellEntry::Ok(cell)) => {
                let _ = write!(
                    text,
                    ",\"status\":\"ok\",\"attempts\":{},\"time_s\":{},\"power_w\":{},\
                     \"power_sigma_w\":{},\"energy_j\":{},\"iterations\":{}",
                    cell.attempts,
                    jnum(cell.outcome.time_s),
                    jnum(cell.measurement.mean_power_w),
                    jnum(cell.measurement.std_power_w),
                    jnum(cell.energy_j),
                    cell.iterations,
                );
                ratios = Some(RatioInputs::of(cell));
                let split = text.len();
                let c = &cell.counters;
                let _ = write!(
                    text,
                    ",\"note\":{},\"output_digest\":\"{:016x}\",\"flops\":{},\"int_ops\":{},\
                     \"special_ops\":{},\"total_ops\":{},\"avg_vector_width\":{},\"loads\":{},\
                     \"stores\":{},\"atomics\":{},\"bytes_read\":{},\"bytes_written\":{},\
                     \"l1_hit_rate\":{},\"l2_hit_rate\":{},\"dram_lines\":{},\
                     \"dram_stream_fraction\":{},\"occupancy\":{},\"registers_per_thread\":{},\
                     \"arithmetic_intensity\":{}}}",
                    cell.outcome
                        .note
                        .as_deref()
                        .map(jstr)
                        .unwrap_or_else(|| "null".into()),
                    cell.output_digest,
                    jnum(c.flops),
                    jnum(c.int_ops),
                    jnum(c.special_ops),
                    c.total_ops(),
                    jnum(c.avg_vector_width()),
                    c.loads,
                    c.stores,
                    c.atomics,
                    c.bytes_read,
                    c.bytes_written,
                    jnum(c.l1_hit_rate()),
                    jnum(c.l2_hit_rate()),
                    c.dram_lines,
                    jnum(c.dram_stream_fraction()),
                    jnum(c.occupancy()),
                    c.registers_per_thread,
                    jnum(c.arithmetic_intensity()),
                );
                return Row {
                    text,
                    split,
                    ratios,
                };
            }
            Some(CellEntry::Skipped(reason)) => {
                let _ = write!(
                    text,
                    ",\"status\":\"skip\",\"skip_reason\":{}",
                    jstr(&reason.to_string())
                );
            }
            Some(CellEntry::Failed(err)) => {
                let _ = write!(
                    text,
                    ",\"status\":\"fail\",\"fail_kind\":{},\"fail_detail\":{},\
                     \"attempts\":{},\"backoff_ms\":{}",
                    jstr(err.kind.label()),
                    jstr(&err.message),
                    err.attempts,
                    err.backoff_ms
                );
            }
            None => {}
        }
        text.push('}');
        let split = text.len();
        Row {
            text,
            split,
            ratios,
        }
    }

    /// Append the row (no trailing newline) to `out`. `serial` is the
    /// request's Serial row of the same (bench, precision), if it asked
    /// for one; the ratio columns are `null` unless both it and this row
    /// are ok cells.
    pub fn render(&self, serial: Option<&Row>, out: &mut String) {
        self.render_against(serial.and_then(|s| s.ratios), out);
    }

    fn render_against(&self, serial: Option<RatioInputs>, out: &mut String) {
        out.push_str(&self.text[..self.split]);
        if let Some(cell) = self.ratios {
            let ratio = |f: fn(&RatioInputs, &RatioInputs) -> f64| {
                serial.map_or_else(|| "null".into(), |s| jnum(f(&s, &cell)))
            };
            let _ = write!(
                out,
                ",\"speedup\":{},\"power_ratio\":{},\"energy_ratio\":{}",
                ratio(|s, c| s.time_s / c.time_s),
                ratio(|s, c| c.mean_power_w / s.mean_power_w),
                ratio(|s, c| c.energy_j / s.energy_j),
            );
        }
        out.push_str(&self.text[self.split..]);
    }
}

/// Render `rows` in order as JSON Lines. Each row's ratio columns are
/// taken against the Serial row of its (bench, precision) among `rows`
/// themselves — the request's own result set — so a full grid
/// reproduces `harness jsonl` and a subset without its baseline reports
/// `null`.
pub(crate) fn render_rows(rows: &[(&str, Variant, Precision, &Row)], out: &mut String) {
    let serial: HashMap<(&str, Precision), &Row> = rows
        .iter()
        .filter(|(_, v, _, _)| *v == Variant::Serial)
        .map(|&(bench, _, prec, row)| ((bench, prec), row))
        .collect();
    for &(bench, _, prec, row) in rows {
        row.render(serial.get(&(bench, prec)).copied(), out);
        out.push('\n');
    }
}

/// Render the sweep as JSON Lines, one object per cell (skips included
/// with `"skip_reason"` set and the numeric fields null).
pub fn to_jsonl(results: &SuiteResults) -> String {
    let mut out = String::new();
    for bench in &results.bench_names {
        for prec in Precision::ALL {
            for v in Variant::ALL {
                let _ = writeln!(out, "{}", jsonl_row(results, bench, v, prec));
            }
        }
    }
    out
}

/// Render one cell of the sweep as a single JSONL object (no trailing
/// newline), with ratio columns taken against `results`' Serial cell of
/// the same (bench, precision). A one-row [`Row::render`].
pub fn jsonl_row(results: &SuiteResults, bench: &str, v: Variant, prec: Precision) -> String {
    let mut out = String::new();
    Row::new(bench, v, prec, results.entry(bench, v, prec)).render_against(
        results
            .cell(bench, Variant::Serial, prec)
            .map(RatioInputs::of),
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_suite;

    #[test]
    fn csv_covers_every_cell_and_marks_skips() {
        let results = run_suite(&hpc_kernels::test_suite(), false);
        let csv = to_csv(&results);
        let lines: Vec<&str> = csv.lines().collect();
        // header + 9 benches x 4 versions x 2 precisions
        assert_eq!(lines.len(), 1 + 9 * 4 * 2);
        assert_eq!(lines[0], HEADER);
        // Every record parses to the full column count.
        let cols = HEADER.split(',').count();
        let records = parse_csv(&csv);
        assert_eq!(records.len(), lines.len());
        for r in &records {
            assert_eq!(r.len(), cols, "bad record: {r:?}");
        }
        // JSONL artifact: one object line per cell, same coverage.
        let jsonl = to_jsonl(&results);
        let jlines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(jlines.len(), 9 * 4 * 2);
        for l in &jlines {
            assert!(l.starts_with("{\"bench\":\"") && l.ends_with('}'), "{l}");
        }
        assert!(jlines.iter().any(|l| l.contains("\"occupancy\":")));
        assert!(jlines
            .iter()
            .any(|l| l.contains("\"skip_reason\":\"compiler bug")));
        // The amcd f64 GPU rows carry a skip reason and no numbers.
        let amcd_skips: Vec<&&str> = lines
            .iter()
            .filter(|l| l.starts_with("amcd,OpenCL") && l.contains("double"))
            .collect();
        assert_eq!(amcd_skips.len(), 2);
        for l in amcd_skips {
            assert!(l.contains("compiler bug"), "{l}");
            assert!(l.contains(",skip,"), "{l}");
        }
        // Every row carries a status column; clean cells say ok with one
        // attempt.
        for r in records.iter().skip(1) {
            assert!(matches!(r[13].as_str(), "ok" | "skip" | "fail"), "{r:?}");
            if r[13] == "ok" {
                assert_eq!(r[16], "1", "{r:?}");
            }
        }
        assert!(jsonl.contains("\"status\":\"ok\""));
        assert!(jsonl.contains("\"status\":\"skip\""));
        // Serial rows have speedup 1.
        assert!(lines
            .iter()
            .any(|l| l.starts_with("vecop,Serial,single") && l.contains(",1.0000,")));
    }

    #[test]
    fn escaping() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a,b"), "\"a,b\"");
        assert_eq!(esc("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(esc("line\nbreak"), "\"line\nbreak\"");
        assert_eq!(esc("cr\rhere"), "\"cr\rhere\"");
    }

    #[test]
    fn csv_round_trips_hostile_fields() {
        let fields = [
            "plain",
            "with,comma",
            "with \"quotes\"",
            "multi\nline,\"note\"",
            "",
            "trailing\r",
        ];
        let row = fields.map(esc).join(",");
        let parsed = parse_csv(&format!("{row}\nnext,line\n"));
        assert_eq!(parsed.len(), 2);
        for (got, want) in parsed[0].iter().zip(fields) {
            // CRs are record noise in RFC 4180 unquoted context; inside
            // quotes they survive.
            assert_eq!(got, want, "round-trip mismatch");
        }
        assert_eq!(parsed[1], vec!["next", "line"]);
    }
}
