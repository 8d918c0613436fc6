//! `pipeline-bench compare <a.jsonl> <b.jsonl>`: the A/A check of the
//! benchmark itself and the before/after tool of every later change.
//!
//! Each file holds one record per invocation (`--out` appends them). Per
//! workload and end-to-end metric the two sides' medians over their
//! records are compared against the metric's bound, the way the driver
//! compares two sets of ten runs; the interquartile spread of each side is
//! printed next to it so an unresolved comparison is visible as such.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::manifest::END_TO_END;
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;

/// The records of one result file.
#[derive(Debug, Default)]
struct ResultSet {
    /// workload → metric → one value per timed record.
    timed: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → (attempted, failed) summed over timed records.
    runs: BTreeMap<String, (f64, f64)>,
    /// (workload, seed) → exact per-layer counts of the traced record.
    counts: BTreeMap<(String, u64), BTreeMap<String, f64>>,
}

fn load(text: &str, origin: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{origin}:{}: {e}", i + 1))?;
        let field = |key: &str| {
            rec.get(key)
                .ok_or_else(|| format!("{origin}:{}: record has no `{key}`", i + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let metrics = field("metrics")?.as_obj().unwrap_or_default();
        let number = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        if field("trace")?.as_f64() == Some(0.0) {
            let per_metric = set.timed.entry(workload.clone()).or_default();
            for (name, m) in metrics {
                per_metric
                    .entry(name.clone())
                    .or_default()
                    .push(number(m, "value"));
            }
            let runs = set.runs.entry(workload).or_default();
            runs.0 += number(&rec, "attempted");
            runs.1 += number(&rec, "failed");
        } else {
            let seed = number(field("header")?, "seed") as u64;
            let exact = metrics
                .iter()
                .filter(|(_, m)| {
                    matches!(
                        m.get("unit").and_then(Value::as_str),
                        Some("count" | "bytes")
                    )
                })
                .map(|(name, m)| (name.clone(), number(m, "value")))
                .collect();
            set.counts.insert((workload, seed), exact);
        }
    }
    Ok(set)
}

/// Compares two result files. Returns the report and whether B is no
/// worse than A: every end-to-end median within its bound on every
/// workload, and no rise in failed runs.
///
/// # Errors
///
/// Returns a message when a file is malformed or the two do not cover the
/// same workloads.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = load(a_text, "A")?;
    let b = load(b_text, "B")?;
    let mut out = String::new();
    let mut pass = true;
    writeln!(
        out,
        "{:<22} {:<14} {:>14} {:>14} {:>8} {:>6} {:>9} {:>9}  verdict",
        "workload", "metric", "median A", "median B", "worse", "bound", "spread A", "spread B"
    )
    .expect("write to String");
    for w in &WORKLOADS {
        let (Some(ma), Some(mb)) = (a.timed.get(w.name), b.timed.get(w.name)) else {
            if a.timed.contains_key(w.name) != b.timed.contains_key(w.name) {
                return Err(format!(
                    "workload `{}` has timed records on one side only",
                    w.name
                ));
            }
            continue;
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (ma.get(m.name), mb.get(m.name)) else {
                return Err(format!(
                    "{}: metric `{}` missing on one side",
                    w.name, m.name
                ));
            };
            let (med_a, med_b) = (median(va), median(vb));
            // Positive = B is worse, whichever way the metric points.
            let worse = match m.better {
                "lower" => (med_b - med_a) / med_a,
                _ => (med_a - med_b) / med_a,
            };
            let spread_of = |v: &[f64]| {
                if v.len() >= 2 {
                    format!("{:.2}%", spread(v) * 100.0)
                } else {
                    "n=1".to_string()
                }
            };
            let ok = worse <= m.bound;
            pass &= ok;
            writeln!(
                out,
                "{:<22} {:<14} {:>14.6} {:>14.6} {:>+7.2}% {:>5.0}% {:>9} {:>9}  {}",
                w.name,
                m.name,
                med_a,
                med_b,
                worse * 100.0,
                m.bound * 100.0,
                spread_of(va),
                spread_of(vb),
                if ok { "ok" } else { "REGRESSION" }
            )
            .expect("write to String");
        }
        let share = |set: &ResultSet| {
            let (attempted, failed) = set.runs[w.name];
            failed / attempted.max(1.0)
        };
        let (fa, fb) = (share(&a), share(&b));
        let ok = fb <= fa && fb == 0.0;
        pass &= ok;
        writeln!(
            out,
            "{:<22} {:<14} {:>14.6} {:>14.6} {:>8} {:>6} {:>9} {:>9}  {}",
            w.name,
            "fail_share",
            fa,
            fb,
            "",
            "0",
            "",
            "",
            if ok { "ok" } else { "FAILED RUNS" }
        )
        .expect("write to String");
    }
    if a.timed.is_empty() && a.counts.is_empty() {
        return Err("A holds no records".to_string());
    }

    // Exact counts repeat bit-for-bit on one commit, so between two files
    // of the same commit any line here is a determinism bug; between two
    // commits the lines are the change, stated as counts.
    let mut compared = 0;
    let mut changed = 0;
    for (key, counts_a) in &a.counts {
        let Some(counts_b) = b.counts.get(key) else {
            continue;
        };
        for (name, va) in counts_a {
            compared += 1;
            let vb = counts_b.get(name).copied().unwrap_or(f64::NAN);
            if *va != vb {
                changed += 1;
                writeln!(
                    out,
                    "count changed: {} seed {} {name}: {va} -> {vb}",
                    key.0, key.1
                )
                .expect("write to String");
            }
        }
    }
    writeln!(out, "exact counts: {compared} compared, {changed} changed").expect("write to String");
    writeln!(out, "{}", if pass { "PASS" } else { "FAIL" }).expect("write to String");
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(workload: &str, wall: f64, failed: u64) -> String {
        format!(
            r#"{{"header":{{"seed":1}},"workload":"{workload}","trace":0,"correct":true,"attempted":9,"failed":{failed},"metrics":{{"run_wall_s":{{"value":{wall},"unit":"s"}},"samples_per_s":{{"value":{},"unit":"1/s"}},"events_per_s":{{"value":{},"unit":"1/s"}},"setup_s":{{"value":2.0,"unit":"s"}}}}}}"#,
            1000.0 / wall,
            5000.0 / wall
        )
    }

    fn traced(workload: &str, events: u64) -> String {
        format!(
            r#"{{"header":{{"seed":1}},"workload":"{workload}","trace":1,"correct":true,"attempted":3,"failed":0,"metrics":{{"gillespie.engine.events":{{"value":{events},"unit":"count"}},"trace.total_s":{{"value":1.5,"unit":"s"}}}}}}"#
        )
    }

    #[test]
    fn medians_within_the_bound_pass_and_counts_are_checked() {
        let a = [
            timed("wide_ssa_farm", 1.00, 0),
            timed("wide_ssa_farm", 1.04, 0),
            traced("wide_ssa_farm", 77),
        ]
        .join("\n");
        let b = [
            timed("wide_ssa_farm", 1.08, 0),
            timed("wide_ssa_farm", 1.06, 0),
            traced("wide_ssa_farm", 77),
        ]
        .join("\n");
        let (report, pass) = compare(&a, &b).unwrap();
        assert!(pass, "{report}");
        assert!(
            report.contains("exact counts: 1 compared, 0 changed"),
            "{report}"
        );
    }

    #[test]
    fn a_median_past_its_bound_or_a_failed_run_fails() {
        let a = timed("wide_ssa_farm", 1.0, 0);
        let (report, pass) = compare(&a, &timed("wide_ssa_farm", 1.3, 0)).unwrap();
        assert!(!pass && report.contains("REGRESSION"), "{report}");
        // Faster is never a regression, in either direction of "better".
        assert!(compare(&a, &timed("wide_ssa_farm", 0.5, 0)).unwrap().1);
        let (report, pass) = compare(&a, &timed("wide_ssa_farm", 1.0, 1)).unwrap();
        assert!(!pass && report.contains("FAILED RUNS"), "{report}");
    }

    #[test]
    fn changed_counts_are_listed_and_lopsided_files_are_errors() {
        let (report, pass) =
            compare(&traced("wide_ssa_farm", 77), &traced("wide_ssa_farm", 78)).unwrap();
        assert!(pass);
        assert!(
            report.contains("gillespie.engine.events: 77 -> 78"),
            "{report}"
        );
        assert!(compare(&timed("wide_ssa_farm", 1.0, 0), "")
            .unwrap_err()
            .contains("one side"));
        assert!(compare("{", "").unwrap_err().contains("A:1"));
    }
}
