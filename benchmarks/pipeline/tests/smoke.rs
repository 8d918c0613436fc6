//! `--smoke` through both binaries: every workload shrunk about 20×, one
//! run per phase, the real process and TCP paths and the oracle check
//! included. Needs `cwc-shard` and `cwc-workerd` next to the bench
//! executables (`run.sh test` builds them there); without them the
//! binaries fail hard, naming the build command, and so does this test.

use std::process::Command;

use pipeline_bench::json::{self, Value};
use pipeline_bench::manifest::{END_TO_END, PER_LAYER};
use pipeline_bench::workloads::WORKLOADS;

/// Runs one smoke invocation and returns the parsed result line.
fn smoke(exe: &str, workload: &str, trace: &str) -> Value {
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            "2014",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("spawn bench binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited with {}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    result
}

/// Asserts the result carries exactly `want`, each as `{value, unit}`.
fn assert_metrics<'a>(
    result: &Value,
    want: impl Iterator<Item = (&'a str, &'a str)>,
    workload: &str,
) {
    let got = result.get("metrics").and_then(Value::as_obj).unwrap();
    let want: Vec<_> = want.collect();
    assert_eq!(got.len(), want.len(), "{workload}: metric count");
    for ((name, m), (want_name, want_unit)) in got.iter().zip(want) {
        assert_eq!(name, want_name, "{workload}");
        let fields: Vec<&str> = m
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["value", "unit"], "{workload}: {name}");
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(want_unit),
            "{workload}: {name}"
        );
        assert!(
            m.get("value").and_then(Value::as_f64).unwrap().is_finite(),
            "{workload}: {name}"
        );
    }
}

fn value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .unwrap()
        .get(name)
        .unwrap()
        .get("value")
        .unwrap()
        .as_f64()
        .unwrap()
}

#[test]
fn every_workload_runs_end_to_end_and_matches_the_oracle() {
    for w in &WORKLOADS {
        let result = smoke(env!("CARGO_BIN_EXE_pipeline-bench"), w.name, "0");
        assert_metrics(&result, END_TO_END.iter().map(|m| (m.name, m.unit)), w.name);
        for m in &END_TO_END {
            assert!(
                value(&result, m.name) > 0.0,
                "{}: {} must never read 0",
                w.name,
                m.name
            );
        }
    }
}

#[test]
fn every_workload_traces_every_layer_and_matches_the_oracle() {
    for w in &WORKLOADS {
        let result = smoke(env!("CARGO_BIN_EXE_pipeline-trace"), w.name, "1");
        assert_metrics(&result, PER_LAYER.iter().map(|m| (m.name, m.unit)), w.name);
        for name in [
            "gillespie.engine.events",
            "cwcsim.alignment.cuts_out",
            "trace.spans",
        ] {
            assert!(value(&result, name) > 0.0, "{}: {name}", w.name);
        }
        // The sharded probes ran through real children and real sockets —
        // and only where the sharded stack is on the workload's path.
        let on_path = w.name == "neuro_shard_process";
        for name in [
            "distrt.wire.bytes_total",
            "distrt.shard.spawn_floor_s",
            "distrt.shard.process_vs_inproc_ratio",
            "distrt.net.connect_s",
            "distrt.net.tcp_vs_process_ratio",
        ] {
            assert_eq!(value(&result, name) > 0.0, on_path, "{}: {name}", w.name);
        }

        let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let text = std::fs::read_to_string(format!("{trace}/trace-{}.jsonl", w.name)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len() as f64,
            value(&result, "trace.spans") + 1.0,
            "{}",
            w.name
        );
        let root = json::parse(lines[0]).unwrap();
        assert_eq!(
            root.get("name").and_then(Value::as_str),
            Some("trace.total")
        );
        assert_eq!(root.get("parent"), Some(&Value::Null));
        let header = json::parse(lines[lines.len() - 1]).unwrap();
        assert!(header
            .get("header")
            .and_then(|h| h.get("kernel_dispatch"))
            .is_some());
    }
}

#[test]
fn a_trace_request_to_the_timed_binary_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_pipeline-bench"))
        .args(["--workload", "wide_ssa_farm", "--trace", "1", "--smoke"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
