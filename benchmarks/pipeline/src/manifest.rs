//! The metric tables — the single definition of every name, unit,
//! direction, bound and predicted interaction — and `BENCHMARK.json`,
//! which is generated from them (`pipeline-bench manifest`) and checked
//! against the committed file by a unit test.

use crate::json::Value;
use crate::workloads::WORKLOADS;

/// How long one driver-invoked run measures, in seconds.
pub const RUN_SECONDS: u64 = 12;

/// An end-to-end metric: what a user of the pipeline waits for.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The gated metrics. `fail_share` (failed / attempted runs) is not in
/// this table because the result line carries `attempted` and `failed`
/// themselves, and a gated metric may never read 0 — which is the only
/// value `fail_share` is allowed to have.
///
/// Every bound is 0.25, the widest the contract allows, because the
/// reference box's own noise floor leaves no room for a tighter one: over
/// ten seeds the interquartile spread of `run_wall_s` read 5 % in a quiet
/// quarter of an hour and 8–16 % in a busy one, and the median of one set
/// of ten sat 11 % above the previous set's with no code change between
/// them (README, "Noise floor"). A bound has to hold three of those
/// spreads. Claims of a gain do not rest on it — they use paired runs.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "samples_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric and the end-to-end effect predicted for it.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the prefix is the crate (layer) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// `(end-to-end metric, workload)` pairs this metric should move;
    /// empty for bookkeeping values that diagnose rather than drive.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const ENGINE_BOUND: &[(&str, &str)] = &[
    ("run_wall_s", "neuro_engine_farm"),
    ("events_per_s", "neuro_engine_farm"),
    ("run_wall_s", "wide_ssa_farm"),
    ("run_wall_s", "wide_batched_farm"),
    ("run_wall_s", "wide_adaptive_leap"),
];
const WIDE_BUILD: &[(&str, &str)] = &[
    ("setup_s", "wide_ssa_farm"),
    ("run_wall_s", "wide_ssa_farm"),
    ("run_wall_s", "wide_batched_farm"),
    ("run_wall_s", "wide_adaptive_leap"),
];
const HAND_OFF: &[(&str, &str)] = &[
    ("run_wall_s", "neuro_analysis_stream"),
    ("samples_per_s", "neuro_analysis_stream"),
];
const SAMPLE_PATH: &[(&str, &str)] = &[
    ("samples_per_s", "neuro_analysis_stream"),
    ("samples_per_s", "neuro_shard_process"),
];
const ANALYSIS: &[(&str, &str)] = &[("samples_per_s", "neuro_analysis_stream")];
const SHARD_RUN: &[(&str, &str)] = &[("run_wall_s", "neuro_shard_process")];
const SHARD_SETUP: &[(&str, &str)] = &[("setup_s", "neuro_shard_process")];
const SHARD_BOTH: &[(&str, &str)] = &[
    ("run_wall_s", "neuro_shard_process"),
    ("setup_s", "neuro_shard_process"),
];
const FARM_SCHEDULING: &[(&str, &str)] = &[
    ("run_wall_s", "neuro_engine_farm"),
    ("run_wall_s", "neuro_analysis_stream"),
];
const DIAGNOSTIC: &[(&str, &str)] = &[];

/// Every per-layer metric `pipeline-trace` prints. A metric whose layer is
/// not on a workload's path (the `distrt.*` probes anywhere but
/// `neuro_shard_process`, a stat engine the workload does not configure)
/// reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    layer("gillespie.deps.compile_s", "s", "lower", WIDE_BUILD),
    layer("gillespie.engine.busy_s", "s", "lower", ENGINE_BOUND),
    layer("gillespie.engine.quanta", "count", "lower", DIAGNOSTIC),
    layer("gillespie.engine.events", "count", "lower", DIAGNOSTIC),
    layer(
        "gillespie.engine.events_per_s",
        "1/s",
        "higher",
        ENGINE_BOUND,
    ),
    layer("gillespie.engine.share", "ratio", "lower", DIAGNOSTIC),
    layer(
        "gillespie.engine.allocs_per_quantum",
        "count",
        "lower",
        ENGINE_BOUND,
    ),
    layer("cwcsim.task.new_s", "s", "lower", WIDE_BUILD),
    layer("cwcsim.task.samples", "count", "lower", DIAGNOSTIC),
    layer("cwcsim.task.sample_bytes", "bytes", "lower", HAND_OFF),
    layer("cwcsim.task.allocs_per_sample", "count", "lower", HAND_OFF),
    layer("cwcsim.alignment.busy_s", "s", "lower", SAMPLE_PATH),
    layer("cwcsim.alignment.batches_in", "count", "lower", DIAGNOSTIC),
    layer("cwcsim.alignment.cuts_out", "count", "lower", DIAGNOSTIC),
    layer("cwcsim.alignment.ns_per_sample", "ns", "lower", SAMPLE_PATH),
    layer(
        "cwcsim.alignment.allocs_per_sample",
        "count",
        "lower",
        SAMPLE_PATH,
    ),
    layer(
        "cwcsim.alignment.peak_buffered",
        "count",
        "lower",
        DIAGNOSTIC,
    ),
    layer("cwcsim.merge.summary_busy_s", "s", "lower", ANALYSIS),
    layer(
        "cwcsim.merge.summary_ns_per_sample",
        "ns",
        "lower",
        ANALYSIS,
    ),
    layer("cwcsim.merge.cutmerger_busy_s", "s", "lower", SHARD_RUN),
    layer(
        "cwcsim.merge.cutmerger_ns_per_cut",
        "ns",
        "lower",
        SHARD_RUN,
    ),
    layer("cwcsim.merge.summary_merge_s", "s", "lower", SHARD_RUN),
    layer("cwcsim.windows.busy_s", "s", "lower", ANALYSIS),
    layer("cwcsim.windows.windows_out", "count", "lower", DIAGNOSTIC),
    layer("cwcsim.windows.ns_per_cut", "ns", "lower", ANALYSIS),
    layer("cwcsim.engines.busy_s", "s", "lower", ANALYSIS),
    layer("cwcsim.engines.rows_out", "count", "lower", DIAGNOSTIC),
    layer("cwcsim.engines.ns_per_sample", "ns", "lower", ANALYSIS),
    layer("cwcsim.engines.meanvar_s", "s", "lower", ANALYSIS),
    layer("cwcsim.engines.kmeans_s", "s", "lower", ANALYSIS),
    layer("cwcsim.engines.quantile_s", "s", "lower", ANALYSIS),
    layer("cwcsim.engines.histogram_s", "s", "lower", ANALYSIS),
    layer("cwcsim.display.csv_s", "s", "lower", DIAGNOSTIC),
    layer("cwcsim.display.csv_bytes", "bytes", "lower", DIAGNOSTIC),
    layer(
        "fastflow.channel.ns_per_item",
        "ns",
        "lower",
        FARM_SCHEDULING,
    ),
    layer(
        "fastflow.unbounded.ns_per_item",
        "ns",
        "lower",
        FARM_SCHEDULING,
    ),
    layer("fastflow.farm.ns_per_task", "ns", "lower", FARM_SCHEDULING),
    layer(
        "fastflow.farm.speedup_vs_seq",
        "ratio",
        "higher",
        DIAGNOSTIC,
    ),
    layer("fastflow.farm.cpu_per_wall", "ratio", "higher", DIAGNOSTIC),
    layer(
        "fastflow.node.alignment.busy_share",
        "ratio",
        "lower",
        DIAGNOSTIC,
    ),
    layer(
        "fastflow.node.run-summary.busy_share",
        "ratio",
        "lower",
        DIAGNOSTIC,
    ),
    layer(
        "fastflow.node.window-gen.busy_share",
        "ratio",
        "lower",
        DIAGNOSTIC,
    ),
    layer("distrt.wire.job_bytes", "bytes", "lower", SHARD_SETUP),
    layer("distrt.wire.job_encode_s", "s", "lower", SHARD_SETUP),
    layer("distrt.wire.job_decode_s", "s", "lower", SHARD_SETUP),
    layer("distrt.wire.cut_bytes", "bytes", "lower", SHARD_RUN),
    layer("distrt.wire.cut_encode_ns", "ns", "lower", SHARD_RUN),
    layer("distrt.wire.cut_decode_ns", "ns", "lower", SHARD_RUN),
    layer("distrt.wire.bytes_total", "bytes", "lower", SHARD_RUN),
    layer("distrt.wire.mb_per_s", "MB/s", "higher", SHARD_RUN),
    layer("distrt.shard.serve_s", "s", "lower", SHARD_RUN),
    layer("distrt.shard.serve_out_bytes", "bytes", "lower", SHARD_RUN),
    layer("distrt.shard.spawn_floor_s", "s", "lower", SHARD_BOTH),
    layer(
        "distrt.shard.process_vs_inproc_ratio",
        "ratio",
        "lower",
        SHARD_RUN,
    ),
    layer("distrt.net.connect_s", "s", "lower", DIAGNOSTIC),
    layer(
        "distrt.net.tcp_vs_process_ratio",
        "ratio",
        "lower",
        DIAGNOSTIC,
    ),
    layer(
        "cwcsim.supervisor.watchdog_overhead_ratio",
        "ratio",
        "lower",
        SHARD_RUN,
    ),
    layer("process.cpu_s", "s", "lower", DIAGNOSTIC),
    layer("process.peak_rss_mb", "MB", "lower", DIAGNOSTIC),
    layer("baseline.seq_wall_s", "s", "lower", DIAGNOSTIC),
    layer("trace.total_s", "s", "lower", DIAGNOSTIC),
    layer("trace.spans", "count", "lower", DIAGNOSTIC),
    layer("trace.unattributed_s", "s", "lower", DIAGNOSTIC),
    layer("trace.overhead_ratio", "ratio", "lower", DIAGNOSTIC),
];

/// Layer-internal items `pipeline-trace` names. A change to any of them
/// breaks the traced build (never the gated `pipeline-bench` numbers) and
/// needs a paired `benchmark` issue to move the spans.
pub const LAYER_API: &[&str] = &[
    "gillespie::deps::ModelDeps::compile",
    "gillespie::KernelDispatch::resolve",
    "gillespie::trajectory::Cut",
    "cwcsim::task::SimTask::{with_engine_deps, run_quantum, is_done, instance}",
    "cwcsim::task::BatchSimTask::{with_engine_deps, with_kernel_dispatch, run_quantum, is_done}",
    "cwcsim::task::{batch_spans, SampleBatch}",
    "cwcsim::alignment::Alignment::{new, buffered}",
    "cwcsim::merge::RunSummary::{new, push_cut}",
    "cwcsim::merge::CutMerger::{new, push}",
    "cwcsim::windows::{Window, WindowGen::new}",
    "cwcsim::engines::StatEngineSet::{new, analyse, analyse_cut}",
    "cwcsim::runner::SimReport::to_csv",
    "cwcsim::plan::{ShardPlan, ShardRange}",
    "cwcsim::coordinator::ShardSpec::from_config",
    "streamstat::merge::Mergeable::merge_from",
    "fastflow::node::{Stage::on_item, Stage::on_end, Outbox}",
    "fastflow::channel::{bounded, unbounded}",
    "fastflow::master_worker::{Master, FeedbackWorker, Scheduler}",
    "fastflow::pipeline::Pipeline::{from_source, master_worker_farm, collect}",
    "fastflow::metrics::RunStats::node",
    "distrt::wire::{to_bytes, from_bytes}",
    "distrt::shard::{ShardJob, ToShard, ToCoordinator, write_frame, serve_shard}",
    "distrt::net::connect_worker",
    "src/bin/cwc-workerd (--listen, --capacity, \"listening on <addr>\" line)",
];

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> Value {
    let metric = |name: &str, unit: &str, better: &str| {
        vec![
            ("name", Value::str(name)),
            ("unit", Value::str(unit)),
            ("better", Value::str(better)),
        ]
    };
    Value::obj([
        (
            "command",
            Value::Arr(vec![
                Value::str("bash"),
                Value::str("benchmarks/pipeline/run.sh"),
            ]),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmarks/pipeline")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut pairs = metric(m.name, m.unit, m.better);
                        pairs.push(("bound", Value::Num(m.bound)));
                        Value::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Value::obj(metric(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Checks a `BENCHMARK.json` document against the builder's contract
/// (exact key sets, name/unit grammar, counts, bounds, a gated `setup_s`)
/// and the predicted interactions against the names the document defines.
///
/// # Errors
///
/// Returns every violation found, one per line.
pub fn validate_benchmark_json(doc: &Value) -> Result<(), String> {
    let mut errors = Vec::new();
    let mut fail = |msg: String| errors.push(msg);

    let keys = |v: &Value| -> Vec<String> {
        v.as_obj()
            .map(|o| o.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default()
    };
    let expect_keys = |v: &Value, want: &[&str], what: &str, fail: &mut dyn FnMut(String)| {
        let mut got = keys(v);
        got.sort();
        let mut want: Vec<String> = want.iter().map(|s| (*s).to_string()).collect();
        want.sort();
        if got != want {
            fail(format!("{what}: keys {got:?}, expected exactly {want:?}"));
        }
    };
    expect_keys(
        doc,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "top level",
        &mut fail,
    );
    let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap_or(&[]);

    let command = list("command");
    if command.is_empty() || command.len() > 32 {
        fail(format!(
            "command: {} strings, expected 1..=32",
            command.len()
        ));
    }
    for part in command {
        match part.as_str() {
            Some(s)
                if s.len() <= 200 && !s.starts_with('/') && !s.split('/').any(|c| c == "..") => {}
            other => fail(format!("command: bad element {other:?}")),
        }
    }
    let paths = list("paths");
    if paths.is_empty() || paths.len() > 16 {
        fail(format!("paths: {} entries, expected 1..=16", paths.len()));
    }
    match doc.get("run_seconds").and_then(Value::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {}
        other => fail(format!(
            "run_seconds: {other:?}, expected a whole number 1..=60"
        )),
    }

    let mut seen = std::collections::BTreeSet::new();
    let mut names_of =
        |key: &str, limits: (usize, usize), want: &[&str], fail: &mut dyn FnMut(String)| {
            let items = list(key);
            if items.len() < limits.0 || items.len() > limits.1 {
                fail(format!(
                    "{key}: {} entries, expected {}..={}",
                    items.len(),
                    limits.0,
                    limits.1
                ));
            }
            let mut names = Vec::new();
            for item in items {
                expect_keys(item, want, key, fail);
                let name = item.get("name").and_then(Value::as_str).unwrap_or("");
                if !is_name(name) {
                    fail(format!("{key}: bad name {name:?}"));
                }
                if !seen.insert(name.to_string()) {
                    fail(format!("{key}: name {name:?} used twice"));
                }
                if want.contains(&"unit") {
                    let unit = item.get("unit").and_then(Value::as_str).unwrap_or("");
                    if !is_unit(unit) {
                        fail(format!("{key}: {name}: bad unit {unit:?}"));
                    }
                    let better = item.get("better").and_then(Value::as_str).unwrap_or("");
                    if better != "lower" && better != "higher" {
                        fail(format!("{key}: {name}: better is {better:?}"));
                    }
                }
                if want.contains(&"why") {
                    let why = item.get("why").and_then(Value::as_str).unwrap_or("");
                    if why.is_empty() || why.len() > 200 || why.contains('\n') {
                        fail(format!(
                            "{key}: {name}: why must be one line of 1..=200 characters"
                        ));
                    }
                }
                if want.contains(&"bound") {
                    match item.get("bound").and_then(Value::as_f64) {
                        Some(b) if b > 0.0 && b <= 0.25 => {}
                        other => fail(format!(
                            "{key}: {name}: bound {other:?}, expected (0, 0.25]"
                        )),
                    }
                }
                names.push(name.to_string());
            }
            names
        };
    let workloads = names_of("workloads", (2, 8), &["name", "why"], &mut fail);
    let end_to_end = names_of(
        "end_to_end",
        (1, 16),
        &["name", "unit", "better", "bound"],
        &mut fail,
    );
    let per_layer = names_of(
        "per_layer",
        (1, 128),
        &["name", "unit", "better"],
        &mut fail,
    );

    let setup_ok = list("end_to_end").iter().any(|m| {
        m.get("name").and_then(Value::as_str) == Some("setup_s")
            && m.get("unit").and_then(Value::as_str) == Some("s")
            && m.get("better").and_then(Value::as_str) == Some("lower")
    });
    if !setup_ok {
        fail("end_to_end: no `setup_s` metric in `s`, lower is better".to_string());
    }

    for layer in PER_LAYER {
        if !per_layer.iter().any(|n| n == layer.name) {
            fail(format!(
                "per_layer: `{}` is in the metric table but not in the document",
                layer.name
            ));
        }
        for (metric, workload) in layer.moves {
            if !end_to_end.iter().any(|n| n == metric) {
                fail(format!(
                    "{}: moves unknown end-to-end metric `{metric}`",
                    layer.name
                ));
            }
            if !workloads.iter().any(|n| n == workload) {
                fail(format!(
                    "{}: moves unknown workload `{workload}`",
                    layer.name
                ));
            }
        }
    }
    if doc.render_pretty().len() > 64 * 1024 {
        fail("document larger than 64 KiB".to_string());
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn generated_manifest_is_valid() {
        validate_benchmark_json(&benchmark_json()).unwrap();
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        validate_benchmark_json(&doc).unwrap();
        assert_eq!(
            doc,
            benchmark_json(),
            "regenerate with `pipeline-bench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn readme_defines_every_workload_gated_metric_and_layer_api_item() {
        let readme = include_str!("../README.md");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(LAYER_API.iter().copied());
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README lacks `{name}`"
            );
        }
        let listed = readme.lines().filter(|l| l.starts_with("- `")).count();
        assert_eq!(
            listed,
            LAYER_API.len(),
            "README's layer_api list has stale entries"
        );
    }

    #[test]
    fn validator_rejects_each_kind_of_violation() {
        type Members = Vec<(String, Value)>;
        let broken = |edit: &dyn Fn(&mut Members)| {
            let Value::Obj(mut pairs) = benchmark_json() else {
                unreachable!()
            };
            edit(&mut pairs);
            validate_benchmark_json(&Value::Obj(pairs)).unwrap_err()
        };
        let entry = |pairs: &mut Members, key: &str, i: usize, field: &str, v: Value| {
            let list = pairs.iter_mut().find(|(k, _)| k == key).unwrap();
            let Value::Arr(items) = &mut list.1 else {
                unreachable!()
            };
            let Value::Obj(fields) = &mut items[i] else {
                unreachable!()
            };
            fields.iter_mut().find(|(k, _)| k == field).unwrap().1 = v;
        };

        assert!(broken(&|p| p.push(("extra".into(), Value::Null))).contains("top level"));
        assert!(
            broken(&|p| entry(p, "per_layer", 0, "name", Value::str("has space")))
                .contains("bad name")
        );
        assert!(broken(&|p| entry(p, "end_to_end", 0, "bound", Value::Num(0.5))).contains("bound"));
        assert!(
            broken(&|p| entry(p, "end_to_end", 3, "name", Value::str("boot_s")))
                .contains("setup_s")
        );
        // Renaming a workload orphans the interactions that predicted it.
        assert!(
            broken(&|p| entry(p, "workloads", 0, "name", Value::str("renamed")))
                .contains("moves unknown workload `neuro_engine_farm`")
        );
        assert!(
            broken(&|p| entry(p, "per_layer", 1, "name", Value::str("run_wall_s")))
                .contains("used twice")
        );
        let nine: Vec<Value> = (0..9)
            .map(|i| {
                Value::obj([
                    ("name", Value::str(format!("w{i}"))),
                    ("why", Value::str("x")),
                ])
            })
            .collect();
        assert!(broken(
            &|p| p.iter_mut().find(|(k, _)| k == "workloads").unwrap().1 = Value::Arr(nine.clone())
        )
        .contains("workloads: 9 entries"));
    }
}
