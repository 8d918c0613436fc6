//! Per-layer probes that are not spans of the traced run: the `fastflow`
//! micro-measurements, one-kind stat-engine passes, process accounting,
//! and — for the sharded workload only — the wire, shard, TCP and
//! supervisor probes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Cursor};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cwc_repro::cwc::model::Model;
use cwc_repro::cwcsim::coordinator::ShardSpec;
use cwc_repro::cwcsim::engines::StatEngineSet;
use cwc_repro::cwcsim::merge::{CutMerger, RunSummary};
use cwc_repro::cwcsim::plan::ShardPlan;
use cwc_repro::distrt::net::connect_worker;
use cwc_repro::distrt::shard::{
    run_simulation_sharded, serve_shard, write_frame, ShardJob, ToCoordinator, ToShard,
};
use cwc_repro::distrt::wire;
use cwc_repro::fastflow::channel;
use cwc_repro::fastflow::master_worker::{FeedbackWorker, Master, Scheduler};
use cwc_repro::fastflow::node::Outbox;
use cwc_repro::fastflow::pipeline::Pipeline;
use cwc_repro::gillespie::deps::ModelDeps;
use cwc_repro::gillespie::trajectory::Cut;
use cwc_repro::streamstat::merge::Mergeable;
use cwc_repro::{
    run_simulation_sharded_in_process, SimConfig, SimError, SimReport, StatEngineKind,
    TransportKind,
};

use pipeline_bench::harness::{run_guarded, worker_binary, ChildGuard};
use pipeline_bench::stats::median;
use pipeline_bench::workloads::Digest;

/// Metric name → value, as the probes report them.
pub type Metrics = BTreeMap<&'static str, f64>;

// ---------------------------------------------------------------- process

/// CPU seconds of this process and of every child it has waited for
/// (`/proc/self/stat`: utime + stime + cutime + cstime, at the kernel's
/// fixed 100 Hz accounting tick).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime is field 14 of
    // the line, i.e. index 11 after the `)`.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks: f64 = (11..15)
        .filter_map(|i| fields.get(i)?.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// --------------------------------------------------------------- fastflow

const CHANNEL_ITEMS: u64 = 1_000_000;
const CHANNEL_CAPACITY: usize = 64;
const FARM_TASKS: u32 = 2_000;
const FARM_ROUNDS: u32 = 60;

/// One producer thread → this thread, `CHANNEL_ITEMS` items.
fn channel_ns_per_item(tx: channel::Sender<u64>, rx: channel::Receiver<u64>) -> f64 {
    let start = Instant::now();
    let sum = std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..CHANNEL_ITEMS {
                if tx.send(i).is_err() {
                    break;
                }
            }
        });
        rx.iter().sum::<u64>()
    });
    let elapsed = start.elapsed();
    assert_eq!(
        sum,
        CHANNEL_ITEMS * (CHANNEL_ITEMS - 1) / 2,
        "items lost in the channel"
    );
    elapsed.as_nanos() as f64 / CHANNEL_ITEMS as f64
}

/// A task is its number of remaining feedback rounds.
struct NoopMaster;

impl Master for NoopMaster {
    type In = u32;
    type Task = u32;
    type Fb = u32;

    fn on_upstream(&mut self, rounds: u32, sched: &mut Scheduler<'_, u32>) {
        sched.submit(rounds);
    }

    fn on_feedback(&mut self, rounds: u32, sched: &mut Scheduler<'_, u32>) {
        sched.submit(rounds);
    }
}

struct NoopWorker;

impl FeedbackWorker for NoopWorker {
    type Task = u32;
    type Fb = u32;
    type Out = u32;

    fn on_task(&mut self, rounds: u32, out: &mut Outbox<'_, u32>) -> Option<u32> {
        if rounds == 0 {
            out.push(0);
            None
        } else {
            Some(rounds - 1)
        }
    }
}

/// `master_worker_farm`, 2 workers, no-op tasks fed back `FARM_ROUNDS`
/// times each: the scheduling cost a quantum pays on top of its stepping.
fn farm_ns_per_task() -> f64 {
    let start = Instant::now();
    let done = Pipeline::from_source((0..FARM_TASKS).map(|_| FARM_ROUNDS))
        .master_worker_farm(NoopMaster, vec![NoopWorker, NoopWorker])
        .collect()
        .expect("no-op farm cannot panic");
    let elapsed = start.elapsed();
    assert_eq!(done.len(), FARM_TASKS as usize);
    elapsed.as_nanos() as f64 / f64::from(FARM_TASKS * (FARM_ROUNDS + 1))
}

/// The three `fastflow` micro-measurements.
pub fn fastflow(m: &mut Metrics) {
    let (tx, rx) = channel::bounded(CHANNEL_CAPACITY);
    m.insert("fastflow.channel.ns_per_item", channel_ns_per_item(tx, rx));
    let (tx, rx) = channel::unbounded();
    m.insert(
        "fastflow.unbounded.ns_per_item",
        channel_ns_per_item(tx, rx),
    );
    m.insert("fastflow.farm.ns_per_task", farm_ns_per_task());
}

// ----------------------------------------------------------- stat engines

/// One pass of `analyse_cut` per configured engine kind, each with a
/// one-kind set over the same cuts: how `cwcsim.engines.busy_s` divides.
pub fn engine_kinds(m: &mut Metrics, kinds: &[StatEngineKind], cuts: &[Cut]) {
    for kind in kinds {
        let name = match kind {
            StatEngineKind::MeanVariance => "cwcsim.engines.meanvar_s",
            StatEngineKind::KMeans { .. } => "cwcsim.engines.kmeans_s",
            StatEngineKind::Quantile { .. } => "cwcsim.engines.quantile_s",
            StatEngineKind::Histogram { .. } => "cwcsim.engines.histogram_s",
        };
        let set = StatEngineSet::new(vec![kind.clone()]);
        let start = Instant::now();
        for cut in cuts {
            black_box(set.analyse_cut(black_box(cut)));
        }
        m.insert(name, start.elapsed().as_secs_f64());
    }
}

// ------------------------------------------------- wire / shard / net

/// A `cwc-workerd` child on an ephemeral loopback port, killed and waited
/// on drop.
struct Workerd {
    _child: ChildGuard,
    addr: String,
}

impl Workerd {
    fn spawn() -> Result<Workerd, String> {
        let mut child = ChildGuard(
            Command::new(worker_binary("cwc-workerd")?)
                .args(["--listen", "127.0.0.1:0", "--capacity", "1"])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn cwc-workerd: {e}"))?,
        );
        let mut line = String::new();
        BufReader::new(child.0.stdout.take().expect("stdout was piped"))
            .read_line(&mut line)
            .map_err(|e| format!("read cwc-workerd announcement: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("cwc-workerd listening on ")
            .ok_or_else(|| format!("unexpected cwc-workerd announcement {line:?}"))?
            .to_string();
        Ok(Workerd {
            _child: child,
            addr,
        })
    }
}

/// Outcome of the sharded probes' own runs, for the record's
/// `attempted` / `failed`.
#[derive(Debug, Default)]
pub struct ProbeRuns {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl ProbeRuns {
    /// Times one guarded run and checks its output against `want`.
    fn timed(
        &mut self,
        label: &str,
        want: Option<Digest>,
        run: impl FnOnce() -> Result<SimReport, SimError> + Send + 'static,
    ) -> Option<f64> {
        self.attempted += 1;
        let start = Instant::now();
        let outcome = run_guarded(label, run);
        let wall = start.elapsed().as_secs_f64();
        match outcome {
            Ok(report) if want.map_or(true, |d| d == Digest::of(&report)) => Some(wall),
            Ok(_) => {
                self.failures
                    .push(format!("{label}: output differs from the oracle"));
                None
            }
            Err(e) => {
                self.failures.push(e);
                None
            }
        }
    }
}

/// Splits `cut` into the partial cuts each planned shard would send.
fn shard_parts(cut: &Cut, plan: &ShardPlan) -> Vec<Cut> {
    plan.ranges()
        .iter()
        .map(|r| Cut {
            time: cut.time,
            values: cut.values[r.first_instance as usize..r.end() as usize].to_vec(),
        })
        .collect()
}

/// Codec, merge and worker-body probes over the workload's real cuts.
fn wire_and_merge(
    m: &mut Metrics,
    model: &Arc<Model>,
    cfg: &SimConfig,
    cuts: &[Cut],
) -> Result<(), String> {
    let plan = ShardPlan::new(cfg.instances, cfg.shards);

    // The job frame a coordinator sends: model + spec + shipped deps.
    let mut spec = ShardSpec::from_config(cfg, plan.ranges()[0]);
    // No heartbeat fires within the probe: `Progress` frames are emitted on
    // a timer, and with them `serve_out_bytes` would not repeat exactly.
    spec.heartbeat_period = 3600.0;
    let job = ToShard::Job(Box::new(ShardJob {
        model: (**model).clone(),
        spec,
        deps: Some(ModelDeps::compile(model)),
    }));
    let start = Instant::now();
    let job_bytes = wire::to_bytes(&job);
    m.insert("distrt.wire.job_encode_s", start.elapsed().as_secs_f64());
    m.insert("distrt.wire.job_bytes", job_bytes.len() as f64);
    let start = Instant::now();
    black_box(wire::from_bytes::<ToShard>(&job_bytes).map_err(|e| format!("job decode: {e}"))?);
    m.insert("distrt.wire.job_decode_s", start.elapsed().as_secs_f64());

    // Every cut, as the partial-cut frames the shards put on the wire.
    let frames: Vec<ToCoordinator> = cuts
        .iter()
        .flat_map(|cut| shard_parts(cut, &plan))
        .map(ToCoordinator::Cut)
        .collect();
    let start = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(wire::to_bytes).collect();
    let encode_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let decoded: Vec<ToCoordinator> = encoded
        .iter()
        .map(|bytes| wire::from_bytes(bytes))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cut decode: {e}"))?;
    let decode_s = start.elapsed().as_secs_f64();
    let bytes_total: usize = encoded.iter().map(Vec::len).sum();
    let n = frames.len() as f64;
    m.insert("distrt.wire.cut_bytes", bytes_total as f64 / n);
    m.insert("distrt.wire.cut_encode_ns", encode_s * 1e9 / n);
    m.insert("distrt.wire.cut_decode_ns", decode_s * 1e9 / n);
    m.insert("distrt.wire.bytes_total", bytes_total as f64);
    m.insert(
        "distrt.wire.mb_per_s",
        bytes_total as f64 / 1e6 / (encode_s + decode_s),
    );

    // The decoded partial cuts, merged back as the coordinator does, and
    // folded into per-shard summaries as the workers do.
    let shards = plan.len();
    let mut merger = CutMerger::new(shards);
    let mut merged = Vec::with_capacity(cuts.len());
    let mut partials: Vec<RunSummary> = (0..shards)
        .map(|_| RunSummary::new(cfg.engines.clone()))
        .collect();
    let mut merge_s = 0.0;
    for (i, frame) in decoded.into_iter().enumerate() {
        let ToCoordinator::Cut(part) = frame else {
            return Err("cut frame decoded to another variant".into());
        };
        let shard = i % shards;
        partials[shard].push_cut(&part);
        let start = Instant::now();
        merger.push(shard, part, &mut merged);
        merge_s += start.elapsed().as_secs_f64();
    }
    if merged != cuts {
        return Err("encode → decode → CutMerger did not reproduce the cuts".into());
    }
    m.insert("cwcsim.merge.cutmerger_busy_s", merge_s);
    m.insert(
        "cwcsim.merge.cutmerger_ns_per_cut",
        merge_s * 1e9 / cuts.len() as f64,
    );
    let (first, rest) = partials.split_first_mut().expect("at least one shard");
    let start = Instant::now();
    for other in rest.iter() {
        first.merge_from(other);
    }
    m.insert(
        "cwcsim.merge.summary_merge_s",
        start.elapsed().as_secs_f64(),
    );

    // The worker body, shard 0, over in-memory streams: what a `cwc-shard`
    // child does between reading its job and exiting, minus the process.
    let mut input = Vec::new();
    write_frame(&mut input, &job).map_err(|e| format!("frame job: {e}"))?;
    let mut output = Vec::new();
    let start = Instant::now();
    serve_shard(Cursor::new(input), &mut output).map_err(|e| format!("serve_shard: {e}"))?;
    m.insert("distrt.shard.serve_s", start.elapsed().as_secs_f64());
    m.insert("distrt.shard.serve_out_bytes", output.len() as f64);
    Ok(())
}

type ShardedRunner = fn(Arc<Model>, &SimConfig) -> Result<SimReport, SimError>;

/// Rounds of the transport comparison (each round runs the job once per
/// deployment, interleaved so drift hits all of them alike).
const TRANSPORT_ROUNDS: usize = 3;
const SPAWN_FLOOR_RUNS: usize = 5;
const CONNECTS: usize = 20;

/// Every probe of the sharded stack. `want` is the oracle digest at this
/// shard count: each deployment's rows, events and merged summary must
/// equal it bit for bit — the TCP canary included.
pub fn sharded(
    m: &mut Metrics,
    model: &Arc<Model>,
    cfg: &SimConfig,
    cuts: &[Cut],
    want: Digest,
) -> Result<ProbeRuns, String> {
    wire_and_merge(m, model, cfg, cuts)?;
    let mut runs = ProbeRuns::default();

    // Spawn floor: a job with nothing to simulate, through real children.
    let tiny = SimConfig::new(2, cfg.quantum)
        .quantum(cfg.quantum)
        .sample_period(cfg.quantum)
        .shards(2)
        .transport(TransportKind::Process)
        .seed(cfg.base_seed);
    let floor: Vec<f64> = (0..SPAWN_FLOOR_RUNS)
        .filter_map(|_| {
            let (model, tiny) = (Arc::clone(model), tiny.clone());
            runs.timed("spawn floor", None, move || {
                run_simulation_sharded(model, &tiny)
            })
        })
        .collect();

    let daemons = [Workerd::spawn()?, Workerd::spawn()?];
    let connects: Vec<f64> = (0..CONNECTS)
        .map(|i| {
            let start = Instant::now();
            connect_worker(&daemons[i % 2].addr, Duration::from_secs(5))
                .map(|_| start.elapsed().as_secs_f64())
                .map_err(|e| format!("connect_worker: {e}"))
        })
        .collect::<Result<_, _>>()?;
    m.insert("distrt.net.connect_s", median(&connects));

    let tcp = cfg
        .clone()
        .transport(TransportKind::Tcp)
        .workers(daemons.iter().map(|d| d.addr.clone()).collect())
        .connect_timeout(10.0);
    let armed = cfg.clone().shard_timeout(30.0).heartbeat_period(0.05);
    let mut walls: [Vec<f64>; 4] = Default::default();
    for _ in 0..TRANSPORT_ROUNDS {
        let deployments: [(&str, SimConfig, ShardedRunner); 4] = [
            ("process shards", cfg.clone(), run_simulation_sharded),
            (
                "in-process shards",
                cfg.clone(),
                run_simulation_sharded_in_process,
            ),
            ("tcp shards", tcp.clone(), run_simulation_sharded),
            (
                "in-process shards, watchdog armed",
                armed.clone(),
                run_simulation_sharded_in_process,
            ),
        ];
        for (slot, (label, cfg, runner)) in walls.iter_mut().zip(deployments) {
            let model = Arc::clone(model);
            slot.extend(runs.timed(label, Some(want), move || runner(model, &cfg)));
        }
    }
    drop(daemons);

    if runs.failures.is_empty() {
        let [process, inproc, tcp, armed] = walls.map(|w| median(&w));
        m.insert("distrt.shard.spawn_floor_s", median(&floor));
        m.insert("distrt.shard.process_vs_inproc_ratio", process / inproc);
        m.insert("distrt.net.tcp_vs_process_ratio", tcp / process);
        m.insert("cwcsim.supervisor.watchdog_overhead_ratio", armed / inproc);
    }
    Ok(runs)
}
