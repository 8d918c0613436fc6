//! Integration: an idle network costs no CPU. Every node thread of a
//! pipeline whose source is blocked must be parked, not polling. Alone in
//! its own test binary, because it reads the CPU time of the whole
//! process.

#![cfg(target_os = "linux")]

use cwc_repro::fastflow::master_worker::{FeedbackWorker, Master, Scheduler};
use cwc_repro::fastflow::node::{map_stage, Outbox};
use cwc_repro::fastflow::pipeline::Pipeline;
use std::sync::mpsc;
use std::time::Duration;

struct Forward;

impl Master for Forward {
    type In = u64;
    type Task = u64;
    type Fb = ();

    fn on_upstream(&mut self, item: u64, sched: &mut Scheduler<'_, u64>) {
        sched.submit(item);
    }

    fn on_feedback(&mut self, (): (), _sched: &mut Scheduler<'_, u64>) {}
}

struct Double;

impl FeedbackWorker for Double {
    type Task = u64;
    type Fb = ();
    type Out = u64;

    fn on_task(&mut self, x: u64, out: &mut Outbox<'_, u64>) -> Option<()> {
        out.push(2 * x);
        None
    }
}

/// User plus system CPU time of this process, in seconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks; the kernel's
/// user-visible tick is 100 Hz on every Linux target).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces: count fields after its `)`.
    let after_name = &stat[stat.rfind(')').expect("a stat line names the command") + 1..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("a tick count") };
    // `fields[0]` is field 3 (the state).
    (ticks(11) + ticks(12)) / 100.0
}

#[test]
fn a_network_waiting_on_its_source_parks_every_node() {
    const IDLE: Duration = Duration::from_millis(300);
    let (gate, opened) = mpsc::channel::<u64>();
    // Farm, ordered farm and a stage: ten node threads, and the collecting
    // thread, all waiting on a source blocked in a std channel.
    let network = Pipeline::from_source(std::iter::from_fn(move || opened.recv().ok()))
        .master_worker_farm(Forward, vec![Double, Double])
        .ordered_farm(2, |_| |x: u64| x + 1)
        .stage(map_stage(|x: u64| x));
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || done.send(network.collect()));

    // Let every node find its input empty and park, then measure a quiet
    // interval.
    gate.send(1).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let before = process_cpu_s();
    std::thread::sleep(IDLE);
    let spent = process_cpu_s() - before;

    gate.send(2).unwrap();
    drop(gate);
    let mut out = result
        .recv_timeout(Duration::from_secs(30))
        .expect("the network woke up and ended")
        .unwrap();
    out.sort_unstable();
    assert_eq!(out, [3, 5]);
    assert!(
        spent < 0.1 * IDLE.as_secs_f64(),
        "an idle network spent {spent:.3} s of CPU in {IDLE:?}: some node polls"
    );
}
