//! Shard supervision: failure detection, deterministic retry/requeue
//! and the per-shard flow-controlled merge loop.
//!
//! The paper's whole-farm speedup story assumes every worker survives
//! the run; a farm that spans real processes (and eventually real
//! machines) cannot. [`ShardSupervisor`] sits between the
//! [`ShardTransport`] seam and the downstream window/analysis pipeline
//! and turns the fault-free coordinator of PR 5 into a supervised one:
//!
//! 1. **Detection.** Each shard attempt feeds one *bounded* channel
//!    (capacity `SimConfig::channel_capacity` — a fast shard
//!    back-pressures against the merge instead of buffering its whole
//!    lead in memory), and that channel is the attempt's only liveness
//!    signal. Every receive on it yields one [`ShardFeed`]: a cut, the
//!    end-of-stream report, a heartbeat, or `Failed` — a typed
//!    [`ShardError`] fed by the driver (crash, nonzero exit, corrupt
//!    frame), `Crashed` for a vanished driver (channel disconnect
//!    without an end-of-stream report), or `Timeout` when the
//!    **watchdog** fires: the receive on a watched attempt's channel
//!    takes no feed — heartbeats included — for
//!    `SimConfig::shard_timeout` seconds since the last one it took (the
//!    launch counts as one). A driver blocked on a full channel cannot
//!    trip it: the receive returns at once.
//! 2. **Recovery.** A failed attempt is cancelled and its slice
//!    requeued at once onto a fresh worker, within a retry budget of
//!    `SimConfig::shard_retries`. No backoff is needed: every requeue
//!    lands on a new worker (a new `cwc-shard` child, or a TCP survivor
//!    the registry picks away from the one that failed), so there is no
//!    sick worker to give time to. Because every trajectory's RNG stream
//!    is a pure function of `(base_seed, instance)`, the replacement
//!    worker *replays the slice bit-for-bit*; the supervisor swallows
//!    the first `delivered` replayed cuts (already handed to the
//!    merger) and resumes mid-stream, so the merged cut sequence — and
//!    therefore the final `SimReport` — is identical to a fault-free
//!    run. Worker-side simulation errors ([`ShardErrorKind::Sim`]) are
//!    deterministic and would replay identically, so they fail fast
//!    without consuming the budget. *Where* a requeued slice lands is
//!    the transport's decision, made inside `launch_shard` with the
//!    bumped `attempt`: the process transport spawns a fresh local
//!    child, while the TCP transport places the attempt on a surviving
//!    remote worker (steering away from the one that just failed) —
//!    determinism makes every placement equivalent, so the supervisor
//!    itself stays placement-agnostic.
//! 3. **Graceful degradation.** When the budget is exhausted the run
//!    fails with a [`ShardError`] carrying the full per-attempt history
//!    ([`ShardAttempt`]); the coordinator adds how many full cuts it had
//!    sent downstream before the failure (`merged_cuts`).
//!
//! ## Determinism of the merge
//!
//! The merge loop is a round-robin over live shards: one cut per shard
//! per grid round, in shard order (alignment emits one cut per grid
//! point, so the rotation stays in lock-step). Receives *block* until
//! the shard's next message, which makes the processed message sequence
//! — and so the merged cut stream — a pure function of the shard
//! streams, not of thread timing. Replays slot into the same sequence
//! because the swallowed prefix is exactly the delivered prefix.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cwc::model::Model;
use gillespie::deps::ModelDeps;
use gillespie::trajectory::Cut;

use crate::config::SimConfig;
use crate::coordinator::{
    ShardAttempt, ShardError, ShardErrorKind, ShardFeed, ShardHandle, ShardSpec, ShardTransport,
};
use crate::merge::CutMerger;
use crate::plan::{ShardPlan, ShardRange};
use crate::sim_farm::Steering;

/// Supervises the shards of one sharded run: launches every planned
/// shard over a [`ShardTransport`], merges their cut streams with
/// per-shard bounded channels, and requeues failed slices at once within
/// a retry budget. See the module docs for the state machine.
#[derive(Debug)]
pub struct ShardSupervisor<'a> {
    cfg: &'a SimConfig,
    plan: &'a ShardPlan,
}

impl<'a> ShardSupervisor<'a> {
    /// A supervisor for one run's plan, reading its retry and timeout
    /// knobs from `cfg`.
    pub fn new(cfg: &'a SimConfig, plan: &'a ShardPlan) -> Self {
        ShardSupervisor { cfg, plan }
    }

    /// Runs the supervised merge loop to completion: launches every
    /// shard, emits each merged full [`Cut`] through `emit` (a `false`
    /// return means downstream is gone; the supervisor keeps draining
    /// so shard drivers never block forever), and returns the total
    /// simulated event count.
    ///
    /// `deps` is `model`'s dependency graph, compiled once by the
    /// coordinator: the supervisor hands the same `Arc` to every
    /// `launch_shard` call — first launches and requeues alike — so no
    /// attempt anywhere in the farm recompiles the model.
    ///
    /// # Errors
    ///
    /// Returns the final [`ShardError`], with its attempt history
    /// attached, when a shard fails beyond its retry budget, fails
    /// non-retryably, or stalls past `shard_timeout` with no budget left.
    pub fn run<T: ShardTransport>(
        self,
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        steering: &Steering,
        transport: &mut T,
        emit: impl FnMut(Cut) -> bool,
    ) -> Result<u64, ShardError> {
        let states = self
            .plan
            .ranges()
            .iter()
            .map(|&range| ShardState::new(range))
            .collect();
        let mut sv = Supervision {
            cfg: self.cfg,
            model,
            deps,
            steering,
            transport,
            emit,
            states,
            graveyard: Vec::new(),
            merger: CutMerger::new(self.plan.len()),
            full_cuts: Vec::new(),
            events: 0,
        };
        let result = sv.drive();
        sv.shutdown();
        result.map(|()| sv.events)
    }
}

/// Per-shard supervision state.
struct ShardState {
    range: ShardRange,
    /// Receiver of the *current* attempt's bounded channel.
    rx: Option<mpsc::Receiver<ShardFeed>>,
    /// When the supervisor last took a feed from the current attempt
    /// (or launched it) — where its watchdog deadline counts from.
    last_feed: Instant,
    /// Driver handle of the current attempt.
    handle: Option<ShardHandle>,
    /// Failed-attempt history, oldest first.
    attempts: Vec<ShardAttempt>,
    /// Cuts already handed to the merger across all attempts.
    delivered: u64,
    /// Replayed cuts still to swallow on the current attempt.
    skip: u64,
    /// The shard's end-of-stream report has been taken.
    ended: bool,
}

impl ShardState {
    fn new(range: ShardRange) -> Self {
        ShardState {
            range,
            rx: None,
            last_feed: Instant::now(),
            handle: None,
            attempts: Vec::new(),
            delivered: 0,
            skip: 0,
            ended: false,
        }
    }
}

/// The live supervision loop: all the state [`ShardSupervisor::run`]
/// threads through its helpers.
struct Supervision<'r, T: ShardTransport, F: FnMut(Cut) -> bool> {
    cfg: &'r SimConfig,
    model: Arc<Model>,
    /// The run's single dependency compilation, shared by every attempt.
    deps: Arc<ModelDeps>,
    steering: &'r Steering,
    transport: &'r mut T,
    emit: F,
    states: Vec<ShardState>,
    /// Cancelled/retired driver handles, reaped best-effort at the end.
    graveyard: Vec<ShardHandle>,
    merger: CutMerger,
    full_cuts: Vec<Cut>,
    events: u64,
}

impl<T: ShardTransport, F: FnMut(Cut) -> bool> Supervision<'_, T, F> {
    fn drive(&mut self) -> Result<(), ShardError> {
        // A run terminated before it starts launches nothing, so it fires
        // no event, like the farm: a worker out of process would hear the
        // termination only after its first quanta.
        if self.steering.is_terminated() {
            return Ok(());
        }
        for s in 0..self.states.len() {
            self.relaunch(s)?;
        }
        while self.states.iter().any(|st| !st.ended) {
            for s in 0..self.states.len() {
                if !self.states[s].ended {
                    self.step(s)?;
                }
            }
        }
        Ok(())
    }

    /// Launches (or re-launches) shard `s`'s current attempt, retrying
    /// spawn failures against the same budget as runtime failures.
    fn relaunch(&mut self, s: usize) -> Result<(), ShardError> {
        loop {
            let st = &self.states[s];
            let mut spec = ShardSpec::from_config(self.cfg, st.range);
            spec.attempt = st.attempts.len() as u32;
            let (tx, rx) = mpsc::sync_channel(self.cfg.channel_capacity);
            match self.transport.launch_shard(
                Arc::clone(&self.model),
                Arc::clone(&self.deps),
                &spec,
                self.steering,
                tx,
            ) {
                Ok(handle) => {
                    let st = &mut self.states[s];
                    st.rx = Some(rx);
                    st.last_feed = Instant::now();
                    st.handle = Some(handle);
                    // The replacement replays the slice from the
                    // per-instance seeds; swallow what the merger
                    // already has.
                    st.skip = st.delivered;
                    return Ok(());
                }
                Err(e) => self.note_failure(s, e)?,
            }
        }
    }

    /// Blocks for shard `s`'s next *deliverable* feed and takes it: a
    /// cut goes to the merger, the end-of-stream report ends the shard.
    /// Replay prefixes and heartbeats are absorbed, and a failed attempt
    /// is requeued, along the way.
    fn step(&mut self, s: usize) -> Result<(), ShardError> {
        loop {
            match self.recv_feed(s) {
                ShardFeed::Cut(cut) => {
                    let st = &mut self.states[s];
                    if st.skip > 0 {
                        st.skip -= 1;
                        continue;
                    }
                    st.delivered += 1;
                    self.merger.push(s, cut, &mut self.full_cuts);
                    // A terminated run forwards no more cuts: a shard may
                    // emit some before it hears the termination, and
                    // dropping a suffix keeps the drained rows a prefix
                    // of the full run's.
                    for cut in self.full_cuts.drain(..) {
                        if self.steering.is_terminated() {
                            break;
                        }
                        let _ = (self.emit)(cut);
                    }
                    return Ok(());
                }
                ShardFeed::End { events } => {
                    self.events += events;
                    self.states[s].ended = true;
                    return Ok(());
                }
                ShardFeed::Heartbeat => {}
                ShardFeed::Failed(e) => {
                    self.note_failure(s, e)?;
                    self.relaunch(s)?;
                }
            }
        }
    }

    /// One blocking receive on shard `s`'s channel. With a watchdog
    /// configured and the attempt watched, it gives up `shard_timeout`
    /// after the last feed taken from the attempt. A disconnect becomes
    /// `Failed(Crashed)` and an expired watchdog `Failed(Timeout)`.
    fn recv_feed(&mut self, s: usize) -> ShardFeed {
        let st = &mut self.states[s];
        let rx = st.rx.as_ref().expect("live shard has a receiver");
        let watched = st.handle.as_ref().is_some_and(ShardHandle::is_watched);
        let wait = match self.cfg.shard_timeout {
            Some(timeout) if watched => {
                Duration::from_secs_f64(timeout).saturating_sub(st.last_feed.elapsed())
            }
            // No watchdog: a deadline past `Instant`'s range makes the
            // receive a plain blocking `recv`.
            _ => Duration::MAX,
        };
        let kind = match rx.recv_timeout(wait) {
            Ok(feed) => {
                st.last_feed = Instant::now();
                return feed;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => ShardErrorKind::Crashed(
                "shard driver vanished without an end-of-stream report".into(),
            ),
            Err(mpsc::RecvTimeoutError::Timeout) => ShardErrorKind::Timeout {
                silent_for: st.last_feed.elapsed(),
            },
        };
        ShardFeed::Failed(ShardError::new(s, kind))
    }

    /// Records a failed attempt, or finalises the error when the budget
    /// is exhausted (or the failure is non-retryable).
    fn note_failure(&mut self, s: usize, mut err: ShardError) -> Result<(), ShardError> {
        // A stalled child is killed, so its reader unblocks and exits.
        self.retire(s);
        // Worker-side simulation errors are deterministic: the replay
        // would fail identically, so don't burn the budget on it.
        let retryable = !matches!(err.kind, ShardErrorKind::Sim(_));
        let used = self.states[s].attempts.len();
        if !retryable || used >= self.cfg.shard_retries {
            err.attempts = std::mem::take(&mut self.states[s].attempts);
            return Err(err);
        }
        self.states[s].attempts.push(ShardAttempt {
            attempt: used,
            error: err.kind.to_string(),
        });
        Ok(())
    }

    /// Drops shard `s`'s channel and cancels its current attempt, if
    /// any, keeping the driver handle to reap at the end.
    fn retire(&mut self, s: usize) {
        self.states[s].rx = None;
        if let Some(h) = self.states[s].handle.take() {
            h.cancel();
            self.graveyard.push(h);
        }
    }

    /// Cancels every live attempt and reaps what finishes promptly. A
    /// wedged in-process shard thread cannot be killed — it is
    /// abandoned (its sends fail once the receivers are gone, and it
    /// dies with the process).
    fn shutdown(&mut self) {
        for s in 0..self.states.len() {
            self.retire(s);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for h in self.graveyard.drain(..) {
            while !h.join.is_finished() && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(2));
            }
            if h.join.is_finished() {
                let _ = h.join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::coordinator::{
        run_shard, run_simulation_sharded_with, InProcessTransport, ShardTransport,
    };
    use crate::runner::{run_simulation, SimError};
    use biomodels::simple::decay;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfg() -> SimConfig {
        SimConfig::new(9, 3.0)
            .quantum(0.5)
            .sample_period(0.25)
            .sim_workers(2)
            .stat_workers(2)
            .window(4, 2)
            .seed(33)
    }

    /// A transport that injects a crash into chosen attempts of chosen
    /// shards — the first `cuts` aligned cuts are forwarded, then the
    /// driver reports a crash and drops everything else (the in-process
    /// analogue of `cwc-shard`'s `crash` fault) — and delegates every
    /// other launch to the real [`InProcessTransport`].
    struct CrashingTransport {
        /// `(shard, attempt)` pairs that crash.
        faults: Vec<(usize, u32)>,
        /// Forward this many cuts before crashing.
        cuts: u64,
        inner: InProcessTransport,
    }

    impl CrashingTransport {
        fn new(faults: Vec<(usize, u32)>, cuts: u64) -> Self {
            CrashingTransport {
                faults,
                cuts,
                inner: InProcessTransport,
            }
        }
    }

    impl ShardTransport for CrashingTransport {
        fn launch_shard(
            &mut self,
            model: Arc<Model>,
            deps: Arc<ModelDeps>,
            spec: &ShardSpec,
            steering: &Steering,
            sink: mpsc::SyncSender<ShardFeed>,
        ) -> Result<ShardHandle, ShardError> {
            let shard = spec.range.shard;
            if !self.faults.contains(&(shard, spec.attempt)) {
                return self.inner.launch_shard(model, deps, spec, steering, sink);
            }
            let spec = spec.clone();
            let cuts = self.cuts;
            let join = thread::spawn(move || {
                let local = Steering::new();
                let sent = AtomicU64::new(0);
                let killer = local.clone();
                let _ = run_shard(model, deps, &spec, &local, |cut| {
                    if sent.fetch_add(1, Ordering::Relaxed) < cuts {
                        let _ = sink.send(ShardFeed::Cut(cut));
                    } else {
                        killer.terminate();
                    }
                });
                let _ = sink.send(ShardFeed::Failed(ShardError::new(
                    shard,
                    ShardErrorKind::Crashed("injected fault".into()),
                )));
            });
            Ok(ShardHandle::new(join, || {}).unwatched())
        }
    }

    #[test]
    fn crash_mid_run_recovers_bit_for_bit() {
        let model = Arc::new(decay(40, 1.0));
        let single = run_simulation(Arc::clone(&model), &cfg()).unwrap();
        for shards in [1usize, 2, 3] {
            for faulty in 0..shards {
                let mut transport = CrashingTransport::new(vec![(faulty, 0)], 3);
                let report = run_simulation_sharded_with(
                    Arc::clone(&model),
                    &cfg().shards(shards).retries(1),
                    &Steering::new(),
                    &mut transport,
                )
                .unwrap();
                assert_eq!(report.rows, single.rows, "shards={shards} faulty={faulty}");
                assert_eq!(report.events, single.events);
                assert_eq!(report.summary, single.summary);
            }
        }
    }

    #[test]
    fn repeated_crashes_consume_the_budget_then_succeed() {
        // Crash attempts 0 and 1 of shard 1; attempt 2 runs clean.
        let model = Arc::new(decay(40, 1.0));
        let single = run_simulation(Arc::clone(&model), &cfg()).unwrap();
        let mut transport = CrashingTransport::new(vec![(1, 0), (1, 1)], 2);
        let report = run_simulation_sharded_with(
            Arc::clone(&model),
            &cfg().shards(3).retries(2),
            &Steering::new(),
            &mut transport,
        )
        .unwrap();
        assert_eq!(report.rows, single.rows);
        assert_eq!(report.events, single.events);
        assert_eq!(report.summary, single.summary);
    }

    #[test]
    fn budget_exhaustion_carries_attempt_history_and_merged_cuts() {
        let model = Arc::new(decay(40, 1.0));
        // Shard 1 crashes on every attempt after one cut; its replays
        // deliver nothing new, so exactly one full cut is merged.
        let err = run_simulation_sharded_with(
            Arc::clone(&model),
            &cfg().shards(3).retries(2),
            &Steering::new(),
            &mut CrashingTransport::new((0..4).map(|a| (1usize, a)).collect(), 1),
        )
        .unwrap_err();
        let SimError::Shard(e) = err else {
            panic!("expected SimError::Shard, got {err}");
        };
        assert_eq!(e.shard, 1);
        assert!(matches!(e.kind, ShardErrorKind::Crashed(_)), "{e}");
        assert_eq!(e.attempts.len(), 2, "{e}");
        assert_eq!(e.attempts[0].attempt, 0);
        assert_eq!(e.attempts[1].attempt, 1);
        assert!(e.attempts.iter().all(|a| a.error.contains("injected")));
        let rendered = e.to_string();
        assert!(rendered.contains("after 2 failed attempts"), "{rendered}");
        // The count of that one merged cut rides along for diagnosis.
        assert_eq!(e.merged_cuts, 1);
    }

    #[test]
    fn sim_errors_fail_fast_without_burning_retries() {
        struct SimFailTransport;
        impl ShardTransport for SimFailTransport {
            fn launch_shard(
                &mut self,
                _model: Arc<Model>,
                _deps: Arc<ModelDeps>,
                spec: &ShardSpec,
                _steering: &Steering,
                sink: mpsc::SyncSender<ShardFeed>,
            ) -> Result<ShardHandle, ShardError> {
                let shard = spec.range.shard;
                let join = thread::spawn(move || {
                    let _ = sink.send(ShardFeed::Failed(ShardError::new(
                        shard,
                        ShardErrorKind::Sim("deterministic model failure".into()),
                    )));
                });
                Ok(ShardHandle::new(join, || {}))
            }
        }
        let model = Arc::new(decay(10, 1.0));
        let err = run_simulation_sharded_with(
            model,
            &cfg().shards(2).retries(5),
            &Steering::new(),
            &mut SimFailTransport,
        )
        .unwrap_err();
        let SimError::Shard(e) = err else {
            panic!("expected SimError::Shard, got {err}");
        };
        assert!(matches!(e.kind, ShardErrorKind::Sim(_)), "{e}");
        assert!(e.attempts.is_empty(), "sim errors must not be retried");
        assert_eq!(e.merged_cuts, 0, "no cut was merged");
    }

    /// Stalls chosen attempts (launches a watched driver that never
    /// feeds anything), delegating healthy launches to the real
    /// in-process transport.
    struct StallingTransport {
        faults: Vec<(usize, u32)>,
        inner: InProcessTransport,
    }

    impl ShardTransport for StallingTransport {
        fn launch_shard(
            &mut self,
            model: Arc<Model>,
            deps: Arc<ModelDeps>,
            spec: &ShardSpec,
            steering: &Steering,
            sink: mpsc::SyncSender<ShardFeed>,
        ) -> Result<ShardHandle, ShardError> {
            let shard = spec.range.shard;
            if !self.faults.contains(&(shard, spec.attempt)) {
                return self.inner.launch_shard(model, deps, spec, steering, sink);
            }
            let local = Steering::new();
            let cancel = local.clone();
            let join = thread::spawn(move || {
                // Hold the sender open for the whole stall: the channel
                // must stay connected (a stall, not a crash).
                let _keep_open = sink;
                while !local.is_terminated() {
                    thread::sleep(Duration::from_millis(2));
                }
            });
            Ok(ShardHandle::new(join, move || cancel.terminate()))
        }
    }

    #[test]
    fn stalled_shard_times_out_typed_within_the_deadline() {
        let model = Arc::new(decay(20, 1.0));
        let started = Instant::now();
        let err = run_simulation_sharded_with(
            Arc::clone(&model),
            &cfg().shards(2).shard_timeout(0.3).heartbeat_period(0.05),
            &Steering::new(),
            &mut StallingTransport {
                faults: vec![(1, 0)],
                inner: InProcessTransport,
            },
        )
        .unwrap_err();
        let SimError::Shard(e) = err else {
            panic!("expected SimError::Shard, got {err}");
        };
        assert_eq!(e.shard, 1);
        assert!(
            matches!(e.kind, ShardErrorKind::Timeout { silent_for } if silent_for >= Duration::from_millis(300)),
            "{e}"
        );
        // Typed timeout, not a hang: well under the suite's patience.
        assert!(started.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn stalled_shard_recovers_on_retry_bit_for_bit() {
        let model = Arc::new(decay(40, 1.0));
        let single = run_simulation(Arc::clone(&model), &cfg()).unwrap();
        let report = run_simulation_sharded_with(
            Arc::clone(&model),
            &cfg()
                .shards(3)
                .retries(1)
                .shard_timeout(0.3)
                .heartbeat_period(0.05),
            &Steering::new(),
            &mut StallingTransport {
                faults: vec![(2, 0)],
                inner: InProcessTransport,
            },
        )
        .unwrap();
        assert_eq!(report.rows, single.rows);
        assert_eq!(report.events, single.events);
        assert_eq!(report.summary, single.summary);
    }

    /// Shard 0 is slow: it feeds a cut every 0.25 s, with a heartbeat
    /// every 50 ms in between. Shard 1 feeds its whole slice at once, so
    /// its driver sits blocked on its full channel for most of the run.
    struct SkewedTransport;

    impl ShardTransport for SkewedTransport {
        fn launch_shard(
            &mut self,
            model: Arc<Model>,
            deps: Arc<ModelDeps>,
            spec: &ShardSpec,
            _steering: &Steering,
            sink: mpsc::SyncSender<ShardFeed>,
        ) -> Result<ShardHandle, ShardError> {
            let shard = spec.range.shard;
            let spec = spec.clone();
            let join = thread::spawn(move || {
                let feed = |next| {
                    if shard == 0 {
                        for _ in 0..5 {
                            thread::sleep(Duration::from_millis(50));
                            let _ = sink.send(ShardFeed::Heartbeat);
                        }
                    }
                    let _ = sink.send(next);
                };
                let steering = Steering::new();
                if let Ok(events) = run_shard(model, deps, &spec, &steering, |cut| {
                    feed(ShardFeed::Cut(cut));
                }) {
                    feed(ShardFeed::End { events });
                }
            });
            Ok(ShardHandle::new(join, || {}))
        }
    }

    #[test]
    fn back_pressure_never_trips_the_watchdog() {
        // Each round waits 0.25 s on shard 0 before it takes shard 1's
        // next cut — longer than the timeout — but shard 1's channel is
        // full by then, so the receive returns at once.
        let model = Arc::new(decay(40, 1.0));
        let single = run_simulation(Arc::clone(&model), &cfg()).unwrap();
        let started = Instant::now();
        let report = run_simulation_sharded_with(
            Arc::clone(&model),
            &cfg()
                .shards(2)
                .channel_capacity(1)
                .shard_timeout(0.2)
                .heartbeat_period(0.05),
            &Steering::new(),
            &mut SkewedTransport,
        )
        .unwrap();
        assert_eq!(report.rows, single.rows);
        assert_eq!(report.events, single.events);
        // 13 cuts at 0.25 s each: the run outlasts the timeout many times.
        assert!(started.elapsed() >= Duration::from_secs(3));
    }

    /// Shards that never hear the run's steering: each runs its whole
    /// slice on a steering of its own and forwards every message — a
    /// `cwc-shard` child that emits cuts before it reads its Terminate
    /// frame, taken to the limit.
    struct DeafTransport;

    impl ShardTransport for DeafTransport {
        fn launch_shard(
            &mut self,
            model: Arc<Model>,
            deps: Arc<ModelDeps>,
            spec: &ShardSpec,
            _steering: &Steering,
            sink: mpsc::SyncSender<ShardFeed>,
        ) -> Result<ShardHandle, ShardError> {
            let spec = spec.clone();
            let join = thread::spawn(move || {
                let steering = Steering::new();
                if let Ok(events) = run_shard(model, deps, &spec, &steering, |cut| {
                    let _ = sink.send(ShardFeed::Cut(cut));
                }) {
                    let _ = sink.send(ShardFeed::End { events });
                }
            });
            Ok(ShardHandle::new(join, || {}).unwatched())
        }
    }

    #[test]
    fn a_terminated_run_forwards_no_cut_a_shard_still_emits() {
        let model = Arc::new(decay(40, 1.0));
        let steering = Steering::new();
        steering.terminate();
        let report = run_simulation_sharded_with(
            Arc::clone(&model),
            &cfg().shards(2),
            &steering,
            &mut DeafTransport,
        )
        .unwrap();
        assert!(report.rows.is_empty(), "{} rows", report.rows.len());
        // Unterminated, the same shards deliver the whole run.
        let full = run_simulation_sharded_with(
            Arc::clone(&model),
            &cfg().shards(2),
            &Steering::new(),
            &mut DeafTransport,
        )
        .unwrap();
        assert_eq!(full.rows, run_simulation(model, &cfg()).unwrap().rows);
    }
}
