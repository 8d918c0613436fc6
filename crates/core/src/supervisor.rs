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
//!    lead in memory, closing the PR-5 flow-control leftover) and one
//!    [`ShardActivity`] liveness clock. A failure is a typed
//!    [`ShardError`] fed by the driver (crash, nonzero exit, corrupt
//!    frame), a vanished driver (channel disconnect without an
//!    end-of-stream report), or a **watchdog timeout**: no frame —
//!    heartbeats included — for `SimConfig::shard_timeout` seconds.
//! 2. **Recovery.** A failed slice is requeued onto a fresh worker with
//!    a bounded-exponential backoff (`shard_backoff · 2^attempt`,
//!    capped at `shard_backoff_max`) and a retry budget of
//!    `SimConfig::shard_retries`. Because every trajectory's RNG stream
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
//!    ([`ShardAttempt`]) and — when any shard did complete — the
//!    partial merged [`RunSummary`] for diagnosis.
//!
//! ## Determinism of the merge
//!
//! The merge loop is a round-robin over live shards: one cut per shard
//! per grid round, in shard order (alignment emits one cut per grid
//! point, so the rotation stays in lock-step). Receives *block* until
//! the shard's next message, which makes the processed message sequence
//! a pure function of the shard streams — not of thread timing — and
//! end-of-stream summaries therefore fold in a deterministic order.
//! Replays slot into the same sequence because the swallowed prefix is
//! exactly the delivered prefix.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cwc::model::Model;
use gillespie::deps::ModelDeps;
use gillespie::trajectory::Cut;
use streamstat::merge::Mergeable;

use crate::config::SimConfig;
use crate::coordinator::{
    ShardActivity, ShardAttempt, ShardEnd, ShardError, ShardErrorKind, ShardFeed, ShardHandle,
    ShardMsg, ShardSpec, ShardTransport,
};
use crate::merge::{CutMerger, RunSummary};
use crate::plan::{ShardPlan, ShardRange};
use crate::sim_farm::Steering;

/// Supervises the shards of one sharded run: launches every planned
/// shard over a [`ShardTransport`], merges their cut streams with
/// per-shard bounded channels, and requeues failed slices with a
/// bounded-exponential-backoff retry budget. See the module docs for
/// the state machine.
#[derive(Debug)]
pub struct ShardSupervisor<'a> {
    cfg: &'a SimConfig,
    plan: &'a ShardPlan,
}

impl<'a> ShardSupervisor<'a> {
    /// A supervisor for one run's plan, reading its retry/timeout/
    /// backoff knobs from `cfg`.
    pub fn new(cfg: &'a SimConfig, plan: &'a ShardPlan) -> Self {
        ShardSupervisor { cfg, plan }
    }

    /// Runs the supervised merge loop to completion: launches every
    /// shard, emits each merged full [`Cut`] through `emit` (a `false`
    /// return means downstream is gone; the supervisor keeps draining
    /// so shard drivers never block forever), and returns the total
    /// simulated event count plus the merged end-of-run statistics.
    ///
    /// `deps` is `model`'s dependency graph, compiled once by the
    /// coordinator: the supervisor hands the same `Arc` to every
    /// `launch_shard` call — first launches and requeues alike — so no
    /// attempt anywhere in the farm recompiles the model.
    ///
    /// # Errors
    ///
    /// Returns the final [`ShardError`] — with attempt history and any
    /// partial summary attached — when a shard fails beyond its retry
    /// budget, fails non-retryably, or stalls past `shard_timeout`
    /// with no budget left.
    pub fn run<T: ShardTransport>(
        self,
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        steering: &Steering,
        transport: &mut T,
        emit: impl FnMut(Cut) -> bool,
    ) -> Result<(u64, RunSummary), ShardError> {
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
            summary: RunSummary::new(self.cfg.engines.clone()),
            events: 0,
            ended_count: 0,
        };
        let result = sv.drive();
        sv.shutdown();
        result.map(|()| (sv.events, sv.summary))
    }
}

/// What one blocking receive on a shard's channel produced.
enum Recv {
    /// A feed arrived.
    Feed(ShardFeed),
    /// The driver dropped its sender (and everything buffered has been
    /// read) without an end-of-stream report or a failure notice.
    Disconnected,
    /// The watchdog fired: the shard has been silent this long.
    Stalled(Duration),
}

/// Per-shard supervision state.
struct ShardState {
    range: ShardRange,
    /// Receiver of the *current* attempt's bounded channel.
    rx: Option<mpsc::Receiver<ShardFeed>>,
    /// Liveness clock of the current attempt.
    activity: Arc<ShardActivity>,
    /// Driver handle of the current attempt.
    handle: Option<ShardHandle>,
    /// Failed-attempt history, oldest first.
    attempts: Vec<ShardAttempt>,
    /// Cuts already handed to the merger across all attempts.
    delivered: u64,
    /// Replayed cuts still to swallow on the current attempt.
    skip: u64,
    /// The shard's end-of-stream report has been merged.
    ended: bool,
}

impl ShardState {
    fn new(range: ShardRange) -> Self {
        ShardState {
            range,
            rx: None,
            activity: ShardActivity::new(),
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
    summary: RunSummary,
    events: u64,
    ended_count: usize,
}

impl<T: ShardTransport, F: FnMut(Cut) -> bool> Supervision<'_, T, F> {
    fn drive(&mut self) -> Result<(), ShardError> {
        for s in 0..self.states.len() {
            self.relaunch(s)?;
        }
        let mut remaining = self.states.len();
        while remaining > 0 {
            for s in 0..self.states.len() {
                if self.states[s].ended {
                    continue;
                }
                match self.next_msg(s)? {
                    ShardMsg::Cut(cut) => {
                        self.merger.push(s, cut, &mut self.full_cuts);
                        for cut in self.full_cuts.drain(..) {
                            let _ = (self.emit)(cut);
                        }
                    }
                    ShardMsg::End(end) => {
                        self.events += end.events;
                        self.summary.merge_from(&end.summary);
                        self.states[s].ended = true;
                        self.ended_count += 1;
                        remaining -= 1;
                    }
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
            let activity = ShardActivity::new();
            match self.transport.launch_shard(
                Arc::clone(&self.model),
                Arc::clone(&self.deps),
                &spec,
                self.steering,
                tx,
                Arc::clone(&activity),
            ) {
                Ok(handle) => {
                    let st = &mut self.states[s];
                    st.rx = Some(rx);
                    st.activity = activity;
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

    /// Blocks for shard `s`'s next *deliverable* message, absorbing
    /// replay prefixes and recovering from failures along the way.
    fn next_msg(&mut self, s: usize) -> Result<ShardMsg, ShardError> {
        loop {
            match self.recv_feed(s) {
                Recv::Feed(ShardFeed::Msg(ShardMsg::Cut(cut))) => {
                    let st = &mut self.states[s];
                    if st.skip > 0 {
                        st.skip -= 1;
                        continue;
                    }
                    st.delivered += 1;
                    return Ok(ShardMsg::Cut(cut));
                }
                Recv::Feed(ShardFeed::Msg(ShardMsg::End(end))) => {
                    if !self.end_conforms(&end) {
                        // Possible only through a corrupt wire stream;
                        // a replay re-derives the summary from scratch.
                        self.recover(
                            s,
                            ShardError::new(
                                s,
                                ShardErrorKind::Crashed(
                                    "end-of-stream summary does not match the run's engine \
                                     configuration"
                                        .into(),
                                ),
                            ),
                        )?;
                        continue;
                    }
                    return Ok(ShardMsg::End(end));
                }
                Recv::Feed(ShardFeed::Failed(e)) => {
                    self.recover(s, e)?;
                }
                Recv::Disconnected => {
                    self.recover(
                        s,
                        ShardError::new(
                            s,
                            ShardErrorKind::Crashed(
                                "shard driver vanished without an end-of-stream report".into(),
                            ),
                        ),
                    )?;
                }
                Recv::Stalled(silent_for) => {
                    // Put the stalled attempt down first (kills the
                    // child process, so its reader unblocks and exits).
                    if let Some(h) = &self.states[s].handle {
                        h.cancel();
                    }
                    self.recover(
                        s,
                        ShardError::new(s, ShardErrorKind::Timeout { silent_for }),
                    )?;
                }
            }
        }
    }

    /// One blocking receive on shard `s`'s channel, woken periodically
    /// to consult the watchdog when a timeout is configured.
    fn recv_feed(&self, s: usize) -> Recv {
        let st = &self.states[s];
        let rx = st.rx.as_ref().expect("live shard has a receiver");
        let Some(timeout) = self.cfg.shard_timeout else {
            // No watchdog: a plain blocking receive (failures still
            // surface as `Failed` feeds or a disconnect).
            return match rx.recv() {
                Ok(feed) => Recv::Feed(feed),
                Err(mpsc::RecvError) => Recv::Disconnected,
            };
        };
        let timeout = Duration::from_secs_f64(timeout);
        let tick = (timeout / 4)
            .min(Duration::from_millis(50))
            .max(Duration::from_millis(1));
        loop {
            match rx.recv_timeout(tick) {
                Ok(feed) => return Recv::Feed(feed),
                Err(mpsc::RecvTimeoutError::Disconnected) => return Recv::Disconnected,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // The channel being empty is not a stall by itself:
                    // the clock is touched by every frame the driver
                    // reads (heartbeats included), so only a shard that
                    // produced *no frame at all* for the whole window
                    // is declared stalled.
                    let silent = st.activity.silent_for();
                    if silent >= timeout {
                        return Recv::Stalled(silent);
                    }
                }
            }
        }
    }

    /// Handles a failure of shard `s`'s current attempt: either
    /// schedules a retry (recording the attempt, backing off, and
    /// relaunching) or returns the final error with history attached.
    fn recover(&mut self, s: usize, err: ShardError) -> Result<(), ShardError> {
        self.note_failure(s, err)?;
        self.relaunch(s)
    }

    /// Records a failed attempt and backs off, or finalises the error
    /// when the budget is exhausted (or the failure is non-retryable).
    fn note_failure(&mut self, s: usize, mut err: ShardError) -> Result<(), ShardError> {
        // Retire the failed attempt's driver; its channel dies with it.
        if let Some(h) = self.states[s].handle.take() {
            h.cancel();
            self.graveyard.push(h);
        }
        self.states[s].rx = None;
        // Worker-side simulation errors are deterministic: the replay
        // would fail identically, so don't burn the budget on it.
        let retryable = !matches!(err.kind, ShardErrorKind::Sim(_));
        let used = self.states[s].attempts.len();
        if !retryable || used >= self.cfg.shard_retries {
            err.attempts = std::mem::take(&mut self.states[s].attempts);
            // Graceful degradation: surface what the completed shards
            // did manage to compute (queued end-of-stream reports
            // included) for diagnosis.
            self.drain_pending_ends();
            if self.ended_count > 0 {
                err.partial = Some(Box::new(self.summary.clone()));
            }
            return Err(err);
        }
        let backoff = self.backoff(used);
        self.states[s].attempts.push(ShardAttempt {
            attempt: used,
            error: err.kind.to_string(),
            backoff,
        });
        // Interruptible bounded-exponential backoff: a terminated run
        // should not sit out a multi-second wait.
        let deadline = Instant::now() + backoff;
        while Instant::now() < deadline && !self.steering.is_terminated() {
            let left = deadline.saturating_duration_since(Instant::now());
            thread::sleep(left.min(Duration::from_millis(5)));
        }
        Ok(())
    }

    /// The backoff before attempt `used + 1`:
    /// `shard_backoff · 2^used`, capped at `shard_backoff_max`.
    fn backoff(&self, used: usize) -> Duration {
        let secs = (self.cfg.shard_backoff * 2f64.powi(used.min(i32::MAX as usize) as i32))
            .min(self.cfg.shard_backoff_max);
        Duration::from_secs_f64(secs.max(0.0))
    }

    /// Whether an end-of-stream report matches this run's statistical
    /// configuration (it cannot not match through any code path in this
    /// workspace — only via a corrupt wire stream).
    fn end_conforms(&self, end: &ShardEnd) -> bool {
        let n_obs = end.summary.observables().len();
        end.summary.engines() == self.cfg.engines.as_slice()
            && end.summary.conforms()
            && (n_obs == 0 || n_obs == self.model.observables.len())
    }

    /// Opportunistically folds end-of-stream reports other shards have
    /// already queued, so a final error's partial summary is as
    /// complete as the run actually got.
    fn drain_pending_ends(&mut self) {
        let mut pending = Vec::new();
        for st in &self.states {
            if st.ended {
                continue;
            }
            let Some(rx) = &st.rx else { continue };
            while let Ok(feed) = rx.try_recv() {
                if let ShardFeed::Msg(ShardMsg::End(end)) = feed {
                    pending.push(end);
                }
            }
        }
        for end in pending {
            if self.end_conforms(&end) {
                self.summary.merge_from(&end.summary);
                self.ended_count += 1;
            }
        }
    }

    /// Cancels every live attempt and reaps what finishes promptly. A
    /// wedged in-process shard thread cannot be killed — it is
    /// abandoned (its sends fail once the receivers are gone, and it
    /// dies with the process).
    fn shutdown(&mut self) {
        for st in &mut self.states {
            st.rx = None;
            if let Some(h) = st.handle.take() {
                h.cancel();
                self.graveyard.push(h);
            }
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
    use std::sync::{Condvar, Mutex};

    fn cfg() -> SimConfig {
        SimConfig::new(9, 3.0)
            .quantum(0.5)
            .sample_period(0.25)
            .sim_workers(2)
            .stat_workers(2)
            .window(4, 2)
            .seed(33)
            .shard_backoff(0.0, 0.0)
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
        /// With `Some(n)`, a crashing attempt holds its `Failed` feed until
        /// `n` healthy launches have sent their end-of-stream report
        /// (counted by a wrapper around their sinks) — which orders "the
        /// healthy shards ended" before "the budget ran out" without a
        /// sleep.
        hold_until_ends: Option<usize>,
        /// End-of-stream reports the healthy launches have sent.
        ends: Arc<(Mutex<usize>, Condvar)>,
        /// The sink wrappers' forwarding threads, joined by the test.
        forwarders: Vec<thread::JoinHandle<()>>,
        inner: InProcessTransport,
    }

    impl CrashingTransport {
        fn new(faults: Vec<(usize, u32)>, cuts: u64) -> Self {
            CrashingTransport {
                faults,
                cuts,
                hold_until_ends: None,
                ends: Arc::default(),
                forwarders: Vec::new(),
                inner: InProcessTransport,
            }
        }
    }

    /// Forwards every feed from `rx` to `sink`, bumping `ends` once an
    /// end-of-stream report has been handed over.
    fn count_ends(
        rx: mpsc::Receiver<ShardFeed>,
        sink: mpsc::SyncSender<ShardFeed>,
        ends: Arc<(Mutex<usize>, Condvar)>,
    ) {
        for feed in rx {
            let is_end = matches!(feed, ShardFeed::Msg(ShardMsg::End(_)));
            if sink.send(feed).is_err() {
                return;
            }
            if is_end {
                let (count, cv) = &*ends;
                *count.lock().unwrap() += 1;
                cv.notify_all();
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
            activity: Arc<ShardActivity>,
        ) -> Result<ShardHandle, ShardError> {
            let shard = spec.range.shard;
            if !self.faults.contains(&(shard, spec.attempt)) {
                if self.hold_until_ends.is_none() {
                    return self
                        .inner
                        .launch_shard(model, deps, spec, steering, sink, activity);
                }
                let (tx, rx) = mpsc::sync_channel(0);
                let ends = Arc::clone(&self.ends);
                self.forwarders
                    .push(thread::spawn(move || count_ends(rx, sink, ends)));
                return self
                    .inner
                    .launch_shard(model, deps, spec, steering, tx, activity);
            }
            activity.exempt_forever();
            let spec = spec.clone();
            let cuts = self.cuts;
            let hold = self.hold_until_ends.map(|n| (n, Arc::clone(&self.ends)));
            let join = thread::spawn(move || {
                let local = Steering::new();
                let sent = AtomicU64::new(0);
                let killer = local.clone();
                let _ = run_shard(model, deps, &spec, &local, |msg| {
                    if let ShardMsg::Cut(cut) = msg {
                        if sent.fetch_add(1, Ordering::Relaxed) < cuts {
                            let _ = sink.send(ShardFeed::Msg(ShardMsg::Cut(cut)));
                        } else {
                            killer.terminate();
                        }
                    }
                });
                if let Some((n, ends)) = hold {
                    let (count, cv) = &*ends;
                    let _ended = cv.wait_while(count.lock().unwrap(), |c| *c < n).unwrap();
                }
                let _ = sink.send(ShardFeed::Failed(ShardError::new(
                    shard,
                    ShardErrorKind::Crashed("injected fault".into()),
                )));
            });
            Ok(ShardHandle::new(shard, join))
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
    }

    #[test]
    fn budget_exhaustion_carries_attempt_history_and_partial_summary() {
        let model = Arc::new(decay(40, 1.0));
        // Shard 1 crashes on every attempt. "Partial present iff ≥ 1 shard
        // ended" is the contract, so the test orders the two healthy
        // shards' end-of-stream reports before shard 1's failures: each
        // crash waits until both are in their channels (capacity 64 holds
        // a shard's 13 cuts and its report, so nothing blocks on the merge
        // that is itself waiting on shard 1).
        let mut transport = CrashingTransport {
            hold_until_ends: Some(2),
            ..CrashingTransport::new((0..4).map(|a| (1usize, a)).collect(), 1)
        };
        let err = run_simulation_sharded_with(
            Arc::clone(&model),
            &cfg().shards(3).retries(2).channel_capacity(64),
            &Steering::new(),
            &mut transport,
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
        // The two healthy shards finished their slices; their merged
        // partial statistics ride along for diagnosis.
        let partial = e.partial.as_deref().expect("partial summary attached");
        assert!(partial.cuts() > 0);
        // Every healthy driver has ended, so every forwarder has too.
        for forwarder in transport.forwarders.drain(..) {
            forwarder.join().expect("sink forwarder panicked");
        }
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
                _activity: Arc<ShardActivity>,
            ) -> Result<ShardHandle, ShardError> {
                let shard = spec.range.shard;
                let join = thread::spawn(move || {
                    let _ = sink.send(ShardFeed::Failed(ShardError::new(
                        shard,
                        ShardErrorKind::Sim("deterministic model failure".into()),
                    )));
                });
                Ok(ShardHandle::new(shard, join))
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
    }

    /// Stalls chosen attempts (launches a driver that never produces a
    /// frame and never touches its activity clock), delegating healthy
    /// launches to the real in-process transport.
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
            activity: Arc<ShardActivity>,
        ) -> Result<ShardHandle, ShardError> {
            let shard = spec.range.shard;
            if !self.faults.contains(&(shard, spec.attempt)) {
                return self
                    .inner
                    .launch_shard(model, deps, spec, steering, sink, activity);
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
            Ok(ShardHandle::new(shard, join).with_cancel(move || cancel.terminate()))
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
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let cfg = cfg().shard_backoff(0.05, 0.2);
        let plan = ShardPlan::new(4, 2);
        let model = Arc::new(decay(1, 1.0));
        let deps = Arc::new(ModelDeps::compile(&model));
        let sv = Supervision {
            cfg: &cfg,
            model,
            deps,
            steering: &Steering::new(),
            transport: &mut InProcessTransport,
            emit: |_| true,
            states: plan.ranges().iter().map(|&r| ShardState::new(r)).collect(),
            graveyard: Vec::new(),
            merger: CutMerger::new(plan.len()),
            full_cuts: Vec::new(),
            summary: RunSummary::new(cfg.engines.clone()),
            events: 0,
            ended_count: 0,
        };
        assert_eq!(sv.backoff(0), Duration::from_secs_f64(0.05));
        assert_eq!(sv.backoff(1), Duration::from_secs_f64(0.1));
        assert_eq!(sv.backoff(2), Duration::from_secs_f64(0.2));
        assert_eq!(sv.backoff(3), Duration::from_secs_f64(0.2)); // capped
        assert_eq!(sv.backoff(1000), Duration::from_secs_f64(0.2));
    }
}
