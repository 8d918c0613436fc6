//! Simulation run configuration.

use gillespie::engine::EngineKind;

use crate::engines::StatEngineKind;

/// Where a sharded run's shard attempts execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Local workers: `shards = 1` runs a single in-process shard;
    /// more shards spawn one `cwc-shard` child process each. The
    /// default.
    #[default]
    Process,
    /// Remote workers: every shard attempt is served by one of the
    /// `cwc-workerd` daemons listed in [`SimConfig::workers`], over TCP
    /// with the same length-prefixed wire protocol the process
    /// transport speaks on stdio. Requires a non-empty worker list.
    Tcp,
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TransportKind::Process => "process",
            TransportKind::Tcp => "tcp",
        })
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "process" => Ok(TransportKind::Process),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!(
                "unknown transport `{other}` (expected `process` or `tcp`)"
            )),
        }
    }
}

/// Configuration of one simulation-analysis run (the paper's knobs).
///
/// Build with [`SimConfig::new`] and the fluent setters; validated by
/// [`SimConfig::validate`] before a run starts.
///
/// # Examples
///
/// ```
/// use cwcsim::config::SimConfig;
///
/// let cfg = SimConfig::new(128, 50.0)
///     .quantum(1.0)
///     .sample_period(0.5)
///     .sim_workers(4)
///     .stat_workers(2);
/// cfg.validate().unwrap();
/// assert_eq!(cfg.samples_per_instance(), 101);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of independent simulation instances (trajectories).
    pub instances: u64,
    /// Simulation time horizon.
    pub t_end: f64,
    /// Simulation quantum Q: how long a task runs before rescheduling.
    pub quantum: f64,
    /// Sampling period τ (the paper's Q/τ ratio follows from these two).
    pub sample_period: f64,
    /// Workers in the farm of simulation engines.
    pub sim_workers: usize,
    /// Workers in the farm of statistical engines.
    pub stat_workers: usize,
    /// Cuts in the first window handed to the statistical farm.
    pub window_width: usize,
    /// Cuts in every later window (see [`SimConfig::window`]).
    pub window_slide: usize,
    /// Base RNG seed; instance `i` uses a seed derived from it.
    pub base_seed: u64,
    /// The stochastic integrator driving every trajectory (SSA by
    /// default; the leaping kinds — adaptive-tau, hybrid — are
    /// restricted to flat mass-action models and rejected at run start
    /// otherwise, with an error naming the offending rule). With
    /// [`EngineKind::Batched`], sim workers pull tasks of `width`
    /// instances instead of single instances, each stepped by scalar SSA;
    /// results are bit-for-bit the SSA results for every width and model.
    pub engine: EngineKind,
    /// Kernel selection for the propensity rows of the batched kind's
    /// replicas ([`gillespie::KernelDispatch`]): `Auto` (the default) uses
    /// the AVX2 row kernels whenever the CPU supports them, `Scalar` and
    /// `Simd` force one side. Every kernel produces bit-for-bit the same
    /// trajectories, so this knob changes throughput only. It is honoured
    /// by the in-process farm ([`run_simulation`]) with
    /// [`EngineKind::Batched`] only: the other kinds resolve `Auto`, and
    /// shard workers — threads, child processes and TCP daemons alike —
    /// never receive it and always resolve `Auto` locally.
    ///
    /// [`run_simulation`]: crate::runner::run_simulation
    pub kernel_dispatch: gillespie::KernelDispatch,
    /// Statistical engines to run on every window.
    pub engines: Vec<StatEngineKind>,
    /// Capacity of inter-stage channels.
    pub channel_capacity: usize,
    /// Number of shards the instance range is partitioned into. With 1
    /// (the default) the run stays a single in-process pipeline; with
    /// more, each shard runs its slice of the instances in a separate
    /// worker (the sharded runners spawn one `cwc-shard` child process
    /// per shard) and streams partial cuts back for merging. Per-instance
    /// seeding makes the results identical for every shard count.
    pub shards: usize,
    /// Retry budget of the shard supervisor: how many times a *failed*
    /// shard (crash, corrupt stream, watchdog timeout) is relaunched and
    /// its slice replayed before the run fails with a typed error
    /// carrying the full attempt history. Per-instance seeding makes the
    /// replay bit-for-bit deterministic, so a recovered run is identical
    /// to a fault-free one. 0 (the default) fails fast on the first
    /// shard failure, exactly like the pre-supervision farm.
    pub shard_retries: usize,
    /// Watchdog deadline, in seconds: a shard that produces no frame
    /// (cut, end-of-stream *or* heartbeat) for this long is declared
    /// stalled, its worker is killed, and the failure enters the retry
    /// path. `None` (the default) disables the watchdog. Only meaningful
    /// for shards whose transport reports liveness (the `cwc-shard`
    /// process transport); in-process shards share the coordinator's
    /// failure domain and are exempt.
    pub shard_timeout: Option<f64>,
    /// Base delay, in seconds, of the bounded-exponential retry backoff:
    /// attempt `k` waits `min(shard_backoff * 2^k, shard_backoff_max)`
    /// before relaunching.
    pub shard_backoff: f64,
    /// Upper bound, in seconds, on a single retry backoff delay.
    pub shard_backoff_max: f64,
    /// Period, in seconds, between the heartbeat (`Progress`) frames a
    /// `cwc-shard` worker emits so the watchdog can tell a slow shard
    /// from a stalled one. Shipped to workers in their `ShardSpec`.
    pub heartbeat_period: f64,
    /// Where shard attempts execute: local workers (the default) or the
    /// TCP farm of `cwc-workerd` daemons in [`SimConfig::workers`].
    pub transport: TransportKind,
    /// The TCP farm's worker registry: one `host:port` address per
    /// `cwc-workerd` daemon. Required non-empty (with valid addresses)
    /// when `transport` is [`TransportKind::Tcp`]; ignored otherwise.
    pub workers: Vec<String>,
    /// TCP connect/handshake deadline, in seconds: how long the
    /// coordinator waits for a worker to accept a connection and answer
    /// the registration hello before trying the next candidate.
    pub connect_timeout: f64,
}

/// Error returned by [`SimConfig::validate`]: one variant per validation
/// rule, carrying the offending values.
///
/// [`ConfigError::field`] names the rejected configuration field and
/// [`ConfigError::reason`] gives the human-readable rule; `Display`
/// renders `invalid simulation config: <reason>`, so existing
/// message-matching callers keep working.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `instances` was zero — a run needs at least one trajectory.
    ZeroInstances,
    /// `t_end` was not positive and finite.
    InvalidTEnd {
        /// The offending horizon.
        t_end: f64,
    },
    /// `quantum` was not positive and finite.
    InvalidQuantum {
        /// The offending quantum.
        quantum: f64,
    },
    /// `sample_period` was not positive and finite.
    InvalidSamplePeriod {
        /// The offending period.
        sample_period: f64,
    },
    /// `sample_period` exceeded `t_end`, leaving a single-point τ grid.
    SamplePeriodBeyondHorizon {
        /// The offending period.
        sample_period: f64,
        /// The run's horizon.
        t_end: f64,
    },
    /// The engine kind's parameters are invalid (the kind owns its
    /// parameter rules; see [`EngineKind::validate`]).
    Engine(gillespie::engine::EngineError),
    /// `sim_workers` was zero.
    ZeroSimWorkers,
    /// `stat_workers` was zero.
    ZeroStatWorkers,
    /// The sliding-window width or slide was zero.
    ZeroWindow {
        /// Configured width, in cuts.
        width: usize,
        /// Configured slide, in cuts.
        slide: usize,
    },
    /// The sliding-window slide exceeded its width (windows would skip
    /// cuts).
    SlideBeyondWidth {
        /// Configured width, in cuts.
        width: usize,
        /// Configured slide, in cuts.
        slide: usize,
    },
    /// The statistical engine set was empty.
    NoStatEngines,
    /// `channel_capacity` was zero.
    ZeroChannelCapacity,
    /// `shards` was zero.
    ZeroShards,
    /// `shard_timeout` was set but not positive and finite.
    InvalidShardTimeout {
        /// The offending deadline, in seconds.
        timeout: f64,
    },
    /// A backoff knob was invalid: the base must be non-negative and
    /// finite, the cap finite and at least the base.
    InvalidShardBackoff {
        /// Configured base delay, in seconds.
        base: f64,
        /// Configured delay cap, in seconds.
        max: f64,
    },
    /// `heartbeat_period` was not positive and finite.
    InvalidHeartbeatPeriod {
        /// The offending period, in seconds.
        period: f64,
    },
    /// `shard_timeout` was below `heartbeat_period`: every shard would be
    /// declared stalled between two heartbeats.
    ShardTimeoutBelowHeartbeat {
        /// Configured watchdog deadline, in seconds.
        timeout: f64,
        /// Configured heartbeat period, in seconds.
        period: f64,
    },
    /// `transport` was [`TransportKind::Tcp`] but the worker list was
    /// empty — a TCP farm needs somewhere to place shards.
    NoWorkers,
    /// A worker address was not `host:port` with a valid port.
    InvalidWorkerAddr {
        /// The offending address, verbatim.
        addr: String,
    },
    /// `connect_timeout` was not positive and finite.
    InvalidConnectTimeout {
        /// The offending deadline, in seconds.
        timeout: f64,
    },
}

impl ConfigError {
    /// The configuration field the error is about.
    pub fn field(&self) -> &'static str {
        match self {
            ConfigError::ZeroInstances => "instances",
            ConfigError::InvalidTEnd { .. } => "t_end",
            ConfigError::InvalidQuantum { .. } => "quantum",
            ConfigError::InvalidSamplePeriod { .. }
            | ConfigError::SamplePeriodBeyondHorizon { .. } => "sample_period",
            ConfigError::Engine(_) => "engine",
            ConfigError::ZeroSimWorkers => "sim_workers",
            ConfigError::ZeroStatWorkers => "stat_workers",
            ConfigError::ZeroWindow { .. } | ConfigError::SlideBeyondWidth { .. } => "window",
            ConfigError::NoStatEngines => "engines",
            ConfigError::ZeroChannelCapacity => "channel_capacity",
            ConfigError::ZeroShards => "shards",
            ConfigError::InvalidShardTimeout { .. }
            | ConfigError::ShardTimeoutBelowHeartbeat { .. } => "shard_timeout",
            ConfigError::InvalidShardBackoff { .. } => "shard_backoff",
            ConfigError::InvalidHeartbeatPeriod { .. } => "heartbeat_period",
            ConfigError::NoWorkers | ConfigError::InvalidWorkerAddr { .. } => "workers",
            ConfigError::InvalidConnectTimeout { .. } => "connect_timeout",
        }
    }

    /// The violated rule, human-readable (what `Display` prints after the
    /// `invalid simulation config: ` prefix).
    pub fn reason(&self) -> String {
        match self {
            ConfigError::ZeroInstances => "instances must be > 0".into(),
            ConfigError::InvalidTEnd { .. } => "t_end must be positive and finite".into(),
            ConfigError::InvalidQuantum { .. } => "quantum must be positive and finite".into(),
            ConfigError::InvalidSamplePeriod { .. } => {
                "sample_period must be positive and finite".into()
            }
            ConfigError::SamplePeriodBeyondHorizon {
                sample_period,
                t_end,
            } => format!(
                "sample_period ({sample_period}) must not exceed t_end ({t_end}): the τ \
                 grid would hold a single sample at t = 0"
            ),
            ConfigError::Engine(e) => e.to_string(),
            ConfigError::ZeroSimWorkers => "sim_workers must be > 0".into(),
            ConfigError::ZeroStatWorkers => "stat_workers must be > 0".into(),
            ConfigError::ZeroWindow { .. } => "window width/slide must be > 0".into(),
            ConfigError::SlideBeyondWidth { .. } => {
                "window slide must not exceed window width".into()
            }
            ConfigError::NoStatEngines => "at least one statistical engine".into(),
            ConfigError::ZeroChannelCapacity => "channel_capacity must be > 0".into(),
            ConfigError::ZeroShards => "shards must be > 0 (1 = single in-process shard)".into(),
            ConfigError::InvalidShardTimeout { timeout } => {
                format!("shard_timeout ({timeout}) must be positive and finite when set")
            }
            ConfigError::InvalidShardBackoff { base, max } => format!(
                "shard_backoff base ({base}) must be non-negative and finite, and the cap \
                 ({max}) finite and >= the base"
            ),
            ConfigError::InvalidHeartbeatPeriod { period } => {
                format!("heartbeat_period ({period}) must be positive and finite")
            }
            ConfigError::ShardTimeoutBelowHeartbeat { timeout, period } => format!(
                "shard_timeout ({timeout}) must be at least heartbeat_period ({period}): \
                 the watchdog would declare every shard stalled between two heartbeats"
            ),
            ConfigError::NoWorkers => {
                "the tcp transport needs at least one worker address (host:port)".into()
            }
            ConfigError::InvalidWorkerAddr { addr } => {
                format!("worker address `{addr}` must be host:port with a valid port")
            }
            ConfigError::InvalidConnectTimeout { timeout } => {
                format!("connect_timeout ({timeout}) must be positive and finite")
            }
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid simulation config: {}", self.reason())
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gillespie::engine::EngineError> for ConfigError {
    fn from(e: gillespie::engine::EngineError) -> Self {
        ConfigError::Engine(e)
    }
}

impl SimConfig {
    /// Creates a configuration with sensible defaults for the given number
    /// of instances and time horizon.
    pub fn new(instances: u64, t_end: f64) -> Self {
        SimConfig {
            instances,
            t_end,
            quantum: t_end / 20.0,
            sample_period: t_end / 200.0,
            sim_workers: 2,
            stat_workers: 1,
            window_width: 5,
            window_slide: 1,
            base_seed: 1,
            engine: EngineKind::Ssa,
            kernel_dispatch: gillespie::KernelDispatch::Auto,
            engines: vec![StatEngineKind::MeanVariance],
            channel_capacity: 64,
            shards: 1,
            shard_retries: 0,
            shard_timeout: None,
            shard_backoff: 0.05,
            shard_backoff_max: 2.0,
            heartbeat_period: 0.2,
            transport: TransportKind::Process,
            workers: Vec::new(),
            connect_timeout: 5.0,
        }
    }

    /// Selects the stochastic integrator (see [`EngineKind`]).
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// Selects the row kernels of the batched kind's replicas (see
    /// [`SimConfig::kernel_dispatch`]); a no-op for the other kinds.
    pub fn kernel_dispatch(mut self, dispatch: gillespie::KernelDispatch) -> Self {
        self.kernel_dispatch = dispatch;
        self
    }

    /// Sets the simulation quantum Q.
    pub fn quantum(mut self, q: f64) -> Self {
        self.quantum = q;
        self
    }

    /// Sets the sampling period τ.
    pub fn sample_period(mut self, tau: f64) -> Self {
        self.sample_period = tau;
        self
    }

    /// Sets the number of simulation engine workers.
    pub fn sim_workers(mut self, n: usize) -> Self {
        self.sim_workers = n;
        self
    }

    /// Sets the number of statistical engine workers.
    pub fn stat_workers(mut self, n: usize) -> Self {
        self.stat_workers = n;
        self
    }

    /// Sets the window geometry in cuts — the statistical farm's block
    /// grain: `width` cuts in the first window, `slide` in every later
    /// one. Each cut is analysed exactly once, so rows never depend on it.
    pub fn window(mut self, width: usize, slide: usize) -> Self {
        self.window_width = width;
        self.window_slide = slide;
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Replaces the statistical engine set.
    pub fn engines(mut self, engines: Vec<StatEngineKind>) -> Self {
        self.engines = engines;
        self
    }

    /// Sets the channel capacity between stages.
    pub fn channel_capacity(mut self, cap: usize) -> Self {
        self.channel_capacity = cap;
        self
    }

    /// Sets the number of shards for the sharded runners (see
    /// [`SimConfig::shards`]; ignored by the single-process
    /// `run_simulation`).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Sets the shard supervisor's retry budget (see
    /// [`SimConfig::shard_retries`]).
    pub fn retries(mut self, n: usize) -> Self {
        self.shard_retries = n;
        self
    }

    /// Arms the shard watchdog: a shard silent for `secs` seconds is
    /// killed and retried (see [`SimConfig::shard_timeout`]).
    pub fn shard_timeout(mut self, secs: f64) -> Self {
        self.shard_timeout = Some(secs);
        self
    }

    /// Sets the bounded-exponential retry backoff: attempt `k` waits
    /// `min(base * 2^k, max)` seconds before relaunching.
    pub fn shard_backoff(mut self, base: f64, max: f64) -> Self {
        self.shard_backoff = base;
        self.shard_backoff_max = max;
        self
    }

    /// Sets the worker heartbeat period, in seconds (see
    /// [`SimConfig::heartbeat_period`]).
    pub fn heartbeat_period(mut self, secs: f64) -> Self {
        self.heartbeat_period = secs;
        self
    }

    /// Selects where shard attempts execute (see
    /// [`SimConfig::transport`]).
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Replaces the TCP farm's worker registry (see
    /// [`SimConfig::workers`]).
    pub fn workers(mut self, addrs: Vec<String>) -> Self {
        self.workers = addrs;
        self
    }

    /// Sets the TCP connect/handshake deadline, in seconds (see
    /// [`SimConfig::connect_timeout`]).
    pub fn connect_timeout(mut self, secs: f64) -> Self {
        self.connect_timeout = secs;
        self
    }

    /// The paper's Q/τ ratio.
    pub fn q_over_tau(&self) -> f64 {
        self.quantum / self.sample_period
    }

    /// Number of samples each instance produces (grid 0, τ, 2τ, … ≤ t_end).
    pub fn samples_per_instance(&self) -> u64 {
        (self.t_end / self.sample_period).floor() as u64 + 1
    }

    /// Checks the configuration for consistency.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] variant of the first violated rule,
    /// naming the offending parameter.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.instances == 0 {
            return Err(ConfigError::ZeroInstances);
        }
        if !(self.t_end > 0.0 && self.t_end.is_finite()) {
            return Err(ConfigError::InvalidTEnd { t_end: self.t_end });
        }
        if !(self.quantum > 0.0 && self.quantum.is_finite()) {
            return Err(ConfigError::InvalidQuantum {
                quantum: self.quantum,
            });
        }
        if !(self.sample_period > 0.0 && self.sample_period.is_finite()) {
            return Err(ConfigError::InvalidSamplePeriod {
                sample_period: self.sample_period,
            });
        }
        if self.sample_period > self.t_end {
            return Err(ConfigError::SamplePeriodBeyondHorizon {
                sample_period: self.sample_period,
                t_end: self.t_end,
            });
        }
        // The kind's parameter rules live with EngineKind (single owner);
        // the model-dependent checks happen when engines are built.
        self.engine.validate()?;
        if self.sim_workers == 0 {
            return Err(ConfigError::ZeroSimWorkers);
        }
        if self.stat_workers == 0 {
            return Err(ConfigError::ZeroStatWorkers);
        }
        if self.window_width == 0 || self.window_slide == 0 {
            return Err(ConfigError::ZeroWindow {
                width: self.window_width,
                slide: self.window_slide,
            });
        }
        if self.window_slide > self.window_width {
            return Err(ConfigError::SlideBeyondWidth {
                width: self.window_width,
                slide: self.window_slide,
            });
        }
        if self.engines.is_empty() {
            return Err(ConfigError::NoStatEngines);
        }
        if self.channel_capacity == 0 {
            return Err(ConfigError::ZeroChannelCapacity);
        }
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if let Some(timeout) = self.shard_timeout {
            if !(timeout > 0.0 && timeout.is_finite()) {
                return Err(ConfigError::InvalidShardTimeout { timeout });
            }
        }
        if !(self.shard_backoff >= 0.0
            && self.shard_backoff.is_finite()
            && self.shard_backoff_max.is_finite()
            && self.shard_backoff_max >= self.shard_backoff)
        {
            return Err(ConfigError::InvalidShardBackoff {
                base: self.shard_backoff,
                max: self.shard_backoff_max,
            });
        }
        if !(self.heartbeat_period > 0.0 && self.heartbeat_period.is_finite()) {
            return Err(ConfigError::InvalidHeartbeatPeriod {
                period: self.heartbeat_period,
            });
        }
        if let Some(timeout) = self.shard_timeout {
            if timeout < self.heartbeat_period {
                return Err(ConfigError::ShardTimeoutBelowHeartbeat {
                    timeout,
                    period: self.heartbeat_period,
                });
            }
        }
        if self.transport == TransportKind::Tcp {
            if self.workers.is_empty() {
                return Err(ConfigError::NoWorkers);
            }
            for addr in &self.workers {
                // host:port with a valid u16 port — resolution (DNS or
                // otherwise) is the transport's concern at connect time.
                let valid = addr
                    .rsplit_once(':')
                    .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok());
                if !valid {
                    return Err(ConfigError::InvalidWorkerAddr { addr: addr.clone() });
                }
            }
        }
        if !(self.connect_timeout > 0.0 && self.connect_timeout.is_finite()) {
            return Err(ConfigError::InvalidConnectTimeout {
                timeout: self.connect_timeout,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SimConfig::new(10, 100.0).validate().unwrap();
    }

    #[test]
    fn q_over_tau_matches_paper_knob() {
        let cfg = SimConfig::new(1, 100.0).quantum(5.0).sample_period(0.5);
        assert!((cfg.q_over_tau() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn samples_per_instance_counts_grid_points() {
        let cfg = SimConfig::new(1, 10.0).sample_period(1.0);
        assert_eq!(cfg.samples_per_instance(), 11); // t = 0..=10
    }

    fn rejection_message(cfg: &SimConfig) -> String {
        cfg.validate().unwrap_err().to_string()
    }

    #[test]
    fn zero_or_negative_quantum_is_rejected_with_specific_message() {
        for q in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let msg = rejection_message(&SimConfig::new(1, 10.0).quantum(q));
            assert!(msg.contains("quantum"), "q={q}: {msg}");
            assert!(msg.contains("positive"), "q={q}: {msg}");
        }
    }

    #[test]
    fn sample_period_beyond_horizon_is_rejected_with_specific_message() {
        let msg = rejection_message(&SimConfig::new(1, 10.0).sample_period(11.0));
        assert!(msg.contains("sample_period"), "{msg}");
        assert!(msg.contains("t_end"), "{msg}");
        // The boundary case τ = t_end is legal (grid {0, t_end}).
        SimConfig::new(1, 10.0)
            .sample_period(10.0)
            .validate()
            .unwrap();
    }

    #[test]
    fn window_slide_beyond_width_is_rejected_with_specific_message() {
        let msg = rejection_message(&SimConfig::new(1, 10.0).window(2, 3));
        assert!(msg.contains("slide"), "{msg}");
        assert!(msg.contains("width"), "{msg}");
    }

    #[test]
    fn out_of_range_adaptive_epsilon_is_rejected_with_specific_message() {
        for epsilon in [0.0, -0.1, 1.0, 2.0, f64::NAN] {
            let cfg = SimConfig::new(1, 10.0).engine(EngineKind::AdaptiveTau { epsilon });
            let msg = rejection_message(&cfg);
            assert!(msg.contains("epsilon"), "epsilon={epsilon}: {msg}");
            assert!(msg.contains("(0, 1)"), "epsilon={epsilon}: {msg}");
        }
        SimConfig::new(1, 10.0)
            .engine(EngineKind::AdaptiveTau { epsilon: 0.03 })
            .validate()
            .unwrap();
    }

    #[test]
    fn bad_hybrid_knobs_are_rejected_with_specific_messages() {
        // The epsilon rule is shared with the adaptive kind…
        let cfg = SimConfig::new(1, 10.0).engine(EngineKind::Hybrid {
            epsilon: 1.5,
            threshold: 8.0,
        });
        assert!(rejection_message(&cfg).contains("epsilon"));
        // …and the switch threshold has its own.
        for threshold in [0.0, 0.99, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = SimConfig::new(1, 10.0).engine(EngineKind::Hybrid {
                epsilon: 0.05,
                threshold,
            });
            let msg = rejection_message(&cfg);
            assert!(msg.contains("threshold"), "threshold={threshold}: {msg}");
        }
        SimConfig::new(1, 10.0)
            .engine(EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 16.0,
            })
            .validate()
            .unwrap();
    }

    #[test]
    fn zero_batch_width_is_rejected_with_specific_message() {
        let cfg = SimConfig::new(1, 10.0).engine(EngineKind::Batched { width: 0 });
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.field(), "engine");
        assert!(err.to_string().contains("width"), "{err}");
        SimConfig::new(1, 10.0)
            .engine(EngineKind::Batched { width: 16 })
            .validate()
            .unwrap();
    }

    #[test]
    fn config_errors_are_structured_with_field_and_reason_accessors() {
        let err = SimConfig::new(0, 10.0).validate().unwrap_err();
        assert_eq!(err, ConfigError::ZeroInstances);
        assert_eq!(err.field(), "instances");

        let err = SimConfig::new(1, 10.0)
            .quantum(-2.0)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidQuantum { quantum: -2.0 });
        assert_eq!(err.field(), "quantum");

        let err = SimConfig::new(1, 10.0)
            .sample_period(11.0)
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::SamplePeriodBeyondHorizon {
                sample_period: 11.0,
                t_end: 10.0
            }
        );
        assert_eq!(err.field(), "sample_period");

        let err = SimConfig::new(1, 10.0).window(2, 3).validate().unwrap_err();
        assert_eq!(err, ConfigError::SlideBeyondWidth { width: 2, slide: 3 });
        assert_eq!(err.field(), "window");

        let err = SimConfig::new(1, 10.0)
            .engine(EngineKind::AdaptiveTau { epsilon: 0.0 })
            .validate()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Engine(_)));
        assert_eq!(err.field(), "engine");
        // The Display contract: prefix + the reason accessor, verbatim.
        assert_eq!(
            err.to_string(),
            format!("invalid simulation config: {}", err.reason())
        );
        // The engine error stays reachable as a typed source.
        use std::error::Error;
        assert!(err.source().is_some());
    }

    #[test]
    fn engine_knob_defaults_to_ssa_and_is_fluent() {
        assert_eq!(SimConfig::new(1, 1.0).engine, EngineKind::Ssa);
        let cfg = SimConfig::new(1, 1.0).engine(EngineKind::AdaptiveTau { epsilon: 0.05 });
        assert_eq!(cfg.engine, EngineKind::AdaptiveTau { epsilon: 0.05 });
        cfg.validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SimConfig::new(0, 10.0).validate().is_err());
        assert!(SimConfig::new(1, 0.0).validate().is_err());
        assert!(SimConfig::new(1, 10.0).quantum(0.0).validate().is_err());
        assert!(SimConfig::new(1, 10.0)
            .sample_period(-1.0)
            .validate()
            .is_err());
        assert!(SimConfig::new(1, 10.0).sim_workers(0).validate().is_err());
        assert!(SimConfig::new(1, 10.0).stat_workers(0).validate().is_err());
        assert!(SimConfig::new(1, 10.0).window(0, 1).validate().is_err());
        assert!(SimConfig::new(1, 10.0).window(2, 3).validate().is_err());
        assert!(SimConfig::new(1, 10.0).engines(vec![]).validate().is_err());
        assert!(SimConfig::new(1, 10.0)
            .channel_capacity(0)
            .validate()
            .is_err());
        assert!(SimConfig::new(1, 10.0).shards(0).validate().is_err());
    }

    #[test]
    fn kernel_dispatch_knob_defaults_to_auto_and_is_fluent() {
        use gillespie::KernelDispatch;
        assert_eq!(SimConfig::new(1, 1.0).kernel_dispatch, KernelDispatch::Auto);
        let cfg = SimConfig::new(1, 1.0).kernel_dispatch(KernelDispatch::Scalar);
        assert_eq!(cfg.kernel_dispatch, KernelDispatch::Scalar);
        cfg.validate().unwrap();
    }

    #[test]
    fn supervision_knobs_default_off_and_are_fluent() {
        let cfg = SimConfig::new(1, 1.0);
        assert_eq!(cfg.shard_retries, 0);
        assert_eq!(cfg.shard_timeout, None);
        assert!(cfg.heartbeat_period > 0.0);
        let cfg = cfg
            .retries(3)
            .shard_timeout(5.0)
            .shard_backoff(0.01, 0.5)
            .heartbeat_period(0.1);
        assert_eq!(cfg.shard_retries, 3);
        assert_eq!(cfg.shard_timeout, Some(5.0));
        assert_eq!((cfg.shard_backoff, cfg.shard_backoff_max), (0.01, 0.5));
        assert_eq!(cfg.heartbeat_period, 0.1);
        cfg.validate().unwrap();
    }

    #[test]
    fn invalid_shard_timeout_is_rejected_with_specific_message() {
        for timeout in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = SimConfig::new(1, 10.0)
                .shard_timeout(timeout)
                .validate()
                .unwrap_err();
            assert_eq!(err.field(), "shard_timeout", "timeout={timeout}");
            assert!(err.to_string().contains("shard_timeout"), "{err}");
        }
    }

    #[test]
    fn invalid_backoff_is_rejected_with_specific_message() {
        // Negative base, non-finite base, and a cap below the base.
        for (base, max) in [(-0.1, 1.0), (f64::NAN, 1.0), (0.5, 0.1), (0.1, f64::NAN)] {
            let err = SimConfig::new(1, 10.0)
                .shard_backoff(base, max)
                .validate()
                .unwrap_err();
            assert_eq!(err.field(), "shard_backoff", "base={base} max={max}");
            assert!(err.to_string().contains("backoff"), "{err}");
        }
        // Zero backoff (retry immediately) is legal.
        SimConfig::new(1, 10.0)
            .shard_backoff(0.0, 0.0)
            .validate()
            .unwrap();
    }

    #[test]
    fn invalid_heartbeat_period_is_rejected_with_specific_message() {
        for period in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let err = SimConfig::new(1, 10.0)
                .heartbeat_period(period)
                .validate()
                .unwrap_err();
            assert_eq!(err.field(), "heartbeat_period", "period={period}");
            assert!(err.to_string().contains("heartbeat_period"), "{err}");
        }
    }

    #[test]
    fn timeout_below_heartbeat_is_rejected_with_specific_message() {
        let err = SimConfig::new(1, 10.0)
            .heartbeat_period(1.0)
            .shard_timeout(0.5)
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ShardTimeoutBelowHeartbeat {
                timeout: 0.5,
                period: 1.0
            }
        );
        assert!(err.to_string().contains("heartbeat"), "{err}");
        // Equal is legal (one heartbeat always fits the deadline).
        SimConfig::new(1, 10.0)
            .heartbeat_period(0.5)
            .shard_timeout(0.5)
            .validate()
            .unwrap();
    }

    #[test]
    fn transport_knobs_default_to_process_and_are_fluent() {
        let cfg = SimConfig::new(1, 1.0);
        assert_eq!(cfg.transport, TransportKind::Process);
        assert!(cfg.workers.is_empty());
        assert!(cfg.connect_timeout > 0.0);
        let cfg = cfg
            .transport(TransportKind::Tcp)
            .workers(vec!["127.0.0.1:7701".into(), "node2:7701".into()])
            .connect_timeout(2.5);
        assert_eq!(cfg.transport, TransportKind::Tcp);
        assert_eq!(cfg.workers.len(), 2);
        assert_eq!(cfg.connect_timeout, 2.5);
        cfg.validate().unwrap();
    }

    #[test]
    fn transport_kind_parses_and_displays_round_trip() {
        for kind in [TransportKind::Process, TransportKind::Tcp] {
            assert_eq!(kind.to_string().parse::<TransportKind>(), Ok(kind));
        }
        let err = "carrier-pigeon".parse::<TransportKind>().unwrap_err();
        assert!(err.contains("carrier-pigeon"), "{err}");
        assert!(err.contains("tcp"), "{err}");
    }

    #[test]
    fn tcp_transport_without_workers_is_rejected_with_specific_message() {
        let err = SimConfig::new(1, 10.0)
            .transport(TransportKind::Tcp)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::NoWorkers);
        assert_eq!(err.field(), "workers");
        assert!(err.to_string().contains("worker"), "{err}");
        // A process transport ignores the (empty) worker list.
        SimConfig::new(1, 10.0).validate().unwrap();
    }

    #[test]
    fn malformed_worker_addresses_are_rejected_with_specific_message() {
        for addr in ["nocolon", ":7701", "host:", "host:notaport", "host:99999"] {
            let err = SimConfig::new(1, 10.0)
                .transport(TransportKind::Tcp)
                .workers(vec![addr.into()])
                .validate()
                .unwrap_err();
            assert_eq!(
                err,
                ConfigError::InvalidWorkerAddr { addr: addr.into() },
                "addr={addr}"
            );
            assert_eq!(err.field(), "workers");
            assert!(err.to_string().contains(addr), "{err}");
        }
        // IPv6 with a port (host:port split from the right) is legal.
        SimConfig::new(1, 10.0)
            .transport(TransportKind::Tcp)
            .workers(vec!["[::1]:7701".into()])
            .validate()
            .unwrap();
    }

    #[test]
    fn invalid_connect_timeout_is_rejected_with_specific_message() {
        for timeout in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = SimConfig::new(1, 10.0)
                .connect_timeout(timeout)
                .validate()
                .unwrap_err();
            assert_eq!(err.field(), "connect_timeout", "timeout={timeout}");
            assert!(err.to_string().contains("connect_timeout"), "{err}");
        }
    }

    #[test]
    fn shards_knob_defaults_to_one_and_is_fluent() {
        assert_eq!(SimConfig::new(1, 1.0).shards, 1);
        let cfg = SimConfig::new(1, 1.0).shards(4);
        assert_eq!(cfg.shards, 4);
        cfg.validate().unwrap();
        let msg = rejection_message(&SimConfig::new(1, 1.0).shards(0));
        assert!(msg.contains("shards"), "{msg}");
    }
}
