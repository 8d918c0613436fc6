//! Simulation run configuration.

use gillespie::engine::EngineKind;

use crate::engines::StatEngineKind;

/// Where a sharded run's shard attempts execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Local workers: `shards = 1` runs a single in-process shard;
    /// more shards spawn one `cwc-shard` child process per shard
    /// attempt, each serving one loopback TCP connection. The default.
    #[default]
    Process,
    /// Remote workers: every shard attempt is served by one of the
    /// `cwc-workerd` daemons listed in [`SimConfig::workers`], over the
    /// same socket path and wire protocol the process transport's
    /// loopback children serve. Requires a non-empty worker list.
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
    /// default; the leaping kinds — adaptive-tau, hybrid — take every
    /// flat model, whatever its kinetic laws, and reject a compartment
    /// model at run start, with an error naming the offending rule). With
    /// [`EngineKind::Batched`], sim workers pull tasks of `width`
    /// instances instead of single instances, each stepped by scalar SSA;
    /// results are bit-for-bit the SSA results for every width and model.
    pub engine: EngineKind,
    /// Kernel selection for the propensity rows of every farm task
    /// ([`gillespie::KernelDispatch`]): `Auto` (the default) uses the
    /// AVX2 row kernels whenever the CPU supports them, `Scalar` and
    /// `Simd` force one side. Every kernel produces bit-for-bit the same
    /// trajectories, so this knob changes throughput only. It is honoured
    /// by the in-process farm ([`run_simulation`]), for every engine
    /// kind; shard workers — threads, child processes and TCP daemons
    /// alike — never receive it and always resolve `Auto` locally.
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
    /// worker (a `cwc-shard` child process per shard attempt, or a
    /// `cwc-workerd` connection under [`TransportKind::Tcp`]) and streams
    /// partial cuts back for merging. Per-instance
    /// seeding makes the results identical for every shard count.
    pub shards: usize,
    /// Retry budget of the shard supervisor: how many times a *failed*
    /// shard (crash, corrupt stream, watchdog timeout) is relaunched and
    /// its slice replayed before the run fails with a typed error
    /// carrying the full attempt history and the count of full cuts
    /// merged before the failure. A failed slice is requeued at once,
    /// with no backoff: every retry runs on a fresh worker. Per-instance
    /// seeding makes the replay bit-for-bit deterministic, so a recovered
    /// run is identical to a fault-free one. 0 (the default) fails fast
    /// on the first shard failure.
    pub shard_retries: usize,
    /// Watchdog deadline, in seconds: a shard attempt from which the
    /// supervisor takes no feed (cut, end-of-stream *or* heartbeat) for
    /// this long after the last one — or after its launch — is declared
    /// stalled, its worker is killed, and the failure enters the retry
    /// path. A shard blocked on its full feed channel is never stalled:
    /// the supervisor's receive on that channel returns at once. `None`
    /// (the default) disables the watchdog. Only meaningful for
    /// out-of-process shards (`cwc-shard` children and `cwc-workerd`
    /// connections alike send heartbeats); in-process shards share the
    /// coordinator's failure domain and are unwatched.
    pub shard_timeout: Option<f64>,
    /// Period, in seconds, between the heartbeat (`Progress`) frames an
    /// out-of-process worker (`cwc-shard` or `cwc-workerd`) emits so the
    /// watchdog can tell a slow shard from a stalled one. Shipped to
    /// workers in their `ShardSpec`.
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

/// Error returned by [`SimConfig::validate`]: the first violated rule.
///
/// [`ConfigError::field`] names the rejected configuration field and
/// [`ConfigError::reason`] gives the human-readable rule, offending
/// values included; `Display` renders `invalid simulation config:
/// <reason>`. An invalid engine parameter keeps the engine's own error
/// as the `source()`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    field: &'static str,
    reason: String,
    engine: Option<gillespie::engine::EngineError>,
}

impl ConfigError {
    pub(crate) fn new(field: &'static str, reason: impl Into<String>) -> Self {
        ConfigError {
            field,
            reason: reason.into(),
            engine: None,
        }
    }

    /// The configuration field the error is about.
    pub fn field(&self) -> &'static str {
        self.field
    }

    /// The violated rule, human-readable (what `Display` prints after the
    /// `invalid simulation config: ` prefix).
    pub fn reason(&self) -> String {
        self.reason.clone()
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid simulation config: {}", self.reason)
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.engine
            .as_ref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

impl From<gillespie::engine::EngineError> for ConfigError {
    fn from(e: gillespie::engine::EngineError) -> Self {
        ConfigError {
            field: "engine",
            reason: e.to_string(),
            engine: Some(e),
        }
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

    /// Selects the row kernels of every farm task (see
    /// [`SimConfig::kernel_dispatch`]).
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

    /// Number of samples each instance produces (grid 0, τ, 2τ, … ≤ t_end).
    ///
    /// `floor(t_end / τ) + 1`, with the quotient's rounding corrected by
    /// the test the engines' clock makes, `k·τ ≤ t_end`.
    pub fn samples_per_instance(&self) -> u64 {
        let (t_end, tau) = (self.t_end, self.sample_period);
        let mut last = (t_end / tau).floor() as u64;
        if last > 0 && last as f64 * tau > t_end {
            last -= 1;
        } else if (last + 1) as f64 * tau <= t_end {
            last += 1;
        }
        last + 1
    }

    /// Checks the configuration for consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for the first violated rule, naming the
    /// offending parameter.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let reject = |field, reason: String| Err(ConfigError::new(field, reason));
        let positive_finite = |x: f64| x > 0.0 && x.is_finite();
        if self.instances == 0 {
            return reject("instances", "instances must be > 0".into());
        }
        if !positive_finite(self.t_end) {
            return reject("t_end", "t_end must be positive and finite".into());
        }
        if !positive_finite(self.quantum) {
            return reject("quantum", "quantum must be positive and finite".into());
        }
        if !positive_finite(self.sample_period) {
            return reject(
                "sample_period",
                "sample_period must be positive and finite".into(),
            );
        }
        if self.sample_period > self.t_end {
            return reject(
                "sample_period",
                format!(
                    "sample_period ({}) must not exceed t_end ({}): the τ grid would hold a \
                     single sample at t = 0",
                    self.sample_period, self.t_end
                ),
            );
        }
        // The kind's parameter rules live with EngineKind (single owner);
        // the model-dependent checks happen when engines are built.
        self.engine.validate()?;
        if self.sim_workers == 0 {
            return reject("sim_workers", "sim_workers must be > 0".into());
        }
        if self.stat_workers == 0 {
            return reject("stat_workers", "stat_workers must be > 0".into());
        }
        if self.window_width == 0 || self.window_slide == 0 {
            return reject("window", "window width/slide must be > 0".into());
        }
        if self.window_slide > self.window_width {
            return reject("window", "window slide must not exceed window width".into());
        }
        if self.engines.is_empty() {
            return reject("engines", "at least one statistical engine".into());
        }
        for engine in &self.engines {
            engine.validate()?;
        }
        if self.channel_capacity == 0 {
            return reject("channel_capacity", "channel_capacity must be > 0".into());
        }
        if self.shards == 0 {
            return reject(
                "shards",
                "shards must be > 0 (1 = single in-process shard)".into(),
            );
        }
        if let Some(timeout) = self.shard_timeout {
            if !positive_finite(timeout) {
                return reject(
                    "shard_timeout",
                    format!("shard_timeout ({timeout}) must be positive and finite when set"),
                );
            }
        }
        let period = self.heartbeat_period;
        if !positive_finite(period) {
            return reject(
                "heartbeat_period",
                format!("heartbeat_period ({period}) must be positive and finite"),
            );
        }
        if let Some(timeout) = self.shard_timeout {
            if timeout < period {
                return reject(
                    "shard_timeout",
                    format!(
                        "shard_timeout ({timeout}) must be at least heartbeat_period \
                         ({period}): the watchdog would declare every shard stalled between \
                         two heartbeats"
                    ),
                );
            }
        }
        if self.transport == TransportKind::Tcp {
            if self.workers.is_empty() {
                return reject(
                    "workers",
                    "the tcp transport needs at least one worker address (host:port)".into(),
                );
            }
            for addr in &self.workers {
                // host:port with a valid u16 port — resolution (DNS or
                // otherwise) is the transport's concern at connect time.
                let valid = addr
                    .rsplit_once(':')
                    .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok());
                if !valid {
                    return reject(
                        "workers",
                        format!("worker address `{addr}` must be host:port with a valid port"),
                    );
                }
            }
        }
        let timeout = self.connect_timeout;
        if !positive_finite(timeout) {
            return reject(
                "connect_timeout",
                format!("connect_timeout ({timeout}) must be positive and finite"),
            );
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
    fn samples_per_instance_counts_grid_points() {
        let cfg = SimConfig::new(1, 10.0).sample_period(1.0);
        assert_eq!(cfg.samples_per_instance(), 11); // t = 0..=10

        // 30 × 0.1 is exactly 3.0, so t_end 3 is a grid point; 0.3 / 0.1
        // rounds below 3 and 3 × 0.1 lies past 0.3, so 0.3 is not.
        let cfg = SimConfig::new(1, 3.0).sample_period(0.1);
        assert_eq!(cfg.samples_per_instance(), 31);
        let cfg = SimConfig::new(1, 0.3).sample_period(0.1);
        assert_eq!(cfg.samples_per_instance(), 3);
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
        assert_eq!(err.field(), "instances");
        assert_eq!(err.reason(), "instances must be > 0");

        let err = SimConfig::new(1, 10.0)
            .quantum(-2.0)
            .validate()
            .unwrap_err();
        assert_eq!(err.field(), "quantum");
        assert_eq!(err.reason(), "quantum must be positive and finite");

        let err = SimConfig::new(1, 10.0)
            .sample_period(11.0)
            .validate()
            .unwrap_err();
        assert_eq!(err.field(), "sample_period");
        assert_eq!(
            err.reason(),
            "sample_period (11) must not exceed t_end (10): the τ grid would hold a single \
             sample at t = 0"
        );

        let err = SimConfig::new(1, 10.0).window(2, 3).validate().unwrap_err();
        assert_eq!(err.field(), "window");
        assert_eq!(err.reason(), "window slide must not exceed window width");

        let err = SimConfig::new(1, 10.0)
            .engine(EngineKind::AdaptiveTau { epsilon: 0.0 })
            .validate()
            .unwrap_err();
        assert_eq!(err.field(), "engine");
        // The Display contract: prefix + the reason accessor, verbatim.
        assert_eq!(
            err.to_string(),
            "invalid simulation config: adaptive/hybrid epsilon must be in (0, 1), got 0"
        );
        assert_eq!(
            err.to_string(),
            format!("invalid simulation config: {}", err.reason())
        );
        // The engine error stays reachable as a typed source.
        use std::error::Error;
        let source = err.source().expect("engine error as the source");
        assert!(source
            .downcast_ref::<gillespie::engine::EngineError>()
            .is_some());
        assert_eq!(source.to_string(), err.reason());
        // Every other rule has no source.
        assert!(SimConfig::new(0, 10.0)
            .validate()
            .unwrap_err()
            .source()
            .is_none());
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

    /// The reason `engine`, configured after a valid mean/variance
    /// engine, is rejected for; the field is always `engines`.
    fn stat_engine_rejection(engine: StatEngineKind) -> String {
        let cfg = SimConfig::new(1, 10.0).engines(vec![StatEngineKind::MeanVariance, engine]);
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.field(), "engines", "{err}");
        err.reason()
    }

    #[test]
    fn quantile_outside_the_open_unit_interval_is_rejected() {
        for p in [0.0, 1.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let reason = stat_engine_rejection(StatEngineKind::Quantile { p });
            assert!(reason.contains("(0, 1)"), "p={p}: {reason}");
        }
        let cfg = SimConfig::new(1, 10.0).engines(vec![StatEngineKind::Quantile { p: 0.99 }]);
        cfg.validate().unwrap();
    }

    #[test]
    fn histogram_without_bins_is_rejected() {
        let reason = stat_engine_rejection(StatEngineKind::Histogram {
            lo: 0.0,
            hi: 1.0,
            bins: 0,
        });
        assert!(reason.contains("bins"), "{reason}");
    }

    #[test]
    fn histogram_with_an_empty_or_unbounded_range_is_rejected() {
        let inf = f64::INFINITY;
        for (lo, hi) in [
            (1.0, 1.0),
            (2.0, 1.0),
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
            (-inf, 1.0),
            (0.0, inf),
        ] {
            let reason = stat_engine_rejection(StatEngineKind::Histogram { lo, hi, bins: 4 });
            assert!(reason.contains("lo < hi"), "[{lo}, {hi}): {reason}");
        }
        let ok = StatEngineKind::Histogram {
            lo: -1.0,
            hi: 1.0,
            bins: 1,
        };
        SimConfig::new(1, 10.0)
            .engines(vec![ok])
            .validate()
            .unwrap();
    }

    #[test]
    fn kmeans_without_clusters_is_rejected() {
        let reason = stat_engine_rejection(StatEngineKind::KMeans { k: 0 });
        assert!(reason.contains("k >= 1"), "{reason}");
        let cfg = SimConfig::new(1, 10.0).engines(vec![StatEngineKind::KMeans { k: 1 }]);
        cfg.validate().unwrap();
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
        let cfg = cfg.retries(3).shard_timeout(5.0).heartbeat_period(0.1);
        assert_eq!(cfg.shard_retries, 3);
        assert_eq!(cfg.shard_timeout, Some(5.0));
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
        assert_eq!(err.field(), "shard_timeout");
        assert_eq!(
            err.to_string(),
            "invalid simulation config: shard_timeout (0.5) must be at least heartbeat_period \
             (1): the watchdog would declare every shard stalled between two heartbeats"
        );
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
        assert_eq!(err.field(), "workers");
        assert_eq!(
            err.reason(),
            "the tcp transport needs at least one worker address (host:port)"
        );
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
            assert_eq!(err.field(), "workers");
            assert_eq!(
                err.reason(),
                format!("worker address `{addr}` must be host:port with a valid port")
            );
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
