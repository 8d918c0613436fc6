//! The pipeline core pattern.
//!
//! `Pipeline` is a type-state builder: each combinator spawns the node's
//! thread immediately and returns a `Pipeline` whose type parameter is the
//! item type currently flowing out of the network's tail. Stages are
//! connected by bounded SPSC channels ([`crate::channel`]), so backpressure
//! propagates upstream exactly as in FastFlow's default (blocking-push)
//! configuration.
//!
//! # Examples
//!
//! ```
//! use fastflow::node::map_stage;
//! use fastflow::pipeline::Pipeline;
//!
//! let out: Vec<i64> = Pipeline::from_source(0..5i64)
//!     .stage(map_stage(|x| x * x))
//!     .named_stage("offset", map_stage(|x| x + 1))
//!     .collect()
//!     .unwrap();
//! assert_eq!(out, vec![1, 2, 5, 10, 17]);
//! ```

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::channel::{self, Receiver, Sender};
use crate::error::{panic_message, Error, Result};
use crate::metrics::{NodeStats, RunStats, StatsCollector};
use crate::node::{Outbox, Source, Stage};

/// Default capacity of inter-stage channels.
///
/// FastFlow defaults to short queues between pipeline stages; 64 slots keep
/// stages decoupled without hiding load imbalance from the schedulers.
pub const DEFAULT_CAPACITY: usize = 64;

/// A partially built stream network whose tail currently emits `T`.
#[derive(Debug)]
pub struct Pipeline<T: Send + 'static> {
    pub(crate) rx: Receiver<T>,
    pub(crate) handles: Vec<(String, JoinHandle<()>)>,
    pub(crate) stats: StatsCollector,
    pub(crate) capacity: usize,
}

impl<T: Send + 'static> Pipeline<T> {
    /// Starts a network from a [`Source`] with the default channel capacity.
    pub fn from_source<S>(source: S) -> Pipeline<T>
    where
        S: Source<Out = T>,
    {
        Pipeline::from_source_with_capacity(source, DEFAULT_CAPACITY)
    }

    /// Starts a network from a [`Source`] using `capacity` for all channels.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn from_source_with_capacity<S>(source: S, capacity: usize) -> Pipeline<T>
    where
        S: Source<Out = T>,
    {
        assert!(capacity > 0, "channel capacity must be non-zero");
        let stats = StatsCollector::new();
        let (tx, rx) = channel::bounded(capacity);
        let name = "pipeline.source".to_owned();
        let handle = spawn_source(name.clone(), source, tx, stats.clone());
        Pipeline {
            rx,
            handles: vec![(name, handle)],
            stats,
            capacity,
        }
    }

    /// Appends a named [`Stage`], spawning its thread.
    pub fn named_stage<St, U>(mut self, name: &str, stage: St) -> Pipeline<U>
    where
        U: Send + 'static,
        St: Stage<In = T, Out = U>,
    {
        let (tx, rx) = channel::bounded(self.capacity);
        let name = name.to_owned();
        let handle = spawn_stage(name.clone(), stage, self.rx, tx, self.stats.clone());
        self.handles.push((name, handle));
        Pipeline {
            rx,
            handles: self.handles,
            stats: self.stats,
            capacity: self.capacity,
        }
    }

    /// Appends a [`Stage`] with an auto-generated name.
    pub fn stage<St, U>(self, stage: St) -> Pipeline<U>
    where
        U: Send + 'static,
        St: Stage<In = T, Out = U>,
    {
        let name = format!("pipeline.stage.{}", self.handles.len());
        self.named_stage(&name, stage)
    }

    /// Runs the network, collecting every emitted item into a `Vec`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::StagePanicked`] if any node thread panicked.
    pub fn collect(self) -> Result<Vec<T>> {
        let items = self.rx.iter().collect();
        join_all(self.handles)?;
        Ok(items)
    }

    /// Detaches the tail channel for manual consumption.
    ///
    /// The returned [`PipelineHandle`] must be joined after the receiver is
    /// drained (or dropped, which winds the network down from the tail) to
    /// surface panics and obtain statistics.
    pub fn into_receiver(self) -> (Receiver<T>, PipelineHandle) {
        (
            self.rx,
            PipelineHandle {
                handles: self.handles,
                stats: self.stats,
            },
        )
    }
}

/// Join handle for a detached pipeline; see [`Pipeline::into_receiver`].
#[derive(Debug)]
pub struct PipelineHandle {
    handles: Vec<(String, JoinHandle<()>)>,
    stats: StatsCollector,
}

impl PipelineHandle {
    /// Waits for every node thread and returns the run statistics.
    ///
    /// # Errors
    ///
    /// Returns [`Error::StagePanicked`] if any node thread panicked.
    pub fn join(self) -> Result<RunStats> {
        join_all(self.handles)?;
        Ok(self.stats.finish())
    }
}

fn join_all(handles: Vec<(String, JoinHandle<()>)>) -> Result<()> {
    let mut first_panic = None;
    for (name, handle) in handles {
        if let Err(payload) = handle.join() {
            let err = Error::StagePanicked {
                stage: name,
                message: panic_message(payload),
            };
            first_panic.get_or_insert(err);
        }
    }
    match first_panic {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

fn spawn_source<S>(
    name: String,
    mut source: S,
    tx: Sender<S::Out>,
    stats: StatsCollector,
) -> JoinHandle<()>
where
    S: Source,
{
    spawn_named(name.clone(), move || {
        let start = Instant::now();
        let mut busy = Duration::ZERO;
        let mut produced = 0u64;
        loop {
            let t0 = Instant::now();
            let item = source.next_item();
            busy += t0.elapsed();
            match item {
                Some(item) => {
                    if tx.send(item).is_err() {
                        break; // downstream gone: stop producing
                    }
                    produced += 1;
                }
                None => break,
            }
        }
        stats.record(NodeStats {
            name,
            items_in: 0,
            items_out: produced,
            busy,
            wall: start.elapsed(),
        });
    })
}

fn spawn_stage<St>(
    name: String,
    mut stage: St,
    rx: Receiver<St::In>,
    tx: Sender<St::Out>,
    stats: StatsCollector,
) -> JoinHandle<()>
where
    St: Stage,
{
    spawn_named(name.clone(), move || {
        let start = Instant::now();
        let mut busy = Duration::ZERO;
        let mut items_in = 0u64;
        let mut outbox = Outbox::new(&tx);
        while let Some(item) = rx.recv() {
            items_in += 1;
            let t0 = Instant::now();
            stage.on_item(item, &mut outbox);
            busy += t0.elapsed();
            if outbox.is_disconnected() {
                break;
            }
        }
        let t0 = Instant::now();
        stage.on_end(&mut outbox);
        busy += t0.elapsed();
        let items_out = outbox.pushed();
        stats.record(NodeStats {
            name,
            items_in,
            items_out,
            busy,
            wall: start.elapsed(),
        });
    })
}

pub(crate) fn spawn_named<F>(name: String, f: F) -> JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("failed to spawn node thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::map_stage;

    #[test]
    fn identity_pipeline_preserves_order() {
        let out: Vec<u32> = Pipeline::from_source(0..100u32).collect().unwrap();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn three_stage_pipeline_composes() {
        let out: Vec<i64> = Pipeline::from_source(1..=5i64)
            .stage(map_stage(|x| x * 10))
            .stage(map_stage(|x| x + 1))
            .collect()
            .unwrap();
        assert_eq!(out, vec![11, 21, 31, 41, 51]);
    }

    #[test]
    fn flat_stage_expands_stream() {
        /// One-to-many: `n` becomes `n` copies of itself.
        struct Repeat;
        impl Stage for Repeat {
            type In = u32;
            type Out = u32;
            fn on_item(&mut self, n: u32, out: &mut Outbox<'_, u32>) {
                for _ in 0..n {
                    out.push(n);
                }
            }
        }
        let out: Vec<u32> = Pipeline::from_source(vec![2u32, 0, 3].into_iter())
            .stage(Repeat)
            .collect()
            .unwrap();
        assert_eq!(out, vec![2, 2, 3, 3, 3]);
    }

    #[test]
    fn stage_panic_is_reported_with_name() {
        let result = Pipeline::from_source(0..10u32)
            .named_stage(
                "exploder",
                map_stage(|x: u32| {
                    if x == 5 {
                        panic!("kaboom");
                    }
                    x
                }),
            )
            .collect();
        match result {
            Err(Error::StagePanicked { stage, message }) => {
                assert_eq!(stage, "exploder");
                assert_eq!(message, "kaboom");
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn stats_report_source_and_stage_counts() {
        let (rx, handle) = Pipeline::from_source(0..50u32)
            .named_stage("double", map_stage(|x| x * 2))
            .into_receiver();
        assert_eq!(rx.iter().count(), 50);
        let stats = handle.join().unwrap();
        assert_eq!(stats.node("pipeline.source").unwrap().items_out, 50);
        assert_eq!(stats.node("double").unwrap().items_in, 50);
    }

    #[test]
    fn into_receiver_allows_manual_drain() {
        let (rx, handle) = Pipeline::from_source(0..10u32).into_receiver();
        let got: Vec<u32> = rx.iter().collect();
        assert_eq!(got.len(), 10);
        handle.join().unwrap();
    }

    #[test]
    fn tiny_capacity_still_completes() {
        let out: Vec<u32> = crate::tests::within_timeout(|| {
            Pipeline::from_source_with_capacity(0..1000u32, 1)
                .stage(map_stage(|x| x))
                .collect()
        })
        .unwrap();
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn early_sink_break_stops_network() {
        // The sink is whoever holds the tail receiver: once it is gone the
        // stage sees a disconnected outbox, stops, and the source follows.
        let (rx, handle) = Pipeline::from_source(0..u32::MAX)
            .named_stage("id", map_stage(|x: u32| x))
            .into_receiver();
        assert_eq!(rx.iter().take(10).count(), 10);
        drop(rx);
        let stats = handle.join().unwrap();
        assert!(stats.node("id").unwrap().items_in < u64::from(u32::MAX));
    }
}
