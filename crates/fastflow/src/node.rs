//! Processing nodes: the `ff_node` abstraction of FastFlow.
//!
//! A stream network is built from two kinds of user-defined nodes:
//! [`Source`] (stream head, produces items) and [`Stage`] (transforms
//! items, possibly 1-to-many or many-to-1). The white boxes of the paper's
//! Fig. 2 are exactly such nodes; the grey boxes
//! (dispatch/gather/scheduling) are generated by the pattern combinators in
//! [`crate::pipeline`], [`crate::farm`] and [`crate::master_worker`]. The
//! stream tail is whoever drains the last channel:
//! [`Pipeline::collect`](crate::pipeline::Pipeline::collect) or the receiver
//! of [`Pipeline::into_receiver`](crate::pipeline::Pipeline::into_receiver).

use crate::channel::Sender;

/// Stream head: produces the input stream of a network.
///
/// Equivalent to a FastFlow node whose `svc` is fed `GO_ON` until it returns
/// `EOS`. Any `Iterator` with `Send` items is a `Source` via the blanket
/// impl, so `vec.into_iter()` can seed a pipeline directly and a closure
/// source is `std::iter::from_fn`.
pub trait Source: Send + 'static {
    /// Items produced by this source.
    type Out: Send + 'static;

    /// Produces the next stream item, or `None` at end of stream.
    fn next_item(&mut self) -> Option<Self::Out>;
}

impl<I> Source for I
where
    I: Iterator + Send + 'static,
    I::Item: Send + 'static,
{
    type Out = I::Item;

    fn next_item(&mut self) -> Option<Self::Out> {
        self.next()
    }
}

/// Intermediate node: transforms the stream.
///
/// `on_item` may emit zero, one, or many outputs per input through the
/// [`Outbox`], which models FastFlow's `ff_send_out`.
pub trait Stage: Send + 'static {
    /// Items consumed by this stage.
    type In: Send + 'static;
    /// Items produced by this stage.
    type Out: Send + 'static;

    /// Processes one input item, emitting any outputs into `out`.
    fn on_item(&mut self, item: Self::In, out: &mut Outbox<'_, Self::Out>);

    /// Called once at end of stream; a last chance to flush buffered state.
    fn on_end(&mut self, out: &mut Outbox<'_, Self::Out>) {
        let _ = out;
    }
}

/// Output port handed to [`Stage::on_item`]; emits items downstream.
///
/// Emission blocks (with backoff) when the downstream bounded channel is
/// full, which is how backpressure propagates through a pipeline. If the
/// downstream consumer disappears, emission becomes a no-op and the fact is
/// recorded so the driving loop can stop the stage early.
#[derive(Debug)]
pub struct Outbox<'a, T> {
    tx: &'a Sender<T>,
    disconnected: bool,
    pushed: u64,
}

impl<'a, T: Send> Outbox<'a, T> {
    /// Wraps a sender as an outbox.
    ///
    /// Exposed so stages can be driven standalone (sequential baselines,
    /// unit tests) outside a spawned pipeline.
    pub fn new(tx: &'a Sender<T>) -> Self {
        Outbox {
            tx,
            disconnected: false,
            pushed: 0,
        }
    }

    /// Sends `item` downstream, blocking while the channel is full.
    pub fn push(&mut self, item: T) {
        if self.tx.send(item).is_err() {
            self.disconnected = true;
        } else {
            self.pushed += 1;
        }
    }

    /// True once the downstream receiver has gone away.
    pub fn is_disconnected(&self) -> bool {
        self.disconnected
    }

    /// Number of items successfully emitted through this outbox.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }
}

/// Builds a [`Stage`] from a closure emitting exactly one output per input.
///
/// # Examples
///
/// ```
/// use fastflow::node::map_stage;
/// use fastflow::pipeline::Pipeline;
///
/// let doubled: Vec<i64> = Pipeline::from_source(vec![1i64, 2, 3].into_iter())
///     .stage(map_stage(|x: i64| x * 2))
///     .collect()
///     .unwrap();
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn map_stage<In, Out, F>(f: F) -> MapStage<In, Out, F>
where
    In: Send + 'static,
    Out: Send + 'static,
    F: FnMut(In) -> Out + Send + 'static,
{
    MapStage {
        f,
        _marker: std::marker::PhantomData,
    }
}

/// Stage adapter returned by [`map_stage`].
#[derive(Debug)]
pub struct MapStage<In, Out, F> {
    f: F,
    _marker: std::marker::PhantomData<fn(In) -> Out>,
}

impl<In, Out, F> Stage for MapStage<In, Out, F>
where
    In: Send + 'static,
    Out: Send + 'static,
    F: FnMut(In) -> Out + Send + 'static,
{
    type In = In;
    type Out = Out;

    fn on_item(&mut self, item: In, out: &mut Outbox<'_, Out>) {
        out.push((self.f)(item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel;

    #[test]
    fn iterator_is_a_source() {
        let mut src = vec![1, 2, 3].into_iter();
        assert_eq!(Source::next_item(&mut src), Some(1));
    }

    #[test]
    fn source_fn_yields_until_none() {
        let mut n = 0;
        // A closure source is `std::iter::from_fn` through the blanket impl.
        let mut src = std::iter::from_fn(move || {
            n += 1;
            if n <= 3 {
                Some(n)
            } else {
                None
            }
        });
        let mut got = Vec::new();
        while let Some(v) = src.next_item() {
            got.push(v);
        }
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn outbox_pushes_through_channel() {
        let (tx, rx) = channel::bounded(4);
        let mut out = Outbox::new(&tx);
        out.push(10u8);
        out.push(20);
        assert!(!out.is_disconnected());
        assert_eq!(rx.recv(), Some(10));
        assert_eq!(rx.recv(), Some(20));
    }

    #[test]
    fn outbox_detects_disconnection() {
        let (tx, rx) = channel::bounded(1);
        drop(rx);
        let mut out = Outbox::new(&tx);
        out.push(1u8);
        assert!(out.is_disconnected());
    }

    #[test]
    fn map_stage_transforms() {
        let (tx, rx) = channel::bounded(4);
        let mut stage = map_stage(|x: i32| x + 1);
        let mut out = Outbox::new(&tx);
        stage.on_item(41, &mut out);
        assert_eq!(rx.recv(), Some(42));
    }
}
