//! Safe typed channels over the lock-free SPSC queue.
//!
//! A channel is the FastFlow *stream*: the arrows of Fig. 2 in the paper.
//! [`Sender`] and [`Receiver`] own their side of the queue (neither is
//! `Clone`), which is what makes handing out the `unsafe` queue operations
//! sound. Every pipeline edge is a [`bounded`] channel: backpressure
//! between stages, and on the farm's feedback edge a plain bound — the
//! master never blocks, so its in-flight count bounds the notice edge.
//! [`unbounded`] is a locked queue for code that drives stages by hand on
//! one thread, such as the sequential oracle; no pipeline edge uses it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::backoff::Backoff;
use crate::spsc::{PushError, SpscQueue};

/// Error returned when sending on a channel whose receiver is gone.
///
/// Carries the unsent value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel is disconnected")
    }
}

impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`Sender::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is full; the value is handed back.
    Full(T),
    /// The receiver was dropped; the value is handed back.
    Disconnected(T),
}

impl<T> std::fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "channel is full"),
            TrySendError::Disconnected(_) => write!(f, "channel is disconnected"),
        }
    }
}

impl<T: std::fmt::Debug> std::error::Error for TrySendError<T> {}

// `Flavor` only ever lives inside the `Arc<Shared<_>>` a channel hands
// out, so the bounded variant's cache-padded bulk is heap-resident and
// never copied; boxing it would only add a pointer chase to the hot path.
#[allow(clippy::large_enum_variant)]
enum Flavor<T> {
    Bounded(SpscQueue<T>),
    Unbounded {
        items: Mutex<VecDeque<T>>,
        closed: AtomicBool,
    },
}

struct Shared<T> {
    queue: Flavor<T>,
}

impl<T> Shared<T> {
    fn close(&self) {
        match &self.queue {
            Flavor::Bounded(q) => q.close(),
            Flavor::Unbounded { closed, .. } => closed.store(true, Ordering::Release),
        }
    }

    fn is_closed(&self) -> bool {
        match &self.queue {
            Flavor::Bounded(q) => q.is_closed(),
            Flavor::Unbounded { closed, .. } => closed.load(Ordering::Acquire),
        }
    }

    /// Called only by the channel's one [`Sender`].
    fn try_push(&self, value: T) -> Result<(), T> {
        match &self.queue {
            // SAFETY: `Sender` is not Clone, so this is the only producer.
            Flavor::Bounded(q) => unsafe { q.try_push(value) }.map_err(|PushError(v)| v),
            // A push or pop cannot leave the deque inconsistent, so a
            // poisoned lock still guards a valid queue.
            Flavor::Unbounded { items, .. } => {
                items
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push_back(value);
                Ok(())
            }
        }
    }

    /// Called only by the channel's one [`Receiver`].
    fn try_pop(&self) -> Option<T> {
        match &self.queue {
            // SAFETY: `Receiver` is not Clone, so this is the only consumer.
            Flavor::Bounded(q) => unsafe { q.try_pop() },
            Flavor::Unbounded { items, .. } => items
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front(),
        }
    }
}

/// Producing side of a channel. Exactly one exists per channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Consuming side of a channel. Exactly one exists per channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded SPSC channel with backpressure.
///
/// # Examples
///
/// ```
/// let (tx, rx) = fastflow::channel::bounded(8);
/// tx.send(42u32).unwrap();
/// drop(tx);
/// assert_eq!(rx.recv(), Some(42));
/// assert_eq!(rx.recv(), None); // sender dropped => end of stream
/// ```
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn bounded<T: Send>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Flavor::Bounded(SpscQueue::new(capacity)),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Creates an unbounded channel (sends never block): a locked deque.
///
/// No pipeline edge uses it — they are all [`bounded`]. It serves code
/// that plays several stages on one thread, where a bounded edge would
/// need draining before every push.
pub fn unbounded<T: Send>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Flavor::Unbounded {
            items: Mutex::new(VecDeque::new()),
            closed: AtomicBool::new(false),
        },
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T: Send> Sender<T> {
    /// Sends `value`, blocking (with backoff) while the channel is full.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] with the value if the receiver was dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut value = value;
        let mut backoff = Backoff::new();
        loop {
            if self.shared.is_closed() {
                return Err(SendError(value));
            }
            match self.shared.try_push(value) {
                Ok(()) => return Ok(()),
                Err(v) => {
                    value = v;
                    backoff.wait();
                }
            }
        }
    }

    /// Attempts to send without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when a bounded channel has no free slot;
    /// [`TrySendError::Disconnected`] when the receiver was dropped.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        if self.shared.is_closed() {
            return Err(TrySendError::Disconnected(value));
        }
        self.shared.try_push(value).map_err(TrySendError::Full)
    }

    /// True when the receiving side has been dropped.
    pub fn is_disconnected(&self) -> bool {
        self.shared.is_closed()
    }
}

impl<T: Send> Receiver<T> {
    /// Receives the next item, blocking (with backoff) while empty.
    ///
    /// Returns `None` once the channel is empty *and* the sender is gone:
    /// the end-of-stream mark of FastFlow.
    pub fn recv(&self) -> Option<T> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_recv() {
                Ok(v) => return Some(v),
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => backoff.wait(),
            }
        }
    }

    /// Attempts to receive without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when no item is queued yet;
    /// [`TryRecvError::Disconnected`] at end of stream.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match self.shared.try_pop() {
            Some(v) => Ok(v),
            // Re-check after observing closed: the sender may have pushed
            // between our pop and its close.
            None if self.shared.is_closed() => {
                self.shared.try_pop().ok_or(TryRecvError::Disconnected)
            }
            None => Err(TryRecvError::Empty),
        }
    }

    /// True when the sender is gone; items may still be queued.
    pub fn is_disconnected(&self) -> bool {
        self.shared.is_closed()
    }

    /// Iterates over items until end of stream, blocking between items.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No item available right now.
    Empty,
    /// Channel closed and drained: end of stream.
    Disconnected,
}

impl std::fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "channel is empty"),
            TryRecvError::Disconnected => write!(f, "channel is disconnected"),
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Blocking iterator over received items; see [`Receiver::iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T: Send> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.rx.recv()
    }
}

impl<'a, T: Send> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.shared.close();
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.close();
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("closed", &self.shared.is_closed())
            .finish()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("closed", &self.shared.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_roundtrip_and_eos() {
        let (tx, rx) = bounded(4);
        tx.send(1u32).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn unbounded_roundtrip_and_eos() {
        let (tx, rx) = unbounded();
        for i in 0..2000u32 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<u32> = rx.iter().collect();
        assert_eq!(got.len(), 2000);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn unbounded_try_recv_pops_in_push_order_then_empty() {
        let (tx, rx) = unbounded();
        tx.send(1u32).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn unbounded_keeps_fifo_and_eos_across_threads() {
        let (tx, rx) = unbounded();
        let total = 20_000u64;
        let producer = std::thread::spawn(move || {
            for i in 0..total {
                tx.send(i).unwrap();
                if i % 1024 == 0 {
                    std::thread::yield_now();
                }
            }
            // Dropping `tx` here is the end of stream.
        });
        let mut expected = 0u64;
        for v in rx.iter() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, total);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        producer.join().unwrap();
    }

    #[test]
    fn unbounded_drop_runs_destructors_of_queued_items() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = unbounded();
        for _ in 0..600 {
            tx.send(Counted).unwrap();
        }
        drop(rx);
        assert!(tx.send(Counted).is_err(), "refused and dropped");
        drop(tx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 601);
    }

    #[test]
    fn try_send_reports_full_then_succeeds_after_pop() {
        let (tx, rx) = bounded(1);
        tx.try_send(1u8).unwrap();
        match tx.try_send(2) {
            Err(TrySendError::Full(2)) => {}
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(2).unwrap();
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = bounded(2);
        drop(rx);
        assert_eq!(tx.send(7u8), Err(SendError(7)));
        assert!(tx.is_disconnected());
    }

    #[test]
    fn try_recv_empty_vs_disconnected() {
        let (tx, rx) = bounded::<u8>(2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn items_sent_before_close_are_still_delivered() {
        let (tx, rx) = bounded(8);
        for i in 0..5u8 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<u8> = rx.iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn blocking_send_wakes_up_when_consumer_drains() {
        let (tx, rx) = bounded(1);
        tx.send(0u64).unwrap();
        let producer = std::thread::spawn(move || {
            // This send must block until the consumer pops.
            tx.send(1).unwrap();
        });
        std::thread::yield_now();
        assert_eq!(rx.recv(), Some(0));
        assert_eq!(rx.recv(), Some(1));
        producer.join().unwrap();
    }

    #[test]
    fn cross_thread_stream_of_structs() {
        #[derive(Debug, PartialEq)]
        struct Item {
            id: usize,
            payload: Vec<u64>,
        }
        let (tx, rx) = bounded(16);
        let producer = std::thread::spawn(move || {
            for id in 0..1000 {
                tx.send(Item {
                    id,
                    payload: vec![id as u64; 8],
                })
                .unwrap();
            }
        });
        let mut next = 0;
        for item in rx.iter() {
            assert_eq!(item.id, next);
            assert_eq!(item.payload[0], next as u64);
            next += 1;
        }
        assert_eq!(next, 1000);
        producer.join().unwrap();
    }
}
