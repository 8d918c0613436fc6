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
//!
//! # Waiting: spin, then park
//!
//! A [`Receiver::recv`] on an empty channel, or a [`Sender::send`] on a
//! full ring, spins and yields briefly ([`Backoff`]), then parks its
//! thread. The peer whose action it waits for wakes it: every push wakes
//! a parked receiver, every pop of a bounded ring wakes a parked sender,
//! and closing the channel (dropping either end) wakes both. A pipeline
//! usually has more node threads than the machine has cores, and a parked
//! node leaves its core to the nodes that have work. There is no timer:
//! a lost wake-up is a hang, never extra latency.
//!
//! Each side has one waiter slot, a `parked` flag and the thread to
//! unpark, and the two halves of the protocol are Dekker-style:
//!
//! - **waiter** — store its thread in the slot, set `parked` (`SeqCst`),
//!   issue a `SeqCst` fence, then re-check the queue *and* `closed`; park
//!   only if both still say "wait", and clear `parked` on waking;
//! - **waker** — publish the item, the freed slot or the close, issue a
//!   `SeqCst` fence, read `parked`, and unpark only if it is set (taking
//!   the flag, so a burst of pushes costs one unpark).
//!
//! The fences order each side's store before its load, so at least one
//! side sees the other: either the waiter's re-check finds the item, or
//! the waker finds `parked` set. An unpark that lands before the `park`
//! leaves a token that makes the `park` return at once, so that order is
//! harmless too. The fence is the hot path's whole cost: one per push and
//! one per pop of a bounded ring, plus an unpark only when the peer is
//! parked. A pop cannot skip its fence when the ring did not look full:
//! without it the pop's read of the tail may be older than its own store
//! of the head, so a sender that filled the ring meanwhile and parked
//! would never be woken.
//!
//! A node that polls several inputs (the farm master, the unordered
//! collector) arms the slot of every input it waits on before one fence
//! and one re-check, then parks: whichever input acts first wakes it.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, Thread};

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
    /// The receiver's slot: armed while it parks on an empty queue.
    receiver: Waiter,
    /// The sender's slot: armed while it parks on a full ring.
    sender: Waiter,
}

impl<T> Shared<T> {
    fn new(queue: Flavor<T>) -> Arc<Self> {
        Arc::new(Shared {
            queue,
            receiver: Waiter::default(),
            sender: Waiter::default(),
        })
    }

    /// Marks the channel closed and wakes whichever side is parked.
    fn close(&self) {
        match &self.queue {
            Flavor::Bounded(q) => q.close(),
            Flavor::Unbounded { closed, .. } => closed.store(true, Ordering::Release),
        }
        fence(Ordering::SeqCst);
        self.receiver.wake();
        self.sender.wake();
    }

    fn is_closed(&self) -> bool {
        match &self.queue {
            Flavor::Bounded(q) => q.is_closed(),
            Flavor::Unbounded { closed, .. } => closed.load(Ordering::Acquire),
        }
    }

    /// Called only by the channel's one [`Sender`]; wakes a parked
    /// receiver after a successful push.
    fn try_push(&self, value: T) -> Result<(), T> {
        match &self.queue {
            // SAFETY: `Sender` is not Clone, so this is the only producer.
            Flavor::Bounded(q) => unsafe { q.try_push(value) }.map_err(|PushError(v)| v)?,
            // A push or pop cannot leave the deque inconsistent, so a
            // poisoned lock still guards a valid queue.
            Flavor::Unbounded { items, .. } => items
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(value),
        }
        fence(Ordering::SeqCst);
        self.receiver.wake();
        Ok(())
    }

    /// Called only by the channel's one [`Receiver`]; a pop from a bounded
    /// ring wakes a parked sender (an unbounded sender never parks).
    fn try_pop(&self) -> Option<T> {
        match &self.queue {
            Flavor::Bounded(q) => {
                // SAFETY: `Receiver` is not Clone, so this is the only consumer.
                let value = unsafe { q.try_pop() }?;
                fence(Ordering::SeqCst);
                self.sender.wake();
                Some(value)
            }
            Flavor::Unbounded { items, .. } => items
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front(),
        }
    }

    /// True when a receive would not wait: an item is queued or the
    /// channel is closed. The receiver's re-check before it parks.
    fn is_ready(&self) -> bool {
        let queued = match &self.queue {
            Flavor::Bounded(q) => !q.is_empty(),
            Flavor::Unbounded { items, .. } => !items
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_empty(),
        };
        queued || self.is_closed()
    }
}

/// One side's waiter slot (see the module docs for the protocol).
#[derive(Debug, Default)]
pub(crate) struct Waiter {
    parked: AtomicBool,
    /// The thread to unpark. A channel end may move between threads, so
    /// every arming stores the current one. Each update replaces the whole
    /// value, so a poisoned lock still holds a valid one.
    thread: Mutex<Option<Thread>>,
}

impl Waiter {
    /// The waiter's first step: announces the calling thread as parked on
    /// this slot. The caller then fences, re-checks and parks.
    fn arm(&self) {
        *self.thread.lock().unwrap_or_else(PoisonError::into_inner) = Some(thread::current());
        self.parked.store(true, Ordering::SeqCst);
    }

    /// Withdraws the announcement once the waiter is awake again.
    fn disarm(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }

    /// The waker's last step, after its publication and its fence: unparks
    /// the waiter if one is announced. Taking the flag makes one unpark
    /// serve however many wakers find it set.
    fn wake(&self) {
        if self.parked.load(Ordering::Relaxed) && self.parked.swap(false, Ordering::SeqCst) {
            let thread = self.thread.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(thread) = thread.as_ref() {
                thread.unpark();
            }
        }
    }
}

/// Parks the calling thread until `ready` may have turned true: arms every
/// slot in `waiters`, fences, re-checks `ready`, parks only if it is still
/// false, and disarms on waking. It may return spuriously; the caller
/// re-checks and calls again. The one place this crate parks a thread.
pub(crate) fn park_until<'a, I>(waiters: I, ready: impl FnOnce() -> bool)
where
    I: IntoIterator<Item = &'a Waiter> + Clone,
{
    for waiter in waiters.clone() {
        waiter.arm();
    }
    fence(Ordering::SeqCst);
    if !ready() {
        thread::park();
    }
    for waiter in waiters {
        waiter.disarm();
    }
}

/// Retries `attempt` until it yields: spins first, then parks on `waiter`
/// (whose peer's next action is what `attempt` waits for).
fn block_on<R>(waiter: &Waiter, mut attempt: impl FnMut() -> Option<R>) -> R {
    let mut backoff = Backoff::new();
    loop {
        if let Some(result) = attempt() {
            return result;
        }
        if !backoff.spin() {
            let mut result = None;
            park_until([waiter], || {
                result = attempt();
                result.is_some()
            });
            if let Some(result) = result {
                return result;
            }
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
    let shared = Shared::new(Flavor::Bounded(SpscQueue::new(capacity)));
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
    let shared = Shared::new(Flavor::Unbounded {
        items: Mutex::new(VecDeque::new()),
        closed: AtomicBool::new(false),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T: Send> Sender<T> {
    /// Sends `value`, blocking while the channel is full: a brief spin and
    /// a few yields, then the thread parks until the receiver pops or hangs
    /// up.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] with the value if the receiver was dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut value = Some(value);
        block_on(&self.shared.sender, || {
            let v = value
                .take()
                .expect("an attempt that failed put the value back");
            match self.try_send(v) {
                Ok(()) => Some(Ok(())),
                Err(TrySendError::Disconnected(v)) => Some(Err(SendError(v))),
                Err(TrySendError::Full(v)) => {
                    value = Some(v);
                    None
                }
            }
        })
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
    /// Receives the next item, blocking while the channel is empty: a
    /// brief spin and a few yields, then the thread parks until the sender
    /// pushes or hangs up.
    ///
    /// Returns `None` once the channel is empty *and* the sender is gone:
    /// the end-of-stream mark of FastFlow.
    pub fn recv(&self) -> Option<T> {
        block_on(&self.shared.receiver, || match self.try_recv() {
            Ok(v) => Some(Some(v)),
            Err(TryRecvError::Disconnected) => Some(None),
            Err(TryRecvError::Empty) => None,
        })
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

    /// True when a receive would not wait: an item is queued or the
    /// sender is gone.
    pub(crate) fn is_ready(&self) -> bool {
        self.shared.is_ready()
    }

    /// The slot a thread arms to be woken by this channel's sender.
    pub(crate) fn waiter(&self) -> &Waiter {
        &self.shared.receiver
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

    /// Runs `peer` on a thread until it has armed the slot `armed` picks
    /// (it is parked, or about to re-check and park), then `act`s on the
    /// other end, keeping what `act` returns alive, and expects `peer` to
    /// return within the guard.
    fn wake_a_parked_peer<E, R, K>(
        end: E,
        armed: impl Fn(&E) -> &Waiter,
        peer: impl FnOnce(&E) -> R + Send + 'static,
        act: impl FnOnce() -> K,
    ) -> R
    where
        E: Send + Sync + 'static,
        R: std::fmt::Debug + Send + 'static,
    {
        let end = Arc::new(end);
        let (done, result) = std::sync::mpsc::channel();
        let theirs = Arc::clone(&end);
        std::thread::spawn(move || done.send(peer(&theirs)));
        while !armed(&end).parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let _kept = act();
        result
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the parked peer was never woken")
    }

    #[test]
    fn a_push_wakes_a_parked_receiver() {
        let (tx, rx) = bounded::<u32>(1);
        let got = wake_a_parked_peer(
            rx,
            |rx| rx.waiter(),
            |rx| rx.recv(),
            move || {
                tx.send(7).unwrap();
                std::mem::forget(tx); // keep the channel open: only the push may wake
            },
        );
        assert_eq!(got, Some(7));
    }

    #[test]
    fn a_pop_wakes_a_parked_sender() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let got = wake_a_parked_peer(
            tx,
            |tx| &tx.shared.sender,
            |tx| tx.send(2),
            || {
                assert_eq!(rx.recv(), Some(1));
                rx
            },
        );
        assert_eq!(got, Ok(()));
    }

    #[test]
    fn dropping_the_sender_wakes_a_parked_receiver() {
        let (tx, rx) = bounded::<u32>(2);
        let got = wake_a_parked_peer(rx, |rx| rx.waiter(), |rx| rx.recv(), move || drop(tx));
        assert_eq!(got, None);
    }

    #[test]
    fn dropping_the_receiver_wakes_a_parked_sender() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let got = wake_a_parked_peer(
            tx,
            |tx| &tx.shared.sender,
            |tx| tx.send(2),
            move || drop(rx),
        );
        assert_eq!(got, Err(SendError(2)));
    }

    #[test]
    fn an_unbounded_receiver_parks_and_wakes_too() {
        let (tx, rx) = unbounded::<u32>();
        let got = wake_a_parked_peer(rx, |rx| rx.waiter(), |rx| rx.recv(), move || drop(tx));
        assert_eq!(got, None);
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
