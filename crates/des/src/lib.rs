//! # desim — the event calendar of the platform models
//!
//! The reproduction's stand-in for hardware we do not have: the paper
//! evaluates on a 32-core Nehalem, an Infiniband cluster,
//! Amazon EC2 and a Tesla K40; `distrt::cluster` models those platforms
//! as a discrete-event simulation of the pipeline, and this crate is its
//! calendar. Service times are fed from *measured* per-quantum costs of
//! the real Gillespie engine, so load imbalance in the models is
//! authentic — only the hardware timing is synthetic.
//!
//! A model owns a [`Scheduler`], seeds it, then drains it:
//! `while let Some(ev) = cal.pop() { … }`, scheduling follow-ups with
//! [`Scheduler::schedule_in`] as it handles each event.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

/// A pending event: fires at `time` with payload `event`.
#[derive(Debug)]
struct Scheduled<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reverse ordering: BinaryHeap is a max-heap, we need earliest-first.
        // Ties break by insertion sequence for determinism.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are not NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

/// An event calendar: events pop earliest first, ties in the order they
/// were scheduled.
///
/// # Examples
///
/// ```
/// use desim::Scheduler;
///
/// // A countdown: each event schedules the next one a second later.
/// let mut cal = Scheduler::new();
/// cal.schedule_in(0.0, 3u32);
/// let mut fired = 0;
/// while let Some(n) = cal.pop() {
///     fired += 1;
///     if n > 0 {
///         cal.schedule_in(1.0, n - 1);
///     }
/// }
/// assert_eq!(fired, 4);
/// assert_eq!(cal.now(), 3.0);
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    now: f64,
    seq: u64,
    queue: BinaryHeap<Scheduled<E>>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty calendar at time 0.
    pub fn new() -> Self {
        Scheduler {
            now: 0.0,
            seq: 0,
            queue: BinaryHeap::new(),
        }
    }

    /// Current simulation time: the time of the last popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `event` after `delay` (clamped at zero).
    ///
    /// # Panics
    ///
    /// Panics if `delay` is NaN.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(!delay.is_nan(), "delay must not be NaN");
        self.queue.push(Scheduled {
            time: self.now + delay.max(0.0),
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Removes the earliest event and advances [`now`](Scheduler::now) to
    /// its time; `None` once the calendar is empty.
    pub fn pop(&mut self) -> Option<E> {
        let next = self.queue.pop()?;
        self.now = next.time;
        Some(next.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut cal = Scheduler::new();
        for t in [3.0, 1.0, 2.0] {
            cal.schedule_in(t, t);
        }
        let mut seen = vec![];
        while let Some(t) = cal.pop() {
            assert_eq!(cal.now(), t);
            seen.push(t);
        }
        assert_eq!(seen, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut cal = Scheduler::new();
        for e in [1, 2, 3] {
            cal.schedule_in(1.0, e);
        }
        let seen: Vec<u32> = std::iter::from_fn(|| cal.pop()).collect();
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn schedule_in_clamps_negative_delay() {
        let mut cal = Scheduler::new();
        cal.schedule_in(2.0, true);
        let mut times = vec![];
        while let Some(again) = cal.pop() {
            times.push(cal.now());
            if again {
                cal.schedule_in(-5.0, false);
            }
        }
        assert_eq!(times, vec![2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "delay must not be NaN")]
    fn nan_delay_panics() {
        Scheduler::new().schedule_in(f64::NAN, ());
    }
}
