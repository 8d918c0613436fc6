//! Progressive backoff used by blocking queue operations.
//!
//! FastFlow's run-time busy-waits on its lock-free queues; on a dedicated
//! many-core node that is the right call, but on shared (or single-core)
//! machines pure spinning starves the peer thread. [`Backoff`] implements the
//! usual escalation ladder: a few `spin_loop` hints, then `yield_now`, then
//! short sleeps, so progress is made even when producer and consumer share
//! one hardware thread.

use std::thread;
use std::time::Duration;

/// Escalating wait strategy for lock-free retry loops.
///
/// # Examples
///
/// ```
/// use fastflow::backoff::Backoff;
///
/// let mut backoff = Backoff::new();
/// let mut tries = 0;
/// loop {
///     tries += 1;
///     if tries == 3 {
///         break;
///     }
///     backoff.wait();
/// }
/// assert_eq!(tries, 3);
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    step: u32,
}

/// Number of rounds spent issuing `spin_loop` hints before yielding.
const SPIN_ROUNDS: u32 = 6;
/// Number of rounds spent yielding before sleeping.
const YIELD_ROUNDS: u32 = 16;
/// Sleep quantum once the ladder is exhausted.
const SLEEP: Duration = Duration::from_micros(50);

impl Backoff {
    /// Creates a fresh backoff at the start of the ladder.
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Waits one round, escalating from spinning to yielding to sleeping.
    pub fn wait(&mut self) {
        if self.step < SPIN_ROUNDS {
            for _ in 0..(1 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < SPIN_ROUNDS + YIELD_ROUNDS {
            thread::yield_now();
        } else {
            thread::sleep(SLEEP);
        }
        self.step = self.step.saturating_add(1);
    }

    /// Resets the ladder after a successful operation.
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_escalates_and_resets() {
        let mut b = Backoff::new();
        assert_eq!(b.step, 0);
        for _ in 0..(SPIN_ROUNDS + YIELD_ROUNDS) {
            b.wait();
        }
        assert_eq!(b.step, SPIN_ROUNDS + YIELD_ROUNDS, "next wait sleeps");
        b.reset();
        assert_eq!(b.step, 0);
    }

    #[test]
    fn default_matches_new() {
        assert_eq!(Backoff::default().step, Backoff::new().step);
    }

    #[test]
    fn wait_saturates_instead_of_overflowing() {
        let mut b = Backoff::new();
        b.step = u32::MAX - 1;
        b.wait();
        b.wait();
        assert_eq!(b.step, u32::MAX);
    }
}
