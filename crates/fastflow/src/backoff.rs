//! The bounded spin a blocking operation tries before it parks.
//!
//! FastFlow's run-time busy-waits on its lock-free queues, which is the
//! right call when every node has a core to itself. Here a pipeline has
//! more node threads than the machine has cores, so a node that finds
//! nothing to do spins only briefly and then parks its thread until the
//! peer it waits for wakes it (the protocol is in [`crate::channel`]'s
//! module docs). The spin is two short phases: a few rounds of
//! `spin_loop` hints, enough to catch a peer that is about to act on
//! another core, then a few `yield_now`s, which hand this core to a peer
//! that needs it to act at all. Both are bounded; nothing here sleeps, so
//! after the spin the only way on is a wake-up.
//!
//! The yields earn their place on dense streams: a peer that finds the
//! node parked pays a futex wake for its item, and where items come a few
//! microseconds apart (the farm's quanta on `neuro_analysis_stream`), a
//! spin-only wait parked about 40 times as often and ran that workload
//! about 20 % slower on a 2-vCPU machine.

/// Doubling rounds of `spin_loop` hints, a few yields, then "park now".
///
/// # Examples
///
/// ```
/// use fastflow::backoff::Backoff;
///
/// let mut backoff = Backoff::new();
/// let mut rounds = 0;
/// while backoff.spin() {
///     rounds += 1;
/// }
/// assert!(rounds > 0, "a fresh backoff spins before it gives up");
/// assert!(!backoff.spin(), "a spent one stays spent until reset");
/// backoff.reset();
/// assert!(backoff.spin());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Backoff {
    step: u32,
}

/// Rounds of spinning; round `k` issues `2^k` `spin_loop` hints, so the
/// phase is 63 hints.
const SPIN_ROUNDS: u32 = 6;
/// Rounds of `yield_now` after the spin, before the caller parks.
const YIELD_ROUNDS: u32 = 16;

impl Backoff {
    /// Creates a fresh backoff with its whole budget.
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Spins or yields one round and returns `true`, or returns `false` at
    /// once when the budget is spent: the caller should park.
    pub fn spin(&mut self) -> bool {
        if self.step < SPIN_ROUNDS {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < SPIN_ROUNDS + YIELD_ROUNDS {
            std::thread::yield_now();
        } else {
            return false;
        }
        self.step += 1;
        true
    }

    /// Restores the whole budget after a successful operation.
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_escalates_and_resets() {
        let mut b = Backoff::new();
        for _ in 0..SPIN_ROUNDS + YIELD_ROUNDS {
            assert!(b.spin());
        }
        assert!(!b.spin(), "the budget is bounded: park next");
        b.reset();
        assert_eq!(b.step, 0);
        assert!(b.spin());
    }

    #[test]
    fn default_matches_new() {
        assert_eq!(Backoff::default().step, Backoff::new().step);
    }

    #[test]
    fn wait_saturates_instead_of_overflowing() {
        let mut b = Backoff::new();
        for _ in 0..1000 {
            b.spin();
        }
        assert_eq!(
            b.step,
            SPIN_ROUNDS + YIELD_ROUNDS,
            "a spent budget stops counting"
        );
    }
}
