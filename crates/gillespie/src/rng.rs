//! Deterministic random number plumbing.
//!
//! Every simulation instance owns its own PRNG, seeded by mixing a base
//! seed with the instance id. Runs are therefore reproducible bit-for-bit
//! for a fixed base seed regardless of how instances are scheduled across
//! workers, hosts or the simulated GPGPU — which is what lets the
//! integration tests assert that the distributed and GPU execution paths
//! produce *identical* trajectories to the multicore one.
//!
//! ## Draw discipline
//!
//! Reproducibility needs more than fixed seeds: every engine consumes its
//! instance stream in a *documented, state-determined order*, so a
//! trajectory is a pure function of `(model, base seed, instance)`. Per
//! step:
//!
//! - **direct method** ([`crate::ssa::SsaEngine`]): one uniform in
//!   `[ε, 1)` for the exponential waiting time (drawn once and kept
//!   pending across quantum boundaries), one uniform in `[0, a0)` for the
//!   reaction selection **iff more than one reaction is enabled** (a
//!   single-channel selection is deterministic and consumes nothing — the
//!   SSA, hybrid and batched goldens pin this), and one uniform in
//!   `[0, 1)` for the assignment choice;
//! - **adaptive tau-leaping** ([`crate::adaptive::AdaptiveTauEngine`]):
//!   per drawn transition, in this order — (a) when the CGP bound falls
//!   below the SSA-fallback threshold, one uniform in `[ε, 1)` for the
//!   waiting time and one uniform in `[0, a0)` for the selection (the
//!   selection uniform is *always* consumed, single-channel states
//!   included — unlike the direct method, so the two streams are not
//!   interchangeable); otherwise (b) one uniform in `[ε, 1)` for the
//!   critical block's exponential clock **iff any critical reaction is
//!   enabled**, then one Poisson variate per enabled *non-critical*
//!   reaction in rule order, then one uniform in `[0, a0_crit)` for the
//!   critical selection **iff the critical clock fired first**. A
//!   negativity overshoot halves the bound and re-runs (b) from the top —
//!   every draw remains a pure function of the committed state and the
//!   stream position, so slicing cannot perturb it;
//! - **hybrid SSA/tau** ([`crate::hybrid::HybridEngine`]): *two* streams.
//!   The exact phase consumes the instance's primary stream through an
//!   embedded direct-method engine, with exactly the direct-method
//!   discipline above — a hybrid trajectory is bit-for-bit identical to
//!   plain SSA until the first phase switch. The leap phase consumes a
//!   dedicated stream seeded from `base_seed ^ LEAP_STREAM_SALT` (same
//!   instance mixing), drawing one Poisson variate per enabled reaction
//!   in rule order per *candidate* leap — including candidates that
//!   negativity-halving shrinks or abandons entirely (an abandoned
//!   candidate still advanced the leap stream by one draw set). The
//!   switch test itself (`τ·a0` vs the threshold) is a pure function of
//!   the committed state and consumes nothing, and the primary stream is
//!   never touched outside exact segments — so the exact stream's
//!   alignment is independent of how often leaping engages;
//! - **batched SSA** ([`crate::engine::EngineKind::Batched`]): replica
//!   `r` of a task starting at instance `f` is the scalar direct-method
//!   stream of instance `f + r` — the replica *is* a scalar
//!   [`crate::ssa::SsaEngine`] on that stream, so the task's width never
//!   moves a draw.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The PRNG used by all simulation engines.
pub type SimRng = StdRng;

/// SplitMix64 finaliser; decorrelates consecutive instance ids.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the seed of simulation instance `instance` from `base`.
pub fn instance_seed(base: u64, instance: u64) -> u64 {
    splitmix64(base ^ splitmix64(instance.wrapping_add(0x5851_f42d_4c95_7f2d)))
}

/// Builds the PRNG for one simulation instance.
///
/// # Examples
///
/// ```
/// use gillespie::rng::sim_rng;
/// use rand::RngCore;
///
/// let mut a = sim_rng(42, 0);
/// let mut b = sim_rng(42, 0);
/// assert_eq!(a.next_u64(), b.next_u64()); // reproducible
/// ```
pub fn sim_rng(base: u64, instance: u64) -> SimRng {
    SimRng::seed_from_u64(instance_seed(base, instance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn same_seed_same_stream() {
        let mut a = sim_rng(7, 3);
        let mut b = sim_rng(7, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_instances_differ() {
        let mut a = sim_rng(7, 0);
        let mut b = sim_rng(7, 1);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5, "instance streams should be decorrelated");
    }

    #[test]
    fn different_bases_differ() {
        assert_ne!(instance_seed(1, 0), instance_seed(2, 0));
    }

    #[test]
    fn consecutive_instance_seeds_are_spread_out() {
        // SplitMix64 should not leave consecutive seeds close together.
        let s0 = instance_seed(0, 0);
        let s1 = instance_seed(0, 1);
        assert!(s0.abs_diff(s1) > 1 << 32);
    }
}
