//! Fault-injection harness for the `cwc-shard` worker.
//!
//! Every failure mode the shard supervisor recovers from is exercisable
//! in-tree, driven by the [`FAULT_ENV`] environment variable on the
//! worker process — no special build, no test-only binary. The plan
//! format is
//!
//! ```text
//! CWC_SHARD_FAULT = kind[:key=value,key=value,...]
//! ```
//!
//! with kinds
//!
//! | kind            | effect at the trigger point                       |
//! |-----------------|---------------------------------------------------|
//! | `crash`         | stop writing frames and exit (EOF mid-stream)     |
//! | `stall`         | stop writing frames *and heartbeats*, stay alive  |
//! | `corrupt-frame` | emit a length-prefixed frame of garbage, then die |
//! | `garbage`       | emit raw non-frame bytes on its stream, then die  |
//! | `delay-start`   | sleep `ms` before starting work (and heartbeats)  |
//!
//! and keys
//!
//! - `shard=N` | `shard=any` — which shard index triggers (default: any);
//! - `attempt=N` | `attempt=any` — which attempt triggers (default: `0`,
//!   the first launch — so a retried slice runs clean and recovery tests
//!   converge);
//! - `cuts=N` — fire at the first frame written once `N` cuts are out
//!   (default `0`: before the first frame); ignored by `delay-start`;
//! - `ms=N` — milliseconds for `delay-start` (default `1000`).
//!
//! Examples: `crash:shard=1,cuts=3`, `stall:attempt=any`,
//! `corrupt-frame:cuts=5`, `delay-start:ms=2000,shard=0`.

use std::fmt;

/// Environment variable carrying a [`FaultPlan`] for `cwc-shard`.
pub const FAULT_ENV: &str = "CWC_SHARD_FAULT";

/// What the injected fault does when it fires. See the module docs for
/// the observable effect of each kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Stop writing frames and exit: the coordinator sees EOF before
    /// the end-of-stream report.
    Crash,
    /// Stop writing frames *and heartbeats* but keep the process alive:
    /// only the watchdog can catch this one.
    Stall,
    /// Write a well-formed length prefix followed by garbage payload
    /// bytes (a decode failure at the coordinator), then die.
    CorruptFrame,
    /// Write raw bytes that are not a frame at all (a corrupt length
    /// prefix at the coordinator), then die.
    Garbage,
    /// Sleep `ms` milliseconds before doing any work — long enough and
    /// the watchdog fires on a shard that never even started.
    DelayStart,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::Crash => "crash",
            FaultKind::Stall => "stall",
            FaultKind::CorruptFrame => "corrupt-frame",
            FaultKind::Garbage => "garbage",
            FaultKind::DelayStart => "delay-start",
        };
        f.write_str(s)
    }
}

/// A parsed fault-injection plan: which worker triggers, when, and what
/// happens. Parsed from [`FAULT_ENV`] by the `cwc-shard` worker at
/// startup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injected failure mode.
    pub kind: FaultKind,
    /// Trigger only on this shard index (`None`: any shard).
    pub shard: Option<u64>,
    /// Trigger only on this attempt number (`None`: any attempt).
    /// Defaults to `Some(0)` — only the first launch faults, so a
    /// requeued slice runs clean and recovery converges.
    pub attempt: Option<u32>,
    /// Fire at the first frame written once this many cuts are out.
    pub cuts: u64,
    /// Milliseconds to sleep for [`FaultKind::DelayStart`].
    pub ms: u64,
}

impl FaultPlan {
    /// Parses a plan from the [`FAULT_ENV`] variable; `Ok(None)` when
    /// the variable is unset or empty (the overwhelmingly common case).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed plan — the worker treats
    /// it as a protocol error rather than silently running fault-free.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var(FAULT_ENV) {
            Ok(s) if !s.trim().is_empty() => Self::parse(&s).map(Some),
            _ => Ok(None),
        }
    }

    /// Parses `kind[:key=value,...]` (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed piece.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let (kind, rest) = match s.split_once(':') {
            Some((k, r)) => (k, Some(r)),
            None => (s, None),
        };
        let kind = match kind {
            "crash" => FaultKind::Crash,
            "stall" => FaultKind::Stall,
            "corrupt-frame" => FaultKind::CorruptFrame,
            "garbage" => FaultKind::Garbage,
            "delay-start" => FaultKind::DelayStart,
            other => return Err(format!("unknown fault kind `{other}`")),
        };
        let mut plan = FaultPlan {
            kind,
            shard: None,
            attempt: Some(0),
            cuts: 0,
            ms: 1000,
        };
        for pair in rest.into_iter().flat_map(|r| r.split(',')) {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let Some((key, value)) = pair.split_once('=') else {
                return Err(format!("expected key=value, got `{pair}`"));
            };
            let bad = |e: &dyn fmt::Display| format!("bad value for `{key}`: {e}");
            match key {
                "shard" => {
                    plan.shard = match value {
                        "any" => None,
                        n => Some(n.parse().map_err(|e| bad(&e))?),
                    }
                }
                "attempt" => {
                    plan.attempt = match value {
                        "any" => None,
                        n => Some(n.parse().map_err(|e| bad(&e))?),
                    }
                }
                "cuts" => plan.cuts = value.parse().map_err(|e| bad(&e))?,
                "ms" => plan.ms = value.parse().map_err(|e| bad(&e))?,
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Whether this plan triggers for the given shard/attempt pair.
    pub fn applies(&self, shard: u64, attempt: u32) -> bool {
        // `Option::is_none_or` is past the workspace MSRV (1.75).
        self.shard.map_or(true, |s| s == shard) && self.attempt.map_or(true, |a| a == attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_kind_parses_with_defaults() {
        let p = FaultPlan::parse("crash").unwrap();
        assert_eq!(p.kind, FaultKind::Crash);
        assert_eq!(p.shard, None);
        assert_eq!(p.attempt, Some(0));
        assert_eq!(p.cuts, 0);
    }

    #[test]
    fn full_plans_parse() {
        let p = FaultPlan::parse("corrupt-frame:shard=2,attempt=1,cuts=7").unwrap();
        assert_eq!(p.kind, FaultKind::CorruptFrame);
        assert_eq!(p.shard, Some(2));
        assert_eq!(p.attempt, Some(1));
        assert_eq!(p.cuts, 7);
        let p = FaultPlan::parse("delay-start:ms=250,shard=any,attempt=any").unwrap();
        assert_eq!(p.kind, FaultKind::DelayStart);
        assert_eq!(p.ms, 250);
        assert_eq!(p.shard, None);
        assert_eq!(p.attempt, None);
    }

    #[test]
    fn malformed_plans_are_rejected_with_reasons() {
        assert!(FaultPlan::parse("explode").unwrap_err().contains("kind"));
        assert!(FaultPlan::parse("crash:cuts")
            .unwrap_err()
            .contains("key=value"));
        assert!(FaultPlan::parse("crash:cuts=abc")
            .unwrap_err()
            .contains("cuts"));
        assert!(FaultPlan::parse("crash:bogus=1")
            .unwrap_err()
            .contains("bogus"));
    }

    #[test]
    fn applicability_honours_shard_and_attempt_filters() {
        let p = FaultPlan::parse("stall:shard=1").unwrap();
        assert!(p.applies(1, 0));
        assert!(!p.applies(0, 0), "wrong shard");
        assert!(!p.applies(1, 1), "attempt defaults to first launch only");
        let any = FaultPlan::parse("stall:shard=any,attempt=any").unwrap();
        assert!(any.applies(3, 9));
    }
}
