//! Deterministic fault injection for the transport layer.
//!
//! The paper's §6 dispatch protocol assumes every provider answers
//! every signed sub-query envelope; real federations (SMCQL-style
//! deployments) see dropped frames, truncated writes, connection
//! resets, and stalled peers. This module makes those failures
//! *reproducible*: a [`FaultPlan`] is a pure function from
//! `(seed, edge, frame_index)` to a [`FaultAction`], consulted by the
//! retrying wire (see [`transport`](crate::transport)) before every
//! delivery attempt. The same plan drives the in-proc and the TCP
//! backend to the bit-identical schedule, so a failure observed over
//! real sockets replays in-process under a debugger.
//!
//! A plan is configured explicitly, via
//! [`SessionConfig::faults`](crate::SessionConfig) or
//! [`ServerConfig`](crate::ServerConfig) (the `--faults` flag of the
//! binaries); absent, the wire delivers first-try, zero overhead.
//!
//! Recovery from injected (and real) failures is governed by a
//! [`RetryPolicy`]: a bounded attempt budget with decorrelated-jitter
//! exponential backoff, both fully seeded — no wall-clock entropy, per
//! the repo's determinism lint.

use mpq_algebra::SubjectId;
use std::time::Duration;

/// What the fault layer does to one delivery attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the frame normally.
    Deliver,
    /// Sleep, then deliver — latency within the receiver's patience.
    Delay(Duration),
    /// The frame vanishes; the sender's attempt fails.
    Drop,
    /// A partial frame reaches the peer (over TCP: a short write that
    /// poisons the connection); the attempt fails.
    Truncate,
    /// The frame is delivered **and then** the connection dies, so the
    /// sender cannot tell and must re-send — the duplicate-delivery
    /// case that receiver-side dedup exists for.
    Reset,
    /// Sleep *past* the receiver's read timeout, then deliver — a
    /// stalled peer, the one failure retries cannot mask.
    Stall(Duration),
}

/// A seeded, declarative schedule of transport faults.
///
/// Rates are per-mille per delivery attempt; the decision for attempt
/// `index` on directed edge `from → to` is a pure hash of
/// `(seed, from, to, index)` — see [`FaultPlan::decide`]. Parsed from
/// compact `key=value` specs (the `--faults` flag):
///
/// ```text
/// seed=7,drop=100,reset=50,truncate=30,delay=200,delay-ms=10,stall=5,stall-ms=3000,max=8
/// ```
///
/// `max` caps the number of *injected* faults per directed edge
/// (deterministically — the cap is consumed in attempt order on each
/// edge), which lets tests guarantee a schedule stays within a retry
/// budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every per-attempt decision.
    pub seed: u64,
    /// Per-mille rate of [`FaultAction::Drop`].
    pub drop_pm: u32,
    /// Per-mille rate of [`FaultAction::Truncate`].
    pub truncate_pm: u32,
    /// Per-mille rate of [`FaultAction::Reset`].
    pub reset_pm: u32,
    /// Per-mille rate of [`FaultAction::Delay`].
    pub delay_pm: u32,
    /// Per-mille rate of [`FaultAction::Stall`].
    pub stall_pm: u32,
    /// Sleep for injected delays.
    pub delay_ms: u64,
    /// Sleep for injected stalls (pick it larger than the receive
    /// timeout or it is just a long delay).
    pub stall_ms: u64,
    /// Cap on injected faults per directed edge (`None` = unlimited).
    pub max_per_edge: Option<u32>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled; callers set
    /// rates via the struct fields or [`FaultPlan::parse`].
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_pm: 0,
            truncate_pm: 0,
            reset_pm: 0,
            delay_pm: 0,
            stall_pm: 0,
            delay_ms: 10,
            stall_ms: 3000,
            max_per_edge: None,
        }
    }

    /// Parse a `key=value,key=value` spec. Keys: `seed`, `drop`,
    /// `truncate`, `reset`, `delay`, `stall` (per-mille rates),
    /// `delay-ms`, `stall-ms`, `max` (a per-edge count, at most
    /// `u32::MAX`). Unknown keys and malformed values are errors — a
    /// chaos schedule that silently ignores a typo is worse than none.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}`: expected key=value"))?;
            let num = |what: &str| -> Result<u64, String> {
                value
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("fault spec `{part}`: {what} must be a number"))
            };
            let rate = |what: &str| -> Result<u32, String> {
                let v = num(what)?;
                if v > 1000 {
                    return Err(format!(
                        "fault spec `{part}`: rates are per-mille (0..=1000)"
                    ));
                }
                Ok(v as u32)
            };
            match key.trim() {
                "seed" => plan.seed = num("seed")?,
                "drop" => plan.drop_pm = rate("drop")?,
                "truncate" => plan.truncate_pm = rate("truncate")?,
                "reset" => plan.reset_pm = rate("reset")?,
                "delay" => plan.delay_pm = rate("delay")?,
                "stall" => plan.stall_pm = rate("stall")?,
                "delay-ms" => plan.delay_ms = num("delay-ms")?,
                "stall-ms" => plan.stall_ms = num("stall-ms")?,
                "max" => {
                    let count = u32::try_from(num("max")?);
                    let count = count.map_err(|_| format!("fault spec `{part}`: max too large"))?;
                    plan.max_per_edge = Some(count);
                }
                other => return Err(format!("fault spec: unknown key `{other}`")),
            }
        }
        if plan.total_rate() > 1000 {
            return Err(format!(
                "fault spec `{spec}`: rates sum to {} per-mille (> 1000)",
                plan.total_rate()
            ));
        }
        Ok(plan)
    }

    /// Sum of all per-mille fault rates.
    fn total_rate(&self) -> u32 {
        self.drop_pm + self.truncate_pm + self.reset_pm + self.delay_pm + self.stall_pm
    }

    /// The action for delivery attempt `index` on edge `from → to` — a
    /// pure function, identical across transport backends and across
    /// runs. Cap enforcement lives in the wire (it needs the per-edge
    /// injected count); this is the raw schedule.
    pub fn decide(&self, from: SubjectId, to: SubjectId, index: u64) -> FaultAction {
        let h = splitmix64(
            self.seed
                ^ (from.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (to.index() as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
                ^ index.wrapping_mul(0xd6e8_feb8_6659_fd93),
        );
        let roll = (h % 1000) as u32;
        let mut edge = self.drop_pm;
        if roll < edge {
            return FaultAction::Drop;
        }
        edge += self.truncate_pm;
        if roll < edge {
            return FaultAction::Truncate;
        }
        edge += self.reset_pm;
        if roll < edge {
            return FaultAction::Reset;
        }
        edge += self.delay_pm;
        if roll < edge {
            return FaultAction::Delay(Duration::from_millis(self.delay_ms));
        }
        edge += self.stall_pm;
        if roll < edge {
            return FaultAction::Stall(Duration::from_millis(self.stall_ms));
        }
        FaultAction::Deliver
    }
}

/// Bounded recovery: how many delivery attempts one logical message
/// gets, and how long to back off between them.
///
/// Backoff is decorrelated jitter (AWS architecture-blog style):
/// `sleep = base + rand(0, min(cap, prev·3) − base)`, with the
/// "random" draw a pure hash of `(seed, edge, attempt)` so recovery
/// timing replays exactly. Every retry loop in the engine consumes
/// this budget — `mpq-lint` enforces that no retry loop is unbounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total delivery attempts per logical message (1 = no retries).
    pub max_attempts: u32,
}

/// Backoff floor in milliseconds: also the first retry's `prev_ms`.
pub(crate) const BASE_MS: u64 = 5;
/// Backoff ceiling in milliseconds.
const CAP_MS: u64 = 100;

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 4 }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based), given the
    /// previous sleep `prev_ms`. Deterministic in `(seed, attempt)`.
    pub(crate) fn backoff_ms(&self, seed: u64, attempt: u32, prev_ms: u64) -> u64 {
        let hi = prev_ms.saturating_mul(3).clamp(BASE_MS, CAP_MS);
        let span = (hi - BASE_MS).max(1);
        BASE_MS + splitmix64(seed ^ u64::from(attempt).wrapping_mul(0xa076_1d64_78bd_642f)) % span
    }
}

/// SplitMix64 — the repo's standard seed-expansion hash (same finalizer
/// the in-tree `rand` shim uses). Good avalanche, zero state.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_core::fixtures::RunningExample;

    #[test]
    fn parse_roundtrips_through_spec() {
        let spec = "seed=7,drop=100,reset=50,delay=200,delay-ms=15,stall=5,stall-ms=2500,max=8";
        let plan = FaultPlan::parse(spec).expect("valid spec");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.drop_pm, 100);
        assert_eq!(plan.reset_pm, 50);
        assert_eq!(plan.delay_pm, 200);
        assert_eq!(plan.delay_ms, 15);
        assert_eq!(plan.stall_pm, 5);
        assert_eq!(plan.stall_ms, 2500);
        assert_eq!(plan.max_per_edge, Some(8));
        let plan = FaultPlan::parse("seed=1,truncate=30").expect("valid spec");
        assert_eq!(plan.truncate_pm, 30);
        // `max` is a per-edge count, not a per-mille rate.
        let plan = FaultPlan::parse("seed=1,drop=10,max=5000").expect("valid spec");
        assert_eq!(plan.max_per_edge, Some(5000));
    }

    #[test]
    fn parse_rejects_typos_and_overfull_rates() {
        assert!(FaultPlan::parse("dorp=100").is_err());
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("drop=abc").is_err());
        assert!(FaultPlan::parse("drop=1001").is_err());
        assert!(FaultPlan::parse("drop=600,delay=600").is_err());
        assert!(FaultPlan::parse("max=4294967296").is_err());
    }

    #[test]
    fn decide_is_deterministic_and_edge_sensitive() {
        let ex = RunningExample::new();
        let (h, z) = (ex.subject("H"), ex.subject("Z"));
        let plan = FaultPlan::parse("seed=42,drop=300,delay=300").expect("valid");
        let a: Vec<_> = (0..64).map(|i| plan.decide(h, z, i)).collect();
        let b: Vec<_> = (0..64).map(|i| plan.decide(h, z, i)).collect();
        assert_eq!(a, b, "same (seed, edge, index) ⇒ same action");
        let other: Vec<_> = (0..64).map(|i| plan.decide(z, h, i)).collect();
        assert_ne!(a, other, "the schedule distinguishes directed edges");
        assert!(a.contains(&FaultAction::Drop));
        assert!(a.contains(&FaultAction::Deliver));
    }

    #[test]
    fn empty_plan_always_delivers() {
        let ex = RunningExample::new();
        let plan = FaultPlan::new(9);
        for i in 0..128 {
            assert_eq!(
                plan.decide(ex.subject("H"), ex.subject("I"), i),
                FaultAction::Deliver
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let policy = RetryPolicy::default();
        let mut prev = BASE_MS;
        let mut sleeps = Vec::new();
        for attempt in 1..=8 {
            let ms = policy.backoff_ms(1234, attempt, prev);
            assert!((BASE_MS..=CAP_MS + BASE_MS).contains(&ms));
            assert_eq!(ms, policy.backoff_ms(1234, attempt, prev), "deterministic");
            sleeps.push(ms);
            prev = ms;
        }
        assert!(
            sleeps.windows(2).any(|w| w[0] != w[1]),
            "jitter should vary across attempts: {sleeps:?}"
        );
    }
}
