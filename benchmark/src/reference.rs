//! The reference kernel: how fast is this machine *right now*?
//!
//! The 2-vCPU sandbox changes speed by up to 35 % from minute to minute
//! (an SMT sibling or a neighbour VM taking execution ports and cache
//! bandwidth). A latency-bound dependency chain does not see it — an
//! xorshift loop keeps its time within 2 % — but instruction-dense code
//! does, and so does every workload here: over 56 runs the kernel below
//! correlated with the mean pass time at r = 0.67–0.93 on all four
//! workloads, and dividing by it cut the run-to-run quartile spread from
//! 8–22 % to 4–10 %.
//!
//! So the window times the kernel between queries (at most every 40 ms)
//! and reports every time **at reference speed**: measured time ÷
//! slowdown, where slowdown = kernel time around the query ÷ its time
//! in the box's fast state. The kernel is the benchmark's own code and
//! calls nothing in the crates under test, so no change to them can
//! move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel rounds per sample (≈ 1.3 ms).
const ROUNDS: u64 = 16_000;

/// Nanoseconds per round in the sandbox's fast state (the lower mode of
/// 56 run medians, 0.312–0.318 ms per 4,000 rounds). Fixed: changing it
/// rescales every reported time.
const REFERENCE_NS_PER_ROUND: f64 = 79.0;

/// Current slowdown against reference speed: 1.0 = the fast state,
/// 1.3 = everything instruction-dense takes 30 % longer.
pub fn slowdown() -> f64 {
    let t0 = Instant::now();
    let mut acc = 0u64;
    for r in 0..black_box(ROUNDS) {
        // One 8 × 8 limb schoolbook multiplication over freshly
        // allocated vectors — the shape of the bignum work under RSA
        // and Paillier, and as allocation-heavy as the engine.
        let a: Vec<u64> = (0..8).map(|k| k * 0x9E37 + r).collect();
        let b: Vec<u64> = (0..8).map(|k| k ^ r).collect();
        // On the heap on purpose: the allocation is part of the kernel
        // that was validated against the workloads.
        #[allow(clippy::useless_vec)]
        let mut c = vec![0u64; 16];
        for i in 0..8 {
            let mut carry = 0u128;
            for j in 0..8 {
                let v = a[i] as u128 * b[j] as u128 + c[i + j] as u128 + carry;
                c[i + j] = v as u64;
                carry = v >> 64;
            }
            c[i + 8] = carry as u64;
        }
        acc ^= c[7] ^ c[15];
    }
    black_box(acc);
    t0.elapsed().as_secs_f64() * 1e9 / ROUNDS as f64 / REFERENCE_NS_PER_ROUND
}

/// Hands out the current slowdown, re-timing the kernel when the last
/// sample is older than [`Speedometer::EVERY`] — often enough to follow
/// the sandbox's sub-second speed changes, rarely enough to cost ms-scale
/// queries under 4 % of the window.
pub struct Speedometer {
    enabled: bool,
    at: Instant,
    last: f64,
}

impl Speedometer {
    const EVERY: Duration = Duration::from_millis(40);

    /// A meter that samples the kernel (the measured window).
    pub fn on() -> Speedometer {
        Speedometer {
            enabled: true,
            last: slowdown(),
            at: Instant::now(),
        }
    }

    /// A meter that always reads 1: times stay as measured (warm-up and
    /// traced passes).
    pub fn off() -> Speedometer {
        Speedometer {
            enabled: false,
            last: 1.0,
            at: Instant::now(),
        }
    }

    /// The slowdown now.
    pub fn read(&mut self) -> f64 {
        if self.enabled && self.at.elapsed() >= Self::EVERY {
            self.last = slowdown();
            self.at = Instant::now();
        }
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_near_one_on_a_quiet_machine() {
        let s = slowdown();
        assert!(s > 0.2 && s < 20.0, "slowdown {s}");
    }

    #[test]
    fn meter_resamples_only_when_stale_and_off_reads_one() {
        let mut meter = Speedometer::on();
        let first = meter.read();
        assert_eq!(meter.read(), first, "fresh sample is reused");
        std::thread::sleep(Speedometer::EVERY);
        meter.last = -1.0;
        assert!(meter.read() > 0.0, "stale sample is replaced");
        assert_eq!(Speedometer::off().read(), 1.0);
    }
}
