//! The workspace's single backoff/retry implementation.
//!
//! Every recovery loop in the stack — socket mesh connection and worker
//! respawn — shares one [`RetryPolicy`]: exponential backoff with
//! deterministic jitter, capped by both an attempt budget and a wall-clock
//! deadline. Determinism matters here: recovery is part of the
//! replay story, and a seeded fault plan must produce the same retry
//! schedule every run.

use std::time::Duration;

/// Bounded exponential backoff with deterministic jitter.
///
/// Attempt `k` (0-based) sleeps `base * 2^k`, clamped to `cap`, then
/// jittered downward by up to `jitter` of the clamped delay using a
/// SplitMix64 stream seeded from `seed`. The schedule terminates when
/// either `max_attempts` delays have been handed out or the accumulated
/// delay would exceed `deadline`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First delay.
    pub base: Duration,
    /// Per-delay clamp.
    pub cap: Duration,
    /// Hard ceiling on the number of retries (delays handed out).
    pub max_attempts: u32,
    /// Hard ceiling on the *sum* of delays.
    pub deadline: Duration,
    /// Fraction of each delay that jitter may shave off, in `[0, 1]`.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
            max_attempts: 32,
            deadline: Duration::from_secs(5),
            jitter: 0.25,
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl RetryPolicy {
    /// A policy shaped like the historical `connect_backoff` schedule
    /// (1 ms doubling to a 50 ms cap) bounded by `deadline`.
    pub fn connect(deadline: Duration) -> RetryPolicy {
        RetryPolicy {
            deadline,
            max_attempts: u32::MAX,
            ..RetryPolicy::default()
        }
    }

    /// Reseed the jitter stream (e.g. per link or per rank) so concurrent
    /// retry loops do not march in lock-step.
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// The un-jittered delay for attempt `k`: `base * 2^k` clamped to
    /// `cap`. Monotone non-decreasing in `k` and never above `cap`.
    pub fn raw_delay(&self, attempt: u32) -> Duration {
        let base = self.base.max(Duration::from_micros(1));
        let mult = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        base.checked_mul(mult).unwrap_or(self.cap).min(self.cap)
    }

    /// The jittered delay for attempt `k`. Jitter only shaves time off, so
    /// the result is always `<= raw_delay(k)` and the un-jittered schedule
    /// stays an upper bound.
    pub fn delay(&self, attempt: u32) -> Duration {
        let raw = self.raw_delay(attempt);
        if self.jitter <= 0.0 {
            return raw;
        }
        let frac = self.jitter.clamp(0.0, 1.0);
        // Deterministic per-(seed, attempt) uniform sample in [0, 1).
        let u = (splitmix64(self.seed.wrapping_add(attempt as u64)) >> 11) as f64
            / (1u64 << 53) as f64;
        raw.mul_f64(1.0 - frac * u)
    }

    /// Iterate the full (finite) schedule of delays.
    pub fn schedule(&self) -> Schedule {
        Schedule {
            policy: *self,
            attempt: 0,
            spent: Duration::ZERO,
        }
    }
}

/// Iterator over a policy's delays; ends when the attempt budget or the
/// deadline is exhausted.
#[derive(Debug, Clone)]
pub struct Schedule {
    policy: RetryPolicy,
    attempt: u32,
    spent: Duration,
}

impl Schedule {
    /// How many delays have been handed out so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Total delay handed out so far (always `<= policy.deadline`).
    pub fn spent(&self) -> Duration {
        self.spent
    }
}

impl Iterator for Schedule {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        if self.attempt >= self.policy.max_attempts {
            return None;
        }
        let d = self.policy.delay(self.attempt);
        let next_spent = self.spent.saturating_add(d);
        if next_spent > self.policy.deadline {
            return None;
        }
        self.attempt += 1;
        self.spent = next_spent;
        Some(d)
    }
}

/// SplitMix64: the standard 64-bit mixer — tiny, seedable, and good enough
/// for jitter (we need decorrelation, not cryptography).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_delays_double_then_clamp() {
        let p = RetryPolicy::default();
        assert_eq!(p.raw_delay(0), Duration::from_millis(1));
        assert_eq!(p.raw_delay(1), Duration::from_millis(2));
        assert_eq!(p.raw_delay(5), Duration::from_millis(32));
        assert_eq!(p.raw_delay(6), Duration::from_millis(50));
        assert_eq!(p.raw_delay(31), Duration::from_millis(50));
        // Shift overflow must clamp, not panic.
        assert_eq!(p.raw_delay(200), Duration::from_millis(50));
    }

    #[test]
    fn jitter_only_shaves_and_is_deterministic() {
        let p = RetryPolicy::default();
        for k in 0..20 {
            let d = p.delay(k);
            assert!(d <= p.raw_delay(k), "attempt {k}: jitter must not add");
            assert_eq!(d, p.delay(k), "attempt {k}: jitter must be deterministic");
        }
        let other = p.with_seed(7);
        assert!(
            (0..20).any(|k| other.delay(k) != p.delay(k)),
            "different seeds should produce different schedules"
        );
    }

    #[test]
    fn schedule_respects_attempt_budget() {
        let p = RetryPolicy {
            max_attempts: 3,
            deadline: Duration::from_secs(60),
            ..RetryPolicy::default()
        };
        assert_eq!(p.schedule().count(), 3);
    }

    #[test]
    fn schedule_respects_deadline() {
        let p = RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(10),
            jitter: 0.0,
            max_attempts: u32::MAX,
            deadline: Duration::from_millis(35),
            ..RetryPolicy::default()
        };
        let delays: Vec<_> = p.schedule().collect();
        assert_eq!(delays.len(), 3, "3 * 10ms fits in 35ms, 4 does not");
        let total: Duration = delays.iter().sum();
        assert!(total <= p.deadline);
    }

    #[test]
    fn zero_budget_means_no_retries() {
        let p = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.schedule().count(), 0);
    }
}
