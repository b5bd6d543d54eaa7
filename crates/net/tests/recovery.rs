//! Property tests for the shared retry policy's delay schedule.

use hpf_net::RetryPolicy;
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    /// Un-jittered delays are monotone non-decreasing and never exceed the
    /// cap; jittered delays only ever shave time off the raw schedule.
    #[test]
    fn retry_delays_monotone_and_bounded(
        base_ms in 1u64..50,
        cap_ms in 1u64..200,
        jitter in 0u32..100,
        seed in 0u64..u64::MAX,
    ) {
        let p = RetryPolicy {
            base: Duration::from_millis(base_ms),
            cap: Duration::from_millis(cap_ms),
            jitter: jitter as f64 / 100.0,
            seed,
            ..RetryPolicy::default()
        };
        let mut prev = Duration::ZERO;
        for k in 0..40 {
            let raw = p.raw_delay(k);
            prop_assert!(raw >= prev, "raw schedule must be monotone");
            prop_assert!(raw <= p.cap, "raw delay above the cap");
            prop_assert!(p.delay(k) <= raw, "jitter must only shave time off");
            prev = raw;
        }
    }

    /// The schedule always terminates, hands out at most `max_attempts`
    /// delays, and their sum never exceeds the deadline.
    #[test]
    fn retry_schedule_terminates_within_deadline(
        base_ms in 1u64..20,
        attempts in 0u32..64,
        deadline_ms in 1u64..500,
        seed in 0u64..u64::MAX,
    ) {
        let p = RetryPolicy {
            base: Duration::from_millis(base_ms),
            max_attempts: attempts,
            deadline: Duration::from_millis(deadline_ms),
            seed,
            ..RetryPolicy::default()
        };
        let delays: Vec<Duration> = p.schedule().collect();
        prop_assert!(delays.len() <= attempts as usize);
        let total: Duration = delays.iter().sum();
        prop_assert!(total <= p.deadline, "schedule overshot the deadline");
    }
}
