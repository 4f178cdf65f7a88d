//! The backoff policy and the clocks behind bounded retry of transient
//! ingestion faults.
//!
//! The ingest stages retry an item only when its error's
//! [`ErrorKind`](crate::ErrorKind) is transient (worker panic, budget
//! overrun); malformed input fails fast. [`RetryPolicy`] says how often and
//! how long to back off, and the delay source is an injectable [`Clock`] so
//! tests and the fault-injection harness run deterministically with zero
//! wall-clock sleeping.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Source of time used between retry attempts and by query deadlines.
pub trait Clock: Send + Sync {
    /// Block the current thread for (approximately) `d`.
    fn sleep(&self, d: Duration);

    /// The current instant. Query governors read deadlines through this,
    /// so an injected clock makes timeout behaviour deterministic.
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// Real wall-clock sleeping.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Test clock: records requested sleeps and keeps a virtual `now` that
/// only moves when a sleep is requested or [`advance`](TestClock::advance)
/// is called — no wall-clock waiting, fully deterministic.
#[derive(Debug)]
pub struct TestClock {
    sleeps: Mutex<Vec<Duration>>,
    base: Instant,
    offset: Mutex<Duration>,
}

impl Default for TestClock {
    fn default() -> Self {
        TestClock {
            sleeps: Mutex::new(Vec::new()),
            base: Instant::now(),
            offset: Mutex::new(Duration::ZERO),
        }
    }
}

impl TestClock {
    pub fn new() -> Arc<Self> {
        Arc::new(TestClock::default())
    }

    /// All sleeps requested so far, in order.
    pub fn sleeps(&self) -> Vec<Duration> {
        self.sleeps.lock().map(|s| s.clone()).unwrap_or_default()
    }

    /// Move virtual time forward by `d`.
    pub fn advance(&self, d: Duration) {
        if let Ok(mut offset) = self.offset.lock() {
            *offset += d;
        }
    }
}

impl Clock for TestClock {
    fn sleep(&self, d: Duration) {
        if let Ok(mut sleeps) = self.sleeps.lock() {
            sleeps.push(d);
        }
        // Sleeping advances virtual time, so backoff delays and query
        // deadlines interact consistently under test.
        self.advance(d);
    }

    fn now(&self) -> Instant {
        let offset = self.offset.lock().map(|o| *o).unwrap_or_default();
        self.base + offset
    }
}

/// Exponential-backoff policy: attempt `n` (0-based retry index) sleeps
/// `base * multiplier^n`, capped at `max_delay`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of *retries* (total attempts = retries + 1).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Growth factor between consecutive retries.
    pub multiplier: f64,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_millis(10),
            multiplier: 2.0,
            max_delay: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, ..Default::default() }
    }

    /// Backoff delay before retry `n` (0-based).
    pub fn delay(&self, n: u32) -> Duration {
        let factor = self.multiplier.powi(n as i32);
        let raw = self.base_delay.as_secs_f64() * factor;
        Duration::from_secs_f64(raw.min(self.max_delay.as_secs_f64()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_virtual_time_advances_on_sleep_and_advance() {
        let clock = TestClock::new();
        let start = clock.now();
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.now() - start, Duration::from_millis(250));
        clock.sleep(Duration::from_millis(50));
        assert_eq!(clock.now() - start, Duration::from_millis(300));
        assert_eq!(clock.sleeps(), vec![Duration::from_millis(50)]);
    }

    #[test]
    fn delay_caps_at_max() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(100),
            multiplier: 10.0,
            max_delay: Duration::from_millis(500),
        };
        assert_eq!(policy.delay(0), Duration::from_millis(100));
        assert_eq!(policy.delay(1), Duration::from_millis(500));
        assert_eq!(policy.delay(5), Duration::from_millis(500));
    }
}
