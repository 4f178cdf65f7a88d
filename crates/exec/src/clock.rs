//! The clocks behind query deadlines.
//!
//! Time is read through an injectable [`Clock`] so tests run deadline
//! behaviour deterministically, with zero wall-clock waiting.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Source of the current instant for query deadlines.
pub trait Clock: Send + Sync {
    /// The current instant. Query governors read deadlines through this,
    /// so an injected clock makes timeout behaviour deterministic.
    fn now(&self) -> Instant;
}

/// The wall clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// Test clock: a virtual `now` that only moves when
/// [`advance`](TestClock::advance) is called — no wall-clock waiting,
/// fully deterministic.
#[derive(Debug)]
pub struct TestClock {
    base: Instant,
    offset: Mutex<Duration>,
}

impl Default for TestClock {
    fn default() -> Self {
        TestClock { base: Instant::now(), offset: Mutex::new(Duration::ZERO) }
    }
}

impl TestClock {
    pub fn new() -> Arc<Self> {
        Arc::new(TestClock::default())
    }

    /// Move virtual time forward by `d`.
    pub fn advance(&self, d: Duration) {
        if let Ok(mut offset) = self.offset.lock() {
            *offset += d;
        }
    }
}

impl Clock for TestClock {
    fn now(&self) -> Instant {
        let offset = self.offset.lock().map(|o| *o).unwrap_or_default();
        self.base + offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_virtual_time_moves_only_on_advance() {
        let clock = TestClock::new();
        let start = clock.now();
        assert_eq!(clock.now(), start);
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.now() - start, Duration::from_millis(250));
    }
}
