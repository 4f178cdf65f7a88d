//! Wall-clock measurement helpers used by the benchmark harness.

use std::time::{Duration, Instant};

/// A resettable stopwatch accumulating elapsed wall-clock time.
#[derive(Debug, Clone)]
pub struct Stopwatch {
    started: Instant,
    accumulated: Duration,
    running: bool,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Stopwatch {
    /// Create a stopped stopwatch with zero accumulated time.
    pub fn new() -> Self {
        Stopwatch {
            started: Instant::now(),
            accumulated: Duration::ZERO,
            running: false,
        }
    }

    /// Create and immediately start a stopwatch.
    pub fn started() -> Self {
        let mut sw = Self::new();
        sw.start();
        sw
    }

    /// Start (or restart) accumulating. No-op when already running.
    pub fn start(&mut self) {
        if !self.running {
            self.started = Instant::now();
            self.running = true;
        }
    }

    /// Stop accumulating. No-op when already stopped.
    pub fn stop(&mut self) {
        if self.running {
            self.accumulated += self.started.elapsed();
            self.running = false;
        }
    }

    /// Total accumulated time (including the in-flight span when running).
    pub fn elapsed(&self) -> Duration {
        if self.running {
            self.accumulated + self.started.elapsed()
        } else {
            self.accumulated
        }
    }

    /// Accumulated time in seconds, the unit the paper's tables use.
    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_across_spans() {
        let mut sw = Stopwatch::new();
        sw.start();
        std::thread::sleep(Duration::from_millis(5));
        sw.stop();
        let first = sw.elapsed();
        assert!(first >= Duration::from_millis(4));
        sw.start();
        std::thread::sleep(Duration::from_millis(5));
        sw.stop();
        assert!(sw.elapsed() > first);
    }

    #[test]
    fn double_start_stop_are_noops() {
        let mut sw = Stopwatch::started();
        sw.start();
        sw.stop();
        let e = sw.elapsed();
        sw.stop();
        assert_eq!(sw.elapsed(), e);
    }
}
