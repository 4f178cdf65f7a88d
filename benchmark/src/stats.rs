//! Order statistics and the windows of a timed phase.
//!
//! Every gated read metric is computed per window (a rate, or a median over
//! the window's requests), so a neighbour's burst moves one window and not
//! the metric; `workloads::gate` picks the value to report from them.

use std::time::Duration;

/// Windows per timed phase.
pub const WINDOWS: usize = 5;

/// Nearest-rank percentile; 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One observation of a timed phase: when it completed (offset from the
/// phase start) and its value (a latency in ms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub at: Duration,
    pub value: f64,
}

/// Which of the [`WINDOWS`] equal windows of a phase `at` falls in.
pub fn window_of(at: Duration, phase: Duration) -> usize {
    let share = at.as_secs_f64() / phase.as_secs_f64().max(1e-9);
    ((share * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// Per-window medians of `samples` (windows without samples are skipped).
pub fn window_medians(samples: &[Sample], phase: Duration) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for s in samples {
        windows[window_of(s.at, phase)].push(s.value);
    }
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| median(w))
        .collect()
}

/// Per-window completion rates (samples per second).
pub fn window_rates(samples: &[Sample], phase: Duration) -> Vec<f64> {
    let mut counts = [0usize; WINDOWS];
    for s in samples {
        counts[window_of(s.at, phase)] += 1;
    }
    let window_secs = phase.as_secs_f64() / WINDOWS as f64;
    counts.iter().map(|&c| c as f64 / window_secs).collect()
}

/// `(max − min) ÷ median` of per-window values, in percent.
pub fn spread_pct(per_window: &[f64]) -> f64 {
    let m = median(per_window);
    if per_window.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = per_window.iter().copied().fold(f64::MIN, f64::max);
    let min = per_window.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // order of the input does not matter
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn window_median_ignores_one_bad_window() {
        let phase = Duration::from_secs(10);
        // steady 2 ms, except the second window (2–4 s) stalls at 50 ms
        let samples: Vec<Sample> = (0..100)
            .map(|i| {
                let at = Duration::from_millis(i * 100);
                let value = if (2_000..4_000).contains(&(i * 100)) {
                    50.0
                } else {
                    2.0
                };
                Sample { at, value }
            })
            .collect();
        let per_window = window_medians(&samples, phase);
        assert_eq!(per_window, vec![2.0, 50.0, 2.0, 2.0, 2.0]);
        assert_eq!(median(&per_window), 2.0);
        assert_eq!(window_rates(&samples, phase), vec![10.0; 5]);
        assert_eq!(spread_pct(&per_window), 2400.0);
    }

    #[test]
    fn last_instant_falls_in_the_last_window() {
        let phase = Duration::from_secs(5);
        assert_eq!(window_of(Duration::ZERO, phase), 0);
        assert_eq!(window_of(Duration::from_millis(4_999), phase), 4);
        assert_eq!(window_of(Duration::from_secs(6), phase), 4);
    }
}
