//! Order statistics over per-operation samples.

/// The percentiles [`tail`] chooses from, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100] of ascending `sorted`: the value
/// at rank `ceil(p/100 · n)`, clamped to `1..=n`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples of `n` that lie strictly beyond the nearest-rank percentile
/// `p`.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps `99.99 · 100000 / 100` from ceiling one rank too high
/// through decimal-to-binary rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest of p50, p90, p95, p99, p99.9 and p99.99 that still has at
/// least ten samples beyond it, with its value; `None` when even the
/// median has fewer.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| beyond(sorted.len(), p) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, nearest_rank(sorted, p)))
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The interquartile mean: the mean of what remains after dropping the
/// lowest and the highest `n / 4` values. Unlike the median it moves
/// smoothly when operation times cluster at several levels (study-dist's
/// grid times fall on 4 ms steps of the kernel's timer tick), and unlike the
/// mean it ignores the slowest quarter, where preemptions land.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "interquartile mean of no samples");
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The interquartile mean of the fastest window. `samples`, in the
/// order they were taken, are cut into consecutive windows that each
/// span at least `window` of summed sample time; a shorter remainder
/// joins the last window. Returns the lowest window interquartile mean
/// and that window's sample count.
///
/// Other tenants of a shared host slow a run for seconds at a time and
/// only ever add time, so the fastest window tracks the program and not
/// the host: under such load it halved the run-to-run spread of the
/// whole-run interquartile mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn best_window(samples: &[f64], window: f64) -> (f64, usize) {
    assert!(!samples.is_empty(), "no samples to window");
    let mut windows: Vec<&[f64]> = Vec::new();
    let (mut start, mut sum) = (0, 0.0);
    for (i, &v) in samples.iter().enumerate() {
        sum += v;
        if sum >= window {
            windows.push(&samples[start..=i]);
            (start, sum) = (i + 1, 0.0);
        }
    }
    if start < samples.len() {
        match windows.pop() {
            Some(last) => windows.push(&samples[start - last.len()..]),
            None => windows.push(samples),
        }
    }
    windows
        .iter()
        .map(|w| (interquartile_mean(w), w.len()))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one window")
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so spreads read the same here and in any script.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 for fewer than two
/// values).
pub fn relative_iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// A sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 5.0);
        assert_eq!(nearest_rank(&s, 51.0), 6.0);
        assert_eq!(nearest_rank(&s, 90.0), 9.0);
        assert_eq!(nearest_rank(&s, 99.0), 10.0);
        assert_eq!(nearest_rank(&s, 100.0), 10.0);
        // Rank is clamped to at least one.
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 leaves exactly 10 samples beyond it; p99.9 leaves one.
        assert_eq!(tail(&s), Some((99.0, 990.0)));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), Some((90.0, 90.0)));
        let s: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.99, 99_990.0)));
        // Twenty samples: only the median has ten beyond it.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s), Some((50.0, 10.0)));
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&s), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[3.0]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[1.0, 3.0]), 2.0);
        // n = 5 drops one value from each end.
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 4.0, 0.0]), 3.0);
        // n = 8 drops two from each end: mean of 3..=6.
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(interquartile_mean(&v), 4.5);
        // Two levels in shifting proportions: the median jumps between
        // them, the interquartile mean moves in steps of one sample.
        let mix = |high: usize| -> Vec<f64> {
            (0..20)
                .map(|i| if i < high { 48.0 } else { 44.0 })
                .collect()
        };
        assert_eq!(median(&mix(9)), 44.0);
        assert_eq!(median(&mix(11)), 48.0);
        assert!((interquartile_mean(&mix(11)) - interquartile_mean(&mix(9))).abs() < 1.0);
    }

    #[test]
    fn best_window_picks_the_fastest_stretch() {
        // Windows of at least 10: [5, 5], [6, 6], [1, 1, 1, 1, 1, 1, 1, 1,
        // 1, 1], [3, 3, 3, 3]; the remainder [2] joins the last window.
        let v = [
            5.0, 5.0, 6.0, 6.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0,
            3.0, 2.0,
        ];
        assert_eq!(best_window(&v, 10.0), (1.0, 10));
        let (slowest_first, _) = best_window(&[9.0, 9.0, 4.0, 4.0, 4.0], 10.0);
        assert_eq!(slowest_first, 4.0);
        // Less than one window in all: the whole run is the window.
        assert_eq!(best_window(&[2.0, 4.0, 3.0], 100.0), (3.0, 3));
        // A short remainder joins the last full window.
        assert_eq!(best_window(&[10.0, 1.0], 10.0), (5.5, 2));
    }
}
