//! Order statistics, geometric means and process memory.

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// order statistics. `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Windows a run's query latencies are split into for their percentiles.
pub const WINDOWS: usize = 5;

/// The median, over `windows` consecutive equal runs of `values` (in the
/// order they were taken), of each run's `q`-quantile. A stall of the
/// machine moves one window, not the figure.
pub fn windowed_quantile(values: &[f64], q: f64, windows: usize) -> f64 {
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            quantile(
                &values[w * values.len() / windows..(w + 1) * values.len() / windows],
                q,
            )
        })
        .filter(|v| !v.is_nan())
        .collect();
    median(&per_window)
}

/// The geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
