//! Order statistics over timing samples.

/// Sort ascending (samples are finite durations).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// Nearest-rank percentile `p ∈ [0, 1]` of ascending samples (NaN when
/// empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Median of unsorted samples (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// The tail percentile a sample of `n` supports, capped at `want`: the
/// highest `p` with at least ten samples beyond it.
pub fn supported_tail(n: usize, want: f64) -> f64 {
    if n <= 10 {
        return 0.5;
    }
    want.min(1.0 - 10.0 / n as f64).max(0.5)
}
