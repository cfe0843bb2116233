//! Summaries of timing samples and of run-to-run spread.

/// Percentiles a timing may be reported at, lowest first.
const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// The highest percentile of the ladder (p50, p90, p95, p99, p99.9) that
/// has at least [`MIN_SAMPLES_BEYOND`] of `n` samples beyond it, or `None`
/// when not even the median qualifies.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p / 100.0) >= MIN_SAMPLES_BEYOND - 1e-9)
}

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between the closest ranks. `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let rank = p.clamp(0.0, 100.0) / 100.0 * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` does with its default
/// `exclusive` method. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    const N: usize = 4;
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..N).zip(cuts.iter_mut()) {
        let j = (i * m / N).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * N) as f64;
        *cut = (data[j - 1] * (N as f64 - delta) + data[j] * delta) / N as f64;
    }
    Some(cuts)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// measure the regression bounds are set against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}
