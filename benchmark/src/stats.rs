//! Order statistics for the host-time metrics.
//!
//! A timing is reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it; with fewer the
//! percentile is one or two outliers, not a property of the system.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample, with what is needed to judge it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples ranked strictly above `value`'s rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the percentile to trust it.
    #[must_use]
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile `q` (in `0.0..=1.0`) of `values`; `None` for
/// an empty sample. NaNs sort last and never panic.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // ceil(q·n) is the 1-based nearest rank; q = 0 maps to the minimum.
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile { value: sorted[rank - 1], samples: n, beyond: n - rank })
}

/// Median (mean of the two middle values for an even count); `None` for
/// an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}
