//! Resource-utilization efficiency.

/// Achieved-vs-peak compute efficiency of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyRecord {
    /// Achieved throughput, TFLOP/s.
    pub achieved_tflops: f64,
    /// Peak throughput, TFLOP/s.
    pub peak_tflops: f64,
    /// `achieved / peak` (`0..=1` for sane inputs).
    pub efficiency: f64,
}

/// Compute efficiency `achieved / peak`, or `None` for non-positive peak.
///
/// # Example
///
/// ```
/// use dabench_core::metrics::compute_efficiency;
/// let e = compute_efficiency(330.0, 1650.0).unwrap();
/// assert!((e.efficiency - 0.2).abs() < 1e-12);
/// ```
#[must_use]
pub fn compute_efficiency(achieved_tflops: f64, peak_tflops: f64) -> Option<EfficiencyRecord> {
    if peak_tflops <= 0.0 {
        return None;
    }
    Some(EfficiencyRecord {
        achieved_tflops,
        peak_tflops,
        efficiency: achieved_tflops / peak_tflops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_is_achieved_over_peak() {
        let e = compute_efficiency(50.0, 200.0).unwrap();
        assert!((e.efficiency - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_peak_is_none() {
        assert!(compute_efficiency(1.0, 0.0).is_none());
    }
}
