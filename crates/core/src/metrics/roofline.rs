//! Roofline model at the global-memory level (Sec. IV-B.3 of the paper).

use crate::report::BoundKind;

/// A roofline: peak compute throughput and global-memory bandwidth.
///
/// # Example
///
/// ```
/// use dabench_core::metrics::Roofline;
/// use dabench_core::BoundKind;
///
/// // RDU-like: 278 TFLOP/s peak, 0.2 TB/s DDR.
/// let r = Roofline::new(278.0, 0.2e12);
/// // LLM training at AI ≈ 200 FLOPs/B is deep in the memory-bound region.
/// assert_eq!(r.classify(200.0), BoundKind::MemoryBound);
/// assert!(r.attainable_tflops(200.0) < 278.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    peak_tflops: f64,
    bandwidth_bytes_per_s: f64,
}

/// One evaluated workload point under a roofline.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Label of the workload configuration.
    pub label: String,
    /// Arithmetic intensity, FLOPs/byte.
    pub intensity: f64,
    /// Achieved throughput, TFLOP/s.
    pub achieved_tflops: f64,
    /// Attainable (roof) throughput at this intensity, TFLOP/s.
    pub attainable_tflops: f64,
    /// Which roof limits this point.
    pub bound: BoundKind,
}

impl Roofline {
    /// Create a roofline from peak TFLOP/s and bandwidth in bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not positive.
    #[must_use]
    pub fn new(peak_tflops: f64, bandwidth_bytes_per_s: f64) -> Self {
        assert!(peak_tflops > 0.0, "peak must be positive");
        assert!(bandwidth_bytes_per_s > 0.0, "bandwidth must be positive");
        Self {
            peak_tflops,
            bandwidth_bytes_per_s,
        }
    }

    /// Peak compute throughput, TFLOP/s.
    #[must_use]
    pub fn peak_tflops(&self) -> f64 {
        self.peak_tflops
    }

    /// Global-memory bandwidth, bytes/second.
    #[must_use]
    pub fn bandwidth_bytes_per_s(&self) -> f64 {
        self.bandwidth_bytes_per_s
    }

    /// The ridge point: the arithmetic intensity (FLOPs/byte) at which the
    /// memory roof meets the compute roof.
    #[must_use]
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_tflops * 1e12 / self.bandwidth_bytes_per_s
    }

    /// Attainable throughput at arithmetic intensity `ai`, TFLOP/s:
    /// `min(peak, ai · BW)`.
    #[must_use]
    pub fn attainable_tflops(&self, ai: f64) -> f64 {
        (ai * self.bandwidth_bytes_per_s / 1e12).min(self.peak_tflops)
    }

    /// Classify an intensity as compute- or memory-bound.
    #[must_use]
    pub fn classify(&self, ai: f64) -> BoundKind {
        if ai >= self.ridge_intensity() {
            BoundKind::ComputeBound
        } else {
            BoundKind::MemoryBound
        }
    }

    /// Evaluate a labelled workload point.
    #[must_use]
    pub fn evaluate(
        &self,
        label: impl Into<String>,
        ai: f64,
        achieved_tflops: f64,
    ) -> RooflinePoint {
        RooflinePoint {
            label: label.into(),
            intensity: ai,
            achieved_tflops,
            attainable_tflops: self.attainable_tflops(ai),
            bound: self.classify(ai),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ridge_point_divides_regions() {
        let r = Roofline::new(100.0, 1e12); // ridge at 100 FLOPs/B
        assert!((r.ridge_intensity() - 100.0).abs() < 1e-9);
        assert_eq!(r.classify(99.0), BoundKind::MemoryBound);
        assert_eq!(r.classify(101.0), BoundKind::ComputeBound);
    }

    #[test]
    fn attainable_clamps_to_peak() {
        let r = Roofline::new(100.0, 1e12);
        assert!((r.attainable_tflops(50.0) - 50.0).abs() < 1e-9);
        assert!((r.attainable_tflops(1e6) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn wse_like_roofline_is_compute_bound_for_llms() {
        // 20 PB/s on-chip bandwidth: ridge below 0.1 FLOPs/B.
        let r = Roofline::new(1650.0, 20e15);
        assert!(r.ridge_intensity() < 0.1);
        assert_eq!(r.classify(8.9), BoundKind::ComputeBound);
    }

    #[test]
    fn rdu_like_roofline_is_memory_bound_for_llms() {
        let r = Roofline::new(278.0, 0.2e12);
        assert!(r.ridge_intensity() > 1000.0);
        assert_eq!(r.classify(300.0), BoundKind::MemoryBound);
    }

    #[test]
    fn evaluate_packages_the_point() {
        let r = Roofline::new(100.0, 1e12);
        let p = r.evaluate("cfg", 10.0, 5.0);
        assert_eq!(p.bound, BoundKind::MemoryBound);
        assert!(p.achieved_tflops <= p.attainable_tflops);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Roofline::new(1.0, 0.0);
    }
}
