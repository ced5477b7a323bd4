//! Scaling-efficiency metrics for the Tier-2 analysis.

/// Classic strong/weak-scaling figures derived from a baseline and a
/// scaled run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingEfficiency {
    /// Units in the scaled run (chips, replicas, pipeline stages…).
    pub units: u32,
    /// Throughput ratio over the single-unit baseline.
    pub speedup: f64,
    /// `speedup / units` (`1.0` = perfect scaling).
    pub efficiency: f64,
    /// Karp–Flatt experimentally determined serial fraction; `None` when
    /// `units == 1` (undefined) or the speedup is degenerate.
    pub serial_fraction: Option<f64>,
}

/// Compute scaling figures from a baseline throughput and a scaled
/// throughput over `units` units.
///
/// Returns `None` for non-positive inputs or `units == 0`.
///
/// # Example
///
/// ```
/// use dabench_core::metrics::scaling_efficiency;
///
/// // 4 chips, 3.2× the throughput → 80% efficiency, Karp–Flatt e ≈ 0.083.
/// let s = scaling_efficiency(100.0, 320.0, 4).unwrap();
/// assert!((s.efficiency - 0.8).abs() < 1e-12);
/// let e = s.serial_fraction.unwrap();
/// assert!((e - 0.0833).abs() < 1e-3);
/// ```
#[must_use]
pub fn scaling_efficiency(
    baseline_throughput: f64,
    scaled_throughput: f64,
    units: u32,
) -> Option<ScalingEfficiency> {
    if baseline_throughput <= 0.0 || scaled_throughput <= 0.0 || units == 0 {
        return None;
    }
    let p = f64::from(units);
    let speedup = scaled_throughput / baseline_throughput;
    let serial_fraction = if units > 1 && speedup > 1.0 {
        // Karp–Flatt: e = (1/ψ − 1/p) / (1 − 1/p).
        Some(((1.0 / speedup) - (1.0 / p)) / (1.0 - 1.0 / p))
    } else {
        None
    };
    Some(ScalingEfficiency {
        units,
        speedup,
        efficiency: speedup / p,
        serial_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_scaling() {
        let s = scaling_efficiency(10.0, 80.0, 8).unwrap();
        assert!((s.speedup - 8.0).abs() < 1e-12);
        assert!((s.efficiency - 1.0).abs() < 1e-12);
        assert!(s.serial_fraction.unwrap().abs() < 1e-12);
    }

    #[test]
    fn no_scaling_means_full_serial_fraction() {
        let s = scaling_efficiency(10.0, 10.0, 8).unwrap();
        assert!((s.speedup - 1.0).abs() < 1e-12);
        // ψ = 1 → not > 1 → Karp–Flatt undefined by our convention.
        assert!(s.serial_fraction.is_none());
    }

    #[test]
    fn serial_fraction_monotone_in_inefficiency() {
        let good = scaling_efficiency(10.0, 70.0, 8).unwrap();
        let bad = scaling_efficiency(10.0, 40.0, 8).unwrap();
        assert!(bad.serial_fraction.unwrap() > good.serial_fraction.unwrap());
    }

    #[test]
    fn degenerate_inputs() {
        assert!(scaling_efficiency(0.0, 1.0, 2).is_none());
        assert!(scaling_efficiency(1.0, -1.0, 2).is_none());
        assert!(scaling_efficiency(1.0, 1.0, 0).is_none());
    }

    #[test]
    fn single_unit_has_no_serial_fraction() {
        let s = scaling_efficiency(5.0, 5.0, 1).unwrap();
        assert!(s.serial_fraction.is_none());
        assert!((s.efficiency - 1.0).abs() < 1e-12);
    }
}
