//! Resource allocation ratio (Eqs. 1 and 2 of the paper).

/// One resource-allocation observation: how many units of a kind a
/// workload (or a section) occupies.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationRecord {
    /// Resource kind, e.g. `"pe"`, `"pcu"`.
    pub kind: String,
    /// Units used by the workload (`R_used` / `R_i`).
    pub used: u64,
    /// Units available on the chip (`R_all`).
    pub available: u64,
}

impl AllocationRecord {
    /// Create a record.
    #[must_use]
    pub fn new(kind: impl Into<String>, used: u64, available: u64) -> Self {
        Self {
            kind: kind.into(),
            used,
            available,
        }
    }
}

/// Eq. 1: the plain allocation ratio `U = R_used / R_all`.
///
/// Returns `None` when `available` is zero.
///
/// # Example
///
/// ```
/// use dabench_core::metrics::allocation_ratio;
/// assert_eq!(allocation_ratio(780, 1000), Some(0.78));
/// assert_eq!(allocation_ratio(1, 0), None);
/// ```
#[must_use]
pub fn allocation_ratio(used: u64, available: u64) -> Option<f64> {
    (available > 0).then(|| used as f64 / available as f64)
}

/// Eq. 2: runtime-weighted allocation ratio across sections,
///
/// ```text
/// U = Σ L_i · (R_i / R_all)  /  Σ L_i
/// ```
///
/// `sections` holds `(runtime_s, used, available)` triples. Returns `None`
/// when the total runtime is zero or any `available` is zero.
///
/// # Example
///
/// ```
/// use dabench_core::metrics::weighted_allocation_ratio;
/// // A long section at 50% and a short one at 100%.
/// let u = weighted_allocation_ratio(&[(9.0, 50, 100), (1.0, 100, 100)]).unwrap();
/// assert!((u - 0.55).abs() < 1e-12);
/// ```
#[must_use]
pub fn weighted_allocation_ratio(sections: &[(f64, u64, u64)]) -> Option<f64> {
    let total_runtime: f64 = sections.iter().map(|&(l, _, _)| l).sum();
    if total_runtime <= 0.0 {
        return None;
    }
    let mut acc = 0.0;
    for &(runtime, used, available) in sections {
        let ratio = allocation_ratio(used, available)?;
        acc += runtime * ratio;
    }
    Some(acc / total_runtime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_ratio() {
        assert_eq!(allocation_ratio(25, 100), Some(0.25));
        assert_eq!(allocation_ratio(0, 100), Some(0.0));
        assert_eq!(allocation_ratio(100, 100), Some(1.0));
    }

    #[test]
    fn zero_available_is_none() {
        assert_eq!(allocation_ratio(10, 0), None);
    }

    #[test]
    fn weighted_single_section_equals_plain() {
        let w = weighted_allocation_ratio(&[(2.5, 30, 60)]).unwrap();
        assert!((w - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_zero_runtime_is_none() {
        assert_eq!(weighted_allocation_ratio(&[(0.0, 1, 2)]), None);
        assert_eq!(weighted_allocation_ratio(&[]), None);
    }

    #[test]
    fn weights_dominate_long_sections() {
        // 99% of the time at 10% allocation barely moved by a brief spike.
        let u = weighted_allocation_ratio(&[(99.0, 10, 100), (1.0, 100, 100)]).unwrap();
        assert!((u - 0.109).abs() < 1e-9);
    }

    #[test]
    fn weighted_propagates_bad_available() {
        assert_eq!(weighted_allocation_ratio(&[(1.0, 5, 0)]), None);
    }

    #[test]
    fn record_constructor() {
        let r = AllocationRecord::new("pe", 3, 4);
        assert_eq!(r.kind, "pe");
        assert_eq!((r.used, r.available), (3, 4));
    }
}
