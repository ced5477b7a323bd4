//! Framework-wide error type.

use std::error::Error;
use std::fmt;

/// Errors reported by platform models when profiling a workload.
///
/// Marked `#[non_exhaustive]`: future fault modes may add variants, so
/// downstream matches must keep a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlatformError {
    /// The workload does not fit in some memory level — the paper's
    /// observed failure mode on the WSE-2 beyond 72 layers and the IPU at
    /// 10 layers.
    OutOfMemory {
        /// Memory level that overflowed (e.g. `"pe-sram"`).
        level: String,
        /// Bytes the workload requires at that level.
        required_bytes: u64,
        /// Bytes available at that level.
        capacity_bytes: u64,
    },
    /// The platform cannot execute this configuration (unsupported
    /// strategy, too few devices, …).
    Unsupported(String),
    /// The platform's compiler could not map the workload.
    CompileFailure(String),
    /// A hardware unit failed and the workload cannot be remapped around
    /// it.
    DeviceFault {
        /// Failed unit population (e.g. `"pe"`, `"pcu"`, `"ipu"`).
        unit: String,
        /// Human-readable description of the failure.
        detail: String,
    },
    /// The workload still runs after faults, but only at a fraction of
    /// healthy throughput — reported as an error when a caller demanded
    /// full performance.
    Degraded {
        /// Surviving fraction of healthy throughput, `0..=1`.
        retained_fraction: f64,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::OutOfMemory {
                level,
                required_bytes,
                capacity_bytes,
            } => write!(
                f,
                "out of memory at level `{level}`: need {required_bytes} B, have {capacity_bytes} B"
            ),
            PlatformError::Unsupported(msg) => write!(f, "unsupported configuration: {msg}"),
            PlatformError::CompileFailure(msg) => write!(f, "compilation failed: {msg}"),
            PlatformError::DeviceFault { unit, detail } => {
                write!(f, "device fault on `{unit}`: {detail}")
            }
            PlatformError::Degraded { retained_fraction } => write!(
                f,
                "running degraded at {:.1}% of healthy throughput",
                retained_fraction * 100.0
            ),
        }
    }
}

impl Error for PlatformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_level_and_sizes() {
        let e = PlatformError::OutOfMemory {
            level: "pe-sram".into(),
            required_bytes: 100,
            capacity_bytes: 50,
        };
        let s = e.to_string();
        assert!(s.contains("pe-sram"));
        assert!(s.contains("100"));
        assert!(s.contains("50"));
    }

    #[test]
    fn error_trait_object_compatible() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<PlatformError>();
    }

    #[test]
    fn display_covers_every_variant() {
        let variants = [
            PlatformError::OutOfMemory {
                level: "ddr".into(),
                required_bytes: 2,
                capacity_bytes: 1,
            },
            PlatformError::Unsupported("no tensor parallelism".into()),
            PlatformError::CompileFailure("grid width exceeded".into()),
            PlatformError::DeviceFault {
                unit: "pcu".into(),
                detail: "tile 3 offline".into(),
            },
            PlatformError::Degraded {
                retained_fraction: 0.85,
            },
        ];
        for e in &variants {
            assert!(!e.to_string().is_empty(), "empty Display for {e:?}");
        }
    }

    #[test]
    fn device_fault_display_names_unit_and_detail() {
        let e = PlatformError::DeviceFault {
            unit: "pe".into(),
            detail: "dead rectangle 12x40".into(),
        };
        let s = e.to_string();
        assert!(s.contains("pe"));
        assert!(s.contains("dead rectangle 12x40"));
    }

    #[test]
    fn degraded_display_shows_percentage() {
        let e = PlatformError::Degraded {
            retained_fraction: 0.5,
        };
        assert!(e.to_string().contains("50.0%"));
    }
}
