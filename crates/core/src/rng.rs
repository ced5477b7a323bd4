//! Deterministic seeded randomness shared by the framework.
//!
//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny, statistically
//! solid generator whose entire state is one `u64`, so any derived
//! experiment artifact is fully reproducible from its seed alone. The
//! fault planner draws concrete fault coordinates from it, and the
//! supervision layer ([`crate::supervise`]) forks a per-point seed from
//! it.

/// A SplitMix64 pseudo-random generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the generator.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` (53 bits of precision).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`; returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Derive an independent stream for sub-experiment `index`.
    #[must_use]
    pub fn fork(seed: u64, index: u64) -> Self {
        let mut base = Self::new(seed);
        let salt = base.next_u64();
        Self::new(salt ^ index.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn below_bounds() {
        let mut r = SplitMix64::new(3);
        for _ in 0..100 {
            assert!(r.below(5) < 5);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn forks_are_independent_but_reproducible() {
        let a = SplitMix64::fork(42, 0);
        let b = SplitMix64::fork(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, SplitMix64::fork(42, 0));
    }
}
