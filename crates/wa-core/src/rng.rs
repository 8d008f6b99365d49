//! Minimal deterministic pseudo-random generator (xorshift64*).
//!
//! All workloads in the workspace are generated from explicit seeds so every
//! experiment is bit-reproducible; a tiny local generator avoids coupling
//! library crates to a specific `rand` version (benches and examples may
//! still use `rand` freely).

/// xorshift64* generator. Not cryptographic; plenty for workload synthesis.
#[derive(Clone, Debug)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// Create a generator; a zero seed is remapped to a fixed odd constant.
    pub fn new(seed: u64) -> Self {
        XorShift {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_unit(&mut self) -> f64 {
        // 53 high bits -> [0,1)
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn next_below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = XorShift::new(7);
        let mut b = XorShift::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift::new(1);
        let mut b = XorShift::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn unit_samples_in_range_and_spread() {
        let mut r = XorShift::new(99);
        let mut lo = 0usize;
        for _ in 0..10_000 {
            let x = r.next_unit();
            assert!((0.0..1.0).contains(&x));
            if x < 0.5 {
                lo += 1;
            }
        }
        assert!((4_000..6_000).contains(&lo), "lo half got {lo}");
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift::new(0);
        assert_ne!(r.next_u64(), 0);
    }
}
