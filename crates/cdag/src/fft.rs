//! Cooley–Tukey radix-2 FFT, instrumented and symbolic.
//!
//! Corollary 2 of the paper: the FFT's CDAG has out-degree ≤ 2, so its
//! stores to slow memory are within a constant factor of its total
//! traffic — it admits no write-avoiding schedule. Here we provide:
//!
//! * [`fft_mem`] — a real, in-place, iterative decimation-in-time FFT
//!   whose every element access goes through a [`memsim::Mem`], so the
//!   cache simulator observes its true read/write stream;
//! * [`fft_symbolic`] — the same butterfly structure executed on the
//!   [`Cdag`] recorder, from which the out-degree bound `d = 2` is
//!   *measured*;
//! * [`dft_reference`] — an O(n²) direct DFT used to verify numerics.

use crate::graph::{Cdag, NodeId};
use memsim::Mem;

/// Minimal complex number (the workspace has no external num crate).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

#[allow(clippy::should_implement_trait)] // explicit kernel arithmetic, not operator sugar
impl Complex {
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    pub(crate) fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }

    pub(crate) fn add(self, o: Complex) -> Complex {
        Complex {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }

    pub fn sub(self, o: Complex) -> Complex {
        Complex {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }

    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

/// In-place iterative radix-2 DIT FFT of length `n` (power of two). The
/// signal is stored interleaved at `base`: element `i` occupies words
/// `base + 2i` (re) and `base + 2i + 1` (im). Twiddle factors are computed
/// in registers and cause no memory traffic, matching the paper's model
/// where loop indices and scalars live above the studied boundary.
pub fn fft_mem<M: Mem>(mem: &mut M, base: usize, n: usize) {
    assert!(n.is_power_of_two(), "radix-2 FFT needs a power of two");
    // Bit-reversal permutation. Each complex element is one 2-word run.
    mem.phase("bit-reversal");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits().wrapping_shr(64 - bits) as usize;
        if j > i {
            let (mut ei, mut ej) = ([0.0; 2], [0.0; 2]);
            mem.ld_run(base + 2 * i, &mut ei);
            mem.ld_run(base + 2 * j, &mut ej);
            mem.st_run(base + 2 * i, &ej);
            mem.st_run(base + 2 * j, &ei);
        }
    }
    // Butterfly passes: the two operands and two results of each
    // butterfly move as 2-word (re, im) runs.
    mem.phase("butterflies");
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let ia = base + 2 * (i + k);
                let ib = base + 2 * (i + k + len / 2);
                let (mut eu, mut ev) = ([0.0; 2], [0.0; 2]);
                mem.ld_run(ia, &mut eu);
                mem.ld_run(ib, &mut ev);
                let u = Complex::new(eu[0], eu[1]);
                let v = Complex::new(ev[0], ev[1]).mul(w);
                let s = u.add(v);
                let d = u.sub(v);
                mem.st_run(ia, &[s.re, s.im]);
                mem.st_run(ib, &[d.re, d.im]);
                w = w.mul(wlen);
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Direct O(n²) DFT for verification.
pub fn dft_reference(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::default();
            for (j, &xj) in x.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc = acc.add(xj.mul(Complex::new(ang.cos(), ang.sin())));
            }
            acc
        })
        .collect()
}

/// Build the FFT butterfly CDAG for length `n` on the recorder. Each
/// complex value is one vertex (the paper's argument is per operand, and
/// re/im move together). Returns the output vertex ids.
pub fn fft_symbolic(g: &mut Cdag, n: usize) -> Vec<NodeId> {
    assert!(n.is_power_of_two());
    let mut cur: Vec<NodeId> = (0..n).map(|_| g.input()).collect();
    // Bit-reversal is a relabeling, not computation.
    let bits = n.trailing_zeros();
    let mut perm: Vec<NodeId> = cur.clone();
    for (i, &id) in cur.iter().enumerate() {
        let j = (i as u64).reverse_bits().wrapping_shr(64 - bits) as usize;
        perm[j] = id;
    }
    cur = perm;
    let mut len = 2;
    while len <= n {
        let mut next = cur.clone();
        let mut i = 0;
        while i < n {
            for k in 0..len / 2 {
                let a = cur[i + k];
                let b = cur[i + k + len / 2];
                // Butterfly: two outputs, each depending on both inputs
                // (the twiddle multiply is folded into the edge).
                next[i + k] = g.op(&[a, b]);
                next[i + k + len / 2] = g.op(&[a, b]);
            }
            i += len;
        }
        cur = next;
        len <<= 1;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{CacheConfig, MemSim, Policy, RawMem, SimMem};
    use wa_core::XorShift;

    fn random_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = XorShift::new(seed);
        (0..n)
            .map(|_| Complex::new(rng.next_unit() * 2.0 - 1.0, rng.next_unit() * 2.0 - 1.0))
            .collect()
    }

    fn write_signal<M: Mem>(mem: &mut M, base: usize, x: &[Complex]) {
        for (i, c) in x.iter().enumerate() {
            mem.st(base + 2 * i, c.re);
            mem.st(base + 2 * i + 1, c.im);
        }
    }

    #[test]
    fn fft_matches_direct_dft() {
        for n in [2usize, 4, 8, 32, 128] {
            let x = random_signal(n, n as u64);
            let want = dft_reference(&x);
            let mut mem = RawMem::new(2 * n);
            write_signal(&mut mem, 0, &x);
            fft_mem(&mut mem, 0, n);
            for (k, &w) in want.iter().enumerate() {
                let got = Complex::new(mem.data[2 * k], mem.data[2 * k + 1]);
                assert!(
                    got.sub(w).abs() < 1e-9 * (n as f64),
                    "n={n} k={k}: {got:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn fft_linearity_property() {
        // FFT(a·x) = a·FFT(x) for scalar a.
        let n = 64;
        let x = random_signal(n, 5);
        let mut m1 = RawMem::new(2 * n);
        let mut m2 = RawMem::new(2 * n);
        write_signal(&mut m1, 0, &x);
        let scaled: Vec<Complex> = x
            .iter()
            .map(|c| Complex::new(3.0 * c.re, 3.0 * c.im))
            .collect();
        write_signal(&mut m2, 0, &scaled);
        fft_mem(&mut m1, 0, n);
        fft_mem(&mut m2, 0, n);
        for i in 0..2 * n {
            assert!((3.0 * m1.data[i] - m2.data[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn symbolic_cdag_has_out_degree_two() {
        for n in [4usize, 16, 64] {
            let mut g = Cdag::new();
            let outs = fft_symbolic(&mut g, n);
            assert_eq!(outs.len(), n);
            // Corollary 2's hypothesis, measured: out-degree <= 2 for every
            // vertex, inputs included.
            assert!(g.max_out_degree() <= 2, "n={n}");
            // And the graph has n log2 n butterfly outputs + n inputs.
            assert_eq!(g.num_nodes(), n + n * n.trailing_zeros() as usize);
        }
    }

    /// Corollary 2 observed on the cache simulator: FFT stores to slow
    /// memory are a constant fraction of total traffic (no WA schedule).
    #[test]
    fn fft_writes_are_constant_fraction_of_traffic() {
        let n = 1 << 12; // 4096 complex = 8192 words, cache = 512 words
        let cfg = CacheConfig {
            capacity_words: 512,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        };
        let x = random_signal(n, 9);
        let mut mem = SimMem::new(2 * n, MemSim::two_level(cfg));
        write_signal(&mut mem, 0, &x);
        let data = std::mem::take(&mut mem.data);
        let mut mem = SimMem::from_vec(data, MemSim::two_level(cfg));
        fft_mem(&mut mem, 0, n);
        mem.sim.flush();
        let c = mem.sim.llc();
        let writes = c.victims_m + c.flush_victims_m;
        let reads = c.fills;
        // In-place FFT dirties every line it touches: writes ~ reads.
        let frac = writes as f64 / reads as f64;
        assert!(
            frac > 0.5,
            "write fraction {frac} too small for a non-WA CDAG"
        );
        // And total traffic is Ω(n log n / log M) as the bound predicts.
        let bound_words = wa_core::bounds::fft_ldst_lower(n as u64, 512);
        assert!(
            ((reads + writes) * 8) as f64 > 0.5 * bound_words,
            "traffic below the Hong-Kung bound?!"
        );
    }
}
