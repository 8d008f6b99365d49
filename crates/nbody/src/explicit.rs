//! Algorithm 4 — explicitly blocked direct N-body, two-level, with exact
//! counts, plus the (N,k)-body generalization.
//!
//! Memory is measured in *particles*: the hierarchy capacities passed in
//! are particle counts, matching the paper's accounting ("L1 and L2 can
//! store M₁ and M₂ particles").

use crate::force::{phi2, Particle, Phi3Pair, Vec3};
use memsim::ExplicitHier;

/// Block size for the (N,2)-body problem: `b = M/3` (P⁽¹⁾ block, P⁽²⁾
/// block, F⁽¹⁾ block resident simultaneously).
pub(crate) fn block2_for(m_particles: u64) -> usize {
    ((m_particles / 3) as usize).max(1)
}

/// The block schedule of two-level WA Algorithm 4: two nested block
/// loops at `b = M/3` (`P(1)`, `P(2)` and the force block `F(1)`
/// resident), with every [`ExplicitHier`] load, allocation, flop charge,
/// free and store.
///
/// `body((i, bi), (j, bj))` runs once per resident block pair, after the
/// j block's load and before its `bi·bj` flop charge. No count depends on
/// what the body does, so an empty body charges the same traffic as
/// [`explicit_nbody_wa`]: loads `N + nb·N` words (`N + N²/b` when `b`
/// divides `N`), local (R2) writes `N` for the force accumulators, stores
/// `N` — the output size — and `N²` flops.
pub fn nbody_wa_schedule(
    n: usize,
    hier: &mut ExplicitHier,
    mut body: impl FnMut((usize, usize), (usize, usize)),
) {
    let b = block2_for(hier.capacity(1));
    let mut i = 0;
    while i < n {
        let bi = b.min(n - i);
        hier.load(0, bi as u64); // P(1)(i): L2 -> L1
        hier.alloc(1, bi as u64); // F(1)(i) initialized in L1 (R2)
        let mut j = 0;
        while j < n {
            let bj = b.min(n - j);
            hier.load(0, bj as u64); // P(2)(j)
            body((i, bi), (j, bj));
            hier.flop((bi * bj) as u64);
            hier.free(1, bj as u64);
            j += bj;
        }
        hier.store(0, bi as u64); // F(1)(i): L1 -> L2
        hier.free(1, 2 * bi as u64); // P(1)(i) and F(1)(i)
        i += bi;
    }
}

/// Two-level WA Algorithm 4: `F_i = Σ_j Φ₂(P_i, P_j)` on the
/// [`nbody_wa_schedule`] block loops.
pub fn explicit_nbody_wa(p: &[Particle], hier: &mut ExplicitHier) -> Vec<Vec3> {
    let mut f = vec![Vec3::default(); p.len()];
    nbody_wa_schedule(p.len(), hier, |(i, bi), (j, bj)| {
        for ii in i..i + bi {
            for jj in j..j + bj {
                if ii != jj {
                    f[ii] = f[ii].add(phi2(p[ii], p[jj]));
                }
            }
        }
    });
    f
}

/// The block schedule of the two-level WA (N,3)-body kernel: three
/// nested block loops at `b = M/4` (`k + 1 = 4` particle arrays resident:
/// `P(1)`, `P(2)`, `P(3)` and the force block `F(1)`), with every
/// [`ExplicitHier`] load, allocation, flop charge, free and store.
///
/// `body((i, bi), (j, bj), (k, bk))` runs once per resident block triple,
/// after the k block's load and before its `bi·bj·bk` flop charge; the
/// blocks are `[i, i + bi)`, `[j, j + bj)` and `[k, k + bk)`. No count
/// depends on what the body does, so an empty body charges the same
/// traffic as [`explicit_kbody_wa`]: with `nb = ⌈N/b⌉` blocks, loads
/// `N + nb·N + nb²·N` words in `nb + nb² + nb³` messages (`N + N²/b +
/// N³/b²` when `b` divides `N`), `N` stores and `N³` flops.
pub(crate) fn kbody_schedule(
    n: usize,
    hier: &mut ExplicitHier,
    mut body: impl FnMut((usize, usize), (usize, usize), (usize, usize)),
) {
    let b = ((hier.capacity(1) / 4) as usize).max(1); // k+1 = 4 arrays
    let mut i = 0;
    while i < n {
        let bi = b.min(n - i);
        hier.load(0, bi as u64); // P(1)(i1)
        hier.alloc(1, bi as u64); // F(1)(i1)
        let mut j = 0;
        while j < n {
            let bj = b.min(n - j);
            hier.load(0, bj as u64); // P(2)(i2)
            let mut k = 0;
            while k < n {
                let bk = b.min(n - k);
                hier.load(0, bk as u64); // P(3)(i3)
                body((i, bi), (j, bj), (k, bk));
                hier.flop((bi * bj * bk) as u64);
                hier.free(1, bk as u64);
                k += bk;
            }
            hier.free(1, bj as u64);
            j += bj;
        }
        hier.store(0, bi as u64); // F(1)(i1)
        hier.free(1, 2 * bi as u64);
        i += bi;
    }
}

/// Two-level WA (N,3)-body: `F_i = Σ_{j<k} Φ₃(P_i, P_j, P_k)` on the
/// `kbody_schedule` block loops, not exploiting symmetry (the paper's
/// k-loop structure). Each block triple sweeps ordered pairs `(j, k)`, so
/// every unordered pair is met twice and each term is halved to match
/// the reference's `j<k` convention.
pub fn explicit_kbody_wa(p: &[Particle], hier: &mut ExplicitHier) -> Vec<Vec3> {
    let mut f = vec![Vec3::default(); p.len()];
    kbody_schedule(p.len(), hier, |(i, bi), (j, bj), (k, bk)| {
        for ii in i..i + bi {
            let mut acc = f[ii];
            for jj in (j..j + bj).filter(|&jj| jj != ii) {
                let pair = Phi3Pair::new(p[ii], p[jj]);
                for (kk, &pk) in (k..k + bk).zip(&p[k..k + bk]) {
                    if kk != ii && kk != jj {
                        acc = acc.add(pair.with(pk).scale(0.5));
                    }
                }
            }
            f[ii] = acc;
        }
    });
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::{phi3, reference_forces};
    use proptest::prelude::*;

    /// Unblocked reference: `F_i = Σ_{j<k, j≠i≠k} Φ₃(P_i, P_j, P_k)` —
    /// unordered pairs so each triple contributes once per target particle.
    fn reference_forces_3body(p: &[Particle]) -> Vec<Vec3> {
        let n = p.len();
        let mut f = vec![Vec3::default(); n];
        for i in 0..n {
            for j in 0..n {
                for k in j + 1..n {
                    if j != i && k != i {
                        f[i] = f[i].add(phi3(p[i], p[j], p[k]));
                    }
                }
            }
        }
        f
    }

    #[test]
    fn wa_2body_matches_reference() {
        let p = Particle::random_cloud(40, 11);
        let mut h = ExplicitHier::two_level(12); // b = 4
        let f = explicit_nbody_wa(&p, &mut h);
        let want = reference_forces(&p);
        for (a, b) in f.iter().zip(&want) {
            assert!(a.max_abs_diff(*b) < 1e-12);
        }
    }

    #[test]
    fn wa_2body_counts_match_algorithm_4() {
        let n = 48u64;
        let p = Particle::random_cloud(n as usize, 12);
        let mut h = ExplicitHier::two_level(12); // b = 4
        let _ = explicit_nbody_wa(&p, &mut h);
        let b = 4u64;
        let t = h.traffic().boundary(0);
        // loads = N (P1 blocks) + N²/b (P2 blocks)
        assert_eq!(t.load_words, n + n * n / b);
        // stores = N (the output)
        assert_eq!(t.store_words, n);
        // writes into L1 = loads + N force-accumulator initializations
        assert_eq!(h.writes_into_level(1), n + n * n / b + n);
        // flops = N² interactions
        assert_eq!(h.flops(), n * n);
    }

    #[test]
    fn wa_2body_attains_lower_bounds() {
        let n = 64u64;
        let m = 12u64;
        let p = Particle::random_cloud(n as usize, 13);
        let mut h = ExplicitHier::two_level(m);
        let _ = explicit_nbody_wa(&p, &mut h);
        let bound = wa_core::bounds::nbody_ldst_lower(n, 2, m);
        let loads = h.traffic().boundary(0).load_words as f64;
        // Within a constant factor (~3x) of N²/M: loads = N + N²/(M/3).
        assert!(
            loads <= 3.0 * bound + n as f64 + 1.0,
            "loads {loads} vs bound {bound}"
        );
        assert_eq!(
            h.traffic().boundary(0).store_words,
            wa_core::bounds::writes_to_slow_lower(n)
        );
    }

    #[test]
    fn wa_3body_matches_reference() {
        let p = Particle::random_cloud(14, 14);
        let mut h = ExplicitHier::two_level(16); // b = 4
        let f = explicit_kbody_wa(&p, &mut h);
        let want = reference_forces_3body(&p);
        for (a, b) in f.iter().zip(&want) {
            assert!(a.max_abs_diff(*b) < 1e-12, "{a:?} vs {b:?}");
        }
    }

    /// Hoisting `Φ₃`'s pair terms and the `ii == jj` skip out of the
    /// `kk` loop changes no bit: one block, so the kernel's summation
    /// order is this per-triple loop's.
    #[test]
    fn wa_3body_hoisting_is_bit_identical() {
        let p = Particle::random_cloud(12, 17);
        let n = p.len();
        let mut want = vec![Vec3::default(); n];
        for ii in 0..n {
            for jj in 0..n {
                for kk in 0..n {
                    if jj != kk && ii != jj && ii != kk {
                        want[ii] = want[ii].add(crate::force::phi3(p[ii], p[jj], p[kk]).scale(0.5));
                    }
                }
            }
        }
        let mut h = ExplicitHier::two_level(4 * n as u64); // b = n
        assert_eq!(explicit_kbody_wa(&p, &mut h), want);
    }

    #[test]
    fn wa_3body_counts() {
        let n = 16u64;
        let p = Particle::random_cloud(n as usize, 15);
        let mut h = ExplicitHier::two_level(16); // b = 4
        let _ = explicit_kbody_wa(&p, &mut h);
        let b = 4u64;
        let t = h.traffic().boundary(0);
        // loads = N + N²/b + N³/b²
        assert_eq!(t.load_words, n + n * n / b + n * n * n / (b * b));
        assert_eq!(t.store_words, n);
        assert_eq!(h.flops(), n * n * n);
    }

    proptest! {
        /// The Algorithm 4 schedule alone charges exactly the full
        /// kernel's traffic, and both equal the closed form.
        #[test]
        fn nbody_wa_schedule_charges_the_kernels_traffic(n in 1usize..41, m in 3u64..41) {
            let p = Particle::random_cloud(n, 19);
            let mut full = ExplicitHier::two_level(m);
            let _ = explicit_nbody_wa(&p, &mut full);
            let mut sched = ExplicitHier::two_level(m);
            nbody_wa_schedule(n, &mut sched, |_, _| {});
            prop_assert_eq!(sched.traffic(), full.traffic());
            prop_assert_eq!(sched.writes_into_level(1), full.writes_into_level(1));
            prop_assert_eq!(sched.flops(), full.flops());
            prop_assert_eq!(sched.peak(1), full.peak(1));

            let (n, b) = (n as u64, (m / 3).max(1));
            let nb = n.div_ceil(b);
            let t = sched.traffic().boundary(0);
            prop_assert_eq!(t.load_words, n + nb * n);
            prop_assert_eq!(t.load_msgs, nb + nb * nb);
            prop_assert_eq!(t.store_words, n);
            prop_assert_eq!(sched.writes_into_level(1), n + nb * n + n);
            prop_assert_eq!(sched.flops(), n * n);
        }

        /// The schedule alone charges exactly the full kernel's traffic,
        /// and both equal the closed form (at paper scale, n = 384 and
        /// m = 128: 60288 load words, 1884 load messages, 384 stores and
        /// 56623104 flops).
        #[test]
        fn kbody_schedule_charges_the_kernels_traffic(n in 1usize..41, m in 4u64..41) {
            let p = Particle::random_cloud(n, 18);
            let mut full = ExplicitHier::two_level(m);
            let _ = explicit_kbody_wa(&p, &mut full);
            let mut sched = ExplicitHier::two_level(m);
            kbody_schedule(n, &mut sched, |_, _, _| {});
            prop_assert_eq!(sched.traffic(), full.traffic());
            prop_assert_eq!(sched.writes_into_level(1), full.writes_into_level(1));
            prop_assert_eq!(sched.flops(), full.flops());
            prop_assert_eq!(sched.peak(1), full.peak(1));

            let (n, b) = (n as u64, (m / 4).max(1));
            let nb = n.div_ceil(b);
            let t = sched.traffic().boundary(0);
            prop_assert_eq!(t.load_words, n + nb * n + nb * nb * n);
            prop_assert_eq!(t.load_msgs, nb + nb * nb + nb * nb * nb);
            prop_assert_eq!(t.store_words, n);
            prop_assert_eq!(t.store_msgs, nb);
            prop_assert_eq!(sched.flops(), n * n * n);
        }
    }

    #[test]
    fn capacity_respected() {
        let p = Particle::random_cloud(30, 16);
        let mut h = ExplicitHier::two_level(12);
        let _ = explicit_nbody_wa(&p, &mut h);
        assert!(h.peak(1) <= 12);
        let mut h3 = ExplicitHier::two_level(16);
        let _ = explicit_kbody_wa(&p, &mut h3);
        assert!(h3.peak(1) <= 16);
    }
}
