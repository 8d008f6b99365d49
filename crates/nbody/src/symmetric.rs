//! The symmetry-exploiting (Newton's third law) N-body variant.
//!
//! Halves the interaction count by computing each pair once and applying
//! `F_ji = -F_ij`, but — as §4.4 argues — every pass through the inner
//! loop now updates forces on *both* blocks, so partial force accumulators
//! for all `N` particles are repeatedly written back: `Θ(N²/b)` stores to
//! slow memory instead of `N`. Write-avoiding and flop-halving are in
//! tension.

use crate::force::{phi2, Particle, Vec3};
use memsim::ExplicitHier;

/// The block schedule of the two-level symmetric N-body kernel: the
/// interaction loop runs over unordered block pairs `(i, j)`, `j ≥ i`, at
/// `b = M/4` (four resident blocks: `P(i)`, `P(j)`, `F(i)`, `F(j)`), with
/// every [`ExplicitHier`] charge. `F(j)` is stored back every pass.
///
/// `body((i, bi), (j, bj))` runs once per block pair, after both blocks
/// are loaded; the pair charges one flop per unordered particle pair.
/// No count depends on what the body does.
pub(crate) fn nbody_symmetric_schedule(
    n: usize,
    hier: &mut ExplicitHier,
    mut body: impl FnMut((usize, usize), (usize, usize)),
) {
    let b = ((hier.capacity(1) / 4) as usize).max(1);
    let mut i = 0;
    while i < n {
        let bi = b.min(n - i);
        hier.load(0, bi as u64); // P(i)
        hier.load(0, bi as u64); // F(i): partially accumulated, re-read
        let mut j = i;
        while j < n {
            let bj = b.min(n - j);
            if j > i {
                hier.load(0, bj as u64); // P(j)
                hier.load(0, bj as u64); // F(j): partial sums re-read
            }
            body((i, bi), (j, bj));
            // One Φ₂ evaluation per unordered pair in this block pair.
            let interactions = if j == i {
                bi * bi.saturating_sub(1) / 2
            } else {
                bi * bj
            };
            hier.flop(interactions as u64);
            if j > i {
                hier.store(0, bj as u64); // F(j) written back every pass
                hier.free(1, 2 * bj as u64);
            }
            j += bj;
        }
        hier.store(0, bi as u64); // F(i)
        hier.free(1, 2 * bi as u64);
        i += bi;
    }
}

/// Two-level blocked symmetric N-body on the
/// `nbody_symmetric_schedule` block loops: each unordered pair's force
/// is computed once and applied to both particles.
pub fn explicit_nbody_symmetric(p: &[Particle], hier: &mut ExplicitHier) -> Vec<Vec3> {
    let mut f = vec![Vec3::default(); p.len()];
    nbody_symmetric_schedule(p.len(), hier, |(i, bi), (j, bj)| {
        for ii in i..i + bi {
            let jj0 = if j == i { ii + 1 } else { j };
            for jj in jj0..j + bj {
                let fij = phi2(p[ii], p[jj]);
                f[ii] = f[ii].add(fij);
                f[jj] = f[jj].sub(fij);
            }
        }
    });
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::explicit_nbody_wa;
    use crate::force::reference_forces;

    #[test]
    fn symmetric_matches_reference() {
        let p = Particle::random_cloud(40, 21);
        let mut h = ExplicitHier::two_level(16);
        let f = explicit_nbody_symmetric(&p, &mut h);
        let want = reference_forces(&p);
        for (a, b) in f.iter().zip(&want) {
            assert!(a.max_abs_diff(*b) < 1e-12);
        }
    }

    #[test]
    fn symmetric_halves_flops_but_multiplies_writes() {
        let n = 64usize;
        let p = Particle::random_cloud(n, 22);
        let mut h_wa = ExplicitHier::two_level(12); // b = 4
        let mut h_sym = ExplicitHier::two_level(16); // b = 4 (M/4)
        let f1 = explicit_nbody_wa(&p, &mut h_wa);
        let f2 = explicit_nbody_symmetric(&p, &mut h_sym);
        for (a, b) in f1.iter().zip(&f2) {
            assert!(a.max_abs_diff(*b) < 1e-12);
        }
        // Roughly half the interactions...
        assert!(h_sym.flops() < 6 * h_wa.flops() / 10);
        // ...but stores scale like N²/b instead of N.
        let s_wa = h_wa.traffic().boundary(0).store_words;
        let s_sym = h_sym.traffic().boundary(0).store_words;
        assert_eq!(s_wa, n as u64);
        assert!(
            s_sym as f64 > 0.3 * (n * n / 4) as f64 / 2.0,
            "symmetric stores {s_sym} should scale with N²/b"
        );
        assert!(s_sym > 4 * s_wa);
    }

    #[test]
    fn schedule_charges_the_kernels_traffic() {
        for (n, m) in [(1usize, 4u64), (7, 4), (30, 16), (40, 17), (64, 41)] {
            let p = Particle::random_cloud(n, 24);
            let mut full = ExplicitHier::two_level(m);
            let _ = explicit_nbody_symmetric(&p, &mut full);
            let mut sched = ExplicitHier::two_level(m);
            nbody_symmetric_schedule(n, &mut sched, |_, _| {});
            assert_eq!(sched.traffic(), full.traffic(), "n {n} m {m}");
            assert_eq!(sched.flops(), full.flops(), "n {n} m {m}");
            assert_eq!(sched.peak(1), full.peak(1), "n {n} m {m}");
            assert_eq!(sched.flops(), (n * (n - 1) / 2) as u64, "n {n} m {m}");
        }
    }

    #[test]
    fn capacity_respected() {
        let p = Particle::random_cloud(30, 23);
        let mut h = ExplicitHier::two_level(16);
        let _ = explicit_nbody_symmetric(&p, &mut h);
        assert!(h.peak(1) <= 16);
    }
}
