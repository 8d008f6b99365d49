//! Force laws and reference (unblocked) force computations.

use wa_core::XorShift;

/// Words per particle/force when laid out in word-addressed memory:
/// (x, y, z, m) for particles, (fx, fy, fz, pad) for forces — the paper
/// assumes a force is the same size as a particle.
pub const WORDS_PER_BODY: usize = 4;

/// Small softening constant keeping the force law finite at zero
/// separation.
pub(crate) const EPS2: f64 = 1e-4;

/// 3-vector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

#[allow(clippy::should_implement_trait)] // explicit kernel arithmetic, not operator sugar
impl Vec3 {
    pub(crate) fn add(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.x + o.x,
            y: self.y + o.y,
            z: self.z + o.z,
        }
    }

    pub(crate) fn sub(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.x - o.x,
            y: self.y - o.y,
            z: self.z - o.z,
        }
    }

    pub(crate) fn scale(self, s: f64) -> Vec3 {
        Vec3 {
            x: self.x * s,
            y: self.y * s,
            z: self.z * s,
        }
    }

    pub(crate) fn norm2(self) -> f64 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    pub fn max_abs_diff(self, o: Vec3) -> f64 {
        (self.x - o.x)
            .abs()
            .max((self.y - o.y).abs())
            .max((self.z - o.z).abs())
    }
}

/// A point mass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Particle {
    pub pos: Vec3,
    pub mass: f64,
}

impl Particle {
    /// Deterministic random particle cloud in the unit cube, masses in
    /// `[0.5, 1.5)`.
    pub fn random_cloud(n: usize, seed: u64) -> Vec<Particle> {
        let mut rng = XorShift::new(seed);
        (0..n)
            .map(|_| Particle {
                pos: Vec3 {
                    x: rng.next_unit(),
                    y: rng.next_unit(),
                    z: rng.next_unit(),
                },
                mass: 0.5 + rng.next_unit(),
            })
            .collect()
    }
}

/// Softened gravitational pairwise force of `q` on `p`:
/// `m_p m_q (q − p) / (|q − p|² + ε²)^{3/2}`, with `Φ₂(p, p) = 0` by
/// convention, as the paper assumes. The `3/2` power is one square root
/// and a multiply (`s·√s`), not a `powf`: this is the inner loop of every
/// (N,2)-body kernel.
#[inline]
pub(crate) fn phi2(p: Particle, q: Particle) -> Vec3 {
    let d = q.pos.sub(p.pos);
    let r2 = d.norm2();
    if r2 == 0.0 {
        return Vec3::default();
    }
    let s = r2 + EPS2;
    d.scale(p.mass * q.mass / (s * s.sqrt()))
}

/// A synthetic symmetric three-body force on `p` from the pair `(q, r)`
/// (Axilrod–Teller-flavoured: attraction toward the pair's weighted
/// midpoint, damped by the triangle's size). Returns 0 if any two
/// arguments coincide, per the paper's `Φ_k` convention. Kernels that
/// sweep `r` for a fixed `(p, q)` use [`Phi3Pair`] directly; this direct
/// form is the tests' reference.
#[cfg(test)]
pub(crate) fn phi3(p: Particle, q: Particle, r: Particle) -> Vec3 {
    Phi3Pair::new(p, q).with(r)
}

/// [`phi3`] with its `(p, q)` terms evaluated once: whether `p` and `q`
/// coincide, `|q − p|²` and `m_p m_q`. [`Phi3Pair::with`] adds the `r`
/// terms in the same order as a direct evaluation, so the result is
/// bit-identical to `phi3(p, q, r)` (which is defined through it).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Phi3Pair {
    p: Particle,
    q: Particle,
    coincide: bool,
    qp2: f64,
    mpq: f64,
}

impl Phi3Pair {
    #[inline]
    pub(crate) fn new(p: Particle, q: Particle) -> Self {
        Phi3Pair {
            p,
            q,
            coincide: p.pos == q.pos,
            qp2: q.pos.sub(p.pos).norm2(),
            mpq: p.mass * q.mass,
        }
    }

    /// `Φ₃(p, q, r)`; zero if any two of `p`, `q`, `r` coincide.
    #[inline]
    pub(crate) fn with(&self, r: Particle) -> Vec3 {
        let (p, q) = (self.p, self.q);
        if self.coincide || p.pos == r.pos || q.pos == r.pos {
            return Vec3::default();
        }
        let mid = q.pos.add(r.pos).scale(0.5);
        let d = mid.sub(p.pos);
        let spread = self.qp2 + r.pos.sub(p.pos).norm2() + q.pos.sub(r.pos).norm2();
        d.scale(self.mpq * r.mass / (spread + EPS2).powi(2))
    }
}

/// Unblocked reference: `F_i = Σ_j Φ₂(P_i, P_j)`.
pub fn reference_forces(p: &[Particle]) -> Vec<Vec3> {
    let n = p.len();
    let mut f = vec![Vec3::default(); n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                f[i] = f[i].add(phi2(p[i], p[j]));
            }
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi2_antisymmetric_under_swap() {
        let cloud = Particle::random_cloud(2, 1);
        let f_pq = phi2(cloud[0], cloud[1]);
        let f_qp = phi2(cloud[1], cloud[0]);
        assert!(f_pq.add(f_qp).max_abs_diff(Vec3::default()) < 1e-15);
    }

    #[test]
    fn phi2_zero_for_identical() {
        let p = Particle {
            pos: Vec3 {
                x: 1.0,
                y: 2.0,
                z: 3.0,
            },
            mass: 2.0,
        };
        assert_eq!(phi2(p, p), Vec3::default());
    }

    #[test]
    fn phi3_symmetric_in_last_two_args() {
        let c = Particle::random_cloud(3, 2);
        let a = phi3(c[0], c[1], c[2]);
        let b = phi3(c[0], c[2], c[1]);
        assert!(a.max_abs_diff(b) < 1e-15);
    }

    /// `Phi3Pair` evaluates the direct formula in the same operation
    /// order, so hoisting the pair terms changes no bit.
    #[test]
    fn phi3_pair_matches_the_direct_formula_bitwise() {
        let c = Particle::random_cloud(30, 6);
        for t in c.chunks_exact(3) {
            let (p, q, r) = (t[0], t[1], t[2]);
            let mid = q.pos.add(r.pos).scale(0.5);
            let spread =
                q.pos.sub(p.pos).norm2() + r.pos.sub(p.pos).norm2() + q.pos.sub(r.pos).norm2();
            let direct = mid
                .sub(p.pos)
                .scale(p.mass * q.mass * r.mass / (spread + EPS2).powi(2));
            assert_eq!(phi3(p, q, r), direct);
        }
    }

    #[test]
    fn phi3_pair_is_zero_when_any_two_coincide() {
        let c = Particle::random_cloud(3, 5);
        let (a, b) = (c[0], c[1]);
        // Same position, different mass: coincidence is positional.
        let a2 = Particle {
            mass: a.mass + 1.0,
            ..a
        };
        let zero = Vec3::default();
        assert_ne!(Phi3Pair::new(a, b).with(c[2]), zero);
        assert_eq!(Phi3Pair::new(a, a2).with(b), zero); // p == q
        assert_eq!(Phi3Pair::new(a, b).with(a2), zero); // p == r
        assert_eq!(Phi3Pair::new(b, a).with(a2), zero); // q == r
    }

    #[test]
    fn reference_total_momentum_conserved() {
        // Σ_i F_i = 0 for an antisymmetric pairwise force.
        let p = Particle::random_cloud(20, 3);
        let f = reference_forces(&p);
        let tot = f.iter().fold(Vec3::default(), |a, &b| a.add(b));
        assert!(tot.max_abs_diff(Vec3::default()) < 1e-12);
    }

    #[test]
    fn forces_scale_with_mass() {
        let mut p = Particle::random_cloud(5, 4);
        let f1 = reference_forces(&p);
        for q in &mut p {
            q.mass *= 2.0;
        }
        let f2 = reference_forces(&p);
        for (a, b) in f1.iter().zip(&f2) {
            assert!(a.scale(4.0).max_abs_diff(*b) < 1e-10);
        }
    }
}
