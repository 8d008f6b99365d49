//! Cache-simulated (access-driven) blocked N-body for the Proposition 6.2
//! validation: under LRU with five blocks resident, the blocked WA
//! schedule's write-backs equal the output size `N`.

use crate::force::{phi2, Particle, Vec3, WORDS_PER_BODY};
use memsim::Mem;

/// Word layout: particles at `[0, 4N)` (x,y,z,m per particle), forces at
/// `[4N, 8N)` (fx,fy,fz,pad).
pub fn particle_base(i: usize) -> usize {
    i * WORDS_PER_BODY
}

pub fn force_base(n: usize, i: usize) -> usize {
    (n + i) * WORDS_PER_BODY
}

/// Write a particle cloud into memory (setup; not part of the measured
/// kernel). Each body is one 4-word run.
pub fn store_cloud<M: Mem>(mem: &mut M, p: &[Particle]) {
    for (i, q) in p.iter().enumerate() {
        mem.st_run(particle_base(i), &[q.pos.x, q.pos.y, q.pos.z, q.mass]);
    }
}

/// Read the force array back out.
pub fn load_forces<M: Mem>(mem: &mut M, n: usize) -> Vec<Vec3> {
    (0..n)
        .map(|i| {
            let mut f = [0.0; 3];
            mem.ld_run(force_base(n, i), &mut f);
            Vec3 {
                x: f[0],
                y: f[1],
                z: f[2],
            }
        })
        .collect()
}

/// The particle in a body's 4 words `(x, y, z, m)`.
fn body(w: &[f64]) -> Particle {
    Particle {
        pos: Vec3 {
            x: w[0],
            y: w[1],
            z: w[2],
        },
        mass: w[3],
    }
}

fn ld_particle<M: Mem>(mem: &mut M, i: usize) -> Particle {
    let mut w = [0.0; WORDS_PER_BODY];
    mem.ld_run(particle_base(i), &mut w);
    body(&w)
}

/// Load particles `[from, to)` into `out` (body `from` first) as one run;
/// an empty range issues no access.
fn ld_bodies<M: Mem>(mem: &mut M, from: usize, to: usize, out: &mut [f64]) {
    if from < to {
        mem.ld_run(
            particle_base(from),
            &mut out[..(to - from) * WORDS_PER_BODY],
        );
    }
}

/// Blocked WA (N,2)-body over a [`Mem`], block size `b` particles: force
/// accumulators for the `i` block are held in registers across the whole
/// `j` sweep (the access-level analogue of Algorithm 4's F-block
/// residency), written once per block.
///
/// For each target `ii` the `j` block is read as at most two runs split
/// around `ii` — `[j, ii)` and `(ii, j + bj)`, skipping empty ones — into
/// one reused buffer. That is exactly the word stream of loading each
/// partner `jj ≠ ii` on its own, in order (same addresses, same kinds),
/// in a few calls per block instead of one per particle pair.
pub fn simmed_nbody_wa<M: Mem>(mem: &mut M, n: usize, b: usize) {
    let mut blk = vec![0.0; b.min(n) * WORDS_PER_BODY];
    let mut i = 0;
    while i < n {
        let bi = b.min(n - i);
        // Initialize force accumulators (R2 residency: first touch is a
        // write).
        mem.phase("force-init");
        for ii in i..i + bi {
            mem.st_run(force_base(n, ii), &[0.0; 3]);
        }
        mem.phase("force-sweep");
        let mut j = 0;
        while j < n {
            let bj = b.min(n - j);
            let blk = &mut blk[..bj * WORDS_PER_BODY];
            for ii in i..i + bi {
                let pi = ld_particle(mem, ii);
                let mut f = [0.0; 3];
                mem.ld_run(force_base(n, ii), &mut f);
                let mut acc = Vec3 {
                    x: f[0],
                    y: f[1],
                    z: f[2],
                };
                // `ii` clamped into the block: the runs either side of it.
                let lo = ii.clamp(j, j + bj);
                let hi = (ii + 1).clamp(j, j + bj);
                ld_bodies(mem, j, lo, blk);
                ld_bodies(mem, hi, j + bj, &mut blk[(hi - j) * WORDS_PER_BODY..]);
                for (jj, w) in (j..j + bj).zip(blk.chunks_exact(WORDS_PER_BODY)) {
                    if ii != jj {
                        acc = acc.add(phi2(pi, body(w)));
                    }
                }
                mem.st_run(force_base(n, ii), &[acc.x, acc.y, acc.z]);
            }
            j += bj;
        }
        i += bi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::reference_forces;
    use memsim::{CacheConfig, MemSim, Policy, RawMem, SimMem, TraceMem};

    /// Reference word stream: the same schedule, loading each partner
    /// `jj` with its own `ld_particle` (one call per particle pair).
    fn per_pair_nbody_wa<M: Mem>(mem: &mut M, n: usize, b: usize) {
        let mut i = 0;
        while i < n {
            let bi = b.min(n - i);
            mem.phase("force-init");
            for ii in i..i + bi {
                mem.st_run(force_base(n, ii), &[0.0; 3]);
            }
            mem.phase("force-sweep");
            let mut j = 0;
            while j < n {
                let bj = b.min(n - j);
                for ii in i..i + bi {
                    let pi = ld_particle(mem, ii);
                    let mut f = [0.0; 3];
                    mem.ld_run(force_base(n, ii), &mut f);
                    let mut acc = Vec3 {
                        x: f[0],
                        y: f[1],
                        z: f[2],
                    };
                    for jj in j..j + bj {
                        if ii != jj {
                            let pj = ld_particle(mem, jj);
                            acc = acc.add(phi2(pi, pj));
                        }
                    }
                    mem.st_run(force_base(n, ii), &[acc.x, acc.y, acc.z]);
                }
                j += bj;
            }
            i += bi;
        }
    }

    /// Counts `ld_run`/`st_run` calls on the way to an inner store.
    struct CountRuns<M> {
        inner: M,
        runs: u64,
    }

    impl<M: Mem> Mem for CountRuns<M> {
        fn ld(&mut self, addr: usize) -> f64 {
            self.inner.ld(addr)
        }

        fn st(&mut self, addr: usize, v: f64) {
            self.inner.st(addr, v)
        }

        fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
            self.runs += 1;
            self.inner.ld_run(addr, out)
        }

        fn st_run(&mut self, addr: usize, src: &[f64]) {
            self.runs += 1;
            self.inner.st_run(addr, src)
        }

        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    fn traced(n: usize, b: usize, kernel: fn(&mut TraceMem, usize, usize)) -> TraceMem {
        let mut raw = RawMem::new(2 * n * WORDS_PER_BODY);
        store_cloud(&mut raw, &Particle::random_cloud(n, 33));
        let mut mem = TraceMem::from_vec(raw.data);
        kernel(&mut mem, n, b);
        mem
    }

    /// The j-block runs read exactly the per-pair word stream: same
    /// addresses, same order, same kinds. The grid puts `ii` at the start,
    /// middle and end of its own block, with `b = 1`, `b ∤ n` and `b ≥ n`.
    #[test]
    fn block_runs_replay_the_per_pair_word_stream() {
        for n in [1, 2, 3, 5, 8, 13, 24, 40] {
            for b in [1, 2, 3, 4, 7, 8, n, n + 3] {
                let want = traced(n, b, per_pair_nbody_wa);
                let got = traced(n, b, simmed_nbody_wa);
                assert!(!got.trace.is_empty());
                assert!(
                    got.trace == want.trace,
                    "word stream differs at n={n} b={b}"
                );
                assert_eq!(got.data, want.data, "forces differ at n={n} b={b}");
            }
        }
    }

    /// Calls the kernel makes: `n` initial stores, then for each target
    /// `ii` and j block, 3 (load the particle, load the force, store the
    /// force) plus one run per non-empty side of `ii` — one for a block
    /// not holding `ii`, two inside it unless `ii` is at an edge.
    fn run_calls(n: usize, b: usize) -> u64 {
        let blocks: Vec<(usize, usize)> = (0..n).step_by(b).map(|j| (j, b.min(n - j))).collect();
        let mut calls = n;
        for ii in 0..n {
            for &(j, bj) in &blocks {
                let sides = if (j..j + bj).contains(&ii) {
                    usize::from(ii > j) + usize::from(ii + 1 < j + bj)
                } else {
                    1
                };
                calls += 3 + sides;
            }
        }
        calls as u64
    }

    #[test]
    fn block_runs_cut_the_call_count_to_the_closed_form() {
        let (n, b) = (40, 6); // 7 blocks, the last of 4
        let mut mem = CountRuns {
            inner: RawMem::new(2 * n * WORDS_PER_BODY),
            runs: 0,
        };
        simmed_nbody_wa(&mut mem, n, b);
        assert_eq!(mem.runs, run_calls(n, b));
        // 40 stores + 40·7·3 + 40·6 off-block runs + 2·(40 − 7) in-block.
        assert_eq!(mem.runs, 40 + 840 + 240 + 66);
        let mut per_pair = CountRuns {
            inner: RawMem::new(2 * n * WORDS_PER_BODY),
            runs: 0,
        };
        per_pair_nbody_wa(&mut per_pair, n, b);
        assert_eq!(per_pair.runs, (n + n * 7 * 3 + n * (n - 1)) as u64);
    }

    #[test]
    fn simmed_matches_reference() {
        let n = 40;
        let p = Particle::random_cloud(n, 31);
        let mut mem = RawMem::new(2 * n * WORDS_PER_BODY);
        store_cloud(&mut mem, &p);
        simmed_nbody_wa(&mut mem, n, 8);
        let f = load_forces(&mut mem, n);
        let want = reference_forces(&p);
        for (a, b) in f.iter().zip(&want) {
            assert!(a.max_abs_diff(*b) < 1e-12);
        }
    }

    /// Prop 6.2 for the N-body algorithm: LRU write-backs equal N (in
    /// lines: N·4/8), with five blocks' worth of cache.
    #[test]
    fn lru_writebacks_equal_output_size() {
        let n = 256;
        let b = 16; // block of 16 particles = 64 words
        let cfg = CacheConfig {
            capacity_words: 5 * b * WORDS_PER_BODY + 8,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        };
        let p = Particle::random_cloud(n, 32);
        let mut mem = SimMem::new(2 * n * WORDS_PER_BODY, MemSim::two_level(cfg));
        store_cloud(&mut mem, &p);
        let data = std::mem::take(&mut mem.data);
        let mut mem = SimMem::from_vec(data, MemSim::two_level(cfg));
        simmed_nbody_wa(&mut mem, n, b);
        mem.sim.flush();
        let c = mem.sim.llc();
        let writes = c.victims_m + c.flush_victims_m;
        let out_lines = (n * WORDS_PER_BODY / 8) as u64;
        assert_eq!(
            writes, out_lines,
            "write-backs {writes} vs output {out_lines} lines"
        );
    }
}
