//! Ideal-cache analysis: the Frigo et al. miss-count formula for recursive
//! cache-oblivious matmul (the black "Misses on Ideal Cache" line of
//! Figure 2a/2b) and an offline Belady-optimal cache simulator used to
//! cross-check it and to quantify how far LRU/clock are from optimal.

use crate::mem::Access;
use std::collections::{BTreeSet, HashMap};

/// Ideal-cache miss count (in *lines*) of the recursive cache-oblivious
/// matmul computing `C(l×n) += A(l×m) * B(m×n)` with cache of
/// `cache_words` words and lines of `line_words` words:
///
/// `(mn·⌈l/√(M/3)⌉ + ln·⌈m/√(M/3)⌉ + lm·⌈n/√(M/3)⌉) / L`
///
/// (Section 6.1 of the paper, with `sz(double)` absorbed since we count in
/// words.)
pub fn co_matmul_ideal_misses(l: u64, m: u64, n: u64, cache_words: u64, line_words: u64) -> f64 {
    let base = ((cache_words as f64) / 3.0).sqrt();
    let ceil = |x: u64| (x as f64 / base).ceil();
    ((m * n) as f64 * ceil(l) + (l * n) as f64 * ceil(m) + (l * m) as f64 * ceil(n))
        / line_words as f64
}

/// Counters produced by the Belady simulation (line granularity).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BeladyCounters {
    pub hits: u64,
    pub misses: u64,
    pub fills: u64,
    pub victims_m: u64,
    pub victims_e: u64,
}

/// Offline Belady (MIN) simulation of a fully-associative cache of
/// `capacity_lines` lines over a recorded access trace. Victim = the
/// resident line whose next use is farthest in the future (never-used
/// lines first). Write-back semantics: dirty victims count as `victims_m`.
pub fn simulate_belady(
    trace: &[Access],
    capacity_lines: usize,
    line_words: usize,
) -> BeladyCounters {
    assert!(capacity_lines > 0);
    let lw = line_words as u64;
    let lines: Vec<u64> = trace.iter().map(|a| a.addr as u64 / lw).collect();

    // next_use[i] = index of the next access to lines[i] after i, or usize::MAX.
    let mut next_use = vec![usize::MAX; lines.len()];
    let mut last_pos: HashMap<u64, usize> = HashMap::new();
    for (i, &l) in lines.iter().enumerate().rev() {
        if let Some(&p) = last_pos.get(&l) {
            next_use[i] = p;
        }
        last_pos.insert(l, i);
    }

    // Resident set keyed for O(log C) farthest-future eviction.
    // BTreeSet of (next_use, line); max element = victim.
    let mut resident: HashMap<u64, (usize, bool)> = HashMap::new(); // line -> (next, dirty)
    let mut order: BTreeSet<(usize, u64)> = BTreeSet::new();
    let mut c = BeladyCounters::default();

    for (i, a) in trace.iter().enumerate() {
        let line = lines[i];
        let nu = next_use[i];
        match resident.get(&line).copied() {
            Some((old_nu, dirty)) => {
                c.hits += 1;
                order.remove(&(old_nu, line));
                let dirty = dirty || a.is_write;
                resident.insert(line, (nu, dirty));
                order.insert((nu, line));
            }
            None => {
                c.misses += 1;
                c.fills += 1;
                if resident.len() == capacity_lines {
                    let &(vnu, vline) = order.iter().next_back().expect("cache nonempty");
                    order.remove(&(vnu, vline));
                    let (_, vdirty) = resident.remove(&vline).unwrap();
                    if vdirty {
                        c.victims_m += 1;
                    } else {
                        c.victims_e += 1;
                    }
                }
                resident.insert(line, (nu, a.is_write));
                order.insert((nu, line));
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::hierarchy::MemSim;
    use crate::policy::Policy;
    use wa_core::XorShift;

    fn r(addr: usize) -> Access {
        Access {
            addr,
            is_write: false,
        }
    }

    fn w(addr: usize) -> Access {
        Access {
            addr,
            is_write: true,
        }
    }

    #[test]
    fn belady_hits_when_working_set_fits() {
        let trace: Vec<Access> = (0..64).map(r).chain((0..64).map(r)).collect();
        let c = simulate_belady(&trace, 8, 8);
        assert_eq!(c.misses, 8);
        assert_eq!(c.hits, 120);
        assert_eq!(c.victims_m + c.victims_e, 0);
    }

    #[test]
    fn belady_classic_example_beats_lru() {
        // Cyclic scan of C+1 lines: LRU misses every access, Belady keeps
        // C-1 of them resident.
        let line = 8;
        let cap = 4;
        let mut trace = Vec::new();
        for _ in 0..10 {
            for l in 0..cap + 1 {
                trace.push(r(l * line));
            }
        }
        let bel = simulate_belady(&trace, cap, line);

        let mut lru = MemSim::two_level(CacheConfig {
            capacity_words: cap * line,
            line_words: line,
            ways: 0,
            policy: Policy::Lru,
        });
        for a in &trace {
            lru.read(a.addr);
        }
        assert!(bel.misses < lru.llc().misses);
        assert_eq!(lru.llc().misses as usize, 10 * (cap + 1), "LRU thrashes");
    }

    #[test]
    fn belady_never_worse_than_lru_on_random_traces() {
        let mut rng = XorShift::new(2024);
        for trial in 0..10 {
            let trace: Vec<Access> = (0..2000)
                .map(|_| {
                    let a = rng.next_below(640);
                    if rng.next_unit() < 0.3 {
                        w(a)
                    } else {
                        r(a)
                    }
                })
                .collect();
            let bel = simulate_belady(&trace, 16, 8);
            let mut lru = MemSim::two_level(CacheConfig {
                capacity_words: 16 * 8,
                line_words: 8,
                ways: 0,
                policy: Policy::Lru,
            });
            for a in &trace {
                if a.is_write {
                    lru.write(a.addr);
                } else {
                    lru.read(a.addr);
                }
            }
            assert!(
                bel.misses <= lru.llc().misses,
                "trial {trial}: Belady {} > LRU {}",
                bel.misses,
                lru.llc().misses
            );
        }
    }

    #[test]
    fn belady_dirty_victims_classified() {
        // A pure write stream of 8 distinct lines through a 4-line cache:
        // every eviction displaces a dirty line, whatever the tie-breaking.
        let trace: Vec<Access> = (0..8).map(|l| w(l * 8)).collect();
        let c = simulate_belady(&trace, 4, 8);
        assert_eq!(c.misses, 8);
        assert_eq!(c.victims_m, 4);
        assert_eq!(c.victims_e, 0);
        // And a pure read stream produces only clean victims.
        let trace: Vec<Access> = (0..8).map(|l| r(l * 8)).collect();
        let c = simulate_belady(&trace, 4, 8);
        assert_eq!(c.victims_m, 0);
        assert_eq!(c.victims_e, 4);
    }

    #[test]
    fn ideal_formula_monotone_in_dimensions() {
        let a = co_matmul_ideal_misses(100, 100, 100, 3 * 100, 8);
        let b = co_matmul_ideal_misses(100, 200, 100, 3 * 100, 8);
        assert!(b > a);
    }

    #[test]
    fn ideal_formula_matches_paper_shape() {
        // For square n and M >> inputs, misses -> 3 n^2 / L (each array
        // read once).
        let n = 64;
        let m = 3 * (n * n) as u64; // sqrt(M/3) = n, so each ceil = 1
        let misses = co_matmul_ideal_misses(n as u64, n as u64, n as u64, m, 8);
        assert!((misses - 3.0 * (n * n) as f64 / 8.0).abs() < 1e-9);
    }
}
