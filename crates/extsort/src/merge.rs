//! I/O-optimal external k-way merge sort (Aggarwal–Vitter style).
//!
//! Pass 0 forms sorted runs of `m` elements (one read + one write of the
//! whole array); each merge pass `k`-way-merges runs (again one read + one
//! write of everything). Total traffic `Θ(n log_k(n/m))` with writes equal
//! to reads — per Corollary 2's spirit and the §9 conjecture, this write
//! volume is believed unavoidable without blowing up reads.

use wa_core::Traffic;

/// Sort `data` with fast memory of `m` elements and merge fan-in `fanout`
/// (`fanout + 1` buffers must fit: `fanout < m` required). Counts traffic
/// in `io`.
pub fn external_merge_sort(data: &mut [f64], m: usize, fanout: usize, io: &mut Traffic) {
    let n = data.len();
    assert!(m >= 2, "need at least two resident elements");
    assert!(fanout >= 2 && fanout < m, "fan-in must fit in fast memory");
    if n <= 1 {
        return;
    }

    // Pass 0: run formation.
    {
        let _span = wa_core::obs::span("run-formation", "extsort");
        for chunk in data.chunks_mut(m) {
            chunk.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in sort input"));
        }
        io.load_run(n as u64);
        io.store_run(n as u64);
    }

    // Merge passes.
    let mut run_len = m;
    let mut src = data.to_vec();
    let mut dst = vec![0.0; n];
    while run_len < n {
        let _span = wa_core::obs::span("merge-pass", "extsort");
        let group = run_len * fanout;
        let mut base = 0;
        while base < n {
            let end = (base + group).min(n);
            kway_merge(&src[base..end], run_len, fanout, &mut dst[base..end]);
            base = end;
        }
        io.load_run(n as u64);
        io.store_run(n as u64);
        std::mem::swap(&mut src, &mut dst);
        run_len = group;
    }
    data.copy_from_slice(&src);
}

/// Merge up to `fanout` consecutive sorted runs of `run_len` in `src`
/// into `dst` (simple heap-free selection across run heads — fan-in is
/// small by construction).
fn kway_merge(src: &[f64], run_len: usize, fanout: usize, dst: &mut [f64]) {
    let n = src.len();
    let mut heads: Vec<usize> = (0..fanout)
        .map(|r| r * run_len)
        .take_while(|&h| h < n)
        .collect();
    let ends: Vec<usize> = heads.iter().map(|&h| (h + run_len).min(n)).collect();
    for out in dst.iter_mut() {
        let mut best: Option<usize> = None;
        for (r, &h) in heads.iter().enumerate() {
            if h < ends[r] {
                best = match best {
                    None => Some(r),
                    Some(b) if src[h] < src[heads[b]] => Some(r),
                    keep => keep,
                };
            }
        }
        let b = best.expect("output longer than input");
        *out = src[heads[b]];
        heads[b] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_core::XorShift;

    fn check_sorted(d: &[f64]) {
        for w in d.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn sorts_correctly_various_shapes() {
        let mut rng = XorShift::new(1);
        for &(n, m, f) in &[
            (1usize, 4usize, 2usize),
            (7, 4, 2),
            (64, 8, 2),
            (1000, 16, 4),
            (1024, 32, 8),
        ] {
            let mut d: Vec<f64> = (0..n).map(|_| rng.next_unit()).collect();
            let mut want = d.clone();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut io = Traffic::ZERO;
            external_merge_sort(&mut d, m, f, &mut io);
            check_sorted(&d);
            assert_eq!(d, want, "n={n} m={m} f={f}");
        }
    }

    #[test]
    fn already_sorted_and_reverse_inputs() {
        let mut d: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let mut io = Traffic::ZERO;
        external_merge_sort(&mut d, 16, 4, &mut io);
        check_sorted(&d);
        let mut r: Vec<f64> = (0..500).rev().map(|i| i as f64).collect();
        external_merge_sort(&mut r, 16, 4, &mut io);
        check_sorted(&r);
    }

    #[test]
    fn duplicates_preserved() {
        let mut d = vec![3.0, 1.0, 3.0, 1.0, 2.0, 2.0, 3.0];
        let mut io = Traffic::ZERO;
        external_merge_sort(&mut d, 4, 2, &mut io);
        assert_eq!(d, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0]);
    }
}
