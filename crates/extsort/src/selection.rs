//! Write-minimal sorting: exactly `n` writes (the output lower bound),
//! paid for with `Θ(n²/M)` reads.
//!
//! Each pass scans the whole (read-only) input keeping the `m` smallest
//! elements *above the previous threshold* in fast memory, then emits
//! them. `n/m` passes × `n` reads = `n²/m` reads, but each output
//! position is written exactly once — the extreme point of the §9
//! conjecture's trade-off curve.

use wa_core::Traffic;

/// Sort `data` with fast memory of `m` elements, writing each output
/// element exactly once. Duplicates are handled by tracking how many
/// copies of the threshold value were already emitted.
pub fn low_write_sort(data: &mut [f64], m: usize, io: &mut Traffic) {
    let n = data.len();
    assert!(m >= 1);
    if n <= 1 {
        return;
    }
    let input = data.to_vec(); // the read-only source ("kept in DRAM")
    let mut emitted = 0usize;
    // (threshold, copies of threshold already emitted)
    let mut thr = f64::NEG_INFINITY;
    let mut thr_emitted = 0usize;

    // Fast-memory working set of a pass: the m smallest candidates >
    // threshold (plus threshold duplicates not yet emitted), gathered
    // unsorted in a buffer of up to 2m. When it fills, the m smallest are
    // selected and the rest dropped; from then on no value ≥ `cut` (the
    // largest kept) can be among the m smallest. The kept values are the
    // same multiset as a sorted insert would keep.
    let mut batch: Vec<f64> = Vec::with_capacity(2 * m);
    while emitted < n {
        let _span = wa_core::obs::span("selection-pass", "extsort");
        batch.clear();
        let mut cut = None;
        let mut skip = thr_emitted; // threshold copies to skip this pass
        io.load_run(n as u64);
        for &x in &input {
            if x < thr {
                continue;
            }
            if x == thr && skip > 0 {
                skip -= 1;
                continue;
            }
            if cut.is_some_and(|c| x >= c) {
                continue;
            }
            batch.push(x);
            if batch.len() == 2 * m {
                batch.select_nth_unstable_by(m - 1, f64::total_cmp);
                batch.truncate(m);
                cut = Some(batch[m - 1]);
            }
        }
        batch.sort_unstable_by(f64::total_cmp);
        batch.truncate(m);
        let take = batch.len().min(n - emitted);
        data[emitted..emitted + take].copy_from_slice(&batch[..take]);
        io.store_run(take as u64);
        emitted += take;
        let new_thr = batch[take - 1];
        if new_thr == thr {
            thr_emitted += batch[..take].iter().filter(|&&x| x == new_thr).count();
        } else {
            thr_emitted = batch[..take].iter().filter(|&&x| x == new_thr).count();
            thr = new_thr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_core::XorShift;

    #[test]
    fn sorts_correctly() {
        let mut rng = XorShift::new(2);
        for &(n, m) in &[(1usize, 4usize), (10, 3), (100, 7), (500, 16), (512, 512)] {
            let mut d: Vec<f64> = (0..n).map(|_| (rng.next_below(50)) as f64).collect();
            let mut want = d.clone();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut io = Traffic::ZERO;
            low_write_sort(&mut d, m, &mut io);
            assert_eq!(d, want, "n={n} m={m}");
            let expected_writes = if n <= 1 { 0 } else { n as u64 };
            assert_eq!(io.store_words, expected_writes, "each element written once");
        }
    }

    #[test]
    fn heavy_duplicates() {
        let mut d = vec![1.0; 64];
        d.extend(vec![0.0; 64]);
        let mut io = Traffic::ZERO;
        low_write_sort(&mut d, 8, &mut io);
        assert_eq!(&d[..64], &[0.0; 64][..]);
        assert_eq!(&d[64..], &[1.0; 64][..]);
        assert_eq!(io.store_words, 128);
    }

    #[test]
    fn read_volume_matches_n_squared_over_m() {
        let n = 1024;
        let m = 32;
        let mut rng = XorShift::new(3);
        let mut d: Vec<f64> = (0..n).map(|_| rng.next_unit()).collect();
        let mut io = Traffic::ZERO;
        low_write_sort(&mut d, m, &mut io);
        let expect = (n * n / m) as u64; // n/m passes × n reads
        assert!(
            io.load_words >= expect && io.load_words <= expect + n as u64,
            "reads {} vs expected ~{expect}",
            io.load_words
        );
    }
}
