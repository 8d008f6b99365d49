//! Section 3 / Theorem 1 experiments: measured traffic vs lower bounds for
//! the FFT (Corollary 2), Strassen (Corollary 3), and the Theorem 1
//! invariant across kernels.

use crate::util::{print_table, sci};
use cdag::fft::fft_mem;
use cdag::strassen::{strassen_mem, strassen_scratch_words};
use dense::desc::alloc_layout;
use memsim::{CacheConfig, Mem, MemSim, Policy, SimMem};
use wa_core::bounds;
use wa_core::Mat;

fn cache(words: usize) -> CacheConfig {
    CacheConfig {
        capacity_words: words,
        line_words: 8,
        ways: 0,
        policy: Policy::Lru,
    }
}

/// Corollary 2: FFT write-backs are a constant fraction of total traffic.
pub fn fft_table(sizes: &[usize], m: usize) {
    let mut rows = Vec::new();
    for &n in sizes {
        let mut mem = SimMem::new(2 * n, MemSim::two_level(cache(m)));
        for i in 0..2 * n {
            mem.st(i, ((i * 31 + 7) % 97) as f64 / 97.0);
        }
        let data = std::mem::take(&mut mem.data);
        let mut mem = SimMem::from_vec(data, MemSim::two_level(cache(m)));
        fft_mem(&mut mem, 0, n);
        mem.sim.flush();
        let c = mem.sim.llc();
        let writes = (c.victims_m + c.flush_victims_m) * 8;
        let reads = c.fills * 8;
        let lb = bounds::fft_write_lower(n as u64, m as u64);
        rows.push(vec![
            n.to_string(),
            reads.to_string(),
            writes.to_string(),
            format!("{:.2}", writes as f64 / reads as f64),
            sci(lb),
            format!("{:.2}", writes as f64 / lb),
        ]);
    }
    print_table(
        &format!("Corollary 2: Cooley-Tukey FFT (M = {m} words; counts in words)"),
        &["n", "reads", "writes", "w/r", "write L.B.", "w/L.B."],
        &rows,
    );
}

/// Corollary 3: Strassen write-backs vs the Ω(n^ω0/M^{ω0/2−1}) bound, next
/// to the WA classical algorithm's writes at the same size.
pub fn strassen_table(sizes: &[usize], m: usize) {
    let mut rows = Vec::new();
    for &n in sizes {
        let (d, words) = alloc_layout(&[(n, n), (n, n), (n, n)]);
        let total = words + strassen_scratch_words(n);
        let mut mem = SimMem::new(total, MemSim::two_level(cache(m)));
        d[0].store_mat(&mut mem, &Mat::random(n, n, 1));
        d[1].store_mat(&mut mem, &Mat::random(n, n, 2));
        let data = std::mem::take(&mut mem.data);
        let mut mem = SimMem::from_vec(data, MemSim::two_level(cache(m)));
        strassen_mem(&mut mem, d[0], d[1], d[2], words, 8);
        mem.sim.flush();
        let c = mem.sim.llc();
        let writes = (c.victims_m + c.flush_victims_m) * 8;

        // Classical WA at the same size and cache.
        let (d2, w2) = alloc_layout(&[(n, n), (n, n), (n, n)]);
        let mut mem2 = SimMem::new(w2, MemSim::two_level(cache(m)));
        d2[0].store_mat(&mut mem2, &Mat::random(n, n, 1));
        d2[1].store_mat(&mut mem2, &Mat::random(n, n, 2));
        let data2 = std::mem::take(&mut mem2.data);
        let mut mem2 = SimMem::from_vec(data2, MemSim::two_level(cache(m)));
        let b = ((m / 3) as f64).sqrt() as usize;
        dense::matmul::blocked_matmul(
            &mut mem2,
            d2[0],
            d2[1],
            d2[2],
            b,
            dense::matmul::LoopOrder::Ijk,
        );
        mem2.sim.flush();
        let cw = mem2.sim.llc();
        let wa_writes = (cw.victims_m + cw.flush_victims_m) * 8;

        let lb = bounds::strassen_write_lower(n as u64, m as u64);
        rows.push(vec![
            n.to_string(),
            writes.to_string(),
            sci(lb),
            wa_writes.to_string(),
            (n * n).to_string(),
        ]);
    }
    print_table(
        &format!("Corollary 3: Strassen vs WA classical (M = {m} words; counts in words)"),
        &[
            "n",
            "Strassen writes",
            "Strassen write L.B.",
            "WA classical writes",
            "output size",
        ],
        &rows,
    );
}

/// One Theorem 1 table row: writes into fast memory and total loads +
/// stores across boundary 0.
fn theorem1_row(name: &str, h: &memsim::ExplicitHier) -> Vec<String> {
    let (wf, tot) = h.theorem1_check(0);
    vec![name.to_string(), wf.to_string(), tot.to_string()]
}

/// Theorem 1 check across explicit-model kernels: writes-to-fast ≥ half
/// the total loads+stores.
pub fn theorem1_table() {
    use memsim::ExplicitHier;
    let mut rows = Vec::new();

    // Every count is a block schedule's, charged from shapes alone.
    let bs = dense::explicit_mm::block_for(48);
    let mut h = ExplicitHier::two_level(48);
    let wa = (dense::matmul::LoopOrder::Ijk, dense::matmul::LoopOrder::Ijk);
    dense::explicit_mm::mm_schedule((24, 24, 24), &[bs], wa, &mut h, |_, _, _| {});
    rows.push(theorem1_row("matmul (WA)", &h));

    let mut h = ExplicitHier::two_level(48);
    let trsm_wa = dense::trsm::TrsmVariant::WriteAvoiding;
    dense::explicit_trsm::trsm_schedule((24, 24), bs, trsm_wa, &mut h, |_| {});
    rows.push(theorem1_row("TRSM (WA)", &h));

    let mut h = ExplicitHier::two_level(48);
    let ll = dense::cholesky::CholVariant::LeftLooking;
    dense::explicit_cholesky::cholesky_schedule(24, bs, ll, &mut h, |_| {});
    rows.push(theorem1_row("Cholesky (LL)", &h));

    let mut h = ExplicitHier::two_level(12);
    nbody::explicit::nbody_wa_schedule(64, &mut h, |_, _| {});
    rows.push(theorem1_row("N-body (WA)", &h));

    print_table(
        "Theorem 1: writes to fast memory ≥ (loads+stores)/2",
        &["kernel", "writes to fast", "loads+stores"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn tables_run_clean() {
        super::fft_table(&[256, 1024], 128);
        super::strassen_table(&[16, 32], 192);
        super::theorem1_table();
    }
}
