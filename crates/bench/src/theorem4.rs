//! Theorem 4 — the Model 2.2 impossibility, measured.
//!
//! No algorithm attains both the interprocessor-word bound `W2` and the
//! NVM-write bound `W1`. Sweeping the replication factor, the 2.5D
//! out-of-L2 algorithm rides the `W2` curve while its NVM writes stay
//! `Ω(n²/P^{2/3})`-high; SUMMAL3ooL2 pins NVM writes at `W1` while its
//! network volume blows past `W2`.

use crate::util::{print_table, sci};
use parallel::machine::{Machine, Staging};
use parallel::mm25d::{mm25d, Mm25Config};
use parallel::summa::summa_l3_ool2;
use wa_core::{CostParams, Mat};

pub(crate) struct T4Row {
    pub(crate) algo: String,
    pub(crate) c: usize,
    pub(crate) net_words: u64,
    pub(crate) nvm_writes: u64,
    pub w1: f64,
    pub w2: f64,
}

pub(crate) fn run_rows(n: usize, p: usize, cs: &[usize], m2: u64) -> Vec<T4Row> {
    let a = Mat::random(n, n, 21);
    let b = Mat::random(n, n, 22);
    let cp = CostParams::nvm_cluster();
    let mut out = Vec::new();
    for &c in cs {
        let q2 = (p / c) as f64;
        if (q2.sqrt().round() as usize).pow(2) * c != p {
            continue;
        }
        let mut m = Machine::new(p, cp);
        let _ = mm25d(
            &mut m,
            &a,
            &b,
            Mm25Config {
                p,
                c,
                at: Staging::L3,
                ool2: true,
                m2,
            },
        );
        let mc = m.max_counters();
        out.push(T4Row {
            algo: "2.5DMML3ooL2".into(),
            c,
            net_words: mc.net_recv_words,
            nvm_writes: mc.l3_write_words,
            w1: (n * n) as f64 / p as f64,
            w2: (n * n) as f64 / ((p * c) as f64).sqrt(),
        });
    }
    // SUMMA variant (2D grid, c = 1).
    let q = (p as f64).sqrt().round() as usize;
    if q * q == p {
        let mut m = Machine::new(p, cp);
        let _ = summa_l3_ool2(&mut m, &a, &b, q, m2);
        let mc = m.max_counters();
        out.push(T4Row {
            algo: "SUMMAL3ooL2".into(),
            c: 1,
            net_words: mc.net_recv_words,
            nvm_writes: mc.l3_write_words,
            w1: (n * n) as f64 / p as f64,
            w2: (n * n) as f64 / (p as f64).sqrt(),
        });
    }
    out
}

pub fn run(n: usize, p: usize, m2: u64) {
    let rows = run_rows(n, p, &[1, 2, 4], m2);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algo.clone(),
                r.c.to_string(),
                r.net_words.to_string(),
                r.nvm_writes.to_string(),
                sci(r.w2),
                sci(r.w1),
            ]
        })
        .collect();
    print_table(
        &format!("Theorem 4 trade-off, measured (n={n}, P={p}, per-node words)"),
        &[
            "algorithm",
            "c",
            "net recv",
            "NVM writes",
            "W2 bound",
            "W1 bound",
        ],
        &body,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tradeoff_is_visible() {
        // c = 1 only: replication overheads need P ≫ c³ to amortize (see
        // the mm25d tests); the Theorem 4 trade-off itself is c-free.
        let rows = run_rows(32, 16, &[1], 48);
        let ool2: Vec<&T4Row> = rows.iter().filter(|r| r.algo.starts_with("2.5D")).collect();
        let summa = rows.iter().find(|r| r.algo.starts_with("SUMMA")).unwrap();
        // SUMMA attains W1 exactly; its network exceeds the 2.5D runs'.
        assert_eq!(summa.nvm_writes as f64, summa.w1);
        for r in &ool2 {
            assert!(
                r.nvm_writes as f64 > r.w1,
                "{} c={} writes {} vs W1 {}",
                r.algo,
                r.c,
                r.nvm_writes,
                r.w1
            );
            assert!(
                summa.net_words > r.net_words,
                "SUMMA net {} must exceed ooL2 net {}",
                summa.net_words,
                r.net_words
            );
        }
    }
}
