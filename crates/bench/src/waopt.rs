//! E15 — explicit-model write optimality of the Section 4 algorithms:
//! stores to slow memory equal the output size exactly, and the multi-
//! level induction holds at three levels.

use crate::util::print_table;
use dense::cholesky::CholVariant;
use dense::explicit_cholesky::cholesky_schedule;
use dense::explicit_mm::{block_for, mm_schedule};
use dense::explicit_trsm::trsm_schedule;
use dense::matmul::LoopOrder;
use dense::trsm::TrsmVariant;
use memsim::ExplicitHier;
use nbody::explicit::nbody_wa_schedule;

/// One table row: stores to slow memory, the output size, loads.
fn row(name: &str, h: &ExplicitHier, output: String) -> Vec<String> {
    let t = h.traffic().boundary(0);
    vec![
        name.to_string(),
        t.store_words.to_string(),
        output,
        t.load_words.to_string(),
    ]
}

pub fn run(n: usize) {
    // Every count is a block schedule's, charged from shapes alone.
    let wa = (LoopOrder::Ijk, LoopOrder::Ijk);
    let bs = block_for(48);
    let mut rows = Vec::new();

    let mut h = ExplicitHier::two_level(48);
    mm_schedule((n, n, n), &[bs], wa, &mut h, |_, _, _| {});
    rows.push(row("matmul (Alg 1)", &h, (n * n).to_string()));

    let mut h = ExplicitHier::two_level(48);
    trsm_schedule((n, n), bs, TrsmVariant::WriteAvoiding, &mut h, |_| {});
    rows.push(row("TRSM (Alg 2)", &h, (n * n).to_string()));

    let mut h = ExplicitHier::two_level(48);
    cholesky_schedule(n, bs, CholVariant::LeftLooking, &mut h, |_| {});
    rows.push(row("Cholesky (Alg 3)", &h, format!("~{}", n * n / 2)));

    let mut h = ExplicitHier::two_level(12);
    nbody_wa_schedule(n * n / 8, &mut h, |_, _| {});
    rows.push(row("N-body (Alg 4)", &h, (n * n / 8).to_string()));

    print_table(
        &format!("Explicit-model WA optimality (two-level, n={n}): stores == output"),
        &["algorithm", "stores to slow", "output size", "loads"],
        &rows,
    );

    // Multi-level induction at three levels.
    let (m, l) = (2 * n, 2 * n);
    let mut h3 = ExplicitHier::new(&[12, 192, u64::MAX]);
    let blocks = [block_for(192), block_for(12)];
    mm_schedule((m, m, l), &blocks, wa, &mut h3, |_, _, _| {});
    let rows3 = vec![vec![
        "matmul, 3 levels".to_string(),
        h3.writes_into_level(1).to_string(),
        h3.writes_into_level(2).to_string(),
        h3.writes_into_level(3).to_string(),
        (m * l).to_string(),
    ]];
    print_table(
        "Multi-level WA: writes per level decrease toward the bottom",
        &["algorithm", "writes L1", "writes L2", "writes L3", "output"],
        &rows3,
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_clean() {
        super::run(16);
    }
}
