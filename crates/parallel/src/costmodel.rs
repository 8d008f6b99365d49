//! Closed-form communication cost models from Section 7: Table 1
//! (Model 2.1, data fits in L2), Table 2 (Model 2.2, data only in L3), the
//! dominant-cost `domβcost` expressions, and the LL-LUNP / RL-LUNP cost
//! formulas of §7.2.
//!
//! Every entry is a function of `(n, P, c, CostParams)` so the harness can
//! print the tables, evaluate crossovers, and compare against the event
//! simulator's measured counts.

use wa_core::CostParams;

/// One column of Table 1/2: words and messages per boundary for one
/// algorithm, already multiplied out (common factor × cost column).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommCosts {
    /// L2 → L1 words (and messages) — reads of the top-level cache.
    pub l21_words: f64,
    pub l21_msgs: f64,
    /// L1 → L2 words/messages — writes back to DRAM.
    pub l12_words: f64,
    pub l12_msgs: f64,
    /// Interprocessor words/messages.
    pub nw_words: f64,
    pub nw_msgs: f64,
    /// L3 → L2 (NVM read) words/messages.
    pub l32_words: f64,
    pub l32_msgs: f64,
    /// L2 → L3 (NVM write) words/messages.
    pub l23_words: f64,
    pub l23_msgs: f64,
}

fn log2(x: f64) -> f64 {
    x.log2().max(0.0)
}

/// Table 1 column "2DMML2": 2D matmul, one copy, L2 only.
pub fn table1_2dmml2(n: f64, p: f64, cp: &CostParams) -> CommCosts {
    let m1 = cp.m1 as f64;
    CommCosts {
        l21_words: n.powi(3) / p / m1.sqrt(),
        l21_msgs: n.powi(3) / p / m1.powf(1.5),
        l12_words: n * n / p.sqrt(),
        l12_msgs: n * n / p.sqrt() / m1,
        nw_words: 2.0 * n * n / p.sqrt(),
        nw_msgs: 2.0 * p.sqrt(),
        ..Default::default()
    }
}

/// Table 1 column "2.5DMML2": replication factor `c2`, staged in L2.
pub fn table1_25dmml2(n: f64, p: f64, c2: f64, cp: &CostParams) -> CommCosts {
    let m1 = cp.m1 as f64;
    let nw_words =
        (2.0 * n * n / p.sqrt()) * (1.0 / c2.sqrt() + 2.0 * c2 * (1.0 + log2(c2)) / p.sqrt());
    let nw_msgs = 2.0 * p.sqrt() * (1.0 / c2.powf(1.5) + (c2 + log2(c2)) / p.sqrt());
    CommCosts {
        l21_words: n.powi(3) / p / m1.sqrt(),
        l21_msgs: n.powi(3) / p / m1.powf(1.5),
        l12_words: n * n / p.sqrt() / c2.sqrt(),
        l12_msgs: n * n / p.sqrt() / c2.sqrt() / m1,
        nw_words,
        nw_msgs,
        ..Default::default()
    }
}

/// Table 1 column "2.5DMML3": replication `c3` staged in L3 (NVM),
/// broadcasts chunked through L2 (`c2` = copies L2 could hold).
pub fn table1_25dmml3(n: f64, p: f64, c2: f64, c3: f64, cp: &CostParams) -> CommCosts {
    let m1 = cp.m1 as f64;
    let m2 = cp.m2 as f64;
    let nw_words =
        (2.0 * n * n / p.sqrt()) * (1.0 / c3.sqrt() + 2.0 * c3 * (1.0 + log2(c3)) / p.sqrt());
    let nw_msgs = 2.0 * p.sqrt() * (1.0 / (c3.sqrt() * c2) + c3 * (1.0 + log2(c3) / c2) / p.sqrt());
    // L3→L2 rows: "same as for βNW − 2c3/P^{1/2}" plus the local
    // out-of-L2 read stream n³/(P √M2).
    let l32_words =
        nw_words - (2.0 * n * n / p.sqrt()) * (2.0 * c3 / p.sqrt()) + n.powi(3) / p / m2.sqrt();
    let l32_msgs = nw_msgs - 2.0 * p.sqrt() * (c3 / p.sqrt()) + n.powi(3) / p / m2.powf(1.5);
    // L2→L3 rows: "same as for βNW + .5/c3^{1/2}".
    let l23_words = nw_words + 0.5 * (2.0 * n * n / p.sqrt()) / c3.sqrt();
    let l23_msgs = (n * n / p.sqrt()) / (m2 * c3.sqrt());
    CommCosts {
        l21_words: n.powi(3) / p / m1.sqrt(),
        l21_msgs: n.powi(3) / p / m1.powf(1.5),
        l12_words: n.powi(3) / p / m2.sqrt(),
        l12_msgs: n.powi(3) / p / (m2.sqrt() * m1),
        nw_words,
        nw_msgs,
        l32_words,
        l32_msgs,
        l23_words,
        l23_msgs,
    }
}

/// Table 2 column "2.5DMML3ooL2" (data only fits in L3; minimizes network
/// words).
pub fn table2_25dmml3_ool2(n: f64, p: f64, c3: f64, cp: &CostParams) -> CommCosts {
    let m1 = cp.m1 as f64;
    let m2 = cp.m2 as f64;
    let nw_base = (n * n / p.sqrt()) * (1.0 / c3.sqrt() + c3 * (1.0 + log2(c3)) / p.sqrt());
    let stream = (n * n / p.sqrt()) * (n / (p * m2).sqrt()); // n³/(P √M2)
    CommCosts {
        l21_words: n.powi(3) / p / m1.sqrt(),
        l21_msgs: n.powi(3) / p / m1.powf(1.5),
        l12_words: n.powi(3) / p / m2.sqrt(),
        l12_msgs: n.powi(3) / p / (m2.sqrt() * m1),
        nw_words: nw_base,
        nw_msgs: nw_base / m2,
        l32_words: stream + nw_base,
        l32_msgs: (stream + nw_base) / m2,
        l23_words: (n * n / p) * ((p / c3).sqrt() + c3 * (1.0 + log2(c3))),
        l23_msgs: (n * n / p) * ((p / c3).sqrt() + c3 * (1.0 + log2(c3))) / m2,
    }
}

/// Table 2 column "SUMMAL3ooL2" (minimizes writes to L3).
pub fn table2_summal3_ool2(n: f64, p: f64, cp: &CostParams) -> CommCosts {
    let m1 = cp.m1 as f64;
    let m2 = cp.m2 as f64;
    let stream = (n * n / p.sqrt()) * (n / (p * m2).sqrt()); // n³/(P √M2)
    CommCosts {
        l21_words: n.powi(3) / p / m1.sqrt(),
        l21_msgs: n.powi(3) / p / m1.powf(1.5),
        l12_words: n.powi(3) / p / m2.sqrt(),
        l12_msgs: n.powi(3) / p / (m2.sqrt() * m1),
        nw_words: stream,
        nw_msgs: stream * log2(p) / m2,
        l32_words: stream,
        l32_msgs: stream / m2,
        l23_words: n * n / p,
        l23_msgs: n * n / p / m2,
    }
}

/// The paper's Model 2.1 decision ratio
/// `√(c3/c2) · βNW / (βNW + 1.5 β23 + β32)`; > 1 means using NVM for extra
/// replication wins.
pub fn model21_decision_ratio(c2: f64, c3: f64, cp: &CostParams) -> f64 {
    (c3 / c2).sqrt() * cp.beta_nw / (cp.beta_nw + 1.5 * cp.beta_23 + cp.beta_32)
}

/// domβcost(LL-LUNP) (§7.2).
pub fn dom_cost_ll_lunp(n: f64, p: f64, cp: &CostParams) -> f64 {
    let m2 = cp.m2 as f64;
    let lg2 = log2(p).powi(2);
    cp.beta_nw * n.powi(3) / (p * m2.sqrt()) * lg2
        + cp.beta_23 * n * n / p
        + cp.beta_32 * n.powi(3) / (p * m2.sqrt()) * lg2
}

/// domβcost(RL-LUNP) (§7.2).
pub fn dom_cost_rl_lunp(n: f64, p: f64, cp: &CostParams) -> f64 {
    let m2 = cp.m2 as f64;
    cp.beta_nw * n * n / p.sqrt() * log2(p.sqrt())
        + cp.beta_23 * n * n / p.sqrt() * log2(p).powi(2)
        + cp.beta_32 * n.powi(3) / (p * m2.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp() -> CostParams {
        CostParams::nvm_cluster()
    }

    /// Dominant bandwidth cost of 2.5DMML2 (paper, §7 introduction):
    /// `2n²/√(P c2) · βNW`.
    fn dom_cost_25dmml2(n: f64, p: f64, c2: f64, cp: &CostParams) -> f64 {
        2.0 * n * n / (p * c2).sqrt() * cp.beta_nw
    }

    /// Dominant bandwidth cost of 2.5DMML3:
    /// `2n²/√(P c3) · (βNW + 1.5·β23 + β32)`.
    fn dom_cost_25dmml3(n: f64, p: f64, c3: f64, cp: &CostParams) -> f64 {
        2.0 * n * n / (p * c3).sqrt() * (cp.beta_nw + 1.5 * cp.beta_23 + cp.beta_32)
    }

    #[test]
    fn table1_l2l1_costs_identical_across_algorithms() {
        let (n, p) = (1e5, 4096.0);
        let a = table1_2dmml2(n, p, &cp());
        let b = table1_25dmml2(n, p, 4.0, &cp());
        let c = table1_25dmml3(n, p, 4.0, 16.0, &cp());
        assert_eq!(a.l21_words, b.l21_words);
        assert_eq!(b.l21_words, c.l21_words);
    }

    #[test]
    fn replication_shrinks_leading_network_term() {
        let (n, p) = (1e5, 65536.0);
        let w1 = table1_2dmml2(n, p, &cp()).nw_words;
        let w4 = table1_25dmml2(n, p, 4.0, &cp()).nw_words;
        assert!(w4 < w1);
        // Leading-term ratio approaches sqrt(c2) for huge P.
        let big_p = 1e12;
        let r =
            table1_2dmml2(n, big_p, &cp()).nw_words / table1_25dmml2(n, big_p, 4.0, &cp()).nw_words;
        assert!((r - 2.0).abs() < 0.05, "ratio {r}");
    }

    #[test]
    fn model21_ratio_matches_dom_costs() {
        let (n, p, c2, c3) = (1e5, 4096.0, 2.0, 8.0);
        let ratio = dom_cost_25dmml2(n, p, c2, &cp()) / dom_cost_25dmml3(n, p, c3, &cp());
        assert!((ratio - model21_decision_ratio(c2, c3, &cp())).abs() < 1e-12);
    }

    #[test]
    fn nvm_write_bandwidth_decides_model21() {
        // Fast NVM writes: replication via L3 wins; slow: loses.
        let mut fast = cp();
        fast.beta_23 = fast.beta_nw / 10.0;
        fast.beta_32 = fast.beta_nw / 10.0;
        assert!(model21_decision_ratio(1.0, 16.0, &fast) > 1.0);
        let mut slow = cp();
        slow.beta_23 = slow.beta_nw * 100.0;
        assert!(model21_decision_ratio(1.0, 16.0, &slow) < 1.0);
    }

    #[test]
    fn theorem4_tradeoff_in_table2() {
        // 2.5DMML3ooL2 attains the W2 network bound but not W1 writes;
        // SUMMAL3ooL2 vice versa.
        // Regime where the leading terms dominate: √P ≫ c3^{3/2}(1+log c3)
        // and n ≫ √(P·M2) (Theorem 4's n ≫ √P and n²/P ≫ M2).
        let (n, p, c3) = (4e6, 65536.0, 8.0);
        let a = table2_25dmml3_ool2(n, p, c3, &cp());
        let s = table2_summal3_ool2(n, p, &cp());
        let w1 = n * n / p;
        let w2 = n * n / (p * c3).sqrt();
        assert!(a.nw_words < 2.0 * w2);
        assert!(a.l23_words > 10.0 * w1, "2.5D ooL2 writes far exceed W1");
        assert!((s.l23_words - w1).abs() < 1e-6, "SUMMA ooL2 attains W1");
        assert!(s.nw_words > 10.0 * w2, "SUMMA ooL2 network far exceeds W2");
    }

    #[test]
    fn lu_dominant_costs_mirror_matmul_pair() {
        let (n, p) = (1e6, 4096.0);
        let c = cp();
        let ll = dom_cost_ll_lunp(n, p, &c);
        let rl = dom_cost_rl_lunp(n, p, &c);
        assert!(ll.is_finite() && rl.is_finite());
        // LL's L3-write term is the output size; RL's is √P·log² larger.
        let m2 = c.m2 as f64;
        let ll_writes = n * n / p;
        let rl_writes = n * n / p.sqrt() * log2(p).powi(2);
        assert!(ll_writes < rl_writes);
        // RL's network term undercuts LL's.
        let ll_net = n.powi(3) / (p * m2.sqrt()) * log2(p).powi(2);
        let rl_net = n * n / p.sqrt() * log2(p.sqrt());
        assert!(rl_net < ll_net);
    }
}
