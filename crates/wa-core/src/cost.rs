//! Hardware cost parameters for the Section 7 performance models.
//!
//! Costs are expressed per the paper's conventions: `alpha_*` is the latency
//! (seconds per message), `beta_*` the reciprocal bandwidth (seconds per
//! word) for a given boundary and direction. Write/read asymmetry of NVM is
//! expressed by `beta_23 ≫ beta_32` (writing L3 from L2 is much slower than
//! reading L3 into L2).

/// Cost parameters for a node with levels L1, L2, L3 plus a network.
///
/// Direction convention: `beta_ij` moves data from `L_i` to `L_j`, i.e.
/// `beta_23` *writes* NVM and `beta_32` *reads* it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// Network message latency (s/message).
    pub alpha_nw: f64,
    /// Network reciprocal bandwidth (s/word).
    pub beta_nw: f64,
    /// Latency L2→L3 (NVM write path).
    pub alpha_23: f64,
    /// Reciprocal bandwidth L2→L3 (NVM write path).
    pub beta_23: f64,
    /// Latency L3→L2 (NVM read path).
    pub alpha_32: f64,
    /// Reciprocal bandwidth L3→L2 (NVM read path).
    pub beta_32: f64,
    /// Latency L1→L2.
    pub alpha_12: f64,
    /// Reciprocal bandwidth L1→L2.
    pub beta_12: f64,
    /// Latency L2→L1.
    pub alpha_21: f64,
    /// Reciprocal bandwidth L2→L1.
    pub beta_21: f64,
    /// L1 capacity in words.
    pub m1: u64,
    /// L2 capacity in words.
    pub m2: u64,
    /// L3 capacity in words.
    pub m3: u64,
}

impl CostParams {
    /// A plausible NVM-equipped cluster node, loosely following the numbers
    /// quoted in the paper's introduction (NVM reads ~DRAM-like latency,
    /// write bandwidth orders of magnitude worse) and typical
    /// DDR/interconnect figures. Units: seconds and words (8 B).
    pub fn nvm_cluster() -> Self {
        CostParams {
            alpha_nw: 1e-6,
            beta_nw: 8.0 / 10e9, // ~10 GB/s network
            alpha_23: 5e-6,
            beta_23: 8.0 / 0.5e9, // NVM write: 0.5 GB/s
            alpha_32: 2e-7,
            beta_32: 8.0 / 5e9, // NVM read: 5 GB/s
            alpha_12: 2e-9,
            beta_12: 8.0 / 50e9,
            alpha_21: 2e-9,
            beta_21: 8.0 / 50e9,
            m1: 4 << 10, // 32 KiB of f64
            m2: 4 << 20, // 32 MiB of f64
            m3: 4 << 30, // 32 GiB of f64
        }
    }

    /// A symmetric-cost machine (reads cost the same as writes), useful as a
    /// control in the model comparisons.
    pub fn symmetric(beta: f64, alpha: f64, m1: u64, m2: u64, m3: u64) -> Self {
        CostParams {
            alpha_nw: alpha,
            beta_nw: beta,
            alpha_23: alpha,
            beta_23: beta,
            alpha_32: alpha,
            beta_32: beta,
            alpha_12: alpha,
            beta_12: beta,
            alpha_21: alpha,
            beta_21: beta,
            m1,
            m2,
            m3,
        }
    }
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams::nvm_cluster()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvm_cluster_is_write_asymmetric() {
        let c = CostParams::nvm_cluster();
        assert!(c.beta_23 / c.beta_32 > 5.0);
        assert!(c.beta_23 > c.beta_nw, "writing NVM slower than network");
    }

    #[test]
    fn symmetric_has_unit_ratio() {
        let c = CostParams::symmetric(1e-9, 1e-6, 1, 2, 3);
        assert_eq!(c.beta_23 / c.beta_32, 1.0);
        assert_eq!((c.m1, c.m2, c.m3), (1, 2, 3));
    }
}
