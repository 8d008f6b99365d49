//! Collective-communication charging helpers.
//!
//! The paper's analyses use simple binomial-tree collectives: a broadcast
//! of `w` words to `k` parties costs each participant up to
//! `log₂(k) · (α + w·β)` (formula (6) et seq.). These helpers charge the
//! counters of every participant accordingly; they do not move numeric
//! data (the algorithms copy blocks themselves, since every node ends
//! with the same value), but when the machine carries per-rank simulators
//! they replay the payload through each participant: the root reads its
//! send buffer per round, every receiver takes the landing write at
//! `buf` — charge what the network delivers — and L3 staging persists
//! the landed lines to node-local NVM, mirroring the counter charges
//! word for word.

use crate::machine::{Machine, Staging};
use memsim::Sink;

/// Charge a binomial broadcast of `words` from `root` to `parties`
/// (inclusive of the root). Every non-root receives once; internal tree
/// nodes forward. We charge the worst-case participant: `ceil(log2 k)`
/// rounds of send + receive of `words`, staged per `at`. `buf` is the
/// payload buffer address in each rank's private address space.
pub fn charge_bcast<S: Sink>(
    m: &mut Machine<S>,
    root: usize,
    parties: &[usize],
    words: u64,
    at: Staging,
    buf: usize,
) {
    let k = parties.len();
    if k <= 1 || words == 0 {
        return;
    }
    let rounds = (k as f64).log2().ceil() as u64;
    for &p in parties {
        let n = m.node_mut(p);
        if p == root {
            n.net_send_words += words * rounds;
            n.net_send_msgs += rounds;
            if at == Staging::L3 {
                n.l3_read_words += words * rounds;
                n.l3_read_msgs += rounds;
            }
            for _ in 0..rounds {
                m.sim_read(p, buf, words as usize);
            }
        } else {
            n.net_recv_words += words;
            n.net_recv_msgs += 1;
            // Interior tree nodes forward; charge one forwarding send to
            // be conservative about the critical path.
            n.net_send_words += words;
            n.net_send_msgs += 1;
            if at == Staging::L3 {
                n.l3_write_words += words;
                n.l3_write_msgs += 1;
            }
            // The payload lands in the receiver's cache; the forward
            // re-reads it. L3 staging persists exactly the landed lines.
            m.sim_write(p, buf, words as usize);
            if at == Staging::L3 {
                m.sim_writeback(p, buf, words as usize);
            }
            m.sim_read(p, buf, words as usize);
        }
    }
}

/// Charge a binomial reduction of `words` from `parties` to `root`
/// (element-wise combine). Mirror image of broadcast; `buf` is each
/// rank's partial-result buffer.
pub fn charge_reduce<S: Sink>(
    m: &mut Machine<S>,
    root: usize,
    parties: &[usize],
    words: u64,
    at: Staging,
    buf: usize,
) {
    let k = parties.len();
    if k <= 1 || words == 0 {
        return;
    }
    let rounds = (k as f64).log2().ceil() as u64;
    for &p in parties {
        let n = m.node_mut(p);
        if p == root {
            n.net_recv_words += words * rounds;
            n.net_recv_msgs += rounds;
            if at == Staging::L3 {
                n.l3_write_words += words;
                n.l3_write_msgs += 1;
            }
            // Each round combines an arriving partial into the local
            // accumulator; only the final result is persisted under L3
            // staging (the counter model charges exactly one NVM write).
            for _ in 0..rounds {
                m.sim_read(p, buf, words as usize);
                m.sim_write(p, buf, words as usize);
            }
            if at == Staging::L3 {
                m.sim_writeback(p, buf, words as usize);
            }
        } else {
            n.net_send_words += words;
            n.net_send_msgs += 1;
            n.net_recv_words += words;
            n.net_recv_msgs += 1;
            if at == Staging::L3 {
                n.l3_read_words += words;
                n.l3_read_msgs += 1;
            }
            // Combine an incoming partial with the local one, send on.
            m.sim_write(p, buf, words as usize);
            m.sim_read(p, buf, words as usize);
        }
    }
}

/// Charge a gather of one `words`-sized contribution from each party to
/// `root` (paper's 2.5D step 1: `c` messages of size `2n²/P` each).
/// `buf` names both the sender's shard and the root's landing buffer.
pub fn charge_gather<S: Sink>(
    m: &mut Machine<S>,
    root: usize,
    parties: &[usize],
    words_each: u64,
    at: Staging,
    buf: usize,
) {
    for &p in parties {
        if p == root {
            continue;
        }
        m.transfer(p, root, words_each, at, at, buf, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::MemSim;
    use wa_core::CostParams;

    #[test]
    fn bcast_charges_log_rounds_at_root() {
        let mut m = Machine::new(8, CostParams::nvm_cluster());
        let parties: Vec<usize> = (0..8).collect();
        charge_bcast(&mut m, 0, &parties, 100, Staging::L2, 0);
        assert_eq!(m.node(0).net_send_words, 300); // log2(8) = 3 rounds
        assert_eq!(m.node(5).net_recv_words, 100);
        assert_eq!(m.node(5).l3_write_words, 0);
    }

    #[test]
    fn l3_staged_bcast_touches_nvm() {
        let mut m = Machine::new(4, CostParams::nvm_cluster());
        let parties: Vec<usize> = (0..4).collect();
        charge_bcast(&mut m, 0, &parties, 10, Staging::L3, 0);
        assert_eq!(m.node(0).l3_read_words, 20); // 2 rounds
        assert_eq!(m.node(3).l3_write_words, 10);
    }

    #[test]
    fn reduce_mirrors_bcast() {
        let mut m = Machine::new(8, CostParams::nvm_cluster());
        let parties: Vec<usize> = (0..8).collect();
        charge_reduce(&mut m, 2, &parties, 64, Staging::L2, 0);
        assert_eq!(m.node(2).net_recv_words, 192);
        assert_eq!(m.node(0).net_send_words, 64);
    }

    #[test]
    fn gather_transfers_from_each_party() {
        let mut m = Machine::new(4, CostParams::nvm_cluster());
        charge_gather(&mut m, 1, &[0, 1, 2, 3], 25, Staging::L2, 0);
        assert_eq!(m.node(1).net_recv_words, 75);
        assert_eq!(m.node(1).net_recv_msgs, 3);
        assert_eq!(m.node(0).net_send_words, 25);
    }

    #[test]
    fn empty_or_single_party_is_noop() {
        let mut m = Machine::new(2, CostParams::nvm_cluster());
        charge_bcast(&mut m, 0, &[0], 100, Staging::L2, 0);
        assert_eq!(m.node(0).net_send_words, 0);
    }

    /// The simulated NVM stores of an L3-staged collective must equal the
    /// counter model's charges on every rank.
    #[test]
    fn l3_staged_bcast_sim_nvm_stores_match_counters() {
        let mut m = Machine::with_sinks(4, CostParams::nvm_cluster(), || {
            MemSim::stacked_lru(&[1 << 12])
        });
        let buf = m.alloc(64);
        let parties: Vec<usize> = (0..4).collect();
        charge_bcast(&mut m, 0, &parties, 64, Staging::L3, buf);
        for p in 0..4 {
            let sim_stores = m.sim_boundaries_of(p).last().unwrap().store_words;
            assert_eq!(
                sim_stores,
                m.node(p).l3_write_words,
                "rank {p}: sim vs explicit NVM stores"
            );
        }
    }

    #[test]
    fn l3_staged_reduce_sim_nvm_stores_match_counters() {
        let mut m = Machine::with_sinks(8, CostParams::nvm_cluster(), || {
            MemSim::stacked_lru(&[1 << 12])
        });
        let buf = m.alloc(64);
        let parties: Vec<usize> = (0..8).collect();
        charge_reduce(&mut m, 3, &parties, 64, Staging::L3, buf);
        for p in 0..8 {
            let sim_stores = m.sim_boundaries_of(p).last().unwrap().store_words;
            assert_eq!(sim_stores, m.node(p).l3_write_words, "rank {p}");
        }
    }

    #[test]
    fn l2_staged_collective_leaves_sim_nvm_clean() {
        let mut m = Machine::with_sinks(4, CostParams::nvm_cluster(), || {
            MemSim::stacked_lru(&[1 << 12])
        });
        let buf = m.alloc(64);
        let parties: Vec<usize> = (0..4).collect();
        charge_bcast(&mut m, 0, &parties, 64, Staging::L2, buf);
        for p in 0..4 {
            let b = m.sim_boundaries_of(p);
            assert_eq!(b.last().unwrap().store_words, 0, "rank {p}");
        }
    }
}
