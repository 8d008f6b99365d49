//! The streaming `traced` backend: word, write and distinct-line counts
//! of an access stream, tallied as it runs instead of recorded.
//!
//! [`TraceTally`] reports exactly what a recorded [`crate::TraceMem`]
//! trace would reduce to — `trace.len()`, the number of writes, and the
//! number of distinct `addr / LINE_WORDS` lines — without storing the
//! accesses: the distinct lines live in a bitset with one bit per line of
//! the addressed span (1/512 of the data's bytes), so a run costs one
//! cancellation tick and one masked bitset update per 64 lines it
//! touches. Kernels reach it as the [`crate::backend::Sink`] of a
//! [`crate::SimMem`], the engine's `traced` backend.

use crate::xeon::LINE_WORDS;

/// Streaming word/write/distinct-line counts of an access stream.
#[derive(Clone, Debug, Default)]
pub struct TraceTally {
    words: u64,
    writes: u64,
    distinct_lines: u64,
    /// Bit `l % 64` of word `l / 64` is set once line `l` was touched.
    /// Grows on demand, so the addressed span may grow while the tally
    /// runs (the distributed machine's heap does).
    seen: Vec<u64>,
}

impl TraceTally {
    /// An empty tally with its bitset presized for `[0, words)`. (The
    /// `Default` tally starts with no span and grows as addresses come.)
    pub fn with_span(words: usize) -> Self {
        TraceTally {
            seen: vec![0; words.div_ceil(LINE_WORDS * 64)],
            ..TraceTally::default()
        }
    }

    /// Words accessed (loads + stores): a recorded trace's length.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Words stored.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Distinct `LINE_WORDS`-word lines touched (the footprint in lines).
    pub fn distinct_lines(&self) -> u64 {
        self.distinct_lines
    }

    /// Tally loads of every word of `[addr, addr + words)`.
    #[inline]
    pub(crate) fn read_range(&mut self, addr: usize, words: usize) {
        self.touch(addr, words, false);
    }

    /// Tally stores to every word of `[addr, addr + words)`.
    #[inline]
    pub(crate) fn write_range(&mut self, addr: usize, words: usize) {
        self.touch(addr, words, true);
    }

    #[inline]
    fn touch(&mut self, addr: usize, words: usize, is_write: bool) {
        if words == 0 {
            return;
        }
        wa_core::cancel::tick(words as u64);
        self.words += words as u64;
        if is_write {
            self.writes += words as u64;
        }
        let first = addr / LINE_WORDS;
        let last = (addr + words - 1) / LINE_WORDS;
        let need = last / 64 + 1;
        if need > self.seen.len() {
            self.seen.resize(need.max(2 * self.seen.len()), 0);
        }
        for w in first / 64..=last / 64 {
            let lo = if w == first / 64 { first % 64 } else { 0 };
            let hi = if w == last / 64 { last % 64 } else { 63 };
            let mask = (u64::MAX << lo) & (u64::MAX >> (63 - hi));
            let slot = &mut self.seen[w];
            self.distinct_lines += (mask & !*slot).count_ones() as u64;
            *slot |= mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_masks_span_word_boundaries_and_grow_on_demand() {
        let mut t = TraceTally::with_span(8);
        // Lines 60..=130 cross two bitset words past the presized span.
        t.read_range(60 * LINE_WORDS, 71 * LINE_WORDS);
        assert_eq!(t.distinct_lines(), 71);
        t.read_range(64 * LINE_WORDS + 3, 1);
        t.write_range(131 * LINE_WORDS, 1);
        assert_eq!(t.distinct_lines(), 72);
    }
}
