//! Lag networks: a shuffle buffer's run from a reset as word-wide
//! shift-and-mask terms.
//!
//! A shuffle buffer's slot addresses depend only on its source, never on
//! the data. From a reset, output bit `t` reads the slot addressed at cycle
//! `t`. That slot holds its power-on bit if no earlier cycle wrote it, and
//! otherwise the input bit of the last cycle `s < t` that addressed it. So
//! each output bit is a constant or the input bit `t - lag`, at a lag the
//! schedule fixes. Grouping an output word's bits by lag gives its network:
//! a word of power-on 1s plus a short list of `(lag, mask)` terms. The word
//! is then `power_on | OR over terms of (input funnel-shifted by lag) &
//! mask`: a few independent shift-and-mask operations in place of 64
//! dependent slot updates.
//!
//! The networks of the default decorrelator's two buffers
//! ([`crate::Decorrelator::new`]) are built once per process per depth,
//! under a lock. Each is grown to the longest run asked for, in whole words,
//! and capped at [`MAX_BITS`] addresses. A depth is
//! served only if its whole capped schedule passes the one-word rule: at
//! most 64 slots, and every lag below 64. Each output word then reads its
//! own input word and the one before it. Past the rule (from D = 5 with the
//! default seeds) the terms multiply and reach further back, and those
//! depths keep the per-bit chain.

use crate::shuffle_buffer::ALTERNATING;
use sc_rng::{Lfsr, SourceExt};
use std::sync::{Arc, RwLock};

/// Most addresses a network covers, 512 words: a two-byte address and at
/// most one 16-byte term per bit bound a network at ~0.6 MiB, and the cap
/// is above every stream length the paper evaluates.
pub(crate) const MAX_BITS: usize = 32_768;

/// Bits per stream word; the longest lag a network serves is one less.
const WORD: usize = 64;

/// The address source of the default decorrelator's buffer seeded `seed`.
pub(crate) fn source(seed: u64) -> Lfsr {
    Lfsr::new(16, seed)
}

/// A buffer's address schedule walked from the reset point.
#[derive(Debug, Clone)]
struct Walk {
    source: Lfsr,
    depth: usize,
    /// One past the cycle of each slot's last write; 0 when never written.
    written: [u32; WORD],
    cycle: u32,
}

impl Walk {
    /// Starts at the reset point. `depth` is at most 64.
    fn new(seed: u64, depth: usize) -> Self {
        Walk {
            source: source(seed),
            depth,
            written: [0; WORD],
            cycle: 0,
        }
    }

    /// The next address, and the lag of the input bit its slot holds
    /// (`None` for the power-on bit). The address is scaled as
    /// [`crate::ShuffleBuffer`] scales it.
    fn next(&mut self) -> (u16, Option<u32>) {
        let addr = self.source.next_below(self.depth as u64) as u16;
        let written = &mut self.written[usize::from(addr)];
        let lag = (*written != 0).then(|| self.cycle + 1 - *written);
        self.cycle += 1;
        *written = self.cycle;
        (addr, lag)
    }
}

/// The output bits of one word that read the input `lag` bits back, with
/// `lag` in `1..64`.
#[derive(Debug, Clone, Copy)]
struct Term {
    mask: u64,
    lag: u32,
}

/// One output word: its power-on 1s and the end of its terms.
#[derive(Debug, Clone, Copy)]
struct WordTerms {
    power_on: u64,
    end: u32,
}

/// A buffer's run from the reset point as per-word shift-and-mask terms,
/// covering its first [`LagNetwork::bits`] addresses.
#[derive(Debug, Clone)]
pub(crate) struct LagNetwork {
    /// The schedule's addresses, for the slot hand-off.
    addrs: Vec<u16>,
    words: Vec<WordTerms>,
    terms: Vec<Term>,
    /// Positioned at `addrs.len()`, to grow from.
    walk: Walk,
}

impl LagNetwork {
    fn new(seed: u64, depth: usize) -> Self {
        LagNetwork {
            addrs: Vec::new(),
            words: Vec::new(),
            terms: Vec::new(),
            walk: Walk::new(seed, depth),
        }
    }

    /// Addresses covered.
    fn bits(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the schedule of `seed` at `depth` passes the one-word rule
    /// over all [`MAX_BITS`] addresses.
    fn serves(seed: u64, depth: usize) -> bool {
        let mut walk = Walk::new(seed, depth);
        depth <= WORD && (0..MAX_BITS).all(|_| walk.next().1.is_none_or(|lag| lag < WORD as u32))
    }

    /// Extends the network, a word at a time, until it covers `bits`
    /// addresses.
    fn grow(&mut self, bits: usize) {
        while self.bits() < bits {
            let (start, mut power_on) = (self.terms.len(), 0);
            for bit in 0..WORD {
                let (addr, lag) = self.walk.next();
                self.addrs.push(addr);
                let Some(lag) = lag else {
                    power_on |= (ALTERNATING >> addr & 1) << bit;
                    continue;
                };
                match self.terms[start..].iter_mut().find(|t| t.lag == lag) {
                    Some(term) => term.mask |= 1 << bit,
                    None => self.terms.push(Term {
                        mask: 1 << bit,
                        lag,
                    }),
                }
            }
            self.words.push(WordTerms {
                power_on,
                end: self.terms.len() as u32,
            });
        }
    }

    /// Writes the buffer's first `len` output bits from the reset point,
    /// for the input bits `x`, into `out`.
    pub(crate) fn apply(&self, x: &[u64], len: usize, out: &mut [u64]) {
        let words = len.div_ceil(WORD);
        let (mut start, mut prev) = (0, 0u64);
        let outs = out[..words].iter_mut().zip(&x[..words]);
        for (word, (o, &cur)) in self.words.iter().zip(outs) {
            let end = word.end as usize;
            // The funnel shift of this word and the one before: both shift
            // counts lie in 1..64.
            *o = self.terms[start..end].iter().fold(word.power_on, |acc, t| {
                acc | (cur << t.lag | prev >> (WORD as u32 - t.lag)) & t.mask
            });
            (start, prev) = (end, cur);
        }
        if !len.is_multiple_of(WORD) {
            out[words - 1] &= u64::MAX >> (WORD - len % WORD);
        }
    }

    /// The slots after the first `len` cycles from `power_on`: each slot
    /// holds the input bit of its last write, found by a backward scan of
    /// the schedule, or its power-on bit if none wrote it.
    pub(crate) fn slots_after(&self, x: &[u64], len: usize, power_on: u64) -> u64 {
        let every = u64::MAX >> (WORD - self.walk.depth);
        let (mut slots, mut seen) = (power_on, 0u64);
        for (t, &addr) in self.addrs[..len].iter().enumerate().rev() {
            if seen >> addr & 1 == 0 {
                seen |= 1 << addr;
                slots = slots & !(1 << addr) | (x[t / WORD] >> (t % WORD) & 1) << addr;
                if seen == every {
                    break;
                }
            }
        }
        slots
    }
}

/// A memoized network per `(seed, depth)`, `None` where the schedule fails
/// the one-word rule.
type Entry = (u64, usize, Option<Arc<LagNetwork>>);

/// Every network built in this process.
static NETWORKS: RwLock<Vec<Entry>> = RwLock::new(Vec::new());

/// Only the walk and the pushes of a build run under the memo's lock, and
/// neither panics.
const POISONED: &str = "the lag-network memo lock is never poisoned";

/// The network of the buffer [`source`]`(seed)` addresses at `depth`,
/// covering at least `bits` addresses, or `None` when no network serves
/// that buffer or run. A hit takes the lock shared and clones one `Arc`;
/// a miss builds or grows the network under the exclusive lock.
pub(crate) fn lookup(seed: u64, depth: usize, bits: usize) -> Option<Arc<LagNetwork>> {
    if bits > MAX_BITS {
        return None;
    }
    let is_key = |entry: &Entry| entry.0 == seed && entry.1 == depth;
    let networks = NETWORKS.read().expect(POISONED);
    match networks.iter().find(|entry| is_key(entry)) {
        Some((_, _, None)) => return None,
        Some((_, _, Some(network))) if network.bits() >= bits => {
            return Some(Arc::clone(network));
        }
        _ => drop(networks),
    }
    let mut networks = NETWORKS.write().expect(POISONED);
    let i = match networks.iter().position(is_key) {
        Some(i) => i,
        None => {
            let network =
                LagNetwork::serves(seed, depth).then(|| Arc::new(LagNetwork::new(seed, depth)));
            networks.push((seed, depth, network));
            networks.len() - 1
        }
    };
    let network = networks[i].2.as_mut()?;
    if network.bits() < bits {
        Arc::make_mut(network).grow(bits);
    }
    Some(Arc::clone(network))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_seeds_serve_depths_one_to_four() {
        for seed in [0xACE1, 0x7331] {
            for depth in 1..=8 {
                assert_eq!(
                    LagNetwork::serves(seed, depth),
                    depth <= 4,
                    "seed {seed:#x} depth {depth}"
                );
            }
            assert!(!LagNetwork::serves(seed, 65));
        }
    }

    #[test]
    fn a_network_grows_in_whole_words_up_to_the_cap() {
        let network = lookup(0xACE1, 3, 100).expect("depth 3 is served");
        assert!(network.bits() >= 128 && network.bits().is_multiple_of(WORD));
        assert!(lookup(0xACE1, 3, MAX_BITS).is_some());
        assert!(lookup(0xACE1, 3, MAX_BITS + 1).is_none());
        assert!(lookup(0xACE1, 16, 64).is_none());
    }
}
