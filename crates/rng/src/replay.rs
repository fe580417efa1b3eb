//! [`Replay`]: a random source that records its draws after a reset and
//! replays them after the next one.
//!
//! A source restarted by [`RandomSource::reset`] repeats the same sequence,
//! and the circuits that own one — a D/S converter's comparator samples, a
//! shuffle buffer's slot addresses — map each sample the same way every time.
//! So whatever was drawn since a reset is drawn again after the next one.
//! [`Replay`] records those draws and serves them from the recording instead
//! of re-running the source: a replayed run costs a slice read, not a source
//! step and a float conversion per draw.
//!
//! The invariant: while recording, the log holds the draws since the
//! source's last real reset and the source stands at draw `log.len()`;
//! otherwise the log is empty and the source stands `ahead` draws behind the
//! logical position, which [`Replay::skip`] moves without drawing. The next
//! live draw jumps the source those draws ahead
//! ([`RandomSource::skip_ahead`]). [`Replay::reset`] on a recording log
//! rewinds the read position to 0 and leaves the source alone.
//!
//! Recording starts at the first [`Replay::reset`], not at construction: a
//! source may be handed over mid-sequence, and its draws before the first
//! reset are not the ones a reset replays. A log is bounded by
//! [`Replay::MAX_LOG_BYTES`]. A run that would outgrow it stops recording for
//! good: the log is dropped, the source is put back at the read position,
//! and every reset from then on really resets the source.

use crate::source::{RandomSource, RngKind};
use std::fmt;
use std::ops::Range;

/// Whether draws are being recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Not reset yet: the source may have arrived mid-sequence.
    Untracked,
    /// Draws since the last real reset are in the log.
    Recording,
    /// A run outgrew the log bound; draws go straight to the source.
    Stopped,
}

/// The next draws of a [`Replay`]: a slice of the log, or the source itself
/// when nothing is logged, which the caller then draws from directly.
#[derive(Debug)]
pub enum Draws<'a, S, T> {
    /// The draws, read from (and, where new, recorded into) the log.
    Logged(&'a [T]),
    /// The source, already positioned at the first of the draws.
    Live(&'a mut S),
}

/// A random source that records the draws made since its last reset, each
/// mapped to a `T`, and replays them after the next reset.
///
/// Every draw must map the source the same way (the owner passes the same
/// mapping to [`Replay::take`] on every call, and draws a live source with
/// it too), or the replay would serve draws of another mapping.
///
/// # Example
///
/// ```
/// use sc_rng::{Draws, RandomSource, Replay, VanDerCorput};
///
/// let mut samples: Replay<VanDerCorput, f64> = Replay::new(VanDerCorput::new());
/// // Before the first reset nothing is recorded: the source is drawn live.
/// let Draws::Live(source) = samples.take(1, VanDerCorput::next_unit) else { panic!() };
/// assert_eq!(source.next_unit(), 0.5);
/// samples.reset();
/// let Draws::Logged(first) = samples.take(4, VanDerCorput::next_unit) else { panic!() };
/// assert_eq!(first, [0.5, 0.25, 0.75, 0.125]);
/// samples.reset();
/// // Replayed from the log: the source itself is not stepped again.
/// let Draws::Logged(again) = samples.take(1, VanDerCorput::next_unit) else { panic!() };
/// assert_eq!(again, [0.5]);
/// // `into_inner` hands the source back at its logical position.
/// assert_eq!(samples.into_inner().next_unit(), 0.25);
/// ```
#[derive(Clone)]
pub struct Replay<S, T> {
    source: S,
    log: Vec<T>,
    /// Draws since the last reset while recording: the read position.
    pos: usize,
    /// Draws skipped past the source's own position while not recording.
    ahead: u64,
    mode: Mode,
}

impl<S: fmt::Debug, T> fmt::Debug for Replay<S, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replay")
            .field("source", &self.source)
            .field("position", &self.pos)
            .field("logged", &self.log.len())
            .field("ahead", &self.ahead)
            .field("mode", &self.mode)
            .finish()
    }
}

impl<S: RandomSource, T: Copy> Replay<S, T> {
    /// The largest log, in bytes: 8,192 `f64` samples or 32,768 `u16`
    /// addresses. The bound holds for the log's allocation, not only for
    /// its length.
    pub const MAX_LOG_BYTES: usize = 64 * 1024;

    /// Most draws one log holds.
    const CAPACITY: usize = Self::MAX_LOG_BYTES / std::mem::size_of::<T>();

    /// Wraps `source`; recording starts at the first [`Replay::reset`].
    #[must_use]
    pub fn new(source: S) -> Self {
        Replay {
            source,
            log: Vec::new(),
            pos: 0,
            ahead: 0,
            mode: Mode::Untracked,
        }
    }

    /// The family of the wrapped source.
    #[must_use]
    pub fn kind(&self) -> RngKind {
        self.source.kind()
    }

    /// The next `n` draws. A recording log returns them as one slice of the
    /// log, drawing and recording with `map` what it does not hold yet;
    /// otherwise the caller gets the source to draw the `n` from itself.
    #[inline]
    pub fn take(&mut self, n: usize, map: impl FnMut(&mut S) -> T) -> Draws<'_, S, T> {
        match self.advance(n, map) {
            Some(draws) => Draws::Logged(&self.log[draws]),
            None => {
                self.catch_up();
                Draws::Live(&mut self.source)
            }
        }
    }

    /// Moves the logical position `n` draws ahead without returning them.
    /// A recording log records what it does not hold yet, drawing with
    /// `map`; otherwise the source is only jumped ahead at its next live
    /// draw, so a skip costs nothing when none follows before a reset.
    pub fn skip(&mut self, n: usize, map: impl FnMut(&mut S) -> T) {
        if self.advance(n, map).is_none() {
            self.ahead += n as u64;
        }
    }

    /// Moves a recording log's read position over the next `n` draws,
    /// recording with `map` what it does not hold yet, and returns where
    /// they lie in the log; `None` when nothing is logged.
    #[inline]
    fn advance(&mut self, n: usize, map: impl FnMut(&mut S) -> T) -> Option<Range<usize>> {
        if self.mode != Mode::Recording {
            return None;
        }
        let end = self.pos + n;
        if end > self.log.len() {
            self.record(end, map);
        }
        (self.mode == Mode::Recording).then(|| std::mem::replace(&mut self.pos, end)..end)
    }

    /// Jumps the source over the draws skipped since its last live draw.
    fn catch_up(&mut self) {
        if self.ahead > 0 {
            self.source.skip_ahead(self.ahead);
            self.ahead = 0;
        }
    }

    /// Draws and records with `map` until the log holds `end` draws, or
    /// stops recording when `end` is past the bound.
    #[cold]
    #[inline(never)]
    fn record(&mut self, end: usize, mut map: impl FnMut(&mut S) -> T) {
        if end > Self::CAPACITY {
            self.stop();
            return;
        }
        // Amortized growth, capped so that the allocation, not just the
        // length, stays within the bound.
        let grown = end.max(2 * self.log.capacity()).min(Self::CAPACITY);
        self.log.reserve_exact(grown - self.log.len());
        let source = &mut self.source;
        let missing = end - self.log.len();
        self.log.extend((0..missing).map(|_| map(source)));
    }

    /// Stops recording for good, with the source put back at the read
    /// position.
    fn stop(&mut self) {
        self.settle();
        self.log = Vec::new();
        self.mode = Mode::Stopped;
    }

    /// Moves the source from the end of the log back to the read position.
    fn settle(&mut self) {
        if self.pos < self.log.len() {
            self.source.reset();
            self.source.skip_ahead(self.pos as u64);
        }
    }

    /// Restarts the sequence. A recording log just rewinds its read
    /// position; otherwise the source itself is reset, and recording starts
    /// unless a run has already outgrown the log.
    pub fn reset(&mut self) {
        match self.mode {
            Mode::Recording => {}
            Mode::Untracked => {
                self.source.reset();
                self.mode = Mode::Recording;
            }
            Mode::Stopped => self.source.reset(),
        }
        self.pos = 0;
        self.ahead = 0;
    }

    /// Consumes the wrapper and returns the source at its logical position.
    #[must_use]
    pub fn into_inner(mut self) -> S {
        self.settle();
        self.catch_up();
        self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lfsr, SourceExt};

    fn unit(s: &mut Lfsr) -> f64 {
        s.next_unit()
    }

    /// The next `n` draws, logged or live.
    fn next(replay: &mut Replay<Lfsr, f64>, n: usize) -> Vec<f64> {
        match replay.take(n, unit) {
            Draws::Logged(draws) => draws.to_vec(),
            Draws::Live(source) => source.take_units(n),
        }
    }

    #[test]
    fn draws_before_the_first_reset_are_live_and_unrecorded() {
        let mut mid = Lfsr::new(16, 0xACE1);
        mid.skip_ahead(5);
        let mut replay: Replay<Lfsr, f64> = Replay::new(mid.clone());
        assert!(matches!(replay.take(3, unit), Draws::Live(_)));
        assert_eq!(next(&mut replay, 3), mid.take_units(3));
        replay.reset();
        assert!(matches!(replay.take(0, unit), Draws::Logged(_)));
        assert_eq!(next(&mut replay, 4), Lfsr::new(16, 0xACE1).take_units(4));
    }

    #[test]
    fn replay_equals_the_reset_source_across_runs() {
        let mut replay: Replay<Lfsr, f64> = Replay::new(Lfsr::new(16, 0x7331));
        let mut reference = Lfsr::new(16, 0x7331);
        for run in [10usize, 3, 25, 0, 7] {
            replay.reset();
            reference.reset();
            let got: Vec<f64> = (0..run).flat_map(|_| next(&mut replay, 1)).collect();
            assert_eq!(got, reference.take_units(run), "run of {run}");
        }
    }

    #[test]
    fn a_run_past_the_bound_stops_recording_and_stays_exact() {
        let capacity = Replay::<Lfsr, f64>::CAPACITY;
        let mut replay: Replay<Lfsr, f64> = Replay::new(Lfsr::new(16, 0xBEEF));
        let mut reference = Lfsr::new(16, 0xBEEF);
        // The second run crosses the bound mid-replay, with the source at the
        // end of a longer log.
        for run in [capacity - 10, 20, capacity + 10, 20, capacity + 1, 5] {
            replay.reset();
            reference.reset();
            let mut got = next(&mut replay, run.min(30));
            got.extend(next(&mut replay, run - run.min(30)));
            assert_eq!(got, reference.take_units(run), "run of {run}");
        }
        assert_eq!(replay.mode, Mode::Stopped);
        assert!(replay.log.is_empty(), "a stopped replay drops its log");
    }

    #[test]
    fn the_log_allocation_stays_within_the_bound() {
        let capacity = Replay::<Lfsr, f64>::CAPACITY;
        // Runs that grow the log in steps, then one draw at a time.
        let mut replay: Replay<Lfsr, f64> = Replay::new(Lfsr::new(16, 0xACE1));
        for run in [1000, 5000, capacity] {
            replay.reset();
            let _ = next(&mut replay, run);
            assert!(replay.log.capacity() <= capacity, "after a run of {run}");
        }
        let mut replay: Replay<Lfsr, f64> = Replay::new(Lfsr::new(16, 0xACE1));
        replay.reset();
        for _ in 0..capacity {
            let _ = next(&mut replay, 1);
        }
        assert_eq!(replay.log.len(), capacity);
        assert!(replay.log.capacity() <= capacity);
    }

    #[test]
    fn skips_move_the_position_in_every_mode() {
        let capacity = Replay::<Lfsr, f64>::CAPACITY;
        let mut replay: Replay<Lfsr, f64> = Replay::new(Lfsr::new(16, 0xACE1));
        let mut reference = Lfsr::new(16, 0xACE1);
        // Untracked, then recording past and within the log, then across
        // the bound into stopped: each skip is followed by real draws.
        for (run, skip) in [(0, 50), (1, 70), (2, 30), (3, capacity - 5), (4, 40)] {
            if run > 0 {
                replay.reset();
                reference.reset();
            }
            replay.skip(skip, unit);
            reference.skip_ahead(skip as u64);
            assert_eq!(next(&mut replay, 10), reference.take_units(10), "run {run}");
        }
        assert_eq!(replay.mode, Mode::Stopped);
        // A skip no draw follows leaves only the count behind.
        replay.reset();
        replay.skip(7, unit);
        assert_eq!(replay.ahead, 7);
        let mut reference = Lfsr::new(16, 0xACE1);
        reference.skip_ahead(7);
        assert_eq!(replay.into_inner().next_unit(), reference.next_unit());
    }

    #[test]
    fn into_inner_returns_the_source_at_its_logical_position() {
        let mut replay: Replay<Lfsr, f64> = Replay::new(Lfsr::new(16, 0xACE1));
        replay.reset();
        let _ = next(&mut replay, 100);
        replay.reset();
        let _ = next(&mut replay, 40);
        let mut reference = Lfsr::new(16, 0xACE1);
        reference.skip_ahead(40);
        assert_eq!(replay.into_inner().next_unit(), reference.next_unit());
    }
}
