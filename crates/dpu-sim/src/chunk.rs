//! Race detection, rollback and pacing for tasklet-major rotation chunks.
//!
//! Inside a rotation batch the fast engine may let each tasklet run a
//! whole *chunk* of inline instructions off the round-robin order instead
//! of interleaving the tasklets slot by slot (see `Interp::try_chunk` in
//! [`crate::machine`], which runs them as the lane groups of
//! [`crate::lanes`]). Register files are private, so the reordering is
//! unobservable exactly when no WRAM word is written by one tasklet and
//! touched by another within the chunk. [`Shadow`] proves that per chunk:
//! every tracked load and store ([`Shadow::load`], [`Shadow::store`])
//! updates a per-word tag, a cross-tasklet read/write or write/write
//! overlap is reported at the access that completes it, whichever comes
//! first, and every store is logged so an aborted chunk can be undone
//! byte for byte. [`ChunkPolicy`] decides how long the next chunk
//! is and how long to stay away after one aborted.
//!
//! ## The tag state machine
//!
//! One `u16` per WRAM word: `epoch << 7 | state << 5 | tasklet`. A tag
//! whose epoch is not the current chunk's is *stale* (never touched this
//! chunk), so starting a chunk is an epoch bump, not a 32 KiB clear
//! (that happens once every 511 chunks, when the epoch wraps).
//!
//! | state        | read by `t`                  | write by `t`              |
//! |--------------|------------------------------|---------------------------|
//! | stale        | → read-by-one(`t`)           | → written(`t`)            |
//! | read-by-one(`u`) | `u == t`: stay; else → read-by-many | `u == t`: → written(`t`); else **conflict** |
//! | read-by-many | stay                         | **conflict**              |
//! | written(`u`) | `u == t`: stay; else **conflict** | `u == t`: stay; else **conflict** |
//!
//! Word granularity is conservative: two tasklets storing different bytes
//! of one word conflict even though their effects commute.

use crate::error::Result;
use crate::isa::Width;
use crate::memory::LinearMemory;

const TASKLET_MASK: u16 = 0x1f;
const STATE_MASK: u16 = 0x60;
const READ_ONE: u16 = 0x00;
const READ_MANY: u16 = 0x20;
const WRITTEN: u16 = 0x40;
const EPOCH_SHIFT: u32 = 7;
const EPOCH_MASK: u16 = !(STATE_MASK | TASKLET_MASK);
const MAX_EPOCH: u16 = u16::MAX >> EPOCH_SHIFT;

/// Largest tasklet count the tag's owner field can name.
pub(crate) const MAX_TRACKED_TASKLETS: usize = TASKLET_MASK as usize + 1;

/// One logged store: the bytes it replaced, at the width it wrote.
#[derive(Debug, Clone, Copy)]
struct Undo {
    addr: u32,
    old: u32,
    width: Width,
}

/// Per-run shadow of WRAM: access tags for the current chunk plus the
/// undo log of its stores. Allocated on the first chunk, so runs that
/// never reach a rotation batch pay nothing.
#[derive(Debug, Default)]
pub(crate) struct Shadow {
    tags: Vec<u16>,
    /// Current chunk's epoch, pre-shifted into tag position.
    epoch: u16,
    undo: Vec<Undo>,
}

impl Shadow {
    /// Start a chunk over a WRAM of `wram_bytes`: every tag becomes stale
    /// and the undo log empties.
    pub(crate) fn begin(&mut self, wram_bytes: usize) {
        let words = wram_bytes.div_ceil(4);
        if self.tags.len() != words {
            self.tags = vec![0; words];
            self.epoch = 0;
        }
        if self.epoch >> EPOCH_SHIFT == MAX_EPOCH {
            // Epoch 0 is never live, so zeroed tags are stale again.
            self.tags.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1 << EPOCH_SHIFT;
        self.undo.clear();
    }

    /// Record that tasklet `t` loaded `bytes` bytes at `addr` (an access
    /// the caller has already bounds-checked). False on a conflict.
    #[inline]
    fn read(&mut self, addr: usize, bytes: usize, t: usize) -> bool {
        let (first, last) = (addr >> 2, (addr + bytes - 1) >> 2);
        let ok = self.read_word(first, t as u16);
        if last == first {
            ok
        } else {
            ok && self.read_word(last, t as u16)
        }
    }

    /// Record that tasklet `t` is about to overwrite the `width` bytes at
    /// `addr`, currently holding `old` (an access the caller has already
    /// bounds-checked). False on a conflict, in which case nothing is
    /// logged and the caller must not perform the store.
    #[inline]
    fn write(&mut self, addr: usize, width: Width, old: u32, t: usize) -> bool {
        let (first, last) = (addr >> 2, (addr + width.bytes() - 1) >> 2);
        if !self.write_word(first, t as u16) || (last != first && !self.write_word(last, t as u16))
        {
            return false;
        }
        self.undo.push(Undo { addr: addr as u32, old, width });
        true
    }

    /// A tracked load: tasklet `t` loads `width` at `addr`. `Ok(None)` on
    /// a conflict, with nothing loaded.
    ///
    /// # Errors
    /// The load's out-of-bounds fault.
    #[inline]
    pub(crate) fn load(
        &mut self,
        wram: &LinearMemory,
        addr: usize,
        width: Width,
        t: usize,
    ) -> Result<Option<u32>> {
        let v = wram.load(addr, width)?;
        Ok(self.read(addr, width.bytes(), t).then_some(v))
    }

    /// A tracked store: tasklet `t` stores the low `width` of `v` at
    /// `addr`, logging the bytes it replaces. `Ok(false)` on a conflict,
    /// with nothing stored.
    ///
    /// # Errors
    /// The store's out-of-bounds fault.
    #[inline]
    pub(crate) fn store(
        &mut self,
        wram: &mut LinearMemory,
        addr: usize,
        width: Width,
        v: u32,
        t: usize,
    ) -> Result<bool> {
        // The read doubles as the store's bounds check.
        let old = wram.load(addr, width)?;
        if !self.write(addr, width, old, t) {
            return Ok(false);
        }
        wram.store(addr, width, v)?;
        Ok(true)
    }

    #[inline]
    fn read_word(&mut self, word: usize, t: u16) -> bool {
        let tag = &mut self.tags[word];
        if *tag & EPOCH_MASK != self.epoch {
            *tag = self.epoch | READ_ONE | t;
            return true;
        }
        match *tag & STATE_MASK {
            READ_ONE => {
                if *tag & TASKLET_MASK != t {
                    *tag = self.epoch | READ_MANY;
                }
                true
            }
            READ_MANY => true,
            _ => *tag & TASKLET_MASK == t,
        }
    }

    #[inline]
    fn write_word(&mut self, word: usize, t: u16) -> bool {
        let tag = &mut self.tags[word];
        if *tag & EPOCH_MASK != self.epoch {
            *tag = self.epoch | WRITTEN | t;
            return true;
        }
        match *tag & STATE_MASK {
            READ_MANY => false,
            state => {
                let own = *tag & TASKLET_MASK == t;
                if own && state == READ_ONE {
                    *tag = self.epoch | WRITTEN | t;
                }
                own
            }
        }
    }

    /// Undo every store of the current chunk, newest first, leaving WRAM
    /// exactly as [`Shadow::begin`] found it.
    pub(crate) fn rollback(&mut self, wram: &mut LinearMemory) {
        for u in self.undo.drain(..).rev() {
            let restored = wram.store(u.addr as usize, u.width, u.old);
            restored.expect("a logged store was in bounds when it executed");
        }
    }
}

/// Shortest chunk worth its checkpoint, in rounds.
const MIN_ROUNDS: u64 = 16;
/// Longest chunk: bounds the work a late abort throws away.
const MAX_ROUNDS: u64 = 1024;
/// First stand-off after a minimum-length chunk aborts, in issue slots.
const MIN_BACKOFF: u64 = 256;
/// Stand-off ceiling: a boundary-dense kernel re-probes this rarely, and
/// a kernel that turns chunk-friendly waits at most this long.
const MAX_BACKOFF: u64 = 1 << 20;

/// Adaptive chunk pacing, persisted across rotation batches of one run.
///
/// The length doubles on every commit and halves on every abort, so it
/// tracks the distance between boundary instructions. An abort at the
/// minimum length means chunks do not currently pay at all: attempts then
/// stand off for a number of *issued slots* that doubles each time, which
/// is what keeps a kernel with a DMA every few instructions from paying
/// for a failed checkpoint on every batch entry.
#[derive(Debug)]
pub(crate) struct ChunkPolicy {
    rounds: u64,
    backoff: u64,
    retry_at: u64,
}

impl Default for ChunkPolicy {
    fn default() -> Self {
        Self { rounds: MIN_ROUNDS, backoff: 0, retry_at: 0 }
    }
}

impl ChunkPolicy {
    /// Rounds the next chunk should run given `available` whole rounds of
    /// budget and `issued` slots retired so far; `None` while standing
    /// off or when less than a minimum chunk fits.
    pub(crate) fn rounds_for(&self, issued: u64, available: u64) -> Option<u64> {
        let k = self.rounds.min(available);
        (issued >= self.retry_at && k >= MIN_ROUNDS).then_some(k)
    }

    /// The last chunk committed.
    pub(crate) fn committed(&mut self) {
        self.rounds = (self.rounds * 2).min(MAX_ROUNDS);
        self.backoff = 0;
    }

    /// The last chunk aborted with `issued` slots retired so far.
    pub(crate) fn aborted(&mut self, issued: u64) {
        if self.rounds > MIN_ROUNDS {
            self.rounds /= 2;
        } else {
            self.backoff = (self.backoff * 2).clamp(MIN_BACKOFF, MAX_BACKOFF);
            self.retry_at = issued + self.backoff;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shadow() -> Shadow {
        let mut s = Shadow::default();
        s.begin(64);
        s
    }

    #[test]
    fn shared_reads_never_conflict() {
        let mut s = shadow();
        for t in 0..24 {
            assert!(s.read(8, 4, t));
            assert!(s.read(9, 1, t));
        }
    }

    #[test]
    fn private_words_allow_any_mix_of_accesses() {
        let mut s = shadow();
        assert!(s.read(0, 4, 3));
        assert!(s.write(0, Width::W, 0, 3), "read-by-one upgrades to written by its reader");
        assert!(s.read(2, 2, 3));
        assert!(s.write(1, Width::B, 0, 3));
        assert!(s.write(4, Width::H, 0, 5), "a fresh word is written directly");
        assert!(s.read(4, 1, 5));
    }

    #[test]
    fn store_after_foreign_load_conflicts() {
        let mut s = shadow();
        assert!(s.read(12, 4, 1));
        assert!(!s.write(12, Width::W, 0, 2));
        // Read by many, including the writer itself.
        let mut s = shadow();
        assert!(s.read(12, 4, 1));
        assert!(s.read(12, 4, 2));
        assert!(!s.write(12, Width::W, 0, 1));
    }

    #[test]
    fn load_after_foreign_store_conflicts() {
        let mut s = shadow();
        assert!(s.write(16, Width::W, 0, 7));
        assert!(!s.read(16, 4, 8));
        assert!(s.read(16, 4, 7));
    }

    #[test]
    fn foreign_stores_conflict_even_on_different_bytes_of_a_word() {
        let mut s = shadow();
        assert!(s.write(20, Width::B, 0, 0));
        assert!(!s.write(21, Width::B, 0, 1), "same word, different byte");
        assert!(!s.write(20, Width::B, 0, 1), "same byte");
        assert!(s.write(24, Width::B, 0, 1), "the next word is free");
    }

    #[test]
    fn unaligned_accesses_tag_both_words() {
        let mut s = shadow();
        assert!(s.write(6, Width::W, 0, 0), "bytes 6..10 span words 1 and 2");
        assert!(!s.read(4, 1, 1));
        assert!(!s.read(8, 1, 1));
        assert!(s.read(12, 1, 1));
        let mut s = shadow();
        assert!(s.read(7, 2, 0), "bytes 7..9 span words 1 and 2");
        assert!(!s.write(8, Width::B, 0, 1));
    }

    #[test]
    fn a_new_chunk_forgets_the_old_tags() {
        let mut s = shadow();
        assert!(s.write(0, Width::W, 0, 0));
        assert!(!s.read(0, 4, 1));
        s.begin(64);
        assert!(s.read(0, 4, 1));
    }

    #[test]
    fn epoch_wrap_clears_instead_of_aliasing() {
        let mut s = shadow();
        assert!(s.write(0, Width::W, 0, 0));
        // Tags written in epoch 1 must not look live when the counter
        // comes round to 1 again.
        s.epoch = MAX_EPOCH << EPOCH_SHIFT;
        assert!(s.write(4, Width::W, 0, 0));
        s.begin(64);
        assert_eq!(s.epoch >> EPOCH_SHIFT, 1);
        assert!(s.tags.iter().all(|&tag| tag == 0));
        assert!(s.read(0, 4, 1), "epoch-1 tag from before the wrap is stale");
        assert!(s.read(4, 4, 1), "last pre-wrap epoch's tag is stale");
    }

    #[test]
    fn rollback_restores_overlapping_stores_in_reverse() {
        let mut wram = LinearMemory::new("WRAM", 64);
        wram.write_u32(8, 0x1122_3344).unwrap();
        let before = wram.clone();
        let mut s = shadow();
        for (addr, width, val) in
            [(8usize, Width::W, 0xdead_beefu32), (9, Width::B, 0x55), (10, Width::H, 0x7788)]
        {
            assert!(s.store(&mut wram, addr, width, val, 4).unwrap());
        }
        assert!(!s.store(&mut wram, 8, Width::B, 0, 5).unwrap(), "a foreign store conflicts");
        assert_eq!(s.load(&wram, 8, Width::W, 4).unwrap(), Some(0x7788_55ef));
        assert_eq!(s.load(&wram, 8, Width::W, 5).unwrap(), None, "a foreign load conflicts");
        assert!(wram != before);
        s.rollback(&mut wram);
        assert!(wram == before);
    }

    #[test]
    fn policy_tracks_boundary_distance_and_stands_off() {
        let mut p = ChunkPolicy::default();
        assert_eq!(p.rounds_for(0, u64::MAX), Some(MIN_ROUNDS));
        assert_eq!(p.rounds_for(0, MIN_ROUNDS - 1), None, "less than a minimum chunk of budget");
        for _ in 0..10 {
            p.committed();
        }
        assert_eq!(p.rounds_for(0, u64::MAX), Some(MAX_ROUNDS));
        assert_eq!(p.rounds_for(0, 100), Some(100), "capped by the budget");
        p.aborted(5_000);
        assert_eq!(p.rounds_for(5_000, u64::MAX), Some(MAX_ROUNDS / 2), "halved, retried at once");
        while p.rounds_for(5_000, u64::MAX) != Some(MIN_ROUNDS) {
            p.aborted(5_000);
        }
        // Aborts at the minimum length stand off, doubling each time.
        p.aborted(5_000);
        assert_eq!(p.rounds_for(5_000 + MIN_BACKOFF - 1, u64::MAX), None);
        assert_eq!(p.rounds_for(5_000 + MIN_BACKOFF, u64::MAX), Some(MIN_ROUNDS));
        p.aborted(6_000);
        assert_eq!(p.rounds_for(6_000 + 2 * MIN_BACKOFF - 1, u64::MAX), None);
        for _ in 0..40 {
            p.aborted(0);
        }
        assert_eq!(p.rounds_for(MAX_BACKOFF, u64::MAX), Some(MIN_ROUNDS), "stand-off is capped");
        // A commit forgives the history.
        p.committed();
        p.aborted(0);
        p.aborted(0);
        assert_eq!(p.rounds_for(MIN_BACKOFF, u64::MAX), Some(MIN_ROUNDS));
    }
}
