//! Recorded launches: replay a run from its read set.
//!
//! The interpreter is deterministic and a launch starts from reset
//! register files, pipeline and perf counter, so a run is a pure function
//! of the program, the tasklet count, the device parameters and the
//! memory bytes it reads *before writing them*. A [`Recording`] is one
//! run reduced to exactly that: the byte spans it read first (with the
//! values), the final bytes of every span it wrote, and what it reported.
//! A later launch with the same [`ReplayKey`] whose memory holds the same
//! bytes at every read span would execute the same instructions in the
//! same order, so [`ReplayTable::lookup`] applies the write set and hands
//! back the recorded result without interpreting anything.
//!
//! Nothing ever invalidates a recording: it is checked against the
//! machine's real memory on every use, so host copies, snapshot restores,
//! scrubs and raw bit flips need no hooks.
//!
//! A hit's WRAM write set shares its result by the rule of
//! [`crate::CowMemory::write_shared`]: a recording remembers the last
//! image its write set was applied to and the image that produced (see
//! [`Memo`]), and a DPU that holds that very input image takes the output
//! by reference. So the idle DPUs of a launch, which start from one image
//! and receive the same bytes, end holding one image; a DPU that started
//! elsewhere writes its own copy. The table lives in an
//! [`crate::ExecProgram`] (one per loaded program, shared by every DPU
//! and pool worker of a set) and is bounded: [`MAX_KEYS`] keys,
//! [`MAX_RECORDINGS_PER_KEY`] recordings each, every recording within the
//! slot and byte caps below. See `docs/PERFORMANCE.md` ("Recorded
//! launches") for the contract and the designs this replaced.

use crate::machine::RunResult;
use crate::memory::{LinearMemory, Mram, Wram};
use crate::params::DpuParams;
use crate::perfcounter::PerfCounter;
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, Weak};

/// Issue slots after which an open recording is abandoned: a run this
/// long repays interpretation, and its read set would not stay small.
pub(crate) const REPLAY_MAX_SLOTS: u64 = 1024;
/// Read-set caps: first-read bytes and spans per recording.
const MAX_READ_BYTES: usize = 512;
const MAX_READ_SPANS: usize = 64;
/// Write-set cap: distinct bytes written per recording.
const MAX_WRITE_BYTES: usize = 4096;
/// Table caps. A key past the first [`MAX_KEYS`] is never recorded; a
/// full key overwrites its oldest recording.
const MAX_KEYS: usize = 48;
const MAX_RECORDINGS_PER_KEY: usize = 8;

/// Everything a run depends on besides the program and memory contents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ReplayKey {
    pub tasklets: usize,
    pub params: DpuParams,
    /// `Machine::{dma, wram, mram}` are public fields, so their timing and
    /// capacities are part of the machine's identity, not of `params`.
    pub dma_timing: (u64, u64, usize),
    pub wram_len: usize,
    pub mram_len: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Space {
    Wram,
    Mram,
}

/// `bytes` at `addr` of `space`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Span {
    space: Space,
    addr: usize,
    bytes: Vec<u8>,
}

impl Span {
    fn end(&self) -> usize {
        self.addr + self.bytes.len()
    }
}

/// One finished run, reduced to what it read first, what it left behind
/// and what it reported. The DMA-statistics delta is the result's own
/// `dma_*` fields. The result is shared with every launch it replays:
/// a hit costs a reference count, not a copy of its histograms.
#[derive(Debug)]
pub(crate) struct Recording {
    reads: Vec<Span>,
    writes: Vec<Span>,
    result: Arc<RunResult>,
    perf: PerfCounter,
    memo: Mutex<Memo>,
}

/// The last application of a recording's WRAM write set: the image it
/// was applied to and the image it produced. Weak, so the memo pins no
/// bytes; and while a weak reference lives, its image's address names one
/// content ([`Arc::make_mut`] moves an image with weak references away
/// before writing it, and the allocation cannot be reused under the
/// reference), so identity with `input` means these bytes.
#[derive(Debug, Default)]
struct Memo {
    input: Weak<LinearMemory>,
    output: Weak<LinearMemory>,
}

impl Recording {
    fn matches(&self, wram: &Wram, mram: &Mram) -> bool {
        self.reads.iter().all(|s| match s.space {
            Space::Wram => wram.slice(s.addr, s.bytes.len()).is_ok_and(|now| now == s.bytes),
            Space::Mram => mram.holds(s.addr, &s.bytes),
        })
    }

    /// Apply the write set. An image nothing else refers to is written in
    /// place: no other DPU can start from it. Any other goes through the
    /// [`Memo`]: an image that is its output already holds these bytes (a
    /// write set applied twice writes the same bytes), and one that is its
    /// input takes the output by reference. The rest are written
    /// privately and become the memo's new input and output.
    fn apply(&self, wram: &mut Wram, mram: &mut Mram) {
        // In bounds: the key pins both capacities to the recorded run's.
        const IN_BOUNDS: &str = "recorded write span lies inside the keyed memory";
        let spans = |space| self.writes.iter().filter(move |s| s.space == space);
        let write = |dense: &mut LinearMemory| {
            for s in spans(Space::Wram) {
                dense.write(s.addr, &s.bytes).expect(IN_BOUNDS);
            }
        };
        if spans(Space::Wram).next().is_some() {
            match Arc::get_mut(&mut wram.0) {
                Some(own) => write(own),
                None => {
                    let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
                    let image = Arc::as_ptr(&wram.0);
                    let shared = ptr::eq(image, memo.input.as_ptr()).then(|| memo.output.upgrade());
                    if let Some(output) = shared.flatten() {
                        wram.0 = output;
                    } else if !ptr::eq(image, memo.output.as_ptr()) {
                        let input = Arc::downgrade(&wram.0);
                        write(wram);
                        *memo = Memo { input, output: Arc::downgrade(&wram.0) };
                    }
                }
            }
        }
        for s in spans(Space::Mram) {
            mram.write(s.addr, &s.bytes).expect(IN_BOUNDS);
        }
    }
}

/// The read and write sets of a run in flight. Fed by the four memory
/// arms of `Interp::step`; every method returns false when the recording
/// must be abandoned.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    /// The WRAM image the run started from.
    start: Weak<LinearMemory>,
    reads: Vec<Span>,
    read_bytes: usize,
    /// Written `[start, end)` intervals per [`Space`], sorted, disjoint
    /// and coalesced, so "every byte already written" is containment in
    /// one interval.
    written: [Vec<(usize, usize)>; 2],
    written_bytes: usize,
}

impl Recorder {
    /// An empty recording of a run on `wram`.
    pub(crate) fn new(wram: &Wram) -> Self {
        Self { start: Arc::downgrade(&wram.0), ..Self::default() }
    }

    /// The run read `now` (the bytes currently there) at `addr`.
    pub(crate) fn read(&mut self, space: Space, addr: usize, now: &[u8]) -> bool {
        let end = addr + now.len();
        if now.is_empty() {
            return true;
        }
        let mut touches_written = false;
        for &(s, e) in &self.written[space as usize] {
            if s <= addr && end <= e {
                return true; // its own output: not an input of the run
            }
            touches_written |= s < end && addr < e;
        }
        if touches_written {
            // Part pre-state, part own output. Splitting the span is
            // possible; no kernel worth replaying needs it.
            return false;
        }
        // Untouched by this run so far, so `now` is the pre-run value.
        if self.reads.iter().any(|r| r.space == space && r.addr <= addr && end <= r.end()) {
            return true;
        }
        if self.reads.len() == MAX_READ_SPANS || self.read_bytes + now.len() > MAX_READ_BYTES {
            return false;
        }
        self.read_bytes += now.len();
        self.reads.push(Span { space, addr, bytes: now.to_vec() });
        true
    }

    /// The run wrote `len` bytes at `addr`.
    pub(crate) fn write(&mut self, space: Space, addr: usize, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        let (mut start, mut end) = (addr, addr + len);
        let intervals = &mut self.written[space as usize];
        // Fold in every interval that overlaps or abuts the new one.
        let first = intervals.partition_point(|&(_, e)| e < start);
        let mut last = first;
        while last < intervals.len() && intervals[last].0 <= end {
            start = start.min(intervals[last].0);
            end = end.max(intervals[last].1);
            self.written_bytes -= intervals[last].1 - intervals[last].0;
            last += 1;
        }
        intervals.splice(first..last, [(start, end)]);
        self.written_bytes += end - start;
        self.written_bytes <= MAX_WRITE_BYTES
    }

    /// Close the recording of a run that halted cleanly: the write set is
    /// whatever the written intervals hold now. The run itself is the
    /// write set's first application: it wrote exactly those bytes over
    /// the image it started from, and left `wram`.
    pub(crate) fn finish(
        self,
        wram: &Wram,
        mram: &Mram,
        result: Arc<RunResult>,
        perf: PerfCounter,
    ) -> Recording {
        let mut writes = Vec::new();
        for (space, intervals) in [Space::Wram, Space::Mram].into_iter().zip(&self.written) {
            for &(start, end) in intervals {
                let bytes = match space {
                    Space::Wram => wram.slice(start, end - start).map(<[u8]>::to_vec),
                    Space::Mram => mram.to_vec(start, end - start),
                }
                .expect("a written interval was bounds-checked by the access that made it");
                writes.push(Span { space, addr: start, bytes });
            }
        }
        let memo = Mutex::new(Memo { input: self.start, output: Arc::downgrade(&wram.0) });
        Recording { reads: self.reads, writes, result, perf, memo }
    }
}

/// What [`ReplayTable::lookup`] found for a launch.
pub(crate) enum Lookup {
    /// A recording matched and its write set has been applied.
    Hit { result: Arc<RunResult>, perf: PerfCounter },
    /// The key is known to run short but nothing matched: record this run.
    Record,
    /// No run of this key has been seen to finish inside the slot cap:
    /// run as if there were no table.
    Unseen,
}

#[derive(Debug)]
struct KeySlot {
    key: ReplayKey,
    recordings: Vec<Recording>,
    /// Next recording to overwrite once the slot is full.
    victim: usize,
    /// Index of the recording that matched last. The DPUs of one launch
    /// mostly hit the same one, so it is tried first. A hint only: it
    /// publishes nothing, hence `Relaxed`.
    last_hit: AtomicUsize,
}

/// The recordings of one program, shared by everything that runs it.
#[derive(Debug, Default)]
pub(crate) struct ReplayTable {
    slots: RwLock<Vec<KeySlot>>,
}

impl ReplayTable {
    /// Look for a recording of `key` that fits `budget` and whose read set
    /// equals the current memory; on a match, apply its write set.
    pub(crate) fn lookup(
        &self,
        key: &ReplayKey,
        wram: &mut Wram,
        mram: &mut Mram,
        budget: u64,
    ) -> Lookup {
        // Every update is a push or an in-place replacement, so the table
        // is valid at every step and a poisoned lock is still usable.
        let slots = self.slots.read().unwrap_or_else(PoisonError::into_inner);
        let Some(slot) = slots.iter().find(|s| s.key == *key) else {
            return Lookup::Unseen;
        };
        let n = slot.recordings.len();
        let hint = slot.last_hit.load(Ordering::Relaxed);
        for i in (0..n).map(|i| (hint + i) % n) {
            let rec = &slot.recordings[i];
            // `cycles` is the run's last (and largest) post-pick clock, so
            // a budget that covers it never cut the recorded run short.
            if rec.result.cycles <= budget && rec.matches(wram, mram) {
                rec.apply(wram, mram);
                slot.last_hit.store(i, Ordering::Relaxed);
                return Lookup::Hit { result: Arc::clone(&rec.result), perf: rec.perf };
            }
        }
        Lookup::Record
    }

    /// A plain run of `key` finished inside [`REPLAY_MAX_SLOTS`]: later
    /// runs of it are worth recording.
    pub(crate) fn note_short_run(&self, key: &ReplayKey) {
        let mut slots = self.slots.write().unwrap_or_else(PoisonError::into_inner);
        if slots.len() < MAX_KEYS && !slots.iter().any(|s| s.key == *key) {
            slots.push(KeySlot {
                key: *key,
                recordings: Vec::new(),
                victim: 0,
                last_hit: AtomicUsize::new(0),
            });
        }
    }

    /// Keep `rec` for `key` (unless another worker recorded the same read
    /// set in the meantime).
    pub(crate) fn insert(&self, key: &ReplayKey, rec: Recording) {
        let mut slots = self.slots.write().unwrap_or_else(PoisonError::into_inner);
        let Some(slot) = slots.iter_mut().find(|s| s.key == *key) else { return };
        if slot.recordings.iter().any(|r| r.reads == rec.reads) {
            return;
        }
        if slot.recordings.len() < MAX_RECORDINGS_PER_KEY {
            slot.recordings.push(rec);
        } else {
            slot.recordings[slot.victim] = rec;
            slot.victim = (slot.victim + 1) % MAX_RECORDINGS_PER_KEY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_intervals_coalesce_and_count_distinct_bytes() {
        let mut r = Recorder::default();
        assert!(r.write(Space::Wram, 16, 8));
        assert!(r.write(Space::Wram, 0, 4));
        assert!(r.write(Space::Wram, 24, 8)); // abuts [16, 24)
        assert_eq!(r.written[0], vec![(0, 4), (16, 32)]);
        assert!(r.write(Space::Wram, 2, 20)); // bridges both
        assert_eq!(r.written[0], vec![(0, 32)]);
        assert_eq!(r.written_bytes, 32);
        assert!(r.write(Space::Mram, 8, 8));
        assert_eq!(r.written_bytes, 40);
        assert!(r.written[1] == vec![(8, 16)]);
    }

    #[test]
    fn reads_are_inputs_only_where_the_run_has_not_written() {
        let mut r = Recorder::default();
        assert!(r.read(Space::Wram, 0, &[1, 2, 3, 4]));
        assert!(r.read(Space::Wram, 1, &[2, 3])); // inside an earlier read
        assert_eq!(r.reads.len(), 1);
        assert!(r.write(Space::Wram, 8, 8));
        assert!(r.read(Space::Wram, 10, &[0; 4])); // own output
        assert_eq!(r.reads.len(), 1);
        assert!(r.read(Space::Mram, 10, &[9; 4])); // other space: an input
        assert_eq!(r.reads.len(), 2);
        assert!(!r.read(Space::Wram, 6, &[0; 4]), "straddles own output: abandon");
    }

    #[test]
    fn caps_abandon_the_recording() {
        let mut r = Recorder::default();
        assert!(r.read(Space::Mram, 0, &[0; MAX_READ_BYTES]));
        assert!(!r.read(Space::Mram, MAX_READ_BYTES, &[0]));
        let mut r = Recorder::default();
        for i in 0..MAX_READ_SPANS {
            assert!(r.read(Space::Wram, 2 * i, &[0]));
        }
        assert!(!r.read(Space::Wram, 2 * MAX_READ_SPANS, &[0]));
        let mut r = Recorder::default();
        assert!(r.write(Space::Wram, 0, MAX_WRITE_BYTES));
        assert!(r.write(Space::Wram, 8, 8), "rewriting written bytes adds none");
        assert!(!r.write(Space::Mram, 0, 1));
    }
}
