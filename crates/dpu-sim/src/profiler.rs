//! Subroutine occurrence profiler, modelled on `dpu-profiling`.
//!
//! The paper identifies costly floating-point subroutines by profiling DPU
//! programs and counting how many times each runtime routine is entered
//! (the `#occ` column of Fig. 3.2); Fig. 4.3 then shows the LUT rewrite
//! shrinking the profile from 11+ routines to 2. [`Profiler`] reproduces
//! that report: the interpreter records one occurrence per
//! [`crate::isa::Instr::CallSub`] executed.
//!
//! [`CycleAttribution`] goes beyond occurrence counts to the *cycles*
//! behind them: a profiled run attributes every elapsed cycle to the
//! superblock-partition piece whose instruction occupied the issue slot
//! (burst slots go to the in-flight subroutine, keyed by its call site),
//! so the attributed cycles sum exactly to the run's makespan. The
//! profile exports as flamegraph folded stacks ([`CycleAttribution::folded`])
//! and feeds the Chrome-trace counter events and `report --json` hot-block
//! tables.

use crate::exec::Superblocks;
use crate::subroutines::Subroutine;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Occurrence counts per runtime subroutine for one program run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profiler {
    counts: BTreeMap<&'static str, u64>,
    float_calls: u64,
    total_calls: u64,
}

impl Profiler {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one entry into `sub`.
    pub fn record(&mut self, sub: Subroutine) {
        *self.counts.entry(sub.symbol()).or_insert(0) += 1;
        self.total_calls += 1;
        if sub.is_float() {
            self.float_calls += 1;
        }
    }

    /// Occurrences of a given routine.
    #[must_use]
    pub fn occurrences(&self, sub: Subroutine) -> u64 {
        self.counts.get(sub.symbol()).copied().unwrap_or(0)
    }

    /// Number of *distinct* routines observed — the quantity Fig. 4.3
    /// compares (11+ without the LUT rewrite, 2 with it).
    #[must_use]
    pub fn distinct_subroutines(&self) -> usize {
        self.counts.len()
    }

    /// Number of distinct *floating-point* routines observed.
    #[must_use]
    pub fn distinct_float_subroutines(&self) -> usize {
        Subroutine::ALL
            .iter()
            .filter(|s| s.is_float() && self.occurrences(**s) > 0)
            .map(|s| s.symbol())
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    }

    /// Total subroutine entries.
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.total_calls
    }

    /// Total entries into floating-point routines.
    #[must_use]
    pub fn float_calls(&self) -> u64 {
        self.float_calls
    }

    /// Iterate `(symbol, #occ)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(s, c)| (*s, *c))
    }

    /// Merge another profile into this one (used when aggregating tasklets
    /// or DPUs).
    pub fn merge(&mut self, other: &Profiler) {
        for (s, c) in &other.counts {
            *self.counts.entry(s).or_insert(0) += c;
        }
        self.total_calls += other.total_calls;
        self.float_calls += other.float_calls;
    }
}

impl fmt::Display for Profiler {
    /// Renders a Fig. 3.2-style table: one routine per line with `#occ`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<14} #occ", "symbol")?;
        for (sym, occ) in self.iter() {
            writeln!(f, "{sym:<14} {occ}")?;
        }
        Ok(())
    }
}

/// Cycle totals for one subroutine at one call site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubroutineCycles {
    /// Number of calls from this site.
    pub calls: u64,
    /// Issue slots spent in the subroutine body (burst slots).
    pub slots: u64,
    /// Cycles attributed to those slots.
    pub cycles: u64,
}

/// Cycle totals for one piece of the superblock partition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCycles {
    /// First pc of the piece.
    pub start: u32,
    /// Piece length in instructions (1 for non-superblock singletons).
    pub len: u32,
    /// Times the piece's head instruction issued (block entries).
    pub entries: u64,
    /// Issue slots attributed to the piece's own instructions.
    pub slots: u64,
    /// Cycles attributed to those slots (includes the idle/stall gap
    /// each slot waited behind — see the attribution rule below).
    pub cycles: u64,
}

/// Per-superblock and per-subroutine cycle attribution for one run.
///
/// Built by the profiled reference loop
/// ([`crate::machine::Observe::Profile`]): each issue slot's
/// contribution is the makespan delta it advanced the pipeline by (the
/// gap since the previous issue, so DMA stalls and idle windows land on
/// the instruction that waited behind them), attributed to the partition
/// piece containing the issued pc — or, for burst slots, to the
/// in-flight subroutine keyed by `(call-site piece, symbol)`. The
/// attributed cycles therefore sum *exactly* to the run's cycle count,
/// which the identity tests pin.
///
/// One attribution can accumulate several runs of the *same* program
/// (repeated launches, or one per DPU via [`CycleAttribution::merge`]).
///
/// Equality compares the accumulated profile (pieces, block and
/// subroutine stats, totals) and ignores the per-run `in_flight`
/// scratch, so "N runs accumulated" equals "N single-run attributions
/// merged".
#[derive(Debug, Clone, Default)]
pub struct CycleAttribution {
    /// `(start, len)` of every partition piece, ascending by start.
    pieces: Vec<(u32, u32)>,
    /// pc → index into `pieces`.
    piece_of: Vec<u32>,
    /// Per-piece accumulated stats, same order as `pieces`.
    blocks: Vec<BlockCycles>,
    /// Per-`(piece, symbol)` subroutine burst stats.
    subs: BTreeMap<(u32, &'static str), SubroutineCycles>,
    /// In-flight burst target per tasklet (valid during a profiled run).
    in_flight: Vec<Option<(u32, &'static str)>>,
    /// Total cycles attributed across all recorded runs.
    total_cycles: u64,
    /// Number of runs accumulated.
    runs: u64,
}

impl PartialEq for CycleAttribution {
    fn eq(&self, other: &Self) -> bool {
        self.pieces == other.pieces
            && self.blocks == other.blocks
            && self.subs == other.subs
            && self.total_cycles == other.total_cycles
            && self.runs == other.runs
    }
}

impl Eq for CycleAttribution {}

impl CycleAttribution {
    /// An empty attribution; [`prepare`](Self::prepare) binds it to a
    /// program's partition at the start of a profiled run.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind to a program's superblock partition and reset per-run
    /// transients. First call adopts the partition; later calls require
    /// the same one (accumulating unrelated programs would produce
    /// meaningless per-block sums).
    ///
    /// # Panics
    /// If re-prepared with a different partition.
    pub fn prepare(&mut self, sb: &Superblocks, tasklets: usize) {
        let pieces = sb.partition();
        if self.pieces.is_empty() && self.blocks.is_empty() {
            self.piece_of = Vec::with_capacity(pieces.iter().map(|&(_, l)| l as usize).sum());
            for (i, &(start, len)) in pieces.iter().enumerate() {
                #[allow(clippy::cast_possible_truncation)]
                self.piece_of.extend(std::iter::repeat_n(i as u32, len as usize));
                self.blocks.push(BlockCycles { start, len, ..BlockCycles::default() });
            }
            self.pieces = pieces;
        } else {
            assert_eq!(self.pieces, pieces, "CycleAttribution reused across different programs");
        }
        self.in_flight.clear();
        self.in_flight.resize(tasklets, None);
        self.runs += 1;
    }

    /// Attribute one issue slot at `pc` advancing the makespan by
    /// `delta` cycles. Ends any burst bookkeeping for the tasklet.
    #[inline]
    pub(crate) fn record_slot(&mut self, t: usize, pc: usize, delta: u64) {
        self.in_flight[t] = None;
        let piece = self.piece_of[pc] as usize;
        let b = &mut self.blocks[piece];
        b.slots += 1;
        b.cycles += delta;
        if b.start as usize == pc {
            b.entries += 1;
        }
        self.total_cycles += delta;
    }

    /// Note that the slot just recorded at `pc` entered subroutine
    /// `symbol`: subsequent burst slots of tasklet `t` accrue to it.
    #[inline]
    pub(crate) fn begin_burst(&mut self, t: usize, pc: usize, symbol: &'static str) {
        let piece = self.piece_of[pc];
        self.in_flight[t] = Some((piece, symbol));
        self.subs.entry((piece, symbol)).or_default().calls += 1;
    }

    /// Attribute one burst slot (subroutine body instruction) of tasklet
    /// `t` advancing the makespan by `delta` cycles.
    #[inline]
    pub(crate) fn record_burst(&mut self, t: usize, delta: u64) {
        let (piece, symbol) = self.in_flight[t].expect("burst slot outside a subroutine");
        let s = self.subs.entry((piece, symbol)).or_default();
        s.slots += 1;
        s.cycles += delta;
        self.total_cycles += delta;
    }

    /// Total cycles attributed — equal to the sum of the recorded runs'
    /// cycle counts (the identity tests pin this).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Number of runs accumulated into this attribution.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Per-piece stats in program order (pieces with zero slots included).
    #[must_use]
    pub fn blocks(&self) -> &[BlockCycles] {
        &self.blocks
    }

    /// Per-call-site subroutine stats, keyed by `(piece index, symbol)`.
    pub fn subroutines(&self) -> impl Iterator<Item = (u32, &'static str, SubroutineCycles)> + '_ {
        self.subs.iter().map(|(&(piece, symbol), &s)| (piece, symbol, s))
    }

    /// The `n` hottest pieces by attributed cycles (own slots plus the
    /// bursts of subroutines called from them), hottest first; ties break
    /// by start pc for determinism.
    #[must_use]
    pub fn top_blocks(&self, n: usize) -> Vec<BlockCycles> {
        let mut ranked: Vec<BlockCycles> = self
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let mut b = *b;
                #[allow(clippy::cast_possible_truncation)]
                let sub_cycles: u64 = self
                    .subs
                    .iter()
                    .filter(|((piece, _), _)| *piece == i as u32)
                    .map(|(_, s)| s.cycles)
                    .sum();
                b.cycles += sub_cycles;
                b
            })
            .filter(|b| b.slots > 0 || b.cycles > 0)
            .collect();
        ranked.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.start.cmp(&b.start)));
        ranked.truncate(n);
        ranked
    }

    /// Flamegraph-compatible folded stacks: one line per frame path with
    /// its attributed cycle count. Frames are `root;block_<start>_<len>`
    /// for block-own cycles and `root;block_<start>_<len>;<symbol>` for
    /// subroutine bursts, emitted in program order so the output is
    /// deterministic. Feed to `flamegraph.pl` / `inferno-flamegraph`.
    #[must_use]
    pub fn folded(&self, root: &str) -> String {
        let mut out = String::new();
        for (i, b) in self.blocks.iter().enumerate() {
            if b.slots > 0 {
                let _ = writeln!(out, "{root};block_{}_{} {}", b.start, b.len, b.cycles);
            }
            #[allow(clippy::cast_possible_truncation)]
            for ((_, symbol), s) in self.subs.range((i as u32, "")..(i as u32, "\u{10ffff}")) {
                let _ = writeln!(out, "{root};block_{}_{};{symbol} {}", b.start, b.len, s.cycles);
            }
        }
        out
    }

    /// Merge another attribution over the *same program* into this one
    /// (aggregating DPUs of a launch).
    ///
    /// # Panics
    /// If the two attributions were prepared on different partitions
    /// (merging unrelated programs would be meaningless). Merging an
    /// unprepared (empty) attribution in either direction is allowed.
    pub fn merge(&mut self, other: &CycleAttribution) {
        if other.pieces.is_empty() {
            return;
        }
        if self.pieces.is_empty() {
            *self = other.clone();
            return;
        }
        assert_eq!(self.pieces, other.pieces, "CycleAttribution merge across different programs");
        for (mine, theirs) in self.blocks.iter_mut().zip(&other.blocks) {
            mine.entries += theirs.entries;
            mine.slots += theirs.slots;
            mine.cycles += theirs.cycles;
        }
        for (k, s) in &other.subs {
            let mine = self.subs.entry(*k).or_default();
            mine.calls += s.calls;
            mine.slots += s.slots;
            mine.cycles += s.cycles;
        }
        self.total_cycles += other.total_cycles;
        self.runs += other.runs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_distinct() {
        let mut p = Profiler::new();
        p.record(Subroutine::Addsf3);
        p.record(Subroutine::Addsf3);
        p.record(Subroutine::Mulsi3);
        assert_eq!(p.occurrences(Subroutine::Addsf3), 2);
        assert_eq!(p.occurrences(Subroutine::Mulsi3), 1);
        assert_eq!(p.occurrences(Subroutine::Divsf3), 0);
        assert_eq!(p.distinct_subroutines(), 2);
        assert_eq!(p.total_calls(), 3);
        assert_eq!(p.float_calls(), 2);
    }

    #[test]
    fn distinct_float_subroutines_excludes_integer_ones() {
        let mut p = Profiler::new();
        p.record(Subroutine::Mulsi3);
        p.record(Subroutine::Divsi3);
        p.record(Subroutine::Ltsf2);
        assert_eq!(p.distinct_float_subroutines(), 1);
    }

    #[test]
    fn mulsi3_variants_share_a_symbol() {
        // Short and full paths are the same routine in a real profile.
        let mut p = Profiler::new();
        p.record(Subroutine::Mulsi3);
        p.record(Subroutine::Mulsi3Short);
        assert_eq!(p.occurrences(Subroutine::Mulsi3), 2);
        assert_eq!(p.distinct_subroutines(), 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Profiler::new();
        a.record(Subroutine::Addsf3);
        let mut b = Profiler::new();
        b.record(Subroutine::Addsf3);
        b.record(Subroutine::Divsf3);
        a.merge(&b);
        assert_eq!(a.occurrences(Subroutine::Addsf3), 2);
        assert_eq!(a.occurrences(Subroutine::Divsf3), 1);
        assert_eq!(a.total_calls(), 3);
    }

    #[test]
    fn display_renders_occ_table() {
        let mut p = Profiler::new();
        p.record(Subroutine::Divsf3);
        let s = p.to_string();
        assert!(s.contains("__divsf3"));
        assert!(s.contains("#occ"));
    }
}
