//! Lane groups: the tasklets of a tasklet-major chunk executed together,
//! one decode per instruction for every tasklet at the same pc.
//!
//! A chunk ([`crate::chunk`], `Interp::try_chunk`) lets each of its
//! tasklets retire `k` inline instructions off the round-robin schedule.
//! Run one tasklet at a time, a paper kernel decodes the same loop body
//! once per tasklet: sixteen times per pixel on a full eBNN DPU. [`Lanes`]
//! instead holds the chunk's register files as a structure of arrays —
//! one row per register, one column per **lane** (tasklet) — and
//! repeatedly executes the unit at the lowest pc of any lane with quota
//! left for every lane at that pc (the **group**): a memoized superblock
//! span, or one inline op. Min-pc scheduling reconverges lanes that took
//! different sides of a branch at the next pc they share, and a lane that
//! ran ahead waits for the others to catch up.
//!
//! **Why it is exact.** Every lane still retires exactly its quota, and
//! the histogram gains each unit's ops once per lane of its group. The
//! order in which lanes interleave is one more reordering of the chunk's
//! tasklets: every load and store still registers with the chunk's
//! [`Shadow`], which flags a cross-tasklet overlap whichever access comes
//! first, so the commutation argument of `Interp::try_chunk` covers it.
//! Nothing outside the lanes changes before the chunk commits except WRAM
//! (undone by the store log) and the histogram (restored by the caller).

use crate::chunk::{Shadow, MAX_TRACKED_TASKLETS};
use crate::engine_stats::ChunkAbort;
use crate::exec::{match_ops, no_flow, ExecInstr, Superblocks, OP_COUNT};
use crate::isa::Instr;
use crate::memory::LinearMemory;
use crate::params::REGS_PER_TASKLET;

/// Lane columns: every tasklet a chunk can track.
const LANES: usize = MAX_TRACKED_TASKLETS;

/// Expands a [`match_ops!`] register-file row for every lane of `$group`:
/// one decode, then one pass over the lanes — over a whole block of them
/// when the group has one ([`Group::block`]). Writes to `r0` are dropped,
/// and the ops are pure, so such a row runs nothing.
macro_rules! on_lanes {
    ($regs:ident, $group:ident, $block:ident, $tasklet:ident;
     $rd:ident, $ra:expr, $rb:expr, |$a:pat_param, $b:pat_param, $id:pat_param| $value:expr) => {{
        let rows = ($rd.index(), $ra.index(), $rb.index());
        if rows.0 != 0 {
            let op = |$a: u32, $b: u32, $id: u32| -> u32 { $value };
            match $block {
                4 => block::<4>($regs, rows, $tasklet, op),
                8 => block::<8>($regs, rows, $tasklet, op),
                16 => block::<16>($regs, rows, $tasklet, op),
                LANES => block::<LANES>($regs, rows, $tasklet, op),
                _ => {
                    let (rd, ra, rb) = rows;
                    for &l in $group {
                        $regs[rd][l] = op($regs[ra][l], $regs[rb][l], $tasklet[l]);
                    }
                }
            }
        }
    }};
}

/// Expands a [`match_ops!`] control-flow row for every lane of `$group`,
/// all at pc `$at`: `$next` becomes the pc they all move to, or `None`
/// where they part.
macro_rules! jump_lanes {
    ($regs:ident, $pc:ident, $group:ident, $at:ident, $next:ident;
     $rd:expr, $ra:expr, $rb:expr, |$a:pat_param, $b:pat_param, $p:pat_param| $value:expr) => {{
        let (rd, ra, rb) = ($rd.index(), $ra.index(), $rb.index());
        for &l in $group {
            let ($a, $b, $p): (u32, u32, u32) = ($regs[ra][l], $regs[rb][l], $at);
            let (link, next) = $value;
            if rd != 0 {
                $regs[rd][l] = link;
            }
            $pc[l] = next;
        }
        let first = $pc[$group[0]];
        $next = $group.iter().all(|&l| $pc[l] == first).then_some(first);
    }};
}

/// `regs[rd] = op(regs[ra], regs[rb], tasklet)` over the first `W` lanes:
/// straight-line code the compiler vectorizes.
#[inline(always)]
fn block<const W: usize>(
    regs: &mut [[u32; LANES]; REGS_PER_TASKLET],
    (rd, ra, rb): (usize, usize, usize),
    tasklet: &[u32; LANES],
    op: impl Fn(u32, u32, u32) -> u32,
) {
    let out: [u32; W] = std::array::from_fn(|l| op(regs[ra][l], regs[rb][l], tasklet[l]));
    regs[rd][..W].copy_from_slice(&out);
}

/// The lanes of one chunk. Allocated by the first chunk of a run, so runs
/// that never chunk pay nothing.
pub(crate) struct Lanes {
    /// Register file: `regs[r][l]` is register `r` of lane `l`.
    regs: [[u32; LANES]; REGS_PER_TASKLET],
    pc: [u32; LANES],
    /// Instructions each lane has still to retire.
    left: [u64; LANES],
    /// The tasklet each lane is.
    tasklet: [u32; LANES],
    /// Lanes in use.
    n: usize,
}

/// A chunk's lanes stopped short of their quotas.
pub(crate) struct Aborted {
    pub reason: ChunkAbort,
    /// Instructions retired before the stop (host work thrown away).
    pub slots: u64,
}

impl Lanes {
    pub(crate) fn new() -> Box<Self> {
        Box::new(Self {
            regs: [[0; LANES]; REGS_PER_TASKLET],
            pc: [0; LANES],
            left: [0; LANES],
            tasklet: [0; LANES],
            n: 0,
        })
    }

    /// Load tasklets `order` as lanes `0..order.len()`, each with `quota`
    /// instructions to retire; `state(t)` is tasklet `t`'s registers and
    /// pc.
    pub(crate) fn load<'a>(
        &mut self,
        order: &[usize],
        quota: u64,
        state: impl Fn(usize) -> (&'a [u32; REGS_PER_TASKLET], u32),
    ) {
        self.n = order.len();
        for (l, &t) in order.iter().enumerate() {
            let (regs, pc) = state(t);
            for (row, &v) in self.regs.iter_mut().zip(regs) {
                row[l] = v;
            }
            self.pc[l] = pc;
            self.left[l] = quota;
            self.tasklet[l] = t as u32;
        }
    }

    /// Write lane `l`'s registers back to `regs`; returns its pc.
    pub(crate) fn store(&self, l: usize, regs: &mut [u32; REGS_PER_TASKLET]) -> u32 {
        for (v, row) in regs.iter_mut().zip(&self.regs) {
            *v = row[l];
        }
        self.pc[l]
    }

    /// Run every lane to its quota in min-pc groups, counting each
    /// dispatched op into `op_counts` once per lane; returns the group
    /// dispatches, counted per instruction (each retired one instruction
    /// for every lane of its group). Stops at the first unit any lane of
    /// a group cannot retire: a boundary op or `call`, a `trace`, a
    /// [`Shadow`] conflict, a memory fault or an out-of-range pc.
    pub(crate) fn run(
        &mut self,
        code: &[ExecInstr],
        sb: &Superblocks,
        wram: &mut LinearMemory,
        shadow: &mut Shadow,
        op_counts: &mut [u64; OP_COUNT],
    ) -> Result<u64, Aborted> {
        let (mut steps, mut slots) = (0, 0);
        let Some(mut g) = Group::form(&self.pc, &self.left[..self.n]) else {
            return Ok(steps);
        };
        let Self { regs, pc, left, tasklet, n } = self;
        loop {
            let (group, block) = (&g.lanes[..g.width], g.block);
            let at = g.at as usize;
            // A superblock span as long as the group's least quota allows,
            // else one inline op; then the pc all of the group's lanes
            // move to, or `None` where they part.
            let span = u64::from(sb.len_at(at)).min(g.least);
            let (count, next) = if span > 0 {
                let end = at + span as usize;
                match sb.head_meta(at) {
                    Some(meta) if meta.len as usize == span as usize => {
                        for &(op, c) in &meta.op_counts {
                            op_counts[op as usize] += u64::from(c) * group.len() as u64;
                        }
                    }
                    _ => {
                        for slot in &code[at..end] {
                            op_counts[slot.op as usize] += group.len() as u64;
                        }
                    }
                }
                for slot in &code[at..end] {
                    match_ops!(slot.instr, on_lanes!(regs, group, block, tasklet), no_flow!(), {
                        _ => unreachable!("superblocks hold register-file ops only"),
                    });
                }
                (span, Some(g.at + span as u32))
            } else {
                let abort = |reason| Aborted { reason, slots };
                let Some(slot) = code.get(at) else { return Err(abort(ChunkAbort::Fault)) };
                op_counts[slot.op as usize] += group.len() as u64;
                let at = g.at;
                let mut next = Some(at.wrapping_add(1));
                match_ops!(slot.instr, on_lanes!(regs, group, block, tasklet),
                    jump_lanes!(regs, pc, group, at, next), {
                    Instr::Load { width, rd, ra, off } => {
                        for &l in group {
                            let addr = regs[ra.index()][l].wrapping_add(off as u32) as usize;
                            match shadow.load(wram, addr, width, tasklet[l] as usize) {
                                Ok(Some(v)) if rd.index() != 0 => regs[rd.index()][l] = v,
                                Ok(Some(_)) => {}
                                Ok(None) => return Err(abort(ChunkAbort::Conflict)),
                                Err(_) => return Err(abort(ChunkAbort::Fault)),
                            }
                        }
                    }
                    Instr::Store { width, ra, off, rs } => {
                        for &l in group {
                            let addr = regs[ra.index()][l].wrapping_add(off as u32) as usize;
                            let v = regs[rs.index()][l];
                            match shadow.store(wram, addr, width, v, tasklet[l] as usize) {
                                Ok(true) => {}
                                Ok(false) => return Err(abort(ChunkAbort::Conflict)),
                                Err(_) => return Err(abort(ChunkAbort::Fault)),
                            }
                        }
                    }
                    Instr::Trace { .. } => return Err(abort(ChunkAbort::Trace)),
                    // Boundary ops, and a `call`: its burst would have no
                    // schedule slots to retire in.
                    _ => return Err(abort(ChunkAbort::Boundary)),
                });
                (1, next)
            };
            steps += count;
            slots += count * group.len() as u64;
            g.spent += count;
            g.least -= count;
            match next {
                // The group stays the group while its lanes share a pc
                // below every other lane's and none has met its quota.
                Some(next) if g.least > 0 && next < g.next => g.at = next,
                _ => {
                    for &l in group {
                        left[l] -= g.spent;
                        if let Some(next) = next {
                            pc[l] = next;
                        }
                    }
                    match Group::form(pc, &left[..*n]) {
                        Some(regrouped) => g = regrouped,
                        None => return Ok(steps),
                    }
                }
            }
        }
    }
}

/// The lanes one unit runs on. While a group holds, its lanes' pcs and
/// quotas in [`Lanes`] are stale: they all stand at `at`, having each
/// retired `spent` instructions since the group formed.
struct Group {
    /// Lane indices, ascending; the first `width` are live.
    lanes: [usize; LANES],
    width: usize,
    /// The group's pc: the lowest of any lane with quota left.
    at: u32,
    /// The least quota left among the group's lanes.
    least: u64,
    /// The lowest pc of the other lanes with quota left (`u32::MAX` if
    /// none): the group holds until it reaches it.
    next: u32,
    /// Instructions each lane retired since the group formed.
    spent: u64,
    /// When the group is every lane of the chunk, the lanes its pure ops
    /// run over: the chunk's lanes rounded up to 4, 8, 16 or [`LANES`]
    /// (the lanes past the chunk's are scratch). 0 otherwise: the ops run
    /// over the group's lanes one by one.
    block: usize,
}

impl Group {
    /// The min-pc group of the lanes with `left` quota, `None` when every
    /// quota is met.
    fn form(pc: &[u32; LANES], left: &[u64]) -> Option<Self> {
        let live = |l: usize| left[l] > 0;
        let at = (0..left.len()).filter(|&l| live(l)).map(|l| pc[l]).min()?;
        let mut g = Self {
            lanes: [0; LANES],
            width: 0,
            at,
            least: u64::MAX,
            next: u32::MAX,
            spent: 0,
            block: 0,
        };
        for l in (0..left.len()).filter(|&l| live(l)) {
            if pc[l] == at {
                g.lanes[g.width] = l;
                g.width += 1;
                g.least = g.least.min(left[l]);
            } else {
                g.next = g.next.min(pc[l]);
            }
        }
        if g.width == left.len() {
            g.block = match g.width {
                ..=4 => 4,
                5..=8 => 8,
                9..=16 => 16,
                _ => LANES,
            };
        }
        Some(g)
    }
}
