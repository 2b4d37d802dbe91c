//! The DPU's fine-grained multithreaded ("revolver") pipeline.
//!
//! The DPU core issues at most one instruction per cycle, drawn round-robin
//! from the ready tasklets, and a tasklet may only have a single instruction
//! in flight: after issuing, it cannot issue again for
//! [`crate::params::PIPELINE_STAGES`] (= 11) cycles. Consequences the paper
//! measures directly:
//!
//! * a single tasklet achieves 1/11 of peak issue rate, so single-thread
//!   microbenchmarks cost ≈ 11 cycles per instruction (Table 3.1);
//! * per-DPU speedup from multithreading saturates at 11 tasklets — the
//!   pipeline is full (Fig. 4.7a).
//!
//! [`Pipeline`] is an exact event-driven model of this dispatcher. Tasklets
//! blocked on a DMA transfer simply advertise a later ready time; they do not
//! consume issue slots while stalled, so other tasklets keep the pipeline
//! busy (this is what makes MRAM-heavy kernels scale worse than WRAM-heavy
//! ones, §4.3.3).

use crate::params::{MAX_TASKLETS, PIPELINE_STAGES};

/// Event-driven model of the revolver dispatcher.
///
/// `PartialEq`/`Eq` compare the complete scheduling state; the superblock
/// fast-forward tests use this to prove a batched advance leaves the
/// pipeline in exactly the state that the equivalent per-instruction
/// `pick` sequence would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pipeline {
    stages: u64,
    /// Earliest cycle at which each tasklet may issue its next instruction.
    next_ready: Vec<u64>,
    /// Next free global issue slot.
    cycle: u64,
    /// Cycle of the most recent issue (for pipeline drain accounting).
    last_issue: u64,
    /// Total instructions issued.
    issued: u64,
    /// Instructions issued per tasklet (occupancy accounting).
    issued_per_tasklet: Vec<u64>,
    /// Issue slots left idle because no tasklet was ready.
    idle_cycles: u64,
    rr_cursor: usize,
}

impl Pipeline {
    /// A pipeline for `tasklets` hardware threads with the default depth.
    #[must_use]
    pub fn new(tasklets: usize) -> Self {
        Self::with_stages(tasklets, u64::from(PIPELINE_STAGES))
    }

    /// A pipeline with an explicit depth (used for what-if studies).
    #[must_use]
    pub fn with_stages(tasklets: usize, stages: u64) -> Self {
        assert!(tasklets > 0, "pipeline needs at least one tasklet");
        assert!(stages > 0, "pipeline needs at least one stage");
        Self {
            stages,
            next_ready: vec![0; tasklets],
            cycle: 0,
            last_issue: 0,
            issued: 0,
            issued_per_tasklet: vec![0; tasklets],
            idle_cycles: 0,
            rr_cursor: 0,
        }
    }

    /// Number of tasklets the pipeline schedules.
    #[must_use]
    pub fn tasklets(&self) -> usize {
        self.next_ready.len()
    }

    /// Pipeline depth in stages.
    #[must_use]
    pub fn stages(&self) -> u64 {
        self.stages
    }

    /// Pick the tasklet that issues next among those with `runnable[t]`,
    /// advancing simulated time. Returns `None` when no tasklet is runnable.
    ///
    /// The chosen tasklet is the runnable one whose ready time allows the
    /// earliest issue; ties are broken round-robin starting after the last
    /// issuer, as the hardware dispatcher does.
    pub fn pick(&mut self, runnable: &[bool]) -> Option<usize> {
        debug_assert_eq!(runnable.len(), self.next_ready.len());
        let n = self.next_ready.len();
        if n == 1 {
            // Single-tasklet fast path: no scan, no round-robin state.
            if !runnable[0] {
                return None;
            }
            let issue_at = self.next_ready[0].max(self.cycle);
            return Some(self.commit(issue_at, 0, 1));
        }
        let mut best: Option<(u64, usize)> = None;
        // Probe in round-robin order as two wrap-free halves. The first
        // candidate at the current cycle is unbeatable (`issue_at` can
        // never be earlier, and ties go to the first in RR order), so the
        // scan stops there — on a saturated pipeline that is almost always
        // the first probe.
        'scan: for t in (self.rr_cursor..n).chain(0..self.rr_cursor) {
            if !runnable[t] {
                continue;
            }
            let issue_at = self.next_ready[t].max(self.cycle);
            if issue_at == self.cycle {
                best = Some((issue_at, t));
                break 'scan;
            }
            match best {
                None => best = Some((issue_at, t)),
                Some((b, _)) if issue_at < b => best = Some((issue_at, t)),
                _ => {}
            }
        }
        let (issue_at, t) = best?;
        Some(self.commit(issue_at, t, n))
    }

    /// Book one issue at `issue_at` for tasklet `t` and advance time.
    fn commit(&mut self, issue_at: u64, t: usize, n: usize) -> usize {
        self.idle_cycles += issue_at - self.cycle;
        self.last_issue = issue_at;
        self.cycle = issue_at + 1;
        self.next_ready[t] = issue_at + self.stages;
        self.issued += 1;
        self.issued_per_tasklet[t] += 1;
        self.rr_cursor = if t + 1 == n { 0 } else { t + 1 };
        t
    }

    /// Delay tasklet `t`'s next issue until `stall` cycles after its current
    /// ready time — used for DMA transfers, whose duration exceeds the
    /// pipeline rotation. The stall replaces (not adds to) the normal
    /// 11-cycle spacing when it is longer.
    pub fn stall(&mut self, t: usize, stall: u64) {
        // next_ready currently holds issue_cycle + stages; rebase the block
        // on the issue cycle itself.
        let issue_cycle = self.next_ready[t].saturating_sub(self.stages);
        self.next_ready[t] = issue_cycle + stall.max(self.stages);
    }

    /// Cycles elapsed once every tasklet has halted, including the final
    /// pipeline drain.
    #[must_use]
    pub fn elapsed(&self) -> u64 {
        if self.issued == 0 {
            0
        } else {
            self.last_issue + self.stages
        }
    }

    /// Total instructions issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Instructions issued by each tasklet so far (index = tasklet id).
    #[must_use]
    pub fn issued_per_tasklet(&self) -> &[u64] {
        &self.issued_per_tasklet
    }

    /// Issue slots that went unused because no tasklet was ready.
    #[must_use]
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }

    /// The next free global issue slot.
    #[must_use]
    pub fn current_cycle(&self) -> u64 {
        self.cycle
    }

    /// Earliest cycle at which tasklet `t` may issue its next instruction
    /// (its raw ready time, which may lie in the past).
    #[must_use]
    pub fn next_ready_of(&self, t: usize) -> u64 {
        self.next_ready[t]
    }

    /// Cycle at which tasklet `t` would actually issue if picked now:
    /// its ready time clamped to the current cycle.
    #[must_use]
    pub fn next_issue_at(&self, t: usize) -> u64 {
        self.next_ready[t].max(self.cycle)
    }

    /// Issue one instruction for tasklet `t`, known by the caller to be the
    /// *sole* runnable tasklet.
    ///
    /// Equivalent to `pick(&runnable)` when `runnable[t]` is the only set
    /// flag: the round-robin scan would find `t` (wherever the cursor is),
    /// no other candidate exists, and the issue cycle is
    /// `next_ready[t].max(cycle)` either way. Skips the O(tasklets) probe.
    pub fn pick_sole(&mut self, t: usize) -> usize {
        let issue_at = self.next_ready[t].max(self.cycle);
        self.commit(issue_at, t, self.next_ready.len())
    }

    /// Probe for a closed-form schedule over `active` — the ascending list
    /// of exactly the runnable tasklets, at least one — and write it to
    /// `order`/`at` in the form [`Pipeline::advance_periodic`] takes.
    ///
    /// Returns `(period, horizon)`: the schedule holds for every pick that
    /// issues strictly before cycle `horizon`, the earliest ready time of a
    /// runnable tasklet left *out* of `order` because a DMA stall puts it
    /// beyond the first round (`u64::MAX` when every runnable tasklet is
    /// in). `None` when the next picks depend on round-robin tie-breaking,
    /// which neither closed form can read off the ready times: with more
    /// runnable tasklets than stages try [`Pipeline::orbit_schedule`],
    /// otherwise take the picks one by one and probe again.
    ///
    /// A failed probe is O(`active.len()`) with no sort: the saturated
    /// form fails at the first tasklet late for its slot, and the
    /// under-saturated form as soon as a second tasklet is found already
    /// due (the tie the round-robin cursor would break). Only a tie
    /// between two *future* ready times — rare — is found after sorting.
    pub fn periodic_schedule(
        &self,
        active: &[usize],
        order: &mut Vec<usize>,
        at: &mut Vec<u64>,
    ) -> Option<(u64, u64)> {
        debug_assert!(!active.is_empty());
        let base = self.cycle;
        let r = active.len() as u64;
        order.clear();
        at.clear();
        if r >= self.stages {
            // Saturated round-robin: everyone ready at their probe slot.
            let split = active.partition_point(|&t| t < self.rr_cursor);
            order.extend_from_slice(&active[split..]);
            order.extend_from_slice(&active[..split]);
            if order.iter().zip(base..).all(|(&t, slot)| self.next_ready[t] <= slot) {
                at.extend(base..base + r);
                return Some((r, u64::MAX));
            }
            order.clear();
        }
        let mut first = u64::MAX;
        let mut due = false;
        for &t in active {
            let ready = self.next_ready[t];
            if ready <= base {
                if due {
                    return None;
                }
                due = true;
            }
            first = first.min(ready);
        }
        // Members issue inside the first `stages` cycles; whoever is ready
        // later only bounds how long the schedule holds.
        let window = first.max(base) + self.stages;
        let mut horizon = u64::MAX;
        for &t in active {
            let ready = self.next_ready[t];
            if ready < window {
                order.push(t);
            } else {
                horizon = horizon.min(ready);
            }
        }
        // At most one member's ready time is clamped up to `base`, so the
        // raw ready times sort the clamped ones too.
        order.sort_unstable_by_key(|&t| self.next_ready[t]);
        at.extend(order.iter().map(|&t| self.next_ready[t].max(base)));
        at.windows(2).all(|w| w[0] < w[1]).then_some((self.stages, horizon))
    }

    /// Probe for a *verified orbit* over `active` when both closed forms of
    /// [`Pipeline::periodic_schedule`] have failed: same arguments, same
    /// result, but the schedule is found by running the dispatcher's own
    /// pick rule ([`Pipeline::pick_from`]'s scan) on a scratch copy of the
    /// cycle, the round-robin cursor and the ready times.
    ///
    /// *Round one* runs until the rule picks some tasklet a second time;
    /// the tasklets issued so far are the orbit's members, in `order`, at
    /// the cycles `at`. Runnable tasklets it never reached (DMA in flight)
    /// stay out and bound the schedule at `horizon`, exactly as in the
    /// under-saturated closed form: a pick issuing before their earliest
    /// ready time cannot see them. *Round two* starts with that second
    /// pick, `period` cycles after the first, and must issue the same
    /// members in the same order, each exactly `period` cycles after its
    /// round-one issue — otherwise `None`.
    ///
    /// **Why two rounds prove all of them.** After round one every member
    /// has issued, so the scratch state is `(at[last] + 1, order[last] + 1,
    /// at[p] + stages)`; after a matching round two it is the same state
    /// with every cycle `period` later. The pick rule only compares ready
    /// times with each other and with the current cycle, so shifting all of
    /// them shifts its picks: round three is round two `period` later, and
    /// by induction pick `m` issues `order[m % r]` at `at[m % r] + m / r *
    /// period` for as long as only inline instructions are dispatched —
    /// the contract of [`Pipeline::advance_periodic`]. (Round one itself is
    /// *not* a shift of round two: it starts from ready times in the past
    /// and an arbitrary cursor, which is why the closed forms miss it.)
    ///
    /// This is what more than `stages` tasklets settle into after DMA skew:
    /// 12 tasklets on 11 stages issue in a fixed *permuted* order with
    /// period 12, some always late for the slot the round-robin form
    /// expects, and never drift back. At most two rounds of O(r) scans for
    /// `r` runnable tasklets (a first-fit hit ends a scan early, so a
    /// saturated pipeline pays a few probes per pick), no allocation;
    /// pipelines wider than [`MAX_TASKLETS`] are not probed.
    #[cold]
    pub fn orbit_schedule(
        &self,
        active: &[usize],
        order: &mut Vec<usize>,
        at: &mut Vec<u64>,
    ) -> Option<(u64, u64)> {
        let n = self.next_ready.len();
        if n > MAX_TASKLETS {
            return None;
        }
        let mut ready = [0u64; MAX_TASKLETS];
        ready[..n].copy_from_slice(&self.next_ready);
        let (mut cycle, mut cursor) = (self.cycle, self.rr_cursor);
        let mut members = 0u32;
        let (mut period, mut horizon) = (0, u64::MAX);
        order.clear();
        at.clear();
        // `picks == order.len()` until round one ends.
        for picks in 0.. {
            let (issue_at, t) = Self::scan(&ready[..n], cycle, cursor, active)?;
            let r = order.len();
            if picks == r && members & (1 << t) == 0 {
                members |= 1 << t;
                order.push(t);
                at.push(issue_at);
            } else {
                let p = picks - r;
                if p == 0 {
                    period = issue_at - at[0];
                    // From here on the members rotate among themselves.
                    for &u in active.iter().filter(|&&u| members & (1 << u) == 0) {
                        horizon = horizon.min(ready[u]);
                        ready[u] = u64::MAX;
                    }
                }
                if (t, issue_at) != (order[p], at[p] + period) {
                    return None;
                }
                if p + 1 == r {
                    break;
                }
            }
            ready[t] = issue_at + self.stages;
            cycle = issue_at + 1;
            cursor = if t + 1 == n { 0 } else { t + 1 };
        }
        Some((period, horizon))
    }

    /// Issue `slots >= 1` consecutive picks of a *periodic rotation* in one
    /// step: pick number `m` (0-based) issues tasklet `order[m % r]` at
    /// cycle `at[m % r] + (m / r) * period`, where `r = order.len()`.
    ///
    /// This is the one closed form behind every batched mode. It is exactly
    /// equivalent to `slots` successive `pick`s over the runnable set
    /// `order` *provided* the caller has verified that `at` really is the
    /// first round's issue schedule and that it repeats — which two shapes
    /// guarantee from the ready times alone (`base` = the current cycle),
    /// and [`Pipeline::orbit_schedule`] verifies for any other:
    ///
    /// * **saturated round-robin** — `r >= stages`, `order` in round-robin
    ///   probe order from the cursor, `next_ready[order[p]] <= base + p`:
    ///   then `at[p] = base + p` and `period = r`. Each tasklet issues once
    ///   per rotation of `r >= stages` cycles, so its own spacing never
    ///   binds and the first-fit probe always lands on the next tasklet in
    ///   cyclic order.
    /// * **under-saturated** — `r <= stages`, `order` sorted by ready time,
    ///   `at[p] = next_ready[order[p]].max(base)` *strictly increasing* and
    ///   spanning fewer than `stages` cycles: then `period = stages`. At
    ///   every pick the candidates' issue times are the remaining `at[p..]`
    ///   followed by the already-issued `at[..p] + stages`, still strictly
    ///   increasing (`at[p - 1] + stages > at[r - 1]` is the span bound), so
    ///   the earliest candidate is unique and neither first-fit nor the
    ///   round-robin cursor ever breaks a tie; by induction the same holds
    ///   in every later round, and after a mid-round stop for the rotated
    ///   order. With `r == stages` this is the exact-fit permutation that
    ///   DMA stalls leave 11 tasklets on 11 stages in for good (one tasklet
    ///   ready per cycle, zero idle); with `r == 1` it is a sole tasklet
    ///   issuing every `stages` cycles.
    ///
    /// Runnable tasklets *outside* `order` are the caller's business: the
    /// equivalence holds for as long as every batched pick issues strictly
    /// before the earliest of their ready times (see
    /// [`Pipeline::periodic_slots_through`]).
    ///
    /// Every cycle from `base` up to the last issue is either one of the
    /// `slots` issues or idle, which is the whole idle-slot accounting.
    pub fn advance_periodic(&mut self, order: &[usize], at: &[u64], period: u64, slots: u64) {
        let r = order.len() as u64;
        debug_assert!(slots >= 1 && r >= 1 && at.len() == order.len());
        debug_assert!(period >= self.stages && period >= r, "a tasklet would reissue too early");
        debug_assert!(at[0] >= self.cycle && at[at.len() - 1] - at[0] < period);
        debug_assert!(at.windows(2).all(|w| w[0] < w[1]), "issue times must be distinct");
        let base = self.cycle;
        // (Sole-tasklet flushes come every few instructions in lock
        // convoys: spare them the division.)
        let (full_rounds, rem) =
            if r == 1 { (slots, 0) } else { (slots / r, (slots % r) as usize) };
        for (p, (&t, &first)) in order.iter().zip(at).enumerate() {
            debug_assert!(self.next_ready[t] <= first, "tasklet {t} not ready at its slot");
            let issues = full_rounds + u64::from(p < rem);
            if issues > 0 {
                self.next_ready[t] = first + (issues - 1) * period + self.stages;
                self.issued_per_tasklet[t] += issues;
            }
        }
        // The last pick: the end of a whole round, or `rem` into the next.
        let (last, round) =
            if rem == 0 { (order.len() - 1, full_rounds - 1) } else { (rem - 1, full_rounds) };
        self.last_issue = at[last] + round * period;
        self.cycle = self.last_issue + 1;
        self.issued += slots;
        self.idle_cycles += (self.cycle - base) - slots;
        let n = self.next_ready.len();
        self.rr_cursor = if order[last] + 1 == n { 0 } else { order[last] + 1 };
    }

    /// How many leading picks of the periodic rotation `(at, period)` of
    /// [`Pipeline::advance_periodic`] issue at or before cycle `limit`.
    ///
    /// Issue times increase with the pick number, so this is the longest
    /// batch that stays inside a bound on the issue cycle: a cycle budget
    /// (`limit = budget - stages`, because the reference checks
    /// `issue + stages <= budget` after every pick) or the ready time of a
    /// stalled tasklet outside the rotation (`limit = ready - 1`). Far from
    /// the limit the division is replaced by a safe underestimate — the
    /// batch just ends early and re-enters; the exact count only matters
    /// close to the bound.
    #[must_use]
    pub fn periodic_slots_through(at: &[u64], period: u64, limit: u64) -> u64 {
        let r = at.len() as u64;
        // Whole rounds that fit, and how far they shift the partial one.
        let (full, shift) = match limit.checked_sub(at[at.len() - 1]) {
            None => (0, 0),
            Some(room) if room >= (1 << 32) && period <= 64 => return (room >> 6) * r,
            Some(room) => (room / period + 1, (room / period + 1).saturating_mul(period)),
        };
        let partial =
            at.iter().take_while(|&&a| limit.checked_sub(a).is_some_and(|d| d >= shift)).count();
        full * r + partial as u64
    }

    /// [`Pipeline::pick`] restricted to a caller-maintained ascending list
    /// of exactly the runnable tasklet indices.
    ///
    /// Equivalent to `pick(&runnable)` whenever `active` holds precisely
    /// the indices with `runnable[t]`: the probe visits the same
    /// candidates in the same round-robin order with the same
    /// first-fit/minimum tie-break, without scanning the non-runnable
    /// majority — the win when a few tasklets of many are unblocked.
    pub fn pick_from(&mut self, active: &[usize]) -> Option<usize> {
        let n = self.next_ready.len();
        if let &[a, b] = active {
            // Two candidates — the common shape of a lock convoy. Probe
            // order from the cursor is [b, a] iff the cursor sits in
            // (a, b]; first-fit at the current cycle, else earliest wins
            // with the probe-order tie-break, exactly as below.
            let (x, y) = if self.rr_cursor > a && self.rr_cursor <= b { (b, a) } else { (a, b) };
            let ix = self.next_ready[x].max(self.cycle);
            if ix == self.cycle {
                return Some(self.commit(ix, x, n));
            }
            let iy = self.next_ready[y].max(self.cycle);
            let (i, t) = if iy < ix { (iy, y) } else { (ix, x) };
            return Some(self.commit(i, t, n));
        }
        let (issue_at, t) = Self::scan(&self.next_ready, self.cycle, self.rr_cursor, active)?;
        Some(self.commit(issue_at, t, n))
    }

    /// The tasklet [`Pipeline::pick_from`] would issue next, without
    /// issuing it.
    #[must_use]
    pub fn next_pick(&self, active: &[usize]) -> Option<usize> {
        Self::scan(&self.next_ready, self.cycle, self.rr_cursor, active).map(|(_, t)| t)
    }

    /// The dispatcher's pick rule over the ascending candidate list
    /// `active`: probing in round-robin order from `cursor`, the first
    /// candidate that can issue at `cycle` (first-fit), else the one with
    /// the earliest ready time, the earlier probed on a tie. Returns the
    /// issue cycle and the tasklet; changes nothing.
    #[inline(always)]
    fn scan(
        next_ready: &[u64],
        cycle: u64,
        cursor: usize,
        active: &[usize],
    ) -> Option<(u64, usize)> {
        let split = active.partition_point(|&t| t < cursor);
        let mut best: Option<(u64, usize)> = None;
        for &t in active[split..].iter().chain(&active[..split]) {
            let issue_at = next_ready[t].max(cycle);
            if issue_at == cycle {
                return Some((issue_at, t));
            }
            match best {
                None => best = Some((issue_at, t)),
                Some((b, _)) if issue_at < b => best = Some((issue_at, t)),
                _ => {}
            }
        }
        best
    }
}

/// Closed-form cycle estimate for a *balanced* kernel: `tasklets` threads
/// each issuing `slots_per_tasklet` instruction slots, with no memory stalls.
///
/// This is the law the event-driven model converges to and is used by the
/// Tier-2 kernel cost model:
/// `cycles ≈ max(total_slots, stages × slots_per_tasklet) + stages`.
#[must_use]
pub fn balanced_cycles(tasklets: u64, slots_per_tasklet: u64, stages: u64) -> u64 {
    let total = tasklets * slots_per_tasklet;
    total.max(stages * slots_per_tasklet) + stages
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a synthetic workload: each tasklet issues `per` instructions.
    fn run(tasklets: usize, per: u64) -> u64 {
        let mut p = Pipeline::new(tasklets);
        let mut remaining = vec![per; tasklets];
        let mut runnable = vec![true; tasklets];
        loop {
            if !runnable.iter().any(|&r| r) {
                break;
            }
            let t = p.pick(&runnable).unwrap();
            remaining[t] -= 1;
            if remaining[t] == 0 {
                runnable[t] = false;
            }
        }
        p.elapsed()
    }

    #[test]
    fn single_tasklet_pays_full_rotation() {
        // n instructions, one per 11 cycles: elapsed = (n-1)*11 + 1 + 11.
        let c = run(1, 10);
        assert_eq!(c, 9 * 11 + 11);
    }

    #[test]
    fn eleven_tasklets_fill_the_pipeline() {
        // 11 tasklets × n instrs: one issue per cycle, no idle slots.
        let n = 100;
        let c = run(11, n);
        // total slots = 1100; last issue at cycle 1099; drain 11.
        assert_eq!(c, 11 * n + 10);
    }

    #[test]
    fn throughput_saturates_at_pipeline_depth() {
        // Weak scaling: each tasklet issues `per` instructions. Up to 11
        // tasklets the elapsed time stays ~constant (latency bound), so
        // throughput grows ~linearly; past 11 the issue bound takes over and
        // throughput is flat at one instruction per cycle.
        let per = 200u64;
        let tput = |t: usize| (t as u64 * per) as f64 / run(t, per) as f64;
        let mut prev = 0.0;
        for t in 1..=11 {
            let x = tput(t);
            assert!(x > prev * 1.05, "throughput should grow up to 11 tasklets (t={t})");
            prev = x;
        }
        assert!(tput(11) > 0.9, "11 tasklets ≈ one instruction per cycle");
        assert!(tput(16) <= 1.0 + 1e-9);
        assert!(tput(24) <= 1.0 + 1e-9);
        assert!((tput(16) - tput(11)).abs() < 0.1, "flat past saturation");
    }

    #[test]
    fn fixed_total_work_speedup_matches_min_t_11() {
        // Split a fixed job of 1760 slots across t tasklets: speedup vs one
        // tasklet should be ≈ min(t, 11).
        let total = 1760u64;
        let base = run(1, total) as f64;
        for &t in &[2usize, 4, 8, 11] {
            let c = run(t, total / t as u64) as f64;
            let s = base / c;
            let expect = t as f64;
            assert!(
                (s - expect).abs() / expect < 0.05,
                "t={t}: speedup {s:.2} expected ≈ {expect}"
            );
        }
        let c22 = run(22, total / 22) as f64;
        assert!(base / c22 < 11.5, "speedup must saturate at ~11");
    }

    #[test]
    fn stall_blocks_only_the_stalled_tasklet() {
        let mut p = Pipeline::new(2);
        let runnable = vec![true, true];
        let t0 = p.pick(&runnable).unwrap();
        p.stall(t0, 1000); // t0 does a long DMA
                           // The other tasklet should keep issuing immediately.
        let t1 = p.pick(&runnable).unwrap();
        assert_ne!(t0, t1);
        let again = p.pick(&[t1 == 0, t1 == 1]).unwrap();
        assert_eq!(again, t1);
        assert!(p.elapsed() < 100);
    }

    #[test]
    fn stall_shorter_than_rotation_is_absorbed() {
        let mut p = Pipeline::new(1);
        p.pick(&[true]).unwrap();
        p.stall(0, 3); // shorter than 11 — rotation dominates
        p.pick(&[true]).unwrap();
        assert_eq!(p.elapsed(), 11 + 11);
    }

    #[test]
    fn balanced_formula_tracks_simulation() {
        for &(t, per) in &[(1u64, 50u64), (4, 50), (11, 50), (16, 30)] {
            let sim = run(t as usize, per);
            let est = balanced_cycles(t, per, 11);
            let err = (sim as f64 - est as f64).abs() / sim as f64;
            assert!(err < 0.05, "t={t} per={per}: sim={sim} est={est}");
        }
    }

    #[test]
    fn idle_cycles_counted_for_sparse_issue() {
        let mut p = Pipeline::new(1);
        for _ in 0..5 {
            p.pick(&[true]).unwrap();
        }
        // 4 gaps × 10 idle slots each.
        assert_eq!(p.idle_cycles(), 40);
    }

    #[test]
    fn empty_pipeline_reports_zero() {
        let p = Pipeline::new(4);
        assert_eq!(p.elapsed(), 0);
        assert_eq!(p.issued(), 0);
        assert_eq!(p.issued_per_tasklet(), &[0, 0, 0, 0]);
    }

    #[test]
    fn pick_sole_matches_pick_with_one_runnable() {
        for tasklets in [1usize, 2, 5, 16] {
            for sole in 0..tasklets {
                let mut a = Pipeline::new(tasklets);
                let mut b = Pipeline::new(tasklets);
                // Desynchronize ready times first: issue one instruction
                // from every tasklet on both sides.
                let all = vec![true; tasklets];
                for _ in 0..tasklets {
                    let t = a.pick(&all).unwrap();
                    let u = b.pick(&all).unwrap();
                    assert_eq!(t, u);
                }
                let mut runnable = vec![false; tasklets];
                runnable[sole] = true;
                for _ in 0..20 {
                    assert_eq!(a.pick(&runnable), Some(sole));
                    assert_eq!(b.pick_sole(sole), sole);
                    assert_eq!(a, b, "tasklets={tasklets} sole={sole}");
                }
            }
        }
    }

    /// The schedule `periodic_schedule` finds from the current state.
    fn schedule(p: &Pipeline, active: &[usize]) -> Option<(Vec<usize>, Vec<u64>, u64, u64)> {
        let (mut order, mut at) = (Vec::new(), Vec::new());
        let (period, horizon) = p.periodic_schedule(active, &mut order, &mut at)?;
        Some((order, at, period, horizon))
    }

    /// The orbit `orbit_schedule` verifies from the current state, probed
    /// when the fast engine would: more runnable tasklets than stages.
    fn orbit(p: &Pipeline, active: &[usize]) -> Option<(Vec<usize>, Vec<u64>, u64, u64)> {
        if active.len() as u64 <= p.stages() {
            return None;
        }
        let (mut order, mut at) = (Vec::new(), Vec::new());
        let (period, horizon) = p.orbit_schedule(active, &mut order, &mut at)?;
        Some((order, at, period, horizon))
    }

    #[test]
    fn periodic_advance_matches_repeated_picks_for_every_runnable_count() {
        // For every runnable count, in a pipeline of exactly that many
        // tasklets and as a scattered subset of 24: walk a run whose ready
        // times are skewed by DMA-like stalls, and wherever a closed form
        // is found, flush a random number of slots (whole rounds, mid-round
        // stops, up to the stalled tasklets' horizon) through one
        // `advance_periodic` and compare the complete pipeline state
        // against the same number of `pick`s.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move |n: u64| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) % n
        };
        for r in 1..=24usize {
            for tasklets in [r, 24] {
                let mut runnable = vec![false; tasklets];
                while runnable.iter().filter(|&&on| on).count() < r {
                    runnable[rng(tasklets as u64) as usize] = true;
                }
                let active: Vec<usize> = (0..tasklets).filter(|&t| runnable[t]).collect();
                let mut a = Pipeline::new(tasklets);
                let (mut batched, mut bounded, mut idle_rounds) = (0, 0, 0);
                // Batches on a verified orbit, those of them a stalled
                // non-member bounded, and all batches after the storm.
                let (mut orbits, mut bounded_orbits, mut resumed) = (0, 0, 0);
                for step in 0..1500 {
                    let closed = schedule(&a, &active);
                    let on_orbit = closed.is_none();
                    let last = if let Some((order, at, period, horizon)) =
                        closed.or_else(|| orbit(&a, &active))
                    {
                        if on_orbit {
                            assert!(period >= (order.len() as u64).max(a.stages()));
                            orbits += 1;
                            bounded_orbits += usize::from(horizon != u64::MAX);
                        } else {
                            assert_eq!(period, (order.len() as u64).max(a.stages()));
                        }
                        resumed += usize::from(step >= 800);
                        let holds = Pipeline::periodic_slots_through(&at, period, horizon - 1);
                        assert!(holds >= 1, "the earliest member issues before the horizon");
                        let slots = (1 + rng(3 * r as u64 + 2)).min(holds);
                        let mut b = a.clone();
                        b.advance_periodic(&order, &at, period, slots);
                        let mut last = 0;
                        for m in 0..slots as usize {
                            last = a.pick(&runnable).unwrap();
                            assert_eq!(last, order[m % order.len()], "r={r} pick {m}");
                        }
                        assert_eq!(a, b, "r={r} tasklets={tasklets} slots={slots}");
                        batched += 1;
                        bounded += usize::from(horizon != u64::MAX);
                        idle_rounds += usize::from(order.len() > 1 && period > order.len() as u64);
                        last
                    } else {
                        a.pick(&runnable).unwrap()
                    };
                    // Calm, a storm of stalls, calm again. (More tasklets
                    // than stages come out of the storm in a permuted
                    // rotation that hangs on tie-breaks for good: neither
                    // closed form fits it, only a verified orbit.)
                    if (300..800).contains(&step) && rng(4) == 0 {
                        a.stall(last, 12 + rng(70));
                    }
                }
                assert!(batched > 300, "r={r} tasklets={tasklets}: only {batched} batches");
                assert!(
                    resumed >= 650,
                    "r={r} tasklets={tasklets}: {resumed} batches after the storm"
                );
                if r > 11 {
                    assert!(orbits > 100, "r={r}: {orbits} batches on a verified orbit");
                    assert!(bounded_orbits > 100, "r={r}: no orbit bounded by a stalled tasklet");
                }
                if (2..=11).contains(&r) {
                    assert!(bounded > 50, "r={r}: no batch was bounded by a stalled tasklet");
                }
                if (2..11).contains(&r) {
                    assert!(idle_rounds > 50, "r={r}: {idle_rounds} under-saturated batches");
                }
            }
        }
    }

    #[test]
    fn periodic_slots_through_counts_issue_times() {
        // Against the definition: slot m issues at at[m % r] + m / r * period.
        for (at, period) in [
            (vec![7u64], 11u64),
            (vec![3, 4, 9], 11),
            (vec![20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30], 11),
            ((100..116).collect(), 16),
            (vec![5, 90], 100),
        ] {
            let r = at.len() as u64;
            for limit in 0..at[0] + 5 * period {
                let direct =
                    (0..).take_while(|m| at[(m % r) as usize] + m / r * period <= limit).count();
                assert_eq!(
                    Pipeline::periodic_slots_through(&at, period, limit),
                    direct as u64,
                    "at={at:?} period={period} limit={limit}"
                );
            }
            // Far from the limit: a safe underestimate, never zero.
            let far = Pipeline::periodic_slots_through(&at, period, u64::MAX);
            assert!(far > 1 << 40 && far <= (u64::MAX / period + 1).saturating_mul(r));
        }
    }

    #[test]
    fn long_whole_round_rotations_match_repeated_picks() {
        // Lockstep block replay and chunks flush thousands of whole rounds
        // through a single `advance_periodic` call; the state must stay
        // bit-identical to the equivalent pick-by-pick schedule.
        let tasklets = 11usize;
        let runnable = vec![true; tasklets];
        let mut a = Pipeline::new(tasklets);
        let mut b = Pipeline::new(tasklets);
        let active: Vec<usize> = (0..tasklets).collect();
        let (order, at, period, _) = schedule(&b, &active).expect("saturated from the start");
        let slots = 4096 * tasklets as u64;
        for _ in 0..slots {
            a.pick(&runnable).unwrap();
        }
        b.advance_periodic(&order, &at, period, slots);
        assert_eq!(a, b);
        assert_eq!(b.issued(), slots);
        assert_eq!(b.idle_cycles(), 0);
    }

    #[test]
    fn exact_fit_permuted_rotation_is_found_and_matches_repeated_picks() {
        // Eleven tasklets on eleven stages, knocked out of round-robin
        // order by DMA-like stalls: once the collisions settle, every
        // tasklet issues exactly `stages` cycles after its last issue, in
        // a fixed permutation, with no idle slot — and no slack that would
        // ever let the order drift back to round-robin. The probe finds it
        // as the under-saturated form with r == stages.
        let tasklets = 11usize;
        let runnable = vec![true; tasklets];
        let active: Vec<usize> = (0..tasklets).collect();
        let mut a = Pipeline::new(tasklets);
        for (t, stall) in [(3usize, 40u64), (7, 23), (0, 57), (9, 31)] {
            for _ in 0..tasklets {
                a.pick(&runnable).unwrap();
            }
            a.stall(t, stall);
        }
        for _ in 0..20 * tasklets {
            a.pick(&runnable).unwrap();
        }
        let idle = a.idle_cycles();
        for slots in [1u64, 5, 11, 40, 1_000] {
            let (order, at, period, horizon) = schedule(&a, &active).expect("exact fit");
            assert_eq!((period, horizon), (11, u64::MAX));
            let base = a.current_cycle();
            assert!(at.iter().copied().eq(base..base + 11), "one tasklet ready per cycle");
            let cursor = a.rr_cursor;
            let round_robin: Vec<usize> = (cursor..tasklets).chain(0..cursor).collect();
            assert_ne!(order, round_robin, "the stalls must have permuted the issue order");
            let mut b = a.clone();
            b.advance_periodic(&order, &at, period, slots);
            for _ in 0..slots {
                a.pick(&runnable).unwrap();
            }
            assert_eq!(a, b, "slots={slots}");
        }
        assert_eq!(a.idle_cycles(), idle);
    }

    /// Twelve tasklets at cycle 100 with the cursor on tasklet 0 and the
    /// given ready times.
    fn twelve_at_cycle_100(next_ready: [u64; 12]) -> Pipeline {
        let mut p = Pipeline::new(12);
        p.next_ready = next_ready.to_vec();
        p.cycle = 100;
        p
    }

    #[test]
    fn orbit_probe_accepts_a_repeating_round_and_rejects_a_transient_one() {
        let active: Vec<usize> = (0..12).collect();
        let runnable = vec![true; 12];

        // Tasklet 0 is three cycles late for its round-robin slot: it
        // issues after tasklet 11 instead, and from then on the rotation is
        // 1, 2, … 11, 0 with period 12. No closed form reads that off.
        let mut a = twelve_at_cycle_100([103, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(schedule(&a, &active), None);
        let (order, at, period, horizon) = orbit(&a, &active).expect("a permuted rotation");
        assert_eq!(order, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0]);
        assert!(at.iter().copied().eq(100..112));
        assert_eq!((period, horizon), (12, u64::MAX));
        let mut b = a.clone();
        b.advance_periodic(&order, &at, period, 5 * 12 + 7);
        for m in 0..5 * 12 + 7 {
            assert_eq!(a.pick(&runnable), Some(order[m % 12]));
        }
        assert_eq!(a, b);

        // Five tasklets due, seven arriving from cycle 107 on: round one
        // issues all twelve once, but with two idle cycles (105, 106) that
        // round two does not have, so round two is *not* round one shifted
        // and nothing may be batched yet.
        let mut a = twelve_at_cycle_100([0, 0, 0, 0, 0, 107, 108, 109, 110, 111, 112, 113]);
        assert_eq!(schedule(&a, &active), None);
        assert_eq!(orbit(&a, &active), None);
        let round = |p: &mut Pipeline| -> Vec<(usize, u64)> {
            (0..12).map(|_| (p.pick(&runnable).unwrap(), p.last_issue)).collect()
        };
        let (one, two) = (round(&mut a), round(&mut a));
        assert!(one.iter().map(|&(t, _)| t).eq(0..12) && two.iter().map(|&(t, _)| t).eq(0..12));
        assert_eq!((one[0].1, one[5].1, two[0].1, two[5].1), (100, 107, 114, 119));
        // The idle cycles are gone for good: plain round-robin from here.
        assert!(schedule(&a, &active).is_some());
    }

    #[test]
    fn next_issue_at_clamps_to_current_cycle() {
        let mut p = Pipeline::new(2);
        assert_eq!(p.next_issue_at(0), 0);
        p.pick(&[true, true]).unwrap(); // t0 issues at 0
        assert_eq!(p.next_ready_of(0), 11);
        assert_eq!(p.current_cycle(), 1);
        assert_eq!(p.next_issue_at(0), 11);
        assert_eq!(p.next_issue_at(1), 1, "ready in the past clamps to now");
    }

    #[test]
    fn per_tasklet_issue_counts_sum_to_total() {
        let mut p = Pipeline::new(3);
        let mut runnable = vec![true; 3];
        for _ in 0..7 {
            p.pick(&runnable).unwrap();
        }
        runnable[1] = false;
        for _ in 0..4 {
            p.pick(&runnable).unwrap();
        }
        let per = p.issued_per_tasklet();
        assert_eq!(per.iter().sum::<u64>(), p.issued());
        // Round-robin over [0,1,2] for 7 picks gives t1 two issues; it is
        // then disabled and must not advance further.
        assert_eq!(per[1], 2);
    }
}

#[cfg(test)]
mod fairness_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The round-robin dispatcher is fair: over N picks with all
        /// tasklets always runnable, per-tasklet issue counts differ by at
        /// most one.
        #[test]
        fn round_robin_is_fair(tasklets in 1usize..24, rounds in 1u64..50) {
            let mut p = Pipeline::new(tasklets);
            let runnable = vec![true; tasklets];
            let mut counts = vec![0u64; tasklets];
            for _ in 0..rounds * tasklets as u64 {
                let t = p.pick(&runnable).unwrap();
                counts[t] += 1;
            }
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            prop_assert!(max - min <= 1, "counts {counts:?}");
        }

        /// Elapsed time is never less than either the issue bound or the
        /// single-tasklet rotation bound.
        #[test]
        fn elapsed_respects_both_bounds(
            tasklets in 1usize..24,
            per in 1u64..200,
        ) {
            let mut p = Pipeline::new(tasklets);
            let mut remaining = vec![per; tasklets];
            let mut runnable = vec![true; tasklets];
            while runnable.iter().any(|&r| r) {
                let t = p.pick(&runnable).unwrap();
                remaining[t] -= 1;
                if remaining[t] == 0 {
                    runnable[t] = false;
                }
            }
            let total = per * tasklets as u64;
            prop_assert!(p.elapsed() >= total);
            prop_assert!(p.elapsed() >= per * 11);
            // And it is tight: within one rotation of the max bound.
            prop_assert!(p.elapsed() <= total.max(per * 11) + 11);
        }
    }
}
