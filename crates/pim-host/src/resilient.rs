//! Fault-tolerant launch: bounded retry, quarantine, and graceful
//! degradation.
//!
//! Real UPMEM hosts survive partial failures — the SDK masks faulty ranks
//! out and reissues their work. This module brings that posture to the
//! simulated host: a launch with a [`crate::LaunchSpec::policy`] (such as
//! [`crate::DpuSet::launch_loaded_resilient`]) runs the program under a
//! [`ResilientLaunchPolicy`] and returns a structured [`LaunchReport`]
//! instead of aborting on the first fault:
//!
//! 1. **Retry** — each DPU gets up to `1 + max_retries` attempts. Before a
//!    retry its MRAM is restored from a pre-launch snapshot (taken only
//!    when the policy can actually inject faults, so the fault-free path
//!    stays bit-identical to a launch without a policy). Snapshots are
//!    copy-on-write page-table clones ([`dpu_sim::CowMemory::snapshot`]):
//!    O(resident pages) to take and O(dirty pages) to restore, instead of
//!    deep-copying 64 MiB. `backoff_cycles` is charged per retry to the
//!    DPU's accounted latency.
//! 2. **Watchdog** — every attempt runs under `watchdog_budget` cycles, so
//!    a wedged kernel surfaces as `CycleBudgetExceeded` instead of running
//!    to the simulator's default 50 G-cycle budget.
//! 3. **Quarantine** — a DPU that exhausts its attempts is quarantined and
//!    reported; its machine is left as the failed run left it.
//! 4. **Graceful degradation** — quarantined DPUs' work is re-dispatched
//!    across survivors: the victim's pre-launch MRAM image runs on a
//!    surviving DPU (whose own MRAM is saved and restored around the
//!    favor), and the results are copied back into the victim's MRAM so
//!    the caller's normal gather paths see them in place.
//!
//! Every injected fault is listed in its DPU's [`Incident::faults`],
//! counted in [`LaunchReport::resilient_metrics`] and — on a traced launch —
//! materialized as a [`pim_trace::TraceEvent::FaultInjected`] event in the
//! owning DPU's trace buffer.
//!
//! A launch without a policy is the same machinery at its zero point
//! (`PLAIN`): one attempt, nothing armed, nothing snapshotted, nothing
//! moved. There is no second launch path.
//!
//! Determinism: fault draws are pure functions of `(seed, dpu, attempt)`
//! (see [`dpu_sim::faults`]), the retry loop runs per-DPU, and the
//! re-dispatch pass is a sequential round-robin over survivors in DPU
//! order — so the same seed yields the same [`LaunchReport`] whether the
//! host simulates DPUs sequentially or work-steals them across threads.

use crate::error::{HostError, Result};
use crate::launch::{dispatch, panic_detail, StealStats};
use dpu_sim::faults::{FaultPlan, InjectedFault};
use dpu_sim::machine::DEFAULT_CYCLE_BUDGET;
use dpu_sim::{
    DpuId, Engine, Machine, MemorySnapshot, Observe, PimSystem, Profiler, RunResult, RunSpec,
    ScrubReport,
};
use pim_trace::{TraceBuffer, TraceEvent, TraceSink};
use std::sync::{Arc, OnceLock};

/// Policy governing a fault-tolerant launch.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientLaunchPolicy {
    /// Additional attempts after the first failure (0 = no retry).
    pub max_retries: u32,
    /// Cycles charged per retry to the DPU's accounted completion time —
    /// the simulated cost of fault detection plus relaunch.
    pub backoff_cycles: u64,
    /// Per-attempt cycle budget (the watchdog). Defaults to the
    /// simulator's [`dpu_sim::machine::DEFAULT_CYCLE_BUDGET`], so a
    /// fault-free resilient launch is bit-identical to a plain one.
    pub watchdog_budget: u64,
    /// Whether quarantined DPUs' work is re-dispatched across survivors.
    pub redispatch: bool,
    /// Faults to inject, if any. `None` (or a zero plan) keeps the launch
    /// observationally identical to [`crate::DpuSet::launch_loaded`].
    pub faults: Option<FaultPlan>,
    /// Back off exponentially instead of linearly: retry `k` (1-based)
    /// charges `backoff_cycles << (k - 1)` instead of `backoff_cycles`.
    /// The chaos campaigns use this to model congestion-aware relaunch.
    pub exponential_backoff: bool,
}

impl Default for ResilientLaunchPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_cycles: 0,
            watchdog_budget: DEFAULT_CYCLE_BUDGET,
            redispatch: true,
            faults: None,
            exponential_backoff: false,
        }
    }
}

/// What a launch without a policy runs under: one attempt per DPU under
/// the simulator's default budget, nothing injected, nothing re-dispatched
/// — so a faulting DPU is simply reported unserved.
pub(crate) static PLAIN: ResilientLaunchPolicy = ResilientLaunchPolicy {
    max_retries: 0,
    backoff_cycles: 0,
    watchdog_budget: DEFAULT_CYCLE_BUDGET,
    redispatch: false,
    faults: None,
    exponential_backoff: false,
};

impl ResilientLaunchPolicy {
    /// The default policy with a fault plan attached.
    #[must_use]
    pub fn with_faults(plan: FaultPlan) -> Self {
        Self { faults: Some(plan), ..Self::default() }
    }

    /// Total backoff cycles charged after `retries` retries: linear
    /// (`retries * backoff_cycles`) by default, geometric
    /// (`backoff_cycles * (2^retries - 1)`) under
    /// [`ResilientLaunchPolicy::exponential_backoff`].
    #[must_use]
    pub fn cumulative_backoff(&self, retries: u32) -> u64 {
        if self.exponential_backoff {
            crate::link::geometric_backoff(self.backoff_cycles, retries)
        } else {
            u64::from(retries).saturating_mul(self.backoff_cycles)
        }
    }
}

/// How healthy one DPU's serve ultimately was — the classification the
/// serving layer's circuit breaker consumes. The key distinction: a
/// launch whose only incidents were *corrected* (ECC scrub repairs,
/// inline DMA repairs, or successful retries on the home DPU) is
/// **healthy-after-repair**, not degraded — its results are bit-exact
/// and its home DPU still serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeHealth {
    /// Served in place, first attempt, nothing repaired.
    Healthy,
    /// Served in place with repairs (retries consumed and/or ECC
    /// corrections applied); results are verified clean.
    HealthyAfterRepair,
    /// Served by a survivor after the home DPU was quarantined.
    Degraded,
    /// Not served at all.
    Unserved,
}

/// What happened at one DPU whose serve was not a clean first attempt:
/// it retried, had faults injected or its MRAM scrubbed, was served by a
/// survivor, or went unserved. A clean launch has none.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The DPU whose work this is.
    pub dpu: DpuId,
    /// Whether its work produced a result, in place or by a survivor.
    pub served: bool,
    /// Attempts made on the home DPU (>= 1).
    pub attempts: u32,
    /// Total backoff cycles charged before the serving attempt.
    pub backoff_cycles: u64,
    /// `Some(other)` when a surviving DPU served this work after the home
    /// DPU was quarantined; `None` when the home DPU served it.
    pub served_by: Option<DpuId>,
    /// The last failure seen on the home DPU, kept for diagnosis even
    /// when a survivor later served the work.
    pub last_error: Option<HostError>,
    /// Every fault injected across this DPU's attempts, in order.
    pub faults: Vec<InjectedFault>,
    /// Merged ECC scrub results across this DPU's attempts (empty when
    /// ECC is off or no fault plan was armed).
    pub scrub: ScrubReport,
    /// MRAM words repaired inline by DMA verify-on-read during this
    /// DPU's attempts.
    pub dma_corrected: u64,
}

impl Incident {
    /// Retries consumed on the home DPU (attempts beyond the first).
    #[must_use]
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }

    /// Total single-bit errors repaired for this DPU (scrub + inline
    /// DMA corrections).
    #[must_use]
    pub fn repairs(&self) -> u64 {
        self.scrub.corrected() + self.dma_corrected
    }

    /// Whether the home DPU exhausted its attempts without a result (its
    /// work then went to a survivor or unserved).
    #[must_use]
    pub fn quarantined(&self) -> bool {
        !self.served || self.served_by.is_some()
    }

    /// Health classification of this serve (see [`ServeHealth`]).
    #[must_use]
    pub fn health(&self) -> ServeHealth {
        if !self.served {
            ServeHealth::Unserved
        } else if self.served_by.is_some() {
            ServeHealth::Degraded
        } else if self.retries() > 0 || self.repairs() > 0 {
            ServeHealth::HealthyAfterRepair
        } else {
            ServeHealth::Healthy
        }
    }
}

/// What one launch did to the items staged on its DPUs (see
/// [`LaunchReport::items`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemOutcome {
    /// Per item, in staging order: whether its DPU's work was served, in
    /// place or by a survivor.
    pub served: Vec<bool>,
    /// Staging-order indices of the items whose home DPU was quarantined
    /// and whose work a survivor re-ran, in quarantine order.
    pub redispatched: Vec<usize>,
}

/// The result of one launch: each DPU's run result in DPU order, plus an
/// incident for every DPU whose serve was not a clean first attempt.
/// Returned `Ok` by [`crate::DpuSet::launch_with`] even when some work
/// could not be served — graceful degradation is the point; check
/// [`LaunchReport::fully_served`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchReport {
    /// Per-DPU run results, in DPU order, each taken from whichever DPU
    /// ran the work; [`RunResult::default`] for work that went unserved.
    /// Shared, not copied: the DPUs a recording replays all hold that
    /// recording's one result (see [`Machine::execute`]).
    pub per_dpu: Vec<Arc<RunResult>>,
    /// Tasklets the program ran with.
    pub tasklets: usize,
    /// Per-DPU incidents, ascending by DPU; empty on a clean launch.
    pub incidents: Vec<Incident>,
}

impl LaunchReport {
    /// DPU `dpu`'s incident, if its serve had one.
    #[must_use]
    pub fn incident(&self, dpu: usize) -> Option<&Incident> {
        let at = self.incidents.binary_search_by_key(&dpu, |i| i.dpu.0 as usize).ok()?;
        Some(&self.incidents[at])
    }

    /// Whether every DPU's work produced a result (in place or via
    /// re-dispatch).
    #[must_use]
    pub fn fully_served(&self) -> bool {
        self.incidents.iter().all(|i| i.served)
    }

    /// This report when every DPU's work was served.
    ///
    /// # Errors
    /// The error of the first DPU (in DPU order) whose work was not
    /// served.
    pub fn served(mut self) -> Result<Self> {
        let Some(at) = self.incidents.iter().position(|i| !i.served) else { return Ok(self) };
        Err(self.incidents.swap_remove(at).last_error.expect("an unserved DPU carries its error"))
    }

    /// DPUs quarantined after exhausting their attempts, ascending.
    #[must_use]
    pub fn quarantined(&self) -> Vec<DpuId> {
        self.incidents.iter().filter(|i| i.quarantined()).map(|i| i.dpu).collect()
    }

    /// Incidents of the DPUs whose work a survivor re-ran, in quarantine
    /// order; the favor's cycles are `per_dpu[dpu].cycles`.
    pub fn degraded(&self) -> impl Iterator<Item = &Incident> {
        self.incidents.iter().filter(|i| i.served_by.is_some())
    }

    /// Total retries consumed across the set.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.incidents.iter().map(|i| u64::from(i.retries())).sum()
    }

    /// Total faults injected across the set.
    #[must_use]
    pub fn faults_injected(&self) -> usize {
        self.incidents.iter().map(|i| i.faults.len()).sum()
    }

    /// Total single-bit errors repaired across the set (ECC scrub plus
    /// inline DMA corrections).
    #[must_use]
    pub fn repairs(&self) -> u64 {
        self.incidents.iter().map(Incident::repairs).sum()
    }

    /// Health classification of DPU `dpu`'s serve.
    #[must_use]
    pub fn health(&self, dpu: usize) -> ServeHealth {
        self.incident(dpu).map_or(ServeHealth::Healthy, Incident::health)
    }

    /// DPUs whose serve classified as a given health state.
    #[must_use]
    pub fn count_health(&self, health: ServeHealth) -> usize {
        (0..self.per_dpu.len()).filter(|&d| self.health(d) == health).count()
    }

    /// Completion time of the launch under this crate's accounting model:
    /// the in-place wave completes at the slowest DPU's `cycles +
    /// backoff`, then re-dispatched favors run on survivors one after
    /// another (they reuse busy hardware, so they serialize onto the end
    /// of the wave).
    #[must_use]
    pub fn makespan_cycles(&self) -> u64 {
        let (mut wave, mut favors) = (0, 0);
        for (d, r) in self.per_dpu.iter().enumerate() {
            match self.incident(d) {
                None => wave = wave.max(r.cycles),
                Some(i) if !i.served => {}
                Some(i) if i.served_by.is_some() => favors += r.cycles,
                Some(i) => wave = wave.max(r.cycles + i.backoff_cycles),
            }
        }
        wave + favors
    }

    /// Completion time in seconds for the given device parameters.
    #[must_use]
    pub fn makespan_seconds(&self, params: &dpu_sim::DpuParams) -> f64 {
        params.cycles_to_seconds(self.makespan_cycles())
    }

    /// Total instructions issued across all DPUs.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.per_dpu.iter().map(|r| r.instructions).sum()
    }

    /// Merged subroutine profile of all DPUs.
    #[must_use]
    pub fn merged_profile(&self) -> Profiler {
        let mut p = Profiler::new();
        for r in &self.per_dpu {
            p.merge(&r.profile);
        }
        p
    }

    /// Map this launch onto staged work items: DPU `d` held `chunks[d]`
    /// consecutive items in staging order (DPUs past `chunks` held none).
    /// The one place a model engine or the serving loop learns which
    /// items were served and which a survivor re-ran.
    #[must_use]
    pub fn items(&self, chunks: &[usize]) -> ItemOutcome {
        let mut served = Vec::with_capacity(chunks.iter().sum());
        let mut redispatched = Vec::new();
        for (d, &len) in chunks.iter().enumerate() {
            let (start, incident) = (served.len(), self.incident(d));
            served.resize(start + len, incident.is_none_or(|i| i.served));
            if incident.is_some_and(|i| i.served_by.is_some()) {
                redispatched.extend(start..start + len);
            }
        }
        ItemOutcome { served, redispatched }
    }
}

/// Everything one launch's attempts share.
struct Wave<'a, F> {
    /// Runs the program on one DPU.
    run: F,
    tasklets: usize,
    engine: Engine,
    policy: &'a ResilientLaunchPolicy,
    /// The policy's fault plan, unless it injects nothing.
    plan: Option<&'a FaultPlan>,
    /// Each DPU's pre-launch MRAM image (a COW page-table clone, not a
    /// deep copy), for retries and the re-dispatch pass. One slot per DPU
    /// when faults can fire, none otherwise.
    snapshots: Vec<OnceLock<MemorySnapshot>>,
}

impl<F> Wave<'_, F>
where
    F: Fn(&mut Machine, RunSpec<'_>) -> dpu_sim::Result<Arc<RunResult>> + Sync,
{
    /// Run one attempt on `dpu`, traced into `buf` when there is one,
    /// arming the faults `armed` draws for it and appending whatever fired
    /// to `faults` (and, as events, to `buf`). The one place a simulation
    /// is started and its panic, if any, caught.
    fn attempt(
        &self,
        dpu: &mut Machine,
        mut buf: Option<&mut TraceBuffer>,
        armed: Option<(&FaultPlan, u32)>,
        attempt: u32,
        faults: &mut Vec<InjectedFault>,
    ) -> Result<Arc<RunResult>> {
        if let Some((plan, index)) = armed {
            dpu.arm_faults(plan.attempt(index, attempt));
        }
        let spec = RunSpec {
            budget: self.policy.watchdog_budget,
            engine: Some(self.engine),
            observe: match buf.as_deref_mut() {
                Some(buf) => Observe::Trace(buf),
                None => Observe::Off,
            },
            ..RunSpec::new(self.tasklets)
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.run)(dpu, spec)));
        if let Some(log) = dpu.disarm_faults() {
            for f in log.injected() {
                faults.push(*f);
                if let Some(buf) = buf.as_deref_mut() {
                    buf.record(TraceEvent::FaultInjected {
                        kind: f.kind.label(),
                        addr: f.kind.addr(),
                        cycle: f.cycle,
                        attempt,
                    });
                }
            }
        }
        match run {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(e)) => Err(HostError::Dpu(e)),
            Err(payload) => Err(HostError::WorkerPanic { detail: panic_detail(payload.as_ref()) }),
        }
    }

    /// The per-DPU job of every launch: snapshot (when faults can fire),
    /// attempt up to `1 + max_retries` runs restoring inputs between
    /// attempts, and charge backoff per retry. The result is `None` when
    /// no attempt served the work; the incident is `None` on a clean first
    /// attempt.
    fn serve_one(
        &self,
        index: usize,
        dpu: &mut Machine,
        mut buf: Option<&mut TraceBuffer>,
    ) -> (Option<Arc<RunResult>>, Option<Incident>) {
        let policy = self.policy;
        let snapshot =
            self.snapshots.get(index).map(|slot| slot.get_or_init(|| dpu.mram.snapshot()));
        // Scrub only fault-armed ECC launches: the clean ECC-on path stays
        // scrub-free so its cost is the write-path encode alone (bench-gated
        // ≤ 2% over ECC-off).
        let scrub_armed = self.plan.is_some() && dpu.mram.ecc_enabled();
        let dma_base = dpu.integrity.dma_corrected;
        let mut incident = Incident {
            dpu: DpuId(index as u32),
            served: false,
            attempts: policy.max_retries + 1,
            backoff_cycles: policy.cumulative_backoff(policy.max_retries),
            served_by: None,
            last_error: None,
            faults: Vec::new(),
            scrub: ScrubReport::default(),
            dma_corrected: 0,
        };
        let mut result = None;
        let armed = self.plan.map(|plan| (plan, index as u32));
        for attempt in 0..=policy.max_retries {
            if attempt > 0 {
                if let Some(s) = snapshot {
                    dpu.mram.restore(s).expect("snapshot restores");
                }
            }
            match self.attempt(dpu, buf.as_deref_mut(), armed, attempt, &mut incident.faults) {
                Ok(r) => {
                    if scrub_armed {
                        // Between-launch scrub: repair single-bit storage
                        // errors the attempt left behind (MRAM write-side
                        // flips land *after* the sidecar was refreshed, so
                        // the scrub sees and fixes them) without consuming a
                        // retry. A multi-bit word is beyond SEC-DED: the
                        // attempt's output cannot be trusted, so it fails and
                        // the next attempt restores from the snapshot.
                        let rep = dpu.mram.scrub();
                        let bad = rep.uncorrectable.first().copied();
                        incident.scrub.merge(&rep);
                        if let Some(addr) = bad {
                            incident.last_error =
                                Some(HostError::Dpu(dpu_sim::Error::EccUncorrectable { addr }));
                            continue;
                        }
                    }
                    result = Some(r);
                    incident.served = true;
                    incident.attempts = attempt + 1;
                    incident.backoff_cycles = policy.cumulative_backoff(attempt);
                    incident.last_error = None;
                    break;
                }
                Err(e) => incident.last_error = Some(e),
            }
        }
        incident.dma_corrected = dpu.integrity.dma_corrected - dma_base;
        let clean = incident.served
            && incident.attempts == 1
            && incident.faults.is_empty()
            && incident.scrub == ScrubReport::default()
            && incident.dma_corrected == 0;
        (result, (!clean).then_some(incident))
    }
}

/// The launch core: `run` the program on every DPU of `system` under
/// `policy` ([`PLAIN`] when `None`) and collect the report — plus, when
/// `trace` is set, one trace buffer per DPU in DPU order (none otherwise)
/// and, when the set reached `threshold` DPUs and the wave forked, how it
/// spread the DPUs over the workers.
///
/// `engine` pins the execution tier for every DPU; `None` resolves the
/// ambient [`Engine::effective`] selection **once** here, so all DPUs of
/// one launch run the same tier even if the environment changes
/// mid-launch. `run` is a parameter so tests can make a DPU's simulation
/// fault or panic.
pub(crate) fn launch_core<F>(
    system: &mut PimSystem,
    tasklets: usize,
    trace: bool,
    engine: Option<Engine>,
    policy: Option<&ResilientLaunchPolicy>,
    threshold: usize,
    run: F,
) -> (LaunchReport, Vec<TraceBuffer>, Option<StealStats>)
where
    F: Fn(&mut Machine, RunSpec<'_>) -> dpu_sim::Result<Arc<RunResult>> + Sync,
{
    let policy = policy.unwrap_or(&PLAIN);
    let n = system.len();
    // A zero plan injects nothing: drop it so the wave skips snapshots
    // and arming entirely and stays bit-identical to the plain launch.
    let plan = policy.faults.as_ref().filter(|p| !p.is_zero());
    let mut wave = Wave {
        run,
        tasklets,
        engine: engine.unwrap_or_else(Engine::effective),
        policy,
        plan,
        snapshots: plan.map_or_else(Vec::new, |_| (0..n).map(|_| OnceLock::new()).collect()),
    };
    let mut buffers = if trace { vec![TraceBuffer::new(); n] } else { Vec::new() };
    let (outcomes, steal) =
        dispatch(system, threshold, &mut buffers, |i, dpu, buf| wave.serve_one(i, dpu, buf));
    let mut incidents = Vec::new();
    let mut per_dpu: Vec<Option<Arc<RunResult>>> = outcomes
        .into_iter()
        .map(|(result, incident)| {
            incidents.extend(incident);
            result
        })
        .collect();

    // Graceful degradation: move each quarantined DPU's inputs onto a
    // survivor, run clean (no injection — the victim's faults were its
    // own), and copy the outputs back into the victim's MRAM so the
    // caller's gather paths find them in place. Sequential and in DPU
    // order, so the report is scheduling-independent.
    let victims: Vec<usize> = (0..incidents.len()).filter(|&k| !incidents[k].served).collect();
    if policy.redispatch && !victims.is_empty() {
        let mut live = vec![true; n];
        for &k in &victims {
            live[incidents[k].dpu.0 as usize] = false;
        }
        let survivors: Vec<usize> = (0..n).filter(|&d| live[d]).collect();
        for (rr, &k) in victims.iter().enumerate() {
            if survivors.is_empty() {
                break;
            }
            let q = incidents[k].dpu;
            let qi = q.0 as usize;
            let to = DpuId(survivors[rr % survivors.len()] as u32);
            // The victim's pre-launch image: its snapshot when faults were
            // armed, else its current MRAM (a natural fault left inputs
            // untouched up to the failure point — best effort). Whole-MRAM
            // COW snapshots: cloning a page table, not 64 MiB.
            let image = match wave.snapshots.get_mut(qi).and_then(OnceLock::take) {
                Some(s) => s,
                None => system.dpu(q).mram.snapshot(),
            };
            let host = system.dpu_mut(to);
            let saved = host.mram.snapshot();
            host.mram.restore(&image).expect("image fits");
            let outcome = wave.attempt(host, buffers.get_mut(qi), None, 0, &mut Vec::new());
            let result_image = host.mram.snapshot();
            host.mram.restore(&saved).expect("restore fits");
            let victim = &mut incidents[k];
            match outcome {
                Ok(r) => {
                    system.dpu_mut(q).mram.restore(&result_image).expect("result image fits");
                    per_dpu[qi] = Some(r);
                    victim.served = true;
                    victim.served_by = Some(to);
                }
                // The survivor could not serve it either (deterministic
                // program fault); record and move on.
                Err(e) => victim.last_error = Some(e),
            }
        }
    }

    // Work nobody served reports the default result, built once.
    let unserved = Arc::new(RunResult::default());
    let per_dpu = per_dpu.into_iter().map(|r| r.unwrap_or_else(|| Arc::clone(&unserved))).collect();
    (LaunchReport { per_dpu, tasklets, incidents }, buffers, steal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpuSet, LaunchSpec};
    use dpu_sim::asm::assemble;
    use dpu_sim::faults::FaultConfig;
    use dpu_sim::Program;

    /// Read the scalar at MRAM offset 0, double it, write it back.
    fn double_program() -> Program {
        assemble(
            "movi r1, 0\n\
             movi r2, 0\n\
             movi r3, 8\n\
             mram.read r1, r2, r3\n\
             lw r4, r1, 0\n\
             add r4, r4, r4\n\
             sw r1, 0, r4\n\
             mram.write r1, r2, r3\n\
             halt\n",
        )
        .unwrap()
    }

    fn seeded_set(n: usize) -> DpuSet {
        let mut set = DpuSet::allocate(n).unwrap();
        set.define_symbol("x", 8).unwrap();
        for i in 0..n {
            set.copy_to_dpu(DpuId(i as u32), "x", 0, &(i as u64 + 1).to_le_bytes()).unwrap();
        }
        set.load(&double_program()).unwrap();
        set
    }

    #[test]
    fn forced_offline_dpu_is_quarantined_and_served_by_a_survivor() {
        let mut set = seeded_set(5);
        let plan = FaultPlan::new(FaultConfig { forced_offline: vec![2], ..Default::default() });
        let policy =
            ResilientLaunchPolicy { max_retries: 1, ..ResilientLaunchPolicy::with_faults(plan) };
        let report = set.launch_loaded_resilient(1, &policy).unwrap();
        assert_eq!(report.quarantined(), vec![DpuId(2)]);
        assert!(report.fully_served(), "survivor must serve the quarantined work");
        let [victim] = &report.incidents[..] else { panic!("{report:?}") };
        assert_eq!((victim.dpu, report.degraded().count()), (DpuId(2), 1));
        assert!(victim.served_by.is_some_and(|to| to != DpuId(2)));
        assert_eq!(report.health(2), ServeHealth::Degraded);
        assert_eq!(victim.attempts, 2, "exhausted its retries first");
        assert!(matches!(
            victim.last_error,
            None | Some(HostError::Dpu(dpu_sim::Error::DpuOffline))
        ));
        // The re-dispatched result landed in DPU 2's MRAM: gather works.
        for i in 0..5u32 {
            assert_eq!(set.copy_scalar_from(DpuId(i), "x").unwrap(), u64::from(i + 1) * 2);
        }
        // Offline faults logged once per attempt.
        assert_eq!(victim.faults.len(), 2);
        let m = report.resilient_metrics();
        assert_eq!(m.counter("resilient.quarantined"), 1);
        assert_eq!(m.counter("resilient.redispatched"), 1);
        assert_eq!(m.counter("faults.dpu_offline"), 2);
    }

    #[test]
    fn transient_dma_faults_are_retried_with_backoff_accounting() {
        // A per-transfer fail rate low enough that some attempt succeeds
        // within the generous retry budget, on every DPU.
        let mut set = seeded_set(4);
        let plan =
            FaultPlan::new(FaultConfig { seed: 77, dma_fail_prob: 0.4, ..Default::default() });
        let policy = ResilientLaunchPolicy {
            max_retries: 8,
            backoff_cycles: 1_000,
            ..ResilientLaunchPolicy::with_faults(plan)
        };
        let report = set.launch_loaded_resilient(1, &policy).unwrap();
        assert!(report.fully_served());
        assert!(report.retries() > 0, "seed 77 at 0.4 must fail at least one transfer");
        for r in &report.incidents {
            assert_eq!(r.backoff_cycles, u64::from(r.retries()) * 1_000, "{r:?}");
            // Each failed attempt logged exactly one DMA fail.
            assert_eq!(r.faults.len(), r.retries() as usize, "{r:?}");
        }
        // Inputs were restored between attempts: results are correct.
        for i in 0..4u32 {
            assert_eq!(set.copy_scalar_from(DpuId(i), "x").unwrap(), u64::from(i + 1) * 2);
        }
    }

    #[test]
    fn all_dpus_offline_degrades_gracefully_to_unserved() {
        let mut set = seeded_set(3);
        let plan =
            FaultPlan::new(FaultConfig { forced_offline: vec![0, 1, 2], ..Default::default() });
        let policy = ResilientLaunchPolicy::with_faults(plan);
        let report = set.launch_loaded_resilient(1, &policy).unwrap();
        assert!(!report.fully_served());
        assert_eq!(report.quarantined().len(), 3);
        assert_eq!(report.degraded().count(), 0, "no survivors to re-dispatch to");
        for r in &report.incidents {
            assert!(matches!(r.last_error, Some(HostError::Dpu(dpu_sim::Error::DpuOffline))));
        }
        assert_eq!(
            report.per_dpu,
            vec![Arc::new(RunResult::default()); 3],
            "unserved work has no result"
        );
        assert!(matches!(report.served(), Err(HostError::Dpu(dpu_sim::Error::DpuOffline))));
    }

    #[test]
    fn natural_faults_quarantine_without_injection() {
        // A program that always divides by zero: every attempt fails on
        // every DPU, no fault plan involved.
        let p = assemble("movi r1, 5\nmovi r2, 0\ncall __divsi3 r3, r1, r2\nhalt\n").unwrap();
        let mut set = DpuSet::allocate(2).unwrap();
        let policy = ResilientLaunchPolicy { max_retries: 1, ..Default::default() };
        let spec = LaunchSpec { policy: Some(&policy), ..LaunchSpec::adhoc(&p, 1) };
        let (report, _) = set.launch_with(spec).unwrap();
        assert!(!report.fully_served());
        assert_eq!(report.quarantined().len(), 2);
        for r in &report.incidents {
            assert_eq!(r.attempts, 2);
            assert!(matches!(
                r.last_error,
                Some(HostError::Dpu(dpu_sim::Error::DivisionByZero { .. }))
            ));
        }
    }

    #[test]
    fn traced_resilient_run_materializes_fault_events() {
        let mut set = seeded_set(4);
        let plan = FaultPlan::new(FaultConfig { forced_offline: vec![1], ..Default::default() });
        let policy =
            ResilientLaunchPolicy { max_retries: 0, ..ResilientLaunchPolicy::with_faults(plan) };
        let spec = LaunchSpec { trace: true, policy: Some(&policy), ..LaunchSpec::loaded(1) };
        let (report, bufs) = set.launch_with(spec).unwrap();
        assert!(report.fully_served());
        let fault_events = bufs[1]
            .count_matching(|e| matches!(e, TraceEvent::FaultInjected { kind: "dpu_offline", .. }));
        assert_eq!(fault_events, 1);
        // The victim's buffer also carries the survivor's serving run.
        let kernels = bufs[1].count_matching(|e| matches!(e, TraceEvent::KernelComplete { .. }));
        assert_eq!(kernels, 1, "re-dispatched run is traced into the victim's buffer");
        for (i, b) in bufs.iter().enumerate() {
            if i != 1 {
                assert_eq!(
                    b.count_matching(|e| matches!(e, TraceEvent::FaultInjected { .. })),
                    0,
                    "DPU {i}"
                );
            }
        }
    }

    #[test]
    fn watchdog_cuts_off_runaway_kernels() {
        let p = assemble("top:\njmp top\n").unwrap();
        let mut set = DpuSet::allocate(2).unwrap();
        let policy =
            ResilientLaunchPolicy { max_retries: 0, watchdog_budget: 10_000, ..Default::default() };
        let spec = LaunchSpec { policy: Some(&policy), ..LaunchSpec::adhoc(&p, 1) };
        let (report, _) = set.launch_with(spec).unwrap();
        assert!(!report.fully_served());
        for r in &report.incidents {
            assert!(matches!(
                r.last_error,
                Some(HostError::Dpu(dpu_sim::Error::CycleBudgetExceeded { budget: 10_000 }))
            ));
        }
    }

    #[test]
    fn worker_panic_is_contained_retried_and_the_set_is_reusable() {
        let mut set = seeded_set(4);
        let exec = dpu_sim::ExecProgram::compile(&double_program()).unwrap();
        // DPU 0's first simulation panics mid-attempt; its retry is clean.
        let panicked = std::sync::atomic::AtomicBool::new(false);
        let policy = ResilientLaunchPolicy::default();
        let (report, _, _) =
            launch_core(set.system_mut(), 1, false, None, Some(&policy), usize::MAX, |dpu, run| {
                let first = dpu.mram.read_u32(0).unwrap() == 1
                    && !panicked.swap(true, std::sync::atomic::Ordering::SeqCst);
                assert!(!first, "injected mid-attempt failure");
                dpu.execute(&exec, run)
            });
        assert!(report.fully_served());
        assert_eq!(report.incidents[0].attempts, 2, "the panicked attempt consumed a retry");
        assert_eq!(report.health(0), ServeHealth::HealthyAfterRepair);
        assert_eq!(report.retries(), 1);
        // The set remains usable for a clean follow-up launch.
        for i in 0..4u32 {
            set.copy_to_dpu(DpuId(i), "x", 0, &(i as u64 + 1).to_le_bytes()).unwrap();
        }
        let clean = set.launch_loaded(1).unwrap();
        assert_eq!(clean.per_dpu.len(), 4);
        for i in 0..4u32 {
            assert_eq!(set.copy_scalar_from(DpuId(i), "x").unwrap(), u64::from(i + 1) * 2);
        }
    }

    #[test]
    fn cumulative_backoff_is_linear_by_default_and_geometric_when_asked() {
        let lin = ResilientLaunchPolicy { backoff_cycles: 100, ..Default::default() };
        assert_eq!(lin.cumulative_backoff(0), 0);
        assert_eq!(lin.cumulative_backoff(3), 300);
        let exp = ResilientLaunchPolicy {
            backoff_cycles: 100,
            exponential_backoff: true,
            ..Default::default()
        };
        assert_eq!(exp.cumulative_backoff(0), 0);
        assert_eq!(exp.cumulative_backoff(1), 100);
        assert_eq!(exp.cumulative_backoff(3), 700);
        assert_eq!(exp.cumulative_backoff(64), u64::MAX, "saturates instead of overflowing");
    }

    #[test]
    fn single_bit_flips_are_repaired_without_consuming_a_retry() {
        let mut clean = seeded_set(4);
        let expected = clean.launch_loaded(1).unwrap();

        let mut set = seeded_set(4);
        set.enable_ecc(true);
        let plan =
            FaultPlan::new(FaultConfig { seed: 5, bit_flip_prob: 0.9, ..Default::default() });
        let policy =
            ResilientLaunchPolicy { max_retries: 2, ..ResilientLaunchPolicy::with_faults(plan) };
        let report = set.launch_loaded_resilient(1, &policy).unwrap();
        assert!(report.fully_served());
        assert!(report.faults_injected() > 0, "seed 5 at 0.9 must flip bits");
        assert_eq!(report.retries(), 0, "single-bit flips are repaired, never retried");
        assert!(report.repairs() > 0, "repairs must be counted: {report:?}");
        // The repaired launch is bit-identical to the fault-free one.
        for i in 0..4u32 {
            assert_eq!(set.copy_scalar_from(DpuId(i), "x").unwrap(), u64::from(i + 1) * 2);
        }
        for r in &report.incidents {
            if !r.faults.is_empty() {
                assert_eq!(r.health(), ServeHealth::HealthyAfterRepair, "{r:?}");
            }
        }
        let m = report.resilient_metrics();
        assert_eq!(m.counter("integrity.scrub_uncorrectable"), 0);
        assert_eq!(
            m.counter("integrity.dma_corrected") + m.counter("integrity.scrub_corrected"),
            report.repairs()
        );
        assert_eq!(report.per_dpu, expected.per_dpu);
    }

    #[test]
    fn double_bit_write_faults_are_uncorrectable_and_fail_the_attempt() {
        let mut set = seeded_set(3);
        set.enable_ecc(true);
        let plan =
            FaultPlan::new(FaultConfig { seed: 9, double_flip_prob: 1.0, ..Default::default() });
        let policy = ResilientLaunchPolicy {
            max_retries: 1,
            redispatch: false,
            ..ResilientLaunchPolicy::with_faults(plan)
        };
        let report = set.launch_loaded_resilient(1, &policy).unwrap();
        assert!(!report.fully_served(), "every attempt's write lands a double flip");
        assert_eq!(report.quarantined().len(), 3);
        for r in &report.incidents {
            assert_eq!(r.attempts, 2, "both attempts consumed");
            assert!(
                matches!(
                    r.last_error,
                    Some(HostError::Dpu(dpu_sim::Error::EccUncorrectable { .. }))
                ),
                "{:?}",
                r.last_error
            );
            assert!(!r.scrub.uncorrectable.is_empty(), "scrub must report the bad word");
            assert_eq!(r.health(), ServeHealth::Unserved);
        }
        assert!(report.resilient_metrics().counter("integrity.scrub_uncorrectable") >= 3);
    }

    #[test]
    fn uncorrectable_faults_retry_from_snapshot_and_recover() {
        let mut set = seeded_set(4);
        set.enable_ecc(true);
        let plan =
            FaultPlan::new(FaultConfig { seed: 21, double_flip_prob: 0.35, ..Default::default() });
        let policy = ResilientLaunchPolicy {
            max_retries: 8,
            backoff_cycles: 100,
            exponential_backoff: true,
            ..ResilientLaunchPolicy::with_faults(plan)
        };
        let report = set.launch_loaded_resilient(1, &policy).unwrap();
        assert!(report.fully_served());
        assert!(report.retries() > 0, "seed 21 at 0.35 must hit at least one uncorrectable");
        for r in &report.incidents {
            assert_eq!(
                r.backoff_cycles,
                policy.cumulative_backoff(r.retries()),
                "{r:?}: geometric backoff accounting"
            );
        }
        // Snapshot restore between attempts keeps inputs exact: results
        // are correct despite the corrupted attempts in between.
        for i in 0..4u32 {
            assert_eq!(set.copy_scalar_from(DpuId(i), "x").unwrap(), u64::from(i + 1) * 2);
        }
    }
}
