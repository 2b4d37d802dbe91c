//! The set layer: one multi-DPU input through every cell of
//! [`DpuSet::launch_with`].
//!
//! A set is staged once with ECC off and once with ECC armed before
//! staging, and each DPU's machine-layer reference is the reference loop
//! run three times on its staged machine. Every cell of form {loaded, ad
//! hoc} × dispatch {sequential, forked} × policy {none, zero-fault,
//! default, default terms with a zero plan} × ECC {off, on} × trace {off,
//! on} then launches a fresh copy of the set three times, so workers share
//! recordings across DPUs and launches (once for the ad hoc form, whose
//! decoded program lives for one launch).
//!
//! The fault-class axis adds the chaos campaign's scenarios
//! ([`pim_bench::chaos::SCENARIOS`], under the campaign's retry terms) as
//! policies: `mixed` over that whole grid, every other scenario loaded and
//! untraced, over dispatch × ECC, launched once (a plan draws the same
//! faults at every launch).
//!
//! Without a policy and under a zero-fault one — and under any zero plan
//! on an input whose every DPU is served within the watchdog — every
//! launch reports the same [`LaunchReport`] (the whole report, not just
//! its results) and leaves every DPU as its reference left it; default
//! terms that retry, and each armed scenario, agree with their own kind in
//! report, trace buffers and memory. Every report balances its books
//! ([`books_balance`]); a clean cell's report has no incident, and a plain
//! cell's launch names the first faulting DPU's error in DPU order. On an input whose outputs depend only on its MRAM
//! ([`SetInput::outputs`]) the fault contract holds too: with ECC on, or
//! under a flip-free plan, every DPU served (in place or by a survivor)
//! holds exactly its reference's answer, and single-bit flips under ECC
//! consume no retry.

use crate::generate::Generated;
use crate::machine::{replay_counters, same, seeded, Aftermath};
use dpu_sim::{
    DmaEngine, Engine, ExecProgram, FaultConfig, FaultPlan, Machine, Mram, Program, RunResult,
    RunSpec, ScrubReport, Wram,
};
use pim_bench::chaos;
use pim_host::{
    DpuSet, HostError, Incident, LaunchObservation, LaunchReport, LaunchSpec, ResilientLaunchPolicy,
};
use pim_trace::TraceBuffer;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Launches per cell.
const LAUNCHES: usize = 3;

/// A program plus the set it starts on.
pub struct SetInput {
    pub name: String,
    pub program: Program,
    pub tasklets: usize,
    /// Every DPU as staged: with ECC off, and with ECC armed first.
    pub staged: [Vec<Machine>; 2],
    /// Seed of the scenarios' fault plans.
    pub seed: u64,
    /// Per DPU, the MRAM spans holding its answer, which depends only on
    /// its MRAM (a kernel's). None for a generated program: its answer
    /// also depends on WRAM, which a failed attempt leaves dirty for the
    /// retry.
    pub outputs: Vec<Vec<Range<usize>>>,
}

impl SetInput {
    /// A generated program on `dpus` DPUs, DPU `i` holding [`seeded`]
    /// memory of salt `i`.
    pub fn generated(g: Generated, dpus: usize, seed: u64) -> Self {
        let staged = [false, true].map(|ecc| (0..dpus as u32).map(|i| seeded(i, ecc)).collect());
        let name = format!("{dpus} DPUs, {} tasklets, {:?}", g.tasklets, g.program);
        let outputs = Vec::new();
        Self { name, program: g.program, tasklets: g.tasklets, staged, seed, outputs }
    }

    /// The DPUs of a kernel's `sets` as staged (`[ECC off, ECC on]`), with
    /// the spans of each DPU's answer.
    pub fn staged(
        name: &str,
        tasklets: usize,
        sets: [&DpuSet; 2],
        seed: u64,
        outputs: Vec<Vec<Range<usize>>>,
    ) -> Self {
        let program = sets[0].loaded_program().expect("a loaded program").clone();
        let staged = sets.map(|set| set.system().iter().map(|(_, m)| m.clone()).collect());
        Self { name: name.to_owned(), program, tasklets, staged, seed, outputs }
    }

    /// A fresh set holding the staged DPUs, the program loaded.
    fn set(&self, ecc: bool) -> DpuSet {
        let staged = &self.staged[usize::from(ecc)];
        let mut set = DpuSet::allocate(staged.len()).unwrap();
        for ((_, dpu), m) in set.system_mut().iter_mut().zip(staged) {
            dpu.clone_from(m);
        }
        set.load(&self.program).unwrap();
        set
    }
}

/// One value of the policy axis.
pub struct Policy {
    pub name: String,
    pub policy: Option<ResilientLaunchPolicy>,
    /// Launches under policies of one group agree with one another;
    /// `"plain"` ones also with the reference.
    group: String,
    /// Whether it runs over form × trace too.
    grid: bool,
}

impl Policy {
    /// `policy` over the whole grid, agreeing with `group`.
    fn new(name: &str, policy: Option<ResilientLaunchPolicy>, group: &str) -> Self {
        Self { name: name.to_owned(), policy, group: group.to_owned(), grid: true }
    }

    /// The campaign's terms around `faults`, loaded and untraced.
    pub fn scenario(name: &str, faults: FaultConfig) -> Self {
        let policy = Some(chaos::policy(faults));
        Self { name: name.to_owned(), policy, group: name.to_owned(), grid: false }
    }
}

/// The chaos campaign's scenario `name`, drawn from `seed`.
pub fn scenario_config(name: &str, seed: u64) -> FaultConfig {
    let index = chaos::SCENARIOS.iter().position(|&s| s == name).expect("a chaos scenario");
    chaos::scenario_config(index, seed)
}

/// The fault-class axis: every chaos scenario, drawn from `seed`.
pub fn scenarios(seed: u64) -> Vec<Policy> {
    let scenario = |&name| {
        let p = Policy::scenario(name, scenario_config(name, seed));
        Policy { grid: name == "mixed", ..p }
    };
    chaos::SCENARIOS.iter().map(scenario).collect()
}

/// One launch of a cell.
pub struct Served {
    pub policy: String,
    pub ecc: bool,
    pub report: LaunchReport,
}

/// Each DPU's memory after a launch.
type Memory = Vec<(Wram, Mram, DmaEngine)>;

/// What a launch must report, trace and leave behind.
#[derive(Default)]
struct Expected {
    report: Option<LaunchReport>,
    buffers: Option<Vec<TraceBuffer>>,
    memory: Option<Memory>,
}

fn memory(set: &DpuSet) -> Memory {
    set.system().iter().map(|(_, m)| (m.wram.clone(), m.mram.clone(), m.dma)).collect()
}

/// DPU `d`'s result, unless its work went unserved.
fn result(report: &LaunchReport, d: usize) -> Option<&RunResult> {
    report.incident(d).is_none_or(|i| i.served).then(|| &*report.per_dpu[d])
}

/// The books of any report of any launch: incidents ascending by DPU, none
/// of them a clean first attempt; attempts within `1..=max + 1`, all of
/// them spent by a quarantined DPU; a stand-in that served the work and is
/// neither the victim nor quarantined, taking cycles; an error on every
/// unserved DPU and none on a DPU served in place; no result for unserved
/// work; the metrics agreeing.
fn books_balance(report: &LaunchReport, max_retries: u32, cell: &str) {
    let incidents = &report.incidents;
    assert!(incidents.windows(2).all(|w| w[0].dpu < w[1].dpu), "{cell}: incident order");
    let quarantined = report.quarantined();
    for i in incidents {
        let d = i.dpu.0 as usize;
        let clean = i.served
            && i.attempts == 1
            && i.served_by.is_none()
            && i.faults.is_empty()
            && i.scrub == ScrubReport::default()
            && i.dma_corrected == 0;
        assert!(!clean, "{cell}: a clean first attempt is no incident: {i:?}");
        let (attempts, max) = (i.attempts, max_retries + 1);
        assert!((1..=max).contains(&attempts), "{cell}, DPU {d}: {attempts} attempts");
        assert!(!i.quarantined() || attempts == max, "{cell}: quarantine books: {i:?}");
        if let Some(to) = i.served_by {
            let stand_in = i.served && to != i.dpu && !quarantined.contains(&to);
            assert!(stand_in && report.per_dpu[d].cycles > 0, "{cell}: re-dispatch {i:?}");
        }
        assert!(i.quarantined() || i.last_error.is_none(), "{cell}: {i:?}");
        assert!(i.served || i.last_error.is_some(), "{cell}: unexplained: {i:?}");
        let no_result = *report.per_dpu[d] == RunResult::default();
        assert!(i.served || no_result, "{cell}, DPU {d}: unserved work has a result");
    }
    let m = report.resilient_metrics();
    let books = [
        ("resilient.retries", incidents.iter().map(|i| u64::from(i.attempts) - 1).sum()),
        ("resilient.quarantined", quarantined.len() as u64),
        (
            "resilient.redispatched",
            incidents.iter().filter(|i| i.served_by.is_some()).count() as u64,
        ),
        ("resilient.faults_injected", incidents.iter().map(|i| i.faults.len() as u64).sum()),
    ];
    for (key, want) in books {
        assert_eq!(m.counter(key), want, "{cell}: {key}");
    }
}

/// The plain launch's own terms under four spellings: no policy, a policy
/// that injects nothing, default terms, and default terms with a plan
/// that injects nothing.
pub fn plain_policies() -> Vec<Policy> {
    // The plain launch's own terms, with a plan that injects nothing.
    let zero = ResilientLaunchPolicy {
        max_retries: 0,
        redispatch: false,
        ..ResilientLaunchPolicy::with_faults(FaultPlan::none())
    };
    let armed_zero = ResilientLaunchPolicy::with_faults(FaultPlan::none());
    vec![
        Policy::new("none", None, "plain"),
        Policy::new("zero-fault", Some(zero), "plain"),
        Policy::new("default", Some(ResilientLaunchPolicy::default()), "default"),
        Policy::new("default terms, armed zero", Some(armed_zero), "default"),
    ]
}

/// Every cell of `input`, over the plain policies and the fault-class
/// axis; returns every launch.
pub fn check(input: &SetInput) -> Vec<Served> {
    let mut policies = plain_policies();
    policies.extend(scenarios(input.seed));
    check_with(input, &policies)
}

/// Every cell of `input` under `policies`; returns every launch.
pub fn check_with(input: &SetInput, policies: &[Policy]) -> Vec<Served> {
    let dpus = input.staged[0].len();
    // Machine-layer references, per ECC setting, launch and DPU.
    let exec = ExecProgram::decode(&input.program);
    let spec = || RunSpec { engine: Some(Engine::Reference), ..RunSpec::new(input.tasklets) };
    let references: Vec<Vec<Vec<Aftermath>>> = input
        .staged
        .iter()
        .map(|staged| {
            let mut machines = staged.clone();
            let mut launch = || {
                let run = |m: &mut Machine| {
                    let outcome = m.execute(&exec, spec());
                    Aftermath::of(m, outcome.map(Arc::unwrap_or_clone))
                };
                machines.iter_mut().map(run).collect()
            };
            (0..LAUNCHES).map(|_| launch()).collect()
        })
        .collect();
    // The longest run, if every DPU is served in every launch: then a
    // policy whose watchdog it fits under has nothing to retry or
    // re-dispatch.
    let longest: Vec<Option<u64>> = references
        .iter()
        .map(|l| {
            l.iter().flatten().try_fold(0, |max, a| Some(a.outcome.as_ref().ok()?.cycles.max(max)))
        })
        .collect();

    let mut cells = Vec::new();
    for ecc in [false, true] {
        for p in policies {
            let grid: &[bool] = if p.grid { &[false, true] } else { &[false] };
            for &trace in grid {
                for &adhoc in grid {
                    cells.extend([false, true].map(|forked| (ecc, p, trace, adhoc, forked)));
                }
            }
        }
    }
    // What each launch must report, trace and leave behind: one for every
    // plain launch, one per group and ECC setting for the others.
    let mut expected: BTreeMap<(String, bool, usize), Expected> = BTreeMap::new();
    let mut launched = Vec::new();
    for (ecc, p, trace, adhoc, forked) in cells {
        let policy = p.policy.as_ref();
        let max_retries = policy.map_or(0, |p| p.max_retries);
        let plan = policy.and_then(|p| p.faults.as_ref());
        let zero_plan = plan.is_none_or(FaultPlan::is_zero);
        let in_time = |p: &ResilientLaunchPolicy| {
            longest[usize::from(ecc)].is_some_and(|cycles| cycles < p.watchdog_budget)
        };
        let plain = p.group == "plain" || zero_plan && policy.is_some_and(in_time);
        // A clean cell: nothing injected and every DPU served at its
        // first attempt.
        let clean = zero_plan && policy.map_or(longest[usize::from(ecc)].is_some(), in_time);
        let group = if plain { "plain" } else { p.group.as_str() };
        // Whether the fault contract pins a served DPU's answer to its
        // reference's: with ECC on, every flip is repaired.
        let flip_free = plan
            .map(FaultPlan::config)
            .is_none_or(|c| c.bit_flip_prob == 0.0 && c.double_flip_prob == 0.0);
        let exact = ecc || flip_free;
        let mut set = input.set(ecc);
        set.set_parallel_threshold(Some(if forked { 1 } else { usize::MAX }));
        // An ad hoc launch decodes its program afresh, so a second one
        // shares no recording with the first: one launch is its cell. So
        // is a scenario's off the grid: its plan would draw again what it
        // drew at the first.
        let launches = if adhoc || !p.grid { 1 } else { LAUNCHES };
        // DPUs served in every launch so far.
        let mut intact = vec![true; dpus];
        for (launch, references) in references[usize::from(ecc)].iter().enumerate().take(launches) {
            let cell = format!(
                "{}: ecc={ecc} policy={} trace={trace} adhoc={adhoc} forked={forked} launch {launch}",
                input.name, p.name
            );
            let mut obs = LaunchObservation::new();
            let before = set.system().engine_stats();
            let form = if adhoc {
                LaunchSpec::adhoc(&input.program, input.tasklets)
            } else {
                LaunchSpec::loaded(input.tasklets)
            };
            let spec = LaunchSpec { trace, policy, observe: Some(&mut obs), ..form };
            let (report, buffers) = set.launch_with(spec).expect("launch");
            let stats = set.system().engine_stats().since(&before);
            assert_eq!(buffers.len(), if trace { dpus } else { 0 }, "{cell}");
            books_balance(&report, max_retries, &cell);
            assert!(!clean || report.incidents.is_empty(), "{cell}: {:?}", report.incidents);
            launched.push(Served { policy: p.name.clone(), ecc, report: report.clone() });
            // Armed attempts bypass the table; only a re-dispatch pass
            // (after a quarantine) runs clean.
            if trace || ecc || (!zero_plan && report.quarantined().is_empty()) {
                assert_eq!(replay_counters(&stats), [0; 4], "{cell}: bypasses the table");
            }
            if policy.is_some() || report.fully_served() {
                let m = obs.metrics();
                let workers = std::thread::available_parallelism().map_or(4, usize::from).min(dpus);
                let steal = [m.counter("obs.steal.launches"), m.counter("obs.steal.claims")];
                let want = if forked { [1, dpus as u64] } else { [0, 0] };
                assert_eq!(steal, want, "{cell}: every DPU claimed once");
                let want = forked.then_some(workers as f64);
                assert_eq!(m.gauge("obs.steal.workers"), want, "{cell}");
            }
            let key = (group.to_owned(), !plain && ecc, launch);
            let want = expected.entry(key).or_default();
            assert!(same(&mut want.report, &report), "{cell}: report");
            assert!(!trace || same(&mut want.buffers, &buffers), "{cell}: trace buffers");
            if !plain {
                assert!(same(&mut want.memory, &memory(&set)), "{cell}: memory");
                for (d, ((_, m), r)) in set.system().iter().zip(references).enumerate() {
                    // A first attempt nothing was injected into is a plain run.
                    let once = |i: &Incident| i.attempts == 1 && i.faults.is_empty();
                    if launch == 0 && report.incident(d).is_none_or(once) {
                        let want = r.outcome.as_ref().ok();
                        assert_eq!(result(&report, d), want, "{cell}, DPU {d}: silent");
                    }
                    intact[d] &= result(&report, d).is_some();
                    let answer = input.outputs.get(d).filter(|_| exact && intact[d]);
                    for span in answer.into_iter().flatten() {
                        let [got, want] =
                            [&m.mram, &r.mram].map(|m| m.to_vec(span.start, span.len()));
                        assert_eq!(got, want, "{cell}, DPU {d}: silent corruption at {span:?}");
                    }
                }
                if !input.outputs.is_empty() && ecc && p.name == "bit_flip" {
                    assert_eq!(report.retries(), 0, "{cell}: the scrub repairs flips");
                }
                continue;
            }
            if report.fully_served() {
                let instructions = report.total_instructions();
                assert_eq!(stats.slots(), instructions, "{cell}: modes partition the slots");
            }
            // A plain launch names the first faulting DPU's error, in DPU
            // order.
            let first_error = references.iter().find_map(|r| r.outcome.clone().err());
            let error = report.clone().served().err();
            assert_eq!(error, first_error.map(HostError::Dpu), "{cell}: the launch's error");
            for (d, ((_, m), r)) in set.system().iter().zip(references).enumerate() {
                let cell = format!("{cell}, DPU {d}");
                assert_eq!(result(&report, d), r.outcome.as_ref().ok(), "{cell}");
                // Only a faulting DPU has an incident: one attempt, its
                // error, nothing injected, nothing re-dispatched.
                let incident = report.incident(d).map(|i| {
                    assert!(i.faults.is_empty(), "{cell}: nothing injected");
                    (i.served, i.attempts, i.served_by, i.backoff_cycles, i.last_error.clone())
                });
                let error = r.outcome.clone().err().map(|e| Some(HostError::Dpu(e)));
                assert_eq!(incident, error.map(|e| (false, 1, None, 0, e)), "{cell}");
                if let (Some(b), Ok(r)) = (buffers.get(d), &r.outcome) {
                    assert_eq!(
                        (b.max_end_cycle(), b.dma_bytes()),
                        (r.cycles, r.dma_bytes),
                        "{cell}"
                    );
                }
                Aftermath::of(m, r.outcome.clone()).assert_is(r, &cell);
            }
        }
        // Every flip a served attempt left behind was scrubbed; only an
        // unserved DPU may keep one.
        if ecc && (zero_plan || intact.iter().all(|&i| i)) {
            let scrub = set.scrub_all();
            assert!(scrub.clean(), "{}, {}: the scrub repaired {scrub:?}", input.name, p.name);
        }
    }
    launched
}
