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
//! ([`books_balance`]). On an input whose outputs depend only on its MRAM
//! ([`SetInput::outputs`]) the fault contract holds too: with ECC on, or
//! under a flip-free plan, every DPU served (in place or by a survivor)
//! holds exactly its reference's answer, and single-bit flips under ECC
//! consume no retry.

use crate::generate::Generated;
use crate::machine::{replay_counters, same, seeded, Aftermath};
use dpu_sim::{
    DmaEngine, DpuId, Engine, ExecProgram, FaultConfig, FaultPlan, Machine, Mram, Program, RunSpec,
    Wram,
};
use pim_bench::chaos;
use pim_host::{
    DpuSet, HostError, LaunchObservation, LaunchReport, LaunchSpec, ResilientLaunchPolicy,
};
use pim_trace::TraceBuffer;
use std::collections::BTreeMap;
use std::ops::Range;

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

/// The books of any report of any launch: attempts within `1..=max + 1`;
/// quarantined exactly when a DPU exhausted them without a home result; a
/// stand-in only for a quarantined DPU; an error on every unserved DPU; a
/// re-dispatch only from a quarantined victim to a live survivor, taking
/// cycles; the quarantine list ascending; the metrics agreeing.
fn books_balance(report: &LaunchReport, max_retries: u32, cell: &str) {
    for (i, r) in report.per_dpu.iter().enumerate() {
        let quarantined = report.quarantined.contains(&DpuId(i as u32));
        let (attempts, max) = (r.attempts, max_retries + 1);
        assert!((1..=max).contains(&attempts), "{cell}, DPU {i}: {attempts} attempts");
        let exhausted = attempts == max && (r.result.is_none() || r.served_by.is_some());
        assert_eq!(quarantined, exhausted, "{cell}, DPU {i}: quarantine books: {r:?}");
        assert!(r.served_by.is_none() || r.result.is_some() && quarantined, "{cell}, DPU {i}");
        assert!(quarantined || r.last_error.is_none(), "{cell}, DPU {i}: {r:?}");
        assert!(r.result.is_some() || r.last_error.is_some(), "{cell}, DPU {i}: unexplained");
    }
    for d in &report.degraded {
        let pairs = report.quarantined.contains(&d.from) && !report.quarantined.contains(&d.to);
        assert!(pairs && d.cycles > 0, "{cell}: re-dispatch {d:?}");
    }
    assert!(report.quarantined.windows(2).all(|w| w[0] < w[1]), "{cell}: quarantine order");
    let m = report.metrics();
    let books = [
        ("resilient.retries", report.retries()),
        ("resilient.quarantined", report.quarantined.len() as u64),
        ("resilient.redispatched", report.degraded.len() as u64),
        ("resilient.faults_injected", report.faults_injected() as u64),
    ];
    for (key, want) in books {
        assert_eq!(m.counter(key), want, "{cell}: {key}");
    }
}

/// Every cell of `input`, over the plain policies and the fault-class
/// axis; returns every launch.
pub fn check(input: &SetInput) -> Vec<Served> {
    // The plain launch's own terms, with a plan that injects nothing.
    let zero = ResilientLaunchPolicy {
        max_retries: 0,
        redispatch: false,
        ..ResilientLaunchPolicy::with_faults(FaultPlan::none())
    };
    let armed_zero = ResilientLaunchPolicy::with_faults(FaultPlan::none());
    let mut policies = vec![
        Policy::new("none", None, "plain"),
        Policy::new("zero-fault", Some(zero), "plain"),
        Policy::new("default", Some(ResilientLaunchPolicy::default()), "default"),
        Policy::new("default terms, armed zero", Some(armed_zero), "default"),
    ];
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
                    Aftermath::of(m, outcome)
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
            launched.push(Served { policy: p.name.clone(), ecc, report: report.clone() });
            // Armed attempts bypass the table; only a re-dispatch pass
            // (after a quarantine) runs clean.
            if trace || ecc || (!zero_plan && report.quarantined.is_empty()) {
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
                let dpus = set.system().iter().zip(&report.per_dpu).zip(references);
                for (d, (((_, m), served), r)) in dpus.enumerate() {
                    // A first attempt nothing was injected into is a plain run.
                    if launch == 0 && served.attempts == 1 && served.faults.is_empty() {
                        let want = r.outcome.as_ref().ok();
                        assert_eq!(served.result.as_ref(), want, "{cell}, DPU {d}: silent");
                    }
                    intact[d] &= served.result.is_some();
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
                let results = report.per_dpu.iter().filter_map(|r| r.result.as_ref());
                let instructions: u64 = results.map(|r| r.instructions).sum();
                assert_eq!(stats.slots(), instructions, "{cell}: modes partition the slots");
            }
            assert!(report.degraded.is_empty(), "{cell}: nothing re-dispatched");
            let dpus = set.system().iter().zip(&report.per_dpu).zip(references);
            for (d, (((_, m), served), r)) in dpus.enumerate() {
                let cell = format!("{cell}, DPU {d}");
                assert_eq!(served.result.as_ref(), r.outcome.as_ref().ok(), "{cell}");
                assert_eq!(
                    served.last_error,
                    r.outcome.clone().err().map(HostError::Dpu),
                    "{cell}"
                );
                let once = (served.attempts, served.served_by, served.backoff_cycles);
                assert_eq!(once, (1, None, 0), "{cell}: one attempt");
                assert!(served.faults.is_empty(), "{cell}: nothing injected");
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
