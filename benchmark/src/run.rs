//! Set-up and measured rounds: real `pim_serve::serve` calls over the
//! real engines, observed through the decorators.
//!
//! A *round* is one `serve` call over a fresh seeded traffic source of
//! the workload's fixed size. A run repeats rounds until its time is up,
//! so a run always measures whole rounds and reports medians across
//! them; the simulated metrics come from the first [`SIM_ROUNDS`] rounds
//! only, which always run, so they are a pure function of the seed and
//! do not depend on how fast the host is.

use crate::decor::{EngineTally, TimedEngine, TimedTraffic, TrafficTally};
use crate::loadgen::picker;
use crate::spans::{Recorder, Span, NO_BATCH};
use crate::workload::{build, derive_seed, Built, Kernel, Load, Spec, Stream};
use pim_serve::{serve, ClosedLoop, OpenLoop, ServeReport, Traffic};
use pim_trace::{keys, MetricsRegistry};
use std::time::Instant;

/// Rounds that always run and that the simulated metrics are taken from.
pub const SIM_ROUNDS: usize = 5;

/// What a round records beyond the counts every round keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observe {
    /// Record spans at every call boundary.
    pub spans: bool,
    /// Keep inputs and outputs and compare them with the host oracle.
    pub check: bool,
}

impl Observe {
    /// Counts only — the measured rounds of an end-to-end run.
    pub const PLAIN: Self = Self { spans: false, check: false };
    /// Outputs checked, no spans — the warm-up round.
    pub const CHECKED: Self = Self { spans: false, check: true };
    /// Spans and outputs — the rounds of a traced run.
    pub const TRACED: Self = Self { spans: true, check: true };
}

/// One `serve` call, as seen from outside.
#[derive(Debug)]
pub struct Round {
    /// Wall time of the `serve` call in seconds.
    pub wall_s: f64,
    /// Intervals between consecutive `launch` returns, in milliseconds.
    pub batch_ms: Vec<f64>,
    /// Engine-side counts.
    pub engine: EngineTally,
    /// Requests the traffic source produced.
    pub requests: u64,
    /// Requests refused or completed degraded.
    pub failed: u64,
    /// Items of requests that completed with every item served.
    pub served_items: u64,
    /// Items the source offered and the arrival window in cycles.
    pub offered: (u64, u64),
    /// `ServeReport.goodput_ips`.
    pub goodput_ips: f64,
    /// `ServeReport.latency_quantile(0.99)` in cycles.
    pub latency_p99_cycles: f64,
    /// The run's `serve.*` registry.
    pub metrics: MetricsRegistry,
    /// Spans, when recorded; span 0 is the `serve` call.
    pub spans: Vec<Span>,
    /// CRC mismatches checked transfers caught on the serving set since it
    /// was built.
    pub link_crc_mismatches: u64,
    /// MRAM words DMA verify-on-read repaired on the serving set since it
    /// was built.
    pub dma_corrected_words: u64,
    /// Served outputs compared with the oracle.
    pub checked: u64,
    /// Served outputs that differ from the oracle (silent corruption).
    pub wrong: u64,
}

impl Round {
    /// Simulated DPU cycles per item served.
    #[must_use]
    pub fn sim_cycles_per_item(&self) -> f64 {
        self.engine.compute_cycles as f64 / self.served_items.max(1) as f64
    }

    /// Share of requests neither refused nor degraded.
    #[must_use]
    pub fn served_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.requests.max(1) as f64
    }
}

/// Run one round of `requests` requests drawn with `traffic_seed`.
///
/// # Panics
/// When `serve` returns a host error: the workloads are chosen so that
/// no operation fails.
pub fn serve_round<K: Kernel>(
    spec: &Spec,
    built: &mut Built<K>,
    traffic_seed: u64,
    requests: u64,
    observe: Observe,
) -> Round {
    let pool = built.kernel.pool();
    let engine = &mut built.engine;
    let (mut round, sent, outputs) = match spec.load {
        Load::Open { mean_gap, items: (lo, hi) } => {
            let mut t = OpenLoop::new(traffic_seed, requests, mean_gap, picker(pool, lo, hi));
            drive(spec, engine, &mut t, observe)
        }
        Load::Closed { clients, think, items } => {
            let mut t =
                ClosedLoop::new(traffic_seed, clients, requests, think, picker(pool, items, items));
            drive(spec, engine, &mut t, observe)
        }
    };
    let set = K::engine_set(&built.engine);
    round.link_crc_mismatches = set.link_stats().crc_mismatches;
    round.dma_corrected_words = set.dma_corrected_total();
    if observe.check {
        // `outputs` is in admission order with request ids; `sent` is in
        // generation order. Ids are unique per round.
        let by_id: std::collections::BTreeMap<u64, &Vec<K::Item>> =
            sent.iter().map(|(id, items)| (*id, items)).collect();
        for (id, outs) in &outputs {
            let items = by_id[id];
            assert_eq!(items.len(), outs.len(), "request {id}: one output slot per item");
            for (item, out) in items.iter().zip(outs) {
                // `None` is a lost item: degraded service, counted in
                // `failed`, never a wrong answer.
                if let Some(out) = out {
                    round.checked += 1;
                    if *out != built.kernel.oracle(item) {
                        round.wrong += 1;
                    }
                }
            }
        }
    }
    round
}

type Sent<I> = Vec<(u64, Vec<I>)>;
type Outputs<O> = Vec<(u64, Vec<Option<O>>)>;

fn drive<E, T>(
    spec: &Spec,
    engine: &mut E,
    traffic: &mut T,
    observe: Observe,
) -> (Round, Sent<E::Item>, Outputs<E::Output>)
where
    E: pim_serve::BatchEngine,
    E::Item: Clone,
    E::Output: Clone,
    T: Traffic<Item = E::Item>,
{
    let rec = if observe.spans { Recorder::on() } else { Recorder::off() };
    let cfg = spec.serve_config(observe.check);
    let mut engine = TimedEngine::new(engine, rec.clone());
    let mut traffic = TimedTraffic::new(traffic, rec.clone(), observe.check);
    let start = Instant::now();
    let report: ServeReport<E::Output> = rec
        .time("pim-serve", "serve", NO_BATCH, || serve(&mut engine, &mut traffic, &cfg))
        .unwrap_or_else(|e| panic!("{}: serve failed: {e}", spec.name));
    let wall_s = start.elapsed().as_secs_f64();

    let tally: TrafficTally<E::Item> = traffic.tally;
    let engine: EngineTally = engine.tally;
    let batch_ms = engine
        .launch_done
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
        .collect();
    let window = tally.arrival_span.map_or(0, |(first, last)| last - first);
    let round = Round {
        wall_s,
        batch_ms,
        engine,
        requests: tally.requests,
        failed: tally.failed(),
        served_items: tally.served_items,
        offered: (tally.items, window),
        goodput_ips: report.goodput_ips,
        latency_p99_cycles: report.latency_quantile(0.99).unwrap_or(0.0),
        metrics: report.metrics,
        spans: rec.take(),
        link_crc_mismatches: 0,
        dma_corrected_words: 0,
        checked: 0,
        wrong: 0,
    };
    debug_assert_eq!(round.requests, round.metrics.counter(keys::SERVE_REQUESTS));
    (round, tally.sent, report.outputs)
}

/// One complete set-up: generate, encode, build, warm up.
pub struct SetUp<K: Kernel> {
    /// The model, pool and warmed engine.
    pub built: Built<K>,
    /// Wall time of generate + encode + build + the warm-up `serve`.
    pub setup_s: f64,
    /// The warm-up round (its outputs are oracle-checked).
    pub warmup: Round,
}

/// The warm-up's traffic: the workload's, with every request of the mean
/// size. A handful of requests of drawn sizes would make set-up do a
/// fifth more or less work from one seed to the next.
fn warmup_spec(spec: &Spec) -> Spec {
    let load = match spec.load {
        Load::Open { mean_gap, items: (lo, hi) } => {
            Load::Open { mean_gap, items: ((lo + hi) / 2, (lo + hi) / 2) }
        }
        closed @ Load::Closed { .. } => closed,
    };
    Spec { load, ..*spec }
}

/// Set the workload up from nothing. The warm-up round runs on its own
/// traffic seed, fills both MRAM buffers and pays the copy-on-write
/// first touch of every page a batch writes.
pub fn set_up<K: Kernel>(spec: &Spec, seed: u64) -> SetUp<K> {
    let start = Instant::now();
    let mut built = build::<K>(spec, seed);
    let build_s = start.elapsed().as_secs_f64();
    let warmup = serve_round(
        &warmup_spec(spec),
        &mut built,
        derive_seed(seed, Stream::Warmup),
        spec.warmup_requests,
        Observe::CHECKED,
    );
    // The oracle comparison after the warm-up `serve` returns is the
    // harness's own work, not set-up the user pays.
    let setup_s = build_s + warmup.wall_s;
    SetUp { built, setup_s, warmup }
}

/// Measured round `index` of the run with seed `seed`.
pub fn measured_round<K: Kernel>(
    spec: &Spec,
    built: &mut Built<K>,
    seed: u64,
    index: u64,
    observe: Observe,
) -> Round {
    serve_round(spec, built, derive_seed(seed, Stream::Round(index)), spec.requests, observe)
}

/// Fresh set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Everything an end-to-end (untraced) run measured.
pub struct EndToEnd {
    /// Wall time of each fresh set-up.
    pub setups_s: Vec<f64>,
    /// Outputs the warm-up rounds compared with the oracle, and how many
    /// differed.
    pub warmup_checked: (u64, u64),
    /// The measured rounds, tracing off.
    pub rounds: Vec<Round>,
}

/// Set up [`SETUPS`] times, then serve rounds on the last set-up until
/// `seconds` have passed (and at least [`SIM_ROUNDS`] rounds).
pub fn end_to_end<K: Kernel>(spec: &Spec, seed: u64, seconds: f64) -> EndToEnd {
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut warmup_checked = (0, 0);
    let mut last = None;
    for _ in 0..SETUPS {
        // Drop the previous engine first: peak memory is one set's.
        drop(last.take());
        let s = set_up::<K>(spec, seed);
        setups_s.push(s.setup_s);
        warmup_checked.0 += s.warmup.checked;
        warmup_checked.1 += s.warmup.wrong;
        last = Some(s.built);
    }
    let mut built = last.expect("at least one set-up");
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.len() < SIM_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        rounds.push(measured_round(spec, &mut built, seed, rounds.len() as u64, Observe::PLAIN));
    }
    EndToEnd { setups_s, warmup_checked, rounds }
}

/// Everything a traced run measured.
pub struct Traced<K: Kernel> {
    /// The set-up the rounds ran on (model, pool, engine, phases).
    pub built: Built<K>,
    /// Outputs the warm-up round compared with the oracle, and how many
    /// differed.
    pub warmup_checked: (u64, u64),
    /// Traced rounds; round 0 directly follows set-up, exactly as round 0
    /// of an end-to-end run does, so its counts are a pure function of
    /// the seed.
    pub rounds: Vec<Round>,
    /// MRAM arena accounting of the serving set after round 0.
    pub residency: dpu_sim::MramResidency,
    /// Per pair of an untraced and a traced round over the same traffic
    /// seed: traced ÷ untraced period of every batch. The same seed cuts
    /// the same batches, so each batch is its own control; the median of
    /// many such ratios resolves a per-cent overhead that the wall time
    /// of a few whole rounds cannot.
    pub period_ratios: Vec<Vec<f64>>,
}

/// Set up once, serve traced round 0, then alternate untraced and traced
/// rounds over the same traffic seeds until `seconds` have passed (and
/// at least [`SIM_ROUNDS`] pairs), swapping the order each pair so drift
/// cancels.
pub fn traced<K: Kernel>(spec: &Spec, seed: u64, seconds: f64) -> Traced<K> {
    let SetUp { mut built, warmup, .. } = set_up::<K>(spec, seed);
    let start = Instant::now();
    let mut rounds = vec![measured_round(spec, &mut built, seed, 0, Observe::TRACED)];
    let residency = K::engine_set(&built.engine).system().mram_residency();
    let mut period_ratios: Vec<Vec<f64>> = Vec::new();
    while period_ratios.len() < SIM_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let index = period_ratios.len() as u64 + 1;
        let mut round = |observe| measured_round(spec, &mut built, seed, index, observe);
        let (plain, spans) = if index % 2 == 1 {
            let plain = round(Observe::PLAIN);
            (plain, round(Observe::TRACED))
        } else {
            let spans = round(Observe::TRACED);
            (round(Observe::PLAIN), spans)
        };
        period_ratios
            .push(spans.batch_ms.iter().zip(&plain.batch_ms).map(|(t, u)| t / u).collect());
        rounds.push(spans);
    }
    Traced {
        built,
        warmup_checked: (warmup.checked, warmup.wrong),
        rounds,
        residency,
        period_ratios,
    }
}
