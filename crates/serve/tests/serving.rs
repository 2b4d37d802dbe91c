//! End-to-end serving tests: batching edge cases, determinism, fault
//! degradation, and bit-identity of zero-fault serving
//! against the plain batch pipeline.

use ebnn::codegen::{encode_slot, run_tier1_batch, BatchSpec};
use ebnn::mnist::synth_digit;
use ebnn::model::{EbnnModel, ModelConfig};
use ebnn::IMAGES_PER_DPU;
use pim_serve::{
    serve, BatchEngine, BatchRun, BreakerConfig, Completion, EbnnServeEngine, Gathered, OpenLoop,
    Overloaded, PipelineMode, Request, Rng64, ServeConfig, ServeReport, Traffic, TrafficStep,
};
use pim_trace::keys;

/// A scripted traffic source: fixed requests with exact arrival stamps —
/// the precision instrument for batching edge cases.
struct Script<I> {
    reqs: std::collections::VecDeque<Request<I>>,
}

impl<I> Script<I> {
    fn new(reqs: Vec<Request<I>>) -> Self {
        Self { reqs: reqs.into() }
    }
}

impl<I> Traffic for Script<I> {
    type Item = I;

    fn next(&mut self) -> TrafficStep<I> {
        match self.reqs.pop_front() {
            Some(r) => TrafficStep::Arrival(r),
            None => TrafficStep::Done,
        }
    }

    fn on_complete(&mut self, _c: &Completion) {}

    fn on_reject(&mut self, _r: &Overloaded) {}
}

fn model() -> EbnnModel {
    EbnnModel::generate(ModelConfig { filters: 2, ..ModelConfig::default() })
}

fn images(n: usize, seed: u64) -> Vec<ebnn::mnist::GrayImage> {
    (0..n).map(|i| synth_digit(i % 10, seed ^ i as u64)).collect()
}

fn slots(m: &EbnnModel, imgs: &[ebnn::mnist::GrayImage]) -> Vec<Vec<u8>> {
    imgs.iter().map(|img| encode_slot(m, img)).collect()
}

fn cfg() -> ServeConfig {
    ServeConfig { record_outputs: true, ..ServeConfig::default() }
}

/// Flatten a report's outputs (admission order) into one item stream.
fn flat_outputs(report: &ServeReport<Vec<u8>>) -> Vec<Option<Vec<u8>>> {
    report.outputs.iter().flat_map(|(_, items)| items.iter().cloned()).collect()
}

#[test]
fn zero_fault_serving_is_bit_identical_to_batch_pipeline() {
    let m = model();
    let imgs = images(2 * IMAGES_PER_DPU + 5, 0xBEEF);
    let sl = slots(&m, &imgs);

    // Reference: the plain batch pipeline over the same images.
    let want = run_tier1_batch(&m, &imgs, BatchSpec::default()).expect("batch pipeline").features;

    for pipeline in [PipelineMode::Serial, PipelineMode::Double] {
        // One request carrying everything: the serving path packs the same
        // 16-image chunks onto the same DPUs as the batch pipeline.
        let mut engine = EbnnServeEngine::new(&m, 3, pipeline, None).expect("engine");
        assert!(engine.capacity() >= sl.len(), "one batch covers the request");
        let mut t = Script::new(vec![Request { id: 0, arrival: 0, items: sl.clone() }]);
        let report = serve(&mut engine, &mut t, &ServeConfig { pipeline, ..cfg() }).expect("serve");

        let got = flat_outputs(&report);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.as_deref(), Some(w.as_slice()), "{pipeline:?} diverged");
        }
        assert_eq!(report.metrics.counter(keys::SERVE_COMPLETED), 1);
        assert_eq!(report.metrics.counter(keys::SERVE_FAILED), 0);
    }
}

#[test]
fn oversize_request_splits_across_launches_and_stays_correct() {
    let m = model();
    // One DPU => capacity 16; a 40-item request needs 3 launches.
    let imgs = images(40, 0x51D);
    let sl = slots(&m, &imgs);
    let mut engine = EbnnServeEngine::new(&m, 1, PipelineMode::Double, None).expect("engine");
    assert_eq!(engine.capacity(), IMAGES_PER_DPU);
    let mut t = Script::new(vec![Request { id: 0, arrival: 0, items: sl }]);
    let report = serve(&mut engine, &mut t, &cfg()).expect("serve");

    assert_eq!(report.metrics.counter(keys::SERVE_BATCHES), 3);
    assert_eq!(report.metrics.counter(keys::SERVE_SPLITS), 1, "one request split");
    assert_eq!(report.completions.len(), 1);
    assert!(report.completions[0].served);

    // The split slices reassemble to the batch pipeline's output.
    let mut want = Vec::new();
    for chunk in imgs.chunks(IMAGES_PER_DPU) {
        let run = run_tier1_batch(&m, chunk, BatchSpec::default()).expect("batch pipeline");
        want.extend(run.features);
    }
    let got = flat_outputs(&report);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.as_deref(), Some(w.as_slice()));
    }
}

#[test]
fn empty_traffic_launches_nothing() {
    let m = model();
    let mut engine = EbnnServeEngine::new(&m, 1, PipelineMode::Double, None).expect("engine");
    let mut t = Script::new(Vec::<Request<Vec<u8>>>::new());
    let report = serve(&mut engine, &mut t, &cfg()).expect("serve");
    assert_eq!(report.metrics.counter(keys::SERVE_BATCHES), 0);
    assert_eq!(report.metrics.counter(keys::SERVE_REQUESTS), 0);
    assert!(report.completions.is_empty());
    assert!(report.rejections.is_empty());
    assert_eq!(report.vtime_cycles, 0);
}

#[test]
fn deadline_cut_fires_for_a_lonely_partial_batch() {
    let m = model();
    let sl = slots(&m, &images(2, 3));
    let mut engine = EbnnServeEngine::new(&m, 1, PipelineMode::Double, None).expect("engine");
    // Second arrival is far beyond the first's deadline, so the first
    // launches as a deadline-cut partial batch.
    let mut t = Script::new(vec![
        Request { id: 0, arrival: 0, items: vec![sl[0].clone()] },
        Request { id: 1, arrival: 50_000_000, items: vec![sl[1].clone()] },
    ]);
    let c = ServeConfig { max_batch_delay: 10_000, ..cfg() };
    let report = serve(&mut engine, &mut t, &c).expect("serve");
    assert_eq!(report.metrics.counter(keys::SERVE_BATCHES), 2);
    assert!(report.metrics.counter(keys::SERVE_CUTS_DEADLINE) >= 1, "deadline cut expected");
    assert_eq!(report.completions.len(), 2);
}

#[test]
fn shutdown_drain_completes_in_flight_batches() {
    let m = model();
    // 3 one-item requests at t=0 against capacity 16: traffic ends with a
    // partial batch that must drain to completion.
    let sl = slots(&m, &images(3, 17));
    let mut engine = EbnnServeEngine::new(&m, 1, PipelineMode::Double, None).expect("engine");
    let reqs = sl
        .iter()
        .enumerate()
        .map(|(i, s)| Request { id: i as u64, arrival: 0, items: vec![s.clone()] })
        .collect();
    let mut t = Script::new(reqs);
    let report = serve(&mut engine, &mut t, &cfg()).expect("serve");
    assert_eq!(report.metrics.counter(keys::SERVE_CUTS_DRAIN), 1);
    assert_eq!(report.metrics.counter(keys::SERVE_COMPLETED), 3);
    assert_eq!(report.completions.len(), 3, "every in-flight request completed at shutdown");
    assert!(report.completions.iter().all(|c| c.served && c.finish > 0));
}

#[test]
fn admission_rejections_are_counted_and_typed() {
    let m = model();
    // Capacity 16; full-batch requests arriving simultaneously with a
    // queue bound of 1: the first packs, the second waits, the rest shed.
    let sl = slots(&m, &images(IMAGES_PER_DPU, 23));
    let mut engine = EbnnServeEngine::new(&m, 1, PipelineMode::Double, None).expect("engine");
    let reqs = (0..5).map(|i| Request { id: i, arrival: 0, items: sl.clone() }).collect();
    let mut t = Script::new(reqs);
    let c = ServeConfig { queue_capacity: 1, ..cfg() };
    let report = serve(&mut engine, &mut t, &c).expect("serve");

    let rejected = report.metrics.counter(keys::SERVE_REJECTED);
    assert!(rejected >= 1, "overload must shed");
    assert_eq!(rejected as usize, report.rejections.len());
    for r in &report.rejections {
        assert_eq!(r.queue_depth, 1, "shed at the configured bound");
    }
    assert_eq!(
        report.metrics.counter(keys::SERVE_ACCEPTED) + rejected,
        report.metrics.counter(keys::SERVE_REQUESTS),
    );
}

#[test]
fn forced_offline_without_redispatch_degrades_but_keeps_goodput() {
    let m = model();
    let imgs = images(2 * IMAGES_PER_DPU, 31);
    let sl = slots(&m, &imgs);
    let policy = pim_host::ResilientLaunchPolicy {
        redispatch: false,
        ..pim_host::ResilientLaunchPolicy::with_faults(dpu_sim::FaultPlan::new(
            dpu_sim::FaultConfig { forced_offline: vec![1], ..dpu_sim::FaultConfig::default() },
        ))
    };
    let mut engine =
        EbnnServeEngine::new(&m, 2, PipelineMode::Double, Some(policy)).expect("engine");
    let mut t = Script::new(vec![Request { id: 0, arrival: 0, items: sl }]);
    let report = serve(&mut engine, &mut t, &cfg()).expect("serve");

    assert_eq!(report.metrics.counter(keys::SERVE_FAILED), 1, "degraded request counted");
    assert!(!report.completions[0].served);
    assert!(report.goodput_ips > 0.0, "survivor DPU still produces goodput");
    let got = flat_outputs(&report);
    // DPU 0's chunk is served, DPU 1's is lost.
    assert!(got[..IMAGES_PER_DPU].iter().all(Option::is_some));
    assert!(got[IMAGES_PER_DPU..].iter().all(Option::is_none));
}

#[test]
fn redispatch_recovers_offline_dpus_results_exactly() {
    let m = model();
    let imgs = images(2 * IMAGES_PER_DPU, 77);
    let sl = slots(&m, &imgs);
    let want = run_tier1_batch(&m, &imgs, BatchSpec::default()).expect("batch pipeline").features;

    let policy = pim_host::ResilientLaunchPolicy::with_faults(dpu_sim::FaultPlan::new(
        dpu_sim::FaultConfig { forced_offline: vec![0], ..dpu_sim::FaultConfig::default() },
    ));
    let mut engine =
        EbnnServeEngine::new(&m, 2, PipelineMode::Double, Some(policy)).expect("engine");
    let mut t = Script::new(vec![Request { id: 0, arrival: 0, items: sl }]);
    let report = serve(&mut engine, &mut t, &cfg()).expect("serve");

    assert_eq!(report.metrics.counter(keys::SERVE_FAILED), 0);
    assert!(report.metrics.counter(keys::SERVE_REDISPATCHED_ITEMS) >= IMAGES_PER_DPU as u64);
    let got = flat_outputs(&report);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.as_deref(), Some(w.as_slice()), "redispatched results must match");
    }
}

#[test]
fn fixed_seed_reproduces_metrics_bit_for_bit() {
    let run = || {
        let m = model();
        let pool = slots(&m, &images(8, 1));
        let policy = pim_host::ResilientLaunchPolicy::with_faults(dpu_sim::FaultPlan::new(
            dpu_sim::FaultConfig {
                seed: 0xFA117,
                dpu_offline_prob: 0.05,
                dma_fail_prob: 0.02,
                ..dpu_sim::FaultConfig::default()
            },
        ));
        let mut engine =
            EbnnServeEngine::new(&m, 2, PipelineMode::Double, Some(policy)).expect("engine");
        let gen = move |rng: &mut Rng64, _id: u64| -> Vec<Vec<u8>> {
            let n = rng.range(1, 3) as usize;
            (0..n).map(|_| pool[rng.range(0, 7) as usize].clone()).collect()
        };
        let mut t = OpenLoop::new(0xD06, 40, 5_000, gen);
        let report = serve(&mut engine, &mut t, &ServeConfig::default()).expect("serve");
        let json = serde_json::to_string(&report.metrics.to_json()).expect("serialize metrics");
        (json, report.completions, report.rejections)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "metrics JSON must be bit-identical");
    assert_eq!(a.1, b.1, "completions must match");
    assert_eq!(a.2, b.2, "rejections must match");
}

/// A scripted engine for circuit-breaker tests: one item per DPU, a
/// designated sick DPU that quarantines every batch staging items on it
/// until launch sequence `heal_after`. Honors the service's live mask, so
/// ejection is observable as the sick DPU simply receiving no items.
struct FlakyEngine {
    dpus: usize,
    live: Vec<bool>,
    items: Vec<u8>,
    assign: Vec<u32>,
    served: Vec<bool>,
    sick: u32,
    heal_after: u64,
}

impl FlakyEngine {
    fn new(dpus: usize, sick: u32, heal_after: u64) -> Self {
        Self {
            dpus,
            live: vec![true; dpus],
            items: Vec::new(),
            assign: Vec::new(),
            served: Vec::new(),
            sick,
            heal_after,
        }
    }
}

impl BatchEngine for FlakyEngine {
    type Item = u8;
    type Output = u8;

    fn capacity(&self) -> usize {
        self.dpus
    }

    fn dpus(&self) -> usize {
        self.dpus
    }

    fn buffers(&self) -> usize {
        1
    }

    fn set_live_mask(&mut self, live: &[bool]) {
        self.live = live.to_vec();
    }

    fn stage(&mut self, items: &[u8], buf: usize) -> Result<u64, pim_host::HostError> {
        assert_eq!(buf, 0);
        let targets: Vec<u32> = (0..self.dpus as u32).filter(|&d| self.live[d as usize]).collect();
        assert!(items.len() <= targets.len(), "service must pack within live capacity");
        self.items = items.to_vec();
        self.assign = targets[..items.len()].to_vec();
        self.served = vec![true; items.len()];
        Ok(items.len() as u64)
    }

    fn launch(&mut self, seq: u64) -> Result<BatchRun, pim_host::HostError> {
        let mut quarantined = Vec::new();
        if seq < self.heal_after && self.assign.contains(&self.sick) {
            quarantined.push(self.sick);
            for (i, &d) in self.assign.iter().enumerate() {
                if d == self.sick {
                    self.served[i] = false;
                }
            }
        }
        let lost = self.served.iter().filter(|s| !**s).count();
        Ok(BatchRun {
            compute_cycles: 1_000,
            redispatched_items: 0,
            lost_items: lost,
            quarantined_dpus: quarantined,
            repaired_dpus: Vec::new(),
            active_dpus: self.assign.clone(),
        })
    }

    fn gather(&mut self, buf: usize) -> Result<Gathered<u8>, pim_host::HostError> {
        assert_eq!(buf, 0);
        let outs = self.items.iter().zip(&self.served).map(|(&x, &ok)| ok.then_some(x)).collect();
        Ok((outs, self.items.len() as u64))
    }

    fn dirty(&self) -> bool {
        false
    }

    fn restore(&mut self) -> Result<(), pim_host::HostError> {
        Ok(())
    }
}

fn breaker_cfg() -> BreakerConfig {
    BreakerConfig {
        rank_dpus: 2,
        window: 4,
        trip_score: 100,
        cooldown_batches: 2,
        quarantine_weight: 50,
        repair_weight: 1,
    }
}

#[test]
fn breaker_ejects_sick_rank_and_readmits_after_clean_probe() {
    // 4 DPUs = 2 ranks of 2; DPU 3 (rank 1) quarantines until launch 6,
    // then heals. The breaker must trip rank 1, keep traffic off it, and
    // re-admit it after a clean probation probe.
    let mut engine = FlakyEngine::new(4, 3, 6);
    let mut t = Script::new(vec![Request { id: 0, arrival: 0, items: vec![7u8; 40] }]);
    let c = ServeConfig { breaker: Some(breaker_cfg()), record_outputs: true, ..cfg2() };
    let report = serve(&mut engine, &mut t, &c).expect("serve");

    assert!(report.metrics.counter(keys::SERVE_BREAKER_TRIPS) >= 2, "trip + failed probe re-trip");
    assert!(report.metrics.counter(keys::SERVE_BREAKER_PROBES) >= 2);
    assert_eq!(report.metrics.counter(keys::SERVE_BREAKER_READMITS), 1, "healed rank re-admitted");
    assert_eq!(report.metrics.gauge(keys::SERVE_BREAKER_RANKS), Some(2.0));
    assert_eq!(report.metrics.gauge(keys::SERVE_BREAKER_OPEN_RANKS), Some(0.0));
    let quarantines = report.metrics.counter(keys::SERVE_QUARANTINED_DPUS);
    assert!(
        (2..=4).contains(&quarantines),
        "trip after 2 quarantines, at most a couple of failed probes: {quarantines}"
    );
    // Lost items match quarantine events exactly (one item per sick DPU
    // per faulted batch) — everything else served.
    let got = flat_outputs2(&report);
    let lost = got.iter().filter(|o| o.is_none()).count() as u64;
    assert_eq!(lost, quarantines, "each quarantine loses exactly its one staged item");
    assert_eq!(got.len(), 40);
    assert!(!report.completions[0].served, "request lost items, completes degraded");
    assert_eq!(report.metrics.counter(keys::SERVE_FAILED), 1);
}

#[test]
fn breaker_open_rank_shrinks_admission_and_sheds_typed_overloaded() {
    // DPU 3 never heals: rank 1 ends the warmup run ejected. A burst of
    // single-item requests then arrives at an idle service; with one of
    // two ranks live, the queue bound shrinks from 4 to 2, so the burst
    // sheds with typed `Overloaded` rejections at depth 2.
    let mut engine = FlakyEngine::new(4, 3, u64::MAX);
    let mut reqs = vec![Request { id: 0, arrival: 0, items: vec![9u8; 40] }];
    for i in 1..=6u64 {
        reqs.push(Request { id: i, arrival: 1_000_000_000, items: vec![i as u8] });
    }
    let mut t = Script::new(reqs);
    let c = ServeConfig {
        queue_capacity: 4,
        breaker: Some(breaker_cfg()),
        record_outputs: true,
        ..cfg2()
    };
    let report = serve(&mut engine, &mut t, &c).expect("serve");

    assert_eq!(report.metrics.counter(keys::SERVE_BREAKER_READMITS), 0, "sick rank never heals");
    assert!(report.metrics.counter(keys::SERVE_BREAKER_TRIPS) >= 1);
    assert!(
        report.rejections.iter().any(|r| r.queue_depth == 2),
        "burst must shed at the shrunken bound (2 of 4): {:?}",
        report.rejections
    );
    let rejected = report.metrics.counter(keys::SERVE_REJECTED);
    assert_eq!(rejected as usize, report.rejections.len());
    assert_eq!(
        report.metrics.counter(keys::SERVE_COMPLETED)
            + report.metrics.counter(keys::SERVE_FAILED)
            + rejected,
        7,
        "every request completes, degrades, or sheds — none time out"
    );
}

/// `cfg()` pinned to `Vec<u8>` outputs; the breaker tests serve `u8`.
fn cfg2() -> ServeConfig {
    ServeConfig { record_outputs: true, ..ServeConfig::default() }
}

fn flat_outputs2(report: &ServeReport<u8>) -> Vec<Option<u8>> {
    report.outputs.iter().flat_map(|(_, items)| items.iter().copied()).collect()
}
