//! Serving is bit-deterministic from a seed: a fixed-seed open-loop eBNN
//! serve on 8 DPUs, zero-fault and fault-armed behind the circuit breaker,
//! reproduces its completions, simulated end time, metrics and outputs on
//! a second run; and with no faults armed the served outputs do not depend
//! on whether staging overlaps compute.

use ebnn::codegen::encode_slot;
use ebnn::model::{EbnnModel, ModelConfig};
use pim_host::ResilientLaunchPolicy;
use pim_serve::{
    serve, BreakerConfig, EbnnServeEngine, OpenLoop, PipelineMode, Rng64, ServeConfig, ServeReport,
};
use pim_trace::keys;

const DPUS: usize = 8;
const SEED: u64 = 0x5EED;

fn model() -> EbnnModel {
    EbnnModel::generate(ModelConfig { filters: 2, ..ModelConfig::default() })
}

/// Serve 24 seeded requests of 1 to 6 images; `faults` arms a seeded
/// fault campaign and a breaker over ranks of two DPUs.
fn run(model: &EbnnModel, pipeline: PipelineMode, faults: bool) -> ServeReport<Vec<u8>> {
    let pool: Vec<Vec<u8>> = (0..16u64)
        .map(|i| encode_slot(model, &ebnn::mnist::synth_digit((i % 10) as usize, SEED ^ i)))
        .collect();
    let policy = faults.then(|| {
        ResilientLaunchPolicy::with_faults(dpu_sim::FaultPlan::new(dpu_sim::FaultConfig {
            seed: SEED,
            dpu_offline_prob: 0.05,
            dma_fail_prob: 0.1,
            bit_flip_prob: 0.1,
            hang_prob: 0.05,
            ..dpu_sim::FaultConfig::default()
        }))
    });
    let mut engine = EbnnServeEngine::new(model, DPUS, pipeline, policy).expect("engine builds");
    let cfg = ServeConfig {
        pipeline,
        record_outputs: true,
        breaker: faults.then(|| BreakerConfig { rank_dpus: 2, ..BreakerConfig::default() }),
        ..ServeConfig::default()
    };
    let gen = move |rng: &mut Rng64, _id: u64| -> Vec<Vec<u8>> {
        (0..rng.range(1, 6)).map(|_| pool[rng.range(0, 15) as usize].clone()).collect()
    };
    serve(&mut engine, &mut OpenLoop::new(SEED, 24, 40_000, gen), &cfg).expect("serve completes")
}

fn assert_same_run(a: &ServeReport<Vec<u8>>, b: &ServeReport<Vec<u8>>, label: &str) {
    assert_eq!(a.completions, b.completions, "{label}: completions");
    assert_eq!(a.vtime_cycles, b.vtime_cycles, "{label}: vtime_cycles");
    assert_eq!(a.metrics, b.metrics, "{label}: metrics");
    assert_eq!(a.outputs, b.outputs, "{label}: outputs");
}

#[test]
fn seeded_serving_repeats_bit_for_bit_with_and_without_faults() {
    let model = model();
    for faults in [false, true] {
        for pipeline in [PipelineMode::Serial, PipelineMode::Double] {
            let label = format!("{pipeline:?}, faults {faults}");
            let first = run(&model, pipeline, faults);
            assert_eq!(first.completions.len(), 24, "{label}: every request completes");
            let m = &first.metrics;
            let hit =
                m.counter(keys::SERVE_REPAIRED_DPUS) + m.counter(keys::SERVE_QUARANTINED_DPUS);
            assert_eq!(hit > 0, faults, "{label}: faults fired exactly when armed");
            assert_same_run(&first, &run(&model, pipeline, faults), &label);
        }
    }
}

#[test]
fn zero_fault_outputs_do_not_depend_on_the_pipeline() {
    let model = model();
    let serial = run(&model, PipelineMode::Serial, false);
    let double = run(&model, PipelineMode::Double, false);
    assert!(serial.completions.iter().all(|c| c.served));
    assert_eq!(serial.outputs, double.outputs);
    assert!(serial.outputs.iter().flat_map(|(_, items)| items).all(Option::is_some));
}
