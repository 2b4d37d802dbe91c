//! Deterministic serving traffic generator.
//!
//! Replays seeded open- or closed-loop traffic against the eBNN serving
//! engine and reports p50/p99/p999 latency and goodput from the
//! `serve.*` metrics. `--compare` runs the same traffic through the
//! serial and double-buffered pipelines, prints the goodput speedup,
//! optionally gates it (`--min-speedup`) and writes a BENCH-style JSON
//! record (`--bench-json`).
//!
//! Everything is a pure function of `--seed` and the flags: two runs
//! with the same arguments print byte-identical `--json` output, which
//! the CI `serve-smoke` job asserts.

#![forbid(unsafe_code)]

use ebnn::codegen::encode_slot;
use ebnn::model::{EbnnModel, ModelConfig};
use pim_serve::{
    serve, write_stdout, BreakerConfig, ClosedLoop, EbnnServeEngine, LinkModel, OpenLoop,
    PipelineMode, Rng64, ServeConfig, ServeReport,
};
use std::fmt::Write as _;

#[derive(Debug, Clone)]
struct Args {
    mode: String,
    seed: u64,
    requests: u64,
    gap: u64,
    clients: u64,
    think: u64,
    items_lo: u64,
    items_hi: u64,
    dpus: usize,
    filters: usize,
    pipeline: PipelineMode,
    queue_depth: usize,
    delay: u64,
    bw: u64,
    fault_offline: f64,
    fault_dma: f64,
    fault_flip: f64,
    fault_hang: f64,
    fault_forced: Vec<u32>,
    fault_seed: u64,
    chaos: bool,
    json: bool,
    compare: bool,
    min_speedup: f64,
    bench_json: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            mode: "open".to_owned(),
            seed: 42,
            requests: 10_000,
            gap: 20_000,
            clients: 32,
            think: 200_000,
            items_lo: 1,
            items_hi: 4,
            dpus: 8,
            filters: 1,
            pipeline: PipelineMode::Double,
            queue_depth: 64,
            delay: 500_000,
            bw: pim_serve::DEFAULT_SERVE_LINK_BYTES_PER_SEC,
            fault_offline: 0.0,
            fault_dma: 0.0,
            fault_flip: 0.0,
            fault_hang: 0.0,
            fault_forced: Vec::new(),
            fault_seed: 0xF0CA,
            chaos: false,
            json: false,
            compare: false,
            min_speedup: 0.0,
            bench_json: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--mode open|closed] [--seed N] [--requests N] [--gap CYCLES]\n\
         \x20              [--clients N] [--think CYCLES] [--items LO..HI] [--dpus N]\n\
         \x20              [--filters N] [--pipeline serial|double] [--queue-depth N]\n\
         \x20              [--delay CYCLES] [--bw BYTES_PER_SEC]\n\
         \x20              [--fault-offline P] [--fault-dma P] [--fault-flip P]\n\
         \x20              [--fault-hang P] [--fault-forced CSV] [--fault-seed N]\n\
         \x20              [--chaos] [--json] [--compare [--min-speedup X] [--bench-json PATH]]\n\
         --chaos arms a seeded multi-fault campaign (flips, double flips, DMA aborts,\n\
         hangs, offline DPUs) with ECC + the circuit breaker, and prints a JSON\n\
         health report (corrections, ejected ranks, probe readmits, latency)."
    );
    std::process::exit(2);
}

/// Parse the command line. Every malformed or out-of-range flag is an
/// `Err` naming it, so `main` prints the usage text and exits 2 instead of
/// panicking inside the engine.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
    let mut a = Args::default();
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let flag = flag.as_str();
        let mut val = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--mode" => {
                a.mode = val()?;
                if a.mode != "open" && a.mode != "closed" {
                    return Err(format!("--mode: expected open or closed, got {:?}", a.mode));
                }
            }
            "--seed" => a.seed = num(flag, &val()?)?,
            "--requests" => a.requests = num(flag, &val()?)?,
            "--gap" => a.gap = num(flag, &val()?)?,
            "--clients" => a.clients = num(flag, &val()?)?,
            "--think" => a.think = num(flag, &val()?)?,
            "--items" => {
                let v = val()?;
                let (lo, hi) = v.split_once("..").unwrap_or((v.as_str(), v.as_str()));
                a.items_lo = num(flag, lo)?;
                a.items_hi = num(flag, hi)?;
            }
            "--dpus" => a.dpus = num(flag, &val()?)?,
            "--filters" => a.filters = num(flag, &val()?)?,
            "--pipeline" => {
                a.pipeline = match val()?.as_str() {
                    "serial" => PipelineMode::Serial,
                    "double" => PipelineMode::Double,
                    other => return Err(format!("--pipeline: unknown mode {other:?}")),
                }
            }
            "--queue-depth" => a.queue_depth = num(flag, &val()?)?,
            "--delay" => a.delay = num(flag, &val()?)?,
            "--bw" => a.bw = num(flag, &val()?)?,
            "--fault-offline" => a.fault_offline = num(flag, &val()?)?,
            "--fault-dma" => a.fault_dma = num(flag, &val()?)?,
            "--fault-flip" => a.fault_flip = num(flag, &val()?)?,
            "--fault-hang" => a.fault_hang = num(flag, &val()?)?,
            "--fault-forced" => {
                a.fault_forced = val()?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| num(flag, s))
                    .collect::<Result<_, _>>()?;
            }
            "--fault-seed" => a.fault_seed = num(flag, &val()?)?,
            "--chaos" => a.chaos = true,
            "--json" => a.json = true,
            "--compare" => a.compare = true,
            "--min-speedup" => a.min_speedup = num(flag, &val()?)?,
            "--bench-json" => a.bench_json = Some(val()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    let max_dpus = dpu_sim::params::SYSTEM_DPUS;
    if !(1..=max_dpus).contains(&a.dpus) {
        return Err(format!("--dpus: expected 1..={max_dpus}, got {}", a.dpus));
    }
    // `ebnn::codegen::WramLayout` fits at most 8 filters in WRAM.
    if !(1..=8).contains(&a.filters) {
        return Err(format!("--filters: expected 1..=8, got {}", a.filters));
    }
    if a.clients == 0 {
        return Err("--clients: expected at least 1".to_owned());
    }
    // A schedule must fit the simulated clock: every draw is at most twice
    // its mean, so the mode's `requests` draws stay under 2^48 cycles.
    let (flag, mean) = if a.mode == "closed" { ("--think", a.think) } else { ("--gap", a.gap) };
    if a.requests.checked_mul(mean).and_then(|c| c.checked_mul(2)).is_none_or(|c| c > 1 << 48) {
        return Err(format!("{flag}: {} requests of mean {mean} overrun 2^48 cycles", a.requests));
    }
    Ok(a)
}

fn policy(a: &Args) -> Option<pim_host::ResilientLaunchPolicy> {
    let armed = a.chaos
        || a.fault_offline > 0.0
        || a.fault_dma > 0.0
        || a.fault_flip > 0.0
        || a.fault_hang > 0.0
        || !a.fault_forced.is_empty();
    armed.then(|| {
        // `--chaos` fills in campaign defaults for any rate left at zero
        // (explicit --fault-* flags still win), and adds the SEC-DED
        // uncorrectable class, which has no standalone flag.
        let or_chaos = |explicit: f64, chaos_default: f64| {
            if a.chaos && explicit == 0.0 {
                chaos_default
            } else {
                explicit
            }
        };
        pim_host::ResilientLaunchPolicy::with_faults(dpu_sim::FaultPlan::new(
            dpu_sim::FaultConfig {
                seed: a.fault_seed,
                dpu_offline_prob: or_chaos(a.fault_offline, 0.04),
                dma_fail_prob: or_chaos(a.fault_dma, 0.08),
                bit_flip_prob: or_chaos(a.fault_flip, 0.08),
                double_flip_prob: if a.chaos { 0.04 } else { 0.0 },
                hang_prob: or_chaos(a.fault_hang, 0.04),
                forced_offline: a.fault_forced.clone(),
            },
        ))
    })
}

/// Pre-encode a deterministic pool of image slots; requests draw from it
/// so per-request item generation stays cheap and seed-stable.
fn slot_pool(model: &EbnnModel, seed: u64) -> Vec<Vec<u8>> {
    (0..64u64)
        .map(|i| {
            let img = ebnn::mnist::synth_digit((i % 10) as usize, seed ^ (i / 10));
            encode_slot(model, &img)
        })
        .collect()
}

fn run_once(a: &Args, pipeline: PipelineMode) -> (ServeReport<Vec<u8>>, Option<serde_json::Value>) {
    let model = EbnnModel::generate(ModelConfig { filters: a.filters, ..ModelConfig::default() });
    let pool = slot_pool(&model, a.seed);
    let mut engine =
        EbnnServeEngine::new(&model, a.dpus, pipeline, policy(a)).expect("engine builds");
    if a.chaos {
        engine.enable_ecc(true);
    }
    let cfg = ServeConfig {
        queue_capacity: a.queue_depth,
        max_batch_delay: a.delay,
        pipeline,
        link: LinkModel { bytes_per_sec: a.bw, ..LinkModel::default() },
        record_outputs: false,
        // Small ranks (4 per set by default) so the breaker can actually
        // eject under the chaos campaign's fault rates.
        breaker: a
            .chaos
            .then(|| BreakerConfig { rank_dpus: (a.dpus / 4).max(1), ..BreakerConfig::default() }),
    };
    let (lo, hi) = (a.items_lo.max(1), a.items_hi.max(a.items_lo.max(1)));
    let gen = move |rng: &mut Rng64, _id: u64| -> Vec<Vec<u8>> {
        let n = rng.range(lo, hi) as usize;
        (0..n).map(|_| pool[rng.range(0, 63) as usize].clone()).collect()
    };
    let report = if a.mode == "closed" {
        serve(&mut engine, &mut ClosedLoop::new(a.seed, a.clients, a.requests, a.think, gen), &cfg)
    } else {
        serve(&mut engine, &mut OpenLoop::new(a.seed, a.requests, a.gap, gen), &cfg)
    };
    let report = report.expect("serving run succeeds");
    let health = a.chaos.then(|| chaos_health(a, &mut engine, &report));
    (report, health)
}

/// The `--chaos` JSON health report: self-healing telemetry (corrections,
/// quarantines, breaker ejections/readmissions), a post-run residual
/// scrub of the serving set, and the latency/goodput quantiles.
fn chaos_health(
    a: &Args,
    engine: &mut EbnnServeEngine,
    r: &ServeReport<Vec<u8>>,
) -> serde_json::Value {
    use pim_trace::keys as k;
    let residual = engine.inner_mut().set_mut().scrub_all();
    let m = &r.metrics;
    let q = |p: f64| r.latency_quantile(p).unwrap_or(0.0);
    serde_json::json!({
        "schema": "pim-serve-chaos-v1",
        "shape": {
            "dpus": a.dpus,
            "requests": a.requests,
            "mode": a.mode,
            "seed": a.seed,
            "fault_seed": a.fault_seed,
        },
        "health": {
            "repaired_dpu_launches": m.counter(k::SERVE_REPAIRED_DPUS),
            "quarantined_dpu_launches": m.counter(k::SERVE_QUARANTINED_DPUS),
            "dma_corrected_words": engine.inner().set().dma_corrected_total(),
            "residual_scrub_corrected": residual.corrected(),
            "residual_uncorrectable_words": residual.uncorrectable.len(),
            "ejected_ranks": m.counter(k::SERVE_BREAKER_TRIPS),
            "probes": m.counter(k::SERVE_BREAKER_PROBES),
            "probe_readmits": m.counter(k::SERVE_BREAKER_READMITS),
        },
        "requests": {
            "completed": m.counter(k::SERVE_COMPLETED),
            "failed": m.counter(k::SERVE_FAILED),
            "rejected": m.counter(k::SERVE_REJECTED),
        },
        "latency_cycles": { "p50": q(0.50), "p99": q(0.99), "p999": q(0.999) },
        "goodput_ips": r.goodput_ips,
    })
}

fn summarize(tag: &str, r: &ServeReport<Vec<u8>>) -> String {
    use pim_trace::keys as k;
    let m = &r.metrics;
    let q = |p: f64| r.latency_quantile(p).unwrap_or(0.0);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "[{tag}] requests={} accepted={} rejected={} completed={} failed={}",
        m.counter(k::SERVE_REQUESTS),
        m.counter(k::SERVE_ACCEPTED),
        m.counter(k::SERVE_REJECTED),
        m.counter(k::SERVE_COMPLETED),
        m.counter(k::SERVE_FAILED),
    );
    let _ = writeln!(
        s,
        "[{tag}] batches={} cuts(full/deadline/drain)={}/{}/{} splits={} redispatched={}",
        m.counter(k::SERVE_BATCHES),
        m.counter(k::SERVE_CUTS_FULL),
        m.counter(k::SERVE_CUTS_DEADLINE),
        m.counter(k::SERVE_CUTS_DRAIN),
        m.counter(k::SERVE_SPLITS),
        m.counter(k::SERVE_REDISPATCHED_ITEMS),
    );
    let _ = writeln!(
        s,
        "[{tag}] latency_cycles p50={:.0} p99={:.0} p999={:.0}  goodput={:.1} items/s  \
         vtime={} cycles",
        q(0.50),
        q(0.99),
        q(0.999),
        r.goodput_ips,
        r.vtime_cycles,
    );
    s
}

fn main() {
    let a = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        if !msg.is_empty() {
            eprintln!("{msg}");
        }
        usage()
    });
    if a.compare {
        let (serial, _) = run_once(&a, PipelineMode::Serial);
        let (double, _) = run_once(&a, PipelineMode::Double);
        let speedup =
            if serial.goodput_ips > 0.0 { double.goodput_ips / serial.goodput_ips } else { 0.0 };
        let mut text = summarize("serial", &serial) + &summarize("double", &double);
        text += &format!("pipelined-vs-serial goodput speedup: {speedup:.3}x\n");
        if let Some(path) = &a.bench_json {
            let v = serde_json::json!({
                "schema": "pim-serve-compare-v1",
                "shape": {
                    "dpus": a.dpus,
                    "filters": a.filters,
                    "requests": a.requests,
                    "items": format!("{}..{}", a.items_lo, a.items_hi),
                    "mode": a.mode,
                    "seed": a.seed,
                    "link_bytes_per_sec": a.bw,
                },
                "serial": {
                    "goodput_ips": serial.goodput_ips,
                    "vtime_cycles": serial.vtime_cycles,
                },
                "double": {
                    "goodput_ips": double.goodput_ips,
                    "vtime_cycles": double.vtime_cycles,
                },
                "speedup": speedup,
            });
            let body = serde_json::to_string_pretty(&v).expect("serialize bench json");
            std::fs::write(path, body + "\n").expect("write bench json");
            text += &format!("wrote {path}\n");
        }
        // A closed pipe must not turn a failed gate into a pass.
        let failed = speedup < a.min_speedup;
        write_stdout(&text, i32::from(failed));
        if failed {
            eprintln!("FAIL: speedup {speedup:.3} < required {:.3}", a.min_speedup);
            std::process::exit(1);
        }
        return;
    }
    let (report, health) = run_once(&a, a.pipeline);
    if let Some(health) = health {
        let text = serde_json::to_string_pretty(&health).expect("serialize health");
        write_stdout(&(text + "\n"), 0);
    } else if a.json {
        let metrics = report.metrics.to_json();
        let text = serde_json::to_string_pretty(&metrics).expect("serialize metrics");
        write_stdout(&(text + "\n"), 0);
    } else {
        write_stdout(&summarize("serve", &report), 0);
    }
}
