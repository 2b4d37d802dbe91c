//! Traffic generation is a pure function of the seed.

use pim_e2e::loadgen::picker;
use pim_e2e::workload::{derive_seed, find, EbnnKernel, Kernel, Load, Stream, YoloKernel};
use pim_serve::{ClosedLoop, OpenLoop, Traffic, TrafficStep};

/// Every arrival of round 0 of an open-loop eBNN workload, serialised.
fn open_loop_bytes(seed: u64) -> Vec<u8> {
    let spec = find("ebnn_rank64").unwrap();
    let kernel = EbnnKernel::generate(spec, seed);
    let Load::Open { mean_gap, items: (lo, hi) } = spec.load else { panic!("open loop") };
    let mut traffic = OpenLoop::new(
        derive_seed(seed, Stream::Round(0)),
        spec.requests,
        mean_gap,
        picker(kernel.pool(), lo, hi),
    );
    let mut bytes = Vec::new();
    let mut requests = 0;
    while let TrafficStep::Arrival(r) = traffic.next() {
        requests += 1;
        assert!((lo..=hi).contains(&(r.items.len() as u64)));
        bytes.extend_from_slice(&r.id.to_le_bytes());
        bytes.extend_from_slice(&r.arrival.to_le_bytes());
        for item in &r.items {
            bytes.extend_from_slice(item);
        }
    }
    assert_eq!(requests, spec.requests);
    bytes
}

#[test]
fn open_loop_traffic_is_byte_identical_for_a_fixed_seed() {
    let a = open_loop_bytes(7);
    assert_eq!(a, open_loop_bytes(7));
    assert_ne!(a, open_loop_bytes(8));
}

#[test]
fn closed_loop_first_wave_is_identical_for_a_fixed_seed() {
    let spec = find("yolo_rows16").unwrap();
    let Load::Closed { clients, think, items } = spec.load else { panic!("closed loop") };
    let wave = |seed: u64| {
        let kernel = YoloKernel::generate(spec, seed);
        let mut traffic = ClosedLoop::new(
            derive_seed(seed, Stream::Round(0)),
            clients,
            spec.requests,
            think,
            picker(kernel.pool(), items, items),
        );
        let mut out = Vec::new();
        // Every client issues once, then all wait for completions.
        while let TrafficStep::Arrival(r) = traffic.next() {
            assert_eq!(r.items.len() as u64, items);
            out.push((r.id, r.arrival, r.items));
        }
        assert_eq!(out.len() as u64, clients);
        out
    };
    assert_eq!(wave(7), wave(7));
    assert_ne!(wave(7), wave(8));
}

#[test]
fn seed_streams_are_distinct() {
    let streams = [
        Stream::Model,
        Stream::Pool,
        Stream::Faults,
        Stream::Link,
        Stream::Warmup,
        Stream::Round(0),
        Stream::Round(1),
    ];
    let seeds: std::collections::BTreeSet<u64> =
        streams.iter().map(|&s| derive_seed(42, s)).collect();
    assert_eq!(seeds.len(), streams.len());
    assert_ne!(derive_seed(42, Stream::Round(0)), derive_seed(43, Stream::Round(0)));
}

#[test]
fn pool_items_match_the_host_oracle_shape() {
    let spec = find("yolo_rows16").unwrap();
    let kernel = YoloKernel::generate(spec, 1);
    assert_eq!(kernel.pool().len(), 64);
    let out = kernel.oracle(&kernel.pool()[0]);
    assert_eq!(out.len(), 169);
    // Outputs are not saturated: a wrong accumulation would show.
    assert!(out.iter().any(|&v| v.abs() < 32767 && v != 0));
}
