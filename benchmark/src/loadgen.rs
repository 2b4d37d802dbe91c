//! `loadgen` — the harness's own seeded traffic source.
//!
//! Arrival schedules come from `pim_serve`'s seeded open- and closed-loop
//! sources; what a request carries is decided here, from the same
//! splitmix64 stream, by drawing items from the workload's input pool.
//! The seed is the only input: the crates receive only generated items.

use pim_serve::Rng64;

/// A request-body generator: `lo..=hi` items drawn uniformly from `pool`.
pub fn picker<I: Clone>(
    pool: &[I],
    lo: u64,
    hi: u64,
) -> impl FnMut(&mut Rng64, u64) -> Vec<I> + '_ {
    assert!(!pool.is_empty(), "the input pool must not be empty");
    move |rng, _id| {
        let n = rng.range(lo, hi);
        (0..n).map(|_| pool[rng.range(0, pool.len() as u64 - 1) as usize].clone()).collect()
    }
}
