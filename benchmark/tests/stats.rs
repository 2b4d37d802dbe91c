//! The percentile helper and its ten-samples-beyond rule.

use pim_e2e::stats::{median, percentile, MIN_BEYOND};

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    let p50 = percentile(&v, 0.5).unwrap();
    assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
    let p90 = percentile(&v, 0.9).unwrap();
    assert_eq!((p90.value, p90.beyond), (90.0, 10));
    assert_eq!(percentile(&v, 1.0).unwrap().value, 100.0);
    assert_eq!(percentile(&v, 0.0).unwrap().value, 1.0);
    // Order of the input does not matter.
    let mut shuffled = v.clone();
    shuffled.reverse();
    shuffled.swap(3, 71);
    assert_eq!(percentile(&shuffled, 0.9), Some(p90));
    assert_eq!(percentile(&[], 0.9), None);
}

#[test]
fn p90_is_supported_from_one_hundred_samples() {
    assert_eq!(MIN_BEYOND, 10);
    let of = |n: u32| percentile(&(0..n).map(f64::from).collect::<Vec<_>>(), 0.9).unwrap();
    // 100 samples: exactly ten lie beyond p90.
    assert_eq!(of(100).beyond, 10);
    assert!(of(100).supported());
    // 99 samples: rank 90 of 99 leaves nine.
    assert_eq!(of(99).beyond, 9);
    assert!(!of(99).supported());
    assert!(!of(12).supported());
    assert!(of(1_000).supported());
    // p99 needs a thousand.
    let p99 = |n: u32| percentile(&(0..n).map(f64::from).collect::<Vec<_>>(), 0.99).unwrap();
    assert!(!p99(999).supported());
    assert!(p99(1_000).supported());
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[5.0]), Some(5.0));
    assert_eq!(median(&[]), None);
    // One wild outlier does not move it.
    assert_eq!(median(&[1.0, 1.0, 1.0, 1.0, 1e9]), Some(1.0));
}
