//! Host-speed calibration.
//!
//! A shared host's speed drifts by ±15–20% over minutes (neighbours on the
//! same cores), far more than a run can average away.  The benchmark
//! therefore times a fixed kernel of its own between points and reports
//! host times in reference-host units: a time is divided by the host factor
//! `median(kernel ms) / REFERENCE_MS` of its pass, and a rate multiplied by
//! it.  The kernel is the benchmark's own code, so a change to the program
//! under test never moves it.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Median kernel time (ms) on the reference host (2 vCPUs at 2.0 GHz);
/// the factor is 1 there.  Only scales the reported times.
pub const REFERENCE_MS: f64 = 1.5;

/// The calibration kernel: a fixed mix of the work a discrete-event
/// simulator does — random draws with a logarithm, hash-map updates, a
/// binary heap as a future event list, and short-lived vectors.
pub fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table: HashMap<u64, u64> = HashMap::with_capacity(4096);
    let mut heap: BinaryHeap<(u64, u64)> = BinaryHeap::with_capacity(256);
    let mut acc = 0u64;
    for i in 0..6_000u64 {
        let r = next();
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        let delay = (-(1.0 - u).ln() * 1e3) as u64;
        heap.push((u64::MAX - (i + delay), r));
        if heap.len() > 128 {
            let (_, payload) = heap.pop().expect("the heap is not empty");
            *table.entry(payload % 3_000).or_insert(0) += 1;
        }
        let refs: Vec<u64> = (0..4).map(|k| r.rotate_left(k * 16) % 3_000).collect();
        acc = refs
            .iter()
            .fold(acc, |a, k| a.wrapping_add(*table.get(k).unwrap_or(&0)));
    }
    acc ^ table.len() as u64
}

/// Host milliseconds of one kernel run.
pub fn sample_ms() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64() * 1e3
}

/// Host factor of a set of samples: median kernel time over the reference
/// time.
pub fn factor(samples_ms: &[f64]) -> f64 {
    if samples_ms.is_empty() {
        1.0
    } else {
        median(samples_ms) / REFERENCE_MS
    }
}

/// Host factors of consecutive timed items.  `kernel_ms[i]` was sampled
/// right before item `i` and `kernel_ms[i + 1]` right after it, so there is
/// one more sample than items; item `i`'s factor is that of samples
/// `i - radius ..= i + 1 + radius`, which follows the host's drift while
/// the median rides over a single disturbed sample.
pub fn local_factors(kernel_ms: &[f64], radius: usize) -> Vec<f64> {
    let items = kernel_ms.len().saturating_sub(1);
    (0..items)
        .map(|i| {
            let lo = i.saturating_sub(radius);
            let hi = (i + 2 + radius).min(kernel_ms.len());
            factor(&kernel_ms[lo..hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn factor_is_the_median_over_the_reference() {
        assert_eq!(factor(&[]), 1.0);
        let f = factor(&[REFERENCE_MS, 2.0 * REFERENCE_MS, 9.0 * REFERENCE_MS]);
        assert!((f - 2.0).abs() < 1e-12);
        assert!(sample_ms() > 0.0);
    }

    #[test]
    fn local_factors_use_the_samples_around_each_item() {
        let r = REFERENCE_MS;
        let kernel = [r, 3.0 * r, r, 9.0 * r];
        // Three items; radius 0 pairs the samples before and after each.
        assert_eq!(local_factors(&kernel, 0), vec![2.0, 2.0, 5.0]);
        // Radius 1 widens to a median over up to four samples.
        assert_eq!(local_factors(&kernel, 1), vec![1.0, 2.0, 3.0]);
        assert!(local_factors(&[r], 2).is_empty());
    }
}
