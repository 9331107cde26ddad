//! Offline stand-in for `criterion`'s measurement core.
//!
//! The build environment has no registry access, so this vendored crate
//! provides the one piece the workspace's `bench_runner` binary uses: the
//! measurement procedure in [`measure`] (and its interleaved A/B form
//! [`measure_paired`]) — warmup iterations (discarded) followed by `N`
//! timed samples, with MAD-based outlier rejection (samples farther than
//! `3·MAD` from the median are dropped) and the median of the surviving
//! samples reported as a [`Measurement`], so the runner can persist
//! machine-readable numbers.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark measurement: warmup + samples + MAD outlier rejection.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Median of the samples surviving outlier rejection.
    pub median: Duration,
    /// Median absolute deviation of *all* samples around their median —
    /// the robust spread estimate the rejection rule is based on.
    pub mad: Duration,
    /// Samples taken (after warmup).
    pub samples: usize,
    /// Samples rejected as outliers (farther than `3·MAD` from the median).
    pub rejected: usize,
}

/// Runs `f` `warmup` times unrecorded, then `samples` recorded times, and
/// reduces the timings to a [`Measurement`]: the median of the samples
/// within `3·MAD` of the raw median. With `MAD = 0` (quiescent machine, or
/// timer granularity) nothing is rejected.
pub fn measure<R, F: FnMut() -> R>(warmup: usize, samples: usize, mut f: F) -> Measurement {
    for _ in 0..warmup {
        black_box(f());
    }
    let samples = samples.max(1);
    let mut times: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        black_box(f());
        times.push(start.elapsed());
    }
    reduce_samples(times)
}

/// Measures two kernels with **interleaved** samples in ABBA order: pair
/// `2i` runs `a` then `b`, pair `2i+1` runs `b` then `a`. Any drift that
/// is slow against the pair period (thermal throttling, a background
/// process ramping up) then hits both kernels equally, so their *medians
/// stay comparable* — exactly what back-to-back [`measure`] calls cannot
/// guarantee on a noisy machine. Use for A/B comparisons (cached vs
/// rebuilt, before vs after); the absolute numbers mean the same as
/// [`measure`]'s.
pub fn measure_paired<RA, RB, FA, FB>(
    warmup: usize,
    samples: usize,
    mut a: FA,
    mut b: FB,
) -> (Measurement, Measurement)
where
    FA: FnMut() -> RA,
    FB: FnMut() -> RB,
{
    for _ in 0..warmup {
        black_box(a());
        black_box(b());
    }
    let samples = samples.max(1);
    let mut times_a: Vec<Duration> = Vec::with_capacity(samples);
    let mut times_b: Vec<Duration> = Vec::with_capacity(samples);
    let mut time_a = |times_a: &mut Vec<Duration>| {
        let start = Instant::now();
        black_box(a());
        times_a.push(start.elapsed());
    };
    let mut time_b = |times_b: &mut Vec<Duration>| {
        let start = Instant::now();
        black_box(b());
        times_b.push(start.elapsed());
    };
    for i in 0..samples {
        if i % 2 == 0 {
            time_a(&mut times_a);
            time_b(&mut times_b);
        } else {
            time_b(&mut times_b);
            time_a(&mut times_a);
        }
    }
    (reduce_samples(times_a), reduce_samples(times_b))
}

/// The shared sample reduction: median of the samples within `3·MAD` of
/// the raw median (see [`measure`]).
fn reduce_samples(times: Vec<Duration>) -> Measurement {
    let samples = times.len();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    let raw_median = sorted[sorted.len() / 2];
    let mut deviations: Vec<Duration> = times.iter().map(|&t| t.abs_diff(raw_median)).collect();
    deviations.sort_unstable();
    let mad = deviations[deviations.len() / 2];
    let cutoff = raw_median + 3 * mad;
    let floor = raw_median.saturating_sub(3 * mad);
    let mut kept: Vec<Duration> = times
        .iter()
        .copied()
        .filter(|&t| t >= floor && t <= cutoff)
        .collect();
    let rejected = samples - kept.len();
    kept.sort_unstable();
    Measurement {
        median: kept[kept.len() / 2],
        mad,
        samples,
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_runs_warmup_and_samples() {
        let mut calls = 0u32;
        let m = measure(2, 5, || calls += 1);
        assert_eq!(calls, 7, "warmup runs must execute but not be recorded");
        assert_eq!(m.samples, 5);
        assert!(m.rejected < 5, "median itself can never be rejected");
    }

    #[test]
    fn measure_paired_interleaves_and_records_both() {
        let mut a_calls = 0u32;
        let mut b_calls = 0u32;
        let (ma, mb) = measure_paired(2, 6, || a_calls += 1, || b_calls += 1);
        assert_eq!(a_calls, 8, "2 warmup + 6 samples for kernel a");
        assert_eq!(b_calls, 8, "2 warmup + 6 samples for kernel b");
        assert_eq!(ma.samples, 6);
        assert_eq!(mb.samples, 6);
        // A deliberately slower kernel must measure slower than a faster
        // one even though their samples interleave.
        let (fast, slow) = measure_paired(
            1,
            5,
            || std::thread::sleep(std::time::Duration::from_micros(100)),
            || std::thread::sleep(std::time::Duration::from_micros(900)),
        );
        assert!(fast.median < slow.median);
    }

    #[test]
    fn mad_rejection_discards_a_single_spike() {
        // 9 fast runs and one deliberate spike: the spike must be rejected
        // whenever the fast runs show any timer-visible spread (MAD > 0);
        // with MAD == 0 the cutoff collapses to the median and the spike is
        // rejected too. Either way the median must stay at fast-run scale.
        let mut i = 0;
        let m = measure(0, 10, || {
            i += 1;
            if i == 4 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            } else {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
        assert!(
            m.median < std::time::Duration::from_millis(15),
            "median {:?} dragged up by the spike",
            m.median
        );
        assert!(m.rejected >= 1, "spike not rejected (mad = {:?})", m.mad);
    }
}
