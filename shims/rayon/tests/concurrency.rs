//! Concurrency suite for the work-stealing shim: parallel execution must be
//! observationally identical to sequential execution (a 1-thread pool runs
//! everything inline, so it is the sequential reference), and nested
//! `install` must never deadlock.

use rayon::prelude::*;
use rayon::{current_num_threads, ThreadPool, ThreadPoolBuilder};

const N: usize = 1_000_000;

fn pool(n: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

/// Runs `f` on a 1-thread (sequential reference) and a 4-thread pool and
/// asserts identical results.
fn assert_matches_sequential<R: PartialEq + std::fmt::Debug + Send>(
    f: impl Fn() -> R + Send + Sync,
) {
    let sequential = pool(1).install(&f);
    let parallel = pool(4).install(&f);
    assert_eq!(sequential, parallel);
}

#[test]
fn map_collect_identical_over_1m_items() {
    assert_matches_sequential(|| {
        (0..N)
            .into_par_iter()
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect::<Vec<u64>>()
    });
}

#[test]
fn reduce_identical_over_1m_items() {
    // Integer sum: associative, so chunked combining must be exact.
    assert_matches_sequential(|| {
        (0..N as u64)
            .into_par_iter()
            .map(|x| x * 3 + 1)
            .reduce(|| 0, u64::wrapping_add)
    });
}

#[test]
fn float_minmax_reduce_identical_over_1m_items() {
    // f64 min/max are associative and commutative: bit-identical under any
    // chunking. This is the shape of every hot reduction in the workspace.
    assert_matches_sequential(|| {
        (0..N)
            .into_par_iter()
            .map(|i| ((i as f64) * 0.731).sin())
            .reduce(|| f64::NEG_INFINITY, f64::max)
    });
}

#[test]
fn argmax_with_tie_break_identical_over_1m_items() {
    // The GMM farthest-point pattern: (index, value) argmax where earlier
    // indices win ties. Lots of ties by construction (i % 1000).
    assert_matches_sequential(|| {
        (0..N)
            .into_par_iter()
            .map(|i| (i, (i % 1000) as f64))
            .reduce(
                || (usize::MAX, f64::NEG_INFINITY),
                |a, b| if a.1 >= b.1 { a } else { b },
            )
    });
}

#[test]
fn for_each_writes_identical_over_1m_items() {
    assert_matches_sequential(|| {
        let mut v = vec![0u32; N];
        v.par_iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x = (i as u32).rotate_left(7));
        v
    });
}

#[test]
fn filter_and_flat_map_preserve_input_order() {
    assert_matches_sequential(|| {
        (0..100_000usize)
            .into_par_iter()
            .filter(|&x| x % 7 == 0)
            .collect::<Vec<usize>>()
    });
    assert_matches_sequential(|| {
        (0..10_000usize)
            .into_par_iter()
            .flat_map_iter(|i| (0..i % 5).map(move |j| i * 10 + j))
            .collect::<Vec<usize>>()
    });
}

#[test]
fn float_sum_matches_iterator_exactly() {
    // Non-associative f64 addition: the shim sums mapped values
    // sequentially in input order, so the result must equal Iterator::sum
    // bit-for-bit on any pool.
    let expected: f64 = (0..N).map(|i| 1.0 / (i as f64 + 1.0)).sum();
    let got: f64 = pool(4).install(|| (0..N).into_par_iter().map(|i| 1.0 / (i as f64 + 1.0)).sum());
    assert_eq!(expected.to_bits(), got.to_bits());
}

#[test]
fn nested_install_does_not_deadlock() {
    // Parallel work that, inside each chunk, installs another pool and runs
    // more parallel work — the MapReduce engine's reducer shape.
    let outer = pool(4);
    let inner = pool(3);
    let total: u64 = outer.install(|| {
        (0..64u64)
            .into_par_iter()
            .map(|i| {
                inner.install(|| {
                    assert_eq!(current_num_threads(), 3);
                    (0..1000u64).into_par_iter().map(|j| i + j).sum::<u64>()
                })
            })
            .sum()
    });
    let expected: u64 = (0..64u64)
        .map(|i| (0..1000u64).map(|j| i + j).sum::<u64>())
        .sum();
    assert_eq!(total, expected);
}

#[test]
fn nested_same_pool_does_not_deadlock() {
    // Submitting to the pool from within the pool's own job (workers and
    // the participating caller both re-enter the scheduler).
    let p = pool(4);
    let total: u64 = p.install(|| {
        (0..32u64)
            .into_par_iter()
            .map(|i| {
                (0..2000u64)
                    .into_par_iter()
                    .map(|j| i * j % 97)
                    .sum::<u64>()
            })
            .sum()
    });
    let expected: u64 = (0..32u64)
        .map(|i| (0..2000u64).map(|j| i * j % 97).sum::<u64>())
        .sum();
    assert_eq!(total, expected);
}

#[test]
fn concurrent_submissions_from_many_threads() {
    // One shared pool hammered from 8 OS threads at once.
    let p = std::sync::Arc::new(pool(4));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let p = std::sync::Arc::clone(&p);
            std::thread::spawn(move || {
                p.install(|| {
                    (0..50_000u64)
                        .into_par_iter()
                        .map(|x| x ^ t)
                        .reduce(|| 0, u64::wrapping_add)
                })
            })
        })
        .collect();
    for (t, h) in handles.into_iter().enumerate() {
        let got = h.join().unwrap();
        let expected = (0..50_000u64).map(|x| x ^ t as u64).sum::<u64>();
        assert_eq!(got, expected);
    }
}

#[test]
fn par_chunks_matches_sequential_chunking() {
    assert_matches_sequential(|| {
        let v: Vec<u64> = (0..N as u64).collect();
        v.par_chunks(4096)
            .map(|c| c.iter().copied().fold(0u64, u64::wrapping_add))
            .collect::<Vec<u64>>()
    });
}

#[test]
fn adaptive_splitter_stays_within_bounds_under_load() {
    // Hammer a pool with deliberately uneven jobs (per-item cost grows with
    // the index, so late chunks are much heavier): whatever the steal
    // feedback does, the target must stay inside [2, 16] chunks/thread and
    // results must remain bit-identical to sequential execution.
    let p = pool(4);
    for round in 0..64u64 {
        let got: u64 = p.install(|| {
            (0..20_000u64)
                .into_par_iter()
                .map(|i| {
                    let spin = (i / 1000) % 7; // uneven per-item cost
                    (0..spin).fold(i ^ round, |a, b| a.wrapping_mul(b | 1))
                })
                .reduce(|| 0, u64::wrapping_add)
        });
        let expected: u64 = (0..20_000u64)
            .map(|i| {
                let spin = (i / 1000) % 7;
                (0..spin).fold(i ^ round, |a, b| a.wrapping_mul(b | 1))
            })
            .fold(0, u64::wrapping_add);
        assert_eq!(got, expected, "divergence in round {round}");
        let cpt = p.install(rayon::current_chunks_per_thread);
        assert!(
            (2..=16).contains(&cpt),
            "chunks/thread out of bounds: {cpt}"
        );
    }
}

#[test]
fn adaptive_chunk_len_is_positive_and_covers_the_input() {
    let p = pool(4);
    p.install(|| {
        for len in [0usize, 1, 2, 7, 100, 10_000] {
            for cost in [0usize, 1, 64, 10_000] {
                let chunk = rayon::adaptive_chunk_len(len, cost);
                assert!(chunk >= 1, "chunk length 0 for len = {len}");
                assert!(chunk <= len.max(1), "chunk {chunk} exceeds len {len}");
            }
        }
    });
    // Inline (1-thread) execution never splits.
    assert_eq!(
        pool(1).install(|| rayon::adaptive_chunk_len(5_000, 1)),
        5_000
    );
    assert_eq!(pool(1).install(rayon::current_chunks_per_thread), 1);
}

#[test]
fn adaptive_chunk_len_honours_the_work_grain() {
    // The grain is 4096 distance evaluations per chunk.
    let p = pool(4);
    p.install(|| {
        // Below the grain in total: one chunk, whatever the per-item cost.
        assert_eq!(rayon::adaptive_chunk_len(1408, 1), 1408);
        assert_eq!(rayon::adaptive_chunk_len(4095, 1), 4095);
        assert_eq!(rayon::adaptive_chunk_len(63, 64), 63);
        assert_eq!(rayon::adaptive_chunk_len(2, 2047), 2);
        // Above it, every chunk carries at least the grain's worth.
        for (len, cost) in [(20_000usize, 1usize), (100_000, 1), (1760, 1760), (500, 50)] {
            let chunk = rayon::adaptive_chunk_len(len, cost);
            assert!(chunk <= len, "chunk {chunk} exceeds len {len}");
            assert!(
                chunk * cost >= 4096,
                "chunk {chunk} × cost {cost} is below the grain"
            );
        }
        // Expensive items keep the splitter's layout: an O(n²) ball pass
        // over 1760 points still splits into several chunks.
        assert!(rayon::adaptive_chunk_len(1760, 1760) < 1760);
    });
    // At one thread nothing is split, however much work there is.
    for (len, cost) in [(1usize, 1usize), (4095, 1), (100_000, 1), (1760, 1760)] {
        assert_eq!(
            pool(1).install(|| rayon::adaptive_chunk_len(len, cost)),
            len
        );
    }
}

#[test]
fn adaptive_layout_changes_never_change_results() {
    // Interleave saturating jobs (no steals → coarsen) with tiny uneven
    // jobs (steals → refine) and check a pinned reduction after every
    // adjustment window; the layout may move, the value may not.
    let p = pool(3);
    let reference: u64 = (0..50_000u64).map(|x| x.rotate_left(11) ^ 0xA5A5).sum();
    for _ in 0..40 {
        let got: u64 = p.install(|| {
            (0..50_000u64)
                .into_par_iter()
                .map(|x| x.rotate_left(11) ^ 0xA5A5)
                .reduce(|| 0, u64::wrapping_add)
        });
        assert_eq!(got, reference);
        // A micro-job whose chunks all land on one worker invites steals.
        let tiny: Vec<u64> = p.install(|| (0..16u64).into_par_iter().map(|x| x * x).collect());
        assert_eq!(tiny, (0..16u64).map(|x| x * x).collect::<Vec<_>>());
    }
}
