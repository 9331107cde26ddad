//! The MapReduce round executor.
//!
//! A round transforms a multiset of key–value pairs by applying a mapper to
//! every pair independently, grouping the results by key (the shuffle), and
//! applying a reducer to every group independently — the MR model of the
//! paper's §2.1. `ℓ` counts reducers, the model's logical machines, not OS
//! threads: the caller partitions into `ℓ` groups and the memory report
//! accounts `ℓ` reducers, while map and reduce phases run on a dedicated
//! rayon pool of `min(ℓ, rayon::current_num_threads())` threads — outside
//! any pool that is `RAYON_NUM_THREADS` or the hardware thread count. The
//! cap changes scheduling only; every round's output is the same at any
//! thread count.
//!
//! Reducers are ordinary closures and may resolve shared, even persistent,
//! state: the outlier algorithms' round 2 prices its coreset union into a
//! `kcenter_metric::CachedOracle` inside the reducer, which — when the
//! process has a persistent store installed (`KCENTER_CACHE_DIR`) — loads
//! a previously priced matrix from disk instead of rebuilding it. The
//! engine itself stays oblivious; determinism of the round output is
//! preserved because loaded artifacts are bitwise what a rebuild would
//! produce.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use rayon::prelude::*;

use crate::memory::{MemoryReport, RoundStats};

/// A MapReduce engine with fixed parallelism and accumulated memory
/// accounting.
pub struct MapReduceEngine {
    pool: rayon::ThreadPool,
    parallelism: usize,
    report: Mutex<MemoryReport>,
}

impl MapReduceEngine {
    /// Creates an engine simulating `parallelism` processors, scheduled on
    /// `min(parallelism, rayon::current_num_threads())` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism == 0` or the thread pool cannot be built.
    pub fn new(parallelism: usize) -> Self {
        assert!(parallelism > 0, "parallelism must be positive");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(parallelism.min(rayon::current_num_threads()))
            .build()
            .expect("failed to build rayon pool");
        MapReduceEngine {
            pool,
            parallelism,
            report: Mutex::new(MemoryReport::default()),
        }
    }

    /// The configured parallelism `ℓ`.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Snapshot of the memory accounting over all rounds run so far.
    pub fn memory_report(&self) -> MemoryReport {
        self.report().clone()
    }

    /// The accounting lock. Every update is one `record` push, which
    /// leaves the report valid, so a poisoned lock is taken over as is.
    fn report(&self) -> MutexGuard<'_, MemoryReport> {
        self.report.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Executes one MapReduce round.
    ///
    /// `mapper` transforms each input item into a key–value pair; pairs are
    /// grouped by key; `reducer` consumes each `(key, values)` group and
    /// emits output items. Reducer outputs are concatenated in key order, so
    /// the result is deterministic regardless of thread scheduling.
    pub fn round<I, K, V, O, MF, RF>(&self, inputs: Vec<I>, mapper: MF, reducer: RF) -> Vec<O>
    where
        I: Send,
        K: Ord + Send,
        V: Send,
        O: Send,
        MF: Fn(I) -> (K, V) + Sync,
        RF: Fn(&K, Vec<V>) -> Vec<O> + Sync,
    {
        let total_inputs = inputs.len();
        self.pool.install(|| {
            // Map phase.
            let pairs: Vec<(K, V)> = inputs.into_par_iter().map(&mapper).collect();

            // Shuffle: group by key. BTreeMap gives deterministic key order.
            let mut groups: BTreeMap<K, Vec<V>> = BTreeMap::new();
            for (k, v) in pairs {
                groups.entry(k).or_default().push(v);
            }

            let stats = RoundStats {
                reducers: groups.len(),
                max_reducer_load: groups.values().map(Vec::len).max().unwrap_or(0),
                total_pairs: total_inputs,
            };
            self.report().record(stats);

            // Reduce phase, parallel over key groups; key order preserved in
            // the output by collecting per-group vectors first.
            let groups: Vec<(K, Vec<V>)> = groups.into_iter().collect();
            let reduced: Vec<Vec<O>> = groups
                .into_par_iter()
                .map(|(k, vs)| reducer(&k, vs))
                .collect();
            reduced.into_iter().flatten().collect()
        })
    }

    /// Runs a closure inside the engine's thread pool (used by algorithms
    /// for parallel work outside strict MapReduce rounds — e.g. the final
    /// radius evaluation over the full dataset — so that *all* parallelism
    /// in an experiment runs on the engine's threads).
    pub fn run_scoped<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        self.pool.install(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_count_round() {
        let engine = MapReduceEngine::new(4);
        let words = vec!["a", "b", "a", "c", "b", "a"];
        let counts: Vec<(String, usize)> = engine.round(
            words,
            |w| (w.to_string(), 1usize),
            |k, vs| vec![(k.clone(), vs.len())],
        );
        assert_eq!(
            counts,
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 2),
                ("c".to_string(), 1)
            ]
        );
    }

    #[test]
    fn memory_accounting_tracks_loads() {
        let engine = MapReduceEngine::new(2);
        let items: Vec<u32> = (0..100).collect();
        // Key 0 gets 50 items, key 1 gets 50 items.
        let _ = engine.round(items, |x| (x % 2, x), |_, vs| vec![vs.len()]);
        let report = engine.memory_report();
        assert_eq!(report.round_count(), 1);
        assert_eq!(report.rounds[0].reducers, 2);
        assert_eq!(report.rounds[0].max_reducer_load, 50);
        assert_eq!(report.rounds[0].total_pairs, 100);
        assert_eq!(report.local_memory(), 50);
        assert_eq!(report.aggregate_memory(), 100);
    }

    #[test]
    fn two_round_pipeline() {
        // Round 1: per-partition maxima; round 2: global maximum. The shape
        // of every algorithm in the paper.
        let engine = MapReduceEngine::new(4);
        let items: Vec<u64> = (0..1000).rev().collect();
        let partials = engine.round(
            items,
            |x| (x % 8, x),
            |_, vs| vec![vs.into_iter().max().unwrap()],
        );
        assert_eq!(partials.len(), 8);
        let global = engine.round(
            partials,
            |x| ((), x),
            |_, vs| vec![vs.into_iter().max().unwrap()],
        );
        assert_eq!(global, vec![999]);
        assert_eq!(engine.memory_report().round_count(), 2);
    }

    /// The engine's thread count when built at the current scope: `ℓ`
    /// capped at the scope's threads (`RAYON_NUM_THREADS` or the hardware
    /// count outside any pool).
    fn expected_threads(ell: usize) -> usize {
        ell.min(rayon::current_num_threads())
    }

    #[test]
    fn reduce_runs_with_configured_parallelism() {
        // ℓ = 3 reducers run on min(3, machine) threads; ℓ itself is kept.
        let observe = |engine: &MapReduceEngine| -> Vec<usize> {
            engine.round(
                (0..64u32).collect(),
                |x| (x % 16, x),
                |_, _| vec![rayon::current_num_threads()],
            )
        };
        let engine = MapReduceEngine::new(3);
        assert_eq!(engine.parallelism(), 3);
        let observed = observe(&engine);
        assert_eq!(observed.len(), 16);
        assert!(observed.iter().all(|&t| t == expected_threads(3)));

        // Built inside a pool, the cap is that pool's size: below ℓ it
        // wins, above ℓ the engine keeps ℓ threads.
        for (outer, want) in [(1, 1), (2, 2), (8, 3)] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(outer)
                .build()
                .unwrap();
            let engine = pool.install(|| MapReduceEngine::new(3));
            assert_eq!(engine.parallelism(), 3);
            let observed = observe(&engine);
            assert!(
                observed.iter().all(|&t| t == want),
                "ℓ = 3 inside a {outer}-thread pool: {observed:?}"
            );
        }
    }

    #[test]
    fn many_reducers_share_the_machines_threads() {
        // ℓ = 64 logical reducers run on at most min(64, machine) OS
        // threads (counted by id: worker names repeat across pools), and
        // the accounting still shows 64 reducers.
        use std::collections::HashSet;
        use std::thread::ThreadId;
        let engine = MapReduceEngine::new(64);
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let out: Vec<usize> = engine.round(
            (0..640usize).collect(),
            |x| (x % 64, x),
            |_, vs| {
                seen.lock().unwrap().insert(std::thread::current().id());
                // Keep reducers busy long enough for every thread to claim some.
                std::thread::sleep(std::time::Duration::from_millis(1));
                vec![vs.len()]
            },
        );
        assert_eq!(out, vec![10; 64]);
        let threads = seen.into_inner().unwrap().len();
        assert!(threads >= 1);
        assert!(
            threads <= expected_threads(64),
            "{threads} threads ran reducers, cap is {}",
            expected_threads(64)
        );
        assert_eq!(engine.parallelism(), 64);
        let report = engine.memory_report();
        assert_eq!(report.rounds[0].reducers, 64);
        assert_eq!(report.rounds[0].max_reducer_load, 10);
    }

    #[test]
    fn output_is_deterministic_across_runs() {
        let run = || {
            let engine = MapReduceEngine::new(4);
            let items: Vec<u32> = (0..512).collect();
            engine.round(
                items,
                |x| (x % 7, x * 3),
                |k, vs| vec![(*k, vs.iter().sum::<u32>())],
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let engine = MapReduceEngine::new(2);
        let out: Vec<u32> = engine.round(Vec::<u32>::new(), |x| (x, x), |_, vs| vs);
        assert!(out.is_empty());
        assert_eq!(engine.memory_report().rounds[0].reducers, 0);
    }

    #[test]
    #[should_panic(expected = "parallelism must be positive")]
    fn zero_parallelism_panics() {
        let _ = MapReduceEngine::new(0);
    }

    #[test]
    fn iterative_multi_round_convergence() {
        // An MPC-style iterative job: repeatedly halve the number of
        // partial aggregates until one remains; every round is accounted.
        let engine = MapReduceEngine::new(4);
        let mut values: Vec<u64> = (1..=256).collect();
        let mut rounds = 0;
        while values.len() > 1 {
            let groups = (values.len() / 2).max(1);
            values = engine.round(
                values.into_iter().enumerate().collect::<Vec<_>>(),
                move |(i, v)| (i % groups, v),
                |_, vs| vec![vs.into_iter().sum::<u64>()],
            );
            rounds += 1;
        }
        assert_eq!(values, vec![256 * 257 / 2]);
        assert_eq!(engine.memory_report().round_count(), rounds);
        assert!(rounds <= 9);
    }

    #[test]
    fn reducer_emitting_nothing_is_fine() {
        let engine = MapReduceEngine::new(2);
        let out: Vec<u32> = engine.round(
            vec![1u32, 2, 3, 4],
            |x| (x % 2, x),
            |&key, vs| if key == 0 { vs } else { Vec::new() },
        );
        assert_eq!(out, vec![2, 4]);
    }

    #[test]
    fn run_scoped_executes_in_engine_pool() {
        let engine = MapReduceEngine::new(2);
        assert_eq!(engine.parallelism(), 2);
        let threads = engine.run_scoped(rayon::current_num_threads);
        assert_eq!(threads, expected_threads(2));
        let single = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let engine = single.install(|| MapReduceEngine::new(2));
        assert_eq!(engine.parallelism(), 2);
        assert_eq!(engine.run_scoped(rayon::current_num_threads), 1);
    }
}
