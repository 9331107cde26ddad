//! Offline API-compatible shim for the `rayon` crate — with a real
//! work-stealing thread pool.
//!
//! The build environment has no registry access, so this vendored crate
//! provides rayon's entry points (`par_iter`, `par_iter_mut`,
//! `into_par_iter`, `par_chunks`, thread pools, `join`) backed by the
//! executor in `pool.rs`: per-worker deques with LIFO pop / FIFO steal
//! (crossbeam-deque discipline), steal-feedback-adaptive chunked splitting
//! of iterator jobs (see [`current_chunks_per_thread`]), and
//! blocking-by-participation so nested `ThreadPool::install` calls cannot
//! deadlock. See `pool.rs` for the scheduler itself. The default thread
//! count honours `RAYON_NUM_THREADS` like upstream rayon.
//!
//! ## How this deviates from upstream rayon
//!
//! * **Materialized sources, fused single map stage.** A parallel iterator
//!   here is a `Vec` of items ([`ParIter`]) plus at most one deferred
//!   per-item closure ([`ParMap`]). Chained `map` calls compose into one
//!   closure; other adaptors (`filter`, `flat_map_iter`, …) evaluate in
//!   parallel immediately and yield a new materialized `ParIter`. Upstream
//!   rayon instead fuses arbitrary adaptor pipelines lazily. The practical
//!   difference is an extra `O(n)` buffer per adaptor stage — irrelevant to
//!   this workspace, whose hot paths are all `source → map → reduce/collect`
//!   or `for_each`, which execute fused here exactly as in rayon.
//! * **Deterministic, chunk-ordered reductions.** Items are split into
//!   contiguous chunks; each chunk folds sequentially in input order and
//!   chunk results combine left-to-right. For the associative operations
//!   rayon's `reduce` contract requires (and everything this workspace
//!   uses: `min`/`max`/argmax-with-tie-break, order-preserving collects),
//!   the result is **bit-identical to sequential execution** regardless of
//!   thread count or scheduling. `sum`, `min_by` and `max_by` materialize
//!   the mapped values in parallel and fold them sequentially, so they
//!   match `Iterator` semantics exactly even for non-associative `f64`
//!   addition.
//! * **Order-based combinators are exact, not "any".** `find_any` /
//!   `position_any` return the *first* match (a legal rayon answer,
//!   strengthened to be deterministic). Small-bore combinators (`any`,
//!   `all`, `count`, …) run sequentially over the materialized items; the
//!   expensive stage — the map — is what parallelizes.
//! * **`install` runs on the calling thread.** The closure executes on the
//!   submitter, which participates in its own jobs; upstream moves it onto
//!   a worker. Observable semantics (`current_num_threads`, nesting,
//!   result values) are preserved: a pool built with `num_threads(n)`
//!   spawns `n - 1` workers and reports `n`.
//!
//! A pool (or the lazily-built global pool) only parallelizes when its
//! thread count exceeds 1; single-thread pools run every operation inline
//! with no splitting, locking, or allocation beyond the source
//! materialization, so one thread behaves exactly like a sequential shim.

mod pool;
mod slice;

use std::sync::{Arc, Mutex, OnceLock};

pub use slice::{ParallelSlice, ParallelSliceMut};

/// The default parallelism: `RAYON_NUM_THREADS` when set to a positive
/// integer (matching upstream rayon's global-pool override — the CI
/// determinism matrix relies on it), otherwise the machine's available
/// parallelism (fallback 1). Read once per process.
fn machine_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// The global pool, built lazily the first time a parallel operation runs
/// outside any [`ThreadPool::install`] scope on a multicore machine.
static GLOBAL: OnceLock<pool::Pool> = OnceLock::new();

fn global_ctx() -> pool::Ctx {
    let threads = machine_threads();
    if threads <= 1 {
        return pool::Ctx {
            threads: 1,
            shared: None,
        };
    }
    let shared = Arc::clone(GLOBAL.get_or_init(|| pool::Pool::new(threads)).shared());
    pool::Ctx {
        threads,
        shared: Some(shared),
    }
}

fn current_context() -> pool::Ctx {
    pool::current_ctx().unwrap_or_else(global_ctx)
}

/// Number of threads of the current pool scope (the pool's size inside
/// [`ThreadPool::install`], otherwise the machine's parallelism).
pub fn current_num_threads() -> usize {
    pool::current_ctx()
        .map(|c| c.threads)
        .unwrap_or_else(machine_threads)
}

/// The chunks-per-thread target of the current pool's adaptive splitter
/// (1 when execution is inline — single thread, no pool).
///
/// The splitter replaces the old fixed `CHUNKS_PER_THREAD = 4`: each pool
/// watches its workers' cross-deque steals and doubles the target (up to
/// 16) while steals are observed — idle workers rebalancing means finer
/// chunks would spread work better — and halves it (down to 2) once the
/// workers are saturated and stop stealing. See `Shared::chunks_per_thread`
/// in `pool.rs` for the feedback rule.
pub fn current_chunks_per_thread() -> usize {
    let ctx = current_context();
    if ctx.threads <= 1 {
        return 1;
    }
    ctx.shared
        .as_ref()
        .map(|s| s.chunks_per_thread())
        .unwrap_or(1)
}

/// Minimum work of one chunk from [`adaptive_chunk_len`], in distance
/// evaluations. A chunk is a fork-join unit; below this much work the
/// scheduling overhead outweighs what a second thread can save.
const MIN_CHUNK_DISTANCES: usize = 4096;

/// The chunk length for a `len`-item parallel scan whose items cost
/// `distances_per_item` distance evaluations each. It is the adaptive
/// splitter's target, `ceil(len / (threads × chunks-per-thread))`, raised
/// so that every chunk carries at least 4096 distance evaluations and
/// clamped to `1..=len`: a scan below that grain runs as one chunk, and at
/// one thread nothing is split. Callers that chunk manually (`par_chunks` /
/// `par_chunks_mut` with per-chunk base-index arithmetic) use this instead
/// of a hard-coded chunk constant; any positive chunk length yields the
/// same results for order-preserving chunked scans, so the length is
/// purely a performance knob.
pub fn adaptive_chunk_len(len: usize, distances_per_item: usize) -> usize {
    let ctx = current_context();
    if ctx.threads <= 1 || len <= 1 {
        return len.max(1);
    }
    let cpt = ctx
        .shared
        .as_ref()
        .map(|s| s.chunks_per_thread())
        .unwrap_or(1);
    let num_chunks = len.min(ctx.threads * cpt).max(1);
    let grain = MIN_CHUNK_DISTANCES.div_ceil(distances_per_item.max(1));
    len.div_ceil(num_chunks).max(grain).min(len)
}

/// Splits `items` into contiguous chunks, runs `work(chunk)` for each on
/// the current pool, and returns the per-chunk results in chunk order.
/// The chunk *count* follows the pool's adaptive splitter, so the layout
/// may differ between runs; every consumer of these per-chunk results
/// combines them in chunk order (see the determinism notes in the crate
/// docs), so results never depend on the layout or on scheduling.
fn execute_chunked<T, R, W>(items: Vec<T>, work: W) -> Vec<R>
where
    T: Send,
    R: Send,
    W: Fn(Vec<T>) -> R + Sync,
{
    let len = items.len();
    let ctx = current_context();
    let num_chunks = if ctx.threads <= 1 || len <= 1 {
        1
    } else {
        let cpt = ctx
            .shared
            .as_ref()
            .map(|s| s.chunks_per_thread())
            .unwrap_or(1);
        len.min(ctx.threads * cpt)
    };
    if num_chunks <= 1 || ctx.shared.is_none() {
        return vec![work(items)];
    }
    let chunk_len = len.div_ceil(num_chunks);
    let num_chunks = len.div_ceil(chunk_len);

    // Split from the back so each `split_off` moves only one chunk.
    let mut rest = items;
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(num_chunks);
    for i in (0..num_chunks).rev() {
        chunks.push(rest.split_off(i * chunk_len));
    }
    chunks.reverse();

    let inputs: Vec<Mutex<Option<Vec<T>>>> =
        chunks.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..num_chunks).map(|_| Mutex::new(None)).collect();
    let task = |ci: usize| {
        let chunk = inputs[ci]
            .lock()
            .unwrap()
            .take()
            .expect("chunk executed twice");
        let result = work(chunk);
        *outputs[ci].lock().unwrap() = Some(result);
    };
    ctx.shared
        .as_ref()
        .expect("checked above")
        .run_chunks(num_chunks, &task);
    outputs
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("chunk result missing"))
        .collect()
}

/// Error building a thread pool (never produced by this shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for [`ThreadPool`].
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool's thread count.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builds the pool, spawning `n - 1` worker threads (the thread calling
    /// [`ThreadPool::install`] is the remaining executor).
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = self
            .num_threads
            .filter(|&n| n > 0)
            .unwrap_or_else(machine_threads);
        Ok(ThreadPool {
            threads: n,
            pool: pool::Pool::new(n),
        })
    }
}

/// A work-stealing thread pool of a configured size.
///
/// Work installed into it runs on the calling thread, which participates
/// in the pool's scheduling alongside the pool's `n - 1` workers;
/// [`current_num_threads`] reports the configured size inside `install`.
pub struct ThreadPool {
    threads: usize,
    pool: pool::Pool,
}

impl ThreadPool {
    /// Runs `f` within the pool's scope: parallel operations inside use
    /// this pool's workers and observe its thread count.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        pool::with_ctx(
            pool::Ctx {
                threads: self.threads,
                shared: Some(Arc::clone(self.pool.shared())),
            },
            f,
        )
    }

    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

/// Runs two closures, potentially in parallel (the second may be stolen by
/// a pool worker while the caller runs the first), returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let ctx = current_context();
    if ctx.threads <= 1 || ctx.shared.is_none() {
        return (a(), b());
    }
    let slots = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let results: (Mutex<Option<RA>>, Mutex<Option<RB>>) = (Mutex::new(None), Mutex::new(None));
    let task = |i: usize| {
        if i == 0 {
            let f = slots.0.lock().unwrap().take().expect("join ran twice");
            *results.0.lock().unwrap() = Some(f());
        } else {
            let f = slots.1.lock().unwrap().take().expect("join ran twice");
            *results.1.lock().unwrap() = Some(f());
        }
    };
    ctx.shared
        .as_ref()
        .expect("checked above")
        .run_chunks(2, &task);
    (
        results
            .0
            .into_inner()
            .unwrap()
            .expect("join result missing"),
        results
            .1
            .into_inner()
            .unwrap()
            .expect("join result missing"),
    )
}

/// A parallel iterator over materialized items. Construct via the traits
/// in [`prelude`]; chain a closure with [`ParIter::map`] to get the fused
/// parallel map/reduce stage ([`ParMap`]).
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Maps each item through `f` (deferred: fused with the consuming
    /// operation and executed in parallel).
    pub fn map<F, R>(self, f: F) -> ParMap<T, F>
    where
        F: Fn(T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Pairs each item with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Keeps items matching `f` (parallel, order-preserving).
    pub fn filter<F>(self, f: F) -> ParIter<T>
    where
        F: Fn(&T) -> bool + Sync,
    {
        let kept = execute_chunked(self.items, |chunk| {
            chunk.into_iter().filter(|x| f(x)).collect::<Vec<T>>()
        });
        ParIter {
            items: kept.into_iter().flatten().collect(),
        }
    }

    /// Maps each item to a filtered option (parallel, order-preserving).
    pub fn filter_map<F, R>(self, f: F) -> ParIter<R>
    where
        F: Fn(T) -> Option<R> + Sync,
        R: Send,
    {
        let kept = execute_chunked(self.items, |chunk| {
            chunk.into_iter().filter_map(&f).collect::<Vec<R>>()
        });
        ParIter {
            items: kept.into_iter().flatten().collect(),
        }
    }

    /// Maps each item to a *serial* iterator and flattens (rayon's
    /// `flat_map_iter`); the outer map runs in parallel.
    pub fn flat_map_iter<F, U>(self, f: F) -> ParIter<U::Item>
    where
        F: Fn(T) -> U + Sync,
        U: IntoIterator,
        U::Item: Send,
    {
        let parts = execute_chunked(self.items, |chunk| {
            chunk.into_iter().flat_map(&f).collect::<Vec<U::Item>>()
        });
        ParIter {
            items: parts.into_iter().flatten().collect(),
        }
    }

    /// Zips with another parallel iterator.
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Chains another parallel iterator after this one.
    pub fn chain(mut self, other: ParIter<T>) -> ParIter<T> {
        self.items.extend(other.items);
        self
    }

    /// Runs `f` on every item (parallel).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        execute_chunked(self.items, |chunk| chunk.into_iter().for_each(&f));
    }

    /// Folds all items starting from `identity()` (rayon's reduce
    /// contract: `identity()` must be a neutral element of the associative
    /// `op`). Chunks fold in input order and combine left-to-right, so for
    /// associative `op` the result is bit-identical to a sequential fold.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T + Sync,
        OP: Fn(T, T) -> T + Sync,
    {
        let partials = execute_chunked(self.items, |chunk| chunk.into_iter().fold(identity(), &op));
        partials.into_iter().fold(identity(), op)
    }

    /// Collects into any `FromIterator` collection (items are already
    /// materialized; this is a sequential repackaging).
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sums the items (sequential over the materialized items, matching
    /// `Iterator::sum` bit-for-bit even for floats).
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }

    /// Number of items.
    pub fn count(self) -> usize {
        self.items.len()
    }

    /// Minimum by a comparison function (`Iterator::min_by` semantics:
    /// first minimum wins ties).
    pub fn min_by<F>(self, f: F) -> Option<T>
    where
        F: FnMut(&T, &T) -> std::cmp::Ordering,
    {
        self.items.into_iter().min_by(f)
    }

    /// Maximum by a comparison function (`Iterator::max_by` semantics:
    /// last maximum wins ties).
    pub fn max_by<F>(self, f: F) -> Option<T>
    where
        F: FnMut(&T, &T) -> std::cmp::Ordering,
    {
        self.items.into_iter().max_by(f)
    }

    /// Maximum by a key function.
    pub fn max_by_key<K: Ord, F>(self, f: F) -> Option<T>
    where
        F: FnMut(&T) -> K,
    {
        self.items.into_iter().max_by_key(f)
    }

    /// Whether any item matches.
    pub fn any<F>(self, f: F) -> bool
    where
        F: FnMut(T) -> bool,
    {
        self.items.into_iter().any(f)
    }

    /// Whether all items match.
    pub fn all<F>(self, f: F) -> bool
    where
        F: FnMut(T) -> bool,
    {
        self.items.into_iter().all(f)
    }

    /// First position matching a predicate (rayon: any position; this
    /// shim: deterministically the first).
    pub fn position_any<F>(self, f: F) -> Option<usize>
    where
        F: FnMut(T) -> bool,
    {
        self.items.into_iter().position(f)
    }

    /// First item matching a predicate (rayon: any match; this shim:
    /// deterministically the first).
    pub fn find_any<F>(self, mut f: F) -> Option<T>
    where
        F: FnMut(&T) -> bool,
    {
        self.items.into_iter().find(|x| f(x))
    }
}

/// A parallel iterator with one fused deferred map stage: the closure runs
/// on the pool, fused into whichever consuming operation is called.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, F, R> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Composes a further map into the fused stage.
    pub fn map<G, S>(self, g: G) -> ParMap<T, impl Fn(T) -> S + Sync>
    where
        G: Fn(R) -> S + Sync,
        S: Send,
    {
        let f = self.f;
        ParMap {
            items: self.items,
            f: move |x| g(f(x)),
        }
    }

    /// Applies the fused map in parallel, yielding a materialized iterator
    /// for combinators that need the mapped values.
    fn materialize(self) -> ParIter<R> {
        let f = self.f;
        let parts = execute_chunked(self.items, |chunk| {
            chunk.into_iter().map(&f).collect::<Vec<R>>()
        });
        ParIter {
            items: parts.into_iter().flatten().collect(),
        }
    }

    /// Runs the fused map and `g` on every item (parallel).
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(R) + Sync,
    {
        let f = self.f;
        execute_chunked(self.items, |chunk| chunk.into_iter().for_each(|x| g(f(x))));
    }

    /// Fused map + fold per chunk, chunk results combined left-to-right
    /// (see [`ParIter::reduce`] for the determinism contract).
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        ID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        let f = self.f;
        let partials = execute_chunked(self.items, |chunk| {
            chunk.into_iter().fold(identity(), |acc, x| op(acc, f(x)))
        });
        partials.into_iter().fold(identity(), op)
    }

    /// Parallel fused map, collected in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let f = self.f;
        let parts = execute_chunked(self.items, |chunk| {
            chunk.into_iter().map(&f).collect::<Vec<R>>()
        });
        parts.into_iter().flatten().collect()
    }

    /// Parallel fused map; the mapped values are summed sequentially in
    /// input order (bit-identical to `Iterator::sum`, floats included).
    pub fn sum<S: std::iter::Sum<R>>(self) -> S {
        self.materialize().sum()
    }

    /// Number of items. The fused map IS evaluated (matching rayon, where
    /// `.map(f).count()` runs `f` per item), so side effects in `f` are
    /// observed identically when swapping in the real crate.
    pub fn count(self) -> usize {
        self.materialize().count()
    }

    /// Pairs each mapped value with nothing extra — see [`ParIter`] for
    /// the remaining combinators, reached via parallel materialization.
    pub fn enumerate(self) -> ParIter<(usize, R)> {
        self.materialize().enumerate()
    }

    /// Keeps mapped values matching `g` (parallel map, then filter).
    pub fn filter<G>(self, g: G) -> ParIter<R>
    where
        G: Fn(&R) -> bool + Sync,
    {
        self.materialize().filter(g)
    }

    /// Filter-maps the mapped values.
    pub fn filter_map<G, S>(self, g: G) -> ParIter<S>
    where
        G: Fn(R) -> Option<S> + Sync,
        S: Send,
    {
        self.materialize().filter_map(g)
    }

    /// Flat-maps the mapped values through a serial iterator.
    pub fn flat_map_iter<G, U>(self, g: G) -> ParIter<U::Item>
    where
        G: Fn(R) -> U + Sync,
        U: IntoIterator,
        U::Item: Send,
    {
        self.materialize().flat_map_iter(g)
    }

    /// Minimum of the mapped values (`Iterator::min_by` tie semantics).
    pub fn min_by<G>(self, g: G) -> Option<R>
    where
        G: FnMut(&R, &R) -> std::cmp::Ordering,
    {
        self.materialize().min_by(g)
    }

    /// Maximum of the mapped values (`Iterator::max_by` tie semantics).
    pub fn max_by<G>(self, g: G) -> Option<R>
    where
        G: FnMut(&R, &R) -> std::cmp::Ordering,
    {
        self.materialize().max_by(g)
    }

    /// Maximum of the mapped values by a key function.
    pub fn max_by_key<K: Ord, G>(self, g: G) -> Option<R>
    where
        G: FnMut(&R) -> K,
    {
        self.materialize().max_by_key(g)
    }

    /// Whether any mapped value matches.
    pub fn any<G>(self, g: G) -> bool
    where
        G: FnMut(R) -> bool,
    {
        self.materialize().any(g)
    }

    /// Whether all mapped values match.
    pub fn all<G>(self, g: G) -> bool
    where
        G: FnMut(R) -> bool,
    {
        self.materialize().all(g)
    }

    /// First matching position among the mapped values.
    pub fn position_any<G>(self, g: G) -> Option<usize>
    where
        G: FnMut(R) -> bool,
    {
        self.materialize().position_any(g)
    }

    /// First matching mapped value.
    pub fn find_any<G>(self, g: G) -> Option<R>
    where
        G: FnMut(&R) -> bool,
    {
        self.materialize().find_any(g)
    }

    /// Zips the mapped values with another parallel iterator.
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(R, U)> {
        self.materialize().zip(other)
    }
}

pub mod iter {
    //! Parallel-iterator conversion traits (rayon's `rayon::iter` shape).

    use super::ParIter;

    /// Types convertible into a parallel iterator by value.
    pub trait IntoParallelIterator {
        /// Item type.
        type Item: Send;
        /// Converts into a parallel iterator (materializing the items).
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    impl<T: IntoIterator> IntoParallelIterator for T
    where
        T::Item: Send,
    {
        type Item = T::Item;
        fn into_par_iter(self) -> ParIter<T::Item> {
            ParIter {
                items: self.into_iter().collect(),
            }
        }
    }

    /// Types whose references convert into a parallel iterator.
    pub trait IntoParallelRefIterator<'a> {
        /// Item type (a shared reference).
        type Item: Send + 'a;
        /// Borrowing parallel iterator.
        fn par_iter(&'a self) -> ParIter<Self::Item>;
    }

    impl<'a, T: 'a + ?Sized> IntoParallelRefIterator<'a> for T
    where
        &'a T: IntoIterator,
        <&'a T as IntoIterator>::Item: Send,
    {
        type Item = <&'a T as IntoIterator>::Item;
        fn par_iter(&'a self) -> ParIter<Self::Item> {
            ParIter {
                items: self.into_iter().collect(),
            }
        }
    }

    /// Types whose mutable references convert into a parallel iterator.
    pub trait IntoParallelRefMutIterator<'a> {
        /// Item type (an exclusive reference).
        type Item: Send + 'a;
        /// Mutably borrowing parallel iterator.
        fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
    }

    impl<'a, T: 'a + ?Sized> IntoParallelRefMutIterator<'a> for T
    where
        &'a mut T: IntoIterator,
        <&'a mut T as IntoIterator>::Item: Send,
    {
        type Item = <&'a mut T as IntoIterator>::Item;
        fn par_iter_mut(&'a mut self) -> ParIter<Self::Item> {
            ParIter {
                items: self.into_iter().collect(),
            }
        }
    }
}

pub mod prelude {
    //! The traits users import wholesale, mirroring `rayon::prelude`.
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
    };
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
    pub use crate::{ParIter, ParMap};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn entry_points_and_combinators() {
        let v = vec![1i64, 2, 3, 4, 5];
        let doubled: Vec<i64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8, 10]);

        let total = (0..10u64).into_par_iter().map(|x| x * x).sum::<u64>();
        assert_eq!(total, 285);

        let max = v
            .par_iter()
            .map(|&x| x as f64)
            .reduce(|| f64::NEG_INFINITY, f64::max);
        assert_eq!(max, 5.0);

        let mut w = vec![0u32; 4];
        w.par_iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x = i as u32);
        assert_eq!(w, vec![0, 1, 2, 3]);

        let pairs: Vec<(usize, &i64)> = (0..5usize)
            .into_par_iter()
            .zip(v.par_iter())
            .filter(|&(i, _)| i % 2 == 0)
            .collect();
        assert_eq!(pairs.len(), 3);

        let flat: Vec<usize> = (0..3usize)
            .into_par_iter()
            .flat_map_iter(|i| 0..i)
            .collect();
        assert_eq!(flat, vec![0, 0, 1]);
    }

    #[test]
    fn pool_scopes_simulated_parallelism() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let outside = current_num_threads();
        assert_eq!(pool.install(current_num_threads), 3);
        let nested = ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        let observed = pool.install(|| nested.install(current_num_threads));
        assert_eq!(observed, 7);
        assert_eq!(pool.install(current_num_threads), 3);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn pool_really_executes_on_worker_threads() {
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let seen: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
        pool.install(|| {
            (0..64usize).into_par_iter().for_each(|_| {
                let name = std::thread::current()
                    .name()
                    .unwrap_or("caller")
                    .to_string();
                seen.lock().unwrap().insert(name);
                // Give other executors a chance to claim chunks.
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
        });
        // At least the caller ran chunks; on any machine the pool's workers
        // are eligible too (they may not win chunks on a loaded 1-cpu box,
        // so only the lower bound is asserted).
        assert!(!seen.lock().unwrap().is_empty());
    }

    #[test]
    fn par_chunks_surface() {
        let v: Vec<u64> = (0..1000).collect();
        let partial_sums: Vec<u64> = v.par_chunks(100).map(|c| c.iter().sum()).collect();
        assert_eq!(partial_sums.len(), 10);
        assert_eq!(partial_sums.iter().sum::<u64>(), 499_500);

        let mut w = vec![1u64; 1000];
        w.par_chunks_mut(64)
            .enumerate()
            .for_each(|(ci, chunk)| chunk.iter_mut().for_each(|x| *x += ci as u64));
        assert_eq!(w[0], 1);
        assert_eq!(w[999], 1 + 15);
    }

    #[test]
    fn join_returns_both_results() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let (a, b) = pool.install(|| join(|| 6 * 7, || "ok"));
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn panics_propagate_to_the_submitter_with_payload() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..1000usize).into_par_iter().for_each(|i| {
                    if i == 777 {
                        panic!("boom");
                    }
                });
            })
        }));
        // The original payload (not a generic wrapper message) re-raises
        // on the submitter, so assert messages survive the pool boundary.
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // The pool survives the panic and stays usable.
        let sum: usize = pool.install(|| (0..100usize).into_par_iter().sum());
        assert_eq!(sum, 4950);
    }
}
