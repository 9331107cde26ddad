//! `OutliersCluster` — the weighted greedy disk cover (paper Algorithm 1).
//!
//! Given a weighted coreset `T`, a center budget `k`, a radius guess `r`,
//! and a precision `ε̂`, the algorithm repeatedly picks the point whose ball
//! of radius `(1+2ε̂)·r` has the largest aggregate *uncovered* weight, makes
//! it a center, and marks everything within `(3+4ε̂)·r` of it covered. It
//! stops after `k` centers or when nothing is uncovered. Lemma 5 shows that
//! whenever `r ≥ r*_{k,z}(S)`, the weight left uncovered is at most `z`.
//!
//! [`outliers_cluster`] runs one greedy loop over a *ball source*: the
//! source gives every selection ball its initial uncovered weight, and for
//! each point a center removes it subtracts that point's weight from the
//! balls that contained it. There are two sources.
//!
//! * **Ball lists**, for oracles backed by a condensed proxy matrix
//!   ([`DistanceOracle::cmp_matrix`]). Row `t` keeps the indices `v` with
//!   `cmp(t, v) ≤ cap`, sorted by `(cmp, v)`, with `u64` prefix sums of
//!   their weights. At a selection threshold below the cap, ball `t` is
//!   the row prefix found by one binary search, and its initial weight is
//!   one prefix-sum lookup. A removed `v` touches only the rows in its own
//!   ball: the matrix is symmetric, so those are exactly the balls that
//!   contain `v`. An evaluation costs `O(|T| log |T|)`, one row scan per
//!   center, and the balls of the removed points, instead of two
//!   `O(|T|²)` passes. The lists never hold more bytes than the matrix
//!   they are cut from, and a large matrix's lists at most a quarter of
//!   it; the radius search keeps one set across its evaluations and
//!   extends it when a radius needs a larger cap.
//! * **Row reads**, for everything else: oracles that price distances on
//!   demand ([`PointsOracle`], which must stay free of quadratic memory),
//!   and thresholds whose lists would outgrow that bound. The initial
//!   weights scan every row through the batched membership test — one pass
//!   over the condensed triangle when the oracle is matrix-backed — and a
//!   removal re-tests each ball against the removed points.
//!
//! Both sources decide membership with the same `cmp_dist(t, v) <=
//! threshold` on the same `f64` values, and weights are `u64`, so every sum
//! is exact in any order: centers, uncovered set and uncovered weight do not
//! depend on the source. [`outliers_cluster_naive`] — the textbook
//! `O(k·|T|²)` loop — is the ablation baseline and the differential-testing
//! oracle for both.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use rayon::prelude::*;

use kcenter_metric::{CachedOracle, DistanceMatrix, Metric};

/// Pairwise distances among coreset points, by index.
pub trait DistanceOracle: Sync {
    /// Number of points.
    fn len(&self) -> usize;
    /// Whether the point set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Distance between points `i` and `j`.
    fn dist(&self, i: usize, j: usize) -> f64;

    /// Comparison proxy for [`DistanceOracle::dist`] — order-isomorphic to
    /// the distance, zero iff the distance is zero (mirrors
    /// [`Metric::cmp_distance`]). Threshold scans call this together with
    /// [`DistanceOracle::radius_to_cmp`] so metric-backed oracles can skip
    /// the final `sqrt` of every evaluation. Default: the distance itself.
    #[inline]
    fn cmp_dist(&self, i: usize, j: usize) -> f64 {
        self.dist(i, j)
    }

    /// Batched [`DistanceOracle::cmp_dist`]: writes `cmp_dist(t, base + j)`
    /// into `out[j]`. The default loops the scalar lookup; point-backed
    /// oracles forward to [`Metric::cmp_distance_block`] (the vectorized
    /// kernels) and matrix-backed oracles copy contiguous condensed-row
    /// slices. Overrides must stay bit-identical to the default.
    fn cmp_dist_block(&self, t: usize, base: usize, out: &mut [f64]) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.cmp_dist(t, base + j);
        }
    }

    /// Batched ball-membership test: writes
    /// `cmp_dist(t, base + j) <= cmp_threshold` into `out[j]`.
    ///
    /// Same contract as [`Metric::within_block`]: overrides may be faster
    /// but must decide every point identically to the exact comparison.
    fn within_block(&self, t: usize, base: usize, cmp_threshold: f64, out: &mut [bool]) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.cmp_dist(t, base + j) <= cmp_threshold;
        }
    }

    /// Maps a true radius onto the [`DistanceOracle::cmp_dist`] scale.
    #[inline]
    fn radius_to_cmp(&self, r: f64) -> f64 {
        r
    }

    /// Maps a [`DistanceOracle::cmp_dist`] value back to a true distance.
    #[inline]
    fn cmp_to_radius(&self, cmp: f64) -> f64 {
        cmp
    }

    /// Materializes any lazy internal state **on the calling thread**,
    /// before the parallel scans start. The algorithms in this module (and
    /// the radius search) call this once at entry; oracles with no lazy
    /// state keep the no-op default.
    ///
    /// This is load-bearing for [`CachedOracle`]: its matrix build runs
    /// inside a `OnceLock` initializer *and* parallelizes over the pool.
    /// If the first lookup instead happened inside a pool task, the
    /// initializing worker — which participates in scheduling while it
    /// builds — could steal a unit of the outer scan whose task re-enters
    /// the `OnceLock` on the same thread: a deadlock (every other thread
    /// is already parked on the same initializer). Resolving the cache
    /// from the submitting thread makes the build an ordinary nested job,
    /// which the pool handles deadlock-free.
    fn prepare(&self) {}

    /// The condensed proxy-scale matrix that [`DistanceOracle::cmp_dist`]
    /// reads, when the oracle is backed by one: `cmp_dist(i, j)` must equal
    /// `matrix.get(i, j)` bitwise for every pair. [`outliers_cluster`] cuts
    /// its ball lists from it. Default: `None`, which means row reads.
    fn cmp_matrix(&self) -> Option<&DistanceMatrix> {
        None
    }
}

/// Batched row read out of a condensed matrix, exploiting that row `t`'s
/// entries for `v > t` are **contiguous** in the condensed layout: the
/// strictly-greater tail of the block is one `memcpy`, only the (rare)
/// `v <= t` prefix pays per-element symmetric lookups. Bit-identical to
/// looping `matrix.get(t, base + j)`.
fn matrix_cmp_block(matrix: &DistanceMatrix, t: usize, base: usize, out: &mut [f64]) {
    let len = out.len();
    let n = matrix.len();
    // Scattered prefix: v < t (symmetric lookups) and the v == t diagonal.
    let pre = (t + 1).saturating_sub(base).min(len);
    for (j, o) in out[..pre].iter_mut().enumerate() {
        *o = matrix.get(t, base + j);
    }
    // Contiguous suffix: v > t is row t's upper slice, consecutive in v.
    if pre < len {
        let from = base + pre - t - 1;
        out[pre..].copy_from_slice(&upper_row(matrix.condensed(), n, t)[from..from + (len - pre)]);
    }
}

/// Batched ball-membership test over a condensed matrix: the row read of
/// [`matrix_cmp_block`] in stack sub-blocks, then `<=` on each value.
fn matrix_within_block(
    matrix: &DistanceMatrix,
    t: usize,
    base: usize,
    cmp_threshold: f64,
    out: &mut [bool],
) {
    const SUB: usize = 256;
    let mut buf = [0.0f64; SUB];
    for (i, flags) in out.chunks_mut(SUB).enumerate() {
        let vals = &mut buf[..flags.len()];
        matrix_cmp_block(matrix, t, base + i * SUB, vals);
        for (o, &c) in flags.iter_mut().zip(vals.iter()) {
            *o = c <= cmp_threshold;
        }
    }
}

impl DistanceOracle for DistanceMatrix {
    fn len(&self) -> usize {
        DistanceMatrix::len(self)
    }

    // The matrix caches true distances, so the default identity proxy is
    // already sqrt-free.
    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        self.get(i, j)
    }

    fn cmp_dist_block(&self, t: usize, base: usize, out: &mut [f64]) {
        matrix_cmp_block(self, t, base, out);
    }

    fn within_block(&self, t: usize, base: usize, cmp_threshold: f64, out: &mut [bool]) {
        matrix_within_block(self, t, base, cmp_threshold, out);
    }

    fn cmp_matrix(&self) -> Option<&DistanceMatrix> {
        Some(self)
    }
}

/// A [`DistanceOracle`] that evaluates the metric on demand — no quadratic
/// memory, used for coresets too large to cache.
pub struct PointsOracle<'a, P, M> {
    points: &'a [P],
    metric: &'a M,
}

impl<'a, P, M: Metric<P>> PointsOracle<'a, P, M> {
    /// Wraps a point slice and metric.
    pub fn new(points: &'a [P], metric: &'a M) -> Self {
        PointsOracle { points, metric }
    }
}

/// A [`DistanceOracle`] over a borrowed *proxy-scale* [`DistanceMatrix`]
/// paired with its metric's conversions — the matrix-backed counterpart
/// of [`PointsOracle`], used to run searches against a [`CachedOracle`]'s
/// shared matrix (or any `DistanceMatrix::build_cmp` product) without a
/// per-lookup cache-resolution branch in the `O(|T|²)` inner loops.
///
/// Both oracles apply the **same comparison rule**: they compare on the
/// metric's [`Metric::cmp_distance`] scale, so an algorithm's output is
/// bitwise independent of whether distances were cached or evaluated on
/// demand — even at threshold boundaries within one ulp, where a
/// true-distance rule (`sqrt(c) <= r`) and a proxy rule (`c <= r²`) can
/// disagree. Building the proxy matrix is also cheaper: no `sqrt` per
/// entry.
pub struct CmpMatrixRef<'a, P, M> {
    matrix: &'a DistanceMatrix,
    metric: &'a M,
    _points: std::marker::PhantomData<fn() -> P>,
}

impl<'a, P: Sync, M: Metric<P>> CmpMatrixRef<'a, P, M> {
    /// Wraps a proxy-scale matrix (entries on the [`Metric::cmp_distance`]
    /// scale) with the metric that owns its conversions.
    pub fn new(matrix: &'a DistanceMatrix, metric: &'a M) -> Self {
        CmpMatrixRef {
            matrix,
            metric,
            _points: std::marker::PhantomData,
        }
    }
}

impl<P: Sync, M: Metric<P>> DistanceOracle for CmpMatrixRef<'_, P, M> {
    fn len(&self) -> usize {
        self.matrix.len()
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        // cmp_to_distance(cmp_distance(..)) == distance(..) exactly, per
        // the Metric contract, so true-distance reads stay bit-identical
        // to on-demand evaluation.
        self.metric.cmp_to_distance(self.matrix.get(i, j))
    }

    #[inline]
    fn cmp_dist(&self, i: usize, j: usize) -> f64 {
        self.matrix.get(i, j)
    }

    fn cmp_dist_block(&self, t: usize, base: usize, out: &mut [f64]) {
        matrix_cmp_block(self.matrix, t, base, out);
    }

    fn within_block(&self, t: usize, base: usize, cmp_threshold: f64, out: &mut [bool]) {
        matrix_within_block(self.matrix, t, base, cmp_threshold, out);
    }

    fn cmp_matrix(&self) -> Option<&DistanceMatrix> {
        Some(self.matrix)
    }

    #[inline]
    fn radius_to_cmp(&self, r: f64) -> f64 {
        self.metric.distance_to_cmp(r)
    }

    #[inline]
    fn cmp_to_radius(&self, cmp: f64) -> f64 {
        self.metric.cmp_to_distance(cmp)
    }
}

/// The shared memoized oracle is itself a [`DistanceOracle`]: lookups go
/// through its cache (matrix-backed once built, metric-evaluated above the
/// cache threshold). Hot search loops should prefer resolving the cache
/// once — [`CachedOracle::matrix`] + [`CmpMatrixRef`], as
/// `solve_coreset_cached` does — but the direct impl keeps the handle
/// usable anywhere an oracle is expected.
impl<P: Send + Sync, M: Metric<P>> DistanceOracle for CachedOracle<'_, P, M> {
    fn len(&self) -> usize {
        CachedOracle::len(self)
    }

    fn prepare(&self) {
        // Resolve (and, below the threshold, build) the cache on the
        // calling thread — see the trait method's deadlock note.
        let _ = self.matrix();
    }

    fn cmp_matrix(&self) -> Option<&DistanceMatrix> {
        self.matrix()
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        CachedOracle::dist(self, i, j)
    }

    #[inline]
    fn cmp_dist(&self, i: usize, j: usize) -> f64 {
        CachedOracle::cmp_dist(self, i, j)
    }

    #[inline]
    fn radius_to_cmp(&self, r: f64) -> f64 {
        self.metric().distance_to_cmp(r)
    }

    #[inline]
    fn cmp_to_radius(&self, cmp: f64) -> f64 {
        self.metric().cmp_to_distance(cmp)
    }
}

impl<P: Sync, M: Metric<P>> DistanceOracle for PointsOracle<'_, P, M> {
    fn len(&self) -> usize {
        self.points.len()
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        self.metric.distance(&self.points[i], &self.points[j])
    }

    #[inline]
    fn cmp_dist(&self, i: usize, j: usize) -> f64 {
        self.metric.cmp_distance(&self.points[i], &self.points[j])
    }

    // Same query-first evaluation order as `cmp_dist`, batched through the
    // metric's (vectorized) block kernels.
    fn cmp_dist_block(&self, t: usize, base: usize, out: &mut [f64]) {
        let block = &self.points[base..base + out.len()];
        self.metric.cmp_distance_block(&self.points[t], block, out);
    }

    fn within_block(&self, t: usize, base: usize, cmp_threshold: f64, out: &mut [bool]) {
        let block = &self.points[base..base + out.len()];
        self.metric
            .within_block(&self.points[t], block, cmp_threshold, out);
    }

    #[inline]
    fn radius_to_cmp(&self, r: f64) -> f64 {
        self.metric.distance_to_cmp(r)
    }

    #[inline]
    fn cmp_to_radius(&self, cmp: f64) -> f64 {
        self.metric.cmp_to_distance(cmp)
    }
}

/// Result of one `OutliersCluster` run.
#[derive(Clone, Debug, PartialEq)]
pub struct OutliersClusterResult {
    /// Selected center indices `X` (into the coreset), `|X| <= k`.
    pub centers: Vec<usize>,
    /// Indices of the uncovered points `T'` (farther than `(3+4ε̂)·r` from
    /// every selected center).
    pub uncovered: Vec<usize>,
    /// Aggregate weight of `T'` — compared against `z` by the radius search.
    pub uncovered_weight: u64,
}

/// Runs `OutliersCluster(T, k, r, ε̂)` over ball lists when the oracle is
/// matrix-backed and the lists fit their memory bound, and over row reads
/// otherwise (see the module docs). The radius search shares one set of
/// lists across its evaluations instead of cutting them per call.
///
/// # Panics
///
/// Panics if `weights.len() != oracle.len()`, `k == 0`, `r < 0`, or
/// `eps_hat < 0`.
pub fn outliers_cluster<O: DistanceOracle>(
    oracle: &O,
    weights: &[u64],
    k: usize,
    r: f64,
    eps_hat: f64,
) -> OutliersClusterResult {
    oracle.prepare();
    let mut lists = oracle.cmp_matrix().and_then(BallLists::new);
    greedy_cover(oracle, lists.as_mut(), weights, k, r, eps_hat)
}

/// The greedy loop of Algorithm 1 over `lists` when they reach the
/// selection threshold (extending them if that stays within their memory
/// bound), and over row reads otherwise.
pub(crate) fn greedy_cover<O: DistanceOracle>(
    oracle: &O,
    lists: Option<&mut BallLists<'_>>,
    weights: &[u64],
    k: usize,
    r: f64,
    eps_hat: f64,
) -> OutliersClusterResult {
    let n = oracle.len();
    assert_eq!(weights.len(), n, "weights misaligned with points");
    assert!(k > 0, "k must be positive");
    assert!(
        r >= 0.0 && eps_hat >= 0.0,
        "radius and eps must be non-negative"
    );

    // Thresholds on the oracle's comparison scale: every membership test
    // below is `cmp_dist <= cmp-threshold`, sqrt-free for metric oracles.
    let ball_cmp = oracle.radius_to_cmp((1.0 + 2.0 * eps_hat) * r);
    let cover_cmp = oracle.radius_to_cmp((3.0 + 4.0 * eps_hat) * r);

    let balls = match lists.map(|lists| (lists.reach(ball_cmp, weights), lists)) {
        Some((true, lists)) => Balls::Lists {
            ends: lists.ball_ends(ball_cmp),
            lists,
        },
        _ => Balls::Rows,
    };
    let mut ball_weight = balls.initial_weights(oracle, weights, ball_cmp);

    let mut covered = vec![false; n];
    let mut uncovered_count = n;
    let mut centers = Vec::new();
    while centers.len() < k && uncovered_count > 0 {
        // Argmax over all of T (a center need not be uncovered); ties to the
        // smallest index for determinism.
        let x = ball_weight
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .expect("nonempty coreset");
        centers.push(x);

        // E_x: uncovered points within the expanded radius.
        let removed = cover_of(oracle, x, cover_cmp, &covered);
        for &v in &removed {
            covered[v] = true;
        }
        uncovered_count -= removed.len();

        // No ball is read after the last center.
        if centers.len() < k && uncovered_count > 0 {
            balls.subtract(oracle, weights, ball_cmp, &removed, &mut ball_weight);
        }
    }

    let uncovered: Vec<usize> = (0..n).filter(|&v| !covered[v]).collect();
    let uncovered_weight = uncovered.iter().map(|&v| weights[v]).sum();
    OutliersClusterResult {
        centers,
        uncovered,
        uncovered_weight,
    }
}

/// Indices of the points not yet `covered` within `cover_cmp` of `x`: one
/// read of row `x` through the batched membership test, split across the
/// pool only when the row is long enough to pay for it.
fn cover_of<O: DistanceOracle>(
    oracle: &O,
    x: usize,
    cover_cmp: f64,
    covered: &[bool],
) -> Vec<usize> {
    const SUB: usize = 256;
    let chunk = rayon::adaptive_chunk_len(covered.len(), 1);
    covered
        .par_chunks(chunk)
        .enumerate()
        .flat_map_iter(|(ci, chunk_covered)| {
            let base = ci * chunk;
            let mut hits = [false; SUB];
            let mut found = Vec::new();
            for (si, sub) in chunk_covered.chunks(SUB).enumerate() {
                let off = base + si * SUB;
                oracle.within_block(x, off, cover_cmp, &mut hits[..sub.len()]);
                for (j, (&hit, &done)) in hits.iter().zip(sub).enumerate() {
                    if hit && !done {
                        found.push(off + j);
                    }
                }
            }
            found
        })
        .collect()
}

/// Where one evaluation reads its balls from.
enum Balls<'a, 'm> {
    /// Row prefixes of ball lists; `ends[t]` is the length of ball `t`.
    Lists {
        lists: &'a BallLists<'m>,
        ends: Vec<usize>,
    },
    /// Membership tests against the oracle.
    Rows,
}

impl Balls<'_, '_> {
    /// Aggregate weight of every ball, before any point is covered.
    fn initial_weights<O: DistanceOracle>(
        &self,
        oracle: &O,
        weights: &[u64],
        ball_cmp: f64,
    ) -> Vec<u64> {
        match self {
            Balls::Lists { lists, ends } => ends
                .iter()
                .enumerate()
                .map(|(t, &end)| {
                    end.checked_sub(1)
                        .map_or(0, |last| lists.row(t)[last].prefix)
                })
                .collect(),
            Balls::Rows => match oracle.cmp_matrix() {
                Some(matrix) => triangle_ball_weights(matrix, weights, ball_cmp),
                None => row_ball_weights(oracle, weights, ball_cmp),
            },
        }
    }

    /// Subtracts each `removed` point's weight from every ball containing
    /// it. Each point is removed once per evaluation.
    fn subtract<O: DistanceOracle>(
        &self,
        oracle: &O,
        weights: &[u64],
        ball_cmp: f64,
        removed: &[usize],
        ball_weight: &mut [u64],
    ) {
        match self {
            Balls::Lists { lists, ends } => {
                // Symmetry: the balls containing `v` are `v`'s own ball.
                for &v in removed {
                    for entry in &lists.row(v)[..ends[v]] {
                        ball_weight[entry.idx as usize] -= weights[v];
                    }
                }
            }
            Balls::Rows => {
                let n = ball_weight.len();
                let chunk = rayon::adaptive_chunk_len(n, removed.len());
                ball_weight
                    .par_chunks_mut(chunk)
                    .enumerate()
                    .for_each(|(ci, out)| {
                        let base = ci * chunk;
                        for (j, w) in out.iter_mut().enumerate() {
                            for &v in removed {
                                if oracle.cmp_dist(base + j, v) <= ball_cmp {
                                    *w -= weights[v];
                                }
                            }
                        }
                    });
            }
        }
    }
}

/// Every ball's weight from a scan of every row through the oracle's
/// batched membership test, in stack sub-blocks (the vectorized kernels for
/// point-backed oracles), chunked for the pool: a ball costs `n` distances,
/// which the work grain counts. Any chunk length gives the same result;
/// writes are per element.
fn row_ball_weights<O: DistanceOracle>(oracle: &O, weights: &[u64], ball_cmp: f64) -> Vec<u64> {
    const SUB: usize = 256;
    let n = weights.len();
    let chunk = rayon::adaptive_chunk_len(n, n);
    let mut ball_weight = vec![0u64; n];
    ball_weight
        .par_chunks_mut(chunk)
        .enumerate()
        .for_each(|(ci, out)| {
            let base = ci * chunk;
            let mut flags = [false; SUB];
            for (j, w) in out.iter_mut().enumerate() {
                let mut acc = 0u64;
                for (si, sub_weights) in weights.chunks(SUB).enumerate() {
                    let hits = &mut flags[..sub_weights.len()];
                    oracle.within_block(base + j, si * SUB, ball_cmp, hits);
                    for (&hit, &weight) in hits.iter().zip(sub_weights) {
                        if hit {
                            acc += weight;
                        }
                    }
                }
                *w = acc;
            }
        });
    ball_weight
}

/// Every ball's weight from one read of the condensed upper triangle: a
/// pair within `ball_cmp` adds each end's weight to the other end's ball,
/// and the diagonal (read as 0) adds each point's own. The same pairs as a
/// scan of every row, with exact `u64` sums, in the triangle's contiguous
/// order; chunks of rows accumulate privately and add up at the end.
fn triangle_ball_weights(matrix: &DistanceMatrix, weights: &[u64], ball_cmp: f64) -> Vec<u64> {
    let n = weights.len();
    let data = matrix.condensed();
    let rows: Vec<usize> = (0..n).collect();
    let chunk = rayon::adaptive_chunk_len(n, n / ENTRIES_PER_DISTANCE);
    let partials: Vec<Vec<u64>> = rows
        .par_chunks(chunk)
        .map(|rows| {
            let mut acc = vec![0u64; n];
            for &s in rows {
                let mut own = 0u64;
                for (&c, v) in upper_row(data, n, s).iter().zip(s + 1..) {
                    if c <= ball_cmp {
                        own += weights[v];
                        acc[v] += weights[s];
                    }
                }
                acc[s] += own;
            }
            acc
        })
        .collect();
    let mut total = if 0.0 <= ball_cmp {
        weights.to_vec()
    } else {
        vec![0; n]
    };
    for partial in partials {
        for (t, p) in total.iter_mut().zip(partial) {
            *t += p;
        }
    }
    total
}

/// One kept neighbour in a ball list.
#[derive(Clone, Copy, Debug, Default)]
struct BallEntry {
    /// `cmp(row, idx)`, the sort key.
    cmp: f64,
    /// Weight of the row's entries up to and including this one.
    prefix: u64,
    /// The neighbour's index.
    idx: u32,
}

/// Entries the search's ball lists have kept (`core.search.ball_entries`),
/// added once per build or growth.
fn ball_entries_counter() -> &'static kcenter_obs::Counter {
    static COUNTER: OnceLock<kcenter_obs::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| kcenter_obs::counter("core.search.ball_entries"))
}

/// Matrix entries a triangle scan compares in the time of one distance
/// evaluation, the unit of the pool's work grain: a vectorized compare over
/// a contiguous row costs about a nanosecond an entry, several times less
/// than a distance. A coreset of a few hundred points then scans its
/// triangle as one chunk instead of paying a fork-join.
const ENTRIES_PER_DISTANCE: usize = 8;

/// Bytes up to which ball lists may be as large as the matrix they are cut
/// from. Above it they may take a quarter of it. Balls near the optimum
/// radius hold about a `k`-th of the coreset, so a small coreset's lists
/// need most of its matrix, which is noise next to the process; a large
/// matrix dominates the search's memory, and its lists stay a fraction of
/// it (a refused growth reads the matrix instead).
const SMALL_LISTS_BYTES: usize = 1 << 20;

/// Row `s`'s entries for `v > s`: one contiguous slice of the condensed
/// upper triangle, starting at offset `s·n - s·(s+1)/2`.
fn upper_row(data: &[f64], n: usize, s: usize) -> &[f64] {
    let start = s * n - s * (s + 1) / 2;
    &data[start..start + (n - s - 1)]
}

/// One chunk's count pass in [`BallLists::reach`].
struct Tally {
    /// New pairs in each row's upper slice, for the chunk's rows.
    upper: Vec<usize>,
    /// New pairs per column over the chunk's rows.
    lower: Vec<u32>,
}

/// Sorted, capped per-row ball lists cut from a condensed proxy matrix.
///
/// Row `t` holds every `v` with `cmp(t, v) <= cap`, the diagonal included,
/// sorted by `(cmp, v)`. All rows share one flat buffer, so a set of lists
/// is one allocation. The cap only grows: a growth widens every row in
/// place and appends its `(old cap, new cap]` slice, whose entries all sort
/// after the kept ones, so rows stay sorted and their prefix sums extend.
pub(crate) struct BallLists<'m> {
    matrix: &'m DistanceMatrix,
    /// Row `t` is `entries[starts[t]..starts[t + 1]]`.
    starts: Vec<usize>,
    entries: Vec<BallEntry>,
    /// Every pair with `cmp <= cap` is kept (`-∞` before the first build).
    cap: f64,
    /// The smallest cap a growth was refused for: the lists never reach it.
    refused: f64,
}

impl<'m> BallLists<'m> {
    /// Empty lists over `matrix`; `None` when its indices do not fit the
    /// lists' `u32` entries.
    pub(crate) fn new(matrix: &'m DistanceMatrix) -> Option<Self> {
        u32::try_from(matrix.len()).ok()?;
        Some(BallLists {
            matrix,
            starts: vec![0; matrix.len() + 1],
            entries: Vec::new(),
            cap: f64::NEG_INFINITY,
            refused: f64::INFINITY,
        })
    }

    /// Row `t`'s entries.
    fn row(&self, t: usize) -> &[BallEntry] {
        &self.entries[self.starts[t]..self.starts[t + 1]]
    }

    /// Extends the lists to every pair with `cmp <= cap`. Returns `false`,
    /// leaving them as they are, when the entries and row offsets would
    /// take more than a quarter of the condensed matrix's bytes, or more
    /// than all of them while those stay under [`SMALL_LISTS_BYTES`].
    pub(crate) fn reach(&mut self, cap: f64, weights: &[u64]) -> bool {
        if cap <= self.cap {
            return true;
        }
        // A NaN cap admits no entry.
        if cap.is_nan() || cap >= self.refused {
            return false;
        }
        let n = self.starts.len() - 1;
        let data = self.matrix.condensed();
        let old = self.cap;
        let fresh = move |c: f64| c > old && c <= cap;
        // `DistanceMatrix::get` reads the diagonal as 0.
        let diagonal = usize::from(fresh(0.0));
        let matrix_bytes = std::mem::size_of_val(data);
        let budget = (matrix_bytes / 4).max(matrix_bytes.min(SMALL_LISTS_BYTES));
        let room = budget.saturating_sub(std::mem::size_of_val(self.starts.as_slice()))
            / std::mem::size_of::<BallEntry>();
        let max_new = room.saturating_sub(self.entries.len());

        // Count the new pairs of each row's contiguous upper-triangle slice,
        // and per chunk of each column. The scan stops early once the bound
        // is passed.
        let taken = AtomicUsize::new(diagonal * n);
        let rows: Vec<usize> = (0..n).collect();
        let chunk = rayon::adaptive_chunk_len(n, n / ENTRIES_PER_DISTANCE);
        let tallies: Vec<Tally> = rows
            .par_chunks(chunk)
            .map(|rows| {
                let mut tally = Tally {
                    upper: Vec::with_capacity(rows.len()),
                    lower: vec![0; n],
                };
                for &s in rows {
                    if taken.load(Ordering::Relaxed) > max_new {
                        break;
                    }
                    // Branch-free, so the loop vectorizes.
                    let mut count = 0u32;
                    for (l, &c) in tally.lower[s + 1..].iter_mut().zip(upper_row(data, n, s)) {
                        let hit = u32::from((c > old) & (c <= cap));
                        *l += hit;
                        count += hit;
                    }
                    taken.fetch_add(2 * count as usize, Ordering::Relaxed);
                    tally.upper.push(count as usize);
                }
                tally
            })
            .collect();
        let added = taken.into_inner();
        if added > max_new {
            self.refused = cap;
            return false;
        }

        // New entries per row: the diagonal, the row's own upper pairs, and
        // its column's pairs from earlier rows.
        let mut upper = Vec::with_capacity(n);
        let mut extra = vec![diagonal; n];
        for tally in tallies {
            upper.extend(tally.upper);
            for (e, &l) in extra.iter_mut().zip(&tally.lower) {
                *e += l as usize;
            }
        }
        for (e, &u) in extra.iter_mut().zip(&upper) {
            *e += u;
        }

        // Widen every row in place: from the last row back, each kept
        // slice moves right by the new entries of the rows before it.
        let kept = self.starts.clone();
        let mut shift = added;
        self.entries.reserve_exact(added);
        self.entries.resize(kept[n] + added, BallEntry::default());
        for t in (0..n).rev() {
            self.starts[t + 1] = kept[t + 1] + shift;
            shift -= extra[t];
            self.entries
                .copy_within(kept[t]..kept[t + 1], kept[t] + shift);
        }
        // Where each row's new slice begins, and the next free slot in it.
        let fresh_at: Vec<usize> = (0..n)
            .map(|t| self.starts[t] + (kept[t + 1] - kept[t]))
            .collect();
        let mut next = fresh_at.clone();
        if diagonal == 1 {
            for (t, slot) in next.iter_mut().enumerate() {
                self.entries[*slot] = BallEntry {
                    cmp: 0.0,
                    prefix: 0,
                    idx: t as u32,
                };
                *slot += 1;
            }
        }
        for s in (0..n).filter(|&s| upper[s] > 0) {
            for (&cmp, v) in upper_row(data, n, s).iter().zip(s + 1..) {
                if fresh(cmp) {
                    self.entries[next[s]] = BallEntry {
                        cmp,
                        prefix: 0,
                        idx: v as u32,
                    };
                    next[s] += 1;
                    self.entries[next[v]] = BallEntry {
                        cmp,
                        prefix: 0,
                        idx: s as u32,
                    };
                    next[v] += 1;
                }
            }
        }

        // Sort each row's new slice and extend its prefix sums.
        let mut new_slices = Vec::with_capacity(n);
        let mut rest = self.entries.as_mut_slice();
        let mut at = 0;
        for (t, &from) in fresh_at.iter().enumerate() {
            let (row, tail) = rest.split_at_mut(self.starts[t + 1] - at);
            let (kept_part, new_part) = row.split_at_mut(from - self.starts[t]);
            new_slices.push((kept_part.last().map_or(0, |e| e.prefix), new_part));
            rest = tail;
            at = self.starts[t + 1];
        }
        let chunk = rayon::adaptive_chunk_len(n, 1 + added / n.max(1));
        new_slices.par_chunks_mut(chunk).for_each(|slices| {
            for (base, new) in slices.iter_mut() {
                new.sort_unstable_by(|a, b| a.cmp.total_cmp(&b.cmp).then(a.idx.cmp(&b.idx)));
                let mut acc = *base;
                for e in new.iter_mut() {
                    acc += weights[e.idx as usize];
                    e.prefix = acc;
                }
            }
        });
        self.cap = cap;
        ball_entries_counter().add(added as u64);
        true
    }

    /// The length of every row's ball at `ball_cmp`, which must not exceed
    /// the cap: the prefix whose entries pass the same `<=` the row reads
    /// apply (a row sorted by `total_cmp` is partitioned by it).
    fn ball_ends(&self, ball_cmp: f64) -> Vec<usize> {
        debug_assert!(ball_cmp <= self.cap);
        (0..self.starts.len() - 1)
            .map(|t| self.row(t).partition_point(|e| e.cmp <= ball_cmp))
            .collect()
    }
}

/// The textbook `O(k·|T|²)` implementation recomputing every ball weight in
/// every iteration. Must return exactly the same result as
/// [`outliers_cluster`]; kept for differential testing and the ablation
/// benchmark.
pub fn outliers_cluster_naive<O: DistanceOracle>(
    oracle: &O,
    weights: &[u64],
    k: usize,
    r: f64,
    eps_hat: f64,
) -> OutliersClusterResult {
    let n = oracle.len();
    assert_eq!(weights.len(), n, "weights misaligned with points");
    assert!(k > 0, "k must be positive");
    assert!(
        r >= 0.0 && eps_hat >= 0.0,
        "radius and eps must be non-negative"
    );

    // Same comparison rule as the incremental implementation: proxy scale.
    let ball_cmp = oracle.radius_to_cmp((1.0 + 2.0 * eps_hat) * r);
    let cover_cmp = oracle.radius_to_cmp((3.0 + 4.0 * eps_hat) * r);

    let mut covered = vec![false; n];
    let mut centers = Vec::new();
    while centers.len() < k && covered.iter().any(|c| !c) {
        let mut best = 0usize;
        let mut best_w = 0u64;
        let mut first = true;
        for t in 0..n {
            let mut w = 0u64;
            for v in 0..n {
                if !covered[v] && oracle.cmp_dist(t, v) <= ball_cmp {
                    w += weights[v];
                }
            }
            if first || w > best_w {
                best = t;
                best_w = w;
                first = false;
            }
        }
        centers.push(best);
        for (v, cov) in covered.iter_mut().enumerate() {
            if !*cov && oracle.cmp_dist(best, v) <= cover_cmp {
                *cov = true;
            }
        }
    }

    let uncovered: Vec<usize> = (0..n).filter(|&v| !covered[v]).collect();
    let uncovered_weight = uncovered.iter().map(|&v| weights[v]).sum();
    OutliersClusterResult {
        centers,
        uncovered,
        uncovered_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::{Euclidean, Point};

    fn oracle_of(coords: &[f64]) -> (Vec<Point>, Vec<u64>) {
        let pts: Vec<Point> = coords.iter().map(|&c| Point::new(vec![c])).collect();
        let w = vec![1u64; pts.len()];
        (pts, w)
    }

    #[test]
    fn covers_everything_with_generous_radius() {
        let (pts, w) = oracle_of(&[0.0, 1.0, 2.0, 3.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = outliers_cluster(&oracle, &w, 2, 3.0, 0.0);
        assert!(result.uncovered.is_empty());
        assert_eq!(result.uncovered_weight, 0);
        assert!(result.centers.len() <= 2);
    }

    #[test]
    fn leaves_far_points_uncovered_with_small_radius() {
        // Two clusters 100 apart plus an outlier at 1000; k = 2, small r.
        let (pts, w) = oracle_of(&[0.0, 1.0, 100.0, 101.0, 1000.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = outliers_cluster(&oracle, &w, 2, 1.0, 0.0);
        assert_eq!(result.uncovered, vec![4]);
        assert_eq!(result.uncovered_weight, 1);
    }

    #[test]
    fn picks_heaviest_ball_first() {
        // Heavy cluster at 0 (weight 10), light cluster at 100 (weight 2).
        let pts: Vec<Point> = vec![0.0, 100.0]
            .into_iter()
            .map(|c| Point::new(vec![c]))
            .collect();
        let w = vec![10u64, 2u64];
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = outliers_cluster(&oracle, &w, 1, 1.0, 0.0);
        assert_eq!(result.centers, vec![0]);
        assert_eq!(result.uncovered, vec![1]);
        assert_eq!(result.uncovered_weight, 2);
    }

    #[test]
    fn weighted_selection_beats_cardinality() {
        // Three points near 0 (weight 1 each) vs one point at 50 carrying
        // weight 100: the heavy singleton wins the first center.
        let pts: Vec<Point> = vec![0.0, 0.5, 1.0, 50.0]
            .into_iter()
            .map(|c| Point::new(vec![c]))
            .collect();
        let w = vec![1u64, 1, 1, 100];
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = outliers_cluster(&oracle, &w, 1, 1.0, 0.0);
        assert_eq!(result.centers, vec![3]);
        assert_eq!(result.uncovered_weight, 3);
    }

    #[test]
    fn expanded_radius_covers_more_than_selection_ball() {
        // Selection ball (1+2ε̂)r around x, removal ball (3+4ε̂)r: a point at
        // distance 2.5 from the chosen center is removed but not counted in
        // the selection ball for r = 1, ε̂ = 0.
        let (pts, w) = oracle_of(&[0.0, 0.5, 2.5, 10.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = outliers_cluster(&oracle, &w, 1, 1.0, 0.0);
        assert_eq!(result.centers, vec![0]);
        assert_eq!(result.uncovered, vec![3]);
    }

    #[test]
    fn uncovered_points_are_far_from_all_centers() {
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new(vec![(i * 7 % 40) as f64]))
            .collect();
        let w = vec![1u64; pts.len()];
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let r = 2.0;
        let eps_hat = 0.25;
        let result = outliers_cluster(&oracle, &w, 3, r, eps_hat);
        let cover_r = (3.0 + 4.0 * eps_hat) * r;
        for &u in &result.uncovered {
            for &c in &result.centers {
                assert!(oracle.dist(u, c) > cover_r, "uncovered point inside cover");
            }
        }
    }

    #[test]
    fn naive_and_incremental_agree() {
        // Differential test on a moderately irregular instance.
        let pts: Vec<Point> = (0..60)
            .map(|i| {
                let x = (i as f64 * 0.37).sin() * 50.0;
                let y = (i as f64 * 0.89).cos() * 50.0;
                Point::new(vec![x, y])
            })
            .collect();
        let w: Vec<u64> = (0..60).map(|i| 1 + (i % 5) as u64).collect();
        let oracle = PointsOracle::new(&pts, &Euclidean);
        for &(k, r, eps) in &[
            (1usize, 5.0, 0.0),
            (3, 10.0, 0.1),
            (5, 20.0, 0.5),
            (8, 2.0, 1.0),
        ] {
            let fast = outliers_cluster(&oracle, &w, k, r, eps);
            let naive = outliers_cluster_naive(&oracle, &w, k, r, eps);
            assert_eq!(fast, naive, "divergence at k={k}, r={r}, eps={eps}");
        }
    }

    #[test]
    fn matrix_oracle_matches_points_oracle() {
        let pts: Vec<Point> = (0..30)
            .map(|i| Point::new(vec![(i as f64 * 1.3) % 17.0]))
            .collect();
        let w = vec![1u64; 30];
        let points_oracle = PointsOracle::new(&pts, &Euclidean);
        let matrix = DistanceMatrix::build(&pts, &Euclidean);
        let a = outliers_cluster(&points_oracle, &w, 4, 3.0, 0.25);
        let b = outliers_cluster(&matrix, &w, 4, 3.0, 0.25);
        assert_eq!(a, b);
    }

    #[test]
    fn cmp_matrix_oracle_is_bitwise_consistent_with_points_oracle() {
        // The cached-proxy oracle must apply the exact comparison rule of
        // the on-demand oracle — including at a radius engineered to sit
        // on a ball boundary, where the proxy rule (d² ≤ r²) and a
        // true-distance rule (√d² ≤ r) can disagree by one ulp.
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new(vec![(i as f64 * 2.3) % 19.0, (i as f64 * 0.7) % 5.0]))
            .collect();
        let w: Vec<u64> = (0..40).map(|i| 1 + (i % 3) as u64).collect();
        let points_oracle = PointsOracle::new(&pts, &Euclidean);
        let matrix = DistanceMatrix::build_cmp(&pts, &Euclidean);
        let cmp_matrix = CmpMatrixRef::<Point, _>::new(&matrix, &Euclidean);
        // Exact pairwise distances as radii put thresholds on boundaries.
        let mut radii: Vec<f64> = vec![3.0, 7.5];
        radii.push(Euclidean.distance(&pts[0], &pts[7]));
        radii.push(Euclidean.distance(&pts[3], &pts[22]) / (3.0 + 4.0 * 0.25));
        for &r in &radii {
            let a = outliers_cluster(&points_oracle, &w, 4, r, 0.25);
            let b = outliers_cluster(&cmp_matrix, &w, 4, r, 0.25);
            assert_eq!(a, b, "divergence at r = {r}");
        }
        // And the true-distance reads round-trip exactly.
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                assert_eq!(
                    cmp_matrix.dist(i, j).to_bits(),
                    points_oracle.dist(i, j).to_bits(),
                    "dist mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn zero_radius_still_terminates() {
        let (pts, w) = oracle_of(&[0.0, 0.0, 5.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = outliers_cluster(&oracle, &w, 2, 0.0, 0.0);
        assert!(result.centers.len() <= 2);
        // Duplicates of the chosen center are covered at r = 0.
        assert!(result.uncovered_weight <= 1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let (pts, w) = oracle_of(&[0.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let _ = outliers_cluster(&oracle, &w, 0, 1.0, 0.0);
    }
}
