//! The radius search's ball lists must change cost, never results.
//!
//! `outliers_cluster` reads its balls from sorted, capped per-row lists
//! when the oracle is matrix-backed, and from row reads otherwise. Both are
//! checked here against `outliers_cluster_naive`, the textbook loop, and
//! `find_min_feasible_radius` against a search written out in this file
//! that calls the naive loop at every radius. Centers, uncovered sets and
//! weights, radius bits and evaluation counts must match exactly on inputs
//! built to sit on list boundaries: integer grids full of ties and
//! duplicates, radii exactly on pairwise distances and one ulp either side,
//! and `r = 0`, under both search modes, for the proxy-matrix view, the
//! true-distance matrix and the on-demand oracle, over the Euclidean,
//! Manhattan, Chebyshev and cosine-angle metrics.

use std::sync::Mutex;

use kcenter_core::outliers_cluster::{
    outliers_cluster, outliers_cluster_naive, CmpMatrixRef, DistanceOracle, OutliersClusterResult,
    PointsOracle,
};
use kcenter_core::radius_search::{find_min_feasible_radius, SearchMode};
use kcenter_metric::{Chebyshev, CosineAngular, DistanceMatrix, Euclidean, Manhattan, Point};

/// The search counters are process-wide; every test here holds this lock,
/// so no search runs between two reads of a delta.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(name: &str) -> u64 {
    kcenter_obs::counter_values()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// A `side × side` integer grid at `1..=side` (no origin, so every cosine
/// angle is defined), with every fifth point repeated. Weights cycle
/// through 1..=4 so ball weights tie often but not always.
fn grid(side: usize) -> (Vec<Point>, Vec<u64>) {
    let mut points = Vec::new();
    for i in 0..side * side {
        let p = Point::new(vec![(i % side + 1) as f64, (i / side + 1) as f64]);
        if i % 5 == 0 {
            points.push(p.clone());
        }
        points.push(p);
    }
    let weights = (0..points.len()).map(|i| 1 + (i % 4) as u64).collect();
    (points, weights)
}

/// Eight compact integer blobs of 25 points each, far apart, plus a few
/// duplicates: a coreset-like input whose balls stay small across most of
/// a search, so one set of lists serves many evaluations.
fn blobs() -> (Vec<Point>, Vec<u64>) {
    let mut points = Vec::new();
    for b in 0..8 {
        let (cx, cy) = ((b % 4) as f64 * 40.0 + 3.0, (b / 4) as f64 * 40.0 + 3.0);
        for i in 0..25 {
            let p = Point::new(vec![cx + (i % 5) as f64, cy + (i / 5) as f64]);
            if i % 12 == 0 {
                points.push(p.clone());
            }
            points.push(p);
        }
    }
    let weights = (0..points.len()).map(|i| 1 + (i * 7 % 5) as u64).collect();
    (points, weights)
}

/// Radii whose selection threshold `(1+2ε̂)·r` lands on the smallest few
/// distinct pairwise distances and on the median one, and one ulp either
/// side of each, plus `r = 0`.
fn boundary_radii<O: DistanceOracle>(oracle: &O, eps_hat: f64) -> Vec<f64> {
    let n = oracle.len();
    let mut ds: Vec<f64> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .map(|(i, j)| oracle.dist(i, j))
        .filter(|&d| d > 0.0)
        .collect();
    ds.sort_by(f64::total_cmp);
    ds.dedup();
    let mut picks: Vec<f64> = ds.iter().take(4).copied().collect();
    picks.push(ds[ds.len() / 2]);
    let mut radii = vec![0.0];
    for d in picks {
        let r = d / (1.0 + 2.0 * eps_hat);
        radii.extend([r.next_down(), r, r.next_up()]);
    }
    radii
}

fn assert_cluster_matches<O: DistanceOracle>(label: &str, oracle: &O, weights: &[u64]) {
    for eps_hat in [0.0, 0.5, 0.25] {
        for r in boundary_radii(oracle, eps_hat) {
            for k in [1, 3, 6] {
                let lists = outliers_cluster(oracle, weights, k, r, eps_hat);
                let naive = outliers_cluster_naive(oracle, weights, k, r, eps_hat);
                assert_eq!(lists, naive, "{label}: k={k} r={r:e} eps={eps_hat}");
            }
        }
    }
}

/// `find_min_feasible_radius`, step for step, with the naive loop as its
/// only `OutliersCluster`. Returns the radius, the clustering at it and the
/// evaluation count.
fn naive_search<O: DistanceOracle>(
    oracle: &O,
    weights: &[u64],
    k: usize,
    z: u64,
    eps_hat: f64,
    mode: SearchMode,
) -> (f64, OutliersClusterResult, usize) {
    let n = oracle.len();
    let mut evaluations = 0;
    let mut evaluate = |r: f64| {
        evaluations += 1;
        outliers_cluster_naive(oracle, weights, k, r, eps_hat)
    };
    let first = evaluate(0.0);
    if first.uncovered_weight <= z {
        return (0.0, first, 1);
    }
    let cover = 3.0 + 4.0 * eps_hat;
    let pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
    let candidates: Vec<f64> = match mode {
        SearchMode::ExactCandidates => {
            let mut all: Vec<f64> = pairs
                .flat_map(|(i, j)| {
                    let d = oracle.dist(i, j);
                    [d, d / cover]
                })
                .filter(|&d| d > 0.0)
                .collect();
            all.sort_by(f64::total_cmp);
            all.dedup();
            all
        }
        SearchMode::GeometricGrid => {
            let delta = eps_hat / cover;
            let min_cmp = pairs
                .map(|(i, j)| oracle.cmp_dist(i, j))
                .filter(|&c| c > 0.0)
                .fold(f64::INFINITY, f64::min);
            if min_cmp == f64::INFINITY {
                Vec::new()
            } else {
                let r_lo = oracle.cmp_to_radius(min_cmp) / cover;
                let far = (1..n).map(|j| oracle.cmp_dist(0, j)).fold(0.0, f64::max);
                let r_hi = 2.0 * oracle.cmp_to_radius(far);
                let steps = ((r_hi / r_lo).ln() / (1.0 + delta).ln()).ceil() as usize + 1;
                (0..=steps)
                    .map(|i| r_lo * (1.0 + delta).powi(i as i32))
                    .collect()
            }
        }
    };
    if candidates.is_empty() {
        let again = evaluate(0.0);
        return (0.0, again, evaluations);
    }
    let (mut lo, mut hi) = (0, candidates.len() - 1);
    let top = evaluate(candidates[hi]);
    assert!(top.uncovered_weight <= z, "top candidate infeasible");
    let mut best = (candidates[hi], top);
    let low = evaluate(candidates[lo]);
    if low.uncovered_weight <= z {
        return (candidates[lo], low, evaluations);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let result = evaluate(candidates[mid]);
        if result.uncovered_weight <= z {
            hi = mid;
            best = (candidates[mid], result);
        } else {
            lo = mid;
        }
    }
    (best.0, best.1, evaluations)
}

fn assert_search_matches<O: DistanceOracle>(
    label: &str,
    oracle: &O,
    weights: &[u64],
    cases: &[(usize, u64)],
) {
    for mode in [SearchMode::GeometricGrid, SearchMode::ExactCandidates] {
        for &(k, z) in cases {
            let eps_hat = 0.25;
            let fast = find_min_feasible_radius(oracle, weights, k, z, eps_hat, mode);
            let (radius, clustering, evaluations) =
                naive_search(oracle, weights, k, z, eps_hat, mode);
            let at = format!("{label}: {mode:?} k={k} z={z}");
            assert_eq!(fast.radius.to_bits(), radius.to_bits(), "{at}: radius");
            assert_eq!(fast.clustering, clustering, "{at}: clustering");
            assert_eq!(fast.evaluations, evaluations, "{at}: evaluations");
        }
    }
}

/// Runs `$body` with `$oracle` bound to the proxy-matrix view, the
/// true-distance matrix and the on-demand oracle over the same points.
macro_rules! on_each_oracle {
    ($points:expr, $metric:expr, |$label:ident, $oracle:ident| $body:block) => {{
        let points: &[Point] = $points;
        let metric = $metric;
        {
            let matrix = DistanceMatrix::build_cmp(points, &metric);
            let $oracle = CmpMatrixRef::<Point, _>::new(&matrix, &metric);
            let $label = "proxy matrix";
            $body
        }
        {
            let $oracle = DistanceMatrix::build(points, &metric);
            let $label = "distance matrix";
            $body
        }
        {
            let $oracle = PointsOracle::new(points, &metric);
            let $label = "on demand";
            $body
        }
    }};
}

macro_rules! on_each_metric {
    (|$metric:ident| $body:block) => {{
        {
            let $metric = Euclidean;
            $body
        }
        {
            let $metric = Manhattan;
            $body
        }
        {
            let $metric = Chebyshev;
            $body
        }
        {
            let $metric = CosineAngular;
            $body
        }
    }};
}

#[test]
fn cluster_calls_match_the_naive_loop_on_boundary_radii() {
    let _guard = serial();
    let (points, weights) = grid(8);
    on_each_metric!(|metric| {
        on_each_oracle!(&points, metric, |label, oracle| {
            assert_cluster_matches(label, &oracle, &weights);
        });
    });
}

#[test]
fn searches_match_a_naive_search_in_both_modes() {
    let _guard = serial();
    let (points, weights) = grid(7);
    on_each_metric!(|metric| {
        on_each_oracle!(&points, metric, |label, oracle| {
            assert_search_matches(label, &oracle, &weights, &[(1, 0), (3, 6), (5, 20)]);
        });
    });
}

#[test]
fn searches_on_blobs_reuse_growing_lists() {
    let _guard = serial();
    let (points, weights) = blobs();
    let cases = [(8, 0), (6, 30), (4, 60)];
    let matrix = DistanceMatrix::build_cmp(&points, &Euclidean);
    let oracle = CmpMatrixRef::<Point, _>::new(&matrix, &Euclidean);
    let evaluations_before = counter("core.search.evaluations");
    let entries_before = counter("core.search.ball_entries");
    let result = find_min_feasible_radius(&oracle, &weights, 8, 0, 0.25, SearchMode::GeometricGrid);
    let evaluations = counter("core.search.evaluations") - evaluations_before;
    let entries = counter("core.search.ball_entries") - entries_before;
    // One count per evaluation; the lists kept something, and never more
    // than the matrix's bytes allow (24-byte entries against 8-byte pairs).
    assert_eq!(evaluations, result.evaluations as u64);
    let n = points.len() as u64;
    assert!(entries > 0, "the search never built its lists");
    assert!(entries * 24 <= 4 * n * (n - 1), "{entries} entries kept");
    assert_search_matches("euclidean blobs", &oracle, &weights, &cases);

    let matrix = DistanceMatrix::build_cmp(&points, &Manhattan);
    let oracle = CmpMatrixRef::<Point, _>::new(&matrix, &Manhattan);
    assert_search_matches("manhattan blobs", &oracle, &weights, &cases);
}

#[test]
fn duplicates_and_zero_radius() {
    let _guard = serial();
    // Every point four times over: r = 0 balls are the copies, and a
    // search with room for a whole point's weight stops at r = 0.
    let mut points = Vec::new();
    for i in 0..30 {
        for _ in 0..4 {
            points.push(Point::new(vec![(i % 6) as f64, (i / 6) as f64 * 2.0]));
        }
    }
    let weights: Vec<u64> = (0..points.len()).map(|i| 1 + (i % 3) as u64).collect();
    let matrix = DistanceMatrix::build_cmp(&points, &Euclidean);
    let oracle = CmpMatrixRef::<Point, _>::new(&matrix, &Euclidean);
    for k in [1, 5, 30, 31] {
        assert_eq!(
            outliers_cluster(&oracle, &weights, k, 0.0, 0.25),
            outliers_cluster_naive(&oracle, &weights, k, 0.0, 0.25),
            "k={k}"
        );
    }
    assert_search_matches(
        "duplicates",
        &oracle,
        &weights,
        &[(30, 0), (29, 9), (2, 100)],
    );
}
