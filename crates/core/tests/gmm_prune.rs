//! The triangle-inequality pruning in GMM's scan must change cost, never
//! results. The reference is the dense scan, reached through [`Dense`], a
//! wrapper metric that forwards everything except
//! [`Metric::no_closer_at_most`] (whose default never skips). Centers,
//! radius bits, nearest-center assignments and coreset weights must match
//! bitwise on inputs built to stress the bound: integer grids full of exact
//! ties and duplicates, points placed exactly at half a center gap, and
//! coordinates of wildly mixed magnitude, in 1, 7, 28 and 64 dimensions,
//! for every coordinate metric over both owned `Point`s and `PointRef`
//! views of a `PointSet`.

use std::sync::Mutex;

use kcenter_core::coreset::{build_weighted_coreset, CoresetSpec};
use kcenter_core::gmm::Gmm;
use kcenter_metric::{
    Chebyshev, Coordinates, CosineAngular, Euclidean, Manhattan, Metric, Point, PointRef, PointSet,
};

/// The scan counters are process-wide; tests that read their deltas hold
/// this lock, and so does every other test here, so no scan runs between
/// two reads.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `M` with the pruning bound left at its "never skip" default.
struct Dense<M>(M);

impl<P, M: Metric<P>> Metric<P> for Dense<M> {
    fn distance(&self, a: &P, b: &P) -> f64 {
        self.0.distance(a, b)
    }

    fn cmp_distance(&self, a: &P, b: &P) -> f64 {
        self.0.cmp_distance(a, b)
    }

    fn cmp_to_distance(&self, cmp: f64) -> f64 {
        self.0.cmp_to_distance(cmp)
    }

    fn distance_to_cmp(&self, d: f64) -> f64 {
        self.0.distance_to_cmp(d)
    }

    fn cmp_distance_block(&self, query: &P, block: &[P], out: &mut [f64]) {
        self.0.cmp_distance_block(query, block, out)
    }

    fn distance_to_block(&self, query: &P, block: &[P], out: &mut [f64]) {
        self.0.distance_to_block(query, block, out)
    }

    fn within_block(&self, query: &P, block: &[P], cmp_threshold: f64, out: &mut [bool]) {
        self.0.within_block(query, block, cmp_threshold, out)
    }

    fn cache_fingerprint(&self, points: &[P]) -> Option<u128> {
        self.0.cache_fingerprint(points)
    }
}

fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Integer coordinates in `0..5`: many duplicate points, many exactly
/// tied distances.
fn grid(n: usize, dim: usize, seed: u64) -> Vec<Point> {
    let mut next = xorshift(seed);
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| (next() * 5.0).floor()).collect()))
        .collect()
}

/// The first center `a` is the origin and the farthest point `c` is the
/// all-8 corner, so the second step's gap is exact. Points sit at exact
/// fractions `j/16` of the segment — the midpoint among them, at exactly
/// half the gap — plus one-ulp nudges of the midpoint and random points
/// inside the box.
fn half_gap(dim: usize, seed: u64) -> Vec<Point> {
    let mut next = xorshift(seed);
    let mut points = vec![Point::new(vec![0.0; dim]), Point::new(vec![8.0; dim])];
    for j in 1..16 {
        points.push(Point::new(vec![8.0 * j as f64 / 16.0; dim]));
    }
    for nudge in [f64::next_down, f64::next_up] {
        for d in 0..dim {
            let mut coords = vec![4.0; dim];
            coords[d] = nudge(4.0);
            points.push(Point::new(coords));
        }
        points.push(Point::new(vec![nudge(4.0); dim]));
    }
    for _ in 0..200 {
        points.push(Point::new((0..dim).map(|_| next() * 8.0).collect()));
    }
    points
}

/// Coordinates spanning 10⁻¹⁶⁰ to 10¹⁵⁰ (per point scale), so squared
/// differences reach from the subnormal range up to near `f64::MAX / 64`,
/// mixed with unit-scale points.
fn mixed(n: usize, dim: usize, seed: u64) -> Vec<Point> {
    const EXPONENTS: [i32; 8] = [-160, -80, -3, 0, 0, 5, 80, 150];
    let mut next = xorshift(seed);
    (0..n)
        .map(|_| {
            let scale = 10f64.powi(EXPONENTS[(next() * 8.0) as usize]);
            Point::new((0..dim).map(|_| (next() - 0.5) * scale).collect())
        })
        .collect()
}

/// Runs the pruned and the dense GMM from two starting points and
/// compares everything the scan feeds, bitwise; the coreset built on top
/// is compared from the first starting point.
fn assert_pruning_is_exact<P, M>(label: &str, points: &[P], metric: &M, tau: usize)
where
    P: Clone + Sync + Coordinates,
    M: Metric<P>,
{
    let dense_metric = Dense(metric);
    for first in [0, points.len() / 2] {
        let mut pruned = Gmm::new(points, metric, first);
        let mut dense = Gmm::new(points, &dense_metric, first);
        pruned.run_until(tau);
        dense.run_until(tau);
        assert_eq!(
            pruned.centers(),
            dense.centers(),
            "{label} first={first}: centers"
        );
        let bits = |h: &[f64]| h.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(pruned.radius_history()),
            bits(dense.radius_history()),
            "{label} first={first}: radius history"
        );
        assert_eq!(
            pruned.nearest_center_positions(),
            dense.nearest_center_positions(),
            "{label} first={first}: nearest centers"
        );

        if first != 0 {
            continue;
        }
        let spec = CoresetSpec::Fixed { tau };
        let a = build_weighted_coreset(points, metric, 1, &spec, first);
        let b = build_weighted_coreset(points, &dense_metric, 1, &spec, first);
        assert_eq!(a.coreset.weights(), b.coreset.weights(), "{label}: weights");
        let coords = |c: &kcenter_core::coreset::WeightedCoreset<P>| {
            c.points
                .iter()
                .flat_map(|wp| wp.point.coords().iter().map(|x| x.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            coords(&a.coreset),
            coords(&b.coreset),
            "{label}: coreset points"
        );
        assert_eq!(
            a.proxy_radius.to_bits(),
            b.proxy_radius.to_bits(),
            "{label}"
        );
    }
}

/// Every coordinate metric, over owned points and over `PointRef` views.
fn assert_exact_for_all_metrics(label: &str, points: &[Point], tau: usize) {
    let set = PointSet::from_points(points);
    let refs: Vec<PointRef<'_>> = set.iter().collect();
    macro_rules! both {
        ($metric:expr, $name:literal) => {
            assert_pruning_is_exact(&format!("{label}/{}/Point", $name), points, &$metric, tau);
            assert_pruning_is_exact(&format!("{label}/{}/PointRef", $name), &refs, &$metric, tau);
        };
    }
    both!(Euclidean, "euclidean");
    both!(Manhattan, "manhattan");
    both!(Chebyshev, "chebyshev");
    both!(CosineAngular, "cosine");
}

#[test]
fn integer_grids_with_ties_and_duplicates() {
    let _guard = serial();
    for (dim, seed) in [(1, 3), (7, 5), (28, 7), (64, 11)] {
        let points = grid(500, dim, seed);
        // Past saturation for dim 1 (five distinct values): the radius
        // reaches zero and GMM stops early on both paths alike.
        assert_exact_for_all_metrics(&format!("grid/d{dim}"), &points, 48);
    }
}

#[test]
fn points_at_exactly_half_a_center_gap() {
    let _guard = serial();
    for (dim, seed) in [(1, 13), (7, 17), (28, 19), (64, 23)] {
        let points = half_gap(dim, seed);
        assert_exact_for_all_metrics(&format!("half-gap/d{dim}"), &points, 40);
    }
}

#[test]
fn mixed_magnitudes() {
    let _guard = serial();
    for (dim, seed) in [(1, 29), (7, 31), (28, 37), (64, 41)] {
        let points = mixed(400, dim, seed);
        assert_exact_for_all_metrics(&format!("mixed/d{dim}"), &points, 40);
    }
}

/// Large enough that the scan splits into several chunks, with clustered
/// low-dimensional structure so most point-steps are pruned — and the
/// counters must say so: `point_steps` is exactly `n` per step, and the
/// evaluated `distances` are a small share of it.
#[test]
fn multi_chunk_scan_is_exact_and_counts_what_it_skips() {
    let _guard = serial();
    let mut next = xorshift(43);
    let points: Vec<Point> = (0..12_000)
        .map(|i| {
            let cluster = (i % 24) as f64;
            Point::new(
                (0..7)
                    .map(|d| cluster * (d as f64 + 1.0) + next())
                    .collect(),
            )
        })
        .collect();
    let tau = 80;
    let steps_before = counter("core.gmm.point_steps");
    let distances_before = counter("core.gmm.distances");
    let mut gmm = Gmm::new(&points, &Euclidean, 0);
    gmm.run_until(tau);
    let steps = counter("core.gmm.point_steps") - steps_before;
    let distances = counter("core.gmm.distances") - distances_before;
    assert_eq!(gmm.num_centers(), tau);
    assert_eq!(steps, (points.len() * tau) as u64);
    assert!(
        distances * 2 < steps,
        "pruning skipped too little: {distances} of {steps} point-steps priced"
    );
    assert_pruning_is_exact("clustered/d7", &points, &Euclidean, tau);
}

fn counter(name: &str) -> u64 {
    kcenter_obs::counter_values()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

#[test]
fn bound_contract_of_the_builtin_metrics() {
    let _guard = serial();
    let euclid = <Euclidean as Metric<Point>>::no_closer_at_most;
    let manhattan = <Manhattan as Metric<Point>>::no_closer_at_most;
    let chebyshev = <Chebyshev as Metric<Point>>::no_closer_at_most;
    // Just under a quarter (squared proxy) or a half of the gap.
    let t = euclid(&Euclidean, 100.0);
    assert!(t < 25.0 && t > 25.0 * (1.0 - 1e-6), "{t}");
    for (f, m) in [
        (manhattan(&Manhattan, 10.0), "l1"),
        (chebyshev(&Chebyshev, 10.0), "linf"),
    ] {
        assert!(f < 5.0 && f > 5.0 * (1.0 - 1e-6), "{m}: {f}");
    }
    // Non-finite or vanishing gaps never skip.
    for gap in [f64::INFINITY, f64::NAN, 0.0, 1e-300, f64::MIN_POSITIVE] {
        assert_eq!(euclid(&Euclidean, gap), f64::NEG_INFINITY, "gap {gap}");
        assert_eq!(manhattan(&Manhattan, gap), f64::NEG_INFINITY, "gap {gap}");
        assert_eq!(chebyshev(&Chebyshev, gap), f64::NEG_INFINITY, "gap {gap}");
    }
    // Metrics without a rounding-safe bound keep the default, and
    // references forward the override.
    assert_eq!(
        <CosineAngular as Metric<Point>>::no_closer_at_most(&CosineAngular, 1.0),
        f64::NEG_INFINITY
    );
    assert_eq!(
        <&Euclidean as Metric<Point>>::no_closer_at_most(&&Euclidean, 100.0),
        t
    );
}
