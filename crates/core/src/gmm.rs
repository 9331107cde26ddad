//! Gonzalez' farthest-first traversal (GMM).
//!
//! GMM grows a center set incrementally: start from an arbitrary point, then
//! repeatedly add the point farthest from the current centers. After `k`
//! steps the centers are a 2-approximation of the optimal k-center solution
//! (Gonzalez 1985); crucially for the paper, when run on a *subset* `X ⊆ S`
//! the radius achieved on `X` is still at most `2·r*_k(S)` (Lemma 1), which
//! is what makes GMM-built coresets composable.
//!
//! The incremental state is exposed ([`Gmm::step`]) because the paper's
//! coreset constructions keep running GMM *past* `k` iterations until a
//! radius-based stopping condition fires, and its experiments grow coresets
//! to a fixed size `τ = µ·k`. Each step costs one parallel `O(n)` distance
//! scan; `τ` steps cost `O(n·τ)` total.

use rayon::prelude::*;

use kcenter_metric::Metric;

/// Incremental GMM state over a fixed point set.
pub struct Gmm<'a, P, M> {
    points: &'a [P],
    metric: &'a M,
    /// Comparison proxy ([`Metric::cmp_distance`]) from each point to its
    /// closest selected center. True distances are recovered at the API
    /// boundary with [`Metric::cmp_to_distance`].
    dist: Vec<f64>,
    /// For each point, the position (in `centers`) of its closest center —
    /// the proxy function of the coreset constructions.
    nearest: Vec<u32>,
    /// Selected center indices into `points`, in selection order.
    centers: Vec<usize>,
    /// `radii[j]` = radius of the point set w.r.t. the first `j+1` centers.
    radii: Vec<f64>,
    /// Index of the current farthest point (the next center candidate).
    farthest: usize,
}

impl<'a, P: Sync, M: Metric<P>> Gmm<'a, P, M> {
    /// Starts a traversal with `points[first]` as the initial center.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or `first` is out of range.
    pub fn new(points: &'a [P], metric: &'a M, first: usize) -> Self {
        assert!(!points.is_empty(), "GMM over an empty set");
        assert!(first < points.len(), "first center out of range");
        let mut gmm = Gmm {
            points,
            metric,
            dist: vec![f64::INFINITY; points.len()],
            nearest: vec![0; points.len()],
            centers: Vec::new(),
            radii: Vec::new(),
            farthest: 0,
        };
        gmm.add_center(first);
        gmm
    }

    fn add_center(&mut self, idx: usize) {
        let center_pos = self.centers.len() as u32;
        self.centers.push(idx);
        let c = &self.points[idx];
        let metric = self.metric;
        let points = self.points;
        // One O(n) scan, chunked for the pool at the granularity the
        // adaptive splitter currently targets (finer while the pool
        // observes steals, coarser when its workers are saturated), but
        // never below the shim's work grain at one distance per point, so
        // a small partition's scan runs as one chunk. Each chunk relaxes
        // its points against the new center (comparing sqrt-free proxies)
        // and reports its local farthest point; chunk winners combine
        // left-to-right, earliest index winning ties — identical to a
        // sequential scan for every chunk length. Inside a chunk the
        // proxies come from the batched block kernel, in stack sub-blocks
        // (bit-identical to per-point `cmp_distance`, see the
        // `Metric::cmp_distance_block` contract), and the relax loop then
        // visits them in the same order the scalar scan did.
        const SUB: usize = 128;
        let scan_chunk = rayon::adaptive_chunk_len(self.dist.len(), 1);
        let (far_idx, far_cmp) = self
            .dist
            .par_chunks_mut(scan_chunk)
            .zip(self.nearest.par_chunks_mut(scan_chunk))
            .enumerate()
            .map(|(ci, (dist_chunk, near_chunk))| {
                let base = ci * scan_chunk;
                let mut best = (usize::MAX, f64::NEG_INFINITY);
                let mut buf = [0.0f64; SUB];
                let mut off = 0;
                while off < dist_chunk.len() {
                    let len = SUB.min(dist_chunk.len() - off);
                    let start = base + off;
                    metric.cmp_distance_block(c, &points[start..start + len], &mut buf[..len]);
                    let dists = dist_chunk[off..off + len].iter_mut();
                    let nears = near_chunk[off..off + len].iter_mut();
                    for (j, ((d, near), &nd)) in dists.zip(nears).zip(&buf[..len]).enumerate() {
                        if nd < *d {
                            *d = nd;
                            *near = center_pos;
                        }
                        if *d > best.1 {
                            best = (start + j, *d);
                        }
                    }
                    off += len;
                }
                best
            })
            .reduce(
                || (usize::MAX, f64::NEG_INFINITY),
                |a, b| if a.1 >= b.1 { a } else { b },
            );
        self.farthest = far_idx;
        // The single sqrt of the whole step: proxy → reported radius.
        self.radii.push(metric.cmp_to_distance(far_cmp));
    }

    /// Adds the next farthest point as a center. Returns `false` (and leaves
    /// the state unchanged) when no useful center remains: either every
    /// point is a center or the radius is already zero.
    pub fn step(&mut self) -> bool {
        if self.centers.len() == self.points.len() || self.radius() == 0.0 {
            return false;
        }
        let next = self.farthest;
        debug_assert!(self.dist[next] > 0.0);
        self.add_center(next);
        true
    }

    /// Runs steps until `target` centers are selected (or no useful center
    /// remains), returning the number of centers actually selected.
    pub fn run_until(&mut self, target: usize) -> usize {
        while self.centers.len() < target && self.step() {}
        self.centers.len()
    }

    /// Current radius: the distance of the farthest point from the centers.
    pub fn radius(&self) -> f64 {
        *self.radii.last().expect("at least one center")
    }

    /// Radius after the first `j` centers (`1 <= j <= num_centers`).
    pub fn radius_at(&self, j: usize) -> f64 {
        self.radii[j - 1]
    }

    /// The selected center indices (into the input slice), in order.
    pub fn centers(&self) -> &[usize] {
        &self.centers
    }

    /// Number of centers selected so far.
    pub fn num_centers(&self) -> usize {
        self.centers.len()
    }

    /// The radius history `radii[j] = r_{T^{j+1}}(S)` — non-increasing.
    pub fn radius_history(&self) -> &[f64] {
        &self.radii
    }

    /// For each input point, the position in [`Gmm::centers`] of its closest
    /// selected center (the proxy assignment).
    pub fn nearest_center_positions(&self) -> &[u32] {
        &self.nearest
    }

    /// Distance of each input point from its closest selected center.
    ///
    /// Internally the scan keeps sqrt-free comparison proxies; this
    /// materializes true distances (one [`Metric::cmp_to_distance`] per
    /// point) at the boundary.
    pub fn distances(&self) -> Vec<f64> {
        self.dist
            .iter()
            .map(|&c| self.metric.cmp_to_distance(c))
            .collect()
    }
}

/// Result of a fixed-`k` GMM run.
#[derive(Clone, Debug)]
pub struct GmmResult {
    /// Selected center indices into the input slice.
    pub centers: Vec<usize>,
    /// Radius of the input w.r.t. the selected centers.
    pub radius: f64,
}

/// Runs GMM for (at most) `k` centers starting from `points[first]`.
///
/// Stops early if the point set is exhausted or fully covered; the returned
/// center list then has fewer than `k` entries, and the radius is `0`.
pub fn gmm_select<P: Sync, M: Metric<P>>(
    points: &[P],
    metric: &M,
    k: usize,
    first: usize,
) -> GmmResult {
    assert!(k > 0, "k must be positive");
    let mut gmm = Gmm::new(points, metric, first);
    gmm.run_until(k);
    GmmResult {
        radius: gmm.radius(),
        centers: gmm.centers.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::{Euclidean, Point};

    fn pts(coords: &[f64]) -> Vec<Point> {
        coords.iter().map(|&c| Point::new(vec![c])).collect()
    }

    #[test]
    fn selects_extremes_on_a_line() {
        // From 0, the farthest is 10; then 5 splits the interval.
        let points = pts(&[0.0, 1.0, 5.0, 9.0, 10.0]);
        let result = gmm_select(&points, &Euclidean, 3, 0);
        assert_eq!(result.centers, vec![0, 4, 2]);
        assert_eq!(result.radius, 1.0);
    }

    #[test]
    fn radius_history_is_non_increasing() {
        let points = pts(&[3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3]);
        let mut gmm = Gmm::new(&points, &Euclidean, 0);
        gmm.run_until(points.len());
        for w in gmm.radius_history().windows(2) {
            assert!(w[1] <= w[0], "radius increased: {w:?}");
        }
        // With every point a center the radius is zero.
        assert_eq!(gmm.radius(), 0.0);
    }

    #[test]
    fn two_approximation_on_small_instance() {
        // Three tight clusters; optimal 3-center radius is 0.1.
        let points = pts(&[0.0, 0.1, 10.0, 10.1, 20.0, 20.1]);
        let result = gmm_select(&points, &Euclidean, 3, 0);
        assert!(
            result.radius <= 2.0 * 0.1 + 1e-12,
            "radius {}",
            result.radius
        );
    }

    #[test]
    fn stops_when_all_points_are_centers() {
        let points = pts(&[0.0, 1.0]);
        let result = gmm_select(&points, &Euclidean, 5, 0);
        assert_eq!(result.centers.len(), 2);
        assert_eq!(result.radius, 0.0);
    }

    #[test]
    fn stops_on_duplicate_saturation() {
        // Two distinct values among five points: after 2 centers the radius
        // is 0 and no further centers are added.
        let points = pts(&[1.0, 1.0, 1.0, 2.0, 2.0]);
        let result = gmm_select(&points, &Euclidean, 4, 0);
        assert_eq!(result.centers.len(), 2);
        assert_eq!(result.radius, 0.0);
    }

    #[test]
    fn nearest_positions_track_proxies() {
        let points = pts(&[0.0, 1.0, 10.0, 11.0]);
        let mut gmm = Gmm::new(&points, &Euclidean, 0);
        gmm.run_until(2); // centers: 0 and 3
        assert_eq!(gmm.centers(), &[0, 3]);
        let near = gmm.nearest_center_positions();
        assert_eq!(near[0], 0);
        assert_eq!(near[1], 0);
        assert_eq!(near[2], 1);
        assert_eq!(near[3], 1);
        assert_eq!(gmm.distances()[1], 1.0);
    }

    #[test]
    fn start_point_changes_trace_not_quality() {
        let points = pts(&[0.0, 0.2, 7.0, 7.2, 15.0, 15.2]);
        let a = gmm_select(&points, &Euclidean, 3, 0);
        let b = gmm_select(&points, &Euclidean, 3, 3);
        // Both are 2-approximations of the optimal radius 0.2.
        assert!(a.radius <= 0.4 + 1e-12);
        assert!(b.radius <= 0.4 + 1e-12);
    }

    #[test]
    fn radius_at_matches_history() {
        let points = pts(&[0.0, 2.0, 9.0, 13.0]);
        let mut gmm = Gmm::new(&points, &Euclidean, 0);
        gmm.run_until(3);
        assert_eq!(gmm.radius_at(1), gmm.radius_history()[0]);
        assert_eq!(gmm.radius_at(3), gmm.radius());
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_input_panics() {
        let points: Vec<Point> = Vec::new();
        let _ = Gmm::new(&points, &Euclidean, 0);
    }
}
