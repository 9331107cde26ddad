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
//! to a fixed size `τ = µ·k`.
//!
//! Each step is one parallel `O(n)` pass over the points, but it prices
//! only the points the new center might improve. A point whose nearest
//! center `a` is within half the gap between `a` and the new center `c`
//! cannot get strictly closer to `c` (triangle inequality), so the pass
//! skips it after one comparison against a per-center threshold
//! ([`Metric::no_closer_at_most`]; `τ` small distance calls per step, so
//! `O(τ²)` over a run). The skipped points are exactly ones the dense scan
//! would have left unchanged, so results are bit-identical to it; the cost
//! adapts to the data, from `O(n·τ)` distances in high dimension down to a
//! small fraction of that on low-dimensional (low doubling dimension)
//! inputs. The `core.gmm.point_steps` and `core.gmm.distances` counters
//! record visited and priced points.

use std::sync::OnceLock;

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
    /// Per-step scratch: the skip threshold of each existing center
    /// ([`Metric::no_closer_at_most`] of its gap to the new center).
    thr: Vec<f64>,
}

/// Points visited by GMM scan steps (`n` per step), kept in the shared
/// metrics registry under `core.gmm.point_steps`.
fn point_steps() -> &'static kcenter_obs::Counter {
    static COUNTER: OnceLock<kcenter_obs::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| kcenter_obs::counter("core.gmm.point_steps"))
}

/// Distances GMM scan steps actually evaluated (`core.gmm.distances`);
/// `1 - distances / point_steps` is the share the pruning skipped.
fn distances() -> &'static kcenter_obs::Counter {
    static COUNTER: OnceLock<kcenter_obs::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| kcenter_obs::counter("core.gmm.distances"))
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
            thr: Vec::new(),
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
        // One skip threshold per existing center `a` (τ small distance
        // calls per step): a point whose nearest center is `a` and whose
        // proxy is at most `thr[a]` lies within half the `c`–`a` gap of
        // `a`, so the triangle inequality proves `c` cannot be strictly
        // closer — the relax below would leave it unchanged (see
        // `Metric::no_closer_at_most` for why this holds for the rounded
        // proxies too). Metrics without the bound answer `NEG_INFINITY`.
        // With no finite threshold — also on the first step, which has no
        // existing center to index — the scan prices every point.
        self.thr.clear();
        self.thr.extend(
            self.centers[..center_pos as usize]
                .iter()
                .map(|&a| metric.no_closer_at_most(metric.cmp_distance(c, &points[a]))),
        );
        let thr = &self.thr[..];
        let prunable = thr.iter().any(|&t| t > f64::NEG_INFINITY);
        // One O(n) pass, chunked for the pool at the granularity the
        // adaptive splitter currently targets (finer while the pool
        // observes steals, coarser when its workers are saturated), but
        // never below the shim's work grain at one distance per point, so
        // a small partition's scan runs as one chunk. Each chunk walks its
        // points in 128-point stack sub-blocks. A sub-block first lists,
        // without branches, its candidates: the points above their
        // nearest center's threshold. If at least a quarter are
        // candidates, the batched block kernel prices the whole sub-block
        // (bit-identical to per-point `cmp_distance`, see the
        // `Metric::cmp_distance_block` contract); otherwise the scalar
        // `cmp_distance` prices just the candidates. Either way each
        // priced point relaxes against the new center (comparing sqrt-free
        // proxies), and a skipped point is one the relax would not have
        // changed, so `dist` and `nearest` come out bit-identical to the
        // dense scan. The farthest-point pass then walks the sub-block's
        // `dist` in order; chunk winners combine left-to-right, earliest
        // index winning ties — identical to a sequential scan for every
        // chunk length.
        // At most 256, so candidate positions fit in a `u8`.
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
                let mut cand = [0u8; SUB];
                let mut priced = 0usize;
                let mut off = 0;
                while off < dist_chunk.len() {
                    let len = SUB.min(dist_chunk.len() - off);
                    let start = base + off;
                    let block = &points[start..start + len];
                    let dists = &mut dist_chunk[off..off + len];
                    let nears = &mut near_chunk[off..off + len];
                    let mut n_cand = len;
                    if prunable {
                        n_cand = 0;
                        for (j, (&d, &a)) in dists.iter().zip(nears.iter()).enumerate() {
                            cand[n_cand] = j as u8;
                            n_cand += usize::from(d > thr[a as usize]);
                        }
                    }
                    if 4 * n_cand >= len {
                        metric.cmp_distance_block(c, block, &mut buf[..len]);
                        for ((d, near), &nd) in dists.iter_mut().zip(nears.iter_mut()).zip(&buf) {
                            if nd < *d {
                                *d = nd;
                                *near = center_pos;
                            }
                        }
                        priced += len;
                    } else {
                        for &j in &cand[..n_cand] {
                            let j = usize::from(j);
                            let nd = metric.cmp_distance(c, &block[j]);
                            if nd < dists[j] {
                                dists[j] = nd;
                                nears[j] = center_pos;
                            }
                        }
                        priced += n_cand;
                    }
                    for (j, &d) in dists.iter().enumerate() {
                        if d > best.1 {
                            best = (start + j, d);
                        }
                    }
                    off += len;
                }
                point_steps().add(dist_chunk.len() as u64);
                distances().add(priced as u64);
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
