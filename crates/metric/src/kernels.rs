//! Runtime-dispatched block distance kernels over structure-of-arrays
//! points.
//!
//! The batched entry points ([`cmp_block`], [`within_block`]) evaluate one
//! query against a block of points. On `x86_64` they dispatch at runtime to
//! SSE2 or AVX implementations (detected once per process); everywhere
//! else, and under the `KCENTER_FORCE_SCALAR` escape hatch (or
//! [`set_force_scalar`]), they run the scalar reference kernels.
//!
//! # Bit-identity
//!
//! Every vector kernel is **lane-per-point**: lane `l` of the accumulator
//! performs exactly the per-dimension sequential chain the scalar kernel
//! performs for point `l` — broadcast `q[d]`, gather coordinate `d` of 2/4
//! rows, subtract, square-or-abs, accumulate — in the same order, with the
//! same IEEE-754 operations, and **no FMA** (fused rounding would change
//! results). Element-wise vector sub/mul/add are bitwise-identical to their
//! scalar counterparts, `abs` is a sign-bit clear in both forms, and the
//! Chebyshev `max` only ever compares non-negative values with cleared sign
//! bits (the finite-point invariant excludes `NaN`; `abs` excludes `-0.0`),
//! the one regime where `maxpd` and `f64::max` agree bitwise. Remainder
//! points (block length not a multiple of the vector width) run the scalar
//! kernel. Consequently every path — scalar, SSE2, AVX — returns the same
//! bits, which is what lets the golden figures and the exec determinism
//! suite stay byte-identical whichever ISA the host has.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::pointset::Coordinates;

/// The difference-chain metrics the shared vector kernels cover.
/// [`crate::CosineAngular`] needs three accumulators and an `acos`
/// epilogue, so it has its own entry points ([`cosine_block`]) rather
/// than a variant here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMetric {
    /// Squared-distance proxy chain: `acc += (q[d] - r[d])²`.
    Euclidean,
    /// L1 chain: `acc += |q[d] - r[d]|`.
    Manhattan,
    /// L∞ chain: `acc = max(acc, |q[d] - r[d]|)`.
    Chebyshev,
}

/// Instruction set a kernel call will execute with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar reference kernels.
    Scalar,
    /// 2 points per iteration (`x86_64` baseline).
    Sse2,
    /// 4 points per iteration.
    Avx,
}

/// `true`-ish environment flag: set and neither empty nor `"0"`.
fn env_flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| !v.is_empty() && v != "0")
}

fn force_scalar_cell() -> &'static AtomicBool {
    static CELL: OnceLock<AtomicBool> = OnceLock::new();
    CELL.get_or_init(|| AtomicBool::new(env_flag("KCENTER_FORCE_SCALAR")))
}

/// Overrides the `KCENTER_FORCE_SCALAR` escape hatch programmatically —
/// tests and benchmarks toggle this instead of racing on the process
/// environment.
pub fn set_force_scalar(on: bool) {
    force_scalar_cell().store(on, Ordering::Relaxed);
}

/// Whether kernels are currently pinned to the scalar reference path.
pub fn force_scalar() -> bool {
    force_scalar_cell().load(Ordering::Relaxed)
}

/// The best ISA this host supports, detected once per process.
fn detected_isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx") {
                Isa::Avx
            } else if std::arch::is_x86_feature_detected!("sse2") {
                Isa::Sse2
            } else {
                Isa::Scalar
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Isa::Scalar
        }
    })
}

/// The ISA the next kernel call will use (detection gated by the force-
/// scalar escape hatch).
pub fn active_isa() -> Isa {
    if force_scalar() {
        Isa::Scalar
    } else {
        detected_isa()
    }
}

/// Scalar comparison-proxy kernel for one pair — **the reference**: these
/// are character-for-character the accumulation chains of the scalar
/// `Metric` implementations, and the contract every vector kernel is held
/// to bitwise.
#[inline]
pub fn scalar_cmp(kind: KernelMetric, q: &[f64], r: &[f64]) -> f64 {
    debug_assert_eq!(q.len(), r.len(), "dimension mismatch");
    match kind {
        KernelMetric::Euclidean => q
            .iter()
            .zip(r)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum(),
        KernelMetric::Manhattan => q.iter().zip(r).map(|(x, y)| (x - y).abs()).sum(),
        KernelMetric::Chebyshev => q
            .iter()
            .zip(r)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max),
    }
}

/// Scalar reference implementation of [`cmp_block`], exported so parity
/// tests can pin the dispatched kernels against it regardless of the
/// force-scalar setting.
pub fn cmp_block_scalar<P: Coordinates>(
    kind: KernelMetric,
    query: &[f64],
    block: &[P],
    out: &mut [f64],
) {
    assert_eq!(block.len(), out.len(), "output length mismatch");
    for (o, p) in out.iter_mut().zip(block) {
        *o = scalar_cmp(kind, query, p.coords());
    }
}

/// Comparison proxies of `query` against every point of `block`, written
/// into `out` (`out[i] = cmp(query, block[i])`): the squared distance for
/// [`KernelMetric::Euclidean`], the true distance for the L1/L∞ kernels.
///
/// Bit-identical to calling the scalar kernel per point, on every ISA.
///
/// # Panics
///
/// Panics if `out.len() != block.len()`.
pub fn cmp_block<P: Coordinates>(kind: KernelMetric, query: &[f64], block: &[P], out: &mut [f64]) {
    assert_eq!(block.len(), out.len(), "output length mismatch");
    match active_isa() {
        Isa::Scalar => cmp_block_scalar(kind, query, block, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => x86::cmp_block_sse2(kind, query, block, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx => x86::cmp_block_avx(kind, query, block, out),
        #[cfg(not(target_arch = "x86_64"))]
        _ => cmp_block_scalar(kind, query, block, out),
    }
}

/// Points within the radius-`cmp_threshold` ball around `query`:
/// `out[i] = cmp(query, block[i]) <= cmp_threshold` (both sides on the
/// metric's comparison-proxy scale).
///
/// Decisions are identical to computing the exact `f64` proxy and
/// comparing.
///
/// # Panics
///
/// Panics if `out.len() != block.len()`.
pub fn within_block<P: Coordinates>(
    kind: KernelMetric,
    query: &[f64],
    block: &[P],
    cmp_threshold: f64,
    out: &mut [bool],
) {
    assert_eq!(block.len(), out.len(), "output length mismatch");
    // Proxy values through the dispatched kernel, compared in place.
    // Stack sub-blocks keep the distance buffer out of the heap.
    let mut buf = [0.0f64; 64];
    for (bchunk, ochunk) in block.chunks(64).zip(out.chunks_mut(64)) {
        let k = bchunk.len();
        cmp_block(kind, query, bchunk, &mut buf[..k]);
        for (o, &d) in ochunk.iter_mut().zip(&buf[..k]) {
            *o = d <= cmp_threshold;
        }
    }
}

/// Scalar cosine-angular chain for one pair — **the reference**:
/// character-for-character the accumulation chain of
/// [`crate::CosineAngular`]'s `distance`, ending in the shared
/// `cosine_finish` epilogue.
#[inline]
pub fn scalar_cosine(q: &[f64], r: &[f64]) -> f64 {
    debug_assert_eq!(q.len(), r.len(), "dimension mismatch");
    let (mut dot, mut na, mut nb) = (0.0, 0.0, 0.0);
    for (x, y) in q.iter().zip(r) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    cosine_finish(dot, na, nb)
}

/// The zero-vector boundary + clamp + `acos` epilogue every cosine path
/// funnels through — scalar per lane on every ISA, so the vector kernels
/// only ever vectorize the bit-exact accumulation chains.
#[inline]
fn cosine_finish(dot: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 && nb == 0.0 {
        return 0.0;
    }
    if na == 0.0 || nb == 0.0 {
        return std::f64::consts::FRAC_PI_2;
    }
    // Clamp for floating-point drift before acos.
    (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0).acos()
}

/// Scalar reference implementation of [`cosine_block`], exported so parity
/// tests can pin the dispatched kernels against it regardless of the
/// force-scalar setting.
pub fn cosine_block_scalar<P: Coordinates>(query: &[f64], block: &[P], out: &mut [f64]) {
    assert_eq!(block.len(), out.len(), "output length mismatch");
    for (o, p) in out.iter_mut().zip(block) {
        *o = scalar_cosine(query, p.coords());
    }
}

/// Angular distances of `query` against every point of `block`, written
/// into `out` (`out[i] = arccos(cos_sim(query, block[i]))`, with the
/// zero-vector conventions of [`crate::CosineAngular`]).
///
/// Bit-identity argument, lane-per-point as everywhere else: the three
/// accumulators are independent sequential sums, so interleaving does not
/// affect any of them. Lane `l` of the vector `dot`/`nb` accumulators
/// performs exactly the scalar per-dimension chain for point `l` —
/// broadcast `q[d]`, gather coordinate `d`, multiply, add, **no FMA** —
/// and the query's self-dot `na` depends on the query alone, so one
/// scalar accumulation (the same op sequence the scalar kernel runs per
/// point) serves every lane. The epilogue (`cosine_finish`) is scalar
/// per lane on every ISA. Remainder points run the scalar kernel.
///
/// # Panics
///
/// Panics if `out.len() != block.len()`.
pub fn cosine_block<P: Coordinates>(query: &[f64], block: &[P], out: &mut [f64]) {
    assert_eq!(block.len(), out.len(), "output length mismatch");
    match active_isa() {
        Isa::Scalar => cosine_block_scalar(query, block, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => x86::cosine_block_sse2(query, block, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx => x86::cosine_block_avx(query, block, out),
        #[cfg(not(target_arch = "x86_64"))]
        _ => cosine_block_scalar(query, block, out),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSE2 (2 lanes) and AVX (4 lanes) kernels. Each `#[target_feature]`
    //! function is non-generic and takes concrete coordinate rows; the
    //! safe dispatchers group the block and handle remainders with the
    //! scalar kernel.

    use core::arch::x86_64::*;

    use super::{cosine_finish, scalar_cmp, scalar_cosine, KernelMetric};
    use crate::pointset::Coordinates;

    /// Four points per iteration.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX support; all rows must have `q.len()`
    /// elements.
    #[target_feature(enable = "avx")]
    unsafe fn cmp4_avx(kind: KernelMetric, q: &[f64], r: [&[f64]; 4]) -> [f64; 4] {
        let sign = _mm256_set1_pd(-0.0);
        let mut acc = _mm256_setzero_pd();
        for (d, &x) in q.iter().enumerate() {
            let qv = _mm256_set1_pd(x);
            let rv = _mm256_set_pd(r[3][d], r[2][d], r[1][d], r[0][d]);
            let diff = _mm256_sub_pd(qv, rv);
            acc = match kind {
                KernelMetric::Euclidean => _mm256_add_pd(acc, _mm256_mul_pd(diff, diff)),
                KernelMetric::Manhattan => _mm256_add_pd(acc, _mm256_andnot_pd(sign, diff)),
                KernelMetric::Chebyshev => _mm256_max_pd(acc, _mm256_andnot_pd(sign, diff)),
            };
        }
        let mut res = [0.0f64; 4];
        _mm256_storeu_pd(res.as_mut_ptr(), acc);
        res
    }

    /// Two points per iteration.
    ///
    /// # Safety
    ///
    /// Caller must have verified SSE2 support (always true on `x86_64`,
    /// detection-checked anyway); all rows must have `q.len()` elements.
    #[target_feature(enable = "sse2")]
    unsafe fn cmp2_sse2(kind: KernelMetric, q: &[f64], r: [&[f64]; 2]) -> [f64; 2] {
        let sign = _mm_set1_pd(-0.0);
        let mut acc = _mm_setzero_pd();
        for (d, &x) in q.iter().enumerate() {
            let qv = _mm_set1_pd(x);
            let rv = _mm_set_pd(r[1][d], r[0][d]);
            let diff = _mm_sub_pd(qv, rv);
            acc = match kind {
                KernelMetric::Euclidean => _mm_add_pd(acc, _mm_mul_pd(diff, diff)),
                KernelMetric::Manhattan => _mm_add_pd(acc, _mm_andnot_pd(sign, diff)),
                KernelMetric::Chebyshev => _mm_max_pd(acc, _mm_andnot_pd(sign, diff)),
            };
        }
        let mut res = [0.0f64; 2];
        _mm_storeu_pd(res.as_mut_ptr(), acc);
        res
    }

    /// Four points per iteration, cosine-angular chain: per-lane `dot`
    /// and `nb` accumulators (multiply + add, no FMA), the query's
    /// self-dot `na` pre-accumulated scalar by the dispatcher, epilogue
    /// scalar per lane.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX support; all rows must have `q.len()`
    /// elements.
    #[target_feature(enable = "avx")]
    unsafe fn cosine4_avx(q: &[f64], r: [&[f64]; 4], na: f64) -> [f64; 4] {
        let mut dot = _mm256_setzero_pd();
        let mut nb = _mm256_setzero_pd();
        for (d, &x) in q.iter().enumerate() {
            let qv = _mm256_set1_pd(x);
            let rv = _mm256_set_pd(r[3][d], r[2][d], r[1][d], r[0][d]);
            dot = _mm256_add_pd(dot, _mm256_mul_pd(qv, rv));
            nb = _mm256_add_pd(nb, _mm256_mul_pd(rv, rv));
        }
        let mut dots = [0.0f64; 4];
        let mut nbs = [0.0f64; 4];
        _mm256_storeu_pd(dots.as_mut_ptr(), dot);
        _mm256_storeu_pd(nbs.as_mut_ptr(), nb);
        [
            cosine_finish(dots[0], na, nbs[0]),
            cosine_finish(dots[1], na, nbs[1]),
            cosine_finish(dots[2], na, nbs[2]),
            cosine_finish(dots[3], na, nbs[3]),
        ]
    }

    /// Two points per iteration, cosine-angular chain.
    ///
    /// # Safety
    ///
    /// Caller must have verified SSE2 support; all rows must have `q.len()`
    /// elements.
    #[target_feature(enable = "sse2")]
    unsafe fn cosine2_sse2(q: &[f64], r: [&[f64]; 2], na: f64) -> [f64; 2] {
        let mut dot = _mm_setzero_pd();
        let mut nb = _mm_setzero_pd();
        for (d, &x) in q.iter().enumerate() {
            let qv = _mm_set1_pd(x);
            let rv = _mm_set_pd(r[1][d], r[0][d]);
            dot = _mm_add_pd(dot, _mm_mul_pd(qv, rv));
            nb = _mm_add_pd(nb, _mm_mul_pd(rv, rv));
        }
        let mut dots = [0.0f64; 2];
        let mut nbs = [0.0f64; 2];
        _mm_storeu_pd(dots.as_mut_ptr(), dot);
        _mm_storeu_pd(nbs.as_mut_ptr(), nb);
        [
            cosine_finish(dots[0], na, nbs[0]),
            cosine_finish(dots[1], na, nbs[1]),
        ]
    }

    /// The query's self-dot, accumulated in the exact op sequence the
    /// scalar kernel uses (`na += x * x` per dimension) — computed once
    /// and shared by every lane, since it depends on the query alone.
    fn query_self_dot(q: &[f64]) -> f64 {
        let mut na = 0.0;
        for &x in q {
            na += x * x;
        }
        na
    }

    pub(super) fn cosine_block_avx<P: Coordinates>(query: &[f64], block: &[P], out: &mut [f64]) {
        let na = query_self_dot(query);
        let mut groups = block.chunks_exact(4);
        let mut outs = out.chunks_exact_mut(4);
        for (g, o) in groups.by_ref().zip(outs.by_ref()) {
            // SAFETY: dispatch verified AVX; `Coordinates` rows share the
            // query's dimension per the point-set invariants.
            let res = unsafe {
                cosine4_avx(
                    query,
                    [g[0].coords(), g[1].coords(), g[2].coords(), g[3].coords()],
                    na,
                )
            };
            o.copy_from_slice(&res);
        }
        for (o, p) in outs.into_remainder().iter_mut().zip(groups.remainder()) {
            *o = scalar_cosine(query, p.coords());
        }
    }

    pub(super) fn cosine_block_sse2<P: Coordinates>(query: &[f64], block: &[P], out: &mut [f64]) {
        let na = query_self_dot(query);
        let mut groups = block.chunks_exact(2);
        let mut outs = out.chunks_exact_mut(2);
        for (g, o) in groups.by_ref().zip(outs.by_ref()) {
            // SAFETY: SSE2 is baseline on x86_64 and detection-checked.
            let res = unsafe { cosine2_sse2(query, [g[0].coords(), g[1].coords()], na) };
            o.copy_from_slice(&res);
        }
        for (o, p) in outs.into_remainder().iter_mut().zip(groups.remainder()) {
            *o = scalar_cosine(query, p.coords());
        }
    }

    pub(super) fn cmp_block_avx<P: Coordinates>(
        kind: KernelMetric,
        query: &[f64],
        block: &[P],
        out: &mut [f64],
    ) {
        let mut groups = block.chunks_exact(4);
        let mut outs = out.chunks_exact_mut(4);
        for (g, o) in groups.by_ref().zip(outs.by_ref()) {
            // SAFETY: dispatch verified AVX; `Coordinates` rows share the
            // query's dimension per the point-set invariants.
            let res = unsafe {
                cmp4_avx(
                    kind,
                    query,
                    [g[0].coords(), g[1].coords(), g[2].coords(), g[3].coords()],
                )
            };
            o.copy_from_slice(&res);
        }
        for (o, p) in outs.into_remainder().iter_mut().zip(groups.remainder()) {
            *o = scalar_cmp(kind, query, p.coords());
        }
    }

    pub(super) fn cmp_block_sse2<P: Coordinates>(
        kind: KernelMetric,
        query: &[f64],
        block: &[P],
        out: &mut [f64],
    ) {
        let mut groups = block.chunks_exact(2);
        let mut outs = out.chunks_exact_mut(2);
        for (g, o) in groups.by_ref().zip(outs.by_ref()) {
            // SAFETY: SSE2 is baseline on x86_64 and detection-checked.
            let res = unsafe { cmp2_sse2(kind, query, [g[0].coords(), g[1].coords()]) };
            o.copy_from_slice(&res);
        }
        for (o, p) in outs.into_remainder().iter_mut().zip(groups.remainder()) {
            *o = scalar_cmp(kind, query, p.coords());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn pts(rows: &[&[f64]]) -> Vec<Point> {
        rows.iter().map(|r| Point::new(r.to_vec())).collect()
    }

    const KINDS: [KernelMetric; 3] = [
        KernelMetric::Euclidean,
        KernelMetric::Manhattan,
        KernelMetric::Chebyshev,
    ];

    #[test]
    fn dispatched_kernels_match_scalar_bitwise() {
        // Odd block length exercises the remainder lanes on every ISA.
        let block = pts(&[
            &[1.0, 2.0, 3.0],
            &[-1.5, 0.25, 9.0],
            &[0.0, -0.0, 1e-300],
            &[7.0, 7.0, 7.0],
            &[2.5, -3.5, 4.5],
            &[1.0, 2.0, 3.0],
            &[-8.0, 1e12, -1e-12],
        ]);
        let query = [0.5, -2.0, 3.25];
        for kind in KINDS {
            let mut auto = vec![0.0; block.len()];
            let mut scalar = vec![0.0; block.len()];
            cmp_block(kind, &query, &block, &mut auto);
            cmp_block_scalar(kind, &query, &block, &mut scalar);
            for (a, s) in auto.iter().zip(&scalar) {
                assert_eq!(a.to_bits(), s.to_bits(), "{kind:?}");
            }
        }
    }

    #[test]
    fn dispatched_cosine_kernel_matches_scalar_bitwise() {
        // Odd block length exercises the remainder lanes on every ISA;
        // zero rows exercise the per-lane boundary epilogue.
        let block = pts(&[
            &[1.0, 2.0, 3.0],
            &[0.0, 0.0, 0.0],
            &[-1.5, 0.25, 9.0],
            &[1.0, 2.0, 3.0],
            &[-2.0, -4.0, -6.0],
            &[1e-300, -1e150, 2.5],
            &[0.5, -2.0, 3.25],
        ]);
        for query in [[0.5, -2.0, 3.25], [0.0, 0.0, 0.0]] {
            let mut auto = vec![0.0; block.len()];
            let mut scalar = vec![0.0; block.len()];
            cosine_block(&query, &block, &mut auto);
            cosine_block_scalar(&query, &block, &mut scalar);
            for (i, (a, s)) in auto.iter().zip(&scalar).enumerate() {
                assert_eq!(a.to_bits(), s.to_bits(), "point {i} query {query:?}");
            }
        }
    }

    #[test]
    fn force_scalar_pins_the_isa() {
        let was = force_scalar();
        set_force_scalar(true);
        assert_eq!(active_isa(), Isa::Scalar);
        set_force_scalar(was);
        // Detection is stable within a process.
        assert_eq!(active_isa(), active_isa());
    }

    #[test]
    fn within_block_matches_exact_compare() {
        let block = pts(&[
            &[0.0, 0.0],
            &[3.0, 4.0],
            &[1.0, 1.0],
            &[5.0, 12.0],
            &[3.0, 4.0],
        ]);
        let query = [0.0, 0.0];
        for kind in KINDS {
            let mut cmps = vec![0.0; block.len()];
            cmp_block_scalar(kind, &query, &block, &mut cmps);
            // Thresholds at, below, and above exact values.
            for &t in &[
                cmps[1],
                cmps[1] * 0.999,
                cmps[1] * 1.001,
                0.0,
                f64::INFINITY,
            ] {
                let mut flags = vec![false; block.len()];
                within_block(kind, &query, &block, t, &mut flags);
                for (f, &c) in flags.iter().zip(&cmps) {
                    assert_eq!(*f, c <= t, "{kind:?} t={t}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn cmp_block_rejects_length_mismatch() {
        let block = pts(&[&[1.0]]);
        let mut out = [0.0; 2];
        cmp_block(KernelMetric::Euclidean, &[0.0], &block, &mut out);
    }
}
