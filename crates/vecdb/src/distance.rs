//! Distance metrics and the one scoring kernel every path runs on.
//!
//! Every dot product and squared distance in the crate goes through
//! [`dot`] or [`squared_euclid`] (or their twins over u8 codes, which
//! share the accumulation order): single pairs
//! ([`Distance::distance`], [`Distance::distance_normed`]), batches
//! ([`Distance::score_batch`]), exact scans, both passes of the
//! quantized tier, [`crate::FlatIndex`], and HNSW construction
//! and search. One kernel means every path returns the same bits for
//! the same pair, so batched and sequential answers stay bit-identical
//! by construction.
//!
//! The kernel keeps 16 partial sums as four `[f32; 4]` groups and
//! reduces them lane-wise in a fixed order. Sixteen independent chains
//! hide the floating-point add latency that a single serial chain pays
//! on every element, and the `[f32; 4]` shape lets LLVM keep each group
//! in one SIMD register on the default target (no `target-cpu`, no
//! `std::arch`): about 55 ns per 256-d pair on a 2-core x86-64 host,
//! against about 210 ns for one serial chain. The summation order
//! depends only on the vector length (elements past the last 16-chunk
//! form one serial tail), so results are deterministic, and
//! `x * y == y * x` makes both kernels symmetric: `dot(a, b) == dot(b, a)`
//! bit for bit.
//!
//! Collection data is immutable once inserted, so the L2 norm of every
//! stored vector is known at insert time. [`inv_norm`] computes the
//! cached inverse norm; [`Distance::distance_normed`] consumes it, which
//! for [`Distance::Cosine`] turns every comparison into one dot product:
//! `1 - dot * (inv_a * inv_b)`. The product of the two inverse norms is
//! formed first, so cosine is symmetric too — an HNSW link can cache
//! its distance and a later recomputation returns the same bits.

use serde::{Deserialize, Serialize};

/// Number of partial sums the kernel keeps (four groups of four).
const LANES: usize = 16;

/// Folds the 16 partial sums in a fixed order: the four groups
/// lane-wise, then the four lanes pairwise.
#[inline]
fn reduce(acc: [[f32; 4]; 4]) -> f32 {
    let mut s = [0.0f32; 4];
    for (l, out) in s.iter_mut().enumerate() {
        *out = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
    }
    (s[0] + s[1]) + (s[2] + s[3])
}

/// The shared body of every kernel: accumulates `$term` over element
/// pairs into 16 fixed partial sums — element `i` of each 16-element
/// chunk into sum `i` — reduces them, and adds the elements past the
/// last full chunk as one serial tail. The tail has its own sum so the
/// 16 stay in registers (indexing them by tail position would spill
/// them). A macro rather than a generic closure, so the term is
/// inlined in every build profile and the element types may differ.
macro_rules! accumulate {
    ($a:expr, $b:expr, |$x:ident, $y:ident| $term:expr) => {{
        let n = $a.len().min($b.len());
        let (a, b) = (&$a[..n], &$b[..n]);
        let mut acc = [[0.0f32; 4]; 4];
        let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
        let (ra, rb) = (ca.remainder(), cb.remainder());
        for (xs, ys) in ca.zip(cb) {
            // `while`, not `for`: identical code once optimized, and
            // free of per-element iterator calls in unoptimized builds.
            let mut g = 0;
            while g < 4 {
                let mut l = 0;
                while l < 4 {
                    let ($x, $y) = (xs[4 * g + l], ys[4 * g + l]);
                    acc[g][l] += $term;
                    l += 1;
                }
                g += 1;
            }
        }
        let mut tail = 0.0f32;
        for (&$x, &$y) in ra.iter().zip(rb) {
            tail += $term;
        }
        reduce(acc) + tail
    }};
}

/// Dot product of two equal-length vectors: the canonical kernel.
/// Never inlined, so its register allocation — and its speed — is the
/// same at every call site (inlined copies measured up to 2x slower in
/// some callers).
#[must_use]
#[inline(never)]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    accumulate!(a, b, |x, y| x * y)
}

/// Squared Euclidean distance of two equal-length vectors, with the
/// same accumulation order as [`dot`].
#[must_use]
#[inline(never)]
pub fn squared_euclid(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    accumulate!(a, b, |x, y| (x - y) * (x - y))
}

/// [`dot`] of a query against u8 codes dequantized on the fly as
/// `min + scale * code`, in the same accumulation order.
#[must_use]
#[inline(never)]
pub(crate) fn dot_codes(q: &[f32], codes: &[u8], min: f32, scale: f32) -> f32 {
    debug_assert_eq!(q.len(), codes.len());
    #[cfg(target_arch = "x86_64")]
    return sse2::codes(q, codes, min, scale, false);
    #[cfg(not(target_arch = "x86_64"))]
    accumulate!(q, codes, |x, c| x * (min + scale * f32::from(c)))
}

/// [`squared_euclid`] of a query against dequantized u8 codes.
#[must_use]
#[inline(never)]
pub(crate) fn squared_euclid_codes(q: &[f32], codes: &[u8], min: f32, scale: f32) -> f32 {
    debug_assert_eq!(q.len(), codes.len());
    #[cfg(target_arch = "x86_64")]
    return sse2::codes(q, codes, min, scale, true);
    #[cfg(not(target_arch = "x86_64"))]
    accumulate!(q, codes, |x, c| {
        let d = x - (min + scale * f32::from(c));
        d * d
    })
}

/// The u8-code kernels spelled out in SSE2, which every x86-64 CPU
/// has. LLVM does not vectorize the u8 → f32 widening well on that
/// baseline (measured 145 ns per 256-d pair against 63 ns here). Every
/// lane does the same IEEE operations in the same order as
/// [`accumulate!`], so the result is bit-identical to the portable
/// kernel that other targets compile.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{reduce, LANES};
    use std::arch::x86_64::{
        __m128, _mm_add_ps, _mm_cvtepi32_ps, _mm_loadu_ps, _mm_loadu_si128, _mm_mul_ps,
        _mm_set1_ps, _mm_setzero_ps, _mm_setzero_si128, _mm_storeu_ps, _mm_sub_ps,
        _mm_unpackhi_epi16, _mm_unpackhi_epi8, _mm_unpacklo_epi16, _mm_unpacklo_epi8,
    };

    /// Dot product (`euclid == false`) or squared distance of `q`
    /// against the dequantized `codes`.
    pub(super) fn codes(q: &[f32], codes: &[u8], min: f32, scale: f32, euclid: bool) -> f32 {
        let n = q.len().min(codes.len());
        let (q, codes) = (&q[..n], &codes[..n]);
        let (cq, cc) = (q.chunks_exact(LANES), codes.chunks_exact(LANES));
        let (rq, rc) = (cq.remainder(), cc.remainder());
        let mut sums = [[0.0f32; 4]; 4];
        // SAFETY: SSE2 is part of the x86-64 baseline. Each chunk holds
        // exactly 16 codes and 16 floats, so the 16-byte load and the
        // four 4-float loads at offsets 0, 4, 8 and 12 stay inside it;
        // both loads are unaligned variants.
        unsafe {
            let (zero, vmin, vscale) = (_mm_setzero_si128(), _mm_set1_ps(min), _mm_set1_ps(scale));
            let mut acc: [__m128; 4] = [_mm_setzero_ps(); 4];
            for (xs, cs) in cq.zip(cc) {
                let bytes = _mm_loadu_si128(cs.as_ptr().cast());
                let (lo, hi) = (
                    _mm_unpacklo_epi8(bytes, zero),
                    _mm_unpackhi_epi8(bytes, zero),
                );
                let words = [
                    _mm_unpacklo_epi16(lo, zero),
                    _mm_unpackhi_epi16(lo, zero),
                    _mm_unpacklo_epi16(hi, zero),
                    _mm_unpackhi_epi16(hi, zero),
                ];
                for (g, sum) in acc.iter_mut().enumerate() {
                    let y = _mm_add_ps(vmin, _mm_mul_ps(vscale, _mm_cvtepi32_ps(words[g])));
                    let x = _mm_loadu_ps(xs.as_ptr().add(4 * g));
                    let term = if euclid {
                        let d = _mm_sub_ps(x, y);
                        _mm_mul_ps(d, d)
                    } else {
                        _mm_mul_ps(x, y)
                    };
                    *sum = _mm_add_ps(*sum, term);
                }
            }
            for (out, sum) in sums.iter_mut().zip(acc) {
                _mm_storeu_ps(out.as_mut_ptr(), sum);
            }
        }
        let mut tail = 0.0f32;
        for (&x, &c) in rq.iter().zip(rc) {
            let y = min + scale * f32::from(c);
            tail += if euclid { (x - y) * (x - y) } else { x * y };
        }
        reduce(sums) + tail
    }
}

/// Inverse L2 norm of a vector (`1 / ‖v‖`), the quantity cached per
/// stored point so cosine scoring needs only a dot product. Returns
/// `0.0` for the zero vector, which makes the fused cosine distance
/// degrade to the conventional "zero vector is maximally far" answer.
#[must_use]
pub fn inv_norm(v: &[f32]) -> f32 {
    let n = dot(v, v);
    if n == 0.0 {
        0.0
    } else {
        1.0 / n.sqrt()
    }
}

/// Software-prefetches the first cache lines of `v` into L1, for use
/// just before scoring the *next* stored vector while the current one
/// is still being processed. No-op on targets without a stable prefetch
/// intrinsic; prefetching is a pure hint either way (never faults).
#[inline]
pub fn prefetch_slice(v: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let ptr = v.as_ptr().cast::<i8>();
        _mm_prefetch(ptr, _MM_HINT_T0);
        if v.len() > 16 {
            _mm_prefetch(ptr.add(64), _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = v;
    }
}

/// Supported vector distance metrics (Qdrant's set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Distance {
    /// Cosine distance `1 - cos(a, b)`. The paper's setting (OpenAI
    /// embeddings are compared by cosine).
    #[default]
    Cosine,
    /// Negative dot product (for already-normalized vectors this equals
    /// cosine up to an affine transform).
    Dot,
    /// Squared Euclidean distance.
    Euclid,
}

impl Distance {
    /// Distance between two vectors; **lower is closer** for every
    /// metric. Cosine derives both inverse norms and then equals
    /// [`Distance::distance_normed`] exactly.
    #[must_use]
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Distance::Cosine => self.distance_normed(a, inv_norm(a), b, inv_norm(b)),
            Distance::Dot => -dot(a, b),
            Distance::Euclid => squared_euclid(a, b),
        }
    }

    /// Distance between two vectors with both inverse norms already
    /// known (**lower is closer**). For [`Distance::Cosine`] this is the
    /// norm-cached fast path: one dot product, `1 - dot * (inv_a * inv_b)`,
    /// symmetric in its two operands. The other metrics ignore the norms
    /// and match [`Distance::distance`] exactly.
    #[must_use]
    #[inline]
    pub fn distance_normed(self, a: &[f32], inv_a: f32, b: &[f32], inv_b: f32) -> f32 {
        match self {
            Distance::Cosine => {
                if inv_a == 0.0 || inv_b == 0.0 {
                    return 1.0;
                }
                1.0 - dot(a, b) * (inv_a * inv_b)
            }
            Distance::Dot => -dot(a, b),
            Distance::Euclid => squared_euclid(a, b),
        }
    }

    /// Scores one stored vector against `queries.len()` query vectors,
    /// writing one distance per query into `out` (**lower is closer**,
    /// same scale as [`Distance::distance_normed`]). Each lane runs the
    /// canonical kernel, so it is **bit-identical** to
    /// [`Distance::distance_normed`] on that query; the batch entry
    /// point lets scans hand over one stored vector per pass.
    ///
    /// `query_inv_norms[m]` must be `inv_norm(queries[m])` and
    /// `stored_inv` must be `inv_norm(stored)`; both are ignored by the
    /// non-cosine metrics.
    ///
    /// # Panics
    /// If `out` or `query_inv_norms` are shorter than `queries`.
    pub fn score_batch(
        self,
        queries: &[&[f32]],
        query_inv_norms: &[f32],
        stored: &[f32],
        stored_inv: f32,
        out: &mut [f32],
    ) {
        assert!(out.len() >= queries.len());
        assert!(query_inv_norms.len() >= queries.len());
        for ((slot, q), &q_inv) in out.iter_mut().zip(queries).zip(query_inv_norms) {
            *slot = self.distance_normed(q, q_inv, stored, stored_inv);
        }
    }

    /// Converts a distance back into a similarity score (**higher is
    /// closer**), the form reported to API users.
    #[must_use]
    pub fn similarity_from_distance(self, d: f32) -> f32 {
        match self {
            Distance::Cosine => 1.0 - d,
            Distance::Dot => -d,
            Distance::Euclid => -d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_identical_is_zero() {
        let a = [0.6f32, 0.8];
        assert!(Distance::Cosine.distance(&a, &a).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_one() {
        assert!((Distance::Cosine.distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_max() {
        assert_eq!(Distance::Cosine.distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0);
    }

    #[test]
    fn euclid_matches_manual() {
        let d = Distance::Euclid.distance(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((d - 25.0).abs() < 1e-6);
    }

    #[test]
    fn dot_lower_is_closer() {
        let q = [1.0f32, 0.0];
        let near = [0.9f32, 0.1];
        let far = [0.1f32, 0.9];
        assert!(Distance::Dot.distance(&q, &near) < Distance::Dot.distance(&q, &far));
    }

    #[test]
    fn similarity_roundtrip() {
        let d = Distance::Cosine.distance(&[1.0, 0.0], &[0.7, 0.7]);
        let s = Distance::Cosine.similarity_from_distance(d);
        assert!((s - 0.7f32 / (0.98f32).sqrt()).abs() < 1e-3);
    }

    /// Deterministic pseudo-random vector (hash-mix, no RNG state).
    fn pseudo(seed: u64, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|i| {
                let h = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xff51_afd7_ed55_8ccd);
                ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
            })
            .collect()
    }

    #[test]
    fn normed_distance_matches_plain_within_rounding() {
        for metric in [Distance::Cosine, Distance::Dot, Distance::Euclid] {
            for seed in 0..20u64 {
                let a = pseudo(seed, 24);
                let b = pseudo(seed + 100, 24);
                let plain = metric.distance(&a, &b);
                let normed = metric.distance_normed(&a, inv_norm(&a), &b, inv_norm(&b));
                assert!(
                    (plain - normed).abs() < 1e-5,
                    "{metric:?}: {plain} vs {normed}"
                );
            }
        }
    }

    #[test]
    fn normed_zero_vector_is_max_cosine() {
        let z = [0.0f32, 0.0];
        let v = [1.0f32, 0.0];
        assert_eq!(inv_norm(&z), 0.0);
        assert_eq!(
            Distance::Cosine.distance_normed(&z, inv_norm(&z), &v, inv_norm(&v)),
            1.0
        );
    }

    #[test]
    fn score_batch_matches_per_query_normed_distance() {
        let stored = pseudo(999, 24);
        let stored_inv = inv_norm(&stored);
        let queries: Vec<Vec<f32>> = (0..7).map(|s| pseudo(s, 24)).collect();
        let q_refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let q_invs: Vec<f32> = queries.iter().map(|q| inv_norm(q)).collect();
        for metric in [Distance::Cosine, Distance::Dot, Distance::Euclid] {
            let mut out = vec![0.0f32; queries.len()];
            metric.score_batch(&q_refs, &q_invs, &stored, stored_inv, &mut out);
            for (m, q) in queries.iter().enumerate() {
                let single = metric.distance_normed(q, q_invs[m], &stored, stored_inv);
                assert_eq!(out[m], single, "{metric:?} query {m} diverged from single");
            }
        }
    }

    #[test]
    fn wide_kernels_are_bit_identical_to_scalar() {
        // The 16-sum kernel behind every path: 13 queries through
        // `score_batch` must each equal the single-pair path exactly,
        // and the kernel must agree with a plain serial chain up to
        // the rounding of its reassociated sum.
        let stored = pseudo(4242, 96);
        let stored_inv = inv_norm(&stored);
        let queries: Vec<Vec<f32>> = (0..13).map(|s| pseudo(s + 500, 96)).collect();
        let q_refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let q_invs: Vec<f32> = queries.iter().map(|q| inv_norm(q)).collect();
        for metric in [Distance::Cosine, Distance::Dot, Distance::Euclid] {
            let mut out = vec![0.0f32; queries.len()];
            metric.score_batch(&q_refs, &q_invs, &stored, stored_inv, &mut out);
            for (m, q) in queries.iter().enumerate() {
                let single = metric.distance_normed(q, q_invs[m], &stored, stored_inv);
                assert_eq!(out[m], single, "{metric:?} query {m} diverged from single");
            }
        }
        for q in &q_refs {
            let serial_dot: f32 = q.iter().zip(&stored).map(|(x, y)| x * y).sum();
            let serial_sq: f32 = q.iter().zip(&stored).map(|(x, y)| (x - y) * (x - y)).sum();
            assert!((dot(q, &stored) - serial_dot).abs() < 1e-4);
            assert!((squared_euclid(q, &stored) - serial_sq).abs() < 1e-3);
        }
    }

    #[test]
    fn code_kernels_match_the_portable_kernel() {
        let (min, scale) = (-0.9f32, 1.8f32 / 255.0);
        for dim in (0..=40).chain([256]) {
            let q = pseudo(dim as u64 + 5, dim);
            let codes: Vec<u8> = (0..dim).map(|i| (i * 37 % 256) as u8).collect();
            let dot_ref = accumulate!(q, codes, |x, c| x * (min + scale * f32::from(c)));
            let sq_ref = accumulate!(q, codes, |x, c| {
                let d = x - (min + scale * f32::from(c));
                d * d
            });
            assert_eq!(dot_codes(&q, &codes, min, scale), dot_ref, "dot, dim {dim}");
            assert_eq!(
                squared_euclid_codes(&q, &codes, min, scale),
                sq_ref,
                "euclid, dim {dim}"
            );
        }
    }

    #[test]
    fn kernel_is_symmetric_at_every_tail_length() {
        // Lengths 0..=40 cover empty input, a pure tail, one full
        // 16-chunk, and chunks plus every tail size.
        for dim in 0..=40 {
            let a = pseudo(dim as u64, dim);
            let b = pseudo(dim as u64 + 77, dim);
            assert_eq!(dot(&a, &b), dot(&b, &a), "dot, dim {dim}");
            assert_eq!(
                squared_euclid(&a, &b),
                squared_euclid(&b, &a),
                "euclid, dim {dim}"
            );
            let (ia, ib) = (inv_norm(&a), inv_norm(&b));
            assert_eq!(
                Distance::Cosine.distance_normed(&a, ia, &b, ib),
                Distance::Cosine.distance_normed(&b, ib, &a, ia),
                "cosine, dim {dim}"
            );
            let serial: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - serial).abs() < 1e-4, "dim {dim}");
        }
        prefetch_slice(&[]);
        prefetch_slice(&pseudo(1, 200));
    }
}
