//! AVX2 wide batch path: 4 × f64 lanes per instruction.
//!
//! Every arithmetic step mirrors [`super::lane`] operation-for-operation
//! (same basic ops, same association, no FMA), so each SIMD lane computes
//! the exact bit pattern the scalar path computes for that element — IEEE
//! 754 basic operations are exactly rounded, which makes "same DAG ⇒ same
//! bits" a guarantee rather than a hope. The per-call sum uses the same
//! 4-lane accumulator tree as the generic path (`lane l` accumulates
//! elements `i ≡ l (mod 4)`), spilled and combined in the identical order.
//! Differential tests in `tests/prop_batch.rs` pin the equality.
//!
//! Safety: every function here is `#[target_feature(enable = "avx2")]` and
//! only reachable through [`super::BatchKernels`], which verifies
//! `is_x86_feature_detected!("avx2")` before constructing the AVX2 variant.
//! Gathers index the flat LUTs with indices clamped to the last interval,
//! so they stay in bounds for any finite non-negative input.

use super::lane;
use crate::EPS;
use std::arch::x86_64::*;
use std::f64::consts::FRAC_2_SQRT_PI;

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn splat(v: f64) -> __m256d {
    _mm256_set1_pd(v)
}

/// `e^x`, mirroring `lane::exp_lane`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn exp_pd(x: __m256d) -> __m256d {
    let shift = splat(lane::EXP_SHIFT);
    let kf = _mm256_add_pd(_mm256_mul_pd(x, splat(lane::EXP_INV_LN2)), shift);
    let kr = _mm256_sub_pd(kf, shift);
    let kc = _mm256_max_pd(_mm256_min_pd(kr, splat(2_000.0)), splat(-2_000.0));
    let ki32 = _mm256_cvttpd_epi32(kc); // exact: kc is integral
    let ki64 = _mm256_cvtepi32_epi64(ki32);
    let hi = _mm256_sub_pd(x, _mm256_mul_pd(kc, splat(lane::EXP_LN2_HI)));
    let r = _mm256_sub_pd(hi, _mm256_mul_pd(kc, splat(lane::EXP_LN2_LO)));
    let mut p = splat(lane::EXP_POLY[10]);
    let mut j = 10;
    while j > 0 {
        j -= 1;
        p = _mm256_add_pd(_mm256_mul_pd(p, r), splat(lane::EXP_POLY[j]));
    }
    let rr = _mm256_mul_pd(r, r);
    let er = _mm256_add_pd(splat(1.0), _mm256_add_pd(r, _mm256_mul_pd(rr, p)));
    let biased = _mm256_add_epi64(ki64, _mm256_set1_epi64x(1023));
    let scale = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(biased));
    let v = _mm256_mul_pd(er, scale);
    let hi_mask = _mm256_cmp_pd::<_CMP_GT_OQ>(x, splat(lane::EXP_HI));
    let v = _mm256_blendv_pd(v, splat(f64::INFINITY), hi_mask);
    let lo_mask = _mm256_cmp_pd::<_CMP_LT_OQ>(x, splat(lane::EXP_LO));
    _mm256_blendv_pd(v, _mm256_setzero_pd(), lo_mask)
}

/// Pack the low dword of each 64-bit lane into a `__m128i` of four i32s.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn qword_lo_dwords(v: __m256i) -> __m128i {
    let idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(v, idx))
}

/// `ln x` for positive normal lanes, mirroring `lane::ln_lane`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn ln_pd(x: __m256d) -> __m256d {
    let ix = _mm256_castpd_si256(x);
    let mant = _mm256_and_si256(ix, _mm256_set1_epi64x(lane::LN_MANT_MASK as i64));
    let i = _mm256_and_si256(
        _mm256_add_epi64(mant, _mm256_set1_epi64x(lane::LN_SQRT2_ADJ as i64)),
        _mm256_set1_epi64x(lane::LN_HIDDEN_BIT as i64),
    );
    let mi =
        _mm256_or_si256(mant, _mm256_xor_si256(i, _mm256_set1_epi64x(lane::LN_ONE_BITS as i64)));
    let ke = _mm256_add_epi64(
        _mm256_sub_epi64(_mm256_srli_epi64::<52>(ix), _mm256_set1_epi64x(1023)),
        _mm256_srli_epi64::<52>(i),
    );
    let dk = _mm256_cvtepi32_pd(qword_lo_dwords(ke));
    let m = _mm256_castsi256_pd(mi);
    let f = _mm256_sub_pd(m, splat(1.0));
    let hfsq = _mm256_mul_pd(_mm256_mul_pd(splat(0.5), f), f);
    let s = _mm256_div_pd(f, _mm256_add_pd(splat(2.0), f));
    let z = _mm256_mul_pd(s, s);
    let w = _mm256_mul_pd(z, z);
    let t1 = _mm256_mul_pd(
        w,
        _mm256_add_pd(
            splat(lane::LN_LG2),
            _mm256_mul_pd(
                w,
                _mm256_add_pd(splat(lane::LN_LG4), _mm256_mul_pd(w, splat(lane::LN_LG6))),
            ),
        ),
    );
    let t2 = _mm256_mul_pd(
        z,
        _mm256_add_pd(
            splat(lane::LN_LG1),
            _mm256_mul_pd(
                w,
                _mm256_add_pd(
                    splat(lane::LN_LG3),
                    _mm256_mul_pd(
                        w,
                        _mm256_add_pd(splat(lane::LN_LG5), _mm256_mul_pd(w, splat(lane::LN_LG7))),
                    ),
                ),
            ),
        ),
    );
    let r = _mm256_add_pd(t2, t1);
    // dk·ln2_hi - ((hfsq - (s·(hfsq+r) + dk·ln2_lo)) - f)
    let inner = _mm256_add_pd(
        _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
        _mm256_mul_pd(dk, splat(lane::LN_LN2_LO)),
    );
    _mm256_sub_pd(
        _mm256_mul_pd(dk, splat(lane::LN_LN2_HI)),
        _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f),
    )
}

/// Cubic Hermite gather-evaluate on a flat node table, mirroring
/// `lane::hermite_lane`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hermite_pd(nodes: *const f64, x: __m256d) -> __m256d {
    let pos = _mm256_mul_pd(x, splat(lane::GRID_SCALE));
    let posc = _mm256_min_pd(pos, splat(lane::GRID_LAST));
    let i32v = _mm256_cvttpd_epi32(posc);
    let di = _mm256_cvtepi32_pd(i32v);
    let t = _mm256_sub_pd(pos, di);
    let base = _mm_slli_epi32::<1>(i32v); // node pair → flat index 2i
    let f0 = _mm256_i32gather_pd::<8>(nodes, base);
    let hd0 = _mm256_i32gather_pd::<8>(nodes.add(1), base);
    let f1 = _mm256_i32gather_pd::<8>(nodes.add(2), base);
    let hd1 = _mm256_i32gather_pd::<8>(nodes.add(3), base);
    let t2 = _mm256_mul_pd(t, t);
    let t3 = _mm256_mul_pd(t2, t);
    let w0 = _mm256_add_pd(
        _mm256_sub_pd(_mm256_mul_pd(splat(2.0), t3), _mm256_mul_pd(splat(3.0), t2)),
        splat(1.0),
    );
    let w1 = _mm256_add_pd(_mm256_sub_pd(t3, _mm256_mul_pd(splat(2.0), t2)), t);
    let w2 = _mm256_add_pd(_mm256_mul_pd(splat(-2.0), t3), _mm256_mul_pd(splat(3.0), t2));
    let w3 = _mm256_sub_pd(t3, t2);
    _mm256_add_pd(
        _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(w0, f0), _mm256_mul_pd(w1, hd0)),
            _mm256_mul_pd(w2, f1),
        ),
        _mm256_mul_pd(w3, hd1),
    )
}

/// Wide quality: `(x, q, x past the grid edge)` lanes, mirroring
/// `lane::quality_lane`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn quality_pd(
    erf_nodes: *const f64,
    scaled_eps: __m256d,
    ln_v: __m256d,
) -> (__m256d, __m256d, __m256d) {
    let x = _mm256_mul_pd(scaled_eps, exp_pd(_mm256_mul_pd(splat(-0.5), ln_v)));
    let wide = _mm256_cmp_pd::<_CMP_GE_OQ>(x, splat(lane::GRID_X_MAX));
    let e = _mm256_blendv_pd(hermite_pd(erf_nodes, x), splat(1.0), wide);
    let q = _mm256_min_pd(_mm256_max_pd(e, splat(EPS)), splat(1.0 - EPS));
    (x, q, wide)
}

/// Wide quality link: `(x, q, dq/d ln v)` lanes, mirroring
/// `lane::quality_link_lane`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn quality_link_pd(
    erf_nodes: *const f64,
    gauss_nodes: *const f64,
    scaled_eps: __m256d,
    ln_v: __m256d,
) -> (__m256d, __m256d, __m256d) {
    let (x, q, wide) = quality_pd(erf_nodes, scaled_eps, ln_v);
    let gs = _mm256_blendv_pd(hermite_pd(gauss_nodes, x), _mm256_setzero_pd(), wide);
    let dq = _mm256_mul_pd(_mm256_mul_pd(splat(FRAC_2_SQRT_PI), gs), _mm256_mul_pd(x, splat(-0.5)));
    (x, q, dq)
}

/// See [`super::BatchKernels::gaussian_terms`].
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gaussian_terms(ln_v: &[f64], k: &[f64], grad: &mut [f64]) -> f64 {
    let n = ln_v.len();
    let n4 = n - (n % 4);
    let mut vacc = _mm256_setzero_pd();
    let mut i = 0;
    while i < n4 {
        let lv = _mm256_loadu_pd(ln_v.as_ptr().add(i));
        let kv = _mm256_loadu_pd(k.as_ptr().add(i));
        let v = exp_pd(lv);
        let h = _mm256_div_pd(kv, _mm256_mul_pd(splat(2.0), v));
        // -0.5·(LN_2PI + ln v) - h
        let term =
            _mm256_sub_pd(_mm256_mul_pd(splat(-0.5), _mm256_add_pd(splat(lane::LN_2PI), lv)), h);
        let g = _mm256_add_pd(splat(-0.5), h);
        vacc = _mm256_add_pd(vacc, term);
        _mm256_storeu_pd(grad.as_mut_ptr().add(i), g);
        i += 4;
    }
    let mut acc = [0.0f64; 4];
    _mm256_storeu_pd(acc.as_mut_ptr(), vacc);
    for l in 0..(n - n4) {
        let (term, g) = lane::gaussian_lane(ln_v[n4 + l], k[n4 + l]);
        acc[l] += term;
        grad[n4 + l] = g;
    }
    super::generic::combine(acc)
}

/// See [`super::BatchKernels::quality_terms`].
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn quality_terms(
    scaled_eps: f64,
    ln_v: &[f64],
    p: &[f64],
    c: &[f64],
    grad: &mut [f64],
    curv: Option<&mut [f64]>,
) -> f64 {
    match curv {
        Some(h) => quality_terms_impl::<true>(scaled_eps, ln_v, p, c, grad, h),
        None => quality_terms_impl::<false>(scaled_eps, ln_v, p, c, grad, &mut []),
    }
}

/// [`quality_terms`] with the curvature output compiled in (`CURV`) or out.
///
/// # Safety
///
/// The CPU must support AVX2. `p`, `c` and `grad` must be at least
/// `ln_v.len()` long, and so must `curv` when `CURV` is set: the wide loop
/// loads and stores through raw pointers up to that length
/// ([`super::BatchKernels::quality_terms`] asserts the lengths).
#[target_feature(enable = "avx2")]
unsafe fn quality_terms_impl<const CURV: bool>(
    scaled_eps: f64,
    ln_v: &[f64],
    p: &[f64],
    c: &[f64],
    grad: &mut [f64],
    curv: &mut [f64],
) -> f64 {
    let erf_nodes = crate::lut::erf_nodes_flat();
    let gauss_nodes = crate::lut::gauss_nodes_flat();
    let erf_ptr = erf_nodes.as_ptr();
    let gauss_ptr = gauss_nodes.as_ptr();
    let eps_v = splat(scaled_eps);
    let n = ln_v.len();
    let n4 = n - (n % 4);
    let mut vacc = _mm256_setzero_pd();
    let mut i = 0;
    while i < n4 {
        let lv = _mm256_loadu_pd(ln_v.as_ptr().add(i));
        let pv = _mm256_loadu_pd(p.as_ptr().add(i));
        let cv = _mm256_loadu_pd(c.as_ptr().add(i));
        let (x, q, dq) = quality_link_pd(erf_ptr, gauss_ptr, eps_v, lv);
        let omq = _mm256_sub_pd(splat(1.0), q);
        let omp = _mm256_sub_pd(splat(1.0), pv);
        let lq = ln_pd(q);
        let lomq = ln_pd(omq);
        // (p·ln q + (1-p)·ln(1-q)) - c
        let term =
            _mm256_sub_pd(_mm256_add_pd(_mm256_mul_pd(pv, lq), _mm256_mul_pd(omp, lomq)), cv);
        // (p/q - (1-p)/(1-q)) · dq
        let a = _mm256_div_pd(pv, q);
        let b = _mm256_div_pd(omp, omq);
        let g = _mm256_mul_pd(_mm256_sub_pd(a, b), dq);
        vacc = _mm256_add_pd(vacc, term);
        _mm256_storeu_pd(grad.as_mut_ptr().add(i), g);
        if CURV {
            // q' = dq off the clamp, 0 on it
            let live = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GT_OQ>(q, splat(EPS)),
                _mm256_cmp_pd::<_CMP_LT_OQ>(q, splat(1.0 - EPS)),
            );
            let q_slope = _mm256_and_pd(live, dq);
            // (x² - ½)·g - (a/q + b/(1-q))·(dq·q')
            let h = _mm256_sub_pd(
                _mm256_mul_pd(_mm256_sub_pd(_mm256_mul_pd(x, x), splat(0.5)), g),
                _mm256_mul_pd(
                    _mm256_add_pd(_mm256_div_pd(a, q), _mm256_div_pd(b, omq)),
                    _mm256_mul_pd(dq, q_slope),
                ),
            );
            _mm256_storeu_pd(curv.as_mut_ptr().add(i), h);
        }
        i += 4;
    }
    let mut acc = [0.0f64; 4];
    _mm256_storeu_pd(acc.as_mut_ptr(), vacc);
    for l in 0..(n - n4) {
        let (term, g, h) = lane::quality_term_lane(
            erf_nodes,
            gauss_nodes,
            scaled_eps,
            ln_v[n4 + l],
            p[n4 + l],
            c[n4 + l],
        );
        acc[l] += term;
        grad[n4 + l] = g;
        if CURV {
            curv[n4 + l] = h;
        }
    }
    super::generic::combine(acc)
}

/// See [`super::BatchKernels::quality_logs`].
///
/// # Safety
///
/// The CPU must support AVX2, and `ln_q` and `ln_omq` must be at least
/// `ln_v.len()` long: the wide loop stores through raw pointers up to that
/// length ([`super::BatchKernels::quality_logs`] asserts the lengths).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn quality_logs(
    scaled_eps: f64,
    ln_v: &[f64],
    ln_q: &mut [f64],
    ln_omq: &mut [f64],
) {
    let erf_nodes = crate::lut::erf_nodes_flat();
    let eps_v = splat(scaled_eps);
    let n = ln_v.len();
    let n4 = n - (n % 4);
    let mut i = 0;
    while i < n4 {
        // SAFETY: `i + 4 <= n4 <= n`, and every slice is at least `n` long.
        unsafe {
            let lv = _mm256_loadu_pd(ln_v.as_ptr().add(i));
            let (_, q, _) = quality_pd(erf_nodes.as_ptr(), eps_v, lv);
            _mm256_storeu_pd(ln_q.as_mut_ptr().add(i), ln_pd(q));
            _mm256_storeu_pd(ln_omq.as_mut_ptr().add(i), ln_pd(_mm256_sub_pd(splat(1.0), q)));
        }
        i += 4;
    }
    for j in n4..n {
        (ln_q[j], ln_omq[j]) = lane::quality_logs_lane(erf_nodes, scaled_eps, ln_v[j]);
    }
}

/// See [`super::BatchKernels::precisions`].
///
/// # Safety
///
/// The CPU must support AVX2, and `prec` must be at least `ln_v.len()`
/// long: the wide loop stores through a raw pointer up to that length
/// ([`super::BatchKernels::precisions`] asserts the lengths).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn precisions(ln_v: &[f64], prec: &mut [f64]) {
    let n = ln_v.len();
    let n4 = n - (n % 4);
    let mut i = 0;
    while i < n4 {
        // SAFETY: `i + 4 <= n4 <= n`, and both slices are at least `n` long.
        unsafe {
            let v = exp_pd(_mm256_loadu_pd(ln_v.as_ptr().add(i)));
            let w = _mm256_div_pd(splat(1.0), _mm256_max_pd(v, splat(EPS)));
            _mm256_storeu_pd(prec.as_mut_ptr().add(i), w);
        }
        i += 4;
    }
    for j in n4..n {
        prec[j] = lane::precision_lane(ln_v[j]);
    }
}
