//! Portable scalar batch path.
//!
//! Processes elements four at a time into four independent lane accumulators
//! — the *same* accumulator tree the AVX2 path keeps in one `__m256d` — so
//! the two paths sum in the same order and return bit-identical results.
//! The tail (`n % 4` elements) folds into lanes `0..rem`, again exactly as
//! the wide path does after spilling its vector accumulator.

use super::lane;

/// Combine the four lane accumulators; both paths use this exact tree.
#[inline(always)]
pub(crate) fn combine(acc: [f64; 4]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// See [`super::BatchKernels::gaussian_terms`].
pub(crate) fn gaussian_terms(ln_v: &[f64], k: &[f64], grad: &mut [f64]) -> f64 {
    let n = ln_v.len();
    let n4 = n - (n % 4);
    let mut acc = [0.0f64; 4];
    let mut i = 0;
    while i < n4 {
        for l in 0..4 {
            let (term, g) = lane::gaussian_lane(ln_v[i + l], k[i + l]);
            acc[l] += term;
            grad[i + l] = g;
        }
        i += 4;
    }
    for l in 0..(n - n4) {
        let (term, g) = lane::gaussian_lane(ln_v[n4 + l], k[n4 + l]);
        acc[l] += term;
        grad[n4 + l] = g;
    }
    combine(acc)
}

/// See [`super::BatchKernels::quality_terms`].
pub(crate) fn quality_terms(
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
fn quality_terms_impl<const CURV: bool>(
    scaled_eps: f64,
    ln_v: &[f64],
    p: &[f64],
    c: &[f64],
    grad: &mut [f64],
    curv: &mut [f64],
) -> f64 {
    let erf_nodes = crate::lut::erf_nodes_flat();
    let gauss_nodes = crate::lut::gauss_nodes_flat();
    let n = ln_v.len();
    let n4 = n - (n % 4);
    let mut acc = [0.0f64; 4];
    let mut i = 0;
    while i < n4 {
        for l in 0..4 {
            let (term, g, h) = lane::quality_term_lane(
                erf_nodes,
                gauss_nodes,
                scaled_eps,
                ln_v[i + l],
                p[i + l],
                c[i + l],
            );
            acc[l] += term;
            grad[i + l] = g;
            if CURV {
                curv[i + l] = h;
            }
        }
        i += 4;
    }
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
    combine(acc)
}

/// See [`super::BatchKernels::quality_logs`].
pub(crate) fn quality_logs(scaled_eps: f64, ln_v: &[f64], ln_q: &mut [f64], ln_omq: &mut [f64]) {
    let erf_nodes = crate::lut::erf_nodes_flat();
    for i in 0..ln_v.len() {
        (ln_q[i], ln_omq[i]) = lane::quality_logs_lane(erf_nodes, scaled_eps, ln_v[i]);
    }
}

/// See [`super::BatchKernels::precisions`].
pub(crate) fn precisions(ln_v: &[f64], prec: &mut [f64]) {
    for (w, &l) in prec.iter_mut().zip(ln_v) {
        *w = lane::precision_lane(l);
    }
}
