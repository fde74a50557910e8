//! Per-lane math shared between the generic and AVX2 batch paths.
//!
//! Everything here is written so that a 4-wide SIMD implementation can mirror
//! it *operation for operation*: IEEE 754 requires `+`, `-`, `×`, `÷` to be
//! exactly rounded, so two implementations that perform the same basic
//! operations in the same order produce bit-identical results whether the
//! lanes live in scalar registers or in one `__m256d`. The rules that make
//! this hold:
//!
//! * no fused multiply-add (Rust never contracts `a * b + c` implicitly, and
//!   the AVX2 path deliberately uses separate `mul`/`add`);
//! * no libm calls in the hot path — `exp` and `ln` are implemented below
//!   from basic operations and bit manipulation (libm's versions are not
//!   reproducible lane-wise);
//! * `min`/`max` use the SSE operand convention (`min(a,b) = a < b ? a : b`),
//!   see [`fmin`] / [`fmax`];
//! * float→int conversions only ever truncate integral values, where scalar
//!   `as` casts and `_mm256_cvttpd_epi32` agree exactly.
//!
//! Accuracy: [`exp_lane`] / [`ln_lane`] follow the classic Cody–Waite /
//! fdlibm constructions and are accurate to a few ulp (≲ 1e-15 relative) —
//! two orders of magnitude below the ~4e-12 interpolation error the quality
//! link already tolerates from [`crate::lut`].

// The Cody–Waite split constants below keep fdlibm's published digit
// strings; truncating them to shortest-roundtrip form would obscure their
// provenance without changing the bits.
#![allow(clippy::excessive_precision)]

use crate::EPS;
use std::f64::consts::FRAC_2_SQRT_PI;

/// `min` with SSE semantics: returns `b` on ties (and on NaN `a`).
///
/// This is exactly `_mm256_min_pd(a, b)`; for the non-NaN inputs the kernels
/// produce it is value-equal to `f64::min`.
#[inline(always)]
pub(crate) fn fmin(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// `max` with SSE semantics: returns `b` on ties (and on NaN `a`).
#[inline(always)]
pub(crate) fn fmax(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

// ---------------------------------------------------------------------------
// exp
// ---------------------------------------------------------------------------

pub(crate) const EXP_INV_LN2: f64 = std::f64::consts::LOG2_E;
/// `1.5 × 2^52`: adding and subtracting this rounds to the nearest integer
/// (ties to even) for |x| < 2^51 — the branch-free `round` both paths share.
pub(crate) const EXP_SHIFT: f64 = 6_755_399_441_055_744.0;
/// High/low split of ln 2 (Cody–Waite), from fdlibm.
pub(crate) const EXP_LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
pub(crate) const EXP_LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
/// Taylor coefficients `1/k!` for `k = 2..=12`, Horner order (index 0 = 1/2!).
pub(crate) const EXP_POLY: [f64; 11] = [
    0.5,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
];
/// Saturation rails: above, the result is +∞; below, it is flushed to 0
/// (the 2^k bit-trick cannot represent subnormal scales, so the subnormal
/// tail `x ∈ (-745, -708)` flushes too — irrelevant at the magnitudes the
/// EM objective produces, and identical in both paths).
pub(crate) const EXP_HI: f64 = 709.0;
pub(crate) const EXP_LO: f64 = -708.0;

/// `e^x` from basic operations only; both batch paths mirror this exactly.
#[inline(always)]
pub(crate) fn exp_lane(x: f64) -> f64 {
    let kf = x * EXP_INV_LN2 + EXP_SHIFT;
    let kr = kf - EXP_SHIFT; // round-to-nearest-integer of x/ln2
    let kc = fmax(fmin(kr, 2_000.0), -2_000.0); // keep the int cast in range
    let ki = kc as i64; // exact: kc is integral
    let hi = x - kc * EXP_LN2_HI;
    let r = hi - kc * EXP_LN2_LO;
    let mut p = EXP_POLY[10];
    let mut j = 10;
    while j > 0 {
        j -= 1;
        p = p * r + EXP_POLY[j];
    }
    let rr = r * r;
    let er = 1.0 + (r + rr * p);
    let scale = f64::from_bits(((ki + 1023) << 52) as u64);
    let v = er * scale;
    let v = if x > EXP_HI { f64::INFINITY } else { v };
    if x < EXP_LO {
        0.0
    } else {
        v
    }
}

// ---------------------------------------------------------------------------
// ln
// ---------------------------------------------------------------------------

/// fdlibm `log` constants.
pub(crate) const LN_LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
pub(crate) const LN_LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
pub(crate) const LN_LG1: f64 = 6.666_666_666_666_735_130e-01;
pub(crate) const LN_LG2: f64 = 3.999_999_999_940_941_908e-01;
pub(crate) const LN_LG3: f64 = 2.857_142_874_366_239_149e-01;
pub(crate) const LN_LG4: f64 = 2.222_219_843_214_978_396e-01;
pub(crate) const LN_LG5: f64 = 1.818_357_216_161_805_012e-01;
pub(crate) const LN_LG6: f64 = 1.531_383_769_920_937_332e-01;
pub(crate) const LN_LG7: f64 = 1.479_819_860_511_658_591e-01;
pub(crate) const LN_MANT_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;
/// Adding this to the mantissa carries into the hidden bit exactly when the
/// mantissa fraction is ≥ √2 - 1 (fdlibm's `0x95f64` threshold).
pub(crate) const LN_SQRT2_ADJ: u64 = 0x0009_5F64_0000_0000;
pub(crate) const LN_HIDDEN_BIT: u64 = 0x0010_0000_0000_0000;
pub(crate) const LN_ONE_BITS: u64 = 0x3FF0_0000_0000_0000;

/// `ln x` for finite positive *normal* `x` (the kernels only ever pass
/// probabilities clamped into `[EPS, 1-EPS]`); fdlibm construction.
#[inline(always)]
pub(crate) fn ln_lane(x: f64) -> f64 {
    let ix = x.to_bits();
    let mant = ix & LN_MANT_MASK;
    let i = mant.wrapping_add(LN_SQRT2_ADJ) & LN_HIDDEN_BIT;
    let mi = mant | (i ^ LN_ONE_BITS); // exponent 0x3ff, or 0x3fe if m ≥ √2
    let k = ((ix >> 52) as i64) - 1023 + ((i >> 52) as i64);
    let m = f64::from_bits(mi); // x = m · 2^k, m ∈ [√2/2, √2)
    let f = m - 1.0;
    let hfsq = (0.5 * f) * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LN_LG2 + w * (LN_LG4 + w * LN_LG6));
    let t2 = z * (LN_LG1 + w * (LN_LG3 + w * (LN_LG5 + w * LN_LG7)));
    let r = t2 + t1;
    let dk = k as f64;
    dk * LN_LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN_LN2_LO)) - f)
}

// ---------------------------------------------------------------------------
// Hermite interpolation on the flat LUTs
// ---------------------------------------------------------------------------

/// Grid constants mirrored from [`crate::lut`] (512 intervals/unit on [0,6]).
pub(crate) const GRID_SCALE: f64 = crate::lut::PER_UNIT as f64;
pub(crate) const GRID_LAST: f64 = (crate::lut::N - 1) as f64;
pub(crate) const GRID_X_MAX: f64 = crate::lut::X_MAX;

/// Cubic Hermite evaluation on a flat `[f, H·d, …]` node table.
///
/// Bit-identical to `lut::Table::eval` for `x ∈ [0, X_MAX)` — same index
/// computation, same weight expressions, same left-associated final sum —
/// so the batch kernels reproduce `erf_fast` / `exp_neg_sq_fast` exactly.
#[inline(always)]
pub(crate) fn hermite_lane(nodes: &[f64], x: f64) -> f64 {
    let pos = x * GRID_SCALE;
    let posc = fmin(pos, GRID_LAST); // clamp the *index*, not t (matches lut)
    let i = posc as i32; // truncate; exact mirror of cvttpd
    let t = pos - i as f64;
    let base = i as usize * 2;
    let f0 = nodes[base];
    let hd0 = nodes[base + 1];
    let f1 = nodes[base + 2];
    let hd1 = nodes[base + 3];
    let t2 = t * t;
    let t3 = t2 * t;
    (((2.0 * t3 - 3.0 * t2 + 1.0) * f0) + ((t3 - 2.0 * t2 + t) * hd0))
        + ((-2.0 * t3 + 3.0 * t2) * f1)
        + ((t3 - t2) * hd1)
}

// ---------------------------------------------------------------------------
// Fused per-answer terms
// ---------------------------------------------------------------------------

/// Natural log of 2π (the Gaussian normaliser).
pub(crate) const LN_2PI: f64 = 1.837_877_066_409_345_3;

/// Gaussian per-answer term: given `ln v` and `k = (a - μ)² + σ²`, returns
/// `(-½(ln 2π + ln v) - k/2v,  -½ + k/2v)` — the objective contribution and
/// `d/d ln v`.
#[inline(always)]
pub(crate) fn gaussian_lane(ln_v: f64, k: f64) -> (f64, f64) {
    let v = exp_lane(ln_v);
    let h = k / (2.0 * v);
    let term = -0.5 * (LN_2PI + ln_v) - h;
    let g = -0.5 + h;
    (term, g)
}

/// Categorical quality: the argument `x = ε/√(2v)` and the quality
/// `q = clamp(erf(x))`, `erf` read off the Hermite LUT exactly as
/// `erf_fast` reads it (1 past the grid edge).
///
/// `scaled_eps` is `ε/√2`, hoisted out of the loop by the caller.
#[inline(always)]
pub(crate) fn quality_lane(erf_nodes: &[f64], scaled_eps: f64, ln_v: f64) -> (f64, f64) {
    let x = scaled_eps * exp_lane(-0.5 * ln_v);
    let e = if x >= GRID_X_MAX { 1.0 } else { hermite_lane(erf_nodes, x) };
    (x, fmin(fmax(e, EPS), 1.0 - EPS))
}

/// Categorical quality link: [`quality_lane`]'s `(x, q)` and `dq/d ln v`.
#[inline(always)]
pub(crate) fn quality_link_lane(
    erf_nodes: &[f64],
    gauss_nodes: &[f64],
    scaled_eps: f64,
    ln_v: f64,
) -> (f64, f64, f64) {
    let (x, q) = quality_lane(erf_nodes, scaled_eps, ln_v);
    let gs = if x >= GRID_X_MAX { 0.0 } else { hermite_lane(gauss_nodes, x) };
    let dq = FRAC_2_SQRT_PI * gs * (x * -0.5);
    (x, q, dq)
}

/// Categorical E-step logs of one answer: `(ln q, ln(1 - q))`, `q` from
/// [`quality_lane`].
#[inline(always)]
pub(crate) fn quality_logs_lane(erf_nodes: &[f64], scaled_eps: f64, ln_v: f64) -> (f64, f64) {
    let (_, q) = quality_lane(erf_nodes, scaled_eps, ln_v);
    (ln_lane(q), ln_lane(1.0 - q))
}

/// Continuous E-step weight of one answer: its precision
/// `1 / max(e^{ln v}, EPS)`.
#[inline(always)]
pub(crate) fn precision_lane(ln_v: f64) -> f64 {
    1.0 / fmax(exp_lane(ln_v), EPS)
}

/// Categorical per-answer objective term and its first two derivatives:
/// given the posterior hit probability `p` and the precomputed miss
/// constant `c = (1-p)·ln(L-1)`, returns
/// `(p·ln q + (1-p)·ln(1-q) - c,  g,  h)` with
/// `g = (p/q - (1-p)/(1-q))·dq` and `h = dg/d ln v`. Since
/// `d²q/d(ln v)² = (x² - ½)·dq`,
/// `h = (x² - ½)·g - (p/q² + (1-p)/(1-q)²)·dq·q'`, where `q' = dq` unless
/// `q` sits on its clamp. There `q` is constant but `g` keeps the link's
/// slope, so `h = (x² - ½)·g` — positive for an answer the posterior
/// doubts from a worker that precise. Callers that do not need `h` drop it
/// and the optimiser removes its arithmetic.
#[inline(always)]
pub(crate) fn quality_term_lane(
    erf_nodes: &[f64],
    gauss_nodes: &[f64],
    scaled_eps: f64,
    ln_v: f64,
    p: f64,
    c: f64,
) -> (f64, f64, f64) {
    let (x, q, dq) = quality_link_lane(erf_nodes, gauss_nodes, scaled_eps, ln_v);
    let omq = 1.0 - q;
    let omp = 1.0 - p;
    let lq = ln_lane(q);
    let lomq = ln_lane(omq);
    let term = (p * lq + omp * lomq) - c;
    let a = p / q;
    let b = omp / omq;
    let g = (a - b) * dq;
    let q_slope = if q > EPS && q < 1.0 - EPS { dq } else { 0.0 };
    let h = (x * x - 0.5) * g - (a / q + b / omq) * (dq * q_slope);
    (term, g, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_lane_tracks_libm() {
        let mut worst = 0.0f64;
        for i in -30_000..=30_000 {
            let x = i as f64 * 1e-3; // [-30, 30]
            let rel = (exp_lane(x) - x.exp()).abs() / x.exp();
            worst = worst.max(rel);
        }
        assert!(worst < 5e-15, "worst exp relative error {worst:e}");
        assert_eq!(exp_lane(0.0), 1.0);
        assert_eq!(exp_lane(f64::from_bits(0x8000000000000000)), 1.0); // -0.0
        assert_eq!(exp_lane(1000.0), f64::INFINITY);
        assert_eq!(exp_lane(-1000.0), 0.0);
    }

    #[test]
    fn exp_lane_handles_large_finite_inputs() {
        // Near the rails the result stays finite/saturated, never NaN.
        let v = exp_lane(708.9);
        assert!(v.is_finite() && v > 1e307, "exp(708.9) = {v:e}");
        assert_eq!(exp_lane(709.1), f64::INFINITY);
        assert_eq!(exp_lane(-708.1), 0.0);
        assert_eq!(exp_lane(1e308), f64::INFINITY);
        assert_eq!(exp_lane(-1e308), 0.0);
    }

    #[test]
    fn ln_lane_tracks_libm() {
        let mut worst = 0.0f64;
        let mut x = 1e-12;
        while x < 1.0 {
            let rel = (ln_lane(x) - x.ln()).abs() / x.ln().abs().max(1e-300);
            worst = worst.max(rel);
            x *= 1.000_37;
        }
        // Also the near-1 region where ln → 0 (absolute check there).
        for i in 1..1000 {
            let x = 1.0 - i as f64 * 1e-6;
            assert!((ln_lane(x) - x.ln()).abs() < 1e-16, "ln({x})");
        }
        assert!(worst < 1e-14, "worst ln relative error {worst:e}");
        assert_eq!(ln_lane(1.0), 0.0);
    }

    #[test]
    fn hermite_lane_is_bit_identical_to_lut() {
        let erf_nodes = crate::lut::erf_nodes_flat();
        let gauss_nodes = crate::lut::gauss_nodes_flat();
        for i in 0..=12_000 {
            let x = i as f64 * 5e-4; // [0, 6)
            if x >= GRID_X_MAX {
                break;
            }
            assert_eq!(
                hermite_lane(erf_nodes, x).to_bits(),
                crate::lut::erf_fast(x).to_bits(),
                "erf at {x}"
            );
            assert_eq!(
                hermite_lane(gauss_nodes, x).to_bits(),
                crate::lut::exp_neg_sq_fast(x).to_bits(),
                "gauss at {x}"
            );
        }
    }
}
