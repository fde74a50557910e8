//! Vectorized batch kernels for the EM M-step hot loop.
//!
//! The M-step objective is, per answer, one `exp`, an erf-family lookup and
//! two `ln`s — evaluated tens of millions of times per inference. This
//! module provides those per-answer terms as *batch* kernels over `&[f64]`
//! slices, in two interchangeable paths:
//!
//! * `generic` — portable scalar code, four independent lane accumulators;
//! * `avx2` — 4 × f64 AVX2 lanes behind **runtime** feature detection.
//!
//! The two paths execute the identical IEEE-754 operation DAG (see the
//! `lane` module) and the identical lane-accumulator tree, so they are
//! **bit-equal** — differential-tested in `tests/prop_batch.rs` and gated in
//! CI. Callers therefore never have to care which path ran, and results are
//! reproducible across machines with and without AVX2.
//!
//! Path selection: [`BatchKernels::auto`] picks AVX2 when the CPU supports
//! it; the `TCROWD_KERNELS` environment variable (`generic` or `avx2`)
//! overrides, which is how CI pins the portable path and how a deployment
//! can be forced to a known path. [`kernels`] caches the decision
//! process-wide.

pub(crate) mod lane;

pub(crate) mod generic;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod avx2;

use std::f64::consts::SQRT_2;
use std::sync::OnceLock;

/// Which implementation a [`BatchKernels`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Portable scalar path (always available).
    Generic,
    /// 4-wide AVX2 path (x86-64 with AVX2 only).
    Avx2,
}

impl KernelPath {
    /// Stable lowercase name, used in benches, `/stats` and CI gates.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Generic => "generic",
            KernelPath::Avx2 => "avx2",
        }
    }
}

/// Resolved batch-kernel dispatcher. Copy-cheap; construct via
/// [`BatchKernels::auto`] or grab the process-wide one with [`kernels`].
#[derive(Debug, Clone, Copy)]
pub struct BatchKernels {
    path: KernelPath,
}

fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl BatchKernels {
    /// Pick the widest path the running CPU supports.
    pub fn auto() -> BatchKernels {
        BatchKernels { path: if avx2_available() { KernelPath::Avx2 } else { KernelPath::Generic } }
    }

    /// Force a specific path; `None` if the host cannot run it.
    pub fn with_path(path: KernelPath) -> Option<BatchKernels> {
        match path {
            KernelPath::Generic => Some(BatchKernels { path }),
            KernelPath::Avx2 => avx2_available().then_some(BatchKernels { path }),
        }
    }

    /// The path this dispatcher runs.
    pub fn path(&self) -> KernelPath {
        self.path
    }

    /// Gaussian per-answer objective terms for continuous columns.
    ///
    /// For each `i` with effective log-variance `ln_v[i]` and posterior
    /// second moment `k[i] = (a - μ)² + σ²`, writes the gradient
    /// `d/d ln v = -½ + k/2v` into `grad[i]` and returns the summed
    /// objective contribution `Σ -½(ln 2π + ln v) - k/2v`.
    pub fn gaussian_terms(&self, ln_v: &[f64], k: &[f64], grad: &mut [f64]) -> f64 {
        assert_eq!(ln_v.len(), k.len());
        assert_eq!(ln_v.len(), grad.len());
        match self.path {
            KernelPath::Generic => generic::gaussian_terms(ln_v, k, grad),
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `Avx2` is only constructed when `avx2_available()`.
            KernelPath::Avx2 => unsafe { avx2::gaussian_terms(ln_v, k, grad) },
            #[cfg(not(target_arch = "x86_64"))]
            KernelPath::Avx2 => unreachable!("avx2 path on non-x86_64"),
        }
    }

    /// Categorical per-answer objective terms (paper Eq. 2/5).
    ///
    /// For each `i` with log-variance `ln_v[i]`, posterior hit probability
    /// `p[i]` and precomputed miss constant `c[i] = (1-p[i])·ln(L-1)`,
    /// writes `(p/q - (1-p)/(1-q))·dq/d ln v` into `grad[i]` and returns
    /// `Σ p·ln q + (1-p)·ln(1-q) - c`, where `q = erf(ε/√(2v))` clamped
    /// into `(EPS, 1-EPS)`. With `curv`, also writes `d grad[i]/d ln v`
    /// into `curv[i]`, using `d²q/d(ln v)² = (x² - ½)·dq/d ln v` with
    /// `x = ε/√(2v)`; where `q` sits on its clamp the gradient keeps the
    /// link's slope, and the curvature is that gradient's derivative. (The
    /// Gaussian terms need no such output: their curvature is
    /// `-(grad + ½)`.)
    pub fn quality_terms(
        &self,
        epsilon: f64,
        ln_v: &[f64],
        p: &[f64],
        c: &[f64],
        grad: &mut [f64],
        curv: Option<&mut [f64]>,
    ) -> f64 {
        assert_eq!(ln_v.len(), p.len());
        assert_eq!(ln_v.len(), c.len());
        assert_eq!(ln_v.len(), grad.len());
        if let Some(h) = &curv {
            assert_eq!(ln_v.len(), h.len());
        }
        debug_assert!(epsilon > 0.0, "quality link needs ε > 0");
        let scaled = epsilon / SQRT_2;
        match self.path {
            KernelPath::Generic => generic::quality_terms(scaled, ln_v, p, c, grad, curv),
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `Avx2` is only constructed when `avx2_available()`.
            KernelPath::Avx2 => unsafe { avx2::quality_terms(scaled, ln_v, p, c, grad, curv) },
            #[cfg(not(target_arch = "x86_64"))]
            KernelPath::Avx2 => unreachable!("avx2 path on non-x86_64"),
        }
    }

    /// Batch form of the scalar quality link: for each `ln_v[i]` write
    /// `q[i] = clamp(erf(ε/√(2v)))` and `dq[i] = dq/d ln v`.
    pub fn quality_pairs_from_ln_variance(
        &self,
        epsilon: f64,
        ln_v: &[f64],
        q: &mut [f64],
        dq: &mut [f64],
    ) {
        assert_eq!(ln_v.len(), q.len());
        assert_eq!(ln_v.len(), dq.len());
        debug_assert!(epsilon > 0.0, "quality link needs ε > 0");
        let scaled = epsilon / SQRT_2;
        match self.path {
            KernelPath::Generic => generic::quality_pairs(scaled, ln_v, q, dq),
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `Avx2` is only constructed when `avx2_available()`.
            KernelPath::Avx2 => unsafe { avx2::quality_pairs(scaled, ln_v, q, dq) },
            #[cfg(not(target_arch = "x86_64"))]
            KernelPath::Avx2 => unreachable!("avx2 path on non-x86_64"),
        }
    }
}

/// Process-wide kernel dispatcher: auto-detected once, overridable with
/// `TCROWD_KERNELS=generic|avx2` (an unsupported request falls back to
/// [`KernelPath::Generic`]).
pub fn kernels() -> BatchKernels {
    static KERNELS: OnceLock<BatchKernels> = OnceLock::new();
    *KERNELS.get_or_init(|| match std::env::var("TCROWD_KERNELS").as_deref() {
        Ok("generic") => BatchKernels { path: KernelPath::Generic },
        Ok("avx2") => BatchKernels::with_path(KernelPath::Avx2)
            .unwrap_or(BatchKernels { path: KernelPath::Generic }),
        _ => BatchKernels::auto(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clamp_prob;
    use crate::lut::{erf_fast, exp_neg_sq_fast};

    fn sample_ln_v() -> Vec<f64> {
        let mut v = vec![-12.0, -6.0, -1.0, -1e-9, 0.0, 1e-9, 0.5, 3.0, 6.0, 11.99, 12.0];
        for i in 0..40 {
            v.push(-12.0 + i as f64 * 0.61); // sweep the clamp range
        }
        v
    }

    #[test]
    fn gaussian_terms_match_naive_scalar() {
        let g = BatchKernels::with_path(KernelPath::Generic).unwrap();
        let ln_v = sample_ln_v();
        let k: Vec<f64> = ln_v.iter().enumerate().map(|(i, _)| 0.01 + i as f64 * 0.37).collect();
        let mut grad = vec![0.0; ln_v.len()];
        let total = g.gaussian_terms(&ln_v, &k, &mut grad);
        let mut naive = 0.0;
        for i in 0..ln_v.len() {
            let v = ln_v[i].exp();
            naive += -0.5 * (lane::LN_2PI + ln_v[i]) - k[i] / (2.0 * v);
            let expect = -0.5 + k[i] / (2.0 * v);
            assert!(
                (grad[i] - expect).abs() <= 1e-12 * expect.abs().max(1.0),
                "grad[{i}] = {} vs {}",
                grad[i],
                expect
            );
        }
        assert!((total - naive).abs() <= 1e-9 * naive.abs().max(1.0), "{total} vs {naive}");
    }

    #[test]
    fn quality_pairs_match_scalar_lut_link() {
        let g = BatchKernels::with_path(KernelPath::Generic).unwrap();
        let ln_v = sample_ln_v();
        let eps = 0.5;
        let mut q = vec![0.0; ln_v.len()];
        let mut dq = vec![0.0; ln_v.len()];
        g.quality_pairs_from_ln_variance(eps, &ln_v, &mut q, &mut dq);
        for i in 0..ln_v.len() {
            let x = (eps / SQRT_2) * (-0.5 * ln_v[i]).exp();
            let expect_q = clamp_prob(erf_fast(x));
            let expect_dq = std::f64::consts::FRAC_2_SQRT_PI * exp_neg_sq_fast(x) * (-x / 2.0);
            assert!((q[i] - expect_q).abs() < 1e-12, "q[{i}]: {} vs {expect_q}", q[i]);
            assert!((dq[i] - expect_dq).abs() < 1e-12, "dq[{i}]: {} vs {expect_dq}", dq[i]);
        }
    }

    #[test]
    fn quality_terms_match_naive_scalar() {
        let g = BatchKernels::with_path(KernelPath::Generic).unwrap();
        let ln_v = sample_ln_v();
        let n = ln_v.len();
        let eps = 1.25;
        let p: Vec<f64> = (0..n).map(|i| clamp_prob(0.03 + 0.92 * (i as f64 / n as f64))).collect();
        let card1 = 3.0f64;
        let c: Vec<f64> = p.iter().map(|pi| (1.0 - pi) * card1.ln()).collect();
        let mut grad = vec![0.0; n];
        let mut curv = vec![0.0; n];
        let total = g.quality_terms(eps, &ln_v, &p, &c, &mut grad, Some(&mut curv));
        let mut grad_only = vec![0.0; n];
        let total_only = g.quality_terms(eps, &ln_v, &p, &c, &mut grad_only, None);
        assert_eq!(total.to_bits(), total_only.to_bits(), "curvature must not perturb the sum");
        assert_eq!(grad, grad_only, "curvature must not perturb the gradient");
        let mut naive = 0.0;
        for i in 0..n {
            let x = (eps / SQRT_2) * (-0.5 * ln_v[i]).exp();
            let q = clamp_prob(erf_fast(x));
            let dq = std::f64::consts::FRAC_2_SQRT_PI * exp_neg_sq_fast(x) * (-x / 2.0);
            naive += p[i] * q.ln() + (1.0 - p[i]) * ((1.0 - q) / card1).ln();
            let expect = (p[i] / q - (1.0 - p[i]) / (1.0 - q)) * dq;
            assert!(
                (grad[i] - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "grad[{i}] = {} vs {}",
                grad[i],
                expect
            );
            let d2q = (x * x - 0.5) * dq;
            let q_slope = if q > crate::EPS && q < 1.0 - crate::EPS { dq } else { 0.0 };
            let expect_h =
                -(p[i] / (q * q) + (1.0 - p[i]) / ((1.0 - q) * (1.0 - q))) * dq * q_slope
                    + (p[i] / q - (1.0 - p[i]) / (1.0 - q)) * d2q;
            assert!(
                (curv[i] - expect_h).abs() <= 1e-9 * expect_h.abs().max(1.0),
                "curv[{i}] = {} vs {}",
                curv[i],
                expect_h
            );
        }
        assert!((total - naive).abs() <= 1e-9 * naive.abs().max(1.0), "{total} vs {naive}");
    }

    #[test]
    fn empty_slices_are_fine() {
        let k = kernels();
        assert_eq!(k.gaussian_terms(&[], &[], &mut []), 0.0);
        assert_eq!(k.quality_terms(1.0, &[], &[], &[], &mut [], None), 0.0);
        assert_eq!(k.quality_terms(1.0, &[], &[], &[], &mut [], Some(&mut [])), 0.0);
    }

    #[test]
    fn env_override_is_respected_by_with_path() {
        // `kernels()` itself caches process-wide, so test the constructor.
        assert_eq!(BatchKernels::with_path(KernelPath::Generic).unwrap().path().name(), "generic");
        if let Some(k) = BatchKernels::with_path(KernelPath::Avx2) {
            assert_eq!(k.path().name(), "avx2");
        }
    }
}
