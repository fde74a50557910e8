//! Hermite-interpolated fast kernels for the EM hot loop.
//!
//! The M-step objective evaluates `erf(ε/√(2v))` and `e^{-x²}` once per
//! answer per objective pass — tens of millions of calls per
//! inference on production-sized tables — and the exact Maclaurin-series
//! [`crate::special::erf`] costs ~45–140 ns per call on `[0, 3]`, more as
//! `x` grows (2-vCPU Xeon). These kernels replace the series with cubic
//! **Hermite interpolation** on a uniform grid over `[0, 6]`, built once per
//! process from the exact functions themselves (no external coefficients to
//! trust):
//!
//! * node values come from [`crate::special::erf`] / `exp`,
//! * node derivatives are analytic (`erf'(x) = 2/√π · e^{-x²}`,
//!   `(e^{-x²})' = -2x·e^{-x²}`),
//! * per-interval error of cubic Hermite interpolation is
//!   `h⁴/384 · max|f⁗|`; with `h = 1/512` and `max|f⁗| ≤ 12` on `[0, 6]`
//!   the interpolation itself contributes `< 1e-12`, and the reference
//!   `erf`'s own accuracy (~3e-12 near the switch from the series to the
//!   Chebyshev `erfc` fit at `x = 3`) dominates the total — unit-tested
//!   below `4e-12` against the exact implementation on a dense grid.
//!
//! Beyond the grid (`x > 6`) both functions are flat to ~1e-16
//! (`erf → 1`, `e^{-x²} → 0`). Negative inputs are not needed by the
//! quality link (`x = ε/√(2v) > 0`) and are debug-asserted.

use crate::special::erf;
use std::f64::consts::FRAC_2_SQRT_PI;
use std::sync::OnceLock;

/// Upper end of the interpolation grid.
pub(crate) const X_MAX: f64 = 6.0;
/// Grid resolution: 512 intervals per unit.
pub(crate) const PER_UNIT: usize = 512;
pub(crate) const N: usize = (X_MAX as usize) * PER_UNIT;
const H: f64 = 1.0 / PER_UNIT as f64;

/// `(value, derivative)` per grid node.
struct Table {
    nodes: Vec<(f64, f64)>,
}

impl Table {
    fn build(f: impl Fn(f64) -> f64, df: impl Fn(f64) -> f64) -> Table {
        let nodes = (0..=N)
            .map(|i| {
                let x = i as f64 * H;
                (f(x), df(x))
            })
            .collect();
        Table { nodes }
    }

    /// Cubic Hermite evaluation at `x ∈ [0, X_MAX]`.
    #[inline]
    fn eval(&self, x: f64) -> f64 {
        let pos = x * PER_UNIT as f64;
        let i = (pos as usize).min(N - 1);
        let t = pos - i as f64;
        let (f0, d0) = self.nodes[i];
        let (f1, d1) = self.nodes[i + 1];
        let t2 = t * t;
        let t3 = t2 * t;
        (2.0 * t3 - 3.0 * t2 + 1.0) * f0
            + (t3 - 2.0 * t2 + t) * (H * d0)
            + (-2.0 * t3 + 3.0 * t2) * f1
            + (t3 - t2) * (H * d1)
    }
}

fn erf_table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| Table::build(erf, |x| FRAC_2_SQRT_PI * (-x * x).exp()))
}

fn gauss_table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| Table::build(|x| (-x * x).exp(), |x| -2.0 * x * (-x * x).exp()))
}

/// Flatten a table into `[f₀, H·d₀, f₁, H·d₁, …]` for the batch kernels.
///
/// Pre-scaling the derivative by `H` folds the `(H * d)` multiply of
/// [`Table::eval`] into the table build; `H` is a power of two so the product
/// is exact and the flattened evaluation stays bit-identical to `eval`. The
/// flat `&[f64]` layout (rather than `&[(f64, f64)]`, whose layout Rust does
/// not guarantee) is what the AVX2 gather loads index into.
fn flatten(t: &Table) -> Vec<f64> {
    t.nodes.iter().flat_map(|&(f, d)| [f, H * d]).collect()
}

/// Flat erf node table for the batch kernels: `2·(N+1)` values.
pub(crate) fn erf_nodes_flat() -> &'static [f64] {
    static FLAT: OnceLock<Vec<f64>> = OnceLock::new();
    FLAT.get_or_init(|| flatten(erf_table()))
}

/// Flat `e^{-x²}` node table for the batch kernels: `2·(N+1)` values.
pub(crate) fn gauss_nodes_flat() -> &'static [f64] {
    static FLAT: OnceLock<Vec<f64>> = OnceLock::new();
    FLAT.get_or_init(|| flatten(gauss_table()))
}

/// Fast `erf(x)` for `x ≥ 0`; absolute error `< 4e-12`.
#[inline]
pub fn erf_fast(x: f64) -> f64 {
    debug_assert!(x >= 0.0, "erf_fast expects the quality link's x ≥ 0");
    if x >= X_MAX {
        return 1.0;
    }
    erf_table().eval(x)
}

/// Fast `e^{-x²}` for `x ≥ 0`; absolute error `< 1e-12`.
#[inline]
pub fn exp_neg_sq_fast(x: f64) -> f64 {
    debug_assert!(x >= 0.0, "exp_neg_sq_fast expects the quality link's x ≥ 0");
    if x >= X_MAX {
        return 0.0;
    }
    gauss_table().eval(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_fast_tracks_exact_series() {
        let mut worst = 0.0f64;
        for i in 0..=60_000 {
            let x = i as f64 * 1e-4; // dense grid over [0, 6]
            let err = (erf_fast(x) - erf(x)).abs();
            worst = worst.max(err);
        }
        assert!(worst < 4e-12, "worst erf interpolation error {worst:e}");
        assert_eq!(erf_fast(6.0), 1.0);
        assert_eq!(erf_fast(100.0), 1.0);
    }

    #[test]
    fn exp_neg_sq_fast_tracks_exact() {
        let mut worst = 0.0f64;
        for i in 0..=60_000 {
            let x = i as f64 * 1e-4;
            let err = (exp_neg_sq_fast(x) - (-x * x).exp()).abs();
            worst = worst.max(err);
        }
        assert!(worst < 1e-12, "worst exp(-x²) interpolation error {worst:e}");
        assert_eq!(exp_neg_sq_fast(7.0), 0.0);
    }

    #[test]
    fn grid_nodes_are_exact() {
        // At grid nodes the interpolant reproduces the node value itself.
        for i in [0usize, 1, 17, 511, 512, 3071] {
            let x = i as f64 / 512.0;
            assert!((erf_fast(x) - erf(x)).abs() < 1e-15, "node {i}");
        }
    }
}
