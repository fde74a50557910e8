//! Gradient ascent with adaptive step size.
//!
//! A general-purpose first-order maximiser: the caller supplies the
//! objective and its analytic gradient, and the optimizer guarantees
//! monotone progress by halving the step whenever a trial point does not
//! improve the objective. GLAD's ability/difficulty fit runs on it. The
//! T-Crowd EM M-step (paper Eq. 5) does not: its objective separates per
//! parameter within each of the α, β and φ blocks, so `tcrowd-core` takes
//! block-coordinate Newton steps there instead.

/// Step growth factor applied after an immediately-accepted step.
const GROWTH: f64 = 1.5;

/// Step-halving limit per iteration before giving up on progress.
const MAX_BACKTRACKS: usize = 30;

/// Configuration for [`gradient_ascent`].
#[derive(Debug, Clone, Copy)]
pub struct AscentOptions {
    /// Initial step size along the (unnormalised) gradient.
    pub initial_step: f64,
    /// Maximum number of accepted iterations.
    pub max_iters: usize,
    /// Convergence threshold on the objective improvement between accepted
    /// iterations.
    pub tol: f64,
}

impl Default for AscentOptions {
    fn default() -> Self {
        AscentOptions { initial_step: 0.1, max_iters: 50, tol: 1e-7 }
    }
}

/// Result of a [`gradient_ascent`] run.
#[derive(Debug, Clone)]
pub struct AscentResult {
    /// The optimised parameter vector.
    pub params: Vec<f64>,
    /// Objective value at [`Self::params`].
    pub value: f64,
    /// Number of accepted iterations performed.
    pub iterations: usize,
    /// Whether the tolerance criterion was met before `max_iters`.
    pub converged: bool,
    /// Number of objective evaluations performed (accepted + backtracked).
    pub evaluations: usize,
}

/// Maximise `f` starting from `x0`.
///
/// `f(x)` returns `(value, gradient)`. The algorithm is plain gradient ascent
/// with backtracking: a step is only accepted if it strictly improves the
/// objective, so the returned value is never worse than `f(x0)`.
pub fn gradient_ascent<F>(f: F, x0: &[f64], opts: &AscentOptions) -> AscentResult
where
    F: Fn(&[f64]) -> (f64, Vec<f64>),
{
    let mut x = x0.to_vec();
    let mut trial = vec![0.0; x.len()];
    let (mut value, mut grad) = f(&x);
    assert_eq!(grad.len(), x.len(), "gradient dimension mismatch");
    let mut evaluations = 1usize;
    let mut step = opts.initial_step;
    let mut iterations = 0;
    let mut converged = false;

    for _ in 0..opts.max_iters {
        // Scale step against gradient magnitude so it is a trust region on
        // parameter movement, not on raw gradient units.
        let gnorm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        if gnorm < 1e-14 {
            converged = true;
            break;
        }
        let mut accepted = false;
        let mut local_step = step;
        for bt in 0..=MAX_BACKTRACKS {
            for i in 0..x.len() {
                trial[i] = x[i] + local_step * grad[i] / gnorm.max(1.0);
            }
            let (tv, trial_grad) = f(&trial);
            assert_eq!(trial_grad.len(), x.len(), "gradient dimension mismatch");
            evaluations += 1;
            if tv > value && tv.is_finite() {
                let improvement = tv - value;
                std::mem::swap(&mut x, &mut trial);
                grad = trial_grad;
                value = tv;
                iterations += 1;
                // Reward an immediately successful step with growth.
                step = if bt == 0 { local_step * GROWTH } else { local_step };
                accepted = true;
                if improvement < opts.tol {
                    converged = true;
                }
                break;
            }
            local_step *= 0.5;
        }
        if !accepted {
            converged = true; // no improving direction at any step size
            break;
        }
        if converged {
            break;
        }
    }
    AscentResult { params: x, value, iterations, converged, evaluations }
}

/// Central-difference numerical gradient, for testing analytic gradients.
pub fn numerical_gradient<F>(f: F, x: &[f64], h: f64) -> Vec<f64>
where
    F: Fn(&[f64]) -> f64,
{
    let mut grad = vec![0.0; x.len()];
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        let orig = xp[i];
        xp[i] = orig + h;
        let fp = f(&xp);
        xp[i] = orig - h;
        let fm = f(&xp);
        xp[i] = orig;
        grad[i] = (fp - fm) / (2.0 * h);
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Concave quadratic with known maximum.
    fn quadratic(x: &[f64]) -> (f64, Vec<f64>) {
        // f = -(x0-1)² - 2(x1+2)² ; max at (1, -2), value 0.
        let v = -(x[0] - 1.0).powi(2) - 2.0 * (x[1] + 2.0).powi(2);
        let g = vec![-2.0 * (x[0] - 1.0), -4.0 * (x[1] + 2.0)];
        (v, g)
    }

    #[test]
    fn finds_quadratic_maximum() {
        let opts = AscentOptions { max_iters: 500, tol: 1e-12, ..Default::default() };
        let res = gradient_ascent(quadratic, &[10.0, 10.0], &opts);
        assert!((res.params[0] - 1.0).abs() < 1e-3, "x0 = {}", res.params[0]);
        assert!((res.params[1] + 2.0).abs() < 1e-3, "x1 = {}", res.params[1]);
        assert!(res.value > -1e-5);
    }

    #[test]
    fn never_decreases_objective() {
        let start = [5.0, -7.0];
        let (v0, _) = quadratic(&start);
        let res = gradient_ascent(quadratic, &start, &AscentOptions::default());
        assert!(res.value >= v0);
    }

    #[test]
    fn handles_flat_gradient() {
        let res =
            gradient_ascent(|_| (3.0, vec![0.0, 0.0]), &[1.0, 2.0], &AscentOptions::default());
        assert!(res.converged);
        assert_eq!(res.params, vec![1.0, 2.0]);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn respects_iteration_budget() {
        let opts = AscentOptions { max_iters: 3, tol: 0.0, ..Default::default() };
        let res = gradient_ascent(quadratic, &[100.0, 100.0], &opts);
        assert!(res.iterations <= 3);
    }

    #[test]
    fn numerical_gradient_matches_analytic() {
        let x = [0.4, -1.3];
        let (_, analytic) = quadratic(&x);
        let numeric = numerical_gradient(|p| quadratic(p).0, &x, 1e-6);
        for (a, n) in analytic.iter().zip(&numeric) {
            assert!((a - n).abs() < 1e-6);
        }
    }

    #[test]
    fn nonconvex_objective_still_improves() {
        // f = -x⁴ + x² has maxima at ±1/√2; start near zero.
        let f = |x: &[f64]| {
            let v = -x[0].powi(4) + x[0] * x[0];
            (v, vec![-4.0 * x[0].powi(3) + 2.0 * x[0]])
        };
        let res =
            gradient_ascent(f, &[0.1], &AscentOptions { max_iters: 200, ..Default::default() });
        assert!((res.params[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-2);
    }
}
