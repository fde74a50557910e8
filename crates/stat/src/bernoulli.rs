//! Bernoulli distribution.
//!
//! The attribute-correlation model (paper Table 4) treats the error variable
//! `e_j` of a *categorical* column as Bernoulli: `e = 1` means the worker's
//! answer mismatched the estimated truth.

use crate::clamp_prob;
use rand::Rng;

/// A Bernoulli distribution `B(1, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    /// Success (error) probability, clamped to the open unit interval.
    pub p: f64,
}

impl Bernoulli {
    /// Create a Bernoulli distribution, clamping `p` into `(0, 1)`.
    pub fn new(p: f64) -> Self {
        Bernoulli { p: clamp_prob(p) }
    }

    /// Shannon entropy in nats.
    pub fn entropy(&self) -> f64 {
        let p = self.p;
        -(p * p.ln() + (1.0 - p) * (1.0 - p).ln())
    }

    /// Maximum-likelihood estimate from `successes` out of `trials`.
    ///
    /// Applies add-one (Laplace) smoothing so downstream conditionals never
    /// see a hard 0/1 probability from sparse data — the correlation model of
    /// §5.2 conditions on events that may have been observed only a handful
    /// of times.
    pub fn mle_smoothed(successes: f64, trials: f64) -> Self {
        Bernoulli::new((successes + 1.0) / (trials + 2.0))
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen_range(0.0..1.0) < self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn entropy_is_maximal_at_half() {
        let half = Bernoulli::new(0.5).entropy();
        assert!((half - std::f64::consts::LN_2).abs() < 1e-12);
        for p in [0.1, 0.3, 0.7, 0.95] {
            assert!(Bernoulli::new(p).entropy() < half, "p = {p}");
        }
    }

    #[test]
    fn entropy_is_symmetric() {
        for p in [0.05, 0.2, 0.41] {
            let a = Bernoulli::new(p).entropy();
            let b = Bernoulli::new(1.0 - p).entropy();
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn mle_with_smoothing() {
        // 3 successes out of 4 → (3+1)/(4+2) = 2/3.
        let fit = Bernoulli::mle_smoothed(3.0, 4.0);
        assert!((fit.p - 2.0 / 3.0).abs() < 1e-12);
        // Empty data → uniform prior 1/2.
        let empty = Bernoulli::mle_smoothed(0.0, 0.0);
        assert!((empty.p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn smoothing_avoids_degenerate_probabilities() {
        let all_true = Bernoulli::mle_smoothed(5.0, 5.0);
        assert!(all_true.p < 1.0);
        let all_false = Bernoulli::mle_smoothed(0.0, 5.0);
        assert!(all_false.p > 0.0);
    }

    #[test]
    fn sampling_frequency() {
        let mut rng = StdRng::seed_from_u64(11);
        let b = Bernoulli::new(0.3);
        let hits = (0..50_000).filter(|_| b.sample(&mut rng)).count();
        let frac = hits as f64 / 50_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac = {frac}");
    }
}
