//! Gaussian sampling on top of any [`rand::Rng`].
//!
//! The allowed dependency set does not include `rand_distr`, so standard
//! normal variates are produced with the Marsaglia polar (Box–Muller) method.

use rand::Rng;

/// Draw one standard-normal variate using the Marsaglia polar method.
///
/// The method produces variates in pairs; the second is deliberately *not*
/// cached. A cache shared across calls would couple streams drawn from
/// different seeded RNGs on the same thread and destroy per-seed determinism
/// — reproducibility of every experiment trumps halving the `ln`/`sqrt`
/// count here.
pub fn sample_std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let factor = (-2.0 * s.ln() / s).sqrt();
            return u * factor;
        }
    }
}

/// Draw an index in `0..weights.len()` proportionally to `weights`.
///
/// Zero or negative weights contribute no mass; panics if the total mass is
/// not positive. Used for sampling categorical answers from a worker model.
pub fn sample_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
    assert!(total > 0.0 && total.is_finite(), "weights must have positive finite mass");
    let mut target = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        if target < w {
            return i;
        }
        target -= w;
    }
    // Floating-point slack: fall back to the last positive-weight index.
    weights.iter().rposition(|w| *w > 0.0).expect("at least one positive weight")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn std_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..100_000).map(|_| sample_std_normal(&mut rng)).collect();
        assert!(describe::mean(&xs).abs() < 0.02);
        assert!((describe::variance(&xs) - 1.0).abs() < 0.03);
        // Skewness should vanish.
        let m = describe::mean(&xs);
        let s3: f64 = xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / xs.len() as f64;
        assert!(s3.abs() < 0.05, "skewness term = {s3}");
    }

    #[test]
    fn std_normal_tail_fractions() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let beyond2: usize = (0..n).filter(|_| sample_std_normal(&mut rng).abs() > 2.0).count();
        let frac = beyond2 as f64 / n as f64;
        // P(|Z| > 2) ≈ 0.0455
        assert!((frac - 0.0455).abs() < 0.005, "frac = {frac}");
    }

    #[test]
    fn weighted_sampling_respects_proportions() {
        let mut rng = StdRng::seed_from_u64(3);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[sample_weighted(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio = {ratio}");
    }

    #[test]
    #[should_panic(expected = "positive finite mass")]
    fn weighted_sampling_rejects_zero_mass() {
        let mut rng = StdRng::seed_from_u64(4);
        sample_weighted(&mut rng, &[0.0, -1.0]);
    }
}
