//! Differential tests for the batch kernels: the portable generic path and
//! the AVX2 wide path must be **bit-equal** for every input and every output
//! (sums, gradients, the categorical curvature and the E-step's per-answer
//! logs and precisions) — including the clamp boundaries (the M-step's ±12
//! bound on ln v, the E-step's unclamped ±36), tiny/huge variances,
//! lane-tail lengths (n % 4 ≠ 0) and empty slices. On hosts
//! without AVX2 the wide-path assertions are skipped (the generic-vs-naive
//! accuracy tests still run); CI runs at least one AVX2-capable job.

use proptest::prelude::*;
use tcrowd_stat::batch::{BatchKernels, KernelPath};

fn wide() -> Option<BatchKernels> {
    BatchKernels::with_path(KernelPath::Avx2)
}

fn generic() -> BatchKernels {
    BatchKernels::with_path(KernelPath::Generic).unwrap()
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        assert_eq!(
            a[i].to_bits(),
            b[i].to_bits(),
            "{what}[{i}]: generic {} vs wide {}",
            a[i],
            b[i]
        );
    }
}

/// Edge inputs every fixed test sweeps: clamp boundaries, tiny and huge
/// log-variances, exact zero, and values straddling the erf grid edge.
fn edge_ln_v() -> Vec<f64> {
    vec![
        -12.0,
        -11.999999999,
        -8.0,
        -2.0,
        -1e-12,
        0.0,
        1e-12,
        0.25,
        1.0,
        5.0,
        7.999,
        11.999999999,
        12.0,
        -0.0,
    ]
}

#[test]
fn kernel_paths_bit_equal_on_edge_inputs() {
    let Some(w) = wide() else {
        eprintln!("skipping: no AVX2 on this host");
        return;
    };
    let g = generic();
    for eps in [1e-3, 0.05, 0.5, 1.0, 17.0] {
        let ln_v = edge_ln_v();
        let n = ln_v.len();
        let k: Vec<f64> = (0..n).map(|i| 1e-6 + i as f64 * 0.83).collect();
        let p: Vec<f64> = (0..n).map(|i| 1e-12 + (i as f64 / n as f64) * (1.0 - 2e-12)).collect();
        let c: Vec<f64> = p.iter().map(|pi| (1.0 - pi) * 3.0f64.ln()).collect();

        let (mut gg, mut gw) = (vec![0.0; n], vec![0.0; n]);
        let sg = g.gaussian_terms(&ln_v, &k, &mut gg);
        let sw = w.gaussian_terms(&ln_v, &k, &mut gw);
        assert_eq!(sg.to_bits(), sw.to_bits(), "gaussian sum, eps {eps}");
        assert_bits_eq(&gg, &gw, "gaussian grad");

        let sg = g.quality_terms(eps, &ln_v, &p, &c, &mut gg, None);
        let sw = w.quality_terms(eps, &ln_v, &p, &c, &mut gw, None);
        assert_eq!(sg.to_bits(), sw.to_bits(), "quality sum, eps {eps}");
        assert_bits_eq(&gg, &gw, "quality grad");

        let (mut hg, mut hw) = (vec![0.0; n], vec![0.0; n]);
        let sg = g.quality_terms(eps, &ln_v, &p, &c, &mut gg, Some(&mut hg));
        let sw = w.quality_terms(eps, &ln_v, &p, &c, &mut gw, Some(&mut hw));
        assert_eq!(sg.to_bits(), sw.to_bits(), "quality sum with curvature, eps {eps}");
        assert_bits_eq(&gg, &gw, "quality grad with curvature");
        assert_bits_eq(&hg, &hw, "quality curvature");
    }
}

/// The E-step's edge inputs: its unclamped `ln v` reaches ±36 (three
/// parameters clamped to ±12), `v < EPS` below ln v ≈ -27.6, and small
/// `ln v` pushes `x = ε/√(2v)` past the erf grid edge (x ≥ 6).
fn estep_edge_ln_v() -> Vec<f64> {
    let mut v = edge_ln_v();
    v.extend([-36.0, -35.999, -27.7, -27.631, -27.6, -20.0, -12.5, 12.5, 20.0, 27.6, 35.999, 36.0]);
    v
}

/// Both E-step kernels on both paths, bit for bit.
fn assert_estep_paths_equal(g: BatchKernels, w: BatchKernels, eps: f64, ln_v: &[f64]) {
    let n = ln_v.len();
    let (mut qg, mut qw) = (vec![0.0; n], vec![0.0; n]);
    let (mut mg, mut mw) = (vec![0.0; n], vec![0.0; n]);
    g.quality_logs(eps, ln_v, &mut qg, &mut mg);
    w.quality_logs(eps, ln_v, &mut qw, &mut mw);
    assert_bits_eq(&qg, &qw, "ln q");
    assert_bits_eq(&mg, &mw, "ln(1 - q)");
    g.precisions(ln_v, &mut qg);
    w.precisions(ln_v, &mut qw);
    assert_bits_eq(&qg, &qw, "precision");
}

#[test]
fn estep_kernel_paths_bit_equal_on_edge_inputs() {
    let Some(w) = wide() else {
        eprintln!("skipping: no AVX2 on this host");
        return;
    };
    let ln_v = estep_edge_ln_v();
    // ε from 1e-3 (x < 6 even at ln v = -12) to 17 (x ≥ 6 up to ln v ≈ 2).
    for eps in [1e-3, 0.05, 0.5, 1.0, 17.0] {
        assert_estep_paths_equal(generic(), w, eps, &ln_v);
    }
}

#[test]
fn estep_kernel_paths_bit_equal_on_every_tail_length() {
    let Some(w) = wide() else {
        eprintln!("skipping: no AVX2 on this host");
        return;
    };
    for n in 0..=9usize {
        let ln_v: Vec<f64> = (0..n).map(|i| -36.0 + i as f64 * 8.1).collect();
        assert_estep_paths_equal(generic(), w, 0.7, &ln_v);
    }
}

/// `ln q` and `ln(1 - q)` against the scalar link the E-step used before
/// the kernels: libm `exp`, `erf_fast` and libm `ln`, within
/// 1e-14·max(1, |expected|) plus the rounding of `q` itself. The kernel's
/// `exp` is a few ulp from libm's and the LUT sum rounds, so the two `q`s
/// may differ by a few ulp, and `ln(1 - q)` magnifies one ulp of `q` by
/// `1/(1 - q)`: near q = 1 no evaluation that forms `1 - q` from `q` is
/// closer. (The crate's unit tests check the same kernel against the same
/// formula at the kernel's own `exp`, without the allowance.)
fn assert_quality_logs_match_scalar(eps: f64, ln_v: &[f64]) {
    let n = ln_v.len();
    let (mut lq, mut lomq) = (vec![0.0; n], vec![0.0; n]);
    generic().quality_logs(eps, ln_v, &mut lq, &mut lomq);
    for i in 0..n {
        let x = (eps / std::f64::consts::SQRT_2) * (-0.5 * ln_v[i]).exp();
        let q = tcrowd_stat::clamp_prob(tcrowd_stat::lut::erf_fast(x));
        let ulps = 4.0 * f64::EPSILON;
        for (got, want, slack) in
            [(lq[i], q.ln(), ulps / q), (lomq[i], (1.0 - q).ln(), ulps / (1.0 - q))]
        {
            assert!(
                (got - want).abs() <= 1e-14 * want.abs().max(1.0) + slack,
                "ln v {}, eps {eps}: {got} vs {want}",
                ln_v[i]
            );
        }
    }
}

/// Precisions against the scalar `1 / clamp_var(exp(ln v))`.
fn assert_precisions_match_scalar(ln_v: &[f64]) {
    let mut prec = vec![0.0; ln_v.len()];
    generic().precisions(ln_v, &mut prec);
    for (&got, &l) in prec.iter().zip(ln_v) {
        let want = 1.0 / tcrowd_stat::clamp_var(l.exp());
        assert!((got - want).abs() <= 1e-14 * want.abs().max(1.0), "ln v {l}: {got} vs {want}");
    }
}

#[test]
fn estep_kernels_match_the_scalar_formulas_on_edge_inputs() {
    let ln_v = estep_edge_ln_v();
    for eps in [1e-3, 0.05, 0.5, 1.0, 17.0] {
        assert_quality_logs_match_scalar(eps, &ln_v);
    }
    assert_precisions_match_scalar(&ln_v);
}

#[test]
fn kernel_paths_bit_equal_on_every_tail_length() {
    let Some(w) = wide() else {
        eprintln!("skipping: no AVX2 on this host");
        return;
    };
    let g = generic();
    // 0..=9 exercises empty, sub-lane, exactly-one-lane and lane+tail shapes.
    for n in 0..=9usize {
        let ln_v: Vec<f64> = (0..n).map(|i| -12.0 + i as f64 * 2.7).collect();
        let k: Vec<f64> = (0..n).map(|i| 0.5 + i as f64).collect();
        let p: Vec<f64> = (0..n).map(|i| 0.1 + 0.09 * i as f64).collect();
        let c: Vec<f64> = p.iter().map(|pi| (1.0 - pi) * 1.5).collect();
        let (mut gg, mut gw) = (vec![0.0; n], vec![0.0; n]);
        let sg = g.gaussian_terms(&ln_v, &k, &mut gg);
        let sw = w.gaussian_terms(&ln_v, &k, &mut gw);
        assert_eq!(sg.to_bits(), sw.to_bits(), "gaussian sum, n={n}");
        assert_bits_eq(&gg, &gw, "gaussian grad");
        let sg = g.quality_terms(0.7, &ln_v, &p, &c, &mut gg, None);
        let sw = w.quality_terms(0.7, &ln_v, &p, &c, &mut gw, None);
        assert_eq!(sg.to_bits(), sw.to_bits(), "quality sum, n={n}");
        assert_bits_eq(&gg, &gw, "quality grad");
        let (mut hg, mut hw) = (vec![0.0; n], vec![0.0; n]);
        let sg = g.quality_terms(0.7, &ln_v, &p, &c, &mut gg, Some(&mut hg));
        let sw = w.quality_terms(0.7, &ln_v, &p, &c, &mut gw, Some(&mut hw));
        assert_eq!(sg.to_bits(), sw.to_bits(), "quality sum with curvature, n={n}");
        assert_bits_eq(&gg, &gw, "quality grad with curvature");
        assert_bits_eq(&hg, &hw, "quality curvature");
    }
}

proptest! {
    #[test]
    fn quality_logs_paths_bit_equal(
        ln_v in prop::collection::vec(-36.0f64..36.0, 1..70),
        eps in 1e-3f64..4.0,
    ) {
        let Some(w) = wide() else { return Ok(()); };
        let n = ln_v.len();
        let (mut qg, mut qw) = (vec![0.0; n], vec![0.0; n]);
        let (mut mg, mut mw) = (vec![0.0; n], vec![0.0; n]);
        generic().quality_logs(eps, &ln_v, &mut qg, &mut mg);
        w.quality_logs(eps, &ln_v, &mut qw, &mut mw);
        for i in 0..n {
            prop_assert_eq!(qg[i].to_bits(), qw[i].to_bits());
            prop_assert_eq!(mg[i].to_bits(), mw[i].to_bits());
        }
        assert_quality_logs_match_scalar(eps, &ln_v);
    }

    #[test]
    fn precisions_paths_bit_equal(ln_v in prop::collection::vec(-36.0f64..36.0, 1..70)) {
        let Some(w) = wide() else { return Ok(()); };
        let n = ln_v.len();
        let (mut pg, mut pw) = (vec![0.0; n], vec![0.0; n]);
        generic().precisions(&ln_v, &mut pg);
        w.precisions(&ln_v, &mut pw);
        for i in 0..n {
            prop_assert_eq!(pg[i].to_bits(), pw[i].to_bits());
        }
        assert_precisions_match_scalar(&ln_v);
    }

    #[test]
    fn gaussian_terms_paths_bit_equal(
        ln_v in prop::collection::vec(-12.0f64..12.0, 1..70),
        seed in any::<u64>(),
    ) {
        let Some(w) = wide() else { return Ok(()); };
        let g = generic();
        let n = ln_v.len();
        let k: Vec<f64> = (0..n)
            .map(|i| {
                let r = seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                1e-9 + (r >> 11) as f64 / (1u64 << 53) as f64 * 100.0
            })
            .collect();
        let (mut gg, mut gw) = (vec![0.0; n], vec![0.0; n]);
        let sg = g.gaussian_terms(&ln_v, &k, &mut gg);
        let sw = w.gaussian_terms(&ln_v, &k, &mut gw);
        prop_assert_eq!(sg.to_bits(), sw.to_bits());
        for i in 0..n {
            prop_assert_eq!(gg[i].to_bits(), gw[i].to_bits());
        }
    }

    #[test]
    fn quality_terms_paths_bit_equal(
        ln_v in prop::collection::vec(-12.0f64..12.0, 1..70),
        p0 in prop::collection::vec(0.0f64..1.0, 70..71),
        eps in 1e-3f64..4.0,
        card in 2u32..12,
    ) {
        let Some(w) = wide() else { return Ok(()); };
        let g = generic();
        let n = ln_v.len();
        let p: Vec<f64> = p0[..n].iter().map(|&x| tcrowd_stat::clamp_prob(x)).collect();
        let ln_card1 = ((card - 1) as f64).ln();
        let c: Vec<f64> = p.iter().map(|pi| (1.0 - pi) * ln_card1).collect();
        let (mut gg, mut gw) = (vec![0.0; n], vec![0.0; n]);
        let (mut hg, mut hw) = (vec![0.0; n], vec![0.0; n]);
        let sg = g.quality_terms(eps, &ln_v, &p, &c, &mut gg, Some(&mut hg));
        let sw = w.quality_terms(eps, &ln_v, &p, &c, &mut gw, Some(&mut hw));
        prop_assert_eq!(sg.to_bits(), sw.to_bits());
        for i in 0..n {
            prop_assert_eq!(gg[i].to_bits(), gw[i].to_bits());
            prop_assert_eq!(hg[i].to_bits(), hw[i].to_bits());
        }
    }

    /// The generic path itself must agree with a naive libm evaluation —
    /// this bounds *accuracy*, while the tests above bound *equality*.
    #[test]
    fn generic_gaussian_matches_naive_libm(
        ln_v in prop::collection::vec(-12.0f64..12.0, 1..40),
    ) {
        let g = generic();
        let n = ln_v.len();
        let k: Vec<f64> = (0..n).map(|i| 0.01 + i as f64 * 0.5).collect();
        let mut grad = vec![0.0; n];
        let total = g.gaussian_terms(&ln_v, &k, &mut grad);
        let mut naive = 0.0;
        for i in 0..n {
            let v = ln_v[i].exp();
            naive += -0.5 * ((2.0 * std::f64::consts::PI).ln() + ln_v[i]) - k[i] / (2.0 * v);
            let expect = -0.5 + k[i] / (2.0 * v);
            prop_assert!((grad[i] - expect).abs() <= 1e-10 * expect.abs().max(1.0));
        }
        prop_assert!((total - naive).abs() <= 1e-9 * naive.abs().max(1.0));
    }
}
