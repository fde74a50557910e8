//! Run-to-run determinism regression tests.
//!
//! The seed implementation iterated workers through `HashMap`s, whose
//! iteration order changes per process — two identical runs could disagree
//! in the last float bits (and k-means clustering could disagree outright).
//! The columnar `AnswerMatrix` orders workers by ascending id and every
//! sweep walks CSR slices, so repeating a fit must now be **bit-identical**.

use tcrowd::core::diagnostics;
use tcrowd::core::{CorrelationModel, EntityModel, EntityModelOptions, RowGrouping, TCrowd};
use tcrowd::prelude::*;
use tcrowd::tabular::metrics::worker_attribute_errors;
use tcrowd::tabular::real_sim;

fn dataset(seed: u64) -> Dataset {
    generate_dataset(
        &GeneratorConfig {
            rows: 30,
            columns: 5,
            num_workers: 18,
            answers_per_task: 4,
            ..Default::default()
        },
        seed,
    )
}

#[test]
fn two_identical_inference_runs_are_bit_identical() {
    let d = dataset(42);
    let model = TCrowd::default_full();
    let a = model.infer(&d.schema, &d.answers);
    let b = model.infer(&d.schema, &d.answers);
    // Bit-identical across every fitted quantity, not merely "close".
    assert_eq!(a.workers, b.workers);
    assert_eq!(a.phi, b.phi);
    assert_eq!(a.alpha, b.alpha);
    assert_eq!(a.beta, b.beta);
    assert_eq!(a.epsilon.to_bits(), b.epsilon.to_bits());
    assert_eq!(a.objective_trace, b.objective_trace);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.estimates(), b.estimates());
    for i in 0..d.rows() as u32 {
        for j in 0..d.cols() as u32 {
            assert_eq!(a.truth_z(CellId::new(i, j)), b.truth_z(CellId::new(i, j)));
        }
    }
}

#[test]
fn workers_iterate_in_sorted_id_order() {
    let d = dataset(7);
    let m = d.answers.to_matrix();
    let ids: Vec<u32> = m.worker_ids().iter().map(|w| w.0).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
    // Exactly the log's distinct workers, each once.
    let mut log_ids: Vec<WorkerId> = d.answers.all().iter().map(|a| a.worker).collect();
    log_ids.sort_unstable();
    log_ids.dedup();
    assert_eq!(log_ids, m.worker_ids());
    // And the fitted result reports workers in exactly that order.
    let r = TCrowd::default_full().infer(&d.schema, &d.answers);
    assert_eq!(r.workers, m.worker_ids());
}

#[test]
fn correlation_model_is_bit_identical_across_runs() {
    let d = dataset(11);
    let r = TCrowd::default_full().infer(&d.schema, &d.answers);
    let c1 = CorrelationModel::fit(&d.schema, &d.answers, &r);
    let c2 = CorrelationModel::fit(&d.schema, &d.answers, &r);
    for j in 0..d.cols() {
        for k in 0..d.cols() {
            assert_eq!(c1.wjk(j, k).to_bits(), c2.wjk(j, k).to_bits(), "W[{j}][{k}]");
            assert_eq!(c1.support(j, k), c2.support(j, k));
        }
    }
}

#[test]
fn learned_entity_grouping_is_deterministic() {
    let d = dataset(13);
    let r = TCrowd::default_full().infer(&d.schema, &d.answers);
    let grouping = RowGrouping::Learned { groups: 3, seed: 5 };
    let opts = EntityModelOptions::default();
    let m1 = EntityModel::fit(&d.schema, &d.answers, &r, &grouping, &opts);
    let m2 = EntityModel::fit(&d.schema, &d.answers, &r, &grouping, &opts);
    assert_eq!(m1.groups(), m2.groups());
    let mut l1: Vec<_> = m1.multipliers().collect();
    let mut l2: Vec<_> = m2.multipliers().collect();
    l1.sort_by_key(|((w, g), _)| (*w, *g));
    l2.sort_by_key(|((w, g), _)| (*w, *g));
    assert_eq!(l1.len(), l2.len());
    for ((ka, va), (kb, vb)) in l1.iter().zip(&l2) {
        assert_eq!(ka, kb);
        assert_eq!(va.to_bits(), vb.to_bits());
    }
}

/// FNV-1a over a stream of 64-bit words: a compact pin for a long run of
/// float bit patterns.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

fn value_bits(v: &Value) -> u64 {
    match *v {
        Value::Categorical(l) => u64::from(l),
        Value::Continuous(x) => x.to_bits(),
    }
}

/// The bit patterns of every reader that groups the answer set by worker:
/// `quality_consistency`, `calibration`'s slope, intercept and r, then
/// digests of `worker_attribute_errors(d, 5, true)` (ids and cells),
/// `Dataset::statistics()` and `infer_reference`'s estimates.
fn grouped_reader_bits(d: &Dataset) -> [u64; 7] {
    let fit = TCrowd::default_full().infer(&d.schema, &d.answers);
    let consistency = diagnostics::quality_consistency(&d.schema, &d.answers, &fit)
        .expect("enough workers for the consistency statistic");
    let cal = diagnostics::calibration(&d.schema, &d.answers, &fit)
        .expect("enough categorical data for calibration");
    let (top, errors) = worker_attribute_errors(d, 5, true);
    let s = d.statistics();
    let reference = TCrowd::default_full().infer_reference(&d.schema, &d.answers);
    [
        consistency.to_bits(),
        cal.slope.to_bits(),
        cal.intercept.to_bits(),
        cal.r.to_bits(),
        digest(
            top.iter().map(|w| u64::from(w.0)).chain(errors.iter().flatten().map(|e| e.to_bits())),
        ),
        digest(
            [
                s.rows,
                s.columns,
                s.cells,
                s.categorical_columns,
                s.continuous_columns,
                s.answers,
                s.workers,
            ]
            .map(|n| n as u64)
            .into_iter()
            .chain([s.answers_per_task.to_bits()]),
        ),
        digest(reference.estimates().iter().flatten().map(value_bits)),
    ]
}

/// Readers that group answers by worker, pinned to figures recorded from
/// their output: each one's result must stay bit-identical however the
/// grouping is computed, on a simulated real table (Restaurant) and on a
/// generated one. The generators emit each worker's answers in (row,
/// column) order, which is also the freeze's order, so the generated
/// table is pinned a second time with its log reversed, where the two
/// orders differ.
#[test]
fn grouped_readers_are_pinned() {
    let restaurant = real_sim::restaurant(1);
    let generated =
        generate_dataset(&GeneratorConfig { rows: 150, columns: 4, ..Default::default() }, 3);
    let mut reversed = generated.clone();
    reversed.answers = AnswerLog::new(generated.rows(), generated.cols());
    for a in generated.answers.all().iter().rev() {
        reversed.answers.push(*a);
    }
    assert_eq!(
        grouped_reader_bits(&restaurant),
        [
            0x3fee_5272_90d0_ed5b,
            0x3ff0_7778_06c0_48f5,
            0x3f82_83c1_c830_edc0,
            0x3fee_1daf_1662_6d49,
            0x4bc9_25e8_ad79_debc,
            0x6096_3922_f68e_e7f5,
            0x15f8_c4a0_2a89_85af,
        ]
    );
    assert_eq!(
        grouped_reader_bits(&generated),
        [
            0x3fe9_3e83_a29c_4ff9,
            0x3ff1_a9fd_c62d_2688,
            0xbfa3_4b02_ca42_caa0,
            0x3fed_3d75_3503_0eea,
            0x9f01_19df_94d4_c43c,
            0x5109_e919_3e13_ed3d,
            0xa083_e73c_6938_bf35,
        ]
    );
    assert_eq!(
        grouped_reader_bits(&reversed),
        [
            0x3fe9_3e83_a29c_4ffa,
            0x3ff1_a9fd_c62d_2686,
            0xbfa3_4b02_ca42_caa0,
            0x3fed_3d75_3503_0ee6,
            0x0913_dccd_b87f_fc01,
            0x5109_e919_3e13_ed3d,
            0xf802_0bbc_0380_abb0,
        ]
    );
}
