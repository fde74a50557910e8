//! Figure 6: correlation among attributes on Restaurant.
//!
//! Left: the Aspect × Sentiment correct/wrong contingency table with the
//! conditional accuracies the paper quotes (86% vs 73%). Right: the
//! (StartTarget, EndTarget) error pairs and the fitted conditional Gaussians
//! `P(e_end | e_start = x)` at two probe points.

use tcrowd_bench::emit;
use tcrowd_core::{CorrelationModel, ErrorObservation, PredictedError, TCrowd};
use tcrowd_tabular::real_sim;
use tcrowd_tabular::tsv::TsvTable;

fn main() {
    let d = real_sim::restaurant(1);
    let r = TCrowd::default_full().infer(&d.schema, &d.answers);

    // ---- Left: Aspect (col 0) × Sentiment (col 2) contingency vs ground truth.
    let m = d.answers.to_matrix();
    let (mut cc, mut cw, mut wc, mut ww) = (0usize, 0usize, 0usize, 0usize);
    for w in 0..m.num_workers() {
        for i in 0..d.rows() as u32 {
            let row: Vec<_> = m.worker_row_answers(w, i).collect();
            let correct = |col: u32| {
                row.iter().find(|a| a.cell.col == col).map(|a| {
                    a.value.expect_categorical() == d.truth_of(a.cell).expect_categorical()
                })
            };
            if let (Some(a_ok), Some(s_ok)) = (correct(0), correct(2)) {
                match (a_ok, s_ok) {
                    (true, true) => cc += 1,
                    (true, false) => cw += 1,
                    (false, true) => wc += 1,
                    (false, false) => ww += 1,
                }
            }
        }
    }
    let mut left = TsvTable::new(&["aspect", "sentiment_correct", "sentiment_wrong"]);
    left.push_row(vec!["correct".into(), cc.to_string(), cw.to_string()]);
    left.push_row(vec!["wrong".into(), wc.to_string(), ww.to_string()]);
    emit(&left, "fig6_contingency.tsv", "Figure 6 (left): Aspect × Sentiment contingency");
    let p_s_given_a_ok = cc as f64 / (cc + cw).max(1) as f64;
    let p_s_given_a_wrong = wc as f64 / (wc + ww).max(1) as f64;
    println!("\nP(Sentiment correct | Aspect correct) = {p_s_given_a_ok:.3}");
    println!("P(Sentiment correct | Aspect wrong)   = {p_s_given_a_wrong:.3}");
    println!("Paper shape to check: the first clearly exceeds the second (0.86 vs 0.73).");

    // ---- Right: StartTarget (3) / EndTarget (4) error scatter + conditionals.
    let mut scatter = TsvTable::new(&["e_start", "e_end"]);
    for w in 0..m.num_workers() {
        for i in 0..d.rows() as u32 {
            let row: Vec<_> = m.worker_row_answers(w, i).collect();
            let err = |col: u32| {
                row.iter()
                    .find(|a| a.cell.col == col)
                    .map(|a| a.value.expect_continuous() - d.truth_of(a.cell).expect_continuous())
            };
            if let (Some(es), Some(ee)) = (err(3), err(4)) {
                scatter.push_row(vec![format!("{es:.4}"), format!("{ee:.4}")]);
            }
        }
    }
    emit(&scatter, "fig6_error_scatter.tsv", "Figure 6 (right): Start/End error pairs");

    let model = CorrelationModel::fit(&d.schema, &d.answers, &r);
    println!("\nW(EndTarget, StartTarget) = {:.3}", model.wjk(4, 3));
    for probe in [0.0, 2.0] {
        if let Some(PredictedError::Continuous { mean, var }) =
            model.conditional_error(4, &[(3, ErrorObservation::Continuous(probe))])
        {
            println!("P(e_end | e_start = {probe}) ≈ N({mean:.3}, {var:.3})  (z-scored units)");
        }
    }
    println!("Paper shape to check: conditional mean tracks the observed error upward");
    println!("with roughly unchanged variance (N(0.28, 0.76) -> N(3.75, 0.76) in raw units).");
}
