//! Figure 4: estimated vs actual worker quality on Restaurant, with a linear
//! regression per datatype. The paper reports correlation coefficients of
//! 0.844 (categorical) and 0.841 (continuous).

use std::collections::BTreeMap;
use tcrowd_bench::emit;
use tcrowd_core::TCrowd;
use tcrowd_stat::describe::std_dev;
use tcrowd_stat::linreg;
use tcrowd_tabular::tsv::TsvTable;
use tcrowd_tabular::{real_sim, Answer, Value, WorkerId};

fn main() {
    let d = real_sim::restaurant(1);
    let r = TCrowd::default_full().infer(&d.schema, &d.answers);
    let cats = d.schema.categorical_columns();
    let conts = d.schema.continuous_columns();

    let mut cat_pts: Vec<(f64, f64)> = Vec::new(); // (estimated err prob, actual err rate)
    let mut cont_pts: Vec<(f64, f64)> = Vec::new(); // (estimated std, actual residual std)
    let mut by_worker: BTreeMap<WorkerId, Vec<&Answer>> = BTreeMap::new();
    for a in d.answers.all() {
        by_worker.entry(a.worker).or_default().push(a);
    }
    for (&w, answers) in &by_worker {
        if answers.len() < 10 {
            continue; // too few answers for a stable "actual" quality
        }
        // Actual categorical quality: observed error rate vs ground truth.
        let cat_answers: Vec<_> =
            answers.iter().filter(|a| cats.contains(&(a.cell.col as usize))).collect();
        // Actual continuous quality: std of z-scored residuals.
        let mut residuals = Vec::new();
        for a in answers.iter().filter(|a| conts.contains(&(a.cell.col as usize))) {
            if let (Value::Continuous(x), Value::Continuous(t)) = (a.value, d.truth_of(a.cell)) {
                let (_, sd) = r.scaler(a.cell.col as usize).expect("scaler");
                residuals.push((x - t) / sd);
            }
        }
        let phi = match r.phi_of(w) {
            Some(p) => p,
            None => continue,
        };
        if !cat_answers.is_empty() {
            let wrong = cat_answers
                .iter()
                .filter(|a| a.value.expect_categorical() != d.truth_of(a.cell).expect_categorical())
                .count();
            let actual = wrong as f64 / cat_answers.len() as f64;
            let estimated = 1.0 - r.quality_of(w).expect("fitted worker");
            cat_pts.push((estimated, actual));
        }
        if residuals.len() >= 4 {
            cont_pts.push((phi.sqrt(), std_dev(&residuals)));
        }
    }

    let (cx, cy): (Vec<f64>, Vec<f64>) = cat_pts.iter().copied().unzip();
    let (nx, ny): (Vec<f64>, Vec<f64>) = cont_pts.iter().copied().unzip();
    let cat_fit = linreg::fit(&cx, &cy);
    let cont_fit = linreg::fit(&nx, &ny);

    let mut table = TsvTable::new(&["datatype", "estimated", "actual"]);
    for (e, a) in &cat_pts {
        table.push_row(vec!["categorical".into(), format!("{e:.5}"), format!("{a:.5}")]);
    }
    for (e, a) in &cont_pts {
        table.push_row(vec!["continuous".into(), format!("{e:.5}"), format!("{a:.5}")]);
    }
    emit(&table, "fig4_quality_calibration.tsv", "Figure 4: estimated vs actual quality");

    println!(
        "\ncategorical: r = {:.3}, slope = {:.3} ({} workers)",
        cat_fit.r,
        cat_fit.slope,
        cat_pts.len()
    );
    println!(
        "continuous:  r = {:.3}, slope = {:.3} ({} workers)",
        cont_fit.r,
        cont_fit.slope,
        cont_pts.len()
    );
    println!("Paper shape to check: strong positive correlation, ~0.84 on both.");
}
