//! The structure-aware machinery on its own: learn the inter-attribute error
//! correlations of the Restaurant dataset (paper §6.4.3) and use them to
//! predict a worker's error on one attribute from their error on another.
//!
//! ```text
//! cargo run --release --example restaurant_structure_aware
//! ```

use tcrowd::core::{CorrelationModel, ErrorObservation, PredictedError, TCrowd};
use tcrowd::tabular::real_sim;

fn main() {
    let dataset = real_sim::restaurant(5);
    let inference = TCrowd::default_full().infer(&dataset.schema, &dataset.answers);
    let model = CorrelationModel::fit(&dataset.schema, &dataset.answers, &inference);

    // The pairwise correlation coefficients W_jk (paper Eq. 8).
    println!("W_jk (error correlation between attributes):\n");
    print!("{:>12}", "");
    for c in &dataset.schema.columns {
        print!("{:>13}", c.name);
    }
    println!();
    for (j, cj) in dataset.schema.columns.iter().enumerate() {
        print!("{:>12}", cj.name);
        for k in 0..dataset.schema.num_columns() {
            if j == k {
                print!("{:>13}", "-");
            } else {
                print!("{:>13.3}", model.wjk(j, k));
            }
        }
        println!();
    }

    // Predict the EndTarget error distribution from an observed StartTarget
    // error (the paper's Fig. 6 narrative).
    println!("\npredicting EndTarget (col 4) error from StartTarget (col 3) error:");
    for e_start in [0.0, 1.0, 2.0] {
        match model.conditional_error(4, &[(3, ErrorObservation::Continuous(e_start))]) {
            Some(PredictedError::Continuous { mean, var }) => {
                println!("  e_start = {e_start:>4.1}  ->  e_end ~ N({mean:>6.3}, {var:.3})");
            }
            other => println!("  e_start = {e_start:>4.1}  ->  {other:?}"),
        }
    }

    // Predict the Sentiment error probability from an Aspect mistake.
    println!("\npredicting Sentiment (col 2) from Aspect (col 0):");
    for (desc, wrong) in [("Aspect answered correctly", false), ("Aspect answered wrongly", true)] {
        match model.conditional_error(2, &[(0, ErrorObservation::Categorical(wrong))]) {
            Some(PredictedError::Categorical(p)) => {
                println!("  {desc}: P(Sentiment wrong) = {p:.3}");
            }
            other => println!("  {desc}: {other:?}"),
        }
    }
    println!("\nThe paper's observation: a mistake on one attribute of a row predicts");
    println!("mistakes on its other attributes — which is why the structure-aware");
    println!("information gain avoids wasting that worker on the same row.");
}
