//! Streaming truth inference: keep estimates fresh while answers arrive one
//! at a time. Each answer is folded into the online loop's `FitState` with
//! the §5.1 incremental posterior update (no EM); the full EM model is
//! re-fitted only every 100 answers.
//!
//! ```text
//! cargo run --release --example streaming_inference
//! ```

use tcrowd::prelude::*;
use tcrowd::tabular::evaluate_with_answers;

const REFIT_EVERY: usize = 100;

fn main() {
    // A ground-truth table and a shuffled stream of crowd answers.
    let data = generate_dataset(
        &GeneratorConfig {
            rows: 40,
            columns: 5,
            answers_per_task: 5,
            num_workers: 25,
            ..Default::default()
        },
        31,
    );

    // The answer log is the collection side; the fit state follows it by
    // absorbing the log's tail.
    let mut answers = AnswerLog::new(data.rows(), data.cols());
    let mut fit = FitState::empty(TCrowd::default_full(), data.schema.clone(), data.rows());
    let mut staleness = 0;

    println!("answers    staleness    error rate    MNAD");
    for (i, &answer) in data.answers.all().iter().enumerate() {
        answers.push(answer);
        fit.catch_up(&answers.slice_since(fit.epoch()));
        staleness += 1;
        let refit = staleness == REFIT_EVERY;
        if refit {
            fit.refit(false);
            staleness = 0;
        }
        if refit || (i + 1) % 250 == 0 {
            let report = evaluate_with_answers(
                &data.schema,
                &data.truth,
                &fit.result().estimates(),
                &answers,
            );
            println!(
                "{:>7}    {:>9}    {:>10.4}    {:.4}{}",
                i + 1,
                staleness,
                report.error_rate.unwrap(),
                report.mnad.unwrap(),
                if refit { "   <- full EM re-fit" } else { "" }
            );
        }
    }

    // Wrap up with one final exact fit.
    fit.refit(false);
    let final_report =
        evaluate_with_answers(&data.schema, &data.truth, &fit.result().estimates(), &answers);
    println!(
        "\nfinal: error rate {:.4}, MNAD {:.4} after {} answers",
        final_report.error_rate.unwrap(),
        final_report.mnad.unwrap(),
        answers.len()
    );
    println!("The estimates stay usable between re-fits at O(1) cost per answer.");
}
