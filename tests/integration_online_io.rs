//! Integration tests for the adoption-path features: TSV interchange I/O and
//! streaming inference, exercised together through the facade crate.

use tcrowd::core::{FitState, TCrowd};
use tcrowd::prelude::*;
use tcrowd::tabular::io;

fn workdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("tcrowd_root_io_tests")
        .join(format!("{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn io_roundtrip_preserves_inference_results() {
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 20,
            columns: 5,
            num_workers: 12,
            answers_per_task: 4,
            ..Default::default()
        },
        77,
    );
    let dir = workdir("roundtrip");
    io::write_schema(&d.schema, dir.join("s.tsv")).unwrap();
    io::write_answers(&d.schema, &d.answers, dir.join("a.tsv")).unwrap();

    let schema = io::read_schema(dir.join("s.tsv")).unwrap();
    let answers = io::read_answers(&schema, d.rows(), dir.join("a.tsv")).unwrap();
    assert_eq!(schema, d.schema);
    assert_eq!(answers.all(), d.answers.all());

    // Identical input must give identical inference output.
    let direct = TCrowd::default_full().infer(&d.schema, &d.answers);
    let roundtripped = TCrowd::default_full().infer(&schema, &answers);
    assert_eq!(direct.estimates(), roundtripped.estimates());
    assert_eq!(direct.iterations, roundtripped.iterations);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_pipeline_from_files() {
    // Read answers from disk, stream them into the online loop one at a
    // time, and verify the final state equals the batch fit.
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 15,
            columns: 4,
            num_workers: 10,
            answers_per_task: 3,
            ..Default::default()
        },
        78,
    );
    let dir = workdir("stream");
    io::write_schema(&d.schema, dir.join("s.tsv")).unwrap();
    io::write_answers(&d.schema, &d.answers, dir.join("a.tsv")).unwrap();
    let schema = io::read_schema(dir.join("s.tsv")).unwrap();
    let answers = io::read_answers(&schema, d.rows(), dir.join("a.tsv")).unwrap();

    let mut log = AnswerLog::new(d.rows(), schema.num_columns());
    let mut online = FitState::empty(TCrowd::default_full(), schema.clone(), d.rows());
    for &a in answers.all() {
        log.push(a);
        online.catch_up(&log.slice_since(online.epoch()));
    }
    online.refit(false);
    let batch = TCrowd::default_full().infer(&schema, &answers);
    assert_eq!(online.result().estimates(), batch.estimates());

    // Streamed estimates must score identically.
    let stream_rep = evaluate(&schema, &d.truth, &online.result().estimates());
    let batch_rep = evaluate(&schema, &d.truth, &batch.estimates());
    assert_eq!(stream_rep.error_rate, batch_rep.error_rate);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn entity_group_worlds_still_infer_well() {
    // The §7 extension: category-level familiarity. T-Crowd has no explicit
    // group model, but its row difficulties and unified quality must still
    // produce usable estimates on such data.
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 60,
            columns: 4,
            num_workers: 20,
            answers_per_task: 5,
            entity_groups: Some(tcrowd::tabular::EntityGroups::default()),
            ..Default::default()
        },
        79,
    );
    let r = TCrowd::default_full().infer(&d.schema, &d.answers);
    assert!(r.converged);
    let rep = evaluate(&d.schema, &d.truth, &r.estimates());
    assert!(rep.error_rate.unwrap() < 0.3, "error {}", rep.error_rate.unwrap());
}
