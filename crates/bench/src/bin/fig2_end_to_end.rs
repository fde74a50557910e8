//! Figure 2: end-to-end system comparison — Error Rate / MNAD as a function
//! of the average number of answers per task, for AskIt!, CDAS, CRH, CATD
//! and T-Crowd on the three datasets.
//!
//! Budgets follow the paper: 5 answers/task on Celebrity, 4 on Restaurant,
//! 10 on Emotion. Every system sees the same worker pool and arrival
//! sequence per seed.

use tcrowd_baselines::{Catd, CdasPolicy, Crh, EntropyPolicy, MajorityVoting, RandomPolicy};
use tcrowd_bench::{emit, reps};
use tcrowd_core::{AssignmentPolicy, StructureAwarePolicy, TCrowd};
use tcrowd_sim::{ExperimentConfig, InferenceBackend, Runner, WorkerPool, WorkerPoolConfig};
use tcrowd_tabular::generator::WorkerQualityConfig;
use tcrowd_tabular::tsv::TsvTable;
use tcrowd_tabular::{real_sim, Dataset};

struct SystemSpec {
    label: &'static str,
}

fn dataset_pool_cfg(d: &Dataset) -> WorkerPoolConfig {
    let workers = d.worker_truth.len().max(10);
    let quality = if d.schema.name == "Emotion" {
        WorkerQualityConfig {
            median_phi: 0.35,
            sigma_ln_phi: 0.6,
            spammer_fraction: 0.08,
            spammer_factor: 12.0,
        }
    } else {
        WorkerQualityConfig::default()
    };
    WorkerPoolConfig { num_workers: workers, quality, ..Default::default() }
}

fn budget_for(d: &Dataset) -> f64 {
    match d.schema.name.as_str() {
        "Celebrity" => 5.0,
        "Restaurant" => 4.0,
        "Emotion" => 10.0,
        _ => 5.0,
    }
}

fn main() {
    let reps = reps();
    let systems = [
        SystemSpec { label: "AskIt!" },
        SystemSpec { label: "CDAS" },
        SystemSpec { label: "CRH" },
        SystemSpec { label: "CATD" },
        SystemSpec { label: "T-Crowd" },
    ];

    for make in [real_sim::celebrity, real_sim::restaurant, real_sim::emotion] {
        let name = make(0).schema.name.clone();
        // label -> checkpoint -> (sum_er, sum_mnad, count)
        let mut acc: Vec<std::collections::BTreeMap<i64, (f64, f64, usize)>> =
            vec![Default::default(); systems.len()];
        for seed in 0..reps as u64 {
            let d = make(seed);
            let budget = budget_for(&d);
            let runner = Runner::new(ExperimentConfig {
                budget_avg_answers: budget,
                checkpoint_step: 0.25,
                ..Default::default()
            });
            for (si, sys) in systems.iter().enumerate() {
                let mut pool =
                    WorkerPool::new(&d.schema, &d.truth, dataset_pool_cfg(&d), seed * 31 + 5);
                // Policy and backend per system.
                let mv = MajorityVoting;
                let crh = Crh::default();
                let catd = Catd::default();
                let mut entropy = EntropyPolicy;
                let mut cdas = CdasPolicy::seeded(seed * 7 + 1);
                let mut random_crh = RandomPolicy::seeded(seed * 7 + 2);
                let mut random_catd = RandomPolicy::seeded(seed * 7 + 3);
                let mut sa = StructureAwarePolicy;
                let (policy, backend): (&mut dyn AssignmentPolicy, InferenceBackend<'_>) =
                    match sys.label {
                        "AskIt!" => (&mut entropy, InferenceBackend::Baseline(&mv)),
                        "CDAS" => (&mut cdas, InferenceBackend::Baseline(&mv)),
                        "CRH" => (&mut random_crh, InferenceBackend::Baseline(&crh)),
                        "CATD" => (&mut random_catd, InferenceBackend::Baseline(&catd)),
                        "T-Crowd" => (&mut sa, InferenceBackend::TCrowd(TCrowd::default_full())),
                        _ => unreachable!(),
                    };
                let result = runner.run(sys.label, &mut pool, policy, &backend);
                for p in &result.points {
                    let key = (p.avg_answers * 100.0).round() as i64;
                    let e = acc[si].entry(key).or_insert((0.0, 0.0, 0));
                    e.0 += p.error_rate.unwrap_or(f64::NAN);
                    e.1 += p.mnad.unwrap_or(f64::NAN);
                    e.2 += 1;
                }
                eprintln!("[{name}] seed {seed} {} done", sys.label);
            }
        }

        let mut table = TsvTable::new(&["system", "avg_answers", "error_rate", "mnad"]);
        for (si, sys) in systems.iter().enumerate() {
            for (key, (er, mnad, n)) in &acc[si] {
                table.push_row(vec![
                    sys.label.to_string(),
                    format!("{:.2}", *key as f64 / 100.0),
                    format!("{:.6}", er / *n as f64),
                    format!("{:.6}", mnad / *n as f64),
                ]);
            }
        }
        emit(
            &table,
            &format!("fig2_{}.tsv", name.to_lowercase()),
            &format!("Figure 2 ({name}): end-to-end comparison, {reps} seed(s)"),
        );
    }
    println!("\nPaper shape to check: T-Crowd converges to low Error Rate/MNAD by ~3");
    println!("answers/task (6 on Emotion); AskIt! drops MNAD early but error rate late;");
    println!("CDAS converges slowly; CRH/CATD sit between.");
}
