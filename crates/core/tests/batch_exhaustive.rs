//! Validates the §5.3 batched-assignment claim: because per-cell gains are
//! additive across distinct cells (Eq. 9 decomposes), the greedy top-K
//! selection equals the exhaustively-optimal K-subset.

use tcrowd_core::gain::gain_with_params;
use tcrowd_core::{AssignmentContext, AssignmentPolicy, InherentGainPolicy, TCrowd};
use tcrowd_tabular::{generate_dataset, CellId, GeneratorConfig, WorkerId};

/// Enumerate all K-subsets of `items` (tiny instances only).
fn k_subsets(items: &[CellId], k: usize) -> Vec<Vec<CellId>> {
    fn rec(
        items: &[CellId],
        k: usize,
        start: usize,
        cur: &mut Vec<CellId>,
        out: &mut Vec<Vec<CellId>>,
    ) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..items.len() {
            cur.push(items[i]);
            rec(items, k, i + 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(items, k, 0, &mut Vec::new(), &mut out);
    out
}

#[test]
fn top_k_equals_exhaustive_optimum() {
    let d = generate_dataset(
        &GeneratorConfig {
            rows: 4,
            columns: 3,
            num_workers: 8,
            answers_per_task: 2,
            ..Default::default()
        },
        13,
    );
    let inference = TCrowd::default_full().infer(&d.schema, &d.answers);
    let m = d.answers.to_matrix();
    let ctx = AssignmentContext {
        schema: &d.schema,
        answers: &m,
        freeze: m.freeze_view(),
        inference: Some(&inference),
        max_answers_per_cell: None,
        terminated: None,
        correlation: None,
    };
    let worker = WorkerId(777);
    let candidates = ctx.candidates(worker);
    assert_eq!(candidates.len(), 12);

    let gain_of = |c: CellId| {
        let v = inference.effective_variance(worker, c);
        let q = inference.cell_quality(worker, c);
        gain_with_params(inference.truth_z(c), v, q)
    };

    for k in [1usize, 2, 3, 5] {
        // Exhaustive optimum of the additive batch objective (Eq. 9).
        let mut best_total = f64::NEG_INFINITY;
        let mut best_set: Vec<CellId> = Vec::new();
        for subset in k_subsets(&candidates, k) {
            let total: f64 = subset.iter().map(|&c| gain_of(c)).sum();
            if total > best_total {
                best_total = total;
                best_set = subset;
            }
        }
        // Greedy top-K from the policy.
        let mut policy = InherentGainPolicy;
        let picked = policy.select(worker, k, &ctx);
        let picked_total: f64 = picked.iter().map(|&c| gain_of(c)).sum();
        assert!(
            (picked_total - best_total).abs() < 1e-9,
            "k={k}: greedy total {picked_total} vs exhaustive {best_total} ({best_set:?})"
        );
    }
}
