//! Shared-scratchpad sizing and the fusion search: legality edges that
//! feed the greedy loop, and governed degradation under budget
//! exhaustion (interval must contain the exact answer, bit-identical for
//! every worker-thread count).

use loopmem_core::{fuse, FusionError, GovernedScratchpad, ScratchpadPlan, Session};
use loopmem_ir::{parse_program, AnalysisError, BoundsMethod, Program};
use loopmem_sim::AnalysisBudget;

mod common;
use common::fusion_plan;

fn sizing(p: &Program, threads: usize, budget: &AnalysisBudget) -> GovernedScratchpad {
    Session::new()
        .threads(threads)
        .budget(budget.clone())
        .scratchpad_sizing(p)
        .unwrap()
}

fn with_fusion(
    p: &Program,
    budget: &AnalysisBudget,
) -> (GovernedScratchpad, Option<ScratchpadPlan>) {
    Session::new()
        .threads(1)
        .budget(budget.clone())
        .scratchpad(p)
        .unwrap()
}

fn pc(src: &str) -> Program {
    parse_program(src).unwrap()
}

#[test]
fn non_conformable_ranges_leave_the_program_unfused() {
    // Same array, different ranges: fuse must refuse, and the search must
    // fall through to the unfused sizing without error.
    let p = pc("array A[8]\n\
         for i = 1 to 8 { A[i] = A[i] + 1; }\n\
         for i = 1 to 4 { A[i] = A[i] + 1; }");
    assert_eq!(fuse(&p, 0).unwrap_err(), FusionError::NotConformable);
    let plan = fusion_plan(&p);
    assert!(plan.steps.is_empty());
    assert_eq!(plan.fused, plan.unfused);
    assert_eq!(plan.groups, vec![vec![0], vec![1]]);
    assert_eq!(plan.program.len(), 2);
}

#[test]
fn write_write_flip_prevents_fusion() {
    // Nest 2 rewrites A in reverse: element A[k] is written at iteration
    // k of nest 1 and at the earlier iteration 9-k of nest 2 for k >= 5 —
    // fusing would flip that write-write pair.
    let p = pc("array A[8]\n\
         for i = 1 to 8 { A[i] = A[i] + 1; }\n\
         for i = 1 to 8 { A[9 - i] = A[9 - i] + 1; }");
    assert!(matches!(
        fuse(&p, 0).unwrap_err(),
        FusionError::FusionPreventingDependence { .. }
    ));
    let plan = fusion_plan(&p);
    assert!(plan.steps.is_empty());
    assert_eq!(plan.program.len(), 2);
}

#[test]
fn chain_of_three_fuses_greedily_to_one_nest() {
    // A -> C -> D pipeline: each adjacent pair is fusable, and each
    // accepted fusion re-exposes the next one at boundary 0. Two steps,
    // one surviving nest, strictly decreasing sizes.
    let p = pc(
        "array A[8][8]\narray B[8][8]\narray C[8][8]\narray D[8][8]\n\
         for i = 1 to 8 { for j = 1 to 8 { A[i][j] = B[i][j]; } }\n\
         for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i][j]; } }\n\
         for i = 1 to 8 { for j = 1 to 8 { D[i][j] = C[i][j]; } }",
    );
    let plan = fusion_plan(&p);
    // The middle nest pays for both boundaries before fusion.
    assert_eq!(plan.unfused.per_nest[1].live_through, 128);
    assert_eq!(plan.unfused.words, 128);
    assert_eq!(plan.steps.len(), 2);
    assert_eq!(plan.steps[0].at, 0);
    assert_eq!(plan.steps[1].at, 0, "rescan refused boundary 0 again");
    assert!(plan.steps[0].words_after < plan.steps[0].words_before);
    assert!(plan.steps[1].words_after < plan.steps[1].words_before);
    assert_eq!(plan.groups, vec![vec![0, 1, 2]]);
    assert_eq!(plan.program.len(), 1);
    assert!(plan.fused.words < plan.unfused.words);
}

#[test]
fn legal_but_harmful_fusion_is_rejected() {
    // Two independent stencils over disjoint arrays: fusion is
    // conformable and dependence-free, but merging the two working sets
    // into one window grows the scratchpad — the strict-decrease test
    // must reject it.
    let p = pc("array A[16][16]\narray B[16][16]\n\
         for i = 2 to 16 { for j = 1 to 16 { A[i][j] = A[i-1][j] + A[i][j]; } }\n\
         for i = 2 to 16 { for j = 1 to 16 { B[i][j] = B[i-1][j] + B[i][j]; } }");
    let fused = fuse(&p, 0).expect("fusion is legal");
    assert!(
        sizing(&fused, 1, &AnalysisBudget::unlimited()).sizing.words
            > sizing(&p, 1, &AnalysisBudget::unlimited()).sizing.words,
        "precondition: fusing these nests must inflate the window"
    );
    let plan = fusion_plan(&p);
    assert!(plan.steps.is_empty());
    assert_eq!(plan.fused, plan.unfused);
    assert_eq!(plan.program.len(), 2);
}

#[test]
fn exhausted_budget_yields_partial_program_interval_containing_exact() {
    // `with_max_iterations(0)` trips every nest at its first budget
    // charge — deterministically, for any worker count. The degraded
    // interval must contain the ungoverned exact sizing.
    let p = pc("array A[8][8]\narray B[8][8]\narray C[8][8]\n\
         for i = 1 to 8 { for j = 1 to 8 { A[i][j] = B[i][j]; } }\n\
         for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i][j] + A[i][j]; } }");
    let exact = sizing(&p, 1, &AnalysisBudget::unlimited()).sizing;
    let budget = AnalysisBudget::unlimited().with_max_iterations(0);
    let one = sizing(&p, 1, &budget);
    assert!(!one.all_exact());
    assert_eq!(one.words.method, BoundsMethod::PartialProgram);
    assert!(
        one.words.contains(exact.words),
        "exact {} outside [{}, {}]",
        exact.words,
        one.words.lower,
        one.words.upper
    );
    assert_eq!(one.words.slack(), one.words.upper - one.words.lower);
    for t in [2, 4] {
        let par = sizing(&p, t, &budget);
        assert_eq!(par.words, one.words, "t={t} interval differs");
        assert_eq!(par.sizing, one.sizing, "t={t} subset sizing differs");
        assert_eq!(par.per_nest, one.per_nest, "t={t} per-nest outcomes differ");
    }
}

#[test]
fn mid_program_failure_keeps_subset_boundary_live() {
    // Nest 1 panics (contained); nests 0 and 2 share A, so the subset
    // sizing still sees the real boundary traffic — and the interval is
    // bit-identical for every worker count.
    let p = pc("array A[10]\narray B[10]\n\
         for i = 1 to 3 { A[i]; }\n\
         for i = 800 to 900 { for j = i + 9223372036854775000 to 9223372036854775807 { B[1]; } }\n\
         for i = 1 to 3 { A[i]; }");
    let one = sizing(&p, 1, &AnalysisBudget::unlimited());
    assert!(!one.all_exact());
    assert!(matches!(
        one.per_nest[1],
        Err(AnalysisError::NestPanicked { nest: 1, .. })
    ));
    assert_eq!(one.sizing.boundary_live, vec![3, 3]);
    assert_eq!(one.sizing.per_nest[0].live_through, 3);
    assert_eq!(one.sizing.per_nest[2].live_through, 3);
    assert_eq!(one.words.lower, 3);
    assert_eq!(one.words.method, BoundsMethod::PartialProgram);
    for t in [2, 4] {
        let par = sizing(&p, t, &AnalysisBudget::unlimited());
        assert_eq!(par.words, one.words);
        assert_eq!(par.sizing, one.sizing);
        assert_eq!(par.per_nest, one.per_nest);
    }
}

#[test]
fn degraded_baseline_skips_the_fusion_search() {
    let p = pc("array A[8]\n\
         for i = 1 to 8 { A[i] = A[i] + 1; }\n\
         for i = 1 to 8 { A[i] = A[i] + 2; }");
    let budget = AnalysisBudget::unlimited().with_max_iterations(0);
    let (gov, plan) = with_fusion(&p, &budget);
    assert!(!gov.all_exact());
    assert!(plan.is_none(), "no fusion search on a degraded baseline");
    // With the budget lifted the same call fuses.
    let (gov, plan) = with_fusion(&p, &AnalysisBudget::unlimited());
    assert!(gov.all_exact());
    let plan = plan.expect("exact baseline runs the search");
    assert_eq!(plan.steps.len(), 1);
    assert!(plan.fused.words < plan.unfused.words);
}

#[test]
fn governed_auto_thread_entry_matches_pinned() {
    let p = pc("array A[6][6]\narray B[6][6]\n\
         for i = 1 to 6 { for j = 1 to 6 { A[i][j] = B[i][j]; } }\n\
         for i = 1 to 6 { for j = 1 to 6 { B[i][j] = A[i][j]; } }");
    let auto = Session::new().scratchpad_sizing(&p).unwrap();
    let pinned = sizing(&p, 1, &AnalysisBudget::unlimited());
    assert_eq!(auto.words, pinned.words);
    assert_eq!(auto.sizing, pinned.sizing);
}
