//! Shared drivers for the integration tests: exact runs of small inputs,
//! each through a default [`Session`] (unlimited budget).
#![allow(dead_code)]

use loopmem_core::{try_branch_and_bound, BnbResult, Optimization, ScratchpadPlan, Session};
use loopmem_dep::DependenceSet;
use loopmem_ir::{LoopNest, Program};
use loopmem_sim::{AnalysisBudget, SimResult};

/// Exact simulation of a nest known to fit.
pub fn exact_sim(nest: &LoopNest) -> SimResult {
    Session::new().simulate(nest).expect("test nest simulates")
}

/// The default-mode §4 search on a nest known to fit.
pub fn minimize(nest: &LoopNest) -> Optimization {
    Session::new().optimize(nest).expect("search succeeds")
}

/// The cone branch and bound, unbudgeted.
pub fn unbudgeted_bnb(
    alpha: (i64, i64),
    deps: &DependenceSet,
    extents: (i64, i64),
    bound: i64,
) -> Option<BnbResult> {
    try_branch_and_bound(alpha, deps, extents, bound, &AnalysisBudget::unlimited())
        .expect("an unlimited budget never trips")
}

/// The fusion search's plan for a program that sizes exactly.
pub fn fusion_plan(program: &Program) -> ScratchpadPlan {
    let (_, plan) = Session::new()
        .threads(1)
        .scratchpad(program)
        .expect("test program sizes");
    plan.expect("exact baseline runs the fusion search")
}
