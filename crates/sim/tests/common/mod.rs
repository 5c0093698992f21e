//! Shared drivers for the integration tests: each materializes one
//! budget into one tracker and calls the engine's tracker-taking entry
//! point, exactly as `loopmem::Session` does.
#![allow(dead_code)]

use loopmem_ir::{AnalysisError, LoopNest, Program};
use loopmem_sim::{
    try_simulate_program_tracked, try_simulate_tracked, AnalysisBudget, BudgetTracker,
    GovernedProgramSim, ProgramSimResult, SimResult,
};

/// Governed single-nest simulation under `budget`.
pub fn governed(
    nest: &LoopNest,
    want_profile: bool,
    threads: usize,
    budget: &AnalysisBudget,
) -> Result<SimResult, AnalysisError> {
    let tracker = BudgetTracker::new(budget);
    try_simulate_tracked(
        nest,
        want_profile,
        threads,
        &tracker,
        budget.max_table_bytes(),
        true,
    )
}

/// Exact single-nest simulation of a nest known to fit.
pub fn exact(nest: &LoopNest, want_profile: bool, threads: usize) -> SimResult {
    governed(nest, want_profile, threads, &AnalysisBudget::unlimited())
        .expect("test nest simulates exactly")
}

/// Governed whole-program simulation under `budget`.
pub fn governed_program(
    program: &Program,
    threads: usize,
    budget: &AnalysisBudget,
) -> Result<GovernedProgramSim, AnalysisError> {
    let tracker = BudgetTracker::new(budget);
    try_simulate_program_tracked(program, threads, &tracker, budget.max_table_bytes())
}

/// Exact whole-program simulation of a program known to fit.
pub fn exact_program(program: &Program, threads: usize) -> ProgramSimResult {
    let gov = governed_program(program, threads, &AnalysisBudget::unlimited())
        .expect("test program fits the fold");
    assert!(gov.all_exact(), "test program simulates exactly");
    gov.sim
}
