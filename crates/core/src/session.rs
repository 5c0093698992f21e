//! The one way in: a builder carrying every cross-cutting concern —
//! worker threads, analysis budget, fault injection, trace sink,
//! certificate emission — into every analysis the workspace runs.
//!
//! There is a single execution path. Each verb materializes the session's
//! budget into one [`BudgetTracker`] and drives the engines'
//! tracker-taking entry points with it, so every answer is governed:
//! nothing panics, and a tripped budget degrades to checkable bounds
//! instead of hanging or overflowing. A [`Session`] is built once and
//! reused across calls; the facade's `session_equivalence` tests pin each
//! verb's answers against recorded goldens.
//!
//! ```
//! use loopmem_core::Session;
//! use loopmem_sim::AnalysisBudget;
//!
//! let nest = loopmem_ir::parse(r#"
//!     array X[200]
//!     for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }
//! "#).unwrap();
//!
//! let session = Session::new()
//!     .threads(2)
//!     .budget(AnalysisBudget::unlimited().with_max_iterations(100_000));
//! let sim = session.simulate(&nest).unwrap();
//! let opt = session.optimize(&nest).unwrap();
//! assert_eq!(opt.mws_before, sim.mws_total);
//! assert!(opt.mws_after <= opt.mws_before);
//! ```

use crate::optimize::{governed_search, Optimization, SearchMode};
use crate::program_opt::{governed_optimize_program, GovernedProgramOptimization};
use crate::scratchpad::{
    fusion_search, fusion_step_events, sizing_tracked, GovernedScratchpad, ScratchpadPlan,
};
use loopmem_ir::{AnalysisError, Bounds, LoopNest, Program};
use loopmem_obs::TraceSink;
use loopmem_sim::{
    try_simulate_program_tracked, try_simulate_tracked, AnalysisBudget, BudgetTracker, FaultPlan,
    GovernedProgramSim, SimResult,
};
use loopmem_verify::Certificate;
use std::sync::Arc;

/// The iteration cap of a default-budgeted run: the `loopmem` CLI applies
/// it to every subcommand unless `--max-iters` or `--timeout-ms` says
/// otherwise. An iteration cap rather than a timeout, so whether a run
/// answers exactly or degrades to bounds is machine-independent.
pub const DEFAULT_MAX_ITERATIONS: u64 = 2_000_000;

/// A reusable, cloneable bundle of analysis configuration: thread count,
/// budget (with optional fault plan and trace sink), search mode, window
/// profile, and certificate emission. See the [module docs](self) for the
/// rationale and an example.
///
/// Every method is governed: it respects the configured
/// [`AnalysisBudget`], never panics, and returns typed results. The
/// default session (`Session::new()`) carries an unlimited budget; cap it
/// with [`budget`](Session::budget) (e.g. at [`DEFAULT_MAX_ITERATIONS`])
/// when the input is untrusted.
#[derive(Clone, Debug, Default)]
pub struct Session {
    threads: Option<usize>,
    budget: AnalysisBudget,
    mode: SearchMode,
    profile: bool,
    certify: bool,
}

impl Session {
    /// A session with auto thread count, unlimited budget, the default
    /// compound search mode, and certification off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the worker-thread count (clamped to at least 1). Every result
    /// is bit-identical for every thread count; unset means
    /// [`loopmem_sim::thread_count`].
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Replaces the whole analysis budget (including any fault plan or
    /// trace sink set earlier — set those after the budget).
    pub fn budget(mut self, budget: AnalysisBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Injects a deterministic fault plan into the budget (see
    /// [`FaultPlan`]).
    pub fn fault_plan(self, plan: Arc<FaultPlan>) -> Self {
        Self {
            budget: self.budget.with_fault_plan(plan),
            ..self
        }
    }

    /// Attaches a trace sink; every governed call narrates its phases,
    /// polls, chunk commits, prunes, faults, sizing terms and fusion
    /// steps into it. A disabled sink (e.g.
    /// [`loopmem_obs::NullSink`]) keeps the zero-cost fast paths.
    pub fn trace(self, sink: Arc<dyn TraceSink>) -> Self {
        Self {
            budget: self.budget.with_trace(sink),
            ..self
        }
    }

    /// Selects the transformation search mode used by [`optimize`]
    /// (`Session::optimize`) and [`optimize_program`]
    /// (`Session::optimize_program`).
    pub fn search_mode(mut self, mode: SearchMode) -> Self {
        self.mode = mode;
        self
    }

    /// When on, [`simulate`](Session::simulate) also records the
    /// per-iteration window profile ([`SimResult::profile`]; one `u64`
    /// per iteration).
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// When on *and* a trace sink is attached, every answer additionally
    /// emits its proof-carrying certificates (see [`crate::cert`]) as
    /// `certificate` trace events. To obtain certificate payloads for the
    /// independent checker, call the `certify_*` functions directly.
    pub fn certify(mut self, on: bool) -> Self {
        self.certify = on;
        self
    }

    /// The session's budget, exactly as the governed calls consume it.
    pub fn analysis_budget(&self) -> &AnalysisBudget {
        &self.budget
    }

    fn thread_count(&self) -> usize {
        self.threads.unwrap_or_else(loopmem_sim::thread_count)
    }

    fn wants_certs(&self) -> bool {
        self.certify && self.budget.trace().is_some()
    }

    fn emit_certs(&self, certs: &[Certificate]) {
        if let Some(sink) = self.budget.trace() {
            crate::cert::trace_certificates(sink, certs);
        }
    }

    /// Governed exact simulation of one nest. Results are bit-identical
    /// for every thread count.
    ///
    /// # Errors
    ///
    /// A budget trip degrades to [`AnalysisError::Exhausted`] with
    /// salvaged or analytic bounds; arithmetic overflow surfaces as
    /// [`AnalysisError::Overflow`] and contained panics as
    /// [`AnalysisError::NestPanicked`].
    pub fn simulate(&self, nest: &LoopNest) -> Result<SimResult, AnalysisError> {
        let tracker = BudgetTracker::new(&self.budget);
        let sim = try_simulate_tracked(
            nest,
            self.profile,
            self.thread_count(),
            &tracker,
            self.budget.max_table_bytes(),
            true,
        )?;
        if self.wants_certs() {
            let bounds = Bounds::exact(sim.mws_total);
            self.emit_certs(&[crate::cert::certify_bounds(
                Some(0),
                "nest-mws",
                &bounds,
                "exact simulation",
            )]);
        }
        Ok(sim)
    }

    /// Governed whole-program simulation. Per-nest failures degrade
    /// inside the result; see [`GovernedProgramSim`].
    ///
    /// # Errors
    ///
    /// Whole-program failures only (e.g. the global table fold exceeding
    /// the budget's table cap).
    pub fn simulate_program(&self, program: &Program) -> Result<GovernedProgramSim, AnalysisError> {
        let tracker = BudgetTracker::new(&self.budget);
        try_simulate_program_tracked(
            program,
            self.thread_count(),
            &tracker,
            self.budget.max_table_bytes(),
        )
    }

    /// Governed §4 transformation search on one nest: the exact MWS of
    /// the original nest and of the best legal, tileable unimodular
    /// transformation in the session's [`SearchMode`].
    ///
    /// # Errors
    ///
    /// A budget trip degrades to [`AnalysisError::Exhausted`] carrying
    /// the original nest's analytical bounds; an empty candidate space
    /// reports [`AnalysisError::Invalid`]. See
    /// [`crate::optimize`] for the search.
    pub fn optimize(&self, nest: &LoopNest) -> Result<Optimization, AnalysisError> {
        let tracker = BudgetTracker::new(&self.budget);
        let opt = governed_search(
            0,
            nest,
            self.mode,
            self.thread_count(),
            &tracker,
            &self.budget,
        )?;
        if self.wants_certs() {
            self.emit_certs(&crate::cert::certify_optimization(0, nest, &opt));
        }
        Ok(opt)
    }

    /// Governed program-wide optimization: the §4 search on every nest,
    /// each transformation kept only when the whole program does not
    /// regress. Per-nest failures keep that nest's original form.
    ///
    /// # Errors
    ///
    /// Whole-program failures of the baseline simulation only.
    pub fn optimize_program(
        &self,
        program: &Program,
    ) -> Result<GovernedProgramOptimization, AnalysisError> {
        governed_optimize_program(program, self.mode, self.thread_count(), &self.budget)
    }

    /// Governed shared-scratchpad sizing without the fusion search.
    ///
    /// # Errors
    ///
    /// Only whole-program failures of the underlying simulation (e.g. the
    /// global table fold exceeding the budget's table cap); per-nest
    /// failures degrade to the size interval instead.
    pub fn scratchpad_sizing(
        &self,
        program: &Program,
    ) -> Result<GovernedScratchpad, AnalysisError> {
        self.sizing_with(program, &BudgetTracker::new(&self.budget))
    }

    fn sizing_with(
        &self,
        program: &Program,
        tracker: &BudgetTracker,
    ) -> Result<GovernedScratchpad, AnalysisError> {
        let governed = sizing_tracked(
            program,
            self.thread_count(),
            tracker,
            self.budget.max_table_bytes(),
        )?;
        if self.wants_certs() {
            self.emit_certs(&crate::cert::certify_governed_scratchpad(&governed));
        }
        Ok(governed)
    }

    /// Governed scratchpad sizing plus the greedy fusion search. The
    /// search runs only when the baseline sizing is exact; on a degraded
    /// baseline the plan is `None` and the interval stands alone. Every
    /// candidate re-sizing is charged to the same budget as the baseline,
    /// and the first candidate the budget cannot size exactly ends the
    /// search with the steps accepted so far.
    ///
    /// # Errors
    ///
    /// See [`scratchpad_sizing`](Session::scratchpad_sizing).
    pub fn scratchpad(
        &self,
        program: &Program,
    ) -> Result<(GovernedScratchpad, Option<ScratchpadPlan>), AnalysisError> {
        let tracker = BudgetTracker::new(&self.budget);
        let baseline = self.sizing_with(program, &tracker)?;
        let plan = baseline.all_exact().then(|| {
            fusion_search(
                program,
                baseline.sizing.clone(),
                self.thread_count(),
                &tracker.untraced(),
                self.budget.max_table_bytes(),
            )
        });
        if let (Some(sink), Some(plan)) = (self.budget.trace(), plan.as_ref()) {
            sink.record_all(fusion_step_events(&plan.steps));
        }
        if self.wants_certs() {
            if let Some(plan) = plan.as_ref() {
                self.emit_certs(&[crate::cert::certify_fusion(plan)]);
            }
        }
        Ok((baseline, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::{parse, parse_program};
    use loopmem_obs::CollectingSink;

    const EXAMPLE8: &str = "array X[200]\n\
        for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }";

    #[test]
    fn default_session_simulates_exactly() {
        let nest = parse(EXAMPLE8).unwrap();
        let sim = Session::new().simulate(&nest).unwrap();
        assert_eq!(sim.mws_total, 44);
    }

    #[test]
    fn certify_with_trace_emits_certificate_events() {
        let nest = parse(EXAMPLE8).unwrap();
        let sink = Arc::new(CollectingSink::new());
        let session = Session::new()
            .threads(1)
            .budget(AnalysisBudget::unlimited().with_max_iterations(100_000))
            .trace(sink.clone())
            .certify(true);
        session.optimize(&nest).unwrap();
        let report = sink.drain();
        assert!(
            report.counters.certificates >= 3,
            "optimization certifies legality + optimality + bounds, got {}",
            report.counters.certificates
        );
    }

    #[test]
    fn certify_without_sink_is_inert() {
        let nest = parse(EXAMPLE8).unwrap();
        let with = Session::new().certify(true).optimize(&nest).unwrap();
        let without = Session::new().optimize(&nest).unwrap();
        assert_eq!(with.transform, without.transform);
        assert_eq!(with.mws_after, without.mws_after);
    }

    #[test]
    fn session_scratchpad_matches_fusion_search() {
        let program = parse_program(
            "array A[8][8]\narray B[8][8]\narray C[8][8]\n\
             for i = 1 to 8 { for j = 1 to 8 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i][j] + A[i][j]; } }",
        )
        .unwrap();
        let (baseline, plan) = Session::new().threads(1).scratchpad(&program).unwrap();
        assert!(baseline.all_exact());
        let plan = plan.expect("exact baseline runs the fusion search");
        assert!(plan.fused.words < plan.unfused.words);
    }
}
