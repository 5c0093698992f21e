//! Program-level analysis and optimization (multi-nest extension).
//!
//! Each nest is transformed with the §4 search; the program is then
//! re-simulated as a whole, because inter-nest liveness (values crossing a
//! nest boundary) caps what loop reordering alone can achieve — a producer
//!/consumer pair needs fusion, not reordering, to shrink its boundary set.
//! The analysis reports both numbers so the gap is visible.

use crate::optimize::{governed_search, Optimization, SearchMode};
use crate::Session;
use loopmem_ir::{AnalysisError, ArrayId, Bounds, Program};
use loopmem_sim::{try_simulate_program_tracked, AnalysisBudget, BudgetTracker};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Memory analysis of a whole program.
#[derive(Clone, Debug)]
pub struct ProgramAnalysis {
    /// Declared words over all arrays.
    pub default_words: i64,
    /// Exact whole-program MWS.
    pub mws_exact: u64,
    /// Live words at each internal nest boundary.
    pub boundary_live: Vec<u64>,
    /// Distinct elements per array.
    pub distinct: HashMap<ArrayId, u64>,
    /// Which nest hosts the window peak.
    pub peak_nest: usize,
    /// Exact single-nest MWS per nest, read off each nest's own pass-1
    /// tables (no re-simulation).
    pub per_nest_mws: Vec<u64>,
}

/// Analyzes a program's memory behaviour exactly, through `session`'s
/// governed program simulation.
///
/// # Errors
///
/// The whole-program failure of [`Session::simulate_program`], or the
/// first nest that did not simulate exactly. An exhausted budget reports
/// the program-level MWS interval as its payload.
pub fn analyze_program(
    session: &Session,
    program: &Program,
) -> Result<ProgramAnalysis, AnalysisError> {
    let gov = session.simulate_program(program)?;
    if let Some(Err(e)) = gov.per_nest.iter().find(|r| r.is_err()) {
        return Err(match e {
            AnalysisError::Exhausted { reason, .. } => AnalysisError::Exhausted {
                reason: *reason,
                partial: gov.mws_bounds,
            },
            other => other.clone(),
        });
    }
    let sim = gov.sim;
    Ok(ProgramAnalysis {
        default_words: program.default_memory(),
        mws_exact: sim.mws_total,
        boundary_live: sim.boundary_live,
        distinct: sim.distinct,
        peak_nest: sim.peak_nest,
        per_nest_mws: sim.per_nest_mws,
    })
}

// --------------------------------------------------- governed optimizer --

/// Outcome of a governed program optimization: every nest either improved
/// or kept its original form with a typed reason, and the whole-program
/// numbers are bounds that stay honest when some nest degraded.
#[derive(Debug)]
pub struct GovernedProgramOptimization {
    /// The program with every accepted per-nest transformation applied
    /// (nests whose search failed, or whose acceptance check could not be
    /// completed exactly, keep their original form).
    pub transformed: Program,
    /// Whole-program MWS bounds before optimization (a point interval
    /// when the baseline simulation was exact for every nest).
    pub mws_before: Bounds,
    /// Whole-program MWS bounds of `transformed`.
    pub mws_after: Bounds,
    /// Per nest, in program order: `(before, after)` single-nest windows
    /// of its §4 search, or why that nest's search was abandoned.
    pub per_nest: Vec<Result<(u64, u64), AnalysisError>>,
}

/// The program-level optimizer behind
/// [`Session::optimize_program`](crate::Session): runs the whole pipeline
/// — baseline simulation, per-nest §4 searches, greedy accept
/// re-simulations — under one [`BudgetTracker`] (one deadline, one
/// cumulative iteration count, one search-node count).
///
/// The per-nest searches are independent, so they shard across one
/// scoped-thread pool; the greedy accept pass that follows is serial and
/// keeps a per-nest transformation only if the whole program does not
/// regress, so the result is bit-identical for every `threads` value.
/// Per-nest failures are contained: a nest whose search trips the
/// budget, overflows, or panics keeps its original form and reports the
/// typed error in `per_nest` while every other nest completes. A
/// candidate acceptance is taken only when its governed program
/// re-simulation is exact and does not worsen the current upper bound,
/// so `mws_after.upper <= mws_before.upper` always holds. The top-level
/// `Err` is reserved for whole-program failures of the *baseline*
/// simulation (e.g. the global table fold exceeding `max_table_bytes`).
pub(crate) fn governed_optimize_program(
    program: &Program,
    mode: SearchMode,
    threads: usize,
    budget: &AnalysisBudget,
) -> Result<GovernedProgramOptimization, AnalysisError> {
    let tracker = BudgetTracker::new(budget);
    let table_cap = budget.max_table_bytes();
    let baseline = try_simulate_program_tracked(program, threads, &tracker, table_cap)?;
    let mws_before = baseline.mws_bounds;

    let searches = try_optimize_nests_sharded(program, mode, threads, &tracker, budget);

    let mut current = program.clone();
    let mut current_bounds = mws_before;
    let mut per_nest = Vec::with_capacity(program.len());
    for (k, search) in searches.into_iter().enumerate() {
        let opt = match search {
            Ok(o) => o,
            Err(e) => {
                per_nest.push(Err(e));
                continue;
            }
        };
        per_nest.push(Ok((opt.mws_before, opt.mws_after)));
        let Ok(candidate) = current.with_nest(k, opt.transformed) else {
            continue; // transformation changed the array table: reject
        };
        // Keep the per-nest transformation only when the whole program
        // verifiably does not regress: the governed re-simulation must be
        // exact (a degraded candidate cannot be compared) and its MWS must
        // not exceed the current upper bound.
        if let Ok(gov) = try_simulate_program_tracked(&candidate, threads, &tracker, table_cap) {
            if gov.all_exact() && gov.mws_bounds.upper <= current_bounds.upper {
                current = candidate;
                current_bounds = gov.mws_bounds;
            }
        }
    }
    Ok(GovernedProgramOptimization {
        transformed: current,
        mws_before,
        mws_after: current_bounds,
        per_nest,
    })
}

/// Runs the nest-level search for every nest, sharded across `threads`
/// scoped workers pulling nest indices from an atomic queue (each search
/// then evaluates single-threaded, to avoid oversubscribing). Every nest
/// is searched in its *original* form, so the searches are independent
/// and order-free; outputs and failures land in their nest's slot, and
/// every search charges the shared tracker.
fn try_optimize_nests_sharded(
    program: &Program,
    mode: SearchMode,
    threads: usize,
    tracker: &BudgetTracker,
    budget: &AnalysisBudget,
) -> Vec<Result<Optimization, AnalysisError>> {
    let nests = program.nests();
    if nests.len() == 1 {
        return vec![governed_search(
            0, &nests[0], mode, threads, tracker, budget,
        )];
    }
    let workers = threads.max(1).min(nests.len());
    if workers <= 1 {
        return nests
            .iter()
            .enumerate()
            .map(|(k, n)| governed_search(k, n, mode, 1, tracker, budget))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<Optimization, AnalysisError>>>> =
        nests.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= nests.len() {
                    break;
                }
                let r = governed_search(k, &nests[k], mode, 1, tracker, budget);
                *slots[k].lock().expect("slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("every nest searched")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::parse_program;

    fn optimize(program: &Program, threads: usize) -> GovernedProgramOptimization {
        Session::new()
            .threads(threads)
            .optimize_program(program)
            .unwrap()
    }

    #[test]
    fn analysis_reports_boundary_sets() {
        let p = parse_program(
            "array A[8][8]\narray B[8][8]\narray C[8][8]\n\
             for i = 1 to 8 { for j = 1 to 8 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i][j] + A[i][j]; } }",
        )
        .unwrap();
        let a = analyze_program(&Session::new(), &p).unwrap();
        assert_eq!(a.default_words, 192);
        assert_eq!(a.boundary_live, vec![64]);
        assert!(a.mws_exact >= 64);
    }

    #[test]
    fn optimization_never_regresses_the_program() {
        let p = parse_program(
            "array A[24][24]\narray B[24][24]\n\
             for i = 2 to 24 { for j = 1 to 24 { A[i][j] = A[i-1][j] + A[i][j]; } }\n\
             for i = 1 to 24 { for j = 1 to 24 { B[i][j] = B[i][j] + 1; } }",
        )
        .unwrap();
        let o = optimize(&p, 2);
        assert!(
            o.mws_after.upper <= o.mws_before.upper,
            "{} -> {}",
            o.mws_before,
            o.mws_after
        );
        // The stencil nest improves on its own.
        let (before, after) = o.per_nest[0].clone().unwrap();
        assert!(after < before);
    }

    #[test]
    fn sharded_optimize_matches_serial_for_all_thread_counts() {
        // One stencil, one triangular nest, one Example-8-style reuse
        // kernel — exercised at t ∈ {1, 2, 4} against the serial path.
        let p = parse_program(
            "array A[24][24]\narray X[200]\n\
             for i = 2 to 24 { for j = 1 to 24 { A[i][j] = A[i-1][j] + A[i][j]; } }\n\
             for i = 1 to 24 { for j = i to 24 { A[i][j] = A[j][i]; } }\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap();
        let serial = format!("{:?}", optimize(&p, 1));
        for threads in [2, 4] {
            assert_eq!(format!("{:?}", optimize(&p, threads)), serial);
        }
    }

    #[test]
    fn sharded_optimize_keeps_failing_nests_original() {
        // Li–Pingali fails on Example 8 (no legal completion); every nest
        // reports that failure in its slot and keeps its original form.
        let p = parse_program(
            "array X[200]\narray Y[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }\n\
             for i = 1 to 25 { for j = 1 to 10 { Y[2i + 5j + 1] = Y[2i + 5j + 5]; } }",
        )
        .unwrap();
        for threads in [1, 4] {
            let o = Session::new()
                .threads(threads)
                .search_mode(SearchMode::LiPingali)
                .optimize_program(&p)
                .unwrap();
            assert_eq!(o.transformed, p);
            assert!(o
                .per_nest
                .iter()
                .all(|r| matches!(r, Err(AnalysisError::Invalid { .. }))));
        }
    }

    #[test]
    fn analysis_reports_per_nest_mws() {
        let p = parse_program(
            "array A[16][16]\n\
             for i = 2 to 16 { for j = 1 to 16 { A[i][j] = A[i-1][j]; } }\n\
             for i = 1 to 16 { for j = 1 to 16 { A[i][j] = A[i][j] + 1; } }",
        )
        .unwrap();
        let a = analyze_program(&Session::new(), &p).unwrap();
        assert_eq!(a.per_nest_mws.len(), 2);
        assert!((16..=17).contains(&a.per_nest_mws[0]));
        assert_eq!(a.per_nest_mws[1], 0, "single-touch nest has no window");
    }

    #[test]
    fn boundary_liveness_caps_reordering_gains() {
        // Producer/consumer of a whole array: no legal reordering can
        // shrink the 36-word boundary; the optimizer must report that
        // honestly.
        let p = parse_program(
            "array A[6][6]\narray B[6][6]\narray C[6][6]\n\
             for i = 1 to 6 { for j = 1 to 6 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 6 { for j = 1 to 6 { C[i][j] = A[i][j]; } }",
        )
        .unwrap();
        let o = optimize(&p, 2);
        assert!(
            o.mws_after.lower >= 36,
            "boundary set is irreducible by reordering"
        );
    }
}
