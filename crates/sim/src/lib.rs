#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Execution simulator for loop nests: the reproduction's ground truth.
//!
//! The paper's estimates (distinct accesses, maximum window size) are
//! closed-form; the authors validate them against the real codes. We have
//! no embedded board, so this crate *executes* nests faithfully instead:
//!
//! * [`exec`] — lexicographic interpretation of (possibly transformed)
//!   nests, evaluating max/min/ceil/floor bounds exactly;
//! * [`window`] — exact reference-window tracking (§2.3): for every
//!   iteration `I`, the set of elements touched at or before `I` that are
//!   touched again after `I`; its maximum cardinality is the exact MWS and
//!   equals the minimum on-chip buffer that captures all reuse;
//! * [`memory`] — a synthetic scratchpad capacity/energy/area/latency
//!   model (CACTI-shaped, documented in DESIGN.md) quantifying the §1
//!   motivation: smaller working sets ⇒ smaller memories ⇒ less energy.
//!
//! Every simulation is governed: it charges a [`BudgetTracker`]
//! materialized from an [`AnalysisBudget`], never panics, and degrades to
//! analytical bounds when the budget trips. The engine has exactly two
//! entry points, one per nest ([`try_simulate_tracked`]) and one per
//! program ([`try_simulate_program_tracked`]). Applications reach them
//! through `loopmem::Session` (defined in `loopmem-core`, which this crate
//! cannot depend on), which owns the budget, thread count and trace sink.
//!
//! # Example
//!
//! Example 8's exact window behaviour:
//!
//! ```
//! use loopmem_sim::{try_simulate_tracked, AnalysisBudget, BudgetTracker};
//!
//! let nest = loopmem_ir::parse(r#"
//!     array X[200]
//!     for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }
//! "#).unwrap();
//! let budget = AnalysisBudget::unlimited().with_max_iterations(2_000_000);
//! let tracker = BudgetTracker::new(&budget);
//! let stats = try_simulate_tracked(&nest, false, 1, &tracker, None, true).unwrap();
//! assert_eq!(stats.mws_total, 44); // the closed form estimates 50
//! ```

pub mod budget;
pub mod dense;
pub mod exec;
pub mod faults;
pub mod layout;
pub mod memory;
pub mod program;
pub mod replacement;
pub mod reuse_distance;
pub mod window;

pub use budget::{
    analytic_nest_bounds, analytic_program_bounds, panic_message, AnalysisBudget, BudgetTracker,
    CancelToken,
};
pub use dense::{bench_pass1, bench_pass1_interleaved, thread_count};
pub use exec::{
    count_iterations, for_each_iteration, for_each_iteration_outer, outer_range,
    try_for_each_inner_run, try_for_each_iteration_outer,
};
pub use faults::{FaultKind, FaultPlan, INJECTED_PANIC};
pub use layout::{line_analysis, AddressMap, Layout, LineStats};
pub use memory::{MemoryReport, ScratchpadModel};
pub use program::{try_simulate_program_tracked, GovernedProgramSim, ProgramSimResult};
pub use replacement::{min_perfect_capacity, miss_curve, misses, Policy, Trace};
pub use reuse_distance::ReuseHistogram;
pub use window::{
    oracle_simulate, simulate_hashmap, simulate_hashmap_with_profile, try_simulate_tracked,
    ArrayStats, SimResult,
};
