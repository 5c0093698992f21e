//! Golden answers for every [`loopmem::Session`] verb.
//!
//! `Session` is the only execution path. Before it was, each verb had an
//! ungoverned twin and a `try_*` / `*_with_threads` wrapper, and these
//! tests asserted bit-identical results between them. The answers those
//! entry points gave were recorded as golden files under
//! `tests/golden/session/` (one per test, named after it), so every value
//! they pinned is still pinned: each test now checks the `Session` answer
//! against its file at every thread count it used to sweep.
//!
//! Regenerate after an intentional change of answers with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test session_equivalence
//! ```

use loopmem::core::{SearchMode, DEFAULT_MAX_ITERATIONS};
use loopmem::ir::{parse, parse_program, ArrayId, LoopNest, Program};
use loopmem::sim::{AnalysisBudget, ArrayStats, GovernedProgramSim, ProgramSimResult, SimResult};
use loopmem::Session;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn example8() -> LoopNest {
    parse(
        "array X[200]\n\
         for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
    )
    .unwrap()
}

fn three_nest_program() -> Program {
    parse_program(
        "array A[24][24]\narray X[200]\n\
         for i = 2 to 24 { for j = 1 to 24 { A[i][j] = A[i-1][j] + A[i][j]; } }\n\
         for i = 1 to 24 { for j = i to 24 { A[i][j] = A[j][i]; } }\n\
         for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
    )
    .unwrap()
}

fn fusion_program() -> Program {
    parse_program(
        "array A[8][8]\narray B[8][8]\narray C[8][8]\n\
         for i = 1 to 8 { for j = 1 to 8 { A[i][j] = B[i][j]; } }\n\
         for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i][j] + A[i][j]; } }",
    )
    .unwrap()
}

fn budget() -> AnalysisBudget {
    AnalysisBudget::unlimited().with_max_iterations(1_000_000)
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/session")
        .join(format!("{name}.txt"))
}

/// Compares `actual` with the golden file `name`, or rewrites the file
/// under `UPDATE_GOLDEN`.
fn golden(name: &str, actual: &str) {
    let path = golden_path(name);
    let actual = format!("{actual}\n");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; run with UPDATE_GOLDEN=1", path.display()));
    assert_eq!(
        actual,
        expected,
        "golden mismatch for {}; run with UPDATE_GOLDEN=1 after intentional changes",
        path.display()
    );
}

/// `SimResult` holds a `HashMap`, whose `Debug` order is unstable —
/// render a sorted projection instead of the raw `Debug` string.
fn sim_key(sim: &SimResult) -> String {
    let per_array: BTreeMap<ArrayId, ArrayStats> =
        sim.per_array.iter().map(|(k, v)| (*k, v.clone())).collect();
    format!("{:?}", (sim.iterations, sim.mws_total, per_array))
}

/// Same story for `ProgramSimResult::distinct`: sort the per-array map,
/// keep everything else as its (stable) `Debug` rendering.
fn program_sim_key(sim: &ProgramSimResult) -> String {
    let distinct: BTreeMap<ArrayId, u64> = sim.distinct.iter().map(|(k, v)| (*k, *v)).collect();
    format!(
        "{:?} {:?} {:?} {:?} {:?} {:?} {:?}",
        sim.per_nest_iterations,
        sim.mws_total,
        sim.boundary_live,
        sim.peak_nest,
        sim.per_nest_mws,
        sim.live_through,
        distinct
    )
}

fn governed_program_key(gov: &GovernedProgramSim) -> String {
    format!(
        "{:?} {:?}\n{}",
        gov.per_nest,
        gov.mws_bounds,
        program_sim_key(&gov.sim)
    )
}

#[test]
fn wrapper_try_simulate_matches_session() {
    let session = Session::new()
        .budget(budget())
        .simulate(&example8())
        .unwrap();
    golden("wrapper_try_simulate", &sim_key(&session));
}

#[test]
fn wrapper_try_simulate_with_threads_matches_session() {
    for t in [1, 2, 4] {
        let session = Session::new()
            .threads(t)
            .budget(budget())
            .simulate(&example8())
            .unwrap();
        golden("wrapper_try_simulate_with_threads", &sim_key(&session));
    }
}

#[test]
fn ungoverned_simulate_matches_default_session() {
    for t in [1, 2, 4] {
        let session = Session::new().threads(t).simulate(&example8()).unwrap();
        golden("ungoverned_simulate", &sim_key(&session));
    }
}

#[test]
fn wrapper_try_simulate_program_matches_session() {
    let session = Session::new()
        .budget(budget())
        .simulate_program(&three_nest_program())
        .unwrap();
    golden(
        "wrapper_try_simulate_program",
        &governed_program_key(&session),
    );
}

#[test]
fn wrapper_try_simulate_program_with_threads_matches_session() {
    for t in [1, 2, 4] {
        let session = Session::new()
            .threads(t)
            .budget(budget())
            .simulate_program(&three_nest_program())
            .unwrap();
        golden(
            "wrapper_try_simulate_program_with_threads",
            &governed_program_key(&session),
        );
    }
}

#[test]
fn ungoverned_simulate_program_matches_default_session() {
    let session = Session::new()
        .threads(2)
        .simulate_program(&three_nest_program())
        .unwrap();
    assert!(session.all_exact());
    golden(
        "ungoverned_simulate_program",
        &program_sim_key(&session.sim),
    );
}

#[test]
fn wrapper_try_minimize_mws_matches_session() {
    let session = Session::new()
        .budget(budget())
        .optimize(&example8())
        .unwrap();
    golden("wrapper_try_minimize_mws", &format!("{session:?}"));
}

#[test]
fn wrapper_try_minimize_mws_with_threads_matches_session() {
    for t in [1, 2, 4] {
        let session = Session::new()
            .threads(t)
            .budget(budget())
            .optimize(&example8())
            .unwrap();
        golden(
            "wrapper_try_minimize_mws_with_threads",
            &format!("{session:?}"),
        );
    }
}

#[test]
fn ungoverned_minimize_mws_matches_default_session_modulo_memo() {
    let session = Session::new()
        .threads(2)
        .search_mode(SearchMode::default())
        .optimize(&example8())
        .unwrap();
    golden("ungoverned_minimize_mws", &format!("{session:?}"));
}

#[test]
fn wrapper_try_optimize_program_matches_session() {
    let session = Session::new()
        .budget(budget())
        .optimize_program(&three_nest_program())
        .unwrap();
    golden("wrapper_try_optimize_program", &format!("{session:?}"));
}

#[test]
fn wrapper_try_optimize_program_with_threads_matches_session() {
    for t in [1, 2] {
        let session = Session::new()
            .threads(t)
            .budget(budget())
            .optimize_program(&three_nest_program())
            .unwrap();
        golden(
            "wrapper_try_optimize_program_with_threads",
            &format!("{session:?}"),
        );
    }
}

#[test]
fn ungoverned_optimize_program_matches_default_session() {
    let session = Session::new()
        .threads(2)
        .optimize_program(&three_nest_program())
        .unwrap();
    assert!(session.mws_before.is_exact() && session.mws_after.is_exact());
    assert!(session.per_nest.iter().all(Result::is_ok));
    golden("ungoverned_optimize_program", &format!("{session:?}"));
}

#[test]
fn wrapper_try_scratchpad_program_matches_session() {
    let session = Session::new()
        .budget(budget())
        .scratchpad_sizing(&fusion_program())
        .unwrap();
    golden("wrapper_try_scratchpad_program", &format!("{session:?}"));
}

#[test]
fn wrapper_try_scratchpad_program_with_threads_matches_session() {
    for t in [1, 2, 4] {
        let session = Session::new()
            .threads(t)
            .budget(budget())
            .scratchpad_sizing(&fusion_program())
            .unwrap();
        golden(
            "wrapper_try_scratchpad_program_with_threads",
            &format!("{session:?}"),
        );
    }
}

#[test]
fn ungoverned_scratchpad_program_matches_default_session() {
    let session = Session::new()
        .threads(2)
        .scratchpad_sizing(&fusion_program())
        .unwrap();
    assert!(session.all_exact());
    golden(
        "ungoverned_scratchpad_program",
        &format!("{:?}", session.sizing),
    );
}

#[test]
fn wrapper_try_scratchpad_with_fusion_matches_session() {
    for t in [1, 2] {
        let session = Session::new()
            .threads(t)
            .budget(budget())
            .scratchpad(&fusion_program())
            .unwrap();
        golden(
            "wrapper_try_scratchpad_with_fusion",
            &format!("{session:?}"),
        );
    }
}

#[test]
fn ungoverned_scratchpad_with_fusion_matches_default_session() {
    let (_, plan) = Session::new()
        .threads(1)
        .scratchpad(&fusion_program())
        .unwrap();
    let plan = plan.expect("exact baseline runs the fusion search");
    golden("ungoverned_scratchpad_with_fusion", &format!("{plan:?}"));
}

/// The `kernel-verify` program set: the seven Figure-2 kernels, the five
/// extended kernels and every `kernels/*.loop` file, sorted by name.
fn kernel_programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = loopmem_bench::all_kernels()
        .into_iter()
        .chain(loopmem_bench::extended_kernels())
        .map(|k| (k.name.to_string(), parse_program(k.source).unwrap()))
        .collect();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("kernels");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    files.sort();
    for path in files {
        let name = format!("kernels/{}", path.file_name().unwrap().to_string_lossy());
        let program = parse_program(&fs::read_to_string(&path).unwrap()).unwrap();
        out.push((name, program));
    }
    out
}

/// The full per-nest `Optimization` of every `kernel-verify` program under
/// `mode`, one block per nest, under the default iteration cap.
fn kernel_optimizations(mode: SearchMode) -> String {
    let session = Session::new()
        .threads(1)
        .budget(AnalysisBudget::unlimited().with_max_iterations(DEFAULT_MAX_ITERATIONS))
        .search_mode(mode);
    let mut out = String::new();
    for (name, program) in kernel_programs() {
        for (k, nest) in program.nests().iter().enumerate() {
            out.push_str(&format!(
                "== {name} nest {k}\n{:?}\n",
                session.optimize(nest)
            ));
        }
    }
    out
}

#[test]
fn kernel_optimizations_compound() {
    golden(
        "kernel_optimizations_compound",
        &kernel_optimizations(SearchMode::default()),
    );
}

#[test]
fn kernel_optimizations_interchange_reversal() {
    golden(
        "kernel_optimizations_interchange_reversal",
        &kernel_optimizations(SearchMode::InterchangeReversal),
    );
}
