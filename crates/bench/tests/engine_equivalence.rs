//! Differential tests: the dense-event simulator engine must agree with
//! the legacy hashmap engine on every paper kernel, for every thread
//! count, and the parallel optimizer must match its serial path exactly.

use loopmem_bench::all_kernels;
use loopmem_core::{Optimization, Session};
use loopmem_ir::{parse, AnalysisError, LoopNest};
use loopmem_sim::{simulate_hashmap_with_profile, SimResult};

fn simulate_pinned(nest: &LoopNest, threads: usize) -> SimResult {
    Session::new()
        .threads(threads)
        .profile(true)
        .simulate(nest)
        .expect("kernels simulate exactly")
}

fn search_pinned(nest: &LoopNest, threads: usize) -> Result<Optimization, AnalysisError> {
    Session::new().threads(threads).optimize(nest)
}

fn assert_same(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.mws_total, b.mws_total, "{what}: mws_total");
    assert_eq!(a.per_array, b.per_array, "{what}: per_array");
    assert_eq!(a.profile, b.profile, "{what}: profile");
}

#[test]
fn dense_engine_matches_hashmap_on_every_kernel() {
    for k in all_kernels() {
        let nest = k.nest();
        let legacy = simulate_hashmap_with_profile(&nest);
        let dense = simulate_pinned(&nest, 1);
        assert_same(&dense, &legacy, k.name);
    }
}

#[test]
fn thread_count_is_invisible_on_every_kernel() {
    for k in all_kernels() {
        let nest = k.nest();
        let one = simulate_pinned(&nest, 1);
        for threads in [2, 3, 4, 8] {
            let n = simulate_pinned(&nest, threads);
            assert_same(&n, &one, &format!("{} x{}", k.name, threads));
        }
    }
}

/// Paper Examples 7–10 as DSL text.
fn paper_examples() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "example7",
            "array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }",
        ),
        (
            "example8",
            "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        ),
        (
            "example9",
            "array X[200]\narray Y[100]\n\
             for i = 1 to 20 { for j = 1 to 20 {\n\
               X[2i + 3j + 2] = Y[i + j];\n\
               Y[i + j + 1] = X[2i + 3j + 3];\n\
             } }",
        ),
        (
            "example10",
            "array A[61][51]\n\
             for i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
        ),
    ]
}

#[test]
fn compound_search_is_deterministic_across_thread_counts() {
    for (name, src) in paper_examples() {
        let nest = parse(src).unwrap();
        let serial =
            search_pinned(&nest, 1).unwrap_or_else(|e| panic!("{name}: serial search failed: {e}"));
        for threads in [2, 4, 8] {
            let par = search_pinned(&nest, threads)
                .unwrap_or_else(|e| panic!("{name}: parallel search failed: {e}"));
            assert_eq!(
                par.transform, serial.transform,
                "{name} x{threads}: transform"
            );
            assert_eq!(par.mws_before, serial.mws_before, "{name} x{threads}");
            assert_eq!(par.mws_after, serial.mws_after, "{name} x{threads}");
            assert_eq!(
                par.candidates_considered, serial.candidates_considered,
                "{name} x{threads}"
            );
            assert_eq!(
                loopmem_ir::print_nest(&par.transformed),
                loopmem_ir::print_nest(&serial.transformed),
                "{name} x{threads}: transformed nest"
            );
        }
    }
}

#[test]
fn repeated_search_is_reproducible() {
    // No state survives between searches: a repeat charges the same work
    // and returns the identical answer.
    let nest = parse(
        "array X[300]\nfor i = 1 to 23 { for j = 1 to 19 { X[4i - 5j + 100] = X[4i - 5j + 96]; } }",
    )
    .unwrap();
    let first = search_pinned(&nest, 2).unwrap();
    let again = search_pinned(&nest, 2).unwrap();
    assert_eq!(format!("{again:?}"), format!("{first:?}"));
}
