//! Edge cases across the whole analysis stack: degenerate depths, empty
//! ranges, single iterations, and extreme offsets.

use loopmem_core::{analyze_memory, apply_transform, estimate_distinct, Session};
use loopmem_ir::{parse, ArrayId};
use loopmem_linalg::IMat;
use loopmem_sim::count_iterations;

mod common;
use common::{exact_sim as simulate, minimize};

#[test]
fn one_deep_nest_full_stack() {
    let nest = parse("array A[20]\nfor i = 1 to 10 { A[i] = A[i - 1]; }").unwrap();
    let m = analyze_memory(&Session::new(), &nest).unwrap();
    assert_eq!(m.distinct_exact_total, 11);
    assert_eq!(m.mws_exact, 1, "one element live between iterations");
    let est = estimate_distinct(&nest)[&ArrayId(0)];
    assert_eq!(est.value(), Some(2 * 10 - 9)); // §3.1 with r = 2
                                               // Optimizer on a 1-deep nest: only identity and reversal exist, and
                                               // reversal is illegal here.
    let opt = minimize(&nest);
    assert_eq!(opt.mws_after, 1);
    assert_eq!(opt.transform, IMat::identity(1));
}

#[test]
fn single_iteration_nest() {
    let nest = parse("array A[4][4]\nfor i = 2 to 2 { for j = 3 to 3 { A[i][j] = A[i-1][j-1]; } }")
        .unwrap();
    assert_eq!(count_iterations(&nest), 1);
    let s = simulate(&nest);
    assert_eq!(s.distinct_total(), 2);
    assert_eq!(s.mws_total, 0, "nothing survives a single iteration");
}

#[test]
fn empty_outer_range_is_consistent_everywhere() {
    let nest = parse("array A[10][10]\nfor i = 5 to 4 { for j = 1 to 10 { A[i][j]; } }").unwrap();
    assert_eq!(count_iterations(&nest), 0);
    let s = simulate(&nest);
    assert_eq!(s.iterations, 0);
    assert_eq!(s.distinct_total(), 0);
    assert_eq!(s.mws_total, 0);
    assert_eq!(
        loopmem_poly::count::distinct_accesses_for(&nest, ArrayId(0)),
        0
    );
}

#[test]
fn empty_inner_range_is_consistent() {
    let nest = parse("array A[10][10]\nfor i = 1 to 10 { for j = 7 to 2 { A[i][j]; } }").unwrap();
    assert_eq!(count_iterations(&nest), 0);
    assert_eq!(simulate(&nest).mws_total, 0);
}

#[test]
fn huge_offset_kills_all_reuse() {
    // Dependence distance exceeds the extents: the formula clamps at zero
    // reuse, and everything agrees.
    let nest =
        parse("array A[200][20]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i + 100][j]; } }")
            .unwrap();
    let est = estimate_distinct(&nest)[&ArrayId(0)];
    assert_eq!(est.value(), Some(200));
    assert_eq!(simulate(&nest).distinct_total(), 200);
    assert_eq!(simulate(&nest).mws_total, 0);
}

#[test]
fn negative_direction_loop_via_reversal_transform() {
    // Reversal of a reuse-free nest is legal and preserves everything.
    let nest = parse("array A[10][10]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j]; } }").unwrap();
    let reversal = IMat::from_rows(&[vec![-1, 0], vec![0, -1]]);
    let out = apply_transform(&nest, &reversal).unwrap();
    assert_eq!(count_iterations(&out), 100);
    assert_eq!(simulate(&out).distinct_total(), 100);
    // Bounds are negative now; the printer and parser still round-trip
    // through evaluation.
    let (lo, hi) = out.loops()[0].constant_range().unwrap();
    assert_eq!((lo, hi), (-10, -1));
}

#[test]
fn four_deep_optimizer_handles_identity_only_spaces() {
    // Fully serialized 4-deep accumulation: every loop carries an output
    // dependence, so only prefix-preserving orders are legal.
    let nest = parse(
        "array S[2]\n\
         for a = 1 to 2 { for b = 1 to 2 { for c = 1 to 2 { for d = 1 to 2 {\n\
           S[1] = S[1] + S[2];\n\
         } } } }",
    )
    .unwrap();
    let opt = minimize(&nest);
    assert_eq!(opt.mws_after, opt.mws_before);
    assert_eq!(opt.mws_after, 2, "both scalars stay live throughout");
}

#[test]
fn zero_constant_subscript_array() {
    // A[5] fixed element: touched every iteration, window 1.
    let nest =
        parse("array A[10]\nfor i = 1 to 10 { for j = 1 to 10 { A[5] = A[5] + 1; } }").unwrap();
    let s = simulate(&nest);
    assert_eq!(s.distinct_total(), 1);
    assert_eq!(s.mws_total, 1);
    let est = estimate_distinct(&nest)[&ArrayId(0)];
    assert!(est.is_exact());
    assert_eq!(est.value(), Some(1));
}
