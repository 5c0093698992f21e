//! End-to-end reproduction of every worked example in the paper, driven
//! through the `loopmem` facade exactly as a downstream user would.

use loopmem::core::{
    analyze_memory, apply_transform, estimate_distinct, three_level_estimate, two_level_estimate,
    two_level_objective, SearchMode,
};
use loopmem::dep::{analyze, reuse_vectors};
use loopmem::ir::{parse, AnalysisError, ArrayId};
use loopmem::linalg::{IMat, Rational};
use loopmem::poly::count::distinct_accesses_for;
use loopmem::Session;

#[test]
fn example_1_reuse_area_is_56() {
    // Both 1(a) (2-D array) and 1(b) (1-D array) share dependence (3,2)
    // and reuse area (10-3)(10-2) = 56.
    let a =
        parse("array A[14][14]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-3][j+2]; } }")
            .unwrap();
    let b = parse("array A[51]\nfor i = 1 to 10 { for j = 1 to 10 { A[2i + 3j]; } }").unwrap();
    // 1(a): 2 refs, one dependence: accesses - distinct = reuse.
    let sa = Session::new().simulate(&a).unwrap();
    assert_eq!(200 - sa.distinct_total(), 56);
    // 1(b): 1 ref: iterations - distinct = reuse.
    let sb = Session::new().simulate(&b).unwrap();
    assert_eq!(100 - sb.distinct_total(), 56);
}

#[test]
fn example_2_formula_and_truth_agree() {
    let nest =
        parse("array A[12][14]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2]; } }")
            .unwrap();
    let est = estimate_distinct(&nest)[&ArrayId(0)];
    assert_eq!(est.value(), Some(2 * 100 - 9 * 8));
    assert_eq!(
        est.value().unwrap() as u64,
        distinct_accesses_for(&nest, ArrayId(0))
    );
}

#[test]
fn example_3_paper_formula_vs_exact() {
    let nest = parse(
        "array A[11][11]\nfor i = 1 to 10 { for j = 1 to 10 {\
           A[i][j] = A[i-1][j] + A[i][j-1] + A[i-1][j-1]; } }",
    )
    .unwrap();
    let est = estimate_distinct(&nest)[&ArrayId(0)];
    assert_eq!(est.value(), Some(139), "the paper's formula value");
    assert_eq!(
        distinct_accesses_for(&nest, ArrayId(0)),
        121,
        "the true union of four shifted squares"
    );
}

#[test]
fn examples_4_and_5_nullspace_formula_is_exact() {
    let e4 =
        parse("array A[111]\nfor i = 1 to 20 { for j = 1 to 10 { A[2i + 5j + 1]; } }").unwrap();
    assert_eq!(estimate_distinct(&e4)[&ArrayId(0)].value(), Some(80));
    assert_eq!(distinct_accesses_for(&e4, ArrayId(0)), 80);
    assert_eq!(Session::new().simulate(&e4).unwrap().distinct_total(), 80);

    let e5 = parse(
        "array A[61][51]\n\
         for i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
    )
    .unwrap();
    assert_eq!(estimate_distinct(&e5)[&ArrayId(0)].value(), Some(1869));
    assert_eq!(distinct_accesses_for(&e5, ArrayId(0)), 1869);
}

#[test]
fn example_6_bounds_bracket_the_truth() {
    let nest = parse(
        "array A[200]\n\
         for i = 1 to 20 { for j = 1 to 20 { A[3i + 7j - 10] = A[4i - 3j + 60]; } }",
    )
    .unwrap();
    let est = estimate_distinct(&nest)[&ArrayId(0)];
    assert_eq!((est.lower, est.upper), (179, 191), "the paper's bounds");
    let exact = distinct_accesses_for(&nest, ArrayId(0)) as i64;
    assert_eq!(exact, 182, "brute force (the paper prints 181)");
    assert!(est.lower <= exact && exact <= est.upper);
}

#[test]
fn example_7_compound_beats_interchange_and_reversal() {
    let nest = parse("array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }").unwrap();
    // Eq. (2) estimates for the four elementary orders (paper: 89/41/86/36
    // under the Eisenbeis cost metric).
    assert_eq!(two_level_estimate((2, -3), (1, 0), (20, 30)), 90);
    assert_eq!(two_level_estimate((2, -3), (0, 1), (20, 30)), 40);
    // Exact values.
    assert_eq!(Session::new().simulate(&nest).unwrap().mws_total, 86);
    let opt = Session::new().optimize(&nest).unwrap();
    assert_eq!(opt.mws_after, 1, "paper: the cost can be reduced to 1");
    let baseline = Session::new()
        .search_mode(SearchMode::InterchangeReversal)
        .optimize(&nest)
        .unwrap();
    assert_eq!(baseline.mws_after, 34, "best elementary order");
    assert!(opt.mws_after < baseline.mws_after);
}

#[test]
fn example_8_full_study() {
    let nest = parse(
        "array X[200]\n\
         for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
    )
    .unwrap();
    // Dependences (§4): flow (3,-2), anti (2,0), output (5,-2).
    let deps = analyze(&nest);
    let mut d = deps.distances(true);
    d.sort();
    assert_eq!(d, vec![vec![2, 0], vec![3, -2], vec![5, -2]]);

    // §4.2: objective at the optimum (a,b) = (2,3) is 22; actual MWS 21.
    assert_eq!(
        two_level_objective((2, 5), (2, 3), (25, 10)),
        Rational::from(22)
    );
    let opt = Session::new().optimize(&nest).unwrap();
    assert_eq!(opt.mws_after, 21);
    assert_eq!(opt.transform.row(0), &[2, 3], "the paper's leading row");

    // Li–Pingali cannot complete a legal transformation here.
    let err = Session::new()
        .search_mode(SearchMode::LiPingali)
        .optimize(&nest)
        .unwrap_err();
    assert!(
        matches!(&err, AnalysisError::Invalid { message }
            if message == "no legal transformation in the search space"),
        "{err:?}"
    );
    // Interchange/reversal cannot improve at all.
    let ir = Session::new()
        .search_mode(SearchMode::InterchangeReversal)
        .optimize(&nest)
        .unwrap();
    assert_eq!(ir.mws_after, ir.mws_before);
}

#[test]
fn example_9_eq2_tracks_simulated_windows() {
    // Sweep transformations of a uniformly generated 1-D access and check
    // eq. (2) is a (close) upper estimate of the exact window.
    let nest = parse(
        "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
    )
    .unwrap();
    for rows in [
        vec![vec![1, 0], vec![0, 1]],
        vec![vec![0, 1], vec![1, 0]],
        vec![vec![1, 1], vec![0, 1]],
        vec![vec![2, 3], vec![1, 1]],
        vec![vec![1, 2], vec![0, 1]],
    ] {
        let t = IMat::from_rows(&rows);
        let est = two_level_estimate((2, 5), (t[(0, 0)], t[(0, 1)]), (25, 10));
        let exact = Session::new()
            .simulate(&apply_transform(&nest, &t).unwrap())
            .unwrap()
            .mws_total as i64;
        assert!(
            exact <= est + 4,
            "estimate {est} far below exact {exact} for {rows:?}"
        );
        assert!(
            est <= 3 * exact + 6,
            "estimate {est} far above exact {exact} for {rows:?}"
        );
    }
}

#[test]
fn example_10_three_level_window() {
    let nest = parse(
        "array A[61][51]\n\
         for i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
    )
    .unwrap();
    let rv = reuse_vectors(&nest);
    assert_eq!(rv.len(), 1);
    let v = &rv[0].1;
    assert_eq!(v.iter().map(|x| x.abs()).collect::<Vec<_>>(), vec![1, 3, 3]);
    assert_eq!(three_level_estimate((v[0], v[1], v[2]), (10, 20, 30)), 540);
    // §4.3: the access-matrix transformation collapses the window to 1.
    let opt = Session::new().optimize(&nest).unwrap();
    assert_eq!(opt.mws_after, 1);
    // The memory analysis ties it together.
    let m = analyze_memory(&Session::new(), &nest).unwrap();
    assert_eq!(m.distinct_exact_total, 1869);
    assert!(m.mws_exact <= 540, "closed form is an upper estimate");
}

#[test]
fn section_2_3_uniformly_generated_example() {
    // The §2.3 example loop with X and Y: all references uniformly
    // generated, two groups.
    let nest = parse(
        "array X[200]\narray Y[100]\n\
         for i = 1 to 10 { for j = 1 to 10 {\n\
           X[2i + 3j + 2] = Y[i + j];\n\
           Y[i + j + 1] = X[2i + 3j + 3];\n\
         } }",
    )
    .unwrap();
    assert!(loopmem::dep::uniform::is_uniformly_generated(&nest));
    let m = analyze_memory(&Session::new(), &nest).unwrap();
    assert!(m.mws_exact > 0);
    // Every element of Y is reused (read then written shifted by one).
    assert!(m.mws_per_array[&nest.array_by_name("Y").unwrap()] >= 1);
}
