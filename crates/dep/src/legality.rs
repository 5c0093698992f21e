//! Transformation legality predicates (§2.1, §4.2).

use crate::analysis::DependenceSet;
use crate::vectors::lex_positive;
use loopmem_linalg::IMat;

/// `true` when `t` is a legal transformation for the dependence set: every
/// legality-constraining distance `δ` maps to a lexicographically positive
/// `T·δ` (§2.1). Input (read-read) dependences never constrain legality.
/// A [truncated](DependenceSet::is_truncated) set may be missing
/// distances, so only the identity is legal for it.
///
/// # Panics
///
/// Panics if `t` is not square or its size differs from the distances.
pub fn is_legal(t: &IMat, deps: &DependenceSet) -> bool {
    assert_eq!(t.nrows(), t.ncols(), "transformations are square");
    if deps.is_truncated() {
        return *t == IMat::identity(t.nrows());
    }
    deps.iter()
        .filter(|d| d.kind.constrains_legality())
        .all(|d| lex_positive(&t.mul_vec(&d.distance)))
}

/// `true` when `t` additionally leaves the nest *tileable*: every
/// legality-constraining distance maps to a component-wise non-negative
/// vector (full permutability, §4.2's `a·d₁ + b·d₂ ≥ 0` conditions after
/// Irigoin–Triolet). Tiling legality implies lexicographic legality for
/// unimodular `t` (a non-negative non-zero vector is lex-positive, and
/// `T·δ ≠ 0` because `T` is invertible and `δ ≠ 0`). Nothing is tileable
/// for a [truncated](DependenceSet::is_truncated) set.
pub fn is_tileable(t: &IMat, deps: &DependenceSet) -> bool {
    assert_eq!(t.nrows(), t.ncols(), "transformations are square");
    if deps.is_truncated() {
        return false;
    }
    deps.iter()
        .filter(|d| d.kind.constrains_legality())
        .all(|d| t.mul_vec(&d.distance).iter().all(|&x| x >= 0))
}

/// Tiling legality for a single row of a prospective transformation:
/// `row · δ ≥ 0` for every constraining distance. The §4.2 optimizer uses
/// this to prune `(a, b)` candidates before completing them to a full
/// matrix. No row is tileable for a
/// [truncated](DependenceSet::is_truncated) set.
pub fn row_tileable(row: &[i64], deps: &DependenceSet) -> bool {
    if deps.is_truncated() {
        return false;
    }
    deps.iter()
        .filter(|d| d.kind.constrains_legality())
        .all(|d| {
            row.iter()
                .zip(&d.distance)
                .map(|(&r, &x)| (r as i128) * (x as i128))
                .sum::<i128>()
                >= 0
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use loopmem_ir::parse;

    fn example8() -> DependenceSet {
        analyze(
            &parse(
                "array X[200]\n\
                 for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
            )
            .unwrap(),
        )
    }

    #[test]
    fn identity_is_legal_and_tileable_for_example8() {
        let deps = example8();
        let id = IMat::identity(2);
        assert!(is_legal(&id, &deps));
        // Distances (3,-2) and (5,-2) have negative second components, so
        // the identity is NOT tileable (skewing would be needed).
        assert!(!is_tileable(&id, &deps));
    }

    #[test]
    fn paper_4_2_transformation_is_tileable() {
        // §4.2's optimum has first row (2,3). The paper prints the
        // completion "c=1, d=2", but that row violates its own constraint
        // 3c - 2d >= 0 (it maps the flow distance (3,-2) to (0,-1), which
        // is not even lexicographically legal). The consistent completion
        // is (c,d) = (1,1): it satisfies all six constraints and
        // reproduces the paper's "actual minimum MWS = 21".
        let deps = example8();
        let good = IMat::from_rows(&[vec![2, 3], vec![1, 1]]);
        assert!(is_tileable(&good, &deps));
        assert!(is_legal(&good, &deps));
        let printed = IMat::from_rows(&[vec![2, 3], vec![1, 2]]);
        assert!(!is_legal(&printed, &deps));
    }

    #[test]
    fn li_pingali_rows_are_illegal_for_example8() {
        // §4: any T with first row (2,5) violates (3,-2); first row
        // (-2,-5) (the paper's "(−2,5)" with the sign convention of its
        // inner product) violates (2,0).
        let deps = example8();
        assert!(!row_tileable(&[2, 5], &deps)); // (2,5)·(3,-2) = -4 < 0
        assert!(!row_tileable(&[-2, -5], &deps)); // ·(2,0) = -4 < 0
        assert!(row_tileable(&[2, 3], &deps));
        assert!(row_tileable(&[1, 1], &deps));
        assert!(!row_tileable(&[1, 2], &deps)); // (1,2)·(3,-2) = -1
        assert!(row_tileable(&[1, 0], &deps));
    }

    #[test]
    fn input_dependences_do_not_constrain() {
        // Example 7: only an input dependence (3,2); loop reversal of both
        // axes is still "legal" since no flow/anti/output exists.
        let nest =
            parse("array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }").unwrap();
        let deps = analyze(&nest);
        let reversal = IMat::from_rows(&[vec![-1, 0], vec![0, -1]]);
        assert!(is_legal(&reversal, &deps));
        assert!(is_tileable(&reversal, &deps));
    }

    #[test]
    fn interchange_legality_depends_on_distances() {
        // Dependence (1, -2): interchange maps it to (-2, 1), lex negative.
        let nest = parse(
            "array A[100][100]\n\
             for i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2]; } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        let interchange = IMat::from_rows(&[vec![0, 1], vec![1, 0]]);
        assert!(!is_legal(&interchange, &deps));
        assert!(is_legal(&IMat::identity(2), &deps));
    }
}
