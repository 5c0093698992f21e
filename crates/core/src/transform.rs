//! Applying a unimodular transformation to a loop nest.
//!
//! With `y = T·x`, the transformed nest scans the image polyhedron
//! `{y : T⁻¹·y ∈ P}` lexicographically: bounds are regenerated by
//! Fourier–Motzkin (`loopmem-poly`), and every reference `A·x + b` is
//! rewritten to `(A·T⁻¹)·y + b`. Unimodularity makes the integer-point
//! mapping bijective, so the transformed nest performs exactly the same
//! set of accesses — only their order changes, which is precisely what
//! moves the window size.

use loopmem_ir::{ArrayRef, LoopNest, Statement};
use loopmem_linalg::IMat;
use loopmem_poly::{regenerate_loops, BoundsGenError, Constraint, Polyhedron};
use std::error::Error;
use std::fmt;

/// Failure to apply a transformation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransformError {
    /// The matrix is not square with determinant ±1.
    NotUnimodular,
    /// The matrix size differs from the nest depth.
    DepthMismatch {
        /// Matrix size.
        matrix: usize,
        /// Nest depth.
        nest: usize,
    },
    /// Bound regeneration failed (empty or unbounded image).
    Bounds(BoundsGenError),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::NotUnimodular => write!(f, "transformation is not unimodular"),
            TransformError::DepthMismatch { matrix, nest } => {
                write!(f, "{matrix}x{matrix} matrix applied to a {nest}-deep nest")
            }
            TransformError::Bounds(e) => write!(f, "bound regeneration failed: {e}"),
        }
    }
}

impl Error for TransformError {}

impl From<BoundsGenError> for TransformError {
    fn from(e: BoundsGenError) -> Self {
        TransformError::Bounds(e)
    }
}

/// Default names given to transformed loop variables (`t1`, `t2`, …).
fn transformed_names(n: usize) -> Vec<String> {
    (1..=n).map(|k| format!("t{k}")).collect()
}

/// Applies the unimodular transformation `t` to `nest`.
///
/// The result is a valid perfect nest executing the same accesses in the
/// transformed order. Legality with respect to the nest's dependences is
/// *not* checked here — use `loopmem_dep::is_legal` first; applying an
/// illegal transformation still yields a well-formed nest (useful for
/// measuring what an illegal order *would* do).
///
/// # Errors
///
/// [`TransformError::NotUnimodular`], [`TransformError::DepthMismatch`],
/// or a bound-generation failure for degenerate spaces.
pub fn apply_transform(nest: &LoopNest, t: &IMat) -> Result<LoopNest, TransformError> {
    let n = nest.depth();
    if t.nrows() != n || t.ncols() != n {
        return Err(TransformError::DepthMismatch {
            matrix: t.nrows(),
            nest: n,
        });
    }
    let t_inv = t
        .unimodular_inverse()
        .ok_or(TransformError::NotUnimodular)?;

    // Image polyhedron: every constraint a·x + c >= 0 becomes
    // (a·T⁻¹)·y + c >= 0.
    let p = Polyhedron::from_nest(nest);
    let mut image = Polyhedron::universe(n);
    for c in p.constraints() {
        let coeffs: Vec<i64> = (0..n)
            .map(|j| (0..n).map(|i| c.coeffs[i] * t_inv[(i, j)]).sum::<i64>())
            .collect();
        image.add(Constraint::new(coeffs, c.constant));
    }
    let loops = regenerate_loops(&image, &transformed_names(n))?;

    // Rewrite references: A' = A·T⁻¹, offsets unchanged.
    let statements = nest
        .statements()
        .iter()
        .map(|s| {
            Statement::new(
                s.refs()
                    .iter()
                    .map(|r| ArrayRef::new(r.array, &r.matrix * &t_inv, r.offset.clone(), r.kind))
                    .collect(),
            )
        })
        .collect();

    LoopNest::new(loops, nest.arrays().to_vec(), statements)
        .map_err(|_| TransformError::Bounds(BoundsGenError::Empty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::exact_sim as simulate;
    use loopmem_ir::parse;
    use loopmem_sim::count_iterations;

    fn example8() -> LoopNest {
        parse(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap()
    }

    #[test]
    fn identity_preserves_semantics() {
        let nest = example8();
        let same = apply_transform(&nest, &IMat::identity(2)).unwrap();
        assert_eq!(count_iterations(&same), count_iterations(&nest));
        let (a, b) = (simulate(&nest), simulate(&same));
        assert_eq!(a.mws_total, b.mws_total);
        assert_eq!(a.distinct_total(), b.distinct_total());
    }

    #[test]
    fn interchange_swaps_access_columns() {
        let nest =
            parse("array A[40][40]\nfor i = 1 to 10 { for j = 1 to 20 { A[i][j] = A[i][j-1]; } }")
                .unwrap();
        let t = IMat::from_rows(&[vec![0, 1], vec![1, 0]]);
        let out = apply_transform(&nest, &t).unwrap();
        assert_eq!(out.loops()[0].constant_range(), Some((1, 20)));
        assert_eq!(out.loops()[1].constant_range(), Some((1, 10)));
        // Access A[i][j] becomes A[t2][t1].
        let r = out.refs().next().unwrap();
        assert_eq!(r.matrix.row(0), &[0, 1]);
        assert_eq!(r.matrix.row(1), &[1, 0]);
        assert_eq!(count_iterations(&out), 200);
    }

    #[test]
    fn paper_4_2_transformation_reaches_mws_21() {
        // T = [[2,3],[1,1]]: the tileable completion of the §4.2 optimum.
        let nest = example8();
        let t = IMat::from_rows(&[vec![2, 3], vec![1, 1]]);
        let out = apply_transform(&nest, &t).unwrap();
        let s = simulate(&out);
        assert_eq!(s.mws_total, 21, "paper's actual minimum MWS");
        // Same accesses, same distinct count.
        assert_eq!(s.distinct_total(), simulate(&nest).distinct_total());
        assert_eq!(count_iterations(&out), 250);
    }

    #[test]
    fn example7_compound_transformation_reaches_mws_1() {
        let nest =
            parse("array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }").unwrap();
        let t = IMat::from_rows(&[vec![2, -3], vec![1, -1]]);
        assert_eq!(t.det(), 1);
        let out = apply_transform(&nest, &t).unwrap();
        let s = simulate(&out);
        assert_eq!(s.mws_total, 1);
        assert_eq!(count_iterations(&out), 600);
        assert_eq!(s.distinct_total(), simulate(&nest).distinct_total());
    }

    #[test]
    fn skewed_nest_roundtrips_through_inverse() {
        let nest = example8();
        let t = IMat::from_rows(&[vec![1, 1], vec![0, 1]]);
        let skewed = apply_transform(&nest, &t).unwrap();
        let back = apply_transform(&skewed, &t.unimodular_inverse().unwrap()).unwrap();
        assert_eq!(count_iterations(&back), count_iterations(&nest));
        assert_eq!(
            simulate(&back).mws_total,
            simulate(&nest).mws_total,
            "inverse transformation restores the original order's window"
        );
    }

    #[test]
    fn non_unimodular_rejected() {
        let nest = example8();
        let t = IMat::from_rows(&[vec![2, 0], vec![0, 1]]);
        assert_eq!(
            apply_transform(&nest, &t).unwrap_err(),
            TransformError::NotUnimodular
        );
    }

    #[test]
    fn wrong_size_rejected() {
        let nest = example8();
        let t = IMat::identity(3);
        assert!(matches!(
            apply_transform(&nest, &t).unwrap_err(),
            TransformError::DepthMismatch { .. }
        ));
    }

    #[test]
    fn three_deep_transformation() {
        // Example 10's access-matrix-rows transformation.
        let nest = parse(
            "array A[61][51]\n\
             for i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
        )
        .unwrap();
        let t = loopmem_linalg::complete_unimodular_rows(&IMat::from_rows(&[
            vec![3, 0, 1],
            vec![0, 1, 1],
        ]))
        .unwrap();
        let out = apply_transform(&nest, &t).unwrap();
        assert_eq!(count_iterations(&out), 6000);
        let s = simulate(&out);
        assert_eq!(s.mws_total, 1, "reuse carried by the innermost loop");
    }
}
