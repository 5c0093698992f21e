//! Dense integer matrices.

use crate::rmat::RMat;
use crate::Rational;
use std::fmt;
use std::ops::{Index, IndexMut, Mul};

/// A dense row-major integer matrix.
///
/// Access matrices, dependence sets, and unimodular transformations are all
/// `IMat`s. Dimensions in this domain are tiny (loop depth ≤ 4 in practice,
/// per §4.2 of the paper), so no sparsity or blocking is attempted.
///
/// ```
/// use loopmem_linalg::IMat;
/// let t = IMat::from_rows(&[vec![2, 3], vec![1, 2]]);
/// assert_eq!(t.det(), 1);
/// let inv = t.unimodular_inverse().unwrap();
/// assert_eq!(&t * &inv, IMat::identity(2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IMat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IMat {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        IMat {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = IMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or the input is empty.
    pub fn from_rows(rows: &[Vec<i64>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have equal length"
        );
        IMat {
            rows: rows.len(),
            cols,
            data: rows.concat(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `i`.
    pub fn row(&self, i: usize) -> &[i64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [i64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a `Vec`.
    pub fn col(&self, j: usize) -> Vec<i64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[i64]> {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// The transpose.
    pub fn transpose(&self) -> IMat {
        let mut t = IMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.ncols()` or on arithmetic overflow.
    pub fn mul_vec(&self, v: &[i64]) -> Vec<i64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        (0..self.rows).map(|i| self.row_dot(i, v)).collect()
    }

    /// Component `i` of `self * v` (row `i` dotted with `v`), computed in
    /// `i128` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the product does not fit in `i64`.
    pub fn row_dot(&self, i: usize, v: &[i64]) -> i64 {
        self.row(i)
            .iter()
            .zip(v)
            .map(|(&a, &b)| (a as i128) * (b as i128))
            .sum::<i128>()
            .try_into()
            .expect("mul_vec overflow")
    }

    /// Exact determinant via the Bareiss fraction-free algorithm.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn det(&self) -> i64 {
        assert_eq!(self.rows, self.cols, "determinant of non-square matrix");
        let n = self.rows;
        if n == 0 {
            return 1;
        }
        let mut m: Vec<Vec<i128>> = (0..n)
            .map(|i| self.row(i).iter().map(|&x| x as i128).collect())
            .collect();
        let mut sign = 1i128;
        let mut prev = 1i128;
        for k in 0..n - 1 {
            if m[k][k] == 0 {
                // Pivot: find a row below with a non-zero entry in column k.
                match (k + 1..n).find(|&i| m[i][k] != 0) {
                    Some(i) => {
                        m.swap(k, i);
                        sign = -sign;
                    }
                    None => return 0,
                }
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    let num = m[i][j]
                        .checked_mul(m[k][k])
                        .and_then(|l| m[i][k].checked_mul(m[k][j]).and_then(|r| l.checked_sub(r)))
                        .expect("determinant overflow");
                    m[i][j] = num / prev; // exact division per Bareiss
                }
                m[i][k] = 0;
            }
            prev = m[k][k];
        }
        i64::try_from(sign * m[n - 1][n - 1]).expect("determinant out of i64 range")
    }

    /// Rank over the rationals.
    pub fn rank(&self) -> usize {
        self.to_rmat().rank()
    }

    /// `true` iff the matrix is square with determinant `±1`.
    pub fn is_unimodular(&self) -> bool {
        self.rows == self.cols && self.det().abs() == 1
    }

    /// Exact inverse of a unimodular matrix (which is again integral).
    ///
    /// Returns `None` if the matrix is not unimodular.
    pub fn unimodular_inverse(&self) -> Option<IMat> {
        if !self.is_unimodular() {
            return None;
        }
        let inv = self.to_rmat().inverse()?;
        let mut out = IMat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(i, j)] = inv[(i, j)]
                    .to_i64()
                    .expect("unimodular inverse must be integral");
            }
        }
        Some(out)
    }

    /// Converts to a rational matrix.
    pub fn to_rmat(&self) -> RMat {
        let mut m = RMat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                m[(i, j)] = Rational::from(self[(i, j)]);
            }
        }
        m
    }
}

impl Index<(usize, usize)> for IMat {
    type Output = i64;
    fn index(&self, (i, j): (usize, usize)) -> &i64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for IMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut i64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Mul for &IMat {
    type Output = IMat;
    fn mul(self, rhs: &IMat) -> IMat {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix product");
        let mut out = IMat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let s: i128 = (0..self.cols)
                    .map(|k| (self[(i, k)] as i128) * (rhs[(k, j)] as i128))
                    .sum();
                out[(i, j)] = s.try_into().expect("matrix product overflow");
            }
        }
        out
    }
}

impl fmt::Debug for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>4}", self[(i, j)])?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = IMat::from_rows(&[vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m[(1, 2)], 6);
        assert_eq!(m.col(1), vec![2, 5]);
        assert_eq!(m.transpose()[(2, 1)], 6);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_rows_panic() {
        let _ = IMat::from_rows(&[vec![1], vec![2, 3]]);
    }

    #[test]
    fn determinant_small() {
        assert_eq!(IMat::identity(3).det(), 1);
        assert_eq!(IMat::from_rows(&[vec![2, 3], vec![1, 2]]).det(), 1);
        assert_eq!(IMat::from_rows(&[vec![0, 1], vec![1, 0]]).det(), -1);
        assert_eq!(IMat::from_rows(&[vec![2, 4], vec![1, 2]]).det(), 0);
        // 3x3 with a zero pivot forcing a swap.
        let m = IMat::from_rows(&[vec![0, 1, 2], vec![1, 0, 3], vec![4, 5, 0]]);
        assert_eq!(m.det(), 22);
    }

    #[test]
    fn determinant_matches_cofactor_3x3() {
        // Cross-check Bareiss against the closed-form 3x3 rule.
        let cases = [
            [[3i64, -1, 2], [0, 4, 1], [5, 2, -2]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
            [[-2, 0, 0], [0, -3, 0], [0, 0, -5]],
        ];
        for c in cases {
            let m = IMat::from_rows(&[c[0].to_vec(), c[1].to_vec(), c[2].to_vec()]);
            let cof = c[0][0] * (c[1][1] * c[2][2] - c[1][2] * c[2][1])
                - c[0][1] * (c[1][0] * c[2][2] - c[1][2] * c[2][0])
                + c[0][2] * (c[1][0] * c[2][1] - c[1][1] * c[2][0]);
            assert_eq!(m.det(), cof);
        }
    }

    #[test]
    fn product_and_inverse() {
        let t = IMat::from_rows(&[vec![2, 3], vec![1, 2]]);
        let inv = t.unimodular_inverse().expect("unimodular");
        assert_eq!(&t * &inv, IMat::identity(2));
        assert_eq!(&inv * &t, IMat::identity(2));
        assert_eq!(inv, IMat::from_rows(&[vec![2, -3], vec![-1, 2]]));
    }

    #[test]
    fn non_unimodular_has_no_inverse() {
        let m = IMat::from_rows(&[vec![2, 0], vec![0, 2]]);
        assert!(m.unimodular_inverse().is_none());
    }

    #[test]
    fn mul_vec_applies_transformation() {
        // §2.1: applying T to a dependence vector.
        let t = IMat::from_rows(&[vec![2, 3], vec![1, 2]]);
        assert_eq!(t.mul_vec(&[3, -2]), vec![0, -1]);
    }

    #[test]
    fn rank_detects_deficiency() {
        let a = IMat::from_rows(&[vec![2, 5]]); // Example 4 access matrix
        assert_eq!(a.rank(), 1);
        let b = IMat::from_rows(&[vec![3, 0, 1], vec![0, 1, 1]]); // Example 5
        assert_eq!(b.rank(), 2);
        assert_eq!(IMat::identity(4).rank(), 4);
        assert_eq!(IMat::zeros(2, 3).rank(), 0);
    }
}
