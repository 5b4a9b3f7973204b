//! Minimal dense linear algebra for least-squares calibration.
//!
//! The calibration problem (recover nine event weights from a few dozen
//! measurement runs) is tiny, so a self-contained column-major matrix
//! with Gaussian elimination is simpler and more auditable than pulling
//! in an external linear-algebra crate.

use core::fmt;

/// Errors from linear-system solving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinalgError {
    /// The system matrix is singular (or numerically so) at the given
    /// pivot column.
    Singular { pivot: usize },
    /// Operand shapes do not line up.
    DimensionMismatch,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot column {pivot}")
            }
            LinalgError::DimensionMismatch => write!(f, "operand dimensions do not match"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense row-major matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// `self^T * self` — the Gram matrix of the columns.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let mut acc = 0.0;
                for r in 0..self.rows {
                    acc += self.get(r, i) * self.get(r, j);
                }
                out.set(i, j, acc);
                out.set(j, i, acc);
            }
        }
        out
    }

    /// `self^T * v` for a column vector `v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len()` differs
    /// from the row count.
    pub fn transpose_mul_vec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.rows {
            return Err(LinalgError::DimensionMismatch);
        }
        let mut out = vec![0.0; self.cols];
        for (r, &vr) in v.iter().enumerate() {
            for (c, slot) in out.iter_mut().enumerate() {
                *slot += self.get(r, c) * vr;
            }
        }
        Ok(out)
    }

    /// `self * v` for a column vector `v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len()` differs
    /// from the column count.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch);
        }
        let mut out = vec![0.0; self.rows];
        for (r, slot) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, &vc) in v.iter().enumerate() {
                acc += self.get(r, c) * vc;
            }
            *slot = acc;
        }
        Ok(out)
    }
}

/// Solves the square system `a * x = b` by Gaussian elimination with
/// partial pivoting. `a` and `b` are consumed as working storage.
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] if a pivot is numerically zero and
/// [`LinalgError::DimensionMismatch`] for non-square or mismatched
/// inputs.
pub fn solve(mut a: Matrix, mut b: Vec<f64>) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LinalgError::DimensionMismatch);
    }
    // Scale-aware singularity threshold.
    let scale = (0..n)
        .flat_map(|r| (0..n).map(move |c| (r, c)))
        .map(|(r, c)| a.get(r, c).abs())
        .fold(0.0_f64, f64::max)
        .max(1.0);
    let eps = scale * 1e-12;

    for col in 0..n {
        // Partial pivoting: bring the largest remaining entry up.
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| {
                a.get(r1, col)
                    .abs()
                    .partial_cmp(&a.get(r2, col).abs())
                    .expect("pivot comparison on finite values")
            })
            .expect("non-empty pivot range");
        if a.get(pivot_row, col).abs() <= eps {
            return Err(LinalgError::Singular { pivot: col });
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = a.get(col, c);
                a.set(col, c, a.get(pivot_row, c));
                a.set(pivot_row, c, tmp);
            }
            b.swap(col, pivot_row);
        }
        // Eliminate below.
        let pivot = a.get(col, col);
        for row in (col + 1)..n {
            let factor = a.get(row, col) / pivot;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                let v = a.get(row, c) - factor * a.get(col, c);
                a.set(row, c, v);
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for (c, xc) in x.iter().enumerate().skip(row + 1) {
            acc -= a.get(row, c) * xc;
        }
        x[row] = acc / a.get(row, row);
    }
    Ok(x)
}

/// Solves the least-squares problem `min ||a * x - b||` via the normal
/// equations `(a^T a) x = a^T b`.
///
/// Adequate for the well-conditioned, low-dimensional calibration
/// systems in this workspace.
///
/// # Errors
///
/// Propagates [`LinalgError`] from the underlying solve, e.g. when the
/// design matrix does not have full column rank.
pub fn least_squares(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let gram = a.gram();
    let rhs = a.transpose_mul_vec(b)?;
    solve(gram, rhs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let cols = rows[0].len();
        let mut a = Matrix::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "ragged rows");
            for (c, &v) in row.iter().enumerate() {
                a.set(r, c, v);
            }
        }
        a
    }

    #[test]
    fn solve_identity() {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            a.set(i, i, 1.0);
        }
        let x = solve(a, vec![3.0, -1.0, 2.5]).unwrap();
        assert_eq!(x, vec![3.0, -1.0, 2.5]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3.
        let a = from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = solve(a, vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(a, vec![2.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(
            solve(a, vec![1.0, 2.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = from_rows(&[vec![1.0, 2.0]]);
        assert_eq!(
            solve(a.clone(), vec![1.0]),
            Err(LinalgError::DimensionMismatch)
        );
        assert_eq!(
            a.transpose_mul_vec(&[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch)
        );
        assert_eq!(a.mul_vec(&[1.0]), Err(LinalgError::DimensionMismatch));
    }

    #[test]
    fn least_squares_exact_fit() {
        // Overdetermined but consistent: x = [2, -1].
        let a = from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
        ]);
        let b = vec![2.0, -1.0, 1.0, 3.0];
        let x = least_squares(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn least_squares_minimises_residual() {
        // Fit a line through three non-collinear points; the residual of
        // the LS solution must not exceed the residual of nearby
        // perturbed solutions.
        let a = from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]);
        let b = vec![0.0, 1.1, 1.9];
        let x = least_squares(&a, &b).unwrap();
        let resid = |x: &[f64]| -> f64 {
            a.mul_vec(x)
                .unwrap()
                .iter()
                .zip(&b)
                .map(|(p, t)| (p - t) * (p - t))
                .sum()
        };
        let base = resid(&x);
        for d in [-0.01, 0.01] {
            assert!(base <= resid(&[x[0] + d, x[1]]) + 1e-12);
            assert!(base <= resid(&[x[0], x[1] + d]) + 1e-12);
        }
    }

    #[test]
    fn gram_is_symmetric() {
        let a = from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let g = a.gram();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(g.get(i, j), g.get(j, i));
            }
        }
        // Spot-check one entry: col0 . col1 = 1*2 + 4*5 = 22.
        assert_eq!(g.get(0, 1), 22.0);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            LinalgError::Singular { pivot: 3 }.to_string(),
            "matrix is singular at pivot column 3"
        );
        assert_eq!(
            LinalgError::DimensionMismatch.to_string(),
            "operand dimensions do not match"
        );
    }
}
