//! A small row-major dense matrix for the inference hot loops.
//!
//! The EM-family methods iterate posterior (`n × ℓ`) and confusion
//! (`m·ℓ × ℓ`) matrices thousands of times. Nested `Vec<Vec<f64>>`
//! scatters rows across the heap and costs an allocation per row per
//! rebuild; [`DMat`] keeps one contiguous buffer, so a full M-step is a
//! linear sweep and an E-step's row reads are cache-local. All mutating
//! helpers work in place — the hot loops allocate nothing per iteration.

/// Row-major dense `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// An `rows × cols` matrix of zeros.
    ///
    /// # Panics
    /// Panics if `cols == 0` while `rows > 0` (row indexing would be
    /// meaningless).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// An `rows × cols` matrix with every cell set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        assert!(
            cols > 0 || rows == 0,
            "cols must be positive for a non-empty matrix"
        );
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from nested rows (each must have the same length).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
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

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole buffer, row-major.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The whole buffer, mutable.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Set every cell to `value` in place.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Normalize row `i` to sum to one in place (left untouched when the
    /// row total is zero or non-finite).
    #[inline]
    pub fn row_normalize(&mut self, i: usize) {
        let row = self.row_mut(i);
        let total: f64 = row.iter().sum();
        if total > 0.0 && total.is_finite() {
            row.iter_mut().for_each(|x| *x /= total);
        }
    }

    /// `row_i += a · x` in place (the axpy building block for
    /// expected-count accumulation in EM-style updates).
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    #[inline]
    pub fn axpy_row(&mut self, i: usize, a: f64, x: &[f64]) {
        let row = self.row_mut(i);
        assert_eq!(x.len(), row.len(), "axpy operand length mismatch");
        for (r, &v) in row.iter_mut().zip(x) {
            *r += a * v;
        }
    }
}

impl std::ops::Index<(usize, usize)> for DMat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_indexing() {
        let mut m = DMat::zeros(3, 2);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        m[(1, 0)] = 5.0;
        m[(2, 1)] = -1.0;
        assert_eq!(m.row(1), &[5.0, 0.0]);
        assert_eq!(m.row(2), &[0.0, -1.0]);
        assert_eq!(m.data(), &[0.0, 0.0, 5.0, 0.0, 0.0, -1.0]);
    }

    #[test]
    fn fill_and_row_mut() {
        let mut m = DMat::filled(2, 3, 1.0);
        m.row_mut(0).copy_from_slice(&[2.0, 4.0, 6.0]);
        m.fill(0.5);
        assert!(m.data().iter().all(|&x| x == 0.5));
    }

    #[test]
    fn row_normalize_in_place() {
        let mut m = DMat::from_rows(&[vec![1.0, 3.0], vec![0.0, 0.0]]);
        m.row_normalize(0);
        m.row_normalize(1);
        assert_eq!(m.row(0), &[0.25, 0.75]);
        // Zero row untouched.
        assert_eq!(m.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut m = DMat::zeros(2, 3);
        m.axpy_row(1, 2.0, &[1.0, 0.5, 0.0]);
        m.axpy_row(1, 1.0, &[0.0, 0.0, 1.0]);
        assert_eq!(m.row(1), &[2.0, 1.0, 1.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn nested_round_trip() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let m = DMat::from_rows(&rows);
        assert_eq!((m.rows(), m.cols()), (2, 2));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(m.row(i), row.as_slice());
        }
        assert_eq!(m.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = DMat::zeros(0, 0);
        assert_eq!(m.rows(), 0);
        assert!(m.data().is_empty());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        DMat::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
