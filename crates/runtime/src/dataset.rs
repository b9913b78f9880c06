//! Columnar sample storage: one flat row-major `Vec<f32>` plus dimensions.
//!
//! Replaces the pervasive `Vec<Vec<f32>>` on every batch path. One
//! allocation instead of `n`, contiguous rows for cache-friendly scoring,
//! and cheap strided column iteration for covariance/feature-bound passes.

/// A dense batch of `rows()` samples with `cols()` features each.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dataset {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Dataset {
    /// Empty dataset with a fixed feature width.
    pub fn new(cols: usize) -> Self {
        Dataset { data: Vec::new(), rows: 0, cols }
    }

    /// `rows × cols` zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dataset { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Wrap an existing flat row-major buffer.
    pub fn from_vec(data: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer must be rows*cols");
        Dataset { data, rows, cols }
    }

    /// Copy in a `Vec<Vec<f32>>` / slice-of-rows. All rows must share one
    /// width; an empty input produces a 0×0 dataset.
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Self {
        let cols = rows.first().map_or(0, |r| r.as_ref().len());
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            let r = r.as_ref();
            assert_eq!(r.len(), cols, "ragged rows: {} vs {}", r.len(), cols);
            data.extend_from_slice(r);
        }
        Dataset { data, rows: rows.len(), cols }
    }

    /// Number of samples.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of features per sample.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrow row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Append one sample. A completely empty dataset (0×0, e.g. from
    /// `Default`) adopts the width of the first pushed row.
    pub fn push_row(&mut self, row: &[f32]) {
        if self.cols == 0 && self.rows == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row width {} != {}", row.len(), self.cols);
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Append every row of another dataset of the same width. A completely
    /// empty dataset (0×0) adopts the other's width.
    pub fn extend_rows(&mut self, other: &Dataset) {
        if self.cols == 0 && self.rows == 0 {
            self.cols = other.cols;
        }
        assert_eq!(other.cols, self.cols, "dataset width mismatch");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Iterate rows as slices.
    pub fn iter_rows(&self) -> impl ExactSizeIterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Strided iterator over column `j`.
    pub fn column(&self, j: usize) -> impl ExactSizeIterator<Item = f32> + '_ {
        assert!(j < self.cols, "column {j} out of {}", self.cols);
        (0..self.rows).map(move |i| self.data[i * self.cols + j])
    }

    /// New dataset holding the given rows (indices may repeat).
    pub fn select_rows(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.cols);
        out.data.reserve(indices.len() * self.cols);
        for &i in indices {
            out.push_row(self.row(i));
        }
        out
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl std::ops::Index<(usize, usize)> for Dataset {
    type Output = f32;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        &self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_roundtrip() {
        let rows = vec![vec![1.0f32, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let ds = Dataset::from_rows(&rows);
        assert_eq!((ds.rows(), ds.cols()), (3, 2));
        assert_eq!(ds.row(1), &[3.0, 4.0]);
        assert_eq!(ds.as_slice(), rows.concat());
        assert_eq!(ds[(2, 1)], 6.0);
    }

    #[test]
    fn push_and_extend() {
        let mut ds = Dataset::new(3);
        ds.push_row(&[1.0, 2.0, 3.0]);
        ds.push_row(&[4.0, 5.0, 6.0]);
        let mut other = Dataset::new(3);
        other.push_row(&[7.0, 8.0, 9.0]);
        ds.extend_rows(&other);
        assert_eq!(ds.rows(), 3);
        assert_eq!(ds.row(2), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn column_iteration() {
        let ds = Dataset::from_rows(&[vec![1.0f32, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]]);
        let col: Vec<f32> = ds.column(1).collect();
        assert_eq!(col, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn select_rows_copies() {
        let ds = Dataset::from_rows(&[vec![0.0f32], vec![1.0], vec![2.0]]);
        let sel = ds.select_rows(&[2, 0, 2]);
        assert_eq!((sel.rows(), sel.as_slice()), (3, &[2.0, 0.0, 2.0][..]));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        Dataset::from_rows(&[vec![1.0f32, 2.0], vec![3.0]]);
    }
}
