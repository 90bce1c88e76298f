//! Row-major feature matrices and labelled datasets.

use crate::persist::{PersistError, Reader, Writer};

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    pub rows: usize,
    pub cols: usize,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { data: vec![0.0; rows * cols], rows, cols }
    }

    pub fn with_cols(cols: usize) -> Self {
        Matrix { data: Vec::new(), rows: 0, cols }
    }

    /// An empty matrix with room for `rows` rows: filling it reallocates
    /// nothing.
    pub fn with_capacity(rows: usize, cols: usize) -> Self {
        Matrix { data: Vec::with_capacity(rows * cols), rows: 0, cols }
    }

    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        let mut m = Matrix::with_cols(cols);
        for r in rows {
            m.push_row(r);
        }
        m
    }

    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Persistence codec: both dimensions, then the row-major values.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_usize(self.rows);
        w.put_usize(self.cols);
        w.put_f64s(&self.data);
    }

    /// Inverse of [`Matrix::encode`]. Both dimensions are file-chosen:
    /// their product must not overflow and must equal the number of values
    /// present, which is what [`Matrix::row`] slices by.
    pub(crate) fn decode(r: &mut Reader) -> Result<Matrix, PersistError> {
        let rows = r.take_usize()?;
        let cols = r.take_usize()?;
        let data = r.take_f64s()?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(PersistError::Corrupt(format!(
                "matrix {rows}x{cols} carries {} values",
                data.len()
            )));
        }
        Ok(Matrix { data, rows, cols })
    }

    /// Select a subset of rows by index.
    pub fn select(&self, indices: &[usize]) -> Matrix {
        let mut m = Matrix::with_capacity(indices.len(), self.cols);
        for &i in indices {
            m.push_row(self.row(i));
        }
        m
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }
}

/// A labelled dataset with named feature columns.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub feature_names: Vec<String>,
    pub x: Matrix,
    pub y: Vec<f64>,
}

impl Dataset {
    pub fn new(feature_names: Vec<String>) -> Self {
        let cols = feature_names.len();
        Dataset { feature_names, x: Matrix::with_cols(cols), y: Vec::new() }
    }

    pub fn push(&mut self, row: &[f64], target: f64) {
        self.x.push_row(row);
        self.y.push(target);
    }

    pub fn len(&self) -> usize {
        self.y.len()
    }

    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Subset by row indices.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        Dataset {
            feature_names: self.feature_names.clone(),
            x: self.x.select(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_row_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows, 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
    }

    #[test]
    fn matrix_select() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select(&[2, 0]);
        assert_eq!(s.row(0), &[3.0]);
        assert_eq!(s.row(1), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_row_checks_width() {
        let mut m = Matrix::with_cols(2);
        m.push_row(&[1.0]);
    }

    #[test]
    fn dataset_push_and_select() {
        let mut ds = Dataset::new(vec!["a".into(), "b".into()]);
        ds.push(&[1.0, 2.0], 10.0);
        ds.push(&[3.0, 4.0], 20.0);
        let s = ds.select(&[1]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.y, vec![20.0]);
    }
}
