//! Polynomial regression: degree-d feature expansion feeding a ridge solve.

use crate::dataset::Matrix;
use crate::linear::Ridge;
use crate::persist::{expect_tag, PersistError, Reader, Writer, TAG_POLY};
use crate::Regressor;

/// Polynomial regression of degree 1–3.
///
/// Degree 2 expands to all pairwise products `x_i·x_j (i ≤ j)`; degree 3
/// additionally adds univariate cubes (the full cubic basis would explode
/// combinatorially on one-hot-heavy feature vectors).
#[derive(Debug, Clone)]
pub struct PolynomialRegression {
    pub degree: usize,
    pub alpha: f64,
    inner: Ridge,
}

impl PolynomialRegression {
    pub fn new(degree: usize, alpha: f64) -> Self {
        assert!((1..=3).contains(&degree), "degree must be 1..=3");
        PolynomialRegression { degree, alpha, inner: Ridge::new(alpha) }
    }

    /// Inverse of [`Regressor::encode`]: the degree is held to the range
    /// [`PolynomialRegression::new`] asserts, and the solve is a ridge —
    /// no other model tag is accepted in its place.
    pub fn decode(r: &mut Reader, width: usize) -> Result<Self, PersistError> {
        expect_tag(r, TAG_POLY)?;
        let degree = r.take_usize()?;
        if !(1..=3).contains(&degree) {
            return Err(PersistError::Corrupt(format!("poly degree {degree} out of 1..=3")));
        }
        // what `expand` makes of a `width`-wide row: the row, its pairwise
        // products from degree 2, its cubes at degree 3
        let expanded = width
            + if degree >= 2 { width * (width + 1) / 2 } else { 0 }
            + if degree >= 3 { width } else { 0 };
        Ok(PolynomialRegression {
            degree,
            alpha: r.take_f64()?,
            inner: Ridge::decode(r, expanded)?,
        })
    }

    fn expand(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(row);
        if self.degree >= 2 {
            for i in 0..row.len() {
                for j in i..row.len() {
                    out.push(row[i] * row[j]);
                }
            }
        }
        if self.degree >= 3 {
            for &v in row {
                out.push(v * v * v);
            }
        }
    }

    fn expand_matrix(&self, x: &Matrix) -> Matrix {
        let mut buf = Vec::new();
        self.expand(x.row(0), &mut buf);
        let mut out = Matrix::with_capacity(x.rows, buf.len());
        out.push_row(&buf);
        for i in 1..x.rows {
            self.expand(x.row(i), &mut buf);
            out.push_row(&buf);
        }
        out
    }
}

impl PolynomialRegression {
    /// One fitted copy of this configuration per label vector in `ys`: the
    /// expansion of `x` is built once and solved by
    /// [`Ridge::fit_labels`]. [`Regressor::fit`] is this with one label.
    pub fn fit_labels(&self, x: &Matrix, ys: &[&[f64]]) -> Vec<PolynomialRegression> {
        assert!(x.rows > 0);
        let (degree, alpha) = (self.degree, self.alpha);
        Ridge::new(alpha)
            .fit_labels(&self.expand_matrix(x), ys)
            .into_iter()
            .map(|inner| PolynomialRegression { degree, alpha, inner })
            .collect()
    }
}

impl Regressor for PolynomialRegression {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        *self = self.fit_labels(x, &[y]).pop().expect("one label, one model");
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut buf = Vec::new();
        self.expand(row, &mut buf);
        self.inner.predict_row(&buf)
    }

    /// [`Regressor::predict_row`] of every row, each expanded into one
    /// reused buffer.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let mut buf = Vec::new();
        (0..x.rows)
            .map(|i| {
                self.expand(x.row(i), &mut buf);
                self.inner.predict_row(&buf)
            })
            .collect()
    }

    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_POLY);
        w.put_usize(self.degree);
        w.put_f64(self.alpha);
        self.inner.encode(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_a_quadratic_exactly() {
        // y = x² - 2x + 1
        let xs: Vec<f64> = (-5..=5).map(f64::from).collect();
        let x = Matrix::from_rows(&xs.iter().map(|&v| vec![v]).collect::<Vec<_>>());
        let y: Vec<f64> = xs.iter().map(|v| v * v - 2.0 * v + 1.0).collect();
        let mut m = PolynomialRegression::new(2, 1e-8);
        m.fit(&x, &y);
        for v in [-3.0, 0.5, 7.0] {
            let expect = v * v - 2.0 * v + 1.0;
            assert!((m.predict_row(&[v]) - expect).abs() < 1e-4, "v={v}");
        }
    }

    #[test]
    fn degree_one_is_linear() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let y = vec![1.0, 3.0, 5.0];
        let mut m = PolynomialRegression::new(1, 1e-8);
        m.fit(&x, &y);
        assert!((m.predict_row(&[3.0]) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn interaction_terms_present_for_degree_two() {
        // y = x0 * x1 is only learnable with interactions
        let rows: Vec<Vec<f64>> =
            (0..16).map(|i| vec![f64::from(i % 4), f64::from(i / 4)]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[1]).collect();
        let x = Matrix::from_rows(&rows);
        let mut m = PolynomialRegression::new(2, 1e-8);
        m.fit(&x, &y);
        assert!((m.predict_row(&[2.0, 3.0]) - 6.0).abs() < 1e-4);
    }

    #[test]
    fn cubic_term_improves_cubic_fit() {
        let xs: Vec<f64> = (-6..=6).map(f64::from).collect();
        let x = Matrix::from_rows(&xs.iter().map(|&v| vec![v]).collect::<Vec<_>>());
        let y: Vec<f64> = xs.iter().map(|v| v * v * v).collect();
        let mut quad = PolynomialRegression::new(2, 1e-8);
        let mut cube = PolynomialRegression::new(3, 1e-8);
        quad.fit(&x, &y);
        cube.fit(&x, &y);
        let err = |m: &PolynomialRegression| (m.predict_row(&[4.0]) - 64.0).abs();
        assert!(err(&cube) < 1e-3);
        assert!(err(&quad) > 1.0);
    }

    #[test]
    #[should_panic(expected = "degree must be")]
    fn rejects_degree_zero() {
        let _ = PolynomialRegression::new(0, 1.0);
    }
}
