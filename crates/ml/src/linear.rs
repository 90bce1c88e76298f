//! Ridge-regularized linear least squares via the normal equations and a
//! Cholesky solve. The building block for polynomial regression.

use crate::dataset::Matrix;
use crate::persist::{expect_tag, expect_width, PersistError, Reader, Writer, TAG_RIDGE};
use crate::Regressor;

/// Ridge regression `min ‖Xw − y‖² + α‖w‖²` (intercept un-penalized,
/// handled by centering).
#[derive(Debug, Clone)]
pub struct Ridge {
    pub alpha: f64,
    weights: Vec<f64>,
    intercept: f64,
}

impl Ridge {
    pub fn new(alpha: f64) -> Self {
        assert!(alpha >= 0.0);
        Ridge { alpha, weights: Vec::new(), intercept: 0.0 }
    }

    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Inverse of [`Regressor::encode`]. Prediction zips weights against
    /// the row, so there must be one weight per feature of a `width`-wide row.
    pub fn decode(r: &mut Reader, width: usize) -> Result<Self, PersistError> {
        expect_tag(r, TAG_RIDGE)?;
        let (alpha, weights) = (r.take_f64()?, r.take_f64s()?);
        expect_width("ridge", weights.len(), width)?;
        Ok(Ridge { alpha, weights, intercept: r.take_f64()? })
    }
}

/// Cholesky factorization of a symmetric positive-definite matrix stored
/// row-major; returns the lower factor L with A = L·Lᵀ, or `None` if the
/// matrix is not positive definite.
fn cholesky(a: &[f64], n: usize) -> Option<Vec<f64>> {
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Some(l)
}

/// Solve A·x = b given the Cholesky factor L (forward + back substitution).
fn cholesky_solve(l: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * n + k] * y[k];
        }
        y[i] = sum / l[i * n + i];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
    x
}

impl Ridge {
    /// One fitted copy of this configuration per label vector in `ys`, all
    /// over the rows of `x`. The column means, the centred Gram matrix
    /// `XcᵀXc + αI` and its Cholesky factor are functions of `x` and `alpha`
    /// alone and are built
    /// once; a label costs its right-hand side `Xcᵀyc` and two triangular
    /// solves. [`Regressor::fit`] is this with one label.
    pub fn fit_labels(&self, x: &Matrix, ys: &[&[f64]]) -> Vec<Ridge> {
        let alpha = self.alpha;
        assert!(x.rows > 0, "empty training set");
        let d = x.cols;
        // center features and target so the intercept needs no penalty
        let mut x_mean = vec![0.0; d];
        for i in 0..x.rows {
            for (j, v) in x.row(i).iter().enumerate() {
                x_mean[j] += v;
            }
        }
        for m in &mut x_mean {
            *m /= x.rows as f64;
        }
        let mut gram = vec![0.0; d * d];
        let mut centred = vec![0.0; d];
        for i in 0..x.rows {
            for ((c, v), m) in centred.iter_mut().zip(x.row(i)).zip(&x_mean) {
                *c = v - m;
            }
            for a in 0..d {
                let va = centred[a];
                for (g, vb) in gram[a * d + a..(a + 1) * d].iter_mut().zip(&centred[a..]) {
                    *g += va * vb;
                }
            }
        }
        for a in 0..d {
            for b in 0..a {
                gram[a * d + b] = gram[b * d + a];
            }
            gram[a * d + a] += alpha.max(1e-10);
        }
        // escalate regularization until the Gram matrix factorizes
        let mut boost = 1.0;
        let l = loop {
            if let Some(l) = cholesky(&gram, d) {
                break l;
            }
            for a in 0..d {
                gram[a * d + a] += boost;
            }
            boost *= 10.0;
            assert!(boost < 1e12, "Gram matrix hopelessly singular");
        };
        ys.iter()
            .map(|y| {
                assert_eq!(x.rows, y.len());
                let y_mean = y.iter().sum::<f64>() / y.len() as f64;
                let mut rhs = vec![0.0; d];
                for (i, yi) in y.iter().enumerate() {
                    let yc = yi - y_mean;
                    for ((r, v), m) in rhs.iter_mut().zip(x.row(i)).zip(&x_mean) {
                        *r += (v - m) * yc;
                    }
                }
                let weights = cholesky_solve(&l, &rhs, d);
                let intercept =
                    y_mean - weights.iter().zip(&x_mean).map(|(w, m)| w * m).sum::<f64>();
                Ridge { alpha, weights, intercept }
            })
            .collect()
    }
}

impl Regressor for Ridge {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        *self = self.fit_labels(x, &[y]).pop().expect("one label, one model");
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.intercept + self.weights.iter().zip(row).map(|(w, v)| w * v).sum::<f64>()
    }

    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_RIDGE);
        w.put_f64(self.alpha);
        w.put_f64s(&self.weights);
        w.put_f64(self.intercept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_function() {
        // y = 2a - 3b + 5
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![2.0, 1.0],
            vec![3.0, -1.0],
            vec![-1.0, 2.0],
        ]);
        let y: Vec<f64> = (0..5).map(|i| 2.0 * x.get(i, 0) - 3.0 * x.get(i, 1) + 5.0).collect();
        let mut m = Ridge::new(1e-8);
        m.fit(&x, &y);
        assert!((m.weights()[0] - 2.0).abs() < 1e-5);
        assert!((m.weights()[1] + 3.0).abs() < 1e-5);
        assert!((m.predict_row(&[10.0, 10.0]) - (20.0 - 30.0 + 5.0)).abs() < 1e-4);
    }

    #[test]
    fn heavy_regularization_shrinks_weights() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![2.0, 4.0, 6.0];
        let mut loose = Ridge::new(1e-8);
        let mut tight = Ridge::new(1e6);
        loose.fit(&x, &y);
        tight.fit(&x, &y);
        assert!(tight.weights()[0].abs() < 0.1 * loose.weights()[0].abs());
    }

    #[test]
    fn collinear_features_still_solvable() {
        // second column is an exact copy of the first
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let y = vec![1.0, 2.0, 3.0];
        let mut m = Ridge::new(1e-6);
        m.fit(&x, &y);
        let p = m.predict_row(&[4.0, 4.0]);
        assert!((p - 4.0).abs() < 1e-3, "p={p}");
    }

    #[test]
    fn many_label_solve_equals_single_fits() {
        // five label vectors over one matrix, one column an exact copy of
        // another (the shared Gram matrix is singular before the ridge)
        let mut rng = crate::rng::SplitMix64::new(3);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|_| {
                let mut r: Vec<f64> = (0..5).map(|_| rng.next_f64()).collect();
                r.push(r[0]);
                r
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let ys: Vec<Vec<f64>> = (0..5)
            .map(|l| rows.iter().map(|r| r[l] * (l as f64 + 1.0) - r[(l + 1) % 5]).collect())
            .collect();
        let encoded = |m: &Ridge| {
            let mut w = Writer::new();
            m.encode(&mut w);
            w.into_bytes()
        };
        for alpha in [0.0, 1e-3] {
            let labels: Vec<&[f64]> = ys.iter().map(Vec::as_slice).collect();
            let many = Ridge::new(alpha).fit_labels(&x, &labels);
            assert_eq!(many.len(), ys.len());
            for (y, shared) in ys.iter().zip(&many) {
                let mut single = Ridge::new(alpha);
                single.fit(&x, y);
                assert_eq!(encoded(&single), encoded(shared), "alpha {alpha}");
            }
        }
        assert!(Ridge::new(1.0).fit_labels(&x, &[]).is_empty());
    }

    #[test]
    fn cholesky_identity() {
        let a = vec![4.0, 2.0, 2.0, 3.0];
        let l = cholesky(&a, 2).unwrap();
        let x = cholesky_solve(&l, &[8.0, 7.0], 2);
        // solve [[4,2],[2,3]] x = [8,7] -> x = [1.25, 1.5]
        assert!((x[0] - 1.25).abs() < 1e-12);
        assert!((x[1] - 1.5).abs() < 1e-12);
    }
}
