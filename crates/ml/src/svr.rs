//! ε-Support Vector Regression with an RBF kernel, trained by exact
//! coordinate descent on the (bias-free) dual:
//!
//! ```text
//! min_β  ½ βᵀKβ − βᵀy + ε‖β‖₁   s.t. |β_i| ≤ C
//! ```
//!
//! The coordinate update has the closed form
//! `β_i ← clip(soft(y_i − f_i + β_i·K_ii, ε) / K_ii, ±C)`; with an RBF
//! kernel `K_ii = 1`. The bias is handled by centering the targets.
//!
//! Kernel SVR is inherently O(n²) in memory and time, so training sets
//! larger than [`SvrParams::max_train`] rows are deterministically
//! subsampled — the standard mitigation (the paper's SVR also never wins a
//! component, it is one of the compared families).

use crate::dataset::Matrix;
use crate::persist::{expect_tag, expect_width, PersistError, Reader, Writer, TAG_SVR};
use crate::Regressor;

#[derive(Debug, Clone, PartialEq)]
pub struct SvrParams {
    pub c: f64,
    pub epsilon: f64,
    /// RBF width: `K(a,b) = exp(−γ‖a−b‖²)`.
    pub gamma: f64,
    pub max_passes: usize,
    pub tol: f64,
    /// Cap on training rows (uniform deterministic subsample beyond it).
    pub max_train: usize,
}

impl Default for SvrParams {
    fn default() -> Self {
        SvrParams {
            c: 10.0,
            epsilon: 0.01,
            gamma: 0.5,
            max_passes: 60,
            tol: 1e-5,
            max_train: 1_500,
        }
    }
}

pub struct SvrRegressor {
    pub params: SvrParams,
    support: Matrix,
    beta: Vec<f64>,
    bias: f64,
}

impl SvrRegressor {
    pub fn new(params: SvrParams) -> Self {
        SvrRegressor { params, support: Matrix::with_cols(0), beta: Vec::new(), bias: 0.0 }
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        (-self.params.gamma * d2).exp()
    }

    /// Number of support vectors (non-zero duals) after fitting.
    pub fn num_support_vectors(&self) -> usize {
        self.beta.iter().filter(|b| b.abs() > 1e-12).count()
    }

    /// Inverse of [`Regressor::encode`]. Prediction walks the duals and
    /// reads one support row per dual, so the two must agree in number.
    pub fn decode(r: &mut Reader, width: usize) -> Result<Self, PersistError> {
        expect_tag(r, TAG_SVR)?;
        let params = SvrParams {
            c: r.take_f64()?,
            epsilon: r.take_f64()?,
            gamma: r.take_f64()?,
            max_passes: r.take_usize()?,
            tol: r.take_f64()?,
            max_train: r.take_usize()?,
        };
        let support = Matrix::decode(r)?;
        expect_width("svr", support.cols, width)?;
        let beta = r.take_f64s()?;
        if beta.len() != support.rows {
            return Err(PersistError::Corrupt(format!(
                "svr: {} duals for {} support vectors",
                beta.len(),
                support.rows
            )));
        }
        Ok(SvrRegressor { params, support, beta, bias: r.take_f64()? })
    }
}

fn soft_threshold(u: f64, eps: f64) -> f64 {
    if u > eps {
        u - eps
    } else if u < -eps {
        u + eps
    } else {
        0.0
    }
}

impl Regressor for SvrRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        assert_eq!(x.rows, y.len());
        assert!(x.rows > 0, "empty training set");
        // deterministic stride subsample if oversized
        let (x, y): (Matrix, Vec<f64>) = if x.rows > self.params.max_train {
            let stride = x.rows as f64 / self.params.max_train as f64;
            let idx: Vec<usize> =
                (0..self.params.max_train).map(|i| (i as f64 * stride) as usize).collect();
            (x.select(&idx), idx.iter().map(|&i| y[i]).collect())
        } else {
            (x.clone(), y.to_vec())
        };
        let n = x.rows;
        self.bias = y.iter().sum::<f64>() / n as f64;
        let yc: Vec<f64> = y.iter().map(|v| v - self.bias).collect();
        // kernel matrix
        let mut kmat = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let k = self.kernel(x.row(i), x.row(j));
                kmat[i * n + j] = k;
                kmat[j * n + i] = k;
            }
        }
        let mut beta = vec![0.0f64; n];
        let mut f = vec![0.0f64; n]; // f_i = Σ_j β_j K_ij
        for _ in 0..self.params.max_passes {
            let mut max_delta = 0.0f64;
            for i in 0..n {
                let kii = kmat[i * n + i].max(1e-12);
                let u = yc[i] - (f[i] - beta[i] * kii);
                let new = (soft_threshold(u, self.params.epsilon) / kii)
                    .clamp(-self.params.c, self.params.c);
                let delta = new - beta[i];
                if delta != 0.0 {
                    beta[i] = new;
                    let row = &kmat[i * n..(i + 1) * n];
                    for (fj, kij) in f.iter_mut().zip(row) {
                        *fj += delta * kij;
                    }
                }
                max_delta = max_delta.max(delta.abs());
            }
            if max_delta < self.params.tol {
                break;
            }
        }
        // keep only support vectors for prediction
        let keep: Vec<usize> = (0..n).filter(|&i| beta[i].abs() > 1e-12).collect();
        self.support = x.select(&keep);
        self.beta = keep.iter().map(|&i| beta[i]).collect();
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut sum = self.bias;
        for (i, b) in self.beta.iter().enumerate() {
            sum += b * self.kernel(self.support.row(i), row);
        }
        sum
    }

    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_SVR);
        w.put_f64(self.params.c);
        w.put_f64(self.params.epsilon);
        w.put_f64(self.params.gamma);
        w.put_usize(self.params.max_passes);
        w.put_f64(self.params.tol);
        w.put_usize(self.params.max_train);
        self.support.encode(w);
        w.put_f64s(&self.beta);
        w.put_f64(self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;

    fn sine_data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![i as f64 / n as f64 * std::f64::consts::TAU]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sin()).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_a_smooth_function() {
        let (x, y) = sine_data(80);
        let mut m = SvrRegressor::new(SvrParams::default());
        m.fit(&x, &y);
        let pred = m.predict(&x);
        let err = rmse(&y, &pred);
        assert!(err < 0.08, "rmse {err}");
    }

    #[test]
    fn epsilon_tube_sparsifies() {
        let (x, y) = sine_data(60);
        let mut tight = SvrRegressor::new(SvrParams { epsilon: 0.001, ..Default::default() });
        let mut loose = SvrRegressor::new(SvrParams { epsilon: 0.3, ..Default::default() });
        tight.fit(&x, &y);
        loose.fit(&x, &y);
        assert!(
            loose.num_support_vectors() < tight.num_support_vectors(),
            "loose {} tight {}",
            loose.num_support_vectors(),
            tight.num_support_vectors()
        );
    }

    #[test]
    fn subsampling_cap_applies() {
        let (x, y) = sine_data(300);
        let mut m = SvrRegressor::new(SvrParams { max_train: 50, ..Default::default() });
        m.fit(&x, &y);
        assert!(m.support.rows <= 50);
        // still a decent fit
        assert!(rmse(&y, &m.predict(&x)) < 0.2);
    }

    #[test]
    fn constant_targets_predict_bias() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let y = vec![5.0, 5.0, 5.0];
        let mut m = SvrRegressor::new(SvrParams::default());
        m.fit(&x, &y);
        assert!((m.predict_row(&[0.7]) - 5.0).abs() < 0.05);
        assert_eq!(m.num_support_vectors(), 0);
    }
}
