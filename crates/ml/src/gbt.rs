//! Gradient-boosted regression trees, XGBoost-flavoured (Chen & Guestrin,
//! KDD 2016): squared loss, shrinkage, L2 leaf regularization, minimum
//! split gain, and row subsampling.
//!
//! For squared loss the boosting step reduces to fitting each tree on the
//! current residuals with leaf values `Σr / (n + λ)` — exactly the
//! second-order XGB leaf weight with hessian 1.

use crate::dataset::Matrix;
use crate::persist::{expect_tag, PersistError, Reader, Writer, TAG_GBT};
use crate::rng::SplitMix64;
use crate::tree::{
    decode_trees, encode_trees, sum_predictions, BinnedMatrix, RegressionTree, TreeParams,
};
use crate::Regressor;

#[derive(Debug, Clone, PartialEq)]
pub struct GbtParams {
    pub n_estimators: usize,
    pub learning_rate: f64,
    pub max_depth: usize,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Minimum split gain γ.
    pub gamma: f64,
    /// Row subsampling fraction per boosting round.
    pub subsample: f64,
    pub min_samples_leaf: usize,
    pub seed: u64,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            n_estimators: 120,
            learning_rate: 0.1,
            max_depth: 5,
            lambda: 1.0,
            gamma: 1e-9,
            subsample: 0.9,
            min_samples_leaf: 2,
            seed: 0,
        }
    }
}

pub struct GradientBoosting {
    pub params: GbtParams,
    base: f64,
    trees: Vec<RegressionTree>,
    n_features: usize,
}

impl GradientBoosting {
    pub fn new(params: GbtParams) -> Self {
        GradientBoosting { params, base: 0.0, trees: Vec::new(), n_features: 0 }
    }

    /// Inverse of [`Regressor::encode`]. Prediction is the base plus a sum
    /// over the trees, so any number of them — none included — is valid.
    pub fn decode(r: &mut Reader, width: usize) -> Result<Self, PersistError> {
        expect_tag(r, TAG_GBT)?;
        let params = GbtParams {
            n_estimators: r.take_usize()?,
            learning_rate: r.take_f64()?,
            max_depth: r.take_usize()?,
            lambda: r.take_f64()?,
            gamma: r.take_f64()?,
            subsample: r.take_f64()?,
            min_samples_leaf: r.take_usize()?,
            seed: r.take_u64()?,
        };
        let base = r.take_f64()?;
        Ok(GradientBoosting { params, base, trees: decode_trees(r, width)?, n_features: width })
    }
}

impl GradientBoosting {
    /// [`Regressor::fit`] on a matrix whose bins — `binned`, of `x` — the
    /// caller already has.
    pub fn fit_binned(&mut self, x: &Matrix, binned: &BinnedMatrix, y: &[f64]) {
        assert_eq!(x.rows, y.len());
        assert_eq!(x.rows, binned.rows);
        assert!(x.rows > 0, "empty training set");
        self.n_features = x.cols;
        self.base = y.iter().sum::<f64>() / y.len() as f64;
        self.trees.clear();
        let mut pred = vec![self.base; x.rows];
        let mut residual = vec![0.0; x.rows];
        let mut rng = SplitMix64::new(self.params.seed ^ 0x6B7);
        let sample_size =
            ((x.rows as f64 * self.params.subsample).round() as usize).clamp(1, x.rows);
        let mut indices: Vec<u32> = Vec::with_capacity(sample_size);
        let mut hists = Vec::new();
        for round in 0..self.params.n_estimators {
            for i in 0..x.rows {
                residual[i] = y[i] - pred[i];
            }
            indices.clear();
            if sample_size == x.rows {
                indices.extend(0..x.rows as u32);
            } else {
                for _ in 0..sample_size {
                    indices.push((rng.next_u64() % x.rows as u64) as u32);
                }
            }
            let mut tree = RegressionTree::new(TreeParams {
                max_depth: self.params.max_depth,
                min_samples_split: self.params.min_samples_leaf * 2,
                min_samples_leaf: self.params.min_samples_leaf,
                max_features: None,
                leaf_l2: self.params.lambda,
                min_gain: self.params.gamma,
                seed: self.params.seed ^ (round as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
            });
            tree.fit_binned_reusing(
                &binned.bins,
                &binned.binner,
                &residual,
                &mut indices,
                &mut hists,
            );
            for i in 0..x.rows {
                pred[i] += self.params.learning_rate * tree.predict_row(x.row(i));
            }
            self.trees.push(tree);
        }
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        self.fit_binned(x, &BinnedMatrix::of(x), y);
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.base
            + self.params.learning_rate * self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }

    /// [`Regressor::predict_row`] of every row, tree by tree over all rows.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let mut sums = sum_predictions(&self.trees, x);
        for s in &mut sums {
            *s = self.base + self.params.learning_rate * *s;
        }
        sums
    }

    fn feature_importances(&self) -> Option<Vec<f64>> {
        let mut total = vec![0.0; self.n_features];
        for t in &self.trees {
            for (acc, v) in total.iter_mut().zip(t.raw_importances()) {
                *acc += v;
            }
        }
        let sum: f64 = total.iter().sum();
        if sum > 0.0 {
            for v in &mut total {
                *v /= sum;
            }
        }
        Some(total)
    }

    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_GBT);
        w.put_usize(self.params.n_estimators);
        w.put_f64(self.params.learning_rate);
        w.put_usize(self.params.max_depth);
        w.put_f64(self.params.lambda);
        w.put_f64(self.params.gamma);
        w.put_f64(self.params.subsample);
        w.put_usize(self.params.min_samples_leaf);
        w.put_u64(self.params.seed);
        w.put_f64(self.base);
        encode_trees(w, self.n_features, &self.trees);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{r2, rmse};

    fn wave(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.next_f64() * 6.0;
            let b = rng.next_f64();
            y.push(a.sin() * 3.0 + b * b);
            rows.push(vec![a, b]);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn outperforms_single_tree() {
        let (x, y) = wave(500, 1);
        let (xt, yt) = wave(200, 2);
        let mut gbt = GradientBoosting::new(GbtParams::default());
        gbt.fit(&x, &y);
        let mut tree = RegressionTree::new(TreeParams { max_depth: 3, ..Default::default() });
        crate::Regressor::fit(&mut tree, &x, &y);
        let e_gbt = rmse(&yt, &gbt.predict(&xt));
        let e_tree = rmse(&yt, &tree.predict(&xt));
        assert!(e_gbt < e_tree, "gbt {e_gbt} vs tree {e_tree}");
        assert!(r2(&yt, &gbt.predict(&xt)) > 0.9);
    }

    #[test]
    fn zero_rounds_predicts_the_mean() {
        let (x, y) = wave(50, 3);
        let mut gbt = GradientBoosting::new(GbtParams { n_estimators: 0, ..Default::default() });
        gbt.fit(&x, &y);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((gbt.predict_row(x.row(0)) - mean).abs() < 1e-12);
    }

    #[test]
    fn shrinkage_regularizes() {
        // with huge lambda, every leaf shrinks toward zero: predictions stay
        // near the base value
        let (x, y) = wave(100, 4);
        let mut tight = GradientBoosting::new(GbtParams {
            lambda: 1e9,
            n_estimators: 20,
            ..Default::default()
        });
        tight.fit(&x, &y);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        for i in 0..5 {
            assert!((tight.predict_row(x.row(i)) - mean).abs() < 0.05);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = wave(120, 9);
        let mut a = GradientBoosting::new(GbtParams { n_estimators: 15, ..Default::default() });
        let mut b = GradientBoosting::new(GbtParams { n_estimators: 15, ..Default::default() });
        a.fit(&x, &y);
        b.fit(&x, &y);
        for i in 0..10 {
            assert_eq!(a.predict_row(x.row(i)), b.predict_row(x.row(i)));
        }
    }
}
