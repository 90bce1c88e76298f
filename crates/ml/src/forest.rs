//! Random Forest regression (Breiman 2001): bootstrap-sampled trees with
//! per-split feature subsampling, averaged predictions, and MSE-purity
//! feature importances.
//!
//! The paper selects RFR for the balancing metrics and leans on its
//! interpretability for the feature-importance analysis of Table VII.

use crate::dataset::Matrix;
use crate::persist::{expect_tag, PersistError, Reader, Writer, TAG_FOREST};
use crate::rng::SplitMix64;
use crate::tree::{
    decode_trees, encode_trees, sum_predictions, BinnedMatrix, RegressionTree, TreeParams,
};
use crate::Regressor;

#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    pub n_trees: usize,
    pub max_depth: usize,
    pub min_samples_leaf: usize,
    /// Fraction of features considered per split (sqrt-like default 0.6).
    pub feature_fraction: f64,
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 60,
            max_depth: 14,
            min_samples_leaf: 2,
            feature_fraction: 0.6,
            seed: 0,
        }
    }
}

pub struct RandomForest {
    pub params: ForestParams,
    trees: Vec<RegressionTree>,
    n_features: usize,
}

impl RandomForest {
    pub fn new(params: ForestParams) -> Self {
        RandomForest { params, trees: Vec::new(), n_features: 0 }
    }

    /// Inverse of [`Regressor::encode`]. Prediction averages over the
    /// trees, so there must be at least one.
    pub fn decode(r: &mut Reader, width: usize) -> Result<Self, PersistError> {
        expect_tag(r, TAG_FOREST)?;
        let params = ForestParams {
            n_trees: r.take_usize()?,
            max_depth: r.take_usize()?,
            min_samples_leaf: r.take_usize()?,
            feature_fraction: r.take_f64()?,
            seed: r.take_u64()?,
        };
        let trees = decode_trees(r, width)?;
        if trees.is_empty() {
            return Err(PersistError::Corrupt("forest has no trees (never fitted)".into()));
        }
        Ok(RandomForest { params, trees, n_features: width })
    }
}

impl RandomForest {
    /// [`Regressor::fit`] on a matrix whose bins the caller already has.
    pub fn fit_binned(&mut self, x: &BinnedMatrix, y: &[f64]) {
        let (rows, cols) = (x.rows, x.binner.num_features());
        assert_eq!(rows, y.len());
        assert!(rows > 0, "empty training set");
        self.n_features = cols;
        let max_features =
            ((cols as f64 * self.params.feature_fraction).ceil() as usize).clamp(1, cols);
        self.trees.clear();
        let mut rng = SplitMix64::new(self.params.seed ^ 0xF0E5_7A11);
        let mut indices = vec![0u32; rows];
        let mut hists = Vec::new();
        for t in 0..self.params.n_trees {
            // bootstrap sample with replacement
            for slot in indices.iter_mut() {
                *slot = (rng.next_u64() % rows as u64) as u32;
            }
            let mut tree = RegressionTree::new(TreeParams {
                max_depth: self.params.max_depth,
                min_samples_split: self.params.min_samples_leaf * 2,
                min_samples_leaf: self.params.min_samples_leaf,
                max_features: Some(max_features),
                leaf_l2: 0.0,
                min_gain: 1e-12,
                seed: self.params.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            });
            tree.fit_binned_reusing(&x.bins, &x.binner, y, &mut indices, &mut hists);
            self.trees.push(tree);
        }
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        self.fit_binned(&BinnedMatrix::of(x), y);
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "fit before predict");
        self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// [`Regressor::predict_row`] of every row, tree by tree over all rows.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        assert!(!self.trees.is_empty(), "fit before predict");
        let n = self.trees.len() as f64;
        let mut sums = sum_predictions(&self.trees, x);
        for s in &mut sums {
            *s /= n;
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
        w.put_u8(TAG_FOREST);
        w.put_usize(self.params.n_trees);
        w.put_usize(self.params.max_depth);
        w.put_usize(self.params.min_samples_leaf);
        w.put_f64(self.params.feature_fraction);
        w.put_u64(self.params.seed);
        encode_trees(w, self.n_features, &self.trees);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    fn friedman_like(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        // nonlinear target over 4 features
        let mut rng = SplitMix64::new(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let f: Vec<f64> = (0..4).map(|_| rng.next_f64()).collect();
            y.push(10.0 * (f[0] * f[1]).sin() + 5.0 * f[2] + 2.0 * f[3] * f[3]);
            rows.push(f);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_nonlinear_function_well() {
        let (x, y) = friedman_like(600, 1);
        let (xt, yt) = friedman_like(200, 2);
        let mut f = RandomForest::new(ForestParams::default());
        f.fit(&x, &y);
        let pred = f.predict(&xt);
        let score = r2(&yt, &pred);
        assert!(score > 0.8, "r2={score}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = friedman_like(100, 3);
        let mut a = RandomForest::new(ForestParams { n_trees: 10, ..Default::default() });
        let mut b = RandomForest::new(ForestParams { n_trees: 10, ..Default::default() });
        a.fit(&x, &y);
        b.fit(&x, &y);
        for i in 0..x.rows {
            assert_eq!(a.predict_row(x.row(i)), b.predict_row(x.row(i)));
        }
    }

    #[test]
    fn importances_normalized_and_informative() {
        // feature 0 determines y; features 1,2 are noise
        let mut rng = SplitMix64::new(5);
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                vec![
                    f64::from(i % 30),
                    (rng.next_u64() % 100) as f64,
                    (rng.next_u64() % 100) as f64,
                ]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut f = RandomForest::new(ForestParams { n_trees: 20, ..Default::default() });
        f.fit(&x, &y);
        let imp = f.feature_importances().unwrap();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.8, "importances {imp:?}");
    }

    #[test]
    fn more_trees_do_not_hurt() {
        let (x, y) = friedman_like(300, 7);
        let (xt, yt) = friedman_like(150, 8);
        let mut small = RandomForest::new(ForestParams { n_trees: 3, ..Default::default() });
        let mut large = RandomForest::new(ForestParams { n_trees: 60, ..Default::default() });
        small.fit(&x, &y);
        large.fit(&x, &y);
        let r_small = r2(&yt, &small.predict(&xt));
        let r_large = r2(&yt, &large.predict(&xt));
        assert!(r_large >= r_small - 0.05, "small {r_small} large {r_large}");
    }
}
