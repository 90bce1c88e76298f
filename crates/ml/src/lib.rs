//! From-scratch regression model zoo for the EASE reproduction.
//!
//! The paper compares six supervised learning families (Sec. IV-C):
//! Polynomial Regression, Support Vector Regression, Random Forest
//! Regression, Extreme Gradient Boosting, K-Nearest Neighbors and a
//! fully-connected MLP. No ML crates exist in the allowed dependency set,
//! so this crate implements all of them, plus the supporting machinery the
//! paper uses: z-score standardization, one-hot encoding, K-fold
//! cross-validation, grid search, and the RMSE/MAPE evaluation metrics.
//!
//! All models implement [`Regressor`] — fit, predict, and write their own
//! bytes ([`persist`]); [`zoo::default_grid`] exposes the hyper-parameter
//! grid used for model selection.

pub mod cv;
pub mod dataset;
pub mod forest;
pub mod gbt;
pub mod knn;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod persist;
pub mod poly;
pub mod preprocess;
pub(crate) mod rng;
pub mod svr;
pub mod tree;
pub mod zoo;

pub use dataset::{Dataset, Matrix};
pub use metrics::{mae, mape, r2, rmse};
pub use persist::{PersistError, Reader, Writer};
pub use preprocess::{OneHotEncoder, ScaledModel, StandardScaler};
pub use zoo::{ModelConfig, ModelKind};

/// A regression model: fit on a feature matrix + targets, predict rows.
///
/// `Send + Sync` so trained models can serve concurrent queries behind a
/// shared reference (the serve daemon's executor pool).
pub trait Regressor: Send + Sync {
    fn fit(&mut self, x: &Matrix, y: &[f64]);

    fn predict_row(&self, row: &[f64]) -> f64;

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows).map(|i| self.predict_row(x.row(i))).collect()
    }

    /// Per-feature importance scores summing to 1, if the model supports
    /// them (tree ensembles — used for the paper's Table VII).
    fn feature_importances(&self) -> Option<Vec<f64>> {
        None
    }

    /// Write the *fitted* state: the model's tag byte, then its fields
    /// (`f64`s as raw bits, so a reload predicts bit-identically). The
    /// inverse is the model's inherent `decode`, or
    /// [`persist::decode_regressor`] when the family is not known.
    fn encode(&self, w: &mut Writer);
}
