//! The model zoo: one configuration enum covering all six families the
//! paper compares — its variant is the family, [`ModelConfig::name`] the
//! name the paper prints — plus the default hyper-parameter grid for model
//! selection.

use crate::forest::{ForestParams, RandomForest};
use crate::gbt::{GbtParams, GradientBoosting};
use crate::knn::{KnnRegressor, KnnWeights};
use crate::mlp::{MlpParams, MlpRegressor};
use crate::poly::PolynomialRegression;
use crate::preprocess::ScaledModel;
use crate::svr::{SvrParams, SvrRegressor};
use crate::Regressor;

/// A buildable model configuration (hyper-parameter point).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelConfig {
    Poly { degree: usize, alpha: f64 },
    Svr { c: f64, epsilon: f64, gamma: f64 },
    Forest { n_trees: usize, max_depth: usize, feature_fraction: f64 },
    Xgb { n_estimators: usize, learning_rate: f64, max_depth: usize, lambda: f64 },
    Knn { k: usize, distance_weighted: bool },
    Mlp { hidden: Vec<usize>, epochs: usize, learning_rate: f64 },
}

/// A configuration's unfitted model under its own type, without the z-score
/// pipeline [`ModelConfig::build`] wraps the scale-sensitive families in.
/// Model selection fits these, so that a family can be handed what a fold
/// shares between label vectors (and the z-scores every family shares).
pub(crate) enum Family {
    Poly(PolynomialRegression),
    Svr(SvrRegressor),
    Forest(RandomForest),
    Xgb(GradientBoosting),
    Knn(KnnRegressor),
    Mlp(MlpRegressor),
}

impl ModelConfig {
    /// The family's name as the paper prints it in Tables V/VI.
    pub fn name(&self) -> &'static str {
        match self {
            ModelConfig::Poly { .. } => "PolyRegression",
            ModelConfig::Svr { .. } => "SVR",
            ModelConfig::Forest { .. } => "RFR",
            ModelConfig::Xgb { .. } => "XGB",
            ModelConfig::Knn { .. } => "KNN",
            ModelConfig::Mlp { .. } => "MLP",
        }
    }

    /// The configuration's model before any pipeline is put around it.
    pub(crate) fn family(&self) -> Family {
        match self {
            ModelConfig::Poly { degree, alpha } => {
                Family::Poly(PolynomialRegression::new(*degree, *alpha))
            }
            ModelConfig::Svr { c, epsilon, gamma } => Family::Svr(SvrRegressor::new(SvrParams {
                c: *c,
                epsilon: *epsilon,
                gamma: *gamma,
                ..Default::default()
            })),
            ModelConfig::Forest { n_trees, max_depth, feature_fraction } => {
                Family::Forest(RandomForest::new(ForestParams {
                    n_trees: *n_trees,
                    max_depth: *max_depth,
                    feature_fraction: *feature_fraction,
                    ..Default::default()
                }))
            }
            ModelConfig::Xgb { n_estimators, learning_rate, max_depth, lambda } => {
                Family::Xgb(GradientBoosting::new(GbtParams {
                    n_estimators: *n_estimators,
                    learning_rate: *learning_rate,
                    max_depth: *max_depth,
                    lambda: *lambda,
                    ..Default::default()
                }))
            }
            ModelConfig::Knn { k, distance_weighted } => {
                let weights =
                    if *distance_weighted { KnnWeights::Distance } else { KnnWeights::Uniform };
                Family::Knn(KnnRegressor::new(*k, weights))
            }
            ModelConfig::Mlp { hidden, epochs, learning_rate } => {
                Family::Mlp(MlpRegressor::new(MlpParams {
                    hidden: hidden.clone(),
                    epochs: *epochs,
                    learning_rate: *learning_rate,
                    ..Default::default()
                }))
            }
        }
    }

    /// Instantiate the model. Scale-sensitive families (SVR, KNN, MLP, and
    /// polynomial ridge) are wrapped in a z-score pipeline, matching the
    /// paper's preprocessing.
    pub fn build(&self) -> Box<dyn Regressor> {
        fn scaled(model: impl Regressor + 'static) -> Box<dyn Regressor> {
            Box::new(ScaledModel::new(Box::new(model)))
        }
        match self.family() {
            Family::Poly(m) => scaled(m),
            Family::Svr(m) => scaled(m),
            Family::Forest(m) => Box::new(m),
            Family::Xgb(m) => Box::new(m),
            Family::Knn(m) => scaled(m),
            Family::Mlp(m) => scaled(m),
        }
    }

    /// Short description for reports.
    pub fn describe(&self) -> String {
        match self {
            ModelConfig::Poly { degree, alpha } => format!("poly(d={degree},a={alpha})"),
            ModelConfig::Svr { c, epsilon, gamma } => format!("svr(C={c},e={epsilon},g={gamma})"),
            ModelConfig::Forest { n_trees, max_depth, feature_fraction } => {
                format!("rfr(t={n_trees},d={max_depth},f={feature_fraction})")
            }
            ModelConfig::Xgb { n_estimators, learning_rate, max_depth, lambda } => {
                format!("xgb(n={n_estimators},lr={learning_rate},d={max_depth},l={lambda})")
            }
            ModelConfig::Knn { k, distance_weighted } => {
                format!("knn(k={k},dw={distance_weighted})")
            }
            ModelConfig::Mlp { hidden, epochs, learning_rate } => {
                format!("mlp(h={hidden:?},e={epochs},lr={learning_rate})")
            }
        }
    }
}

/// The default hyper-parameter grid across all six families — a compact
/// version of the paper repository's grid, sized for laptop-scale training.
pub fn default_grid() -> Vec<ModelConfig> {
    vec![
        ModelConfig::Poly { degree: 1, alpha: 1e-4 },
        ModelConfig::Poly { degree: 2, alpha: 1e-3 },
        ModelConfig::Svr { c: 10.0, epsilon: 0.01, gamma: 0.5 },
        ModelConfig::Svr { c: 100.0, epsilon: 0.05, gamma: 0.1 },
        ModelConfig::Forest { n_trees: 60, max_depth: 14, feature_fraction: 0.6 },
        ModelConfig::Forest { n_trees: 100, max_depth: 18, feature_fraction: 0.8 },
        ModelConfig::Xgb { n_estimators: 150, learning_rate: 0.1, max_depth: 5, lambda: 1.0 },
        ModelConfig::Xgb { n_estimators: 250, learning_rate: 0.05, max_depth: 7, lambda: 1.0 },
        ModelConfig::Knn { k: 5, distance_weighted: true },
        ModelConfig::Knn { k: 9, distance_weighted: false },
        ModelConfig::Mlp { hidden: vec![32, 16], epochs: 60, learning_rate: 1e-3 },
    ]
}

/// A reduced grid for fast pipelines and tests (one configuration per
/// cheap family).
pub fn quick_grid() -> Vec<ModelConfig> {
    vec![
        ModelConfig::Poly { degree: 2, alpha: 1e-3 },
        ModelConfig::Forest { n_trees: 30, max_depth: 12, feature_fraction: 0.7 },
        ModelConfig::Xgb { n_estimators: 80, learning_rate: 0.1, max_depth: 5, lambda: 1.0 },
        ModelConfig::Knn { k: 5, distance_weighted: true },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Matrix;

    #[test]
    fn all_configs_build_and_fit() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![f64::from(i), f64::from(i % 5)]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] + r[1]).collect();
        let x = Matrix::from_rows(&rows);
        for cfg in default_grid() {
            let mut m = match cfg {
                // shrink the expensive ones for the test
                ModelConfig::Mlp { ref hidden, .. } => {
                    ModelConfig::Mlp { hidden: hidden.clone(), epochs: 10, learning_rate: 1e-3 }
                        .build()
                }
                _ => cfg.build(),
            };
            m.fit(&x, &y);
            let p = m.predict_row(&[3.0, 2.0]);
            assert!(p.is_finite(), "{}", cfg.describe());
        }
    }

    /// The grid spans the six families, each named as the paper prints it.
    #[test]
    fn grid_covers_all_six_families() {
        let names: std::collections::BTreeSet<_> =
            default_grid().iter().map(ModelConfig::name).collect();
        let paper = ["KNN", "MLP", "PolyRegression", "RFR", "SVR", "XGB"];
        assert!(names.into_iter().eq(paper));
    }

    #[test]
    fn forest_importances_available_through_config() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![f64::from(i), 1.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        let x = Matrix::from_rows(&rows);
        let mut m =
            ModelConfig::Forest { n_trees: 10, max_depth: 8, feature_fraction: 1.0 }.build();
        m.fit(&x, &y);
        let imp = m.feature_importances().expect("forest importances");
        assert_eq!(imp.len(), 2);
        assert!(imp[0] > imp[1]);
    }
}
