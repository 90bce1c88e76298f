//! Property-based invariants of the ML substrate.

use ease_repro::ml::linear::Ridge;
use ease_repro::ml::tree::{RegressionTree, TreeParams};
use ease_repro::ml::{mape, rmse, Matrix, ModelConfig, Regressor, StandardScaler};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (10usize..80, 1usize..5).prop_flat_map(|(rows, cols)| {
        (
            prop::collection::vec(
                prop::collection::vec(-100.0f64..100.0, cols..=cols),
                rows..=rows,
            ),
            prop::collection::vec(-50.0f64..50.0, rows..=rows),
        )
    })
}

type Rows = Vec<Vec<f64>>;

/// A training set, and 0 to 11 query rows as wide as it with a quarter of
/// their cells NaN, ±∞, −0 or huge.
fn arb_fit_and_queries() -> impl Strategy<Value = ((Rows, Vec<f64>), Rows)> {
    arb_dataset().prop_flat_map(|(rows, y)| {
        let cols = rows[0].len();
        let specials = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e300];
        let cell = (0u32..4, -150.0f64..150.0, prop::sample::select(specials))
            .prop_map(|(pick, v, special)| if pick == 0 { special } else { v });
        (
            Just((rows, y)),
            prop::collection::vec(prop::collection::vec(cell, cols..=cols), 0usize..12),
        )
    })
}

/// One fitted model of every family, the two building blocks the grid never
/// builds bare (a tree, a ridge) included; the expensive ones shrunk.
fn every_family() -> Vec<(&'static str, Box<dyn Regressor>)> {
    let configs = [
        ("forest", ModelConfig::Forest { n_trees: 10, max_depth: 8, feature_fraction: 0.7 }),
        (
            "gbt",
            ModelConfig::Xgb { n_estimators: 25, learning_rate: 0.1, max_depth: 5, lambda: 1.0 },
        ),
        ("poly", ModelConfig::Poly { degree: 2, alpha: 1e-3 }),
        ("knn", ModelConfig::Knn { k: 5, distance_weighted: true }),
        ("svr", ModelConfig::Svr { c: 10.0, epsilon: 0.01, gamma: 0.5 }),
        ("mlp", ModelConfig::Mlp { hidden: vec![8, 4], epochs: 8, learning_rate: 1e-3 }),
    ];
    let mut models: Vec<(&'static str, Box<dyn Regressor>)> = vec![
        ("tree", Box::new(RegressionTree::new(TreeParams::default()))),
        ("ridge", Box::new(Ridge::new(1e-3))),
    ];
    models.extend(configs.into_iter().map(|(name, config)| (name, config.build())));
    models
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `predict` over a matrix is `predict_row` over each of its rows, bit
    /// for bit, for every family — the batched walks of the tree ensembles
    /// and the reused expansion buffer of poly included — on an empty
    /// matrix and on non-finite cells too.
    #[test]
    fn batched_predict_equals_the_row_path(((rows, y), queries) in arb_fit_and_queries()) {
        let x = Matrix::from_rows(&rows);
        let mut q = Matrix::with_cols(x.cols);
        for row in &queries {
            q.push_row(row);
        }
        for (family, mut model) in every_family() {
            model.fit(&x, &y);
            let batched: Vec<u64> = model.predict(&q).iter().map(|p| p.to_bits()).collect();
            let by_row: Vec<u64> =
                queries.iter().map(|row| model.predict_row(row).to_bits()).collect();
            prop_assert_eq!(batched, by_row, "{} on {:?}", family, queries);
        }
    }

    /// Tree-family predictions never leave the convex hull of the targets.
    #[test]
    fn tree_predictions_within_target_hull((rows, y) in arb_dataset()) {
        let x = Matrix::from_rows(&rows);
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut forest =
            ModelConfig::Forest { n_trees: 10, max_depth: 8, feature_fraction: 1.0 }.build();
        forest.fit(&x, &y);
        for row in &rows {
            let p = forest.predict_row(row);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo},{hi}]");
        }
    }

    /// KNN with k = n predicts the global mean everywhere.
    #[test]
    fn knn_full_k_is_global_mean((rows, y) in arb_dataset()) {
        let x = Matrix::from_rows(&rows);
        let mut knn = ModelConfig::Knn { k: y.len(), distance_weighted: false }.build();
        knn.fit(&x, &y);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let p = knn.predict_row(&rows[0]);
        prop_assert!((p - mean).abs() < 1e-6, "{p} vs mean {mean}");
    }

    /// z-score transform is invertible in distribution: transformed columns
    /// have mean ~0, and transforming twice equals composing scales.
    #[test]
    fn scaler_centers_columns((rows, _y) in arb_dataset()) {
        let x = Matrix::from_rows(&rows);
        let s = StandardScaler::fit(&x);
        let t = s.transform(&x);
        for j in 0..x.cols {
            let mean: f64 = (0..t.rows).map(|i| t.get(i, j)).sum::<f64>() / t.rows as f64;
            prop_assert!(mean.abs() < 1e-8, "col {j} mean {mean}");
        }
    }

    /// Metric identities: rmse/mape vanish iff predictions equal targets;
    /// rmse is symmetric in its arguments.
    #[test]
    fn metric_identities(y in prop::collection::vec(0.5f64..100.0, 2..40)) {
        prop_assert!(rmse(&y, &y) == 0.0);
        prop_assert!(mape(&y, &y) == 0.0);
        let shifted: Vec<f64> = y.iter().map(|v| v + 1.0).collect();
        prop_assert!(rmse(&y, &shifted) > 0.0);
        prop_assert!((rmse(&y, &shifted) - rmse(&shifted, &y)).abs() < 1e-12);
    }

    /// Ridge regression with huge alpha collapses to the target mean.
    #[test]
    fn poly_heavy_ridge_predicts_mean((rows, y) in arb_dataset()) {
        let x = Matrix::from_rows(&rows);
        let mut m = ModelConfig::Poly { degree: 1, alpha: 1e12 }.build();
        m.fit(&x, &y);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let spread = y.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max);
        let p = m.predict_row(&rows[0]);
        prop_assert!((p - mean).abs() <= spread * 0.05 + 1e-6, "{p} vs mean {mean}");
    }
}
