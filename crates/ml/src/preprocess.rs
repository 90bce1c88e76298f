//! Preprocessing: z-score standardization, one-hot encoding, and the
//! scaler+model pipeline (paper Sec. IV-C "the data was standardized with
//! z-score normalization; one-hot encoding is used for the partitioning
//! algorithms").

use crate::dataset::Matrix;
use crate::persist::{
    decode_regressor, expect_tag, expect_width, PersistError, Reader, Writer, TAG_SCALED,
};
use crate::Regressor;

/// Per-column z-score scaler.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StandardScaler {
    pub means: Vec<f64>,
    pub stds: Vec<f64>,
}

impl StandardScaler {
    pub fn fit(x: &Matrix) -> Self {
        let (rows, cols) = (x.rows, x.cols);
        let mut means = vec![0.0; cols];
        for i in 0..rows {
            for (j, v) in x.row(i).iter().enumerate() {
                means[j] += v;
            }
        }
        for m in &mut means {
            *m /= rows.max(1) as f64;
        }
        let mut stds = vec![0.0; cols];
        for i in 0..rows {
            for (j, v) in x.row(i).iter().enumerate() {
                let d = v - means[j];
                stds[j] += d * d;
            }
        }
        for s in &mut stds {
            *s = (*s / rows.max(1) as f64).sqrt();
            if *s < 1e-12 {
                *s = 1.0; // constant column: leave centred values at 0
            }
        }
        StandardScaler { means, stds }
    }

    pub fn transform_row(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            row.iter().zip(self.means.iter().zip(&self.stds)).map(|(v, (m, s))| (v - m) / s),
        );
    }

    pub fn transform(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::with_capacity(x.rows, x.cols);
        let mut buf = Vec::with_capacity(x.cols);
        for i in 0..x.rows {
            self.transform_row(x.row(i), &mut buf);
            out.push_row(&buf);
        }
        out
    }

    fn encode(&self, w: &mut Writer) {
        w.put_f64s(&self.means);
        w.put_f64s(&self.stds);
    }

    fn decode(r: &mut Reader) -> Result<Self, PersistError> {
        let means = r.take_f64s()?;
        let stds = r.take_f64s()?;
        if means.len() != stds.len() {
            return Err(PersistError::Corrupt(format!(
                "scaler: {} means vs {} stds",
                means.len(),
                stds.len()
            )));
        }
        Ok(StandardScaler { means, stds })
    }
}

/// One-hot encoder over a fixed category universe.
#[derive(Debug, Clone)]
pub struct OneHotEncoder {
    pub categories: Vec<String>,
}

impl OneHotEncoder {
    pub fn new(categories: Vec<String>) -> Self {
        OneHotEncoder { categories }
    }

    pub fn width(&self) -> usize {
        self.categories.len()
    }

    /// Encode a category into `out` (appends `width()` values).
    pub fn encode_into(&self, category: &str, out: &mut Vec<f64>) {
        let idx = self
            .categories
            .iter()
            .position(|c| c == category)
            .unwrap_or_else(|| panic!("unknown category {category:?}"));
        for i in 0..self.categories.len() {
            out.push(if i == idx { 1.0 } else { 0.0 });
        }
    }
}

/// Pipeline: fit a [`StandardScaler`] on the training features, feed the
/// standardized matrix into the wrapped model, standardize rows at
/// prediction time.
pub struct ScaledModel {
    scaler: Option<StandardScaler>,
    inner: Box<dyn Regressor>,
}

impl ScaledModel {
    pub fn new(inner: Box<dyn Regressor>) -> Self {
        ScaledModel { scaler: None, inner }
    }

    /// Inverse of [`Regressor::encode`]. Prediction needs the fitted
    /// scaler, and the pipeline wraps any model except another pipeline —
    /// [`crate::ModelConfig::build`] never nests them, and refusing the
    /// one recursive shape bounds decode depth whatever the file says.
    pub fn decode(r: &mut Reader, width: usize) -> Result<Self, PersistError> {
        expect_tag(r, TAG_SCALED)?;
        let Some(scaler) = r.take_opt(StandardScaler::decode)? else {
            return Err(PersistError::Corrupt("scaled model has no scaler (never fitted)".into()));
        };
        if r.peek_u8()? == TAG_SCALED {
            return Err(PersistError::Corrupt("a scaled model wraps another scaled model".into()));
        }
        expect_width("scaler", scaler.means.len(), width)?;
        Ok(ScaledModel { scaler: Some(scaler), inner: decode_regressor(r, width)? })
    }
}

impl Regressor for ScaledModel {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        let scaler = StandardScaler::fit(x);
        let xs = scaler.transform(x);
        self.scaler = Some(scaler);
        self.inner.fit(&xs, y);
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let scaler = self.scaler.as_ref().expect("fit before predict");
        let mut buf = Vec::with_capacity(row.len());
        scaler.transform_row(row, &mut buf);
        self.inner.predict_row(&buf)
    }

    /// The z-scored matrix through the wrapped model's own `predict`.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let scaler = self.scaler.as_ref().expect("fit before predict");
        self.inner.predict(&scaler.transform(x))
    }

    fn feature_importances(&self) -> Option<Vec<f64>> {
        self.inner.feature_importances()
    }

    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_SCALED);
        w.put_opt(self.scaler.as_ref(), |w, scaler| scaler.encode(w));
        self.inner.encode(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaler_produces_zero_mean_unit_var() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]]);
        let s = StandardScaler::fit(&x);
        let t = s.transform(&x);
        for j in 0..2 {
            let mean: f64 = (0..3).map(|i| t.get(i, j)).sum::<f64>() / 3.0;
            let var: f64 = (0..3).map(|i| t.get(i, j).powi(2)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_columns_become_zero() {
        let x = Matrix::from_rows(&[vec![7.0], vec![7.0]]);
        let s = StandardScaler::fit(&x);
        let t = s.transform(&x);
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(1, 0), 0.0);
    }

    #[test]
    fn one_hot_encodes_each_category() {
        let enc = OneHotEncoder::new(vec!["a".into(), "b".into(), "c".into()]);
        let mut out = Vec::new();
        enc.encode_into("b", &mut out);
        assert_eq!(out, vec![0.0, 1.0, 0.0]);
        assert_eq!(enc.width(), 3);
    }

    #[test]
    #[should_panic(expected = "unknown category")]
    fn one_hot_rejects_unknown() {
        let enc = OneHotEncoder::new(vec!["a".into()]);
        let mut out = Vec::new();
        enc.encode_into("z", &mut out);
    }
}
