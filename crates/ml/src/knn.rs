//! K-nearest-neighbors regression — the paper's simple baseline.

use crate::dataset::Matrix;
use crate::persist::{expect_tag, expect_width, PersistError, Reader, Writer, TAG_KNN};
use crate::Regressor;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Neighbor weighting scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnWeights {
    Uniform,
    /// Inverse-distance weighting.
    Distance,
}

#[derive(Debug, Clone)]
pub struct KnnRegressor {
    pub k: usize,
    pub weights: KnnWeights,
    x: Matrix,
    y: Vec<f64>,
}

impl KnnRegressor {
    pub fn new(k: usize, weights: KnnWeights) -> Self {
        assert!(k >= 1);
        KnnRegressor { k, weights, x: Matrix::with_cols(0), y: Vec::new() }
    }

    /// Inverse of [`Regressor::encode`]. Prediction averages the targets
    /// of the `k ≥ 1` nearest training rows: there must be rows, and one
    /// target per row.
    pub fn decode(r: &mut Reader, width: usize) -> Result<Self, PersistError> {
        expect_tag(r, TAG_KNN)?;
        let k = r.take_usize()?;
        let weights = if r.take_bool()? { KnnWeights::Distance } else { KnnWeights::Uniform };
        let x = Matrix::decode(r)?;
        expect_width("knn", x.cols, width)?;
        let y = r.take_f64s()?;
        if k == 0 || y.is_empty() || x.rows != y.len() {
            return Err(PersistError::Corrupt(format!(
                "knn: k = {k} over {} training rows and {} targets",
                x.rows,
                y.len()
            )));
        }
        Ok(KnnRegressor { k, weights, x, y })
    }
}

/// Max-heap entry ordered by distance (so the worst neighbor pops first).
struct Candidate {
    dist2: f64,
    index: usize,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.dist2 == other.dist2
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist2.partial_cmp(&other.dist2).unwrap_or(Ordering::Equal)
    }
}

impl Regressor for KnnRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        assert_eq!(x.rows, y.len());
        assert!(x.rows > 0, "empty training set");
        self.x = x.clone();
        self.y = y.to_vec();
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.y.is_empty(), "fit before predict");
        let k = self.k.min(self.y.len());
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::with_capacity(k + 1);
        for i in 0..self.x.rows {
            let dist2: f64 = self.x.row(i).iter().zip(row).map(|(a, b)| (a - b) * (a - b)).sum();
            if heap.len() < k {
                heap.push(Candidate { dist2, index: i });
            } else if heap.peek().is_some_and(|w| dist2 < w.dist2) {
                heap.pop();
                heap.push(Candidate { dist2, index: i });
            }
        }
        match self.weights {
            KnnWeights::Uniform => {
                heap.iter().map(|c| self.y[c.index]).sum::<f64>() / heap.len() as f64
            }
            KnnWeights::Distance => {
                let mut num = 0.0;
                let mut den = 0.0;
                for c in heap.iter() {
                    let w = 1.0 / (c.dist2.sqrt() + 1e-9);
                    num += w * self.y[c.index];
                    den += w;
                }
                num / den
            }
        }
    }

    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_KNN);
        w.put_usize(self.k);
        w.put_bool(self.weights == KnnWeights::Distance);
        self.x.encode(w);
        w.put_f64s(&self.y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_nn_memorizes() {
        let x = Matrix::from_rows(&[vec![0.0], vec![10.0], vec![20.0]]);
        let y = vec![1.0, 2.0, 3.0];
        let mut m = KnnRegressor::new(1, KnnWeights::Uniform);
        m.fit(&x, &y);
        assert_eq!(m.predict_row(&[9.0]), 2.0);
        assert_eq!(m.predict_row(&[0.4]), 1.0);
    }

    #[test]
    fn uniform_averages_k_neighbors() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![100.0]]);
        let y = vec![2.0, 4.0, 1000.0];
        let mut m = KnnRegressor::new(2, KnnWeights::Uniform);
        m.fit(&x, &y);
        assert_eq!(m.predict_row(&[0.5]), 3.0);
    }

    #[test]
    fn distance_weighting_prefers_closer_points() {
        let x = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let y = vec![0.0, 10.0];
        let mut m = KnnRegressor::new(2, KnnWeights::Distance);
        m.fit(&x, &y);
        let near_zero = m.predict_row(&[1.0]);
        assert!(near_zero < 5.0, "prediction {near_zero}");
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let x = Matrix::from_rows(&[vec![0.0], vec![2.0]]);
        let y = vec![1.0, 3.0];
        let mut m = KnnRegressor::new(10, KnnWeights::Uniform);
        m.fit(&x, &y);
        assert_eq!(m.predict_row(&[1.0]), 2.0);
    }
}
