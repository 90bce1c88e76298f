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

/// The `min(k, rows)` rows of `x` nearest to `row`, in the heap's storage
/// order — the order every average over them is summed in.
fn nearest(x: &Matrix, row: &[f64], k: usize) -> Vec<Candidate> {
    let k = k.min(x.rows);
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::with_capacity(k + 1);
    for i in 0..x.rows {
        let dist2: f64 = x.row(i).iter().zip(row).map(|(a, b)| (a - b) * (a - b)).sum();
        if heap.len() < k {
            heap.push(Candidate { dist2, index: i });
        } else if heap.peek().is_some_and(|w| dist2 < w.dist2) {
            heap.pop();
            heap.push(Candidate { dist2, index: i });
        }
    }
    heap.into_vec()
}

/// The prediction `neighbours` make of one label vector.
fn average(neighbours: &[Candidate], y: &[f64], weights: KnnWeights) -> f64 {
    match weights {
        KnnWeights::Uniform => {
            neighbours.iter().map(|c| y[c.index]).sum::<f64>() / neighbours.len() as f64
        }
        KnnWeights::Distance => {
            let mut num = 0.0;
            let mut den = 0.0;
            for c in neighbours {
                let w = 1.0 / (c.dist2.sqrt() + 1e-9);
                num += w * y[c.index];
                den += w;
            }
            num / den
        }
    }
}

impl KnnRegressor {
    /// What this configuration, fitted on `x` with each label vector of
    /// `ys` in turn, predicts for every row of `queries`: one prediction
    /// vector per label. A query's neighbours depend on `x` alone, so they
    /// are searched once and averaged per label; nothing is copied.
    /// [`Regressor::predict_row`] is the same search and the same average
    /// over the one label vector the model was fitted with.
    pub fn predict_labels(&self, x: &Matrix, ys: &[&[f64]], queries: &Matrix) -> Vec<Vec<f64>> {
        assert!(x.rows > 0, "empty training set");
        let mut out: Vec<Vec<f64>> = ys
            .iter()
            .map(|y| {
                assert_eq!(x.rows, y.len());
                Vec::with_capacity(queries.rows)
            })
            .collect();
        for q in 0..queries.rows {
            let neighbours = nearest(x, queries.row(q), self.k);
            for (predictions, y) in out.iter_mut().zip(ys) {
                predictions.push(average(&neighbours, y, self.weights));
            }
        }
        out
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
        average(&nearest(&self.x, row, self.k), &self.y, self.weights)
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
    fn many_label_predictions_equal_single_models() {
        let mut rng = crate::rng::SplitMix64::new(8);
        let mut matrix = |rows: usize| {
            let rows: Vec<Vec<f64>> =
                (0..rows).map(|_| (0..4).map(|_| rng.next_f64()).collect()).collect();
            Matrix::from_rows(&rows)
        };
        let queries = matrix(9);
        // 30 training rows, and 3 — fewer than k
        for x in [matrix(30), matrix(3)] {
            let ys: Vec<Vec<f64>> =
                (0..5).map(|l| (0..x.rows).map(|i| x.get(i, l % 4) + l as f64).collect()).collect();
            let labels: Vec<&[f64]> = ys.iter().map(Vec::as_slice).collect();
            for weights in [KnnWeights::Uniform, KnnWeights::Distance] {
                let model = KnnRegressor::new(5, weights);
                let shared = model.predict_labels(&x, &labels, &queries);
                assert_eq!(shared.len(), ys.len());
                for (y, shared) in ys.iter().zip(&shared) {
                    let mut single = KnnRegressor::new(5, weights);
                    single.fit(&x, y);
                    let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&single.predict(&queries)), bits(shared), "{weights:?}");
                }
            }
        }
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
