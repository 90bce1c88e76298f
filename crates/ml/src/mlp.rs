//! Fully-connected multi-layer perceptron regressor with ReLU activations,
//! trained with Adam on mini-batches — the paper's deep-learning
//! representative (Sec. IV-C).
//!
//! Targets are standardized internally (stored mean/std restore the scale
//! at prediction time), which keeps the default learning rate usable across
//! the very different target ranges EASE predicts (replication factors ~1–20
//! vs. run-times in seconds).

use crate::dataset::Matrix;
use crate::persist::{expect_tag, expect_width, PersistError, Reader, Writer, TAG_MLP};
use crate::rng::SplitMix64;
use crate::Regressor;

#[derive(Debug, Clone, PartialEq)]
pub struct MlpParams {
    pub hidden: Vec<usize>,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f64,
    pub l2: f64,
    pub seed: u64,
}

impl Default for MlpParams {
    fn default() -> Self {
        MlpParams {
            hidden: vec![64, 32],
            epochs: 300,
            batch_size: 32,
            learning_rate: 1e-3,
            l2: 1e-5,
            seed: 0,
        }
    }
}

struct Layer {
    w: Vec<f64>, // out × in
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
    // Adam moments
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Layer {
    fn new(n_in: usize, n_out: usize, rng: &mut SplitMix64) -> Self {
        // He initialization for ReLU nets
        let scale = (2.0 / n_in as f64).sqrt();
        let w = (0..n_in * n_out).map(|_| (next_gauss(rng)) * scale).collect();
        Layer {
            w,
            b: vec![0.0; n_out],
            n_in,
            n_out,
            mw: vec![0.0; n_in * n_out],
            vw: vec![0.0; n_in * n_out],
            mb: vec![0.0; n_out],
            vb: vec![0.0; n_out],
        }
    }

    fn forward(&self, input: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            let z: f64 = self.b[o] + row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>();
            out.push(z);
        }
    }
}

/// Box–Muller standard normal.
fn next_gauss(rng: &mut SplitMix64) -> f64 {
    let u1 = rng.next_f64().max(1e-12);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

pub struct MlpRegressor {
    pub params: MlpParams,
    layers: Vec<Layer>,
    y_mean: f64,
    y_std: f64,
}

impl MlpRegressor {
    pub fn new(params: MlpParams) -> Self {
        MlpRegressor { params, layers: Vec::new(), y_mean: 0.0, y_std: 1.0 }
    }

    /// Inverse of [`Regressor::encode`]. Adam moments are training-only
    /// state and restart at zero; predictions depend only on weights and
    /// biases, so the reload predicts bit-identically. The forward pass
    /// slices each layer's weights by its dimensions, feeds it the previous
    /// layer's output and reads the one value the last layer emits.
    pub fn decode(r: &mut Reader, width: usize) -> Result<Self, PersistError> {
        expect_tag(r, TAG_MLP)?;
        let params = MlpParams {
            hidden: r.take_usizes()?,
            epochs: r.take_usize()?,
            batch_size: r.take_usize()?,
            learning_rate: r.take_f64()?,
            l2: r.take_f64()?,
            seed: r.take_u64()?,
        };
        let y_mean = r.take_f64()?;
        let y_std = r.take_f64()?;
        let n_layers = r.take_len(1)?;
        let mut layers: Vec<Layer> = Vec::with_capacity(n_layers);
        for i in 0..n_layers {
            let n_in = r.take_usize()?;
            let n_out = r.take_usize()?;
            let w = r.take_f64s()?;
            let b = r.take_f64s()?;
            let chained = layers.last().is_none_or(|prev| prev.n_out == n_in);
            if n_in.checked_mul(n_out) != Some(w.len()) || b.len() != n_out || !chained {
                return Err(PersistError::Corrupt(format!(
                    "mlp layer {i} ({n_in}x{n_out}) carries {} weights / {} biases, or does \
                     not take what the layer before it emits",
                    w.len(),
                    b.len()
                )));
            }
            layers.push(Layer {
                mw: vec![0.0; w.len()],
                vw: vec![0.0; w.len()],
                mb: vec![0.0; b.len()],
                vb: vec![0.0; b.len()],
                w,
                b,
                n_in,
                n_out,
            });
        }
        if layers.last().map(|last| last.n_out) != Some(1) {
            return Err(PersistError::Corrupt(
                "mlp must end in a layer with one output (never fitted?)".into(),
            ));
        }
        expect_width("mlp", layers[0].n_in, width)?;
        Ok(MlpRegressor { params, layers, y_mean, y_std })
    }

    fn forward_all(&self, row: &[f64], activations: &mut Vec<Vec<f64>>) -> f64 {
        activations.clear();
        activations.push(row.to_vec());
        let mut buf = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            layer.forward(activations.last().expect("input"), &mut buf);
            let is_last = li + 1 == self.layers.len();
            if !is_last {
                for v in &mut buf {
                    *v = v.max(0.0); // ReLU
                }
            }
            activations.push(buf.clone());
        }
        activations.last().expect("output")[0]
    }
}

impl Regressor for MlpRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        assert_eq!(x.rows, y.len());
        assert!(x.rows > 0, "empty training set");
        self.y_mean = y.iter().sum::<f64>() / y.len() as f64;
        let var = y.iter().map(|v| (v - self.y_mean).powi(2)).sum::<f64>() / y.len() as f64;
        self.y_std = var.sqrt().max(1e-9);
        let yt: Vec<f64> = y.iter().map(|v| (v - self.y_mean) / self.y_std).collect();

        let mut rng = SplitMix64::new(self.params.seed ^ 0x11_17);
        let mut dims = vec![x.cols];
        dims.extend(&self.params.hidden);
        dims.push(1);
        self.layers =
            (0..dims.len() - 1).map(|i| Layer::new(dims[i], dims[i + 1], &mut rng)).collect();

        let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let mut t_step = 0usize;
        let mut order: Vec<usize> = (0..x.rows).collect();
        let mut activations: Vec<Vec<f64>> = Vec::new();
        // gradient buffers per layer
        let mut gw: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        for _epoch in 0..self.params.epochs {
            // Fisher–Yates shuffle
            for i in (1..order.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            for batch in order.chunks(self.params.batch_size) {
                for g in gw.iter_mut() {
                    g.fill(0.0);
                }
                for g in gb.iter_mut() {
                    g.fill(0.0);
                }
                for &i in batch {
                    let pred = self.forward_all(x.row(i), &mut activations);
                    // dL/dpred for 0.5*(pred-y)^2
                    let mut delta = vec![pred - yt[i]];
                    // backprop
                    for li in (0..self.layers.len()).rev() {
                        let layer = &self.layers[li];
                        let input = &activations[li];
                        // accumulate grads
                        for o in 0..layer.n_out {
                            gb[li][o] += delta[o];
                            let grow = &mut gw[li][o * layer.n_in..(o + 1) * layer.n_in];
                            for (g, x_in) in grow.iter_mut().zip(input) {
                                *g += delta[o] * x_in;
                            }
                        }
                        if li == 0 {
                            break;
                        }
                        // delta for previous layer (through ReLU)
                        let mut prev = vec![0.0; layer.n_in];
                        for o in 0..layer.n_out {
                            let row = &layer.w[o * layer.n_in..(o + 1) * layer.n_in];
                            for (p, w) in prev.iter_mut().zip(row) {
                                *p += delta[o] * w;
                            }
                        }
                        for (p, a) in prev.iter_mut().zip(&activations[li]) {
                            if *a <= 0.0 {
                                *p = 0.0;
                            }
                        }
                        delta = prev;
                    }
                }
                // Adam update
                t_step += 1;
                let bias1 = 1.0 - beta1.powi(t_step as i32);
                let bias2 = 1.0 - beta2.powi(t_step as i32);
                let scale = 1.0 / batch.len() as f64;
                for (li, layer) in self.layers.iter_mut().enumerate() {
                    for (idx, w) in layer.w.iter_mut().enumerate() {
                        let g = gw[li][idx] * scale + self.params.l2 * *w;
                        layer.mw[idx] = beta1 * layer.mw[idx] + (1.0 - beta1) * g;
                        layer.vw[idx] = beta2 * layer.vw[idx] + (1.0 - beta2) * g * g;
                        let mhat = layer.mw[idx] / bias1;
                        let vhat = layer.vw[idx] / bias2;
                        *w -= self.params.learning_rate * mhat / (vhat.sqrt() + eps);
                    }
                    for (idx, b) in layer.b.iter_mut().enumerate() {
                        let g = gb[li][idx] * scale;
                        layer.mb[idx] = beta1 * layer.mb[idx] + (1.0 - beta1) * g;
                        layer.vb[idx] = beta2 * layer.vb[idx] + (1.0 - beta2) * g * g;
                        let mhat = layer.mb[idx] / bias1;
                        let vhat = layer.vb[idx] / bias2;
                        *b -= self.params.learning_rate * mhat / (vhat.sqrt() + eps);
                    }
                }
            }
        }
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.layers.is_empty(), "fit before predict");
        let mut activations = Vec::new();
        let z = self.forward_all(row, &mut activations);
        z * self.y_std + self.y_mean
    }

    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_MLP);
        w.put_usizes(&self.params.hidden);
        w.put_usize(self.params.epochs);
        w.put_usize(self.params.batch_size);
        w.put_f64(self.params.learning_rate);
        w.put_f64(self.params.l2);
        w.put_u64(self.params.seed);
        w.put_f64(self.y_mean);
        w.put_f64(self.y_std);
        w.put_usize(self.layers.len());
        for l in &self.layers {
            w.put_usize(l.n_in);
            w.put_usize(l.n_out);
            w.put_f64s(&l.w);
            w.put_f64s(&l.b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    #[test]
    fn learns_a_linear_map() {
        let rows: Vec<Vec<f64>> =
            (0..100).map(|i| vec![f64::from(i % 10) / 10.0, f64::from(i / 10) / 10.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 1.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut m = MlpRegressor::new(MlpParams { epochs: 200, ..Default::default() });
        m.fit(&x, &y);
        let score = r2(&y, &m.predict(&x));
        assert!(score > 0.97, "r2={score}");
    }

    #[test]
    fn learns_a_nonlinear_function() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![f64::from(i) / 200.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0] * 6.0).sin()).collect();
        let x = Matrix::from_rows(&rows);
        let mut m = MlpRegressor::new(MlpParams { epochs: 400, ..Default::default() });
        m.fit(&x, &y);
        let score = r2(&y, &m.predict(&x));
        assert!(score > 0.9, "r2={score}");
    }

    #[test]
    fn deterministic_per_seed() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i) / 40.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut a = MlpRegressor::new(MlpParams { epochs: 30, ..Default::default() });
        let mut b = MlpRegressor::new(MlpParams { epochs: 30, ..Default::default() });
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict_row(&[0.3]), b.predict_row(&[0.3]));
    }

    #[test]
    fn output_restored_to_target_scale() {
        // targets far from 0 with tiny variance: standardization must undo
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![f64::from(i)]).collect();
        let y: Vec<f64> = (0..30).map(|i| 5_000.0 + f64::from(i)).collect();
        let x = Matrix::from_rows(&rows);
        let mut m = MlpRegressor::new(MlpParams { epochs: 150, ..Default::default() });
        m.fit(&x, &y);
        let p = m.predict_row(&[15.0]);
        assert!((p - 5_015.0).abs() < 30.0, "p={p}");
    }
}
