//! CART regression trees with histogram-based split search.
//!
//! Features are quantile-binned (≤ 64 bins) once per fit; each node then
//! walks its samples once, adding every sample to one `{sum, sq, count}`
//! cell per candidate feature, and scans only the bins that received a
//! sample — `O(samples × features)` per tree level instead of sort-based
//! `O(samples log samples × features)`, with one read of `y` and of the
//! row's bin bytes per sample rather than one per (sample, feature). The
//! datasets are small (792 × 18 for the quality predictor at tiny scale,
//! with columns of 3 to 24 distinct values and eleven binary one-hots), so
//! most of the 64 bins of most columns are empty at every node: the
//! occupied-bin mask is what keeps the scan proportional to the data.
//!
//! Supports the knobs the ensembles need: feature subsampling per split
//! (random forest), L2 leaf shrinkage and minimum split gain
//! (XGBoost-style boosting), and MSE-purity feature importances
//! (paper Sec. V-E).

use crate::dataset::Matrix;
use crate::persist::{expect_tag, expect_width, PersistError, Reader, Writer, TAG_TREE};
use crate::rng::SplitMix64;
use crate::Regressor;

pub const MAX_BINS: usize = 64;

/// Tree hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    pub max_depth: usize,
    pub min_samples_split: usize,
    pub min_samples_leaf: usize,
    /// Number of features sampled per split; `None` = all features.
    pub max_features: Option<usize>,
    /// L2 shrinkage on leaf values: `leaf = Σy / (n + leaf_l2)`.
    pub leaf_l2: f64,
    /// Minimum SSE reduction to accept a split (XGB γ).
    pub min_gain: f64,
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
            leaf_l2: 0.0,
            min_gain: 1e-12,
            seed: 0,
        }
    }
}

/// One node of a fitted tree. A split sends a row to `left` when
/// `row[feature] <= value` and to `right` otherwise, and links strictly
/// forward; a leaf links to itself on both sides and holds its prediction in
/// `value`. So a walk of exactly the tree's depth from the root ends on the
/// row's leaf however early it got there, and every step is the same
/// select — no step asks what kind of node it is on. The model file spells
/// nodes as tagged leaves and splits; [`RegressionTree::encode`] and
/// [`RegressionTree::decode`] translate.
#[derive(Debug, Clone, Copy)]
struct Node {
    value: f64,
    feature: u32,
    left: u32,
    right: u32,
}

impl Node {
    fn leaf(value: f64, id: u32) -> Node {
        Node { value, feature: 0, left: id, right: id }
    }

    fn is_leaf(&self, id: usize) -> bool {
        self.left as usize == id
    }
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    pub params: TreeParams,
    nodes: Vec<Node>,
    /// Edges on the longest root-to-leaf path: the number of steps every
    /// walk takes.
    depth: u32,
    importances: Vec<f64>,
}

/// Quantile binning of a feature matrix, shared across ensemble members.
pub struct Binner {
    /// Per feature: sorted upper-edge values of each bin (≤ MAX_BINS−1 cuts).
    cuts: Vec<Vec<f64>>,
}

impl Binner {
    pub fn fit(x: &Matrix) -> Self {
        let mut cuts = Vec::with_capacity(x.cols);
        let mut column = Vec::with_capacity(x.rows);
        for j in 0..x.cols {
            column.clear();
            column.extend((0..x.rows).map(|i| x.get(i, j)));
            column.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite features"));
            column.dedup();
            let mut feature_cuts = Vec::new();
            if column.len() > 1 {
                let step = (column.len() as f64 / MAX_BINS as f64).max(1.0);
                let mut pos = step;
                while (pos as usize) < column.len() && feature_cuts.len() < MAX_BINS - 1 {
                    let lo = column[pos as usize - 1];
                    let hi = column[pos as usize];
                    feature_cuts.push(0.5 * (lo + hi));
                    pos += step;
                }
            }
            cuts.push(feature_cuts);
        }
        Binner { cuts }
    }

    /// Bin index of a value (0..=cuts.len()).
    #[inline]
    pub fn bin(&self, feature: usize, value: f64) -> u8 {
        self.cuts[feature].partition_point(|&c| c < value) as u8
    }

    /// The split threshold represented by "bin ≤ b".
    #[inline]
    fn threshold(&self, feature: usize, bin: usize) -> f64 {
        self.cuts[feature][bin]
    }

    pub fn num_features(&self) -> usize {
        self.cuts.len()
    }

    /// Bin the whole matrix (row-major `u8`s).
    pub fn transform(&self, x: &Matrix) -> Vec<u8> {
        let mut out = vec![0u8; x.rows * x.cols];
        for i in 0..x.rows {
            let row = x.row(i);
            for (j, &v) in row.iter().enumerate() {
                out[i * x.cols + j] = self.bin(j, v);
            }
        }
        out
    }
}

/// A matrix's quantile cuts and its rows as bin bytes — everything the tree
/// ensembles read of their training features. A function of the matrix
/// alone, so model selection builds it once per fold for every label vector
/// and both ensembles.
pub struct BinnedMatrix {
    pub(crate) binner: Binner,
    pub(crate) bins: Vec<u8>,
    pub(crate) rows: usize,
}

impl BinnedMatrix {
    pub fn of(x: &Matrix) -> Self {
        let binner = Binner::fit(x);
        let bins = binner.transform(x);
        BinnedMatrix { binner, bins, rows: x.rows }
    }
}

/// One histogram bin of one candidate feature. The three accumulators sit
/// side by side, so the update a sample makes touches one cache line.
#[derive(Clone, Copy, Default)]
struct Cell {
    sum: f64,
    sq: f64,
    count: u32,
}

// a candidate's occupied bins are one `u64` mask
const _: () = assert!(MAX_BINS <= 64);

struct BuildCtx<'a> {
    binned: &'a [u8],
    y: &'a [f64],
    cols: usize,
    binner: &'a Binner,
    rng: SplitMix64,
    feature_pool: Vec<u32>,
    /// The node's splittable candidate features, in pool order.
    candidates: Vec<u32>,
    /// `MAX_BINS` cells per candidate, in `candidates` order.
    cells: Vec<Cell>,
    /// Per candidate, bit `b` set when a sample of the node fell in bin `b`.
    occupied: Vec<u64>,
}

impl RegressionTree {
    pub fn new(params: TreeParams) -> Self {
        RegressionTree { params, nodes: Vec::new(), depth: 0, importances: Vec::new() }
    }

    /// Fit against pre-binned data (ensemble path; `indices` may contain
    /// duplicates for bootstrap sampling).
    pub fn fit_binned(&mut self, binned: &[u8], binner: &Binner, y: &[f64], indices: &mut [u32]) {
        let cols = binner.num_features();
        self.nodes.clear();
        self.importances = vec![0.0; cols];
        let mut ctx = BuildCtx {
            binned,
            y,
            cols,
            binner,
            rng: SplitMix64::new(self.params.seed ^ 0x7EE5),
            feature_pool: (0..cols as u32).collect(),
            candidates: Vec::with_capacity(cols),
            cells: vec![Cell::default(); cols * MAX_BINS],
            occupied: vec![0; cols],
        };
        if indices.is_empty() {
            self.push_leaf(0.0);
        } else {
            self.build(&mut ctx, indices, 0);
        }
        self.depth = longest_path(&self.nodes);
    }

    fn push_leaf(&mut self, value: f64) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::leaf(value, id));
        id
    }

    /// Push a split whose children are linked once they are built.
    fn push_split(&mut self, feature: usize, threshold: f64) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node { value: threshold, feature: feature as u32, left: 0, right: 0 });
        id
    }

    fn link(&mut self, split: u32, left: u32, right: u32) {
        let node = &mut self.nodes[split as usize];
        node.left = left;
        node.right = right;
    }

    fn build(&mut self, ctx: &mut BuildCtx, indices: &mut [u32], depth: usize) -> u32 {
        let n = indices.len();
        let (sum, sq) = indices.iter().fold((0.0, 0.0), |(s, q), &i| {
            let v = ctx.y[i as usize];
            (s + v, q + v * v)
        });
        let leaf_value = sum / (n as f64 + self.params.leaf_l2);
        let parent_sse = sq - sum * sum / n as f64;
        if depth >= self.params.max_depth
            || n < self.params.min_samples_split
            || parent_sse <= 1e-12
        {
            return self.push_leaf(leaf_value);
        }
        // sample candidate features without replacement (partial shuffle)
        let n_candidates = self.params.max_features.unwrap_or(ctx.cols).clamp(1, ctx.cols);
        for i in 0..n_candidates {
            let j = i + ctx.rng.next_below(ctx.cols - i);
            ctx.feature_pool.swap(i, j);
        }
        // a feature without cuts (constant when binned) cannot split
        let BuildCtx { binned, y, cols, binner, candidates, cells, occupied, .. } = ctx;
        candidates.clear();
        candidates.extend(
            ctx.feature_pool[..n_candidates]
                .iter()
                .filter(|&&f| !binner.cuts[f as usize].is_empty()),
        );
        for (slot, &f) in candidates.iter().enumerate() {
            let n_bins = binner.cuts[f as usize].len() + 1;
            cells[slot * MAX_BINS..][..n_bins].fill(Cell::default());
            occupied[slot] = 0;
        }
        // one pass over the node's samples fills every candidate's
        // histogram; each cell still receives its samples in `indices` order
        for &i in indices.iter() {
            let v = y[i as usize];
            let v2 = v * v;
            let row = &binned[i as usize * *cols..][..*cols];
            for ((&f, hist), mask) in
                candidates.iter().zip(cells.chunks_exact_mut(MAX_BINS)).zip(occupied.iter_mut())
            {
                let b = row[f as usize] as usize;
                let cell = &mut hist[b];
                cell.sum += v;
                cell.sq += v2;
                cell.count += 1;
                *mask |= 1 << b;
            }
        }
        let mut best: Option<(usize, usize, f64)> = None; // (feature, bin, gain)
        for ((&f, hist), &mask) in
            candidates.iter().zip(cells.chunks_exact(MAX_BINS)).zip(occupied.iter())
        {
            let f = f as usize;
            // "bin ≤ b" is a split for every bin below the last. An empty
            // bin repeats the prefix sums of the bin before it, and a gain
            // cannot beat itself under the strict `>`: only occupied bins
            // are walked, in bin order.
            let mut below_last = mask & ((1u64 << binner.cuts[f].len()) - 1);
            let (mut lc, mut ls, mut lq) = (0u32, 0.0f64, 0.0f64);
            while below_last != 0 {
                let b = below_last.trailing_zeros() as usize;
                below_last &= below_last - 1;
                lc += hist[b].count;
                ls += hist[b].sum;
                lq += hist[b].sq;
                let rc = n as u32 - lc;
                if (lc as usize) < self.params.min_samples_leaf
                    || (rc as usize) < self.params.min_samples_leaf
                    || rc == 0
                {
                    continue;
                }
                let rs = sum - ls;
                let rq = sq - lq;
                let left_sse = lq - ls * ls / f64::from(lc);
                let right_sse = rq - rs * rs / f64::from(rc);
                let gain = parent_sse - left_sse - right_sse;
                if gain > best.map_or(self.params.min_gain, |(_, _, g)| g) {
                    best = Some((f, b, gain));
                }
            }
        }
        let Some((feature, bin, gain)) = best else {
            return self.push_leaf(leaf_value);
        };
        self.importances[feature] += gain;
        // in-place partition: left = bin ≤ split bin
        let mut lo = 0usize;
        let mut hi = indices.len();
        while lo < hi {
            if ctx.binned[indices[lo] as usize * ctx.cols + feature] as usize <= bin {
                lo += 1;
            } else {
                hi -= 1;
                indices.swap(lo, hi);
            }
        }
        let node_id = self.push_split(feature, ctx.binner.threshold(feature, bin));
        let (left_slice, right_slice) = indices.split_at_mut(lo);
        let left = self.build(ctx, left_slice, depth + 1);
        let right = self.build(ctx, right_slice, depth + 1);
        self.link(node_id, left, right);
        node_id
    }

    /// Raw (unnormalized) SSE-reduction importances.
    pub fn raw_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Inverse of [`Regressor::encode`]. A decoded tree's `predict_row`
    /// terminates inside the node list: there is a root, and every split
    /// names one of the features the importances cover and links strictly
    /// forward — true of every tree `build` grows, which pushes a split
    /// before recursing into its children.
    pub fn decode(r: &mut Reader, width: usize) -> Result<Self, PersistError> {
        expect_tag(r, TAG_TREE)?;
        let params = TreeParams {
            max_depth: r.take_usize()?,
            min_samples_split: r.take_usize()?,
            min_samples_leaf: r.take_usize()?,
            max_features: r.take_opt(Reader::take_usize)?,
            leaf_l2: r.take_f64()?,
            min_gain: r.take_f64()?,
            seed: r.take_u64()?,
        };
        let n_nodes = r.take_len(9)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        // the first split that would leave the node list or the row,
        // reported once the width is known to be the row's
        let mut bad_split = None;
        for i in 0..n_nodes {
            nodes.push(match r.take_u8()? {
                0 => Node::leaf(r.take_f64()?, i as u32),
                1 => {
                    let feature = r.take_u32()?;
                    let value = r.take_f64()?;
                    let (left, right) = (r.take_u32()?, r.take_u32()?);
                    let forward = |link: u32| (i + 1..n_nodes).contains(&(link as usize));
                    if feature as usize >= width || !forward(left) || !forward(right) {
                        bad_split.get_or_insert_with(|| {
                            format!("tree node {i}: feature {feature} or links {left}/{right} out of range")
                        });
                    }
                    Node { value, feature, left, right }
                }
                other => {
                    return Err(PersistError::Corrupt(format!("unknown tree node tag {other}")))
                }
            });
        }
        let importances = r.take_f64s()?;
        expect_width("tree", importances.len(), width)?;
        if nodes.is_empty() {
            return Err(PersistError::Corrupt("tree has no nodes (never fitted)".into()));
        }
        if let Some(message) = bad_split {
            return Err(PersistError::Corrupt(message));
        }
        let depth = longest_path(&nodes);
        Ok(RegressionTree { params, nodes, depth, importances })
    }

    /// Where `row` goes from `node`: a split's child, or a leaf itself.
    #[inline]
    fn step(&self, node: u32, row: &[f64]) -> u32 {
        let n = &self.nodes[node as usize];
        if row[n.feature as usize] <= n.value {
            n.left
        } else {
            n.right
        }
    }

    /// Add each row's prediction to its slot of `sums`. The rows advance
    /// through the tree together, one level per pass, so their walks —
    /// independent chains of dependent loads — overlap. `at` is where each
    /// row is.
    fn add_predictions(&self, rows: &[&[f64]], at: &mut [u32], sums: &mut [f64]) {
        at.fill(0);
        for _ in 0..self.depth {
            for (node, row) in at.iter_mut().zip(rows) {
                *node = self.step(*node, row);
            }
        }
        for (sum, &leaf) in sums.iter_mut().zip(at.iter()) {
            *sum += self.nodes[leaf as usize].value;
        }
    }
}

/// Edges on the longest path from the root. Links point forward, so a
/// node's height is known before any node that links to it is visited — a
/// node two parents reach at different depths included.
fn longest_path(nodes: &[Node]) -> u32 {
    let mut height = vec![0u32; nodes.len()];
    for (i, node) in nodes.iter().enumerate().rev() {
        if !node.is_leaf(i) {
            height[i] = 1 + height[node.left as usize].max(height[node.right as usize]);
        }
    }
    height[0]
}

/// Per row of `x`, the sum of the trees' predictions added in tree order
/// from `-0.0` — the fold `f64`'s `Sum` makes, so it is
/// `trees.iter().map(|t| t.predict_row(row)).sum::<f64>()` bit for bit —
/// with the trees taken one at a time over all rows.
pub(crate) fn sum_predictions(trees: &[RegressionTree], x: &Matrix) -> Vec<f64> {
    let rows: Vec<&[f64]> = (0..x.rows).map(|i| x.row(i)).collect();
    let mut at = vec![0; x.rows];
    let mut sums = vec![-0.0; x.rows];
    for tree in trees {
        tree.add_predictions(&rows, &mut at, &mut sums);
    }
    sums
}

/// The tail both ensembles store: feature count, tree count, each tree.
pub(crate) fn encode_trees(w: &mut Writer, n_features: usize, trees: &[RegressionTree]) {
    w.put_usize(n_features);
    w.put_usize(trees.len());
    for t in trees {
        t.encode(w);
    }
}

/// Inverse of [`encode_trees`]. Members are trees — no other model tag is
/// accepted — and the ensemble and each of them is `width` features wide.
pub(crate) fn decode_trees(
    r: &mut Reader,
    width: usize,
) -> Result<Vec<RegressionTree>, PersistError> {
    expect_width("tree ensemble", r.take_usize()?, width)?;
    let n_trees = r.take_len(1)?;
    (0..n_trees).map(|_| RegressionTree::decode(r, width)).collect()
}

impl Regressor for RegressionTree {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        assert_eq!(x.rows, y.len());
        assert!(x.rows > 0, "empty training set");
        let BinnedMatrix { binner, bins, .. } = BinnedMatrix::of(x);
        let mut indices: Vec<u32> = (0..x.rows as u32).collect();
        self.fit_binned(&bins, &binner, y, &mut indices);
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let leaf = (0..self.depth).fold(0, |node, _| self.step(node, row));
        self.nodes[leaf as usize].value
    }

    /// [`Regressor::predict_row`] of every row (`-0.0 + v` is `v`).
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        sum_predictions(std::slice::from_ref(self), x)
    }

    fn feature_importances(&self) -> Option<Vec<f64>> {
        let total: f64 = self.importances.iter().sum();
        if total <= 0.0 {
            return Some(vec![0.0; self.importances.len()]);
        }
        Some(self.importances.iter().map(|v| v / total).collect())
    }

    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_TREE);
        w.put_usize(self.params.max_depth);
        w.put_usize(self.params.min_samples_split);
        w.put_usize(self.params.min_samples_leaf);
        w.put_opt(self.params.max_features, Writer::put_usize);
        w.put_f64(self.params.leaf_l2);
        w.put_f64(self.params.min_gain);
        w.put_u64(self.params.seed);
        w.put_usize(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            if node.is_leaf(i) {
                w.put_u8(0);
                w.put_f64(node.value);
            } else {
                w.put_u8(1);
                w.put_u32(node.feature);
                w.put_f64(node.value);
                w.put_u32(node.left);
                w.put_u32(node.right);
            }
        }
        w.put_f64s(&self.importances);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Matrix, Vec<f64>) {
        // y = 1 if x < 5 else 9
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i)]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 5 { 1.0 } else { 9.0 }).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_a_step_function() {
        let (x, y) = step_data();
        let mut t = RegressionTree::new(TreeParams::default());
        t.fit(&x, &y);
        assert!((t.predict_row(&[2.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict_row(&[10.0]) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_returns_mean() {
        let (x, y) = step_data();
        let mut t = RegressionTree::new(TreeParams { max_depth: 0, ..Default::default() });
        t.fit(&x, &y);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((t.predict_row(&[3.0]) - mean).abs() < 1e-9);
    }

    #[test]
    fn importance_lands_on_informative_feature() {
        // feature 1 is pure noise, feature 0 carries the signal
        let rows: Vec<Vec<f64>> =
            (0..40).map(|i| vec![f64::from(i % 10), f64::from((i * 7919) % 13)]).collect();
        let y: Vec<f64> = rows.iter().map(|r| if r[0] < 5.0 { 0.0 } else { 10.0 }).collect();
        let x = Matrix::from_rows(&rows);
        let mut t = RegressionTree::new(TreeParams::default());
        t.fit(&x, &y);
        let imp = t.feature_importances().unwrap();
        assert!(imp[0] > 0.9, "importances {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn leaf_l2_shrinks_leaves_toward_zero() {
        let (x, y) = step_data();
        let mut plain = RegressionTree::new(TreeParams::default());
        let mut shrunk = RegressionTree::new(TreeParams { leaf_l2: 20.0, ..Default::default() });
        plain.fit(&x, &y);
        shrunk.fit(&x, &y);
        assert!(shrunk.predict_row(&[10.0]).abs() < plain.predict_row(&[10.0]).abs());
    }

    #[test]
    fn min_gain_prunes_noise_splits() {
        let (x, y) = step_data();
        let mut t = RegressionTree::new(TreeParams { min_gain: 1e9, ..Default::default() });
        t.fit(&x, &y);
        // impossible gain bar -> a single leaf
        assert_eq!(t.nodes.len(), 1);
    }

    #[test]
    fn binner_handles_constant_and_binary_features() {
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 0.0]]);
        let b = Binner::fit(&x);
        // constant feature: no cuts
        assert_eq!(b.cuts[0].len(), 0);
        // binary feature: one cut between 0 and 1
        assert_eq!(b.cuts[1].len(), 1);
        assert_eq!(b.bin(1, 0.0), 0);
        assert_eq!(b.bin(1, 1.0), 1);
    }

    impl RegressionTree {
        /// The feature-major builder `build` replaced — one scan of the
        /// node's samples per candidate feature, three arrays, every bin
        /// below the last walked — kept as the oracle the one-pass builder
        /// must match byte for byte.
        fn fit_binned_feature_major(
            &mut self,
            binned: &[u8],
            binner: &Binner,
            y: &[f64],
            indices: &mut [u32],
        ) {
            let cols = binner.num_features();
            self.nodes.clear();
            self.importances = vec![0.0; cols];
            let mut rng = SplitMix64::new(self.params.seed ^ 0x7EE5);
            let mut pool: Vec<u32> = (0..cols as u32).collect();
            if indices.is_empty() {
                self.push_leaf(0.0);
            } else {
                self.build_feature_major(binned, binner, y, &mut rng, &mut pool, indices, 0);
            }
            self.depth = longest_path(&self.nodes);
        }

        #[allow(clippy::too_many_arguments)]
        fn build_feature_major(
            &mut self,
            binned: &[u8],
            binner: &Binner,
            y: &[f64],
            rng: &mut SplitMix64,
            pool: &mut [u32],
            indices: &mut [u32],
            depth: usize,
        ) -> u32 {
            let cols = binner.num_features();
            let n = indices.len();
            let (sum, sq) = indices.iter().fold((0.0, 0.0), |(s, q), &i| {
                let v = y[i as usize];
                (s + v, q + v * v)
            });
            let leaf_value = sum / (n as f64 + self.params.leaf_l2);
            let parent_sse = sq - sum * sum / n as f64;
            if depth >= self.params.max_depth
                || n < self.params.min_samples_split
                || parent_sse <= 1e-12
            {
                return self.push_leaf(leaf_value);
            }
            let n_candidates = self.params.max_features.unwrap_or(cols).clamp(1, cols);
            for i in 0..n_candidates {
                let j = i + rng.next_below(cols - i);
                pool.swap(i, j);
            }
            let mut best: Option<(usize, usize, f64)> = None;
            let mut bin_count = [0u32; MAX_BINS];
            let mut bin_sum = [0.0f64; MAX_BINS];
            let mut bin_sq = [0.0f64; MAX_BINS];
            for &feature in &pool[..n_candidates] {
                let f = feature as usize;
                let n_cuts = binner.cuts[f].len();
                if n_cuts == 0 {
                    continue;
                }
                let n_bins = n_cuts + 1;
                bin_count[..n_bins].fill(0);
                bin_sum[..n_bins].fill(0.0);
                bin_sq[..n_bins].fill(0.0);
                for &i in indices.iter() {
                    let b = binned[i as usize * cols + f] as usize;
                    let v = y[i as usize];
                    bin_count[b] += 1;
                    bin_sum[b] += v;
                    bin_sq[b] += v * v;
                }
                let (mut lc, mut ls, mut lq) = (0u32, 0.0f64, 0.0f64);
                for b in 0..n_cuts {
                    lc += bin_count[b];
                    ls += bin_sum[b];
                    lq += bin_sq[b];
                    let rc = n as u32 - lc;
                    if (lc as usize) < self.params.min_samples_leaf
                        || (rc as usize) < self.params.min_samples_leaf
                    {
                        continue;
                    }
                    if lc == 0 || rc == 0 {
                        continue;
                    }
                    let rs = sum - ls;
                    let rq = sq - lq;
                    let left_sse = lq - ls * ls / f64::from(lc);
                    let right_sse = rq - rs * rs / f64::from(rc);
                    let gain = parent_sse - left_sse - right_sse;
                    if gain > best.map_or(self.params.min_gain, |(_, _, g)| g) {
                        best = Some((f, b, gain));
                    }
                }
            }
            let Some((feature, bin, gain)) = best else {
                return self.push_leaf(leaf_value);
            };
            self.importances[feature] += gain;
            let mut lo = 0usize;
            let mut hi = indices.len();
            while lo < hi {
                if binned[indices[lo] as usize * cols + feature] as usize <= bin {
                    lo += 1;
                } else {
                    hi -= 1;
                    indices.swap(lo, hi);
                }
            }
            let node_id = self.push_split(feature, binner.threshold(feature, bin));
            let (left_slice, right_slice) = indices.split_at_mut(lo);
            let left =
                self.build_feature_major(binned, binner, y, rng, pool, left_slice, depth + 1);
            let right =
                self.build_feature_major(binned, binner, y, rng, pool, right_slice, depth + 1);
            self.link(node_id, left, right);
            node_id
        }
    }

    /// 300 rows × 6 columns that stress the histogram: a continuous column
    /// (64 bins), a constant one (no cuts), a binary one, a five-valued
    /// one, a continuous one the target ignores, and a copy of the binary
    /// column (exact gain ties across features).
    fn oracle_data() -> (Matrix, Vec<f64>) {
        let mut rng = SplitMix64::new(0xACE);
        let mut x = Matrix::with_cols(6);
        let mut y = Vec::new();
        for i in 0..300 {
            let a = rng.next_f64();
            let binary = f64::from(i % 3 == 0);
            let five = (rng.next_f64() * 5.0).floor();
            x.push_row(&[a, 7.0, binary, five, rng.next_f64(), binary]);
            y.push((6.0 * a).sin() + 2.0 * binary + 0.3 * five + 0.05 * rng.next_f64());
        }
        (x, y)
    }

    #[test]
    fn one_pass_builder_matches_the_feature_major_oracle() {
        let (x, y) = oracle_data();
        let binner = Binner::fit(&x);
        let binned = binner.transform(&x);
        assert_eq!(binner.cuts[0].len(), MAX_BINS - 1, "a 64-bin column");
        assert_eq!(binner.cuts[1].len(), 0, "a constant column");
        assert_eq!(binner.cuts[2].len(), 1, "a binary column");
        let all: Vec<u32> = (0..x.rows as u32).collect();
        // a bootstrap sample: duplicates, and rows that never appear
        let mut rng = SplitMix64::new(5);
        let bootstrap: Vec<u32> = (0..x.rows).map(|_| rng.next_below(x.rows) as u32).collect();
        // fewer samples than `min_samples_split`: the root is a leaf
        let few: Vec<u32> = vec![3, 3, 17];
        let encoded = |t: &RegressionTree| {
            let mut w = Writer::new();
            t.encode(&mut w);
            w.into_bytes()
        };
        let mut compared = 0;
        for indices in [&all, &bootstrap, &few] {
            for max_features in [None, Some(1), Some(2), Some(4)] {
                for min_samples_leaf in [1, 2, 5] {
                    for seed in [1, 2, 3] {
                        for (leaf_l2, min_gain, max_depth) in [(0.0, 1e-12, 12), (1.0, 1e-9, 5)] {
                            let params = TreeParams {
                                max_depth,
                                min_samples_split: (2 * min_samples_leaf).max(4),
                                min_samples_leaf,
                                max_features,
                                leaf_l2,
                                min_gain,
                                seed,
                            };
                            let ctx = format!("{params:?} on {} samples", indices.len());
                            let mut got = RegressionTree::new(params.clone());
                            let mut want = RegressionTree::new(params);
                            let (mut a, mut b) = (indices.clone(), indices.clone());
                            got.fit_binned(&binned, &binner, &y, &mut a);
                            want.fit_binned_feature_major(&binned, &binner, &y, &mut b);
                            assert_eq!(encoded(&got), encoded(&want), "encoded tree: {ctx}");
                            assert_eq!(a, b, "sample order after partitioning: {ctx}");
                            // (one sampled feature may be the constant column)
                            assert!(
                                indices.len() < 4 || max_features.is_some() || want.nodes.len() > 9,
                                "the fixture must split: {ctx}"
                            );
                            compared += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(compared, 3 * 4 * 3 * 3 * 2);
    }

    #[test]
    fn a_node_is_no_larger_than_the_tagged_enum_it_replaced() {
        // `enum { Leaf { f64 }, Split { u32, f64, u32, u32 } }` was 24 bytes
        assert!(std::mem::size_of::<Node>() <= 24, "{} B", std::mem::size_of::<Node>());
    }

    /// A hand-encoded tree whose node 5 (a split) two parents reach: node 2
    /// at depth 2, node 4 at depth 1. `decode` accepts the shape — links
    /// point forward. The longest path, 0 → 1 → 2 → 5 → 6, is four edges;
    /// a depth taken from each node's last parent puts node 5 at depth 2
    /// and the tree at depth 3, one step short of leaf 6.
    #[test]
    fn a_node_two_parents_reach_at_different_depths_walks_the_longest_path() {
        enum N {
            Leaf(f64),
            Split(f64, u32, u32),
        }
        let nodes = [
            N::Split(0.0, 1, 4),
            N::Split(-1.0, 2, 3),
            N::Split(-2.0, 5, 8),
            N::Leaf(3.0),
            N::Split(1.0, 5, 9),
            N::Split(-3.0, 6, 7),
            N::Leaf(6.0),
            N::Leaf(7.0),
            N::Leaf(8.0),
            N::Leaf(9.0),
        ];
        let mut w = Writer::new();
        w.put_u8(TAG_TREE);
        for v in [12, 4, 2] {
            w.put_usize(v);
        }
        w.put_opt(None, Writer::put_usize);
        w.put_f64(0.0);
        w.put_f64(1e-12);
        w.put_u64(0);
        w.put_usize(nodes.len());
        for node in &nodes {
            match *node {
                N::Leaf(value) => {
                    w.put_u8(0);
                    w.put_f64(value);
                }
                N::Split(threshold, left, right) => {
                    w.put_u8(1);
                    w.put_u32(0);
                    w.put_f64(threshold);
                    w.put_u32(left);
                    w.put_u32(right);
                }
            }
        }
        w.put_f64s(&[1.0]);
        let bytes = w.into_bytes();
        let tree = RegressionTree::decode(&mut Reader::new(&bytes), 1).expect("forward links");
        assert_eq!(tree.depth, 4);
        let mut again = Writer::new();
        tree.encode(&mut again);
        assert!(again.into_bytes() == bytes, "the tagged nodes re-encode byte for byte");

        let cases = [
            (-5.0, 6.0), // through the deeper parent to the deepest leaf
            (-2.5, 7.0),
            (-1.5, 8.0),
            (-0.5, 3.0),
            (0.5, 7.0), // through the shallower parent
            (2.0, 9.0),
            (f64::NAN, 9.0), // every comparison false: right, right
            (f64::INFINITY, 9.0),
            (f64::NEG_INFINITY, 6.0),
        ];
        let x = Matrix::from_rows(&cases.iter().map(|&(v, _)| vec![v]).collect::<Vec<_>>());
        let batched = tree.predict(&x);
        for (&(v, want), got) in cases.iter().zip(batched) {
            assert_eq!(tree.predict_row(&[v]), want, "row walk of {v}");
            assert_eq!(got.to_bits(), want.to_bits(), "batched walk of {v}");
        }
    }

    #[test]
    fn handles_duplicate_bootstrap_indices() {
        let (x, y) = step_data();
        let binner = Binner::fit(&x);
        let binned = binner.transform(&x);
        let mut idx: Vec<u32> = vec![0, 0, 1, 19, 19, 19, 10];
        let mut t = RegressionTree::new(TreeParams::default());
        t.fit_binned(&binned, &binner, &y, &mut idx);
        assert!(t.predict_row(&[19.0]) > 5.0);
    }
}
