//! CART regression trees with histogram-based split search.
//!
//! Features are quantile-binned (≤ 64 bins) once per fit; a node's
//! histograms are filled by one walk over its samples, adding every sample
//! to one `{sum, sq, count}` cell per feature, and the split scan reads
//! only the bins that received a sample — `O(samples × features)` per tree
//! level instead of sort-based `O(samples log samples × features)`, with
//! one read of `y` and of the row's bin bytes per sample rather than one
//! per (sample, feature). The datasets are small (792 × 18 for the quality
//! predictor at tiny scale, with columns of 3 to 24 distinct values and
//! eleven binary one-hots), so most of the 64 bins of most columns are
//! empty at every node: the occupied-bin mask is what keeps the scan
//! proportional to the data.
//!
//! Histogram subtraction (LightGBM; XGBoost's `hist` builder): when both
//! children of a split will be split again and `derives` says it pays,
//! only the smaller child's histograms are filled, and the larger child's
//! are the node's minus those, one occupied bin at a time. Counts are
//! integers, so a derived count — and the occupied mask read off the
//! counts — is exactly what a fill gives; a derived sum rounds differently,
//! so a near-tie split can go the other way. Trees grown since derivation
//! came in differ from earlier ones in their last bits for that reason
//! alone: the RNG stream, the leaf values' fold, the scan and its
//! tie-break, and the in-place partition are what they were.
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

/// One histogram bin of one feature. The three accumulators sit side by
/// side, so the update a sample makes touches one cache line.
#[derive(Clone, Copy, Default)]
struct Cell {
    sum: f64,
    sq: f64,
    count: u32,
}

/// One feature's histogram: its bins' cells, and bit `b` set when a sample
/// fell in bin `b`.
#[derive(Clone)]
struct Bins {
    cells: [Cell; MAX_BINS],
    occupied: u64,
}

// a feature's occupied bins are one `u64` mask
const _: () = assert!(MAX_BINS <= 64);

/// A node's histograms: one [`Bins`] per feature of the list it was filled
/// over — the node's candidates, or every splittable feature — in that
/// list's order. Reused from node to node and tree to tree, so a fill
/// clears what it adds to and nothing else is read.
#[derive(Default)]
pub(crate) struct Histogram(Vec<Bins>);

impl Histogram {
    /// Clear the bins of `features`, then add the samples to them in one
    /// pass; each cell receives its samples in `indices` order.
    fn fill(&mut self, data: &Data, features: &[u32], indices: &[u32]) {
        if self.0.len() < features.len() {
            let empty = Bins { cells: [Cell::default(); MAX_BINS], occupied: 0 };
            self.0.resize(features.len(), empty);
        }
        let hist = &mut self.0[..features.len()];
        for (&f, bins) in features.iter().zip(hist.iter_mut()) {
            bins.cells[..data.binner.cuts[f as usize].len() + 1].fill(Cell::default());
            bins.occupied = 0;
        }
        let (y, binned, cols) = (data.y, data.binned, data.cols);
        for &i in indices {
            let v = y[i as usize];
            let v2 = v * v;
            let row = &binned[i as usize * cols..][..cols];
            for (&f, bins) in features.iter().zip(hist.iter_mut()) {
                // a bin index is below `MAX_BINS`; the `%` says so to the
                // compiler, which then drops the bounds check
                let b = row[f as usize] as usize % MAX_BINS;
                let cell = &mut bins.cells[b];
                cell.sum += v;
                cell.sq += v2;
                cell.count += 1;
                bins.occupied |= 1 << b;
            }
        }
    }

    /// Turn a node's histograms (its first `features`) into those of the
    /// child that `child` — the other child's, filled over the same list —
    /// does not hold: subtract cell by cell over the node's occupied bins.
    /// Counts are integers, so the derived counts, and the masks read off
    /// them, are exactly a direct fill's; the sums round differently.
    fn subtract(&mut self, child: &Histogram, features: usize) {
        for (bins, sub) in self.0[..features].iter_mut().zip(&child.0) {
            let (mut rest, mut occupied) = (bins.occupied, 0u64);
            while rest != 0 {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let (cell, s) = (&mut bins.cells[b], &sub.cells[b]);
                cell.count -= s.count;
                cell.sum -= s.sum;
                cell.sq -= s.sq;
                occupied |= u64::from(cell.count != 0) << b;
            }
            bins.occupied = occupied;
        }
    }
}

/// Whether a split of a node at `depth` into children of `n_left` and
/// `n_right` samples derives its larger child's histograms instead of
/// filling them. Only when both children will be split again (neither is at
/// the depth limit or below `min_samples_split`), and only when the larger
/// child holds at least [`DERIVE_MIN_SAMPLES`]. Filling the larger child
/// costs one cell update per sample and splittable feature; the
/// subtraction costs one per occupied bin (at most `MAX_BINS`) and feature,
/// each reading two cells and writing one. The rule reads only sample
/// counts, so the same split derives whatever the node's bins hold.
fn derives(params: &TreeParams, depth: usize, (n_left, n_right): (usize, usize)) -> bool {
    depth + 1 < params.max_depth
        && n_left.min(n_right) >= params.min_samples_split
        && n_left.max(n_right) >= DERIVE_MIN_SAMPLES
}

/// The fewest samples a larger child holds for [`derives`] to pass:
/// one and a half times `MAX_BINS`, so that its fill outweighs a
/// subtraction over every bin.
const DERIVE_MIN_SAMPLES: usize = 3 * MAX_BINS / 2;

/// What a fit reads and never changes.
struct Data<'a> {
    binned: &'a [u8],
    y: &'a [f64],
    cols: usize,
    binner: &'a Binner,
}

/// The builder's state. A node scans the histograms in its slot `s` of
/// `hists`, filled there by itself or handed down by its parent. A split
/// that [`derives`] fills the smaller child's histograms into slot `s + 1`
/// over every splittable feature (not only its candidates, so that a
/// random-forest child finds its own), subtracts them from the node's, and
/// hands the left child slot `s + 1` and the right child slot `s` — the
/// left subtree touches only slots past `s`. Any other split hands its
/// children nothing, and each fills slot `s` again: over every splittable
/// feature when a split of its size could derive, over its candidates
/// otherwise. So a fit holds one histogram per derivation on its deepest
/// path, plus one. Tree bytes changed when derivation came in — a derived
/// sum rounds differently — but the RNG stream, the leaf values' fold, the
/// scan and the partition did not.
struct BuildCtx<'a> {
    data: Data<'a>,
    rng: SplitMix64,
    feature_pool: Vec<u32>,
    /// The features with cuts: all a histogram can split on.
    splittable: Vec<u32>,
    /// Per feature, its place in `splittable`.
    position: Vec<u32>,
    /// The node's splittable candidate features, in pool order.
    candidates: Vec<u32>,
    hists: Vec<Histogram>,
}

impl RegressionTree {
    pub fn new(params: TreeParams) -> Self {
        RegressionTree { params, nodes: Vec::new(), depth: 0, importances: Vec::new() }
    }

    /// Fit against pre-binned data (ensemble path; `indices` may contain
    /// duplicates for bootstrap sampling).
    pub fn fit_binned(&mut self, binned: &[u8], binner: &Binner, y: &[f64], indices: &mut [u32]) {
        self.fit_binned_reusing(binned, binner, y, indices, &mut Vec::new());
    }

    /// [`RegressionTree::fit_binned`] with the histograms of an earlier fit
    /// at hand, so that an ensemble allocates them once.
    pub(crate) fn fit_binned_reusing(
        &mut self,
        binned: &[u8],
        binner: &Binner,
        y: &[f64],
        indices: &mut [u32],
        hists: &mut Vec<Histogram>,
    ) {
        let cols = binner.num_features();
        self.nodes.clear();
        self.importances = vec![0.0; cols];
        let splittable: Vec<u32> =
            (0..cols as u32).filter(|&f| !binner.cuts[f as usize].is_empty()).collect();
        let mut position = vec![0; cols];
        for (at, &f) in splittable.iter().enumerate() {
            position[f as usize] = at as u32;
        }
        let mut ctx = BuildCtx {
            data: Data { binned, y, cols, binner },
            rng: SplitMix64::new(self.params.seed ^ 0x7EE5),
            feature_pool: (0..cols as u32).collect(),
            splittable,
            position,
            candidates: Vec::with_capacity(cols),
            hists: std::mem::take(hists),
        };
        if indices.is_empty() {
            self.push_leaf(0.0);
        } else {
            self.build(&mut ctx, indices, 0, 0, false);
        }
        *hists = ctx.hists;
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

    /// Grow the subtree of `indices` at `depth` with histogram slot `slot`;
    /// `handed` is whether the parent left the node's histograms there.
    fn build(
        &mut self,
        ctx: &mut BuildCtx,
        indices: &mut [u32],
        depth: usize,
        slot: usize,
        handed: bool,
    ) -> u32 {
        let n = indices.len();
        let (sum, sq) = indices.iter().fold((0.0, 0.0), |(s, q), &i| {
            let v = ctx.data.y[i as usize];
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
        let cols = ctx.data.cols;
        let n_candidates = self.params.max_features.unwrap_or(cols).clamp(1, cols);
        for i in 0..n_candidates {
            let j = i + ctx.rng.next_below(cols - i);
            ctx.feature_pool.swap(i, j);
        }
        // a feature without cuts (constant when binned) cannot split
        let BuildCtx { data, feature_pool, splittable, position, candidates, hists, .. } =
            &mut *ctx;
        candidates.clear();
        candidates.extend(
            feature_pool[..n_candidates]
                .iter()
                .filter(|&&f| !data.binner.cuts[f as usize].is_empty()),
        );
        if hists.len() <= slot {
            hists.push(Histogram::default());
        }
        // a handed node's histograms cover every splittable feature; a node
        // fills them all when its most uneven split into children of at
        // least `min_samples_split` passes `derives` — any split that passes
        // is no more uneven, so a node filled by candidate never derives —
        // and its candidates' otherwise
        let mut by_candidate = false;
        if !handed {
            let min_split = self.params.min_samples_split;
            let may_derive = derives(&self.params, depth, (min_split, n.saturating_sub(min_split)));
            by_candidate = !may_derive;
            hists[slot].fill(data, if may_derive { splittable } else { candidates }, indices);
        }
        let hist = &hists[slot];
        let mut best: Option<(usize, usize, f64)> = None; // (feature, bin, gain)
        for (k, &f) in candidates.iter().enumerate() {
            let f = f as usize;
            let Bins { cells, occupied } =
                &hist.0[if by_candidate { k } else { position[f] as usize }];
            // "bin ≤ b" is a split for every bin below the last. An empty
            // bin repeats the prefix sums of the bin before it, and a gain
            // cannot beat itself under the strict `>`: only occupied bins
            // are walked, in bin order.
            let mut below_last = occupied & ((1u64 << data.binner.cuts[f].len()) - 1);
            let (mut lc, mut ls, mut lq) = (0u32, 0.0f64, 0.0f64);
            while below_last != 0 {
                let b = below_last.trailing_zeros() as usize;
                below_last &= below_last - 1;
                lc += cells[b].count;
                ls += cells[b].sum;
                lq += cells[b].sq;
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
            if data.binned[indices[lo] as usize * cols + feature] as usize <= bin {
                lo += 1;
            } else {
                hi -= 1;
                indices.swap(lo, hi);
            }
        }
        let node_id = self.push_split(feature, data.binner.threshold(feature, bin));
        let (left_slice, right_slice) = indices.split_at_mut(lo);
        if !derives(&self.params, depth, (left_slice.len(), right_slice.len())) {
            let left = self.build(ctx, left_slice, depth + 1, slot, false);
            let right = self.build(ctx, right_slice, depth + 1, slot, false);
            self.link(node_id, left, right);
            return node_id;
        }
        debug_assert!(!by_candidate, "a node filled by candidate derived");
        let features = splittable.len();
        if hists.len() <= slot + 1 {
            hists.push(Histogram::default());
        }
        let (node, child) = hists.split_at_mut(slot + 1);
        let (node, child) = (&mut node[slot], &mut child[0]);
        let left_is_smaller = left_slice.len() <= right_slice.len();
        child.fill(data, splittable, if left_is_smaller { left_slice } else { right_slice });
        node.subtract(child, features);
        if !left_is_smaller {
            std::mem::swap(node, child);
        }
        let left = self.build(ctx, left_slice, depth + 1, slot + 1, true);
        let right = self.build(ctx, right_slice, depth + 1, slot, true);
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

    /// The oracle's histograms: every bin of every feature, by feature.
    type OracleBins = Vec<[(u32, f64, f64); MAX_BINS]>;

    /// Every splittable feature's bins over `indices`, one feature at a time.
    fn fill_feature_major(
        binned: &[u8],
        binner: &Binner,
        y: &[f64],
        indices: &[u32],
    ) -> OracleBins {
        let cols = binner.num_features();
        let mut hist = vec![[(0u32, 0.0f64, 0.0f64); MAX_BINS]; cols];
        for (f, bins) in hist.iter_mut().enumerate() {
            if binner.cuts[f].is_empty() {
                continue;
            }
            for &i in indices {
                let (count, sum, sq) = &mut bins[binned[i as usize * cols + f] as usize];
                let v = y[i as usize];
                *count += 1;
                *sum += v;
                *sq += v * v;
            }
        }
        hist
    }

    /// `node − child`, bin by bin; a bin the subtraction empties is empty.
    fn subtract_feature_major(node: &OracleBins, child: &OracleBins) -> OracleBins {
        let cell = |&(c, s, q): &(u32, f64, f64), &(cc, cs, cq): &(u32, f64, f64)| {
            if c == cc {
                (0, 0.0, 0.0)
            } else {
                (c - cc, s - cs, q - cq)
            }
        };
        node.iter().zip(child).map(|(n, c)| std::array::from_fn(|b| cell(&n[b], &c[b]))).collect()
    }

    impl RegressionTree {
        /// The feature-major builder `build` replaced — one scan of the
        /// node's samples per feature, every bin below the last walked — kept
        /// as the oracle the one-pass builder must match byte for byte.
        /// With `derive`, a split that [`derives`] hands its children the
        /// smaller one's bins filled and the larger one's subtracted, as
        /// `build` does; without, every node fills its own. Returns how
        /// many splits derived.
        fn fit_binned_feature_major(
            &mut self,
            binned: &[u8],
            binner: &Binner,
            y: &[f64],
            indices: &mut [u32],
            derive: bool,
        ) -> usize {
            let cols = binner.num_features();
            self.nodes.clear();
            self.importances = vec![0.0; cols];
            let mut rng = SplitMix64::new(self.params.seed ^ 0x7EE5);
            let mut pool: Vec<u32> = (0..cols as u32).collect();
            let mut derived = 0;
            if indices.is_empty() {
                self.push_leaf(0.0);
            } else {
                let data = Data { binned, y, cols, binner };
                let derive = derive.then_some(&mut derived);
                self.build_feature_major(&data, &mut rng, &mut pool, indices, 0, derive, None);
            }
            self.depth = longest_path(&self.nodes);
            derived
        }

        #[allow(clippy::too_many_arguments)]
        fn build_feature_major(
            &mut self,
            data: &Data,
            rng: &mut SplitMix64,
            pool: &mut [u32],
            indices: &mut [u32],
            depth: usize,
            mut derived: Option<&mut usize>,
            handed: Option<OracleBins>,
        ) -> u32 {
            let Data { binned, y, cols, binner } = *data;
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
            let hist = handed.unwrap_or_else(|| fill_feature_major(binned, binner, y, indices));
            let mut best: Option<(usize, usize, f64)> = None;
            for &feature in &pool[..n_candidates] {
                let f = feature as usize;
                let n_cuts = binner.cuts[f].len();
                let (mut lc, mut ls, mut lq) = (0u32, 0.0f64, 0.0f64);
                for b in 0..n_cuts {
                    let (count, bin_sum, bin_sq) = hist[f][b];
                    lc += count;
                    ls += bin_sum;
                    lq += bin_sq;
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
            let (left_bins, right_bins) = if derived.is_some()
                && derives(&self.params, depth, (left_slice.len(), right_slice.len()))
            {
                if let Some(count) = derived.as_mut() {
                    **count += 1;
                }
                if left_slice.len() <= right_slice.len() {
                    let smaller = fill_feature_major(binned, binner, y, left_slice);
                    let larger = subtract_feature_major(&hist, &smaller);
                    (Some(smaller), Some(larger))
                } else {
                    let smaller = fill_feature_major(binned, binner, y, right_slice);
                    let larger = subtract_feature_major(&hist, &smaller);
                    (Some(larger), Some(smaller))
                }
            } else {
                (None, None)
            };
            let left = self.build_feature_major(
                data,
                rng,
                pool,
                left_slice,
                depth + 1,
                derived.as_deref_mut(),
                left_bins,
            );
            let right = self.build_feature_major(
                data,
                rng,
                pool,
                right_slice,
                depth + 1,
                derived,
                right_bins,
            );
            self.link(node_id, left, right);
            node_id
        }
    }

    /// 300 rows × 6 columns that stress the histogram: a continuous column
    /// (64 bins), a constant one (no cuts), a binary one, a five-valued
    /// one, a continuous one the target ignores, and a copy of the binary
    /// column (exact gain ties across features). The labels are
    /// real-valued, or multiples of 1/16 in [−8, 8] with `dyadic` — then
    /// every partial sum of labels and of their squares over ≤ 300 samples
    /// is exact in `f64`, and a subtracted bin equals a filled one.
    fn oracle_data(dyadic: bool) -> (Matrix, Vec<f64>) {
        let mut rng = SplitMix64::new(0xACE);
        let mut x = Matrix::with_cols(6);
        let mut y = Vec::new();
        for i in 0..300 {
            let a = rng.next_f64();
            let binary = f64::from(i % 3 == 0);
            let five = (rng.next_f64() * 5.0).floor();
            x.push_row(&[a, 7.0, binary, five, rng.next_f64(), binary]);
            let label = (6.0 * a).sin() + 2.0 * binary + 0.3 * five + 0.05 * rng.next_f64();
            y.push(if dyadic { ((label * 16.0).round() / 16.0).clamp(-8.0, 8.0) } else { label });
        }
        (x, y)
    }

    fn encoded(t: &RegressionTree) -> Vec<u8> {
        let mut w = Writer::new();
        t.encode(&mut w);
        w.into_bytes()
    }

    /// Every one of the 216 parameter points of the oracle tests, over
    /// all rows, a bootstrap sample (duplicates, and rows that never
    /// appear), and fewer samples than `min_samples_split` (a leaf root).
    fn oracle_points(rows: usize) -> Vec<(TreeParams, Vec<u32>)> {
        let all: Vec<u32> = (0..rows as u32).collect();
        let mut rng = SplitMix64::new(5);
        let bootstrap: Vec<u32> = (0..rows).map(|_| rng.next_below(rows) as u32).collect();
        let few: Vec<u32> = vec![3, 3, 17];
        let mut points = Vec::new();
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
                            points.push((params, indices.clone()));
                        }
                    }
                }
            }
        }
        assert_eq!(points.len(), 3 * 4 * 3 * 3 * 2);
        points
    }

    /// The one-pass builder and the feature-major oracle on one point:
    /// the builder's tree, the oracle's with `derive`, and how many of the
    /// oracle's splits derived; their sample orders after partitioning
    /// must agree.
    fn both_builders(
        x: &Matrix,
        y: &[f64],
        params: &TreeParams,
        indices: &[u32],
        derive: bool,
    ) -> (RegressionTree, RegressionTree, usize) {
        let binner = Binner::fit(x);
        let binned = binner.transform(x);
        let mut got = RegressionTree::new(params.clone());
        let mut want = RegressionTree::new(params.clone());
        let (mut a, mut b) = (indices.to_vec(), indices.to_vec());
        got.fit_binned(&binned, &binner, y, &mut a);
        let derived = want.fit_binned_feature_major(&binned, &binner, y, &mut b, derive);
        assert_eq!(a, b, "sample order after partitioning: {params:?}");
        (got, want, derived)
    }

    #[test]
    fn one_pass_builder_matches_the_feature_major_oracle() {
        let (x, y) = oracle_data(false);
        let binner = Binner::fit(&x);
        assert_eq!(binner.cuts[0].len(), MAX_BINS - 1, "a 64-bin column");
        assert_eq!(binner.cuts[1].len(), 0, "a constant column");
        assert_eq!(binner.cuts[2].len(), 1, "a binary column");
        let mut derived_somewhere = false;
        for (params, indices) in oracle_points(x.rows) {
            let ctx = format!("{params:?} on {} samples", indices.len());
            let (got, want, _) = both_builders(&x, &y, &params, &indices, true);
            assert_eq!(encoded(&got), encoded(&want), "encoded tree: {ctx}");
            // (one sampled feature may be the constant column)
            assert!(
                indices.len() < 4 || params.max_features.is_some() || want.nodes.len() > 9,
                "the fixture must split: {ctx}"
            );
            let (_, direct, _) = both_builders(&x, &y, &params, &indices, false);
            derived_somewhere |= encoded(&got) != encoded(&direct);
        }
        assert!(derived_somewhere, "no point derived a histogram: the rule never fired");
    }

    /// With sums that never round, subtracting a child's bins from its
    /// parent's gives exactly the bins a fill would: derivation changes
    /// nothing but rounding.
    #[test]
    fn with_exact_sums_deriving_builds_the_trees_filling_does() {
        let (x, y) = oracle_data(true);
        assert!(y.iter().all(|v| (v * 16.0).fract() == 0.0 && v.abs() <= 8.0));
        let mut derived = 0;
        for (params, indices) in oracle_points(x.rows) {
            let (got, direct, _) = both_builders(&x, &y, &params, &indices, false);
            assert_eq!(encoded(&got), encoded(&direct), "encoded tree: {params:?}");
            derived += both_builders(&x, &y, &params, &indices, true).2;
        }
        assert!(derived > 0, "no split derived: the comparison proves nothing");
    }

    #[test]
    fn a_derived_histogram_counts_and_masks_what_a_fill_does() {
        let (x, y) = oracle_data(false);
        let binner = Binner::fit(&x);
        let binned = binner.transform(&x);
        let data = Data { binned: &binned, y: &y, cols: x.cols, binner: &binner };
        let splittable: Vec<u32> =
            (0..x.cols as u32).filter(|&f| !binner.cuts[f as usize].is_empty()).collect();
        // a bootstrap-like multiset, split unevenly
        let mut rng = SplitMix64::new(9);
        let node: Vec<u32> = (0..250).map(|_| rng.next_below(x.rows) as u32).collect();
        let (smaller, larger) = node.split_at(70);
        let [mut derived, mut child, mut filled] = [(); 3].map(|()| Histogram::default());
        derived.fill(&data, &splittable, &node);
        let node_masks: Vec<u64> = derived.0.iter().map(|bins| bins.occupied).collect();
        child.fill(&data, &splittable, smaller);
        derived.subtract(&child, splittable.len());
        filled.fill(&data, &splittable, larger);
        let mut emptied = false;
        for (at, &f) in splittable.iter().enumerate() {
            let (d, w) = (&derived.0[at], &filled.0[at]);
            assert_eq!(d.occupied, w.occupied, "mask of feature {f}");
            emptied |= d.occupied != node_masks[at];
            for b in 0..=binner.cuts[f as usize].len() {
                let (d, w) = (d.cells[b], w.cells[b]);
                assert_eq!(d.count, w.count, "count of feature {f}, bin {b}");
                if w.count > 0 {
                    assert!((d.sum - w.sum).abs() <= 1e-9 * w.sq.max(1.0), "sum of {f}/{b}");
                }
            }
        }
        assert!(emptied, "the smaller child must empty some bin of the node");
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
