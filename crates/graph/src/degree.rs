//! Degree statistics and Pearson's first skewness coefficient.
//!
//! The paper (Sec. II-B.5) characterizes degree distributions with
//! `skew(values) = (mean(values) − mode(values)) / σ(values)` and feeds the
//! in-degree and out-degree skewness to the machine-learning models as
//! "basic" features.
//!
//! [`DegreeTable::compute_source`] derives the table from any edge stream in
//! one sequential pass that also folds the content fingerprint;
//! [`DegreeTable::compute`] over an in-memory [`Graph`] is the independent
//! reference the tests compare it with.

use crate::edge_list::Graph;
use crate::source::{each_edge, BlockHasher, GraphSource};
use crate::types::Edge;

/// Summary statistics of a per-vertex integer metric (degrees, triangle
/// counts, ...).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    pub mean: f64,
    pub std_dev: f64,
    pub min: u32,
    pub max: u32,
    /// Most frequent value (smallest value wins ties, making the statistic
    /// deterministic).
    pub mode: u32,
    /// Pearson's first skewness coefficient `(mean - mode)/σ`; 0 when σ = 0.
    pub pearson_skew: f64,
}

/// Compute [`Moments`] of a value vector.
pub fn moments(values: &[u32]) -> Moments {
    if values.is_empty() {
        return Moments { mean: 0.0, std_dev: 0.0, min: 0, max: 0, mode: 0, pearson_skew: 0.0 };
    }
    let n = values.len() as f64;
    let mut sum = 0.0f64;
    let mut min = u32::MAX;
    let mut max = 0u32;
    for &v in values {
        sum += f64::from(v);
        min = min.min(v);
        max = max.max(v);
    }
    let mean = sum / n;
    let mut var = 0.0f64;
    for &v in values {
        let d = f64::from(v) - mean;
        var += d * d;
    }
    let std_dev = (var / n).sqrt();
    // Mode via a counting table over the (small) value range, falling back to
    // a sort-based scan when the range is huge relative to n.
    let mode = mode_of(values, min, max);
    let pearson_skew = if std_dev > 0.0 { (mean - f64::from(mode)) / std_dev } else { 0.0 };
    Moments { mean, std_dev, min, max, mode, pearson_skew }
}

fn mode_of(values: &[u32], min: u32, max: u32) -> u32 {
    let range = (max - min) as usize + 1;
    if range <= values.len() * 4 + 1024 {
        let mut counts = vec![0u32; range];
        for &v in values {
            counts[(v - min) as usize] += 1;
        }
        let mut best = (0u32, 0usize);
        for (i, &c) in counts.iter().enumerate() {
            if c > best.0 {
                best = (c, i);
            }
        }
        min + best.1 as u32
    } else {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let (mut best_val, mut best_count) = (sorted[0], 0usize);
        let (mut cur_val, mut cur_count) = (sorted[0], 0usize);
        for &v in &sorted {
            if v == cur_val {
                cur_count += 1;
            } else {
                if cur_count > best_count {
                    best_val = cur_val;
                    best_count = cur_count;
                }
                cur_val = v;
                cur_count = 1;
            }
        }
        if cur_count > best_count {
            best_val = cur_val;
        }
        best_val
    }
}

/// Degree tables of a graph with cached statistics.
#[derive(Debug, Clone)]
pub struct DegreeTable {
    pub out: Vec<u32>,
    pub into: Vec<u32>,
    pub total: Vec<u32>,
    pub out_moments: Moments,
    pub in_moments: Moments,
    pub total_moments: Moments,
}

impl DegreeTable {
    pub fn compute(graph: &Graph) -> Self {
        let out = graph.out_degrees();
        let into = graph.in_degrees();
        let total = graph.total_degrees();
        let out_moments = moments(&out);
        let in_moments = moments(&into);
        let total_moments = moments(&total);
        DegreeTable { out, into, total, out_moments, in_moments, total_moments }
    }

    /// Compute the table from any [`GraphSource`] in one sequential pass.
    /// The same pass folds the [block fingerprint](crate::source) — the
    /// second return value — so source-backed contexts pay one traversal
    /// for both.
    ///
    /// Bit-identical to [`DegreeTable::compute`] and
    /// [`fingerprint_source`](crate::source::fingerprint_source) on the same
    /// stream.
    pub fn compute_source(source: &dyn GraphSource) -> (Self, u64) {
        let mut hasher = BlockHasher::new(source.num_vertices(), source.edge_count());
        let table = Self::tally(source, |e| hasher.feed(e));
        (table, hasher.finish())
    }

    /// [`DegreeTable::compute_source`] without the fingerprint, for a
    /// context that has it already.
    pub(crate) fn count_source(source: &dyn GraphSource) -> Self {
        Self::tally(source, |_| {})
    }

    /// The counting pass, handing every edge to `also` as well.
    #[inline(always)]
    fn tally(source: &dyn GraphSource, mut also: impl FnMut(Edge)) -> Self {
        let n = source.num_vertices();
        let mut out = vec![0u32; n];
        let mut into = vec![0u32; n];
        each_edge(source, |e| {
            out[e.src as usize] += 1;
            into[e.dst as usize] += 1;
            also(e);
        });
        let total: Vec<u32> = out.iter().zip(&into).map(|(a, b)| a + b).collect();
        let out_moments = moments(&out);
        let in_moments = moments(&into);
        let total_moments = moments(&total);
        DegreeTable { out, into, total, out_moments, in_moments, total_moments }
    }

    /// Mean total degree `2|E|/|V|` (paper Sec. II-B.2).
    pub fn mean_degree(&self) -> f64 {
        self.total_moments.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_of_uniform_values() {
        let m = moments(&[3, 3, 3, 3]);
        assert_eq!(m.mean, 3.0);
        assert_eq!(m.std_dev, 0.0);
        assert_eq!(m.mode, 3);
        assert_eq!(m.pearson_skew, 0.0);
    }

    #[test]
    fn moments_hand_computed() {
        // values 1,2,2,3: mean=2, var=(1+0+0+1)/4=0.5, mode=2
        let m = moments(&[1, 2, 2, 3]);
        assert!((m.mean - 2.0).abs() < 1e-12);
        assert!((m.std_dev - 0.5f64.sqrt()).abs() < 1e-12);
        assert_eq!(m.mode, 2);
        assert!(m.pearson_skew.abs() < 1e-12);
        assert_eq!((m.min, m.max), (1, 3));
    }

    #[test]
    fn right_skewed_distribution_has_positive_skew() {
        // many small values, few huge ones -> mean > mode -> positive skew
        let mut vals = vec![1u32; 100];
        vals.extend([50, 60, 70]);
        let m = moments(&vals);
        assert!(m.pearson_skew > 0.1, "skew={}", m.pearson_skew);
        assert_eq!(m.mode, 1);
    }

    #[test]
    fn mode_tie_breaks_to_smallest() {
        let m = moments(&[5, 5, 9, 9, 7]);
        assert_eq!(m.mode, 5);
    }

    #[test]
    fn mode_sparse_range_fallback() {
        // Huge value range triggers the sort-based path.
        let mut vals = vec![1_000_000_000u32, 1, 1, 2];
        vals.push(u32::MAX - 1);
        let m = moments(&vals);
        assert_eq!(m.mode, 1);
    }

    #[test]
    fn degree_table_mean_degree_matches_formula() {
        let g = Graph::from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let t = DegreeTable::compute(&g);
        let expect = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!((t.mean_degree() - expect).abs() < 1e-12);
    }

    #[test]
    fn empty_values() {
        let m = moments(&[]);
        assert_eq!(m.mean, 0.0);
        assert_eq!(m.pearson_skew, 0.0);
    }

    /// Two full fingerprint blocks and a partial one, so the fused pass's
    /// hasher rolls over block boundaries.
    #[test]
    fn source_table_matches_the_graph_table_and_fingerprints_agree() {
        use crate::source::{fingerprint_source, FINGERPRINT_BLOCK};
        let mut edges = Vec::new();
        let mut x = 7u64;
        for _ in 0..(FINGERPRINT_BLOCK * 2 + 77) {
            x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(0x9E37);
            edges.push(crate::types::Edge::new(((x >> 32) % 113) as u32, (x % 113) as u32));
        }
        let g = Graph::new(113, edges);
        let reference = DegreeTable::compute(&g);
        let fp_reference = fingerprint_source(&g);
        let (table, fp) = DegreeTable::compute_source(&g);
        assert_eq!(table.out, reference.out);
        assert_eq!(table.into, reference.into);
        assert_eq!(table.total, reference.total);
        assert_eq!(table.total_moments, reference.total_moments);
        assert_eq!(fp, fp_reference, "fused fingerprint");
    }

    #[test]
    fn empty_source_table_is_degenerate_but_safe() {
        let (table, fp) = DegreeTable::compute_source(&Graph::empty(0));
        assert!(table.out.is_empty());
        assert_eq!(fp, crate::source::fingerprint_source(&Graph::empty(0)));
    }
}
