//! The result of partitioning: a per-edge partition assignment.

/// Edge → partition assignment produced by [`crate::PartitionerId::partition`].
///
/// `assignment[i]` is the partition of `graph.edges()[i]`; partition ids are
/// `u16` (the workspace caps k at [`crate::MAX_PARTITIONS`] = 128, matching
/// the paper, so `u16` wastes nothing while keeping headroom).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgePartition {
    k: usize,
    assignment: Vec<u16>,
}

impl EdgePartition {
    /// Wrap a raw assignment. Panics (debug) if an id is out of range.
    pub fn new(k: usize, assignment: Vec<u16>) -> Self {
        debug_assert!((1..=crate::MAX_PARTITIONS).contains(&k));
        debug_assert!(assignment.iter().all(|&p| (p as usize) < k));
        EdgePartition { k, assignment }
    }

    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.k
    }

    #[inline]
    pub fn num_edges(&self) -> usize {
        self.assignment.len()
    }

    #[inline]
    pub fn partition_of(&self, edge_index: usize) -> usize {
        self.assignment[edge_index] as usize
    }

    #[inline]
    pub fn assignment(&self) -> &[u16] {
        &self.assignment
    }

    /// Edges per partition.
    pub fn edge_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.k];
        for &p in &self.assignment {
            counts[p as usize] += 1;
        }
        counts
    }

    /// Largest / average partition size ratio (edge balance, Sec. II-A.1).
    pub fn edge_balance(&self) -> f64 {
        let counts = self.edge_counts();
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        let avg = self.assignment.len() as f64 / self.k as f64;
        if avg > 0.0 {
            max / avg
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_balance() {
        let p = EdgePartition::new(4, vec![0, 0, 1, 2, 3, 3, 3, 3]);
        assert_eq!(p.edge_counts(), vec![2, 1, 1, 4]);
        // max 4 / avg 2 = 2.0
        assert!((p.edge_balance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn perfectly_balanced_is_one() {
        let p = EdgePartition::new(2, vec![0, 1, 0, 1]);
        assert!((p.edge_balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_partitioning_balance_defaults_to_one() {
        let p = EdgePartition::new(4, vec![]);
        assert_eq!(p.edge_balance(), 1.0);
    }
}
