//! Helpers shared between integration suites (`mod common;`).

use ease_repro::graph::{Csr, VertexId};
use std::collections::BTreeSet;

/// Triangle-count oracle that shares nothing with the kernel — no ranking,
/// no forward lists: `t(v)` is half the summed sizes of `N(v) ∩ N(u)` over
/// the neighbours `u` of `v`, each intersection taken on sorted sets built
/// from [`Csr::neighbors`]. Every triangle at `v` is seen from both of its
/// other corners, hence the halving.
pub fn naive_triangle_counts(adj: &Csr) -> Vec<u64> {
    let sets: Vec<BTreeSet<VertexId>> =
        adj.iter().map(|(_, list)| list.iter().copied().collect()).collect();
    sets.iter()
        .map(|of_v| {
            let twice: usize =
                of_v.iter().map(|&u| of_v.intersection(&sets[u as usize]).count()).sum();
            (twice / 2) as u64
        })
        .collect()
}
