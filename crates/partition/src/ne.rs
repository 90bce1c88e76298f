//! NE — Neighborhood Expansion (Zhang et al., KDD 2017).
//!
//! In-memory edge partitioner. For each partition it grows a vertex set: a
//! *core* C inside a *boundary* S. Every step moves the boundary vertex with
//! the fewest external neighbors into the core and pulls its neighbors into
//! the boundary; every edge whose endpoints are both in S is allocated to
//! the current partition. When the partition reaches its capacity `|E|/k`,
//! expansion restarts from a random seed for the next partition; the last
//! partition takes the leftovers.
//!
//! The *random* seed selection is deliberate: the paper observes (Sec. V-C)
//! that NE's vertex balance fluctuates by up to ~2× between runs because of
//! it, which limits how well vertex balance can be predicted. Our
//! implementation reproduces that behaviour under different seeds (see the
//! `ne_seed_instability` ablation bench).

use crate::assignment::EdgePartition;
use crate::{Partitioner, PartitionerId, MAX_PARTITIONS};
use ease_graph::hash::SplitMix64;
use ease_graph::PreparedGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
pub struct Ne {
    seed: u64,
}

impl Ne {
    pub fn new(seed: u64) -> Self {
        Ne { seed }
    }
}

impl Partitioner for Ne {
    fn id(&self) -> PartitionerId {
        PartitionerId::Ne
    }

    fn partition_prepared(&self, prepared: &PreparedGraph<'_>, k: usize) -> EdgePartition {
        assert!((1..=MAX_PARTITIONS).contains(&k));
        // NE needs *edge-index-carrying* incidence (so allocation can flip
        // per-edge flags), which no other consumer shares — it builds its
        // own and takes only the edge stream from the context.
        let capacity = prepared.num_edges().div_ceil(k).max(1);
        let r = neighborhood_expansion(prepared, k, capacity, None, true, None, self.seed);
        EdgePartition::new(k, r.assignment)
    }
}

/// Result of an expansion pass (shared with HEP's in-memory phase).
pub(crate) struct ExpansionResult {
    /// Per-edge partition; only meaningful where `assigned`.
    pub assignment: Vec<u16>,
    pub assigned: Vec<bool>,
    /// Edges per partition.
    pub sizes: Vec<usize>,
}

/// Incidence adjacency carrying edge indices, so allocation can flip
/// per-edge flags. Built once per expansion run.
struct Incidence {
    offsets: Vec<usize>,
    /// (neighbor, edge index) pairs.
    neighbor: Vec<u32>,
    edge_idx: Vec<u32>,
}

impl Incidence {
    fn build(prepared: &PreparedGraph<'_>, eligible: Option<&[bool]>) -> Self {
        let n = prepared.num_vertices();
        let mut counts = vec![0usize; n + 1];
        prepared.for_each_edge_indexed(|i, e| {
            if eligible.is_some_and(|m| !m[i]) {
                return;
            }
            counts[e.src as usize + 1] += 1;
            counts[e.dst as usize + 1] += 1;
        });
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let total = offsets[n];
        let mut neighbor = vec![0u32; total];
        let mut edge_idx = vec![0u32; total];
        prepared.for_each_edge_indexed(|i, e| {
            if eligible.is_some_and(|m| !m[i]) {
                return;
            }
            let c = &mut cursor[e.src as usize];
            neighbor[*c] = e.dst;
            edge_idx[*c] = i as u32;
            *c += 1;
            let c = &mut cursor[e.dst as usize];
            neighbor[*c] = e.src;
            edge_idx[*c] = i as u32;
            *c += 1;
        });
        Incidence { offsets, neighbor, edge_idx }
    }

    #[inline]
    fn incident(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (lo, hi) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        self.neighbor[lo..hi].iter().copied().zip(self.edge_idx[lo..hi].iter().copied())
    }
}

/// Core expansion routine. `eligible` restricts which edges participate
/// (HEP's in-memory phase); `fill_last` dumps the remaining eligible edges
/// into partition `k−1` (plain NE behaviour). `replicas`, when given, gets
/// `1 << p` ORed into both endpoints' masks for every edge the expansion
/// allocates to `p` — HEP's streaming phase starts from those masks.
pub(crate) fn neighborhood_expansion(
    prepared: &PreparedGraph<'_>,
    k: usize,
    capacity: usize,
    eligible: Option<&[bool]>,
    fill_last: bool,
    mut replicas: Option<&mut [u128]>,
    seed: u64,
) -> ExpansionResult {
    // the leftover fill below records no replicas; HEP never fills
    debug_assert!(!(fill_last && replicas.is_some()));
    let m = prepared.num_edges();
    let n = prepared.num_vertices();
    let mut assignment = vec![0u16; m];
    let mut assigned = vec![false; m];
    let mut sizes = vec![0usize; k];
    // edges that are out of scope count as "assigned" for bookkeeping
    let mut remaining = match eligible {
        Some(mask) => mask.iter().filter(|&&e| e).count(),
        None => m,
    };
    if remaining == 0 {
        return ExpansionResult { assignment, assigned, sizes };
    }
    let inc = Incidence::build(prepared, eligible);
    let mut rng = SplitMix64::new(seed);
    // epoch-stamped membership: value == p + 1 means "in set for partition p"
    let mut in_s = vec![0u32; n];
    let mut in_c = vec![0u32; n];
    // ext[v], valid while v ∈ S this epoch: v's unassigned incidence
    // entries whose other endpoint is outside S — the heap key, kept
    // instead of recounted
    let mut ext = vec![0u32; n];
    // live[v]: v's unassigned incidence entries (a self-loop is two)
    let mut live: Vec<u32> = inc.offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
    let mut seed_cursor = 0usize;
    let is_eligible = |i: usize| eligible.is_none_or(|mask| mask[i]);

    let expandable = if fill_last { k.saturating_sub(1).max(1) } else { k };
    for p in 0..expandable {
        let epoch = p as u32 + 1;
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        // Allocate edge `ei` = (a, b) to the current partition.
        macro_rules! allocate {
            ($ei:expr, $a:expr, $b:expr) => {{
                assigned[$ei] = true;
                assignment[$ei] = p as u16;
                sizes[p] += 1;
                remaining -= 1;
                live[$a as usize] -= 1;
                live[$b as usize] -= 1;
                if let Some(r) = replicas.as_deref_mut() {
                    r[$a as usize] |= 1u128 << p;
                    r[$b as usize] |= 1u128 << p;
                }
            }};
        }
        // Add `y` to the boundary. Following the original allocation rule,
        // joining S only allocates y's edges toward *core* vertices; edges
        // between two boundary vertices wait until one of them enters C —
        // but stop being external to the boundary vertex at their other end.
        // Only that allocation branches: the outside count and the
        // neighbour's decrement are arithmetic on the membership tests. A
        // core neighbour (C ⊆ S) is decremented too, harmlessly — its `ext`
        // is never read again this epoch and still counts the entry toward
        // `y`, so it cannot underflow.
        macro_rules! add_to_boundary {
            ($y:expr) => {{
                let y = $y;
                if in_s[y as usize] != epoch {
                    in_s[y as usize] = epoch;
                    let mut outside = 0u32;
                    for (nbr, ei) in inc.incident(y) {
                        let ei = ei as usize;
                        let un = !assigned[ei];
                        if un & (in_c[nbr as usize] == epoch) {
                            allocate!(ei, y, nbr);
                        }
                        let in_set = in_s[nbr as usize] == epoch;
                        outside += u32::from(un & !in_set);
                        ext[nbr as usize] -= u32::from(un & in_set & (nbr != y));
                    }
                    ext[y as usize] = outside;
                    heap.push(Reverse((outside, y)));
                }
            }};
        }
        'fill: while sizes[p] < capacity && remaining > 0 {
            // find the next boundary vertex with minimal external degree,
            // lazily revalidating stale heap entries
            let x = loop {
                match heap.pop() {
                    None => {
                        // boundary exhausted: random restart (paper: random
                        // seed vertex -> vertex-balance instability)
                        match pick_seed(&live, &mut rng, &mut seed_cursor) {
                            Some(v) => {
                                add_to_boundary!(v);
                                continue;
                            }
                            None => break 'fill,
                        }
                    }
                    Some(Reverse((d, x))) => {
                        if in_c[x as usize] == epoch {
                            continue; // already in core
                        }
                        let actual = ext[x as usize];
                        if actual != d {
                            heap.push(Reverse((actual, x)));
                            continue;
                        }
                        break x;
                    }
                }
            };
            // move x into the core: allocate its edges into S ∪ C, then pull
            // its outside neighbors into the boundary
            in_c[x as usize] = epoch;
            for (nbr, ei) in inc.incident(x) {
                let ei = ei as usize;
                if !assigned[ei] && (in_s[nbr as usize] == epoch || in_c[nbr as usize] == epoch) {
                    allocate!(ei, x, nbr);
                }
            }
            for (nbr, ei) in inc.incident(x) {
                if !assigned[ei as usize] && in_s[nbr as usize] != epoch {
                    add_to_boundary!(nbr);
                    if sizes[p] >= capacity {
                        break;
                    }
                }
            }
        }
        if remaining == 0 {
            break;
        }
    }
    if fill_last && remaining > 0 {
        let last = k - 1;
        for i in 0..m {
            if !assigned[i] && is_eligible(i) {
                assigned[i] = true;
                assignment[i] = last as u16;
                sizes[last] += 1;
            }
        }
    }
    ExpansionResult { assignment, assigned, sizes }
}

/// Random seed vertex with at least one unassigned eligible edge
/// (`live[v] > 0`).
///
/// Sampling is *vertex-uniform* (like the original NE), not edge-uniform:
/// edge-biased sampling would preferentially seed partitions at hubs, which
/// measurably degrades replication factors on power-law graphs. Falls back
/// to a linear cursor scan so the routine always terminates.
fn pick_seed(live: &[u32], rng: &mut SplitMix64, cursor: &mut usize) -> Option<u32> {
    let n = live.len();
    for _ in 0..64 {
        let v = rng.next_below(n);
        if live[v] > 0 {
            return Some(v as u32);
        }
    }
    while *cursor < n {
        if live[*cursor] > 0 {
            return Some(*cursor as u32);
        }
        *cursor += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::OneD;
    use crate::metrics::QualityMetrics;
    use ease_graphgen::community::CommunityGraph;
    use ease_graphgen::rmat::{Rmat, RMAT_COMBOS};

    #[test]
    fn assigns_every_edge() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[1], 512, 4_000, 1).generate());
        let p = Ne::new(3).partition_prepared(&g, 8);
        assert_eq!(p.num_edges(), 4_000);
        assert!(p.assignment().iter().all(|&x| x < 8));
    }

    #[test]
    fn respects_capacity_approximately() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[2], 1 << 10, 10_000, 2).generate());
        let p = Ne::new(5).partition_prepared(&g, 4);
        let cap = 10_000usize.div_ceil(4);
        for (i, c) in p.edge_counts().iter().enumerate() {
            // expansion can overshoot by one vertex's degree
            assert!(*c <= cap + 600, "partition {i} has {c} edges (cap {cap})");
        }
    }

    #[test]
    fn much_better_than_hashing_on_community_graphs() {
        let g = PreparedGraph::new(CommunityGraph::new(2_000, 16_000, 0.05, 7).generate());
        let ne = QualityMetrics::compute_prepared(&g, &Ne::new(1).partition_prepared(&g, 8));
        let hash =
            QualityMetrics::compute_prepared(&g, &OneD::destination(1).partition_prepared(&g, 8));
        assert!(
            ne.replication_factor < 0.6 * hash.replication_factor,
            "ne {} vs hash {}",
            ne.replication_factor,
            hash.replication_factor
        );
    }

    #[test]
    fn vertex_balance_fluctuates_across_seeds() {
        // Reproduces the paper's observation (Sec. V-C): repeated NE runs on
        // the same graph yield heavily varying vertex balance.
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[6], 1 << 11, 12_000, 9).generate());
        let balances: Vec<f64> = (0..6)
            .map(|s| {
                QualityMetrics::compute_prepared(&g, &Ne::new(s).partition_prepared(&g, 8))
                    .vertex_balance
            })
            .collect();
        let min = balances.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = balances.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.02, "balances {balances:?}");
        // replication factor stays comparatively stable
        let rfs: Vec<f64> = (0..6)
            .map(|s| {
                QualityMetrics::compute_prepared(&g, &Ne::new(s).partition_prepared(&g, 8))
                    .replication_factor
            })
            .collect();
        let rf_min = rfs.iter().cloned().fold(f64::INFINITY, f64::min);
        let rf_max = rfs.iter().cloned().fold(0.0, f64::max);
        assert!(rf_max / rf_min < 1.25, "rfs {rfs:?}");
    }

    #[test]
    fn k_one_assigns_all_to_zero() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[0], 128, 600, 3).generate());
        let p = Ne::new(2).partition_prepared(&g, 1);
        assert!(p.assignment().iter().all(|&x| x == 0));
    }

    #[test]
    fn expansion_with_mask_only_touches_eligible() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[3], 256, 2_000, 4).generate());
        let mask: Vec<bool> = (0..2_000).map(|i| i % 2 == 0).collect();
        let r = neighborhood_expansion(&g, 4, 250, Some(&mask), false, None, 1);
        for i in 0..2_000 {
            if !mask[i] {
                assert!(!r.assigned[i], "ineligible edge {i} was assigned");
            }
        }
        let assigned_count = r.assigned.iter().filter(|&&a| a).count();
        assert_eq!(assigned_count, r.sizes.iter().sum::<usize>());
        assert_eq!(assigned_count, 1_000, "all eligible edges placed");
    }
}
