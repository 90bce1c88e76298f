//! 2PS — Two-Phase Streaming edge partitioning (Mayer et al., 2020).
//!
//! Phase 1 streams the edges once and performs *streaming clustering*:
//! union-find clusters merge along edges as long as the combined cluster
//! volume (sum of member degrees) stays below the average partition volume
//! `2|E|/k`. Clusters are then mapped to partitions largest-first.
//! Phase 2 streams the edges again and places each edge on the partition of
//! one of its endpoints' clusters, preferring the emptier one, with a
//! least-loaded fallback under an α capacity bound.
//!
//! The quality is graph-dependent — on graphs with strong community
//! structure the clusters recover the communities and 2PS approaches NE's
//! replication factor; on low-clustering graphs it degrades toward hash
//! partitioning. This is exactly the behaviour the paper showcases in
//! Fig. 1 (2PS ≈ NE on sk-2005, 2PS ≈ 2D on Friendster).

use crate::assignment::EdgePartition;
use crate::{Partitioner, PartitionerId, MAX_PARTITIONS};
use ease_graph::PreparedGraph;

#[derive(Debug, Clone)]
pub struct TwoPs {
    /// Edge-capacity slack (paper-family default 1.05).
    pub alpha: f64,
    #[allow(dead_code)]
    seed: u64,
}

impl TwoPs {
    pub fn new(seed: u64) -> Self {
        TwoPs { alpha: 1.05, seed }
    }
}

/// Streaming vertex clustering state (2PS phase 1).
///
/// Unlike union-find merging — which lets a single inter-community edge
/// absorb whole communities into one giant cluster — 2PS only moves
/// *individual vertices* between clusters, guided by partial degrees and a
/// volume cap. Volume of a cluster = sum of (partial) degrees of members.
struct Clustering {
    cluster: Vec<u32>,
    degree: Vec<u32>,
    volume: Vec<u64>,
    next_cluster: u32,
}

const UNCLUSTERED: u32 = u32::MAX;

impl Clustering {
    fn new(n: usize) -> Self {
        Clustering {
            cluster: vec![UNCLUSTERED; n],
            degree: vec![0; n],
            volume: Vec::new(),
            next_cluster: 0,
        }
    }

    fn fresh_cluster(&mut self) -> u32 {
        let c = self.next_cluster;
        self.next_cluster += 1;
        self.volume.push(0);
        c
    }

    /// Process one streamed edge.
    fn observe(&mut self, u: u32, v: u32, cap: u64) {
        let (su, sv) = (u as usize, v as usize);
        self.degree[su] += 1;
        self.degree[sv] += 1;
        let (cu, cv) = (self.cluster[su], self.cluster[sv]);
        match (cu == UNCLUSTERED, cv == UNCLUSTERED) {
            (true, true) => {
                let c = self.fresh_cluster();
                self.cluster[su] = c;
                self.cluster[sv] = c;
                self.volume[c as usize] = u64::from(self.degree[su]) + u64::from(self.degree[sv]);
            }
            (false, true) => self.try_join(sv, cu, cap),
            (true, false) => self.try_join(su, cv, cap),
            (false, false) => {
                self.volume[cu as usize] += 1;
                self.volume[cv as usize] += 1;
                if cu != cv {
                    // Degree-anchored movement: only the lower-degree
                    // endpoint may switch clusters. High-degree vertices
                    // anchor their community; a low-degree vertex bounces
                    // until its (majority-internal) edges settle it in its
                    // home cluster. Volume-based movement would let a single
                    // inter-community edge yank hubs around, destroying the
                    // clustering on dense graphs.
                    let (mover, target) =
                        if self.degree[su] <= self.degree[sv] { (su, cv) } else { (sv, cu) };
                    let d = u64::from(self.degree[mover]);
                    if self.volume[target as usize] + d <= cap {
                        let old = self.cluster[mover];
                        self.volume[old as usize] = self.volume[old as usize].saturating_sub(d);
                        self.cluster[mover] = target;
                        self.volume[target as usize] += d;
                    }
                }
            }
        }
    }

    fn try_join(&mut self, v: usize, c: u32, cap: u64) {
        let d = u64::from(self.degree[v]);
        if self.volume[c as usize] + d <= cap {
            self.cluster[v] = c;
            self.volume[c as usize] += d;
        } else {
            let fresh = self.fresh_cluster();
            self.cluster[v] = fresh;
            self.volume[fresh as usize] = d;
        }
    }
}

impl Partitioner for TwoPs {
    fn id(&self) -> PartitionerId {
        PartitionerId::TwoPs
    }

    fn partition_prepared(&self, prepared: &PreparedGraph<'_>, k: usize) -> EdgePartition {
        assert!((1..=MAX_PARTITIONS).contains(&k));
        // 2PS streams edges twice and maintains its own *partial* degrees
        // (streaming semantics) — the context only supplies the edge stream.
        let n = prepared.num_vertices();
        let m = prepared.num_edges();
        if m == 0 {
            return EdgePartition::new(k, Vec::new());
        }
        // ---- phase 1: streaming clustering under a volume cap ----
        let volume_cap = ((2 * m) as u64).div_ceil(k as u64).max(2);
        let mut clustering = Clustering::new(n);
        prepared.for_each_edge(|e| {
            clustering.observe(e.src, e.dst, volume_cap);
        });
        // ---- cluster -> partition mapping, largest volume first ----
        let mut clusters: Vec<u32> =
            (0..clustering.next_cluster).filter(|&c| clustering.volume[c as usize] > 0).collect();
        clusters.sort_unstable_by_key(|&c| std::cmp::Reverse(clustering.volume[c as usize]));
        let mut part_volume = vec![0u64; k];
        let mut cluster_part = vec![0u16; clustering.next_cluster as usize];
        for c in clusters {
            // least-volume partition (first-fit-decreasing by volume)
            let p = (0..k).min_by_key(|&p| part_volume[p]).unwrap_or(0);
            cluster_part[c as usize] = p as u16;
            part_volume[p] += clustering.volume[c as usize];
        }
        let part_of = |v: u32| -> usize {
            let c = clustering.cluster[v as usize];
            if c == UNCLUSTERED {
                0
            } else {
                cluster_part[c as usize] as usize
            }
        };
        // ---- phase 2: stream edges, prefer endpoint-cluster partitions ----
        let edge_cap = ((self.alpha * m as f64 / k as f64).ceil() as usize).max(1);
        let mut sizes = vec![0usize; k];
        let mut assignment = Vec::with_capacity(m);
        prepared.for_each_edge(|e| {
            let pu = part_of(e.src);
            let pv = part_of(e.dst);
            let preferred = if pu == pv || sizes[pu] <= sizes[pv] { pu } else { pv };
            let p = if sizes[preferred] < edge_cap {
                preferred
            } else {
                let alt = if preferred == pu { pv } else { pu };
                if sizes[alt] < edge_cap {
                    alt
                } else {
                    (0..k).min_by_key(|&p| sizes[p]).unwrap_or(0)
                }
            };
            sizes[p] += 1;
            assignment.push(p as u16);
        });
        EdgePartition::new(k, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::OneD;
    use crate::metrics::QualityMetrics;
    use crate::ne::Ne;
    use ease_graphgen::community::CommunityGraph;
    use ease_graphgen::rmat::{Rmat, RMAT_COMBOS};

    #[test]
    fn assigns_all_edges_in_range() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[4], 512, 5_000, 2).generate());
        let p = TwoPs::new(1).partition_prepared(&g, 16);
        assert_eq!(p.num_edges(), 5_000);
        assert!(p.assignment().iter().all(|&x| x < 16));
    }

    #[test]
    fn edge_balance_bounded_by_alpha() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[7], 1 << 11, 20_000, 5).generate());
        let p = TwoPs::new(3).partition_prepared(&g, 8);
        let m = QualityMetrics::compute_prepared(&g, &p);
        assert!(m.edge_balance <= 1.10, "edge balance {}", m.edge_balance);
    }

    #[test]
    fn recovers_communities_and_approaches_ne() {
        let g = PreparedGraph::new(CommunityGraph::new(2_000, 16_000, 0.04, 3).generate());
        let tps = QualityMetrics::compute_prepared(&g, &TwoPs::new(1).partition_prepared(&g, 8));
        let ne = QualityMetrics::compute_prepared(&g, &Ne::new(1).partition_prepared(&g, 8));
        let hash =
            QualityMetrics::compute_prepared(&g, &OneD::destination(1).partition_prepared(&g, 8));
        // 2PS should sit clearly below hashing...
        assert!(
            tps.replication_factor < 0.7 * hash.replication_factor,
            "2ps {} hash {}",
            tps.replication_factor,
            hash.replication_factor
        );
        // ...and within ~2.5x of NE on a strongly clustered graph
        assert!(
            tps.replication_factor < 2.5 * ne.replication_factor,
            "2ps {} ne {}",
            tps.replication_factor,
            ne.replication_factor
        );
    }

    #[test]
    fn degrades_on_unclustered_graphs() {
        // On a skew-heavy, low-clustering R-MAT graph, 2PS's advantage over
        // hashing shrinks (the Friendster behaviour of Fig. 1).
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[8], 1 << 12, 24_000, 6).generate());
        let tps = QualityMetrics::compute_prepared(&g, &TwoPs::new(1).partition_prepared(&g, 8));
        let ne = QualityMetrics::compute_prepared(&g, &Ne::new(1).partition_prepared(&g, 8));
        assert!(
            tps.replication_factor > ne.replication_factor,
            "2ps {} should trail ne {} here",
            tps.replication_factor,
            ne.replication_factor
        );
    }

    #[test]
    fn deterministic() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[0], 256, 2_000, 9).generate());
        let a = TwoPs::new(5).partition_prepared(&g, 4);
        let b = TwoPs::new(5).partition_prepared(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn clustering_groups_fresh_pairs() {
        let mut c = Clustering::new(4);
        c.observe(0, 1, 100);
        assert_eq!(c.cluster[0], c.cluster[1]);
        c.observe(2, 1, 100);
        // vertex 2 joins 1's cluster (room under the cap)
        assert_eq!(c.cluster[2], c.cluster[1]);
        assert_eq!(c.volume[c.cluster[0] as usize], 3);
    }

    #[test]
    fn clustering_respects_volume_cap() {
        let mut c = Clustering::new(4);
        c.observe(0, 1, 2); // volume hits the cap immediately
        c.observe(2, 1, 2); // 2 cannot join: cap exceeded
        assert_ne!(c.cluster[2], c.cluster[1]);
    }
}
