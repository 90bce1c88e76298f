//! HDRF — High-Degree Replicated First (Petroni et al., CIKM 2015).
//!
//! Stateful streaming: tracks partial vertex degrees `δ(v)`, per-vertex
//! replica sets `A(v)` and partition sizes. For each edge `(u, v)` it picks
//! the partition maximizing
//!
//! ```text
//! C(u,v,p) = C_REP(u,v,p) + λ · C_BAL(p)
//! C_REP    = g(u,p) + g(v,p),  g(x,p) = [p ∈ A(x)] · (1 + 1 − θ(x))
//! θ(x)     = δ(x) / (δ(u) + δ(v))
//! C_BAL    = (maxsize − |p|) / (ε + maxsize − minsize)
//! ```
//!
//! so the *lower*-degree endpoint dominates placement and high-degree
//! vertices get replicated first. Replica sets are `u128` bitmasks
//! (k ≤ 128) and `g` is selected, not branched on. The score loop has no
//! data-dependent branch and no run-time trip count: `HdrfState` fixes its
//! width `W` — the next power of two ≥ k — at construction, and one generic
//! body scores `[f64; W]` lanes (lanes ≥ k score `−∞`). The arg-max and its
//! tie-break then run sequentially over those lanes, the only branches left.

use crate::assignment::EdgePartition;
use crate::{Partitioner, PartitionerId, MAX_PARTITIONS};
use ease_graph::hash::SplitMix64;
use ease_graph::PreparedGraph;

/// HDRF with the standard balance weight λ = 1.1 (paper default).
#[derive(Debug, Clone)]
pub struct Hdrf {
    pub lambda: f64,
    seed: u64,
}

impl Hdrf {
    pub fn new(seed: u64) -> Self {
        Hdrf { lambda: 1.1, seed }
    }

    pub fn with_lambda(lambda: f64, seed: u64) -> Self {
        Hdrf { lambda, seed }
    }
}

impl Partitioner for Hdrf {
    fn id(&self) -> PartitionerId {
        PartitionerId::Hdrf
    }

    fn partition_prepared(&self, prepared: &PreparedGraph<'_>, k: usize) -> EdgePartition {
        assert!((1..=MAX_PARTITIONS).contains(&k));
        // HDRF is degree-agnostic by design: it tracks *partial* degrees as
        // the stream unfolds, so the prepared context only supplies the
        // edge stream.
        let mut state = HdrfState::new(prepared.num_vertices(), k, self.lambda, self.seed);
        let mut assignment = Vec::with_capacity(prepared.num_edges());
        prepared.for_each_edge(|e| {
            let p = state.place(e.src, e.dst);
            assignment.push(p as u16);
        });
        EdgePartition::new(k, assignment)
    }
}

/// Reusable streaming state — HEP's streaming phase drives it directly with
/// pre-seeded replica sets.
pub(crate) struct HdrfState {
    pub degrees: Vec<u32>,
    pub replicas: Vec<u128>,
    /// Edges per partition, zero-padded to `width` lanes.
    sizes: Vec<usize>,
    lambda: f64,
    k: usize,
    /// Score lanes per edge: the next power of two ≥ `k`, fixed at
    /// construction so [`HdrfState::place`] runs a loop of constant length.
    width: usize,
    rng: SplitMix64,
}

impl HdrfState {
    pub fn new(num_vertices: usize, k: usize, lambda: f64, seed: u64) -> Self {
        assert!((1..=MAX_PARTITIONS).contains(&k));
        let width = k.next_power_of_two();
        HdrfState {
            degrees: vec![0; num_vertices],
            replicas: vec![0; num_vertices],
            sizes: vec![0; width],
            lambda,
            k,
            width,
            rng: SplitMix64::new(seed),
        }
    }

    /// Account an externally placed edge in the size table.
    pub fn seed_size(&mut self, p: usize, count: usize) {
        assert!(p < self.k);
        self.sizes[p] += count;
    }

    /// Place one edge, updating all state. Returns the chosen partition.
    pub fn place(&mut self, src: u32, dst: u32) -> usize {
        match self.width {
            1 => self.place_in::<1>(src, dst),
            2 => self.place_in::<2>(src, dst),
            4 => self.place_in::<4>(src, dst),
            8 => self.place_in::<8>(src, dst),
            16 => self.place_in::<16>(src, dst),
            32 => self.place_in::<32>(src, dst),
            64 => self.place_in::<64>(src, dst),
            _ => self.place_in::<128>(src, dst),
        }
    }

    /// [`HdrfState::place`] at `W` = `width` lanes. Every lane is scored in
    /// one loop; lanes `≥ k` score `−∞`, so the sequential arg-max after it
    /// never picks them, never counts them as ties and draws nothing for
    /// them — the same draws and the same pick as a loop over `0..k`.
    #[inline(always)]
    fn place_in<const W: usize>(&mut self, src: u32, dst: u32) -> usize {
        let (su, sv) = (src as usize, dst as usize);
        self.degrees[su] += 1;
        self.degrees[sv] += 1;
        let (du, dv) = (f64::from(self.degrees[su]), f64::from(self.degrees[sv]));
        let theta_u = du / (du + dv);
        let theta_v = 1.0 - theta_u;
        let (g_u, g_v) = (1.0 + (1.0 - theta_u), 1.0 + (1.0 - theta_v));
        let k = self.k;
        let sizes: &[usize; W] = self.sizes[..W].try_into().expect("sizes span the width");
        let (max_size, min_size) =
            sizes.iter().enumerate().fold((0, usize::MAX), |(hi, lo), (p, &s)| {
                // padding lanes hold 0: harmless to the max, kept out of the min
                (hi.max(s), lo.min(if p < k { s } else { usize::MAX }))
            });
        let (max_size, min_size) = (max_size as f64, min_size as f64);
        let denom = 1e-3 + (max_size - min_size);
        let (ru, rv) = (self.replicas[su], self.replicas[sv]);
        let mut scores = [0.0f64; W];
        for (p, score) in scores.iter_mut().enumerate() {
            // selects, not branches: `0.0 + g` is `g` exactly
            let c_rep = (if (ru >> p) & 1 != 0 { g_u } else { 0.0 })
                + (if (rv >> p) & 1 != 0 { g_v } else { 0.0 });
            let c_bal = self.lambda * (max_size - sizes[p] as f64) / denom;
            *score = if p < k { c_rep + c_bal } else { f64::NEG_INFINITY };
        }
        let mut best_p = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        let mut ties = 0u32;
        for (p, &score) in scores.iter().enumerate() {
            if score > best_score + 1e-12 {
                best_score = score;
                best_p = p;
                ties = 1;
            } else if (score - best_score).abs() <= 1e-12 {
                // reservoir-style random tie-break keeps placement unbiased
                ties += 1;
                if self.rng.next_below(ties as usize) == 0 {
                    best_p = p;
                }
            }
        }
        self.replicas[su] |= 1u128 << best_p;
        self.replicas[sv] |= 1u128 << best_p;
        self.sizes[best_p] += 1;
        best_p
    }

    /// The scoring loop over `0..k` that [`HdrfState::place`] replaced —
    /// the oracle its fixed-width lanes are checked against.
    #[cfg(test)]
    fn place_dynamic(&mut self, src: u32, dst: u32) -> usize {
        let (su, sv) = (src as usize, dst as usize);
        self.degrees[su] += 1;
        self.degrees[sv] += 1;
        let (du, dv) = (f64::from(self.degrees[su]), f64::from(self.degrees[sv]));
        let theta_u = du / (du + dv);
        let theta_v = 1.0 - theta_u;
        let (g_u, g_v) = (1.0 + (1.0 - theta_u), 1.0 + (1.0 - theta_v));
        let (max_size, min_size) = self.sizes[..self.k]
            .iter()
            .fold((0, usize::MAX), |(hi, lo), &s| (hi.max(s), lo.min(s)));
        let (max_size, min_size) = (max_size as f64, min_size as f64);
        let denom = 1e-3 + (max_size - min_size);
        let (ru, rv) = (self.replicas[su], self.replicas[sv]);
        let mut best_p = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        let mut ties = 0u32;
        for p in 0..self.k {
            let c_rep = (if (ru >> p) & 1 != 0 { g_u } else { 0.0 })
                + (if (rv >> p) & 1 != 0 { g_v } else { 0.0 });
            let c_bal = self.lambda * (max_size - self.sizes[p] as f64) / denom;
            let score = c_rep + c_bal;
            if score > best_score + 1e-12 {
                best_score = score;
                best_p = p;
                ties = 1;
            } else if (score - best_score).abs() <= 1e-12 {
                ties += 1;
                if self.rng.next_below(ties as usize) == 0 {
                    best_p = p;
                }
            }
        }
        self.replicas[su] |= 1u128 << best_p;
        self.replicas[sv] |= 1u128 << best_p;
        self.sizes[best_p] += 1;
        best_p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::OneD;
    use crate::metrics::QualityMetrics;
    use ease_graphgen::rmat::{Rmat, RMAT_COMBOS};

    #[test]
    fn assigns_all_edges_in_range() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[2], 512, 4_000, 1).generate());
        let p = Hdrf::new(7).partition_prepared(&g, 16);
        assert_eq!(p.num_edges(), 4_000);
        assert!(p.assignment().iter().all(|&x| x < 16));
    }

    #[test]
    fn beats_stateless_hashing_on_replication() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[6], 1 << 11, 16_000, 3).generate());
        let hdrf = QualityMetrics::compute_prepared(&g, &Hdrf::new(5).partition_prepared(&g, 32));
        let oned =
            QualityMetrics::compute_prepared(&g, &OneD::destination(5).partition_prepared(&g, 32));
        assert!(
            hdrf.replication_factor < oned.replication_factor,
            "hdrf {} vs 1dd {}",
            hdrf.replication_factor,
            oned.replication_factor
        );
    }

    #[test]
    fn keeps_edges_balanced() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[8], 1 << 11, 20_000, 9).generate());
        let m = QualityMetrics::compute_prepared(&g, &Hdrf::new(1).partition_prepared(&g, 8));
        assert!(m.edge_balance < 1.2, "edge balance {}", m.edge_balance);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[0], 256, 2_000, 2).generate());
        let a = Hdrf::new(11).partition_prepared(&g, 8);
        let b = Hdrf::new(11).partition_prepared(&g, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn lambda_zero_chases_locality_over_balance() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[4], 1 << 10, 10_000, 4).generate());
        let greedy = QualityMetrics::compute_prepared(
            &g,
            &Hdrf::with_lambda(0.01, 3).partition_prepared(&g, 8),
        );
        let balanced = QualityMetrics::compute_prepared(
            &g,
            &Hdrf::with_lambda(5.0, 3).partition_prepared(&g, 8),
        );
        // with strong balance pressure, edge balance improves
        assert!(balanced.edge_balance <= greedy.edge_balance + 0.05);
        // with weak balance pressure, replication improves
        assert!(greedy.replication_factor <= balanced.replication_factor + 0.05);
    }

    /// The fixed-width lanes place every edge where the `0..k` loop does,
    /// drawing the same tie-breaks: every `k ∈ 1..=128`, three balance
    /// weights, a stream with self-loops and duplicate edges, from a fresh
    /// state and from one whose sizes and replicas a prefix of the stream
    /// pre-seeded the way HEP's expansion does (both endpoints, one size
    /// count per edge).
    #[test]
    fn fixed_width_scoring_matches_the_dynamic_loop() {
        let g = Rmat::new(RMAT_COMBOS[6], 256, 600, 13).generate();
        let mut stream = Vec::new();
        for (i, e) in g.edges().iter().enumerate() {
            stream.push((e.src, e.dst));
            if i % 37 == 0 {
                stream.push((e.src, e.src));
            }
            if i % 23 == 0 {
                stream.push((e.src, e.dst));
            }
        }
        let (seeded, streamed) = stream.split_at(stream.len() / 3);
        for k in 1..=MAX_PARTITIONS {
            for lambda in [0.1, 1.1, 5.0] {
                for preseed in [false, true] {
                    let mut fixed = HdrfState::new(256, k, lambda, 9);
                    let mut dynamic = HdrfState::new(256, k, lambda, 9);
                    let mut edges = &stream[..];
                    if preseed {
                        for state in [&mut fixed, &mut dynamic] {
                            for (i, &(s, d)) in seeded.iter().enumerate() {
                                let p = (i * 7 + s as usize) % k;
                                state.replicas[s as usize] |= 1u128 << p;
                                state.replicas[d as usize] |= 1u128 << p;
                                state.seed_size(p, 1);
                            }
                        }
                        edges = streamed;
                    }
                    for (i, &(s, d)) in edges.iter().enumerate() {
                        let want = dynamic.place_dynamic(s, d);
                        assert_eq!(fixed.place(s, d), want, "k={k} λ={lambda} edge {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn k_equals_one_trivially_works() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[0], 128, 500, 6).generate());
        let p = Hdrf::new(1).partition_prepared(&g, 1);
        assert!(p.assignment().iter().all(|&x| x == 0));
    }
}
