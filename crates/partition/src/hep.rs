//! HEP — Hybrid Edge Partitioner (Mayer & Jacobsen, SIGMOD 2021).
//!
//! Splits the work by vertex degree: edges incident to at least one
//! *low-degree* vertex (degree ≤ τ · mean degree) are partitioned in memory
//! with neighborhood expansion; the remaining high-degree core is streamed
//! with HDRF scoring that is *aware of the phase-1 replica placement*.
//!
//! τ controls the memory/quality trade-off and the paper treats each
//! setting as a separate partitioner: HEP-1 streams the hub core (fast,
//! lower quality), HEP-100 keeps nearly everything in memory (≈ NE quality,
//! slower). Exactly as in the paper (Sec. IV-B2 and V-C).

use crate::assignment::EdgePartition;
use crate::hdrf::{HdrfState, LAMBDA};
use crate::ne::{neighborhood_expansion, ExpansionResult};
use crate::MAX_PARTITIONS;
use ease_graph::{MemoryBudget, PreparedGraph};

/// Estimated in-memory cost per adjacency entry of the phase-1 expansion
/// state (edge endpoints plus replica bookkeeping).
const BYTES_PER_ADJ_ENTRY: usize = 8;

/// HEP with degree threshold multiplier `tau` (> 0). The catalog runs
/// τ ∈ {1, 10, 100} unbudgeted.
///
/// A `budget` bounds the in-memory phase by a real, measured budget: τ
/// names the *desired* split, and the effective degree threshold is lowered
/// until the estimated footprint of the low-degree part (Σ degrees ≤
/// threshold, at `BYTES_PER_ADJ_ENTRY` bytes per entry) fits the budget's
/// remaining headroom. An unlimited budget is bit-identical to none; a zero
/// budget streams every edge — HEP degrades to placement-aware HDRF instead
/// of blowing the limit, exactly the τ-as-soft-hint problem the HEP paper
/// calls out.
pub fn partition(
    prepared: &PreparedGraph<'_>,
    k: usize,
    seed: u64,
    tau: f64,
    budget: Option<&MemoryBudget>,
) -> EdgePartition {
    assert!((1..=MAX_PARTITIONS).contains(&k));
    assert!(tau > 0.0);
    if prepared.num_edges() == 0 {
        return EdgePartition::new(k, Vec::new());
    }
    // ---- phase 1: in-memory neighborhood expansion on the low part ----
    let (ex, mut state) = expand(prepared, k, seed, tau, budget);
    let mut assignment = ex.assignment;
    // ---- phase 2: stream the high-degree core with placement-aware HDRF
    prepared.for_each_edge_indexed(|i, e| {
        if !ex.assigned[i] {
            assignment[i] = state.place(e.src, e.dst) as u16;
        }
    });
    EdgePartition::new(k, assignment)
}

/// Largest degree `d` such that keeping every vertex of degree ≤ `d` in
/// memory fits the budget; `threshold` unchanged when unbudgeted or
/// unlimited.
fn budget_capped_threshold(budget: Option<&MemoryBudget>, degrees: &[u32], threshold: f64) -> f64 {
    let Some(budget) = budget else { return threshold };
    if budget.is_unlimited() {
        return threshold;
    }
    let remaining = budget.remaining();
    let mut sorted: Vec<u32> = degrees.iter().copied().filter(|&d| d > 0).collect();
    sorted.sort_unstable();
    let mut footprint = 0usize;
    let mut capped = 0.0f64;
    let mut i = 0;
    while i < sorted.len() {
        // whole equal-degree groups, so the cap lands on a degree
        // boundary and stays deterministic
        let d = sorted[i];
        let mut group = 0usize;
        while i < sorted.len() && sorted[i] == d {
            group += 1;
            i += 1;
        }
        let group_bytes = (d as usize).saturating_mul(group).saturating_mul(BYTES_PER_ADJ_ENTRY);
        match footprint.checked_add(group_bytes) {
            Some(total) if total <= remaining => footprint = total,
            _ => break,
        }
        capped = f64::from(d);
    }
    threshold.min(capped)
}

/// Phase 1 — in-memory neighborhood expansion on the low-degree part —
/// and the streaming state phase 2 starts from: the expansion ORs every
/// allocation into the state's replica masks as it goes, and its
/// partition sizes are accounted before the first streamed edge.
fn expand(
    prepared: &PreparedGraph<'_>,
    k: usize,
    seed: u64,
    tau: f64,
    budget: Option<&MemoryBudget>,
) -> (ExpansionResult, HdrfState) {
    let m = prepared.num_edges();
    // The degree threshold split uses *final* total degrees — exactly
    // what the shared context memoizes (one derivation across all three
    // HEP-τ variants and every k).
    let degrees = &prepared.degrees().total;
    let used = degrees.iter().filter(|&&d| d > 0).count().max(1);
    let mean_degree = 2.0 * m as f64 / used as f64;
    let threshold = budget_capped_threshold(budget, degrees, (tau * mean_degree).max(1.0));
    // Phase split: only edges between two *low*-degree vertices are kept
    // in memory (this is where HEP's memory savings come from — hubs and
    // all their incident edges never enter the in-memory graph). Any
    // edge touching a high-degree vertex is streamed in phase 2.
    let mut eligible: Vec<bool> = Vec::with_capacity(m);
    prepared.for_each_edge(|e| {
        eligible.push(
            f64::from(degrees[e.src as usize]) <= threshold
                && f64::from(degrees[e.dst as usize]) <= threshold,
        );
    });
    let capacity = m.div_ceil(k).max(1);
    let mut state = HdrfState::new(prepared.num_vertices(), k, LAMBDA, seed ^ 0x48E5);
    let ex = neighborhood_expansion(
        prepared,
        k,
        capacity,
        Some(&eligible),
        false,
        Some(&mut state.replicas),
        seed,
    );
    for (p, &count) in ex.sizes.iter().enumerate() {
        state.seed_size(p, count);
    }
    (ex, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::{one_d, EndPoint};
    use crate::metrics::QualityMetrics;
    use ease_graph::Graph;
    use ease_graphgen::rmat::{Rmat, RMAT_COMBOS};

    fn test_graph() -> Graph {
        Rmat::new(RMAT_COMBOS[6], 1 << 11, 16_000, 5).generate()
    }

    #[test]
    fn assigns_all_edges() {
        let g = PreparedGraph::new(test_graph());
        for tau in [1.0, 10.0, 100.0] {
            let p = partition(&g, 8, 3, tau, None);
            assert_eq!(p.num_edges(), g.num_edges());
            assert!(p.assignment().iter().all(|&x| x < 8), "tau={tau}");
        }
    }

    #[test]
    fn quality_improves_with_tau() {
        let g = PreparedGraph::new(test_graph());
        let rf = |tau: f64| {
            QualityMetrics::compute_prepared(&g, &partition(&g, 16, 1, tau, None))
                .replication_factor
        };
        let (rf1, rf100) = (rf(1.0), rf(100.0));
        assert!(rf100 <= rf1 * 1.05, "hep-100 rf {rf100} should not trail hep-1 rf {rf1}");
    }

    #[test]
    fn hep100_close_to_ne() {
        let g = PreparedGraph::new(test_graph());
        let hep = QualityMetrics::compute_prepared(&g, &partition(&g, 8, 1, 100.0, None));
        let ne = QualityMetrics::compute_prepared(&g, &crate::ne::partition(&g, 8, 1));
        assert!(
            hep.replication_factor < 1.5 * ne.replication_factor,
            "hep100 {} vs ne {}",
            hep.replication_factor,
            ne.replication_factor
        );
    }

    #[test]
    fn beats_stateless_hashing() {
        let g = PreparedGraph::new(test_graph());
        for tau in [1.0, 10.0, 100.0] {
            let hep = QualityMetrics::compute_prepared(&g, &partition(&g, 16, 2, tau, None));
            let hash =
                QualityMetrics::compute_prepared(&g, &one_d(&g, 16, 2, EndPoint::Destination));
            assert!(
                hep.replication_factor < hash.replication_factor,
                "tau={tau}: hep {} vs 1dd {}",
                hep.replication_factor,
                hash.replication_factor
            );
        }
    }

    #[test]
    fn deterministic() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[0], 512, 3_000, 7).generate());
        let a = partition(&g, 4, 5, 10.0, None);
        let b = partition(&g, 4, 5, 10.0, None);
        assert_eq!(a, b);
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_no_budget() {
        let g = PreparedGraph::new(test_graph());
        let plain = partition(&g, 8, 5, 10.0, None);
        let budgeted = partition(&g, 8, 5, 10.0, Some(&MemoryBudget::unlimited()));
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn zero_budget_streams_everything_and_stays_valid() {
        let g = PreparedGraph::new(test_graph());
        let zero = MemoryBudget::bytes(0);
        let a = partition(&g, 8, 5, 100.0, Some(&zero));
        assert_eq!(a.num_edges(), g.num_edges());
        assert!(a.assignment().iter().all(|&x| x < 8));
        assert_eq!(
            a,
            partition(&g, 8, 5, 100.0, Some(&zero)),
            "budget-capped split stays deterministic"
        );
    }

    /// A mid-size budget sits strictly between the extremes: it admits
    /// some low-degree vertices (so the capped threshold is > 0) while
    /// refusing the full HEP-100 in-memory phase.
    #[test]
    fn partial_budget_caps_the_threshold_monotonically() {
        let g = test_graph();
        let degrees = ease_repro_degrees(&g);
        let unlimited = budget_capped_threshold(None, &degrees, f64::MAX);
        assert_eq!(unlimited, f64::MAX, "no budget leaves the threshold alone");
        let capped = budget_capped_threshold(Some(&MemoryBudget::bytes(4_000)), &degrees, f64::MAX);
        assert!(capped > 0.0 && capped < f64::MAX, "capped threshold {capped}");
        let tighter = budget_capped_threshold(Some(&MemoryBudget::bytes(400)), &degrees, f64::MAX);
        assert!(tighter <= capped, "smaller budget, lower threshold");
    }

    /// The replica masks phase 1 hands to phase 2, ORed in while expanding,
    /// are the masks a pass over the edge stream recomputes from the
    /// expansion's result — both endpoints of every assigned edge — for
    /// every τ, unbudgeted, under a partial and under a zero budget.
    #[test]
    fn expansion_seeds_the_masks_a_stream_pass_would() {
        let g = test_graph();
        let prepared = PreparedGraph::of(&g);
        for tau in [1.0, 10.0, 100.0] {
            for bytes in [None, Some(4_000), Some(0)] {
                let budget = bytes.map(MemoryBudget::bytes);
                for k in [3, 8] {
                    let (ex, state) = expand(&prepared, k, 5, tau, budget.as_ref());
                    let mut masks = vec![0u128; g.num_vertices()];
                    prepared.for_each_edge_indexed(|i, e| {
                        if ex.assigned[i] {
                            let p = ex.assignment[i];
                            masks[e.src as usize] |= 1u128 << p;
                            masks[e.dst as usize] |= 1u128 << p;
                        }
                    });
                    assert_eq!(state.replicas, masks, "τ={tau} budget={bytes:?} k={k}");
                    let expanded = masks.iter().any(|&m| m != 0);
                    match bytes {
                        None => assert!(expanded, "τ={tau} k={k}: nothing expanded"),
                        Some(0) => assert!(!expanded, "a zero budget expands nothing"),
                        Some(_) => {}
                    }
                }
            }
        }
    }

    fn ease_repro_degrees(g: &Graph) -> Vec<u32> {
        ease_graph::PreparedGraph::of(g).degrees().total.clone()
    }
}
