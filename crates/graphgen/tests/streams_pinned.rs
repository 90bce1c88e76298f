//! The generated edge streams, pinned: every edge, in order, folded through
//! `mix64`. The literals were written by the tree before R-MAT's quadrant
//! descent went branch-free (the `if` chain and the `%` fold) and before
//! G(n, m)'s membership set left SipHash; a generator change that fails
//! here changed which edges a seed produces, and with them every corpus,
//! label and model trained on them.

use ease_graph::hash::mix64;
use ease_graph::Edge;
use ease_graphgen::erdos_renyi::ErdosRenyi;
use ease_graphgen::rmat::{Rmat, RMAT_COMBOS};

/// Order-sensitive hash of an edge stream and its length.
#[derive(Default)]
struct StreamHash {
    h: u64,
    len: u64,
}

impl StreamHash {
    fn fold(&mut self, x: u64) {
        self.h = mix64(self.h ^ x);
        self.len += 1;
    }

    fn push(&mut self, e: Edge) {
        self.fold(u64::from(e.src) << 32 | u64::from(e.dst));
    }

    fn finish(&self) -> u64 {
        mix64(self.h ^ self.len)
    }
}

fn rmat_hash(rmat: &Rmat) -> u64 {
    let mut h = StreamHash::default();
    rmat.generate_into(&mut |e| h.push(e));
    h.finish()
}

/// The nine Table II combos × five vertex counts (the two-vertex floor,
/// 2 + 1, a non-power, 2^11 and 2^16) × two seeds, ≈ 5 000 edges each:
/// one hash per vertex count.
#[test]
fn rmat_grid_streams_are_pinned() {
    let got = [2, 3, 1_000, 2_048, 65_536].map(|n| {
        let mut h = StreamHash::default();
        for (i, &params) in RMAT_COMBOS.iter().enumerate() {
            for seed in [3, 1_000_003] {
                h.fold(rmat_hash(&Rmat::new(params, n, 4_900 + 11 * i, seed)));
            }
        }
        h.finish()
    });
    assert_eq!(
        got,
        [
            0xe455_375f_6519_c2e3,
            0xd926_7c22_a38e_bcfb,
            0x1366_bc32_0c33_d9b7,
            0xe287_af21_5366_0998,
            0x649c_049e_bd4d_7d5a,
        ],
        "{got:#018x?}"
    );
}

/// The two shapes the benchmark harness writes: `serve-churn`'s 2^11 ×
/// 10 000 files and `cold-bel-skewed`'s 2^16 × 400 000 graph.
#[test]
fn rmat_harness_shapes_are_pinned() {
    let churn = rmat_hash(&Rmat::new(RMAT_COMBOS[1], 1 << 11, 10_000, 701));
    let skewed = rmat_hash(&Rmat::new(RMAT_COMBOS[6], 1 << 16, 400_000, 701));
    assert_eq!(
        (churn, skewed),
        (0x9c65_933e_62ba_162f, 0x6311_4bc9_57e5_1b0a),
        "{churn:#018x}, {skewed:#018x}"
    );
}

/// G(n, m), simple (duplicates rejected, here many: 2 000 of 4 032 possible
/// edges) and not.
#[test]
fn gnm_streams_are_pinned() {
    let hash = |n: usize, m: usize, simple: bool, seed: u64| {
        let mut h = StreamHash::default();
        let g = ErdosRenyi { num_vertices: n, num_edges: m, simple, seed }.generate();
        g.edges().iter().for_each(|&e| h.push(e));
        h.finish()
    };
    let got = [
        hash(64, 2_000, true, 5),
        hash(1 << 12, 20_000, true, 5),
        hash(64, 2_000, false, 5),
        hash(1 << 12, 20_000, false, 5),
    ];
    assert_eq!(
        got,
        [
            0x094a_03e4_19b5_6bd9,
            0xd41f_0ebf_fc16_8b8c,
            0xe432_316c_d865_1384,
            0x139f_3add_2403_e0fd
        ],
        "{got:#018x?}"
    );
}
