//! Fixtures and oracles shared by the root integration suites; a suite
//! compiles this module with `mod common;`. Each exists only here:
//!
//! - [`naive_triangle_counts`] and [`naive_read_edge_list`], the oracles
//!   the triangle kernel and the block text reader are diffed against;
//! - [`arb_graph`], the 128-vertex R-MAT strategy of the graph-property
//!   suites;
//! - [`alloc`], the thread-local counting allocator behind the allocation
//!   locks (each counting suite installs it as its `#[global_allocator]`);
//! - [`daemon`], the serving fixture — one trained tiny service and its
//!   graphs under `ease_<suite>_suite` in the temp dir — with the daemon
//!   starter, the one-shot answer every served answer must equal, the
//!   `Recommend` request builder and the CLI runner.

// each suite compiles this module and uses its own subset of it
#![allow(dead_code)]

pub mod alloc;
pub mod daemon;

use ease_repro::graph::io::{parse_edge_line, parse_universe_comment};
use ease_repro::graph::{Csr, Edge, Graph, GraphIoError, VertexId};
use ease_repro::graphgen::rmat::{Rmat, RMAT_COMBOS};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::io::BufRead;

/// Arbitrary R-MAT graph. The universe is fixed at 128 vertices and often
/// larger than `max endpoint + 1`, which deliberately exercises explicit
/// universe preservation: `.bel` carries it in the header, text in the
/// `# vertices N` summary comment both readers honour.
pub fn arb_graph() -> impl Strategy<Value = Graph> {
    (0usize..9, 40usize..600, 0u64..50)
        .prop_map(|(combo, edges, seed)| Rmat::new(RMAT_COMBOS[combo], 128, edges, seed).generate())
}

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

/// Text edge-list oracle: the line-at-a-time reader the block kernel
/// replaced — `read_line` into a `String`, [`parse_edge_line`] on every
/// line, [`parse_universe_comment`] on whatever was not an edge. It defines
/// what `read_edge_list_from` must return for any bytes, errors included.
pub fn naive_read_edge_list(mut reader: impl BufRead) -> Result<Graph, GraphIoError> {
    let mut edges: Vec<Edge> = Vec::new();
    let mut declared = 0usize;
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        if let Some(e) = parse_edge_line(&line, lineno)? {
            edges.push(e);
        } else if let Some(n) = parse_universe_comment(&line) {
            if n as u64 > u64::from(u32::MAX) + 1 {
                return Err(GraphIoError::Format(format!(
                    "declared vertex universe {n} exceeds the u32 id space"
                )));
            }
            declared = declared.max(n);
        }
    }
    let inferred = edges.iter().map(|e| e.src.max(e.dst) as usize + 1).max().unwrap_or(0);
    Ok(Graph::new(inferred.max(declared), edges))
}
