//! Ingestion-backend equivalence tests (PR 4 acceptance locks).
//!
//! The `GraphSource` seam promises that *where* a graph comes from — an
//! in-memory edge list, a memory-mapped `.bel` file, or a streamed text
//! file — never changes *what* the system computes: properties,
//! fingerprints and partition assignments must be bit-identical across all
//! three backends. The mmap backend must additionally
//! never materialize an owned `Vec<Edge>`, which is locked here with a
//! thread-local allocation counter around the zero-copy analysis path.

use ease_repro::graph::bel::{write_bel, BelSource};
use ease_repro::graph::io::{read_edge_list, read_edge_list_from, write_edge_list};
use ease_repro::graph::source::{collect_source, fingerprint_source, FINGERPRINT_BLOCK};
use ease_repro::graph::{Graph, GraphIoError, GraphSource, PropertyTier, TextStreamSource};
use ease_repro::graphgen::rmat::{Rmat, RMAT_COMBOS};
use ease_repro::partition::{PartitionerId, QualityMetrics};
use ease_repro::PreparedGraph;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

mod common;

// ---------------------------------------------------------------------
// Thread-local allocation counter (only the calling thread is charged, so
// the lock is immune to the test harness's other threads).
// ---------------------------------------------------------------------

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the thread-local counter taps use
// `Cell`s, never allocate, and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.with(|t| t.get()) {
            ALLOCATED.with(|a| a.set(a.get() + layout.size() as u64));
        }
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from the paired `alloc` call above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and the bytes allocated *by this thread*.
fn tracked<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATED.with(|a| a.set(0));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, ALLOCATED.with(|a| a.get()))
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

static FILE_TAG: AtomicU64 = AtomicU64::new(0);

fn temp_pair(graph: &Graph) -> (PathBuf, PathBuf) {
    let tag = FILE_TAG.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(unique-name counter)
    let dir = std::env::temp_dir();
    let txt = dir.join(format!("ease_gs_{}_{tag}.txt", std::process::id()));
    let bel = dir.join(format!("ease_gs_{}_{tag}.bel", std::process::id()));
    write_edge_list(graph, &txt).unwrap();
    write_bel(graph, &bel).unwrap();
    (txt, bel)
}

/// Arbitrary R-MAT graph. The universe is fixed at 128 vertices and often
/// larger than `max endpoint + 1`, which deliberately exercises explicit
/// universe preservation: `.bel` carries it in the header, text in the
/// `# vertices N` summary comment both readers honour.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (0usize..9, 40usize..600, 0u64..50)
        .prop_map(|(combo, edges, seed)| Rmat::new(RMAT_COMBOS[combo], 128, edges, seed).generate())
}

fn assert_props_bit_identical(
    a: &ease_repro::graph::GraphProperties,
    b: &ease_repro::graph::GraphProperties,
    what: &str,
) {
    assert_eq!(a.num_vertices, b.num_vertices, "{what}");
    assert_eq!(a.num_edges, b.num_edges, "{what}");
    assert_eq!(a.density.to_bits(), b.density.to_bits(), "{what}");
    assert_eq!(a.mean_degree.to_bits(), b.mean_degree.to_bits(), "{what}");
    assert_eq!(a.in_degree_skew.to_bits(), b.in_degree_skew.to_bits(), "{what}");
    assert_eq!(a.out_degree_skew.to_bits(), b.out_degree_skew.to_bits(), "{what}");
    assert_eq!(a.avg_triangles.map(f64::to_bits), b.avg_triangles.map(f64::to_bits), "{what}");
    assert_eq!(a.avg_lcc.map(f64::to_bits), b.avg_lcc.map(f64::to_bits), "{what}");
}

// ---------------------------------------------------------------------
// Proptests: the three backends are indistinguishable
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Properties, fingerprints and the raw edge stream agree bit-for-bit
    /// across in-memory, mmap `.bel` and streamed text.
    #[test]
    fn backends_agree_on_properties_and_fingerprints(g in arb_graph()) {
        let (txt, bel) = temp_pair(&g);
        let bel_src = BelSource::open(&bel).unwrap();
        let txt_src = TextStreamSource::open(&txt).unwrap();
        // identical streams
        prop_assert_eq!(&collect_source(&bel_src), &g);
        prop_assert_eq!(&collect_source(&txt_src), &g);
        // identical fingerprints (raw source pass)
        let fp = fingerprint_source(&g);
        prop_assert_eq!(fingerprint_source(&bel_src), fp);
        prop_assert_eq!(fingerprint_source(&txt_src), fp);
        // identical extracted features, at every tier
        let reference = PreparedGraph::of(&g);
        let via_bel = PreparedGraph::of_source(&bel_src);
        let via_txt = PreparedGraph::of_source(&txt_src);
        prop_assert_eq!(via_bel.fingerprint(), reference.fingerprint());
        prop_assert_eq!(via_txt.fingerprint(), reference.fingerprint());
        for tier in PropertyTier::ALL {
            let want = reference.properties(tier);
            assert_props_bit_identical(&via_bel.properties(tier), &want, "bel");
            assert_props_bit_identical(&via_txt.properties(tier), &want, "txt");
        }
        std::fs::remove_file(&txt).ok();
        std::fs::remove_file(&bel).ok();
    }

    /// Every partitioner family produces identical assignments (and hence
    /// identical quality metrics) no matter which backend feeds it.
    #[test]
    fn backends_agree_on_partition_assignments(g in arb_graph(), k in 2usize..9) {
        let (txt, bel) = temp_pair(&g);
        let bel_src = BelSource::open(&bel).unwrap();
        let txt_src = TextStreamSource::open(&txt).unwrap();
        let in_memory = PreparedGraph::of(&g);
        // one partitioner per category: stateless, stateful, hybrid, in-memory
        for id in [PartitionerId::Dbh, PartitionerId::Hdrf, PartitionerId::Hep10, PartitionerId::Ne] {
            let p = id.build(17);
            let reference = p.partition_prepared(&in_memory, k);
            let via_bel = p.partition_prepared(&PreparedGraph::of_source(&bel_src), k);
            let via_txt = p.partition_prepared(&PreparedGraph::of_source(&txt_src), k);
            prop_assert_eq!(&via_bel, &reference, "{:?} via bel", id);
            prop_assert_eq!(&via_txt, &reference, "{:?} via txt", id);
            // metrics over a source-backed context match the in-memory path
            let m_ref = QualityMetrics::compute_prepared(&in_memory, &reference);
            let m_bel = QualityMetrics::compute_prepared(
                &PreparedGraph::of_source(&bel_src), &via_bel);
            prop_assert_eq!(
                m_ref.replication_factor.to_bits(),
                m_bel.replication_factor.to_bits()
            );
            prop_assert_eq!(m_ref.edge_balance.to_bits(), m_bel.edge_balance.to_bits());
        }
        std::fs::remove_file(&txt).ok();
        std::fs::remove_file(&bel).ok();
    }

    /// `convert`-style round trips (txt -> bel -> txt) preserve the graph.
    #[test]
    fn format_round_trips_preserve_the_stream(g in arb_graph()) {
        let (txt, bel) = temp_pair(&g);
        // txt -> bel (stream the text reader into a bel writer)
        let tag = FILE_TAG.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(unique-name counter)
        let rebel = std::env::temp_dir()
            .join(format!("ease_gs_rt_{}_{tag}.bel", std::process::id()));
        let txt_src = TextStreamSource::open(&txt).unwrap();
        let mut w = ease_repro::graph::bel::BelWriter::create(&rebel).unwrap();
        txt_src.for_each_edge(&mut |e| w.push(e).unwrap());
        w.finish_with_vertices(txt_src.num_vertices()).unwrap();
        // bel -> graph: same content, same fingerprint
        let reread = BelSource::open(&rebel).unwrap();
        prop_assert_eq!(&collect_source(&reread), &g);
        prop_assert_eq!(fingerprint_source(&reread), fingerprint_source(&g));
        std::fs::remove_file(&txt).ok();
        std::fs::remove_file(&bel).ok();
        std::fs::remove_file(&rebel).ok();
    }
}

// ---------------------------------------------------------------------
// The fingerprint is a persisted value, not just a self-consistent one
// ---------------------------------------------------------------------

/// Literal fingerprints: property-cache trailers in saved model files, the
/// daemon memo and `ease features` output carry these values, so a rewrite
/// of the hasher must reproduce them — agreeing with itself is not enough.
/// The third graph spans two full blocks and a partial one.
#[test]
fn fingerprints_are_pinned() {
    let mut x = 7u64;
    let multi_block = (0..2 * FINGERPRINT_BLOCK + 77).map(|_| {
        x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(0x9E37);
        (((x >> 32) % 113) as u32, (x % 113) as u32)
    });
    let pinned = [
        (Graph::empty(0), 0x0a56_933e_9b32_fd5d_u64),
        (
            Graph::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 3)]),
            0xd742_0956_d39d_897b,
        ),
        (Graph::from_pairs(multi_block), 0xc3d7_4843_240e_258b),
    ];
    for (g, want) in pinned {
        let (txt, bel) = temp_pair(&g);
        let bel_src = BelSource::open(&bel).unwrap();
        let txt_src = TextStreamSource::open(&txt).unwrap();
        let sources: [(&str, &dyn GraphSource); 3] =
            [("graph", &g), ("bel", &bel_src), ("text", &txt_src)];
        let m = g.num_edges();
        for (name, source) in sources {
            assert_eq!(fingerprint_source(source), want, "{name}, {m} edges: standalone pass");
            let prepared = PreparedGraph::of_source(source);
            let _ = prepared.degrees();
            assert_eq!(prepared.fingerprint(), want, "{name}, {m} edges: fused degree pass");
        }
        std::fs::remove_file(&txt).ok();
        std::fs::remove_file(&bel).ok();
    }
}

// ---------------------------------------------------------------------
// Differential: the block kernel reads what the line-at-a-time reader read
// ---------------------------------------------------------------------

/// A reader's verdict in comparable form: the graph, or the error's
/// variant, line and message (`io::Error` has no `PartialEq`).
fn verdict(result: Result<Graph, GraphIoError>) -> Result<Graph, String> {
    result.map_err(|e| match e {
        GraphIoError::Io(e) => format!("Io({:?}): {e}", e.kind()),
        GraphIoError::Parse { line, message } => format!("Parse(line {line}): {message}"),
        GraphIoError::Format(message) => format!("Format: {message}"),
    })
}

/// Slot fillers for a line of edge-list soup, on both sides of every
/// fast-path / slow-path boundary. The first `.1` entries of a list keep
/// the line an edge; the rest mostly make it an error.
type Slot = (&'static [&'static [u8]], usize);
const LEADS: Slot = (&[b"", b" ", b"\t ", b"\r", b"\xc2\xa0", b"\x0b", b"x", b"\xff"], 6);
const IDS: Slot = (
    &[
        b"0",
        b"7",
        b"12",
        b"300",
        b"007",
        b"+5",
        b"4294967295",
        b"00000000001",
        b"0000000000",
        b"4294967296",
        b"12345678901",
        b"-3",
        b"1.5",
        b"",
    ],
    9,
);
const SEPS: Slot = (&[b" ", b"\t", b"  \t", b"\r", b"\xc2\xa0", b"\x0b", b"", b".", b"\xa0"], 6);
const TAILS: Slot = (
    &[
        b"",
        b" ",
        b"\r",
        b" \t\r",
        b"\t0.25\t1200000000\r",
        b" 3 4",
        b"\x0bz",
        b" caf\xc3\xa9",
        b" \xff",
        b"\xa0",
        b"x",
        b".5",
    ],
    8,
);
const ENDS: Slot = (&[b"\n", b"\r\n", b""], 2);
const NON_EDGES: Slot = (
    &[
        b"",
        b"  ",
        b"# comment",
        b"% konect",
        b"# vertices 9",
        b"  # vertices 300 edges 2",
        b"# vertices 4294967296",
        b"# vertices -1",
        b"# vertices 4294967297",
        b"# vertices 99999999999999999999",
        b"#\xff",
        b"\xc3",
    ],
    8,
);

/// One draw in eight takes any filler, the rest a harmless one — so files
/// are long runs of edges with the odd error, not an error on line 1.
fn fill(slot: Slot, draw: usize) -> &'static [u8] {
    let (fillers, harmless) = slot;
    let choices = if draw.is_multiple_of(8) { fillers.len() } else { harmless };
    fillers[(draw / 8) % choices]
}

/// Up to a dozen lines, three in four `lead id sep id tail end`, the rest
/// comments, blanks and universe declarations; an empty `end` glues a line
/// to the next one or leaves the file without a final newline, and the
/// empty file occurs.
fn arb_soup() -> impl Strategy<Value = Vec<u8>> {
    let line = prop::collection::vec(0usize..1 << 16, 7).prop_map(|d| {
        if d[0].is_multiple_of(4) {
            [fill(NON_EDGES, d[1]), fill(ENDS, d[6])].concat()
        } else {
            let slots = [LEADS, IDS, SEPS, IDS, TAILS, ENDS];
            slots.iter().zip(&d[1..]).flat_map(|(&slot, &draw)| fill(slot, draw)).copied().collect()
        }
    });
    prop::collection::vec(line, 0..12).prop_map(|lines| lines.concat())
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u32..256).prop_map(|b| b as u8), 0..96)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn block_reader_matches_the_line_reader_on_structured_soup(text in arb_soup()) {
        assert_eq!(
            verdict(read_edge_list_from(&text[..])),
            verdict(common::naive_read_edge_list(&text[..])),
            "on {:?}", String::from_utf8_lossy(&text)
        );
    }

    #[test]
    fn block_reader_matches_the_line_reader_on_arbitrary_bytes(text in arb_bytes()) {
        assert_eq!(
            verdict(read_edge_list_from(&text[..])),
            verdict(common::naive_read_edge_list(&text[..])),
            "on {text:?}"
        );
    }
}

// ---------------------------------------------------------------------
// The zero-copy lock: mmap ingestion allocates nothing proportional to |E|
// ---------------------------------------------------------------------

/// Analyzing a `.bel` file (open + full replay + fingerprint + basic-tier
/// properties) must never materialize the edge list: an owned `Vec<Edge>`
/// would cost `8 bytes × |E|`; the whole zero-copy path is held under
/// `1 byte × |E|` of allocation on a graph whose edge count dwarfs its
/// vertex count.
#[test]
fn mmap_ingestion_never_materializes_an_edge_list() {
    let m = 200_000usize;
    let n = 2_048usize;
    let g = Rmat::new(RMAT_COMBOS[6], n, m, 99).generate();
    let tag = FILE_TAG.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(unique-name counter)
    let bel = std::env::temp_dir().join(format!("ease_gs_zc_{}_{tag}.bel", std::process::id()));
    write_bel(&g, &bel).unwrap();

    let edge_list_bytes = (m * std::mem::size_of::<ease_repro::graph::Edge>()) as u64;
    let ((fingerprint, props, streamed), allocated) = tracked(|| {
        let src = BelSource::open(&bel).expect("open bel");
        let prepared = PreparedGraph::of_source(&src);
        let fingerprint = prepared.fingerprint();
        let props = prepared.properties(PropertyTier::Basic);
        let mut streamed = 0usize;
        prepared.for_each_edge(|_| streamed += 1);
        (fingerprint, props, streamed)
    });
    assert_eq!(streamed, m);
    assert_eq!(fingerprint, PreparedGraph::of(&g).fingerprint());
    assert_props_bit_identical(
        &props,
        &PreparedGraph::of(&g).properties(PropertyTier::Basic),
        "zero-copy",
    );
    // degree table + moments are O(|V|) ≈ 24 KiB here; an owned edge list
    // would add 1.6 MiB on top. Lock the whole path at 1/8 of that.
    assert!(
        allocated < edge_list_bytes / 8,
        "zero-copy path allocated {allocated} bytes — more than 1/8 of an owned \
         edge list ({edge_list_bytes} bytes); something is materializing edges"
    );
    std::fs::remove_file(&bel).ok();
}

/// The full recommendation path over a `.bel` mapping stays zero-copy: the
/// context's source has no in-memory edge slice before and after advanced
/// extraction + a partitioner run, i.e. nothing ever silently builds a
/// `Graph`.
#[test]
fn source_backed_analysis_never_builds_a_graph() {
    let g = Rmat::new(RMAT_COMBOS[2], 512, 4_000, 5).generate();
    let tag = FILE_TAG.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(unique-name counter)
    let bel = std::env::temp_dir().join(format!("ease_gs_ng_{}_{tag}.bel", std::process::id()));
    write_bel(&g, &bel).unwrap();
    let src = BelSource::open(&bel).unwrap();
    let prepared = PreparedGraph::of_source(&src);
    assert!(prepared.source().edge_slice().is_none());
    let advanced = prepared.properties(PropertyTier::Advanced);
    let partition = PartitionerId::Hdrf.build(3).partition_prepared(&prepared, 4);
    assert_eq!(partition.num_edges(), g.num_edges());
    assert_props_bit_identical(
        &advanced,
        &PreparedGraph::of(&g).properties(PropertyTier::Advanced),
        "advanced",
    );
    assert!(prepared.source().edge_slice().is_none(), "analysis materialized a Graph");
    std::fs::remove_file(&bel).ok();
}

// ---------------------------------------------------------------------
// The text lock: streamed text holds one block, whatever the edge count
// ---------------------------------------------------------------------

/// The text kernel's read block (`io::BLOCK_BYTES`, private to the crate).
const TEXT_BLOCK_BYTES: u64 = 1 << 18;

/// `TextStreamSource::open` plus one full replay allocate one block each
/// and nothing that grows with the file; `read_edge_list` allocates what
/// the line-at-a-time reader did (the edge vector's doublings) plus at
/// most the block.
#[test]
fn text_ingestion_allocates_a_block_not_an_edge_list() {
    let stream_cost = |m: usize| {
        let g = Rmat::new(RMAT_COMBOS[6], 2_048, m, 99).generate();
        let txt = std::env::temp_dir().join(format!("ease_gs_tb_{}_{m}.txt", std::process::id()));
        write_edge_list(&g, &txt).unwrap();
        let (streamed, allocated) = tracked(|| {
            let src = TextStreamSource::open(&txt).expect("open text");
            let mut streamed = 0usize;
            src.for_each_edge(&mut |_| streamed += 1);
            streamed
        });
        assert_eq!(streamed, m);
        let (read, read_allocated) = tracked(|| read_edge_list(&txt).expect("read text"));
        let (naive, naive_allocated) = tracked(|| {
            let file = std::fs::File::open(&txt).expect("open text");
            common::naive_read_edge_list(std::io::BufReader::new(file)).expect("read text")
        });
        assert_eq!((&read, &naive), (&g, &g));
        assert!(
            read_allocated <= naive_allocated + TEXT_BLOCK_BYTES,
            "read_edge_list allocated {read_allocated} bytes, the line reader {naive_allocated}"
        );
        std::fs::remove_file(&txt).ok();
        allocated
    };
    let (small, large) = (stream_cost(50_000), stream_cost(400_000));
    // 400 k edges are a 3.2 MB edge list and a file of more than a dozen blocks
    assert!(
        large <= 2 * TEXT_BLOCK_BYTES + 4096,
        "open + replay allocated {large} bytes — more than the two passes' blocks"
    );
    assert!(
        large.abs_diff(small) < 256,
        "streaming allocation depends on |E|: {small} bytes for 50 k edges, {large} for 400 k"
    );
}
