//! The superstep engine: executes a vertex program over a
//! [`DistributedGraph`] while charging the cluster cost model.
//!
//! Execution model per superstep (PowerGraph/GraphX vertex-cut):
//!
//! 1. **Broadcast** — every *active* vertex's master ships the vertex state
//!    to each mirror: `(replicas − 1) · state_bytes` out of the master's
//!    machine, `state_bytes` into each mirror's machine.
//! 2. **Gather** — each machine folds contributions along its local edges
//!    whose source is active (`edge_cost` compute units per edge). With
//!    `symmetric()`, reversed edges gather too (undirected semantics).
//! 3. **Aggregate** — each machine pre-aggregates per local vertex
//!    (`apply_cost` units per touched replica — this is the term that makes
//!    vertex balance matter) and mirrors ship accumulators to masters
//!    (`acc_bytes` each way).
//! 4. **Apply** — masters compute the new state (`apply_cost` units) and
//!    decide whether the vertex stays active.
//!
//! Superstep wall time = `max_p compute_p / rate + max_p bytes_p / bw +
//! latency`; the report sums these.
//!
//! **What happens, and what it costs here.** No term above reads a state
//! value: each is decided by *which* vertices are active in the superstep.
//! And which vertices are active when is a property of the graph and the
//! program, not of the placement — a partitioning changes what a computation
//! costs, never what it computes. So the engine is split along that line:
//!
//! * [`trace`] answers "what happens": the [`ActivityTrace`] of a program on
//!   a graph, the ascending active vertex ids of every superstep. For a
//!   [`VertexProgram::stationary`] program it is written down from the
//!   declaration — the covered set, `max_supersteps()` times — and no state
//!   operation is called; for any other program it is recorded by the one
//!   stateful superstep loop, on *any* placement of the graph.
//! * [`price`] answers "what it costs here": the [`SimReport`] of a trace on
//!   one placement. Per partition it makes one pass over the local edges per
//!   64 supersteps — the window's activity is one `u64` per vertex, and an
//!   edge ORs its source's word into its destination's "touched" word — after
//!   which every ledger term of a superstep is a count over vertices and
//!   replicas, not edges. A stationary program needs no edge pass at all
//!   (with every covered vertex active, a replica is touched iff it has a
//!   local in-edge), and its one superstep's ledger is charged once per
//!   superstep of the trace — the paper predicts these workloads by their
//!   *average iteration time* for the same reason (Sec. V-C).
//!
//! [`crate::Workload::execute`] is `price(trace(..))`; profiling takes the
//! trace once per graph and prices it once per partitioner. [`run`] is the
//! stateful loop itself — every state update executed for real, algorithm
//! outputs exact, only *time* modelled — and the reference `price` is held
//! to: each `compute[p]` / `bytes[p]` receives the same addends in the same
//! order there and here, so the reports agree bit for bit
//! (`tests/procsim_correctness.rs`).

use crate::cluster::ClusterSpec;
use crate::placement::{DistributedGraph, NO_MASTER};
use std::ops::Range;

/// A vertex program in gather/apply form.
///
/// A program that is not [`stationary`](VertexProgram::stationary) must make
/// `gather` + `combine` an *exactly* commutative and associative fold —
/// integer min or sum, as in CC, SSSP and K-Cores: its [`ActivityTrace`] is
/// taken on one placement and priced on others, and a placement decides the
/// order and grouping in which a vertex's contributions are folded. A fold
/// that rounds (a float sum) could activate different vertices on different
/// placements (`tests/procsim_correctness.rs::activity_is_placement_independent`
/// holds the catalogue to this).
pub trait VertexProgram {
    type State: Clone + PartialEq;
    type Acc: Clone;

    fn init_state(&self, v: u32, dg: &DistributedGraph) -> Self::State;
    fn initially_active(&self, v: u32, dg: &DistributedGraph) -> bool;
    fn acc_identity(&self) -> Self::Acc;
    /// Fold the contribution of active source `src` into `dst`'s accumulator.
    fn gather(
        &self,
        src: u32,
        src_state: &Self::State,
        dst: u32,
        acc: &mut Self::Acc,
        dg: &DistributedGraph,
    );
    /// Merge two partial accumulators (mirror → master aggregation).
    fn combine(&self, into: &mut Self::Acc, other: &Self::Acc);
    /// Compute the new state at the master; returns `(state, active_next)`.
    fn apply(
        &self,
        v: u32,
        old: &Self::State,
        acc: Option<&Self::Acc>,
        dg: &DistributedGraph,
        superstep: usize,
    ) -> (Self::State, bool);

    /// Apply to every covered vertex each superstep (iterative algorithms
    /// like PageRank); otherwise only vertices that received messages apply.
    fn apply_to_all(&self) -> bool {
        false
    }
    /// Gather along reversed edges too (undirected algorithms).
    fn symmetric(&self) -> bool {
        false
    }
    /// Every covered vertex is active in every superstep, whatever the
    /// states are, and the run lasts exactly `max_supersteps()` — the
    /// paper's fixed-iteration workloads (Sec. V-C: "all vertices are active
    /// in each iteration"). The declaration buys a declared trace: [`trace`]
    /// writes such a program's activity down without executing it, and
    /// [`price`] charges one superstep's ledger for all of them. [`run`]
    /// still executes every superstep and `debug_assert!`s the declaration
    /// in each.
    fn stationary(&self) -> bool {
        false
    }
    fn state_bytes(&self) -> f64;
    fn acc_bytes(&self) -> f64 {
        self.state_bytes()
    }
    fn edge_cost(&self) -> f64 {
        1.0
    }
    fn apply_cost(&self) -> f64 {
        1.0
    }
    fn max_supersteps(&self) -> usize;
}

/// Per-superstep cost breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperstepCost {
    /// Straggler compute time (max over machines).
    pub compute_secs: f64,
    /// Straggler network time (max over machines).
    pub network_secs: f64,
    pub active_senders: usize,
}

/// Cost report of one simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub total_secs: f64,
    pub supersteps: usize,
    pub total_comm_bytes: f64,
    pub total_compute_units: f64,
    pub per_superstep: Vec<SuperstepCost>,
}

impl SimReport {
    fn empty() -> Self {
        SimReport {
            total_secs: 0.0,
            supersteps: 0,
            total_comm_bytes: 0.0,
            total_compute_units: 0.0,
            per_superstep: Vec::new(),
        }
    }

    /// Average per-superstep time — the prediction target for
    /// fixed-iteration workloads (paper Sec. V-C).
    pub fn avg_superstep_secs(&self) -> f64 {
        if self.supersteps == 0 {
            0.0
        } else {
            self.total_secs / self.supersteps as f64
        }
    }

    /// Account one superstep from its per-machine ledger — the one `+=`
    /// sequence a report grows by, executed or priced.
    fn charge(&mut self, compute: &[f64], bytes: &[f64], active: usize, cluster: &ClusterSpec) {
        let max_compute = compute.iter().cloned().fold(0.0, f64::max);
        let max_bytes = bytes.iter().cloned().fold(0.0, f64::max);
        let cost = SuperstepCost {
            compute_secs: cluster.compute_secs(max_compute),
            network_secs: cluster.network_secs(max_bytes),
            active_senders: active,
        };
        self.total_secs += cost.compute_secs + cost.network_secs + cluster.superstep_latency_secs;
        self.total_comm_bytes += bytes.iter().sum::<f64>();
        self.total_compute_units += compute.iter().sum::<f64>();
        self.per_superstep.push(cost);
        self.supersteps += 1;
    }
}

/// What one program does on one graph, whatever the placement: the
/// ascending ids of the vertices active in each superstep of the run.
/// Memory is `Σ_s |A_s|` ids, never `n · supersteps`; a stationary
/// program's trace holds its covered set once.
#[derive(Debug, Clone)]
pub struct ActivityTrace {
    num_vertices: usize,
    num_edges: usize,
    /// Ascending active ids, one stretch per distinct active set.
    active: Vec<u32>,
    /// Superstep `s` had `active[steps[s]]` active.
    steps: Vec<Range<usize>>,
}

impl ActivityTrace {
    /// Number of supersteps the run was charged for.
    pub fn supersteps(&self) -> usize {
        self.steps.len()
    }

    /// The ascending ids of the vertices active in superstep `step`.
    pub fn active(&self, step: usize) -> &[u32] {
        &self.active[self.steps[step].clone()]
    }
}

/// Same graph size, same active set in every superstep — however the sets
/// are stored.
impl PartialEq for ActivityTrace {
    fn eq(&self, other: &Self) -> bool {
        (self.num_vertices, self.num_edges, self.supersteps())
            == (other.num_vertices, other.num_edges, other.supersteps())
            && (0..self.supersteps()).all(|s| self.active(s) == other.active(s))
    }
}

/// Run `prog` to completion; returns the cost report and the final master
/// states of all vertices.
pub fn run<P: VertexProgram>(
    prog: &P,
    dg: &DistributedGraph,
    cluster: &ClusterSpec,
) -> (SimReport, Vec<P::State>) {
    let (report, states, _) = drive(prog, dg, cluster);
    (report, states)
}

/// The activity of `prog` on the graph `dg` places — equal on every
/// placement of that graph. Declared, not executed, for a
/// [`VertexProgram::stationary`] program; recorded by the stateful loop for
/// any other.
pub fn trace<P: VertexProgram>(prog: &P, dg: &DistributedGraph) -> ActivityTrace {
    if !prog.stationary() {
        return drive(prog, dg, &ClusterSpec::new(dg.num_partitions())).2;
    }
    let covered: Vec<u32> = covered_vertices(dg).collect();
    // `run`'s exits: with nothing covered, nothing is ever active — the run
    // ends before its first superstep, or after it when every superstep
    // applies to all (and then changes nothing)
    let supersteps = if !covered.is_empty() {
        prog.max_supersteps()
    } else if prog.apply_to_all() {
        prog.max_supersteps().min(1)
    } else {
        0
    };
    ActivityTrace {
        num_vertices: dg.num_vertices(),
        num_edges: dg.num_edges(),
        steps: vec![0..covered.len(); supersteps],
        active: covered,
    }
}

/// The stateful superstep loop: executes every state update, charges the
/// ledger as it goes and records which vertices were active when. [`run`]
/// exposes the report and the states, [`trace`] the activity.
fn drive<P: VertexProgram>(
    prog: &P,
    dg: &DistributedGraph,
    cluster: &ClusterSpec,
) -> (SimReport, Vec<P::State>, ActivityTrace) {
    assert_eq!(cluster.machines, dg.num_partitions(), "one machine per partition");
    let n = dg.num_vertices();
    let k = dg.num_partitions();
    let mut states: Vec<P::State> = (0..n as u32).map(|v| prog.init_state(v, dg)).collect();
    let covered: Vec<bool> = (0..n as u32).map(|v| dg.master_of(v) != NO_MASTER).collect();
    let mut active: Vec<bool> =
        (0..n as u32).map(|v| covered[v as usize] && prog.initially_active(v, dg)).collect();
    debug_assert!(!prog.stationary() || active == covered, "stationary: all start active");

    // per-partition local accumulator storage, epoch-stamped
    let mut local_acc: Vec<Vec<P::Acc>> =
        (0..k).map(|p| vec![prog.acc_identity(); dg.partition(p).vertices.len()]).collect();
    let mut local_epoch: Vec<Vec<u32>> =
        (0..k).map(|p| vec![0u32; dg.partition(p).vertices.len()]).collect();
    let mut touched_lists: Vec<Vec<u32>> = vec![Vec::new(); k];

    // global (master-side) accumulators, epoch-stamped
    let mut global_acc: Vec<P::Acc> = vec![prog.acc_identity(); n];
    let mut global_epoch: Vec<u32> = vec![0u32; n];

    let mut report = SimReport::empty();
    let mut trace = ActivityTrace {
        num_vertices: n,
        num_edges: dg.num_edges(),
        active: Vec::new(),
        steps: Vec::new(),
    };

    for step in 0..prog.max_supersteps() {
        let epoch = step as u32 + 1;
        let recorded = trace.active.len();
        trace.active.extend((0..n as u32).filter(|&v| active[v as usize]));
        let num_active = trace.active.len() - recorded;
        if num_active == 0 && !prog.apply_to_all() {
            break;
        }
        trace.steps.push(recorded..trace.active.len());
        let mut compute = vec![0.0f64; k];
        let mut bytes = vec![0.0f64; k];

        // ---- 1. broadcast active vertex states to mirrors ----
        broadcast(&trace.active[recorded..], dg, prog.state_bytes(), &mut bytes);

        // ---- 2. gather along local edges ----
        let edge_cost = prog.edge_cost();
        for p in 0..k {
            let part = dg.partition(p);
            let (epochs, accs) = (&mut local_epoch[p], &mut local_acc[p]);
            let touched = &mut touched_lists[p];
            touched.clear();
            let mut work = 0.0;
            for (i, e) in part.edges.iter().enumerate() {
                if active[e.src as usize] {
                    let dst_local = part.edge_dst_local[i] as usize;
                    if epochs[dst_local] != epoch {
                        epochs[dst_local] = epoch;
                        touched.push(dst_local as u32);
                        accs[dst_local] = prog.acc_identity();
                    }
                    let src_state = &states[e.src as usize];
                    prog.gather(e.src, src_state, e.dst, &mut accs[dst_local], dg);
                    work += edge_cost;
                }
                if prog.symmetric() && active[e.dst as usize] {
                    let src_local = part.edge_src_local[i] as usize;
                    if epochs[src_local] != epoch {
                        epochs[src_local] = epoch;
                        touched.push(src_local as u32);
                        accs[src_local] = prog.acc_identity();
                    }
                    let dst_state = &states[e.dst as usize];
                    prog.gather(e.dst, dst_state, e.src, &mut accs[src_local], dg);
                    work += edge_cost;
                }
            }
            compute[p] += work;
        }

        // ---- 3. mirror pre-aggregation + accumulator shipping ----
        let acc_bytes = prog.acc_bytes();
        let apply_cost = prog.apply_cost();
        for p in 0..k {
            let part = dg.partition(p);
            compute[p] += apply_cost * touched_lists[p].len() as f64;
            for &local in &touched_lists[p] {
                let v = part.vertices[local as usize];
                let master = dg.master_of(v) as usize;
                if master != p {
                    bytes[p] += acc_bytes;
                    bytes[master] += acc_bytes;
                }
                let acc = &local_acc[p][local as usize];
                if global_epoch[v as usize] != epoch {
                    global_epoch[v as usize] = epoch;
                    global_acc[v as usize] = acc.clone();
                } else {
                    prog.combine(&mut global_acc[v as usize], acc);
                }
            }
        }

        // ---- 4. apply at masters ----
        let mut next_active = vec![false; n];
        let mut changed = 0usize;
        for v in 0..n {
            if !covered[v] {
                continue;
            }
            let has_acc = global_epoch[v] == epoch;
            if !has_acc && !prog.apply_to_all() {
                continue;
            }
            let master = dg.master_of(v as u32) as usize;
            compute[master] += apply_cost;
            let acc = if has_acc { Some(&global_acc[v]) } else { None };
            let (new_state, act) = prog.apply(v as u32, &states[v], acc, dg, step);
            if new_state != states[v] {
                changed += 1;
                states[v] = new_state;
            }
            next_active[v] = act;
        }
        debug_assert!(
            !prog.stationary() || next_active == covered,
            "stationary: every covered vertex stays active (superstep {step})"
        );

        report.charge(&compute, &bytes, num_active, cluster);

        let none_active = !next_active.iter().any(|&a| a);
        active = next_active;
        if prog.apply_to_all() {
            if none_active && changed == 0 {
                break;
            }
        } else if none_active {
            break;
        }
    }
    (report, states, trace)
}

/// The vertices with at least one edge, ascending — those a placement gives
/// a master.
fn covered_vertices(dg: &DistributedGraph) -> impl Iterator<Item = u32> + '_ {
    (0..dg.num_vertices() as u32).filter(|&v| dg.master_of(v) != NO_MASTER)
}

/// Supersteps priced per pass over a partition's edges: one bit each of a
/// `u64` activity word.
const WINDOW: usize = u64::BITS as usize;

/// What one machine's ledger of one superstep is made of, as counts.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Edge directions gathered along.
    gathered: usize,
    /// Local replicas that received a contribution.
    touched: usize,
    /// Accumulators shipped out of (as a mirror) or into (as a master) here.
    shipped: usize,
    /// Masters applied here.
    applied: usize,
}

/// The set bits of `word`, ascending.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// `*sum += c`, `times` times over — what the stateful loop does one edge or
/// vertex at a time. A single multiplication where that is the same number:
/// whole `c` and `*sum` with every partial sum below 2^52 (the
/// data-dependent programs cost 1.0 / 1.0 and ship 4–5 bytes); the repeated
/// add otherwise (Synthetic's `0.2 · s`).
fn add_times(sum: &mut f64, c: f64, times: usize) {
    const EXACT: f64 = (1u64 << 52) as f64;
    let product = c * times as f64;
    if c.fract() == 0.0 && sum.fract() == 0.0 && sum.abs() + product.abs() < EXACT {
        *sum += product;
    } else {
        for _ in 0..times {
            *sum += c;
        }
    }
}

/// The cost report of the run `trace` describes on the placement `dg` —
/// bit for bit what [`run`] accumulates there, with no vertex state
/// computed. The trace may have been taken on any placement of the same
/// graph.
///
/// # Panics
/// If the trace was taken on a graph with another vertex or edge count.
pub fn price<P: VertexProgram>(
    prog: &P,
    trace: &ActivityTrace,
    dg: &DistributedGraph,
    cluster: &ClusterSpec,
) -> SimReport {
    assert_eq!(cluster.machines, dg.num_partitions(), "one machine per partition");
    assert!(
        (trace.num_vertices, trace.num_edges) == (dg.num_vertices(), dg.num_edges()),
        "trace of a graph with {} vertices and {} edges priced on a placement of {} and {}",
        trace.num_vertices,
        trace.num_edges,
        dg.num_vertices(),
        dg.num_edges(),
    );
    let n = dg.num_vertices();
    let k = dg.num_partitions();
    let master_of = |v: u32| dg.master_of(v) as usize;
    debug_assert!(
        trace.active.iter().all(|&v| dg.master_of(v) != NO_MASTER),
        "only covered vertices are ever active"
    );
    let (stationary, symmetric) = (prog.stationary(), prog.symmetric());
    let apply_to_all = prog.apply_to_all();
    let (state_bytes, acc_bytes) = (prog.state_bytes(), prog.acc_bytes());
    let (edge_cost, apply_cost) = (prog.edge_cost(), prog.apply_cost());
    // what apply-to-all applies on each machine, every superstep
    let mut masters = vec![0usize; k];
    if apply_to_all {
        covered_vertices(dg).for_each(|v| masters[master_of(v)] += 1);
    }

    // A stationary run is one superstep — every covered vertex active —
    // charged once per superstep of the trace; any other is priced a window
    // of supersteps at a time.
    let total = trace.supersteps();
    let (windows, charges): (Vec<Range<usize>>, usize) = if stationary {
        debug_assert!(
            (0..total).all(|s| trace.active(s).len() == covered_vertices(dg).count()),
            "stationary: every covered vertex is active"
        );
        ((0..total.min(1)).map(|s| s..s + 1).collect(), total)
    } else {
        ((0..total).step_by(WINDOW).map(|s| s..(s + WINDOW).min(total)).collect(), 1)
    };

    let mut report = SimReport::empty();
    // bit `s` of a word: "in superstep `window.start + s`"
    let mut active = vec![0u64; n];
    let mut reached = vec![0u64; if apply_to_all { 0 } else { n }];
    let (mut local_active, mut local_touched) = (Vec::new(), Vec::new());
    let mut tallies = Vec::new();
    let (mut compute, mut bytes) = (vec![0.0f64; k], vec![0.0f64; k]);
    for window in windows {
        active.fill(0);
        for (bit, step) in window.clone().enumerate() {
            for &v in trace.active(step) {
                active[v as usize] |= 1 << bit;
            }
        }
        reached.fill(0);
        tallies.clear();
        tallies.resize(window.len() * k, Tally::default());
        for p in 0..k {
            let part = dg.partition(p);
            local_active.clear();
            local_active.extend(part.vertices.iter().map(|&v| active[v as usize]));
            local_touched.clear();
            if stationary {
                // every local vertex is active: touched iff gathered into
                local_touched.extend(part.in_degree.iter().map(|&d| u64::from(symmetric || d > 0)));
            } else {
                local_touched.resize(part.vertices.len(), 0);
                for (&src, &dst) in part.edge_src_local.iter().zip(&part.edge_dst_local) {
                    local_touched[dst as usize] |= local_active[src as usize];
                    if symmetric {
                        local_touched[src as usize] |= local_active[dst as usize];
                    }
                }
            }
            for (local, &v) in part.vertices.iter().enumerate() {
                let in_degree = if symmetric { part.in_degree[local] } else { 0 };
                let degree = (part.out_degree[local] + in_degree) as usize;
                for bit in bits(local_active[local]) {
                    tallies[bit * k + p].gathered += degree;
                }
                let touched = local_touched[local];
                if touched == 0 {
                    continue;
                }
                let master = master_of(v);
                for bit in bits(touched) {
                    tallies[bit * k + p].touched += 1;
                    if master != p {
                        tallies[bit * k + p].shipped += 1;
                        tallies[bit * k + master].shipped += 1;
                    }
                }
                if !apply_to_all {
                    reached[v as usize] |= touched;
                }
            }
        }
        if apply_to_all {
            for (i, tally) in tallies.iter_mut().enumerate() {
                tally.applied = masters[i % k];
            }
        } else {
            for (v, &word) in reached.iter().enumerate() {
                for bit in bits(word) {
                    tallies[bit * k + master_of(v as u32)].applied += 1;
                }
            }
        }

        for (step, tallies) in window.zip(tallies.chunks(k)) {
            compute.fill(0.0);
            bytes.fill(0.0);
            broadcast(trace.active(step), dg, state_bytes, &mut bytes);
            for (p, tally) in tallies.iter().enumerate() {
                let mut work = 0.0;
                add_times(&mut work, edge_cost, tally.gathered);
                compute[p] += work;
                compute[p] += apply_cost * tally.touched as f64;
                add_times(&mut bytes[p], acc_bytes, tally.shipped);
                add_times(&mut compute[p], apply_cost, tally.applied);
            }
            for _ in 0..charges {
                report.charge(&compute, &bytes, trace.active(step).len(), cluster);
            }
        }
    }
    report
}

/// Superstep phase 1: every active vertex's master ships the state to each
/// mirror.
fn broadcast(active: &[u32], dg: &DistributedGraph, state_bytes: f64, bytes: &mut [f64]) {
    for &v in active {
        let mask = dg.replica_mask(v);
        let r = mask.count_ones();
        if r > 1 {
            let master = dg.master_of(v) as usize;
            bytes[master] += (r - 1) as f64 * state_bytes;
            let mut m = mask;
            while m != 0 {
                let p = m.trailing_zeros() as usize;
                m &= m - 1;
                if p != master {
                    bytes[p] += state_bytes;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graph::{Graph, PreparedGraph};
    use ease_partition::EdgePartition;

    /// Trivial program: every vertex counts its in-neighbors once.
    struct CountIn;

    impl VertexProgram for CountIn {
        type State = u32;
        type Acc = u32;

        fn init_state(&self, _v: u32, _dg: &DistributedGraph) -> u32 {
            0
        }
        fn initially_active(&self, _v: u32, _dg: &DistributedGraph) -> bool {
            true
        }
        fn acc_identity(&self) -> u32 {
            0
        }
        fn gather(&self, _src: u32, _s: &u32, _dst: u32, acc: &mut u32, _dg: &DistributedGraph) {
            *acc += 1;
        }
        fn combine(&self, into: &mut u32, other: &u32) {
            *into += *other;
        }
        fn apply(
            &self,
            _v: u32,
            old: &u32,
            acc: Option<&u32>,
            _dg: &DistributedGraph,
            _step: usize,
        ) -> (u32, bool) {
            (old + acc.copied().unwrap_or(0), false)
        }
        fn state_bytes(&self) -> f64 {
            4.0
        }
        fn max_supersteps(&self) -> usize {
            3
        }
    }

    fn dist(pairs: &[(u32, u32)], assignment: Vec<u16>, k: usize) -> DistributedGraph {
        let g = PreparedGraph::new(Graph::from_pairs(pairs.iter().copied()));
        DistributedGraph::build_prepared(&g, &EdgePartition::new(k, assignment))
    }

    #[test]
    fn in_degree_counting_is_exact_across_partitions() {
        let dg = dist(&[(0, 2), (1, 2), (3, 2), (2, 0)], vec![0, 1, 0, 1], 2);
        let (report, states) = run(&CountIn, &dg, &ClusterSpec::new(2));
        assert_eq!(states, vec![1, 0, 3, 0]);
        // everything halts after one superstep
        assert_eq!(report.supersteps, 1);
        assert!(report.total_secs > 0.0);
    }

    #[test]
    fn replication_produces_comm_bytes() {
        // vertex 2 is replicated across both partitions -> broadcast +
        // aggregation traffic must be non-zero
        let dg = dist(&[(0, 2), (1, 2)], vec![0, 1], 2);
        let (report, _) = run(&CountIn, &dg, &ClusterSpec::new(2));
        assert!(report.total_comm_bytes > 0.0);
    }

    #[test]
    fn single_partition_means_no_network() {
        let dg = dist(&[(0, 1), (1, 2), (2, 0)], vec![0, 0, 0], 1);
        let (report, _) = run(&CountIn, &dg, &ClusterSpec::new(1));
        assert_eq!(report.total_comm_bytes, 0.0);
    }

    /// A stationary program whose state operations are a tripwire when
    /// `armed`: pricing it must not touch one of them. Unarmed, it is the
    /// twin with working bodies that [`run`] can execute.
    struct Tripwire {
        armed: bool,
    }

    impl Tripwire {
        fn trip(&self, op: &str) {
            assert!(!self.armed, "tripwire: {op} called while pricing a stationary program");
        }
    }

    impl VertexProgram for Tripwire {
        type State = f64;
        type Acc = Vec<f64>;

        fn init_state(&self, v: u32, _dg: &DistributedGraph) -> f64 {
            self.trip("init_state");
            f64::from(v)
        }
        fn initially_active(&self, _v: u32, _dg: &DistributedGraph) -> bool {
            true
        }
        fn acc_identity(&self) -> Vec<f64> {
            self.trip("acc_identity");
            Vec::new()
        }
        fn gather(&self, _s: u32, state: &f64, _d: u32, acc: &mut Vec<f64>, _: &DistributedGraph) {
            self.trip("gather");
            acc.push(*state);
        }
        fn combine(&self, into: &mut Vec<f64>, other: &Vec<f64>) {
            self.trip("combine");
            into.extend_from_slice(other);
        }
        fn apply(
            &self,
            _v: u32,
            old: &f64,
            acc: Option<&Vec<f64>>,
            _dg: &DistributedGraph,
            _step: usize,
        ) -> (f64, bool) {
            self.trip("apply");
            (old + acc.map_or(0.0, |a| a.iter().sum()), true)
        }
        fn apply_to_all(&self) -> bool {
            true
        }
        fn symmetric(&self) -> bool {
            true
        }
        fn stationary(&self) -> bool {
            true
        }
        fn state_bytes(&self) -> f64 {
            8.0
        }
        fn acc_bytes(&self) -> f64 {
            24.0
        }
        fn edge_cost(&self) -> f64 {
            1.5
        }
        fn apply_cost(&self) -> f64 {
            2.5
        }
        fn max_supersteps(&self) -> usize {
            4
        }
    }

    /// Three machines: vertex 2 gathers on all of them (so its accumulators
    /// combine), vertex id 4 is uncovered, several vertices are replicated.
    fn tripwire_graph() -> DistributedGraph {
        dist(&[(0, 2), (1, 2), (3, 2), (2, 0), (5, 3), (1, 5)], vec![0, 1, 2, 1, 0, 2], 3)
    }

    #[test]
    fn pricing_a_stationary_program_reads_no_state() {
        let (dg, cluster) = (tripwire_graph(), ClusterSpec::new(3));
        let armed = Tripwire { armed: true };
        let priced = price(&armed, &trace(&armed, &dg), &dg, &cluster);
        let (executed, _) = run(&Tripwire { armed: false }, &dg, &cluster);
        assert_eq!(priced.supersteps, 4);
        assert_eq!(priced.supersteps, executed.supersteps);
        assert_eq!(priced.total_secs.to_bits(), executed.total_secs.to_bits());
        assert_eq!(priced.total_comm_bytes.to_bits(), executed.total_comm_bytes.to_bits());
        assert_eq!(priced.total_compute_units.to_bits(), executed.total_compute_units.to_bits());
        assert_eq!(priced.per_superstep, executed.per_superstep);
        assert!(priced.total_comm_bytes > 0.0 && priced.total_compute_units > 0.0);
    }

    #[test]
    #[should_panic(expected = "tripwire: init_state")]
    fn executing_the_tripwire_trips_it() {
        let _ = run(&Tripwire { armed: true }, &tripwire_graph(), &ClusterSpec::new(3));
    }

    #[test]
    #[should_panic(expected = "one machine per partition")]
    fn machine_count_must_match() {
        let dg = dist(&[(0, 1)], vec![0], 1);
        let _ = run(&CountIn, &dg, &ClusterSpec::new(4));
    }
}
