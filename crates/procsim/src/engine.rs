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
//! One superstep loop, two drivers. [`run`] executes every state update for
//! real — algorithm outputs are exact, only *time* is modelled — and returns
//! the states with the report. [`crate::Workload::execute`] wants the report
//! alone, and for a program that declares itself
//! [`VertexProgram::stationary`] it walks the ledger of the first superstep
//! only and charges that entry once per superstep of the run. That is the
//! same report bit for bit, not an approximation: no term above reads a
//! state value — each is decided by *which* vertices are active — and a
//! stationary program's active set is the covered set in every superstep, so
//! supersteps 2…n would add exactly the numbers superstep 1 added. It is
//! also why the paper predicts these workloads by their *average iteration
//! time* (Sec. V-C). For the same reason the priced superstep computes no
//! value either: no `init_state`, no accumulator, no `gather` / `combine` /
//! `apply` — the epoch stamps, touched lists and every `compute` / `bytes`
//! term are all of it (a per-vertex `Vec<f64>` state made the synthetic
//! workloads 1.5 and 1.05 ms per pricing against PageRank's 0.34 for the
//! same ledger). Profiling runs every graph × partitioner × workload and
//! keeps only the report, so it pays neither for iterations whose cost is
//! already known nor for states nobody reads.

use crate::cluster::ClusterSpec;
use crate::placement::{DistributedGraph, NO_MASTER};

/// A vertex program in gather/apply form.
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
    /// in each iteration"). Every superstep of such a program costs what its
    /// first one does, so [`crate::Workload::execute`] prices the run from
    /// that one; [`run`] still executes all of them and `debug_assert!`s the
    /// declaration each superstep.
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
    /// Average per-superstep time — the prediction target for
    /// fixed-iteration workloads (paper Sec. V-C).
    pub fn avg_superstep_secs(&self) -> f64 {
        if self.supersteps == 0 {
            0.0
        } else {
            self.total_secs / self.supersteps as f64
        }
    }
}

/// Run `prog` to completion; returns the cost report and the final master
/// states of all vertices.
pub fn run<P: VertexProgram>(
    prog: &P,
    dg: &DistributedGraph,
    cluster: &ClusterSpec,
) -> (SimReport, Vec<P::State>) {
    drive(prog, dg, cluster, false)
}

/// The cost report of [`run`] without its states — what
/// [`crate::Workload::execute`] returns. A [`VertexProgram::stationary`]
/// program is priced from its first superstep's ledger, none of its state
/// operations called; any other runs to completion.
pub(crate) fn report<P: VertexProgram>(
    prog: &P,
    dg: &DistributedGraph,
    cluster: &ClusterSpec,
) -> SimReport {
    drive(prog, dg, cluster, prog.stationary()).0
}

/// The superstep loop behind both drivers. With `replay` (a stationary
/// program, see the module docs) the first superstep stands for all the
/// remaining ones unless it ends the run: its ledger entry is charged once
/// per superstep left and the loop stops. That superstep is ledger-only —
/// which vertices are active, touched and applied is tracked, no state
/// operation of `prog` runs, and every covered vertex stays active by the
/// program's declaration — so the returned states are empty under `replay`;
/// without it they are the final states, hence only [`run`] exposes them.
fn drive<P: VertexProgram>(
    prog: &P,
    dg: &DistributedGraph,
    cluster: &ClusterSpec,
    replay: bool,
) -> (SimReport, Vec<P::State>) {
    assert_eq!(cluster.machines, dg.num_partitions(), "one machine per partition");
    let n = dg.num_vertices();
    let k = dg.num_partitions();
    // a replayed superstep is ledger-only: no state or accumulator exists
    let mut states: Vec<P::State> =
        if replay { Vec::new() } else { (0..n as u32).map(|v| prog.init_state(v, dg)).collect() };
    let acc_slots = |len| if replay { Vec::new() } else { vec![prog.acc_identity(); len] };
    let covered: Vec<bool> = (0..n as u32).map(|v| dg.master_of(v) != NO_MASTER).collect();
    let mut active: Vec<bool> =
        (0..n as u32).map(|v| covered[v as usize] && prog.initially_active(v, dg)).collect();
    debug_assert!(!prog.stationary() || active == covered, "stationary: all start active");

    // per-partition local accumulator storage, epoch-stamped
    let mut local_acc: Vec<Vec<P::Acc>> =
        (0..k).map(|p| acc_slots(dg.partition(p).vertices.len())).collect();
    let mut local_epoch: Vec<Vec<u32>> =
        (0..k).map(|p| vec![0u32; dg.partition(p).vertices.len()]).collect();
    let mut touched_lists: Vec<Vec<u32>> = vec![Vec::new(); k];

    // global (master-side) accumulators, epoch-stamped
    let mut global_acc: Vec<P::Acc> = acc_slots(n);
    let mut global_epoch: Vec<u32> = vec![0u32; n];

    let mut report = SimReport {
        total_secs: 0.0,
        supersteps: 0,
        total_comm_bytes: 0.0,
        total_compute_units: 0.0,
        per_superstep: Vec::new(),
    };

    for step in 0..prog.max_supersteps() {
        let epoch = step as u32 + 1;
        let num_active = active.iter().filter(|&&a| a).count();
        if num_active == 0 && !prog.apply_to_all() {
            break;
        }
        let mut compute = vec![0.0f64; k];
        let mut bytes = vec![0.0f64; k];

        // ---- 1. broadcast active vertex states to mirrors ----
        let state_bytes = prog.state_bytes();
        for v in 0..n {
            if !active[v] {
                continue;
            }
            let mask = dg.replica_mask(v as u32);
            let r = mask.count_ones();
            if r > 1 {
                let master = dg.master_of(v as u32) as usize;
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
                        if !replay {
                            accs[dst_local] = prog.acc_identity();
                        }
                    }
                    if !replay {
                        let src_state = &states[e.src as usize];
                        prog.gather(e.src, src_state, e.dst, &mut accs[dst_local], dg);
                    }
                    work += edge_cost;
                }
                if prog.symmetric() && active[e.dst as usize] {
                    let src_local = part.edge_src_local[i] as usize;
                    if epochs[src_local] != epoch {
                        epochs[src_local] = epoch;
                        touched.push(src_local as u32);
                        if !replay {
                            accs[src_local] = prog.acc_identity();
                        }
                    }
                    if !replay {
                        let dst_state = &states[e.dst as usize];
                        prog.gather(e.dst, dst_state, e.src, &mut accs[src_local], dg);
                    }
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
                let first = global_epoch[v as usize] != epoch;
                global_epoch[v as usize] = epoch;
                if replay {
                    continue;
                }
                let acc = &local_acc[p][local as usize];
                if first {
                    global_acc[v as usize] = acc.clone();
                } else {
                    prog.combine(&mut global_acc[v as usize], acc);
                }
            }
        }

        // ---- 4. apply at masters ----
        // replayed: every covered vertex stays active, by `stationary()`
        let mut next_active = if replay { covered.clone() } else { vec![false; n] };
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
            if replay {
                continue;
            }
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

        // ---- account the superstep ----
        let max_compute = compute.iter().cloned().fold(0.0, f64::max);
        let max_bytes = bytes.iter().cloned().fold(0.0, f64::max);
        let cost = SuperstepCost {
            compute_secs: cluster.compute_secs(max_compute),
            network_secs: cluster.network_secs(max_bytes),
            active_senders: num_active,
        };
        let comm_bytes = bytes.iter().sum::<f64>();
        let compute_units = compute.iter().sum::<f64>();
        // the one `+=` sequence a report grows by, executed or replayed
        let charge = |report: &mut SimReport| {
            report.total_secs +=
                cost.compute_secs + cost.network_secs + cluster.superstep_latency_secs;
            report.total_comm_bytes += comm_bytes;
            report.total_compute_units += compute_units;
            report.per_superstep.push(cost);
            report.supersteps += 1;
        };
        charge(&mut report);

        let none_active = !next_active.iter().any(|&a| a);
        active = next_active;
        if prog.apply_to_all() {
            if none_active && changed == 0 {
                break;
            }
        } else if none_active {
            break;
        }
        if replay {
            // every superstep left would add exactly what this one added
            for _ in step + 1..prog.max_supersteps() {
                charge(&mut report);
            }
            break;
        }
    }
    (report, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graph::Graph;
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
        let g = Graph::from_pairs(pairs.iter().copied());
        let p = EdgePartition::new(k, assignment);
        DistributedGraph::build(&g, &p)
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
        let priced = report(&Tripwire { armed: true }, &dg, &cluster);
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
