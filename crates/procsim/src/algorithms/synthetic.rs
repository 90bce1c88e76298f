//! The paper's synthetic workload (Sec. V-C): every vertex holds a feature
//! vector of `s` 64-bit doubles and pushes it along its out-edges each
//! iteration. `s` scales the communication volume: `s = 1` (Synthetic-Low)
//! and `s = 10` (Synthetic-High). Computation and communication are constant
//! across iterations, so the prediction target is the average iteration
//! time.

use crate::engine::VertexProgram;
use crate::placement::DistributedGraph;

#[derive(Debug, Clone)]
pub struct Synthetic {
    /// Feature-vector width in doubles.
    pub s: usize,
    pub iterations: usize,
}

impl Synthetic {
    pub fn low(iterations: usize) -> Self {
        Synthetic { s: 1, iterations }
    }

    pub fn high(iterations: usize) -> Self {
        Synthetic { s: 10, iterations }
    }
}

impl VertexProgram for Synthetic {
    type State = Vec<f64>;
    type Acc = Vec<f64>;

    fn init_state(&self, v: u32, _dg: &DistributedGraph) -> Vec<f64> {
        (0..self.s).map(|i| f64::from((v.wrapping_add(i as u32)) % 101) / 101.0).collect()
    }

    fn initially_active(&self, _v: u32, _dg: &DistributedGraph) -> bool {
        true
    }

    fn acc_identity(&self) -> Vec<f64> {
        vec![0.0; self.s]
    }

    fn gather(
        &self,
        _src: u32,
        src_state: &Vec<f64>,
        _dst: u32,
        acc: &mut Vec<f64>,
        _dg: &DistributedGraph,
    ) {
        for (a, x) in acc.iter_mut().zip(src_state) {
            *a += *x;
        }
    }

    fn combine(&self, into: &mut Vec<f64>, other: &Vec<f64>) {
        for (a, x) in into.iter_mut().zip(other) {
            *a += *x;
        }
    }

    fn apply(
        &self,
        v: u32,
        old: &Vec<f64>,
        acc: Option<&Vec<f64>>,
        dg: &DistributedGraph,
        _step: usize,
    ) -> (Vec<f64>, bool) {
        let state = match acc {
            Some(sum) => {
                let scale = 1.0 / f64::from(dg.total_degree(v).max(1));
                sum.iter().map(|x| 0.5 * x * scale + 0.01).collect()
            }
            None => old.clone(),
        };
        (state, true)
    }

    fn apply_to_all(&self) -> bool {
        true
    }

    /// `initially_active` and `apply` answer `true` unconditionally.
    fn stationary(&self) -> bool {
        true
    }

    fn state_bytes(&self) -> f64 {
        8.0 * self.s as f64
    }

    fn edge_cost(&self) -> f64 {
        0.2 * self.s as f64
    }

    fn apply_cost(&self) -> f64 {
        0.3 * self.s as f64
    }

    fn max_supersteps(&self) -> usize {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::engine::run;
    use ease_graph::PreparedGraph;
    use ease_partition::PartitionerId;

    fn dist(k: usize) -> DistributedGraph {
        let g = ease_graphgen::rmat::Rmat::new(ease_graphgen::rmat::RMAT_COMBOS[2], 256, 2_000, 4)
            .generate();
        let pg = PreparedGraph::of(&g);
        let part = PartitionerId::Hdrf.partition(&pg, k, 1);
        DistributedGraph::build_prepared(&pg, &part)
    }

    #[test]
    fn high_generates_10x_traffic_of_low() {
        let dg = dist(4);
        let cluster = ClusterSpec::new(4);
        let (low, _) = run(&Synthetic::low(5), &dg, &cluster);
        let (high, _) = run(&Synthetic::high(5), &dg, &cluster);
        let ratio = high.total_comm_bytes / low.total_comm_bytes;
        assert!((ratio - 10.0).abs() < 0.5, "ratio {ratio}");
        assert!(high.total_secs > low.total_secs);
    }

    #[test]
    fn runs_fixed_iterations_with_constant_cost() {
        let dg = dist(4);
        let (report, _) = run(&Synthetic::low(5), &dg, &ClusterSpec::new(4));
        assert_eq!(report.supersteps, 5);
        let first = report.per_superstep[0];
        let last = report.per_superstep[4];
        assert!((first.compute_secs - last.compute_secs).abs() < 1e-9);
        assert!((first.network_secs - last.network_secs).abs() < 1e-9);
    }

    #[test]
    fn state_values_stay_finite() {
        let dg = dist(2);
        let (_, states) = run(&Synthetic::high(5), &dg, &ClusterSpec::new(2));
        for s in &states {
            assert_eq!(s.len(), 10);
            assert!(s.iter().all(|x| x.is_finite()));
        }
    }
}
