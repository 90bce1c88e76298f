//! PartitionerSelector — combine the three predictors into an automatic
//! choice (paper Fig. 4), plus the baseline selection strategies the
//! evaluation compares against (Sec. V-F).

use crate::error::EaseError;
use crate::predictors::{PartitioningTimePredictor, ProcessingTimePredictor, QualityPredictor};
use ease_graph::GraphProperties;
use ease_partition::{PartitionerId, QualityMetrics, MAX_PARTITIONS};
use ease_procsim::Workload;

/// What the selection minimizes (paper: end-to-end = partitioning +
/// processing; processing-only for offline-partitioning scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptGoal {
    EndToEnd,
    ProcessingOnly,
}

impl OptGoal {
    pub fn name(self) -> &'static str {
        match self {
            OptGoal::EndToEnd => "E2E",
            OptGoal::ProcessingOnly => "Pro.",
        }
    }

    /// The byte every binary format (saved services, the serve wire)
    /// stores a goal as.
    pub fn tag(self) -> u8 {
        match self {
            OptGoal::EndToEnd => 0,
            OptGoal::ProcessingOnly => 1,
        }
    }

    pub fn from_tag(tag: u8) -> Option<OptGoal> {
        match tag {
            0 => Some(OptGoal::EndToEnd),
            1 => Some(OptGoal::ProcessingOnly),
            _ => None,
        }
    }
}

/// Predicted costs of one candidate partitioner.
#[derive(Debug, Clone)]
pub struct PredictedCosts {
    pub partitioner: PartitionerId,
    pub quality: QualityMetrics,
    pub partitioning_secs: f64,
    pub processing_secs: f64,
    pub end_to_end_secs: f64,
}

/// Result of an EASE selection: the winner plus the full predicted ranking.
#[derive(Debug, Clone)]
pub struct Selection {
    pub best: PartitionerId,
    pub goal: OptGoal,
    pub candidates: Vec<PredictedCosts>,
}

/// The trained EASE system.
pub struct Ease {
    pub quality: QualityPredictor,
    pub partitioning_time: PartitioningTimePredictor,
    pub processing_time: ProcessingTimePredictor,
    /// Candidate partitioners considered by the selector.
    pub catalog: Vec<PartitionerId>,
}

impl Ease {
    pub fn new(
        quality: QualityPredictor,
        partitioning_time: PartitioningTimePredictor,
        processing_time: ProcessingTimePredictor,
    ) -> Self {
        Ease { quality, partitioning_time, processing_time, catalog: PartitionerId::ALL.to_vec() }
    }

    /// Automatic selection: evaluate the whole catalog and pick the
    /// predicted minimum for the goal. An empty catalog, untrained
    /// workloads and a `k` outside `2..=MAX_PARTITIONS` (no partitioner
    /// runs it) are typed [`EaseError`]s — the error path the
    /// [`crate::service::EaseService`] exposes to users.
    pub fn try_select(
        &self,
        props: &GraphProperties,
        workload: Workload,
        k: usize,
        goal: OptGoal,
    ) -> Result<Selection, EaseError> {
        if self.catalog.is_empty() {
            return Err(EaseError::EmptyCatalog);
        }
        if !(2..=MAX_PARTITIONS).contains(&k) {
            return Err(EaseError::InvalidConfig(format!(
                "partition count k must be in 2..={MAX_PARTITIONS}, got {k}"
            )));
        }
        if !self.processing_time.supports(workload) {
            return Err(EaseError::UnsupportedWorkload {
                requested: workload.name().to_string(),
                supported: self
                    .processing_time
                    .supported_workloads()
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            });
        }
        // the whole catalog through each model at once: one matrix per model
        let quality = self.quality.predict(props, &self.catalog, k);
        let partitioning = self.partitioning_time.predict(self.catalog.iter().map(|&p| (props, p)));
        let processing = self.processing_time.predict_totals(workload, props, &quality);
        let candidates: Vec<PredictedCosts> = self
            .catalog
            .iter()
            .zip(quality)
            .zip(partitioning.into_iter().zip(processing))
            .map(|((&partitioner, quality), (partitioning_secs, processing_secs))| PredictedCosts {
                partitioner,
                quality,
                partitioning_secs,
                processing_secs,
                end_to_end_secs: partitioning_secs + processing_secs,
            })
            .collect();
        // the first of equal minima, under the order `render_selection` ranks
        // by: a non-finite prediction is ranked, not a panic
        let best = candidates
            .iter()
            .min_by(|a, b| goal_cost(a, goal).total_cmp(&goal_cost(b, goal)))
            .expect("non-empty catalog")
            .partitioner;
        Ok(Selection { best, goal, candidates })
    }
}

fn goal_cost(c: &PredictedCosts, goal: OptGoal) -> f64 {
    match goal {
        OptGoal::EndToEnd => c.end_to_end_secs,
        OptGoal::ProcessingOnly => c.processing_secs,
    }
}

// ---------------------------------------------------------------------
// Baseline strategies over *measured* ground truth
// ---------------------------------------------------------------------

/// Measured ground-truth costs of one partitioner on one (graph, workload).
#[derive(Debug, Clone, Copy)]
pub struct TrueCosts {
    pub partitioner: PartitionerId,
    pub replication_factor: f64,
    pub partitioning_secs: f64,
    pub processing_secs: f64,
}

impl TrueCosts {
    pub fn cost(&self, goal: OptGoal) -> f64 {
        match goal {
            OptGoal::EndToEnd => self.partitioning_secs + self.processing_secs,
            OptGoal::ProcessingOnly => self.processing_secs,
        }
    }
}

/// The selection strategies compared in Table VIII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// EASE's prediction-based selector (S_PS).
    Ease,
    /// Oracle: the truly optimal partitioner (S_O).
    Optimal,
    /// Smallest *true* replication factor (S_SRF — the paper notes this is
    /// hypothetical, since the RF is unknown before partitioning).
    SmallestRf,
    /// Uniform random selection (S_R) — evaluated in expectation.
    Random,
    /// The worst partitioner (S_W).
    Worst,
}

impl Strategy {
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Ease => "S_PS",
            Strategy::Optimal => "S_O",
            Strategy::SmallestRf => "S_SRF",
            Strategy::Random => "S_R",
            Strategy::Worst => "S_W",
        }
    }
}

/// The achieved time of a baseline strategy on measured candidates.
/// `Random` returns the expectation over a uniform pick; the others return
/// the cost of their deterministic choice.
pub fn strategy_cost(strategy: Strategy, truth: &[TrueCosts], goal: OptGoal) -> f64 {
    assert!(!truth.is_empty());
    let cost = |t: &TrueCosts| t.cost(goal);
    match strategy {
        Strategy::Ease => panic!("S_PS needs predictions; use Ease::try_select"),
        Strategy::Optimal => truth.iter().map(cost).fold(f64::INFINITY, f64::min),
        Strategy::Worst => truth.iter().map(cost).fold(0.0, f64::max),
        Strategy::Random => truth.iter().map(cost).sum::<f64>() / truth.len() as f64,
        Strategy::SmallestRf => {
            let pick = truth
                .iter()
                .min_by(|a, b| {
                    a.replication_factor.partial_cmp(&b.replication_factor).expect("finite rf")
                })
                .expect("non-empty");
            pick.cost(goal)
        }
    }
}

/// The partitioner a deterministic baseline strategy picks.
pub fn strategy_pick(strategy: Strategy, truth: &[TrueCosts], goal: OptGoal) -> PartitionerId {
    assert!(!truth.is_empty());
    match strategy {
        Strategy::Ease => panic!("S_PS needs predictions; use Ease::try_select"),
        Strategy::Random => panic!("random strategy has no deterministic pick"),
        Strategy::Optimal => {
            truth
                .iter()
                .min_by(|a, b| a.cost(goal).partial_cmp(&b.cost(goal)).expect("finite"))
                .expect("non-empty")
                .partitioner
        }
        Strategy::Worst => {
            truth
                .iter()
                .max_by(|a, b| a.cost(goal).partial_cmp(&b.cost(goal)).expect("finite"))
                .expect("non-empty")
                .partitioner
        }
        Strategy::SmallestRf => {
            truth
                .iter()
                .min_by(|a, b| {
                    a.replication_factor.partial_cmp(&b.replication_factor).expect("finite")
                })
                .expect("non-empty")
                .partitioner
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_truth() -> Vec<TrueCosts> {
        vec![
            TrueCosts {
                partitioner: PartitionerId::OneDD,
                replication_factor: 5.0,
                partitioning_secs: 1.0,
                processing_secs: 50.0,
            },
            TrueCosts {
                partitioner: PartitionerId::Ne,
                replication_factor: 1.5,
                partitioning_secs: 30.0,
                processing_secs: 10.0,
            },
            TrueCosts {
                partitioner: PartitionerId::Dbh,
                replication_factor: 3.0,
                partitioning_secs: 1.5,
                processing_secs: 20.0,
            },
        ]
    }

    #[test]
    fn oracle_and_worst_bracket_everything() {
        let truth = sample_truth();
        let o = strategy_cost(Strategy::Optimal, &truth, OptGoal::EndToEnd);
        let w = strategy_cost(Strategy::Worst, &truth, OptGoal::EndToEnd);
        let r = strategy_cost(Strategy::Random, &truth, OptGoal::EndToEnd);
        assert!((o - 21.5).abs() < 1e-12); // dbh: 1.5 + 20
        assert!((w - 51.0).abs() < 1e-12); // 1dd: 1 + 50
        assert!(o <= r && r <= w);
    }

    #[test]
    fn srf_ignores_partitioning_cost() {
        let truth = sample_truth();
        // smallest RF is NE, which pays 30s of partitioning
        assert_eq!(
            strategy_pick(Strategy::SmallestRf, &truth, OptGoal::EndToEnd),
            PartitionerId::Ne
        );
        let srf = strategy_cost(Strategy::SmallestRf, &truth, OptGoal::EndToEnd);
        assert!((srf - 40.0).abs() < 1e-12);
        // under processing-only, NE is actually optimal
        assert_eq!(
            strategy_pick(Strategy::Optimal, &truth, OptGoal::ProcessingOnly),
            PartitionerId::Ne
        );
    }

    #[test]
    fn goal_changes_the_oracle() {
        let truth = sample_truth();
        assert_eq!(strategy_pick(Strategy::Optimal, &truth, OptGoal::EndToEnd), PartitionerId::Dbh);
        assert_eq!(
            strategy_pick(Strategy::Optimal, &truth, OptGoal::ProcessingOnly),
            PartitionerId::Ne
        );
    }

    #[test]
    fn random_is_the_mean() {
        let truth = sample_truth();
        let expect = (51.0 + 40.0 + 21.5) / 3.0;
        let got = strategy_cost(Strategy::Random, &truth, OptGoal::EndToEnd);
        assert!((got - expect).abs() < 1e-12);
    }
}
