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

impl PredictedCosts {
    /// The predicted cost `goal` minimizes: the one number the selector
    /// picks by and the rendered ranking sorts by.
    pub fn cost(&self, goal: OptGoal) -> f64 {
        match goal {
            OptGoal::EndToEnd => self.end_to_end_secs,
            OptGoal::ProcessingOnly => self.processing_secs,
        }
    }
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
            .min_by(|a, b| a.cost(goal).total_cmp(&b.cost(goal)))
            .expect("non-empty catalog")
            .partitioner;
        Ok(Selection { best, goal, candidates })
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

/// The baseline strategies EASE's selector (S_PS, [`Ease::try_select`]) is
/// compared against in Table VIII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
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
            Strategy::Optimal => "S_O",
            Strategy::SmallestRf => "S_SRF",
            Strategy::Random => "S_R",
            Strategy::Worst => "S_W",
        }
    }
}

/// The measured candidate a baseline picks: S_O the first of equal minimal
/// costs, S_W the last of equal maximal ones, S_SRF the first of equal
/// smallest replication factors. `None` for S_R, which is an expectation,
/// not a choice, and when there is no candidate.
fn picked(strategy: Strategy, truth: &[TrueCosts], goal: OptGoal) -> Option<&TrueCosts> {
    let by_cost = |a: &&TrueCosts, b: &&TrueCosts| a.cost(goal).total_cmp(&b.cost(goal));
    match strategy {
        Strategy::Optimal => truth.iter().min_by(by_cost),
        Strategy::Worst => truth.iter().max_by(by_cost),
        Strategy::SmallestRf => {
            truth.iter().min_by(|a, b| a.replication_factor.total_cmp(&b.replication_factor))
        }
        Strategy::Random => None,
    }
}

/// The partitioner a baseline picks on measured candidates — `None` for
/// S_R, whose cost is an expectation over every candidate, and for an empty
/// `truth`.
pub fn strategy_pick(
    strategy: Strategy,
    truth: &[TrueCosts],
    goal: OptGoal,
) -> Option<PartitionerId> {
    picked(strategy, truth, goal).map(|t| t.partitioner)
}

/// The achieved time of a baseline on measured candidates: the cost of its
/// [`strategy_pick`], and for S_R the mean cost, the expectation over a
/// uniform pick. `NaN` for an empty `truth`.
pub fn strategy_cost(strategy: Strategy, truth: &[TrueCosts], goal: OptGoal) -> f64 {
    match picked(strategy, truth, goal) {
        Some(pick) => pick.cost(goal),
        None => truth.iter().map(|t| t.cost(goal)).sum::<f64>() / truth.len() as f64,
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
            Some(PartitionerId::Ne)
        );
        let srf = strategy_cost(Strategy::SmallestRf, &truth, OptGoal::EndToEnd);
        assert!((srf - 40.0).abs() < 1e-12);
        // under processing-only, NE is actually optimal
        assert_eq!(
            strategy_pick(Strategy::Optimal, &truth, OptGoal::ProcessingOnly),
            Some(PartitionerId::Ne)
        );
    }

    #[test]
    fn goal_changes_the_oracle() {
        let truth = sample_truth();
        assert_eq!(
            strategy_pick(Strategy::Optimal, &truth, OptGoal::EndToEnd),
            Some(PartitionerId::Dbh)
        );
        assert_eq!(
            strategy_pick(Strategy::Optimal, &truth, OptGoal::ProcessingOnly),
            Some(PartitionerId::Ne)
        );
    }

    #[test]
    fn random_is_the_mean() {
        let truth = sample_truth();
        let expect = (51.0 + 40.0 + 21.5) / 3.0;
        let got = strategy_cost(Strategy::Random, &truth, OptGoal::EndToEnd);
        assert!((got - expect).abs() < 1e-12);
        assert_eq!(strategy_pick(Strategy::Random, &truth, OptGoal::EndToEnd), None);
    }

    #[test]
    fn ties_go_to_the_first_minimum_and_the_last_maximum() {
        // three candidates of one cost and one replication factor
        let truth: Vec<TrueCosts> = sample_truth()
            .into_iter()
            .map(|t| TrueCosts {
                replication_factor: 2.0,
                partitioning_secs: 1.0,
                processing_secs: 9.0,
                ..t
            })
            .collect();
        let pick = |s| strategy_pick(s, &truth, OptGoal::EndToEnd);
        assert_eq!(pick(Strategy::Optimal), Some(PartitionerId::OneDD));
        assert_eq!(pick(Strategy::SmallestRf), Some(PartitionerId::OneDD));
        assert_eq!(pick(Strategy::Worst), Some(PartitionerId::Dbh));
        for s in [Strategy::Optimal, Strategy::SmallestRf, Strategy::Random, Strategy::Worst] {
            assert_eq!(strategy_cost(s, &truth, OptGoal::EndToEnd), 10.0, "{}", s.name());
            assert_eq!(strategy_pick(s, &[], OptGoal::EndToEnd), None, "{}", s.name());
            assert!(strategy_cost(s, &[], OptGoal::EndToEnd).is_nan(), "{}", s.name());
        }
    }
}
