//! The enrichment workflow of paper Sec. V-D: diagnose a weak spot of the
//! synthetically trained quality predictor and fix it by adding a handful
//! of real graphs of the weak type to the training set.
//!
//! ```sh
//! cargo run --release --example enrichment_workflow
//! ```

use ease_repro::core::enrich::{aggregate_point, enrichment_sweep};
use ease_repro::core::profiling::{profile_quality_with, GraphInput, TimingMode};
use ease_repro::graphgen::grids::rmat_small_corpus;
use ease_repro::graphgen::realworld::{generate_typed, GraphType};
use ease_repro::graphgen::Scale;
use ease_repro::ml::ModelConfig;
use ease_repro::partition::{PartitionerId, QualityTarget};

fn main() {
    let scale = Scale::Tiny;
    let partitioners =
        [PartitionerId::Dbh, PartitionerId::TwoPs, PartitionerId::Hdrf, PartitionerId::Ne];
    let ks = [4usize, 8];

    println!("profiling a slice of the R-MAT training corpus...");
    let train_inputs: Vec<GraphInput> =
        rmat_small_corpus(scale).into_iter().step_by(12).map(GraphInput::Rmat).collect();
    let base = profile_quality_with(&train_inputs, &partitioners, &ks, 1, TimingMode::Measured);
    println!("  {} training records", base.len());

    println!("profiling wiki graphs (the weak type) for enrichment + test...");
    let pool_inputs: Vec<GraphInput> = (0..12)
        .map(|i| GraphInput::Materialized(generate_typed(GraphType::Wiki, i, scale, 50)))
        .collect();
    let pool = profile_quality_with(&pool_inputs, &partitioners, &ks, 2, TimingMode::Measured);
    let test_inputs: Vec<GraphInput> = (20..28)
        .map(|i| GraphInput::Materialized(generate_typed(GraphType::Wiki, i, scale, 51)))
        .collect();
    let test = profile_quality_with(&test_inputs, &partitioners, &ks, 3, TimingMode::Measured);

    let rfr = ModelConfig::Forest { n_trees: 40, max_depth: 12, feature_fraction: 0.7 };
    let sizes = [0usize, 4, 8, 12];
    println!("sweeping enrichment levels {sizes:?} (x2 repetitions)...");
    let points = enrichment_sweep(
        &base,
        &pool,
        &test,
        &sizes,
        2,
        ease_repro::graph::PropertyTier::Basic,
        &rfr,
        QualityTarget::ReplicationFactor,
        9,
    );
    println!("\nreplication-factor MAPE on unseen wiki graphs:");
    for &size in &sizes {
        if let Some((mean, std)) = aggregate_point(&points, size, None) {
            println!("  {size:>2} enrichment graphs -> MAPE {mean:.3} (±{std:.3})");
        }
    }
    println!("\nadding even a few graphs of the weak type sharply improves its predictions,");
    println!("mirroring the paper's Fig. 8.");
}
