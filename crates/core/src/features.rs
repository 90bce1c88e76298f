//! Feature assembly — the exact feature/task matrix of the paper's
//! Table III.
//!
//! | task               | graph properties      | other features               |
//! |--------------------|-----------------------|------------------------------|
//! | partitioning quality | basic or advanced   | k, one-hot partitioner       |
//! | partitioning time  | advanced (all tiers)  | one-hot partitioner          |
//! | processing time    | simple (|E|, |V|)     | 5 quality metrics, iterations|

use ease_graph::{GraphProperties, PropertyTier};
use ease_ml::{Matrix, OneHotEncoder};
use ease_partition::{PartitionerId, QualityMetrics, QualityTarget};

/// One-hot encoder over the 11 partitioner names (stable order). Built
/// once — this sits on the per-prediction hot path of every predictor, and
/// rebuilding 11 heap strings per feature row measurably slows batched
/// query serving.
pub fn partitioner_encoder() -> &'static OneHotEncoder {
    static ENCODER: std::sync::OnceLock<OneHotEncoder> = std::sync::OnceLock::new();
    ENCODER.get_or_init(|| {
        OneHotEncoder::new(PartitionerId::ALL.iter().map(|p| p.name().to_string()).collect())
    })
}

/// Feature names for the PartitioningQualityPredictor at a property tier.
pub fn quality_feature_names(tier: PropertyTier) -> Vec<String> {
    let mut names: Vec<String> =
        GraphProperties::feature_names(tier).into_iter().map(String::from).collect();
    names.push("num_partitions".into());
    for p in PartitionerId::ALL {
        names.push(format!("partitioner_{}", p.name()));
    }
    names
}

/// Feature row for the PartitioningQualityPredictor.
pub fn quality_row(
    props: &GraphProperties,
    tier: PropertyTier,
    k: usize,
    partitioner: PartitionerId,
) -> Vec<f64> {
    let mut row = props.feature_vector(tier);
    row.push(k as f64);
    let enc = partitioner_encoder();
    enc.encode_into(partitioner.name(), &mut row);
    row
}

/// [`quality_row`] for each of `partitioners`, as the rows of one matrix:
/// the graph's part of the row is built once.
pub fn quality_rows(
    props: &GraphProperties,
    tier: PropertyTier,
    k: usize,
    partitioners: &[PartitionerId],
) -> Matrix {
    let mut head = props.feature_vector(tier);
    head.push(k as f64);
    one_row_per_partitioner(head, partitioners)
}

/// `head` followed by each partitioner's one-hot columns, one row each.
fn one_row_per_partitioner(mut head: Vec<f64>, partitioners: &[PartitionerId]) -> Matrix {
    let enc = partitioner_encoder();
    let shared = head.len();
    let mut x = Matrix::with_capacity(partitioners.len(), shared + enc.width());
    for p in partitioners {
        head.truncate(shared);
        enc.encode_into(p.name(), &mut head);
        x.push_row(&head);
    }
    x
}

/// Feature names for the PartitioningTimePredictor (all property tiers +
/// partitioner, per Table III).
pub fn partitioning_time_feature_names() -> Vec<String> {
    let mut names: Vec<String> = GraphProperties::feature_names(PropertyTier::Advanced)
        .into_iter()
        .map(String::from)
        .collect();
    for p in PartitionerId::ALL {
        names.push(format!("partitioner_{}", p.name()));
    }
    names
}

/// Feature row for the PartitioningTimePredictor.
pub fn partitioning_time_row(props: &GraphProperties, partitioner: PartitionerId) -> Vec<f64> {
    let mut row = props.feature_vector(PropertyTier::Advanced);
    let enc = partitioner_encoder();
    enc.encode_into(partitioner.name(), &mut row);
    row
}

/// [`partitioning_time_row`] for each of `partitioners`, as the rows of one
/// matrix.
pub fn partitioning_time_rows(props: &GraphProperties, partitioners: &[PartitionerId]) -> Matrix {
    one_row_per_partitioner(props.feature_vector(PropertyTier::Advanced), partitioners)
}

/// Feature names for the ProcessingTimePredictor: simple graph properties +
/// the five quality metrics + the iteration count.
pub fn processing_time_feature_names() -> Vec<String> {
    let mut names: Vec<String> = GraphProperties::feature_names(PropertyTier::Simple)
        .into_iter()
        .map(String::from)
        .collect();
    names.extend(QualityTarget::ALL.iter().map(|t| t.name().to_string()));
    names.push("iterations".into());
    names
}

/// Feature row for the ProcessingTimePredictor. `iterations` is 0 for
/// run-to-convergence workloads (paper: only fixed-iteration algorithms
/// take I as an input).
pub fn processing_time_row(
    props: &GraphProperties,
    metrics: &QualityMetrics,
    iterations: usize,
) -> Vec<f64> {
    let mut row = props.feature_vector(PropertyTier::Simple);
    row.extend(metrics.as_vector());
    row.push(iterations as f64);
    row
}

/// [`processing_time_row`] for each of `metrics`, as the rows of one matrix.
pub fn processing_time_rows(
    props: &GraphProperties,
    metrics: &[QualityMetrics],
    iterations: usize,
) -> Matrix {
    let mut row = props.feature_vector(PropertyTier::Simple);
    let shared = row.len();
    let width = shared + QualityTarget::ALL.len() + 1;
    let mut x = Matrix::with_capacity(metrics.len(), width);
    for m in metrics {
        row.truncate(shared);
        row.extend(m.as_vector());
        row.push(iterations as f64);
        x.push_row(&row);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graph::{Graph, PreparedGraph};

    fn props() -> GraphProperties {
        PreparedGraph::new(Graph::from_pairs([(0, 1), (1, 2), (2, 0)]))
            .properties(PropertyTier::Advanced)
    }

    fn metrics() -> QualityMetrics {
        QualityMetrics {
            replication_factor: 1.5,
            edge_balance: 1.1,
            vertex_balance: 1.2,
            source_balance: 1.3,
            dest_balance: 1.4,
        }
    }

    #[test]
    fn quality_row_width_matches_names() {
        for tier in PropertyTier::ALL {
            let row = quality_row(&props(), tier, 8, PartitionerId::Hdrf);
            assert_eq!(row.len(), quality_feature_names(tier).len(), "{tier:?}");
        }
    }

    #[test]
    fn quality_row_one_hot_is_exclusive() {
        let row = quality_row(&props(), PropertyTier::Basic, 8, PartitionerId::Ne);
        let hot: Vec<f64> = row[row.len() - 11..].to_vec();
        assert_eq!(hot.iter().filter(|&&v| v == 1.0).count(), 1);
        assert_eq!(hot.iter().filter(|&&v| v == 0.0).count(), 10);
        // NE is the last partitioner in ALL order
        assert_eq!(hot[PartitionerId::Ne.index()], 1.0);
    }

    #[test]
    fn k_lands_right_after_properties() {
        let row = quality_row(&props(), PropertyTier::Simple, 64, PartitionerId::OneDD);
        assert_eq!(row[2], 64.0); // [|E|, |V|, k, ...one-hot]
    }

    #[test]
    fn partitioning_time_row_width() {
        let row = partitioning_time_row(&props(), PartitionerId::TwoPs);
        assert_eq!(row.len(), partitioning_time_feature_names().len());
        // 8 advanced props + 11 one-hot
        assert_eq!(row.len(), 19);
    }

    #[test]
    fn matrices_hold_the_single_rows() {
        let catalog = [PartitionerId::Ne, PartitionerId::OneDD, PartitionerId::Hdrf];
        for tier in PropertyTier::ALL {
            let x = quality_rows(&props(), tier, 8, &catalog);
            for (i, &p) in catalog.iter().enumerate() {
                assert_eq!(x.row(i), quality_row(&props(), tier, 8, p), "{tier:?} {p:?}");
            }
        }
        let x = partitioning_time_rows(&props(), &catalog);
        for (i, &p) in catalog.iter().enumerate() {
            assert_eq!(x.row(i), partitioning_time_row(&props(), p));
        }
        let all = [metrics(), QualityMetrics { replication_factor: 3.0, ..metrics() }];
        let x = processing_time_rows(&props(), &all, 10);
        for (i, m) in all.iter().enumerate() {
            assert_eq!(x.row(i), processing_time_row(&props(), m, 10));
        }
        assert_eq!(quality_rows(&props(), PropertyTier::Basic, 2, &[]).rows, 0);
    }

    #[test]
    fn processing_time_row_layout() {
        let row = processing_time_row(&props(), &metrics(), 10);
        assert_eq!(row.len(), processing_time_feature_names().len());
        // [|E|, |V|, rf, eb, vb, sb, db, iters]
        assert_eq!(row[2], 1.5);
        assert_eq!(row[7], 10.0);
    }
}
