//! Feature assembly — the exact feature/task matrix of the paper's
//! Table III.
//!
//! | task               | graph properties      | other features               |
//! |--------------------|-----------------------|------------------------------|
//! | partitioning quality | basic or advanced   | k, one-hot partitioner       |
//! | partitioning time  | advanced (all tiers)  | one-hot partitioner          |
//! | processing time    | simple (|E|, |V|)     | 5 quality metrics, iterations|
//!
//! Each predictor has one builder, from row descriptors to a feature
//! matrix. Training, evaluation and selection all build through it: a
//! training record, a test record and a candidate partitioner of a query
//! are the same kind of row.

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

/// The PartitioningQualityPredictor's feature matrix: per
/// `(props, k, partitioner)`, the graph's properties at `tier`, then `k`,
/// then the partitioner's one-hot columns.
pub fn quality_matrix<'a>(
    tier: PropertyTier,
    rows: impl IntoIterator<Item = (&'a GraphProperties, usize, PartitionerId)>,
) -> Matrix {
    let enc = partitioner_encoder();
    let rows = rows.into_iter().map(|(props, k, p)| (props, (k, p)));
    matrix(tier, 1 + enc.width(), rows, |(k, p), row| {
        row.push(k as f64);
        enc.encode_into(p.name(), row);
    })
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

/// The PartitioningTimePredictor's feature matrix: per `(props,
/// partitioner)`, the graph's advanced properties, then the partitioner's
/// one-hot columns.
pub fn partitioning_time_matrix<'a>(
    rows: impl IntoIterator<Item = (&'a GraphProperties, PartitionerId)>,
) -> Matrix {
    let enc = partitioner_encoder();
    let rows = rows.into_iter();
    matrix(PropertyTier::Advanced, enc.width(), rows, |p, row| enc.encode_into(p.name(), row))
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

/// The ProcessingTimePredictor's feature matrix: per `(props, metrics,
/// iterations)`, the graph's simple properties, the five metrics, then the
/// workload's iteration count — 0 for run-to-convergence workloads (paper:
/// only fixed-iteration algorithms take I as an input).
pub fn processing_time_matrix<'a>(
    rows: impl IntoIterator<Item = (&'a GraphProperties, &'a QualityMetrics, usize)>,
) -> Matrix {
    let rows = rows.into_iter().map(|(props, metrics, iterations)| (props, (metrics, iterations)));
    let tail = QualityTarget::ALL.len() + 1;
    matrix(PropertyTier::Simple, tail, rows, |(metrics, iterations), row| {
        row.extend(metrics.as_vector());
        row.push(iterations as f64);
    })
}

/// The loop the three builders share: per row, its graph's properties at
/// `tier`, then the `tail` columns `push_tail` appends. Consecutive rows
/// over the same properties — the candidates of one query — share one
/// property vector.
fn matrix<'a, T>(
    tier: PropertyTier,
    tail: usize,
    rows: impl Iterator<Item = (&'a GraphProperties, T)>,
    push_tail: impl Fn(T, &mut Vec<f64>),
) -> Matrix {
    let width = GraphProperties::feature_names(tier).len() + tail;
    let mut x = Matrix::with_capacity(rows.size_hint().0, width);
    let mut row = Vec::new();
    let mut head: Option<(&GraphProperties, usize)> = None;
    for (props, rest) in rows {
        match head {
            Some((shared, len)) if std::ptr::eq(shared, props) => row.truncate(len),
            _ => {
                row = props.feature_vector(tier);
                head = Some((props, row.len()));
            }
        }
        push_tail(rest, &mut row);
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
    fn quality_matrix_width_matches_names() {
        let props = props();
        for tier in PropertyTier::ALL {
            let x = quality_matrix(tier, [(&props, 8, PartitionerId::Hdrf)]);
            assert_eq!(x.cols, quality_feature_names(tier).len(), "{tier:?}");
            assert_eq!(x.row(0).len(), x.cols);
        }
        assert_eq!(quality_matrix(PropertyTier::Basic, []).rows, 0);
    }

    #[test]
    fn quality_one_hot_is_exclusive() {
        let props = props();
        let x = quality_matrix(PropertyTier::Basic, [(&props, 8, PartitionerId::Ne)]);
        let hot = &x.row(0)[x.cols - 11..];
        assert_eq!(hot.iter().filter(|&&v| v == 1.0).count(), 1);
        assert_eq!(hot.iter().filter(|&&v| v == 0.0).count(), 10);
        // NE is the last partitioner in ALL order
        assert_eq!(hot[PartitionerId::Ne.index()], 1.0);
    }

    #[test]
    fn k_lands_right_after_properties() {
        let props = props();
        let x = quality_matrix(PropertyTier::Simple, [(&props, 64, PartitionerId::OneDD)]);
        assert_eq!(x.row(0)[2], 64.0); // [|E|, |V|, k, ...one-hot]
    }

    #[test]
    fn partitioning_time_matrix_width() {
        let props = props();
        let x = partitioning_time_matrix([(&props, PartitionerId::TwoPs)]);
        assert_eq!(x.cols, partitioning_time_feature_names().len());
        // 8 advanced props + 11 one-hot
        assert_eq!(x.cols, 19);
    }

    /// A row does not depend on its neighbours: rows that share a graph's
    /// property vector are the rows of graphs built one at a time.
    #[test]
    fn shared_property_rows_equal_rows_built_alone() {
        let (a, b) = (props(), props());
        let catalog = [PartitionerId::Ne, PartitionerId::OneDD, PartitionerId::Hdrf];
        for tier in PropertyTier::ALL {
            let shared = quality_matrix(tier, catalog.iter().map(|&p| (&a, 8, p)));
            let apart =
                quality_matrix(tier, catalog.iter().zip([&a, &b, &a]).map(|(&p, g)| (g, 8, p)));
            assert_eq!(shared, apart, "{tier:?}");
        }
        let shared = partitioning_time_matrix(catalog.iter().map(|&p| (&a, p)));
        let apart =
            partitioning_time_matrix(catalog.iter().zip([&b, &a, &b]).map(|(&p, g)| (g, p)));
        assert_eq!(shared, apart);
        let all = [metrics(), QualityMetrics { replication_factor: 3.0, ..metrics() }];
        let shared = processing_time_matrix(all.iter().map(|m| (&a, m, 10)));
        let apart = processing_time_matrix(all.iter().zip([&b, &a]).map(|(m, g)| (g, m, 10)));
        assert_eq!(shared, apart);
    }

    #[test]
    fn processing_time_matrix_layout() {
        let props = props();
        let x = processing_time_matrix([(&props, &metrics(), 10)]);
        assert_eq!(x.cols, processing_time_feature_names().len());
        // [|E|, |V|, rf, eb, vb, sb, db, iters]
        assert_eq!(x.row(0)[2], 1.5);
        assert_eq!(x.row(0)[7], 10.0);
    }
}
