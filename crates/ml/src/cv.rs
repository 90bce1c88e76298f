//! K-fold cross-validation and grid search (paper Sec. IV-C: 5-fold CV on
//! the training set selects model family + hyper-parameters, the winner is
//! retrained on the full training set).

use crate::dataset::Dataset;
use crate::metrics::mape;
use crate::rng::SplitMix64;
use crate::zoo::ModelConfig;

/// Deterministically shuffled K-fold index sets.
pub fn kfold_indices(n: usize, folds: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(folds >= 2, "need at least 2 folds");
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::new(seed ^ 0xF01D);
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut out = vec![Vec::new(); folds];
    for (i, &idx) in order.iter().enumerate() {
        out[i % folds].push(idx);
    }
    out
}

/// Mean cross-validated MAPE of a model configuration on a dataset.
pub fn cross_val_mape(config: &ModelConfig, ds: &Dataset, folds: usize, seed: u64) -> f64 {
    let fold_sets = kfold_indices(ds.len(), folds, seed);
    let mut total = 0.0;
    let mut counted = 0usize;
    for f in 0..folds {
        let test_idx = &fold_sets[f];
        if test_idx.is_empty() {
            continue;
        }
        let train_idx: Vec<usize> = fold_sets
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != f)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        if train_idx.is_empty() {
            continue;
        }
        let train = ds.select(&train_idx);
        let test = ds.select(test_idx);
        let mut model = config.build();
        model.fit(&train.x, &train.y);
        let pred = model.predict(&test.x);
        total += mape(&test.y, &pred);
        counted += 1;
    }
    if counted == 0 {
        f64::INFINITY
    } else {
        total / counted as f64
    }
}

/// Outcome of a grid search: best configuration and its CV score.
#[derive(Debug, Clone)]
pub struct GridSearchResult {
    pub best: ModelConfig,
    pub best_score: f64,
    /// `(config, score)` for every candidate, in evaluation order.
    pub all_scores: Vec<(ModelConfig, f64)>,
}

/// Evaluate every candidate with K-fold CV, pick the lowest MAPE.
/// Candidates are scored on scoped threads — model training dominates the
/// EASE pipeline, and the grid members are independent.
pub fn grid_search(
    candidates: &[ModelConfig],
    ds: &Dataset,
    folds: usize,
    seed: u64,
) -> GridSearchResult {
    assert!(!candidates.is_empty());
    let workers =
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(candidates.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<f64>> = vec![None; candidates.len()];
    {
        let slot_cells: Vec<std::sync::Mutex<&mut Option<f64>>> =
            slots.iter_mut().map(std::sync::Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // lint: relaxed-ok(work ticket counter; slot writes publish via the scope join)
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= candidates.len() {
                        break;
                    }
                    let score = cross_val_mape(&candidates[i], ds, folds, seed);
                    **slot_cells[i].lock().expect("poisoned slot") = Some(score);
                });
            }
        });
    }
    let all_scores: Vec<(ModelConfig, f64)> =
        candidates.iter().cloned().zip(slots.into_iter().map(|s| s.expect("scored"))).collect();
    let (best, best_score) = all_scores
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
        .map(|(c, s)| (c.clone(), *s))
        .expect("non-empty grid");
    GridSearchResult { best, best_score, all_scores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::ModelConfig;

    fn linear_dataset(n: usize) -> Dataset {
        let mut ds = Dataset::new(vec!["x".into()]);
        for i in 0..n {
            let x = i as f64 / n as f64;
            ds.push(&[x], 2.0 * x + 1.0);
        }
        ds
    }

    #[test]
    fn kfold_partitions_everything_once() {
        let folds = kfold_indices(103, 5, 1);
        assert_eq!(folds.len(), 5);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
        // balanced sizes
        for f in &folds {
            assert!(f.len() == 20 || f.len() == 21);
        }
    }

    #[test]
    fn kfold_is_deterministic_and_seed_sensitive() {
        assert_eq!(kfold_indices(50, 5, 7), kfold_indices(50, 5, 7));
        assert_ne!(kfold_indices(50, 5, 7), kfold_indices(50, 5, 8));
    }

    #[test]
    fn cv_score_near_zero_for_learnable_function() {
        let ds = linear_dataset(60);
        let cfg = ModelConfig::Poly { degree: 1, alpha: 1e-8 };
        let score = cross_val_mape(&cfg, &ds, 5, 1);
        assert!(score < 0.01, "score {score}");
    }

    #[test]
    fn grid_search_prefers_correct_degree() {
        // quadratic data: degree-2 poly must beat degree-1
        let mut ds = Dataset::new(vec!["x".into()]);
        for i in 0..80 {
            let x = i as f64 / 20.0 - 2.0;
            ds.push(&[x], x * x + 1.0);
        }
        let grid = vec![
            ModelConfig::Poly { degree: 1, alpha: 1e-8 },
            ModelConfig::Poly { degree: 2, alpha: 1e-8 },
        ];
        let result = grid_search(&grid, &ds, 5, 3);
        assert!(matches!(result.best, ModelConfig::Poly { degree: 2, .. }));
        assert_eq!(result.all_scores.len(), 2);
        assert!(result.best_score <= result.all_scores[0].1);
    }
}
