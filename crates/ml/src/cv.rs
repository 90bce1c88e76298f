//! K-fold cross-validation and model selection (paper Sec. IV-C: 5-fold CV
//! on the training set selects model family + hyper-parameters, the winner
//! is retrained on the full training set).
//!
//! [`cross_val_mape`] is the serial definition of a score. [`select_models`]
//! is what training calls: all of one predictor's datasets (the five quality
//! targets, one dataset per workload) go in together and come back as one
//! [`Selection`] each, off two ticket queues. The first queue's unit is one
//! *(dataset, fold)*: the worker builds that fold's train/test copies once,
//! scores every candidate on them and drops them, so at most one split per
//! worker is alive. The second queue fits each dataset's winner on its full
//! set. Per-fold scores land in slots and are summed in fold order from
//! `0.0`, winners are the first minimum in grid order — so every score,
//! every pick and every fitted byte is what the serial code produces,
//! whatever the worker count (`ci/smoke.sh` trains under `taskset -c 0` and
//! `cmp`s).
//!
//! Why one queue per predictor: selection used to run dataset by dataset, a
//! four-candidate queue each (xgb 168 ms, rfr 128, poly 72, knn 20–33 of
//! single-thread CV over the five quality targets at tiny scale), so of two
//! workers one drew poly + xgb ≈ 48 ms while the other finished rfr + knn
//! at ≈ 31 ms, and every dataset ended in a serial ≈ 17 ms final fit:
//! 400–430 ms wall for 500–550 ms of CPU. The time is in the fits (trees ≈
//! 80 % of selection CPU); `kfold_indices` + `select` are 14 µs and
//! `Binner::fit` + `transform` 77 µs per 792 × 18 fold, under 0.5 % of a
//! training run together. Measured and not built: materialising every
//! *(dataset, fold)* split up front to ticket *(dataset, fold, candidate)*
//! — the same wall time at +4 % peak RSS and more code.

use crate::dataset::Dataset;
use crate::metrics::mape;
use crate::rng::SplitMix64;
use crate::zoo::ModelConfig;
use crate::Regressor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Mean cross-validated MAPE of a model configuration on a dataset — the
/// serial definition of a score; [`select_models`] must reproduce it bit for
/// bit.
pub fn cross_val_mape(config: &ModelConfig, ds: &Dataset, folds: usize, seed: u64) -> f64 {
    let fold_sets = kfold_indices(ds.len(), folds, seed);
    mean_score(
        (0..folds)
            .filter_map(|f| split(ds, &fold_sets, f))
            .map(|(train, test)| fold_mape(config, &train, &test)),
    )
}

/// Mean of the counted folds' scores, summed in fold order from `0.0`;
/// `INFINITY` when no fold counted.
fn mean_score(fold_scores: impl Iterator<Item = f64>) -> f64 {
    let (mut total, mut counted) = (0.0, 0usize);
    for score in fold_scores {
        total += score;
        counted += 1;
    }
    if counted == 0 {
        f64::INFINITY
    } else {
        total / counted as f64
    }
}

/// Fold `f`'s `(train, test)` copies of `ds`, or `None` when either side
/// would be empty (fewer rows than folds) and the fold is skipped.
fn split(ds: &Dataset, fold_sets: &[Vec<usize>], f: usize) -> Option<(Dataset, Dataset)> {
    let test_idx = &fold_sets[f];
    let train_idx: Vec<usize> = fold_sets
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != f)
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    if test_idx.is_empty() || train_idx.is_empty() {
        return None;
    }
    Some((ds.select(&train_idx), ds.select(test_idx)))
}

/// MAPE on `test` of a fresh `config` model fitted on `train`.
fn fold_mape(config: &ModelConfig, train: &Dataset, test: &Dataset) -> f64 {
    let mut model = config.build();
    model.fit(&train.x, &train.y);
    mape(&test.y, &model.predict(&test.x))
}

/// Outcome of a grid search: best configuration and its CV score.
#[derive(Debug, Clone)]
pub struct GridSearchResult {
    pub best: ModelConfig,
    pub best_score: f64,
    /// `(config, score)` for every candidate, in grid order.
    pub all_scores: Vec<(ModelConfig, f64)>,
}

/// Model selection on one dataset: the search outcome and the winner
/// fitted on the whole of it.
pub struct Selection {
    pub search: GridSearchResult,
    pub model: Box<dyn Regressor>,
}

/// Select and fit one model per dataset: every candidate is scored with
/// K-fold CV on every dataset, the lowest MAPE wins (first in grid order on
/// a tie; a NaN score — a candidate that diverged — ranks as `+∞`), and each
/// winner is refitted on its full dataset. All of it is one job on
/// `available_parallelism()` threads; scores, picks and fitted bytes do not
/// depend on the thread count (see the module docs).
pub fn select_models(
    candidates: &[ModelConfig],
    datasets: &[&Dataset],
    folds: usize,
    seed: u64,
) -> Vec<Selection> {
    let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    select_models_on(workers, candidates, datasets, folds, seed)
}

/// [`select_models`] on at most `workers` threads — the seam the
/// schedule-independence test drives; not a public knob.
pub(crate) fn select_models_on(
    workers: usize,
    candidates: &[ModelConfig],
    datasets: &[&Dataset],
    folds: usize,
    seed: u64,
) -> Vec<Selection> {
    assert!(!candidates.is_empty());
    let fold_sets: Vec<Vec<Vec<usize>>> =
        datasets.iter().map(|ds| kfold_indices(ds.len(), folds, seed)).collect();
    // queue 1 — unit (dataset, fold): one split, every candidate scored on
    // it; `None` is a fold `cross_val_mape` skips
    let fold_scores: Vec<Option<Vec<f64>>> = ticketed(workers, datasets.len() * folds, |unit| {
        let (d, f) = (unit / folds, unit % folds);
        let (train, test) = split(datasets[d], &fold_sets[d], f)?;
        Some(candidates.iter().map(|c| fold_mape(c, &train, &test)).collect())
    });
    let searches: Vec<GridSearchResult> = fold_scores
        .chunks(folds)
        .map(|per_fold| {
            let all_scores: Vec<(ModelConfig, f64)> = candidates
                .iter()
                .enumerate()
                .map(|(c, config)| {
                    let score = mean_score(per_fold.iter().flatten().map(|scores| scores[c]));
                    (config.clone(), score)
                })
                .collect();
            let rank = |score: f64| if score.is_nan() { f64::INFINITY } else { score };
            let (best, best_score) = all_scores
                .iter()
                .min_by(|a, b| rank(a.1).total_cmp(&rank(b.1)))
                .map(|(c, s)| (c.clone(), *s))
                .expect("non-empty grid");
            GridSearchResult { best, best_score, all_scores }
        })
        .collect();
    // queue 2 — unit dataset: the winner on the full set
    let models = ticketed(workers, datasets.len(), |d| {
        let mut model = searches[d].best.build();
        model.fit(&datasets[d].x, &datasets[d].y);
        model
    });
    searches.into_iter().zip(models).map(|(search, model)| Selection { search, model }).collect()
}

/// Run `job(0..units)` off one ticket counter on at most `workers` scoped
/// threads; results come back in unit order whichever thread ran which.
fn ticketed<T: Send>(workers: usize, units: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..units).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(units) {
            scope.spawn(|| loop {
                // lint: relaxed-ok(work ticket counter; slot writes publish via the scope join)
                let unit = next.fetch_add(1, Ordering::Relaxed);
                if unit >= units {
                    break;
                }
                let out = job(unit);
                *slots[unit].lock().expect("slot written once, by the ticket holder") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("a panicking job ends the scope").expect("ticketed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn selection_prefers_correct_degree() {
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
        let picked = select_models(&grid, &[&ds], 5, 3).pop().expect("one selection per dataset");
        assert!(matches!(picked.search.best, ModelConfig::Poly { degree: 2, .. }));
        assert_eq!(picked.search.all_scores.len(), 2);
        assert!(picked.search.best_score <= picked.search.all_scores[0].1);
        assert!((picked.model.predict_row(&[1.5]) - 3.25).abs() < 1e-3);
    }

    /// `rows` × 6 pseudo-random features in `[0, 1)`.
    fn feature_rows(rows: usize, seed: u64) -> Vec<[f64; 6]> {
        let mut rng = SplitMix64::new(seed);
        (0..rows).map(|_| [(); 6].map(|()| rng.next_f64())).collect()
    }

    fn labelled(rows: &[[f64; 6]], label: impl Fn(&[f64; 6]) -> f64) -> Dataset {
        let mut ds = Dataset::new((0..6).map(|j| format!("f{j}")).collect());
        for row in rows {
            ds.push(row, label(row));
        }
        ds
    }

    fn encoded(model: &dyn Regressor) -> Vec<u8> {
        let mut w = crate::persist::Writer::new();
        model.encode(&mut w);
        w.into_bytes()
    }

    /// What the serial control flow selects on one dataset: per-candidate
    /// `cross_val_mape`, first minimum, fit on the full set.
    fn serial_selection(
        grid: &[ModelConfig],
        ds: &Dataset,
        folds: usize,
        seed: u64,
    ) -> (Vec<u64>, ModelConfig, Vec<u8>) {
        let scores: Vec<f64> = grid.iter().map(|c| cross_val_mape(c, ds, folds, seed)).collect();
        let best = (0..grid.len())
            .min_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"))
            .expect("non-empty grid");
        let mut model = grid[best].build();
        model.fit(&ds.x, &ds.y);
        (scores.iter().map(|s| s.to_bits()).collect(), grid[best].clone(), encoded(model.as_ref()))
    }

    #[test]
    fn queue_matches_the_serial_reference_on_any_worker_count() {
        // one dataset of its own, and two label vectors over one matrix
        let (own, shared) = (feature_rows(200, 11), feature_rows(200, 12));
        let datasets = [
            labelled(&own, |r| 1.0 + 3.0 * r[0] + r[1] * r[2] + 0.5 * r[5]),
            labelled(&shared, |r| 2.0 + r[0] * r[0] + 4.0 * r[3]),
            labelled(&shared, |r| 1.0 + (6.0 * r[1]).sin().abs() + r[4]),
        ];
        let grid = crate::zoo::quick_grid();
        for folds in [2, 3, 5] {
            let reference: Vec<_> =
                datasets.iter().map(|ds| serial_selection(&grid, ds, folds, 9)).collect();
            let check = |selections: Vec<Selection>, how: &str| {
                assert_eq!(selections.len(), datasets.len());
                for (d, (got, (scores, best, bytes))) in
                    selections.iter().zip(&reference).enumerate()
                {
                    let ctx = format!("dataset {d}, {folds} folds, {how}");
                    let all = &got.search.all_scores;
                    assert!(all.iter().map(|(c, _)| c).eq(grid.iter()), "grid order: {ctx}");
                    let bits: Vec<u64> = all.iter().map(|(_, s)| s.to_bits()).collect();
                    assert_eq!(&bits, scores, "scores: {ctx}");
                    assert_eq!(&got.search.best, best, "winner: {ctx}");
                    let best_at = grid.iter().position(|c| c == best).expect("winner in grid");
                    assert_eq!(got.search.best_score.to_bits(), scores[best_at], "{ctx}");
                    assert_eq!(&encoded(got.model.as_ref()), bytes, "fitted bytes: {ctx}");
                }
            };
            let refs = datasets.each_ref();
            check(select_models(&grid, &refs, folds, 9), "host workers");
            for workers in [1, 2, 3, 7] {
                let how = format!("{workers} workers");
                check(select_models_on(workers, &grid, &refs, folds, 9), &how);
            }
        }
    }

    #[test]
    fn fewer_rows_than_folds_skips_the_empty_folds() {
        let grid = [ModelConfig::Knn { k: 1, distance_weighted: false }];
        // 3 rows, 5 folds: two folds have no test rows and are skipped
        let three = linear_dataset(3);
        let picked = select_models(&grid, &[&three], 5, 1).pop().expect("one selection");
        let serial = cross_val_mape(&grid[0], &three, 5, 1);
        assert!(serial.is_finite());
        assert_eq!(picked.search.best_score.to_bits(), serial.to_bits());
        // 1 row: every fold lacks a side, nothing is counted
        let one = linear_dataset(1);
        let picked = select_models(&grid, &[&one], 5, 1).pop().expect("one selection");
        assert_eq!(cross_val_mape(&grid[0], &one, 5, 1), f64::INFINITY);
        assert_eq!(picked.search.best_score, f64::INFINITY);
        // and no dataset at all is no work
        assert!(select_models(&grid, &[], 5, 1).is_empty());
    }

    #[test]
    fn a_diverging_candidate_loses_instead_of_aborting() {
        let ds = linear_dataset(60);
        let poly = ModelConfig::Poly { degree: 1, alpha: 1e-4 };
        let diverging = ModelConfig::Mlp { hidden: vec![8], epochs: 30, learning_rate: 1e300 };
        assert!(cross_val_mape(&diverging, &ds, 3, 1).is_nan(), "the fixture must diverge");
        for grid in [[poly.clone(), diverging.clone()], [diverging.clone(), poly.clone()]] {
            let picked = select_models(&grid, &[&ds], 3, 1).pop().expect("one selection");
            assert_eq!(picked.search.best, poly);
            assert!(picked.search.best_score.is_finite());
        }
        // nothing finite to prefer: first in grid order, as for all-INFINITY
        let grid = [diverging.clone(), diverging];
        let picked = select_models(&grid, &[&ds], 3, 1).pop().expect("one selection");
        assert!(picked.search.best_score.is_nan());
    }
}
