//! K-fold cross-validation and model selection (paper Sec. IV-C: 5-fold CV
//! on the training set selects model family + hyper-parameters, the winner
//! is retrained on the full training set).
//!
//! [`cross_val_mape`] is the serial definition of a score. [`select_models`]
//! is what training calls, with what its callers have: [`LabelGroup`]s — one
//! feature matrix and the label vectors read off its rows (the five quality
//! targets are five label vectors over one matrix; a processing-time
//! workload is a group of its own). It returns one [`Selection`] per label
//! vector.
//!
//! Per *(group, fold)* it first builds the split: the train/test rows, and
//! what the candidates read of them that no label vector changes — the
//! z-scores and the tree ensembles' bins. That is microseconds of work, done
//! on the calling thread (splits built by short-lived workers landed in
//! their malloc arenas and outlived them: + 18 % peak RSS on `train-tiny`,
//! measured), and the splits stay alive until every score is in. Then two
//! ticket queues:
//!
//! 1. *(split, candidate)* for the families whose fit is mostly a function
//!    of the matrix — polynomial ridge (expansion, Gram matrix, Cholesky
//!    factor; a label is a right-hand side and two triangular solves) and
//!    KNN (the neighbour search; a label is a weighted average) — and
//!    *(split, candidate, label)* for the others, heaviest first.
//! 2. *(group, label)* — the winner fitted on the full set.
//!
//! Per-fold scores land in slots and are summed in fold order from `0.0`,
//! winners are the first minimum in grid order — so every score, every pick
//! and every fitted byte is what the serial code produces, whatever the
//! worker count (`ci/smoke.sh` trains under `taskset -c 0` and `cmp`s).
//!
//! Why the split is the shared object: over the five quality targets at
//! tiny scale (792 × 18, quick grid, 3 folds, one core) per-target
//! selection spent 74 ms in polynomial ridge and 23 ms in KNN re-deriving
//! per label what only the matrix determines (528 × 189² / 2 multiply-adds
//! of Gram matrix and its factorisation per fold; 264 × 528 distances),
//! next to rfr 115 ms and xgb 135 ms of tree fits that share only their
//! bins. With one matrix there are `folds` splits, too few to be the unit
//! of work for two workers — hence the first queue's tickets.

use crate::dataset::{Dataset, Matrix};
use crate::metrics::mape;
use crate::preprocess::StandardScaler;
use crate::rng::SplitMix64;
use crate::tree::BinnedMatrix;
use crate::zoo::{Family, ModelConfig, ModelKind};
use crate::Regressor;
use std::ops::Range;
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

/// Fold `f`'s `(train, test)` row indices, or `None` when either side would
/// be empty (fewer rows than folds) and the fold is skipped.
fn fold_rows(fold_sets: &[Vec<usize>], f: usize) -> Option<(Vec<usize>, &[usize])> {
    let test_idx = &fold_sets[f];
    let train_idx: Vec<usize> = fold_sets
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != f)
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    (!test_idx.is_empty() && !train_idx.is_empty()).then_some((train_idx, test_idx))
}

/// Mean cross-validated MAPE of a model configuration on a dataset — the
/// serial definition of a score; [`select_models`] must reproduce it bit for
/// bit.
pub fn cross_val_mape(config: &ModelConfig, ds: &Dataset, folds: usize, seed: u64) -> f64 {
    let fold_sets = kfold_indices(ds.len(), folds, seed);
    mean_score((0..folds).filter_map(|f| fold_rows(&fold_sets, f)).map(|(train_idx, test_idx)| {
        let (train, test) = (ds.select(&train_idx), ds.select(test_idx));
        let mut model = config.build();
        model.fit(&train.x, &train.y);
        mape(&test.y, &model.predict(&test.x))
    }))
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

/// One feature matrix and the label vectors read off its rows: what
/// [`select_models`] shares work across. A [`Dataset`] is a group of one.
pub struct LabelGroup<'a> {
    pub x: &'a Matrix,
    pub labels: Vec<&'a [f64]>,
}

impl<'a> From<&'a Dataset> for LabelGroup<'a> {
    fn from(ds: &'a Dataset) -> Self {
        LabelGroup { x: &ds.x, labels: vec![&ds.y] }
    }
}

/// One fold of one group: its rows, and everything the candidates read of
/// them that is the same for every label vector.
struct Split {
    train: Matrix,
    test: Matrix,
    /// Per label vector of the group.
    train_y: Vec<Vec<f64>>,
    test_y: Vec<Vec<f64>>,
    /// `(train, test)` z-scored by the training rows' scaler — what a
    /// [`crate::ScaledModel`] fitted on `train` feeds its inner model —
    /// when a candidate reads them.
    scaled: Option<(Matrix, Matrix)>,
    /// The bins of `train`, when a tree ensemble is a candidate.
    binned: Option<BinnedMatrix>,
}

fn reads_bins(config: &ModelConfig) -> bool {
    matches!(config.kind(), ModelKind::RandomForest | ModelKind::Xgb)
}

/// Whether one fit of the family serves every label vector of a split.
fn shares_labels(config: &ModelConfig) -> bool {
    matches!(config.kind(), ModelKind::Poly | ModelKind::Knn)
}

impl Split {
    fn of(
        group: &LabelGroup,
        fold_sets: &[Vec<usize>],
        f: usize,
        candidates: &[ModelConfig],
    ) -> Option<Split> {
        let (train_idx, test_idx) = fold_rows(fold_sets, f)?;
        let (train, test) = (group.x.select(&train_idx), group.x.select(test_idx));
        let pick = |idx: &[usize]| -> Vec<Vec<f64>> {
            group.labels.iter().map(|y| idx.iter().map(|&i| y[i]).collect()).collect()
        };
        let scaled = candidates.iter().any(|c| !reads_bins(c)).then(|| {
            let scaler = StandardScaler::fit(&train);
            (scaler.transform(&train), scaler.transform(&test))
        });
        let binned = candidates.iter().any(reads_bins).then(|| BinnedMatrix::of(&train));
        Some(Split {
            train_y: pick(&train_idx),
            test_y: pick(test_idx),
            train,
            test,
            scaled,
            binned,
        })
    }

    /// The MAPE `config` scores on this fold for each of `labels`, as
    /// [`cross_val_mape`] computes it.
    fn scores(&self, config: &ModelConfig, labels: Range<usize>) -> Vec<f64> {
        let score = |l: usize, predicted: &[f64]| mape(&self.test_y[l], predicted);
        let scaled = || self.scaled.as_ref().expect("z-scores are built for their readers");
        let binned = || self.binned.as_ref().expect("bins are built for their readers");
        let train_ys = || labels.clone().map(|l| self.train_y[l].as_slice()).collect::<Vec<_>>();
        // a family that shares nothing across labels: fit and predict each
        let each = |fit_predict: &mut dyn FnMut(&[f64]) -> Vec<f64>| -> Vec<f64> {
            labels.clone().map(|l| score(l, &fit_predict(&self.train_y[l]))).collect()
        };
        match config.family() {
            Family::Poly(model) => {
                let (train, test) = scaled();
                let fitted = model.fit_labels(train, &train_ys());
                labels.clone().zip(&fitted).map(|(l, m)| score(l, &m.predict(test))).collect()
            }
            Family::Knn(model) => {
                let (train, test) = scaled();
                let predicted = model.predict_labels(train, &train_ys(), test);
                labels.clone().zip(&predicted).map(|(l, p)| score(l, p)).collect()
            }
            Family::Forest(mut model) => each(&mut |y| {
                model.fit_binned(binned(), y);
                model.predict(&self.test)
            }),
            Family::Xgb(mut model) => each(&mut |y| {
                model.fit_binned(&self.train, binned(), y);
                model.predict(&self.test)
            }),
            Family::Svr(mut model) => each(&mut refit(&mut model, scaled())),
            Family::Mlp(mut model) => each(&mut refit(&mut model, scaled())),
        }
    }
}

/// Fit `model` on the z-scored training rows, predict the z-scored test rows.
fn refit<'a>(
    model: &'a mut dyn Regressor,
    (train, test): &'a (Matrix, Matrix),
) -> impl FnMut(&[f64]) -> Vec<f64> + 'a {
    move |y| {
        model.fit(train, y);
        model.predict(test)
    }
}

/// A relative estimate of what scoring `config` on one fold of `rows` ×
/// `cols` costs, per label vector — per fold for the families that share
/// their fit across labels. Only the order tickets are drawn in reads it,
/// never a result. Units are inner-loop steps; a histogram update is priced
/// at four multiply-adds (measured at the quality shape: 3–5 ns against
/// 0.5–0.7 ns).
fn work(config: &ModelConfig, rows: usize, cols: usize, folds: usize) -> f64 {
    let (n, d) = (rows as f64, cols as f64);
    let levels = |max_depth: usize| (max_depth as f64).min(n.log2().max(1.0));
    match config {
        ModelConfig::Forest { n_trees, max_depth, feature_fraction } => {
            4.0 * *n_trees as f64 * levels(*max_depth) * n * d * feature_fraction
        }
        ModelConfig::Xgb { n_estimators, max_depth, .. } => {
            4.0 * *n_estimators as f64 * levels(*max_depth) * n * d
        }
        ModelConfig::Poly { degree, .. } => {
            let width = d
                + if *degree >= 2 { d * (d + 1.0) / 2.0 } else { 0.0 }
                + if *degree >= 3 { d } else { 0.0 };
            n * width * width / 2.0 + width.powi(3) / 3.0
        }
        ModelConfig::Knn { .. } => n * (n / folds as f64) * d,
        ModelConfig::Svr { .. } => {
            let support = n.min(crate::svr::SvrParams::default().max_train as f64);
            support * support * (d + crate::svr::SvrParams::default().max_passes as f64)
        }
        ModelConfig::Mlp { hidden, epochs, .. } => {
            let widths = std::iter::once(cols).chain(hidden.iter().copied());
            let outs = hidden.iter().copied().chain(std::iter::once(1));
            let weights: usize = widths.zip(outs).map(|(i, o)| i * o).sum();
            3.0 * *epochs as f64 * n * weights as f64
        }
    }
}

/// Outcome of a grid search: best configuration and its CV score.
#[derive(Debug, Clone)]
pub struct GridSearchResult {
    pub best: ModelConfig,
    pub best_score: f64,
    /// `(config, score)` for every candidate, in grid order.
    pub all_scores: Vec<(ModelConfig, f64)>,
}

/// Model selection for one label vector: the search outcome and the winner
/// fitted on the whole of its group's matrix.
pub struct Selection {
    pub search: GridSearchResult,
    pub model: Box<dyn Regressor>,
}

/// Select and fit one model per label vector, returned group by group in
/// label order: every candidate is scored with K-fold CV (one set of folds
/// per group), the lowest MAPE wins (first in grid order on a tie; a NaN
/// score — a candidate that diverged — ranks as `+∞`), and each winner is
/// refitted on the full matrix. All of it is one job on
/// `available_parallelism()` threads; scores, picks and fitted bytes are
/// those of [`cross_val_mape`] on each label vector alone and do not depend
/// on the thread count (see the module docs).
pub fn select_models(
    candidates: &[ModelConfig],
    groups: &[LabelGroup],
    folds: usize,
    seed: u64,
) -> Vec<Selection> {
    let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    select_models_on(workers, candidates, groups, folds, seed)
}

/// One unit of the scoring queue: `candidate` on `split`, for `labels`.
struct Ticket {
    split: usize,
    candidate: usize,
    labels: Range<usize>,
    work: f64,
}

/// [`select_models`] on at most `workers` threads — the seam the
/// schedule-independence test drives; not a public knob.
pub(crate) fn select_models_on(
    workers: usize,
    candidates: &[ModelConfig],
    groups: &[LabelGroup],
    folds: usize,
    seed: u64,
) -> Vec<Selection> {
    assert!(!candidates.is_empty());
    // per (group, fold) the split; `None` is a fold `cross_val_mape` skips
    let splits: Vec<Option<Split>> = groups
        .iter()
        .flat_map(|group| {
            let fold_sets = kfold_indices(group.x.rows, folds, seed);
            (0..folds).map(move |f| Split::of(group, &fold_sets, f, candidates)).collect::<Vec<_>>()
        })
        .collect();
    // queue 1 — every candidate on every split, heaviest ticket first
    let mut tickets = Vec::new();
    for (s, split) in splits.iter().enumerate() {
        let Some(split) = split else { continue };
        let n_labels = split.train_y.len();
        for (c, config) in candidates.iter().enumerate() {
            let work = work(config, split.train.rows, split.train.cols, folds);
            let per_ticket = if shares_labels(config) { n_labels } else { 1 };
            tickets.extend((0..n_labels).step_by(per_ticket.max(1)).map(|l| Ticket {
                split: s,
                candidate: c,
                labels: l..l + per_ticket,
                work,
            }));
        }
    }
    tickets.sort_by(|a, b| b.work.total_cmp(&a.work));
    let scored: Vec<Vec<f64>> = ticketed(workers, tickets.len(), |t| {
        let Ticket { split, candidate, labels, .. } = &tickets[t];
        splits[*split]
            .as_ref()
            .expect("ticketed splits exist")
            .scores(&candidates[*candidate], labels.clone())
    });
    // per-fold scores into their slots: [group][label][candidate][fold]
    let mut slots: Vec<Vec<Vec<Vec<Option<f64>>>>> = groups
        .iter()
        .map(|g| vec![vec![vec![None; folds]; candidates.len()]; g.labels.len()])
        .collect();
    for (ticket, scores) in tickets.iter().zip(scored) {
        let (g, f) = (ticket.split / folds, ticket.split % folds);
        for (l, score) in ticket.labels.clone().zip(scores) {
            slots[g][l][ticket.candidate][f] = Some(score);
        }
    }
    drop(splits);
    let searches: Vec<(usize, usize, GridSearchResult)> = slots
        .iter()
        .enumerate()
        .flat_map(|(g, labels)| {
            labels.iter().enumerate().map(move |(l, by_candidate)| (g, l, by_candidate))
        })
        .map(|(g, l, by_candidate)| {
            let all_scores: Vec<(ModelConfig, f64)> = candidates
                .iter()
                .zip(by_candidate)
                .map(|(config, per_fold)| {
                    (config.clone(), mean_score(per_fold.iter().flatten().copied()))
                })
                .collect();
            let rank = |score: f64| if score.is_nan() { f64::INFINITY } else { score };
            let (best, best_score) = all_scores
                .iter()
                .min_by(|a, b| rank(a.1).total_cmp(&rank(b.1)))
                .map(|(c, s)| (c.clone(), *s))
                .expect("non-empty grid");
            (g, l, GridSearchResult { best, best_score, all_scores })
        })
        .collect();
    // queue 2 — unit (group, label): the winner on the full set
    let models = ticketed(workers, searches.len(), |unit| {
        let (g, l, search) = &searches[unit];
        let mut model = search.best.build();
        model.fit(groups[*g].x, groups[*g].labels[*l]);
        model
    });
    searches
        .into_iter()
        .zip(models)
        .map(|((_, _, search), model)| Selection { search, model })
        .collect()
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
        let picked =
            select_models(&grid, &[(&ds).into()], 5, 3).pop().expect("one selection per label");
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
        // one dataset of its own, and two label vectors over one matrix:
        // the group shares its splits, z-scores, bins, Gram factor and
        // neighbour searches between the two, and must still score each as
        // `cross_val_mape` scores it alone
        let (own, shared) = (feature_rows(200, 11), feature_rows(200, 12));
        let datasets = [
            labelled(&own, |r| 1.0 + 3.0 * r[0] + r[1] * r[2] + 0.5 * r[5]),
            labelled(&shared, |r| 2.0 + r[0] * r[0] + 4.0 * r[3]),
            labelled(&shared, |r| 1.0 + (6.0 * r[1]).sin().abs() + r[4]),
        ];
        let groups = || {
            let [own, first, second] = &datasets;
            assert_eq!(first.x, second.x);
            [own.into(), LabelGroup { x: &first.x, labels: vec![&first.y, &second.y] }]
        };
        // every family: the quick grid's four, and one cheap point of each
        // of the two that share only the z-scores
        let mut grid = crate::zoo::quick_grid();
        grid.push(ModelConfig::Svr { c: 10.0, epsilon: 0.01, gamma: 0.5 });
        grid.push(ModelConfig::Mlp { hidden: vec![4], epochs: 3, learning_rate: 1e-3 });
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
            check(select_models(&grid, &groups(), folds, 9), "host workers");
            for workers in [1, 2, 3, 7] {
                let how = format!("{workers} workers");
                check(select_models_on(workers, &grid, &groups(), folds, 9), &how);
            }
        }
    }

    #[test]
    fn fewer_rows_than_folds_skips_the_empty_folds() {
        let grid = [ModelConfig::Knn { k: 1, distance_weighted: false }];
        // 3 rows, 5 folds: two folds have no test rows and are skipped
        let three = linear_dataset(3);
        let picked = select_models(&grid, &[(&three).into()], 5, 1).pop().expect("one selection");
        let serial = cross_val_mape(&grid[0], &three, 5, 1);
        assert!(serial.is_finite());
        assert_eq!(picked.search.best_score.to_bits(), serial.to_bits());
        // 1 row: every fold lacks a side, nothing is counted
        let one = linear_dataset(1);
        let picked = select_models(&grid, &[(&one).into()], 5, 1).pop().expect("one selection");
        assert_eq!(cross_val_mape(&grid[0], &one, 5, 1), f64::INFINITY);
        assert_eq!(picked.search.best_score, f64::INFINITY);
        // and no group at all, or a group without labels, is no work
        assert!(select_models(&grid, &[], 5, 1).is_empty());
        let unlabelled = LabelGroup { x: &three.x, labels: vec![] };
        assert!(select_models(&grid, &[unlabelled], 5, 1).is_empty());
    }

    #[test]
    fn a_diverging_candidate_loses_instead_of_aborting() {
        let ds = linear_dataset(60);
        let poly = ModelConfig::Poly { degree: 1, alpha: 1e-4 };
        let diverging = ModelConfig::Mlp { hidden: vec![8], epochs: 30, learning_rate: 1e300 };
        assert!(cross_val_mape(&diverging, &ds, 3, 1).is_nan(), "the fixture must diverge");
        for grid in [[poly.clone(), diverging.clone()], [diverging.clone(), poly.clone()]] {
            let picked = select_models(&grid, &[(&ds).into()], 3, 1).pop().expect("one selection");
            assert_eq!(picked.search.best, poly);
            assert!(picked.search.best_score.is_finite());
        }
        // nothing finite to prefer: first in grid order, as for all-INFINITY
        let grid = [diverging.clone(), diverging];
        let picked = select_models(&grid, &[(&ds).into()], 3, 1).pop().expect("one selection");
        assert!(picked.search.best_score.is_nan());
    }
}
