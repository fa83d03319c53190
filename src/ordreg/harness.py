"""Experiment orchestration: training loops, cross-validation, method comparison.

A method name binds a loss to its head and a default decode rule:

    ce, ce_soft          softmax head, argmax decode
    sord_ae, sord_se     softmax head, argmax decode
    or_cnn, or_soft      independent task head, counting decode
    coral, coral_soft    shared-slope-bias task head, counting decode
    corn                 independent task head (conditional), counting decode

The cross-validation pipeline per fold: train one model per seed, average the
predicted class distributions across seeds, decode the ensemble, evaluate on
the non-tied test examples. Model selection within a training run snapshots
the epoch with the lowest validation uncertainty-weighted MAE.

Determinism contract: every number in an ExperimentResult is fixed by the
dataset, the split seed, and the config. All (fold, seed) models of a method
train as one stacked model, each with the bits it gets when trained alone;
the reduce is ordered.
"""

from __future__ import annotations

import csv
import logging
import math
import time
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import losses as losses_mod
from .core import (
    ClassDistribution,
    InputError,
    RatingDistribution,
    _count_rows,
    class_distribution_from_tasks,
    class_max,
    decode_argmax,
    exceedance_from_soft,
)
from .data import (
    ALL_TIE_POLICIES,
    Dataset,
    FoldSplit,
    TIE_POLICY_RESAMPLE,
    resolve_ties,
    stratified_k_fold,
    train_val_split,
)
from .ioutil import atomic_write_text, canonical_json, csv_field, csv_rows
from .metrics import (
    ALPHA,
    DEFAULT_NUM_BINS,
    EvalRecord,
    MetricReport,
    RecordRowError,
    Records,
    RecordTable,
    _METRIC_NAMES,
    check_num_bins,
    compute_metric_report,
    eval_record,
    paired_t_test_one_sided,
    record_table,
)
from .model import (
    HEAD_INDEPENDENT,
    HEAD_SHARED_SLOPE_BIAS,
    HEAD_SOFTMAX,
    AdamState,
    Batch,
    EncoderConfig,
    ModelParams,
    ParamBundle,
    _check_features,
    adam_step,
    class_rows,
    forward,
    init_params,
    loss_and_gradient,
    sigmoid,
    softmax,
)

DECODE_COUNT = "count"
DECODE_ARGMAX = "argmax"
ALL_DECODES = (DECODE_COUNT, DECODE_ARGMAX)

# per-operation RNG streams (see data.py for the dataset-side constants)
_STREAM_SHUFFLE = 41
_STREAM_TIE_RESAMPLE = 42

_TILE = 64  # rows per gemm in prediction: a gemm's row bits depend on its row count

log = logging.getLogger(__name__)

METRICS_FILE = "metrics.json"
RECORDS_FILE = "records.csv"
HISTORY_FILE = "history.csv"
SUMMARY_FILE = "summary.json"


class TrainingDiverged(RuntimeError):
    """Raised when a training run produces a non-finite loss or validation prediction."""


@dataclass(frozen=True)
class MethodSpec:
    name: str
    loss_kind: str
    head_kind: str
    default_decode: str


METHODS: dict[str, MethodSpec] = {
    m.name: m
    for m in (
        MethodSpec("ce", losses_mod.LOSS_CE, HEAD_SOFTMAX, DECODE_ARGMAX),
        MethodSpec("ce_soft", losses_mod.LOSS_CE_SOFT, HEAD_SOFTMAX, DECODE_ARGMAX),
        MethodSpec("or_cnn", losses_mod.LOSS_OR_CNN, HEAD_INDEPENDENT, DECODE_COUNT),
        MethodSpec("or_soft", losses_mod.LOSS_OR_SOFT, HEAD_INDEPENDENT, DECODE_COUNT),
        MethodSpec("coral", losses_mod.LOSS_OR_CNN, HEAD_SHARED_SLOPE_BIAS, DECODE_COUNT),
        MethodSpec("coral_soft", losses_mod.LOSS_OR_SOFT, HEAD_SHARED_SLOPE_BIAS, DECODE_COUNT),
        MethodSpec("corn", losses_mod.LOSS_CORN, HEAD_INDEPENDENT, DECODE_COUNT),
        MethodSpec("sord_ae", losses_mod.LOSS_SORD_AE, HEAD_SOFTMAX, DECODE_ARGMAX),
        MethodSpec("sord_se", losses_mod.LOSS_SORD_SE, HEAD_SOFTMAX, DECODE_ARGMAX),
    )
}


@dataclass(frozen=True)
class TrainConfig:
    """One method's training settings. ``decode=None`` keeps the method default.
    ``val_fraction`` is the share of each fold's non-test examples kept for
    *training*, class by class; the rest validates."""

    method: str
    encoder: EncoderConfig
    epochs: int = 1000
    batch_size: int = 16
    lr: float = 1e-5
    seeds: tuple[int, ...] = (0, 1, 2)
    val_fraction: float = 0.8
    decode: Optional[str] = None
    tie_policy: str = TIE_POLICY_RESAMPLE
    num_bins: int = DEFAULT_NUM_BINS

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InputError(
                f"unknown method {self.method!r}; valid: {', '.join(sorted(METHODS))}"
            )
        if self.epochs < 1 or self.batch_size < 1:
            raise InputError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InputError(f"lr must be a finite number > 0, got {self.lr}")
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds or len(set(seeds)) != len(seeds) or min(seeds) < 0:
            raise InputError("seeds must be a non-empty list of distinct integers >= 0")
        object.__setattr__(self, "seeds", seeds)
        if not 0.0 < self.val_fraction < 1.0:
            raise InputError("val_fraction must lie strictly between 0 and 1")
        if self.decode is not None and self.decode not in ALL_DECODES:
            raise InputError(f"decode must be one of {ALL_DECODES}, got {self.decode!r}")
        if self.tie_policy not in ALL_TIE_POLICIES:
            raise InputError(
                f"tie_policy must be one of {ALL_TIE_POLICIES}, got {self.tie_policy!r}"
            )
        check_num_bins(self.num_bins)

    @property
    def effective_decode(self) -> str:
        return self.decode if self.decode is not None else METHODS[self.method].default_decode


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_uw_mae: float


@dataclass(frozen=True)
class TrainOutcome:
    """A model's best snapshot, its history, and the snapshot's (len(job.test), K) test rows."""

    seed: int
    params: ModelParams
    history: tuple[EpochStats, ...]
    best_epoch: int
    test_probs: np.ndarray


def predict_prob_matrix(params: ModelParams, method: str, features: np.ndarray) -> np.ndarray:
    """Per-example predicted class distributions, one row per feature row.

    Stacked params take (M, B, input_dim) features and give (M, B, K). Rows go
    through the model in zero-padded tiles of ``_TILE`` rows, so a row's bits
    depend only on the row and its model. A non-finite output, the sign of a
    diverged model, makes its row NaN.
    """
    spec = METHODS[method]
    x = np.asarray(features, dtype=np.float64)
    x = x if params.stacked else np.atleast_2d(x)
    _check_features(params, x, "features")
    flat = np.atleast_2d(params.bundle.flat)  # one model is M = 1
    m, (n, d) = len(flat), x.shape[-2:]
    if n == 0:  # no rows, nothing for a head to decode
        return np.zeros(x.shape[:-1] + (params.num_classes,))
    tiles = -(-n // _TILE)
    padded = np.zeros((m, tiles * _TILE, d))
    padded[:, :n] = x
    logits = forward(params.with_flat(np.repeat(flat, tiles, axis=0)), padded.reshape(-1, _TILE, d))
    k = logits.shape[-1]
    logits = logits.reshape(m, -1, k)[:, :n].reshape(-1, k)  # every model's rows as one matrix
    if spec.head_kind == HEAD_SOFTMAX:
        probs = softmax(logits)
    else:
        tasks = sigmoid(logits)
        if spec.loss_kind == losses_mod.LOSS_CORN:
            tasks = losses_mod.corn_unconditional(tasks)
        bad = ~np.isfinite(tasks).all(axis=-1, keepdims=True)
        probs = np.where(bad, np.nan, class_distribution_from_tasks(np.where(bad, 0.5, tasks)))
    return probs.reshape(x.shape[:-1] + probs.shape[-1:])


def decode_distribution(
    dist: Union[ClassDistribution, np.ndarray], rule: str
) -> Union[int, np.ndarray]:
    """Hard classes from predicted distributions under the given decode rule.

    A (B, K) matrix of distributions gives an int array with one class per
    row, and an (M, B, K) stack gives (M, B); one :class:`ClassDistribution`
    gives an int. Argmax sends exact ties to the lowest class; the count
    decode is 1 + #{k : P(y > k) > 0.5}.
    """
    if rule not in ALL_DECODES:
        raise InputError(f"decode must be one of {ALL_DECODES}, got {rule!r}")
    single = isinstance(dist, ClassDistribution)
    probs = dist.probs[None, :] if single else np.asarray(dist)
    lead = probs.shape[:-1]
    if probs.ndim == 3:
        probs = probs.reshape(-1, probs.shape[-1])
    if rule == DECODE_ARGMAX:
        classes = decode_argmax(probs)
    else:
        classes = _count_rows(exceedance_from_soft(probs))  # checked rows give checked tails
    return int(classes[0]) if single else classes.reshape(lead)


@dataclass(frozen=True)
class ModelJob:
    """One model to train: its training rows, its validation rows, its seed, and
    the rows its best snapshot scores once training ends (none by default)."""

    train: Sequence[int]
    val: Sequence[int]
    seed: int
    test: Sequence[int] = ()


def _own_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Each model's example indices, padded to the widest with copies of its own."""
    width = max(r.size for r in rows)
    return np.stack([np.resize(r, width) for r in rows])


@np.errstate(over="ignore", invalid="ignore")  # a divergence is reported, not warned
def train_models(
    dataset: Dataset, config: TrainConfig, jobs: Sequence[ModelJob]
) -> list[Union[TrainOutcome, TrainingDiverged]]:
    """Train one model per job, all of them as one stacked model, and score
    each job's test rows with its best snapshot.

    Row i of the run's parameters, Adam state, gradient buffer and best
    snapshot is job i from the first step to the outcome. Each model keeps
    its own init, shuffle and tie-resample streams and its own Adam step
    count, and every loss, gradient and validation UW-MAE reduces over that
    model's own rows. Every step is one in-place call on all models, W =
    min(batch_size, N) rows each: a model with r < W rows left fills up with
    inert pad rows and takes the mean over its r real rows, and one past its
    last batch gets its rows back after the Adam step. Each model's outcome
    is therefore the one it gets when trained alone.

    Snapshot rule: strictly lower validation UW-MAE replaces the incumbent,
    so ties keep the earliest epoch. A model with a non-finite loss or
    validation prediction fails as a :class:`TrainingDiverged`; its row keeps
    stepping unread, and its overflow prints no NumPy warning. The run ends
    with one stacked prediction of the best snapshots on every job's test rows,
    which each outcome holds as ``test_probs``; a diverged job carries none.
    """
    method = METHODS[config.method]
    ties = resolve_ties(dataset, config.tie_policy)
    mask = ties.eval_mask()
    train_idx, val_idx, test_idx = [], [], []
    for job in jobs:
        if len(job.train) == 0 or len(job.val) == 0:
            raise InputError("train and validation sets must be non-empty")
        keep = [i for i in job.val if mask[i]]
        if not keep:
            raise InputError("every validation example is tie-excluded; cannot select a model")
        train_idx.append(np.asarray(job.train, dtype=np.int64))
        val_idx.append(np.asarray(keep, dtype=np.int64))
        test_idx.append(np.asarray(job.test, dtype=np.int64))
    if not jobs:
        return []
    seeds = [int(job.seed) for job in jobs]
    n_models = len(jobs)
    inits = [init_params(config.encoder, method.head_kind, dataset.spec, s) for s in seeds]
    flat = np.stack([p.bundle.flat for p in inits])
    params = inits[0].with_flat(flat)
    adam = AdamState(np.zeros_like(flat), np.zeros_like(flat),
                     np.zeros(n_models, dtype=np.int64), config.lr)
    grad = ParamBundle(np.empty(flat.shape), params.bundle.layout)

    # every kind steps on float target rows, a hard label y on row y-1 of its class rows;
    # row `pad` fills short batches: zero features and a zero target row
    pad, hard = len(dataset), method.loss_kind in losses_mod.HARD_TARGET_LOSSES
    table = class_rows(method.loss_kind, dataset.spec.num_classes) if hard else None
    targets_of = table[dataset.hard - 1] if hard else (
        dataset.soft if method.loss_kind == losses_mod.LOSS_CE_SOFT else dataset.exceed)
    targets_of = np.vstack([targets_of, np.zeros_like(targets_of[:1])])
    features = np.vstack([dataset.features, np.zeros((1, dataset.num_features))])
    resampling = hard and config.tie_policy == TIE_POLICY_RESAMPLE
    if resampling:  # each model's own rows, rewritten every epoch
        targets_of = np.repeat(targets_of[None], n_models, axis=0)
    shuffles = [np.random.default_rng([s, _STREAM_SHUFFLE]) for s in seeds]
    tie_rngs = [np.random.default_rng([s, _STREAM_TIE_RESAMPLE]) for s in seeds]
    n_train = np.array([idx.size for idx in train_idx])
    width = min(config.batch_size, len(dataset))  # no other job changes a model's step shape
    order = np.full((n_models, -(-int(n_train.max()) // width) * width), pad, dtype=np.int64)
    everyone = np.arange(n_models)

    n_val = np.array([idx.size for idx in val_idx])
    vidx = _own_rows(val_idx)
    val_x, val_hard = dataset.features[vidx], dataset.hard[vidx].astype(np.float64)
    val_weight = class_max(dataset.soft[vidx])
    weight_sum = np.array([w[:n].sum() for w, n in zip(val_weight, n_val)])
    decode_rule = config.effective_decode

    alive = np.ones(n_models, dtype=bool)
    failed: dict[int, TrainingDiverged] = {}
    best = flat.copy()
    best_mae = np.full(n_models, np.inf)
    best_epoch = np.zeros(n_models, dtype=np.int64)
    histories: list[list[EpochStats]] = [[] for _ in jobs]

    def diverge(rows: np.ndarray, what: str) -> None:
        for i in rows[alive[rows]].tolist():
            failed[i] = TrainingDiverged(
                f"{config.method} seed {seeds[i]}: non-finite {what} at epoch {epoch}")
        alive[rows] = False

    for epoch in range(1, config.epochs + 1):
        if len(failed) == n_models:
            break
        for i in range(n_models):
            if resampling:
                targets_of[i, :pad] = table[ties.sample_hard_labels(tie_rngs[i]) - 1]
            order[i, : n_train[i]] = train_idx[i][shuffles[i].permutation(n_train[i])]
        loss_sum = np.zeros(n_models)
        for start in range(0, order.shape[1], width):
            idx = order[:, start : start + width]
            targets = targets_of[everyone[:, None], idx] if resampling else targets_of[idx]
            real = np.maximum(np.minimum(n_train - start, width), 0)  # not np.clip: slower
            idle = np.flatnonzero(real == 0)  # past its last batch: a model keeps its rows
            kept = (flat[idle], adam.m[idle], adam.v[idle], adam.step[idle]) if idle.size else ()
            loss, _ = loss_and_gradient(params, Batch(features[idx], targets, real),
                                        method.loss_kind, out=grad)
            finite = np.isfinite(loss)
            if not finite.all():
                diverge(everyone[~finite], "loss")
            adam_step(params, grad, adam, out=(params, adam))
            if kept:
                flat[idle], adam.m[idle], adam.v[idle], adam.step[idle] = kept
            loss_sum += loss * real
        train_loss = (loss_sum / n_train).tolist()

        probs = predict_prob_matrix(params, config.method, val_x)
        finite = np.isfinite(probs).all(axis=(1, 2))
        if not finite.all():
            diverge(everyone[~finite], "validation prediction")
        rows = np.flatnonzero(alive)
        if not rows.size:
            continue
        preds = decode_distribution(probs[rows], decode_rule).astype(np.float64)
        errors = val_weight[rows] * np.abs(preds - val_hard[rows])
        # each model reduces over its own rows only, as it does when trained alone
        maes = np.array([e[:n].sum() for e, n in zip(errors, n_val[rows])]) / weight_sum[rows]
        for i, mae in zip(rows.tolist(), maes.tolist()):
            histories[i].append(EpochStats(epoch=epoch, train_loss=train_loss[i],
                                           val_uw_mae=mae))
        improved = maes < best_mae[rows]
        better = rows[improved]
        best[better] = flat[better]
        best_mae[better] = maes[improved]
        best_epoch[better] = epoch

    test_probs = predict_prob_matrix(params.with_flat(best), config.method,
                                     dataset.features[_own_rows(test_idx)])
    return [
        failed[i] if i in failed else TrainOutcome(
            seed=seeds[i], params=inits[i].with_flat(best[i].copy()),
            history=tuple(histories[i]), best_epoch=int(best_epoch[i]),
            test_probs=test_probs[i, : test_idx[i].size])
        for i in range(n_models)
    ]


def train_one(
    dataset: Dataset,
    config: TrainConfig,
    train_indices: Sequence[int],
    val_indices: Sequence[int],
    seed: int,
) -> TrainOutcome:
    """Train one model, snapshotting the best-validation epoch: the one-model
    case of :func:`train_models`. A diverged model raises :class:`TrainingDiverged`.
    """
    (outcome,) = train_models(dataset, config, [ModelJob(train_indices, val_indices, seed)])
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return outcome


@dataclass(frozen=True)
class FoldOutcome:
    """One fold's result; ``records`` is its RecordTable, or () when it failed."""

    fold: int
    status: str
    error: str
    report: Optional[MetricReport]
    records: Union[RecordTable, tuple[()]]
    best_epochs: dict[int, int]
    histories: dict[int, tuple[EpochStats, ...]]


@dataclass(frozen=True)
class ExperimentResult:
    """One method's folds; the aggregates cover the completed folds only."""

    method: str
    folds: tuple[FoldOutcome, ...]

    def completed_folds(self) -> tuple[FoldOutcome, ...]:
        return tuple(f for f in self.folds if f.status == "ok")

    @property
    def partial(self) -> bool:
        """True when some fold failed."""
        return len(self.completed_folds()) < len(self.folds)

    @property
    def mean(self) -> dict[str, Optional[float]]:
        """Per metric, the mean over the completed folds where it is defined."""
        return dict(self._aggregates[0])

    @property
    def std(self) -> dict[str, Optional[float]]:
        """Per metric, the sample standard deviation; None below two defined folds."""
        return dict(self._aggregates[1])

    @cached_property
    def _aggregates(self) -> tuple[dict[str, Optional[float]], dict[str, Optional[float]]]:
        reports = [f.report for f in self.completed_folds()]
        return _aggregate(reports) if reports else ({}, {})


def _log_progress(config: TrainConfig, trained: Sequence, seconds: float) -> None:
    """One info line per model, in job order; ``seconds`` is the stacked run's."""
    if not log.isEnabledFor(logging.INFO):
        return
    for j, outcome in enumerate(trained):
        fold, seed = j // len(config.seeds) + 1, config.seeds[j % len(config.seeds)]
        if isinstance(outcome, TrainingDiverged):
            log.info("%s fold %d seed %d: diverged (%s)", config.method, fold, seed, outcome)
            continue
        log.info(
            "%s fold %d seed %d: best epoch %d, val UW-MAE %.6f; stacked group of %d models,"
            " %.3f s, %.1f epochs/s",
            config.method, fold, seed, outcome.best_epoch,
            outcome.history[outcome.best_epoch - 1].val_uw_mae, len(trained), seconds,
            config.epochs / seconds if seconds > 0 else float("inf"),
        )


def _aggregate(
    reports: Sequence[MetricReport],
) -> tuple[dict[str, Optional[float]], dict[str, Optional[float]]]:
    mean: dict[str, Optional[float]] = {}
    std: dict[str, Optional[float]] = {}
    for name in _METRIC_NAMES:
        values = [r[name] for r in reports if r[name] is not None]
        mean[name] = float(np.mean(values)) if values else None
        std[name] = float(np.std(values, ddof=1)) if len(values) >= 2 else None
    return mean, std


def run_cv(
    dataset: Dataset,
    config: TrainConfig,
    k: int = 5,
    split_seed: int = 0,
    jobs: int = 1,
    split: Optional[FoldSplit] = None,
) -> ExperimentResult:
    """Cross-validated evaluation of one method with per-fold seed ensembling.

    The folds are ``split``, which a run of several methods makes once, or
    else ``stratified_k_fold(dataset, k, split_seed, config.val_fraction)``.
    Every (fold, seed) model trains in one stacked run in this process
    (:func:`train_models`), which also predicts each model's test fold; a
    fold's ensemble is the mean of its seeds' ``test_probs``. ``jobs`` is
    accepted for compatibility and changes neither the work nor its result.
    """
    if split is None:
        split = stratified_k_fold(dataset, k, split_seed, config.val_fraction)
    k = len(split.folds)
    mask = resolve_ties(dataset, config.tie_policy).eval_mask()
    n_seeds = len(config.seeds)  # job j is fold j // n_seeds, seed config.seeds[j % n_seeds]
    start = time.perf_counter()
    trained = train_models(
        dataset, config,
        [ModelJob(fold.train, fold.val, seed, fold.test)
         for fold in split.folds for seed in config.seeds],
    )
    _log_progress(config, trained, time.perf_counter() - start)

    fold_outcomes: list[FoldOutcome] = []
    for fi, fold in enumerate(split.folds):
        own = trained[fi * n_seeds : (fi + 1) * n_seeds]
        done = [o for o in own if isinstance(o, TrainOutcome)]
        failures = [o for o in own if isinstance(o, TrainingDiverged)]
        test = np.asarray(fold.test, dtype=np.int64)
        keep = mask[test]  # tie-excluded examples leave evaluation
        error, report, records = "", None, ()
        if failures:
            error = str(failures[0])
        elif not keep.any():
            error = "no evaluable test examples after tie exclusion"
        elif not np.isfinite(kept := np.mean([o.test_probs for o in done], axis=0)[keep]).all():
            error = f"{config.method}: non-finite ensemble test prediction"
        else:
            test_kept = test[keep]
            records = eval_record(
                soft=dataset.soft[test_kept],
                pred_dist=kept,
                pred_hard=decode_distribution(kept, config.effective_decode),
                example_id=[dataset.ids[i] for i in test_kept],
            )
            report = compute_metric_report(records, config.num_bins)
        fold_outcomes.append(
            FoldOutcome(fold=fi + 1, status="failed" if error else "ok", error=error,
                        report=report, records=records,
                        best_epochs={o.seed: o.best_epoch for o in done},
                        histories={o.seed: o.history for o in done})
        )

    result = ExperimentResult(method=config.method, folds=tuple(fold_outcomes))
    if result.partial:
        warnings.warn(
            f"{config.method}: {k - len(result.completed_folds())} of {k} folds failed; "
            "aggregates cover completed folds only",
            stacklevel=2,
        )
    return result


def train_single(
    dataset: Dataset, config: TrainConfig, split_seed: int = 0
) -> list[TrainOutcome]:
    """Train one model per seed on a stratified train/val split of the whole set."""
    train, val = train_val_split(
        range(len(dataset)), dataset.hard, config.val_fraction, split_seed
    )
    outcomes = train_models(dataset, config, [ModelJob(train, val, s) for s in config.seeds])
    for outcome in outcomes:
        if isinstance(outcome, TrainingDiverged):
            raise outcome
    return outcomes


@dataclass(frozen=True)
class Comparison:
    """Paired one-sided fold-level test between two methods on one metric."""

    method_a: str
    method_b: str
    metric: str
    direction: str
    folds: tuple[int, ...]
    per_fold_a: tuple[float, ...]
    per_fold_b: tuple[float, ...]
    p_value: float
    alpha: float
    significant: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "folds": list(self.folds),
                "per_fold_a": list(self.per_fold_a), "per_fold_b": list(self.per_fold_b)}


def compare_methods(
    result_a: ExperimentResult,
    result_b: ExperimentResult,
    metric: str,
    direction: str,
) -> Comparison:
    """Significance of method a vs b at level ``metrics.ALPHA``, paired across
    the folds both completed.

    An unknown metric, or one undefined on a fold, raises InputError."""
    if metric not in _METRIC_NAMES:
        raise InputError(f"unknown metric {metric!r}; valid: {', '.join(_METRIC_NAMES)}")
    folds_a = {f.fold: f for f in result_a.completed_folds()}
    folds_b = {f.fold: f for f in result_b.completed_folds()}
    if set(folds_a) != set(folds_b) or not folds_a:
        raise InputError("results do not share an identical set of completed folds")
    order = sorted(folds_a)
    values_a, values_b = [], []
    for fold in order:
        va = folds_a[fold].report[metric]
        vb = folds_b[fold].report[metric]
        if va is None or vb is None:
            raise InputError(f"metric {metric!r} is undefined on fold {fold}")
        values_a.append(va)
        values_b.append(vb)
    p = paired_t_test_one_sided(values_a, values_b, direction)
    return Comparison(
        method_a=result_a.method,
        method_b=result_b.method,
        metric=metric,
        direction=direction,
        folds=tuple(order),
        per_fold_a=tuple(values_a),
        per_fold_b=tuple(values_b),
        p_value=p,
        alpha=ALPHA,
        significant=p < ALPHA,
    )


# ===== result files =====
#
# results/<method>/fold_<i>/{metrics.json, records.csv, history.csv} plus
# results/summary.json. metrics.json and records.csv are free of volatile
# fields so re-running the metrics over the records reproduces the json
# byte for byte; timestamps and process facts live only in summary's meta.


def _fmt(x: float) -> str:
    return repr(float(x))  # shortest round-trip decimal


def records_csv_text(records: Records) -> str:
    if not records:
        raise InputError("no records to export")
    t = record_table(records)
    k = t.num_classes
    header = (
        ["id", "hard", "pred_hard", "weight"]
        + [f"soft_{c}" for c in range(1, k + 1)]
        + [f"pred_{c}" for c in range(1, k + 1)]
    )
    # tolist() gives Python floats, whose repr is the shortest round-trip decimal
    numbers = np.column_stack([t.weight, t.soft, t.pred]).tolist()
    lines = [",".join(header)]
    lines += [
        f"{csv_field(example_id)},{hard},{pred_hard}," + ",".join(map(repr, row))
        for example_id, hard, pred_hard, row in zip(
            t.ids, t.hard.tolist(), t.pred_hard.tolist(), numbers
        )
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _RecordColumns:
    """Where each field of a records.csv row sits, from its header."""

    id: int
    hard: int
    pred_hard: int
    weight: int
    soft: tuple[int, ...]
    pred: tuple[int, ...]

    @property
    def width(self) -> int:
        """The number of fields a row needs."""
        return max(self.id, self.hard, self.pred_hard, self.weight, *self.soft, *self.pred) + 1

    def record(self, row: list[str]) -> EvalRecord:
        """One row parsed and checked field by field, in the order of the record checks."""
        try:
            soft = np.asarray([float(row[i]) for i in self.soft])
            pred = np.asarray([float(row[i]) for i in self.pred])
            return EvalRecord(
                soft=RatingDistribution(soft),
                hard=int(row[self.hard]),
                pred_dist=ClassDistribution(pred),
                pred_hard=int(row[self.pred_hard]),
                weight=float(row[self.weight]),
                example_id=row[self.id],
            )
        except IndexError:
            raise InputError(f"the row has {len(row)} fields; the header needs {self.width}") from None


def _record_columns(header: list[str]) -> _RecordColumns:
    """Where the fields sit: soft_1..soft_K and pred_1..pred_K in any order, each by its number."""
    soft_cols = [i for i, name in enumerate(header) if name.startswith("soft_")]
    pred_cols = [i for i, name in enumerate(header) if name.startswith("pred_") and name != "pred_hard"]
    try:
        id_col, hard_col, pred_hard_col, weight_col = map(
            header.index, ("id", "hard", "pred_hard", "weight"))
    except ValueError as missing:
        raise InputError(f"records header is missing a column: {missing}") from None
    if not soft_cols or len(soft_cols) != len(pred_cols):
        raise InputError("records header needs matching soft_/pred_ columns")
    k = len(soft_cols)
    place = {f"{prefix}{c}": -1 for prefix in ("soft_", "pred_") for c in range(1, k + 1)}
    for i in sorted(soft_cols + pred_cols):
        if place.get(header[i], 0) >= 0:
            fault = "repeats" if header[i] in place else "has"
            raise InputError(f"records header {fault} column {header[i]!r}; the class"
                             f" columns are soft_1..soft_{k} and pred_1..pred_{k}")
        place[header[i]] = i
    columns = tuple(place.values())  # soft_1..soft_K, then pred_1..pred_K
    return _RecordColumns(id=id_col, hard=hard_col, pred_hard=pred_hard_col, weight=weight_col,
                          soft=columns[:k], pred=columns[k:])


def _each_once(convert, column: list[str]) -> list:
    """``convert`` of each field, called once per distinct string (votes and labels repeat)."""
    memo = {field: convert(field) for field in dict.fromkeys(column)}
    return list(map(memo.__getitem__, column))


def _read_plain_records(path) -> Optional[RecordTable]:
    """The table of a records.csv whose rows are its lines split at commas (no quote, CR
    or NUL, no blank line, rows as wide as the header, no line over the csv field
    limit), read in blocks of about 128 KiB of lines, a column at a time; else None."""
    ids, numbers, classes, cols = [], [], [], None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            width = (header := fh.readline()).count(",") + 1
            for lines in chain([[header]], iter(lambda: fh.readlines(1 << 17), [])):
                text = ",".join(lines)
                fields = text.split(",")
                ends = fields[width - 1 :: width]
                # a line's newline ends its last field, so n newlines in the n
                # line-end fields make n rows of width fields (no blank line, and
                # a last line without its newline goes to the csv reader)
                if ('"' in text or "\r" in text or "\0" in text or len(fields) != len(lines) * width
                        or "".join(ends).count("\n") != len(lines)
                        or max(map(len, lines)) > csv.field_size_limit()):
                    return None
                fields[width - 1 :: width] = [end[:-1] for end in ends]
                if cols is None:
                    cols = _record_columns(fields)
                    continue
                numbers.append(np.array(
                    [_each_once(float, fields[c::width]) for c in (cols.weight, *cols.soft)]
                    + [list(map(float, fields[c::width])) for c in cols.pred]).T)
                classes.append(np.array([_each_once(int, fields[c::width])
                                         for c in (cols.hard, cols.pred_hard)], np.int64).T)
                ids += fields[cols.id :: width]
        except (ValueError, OverflowError):  # not UTF-8, a bad header or a bad field
            return None
    if not ids:
        return None
    numbers, classes, k = np.concatenate(numbers), np.concatenate(classes), len(cols.soft)
    try:
        return RecordTable(ids=tuple(ids), soft=numbers[:, 1 : 1 + k], pred=numbers[:, 1 + k :],
                           hard=classes[:, 0], pred_hard=classes[:, 1], weight=numbers[:, 0])
    except RecordRowError as err:  # row i of a plain file is its line i + 2
        raise InputError(f"{path}: line {err.row + 2}: {err}") from None


def _read_record_rows(path) -> RecordTable:
    """The table of a records.csv read row by row, each row checked as an EvalRecord.
    The first row that fails raises InputError naming the line it starts on."""
    records = []
    with csv_rows(path) as (header, rows):
        cols = _record_columns(header)
        for line_no, row in rows:
            try:
                records.append(cols.record(row))
            except ValueError as err:  # InputError included
                raise InputError(f"line {line_no}: {err}") from None
        if not records:
            raise InputError("no records")
    return record_table(records)


def read_records_csv(path) -> RecordTable:
    """Rebuild the RecordTable of an exported records.csv, bit-exact: a plain file
    split in blocks of lines and parsed a column at a time, any other by ``csv.reader``
    row by row. A bad row raises InputError naming the file, the 1-based line of the
    first failing row and the check it fails."""
    return _read_plain_records(path) or _read_record_rows(path)  # a table has N >= 1 rows


def history_csv_text(histories: dict[int, tuple[EpochStats, ...]]) -> str:
    lines = ["seed,epoch,train_loss,val_uw_mae"]
    for seed in sorted(histories):
        for stats in histories[seed]:
            lines.append(
                f"{seed},{stats.epoch},{_fmt(stats.train_loss)},{_fmt(stats.val_uw_mae)}"
            )
    return "\n".join(lines) + "\n"


def render_experiment_result(result: ExperimentResult) -> dict[str, dict[str, str]]:
    """Every file of one method's folds as text: ``<method>/fold_<i>`` -> file name -> text.

    A failed fold keeps its directory, with its history if any seed finished.
    """
    files: dict[str, dict[str, str]] = {}
    for fold in result.folds:
        texts = files[f"{result.method}/fold_{fold.fold}"] = {}
        if fold.histories:
            texts[HISTORY_FILE] = history_csv_text(fold.histories)
        if fold.status == "ok":
            texts[METRICS_FILE] = canonical_json(fold.report.to_dict())
            texts[RECORDS_FILE] = records_csv_text(fold.records)
    return files


def write_experiment_result(out_dir, files: dict[str, dict[str, str]]) -> None:
    """Write what :func:`render_experiment_result` made under ``out_dir``."""
    root = Path(out_dir)
    for folder, texts in files.items():
        path = root / folder
        path.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            atomic_write_text(path / name, text)


def result_summary_block(result: ExperimentResult) -> dict:
    folds = [{**fold.report.to_dict(), "fold": fold.fold, "status": "ok",
              "best_epochs": {str(s): e for s, e in fold.best_epochs.items()}}
             if fold.status == "ok"
             else {"fold": fold.fold, "status": "failed", "error": fold.error}
             for fold in result.folds]
    return {"mean": result.mean, "std": result.std, "partial": result.partial, "folds": folds}

