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

import logging
import math
import re
import time
import warnings
from array import array
from dataclasses import asdict, dataclass
from functools import cached_property
from operator import itemgetter
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
from .ioutil import atomic_write_text, canonical_json, csv_rows
from .metrics import (
    ALPHA,
    DEFAULT_NUM_BINS,
    EvalRecord,
    MetricReport,
    RecordRowError,
    Records,
    RecordTable,
    _METRIC_NAMES,
    compute_metric_report,
    eval_record,
    paired_t_test_one_sided,
    record_table,
)
from .model import (
    AdamState,
    Batch,
    EncoderConfig,
    ModelParams,
    ParamBundle,
    adam_step,
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
        MethodSpec("ce", losses_mod.LOSS_CE, "softmax", DECODE_ARGMAX),
        MethodSpec("ce_soft", losses_mod.LOSS_CE_SOFT, "softmax", DECODE_ARGMAX),
        MethodSpec("or_cnn", losses_mod.LOSS_OR_CNN, "independent", DECODE_COUNT),
        MethodSpec("or_soft", losses_mod.LOSS_OR_SOFT, "independent", DECODE_COUNT),
        MethodSpec("coral", losses_mod.LOSS_OR_CNN, "shared-slope-bias", DECODE_COUNT),
        MethodSpec("coral_soft", losses_mod.LOSS_OR_SOFT, "shared-slope-bias", DECODE_COUNT),
        MethodSpec("corn", losses_mod.LOSS_CORN, "independent", DECODE_COUNT),
        MethodSpec("sord_ae", losses_mod.LOSS_SORD_AE, "softmax", DECODE_ARGMAX),
        MethodSpec("sord_se", losses_mod.LOSS_SORD_SE, "softmax", DECODE_ARGMAX),
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
        if self.num_bins < 1:
            raise InputError("num_bins must be >= 1")

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
    seed: int
    params: ModelParams
    history: tuple[EpochStats, ...]
    best_epoch: int


def predict_prob_matrix(params: ModelParams, method: str, features: np.ndarray) -> np.ndarray:
    """Per-example predicted class distributions, one row per feature row.

    Stacked params take (M, B, input_dim) features and give (M, B, K). A
    non-finite output, the sign of a diverged model, makes its row NaN.
    """
    spec = METHODS[method]
    logits = np.atleast_2d(forward(params, features))
    if spec.head_kind == "softmax":
        return softmax(logits)
    tasks = sigmoid(logits)
    lead = tasks.shape[:-1]
    tasks = tasks.reshape(-1, tasks.shape[-1])  # the rows of every model as one matrix
    if spec.loss_kind == losses_mod.LOSS_CORN:
        tasks = losses_mod.corn_unconditional(tasks)
    bad = ~np.isfinite(tasks).all(axis=-1, keepdims=True)
    probs = class_distribution_from_tasks(np.where(bad, 0.5, tasks))
    return np.where(bad, np.nan, probs).reshape(*lead, -1)


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
    """One model to train: its training rows, its validation rows and its seed."""

    train: Sequence[int]
    val: Sequence[int]
    seed: int


def _size_groups(sizes: np.ndarray, rows: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``rows`` split by ``sizes[rows]``, as (size, rows) pairs; models only share
    a stacked call when their arrays have the same shape."""
    sized = sizes[rows]
    return [(int(b), rows[sized == b]) for b in np.unique(sized)]


@np.errstate(over="ignore", invalid="ignore")  # a divergence is reported, not warned
def train_models(
    dataset: Dataset, config: TrainConfig, jobs: Sequence[ModelJob]
) -> list[Union[TrainOutcome, TrainingDiverged]]:
    """Train one model per job, all of them as one stacked model.

    Row i of the run's parameters, Adam state, gradient buffer and best
    snapshot is job i from the first step to the outcome. Each model keeps
    its own init, shuffle and tie-resample streams and its own Adam step
    count, and every loss, gradient and validation UW-MAE reduces over that
    model's own rows. The batch schedule is fixed for the run: a step of
    every model updates the rows in place, and a ragged last batch steps in
    groups of equal size on copies of its models' rows, written back. Each
    model's outcome is therefore the one it gets when trained alone.

    Snapshot rule: strictly lower validation UW-MAE replaces the incumbent,
    so ties keep the earliest epoch. A model with a non-finite loss or
    validation prediction fails as a :class:`TrainingDiverged`; its row keeps
    stepping unread, and its overflow prints no NumPy warning.
    """
    method = METHODS[config.method]
    ties = resolve_ties(dataset, config.tie_policy)
    mask = ties.eval_mask()
    train_idx, val_idx = [], []
    for job in jobs:
        if len(job.train) == 0 or len(job.val) == 0:
            raise InputError("train and validation sets must be non-empty")
        keep = [i for i in job.val if mask[i]]
        if not keep:
            raise InputError("every validation example is tie-excluded; cannot select a model")
        train_idx.append(np.asarray(job.train, dtype=np.int64))
        val_idx.append(np.asarray(keep, dtype=np.int64))
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

    def gather(rows: np.ndarray) -> tuple[ModelParams, AdamState]:
        return params.with_flat(flat[rows]), AdamState(
            adam.m[rows], adam.v[rows], adam.step[rows], config.lr)

    resampling = (method.loss_kind in losses_mod.HARD_TARGET_LOSSES
                  and config.tie_policy == TIE_POLICY_RESAMPLE)
    shuffles = [np.random.default_rng([s, _STREAM_SHUFFLE]) for s in seeds]
    tie_rngs = [np.random.default_rng([s, _STREAM_TIE_RESAMPLE]) for s in seeds]
    labels = np.empty((n_models, len(dataset)), dtype=np.int64) if resampling else None
    targets_of = {losses_mod.LOSS_CE_SOFT: dataset.soft,
                  losses_mod.LOSS_OR_SOFT: dataset.exceed}.get(method.loss_kind, dataset.hard)
    n_train = np.array([idx.size for idx in train_idx])
    order = np.zeros((n_models, n_train.max()), dtype=np.int64)
    everyone, shortest = np.arange(n_models), int(n_train.min())

    val_groups = []
    for _, rows in _size_groups(np.array([idx.size for idx in val_idx]), everyone):
        vidx = np.stack([val_idx[i] for i in rows])
        weight = dataset.soft[vidx].max(axis=-1)
        val_groups.append((rows, dataset.features[vidx], weight,
                           dataset.hard[vidx].astype(np.float64), weight.sum(axis=-1)))
    decode_rule = config.effective_decode
    schedule = []  # each batch start with its (size, rows) groups, fixed for the run
    for start in range(0, int(n_train.max()), config.batch_size):
        if start + config.batch_size <= shortest:
            schedule.append((start, [(config.batch_size, everyone)]))  # a full batch for all
        else:
            sizes = np.minimum(n_train - start, config.batch_size)
            schedule.append((start, _size_groups(sizes, everyone[sizes > 0])))

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
                labels[i] = ties.sample_hard_labels(tie_rngs[i])
            order[i, : n_train[i]] = train_idx[i][shuffles[i].permutation(n_train[i])]
        loss_sum = np.zeros(n_models)
        for start, groups in schedule:
            for size, rows in groups:
                idx = order[rows, start : start + size]
                targets = labels[rows[:, None], idx] if resampling else targets_of[idx]
                batch = Batch(dataset.features[idx], targets)
                whole = rows.size == n_models
                step_params, step_adam = (params, adam) if whole else gather(rows)
                loss, step_grad = loss_and_gradient(step_params, batch, method.loss_kind,
                                                    out=grad if whole else None)
                finite = np.isfinite(loss)
                if not finite.all():
                    diverge(rows[~finite], "loss")
                adam_step(step_params, step_grad, step_adam, out=(step_params, step_adam))
                if not whole:
                    flat[rows], adam.m[rows], adam.v[rows], adam.step[rows] = (
                        step_params.bundle.flat, step_adam.m, step_adam.v, step_adam.step)
                loss_sum[rows] += loss * size
        train_loss = (loss_sum / n_train).tolist()

        for rows, features, weight, hard, weight_sum in val_groups:
            probs = predict_prob_matrix(
                params if rows.size == n_models else params.with_flat(flat[rows]),
                config.method, features)
            finite = np.isfinite(probs).all(axis=(1, 2))
            if not finite.all():
                diverge(rows[~finite], "validation prediction")
            keep = alive[rows]
            if not keep.all():
                rows, probs, weight, hard, weight_sum = (
                    a[keep] for a in (rows, probs, weight, hard, weight_sum))
                if not rows.size:
                    continue
            preds = decode_distribution(probs, decode_rule).astype(np.float64)
            maes = (weight * np.abs(preds - hard)).sum(axis=-1) / weight_sum
            for i, mae in zip(rows.tolist(), maes.tolist()):
                histories[i].append(EpochStats(epoch=epoch, train_loss=train_loss[i],
                                               val_uw_mae=mae))
            improved = maes < best_mae[rows]
            better = rows[improved]
            best[better] = flat[better]
            best_mae[better] = maes[improved]
            best_epoch[better] = epoch

    return [
        failed[i] if i in failed else TrainOutcome(
            seed=seeds[i], params=inits[i].with_flat(best[i].copy()),
            history=tuple(histories[i]), best_epoch=int(best_epoch[i]))
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


@np.errstate(over="ignore", invalid="ignore")
def _test_probabilities(
    dataset: Dataset, config: TrainConfig, tests: Sequence[np.ndarray],
    outcomes: Sequence[Union[TrainOutcome, TrainingDiverged]],
) -> list[Optional[np.ndarray]]:
    """Each model's distributions on its test rows (None if it diverged), stacked by test size."""
    probs: list[Optional[np.ndarray]] = [None] * len(outcomes)
    trained = np.array([isinstance(o, TrainOutcome) for o in outcomes])
    for _, rows in _size_groups(np.array([t.size for t in tests]), np.flatnonzero(trained)):
        params = outcomes[rows[0]].params.with_flat(
            np.stack([outcomes[i].params.bundle.flat for i in rows]))
        features = dataset.features[np.stack([tests[i] for i in rows])]
        for i, p in zip(rows.tolist(), predict_prob_matrix(params, config.method, features)):
            probs[i] = p
    return probs


def _log_progress(config: TrainConfig, trained: Sequence, seconds: float) -> None:
    """One info line per model, in job order; ``seconds`` is the stacked run's."""
    if not log.isEnabledFor(logging.INFO):
        return
    for j, outcome in enumerate(trained):
        fold, seed = j // len(config.seeds) + 1, config.seeds[j % len(config.seeds)]
        if isinstance(outcome, TrainingDiverged):
            log.info("%s fold %d seed %d: diverged (%s)", config.method, fold, seed, outcome)
            continue
        best = outcome.history[outcome.best_epoch - 1].val_uw_mae if outcome.best_epoch else None
        log.info(
            "%s fold %d seed %d: best epoch %d, val UW-MAE %s; stacked group of %d models,"
            " %.3f s, %.1f epochs/s",
            config.method, fold, seed, outcome.best_epoch,
            "n/a" if best is None else f"{best:.6f}", len(trained), seconds,
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
    (:func:`train_models`); ``jobs`` is accepted for compatibility and
    changes neither the work nor its result.
    """
    if split is None:
        split = stratified_k_fold(dataset, k, split_seed, config.val_fraction)
    k = len(split.folds)
    mask = resolve_ties(dataset, config.tie_policy).eval_mask()
    n_seeds = len(config.seeds)  # job j is fold j // n_seeds, seed config.seeds[j % n_seeds]
    start = time.perf_counter()
    trained = train_models(
        dataset, config,
        [ModelJob(fold.train, fold.val, seed) for fold in split.folds for seed in config.seeds],
    )
    _log_progress(config, trained, time.perf_counter() - start)
    tests = [np.asarray(fold.test, dtype=np.int64) for fold in split.folds]
    probs = _test_probabilities(dataset, config, [t for t in tests for _ in config.seeds], trained)

    fold_outcomes: list[FoldOutcome] = []
    for fi in range(k):
        own = slice(fi * n_seeds, (fi + 1) * n_seeds)
        done = [o for o in trained[own] if isinstance(o, TrainOutcome)]
        failures = [o for o in trained[own] if isinstance(o, TrainingDiverged)]
        keep = mask[tests[fi]]  # tie-excluded examples leave evaluation
        error, report, records = "", None, ()
        if failures:
            error = str(failures[0])
        elif not keep.any():
            error = "no evaluable test examples after tie exclusion"
        elif not np.isfinite(kept := np.mean(np.asarray(probs[own]), axis=0)[keep]).all():
            error = f"{config.method}: non-finite ensemble test prediction"
        else:
            test_kept = tests[fi][keep]
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


_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted only when it holds a comma, a quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if _CSV_SPECIAL.search(text) else text


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
        f"{_csv_field(example_id)},{hard},{pred_hard}," + ",".join(map(repr, row))
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


def _record_columns(path, header: list[str]) -> _RecordColumns:
    soft_cols = [i for i, name in enumerate(header) if name.startswith("soft_")]
    pred_cols = [i for i, name in enumerate(header) if name.startswith("pred_") and name != "pred_hard"]
    try:
        id_col = header.index("id")
        hard_col = header.index("hard")
        pred_hard_col = header.index("pred_hard")
        weight_col = header.index("weight")
    except ValueError as missing:
        raise InputError(f"{path}: records header is missing a column: {missing}") from None
    if not soft_cols or len(soft_cols) != len(pred_cols):
        raise InputError(f"{path}: records header needs matching soft_/pred_ columns")
    return _RecordColumns(id=id_col, hard=hard_col, pred_hard=pred_hard_col, weight=weight_col,
                          soft=tuple(soft_cols), pred=tuple(pred_cols))


def read_records_csv(path) -> RecordTable:
    """Rebuild the RecordTable of an exported records.csv, bit-exact.

    Rows stream into flat typed buffers, and the table checks them once. A
    bad row raises InputError naming the file, the 1-based line of the first
    failing row and the check it fails.
    """
    floats = array("d")  # weight, soft_1..soft_K, pred_1..pred_K per row
    labels = array("q")  # hard, pred_hard per row
    ids: list[str] = []
    lines = array("q")
    unparsed = None  # (line, row) of the first row whose fields do not parse
    with csv_rows(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty records file") from None
        cols = _record_columns(path, header)
        get_floats = itemgetter(cols.weight, *cols.soft, *cols.pred)
        get_labels = itemgetter(cols.hard, cols.pred_hard)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                example_id = row[cols.id]
                row_floats = tuple(map(float, get_floats(row)))
                labels.extend(map(int, get_labels(row)))
            except (IndexError, ValueError, OverflowError):
                unparsed = (line_no, row)
                break
            floats.extend(row_floats)
            ids.append(example_id)
            lines.append(line_no)
    if not ids and unparsed is None:
        raise InputError(f"{path}: no records")
    if ids:
        n, k = len(ids), len(cols.soft)
        numbers = np.frombuffer(floats, dtype=np.float64).reshape(n, 1 + 2 * k)
        classes = np.frombuffer(labels, dtype=np.int64, count=2 * n).reshape(n, 2)
        try:
            table = RecordTable(ids=tuple(ids), soft=numbers[:, 1 : 1 + k],
                                pred=numbers[:, 1 + k :], hard=classes[:, 0],
                                pred_hard=classes[:, 1], weight=numbers[:, 0])
        except RecordRowError as err:
            raise InputError(f"{path} line {lines[err.row]}: {err}") from None
    if unparsed is not None:
        # every earlier row passed; the per-field parse names what is wrong here
        line_no, row = unparsed
        try:
            cols.record(row)
        except (ValueError, InputError) as err:
            raise InputError(f"{path} line {line_no}: {err}") from None
        raise InputError(f"{path} line {line_no}: the row does not parse")
    return table


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
    folds = []
    for fold in result.folds:
        if fold.status == "ok":
            doc = fold.report.to_dict()
            folds.append(
                {
                    "fold": fold.fold,
                    "status": "ok",
                    "metrics": doc["metrics"],
                    "num_records": doc["num_records"],
                    "missing_classes": doc["missing_classes"],
                    "undefined": doc["undefined"],
                    "best_epochs": {str(s): e for s, e in fold.best_epochs.items()},
                }
            )
        else:
            folds.append({"fold": fold.fold, "status": "failed", "error": fold.error})
    return {
        "mean": result.mean,
        "std": result.std,
        "partial": result.partial,
        "folds": folds,
    }


def build_summary(blocks: dict[str, dict], config_doc: dict, dataset_doc: dict,
                  meta: dict) -> dict:
    """Assemble summary.json from each method's :func:`result_summary_block`.

    Everything volatile must arrive inside ``meta``.
    """
    return {"meta": meta, "config": config_doc, "dataset": dataset_doc, "methods": blocks}


def write_summary(out_dir, doc: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / SUMMARY_FILE, canonical_json(doc))
