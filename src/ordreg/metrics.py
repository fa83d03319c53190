"""Evaluation suite over evaluated examples carrying rater-distribution labels.

Records are columns. A :class:`RecordTable` holds N evaluated examples: their
ids, the rating distributions ``soft`` (N, K), the predicted class
distributions ``pred`` (N, K), the mode ``hard``, the decoded prediction
``pred_hard`` and the agreement weight ``weight``, the fraction of raters that
chose the mode. A table is validated once, as whole arrays, when it is built;
every metric is then an array expression over its columns.

An :class:`EvalRecord` is one row of a table. Iterating a table yields its
rows, and every metric also accepts a sequence of EvalRecords, which it stacks
into a table once.

Conventions shared by the whole suite:

* "UW" metrics weigh example i by ``w_i``; unweighted variants set ``w_i = 1``.
* Confidence of a prediction is the max entry of the predicted distribution;
  "true accuracy" of a prediction is the soft-label mass on the predicted
  class, so calibration is judged against the rater distribution rather than
  the mode.
* The rater classes of an example are the classes with nonzero soft mass.
* Metrics that are undefined for degenerate inputs (constant ranks, empty
  agreement mass) return None and are listed in the report's ``undefined``
  field, never NaN.

All functions are pure over immutable records and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .core import (
    PROB_SUM_TOL,
    ClassDistribution,
    InputError,
    RatingDistribution,
    check_class_index,
    check_class_indices,
    class_max,
    class_min,
    decode_argmax,
)
from .ioutil import json_number

DEFAULT_NUM_BINS = 10
MAX_NUM_BINS = 10_000  # input bound: evaluation time grows linearly with the bin count
ALPHA = 0.05

DIRECTION_LOWER = "lower"
DIRECTION_HIGHER = "higher"

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class EvalRecord:
    """One evaluated example.

    ``weight`` is the soft-label maximum. ``example_id`` is optional
    plumbing for traceable exports and does not affect any metric.
    """

    soft: RatingDistribution
    hard: int
    pred_dist: ClassDistribution
    pred_hard: int
    weight: float
    example_id: str = ""

    def __post_init__(self) -> None:
        k = self.soft.num_classes
        if self.pred_dist.num_classes != k:
            raise InputError("soft and pred_dist disagree on the number of classes")
        object.__setattr__(self, "hard", check_class_index(self.hard, k))
        object.__setattr__(self, "pred_hard", check_class_index(self.pred_hard, k))
        if abs(self.weight - float(self.soft.probs.max())) > _WEIGHT_TOL:
            raise InputError("weight must equal the soft label's maximum entry")
        if not 0.0 < self.weight <= 1.0:
            raise InputError("weight must lie in (0, 1]")
        if self.hard not in self.rater_classes:
            raise InputError("the mode class must be one of the rater classes")

    @property
    def rater_classes(self) -> frozenset[int]:
        """The classes any rater chose: those with nonzero soft mass."""
        return frozenset(int(c) + 1 for c in np.flatnonzero(self.soft.probs > 0.0))


class RecordRowError(InputError):
    """A record table row that fails a record check; ``row`` is its 0-based index."""

    def __init__(self, row: int, message: str) -> None:
        super().__init__(message)
        self.row = row

    def __reduce__(self):  # a cv worker process sends its error pickled
        return type(self), (self.row, str(self))


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def _label_column(values, k: int) -> np.ndarray:
    """A read-only int64 copy of a label column. A string or object column raises, and so
    does a float label that is not a whole number (1.7, NaN), as check_class_index words it,
    where the cast would parse or truncate it; a whole number outside 1..k is left to the
    row checks, which name its row."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":  # strings and objects: '2' and None are no class index
        raise InputError("class indices must be integers")
    with np.errstate(invalid="ignore"):  # NaN and inf cast silently, then fail below
        labels = _frozen(arr, np.int64)
    if arr.dtype.kind == "f" and not np.array_equal(labels, arr):
        check_class_index(arr[labels != arr][0].item(), k)  # raises, naming the value
    return labels


def _failing_rows(
    soft: np.ndarray, pred: np.ndarray, hard: np.ndarray, pred_hard: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """True for each row that a check of the wrappers or of EvalRecord rejects."""
    n, k = soft.shape
    if k < 2:
        return np.ones(n, dtype=bool)
    with np.errstate(invalid="ignore"):
        bad = ~(np.isfinite(soft).all(axis=1) & np.isfinite(pred).all(axis=1))
        for probs in (soft, pred):
            bad |= (class_min(probs) < 0.0) | (class_max(probs) > 1.0)
            bad |= np.abs(probs.sum(axis=1) - 1.0) > PROB_SUM_TOL
        bad |= (hard < 1) | (hard > k) | (pred_hard < 1) | (pred_hard > k)
        bad |= np.abs(weight - class_max(soft)) > _WEIGHT_TOL
        bad |= ~((weight > 0.0) & (weight <= 1.0))
        bad |= ~(soft[np.arange(n), np.clip(hard, 1, k) - 1] > 0.0)
    return bad


@dataclass(frozen=True)
class RecordTable:
    """N evaluated examples as columns: the array form of N EvalRecords.

    ``soft`` and ``pred`` are (N, K) float64, ``hard`` and ``pred_hard`` (N,)
    int64 classes in 1..K, ``weight`` (N,) float64 and ``ids`` N strings. The
    columns are read-only copies, checked once on construction with the
    checks each row would meet as an EvalRecord; the first failing row raises
    :class:`RecordRowError` with that record check's message.
    """

    ids: tuple[str, ...]
    soft: np.ndarray
    pred: np.ndarray
    hard: np.ndarray
    pred_hard: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        soft = _frozen(self.soft, np.float64)
        pred = _frozen(self.pred, np.float64)
        weight = _frozen(self.weight, np.float64)
        ids = tuple(self.ids)
        n = len(ids)
        if soft.ndim != 2 or soft.shape[0] != n or n == 0 or pred.shape != soft.shape:
            raise InputError(
                f"a record table needs (N, K) soft and pred with N >= 1 and N = {n} ids,"
                f" got shapes {soft.shape} and {pred.shape}"
            )
        hard, pred_hard = (_label_column(v, soft.shape[1]) for v in (self.hard, self.pred_hard))
        if hard.shape != (n,) or pred_hard.shape != (n,) or weight.shape != (n,):
            raise InputError(f"hard, pred_hard and weight must each hold {n} entries")
        for name, value in (("ids", ids), ("soft", soft), ("pred", pred), ("hard", hard),
                            ("pred_hard", pred_hard), ("weight", weight)):
            object.__setattr__(self, name, value)
        bad = _failing_rows(soft, pred, hard, pred_hard, weight)
        if bad.any():
            row = int(np.argmax(bad))
            try:
                self.record(row)
            except InputError as err:
                raise RecordRowError(row, str(err)) from None
            raise RecordRowError(row, "record fails the record checks")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[EvalRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def record(self, i: int) -> EvalRecord:
        """Row ``i`` as an EvalRecord."""
        return EvalRecord(
            soft=RatingDistribution(self.soft[i]),
            hard=int(self.hard[i]),
            pred_dist=ClassDistribution(self.pred[i]),
            pred_hard=int(self.pred_hard[i]),
            weight=float(self.weight[i]),
            example_id=self.ids[i],
        )

    @property
    def num_classes(self) -> int:
        return int(self.soft.shape[1])

    @property
    def confidence(self) -> np.ndarray:
        """Each prediction's confidence: the maximum of its predicted distribution."""
        return class_max(self.pred)

    @property
    def true_accuracy(self) -> np.ndarray:
        """Each prediction's true accuracy: the soft-label mass on the predicted class."""
        return self.soft[np.arange(len(self)), self.pred_hard - 1]

    @property
    def correct(self) -> np.ndarray:
        return self.pred_hard == self.hard


Records = Union[RecordTable, Sequence[EvalRecord]]


def record_table(records: Records) -> RecordTable:
    """``records`` as a RecordTable: a table as it is, EvalRecords stacked once."""
    if isinstance(records, RecordTable):
        return records
    if len(records) == 0:
        raise InputError("metrics need at least one record")
    k = records[0].soft.num_classes
    if any(r.soft.num_classes != k for r in records):
        raise InputError("records disagree on the number of classes")
    return RecordTable(
        ids=tuple(r.example_id for r in records),
        soft=np.stack([r.soft.probs for r in records]),
        pred=np.stack([r.pred_dist.probs for r in records]),
        hard=[r.hard for r in records],
        pred_hard=[r.pred_hard for r in records],
        weight=[r.weight for r in records],
    )


def eval_record(
    soft, pred_dist, pred_hard=None, example_id: Union[str, Sequence[str]] = ""
) -> Union[EvalRecord, RecordTable]:
    """Evaluated examples, with the mode and the weight derived from ``soft``.

    One rating distribution and one predicted distribution (arrays or the
    wrapper types) give an :class:`EvalRecord`. An (N, K) matrix of each gives
    a :class:`RecordTable`; ``pred_hard`` is then N classes and
    ``example_id`` N ids. The mode, and ``pred_hard`` when omitted, are the
    argmax decode, lowest class on an exact tie.
    """
    single = isinstance(soft, RatingDistribution) or np.ndim(soft) == 1
    if single:
        soft_d = soft if isinstance(soft, RatingDistribution) else RatingDistribution(soft)
        pred_d = (pred_dist if isinstance(pred_dist, ClassDistribution)
                  else ClassDistribution(pred_dist))
        soft, pred = soft_d.probs[None, :], pred_d.probs[None, :]
        ids = (example_id,)
        pred_hard = None if pred_hard is None else [pred_hard]
    else:
        soft = np.asarray(soft, dtype=np.float64)
        pred = np.asarray(pred_dist, dtype=np.float64)
        n = soft.shape[0] if soft.ndim == 2 else 0
        ids = (example_id,) * n if isinstance(example_id, str) else tuple(example_id)
    hard = decode_argmax(soft)
    if pred_hard is None:
        pred_hard = decode_argmax(pred)
    table = RecordTable(ids=ids, soft=soft, pred=pred, hard=hard, pred_hard=pred_hard,
                        weight=class_max(soft))
    return table.record(0) if single else table


def _weighted_mean(values: np.ndarray, weight: np.ndarray, use_weights: bool) -> float:
    if not use_weights:
        return float(values.sum() / values.size)
    return float((weight * values).sum() / weight.sum())


def mae(records: Records, use_weights: bool = True) -> float:
    t = record_table(records)
    return _weighted_mean(np.abs(t.pred_hard - t.hard).astype(np.float64), t.weight, use_weights)


def accuracy(records: Records, use_weights: bool = True) -> float:
    t = record_table(records)
    return _weighted_mean(t.correct.astype(np.float64), t.weight, use_weights)


def _pair_table(a: np.ndarray, b: np.ndarray, k: int,
                weights: Optional[Sequence[float]] = None) -> np.ndarray:
    """The float64 K x K table of (a, b) label pairs, 1-based: counts, or ``weights`` summed."""
    return np.bincount((a - 1) * k + (b - 1), weights=weights,
                       minlength=k * k).reshape(k, k).astype(np.float64, copy=False)


def qwk_from_pairs(
    labels_a: Sequence[int],
    labels_b: Sequence[int],
    num_classes: int,
    weights: Optional[Sequence[float]] = None,
) -> Optional[float]:
    """Quadratically weighted kappa between two label sequences.

    kappa = 1 - S_O / S_E with S_O the quadratic-penalty mass of the observed
    contingency table and S_E that of the expected table (outer product of
    the observed marginals, normalized to the observed mass). The (K-1)^2
    penalty normalization cancels in the ratio and is omitted, which keeps
    clean cases exact in floating point. ``weights`` accumulates per-example
    mass into the table (agreement weighting); omitted means counts.

    Returns None when S_E is zero (all mass in one cell of both marginals),
    where agreement-above-chance is undefined.
    """
    a = check_class_indices(labels_a, num_classes)
    b = check_class_indices(labels_b, num_classes)
    if a.size != b.size:
        raise InputError(f"label sequences must be equal-length, got {a.size} and {b.size}")
    table = _pair_table(a, b, num_classes, weights)
    idx = np.arange(num_classes, dtype=np.float64)
    penalty = (idx[:, None] - idx[None, :]) ** 2
    mass = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / mass
    s_obs = float((penalty * table).sum())
    s_exp = float((penalty * expected).sum())
    if s_exp == 0.0:
        return None
    return 1.0 - s_obs / s_exp


def qwk(records: Records, use_weights: bool = True) -> Optional[float]:
    """Kappa between hard labels and hard predictions over the records."""
    t = record_table(records)
    return qwk_from_pairs(t.hard, t.pred_hard, t.num_classes, t.weight if use_weights else None)


def any_rater_accuracy(records: Records) -> float:
    """Fraction of predictions that match at least one rater's class."""
    t = record_table(records)
    return int(np.count_nonzero(t.true_accuracy > 0.0)) / len(t)


def check_num_bins(num_bins: int) -> int:
    """``num_bins`` if it lies in 1..MAX_NUM_BINS; else InputError."""
    if not 1 <= num_bins <= MAX_NUM_BINS:
        raise InputError(f"num_bins must lie in 1..{MAX_NUM_BINS}, got {num_bins}")
    return num_bins


def _bin_indices(conf: np.ndarray, num_bins: int) -> np.ndarray:
    # equal-width bins over (0,1]; an exact edge value belongs to the lower bin
    uppers = np.linspace(0.0, 1.0, num_bins + 1)[1:]
    return np.searchsorted(uppers, conf, side="left")


def _bin_means(
    t: RecordTable, num_bins: int
) -> list[tuple[int, Optional[float], Optional[float]]]:
    """Per bin: member count, mean confidence and mean true accuracy (None if empty)."""
    check_num_bins(num_bins)
    conf = t.confidence
    acc = t.true_accuracy
    idx = _bin_indices(conf, num_bins)
    rows = []
    for b in range(num_bins):
        members = idx == b
        n = int(np.count_nonzero(members))
        if n:
            rows.append((n, float(conf[members].mean()), float(acc[members].mean())))
        else:
            rows.append((0, None, None))
    return rows


def ece(records: Records, num_bins: int = DEFAULT_NUM_BINS) -> float:
    """Expected calibration error against the soft labels.

    Confidence is the predicted distribution's maximum; per-example true
    accuracy is the soft-label mass on the predicted class. Bins are
    equal-width over (0,1], count-weighted, empty bins skipped. A predictor
    that emits the soft label itself scores exactly 0.
    """
    t = record_table(records)
    total = 0.0
    for n, conf, acc in _bin_means(t, num_bins):
        if n:
            total += (n / len(t)) * abs(conf - acc)
    return total


@dataclass(frozen=True)
class CalibrationBin:
    bin_low: float
    bin_high: float
    mean_confidence: Optional[float]
    mean_true_accuracy: Optional[float]
    count: int


def calibration_curve(
    records: Records, num_bins: int = DEFAULT_NUM_BINS
) -> list[CalibrationBin]:
    """Per-bin mean confidence / mean true accuracy / count, one row per bin.

    Uses the same binning as :func:`ece`; empty bins appear with count 0 so a
    density panel can be drawn from the counts.
    """
    t = record_table(records)
    means = _bin_means(t, num_bins)
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    return [
        CalibrationBin(
            bin_low=float(edges[b]),
            bin_high=float(edges[b + 1]),
            mean_confidence=conf,
            mean_true_accuracy=acc,
            count=n,
        )
        for b, (n, conf, acc) in enumerate(means)
    ]


def _risks(t: RecordTable) -> np.ndarray:
    # records by confidence, descending, ties in input order
    order = np.argsort(-t.confidence, kind="stable")
    w = t.weight[order]
    correct = t.correct[order].astype(np.float64)
    return 1.0 - np.cumsum(w * correct) / np.cumsum(w)


def risk_coverage(records: Records) -> tuple[list[tuple[float, float]], float]:
    """Risk-coverage points and their mean (the area under the curve).

    Records are ranked by confidence, descending, ties kept in input order.
    At coverage n/N the risk is the agreement-weighted error rate
    1 - Accuracy(UW) over the n most confident records; the area is the mean
    of the N risk values.
    """
    t = record_table(records)
    risks = _risks(t)
    coverage = np.arange(1, len(t) + 1) / len(t)
    return list(zip(coverage.tolist(), risks.tolist())), float(risks.mean())


def aurc(records: Records) -> float:
    return float(_risks(record_table(records)).mean())


def brier(records: Records) -> float:
    """Mean squared distance between predicted distribution and soft label."""
    t = record_table(records)
    return float(np.mean(((t.pred - t.soft) ** 2).sum(axis=1)))


def cross_entropy_metric(records: Records) -> float:
    """Mean cross entropy of the predicted distribution against the soft label."""
    from .losses import ce_soft_loss

    t = record_table(records)
    return float(np.mean(ce_soft_loss(t.pred, t.soft)))


def coverage_error(records: Records) -> float:
    """How deep into the prediction ranking one must go to cover every rater class.

    Classes are ranked by predicted probability, descending, stable on ties
    (lower class first); an example's error is the worst rank among its rater
    classes. Averaged over records; 1 is perfect.
    """
    t = record_table(records)
    order = np.argsort(-t.pred, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(1, t.num_classes + 1)[None, :], axis=1)
    worst = class_max(np.where(t.soft > 0.0, rank, 0))
    return int(worst.sum()) / len(t)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank, so the sort need not be stable."""
    order = np.argsort(x)
    xs = x[order]
    first = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    last = np.append(first[1:], x.size) - 1  # each run of equal values is first..last
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def auroc_macro(records: Records) -> Optional[float]:
    """One-vs-rest AUROC per class from the predicted probabilities, macro-averaged.

    Classes absent from the hard labels (or with no negatives) are skipped;
    None when no class admits a defined AUROC.
    """
    t = record_table(records)
    per_class = []
    for cls in range(1, t.num_classes + 1):
        pos = t.hard == cls
        n_pos = int(np.count_nonzero(pos))
        n_neg = len(t) - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        ranks = _average_ranks(t.pred[:, cls - 1])
        auc = (float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        per_class.append(auc)
    if not per_class:
        return None
    return float(np.mean(per_class))


def spearman(records: Records) -> Optional[float]:
    """Rank correlation between hard predictions and hard labels (average ranks).

    None when either side is constant.
    """
    t = record_table(records)
    preds = t.pred_hard.astype(np.float64)
    hard = t.hard.astype(np.float64)
    if np.all(preds == preds[0]) or np.all(hard == hard[0]):
        return None
    ra = _average_ranks(preds)
    rb = _average_ranks(hard)
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    denom = math.sqrt(float((ra * ra).sum()) * float((rb * rb).sum()))
    return float((ra * rb).sum() / denom)


def confusion_matrix(records: Records, row_normalize: bool = False) -> np.ndarray:
    """K x K table, rows = true hard label, columns = prediction.

    With ``row_normalize`` each nonzero row sums to 1; all-zero rows (classes
    absent from the records) stay zero.
    """
    t = record_table(records)
    table = _pair_table(t.hard, t.pred_hard, t.num_classes)
    if row_normalize:
        sums = table.sum(axis=1, keepdims=True)
        nonzero = sums[:, 0] > 0
        table[nonzero] = table[nonzero] / sums[nonzero]
    return table


def missing_classes(records: Records) -> tuple[int, ...]:
    """Classes with no hard label among the records (flagged in reports)."""
    t = record_table(records)
    counts = np.bincount(t.hard, minlength=t.num_classes + 1)[1:]
    return tuple(int(c) + 1 for c in np.flatnonzero(counts == 0))


# ===== Student-t machinery for fold-level significance tests =====


def student_t_cdf(t: float, dof: int) -> float:
    """P(T <= t) for Student's t with an integer ``dof`` >= 1 degrees of freedom.

    The finite series of Abramowitz & Stegun 26.7.3 (odd dof) and 26.7.4 (even
    dof) for A = P(|T| <= t), signed with t: theta = atan(t / sqrt(dof)), and
    the CDF is (1 + A) / 2, clamped to [0, 1].
    """
    if math.isnan(t) or not (float(dof).is_integer() and dof >= 1):
        raise InputError(f"need t and an integer dof >= 1 degrees of freedom, got {t}, {dof}")
    odd = int(dof) % 2
    theta = math.atan2(t, math.sqrt(dof))
    sin, cos = math.sin(theta), math.cos(theta)
    term, total = 1.0, 0.0
    for j in range(int(dof) // 2):
        total += term
        term *= cos * cos * (2 * j + 1 + odd) / (2 * j + 2 + odd)
    a = 2.0 / math.pi * (theta + sin * cos * total) if odd else sin * total
    return min(max(0.5 + 0.5 * a, 0.0), 1.0)


def paired_t_test_one_sided(
    metric_a_per_fold: Sequence[float],
    metric_b_per_fold: Sequence[float],
    direction: str,
) -> float:
    """One-sided paired t-test p-value on per-fold metric values.

    ``direction`` is the alternative for method a: ``"lower"`` tests
    mean(a - b) < 0, ``"higher"`` tests mean(a - b) > 0. Degenerate inputs
    follow fixed conventions: zero-variance differences give p = 0 or 1 by
    the sign of the mean, and all-zero differences give p = 0.5.
    """
    a = np.asarray(metric_a_per_fold, dtype=np.float64)
    b = np.asarray(metric_b_per_fold, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise InputError("paired test needs two equal-length sequences of length >= 2")
    if direction not in (DIRECTION_LOWER, DIRECTION_HIGHER):
        raise InputError(f"direction must be 'lower' or 'higher', got {direction!r}")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.5
        favors = mean < 0.0 if direction == DIRECTION_LOWER else mean > 0.0
        return 0.0 if favors else 1.0
    t = mean / (sd / math.sqrt(d.size))
    if direction == DIRECTION_LOWER:
        return student_t_cdf(t, d.size - 1)
    return student_t_cdf(-t, d.size - 1)


# ===== report assembly =====

_METRIC_NAMES = (
    "mae_uw",
    "qwk_uw",
    "accuracy_uw",
    "accuracy_ar",
    "ece",
    "aurc",
    "brier",
    "cross_entropy",
    "coverage_error",
    "auroc_macro",
    "spearman",
    "mae",
    "qwk",
    "accuracy",
)


@dataclass(frozen=True)
class MetricReport:
    """Named scalar results for one record collection (one fold, usually)."""

    values: dict[str, Optional[float]]
    num_records: int
    missing_classes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        unknown = set(self.values) - set(_METRIC_NAMES)
        if unknown:
            raise InputError(f"unknown metric names: {sorted(unknown)}")
        if set(self.values) != set(_METRIC_NAMES):
            raise InputError("a MetricReport must carry every suite metric")

    @property
    def undefined(self) -> tuple[str, ...]:
        return tuple(name for name in _METRIC_NAMES if self.values[name] is None)

    def __getitem__(self, name: str) -> Optional[float]:
        return self.values[name]

    def to_dict(self) -> dict:
        return {
            "metrics": {name: self.values[name] for name in _METRIC_NAMES},
            "num_records": self.num_records,
            "missing_classes": list(self.missing_classes),
            "undefined": list(self.undefined),
        }

    @staticmethod
    def from_dict(doc: dict) -> "MetricReport":
        """The report of a parsed metrics JSON; a missing or mistyped field is named."""
        try:
            values = {name: doc["metrics"][name] for name in _METRIC_NAMES}
            num_records = doc["num_records"]
            missing = tuple(doc.get("missing_classes", ()))
        except KeyError as err:
            raise InputError(f"metric report is missing field {err}") from None
        except (TypeError, ValueError, AttributeError):
            raise InputError("malformed metric report") from None
        num_records = json_number("num_records", num_records, integer=True)
        if num_records < 1:
            raise InputError(f"field 'num_records': expected an integer >= 1, got {num_records}")
        for name, value in values.items():  # json reads NaN and Infinity
            finite = type(value) is int or (type(value) is float and math.isfinite(value))
            if not (value is None or finite):
                raise InputError(f"metric {name!r}: expected a finite number or null,"
                                 f" got {value!r}")
        return MetricReport(values=values, num_records=num_records, missing_classes=missing)


def compute_metric_report(records: Records, num_bins: int = DEFAULT_NUM_BINS) -> MetricReport:
    """The full suite over one record collection, stacked into one table first."""
    records = record_table(records)
    values: dict[str, Optional[float]] = {
        "mae_uw": mae(records, use_weights=True),
        "qwk_uw": qwk(records, use_weights=True),
        "accuracy_uw": accuracy(records, use_weights=True),
        "accuracy_ar": any_rater_accuracy(records),
        "ece": ece(records, num_bins),
        "aurc": aurc(records),
        "brier": brier(records),
        "cross_entropy": cross_entropy_metric(records),
        "coverage_error": coverage_error(records),
        "auroc_macro": auroc_macro(records),
        "spearman": spearman(records),
        "mae": mae(records, use_weights=False),
        "qwk": qwk(records, use_weights=False),
        "accuracy": accuracy(records, use_weights=False),
    }
    return MetricReport(
        values=values,
        num_records=len(records),
        missing_classes=missing_classes(records),
    )
