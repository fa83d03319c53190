"""Label representations and transforms for ordinal problems with rater distributions.

Classes are the integers 1..K, ordered. A "hard label" is a plain int in that
range (no wrapper type). Distribution-like values are thin validated wrappers
around float64 arrays:

* :class:`RatingDistribution`: probability vector over the K classes, e.g. the
  fraction of raters voting each class.
* :class:`ExceedanceLabel`: the K-1 tail masses P(y > k), non-increasing in k.
* :class:`TaskProbabilities`: a model's K-1 estimates of P(y > k); monotonicity
  is NOT required here (independent per-task heads may violate it).
* :class:`ClassDistribution`: a predicted probability vector over the K classes.

All operations are pure functions on immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "InputError",
    "ProblemSpec",
    "RatingDistribution",
    "ExceedanceLabel",
    "TaskProbabilities",
    "ClassDistribution",
    "DISTANCE_AE",
    "DISTANCE_SE",
    "exceedance_from_soft",
    "class_distribution_from_tasks",
    "decode_count",
    "decode_argmax",
    "sord_soft_label",
]

PROB_SUM_TOL = 1e-9

# Distance kinds for distance-smoothed soft labels.
DISTANCE_AE = "ae"
DISTANCE_SE = "se"


class InputError(ValueError):
    """Raised when a caller-supplied value violates an operation's contract."""


@dataclass(frozen=True)
class ProblemSpec:
    """Number of ordered classes."""

    num_classes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_classes", check_int("num_classes", self.num_classes, 2))


def _checked_vector(field: str, values, wording: str, min_size: int, size_message: str,
                    sums_to_one: bool = False, non_increasing: bool = False) -> np.ndarray:
    """Read-only float64 copy of ``values``, checked in order: a 1-d vector of finite
    entries, at least ``min_size`` of them, in [0, 1], summing to 1 if ``sums_to_one``,
    non-increasing if ``non_increasing``.

    Training and evaluation work on matrices. A wrapper is built one example at
    a time only by a single-example public call, by the reader of a records.csv
    that is not plain text (one row at a time), and by a failing RecordTable,
    which rebuilds its first bad row to name the check it fails. For vectors
    of a few entries, checks on the plain list cost far less than one NumPy
    reduction per check.
    """
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError(f"{field} must be a 1-d vector, got shape {arr.shape}")
    entries = arr.tolist()
    if not all(map(math.isfinite, entries)):
        raise InputError(f"{field} entries must be finite")
    if len(entries) < min_size:
        raise InputError(size_message)
    if min(entries) < 0.0 or max(entries) > 1.0:
        raise InputError(f"{wording} must lie in [0, 1]")
    if sums_to_one:
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise InputError(f"{wording} sum to {total!r}, not 1")
    if non_increasing and any(b > a for a, b in zip(entries, entries[1:])):
        raise InputError(f"{wording} must be non-increasing")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RatingDistribution:
    """Probability vector over K classes; entries in [0,1], summing to 1."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _checked_vector(
            "RatingDistribution.probs", self.probs, "rating probabilities", 2,
            "a rating distribution needs at least two classes", sums_to_one=True))

    @property
    def num_classes(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class ExceedanceLabel:
    """Tail masses [P(y>1), ..., P(y>K-1)]; entries in [0,1], non-increasing."""

    exceed: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "exceed", _checked_vector(
            "ExceedanceLabel.exceed", self.exceed, "exceedance entries", 1,
            "an exceedance label needs at least one entry", non_increasing=True))


@dataclass(frozen=True)
class TaskProbabilities:
    """Model estimates of P(y > k) for k = 1..K-1.

    Entries live in [0, 1] and need not be monotone: independently
    parameterized task heads can produce rank-inconsistent estimates, and
    downstream transforms must cope. (Training-time sigmoid outputs stay in
    the open interval; exact 0/1 only appears for saturated logits, which the
    log-clamped losses handle.)
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _checked_vector(
            "TaskProbabilities.probs", self.probs, "task probabilities", 1,
            "task probabilities need at least one entry"))


@dataclass(frozen=True)
class ClassDistribution:
    """Predicted probability vector over the K classes; sums to 1."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _checked_vector(
            "ClassDistribution.probs", self.probs, "class probabilities", 2,
            "a class distribution needs at least two classes", sums_to_one=True))

    @property
    def num_classes(self) -> int:
        return int(self.probs.size)


def _shown(value):  # a value as a message shows it: 5, not np.int64(5)
    return value.item() if isinstance(value, np.generic) else value


def check_class_index(label: int, k: int) -> int:
    """``label`` as an int in 1..k; anything else (1.5, NaN, None, 'a') raises InputError."""
    try:
        idx = int(label)
    except (TypeError, ValueError, OverflowError):  # None, 'a', nan, inf
        idx = 0
    if idx != label or not 1 <= idx <= k:
        raise InputError(f"class index {_shown(label)!r} outside 1..{k}")
    return idx


def check_int(name: str, value, low: int, high: Optional[int] = None) -> int:
    """``value`` as an int in low..high (no upper bound if ``high`` is None). Only a Python
    or NumPy integer passes; a bool, a float (even 2.0), a string or None raises InputError."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return int(value)
    bound = f">= {low}" if high is None else f"in {low}..{high}"
    raise InputError(f"{name} must be an integer {bound}, got {_shown(value)!r}")


def check_choice(name: str, value, choices: tuple) -> str:
    """``value`` if it is one of the strings ``choices``; else InputError listing them."""
    if not (isinstance(value, str) and value in choices):
        raise InputError(f"{name} must be one of {choices}, got {_shown(value)!r}")
    return value


def _argmax_rows(p: np.ndarray) -> np.ndarray:
    # np.argmax returns the first maximum: the lowest class on an exact tie
    return np.argmax(p, axis=-1) + 1


def class_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)``, exact and C-ordered, reduced along a class-major copy: one inner
    loop per class, not per row. Sums do not go this way; their bits follow the order."""
    return np.asarray(np.maximum.reduce(a.T.copy(), axis=0).T, order="C")


def class_min(a: np.ndarray) -> np.ndarray:
    return np.asarray(np.minimum.reduce(a.T.copy(), axis=0).T, order="C")


def _checked_rows(name: str, values, min_width: int, sums_to_one: bool = False) -> np.ndarray:
    """A (B, n) float64 matrix of probability rows, checked once as a whole.

    The array-level form of the wrapper checks: shape, finiteness, the unit
    interval and, for distributions, row sums within ``PROB_SUM_TOL`` of 1.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] < min_width:
        raise InputError(
            f"{name} must be a (B, n) matrix with B >= 1 and n >= {min_width},"
            f" got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise InputError(f"{name} entries must be finite")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise InputError(f"{name} must lie in [0, 1]")
    if sums_to_one:
        worst = float(np.abs(arr.sum(axis=1) - 1.0).max())
        if worst > PROB_SUM_TOL:
            raise InputError(f"{name} rows sum up to {worst!r} away from 1")
    return arr


# The _*_rows helpers work along the last axis, so one vector and a (B, n)
# matrix of rows go through the same code.


def _tail_rows(p: np.ndarray) -> np.ndarray:
    # suffix sums; a running sum of non-negative terms is exactly
    # non-decreasing, so the reversed result is exactly non-increasing
    suffix = np.add.accumulate(p[..., ::-1], axis=-1)[..., ::-1]
    return np.minimum(suffix[..., 1:], 1.0)


def exceedance_from_soft(
    dist: Union[RatingDistribution, np.ndarray],
) -> Union[ExceedanceLabel, np.ndarray]:
    """Tail masses of a rating distribution: entry k = sum of probs above class k.

    A :class:`RatingDistribution` gives an :class:`ExceedanceLabel`; a (B, K)
    matrix of distributions gives the (B, K-1) matrix of their tail masses.
    """
    if isinstance(dist, (RatingDistribution, ClassDistribution)):
        return ExceedanceLabel(_tail_rows(dist.probs))
    return _tail_rows(_checked_rows("rating probabilities", dist, 2, sums_to_one=True))


def _class_rows(t: np.ndarray) -> np.ndarray:
    raw = np.concatenate([1.0 - t[..., :1], t[..., :-1] - t[..., 1:], t[..., -1:]], axis=-1)
    clamped = np.maximum(raw, 0.0)
    total = np.add.reduce(clamped, axis=-1, keepdims=True)
    assert total.min() > 0.0, "clamped class mass vanished; raw telescopes to 1"
    return clamped / total


def class_distribution_from_tasks(
    tasks: Union[TaskProbabilities, np.ndarray],
) -> Union[ClassDistribution, np.ndarray]:
    """Adjacent differences of task probabilities, clamped and renormalized.

    raw[1] = 1 - t[1], raw[k] = t[k-1] - t[k], raw[K] = t[K-1]. On
    rank-consistent input the raw vector is already non-negative and the clamp
    is a no-op; rank-inconsistent input produces negative raw entries, which
    are clamped to zero before renormalizing. The raw vector telescopes to 1,
    so the clamped sum is always positive.

    :class:`TaskProbabilities` give a :class:`ClassDistribution`; a (B, K-1)
    matrix of task rows gives the (B, K) matrix of class distributions.
    """
    if isinstance(tasks, TaskProbabilities):
        return ClassDistribution(_class_rows(tasks.probs))
    return _class_rows(_checked_rows("task probabilities", tasks, 1))


def _count_rows(t: np.ndarray) -> np.ndarray:
    # strict > keeps an exact 0.5 boundary deterministic (counts as "does not exceed")
    return 1 + np.add.reduce(t > 0.5, axis=-1)


def decode_count(tasks: Union[TaskProbabilities, np.ndarray]) -> Union[int, np.ndarray]:
    """Counting decode: 1 plus the number of tasks with probability strictly above 0.5.

    :class:`TaskProbabilities` give an int; a (B, K-1) matrix gives an int
    array with one class per row.
    """
    if isinstance(tasks, TaskProbabilities):
        return int(_count_rows(tasks.probs))
    return _count_rows(_checked_rows("task probabilities", tasks, 1))


def decode_argmax(dist: Union[ClassDistribution, np.ndarray]) -> Union[int, np.ndarray]:
    """Argmax decode of a predicted class distribution; an exact tie goes to the lowest class.

    A :class:`ClassDistribution` gives an int. A (B, K) matrix of
    distributions gives an int array with one class per row.
    """
    if isinstance(dist, ClassDistribution):
        return int(_argmax_rows(dist.probs))
    return _argmax_rows(_checked_rows("class probabilities", dist, 2, sums_to_one=True))


def check_class_indices(labels, k: int) -> np.ndarray:
    """``labels`` as a non-empty 1-d int64 array in 1..k, each checked as by check_class_index."""
    arr = np.asarray(labels)
    try:
        with np.errstate(invalid="ignore"):  # NaN or inf casts silently, then fails below
            idx = arr.astype(np.int64)
    except (TypeError, ValueError):
        raise InputError("class indices must be integers") from None
    if idx.ndim != 1 or idx.size == 0:
        raise InputError(f"class indices must be a non-empty 1-d array, got shape {idx.shape}")
    bad = (idx != arr) | (idx < 1) | (idx > k)
    if bad.any():
        raise InputError(f"class index {arr[bad][0].item()!r} outside 1..{k}")
    return idx


def sord_soft_label(
    true_class: Union[int, np.ndarray], spec: ProblemSpec, distance: str = DISTANCE_AE
) -> Union[RatingDistribution, np.ndarray]:
    """Distance-smoothed synthetic soft label around ``true_class``.

    probs[k] = exp(-phi(k, y)) / sum_j exp(-phi(j, y)) with phi the absolute
    (``"ae"``) or squared (``"se"``) class-index distance. The result is
    unimodal with its mode at the true class.

    One class index gives a :class:`RatingDistribution`; a 1-d array of B
    class indices gives the (B, K) matrix of their soft labels.
    """
    single = np.ndim(true_class) == 0
    ys = (
        np.array([check_class_index(true_class, spec.num_classes)])
        if single
        else check_class_indices(true_class, spec.num_classes)
    )
    ks = np.arange(1, spec.num_classes + 1, dtype=np.float64)
    if distance == DISTANCE_AE:
        phi = np.abs(ks - ys[:, None])
    elif distance == DISTANCE_SE:
        phi = (ks - ys[:, None]) ** 2
    else:
        raise InputError(f"unknown distance kind {distance!r} (use 'ae' or 'se')")
    w = np.exp(-phi)
    rows = w / w.sum(axis=1, keepdims=True)
    return RatingDistribution(rows[0]) if single else rows
