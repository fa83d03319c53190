"""Training objectives, as pure functions of model output probabilities and targets.

Loss kinds and the target each expects:

====================  =========================================
kind                  target
====================  =========================================
``ce``                hard label (int)
``ce_soft``           RatingDistribution
``or_cnn``            hard label (int)
``or_soft``           ExceedanceLabel
``corn``              batch of hard labels (batch-level loss)
``sord_ae``/``sord_se``  hard label (smoothed internally)
====================  =========================================

CORAL and its soft variant reuse ``or_cnn``/``or_soft`` on a shared-slope head;
there is no separate loss kind for them. All probabilities are clamped to
[LOG_EPS, 1-LOG_EPS] before any log.

Every per-example loss sums over the last axis. One prediction vector with
one target gives a float; a (B, n) matrix of prediction rows with B targets
(a (B,) label array or a (B, n) target matrix) gives the (B,) array of
per-row losses, each bit-identical to the float of that row alone.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .core import (
    ClassDistribution,
    ExceedanceLabel,
    InputError,
    ProblemSpec,
    RatingDistribution,
    TaskProbabilities,
    check_class_indices,
    sord_soft_label,
)

LOG_EPS = 1e-12
_LOG_HIGH = 1.0 - LOG_EPS

LOSS_CE = "ce"
LOSS_CE_SOFT = "ce_soft"
LOSS_OR_CNN = "or_cnn"
LOSS_OR_SOFT = "or_soft"
LOSS_CORN = "corn"
LOSS_SORD_AE = "sord_ae"
LOSS_SORD_SE = "sord_se"

ALL_LOSS_KINDS = (
    LOSS_CE,
    LOSS_CE_SOFT,
    LOSS_OR_CNN,
    LOSS_OR_SOFT,
    LOSS_CORN,
    LOSS_SORD_AE,
    LOSS_SORD_SE,
)

# loss kinds whose targets are hard labels; or_soft and ce_soft take soft rows
HARD_TARGET_LOSSES = (LOSS_CE, LOSS_OR_CNN, LOSS_CORN, LOSS_SORD_AE, LOSS_SORD_SE)

ArrayLike = Union[np.ndarray, Sequence[float]]


_FLOAT64 = np.dtype(np.float64)


def _probs(x, name: str) -> np.ndarray:
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype is _FLOAT64:
        return x  # one float64 vector, the per-example case: nothing to convert
    arr = x.probs if hasattr(x, "probs") else np.asarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise InputError(f"{name} must be a 1-d probability vector or a (B, n) matrix of them")
    return arr


def _hard_labels(y, p: np.ndarray, k: int) -> Union[int, np.ndarray]:
    """``y`` checked against 1..k: an int for one vector, an int array for a matrix."""
    if p.ndim == 1:
        label = int(y)
        if not 1 <= label <= k:
            raise InputError(f"hard label {y!r} outside 1..{k}")
        return label
    labels = check_class_indices(y, ProblemSpec(k))
    if labels.shape != p.shape[:1]:
        raise InputError(f"{labels.size} hard labels for {p.shape[0]} probability rows")
    return labels


def _row_sums(terms: np.ndarray):
    """Sum over the last axis: a float for one vector, the (B,) array for a matrix."""
    total = np.add.reduce(terms, axis=-1)
    return float(total) if terms.ndim == 1 else total


def _log(p: np.ndarray) -> np.ndarray:
    # same bits as np.clip(p, LOG_EPS, 1 - LOG_EPS), without np.clip's dispatch cost
    return np.log(np.minimum(np.maximum(p, LOG_EPS), _LOG_HIGH))


def _bce(p: np.ndarray, target: np.ndarray) -> np.ndarray:
    return -(target * _log(p) + (1.0 - target) * _log(1.0 - p))


def or_cnn_loss(
    tasks: Union[TaskProbabilities, ArrayLike], y: Union[int, np.ndarray]
) -> Union[float, np.ndarray]:
    """Sum of per-task binary cross entropies against the indicators 1(y > k)."""
    p = _probs(tasks, "tasks")
    k = p.shape[-1] + 1
    labels = _hard_labels(y, p, k)
    targets = ((labels if p.ndim == 1 else labels[:, None]) > np.arange(1, k)).astype(np.float64)
    return _row_sums(_bce(p, targets))


def or_soft_loss(
    tasks: Union[TaskProbabilities, ArrayLike],
    target: Union[ExceedanceLabel, ArrayLike],
) -> Union[float, np.ndarray]:
    """Sum of per-task weighted binary cross entropies.

    Task k's term weighs the two BCE branches by the target tail mass
    P(y > k) and its complement. With a one-hot rating distribution the tail
    masses are exactly the hard indicators and this reduces to
    :func:`or_cnn_loss`.
    """
    p = _probs(tasks, "tasks")
    t = target.exceed if isinstance(target, ExceedanceLabel) else np.asarray(target, np.float64)
    if t.shape != p.shape:
        raise InputError(f"target shape {t.shape} does not match tasks shape {p.shape}")
    return _row_sums(_bce(p, t))


def ce_loss(
    class_dist: Union[ClassDistribution, ArrayLike], y: Union[int, np.ndarray]
) -> Union[float, np.ndarray]:
    """Multi-class cross entropy against a hard label: -log p[y]."""
    p = _probs(class_dist, "class_dist")
    labels = _hard_labels(y, p, p.shape[-1])
    if p.ndim == 1:
        return float(-_log(p[labels - 1]))
    return -_log(p[np.arange(p.shape[0]), labels - 1])


def ce_soft_loss(
    class_dist: Union[ClassDistribution, ArrayLike],
    target: Union[RatingDistribution, ArrayLike],
) -> Union[float, np.ndarray]:
    """Cross entropy against a soft target: -sum_k target[k] log p[k]."""
    p = _probs(class_dist, "class_dist")
    t = _probs(target, "target")
    if t.shape != p.shape:
        raise InputError(f"target shape {t.shape} does not match prediction shape {p.shape}")
    return _row_sums(-(t * _log(p)))


def corn_loss(task_cond_probs: ArrayLike, ys: Sequence[int]) -> float:
    """Conditional-subtask ordinal loss over a batch.

    ``task_cond_probs[i, k]`` is example i's predicted P(y > k+1 | y >= k+1).
    Task k is scored only on the examples with y >= k (1-based), against the
    target 1(y > k); each task's BCE is averaged over its subset and the
    per-task means are summed. Tasks whose subset is empty contribute 0.

    A stacked (M, B, K-1) array with (M, B) labels gives the (M,) losses of
    M separate batches; each task subset stays inside its own batch.
    """
    if isinstance(task_cond_probs, np.ndarray) and task_cond_probs.ndim == 3:
        labels = np.asarray(ys)
        if labels.ndim != 2 or labels.shape[0] != len(task_cond_probs):
            raise InputError(
                f"{len(task_cond_probs)} stacked batches need ({len(task_cond_probs)}, B)"
                f" labels, got shape {labels.shape}"
            )
        return np.array([corn_loss(p, y) for p, y in zip(task_cond_probs, labels)])
    if isinstance(task_cond_probs, np.ndarray):
        p = np.atleast_2d(task_cond_probs.astype(np.float64, copy=False))
    else:
        p = np.atleast_2d([_probs(row, "task_cond_probs") for row in task_cond_probs])
    labels = np.asarray(ys, dtype=np.int64)
    if p.shape[0] != labels.size:
        raise InputError(f"{p.shape[0]} probability rows for {labels.size} labels")
    num_classes = p.shape[1] + 1
    if labels.size == 0:
        raise InputError("corn_loss needs a non-empty batch")
    if np.any(labels < 1) or np.any(labels > num_classes):
        raise InputError(f"hard labels outside 1..{num_classes}")
    total = 0.0
    for k in range(1, num_classes):
        subset = labels >= k
        n = int(subset.sum())
        if n == 0:
            continue
        targets = (labels[subset] > k).astype(np.float64)
        total += float(_bce(p[subset, k - 1], targets).sum()) / n
    return total


def corn_unconditional(
    task_cond_probs: Union[TaskProbabilities, ArrayLike],
) -> Union[TaskProbabilities, np.ndarray]:
    """Chain conditional task probabilities into unconditional P(y > k).

    P(y > k) = prod_{j<=k} P(y > j | y >= j). Products of factors in [0, 1]
    are non-increasing, so the output is always rank-consistent. A (B, K-1)
    matrix of conditional rows gives the (B, K-1) matrix of chained rows.
    """
    p = _probs(task_cond_probs, "task_cond_probs")
    chained = np.cumprod(p, axis=-1)
    return TaskProbabilities(chained) if chained.ndim == 1 else chained


def sord_loss(
    class_dist: Union[ClassDistribution, ArrayLike],
    y: Union[int, np.ndarray],
    spec: ProblemSpec,
    distance: str,
) -> Union[float, np.ndarray]:
    """Cross entropy against the distance-smoothed soft label of ``y``."""
    return ce_soft_loss(class_dist, sord_soft_label(y, spec, distance))
