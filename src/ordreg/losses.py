"""Training objectives, as pure functions of model output probabilities and targets.

Loss kinds, the target each takes, and the rows it is scored against:

=======================  =====================  ===================================
kind                     target                 scored against
=======================  =====================  ===================================
``ce``                   hard label (int)       the one-hot row of y
``ce_soft``              RatingDistribution     the rating row
``or_cnn``               hard label (int)       the indicators 1(y > j)
``or_soft``              ExceedanceLabel        the tail masses P(y > j)
``corn``                 batch of hard labels   1(y > j), task j over y >= j only
``sord_ae``/``sord_se``  hard label (int)       the SORD row of y
=======================  =====================  ===================================

Training scores every kind on these rows through ``or_soft_loss``, ``ce_soft_loss`` or
``corn_rows_loss``: the hard losses' bits. A run builds a hard kind's K class rows once
(``model.class_rows``); ``corn`` reads its task subsets off them (:func:`corn_subsets`) and
adds each task's terms in row order, so a stacked call has the bits of one call per model.
Hard labels are checked where they enter: by each public function here, and by a
``model.loss_and_gradient`` call without ``out=``.

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
    RatingDistribution,
    TaskProbabilities,
    check_class_index,
    check_class_indices,
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


def _probs(x, name: str) -> np.ndarray:
    arr = x.probs if hasattr(x, "probs") else np.asarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise InputError(f"{name} must be a 1-d probability vector or a (B, n) matrix of them")
    return arr


def _hard_labels(y, p: np.ndarray, k: int) -> Union[int, np.ndarray]:
    """``y`` checked against 1..k: an int for one vector, an int array for a matrix."""
    if p.ndim == 1:
        return check_class_index(y, k)
    labels = check_class_indices(y, k)
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


def label_rows(labels: Union[int, np.ndarray], k: int) -> np.ndarray:
    """Unchecked labels in 1..k as float rows of the indicators 1(y > j), j = 1..k-1."""
    return (np.asarray(labels)[..., None] > np.arange(1, k)).astype(np.float64)


def corn_subsets(rows: np.ndarray) -> np.ndarray:
    """Which examples each ``corn`` task sees, read off indicator rows 1(y > j): task j
    takes the examples with y >= j, i.e. every one for j = 1, else those with 1(y > j-1)."""
    return np.concatenate([np.ones_like(rows[..., :1], dtype=bool), rows[..., :-1] > 0], axis=-1)


def or_cnn_loss(
    tasks: Union[TaskProbabilities, ArrayLike], y: Union[int, np.ndarray]
) -> Union[float, np.ndarray]:
    """Sum of per-task binary cross entropies against the indicators 1(y > k)."""
    p = _probs(tasks, "tasks")
    k = p.shape[-1] + 1
    return _row_sums(_bce(p, label_rows(_hard_labels(y, p, k), k)))


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


def corn_loss(task_cond_probs: ArrayLike, ys: Sequence[int]) -> Union[float, np.ndarray]:
    """Conditional-subtask ordinal loss over a batch.

    ``task_cond_probs[i, k]`` is example i's predicted P(y > k+1 | y >= k+1).
    Task k is scored only on the examples with y >= k (1-based), against the
    target 1(y > k); each task's BCE is averaged over its subset and the
    per-task means are summed. Tasks whose subset is empty contribute 0.

    A stacked (M, B, K-1) array with (M, B) labels gives the (M,) losses of
    M separate batches; each task subset stays inside its own batch.
    """
    p = np.atleast_2d(np.asarray(task_cond_probs, dtype=np.float64))
    labels = np.asarray(ys)
    if p.ndim > 3 or labels.shape != p.shape[:-1]:
        raise InputError(f"task probabilities of shape {p.shape} need labels of shape"
                         f" {p.shape[:-1]} (at most 3 axes), got {labels.shape}")
    k = p.shape[-1] + 1
    rows = label_rows(check_class_indices(labels.ravel(), k).reshape(labels.shape), k)
    subset = corn_subsets(rows)
    return corn_rows_loss(p, rows, subset, np.maximum(subset.sum(axis=-2, keepdims=True), 1))


def corn_rows_loss(p: np.ndarray, targets: np.ndarray, subset: np.ndarray,
                   sizes: np.ndarray) -> Union[float, np.ndarray]:
    """:func:`corn_loss` of (B, K-1) or (M, B, K-1) probabilities against unchecked indicator
    rows: task k over the rows where ``subset`` is true, its terms added in row order (0
    elsewhere) and divided by its (..., 1, K-1) ``sizes``, the subset counts or 1 if empty."""
    sums = np.add.accumulate(np.where(subset, _bce(p, targets), 0.0), axis=-2)[..., -1:, :]
    total = np.add.accumulate(sums / sizes, axis=-1)[..., 0, -1]  # task means in task order
    return float(total) if p.ndim == 2 else total


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

