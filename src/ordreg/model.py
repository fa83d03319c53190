"""A small differentiable model: MLP encoder, one of three head kinds, exact
gradients, and a functional Adam optimizer.

The encoder is a fully connected network on feature vectors. Heads:

* ``independent``: K-1 separate affine task heads (binary-subtask methods).
* ``shared-slope-bias``: one shared affine output plus K-1 free biases, so
  task logit k is w.z + b_k; task probabilities are rank-consistent exactly
  when the biases are non-increasing.
* ``softmax``: a K-way affine head for plain classification.

Gradients are computed analytically (fused sigmoid/softmax backward) and are
contract-tested against central finite differences. Everything here is a value:
training owns its params/optimizer state and never shares mutable state across
runs, so folds and seeds can run in parallel freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from . import losses as losses_mod
from .core import (
    DISTANCE_AE,
    DISTANCE_SE,
    ClassDistribution,
    InputError,
    ProblemSpec,
    sord_soft_label,
)
from .ioutil import atomic_write_json, read_json

ACT_RELU = "relu"
ACT_TANH = "tanh"

HEAD_INDEPENDENT = "independent"
HEAD_SHARED_SLOPE_BIAS = "shared-slope-bias"
HEAD_SOFTMAX = "softmax"

ALL_HEAD_KINDS = (HEAD_INDEPENDENT, HEAD_SHARED_SLOPE_BIAS, HEAD_SOFTMAX)

# loss kinds that score K-1 task logits; all others need the K-way softmax head
_TASK_LOSSES = (losses_mod.LOSS_OR_CNN, losses_mod.LOSS_OR_SOFT, losses_mod.LOSS_CORN)

_CHECKPOINT_FORMAT = "ordreg-params"
_CHECKPOINT_VERSION = 1

_INIT_STREAM = 11


@dataclass(frozen=True)
class EncoderConfig:
    """MLP shape: input width, hidden widths (empty = linear encoder), activation."""

    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    activation: str = ACT_RELU

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise InputError(f"input_dim must be >= 1, got {self.input_dim}")
        dims = tuple(int(d) for d in self.hidden_dims)
        if any(d < 1 for d in dims):
            raise InputError(f"hidden dims must all be >= 1, got {dims}")
        object.__setattr__(self, "hidden_dims", dims)
        if self.activation not in (ACT_RELU, ACT_TANH):
            raise InputError(f"unknown activation {self.activation!r}")

    @property
    def output_dim(self) -> int:
        return self.hidden_dims[-1] if self.hidden_dims else self.input_dim


@dataclass(frozen=True)
class ParamLayout:
    """Shapes of the trainable tensors, in flat-vector order.

    The order is every encoder weight, every encoder bias, the head weight,
    then the head bias; the flat vector is their C-order ravels concatenated.
    """

    shapes: tuple[tuple[int, ...], ...]
    n_layers: int

    @cached_property
    def _bounds(self) -> tuple[tuple[int, int], ...]:
        ends = tuple(accumulate(math.prod(s) for s in self.shapes))
        return tuple(zip((0, *ends[:-1]), ends))

    @property
    def size(self) -> int:
        return self._bounds[-1][1]

    def views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(flat[a:b].reshape(s) for (a, b), s in zip(self._bounds, self.shapes))


def _layout(config: "EncoderConfig", head_kind: str, k: int) -> ParamLayout:
    dims = (config.input_dim, *config.hidden_dims)
    w_shape, n_bias = _head_shapes(config, head_kind, k)
    return ParamLayout(
        shapes=(
            *((fan_out, fan_in) for fan_in, fan_out in zip(dims[:-1], dims[1:])),
            *((fan_out,) for fan_out in dims[1:]),
            w_shape,
            (n_bias,),
        ),
        n_layers=len(dims) - 1,
    )


@dataclass(frozen=True, eq=False)
class ParamBundle:
    """Every trainable tensor as a shaped view into one flat float64 vector.

    Writing through a view changes ``flat`` and the other way round.
    Gradients use the same layout; Adam works on the flat vectors only.
    """

    flat: np.ndarray
    layout: ParamLayout

    def __post_init__(self) -> None:
        if self.flat.shape != (self.layout.size,):
            raise InputError(
                f"flat vector must have {self.layout.size} entries, got {self.flat.shape}"
            )

    @cached_property
    def _views(self) -> tuple[np.ndarray, ...]:
        return self.layout.views(self.flat)

    def arrays(self) -> tuple[np.ndarray, ...]:
        return self._views

    @property
    def encoder_w(self) -> tuple[np.ndarray, ...]:
        return self._views[: self.layout.n_layers]

    @property
    def encoder_b(self) -> tuple[np.ndarray, ...]:
        return self._views[self.layout.n_layers : 2 * self.layout.n_layers]

    @property
    def head_w(self) -> np.ndarray:
        return self._views[-2]

    @property
    def head_b(self) -> np.ndarray:
        return self._views[-1]


@dataclass
class ModelParams:
    encoder: EncoderConfig
    head_kind: str
    num_classes: int
    bundle: ParamBundle

    @property
    def num_logits(self) -> int:
        return self.num_classes if self.head_kind == HEAD_SOFTMAX else self.num_classes - 1

    def with_flat(self, flat: np.ndarray) -> "ModelParams":
        """The same model with its values taken from ``flat`` (no copy)."""
        return ModelParams(self.encoder, self.head_kind, self.num_classes,
                           ParamBundle(flat, self.bundle.layout))


@dataclass
class AdamState:
    """First/second moment vectors (flat layout) plus step counter and hyperparameters."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float
    beta1: float
    beta2: float
    eps: float


def _head_shapes(config: EncoderConfig, head_kind: str, k: int) -> tuple[tuple[int, int], int]:
    d = config.output_dim
    if head_kind == HEAD_INDEPENDENT:
        return (k - 1, d), k - 1
    if head_kind == HEAD_SHARED_SLOPE_BIAS:
        return (1, d), k - 1
    if head_kind == HEAD_SOFTMAX:
        return (k, d), k
    raise InputError(f"unknown head kind {head_kind!r}")


def init_params(
    config: EncoderConfig, head_kind: str, spec: ProblemSpec, seed: int
) -> ModelParams:
    """Deterministic init: fan-in-scaled uniform weights, zero biases."""
    layout = _layout(config, head_kind, spec.num_classes)
    rng = np.random.default_rng([int(seed), _INIT_STREAM])
    enc_w = []
    for fan_out, fan_in in layout.shapes[: layout.n_layers]:
        bound = 1.0 / np.sqrt(fan_in)
        enc_w.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
    enc_b = [np.zeros(shape) for shape in layout.shapes[layout.n_layers : -2]]
    bound = 1.0 / np.sqrt(config.output_dim)
    head_w = rng.uniform(-bound, bound, size=layout.shapes[-2])
    flat = np.concatenate([*enc_w, *enc_b, head_w, np.zeros(layout.shapes[-1])], axis=None)
    return ModelParams(config, head_kind, spec.num_classes, ParamBundle(flat, layout))


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _activation(kind: str, x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) if kind == ACT_RELU else np.tanh(x)


def _forward_cached(params: ModelParams, x: np.ndarray):
    """Forward pass keeping pre-activations for backprop. x is (B, input_dim)."""
    acts = [x]
    pres = []
    z = x
    bundle = params.bundle
    for w, b in zip(bundle.encoder_w, bundle.encoder_b):
        pre = z @ w.T + b
        z = _activation(params.encoder.activation, pre)
        pres.append(pre)
        acts.append(z)
    # for the shared head the (B,1) slope output broadcasts against the K-1 biases
    logits = z @ bundle.head_w.T + bundle.head_b
    return logits, pres, acts


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Logits for one feature vector or a batch of them.

    Returns K-1 task logits for the two task heads, K class logits for the
    softmax head; apply :func:`sigmoid` / :func:`softmax` to interpret them.
    """
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != params.encoder.input_dim:
        raise InputError(
            f"feature dim {x.shape[1]} does not match input_dim {params.encoder.input_dim}"
        )
    logits, _, _ = _forward_cached(params, x)
    return logits[0] if single else logits


# loss kinds whose targets are hard labels; or_soft and ce_soft take soft rows
_HARD_TARGET_LOSSES = (
    losses_mod.LOSS_CE,
    losses_mod.LOSS_OR_CNN,
    losses_mod.LOSS_CORN,
    losses_mod.LOSS_SORD_AE,
    losses_mod.LOSS_SORD_SE,
)


@dataclass(frozen=True)
class Batch:
    """One mini-batch as arrays.

    ``features`` is (B, input_dim). ``targets`` is a (B,) array of hard
    labels, or (B, K-1) exceedance rows for ``or_soft``, or (B, K) rating
    rows for ``ce_soft``.
    """

    features: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.features)


def _stack(rows: list, what: str) -> np.ndarray:
    try:
        return np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError):
        raise InputError(f"batch {what} must all have the same length") from None


def batch_from_pairs(pairs: Sequence[tuple], loss_kind: str) -> Batch:
    """A :class:`Batch` from ``(features, target)`` pairs.

    Hard-label targets are ints; ``or_soft`` targets are ExceedanceLabels or
    K-1 vectors; ``ce_soft`` targets are RatingDistributions or K vectors.
    """
    features = _stack([np.asarray(f, dtype=np.float64) for f, _ in pairs], "features")
    if loss_kind in _HARD_TARGET_LOSSES:
        try:
            targets = np.asarray([int(t) for _, t in pairs], dtype=np.int64)
        except (TypeError, ValueError):
            raise InputError(f"{loss_kind} targets must be hard labels") from None
    else:
        targets = _stack(
            [getattr(t, "exceed", getattr(t, "probs", t)) for _, t in pairs], "targets"
        )
    return Batch(features, targets)


def loss_and_gradient(
    params: ModelParams, batch: Union["Batch", Sequence[tuple]], loss_kind: str
) -> tuple[float, ParamBundle]:
    """Mini-batch loss and its exact gradient.

    ``batch`` is a :class:`Batch` or a sequence of ``(features, target)``
    pairs (see :func:`batch_from_pairs`). The loss is the MEAN over examples
    of the per-example loss (tasks summed within an example), so
    learning-rate semantics do not depend on batch size. ``corn`` is
    inherently batch-level (per-task subset means, summed) and is returned
    as-is; duplicating a batch leaves every loss kind's value unchanged.
    """
    n = len(batch)
    if n == 0:
        raise InputError("batch must be non-empty")
    if loss_kind not in losses_mod.ALL_LOSS_KINDS:
        raise InputError(
            f"unknown loss kind {loss_kind!r}; valid: {', '.join(losses_mod.ALL_LOSS_KINDS)}"
        )
    task_loss = loss_kind in _TASK_LOSSES
    if task_loss and params.head_kind == HEAD_SOFTMAX:
        raise InputError(f"loss {loss_kind!r} needs a task head, not softmax")
    if not task_loss and params.head_kind != HEAD_SOFTMAX:
        raise InputError(f"loss {loss_kind!r} needs the softmax head")
    if not isinstance(batch, Batch):
        batch = batch_from_pairs(batch, loss_kind)

    k = params.num_classes
    x = np.asarray(batch.features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.encoder.input_dim:
        raise InputError("batch features must all have length input_dim")
    logits, pres, acts = _forward_cached(params, x)
    probs = sigmoid(logits) if task_loss else softmax(logits)

    # each loss call checks its targets (label range, shape) for the whole batch
    # before the gradient uses them
    if loss_kind in _HARD_TARGET_LOSSES:
        ys = np.asarray(batch.targets, dtype=np.int64)
    if loss_kind == losses_mod.LOSS_CORN:
        loss = losses_mod.corn_loss(probs, ys)
        dlogits = np.zeros_like(logits)
        for col in range(k - 1):
            subset = ys >= col + 1
            m = int(subset.sum())
            if m == 0:
                continue
            tcol = (ys[subset] > col + 1).astype(np.float64)
            dlogits[subset, col] = (probs[subset, col] - tcol) / m
    else:
        if loss_kind == losses_mod.LOSS_OR_CNN:
            per_example = losses_mod.or_cnn_loss(probs, ys)
            targets = (ys[:, None] > np.arange(1, k)).astype(np.float64)
        elif loss_kind == losses_mod.LOSS_CE:
            per_example = losses_mod.ce_loss(probs, ys)
            targets = (ys[:, None] == np.arange(1, k + 1)).astype(np.float64)
        elif loss_kind in (losses_mod.LOSS_SORD_AE, losses_mod.LOSS_SORD_SE):
            distance = DISTANCE_AE if loss_kind == losses_mod.LOSS_SORD_AE else DISTANCE_SE
            targets = sord_soft_label(ys, ProblemSpec(k), distance)
            per_example = losses_mod.ce_soft_loss(probs, targets)
        else:
            targets = np.asarray(batch.targets, dtype=np.float64)
            soft_loss = (losses_mod.or_soft_loss if loss_kind == losses_mod.LOSS_OR_SOFT
                         else losses_mod.ce_soft_loss)
            per_example = soft_loss(probs, targets)
        loss = float(per_example.sum()) / n
        dlogits = (probs - targets) / n

    return loss, _backward(params, dlogits, pres, acts)


def _backward(
    params: ModelParams, dlogits: np.ndarray, pres: list, acts: list
) -> ParamBundle:
    bundle = params.bundle
    z_last = acts[-1]
    gb = dlogits.sum(axis=0)
    if params.head_kind == HEAD_SHARED_SLOPE_BIAS:
        dshared = dlogits.sum(axis=1, keepdims=True)  # (B,1): logit_k shares one slope
        gw = dshared.T @ z_last
        dz = dshared @ bundle.head_w
    else:
        gw = dlogits.T @ z_last
        dz = dlogits @ bundle.head_w

    n_layers = bundle.layout.n_layers
    genc_w: list[np.ndarray] = [None] * n_layers
    genc_b: list[np.ndarray] = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        pre = pres[i]
        if params.encoder.activation == ACT_RELU:
            dpre = dz * (pre > 0.0)
        else:
            dpre = dz * (1.0 - np.tanh(pre) ** 2)
        genc_w[i] = dpre.T @ acts[i]
        genc_b[i] = dpre.sum(axis=0)
        dz = dpre @ bundle.encoder_w[i]
    flat = np.concatenate([*genc_w, *genc_b, gw, gb], axis=None)
    return ParamBundle(flat, bundle.layout)


def init_adam_state(
    params: ModelParams,
    lr: float = 1e-5,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    return AdamState(m=np.zeros_like(params.bundle.flat), v=np.zeros_like(params.bundle.flat),
                     step=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(
    params: ModelParams, grad: ParamBundle, state: AdamState
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update on the flat vectors; returns fresh params and state."""
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    g = grad.flat
    m = b1 * state.m + (1.0 - b1) * g
    v = b2 * state.v + (1.0 - b2) * g * g
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    flat = params.bundle.flat - state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    new_state = AdamState(m=m, v=v, step=t, lr=state.lr,
                          beta1=state.beta1, beta2=state.beta2, eps=state.eps)
    return params.with_flat(flat), new_state


def ensemble_average(dists: Sequence[ClassDistribution]) -> ClassDistribution:
    """Elementwise mean of class distributions (seed-ensemble prediction)."""
    if len(dists) == 0:
        raise InputError("ensemble_average needs at least one distribution")
    k = dists[0].num_classes
    if any(d.num_classes != k for d in dists):
        raise InputError("ensemble members must share the same number of classes")
    stacked = np.asarray([d.probs for d in dists])
    return ClassDistribution(stacked.mean(axis=0))


def flatten_params(params: ModelParams) -> np.ndarray:
    """A copy of all trainable values as one flat vector (finite-difference plumbing)."""
    return params.bundle.flat.copy()


def replace_flat(params: ModelParams, flat: np.ndarray) -> ModelParams:
    """Rebuild params from a flat vector shaped like :func:`flatten_params` output."""
    return params.with_flat(np.asarray(flat, dtype=np.float64))


def save_params(params: ModelParams, path: str | Path) -> None:
    """Checkpoint to versioned JSON; floats round-trip bit-exactly."""
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "encoder": {
            "input_dim": params.encoder.input_dim,
            "hidden_dims": list(params.encoder.hidden_dims),
            "activation": params.encoder.activation,
        },
        "head_kind": params.head_kind,
        "num_classes": params.num_classes,
        "encoder_w": [a.tolist() for a in params.bundle.encoder_w],
        "encoder_b": [a.tolist() for a in params.bundle.encoder_b],
        "head_w": params.bundle.head_w.tolist(),
        "head_b": params.bundle.head_b.tolist(),
    }
    atomic_write_json(path, doc)


def load_params(path: str | Path) -> ModelParams:
    doc = read_json(path)
    if doc.get("format") != _CHECKPOINT_FORMAT or doc.get("version") != _CHECKPOINT_VERSION:
        raise InputError(f"{path}: not a version-{_CHECKPOINT_VERSION} checkpoint")
    enc = EncoderConfig(
        input_dim=doc["encoder"]["input_dim"],
        hidden_dims=tuple(doc["encoder"]["hidden_dims"]),
        activation=doc["encoder"]["activation"],
    )
    head_kind = doc["head_kind"]
    num_classes = int(doc["num_classes"])
    layout = _layout(enc, head_kind, num_classes)
    arrays = [np.asarray(a, dtype=np.float64) for a in
              (*doc["encoder_w"], *doc["encoder_b"], doc["head_w"], doc["head_b"])]
    if tuple(a.shape for a in arrays) != layout.shapes:
        raise InputError(f"{path}: parameter shapes do not match the encoder and head")
    flat = np.concatenate(arrays, axis=None)
    return ModelParams(enc, head_kind, num_classes, ParamBundle(flat, layout))
