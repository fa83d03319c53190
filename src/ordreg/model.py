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
from typing import Optional, Sequence, Union

import numpy as np

from . import losses as losses_mod
from .core import (
    DISTANCE_AE,
    DISTANCE_SE,
    InputError,
    ProblemSpec,
    check_choice,
    check_class_indices,
    check_int,
    class_max,
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

# Adam's moment decay rates and denominator guard: the defaults of Kingma & Ba
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class EncoderConfig:
    """MLP shape: input width, hidden widths (empty = linear encoder), activation."""

    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    activation: str = ACT_RELU

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_dim", check_int("input_dim", self.input_dim, 1))
        object.__setattr__(self, "hidden_dims", tuple(
            check_int(f"hidden_dims[{i}]", d, 1) for i, d in enumerate(self.hidden_dims)))
        check_choice("activation", self.activation, (ACT_RELU, ACT_TANH))

    @property
    def output_dim(self) -> int:
        return self.hidden_dims[-1] if self.hidden_dims else self.input_dim


def _layout(config: EncoderConfig, head_kind: str, k: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of the trainable tensors, in flat-vector order.

    The order is every encoder weight, every encoder bias, the head weight,
    then the head bias; the flat vector is their C-order ravels concatenated.
    """
    dims = (config.input_dim, *config.hidden_dims)
    w_shape, n_bias = _head_shapes(config, head_kind, k)
    return (
        *((fan_out, fan_in) for fan_in, fan_out in zip(dims[:-1], dims[1:])),
        *((fan_out,) for fan_out in dims[1:]),
        w_shape,
        (n_bias,),
    )


@dataclass(frozen=True, eq=False)
class ParamBundle:
    """Every trainable tensor as a shaped view into one flat float64 vector.

    Writing through a view changes ``flat`` and the other way round.
    Gradients use the same layout; Adam works on the flat vectors only.
    A stacked bundle holds M models as the rows of an (M, P) ``flat``
    matrix, and each view gains a leading model axis.
    """

    flat: np.ndarray
    layout: tuple[tuple[int, ...], ...]  # the tensor shapes of :func:`_layout`

    def __post_init__(self) -> None:
        size = sum(math.prod(s) for s in self.layout)
        if self.flat.ndim not in (1, 2) or self.flat.shape[-1] != size:
            raise InputError(f"flat vector must have {size} entries, got {self.flat.shape}")

    @cached_property
    def _views(self) -> tuple[np.ndarray, ...]:
        lead = self.flat.shape[:-1]
        ends = tuple(accumulate(math.prod(s) for s in self.layout))
        return tuple(self.flat[..., a:b].reshape(*lead, *s)
                     for a, b, s in zip((0, *ends[:-1]), ends, self.layout))

    def arrays(self) -> tuple[np.ndarray, ...]:
        return self._views

    @property
    def encoder_w(self) -> tuple[np.ndarray, ...]:
        return self._views[: len(self.layout) // 2 - 1]

    @property
    def encoder_b(self) -> tuple[np.ndarray, ...]:
        return self._views[len(self.layout) // 2 - 1 : -2]

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
    def stacked(self) -> bool:
        """True when the bundle holds M models as the rows of an (M, P) matrix."""
        return self.bundle.flat.ndim == 2

    def with_flat(self, flat: np.ndarray) -> "ModelParams":
        """The same model with its values taken from ``flat`` (no copy)."""
        return ModelParams(self.encoder, self.head_kind, self.num_classes,
                           ParamBundle(flat, self.bundle.layout))


@dataclass
class AdamState:
    """First/second moment vectors (flat layout), step counter and learning rate.

    For stacked params ``m`` and ``v`` are (M, P) and ``step`` is an (M,)
    int array: each model counts its own steps.
    """

    m: np.ndarray
    v: np.ndarray
    step: Union[int, np.ndarray]
    lr: float


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
    rng = np.random.default_rng([check_int("seed", seed, 0), _INIT_STREAM])
    enc_w = []
    for fan_out, fan_in in layout[: len(config.hidden_dims)]:
        bound = 1.0 / np.sqrt(fan_in)
        enc_w.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
    enc_b = [np.zeros(shape) for shape in layout[len(config.hidden_dims) : -2]]
    bound = 1.0 / np.sqrt(config.output_dim)
    head_w = rng.uniform(-bound, bound, size=layout[-2])
    flat = np.concatenate([*enc_w, *enc_b, head_w, np.zeros(layout[-1])], axis=None)
    return ModelParams(config, head_kind, spec.num_classes, ParamBundle(flat, layout))


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|) <= 1
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - class_max(logits)[..., None]
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _activation(kind: str, x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) if kind == ACT_RELU else np.tanh(x)


def _t(a: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of every matrix in a stack."""
    return a.swapaxes(-1, -2)


def _forward_cached(params: ModelParams, x: np.ndarray):
    """Forward pass keeping pre-activations for backprop.

    x is (B, input_dim), or (M, B, input_dim) for stacked params. A stacked
    ``@`` multiplies model by model, with the same bits as each model alone.
    """
    acts = [x]
    pres = []
    z = x
    bundle = params.bundle
    for w, b in zip(bundle.encoder_w, bundle.encoder_b):
        pre = z @ _t(w) + b[..., None, :]
        z = _activation(params.encoder.activation, pre)
        pres.append(pre)
        acts.append(z)
    # for the shared head the (B,1) slope output broadcasts against the K-1 biases
    logits = z @ _t(bundle.head_w) + bundle.head_b[..., None, :]
    return logits, pres, acts


def _check_features(params: ModelParams, x: np.ndarray, what: str) -> None:
    """``x`` must be (B, input_dim), or (M, B, input_dim) for M stacked models."""
    want = (params.bundle.flat.shape[0],) if params.stacked else ()
    if x.ndim != len(want) + 2 or x.shape[:-2] != want or x.shape[-1] != params.encoder.input_dim:
        raise InputError(
            f"{what} of shape {x.shape} do not match input_dim {params.encoder.input_dim}"
            + (f" for {want[0]} stacked models" if want else "")
        )


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Logits for one feature vector or a batch of them.

    Returns K-1 task logits for the two task heads, K class logits for the
    softmax head; apply :func:`sigmoid` / :func:`softmax` to interpret them.
    Stacked params take (M, B, input_dim) features and give (M, B, n) logits.
    """
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    _check_features(params, x, "features")
    logits, _, _ = _forward_cached(params, x)
    return logits[0] if single else logits


@dataclass(frozen=True)
class Batch:
    """One mini-batch as arrays.

    ``features`` is (B, input_dim). ``targets`` is a (B,) array of hard
    labels, or (B, K-1) exceedance rows for ``or_soft``, or (B, K) rating
    rows for ``ce_soft``; an ``out=`` step takes float rows for every kind,
    label y as row y-1 of :func:`class_rows`. A stacked batch puts a leading
    model axis on both: M models with B examples each. ``rows`` counts the real
    leading examples, one int per model (None: all B); the rows after them are
    padding that adds nothing to a loss or gradient.
    """

    features: np.ndarray
    targets: np.ndarray
    rows: Optional[Union[int, np.ndarray]] = None

    def __len__(self) -> int:
        """The number of real examples, over every model of a stacked batch."""
        examples = np.shape(self.features)[:-1]
        return math.prod(examples) if self.rows is None else int(np.sum(self.rows))


def _stack(rows: list, what: str, dtype: Optional[type] = np.float64) -> np.ndarray:
    try:
        return np.asarray(rows, dtype=dtype)
    except (TypeError, ValueError):
        raise InputError(f"batch {what} must all have the same length") from None


def batch_from_pairs(pairs: Sequence[tuple], loss_kind: str) -> Batch:
    """A :class:`Batch` from ``(features, target)`` pairs.

    Hard-label targets are class indices, kept as given; ``or_soft`` targets are
    ExceedanceLabels or K-1 vectors; ``ce_soft`` targets are RatingDistributions or K vectors.
    """
    features = _stack([np.asarray(f, dtype=np.float64) for f, _ in pairs], "features")
    hard = loss_kind in losses_mod.HARD_TARGET_LOSSES
    targets = [t if hard else getattr(t, "exceed", getattr(t, "probs", t)) for _, t in pairs]
    return Batch(features, _stack(targets, "targets", None if hard else np.float64))


def class_rows(loss_kind: str, k: int) -> np.ndarray:
    """Row y-1 of this (K, n) table is the float target row of class y for a hard-label
    loss kind: its one-hot row (``ce``), its indicators 1(y > j) (``or_cnn``, ``corn``)
    or its SORD row (``sord_ae``, ``sord_se``)."""
    if loss_kind == losses_mod.LOSS_CE:
        return np.eye(k)
    if loss_kind in (losses_mod.LOSS_SORD_AE, losses_mod.LOSS_SORD_SE):
        distance = DISTANCE_AE if loss_kind == losses_mod.LOSS_SORD_AE else DISTANCE_SE
        return sord_soft_label(np.arange(1, k + 1), ProblemSpec(k), distance)
    return losses_mod.label_rows(np.arange(1, k + 1), k)


def loss_and_gradient(
    params: ModelParams, batch: Union["Batch", Sequence[tuple]], loss_kind: str,
    *, out: Optional[ParamBundle] = None,
) -> tuple[Union[float, np.ndarray], ParamBundle]:
    """Mini-batch loss and its exact gradient.

    ``batch`` is a :class:`Batch` or a sequence of ``(features, target)``
    pairs (see :func:`batch_from_pairs`). The loss is the MEAN over a model's
    real examples (``Batch.rows``) of the per-example loss (tasks summed
    within an example), so learning-rate semantics do not depend on batch
    size. ``corn`` is inherently batch-level (per-task subset means, summed)
    and is returned as-is; duplicating a batch leaves every loss kind's value
    unchanged. Pad rows add exact zeros; a model without real rows gets 0.

    Stacked params take a stacked :class:`Batch` and give the (M,) losses
    and an (M, P) gradient; every model reduces over its own B rows only,
    so each row equals that model's unstacked result bit for bit.

    The gradient fills a fresh bundle, or ``out`` (shaped like ``params.bundle``),
    whose caller vouches for a non-empty :class:`Batch` of float target rows, a loss
    kind fitting the head and row counts in 0..B. Without ``out`` those are checked,
    and hard labels in 1..K are checked and looked up in :func:`class_rows`.
    """
    task_head = loss_kind in _TASK_LOSSES
    if out is None:
        if isinstance(batch, Batch) and batch.rows is not None:
            examples, rows = np.shape(batch.features)[:-1], np.asarray(batch.rows)
            if examples and (rows.shape != examples[:-1] or rows.dtype.kind not in "iu"
                             or not ((rows >= 0) & (rows <= examples[-1])).all()):
                raise InputError(f"batch rows must be integer counts in 0..{examples[-1]}"
                                 f" of shape {examples[:-1]}, got {rows.tolist()}")
        if len(batch) == 0:
            raise InputError("batch must be non-empty")
        check_choice("loss_kind", loss_kind, losses_mod.ALL_LOSS_KINDS)
        if task_head != (params.head_kind != HEAD_SOFTMAX):
            raise InputError(f"loss {loss_kind!r} needs "
                             + ("a task head, not softmax" if task_head else "the softmax head"))
        if not isinstance(batch, Batch):
            batch = batch_from_pairs(batch, loss_kind)
        if loss_kind in losses_mod.HARD_TARGET_LOSSES:
            labels, examples = np.asarray(batch.targets), np.shape(batch.features)[:-1]
            if labels.shape != examples:
                raise InputError(f"hard labels of shape {labels.shape} for {examples} examples")
            labels = check_class_indices(labels.ravel(), params.num_classes)
            table = class_rows(loss_kind, params.num_classes)
            batch = Batch(batch.features, table[labels - 1].reshape(*examples, -1), batch.rows)
        out = ParamBundle(np.empty(params.bundle.flat.shape), params.bundle.layout)

    x = np.asarray(batch.features, dtype=np.float64)
    _check_features(params, x, "batch features")
    n = x.shape[-2]
    rows = np.asarray(n if batch.rows is None else batch.rows)
    real = np.arange(n) < rows[..., None]  # each model's real rows; padding adds exact zeros
    per_model = np.maximum(rows, 1)  # a model without real rows gets loss 0 and gradient 0
    logits, pres, acts = _forward_cached(params, x)
    probs = sigmoid(logits) if task_head else softmax(logits)
    targets = np.asarray(batch.targets, dtype=np.float64)
    if loss_kind == losses_mod.LOSS_CORN:
        # a task sees its model's real rows in its subset; a term is divided by the subset size
        subset = losses_mod.corn_subsets(targets) & real[..., None]
        sizes = np.maximum(subset.sum(axis=-2, keepdims=True), 1)
        loss = losses_mod.corn_rows_loss(probs, targets, subset, sizes)
        dlogits = np.where(subset, (probs - targets) / sizes, 0.0)
    else:
        # every model's rows as one (M*B, n) array; on hard rows a 0 target adds an exact 0
        soft_loss = losses_mod.or_soft_loss if task_head else losses_mod.ce_soft_loss
        per_example = soft_loss(*(a.reshape(-1, a.shape[-1]) for a in (probs, targets)))
        loss = np.where(real, per_example.reshape(probs.shape[:-1]), 0.0).sum(axis=-1) / per_model
        dlogits = np.where(real[..., None], probs - targets, 0.0) / per_model[..., None, None]
    if not params.stacked:
        loss = float(loss)
    return loss, _backward(params, dlogits, pres, acts, out)


def _backward(
    params: ModelParams, dlogits: np.ndarray, pres: list, acts: list, out: ParamBundle
) -> ParamBundle:
    """Backprop from the logit gradient, writing every tensor's gradient into ``out``."""
    bundle = params.bundle
    np.add.reduce(dlogits, axis=-2, out=out.head_b)
    if params.head_kind == HEAD_SHARED_SLOPE_BIAS:
        dshared = dlogits.sum(axis=-1, keepdims=True)  # (B,1): logit_k shares one slope
        np.matmul(_t(dshared), acts[-1], out=out.head_w)
        dz = dshared @ bundle.head_w
    else:
        np.matmul(_t(dlogits), acts[-1], out=out.head_w)
        dz = dlogits @ bundle.head_w

    for i in range(len(params.encoder.hidden_dims) - 1, -1, -1):
        if params.encoder.activation == ACT_RELU:
            dpre = dz * (pres[i] > 0.0)
        else:
            dpre = dz * (1.0 - np.tanh(pres[i]) ** 2)
        np.matmul(_t(dpre), acts[i], out=out.encoder_w[i])
        np.add.reduce(dpre, axis=-2, out=out.encoder_b[i])
        if i:  # the input features need no gradient
            dz = dpre @ bundle.encoder_w[i]
    return out


def init_adam_state(params: ModelParams, lr: float = 1e-5) -> AdamState:
    return AdamState(m=np.zeros_like(params.bundle.flat), v=np.zeros_like(params.bundle.flat),
                     step=0, lr=lr)


_BIAS_TABLES: dict[float, np.ndarray] = {}  # beta -> 1 - beta**s for s = 0, 1, ..., grown on demand


def _bias_correction(beta: float, t: Union[int, np.ndarray]) -> np.ndarray:
    """1 - beta**t from the table: (1,) for an int step, (M, 1) for stacked (M,) steps."""
    try:
        return _BIAS_TABLES[beta][t, None]
    except (KeyError, IndexError):
        _BIAS_TABLES[beta] = 1.0 - np.array([beta**s for s in range(2 * int(np.max(t)) + 1024)])
        return _BIAS_TABLES[beta][t, None]


def adam_step(
    params: ModelParams, grad: ParamBundle, state: AdamState,
    *, out: Optional[tuple[ModelParams, AdamState]] = None,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update on the flat vectors.

    Stacked params update every model's row in the same few ufunc calls,
    each with its own step count. The results are fresh arrays, or written
    into ``out``: ``out=(params, state)`` updates them in place, same bits.
    """
    t = state.step + 1
    new_params, new_state = out or (
        params.with_flat(np.empty(params.bundle.flat.shape)),
        AdamState(np.empty(state.m.shape), np.empty(state.v.shape), t, state.lr))
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    g = grad.flat
    m = np.multiply(b1, state.m, out=new_state.m)
    m += (1.0 - b1) * g
    v = np.multiply(b2, state.v, out=new_state.v)
    v += (1.0 - b2) * g * g
    update = state.lr * (m / _bias_correction(b1, t)) / (np.sqrt(v / _bias_correction(b2, t)) + ADAM_EPS)
    np.subtract(params.bundle.flat, update, out=new_params.bundle.flat)
    new_state.step = t
    return new_params, new_state


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
    """A :func:`save_params` checkpoint; a malformed one raises InputError naming the field."""
    doc = read_json(path)
    if (not isinstance(doc, dict) or doc.get("format") != _CHECKPOINT_FORMAT
            or doc.get("version") != _CHECKPOINT_VERSION):
        raise InputError(f"{path}: not a version-{_CHECKPOINT_VERSION} checkpoint")

    def field(name: str, read):
        if name not in doc:
            raise InputError(f"{path}: missing field {name!r}")
        try:
            return read(doc[name])
        except (InputError, KeyError, TypeError, ValueError) as exc:
            detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
            raise InputError(f"{path}: field {name!r}: {detail}") from None

    enc = field("encoder", lambda e: EncoderConfig(e["input_dim"], tuple(e["hidden_dims"]),
                                                   e["activation"]))
    spec = field("num_classes", ProblemSpec)
    layout = field("head_kind", lambda kind: _layout(enc, kind, spec.num_classes))
    tensors = lambda ts: [np.asarray(t, dtype=np.float64) for t in ts]  # noqa: E731
    arrays = [*field("encoder_w", tensors), *field("encoder_b", tensors),
              *field("head_w", lambda w: tensors([w])), *field("head_b", lambda b: tensors([b]))]
    if tuple(a.shape for a in arrays) != layout:
        raise InputError(f"{path}: parameter shapes do not match the encoder and head")
    flat = np.concatenate(arrays, axis=None)
    return ModelParams(enc, doc["head_kind"], spec.num_classes, ParamBundle(flat, layout))
