"""The array-native training step against the per-example code it replaced.

The ``_ref_*`` functions below are the earlier implementation, one example or
one row at a time: per-example losses summed in a Python loop, one target row
built per example, Adam applied tensor by tensor, and predictions converted
and decoded row by row through the core wrappers. The batched code must give
exactly the same bits: ``array_equal`` on arrays and ``==`` on losses.
"""

import numpy as np
import pytest

from ordreg.core import (
    ClassDistribution,
    ProblemSpec,
    RatingDistribution,
    TaskProbabilities,
    class_distribution_from_tasks,
    decode_argmax,
    decode_count,
    exceedance_from_soft,
    sord_soft_label,
)
from ordreg.harness import METHODS, decode_distribution, predict_prob_matrix
from ordreg.ioutil import atomic_write_json
from ordreg.losses import (
    LOSS_CE,
    LOSS_CE_SOFT,
    LOSS_CORN,
    LOSS_OR_CNN,
    LOSS_OR_SOFT,
    LOSS_SORD_AE,
    LOSS_SORD_SE,
    LOG_EPS,
)
from ordreg.model import (
    HEAD_INDEPENDENT,
    HEAD_SHARED_SLOPE_BIAS,
    HEAD_SOFTMAX,
    Batch,
    EncoderConfig,
    adam_step,
    batch_from_pairs,
    init_adam_state,
    init_params,
    loss_and_gradient,
    save_params,
    sigmoid,
    softmax,
)

PAIRINGS = [
    (loss, HEAD_SOFTMAX) for loss in (LOSS_CE, LOSS_CE_SOFT, LOSS_SORD_AE, LOSS_SORD_SE)
] + [
    (loss, head)
    for loss in (LOSS_OR_CNN, LOSS_OR_SOFT, LOSS_CORN)
    for head in (HEAD_INDEPENDENT, HEAD_SHARED_SLOPE_BIAS)
]


# ---- the per-example reference ----


def _ref_log(p):
    return np.log(np.minimum(np.maximum(p, LOG_EPS), 1.0 - LOG_EPS))


def _ref_bce(p, target):
    return -(target * _ref_log(p) + (1.0 - target) * _ref_log(1.0 - p))


def _ref_or_cnn_loss(p, y):
    k = p.size + 1
    targets = (int(y) > np.arange(1, k)).astype(np.float64)
    return float(_ref_bce(p, targets).sum())


def _ref_or_soft_loss(p, t):
    return float(_ref_bce(p, t).sum())


def _ref_ce_loss(p, y):
    return float(-_ref_log(p[int(y) - 1]))


def _ref_ce_soft_loss(p, t):
    return float(-(t * _ref_log(p)).sum())


def _ref_corn_loss(p, labels):
    total = 0.0
    for k in range(1, p.shape[1] + 1):
        subset = labels >= k
        n = int(subset.sum())
        if n == 0:
            continue
        targets = (labels[subset] > k).astype(np.float64)
        task = 0.0
        for term in _ref_bce(p[subset, k - 1], targets):  # the subset's terms in row order
            task += term
        total += task / n
    return total


def _ref_sord_label(y, k, distance):
    ks = np.arange(1, k + 1, dtype=np.float64)
    phi = np.abs(ks - y) if distance == "ae" else (ks - y) ** 2
    w = np.exp(-phi)
    return w / w.sum()


def _ref_target_rows(pairs, loss_kind, k):
    rows = []
    for _, target in pairs:
        if loss_kind == LOSS_CE:
            row = np.zeros(k)
            row[int(target) - 1] = 1.0
        elif loss_kind == LOSS_CORN:
            row = np.zeros(k - 1)
        elif loss_kind == LOSS_OR_CNN:
            row = (int(target) > np.arange(1, k)).astype(np.float64)
        elif loss_kind == LOSS_OR_SOFT:
            row = target.exceed if hasattr(target, "exceed") else np.asarray(target, np.float64)
        elif loss_kind == LOSS_CE_SOFT:
            row = target.probs if hasattr(target, "probs") else np.asarray(target, np.float64)
        else:
            row = _ref_sord_label(int(target), k, "ae" if loss_kind == LOSS_SORD_AE else "se")
        rows.append(row)
    return np.asarray(rows)


def _ref_loss_and_gradient(params, pairs, loss_kind):
    """Loss and the gradient tensors, one example at a time."""
    bundle = params.bundle
    k = params.num_classes
    x = np.asarray([np.asarray(f, dtype=np.float64) for f, _ in pairs])
    n = x.shape[0]
    targets = _ref_target_rows(pairs, loss_kind, k)
    acts, pres, z = [x], [], x
    for w, b in zip(bundle.encoder_w, bundle.encoder_b):
        pre = z @ w.T + b
        z = np.maximum(pre, 0.0) if params.encoder.activation == "relu" else np.tanh(pre)
        pres.append(pre)
        acts.append(z)
    logits = z @ bundle.head_w.T + bundle.head_b

    if loss_kind == LOSS_CORN:
        probs = sigmoid(logits)
        ys = np.asarray([int(t) for _, t in pairs])
        loss = _ref_corn_loss(probs, ys)
        dlogits = np.zeros_like(logits)
        for col in range(k - 1):
            subset = ys >= col + 1
            m = int(subset.sum())
            if m == 0:
                continue
            tcol = (ys[subset] > col + 1).astype(np.float64)
            dlogits[subset, col] = (probs[subset, col] - tcol) / m
    elif loss_kind in (LOSS_OR_CNN, LOSS_OR_SOFT):
        probs = sigmoid(logits)
        if loss_kind == LOSS_OR_CNN:
            per_example = [_ref_or_cnn_loss(probs[i], pairs[i][1]) for i in range(n)]
        else:
            per_example = [_ref_or_soft_loss(probs[i], targets[i]) for i in range(n)]
        loss = float(np.sum(per_example)) / n
        dlogits = (probs - targets) / n
    else:
        probs = softmax(logits)
        if loss_kind == LOSS_CE:
            per_example = [_ref_ce_loss(probs[i], pairs[i][1]) for i in range(n)]
        else:
            per_example = [_ref_ce_soft_loss(probs[i], targets[i]) for i in range(n)]
        loss = float(np.sum(per_example)) / n
        dlogits = (probs - targets) / n

    if params.head_kind == HEAD_SHARED_SLOPE_BIAS:
        gb = dlogits.sum(axis=0)
        dshared = dlogits.sum(axis=1, keepdims=True)
        gw = dshared.T @ acts[-1]
        dz = dshared @ bundle.head_w
    else:
        gb = dlogits.sum(axis=0)
        gw = dlogits.T @ acts[-1]
        dz = dlogits @ bundle.head_w
    genc_w, genc_b = [], []
    for i in range(len(bundle.encoder_w) - 1, -1, -1):
        if params.encoder.activation == "relu":
            dpre = dz * (pres[i] > 0.0)
        else:
            dpre = dz * (1.0 - np.tanh(pres[i]) ** 2)
        genc_w.append(dpre.T @ acts[i])
        genc_b.append(dpre.sum(axis=0))
        dz = dpre @ bundle.encoder_w[i]
    genc_w.reverse()
    genc_b.reverse()
    return loss, [*genc_w, *genc_b, gw, gb]


def _ref_adam(arrays, grads, m, v, t, lr, b1, b2, eps):
    """One Adam step applied tensor by tensor; returns new arrays, m, v."""
    m = [b1 * m_ + (1.0 - b1) * g for m_, g in zip(m, grads)]
    v = [b2 * v_ + (1.0 - b2) * g * g for v_, g in zip(v, grads)]
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    new = [p - lr * (m_ / bc1) / (np.sqrt(v_ / bc2) + eps) for p, m_, v_ in zip(arrays, m, v)]
    return new, m, v


def _ref_class_row(t):
    k = t.size + 1
    raw = np.empty(k, dtype=np.float64)
    raw[0] = 1.0 - t[0]
    if k > 2:
        raw[1:-1] = t[:-1] - t[1:]
    raw[-1] = t[-1]
    clamped = np.maximum(raw, 0.0)
    return clamped / float(clamped.sum())


def _ref_tail_row(p):
    return np.minimum(np.cumsum(p[::-1])[::-1][1:], 1.0)


def _ref_decode(row, rule):
    if rule == "argmax":
        return int(np.flatnonzero(row == row.max())[0]) + 1
    return 1 + int(np.count_nonzero(_ref_tail_row(row) > 0.5))


def _ref_predict(params, method, features):
    spec = METHODS[method]
    bundle = params.bundle
    z = np.atleast_2d(np.asarray(features, dtype=np.float64))
    for w, b in zip(bundle.encoder_w, bundle.encoder_b):
        pre = z @ w.T + b
        z = np.maximum(pre, 0.0) if params.encoder.activation == "relu" else np.tanh(pre)
    logits = z @ bundle.head_w.T + bundle.head_b
    if spec.head_kind == "softmax":
        return softmax(logits)
    rows = []
    for row in sigmoid(logits):
        tasks = np.cumprod(row) if spec.loss_kind == LOSS_CORN else row
        rows.append(_ref_class_row(tasks))
    return np.asarray(rows)


# ---- batches ----


def _pairs(rng, loss_kind, k, d, n, labels=None):
    pairs = []
    for i in range(n):
        x = rng.normal(size=d)
        y = int(labels[i]) if labels is not None else int(rng.integers(1, k + 1))
        if loss_kind == LOSS_CE_SOFT:
            raw = rng.uniform(0.05, 1.0, size=k)
            target = RatingDistribution(raw / raw.sum())
        elif loss_kind == LOSS_OR_SOFT:
            raw = rng.uniform(0.05, 1.0, size=k)
            target = exceedance_from_soft(RatingDistribution(raw / raw.sum()))
        else:
            target = y
        pairs.append((x, target))
    return pairs


def _assert_step_matches(params, pairs, loss_kind):
    ref_loss, ref_grads = _ref_loss_and_gradient(params, pairs, loss_kind)
    flat_ref = np.concatenate([g.ravel() for g in ref_grads])
    for batch in (pairs, batch_from_pairs(pairs, loss_kind)):
        loss, grad = loss_and_gradient(params, batch, loss_kind)
        assert loss == ref_loss
        assert np.array_equal(grad.flat, flat_ref)
        for got, want in zip(grad.arrays(), ref_grads):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("loss_kind,head_kind", PAIRINGS)
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_loss_and_gradient_equal_the_per_example_loop(loss_kind, head_kind, k):
    rng = np.random.default_rng(100 * k + PAIRINGS.index((loss_kind, head_kind)))
    for hidden, activation in (((), "relu"), ((5,), "relu"), ((4, 3), "tanh")):
        params = init_params(EncoderConfig(3, hidden, activation), head_kind, ProblemSpec(k), k)
        for n in (1, 2, 7, 16, 33):
            _assert_step_matches(params, _pairs(rng, loss_kind, k, 3, n), loss_kind)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_corn_batches_with_empty_task_subsets(k):
    rng = np.random.default_rng(k)
    for head_kind in (HEAD_INDEPENDENT, HEAD_SHARED_SLOPE_BIAS):
        params = init_params(EncoderConfig(2, (4,)), head_kind, ProblemSpec(k), 3)
        # every task above the top label sees no example; all-1 labels leave only task 1
        for labels in ([1, 1, 1], [1], [1, 2, 1, 2], [2, 2], [k, k]):
            pairs = _pairs(rng, LOSS_CORN, k, 2, len(labels), labels)
            _assert_step_matches(params, pairs, LOSS_CORN)


@pytest.mark.parametrize("loss_kind,head_kind", PAIRINGS)
def test_an_epoch_of_steps_with_a_ragged_final_batch(loss_kind, head_kind):
    """Mini-batches sliced from epoch arrays, then Adam, equal the per-example path."""
    rng = np.random.default_rng(PAIRINGS.index((loss_kind, head_kind)))
    k, d, batch_size = 4, 3, 8
    pairs = _pairs(rng, loss_kind, k, d, 29)  # 29 = 3 * 8 + a ragged 5
    features = np.asarray([x for x, _ in pairs])
    targets = batch_from_pairs(pairs, loss_kind).targets
    params = init_params(EncoderConfig(d, (6,)), head_kind, ProblemSpec(k), 1)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    state = init_adam_state(params, lr=lr)
    ref = [a.copy() for a in params.bundle.arrays()]
    ref_m = [np.zeros_like(a) for a in ref]
    ref_v = [np.zeros_like(a) for a in ref]
    perm = rng.permutation(len(pairs))
    for t, start in enumerate(range(0, len(pairs), batch_size), start=1):
        chunk = perm[start : start + batch_size]
        ref_loss, ref_grads = _ref_loss_and_gradient(params, [pairs[j] for j in chunk], loss_kind)
        loss, grad = loss_and_gradient(params, Batch(features[chunk], targets[chunk]), loss_kind)
        assert loss == ref_loss
        assert np.array_equal(grad.flat, np.concatenate([g.ravel() for g in ref_grads]))
        ref, ref_m, ref_v = _ref_adam(ref, ref_grads, ref_m, ref_v, t, lr, b1, b2, eps)
        previous = params
        params, state = adam_step(params, grad, state)
        assert params.bundle.flat is not previous.bundle.flat  # a fresh vector per step
        for got, want in zip(params.bundle.arrays(), ref):
            assert np.array_equal(got, want)
        assert np.array_equal(state.m, np.concatenate([a.ravel() for a in ref_m]))
        assert np.array_equal(state.v, np.concatenate([a.ravel() for a in ref_v]))


@pytest.mark.parametrize("head_kind", [HEAD_INDEPENDENT, HEAD_SHARED_SLOPE_BIAS, HEAD_SOFTMAX])
def test_checkpoint_text_is_the_per_tensor_document(head_kind, tmp_path):
    params = init_params(EncoderConfig(3, (5, 2)), head_kind, ProblemSpec(4), 11)
    save_params(params, tmp_path / "got.json")
    b = params.bundle
    atomic_write_json(tmp_path / "want.json", {
        "format": "ordreg-params",
        "version": 1,
        "encoder": {"input_dim": 3, "hidden_dims": [5, 2], "activation": "relu"},
        "head_kind": head_kind,
        "num_classes": 4,
        "encoder_w": [a.tolist() for a in b.encoder_w],
        "encoder_b": [a.tolist() for a in b.encoder_b],
        "head_w": b.head_w.tolist(),
        "head_b": b.head_b.tolist(),
    })
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


# ---- predict and decode ----


def _awkward_task_rows(rng, k):
    """Rank-inconsistent rows, exact 0/0.5/1 entries and equal neighbours."""
    rows = [rng.uniform(0.0, 1.0, size=k - 1) for _ in range(40)]
    rows += [np.full(k - 1, 0.5), np.zeros(k - 1), np.ones(k - 1)]
    rows += [np.linspace(0.1, 0.9, k - 1)]  # increasing: clamps every interior class
    return np.asarray(rows)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_matrix_class_distributions_equal_the_per_row_conversion(k):
    tasks = _awkward_task_rows(np.random.default_rng(k), k)
    got = class_distribution_from_tasks(tasks)
    for row, want in zip(tasks, got):
        assert np.array_equal(want, _ref_class_row(row))
        assert np.array_equal(want, class_distribution_from_tasks(TaskProbabilities(row)).probs)
        assert decode_count(TaskProbabilities(row)) == 1 + int(np.count_nonzero(row > 0.5))
    assert np.array_equal(decode_count(tasks), [1 + int(np.count_nonzero(r > 0.5)) for r in tasks])


def _awkward_distributions(rng, k):
    rows = [rng.dirichlet(np.ones(k)) for _ in range(40)]
    uniform = np.full(k, 1.0 / k)
    tied_top = np.zeros(k)
    tied_top[[0, -1]] = 0.5  # an exact two-way tie; also a tail mass of exactly 0.5
    rows += [uniform, tied_top]
    if k >= 4:
        rows.append(np.array([0.1, 0.4, 0.4, 0.1] + [0.0] * (k - 4)))
    return np.asarray(rows)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_matrix_decodes_equal_the_per_row_decodes(k):
    probs = _awkward_distributions(np.random.default_rng(50 + k), k)
    tails = exceedance_from_soft(probs)
    assert np.array_equal(decode_distribution(probs, "argmax"),
                          [_ref_decode(row, "argmax") for row in probs])
    assert np.array_equal(decode_distribution(probs, "count"),
                          [_ref_decode(row, "count") for row in probs])
    for row, tail in zip(probs, tails):
        dist = ClassDistribution(row)
        assert np.array_equal(tail, _ref_tail_row(row))
        assert np.array_equal(tail, exceedance_from_soft(RatingDistribution(row)).exceed)
        assert decode_argmax(dist) == _ref_decode(row, "argmax")
        assert decode_distribution(dist, "argmax") == _ref_decode(row, "argmax")
        assert decode_distribution(dist, "count") == _ref_decode(row, "count")


def test_exact_half_tail_and_exact_ties_in_a_matrix():
    probs = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.4, 0.2, 0.4], [0.2, 0.4, 0.4]])
    # tails: [0.5, 0.0], [0.75, 0.5], [0.6, 0.4], [0.8, 0.4]
    assert decode_distribution(probs, "count").tolist() == [1, 2, 2, 2]
    assert decode_distribution(probs, "argmax").tolist() == [1, 3, 1, 2]


@pytest.mark.parametrize("method", sorted(METHODS))
def test_predict_prob_matrix_equals_the_per_row_path(method):
    rng = np.random.default_rng(sorted(METHODS).index(method))
    spec = METHODS[method]
    for k in (2, 4, 6):
        params = init_params(EncoderConfig(3, (8,)), spec.head_kind, ProblemSpec(k), k)
        features = rng.normal(size=(25, 3)) * 3.0
        got = predict_prob_matrix(params, method, features)
        assert np.array_equal(got, _ref_predict(params, method, features))


def test_sord_labels_are_built_per_class_and_match_the_per_example_label():
    spec = ProblemSpec(5)
    labels = np.array([3, 1, 5, 3, 2, 4])
    for distance in ("ae", "se"):
        rows = sord_soft_label(labels, spec, distance)
        for y, row in zip(labels, rows):
            assert np.array_equal(row, _ref_sord_label(int(y), 5, distance))
            assert np.array_equal(row, sord_soft_label(int(y), spec, distance).probs)
