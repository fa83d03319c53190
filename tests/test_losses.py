import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordreg.core import (
    InputError,
    ProblemSpec,
    RatingDistribution,
    TaskProbabilities,
    class_distribution_from_tasks,
    exceedance_from_soft,
    sord_soft_label,
)
from ordreg.losses import (
    LOG_EPS,
    ce_loss,
    ce_soft_loss,
    corn_loss,
    corn_unconditional,
    or_cnn_loss,
    or_soft_loss,
)

K4 = ProblemSpec(4)


def _bce(p, t):
    return -(t * math.log(p) + (1 - t) * math.log(1 - p))


# ---- or_cnn_loss ----


def test_or_cnn_single_task_at_half_is_log_two():
    assert or_cnn_loss(np.array([0.5]), 2) == pytest.approx(math.log(2), abs=1e-12)


def test_or_cnn_perfect_prediction_loss_vanishes():
    delta = 1e-9
    got = or_cnn_loss(np.array([1 - delta, 1 - delta, delta]), 3)
    assert got == pytest.approx(0.0, abs=1e-8)


def test_or_cnn_hand_value():
    # targets for y=2, K=3 are [1, 0]: -log 0.8 - log 0.7
    got = or_cnn_loss(np.array([0.8, 0.3]), 2)
    assert got == pytest.approx(0.5798184952529422, abs=1e-12)


# ---- or_soft_loss ----


def test_weighted_task_loss_reduces_to_hard_task_loss_on_one_hot_labels():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        y = int(rng.integers(1, k + 1))
        tasks = rng.uniform(0.01, 0.99, size=k - 1)
        one_hot = np.zeros(k)
        one_hot[y - 1] = 1.0
        target = exceedance_from_soft(RatingDistribution(one_hot))
        assert abs(or_soft_loss(tasks, target) - or_cnn_loss(tasks, y)) < 1e-12


def test_weighted_task_loss_minimum_sits_at_the_target():
    assert or_soft_loss(np.array([0.5]), np.array([0.5])) == pytest.approx(
        math.log(2), abs=1e-12
    )
    at_target = or_soft_loss(np.array([0.5]), np.array([0.5]))
    for p in (0.3, 0.45, 0.55, 0.7):
        assert or_soft_loss(np.array([p]), np.array([0.5])) > at_target


def test_weighted_task_loss_hand_value():
    target = np.array([2 / 3, 0.0])
    tasks = np.array([2 / 3, 0.1])
    expected = _bce(2 / 3, 2 / 3) + _bce(0.1, 0.0)
    assert or_soft_loss(tasks, target) == pytest.approx(expected, abs=1e-12)


# ---- ce_loss / ce_soft_loss ----


def test_ce_near_certain_correct_class():
    probs = np.array([1 - 3e-9, 1e-9, 1e-9, 1e-9])
    assert ce_loss(probs, 1) == pytest.approx(0.0, abs=1e-8)


def test_ce_uniform_is_log_k():
    assert ce_loss(np.array([0.25] * 4), 3) == pytest.approx(math.log(4), abs=1e-12)


def test_ce_quarter_probability():
    probs = np.array([0.25, 0.5, 0.125, 0.125])
    assert ce_loss(probs, 1) == pytest.approx(1.3862943611198906, abs=1e-12)


def test_a_label_outside_the_classes_is_named_as_a_plain_number():
    for label in (np.int64(5), 2.5):
        with pytest.raises(InputError, match=rf"^class index {label} outside 1\.\.4$"):
            ce_loss(np.array([0.25] * 4), label)


@pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf, None, "a"], ids=repr)
def test_a_label_that_is_no_number_raises_input_error_alone(label):
    pattern = rf"^class index {re.escape(repr(label))} outside 1\.\.4$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning first
        with pytest.raises(InputError, match=pattern):
            or_cnn_loss(np.full(3, 0.5), label)
        with pytest.raises(InputError, match=pattern):
            ce_loss(np.full(4, 0.25), label)
        if isinstance(label, float):
            with pytest.raises(InputError, match=pattern):
                or_cnn_loss(np.full((2, 3), 0.5), np.array([2.0, label]))


def test_a_probability_array_of_three_axes_is_rejected():
    with pytest.raises(InputError, match=r"^tasks must be a 1-d probability vector or a \(B, n\)"
                                         r" matrix of them$"):
        or_cnn_loss(np.full((2, 2, 3), 0.5), np.array([1, 2]))


@pytest.mark.parametrize("k", [2, 4, 6])
def test_a_hard_label_loss_of_a_matrix_gives_each_row_the_bits_of_its_vector(k):
    rng = np.random.default_rng(k)
    labels = rng.integers(1, k + 1, size=50)
    tasks = rng.uniform(0.01, 0.99, size=(50, k - 1))
    tasks[:2] = [[0.0], [1.0]]  # saturated rows go through the log clamp
    dists = rng.dirichlet(np.ones(k), size=50)
    for loss, probs in ((or_cnn_loss, tasks), (ce_loss, dists)):
        rows = loss(probs, labels)
        assert rows.shape == (50,)
        assert rows.tolist() == [loss(p, int(y)) for p, y in zip(probs, labels)]
        with pytest.raises(InputError, match=r"^3 hard labels for 50 probability rows$"):
            loss(probs, labels[:3])


def test_soft_ce_reduces_to_ce_on_one_hot_targets():
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        y = int(rng.integers(1, k + 1))
        raw = rng.uniform(0.05, 1.0, size=k)
        probs = raw / raw.sum()
        one_hot = np.zeros(k)
        one_hot[y - 1] = 1.0
        assert abs(ce_soft_loss(probs, one_hot) - ce_loss(probs, y)) < 1e-12


def test_soft_ce_at_the_target_equals_target_entropy():
    target = np.array([0.2, 0.5, 0.3])
    entropy = -(target * np.log(target)).sum()
    assert ce_soft_loss(target, target) == pytest.approx(entropy, abs=1e-12)
    # Gibbs: any other prediction does worse
    other = np.array([0.3, 0.4, 0.3])
    assert ce_soft_loss(other, target) > entropy


def test_soft_ce_hand_value():
    got = ce_soft_loss(np.array([0.9, 0.1]), np.array([0.5, 0.5]))
    assert got == pytest.approx(1.2039728043259361, abs=1e-12)


# ---- log clamp ----


def test_losses_are_finite_at_exactly_saturated_probabilities():
    # a probability of exactly 0 on the target side costs -log(LOG_EPS), not inf
    cap = -math.log(LOG_EPS)
    assert or_cnn_loss(np.array([0.0]), 2) == pytest.approx(cap, rel=1e-15)
    assert or_cnn_loss(np.array([1.0]), 1) == pytest.approx(cap, rel=1e-15)
    assert or_cnn_loss(np.array([0.0, 1.0]), 2) == pytest.approx(2 * cap, rel=1e-15)
    assert ce_loss(np.array([0.0, 1.0]), 1) == pytest.approx(cap, rel=1e-15)
    assert ce_soft_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
        cap, rel=1e-15
    )
    assert ce_soft_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
        cap, rel=1e-15
    )
    # the upper clamp at 1 - LOG_EPS keeps a certain correct answer strictly positive
    certain = -math.log(1.0 - LOG_EPS)
    assert or_cnn_loss(np.array([1.0]), 2) == pytest.approx(certain, rel=1e-12, abs=0.0)
    assert ce_loss(np.array([1.0, 0.0]), 1) == pytest.approx(certain, rel=1e-12, abs=0.0)
    assert ce_soft_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(
        certain, rel=1e-12, abs=0.0
    )


# ---- corn ----


def test_corn_lowest_class_feeds_only_the_first_task():
    probs = np.array([[0.3, 0.8]])
    # y=1: task 1 subset {example}, target 0; task 2 subset empty
    expected = _bce(0.3, 0.0)
    assert corn_loss(probs, [1]) == pytest.approx(expected, abs=1e-12)


def test_corn_top_class_feeds_every_task_with_target_one():
    probs = np.array([[0.6, 0.7]])
    expected = _bce(0.6, 1.0) + _bce(0.7, 1.0)
    assert corn_loss(probs, [3]) == pytest.approx(expected, abs=1e-12)


def test_corn_task_subsets_follow_the_labels():
    probs = np.array([[0.3, 0.8], [0.6, 0.7]])
    # task 1 sees both (targets 0, 1); task 2 sees only y=3 (target 1)
    expected = (_bce(0.3, 0.0) + _bce(0.6, 1.0)) / 2 + _bce(0.7, 1.0)
    got = corn_loss(probs, [1, 3])
    assert got == pytest.approx(expected, abs=1e-12)
    assert corn_loss(probs.tolist(), [1, 3]).hex() == got.hex()  # a list gives the same bits


def test_corn_is_batch_order_invariant():
    rng = np.random.default_rng(2)
    probs = rng.uniform(0.05, 0.95, size=(6, 3))
    ys = np.array([1, 4, 2, 3, 1, 2])
    base = corn_loss(probs, ys)
    perm = rng.permutation(6)
    assert corn_loss(probs[perm], ys[perm]) == pytest.approx(base, abs=1e-12)


def _clamped_log(p):
    return np.log(np.minimum(np.maximum(p, LOG_EPS), 1.0 - LOG_EPS))


def _ref_corn_loss(p, labels):
    """The per-task loop: each task's BCE terms added one by one over its subset in row
    order, the task means added in task order."""
    total = 0.0
    for k in range(1, p.shape[1] + 1):
        subset = labels >= k
        if subset.any():
            targets = (labels[subset] > k).astype(np.float64)
            p_k = p[subset, k - 1]
            bce = -(targets * _clamped_log(p_k) + (1.0 - targets) * _clamped_log(1.0 - p_k))
            task = 0.0
            for term in bce:
                task += term
            total += task / int(subset.sum())
    return total


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 5), b=st.integers(1, 39), k=st.integers(2, 10),
       top=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_a_stacked_corn_loss_has_the_bits_of_one_call_per_model(m, b, k, top, seed):
    rng = np.random.default_rng(seed)
    probs = rng.uniform(size=(m, b, k - 1))
    saturated = rng.random(probs.shape) < 0.2
    probs[saturated] = rng.integers(0, 2, size=int(saturated.sum()))  # exact 0s and 1s
    # labels capped at `top` leave every task above it with an empty subset
    labels = rng.integers(1, min(top, k) + 1, size=(m, b))
    stacked = corn_loss(probs, labels)
    alone = np.array([corn_loss(p, y) for p, y in zip(probs, labels)])
    reference = np.array([_ref_corn_loss(p, y) for p, y in zip(probs, labels)])
    assert stacked.shape == (m,)
    assert np.array_equal(stacked.view(np.int64), alone.view(np.int64))
    assert np.array_equal(stacked.view(np.int64), reference.view(np.int64))


def test_corn_rejects_labels_outside_the_classes_and_mismatched_shapes():
    probs = np.full((2, 3), 0.5)
    for labels in ([1, 5], [0, 1], [1, 2.5]):
        with pytest.raises(InputError, match=r"outside 1\.\.4$"):
            corn_loss(probs, labels)
    with pytest.raises(InputError, match="labels of shape"):
        corn_loss(probs, [1, 2, 3])
    with pytest.raises(InputError, match="labels of shape"):
        corn_loss(np.full((2, 2, 3), 0.5), [1, 2])


def test_corn_chain_rule_example():
    got = corn_unconditional(np.array([0.8, 0.5]))
    np.testing.assert_allclose(got.probs, [0.8, 0.4], atol=1e-15)


def test_corn_chain_rule_identity_at_one():
    got = corn_unconditional(np.array([1.0, 1.0, 1.0]))
    np.testing.assert_array_equal(got.probs, [1.0, 1.0, 1.0])


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1 - 1e-6), min_size=1, max_size=8)
)
def test_corn_chain_rule_is_always_rank_consistent(factors):
    probs = corn_unconditional(np.asarray(factors)).probs
    assert np.all(np.diff(probs) <= 0.0)
    # adjacent differences of the chained vector are never negative, so the
    # class-distribution construction never needs its clamp
    t = probs
    raw = np.concatenate([[1.0 - t[0]], t[:-1] - t[1:], [t[-1]]])
    assert raw.min() >= 0.0
    class_distribution_from_tasks(TaskProbabilities(probs))


# ---- sord: cross entropy against the distance-smoothed label ----


def test_sord_loss_at_its_own_label_is_the_label_entropy():
    label = sord_soft_label(2, K4).probs
    entropy = -(label * np.log(label)).sum()
    assert ce_soft_loss(label, sord_soft_label(2, K4, "ae")) == pytest.approx(entropy, abs=1e-12)


def test_sord_loss_uniform_prediction_is_log_k():
    assert ce_soft_loss(np.array([0.25] * 4), sord_soft_label(2, K4, "ae")) == pytest.approx(
        math.log(4), abs=1e-12
    )


# ---- shared properties ----


@settings(max_examples=80)
@given(st.data())
def test_every_loss_is_non_negative(data):
    k = data.draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    y = int(rng.integers(1, k + 1))
    tasks = rng.uniform(0.01, 0.99, size=k - 1)
    raw = rng.uniform(0.05, 1.0, size=k)
    probs = raw / raw.sum()
    soft_raw = rng.uniform(0.0, 1.0, size=k) + 1e-9
    soft = soft_raw / soft_raw.sum()
    spec = ProblemSpec(k)
    assert or_cnn_loss(tasks, y) >= 0.0
    assert or_soft_loss(tasks, exceedance_from_soft(RatingDistribution(soft))) >= 0.0
    assert ce_loss(probs, y) >= 0.0
    assert ce_soft_loss(probs, soft) >= 0.0
    assert corn_loss(tasks.reshape(1, -1), [y]) >= 0.0
    assert ce_soft_loss(probs, sord_soft_label(y, spec, "se")) >= 0.0
