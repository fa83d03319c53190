import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordreg.core import (
    ClassDistribution,
    ExceedanceLabel,
    InputError,
    ProblemSpec,
    RatingDistribution,
    TaskProbabilities,
    class_distribution_from_tasks,
    class_max,
    class_min,
    decode_argmax,
    decode_count,
    exceedance_from_soft,
    sord_soft_label,
)

K4 = ProblemSpec(num_classes=4)


def dist(*probs):
    return RatingDistribution(np.asarray(probs, dtype=np.float64))


# ---- type validation ----


def test_problem_spec_requires_two_classes():
    with pytest.raises(InputError):
        ProblemSpec(num_classes=1)
    assert ProblemSpec(num_classes=2).num_classes == 2


def test_rating_distribution_must_sum_to_one():
    with pytest.raises(InputError):
        dist(0.5, 0.4)
    with pytest.raises(InputError):
        dist(1.2, -0.2)
    d = dist(0.25, 0.25, 0.25, 0.25)
    assert d.num_classes == 4


def test_rating_distribution_array_is_read_only():
    d = dist(0.5, 0.5)
    with pytest.raises(ValueError):
        d.probs[0] = 0.9


def test_exceedance_label_must_be_non_increasing():
    ExceedanceLabel(np.array([0.9, 0.9, 0.1]))
    ExceedanceLabel(np.array([0.75, 0.75, 0.0, 0.0]))
    nudged = np.nextafter(0.5, 1.0)
    for v in ([0.1, 0.2], [0.75, 0.5, nudged], [0.5, nudged, 0.25], [0.0, 1.0]):
        with pytest.raises(InputError, match=r"non-increasing$"):
            ExceedanceLabel(np.array(v))
    with pytest.raises(InputError):
        ExceedanceLabel(np.array([1.1, 0.5]))


# each wrapper type, a valid vector of its kind, and how its range message starts
WRAPPERS = [
    (RatingDistribution, [0.25, 0.25, 0.5], "rating probabilities"),
    (ExceedanceLabel, [0.75, 0.5, 0.25], "exceedance entries"),
    (TaskProbabilities, [0.25, 0.75, 0.5], "task probabilities"),
    (ClassDistribution, [0.25, 0.25, 0.5], "class probabilities"),
]
WRAPPER_IDS = [cls.__name__ for cls, _, _ in WRAPPERS]


def _with_entry(valid, i, value):
    v = list(valid)
    v[i] = value
    return np.array(v)


@pytest.mark.parametrize("cls, valid, what", WRAPPERS, ids=WRAPPER_IDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_wrappers_reject_non_finite_entries(cls, valid, what, bad):
    cls(np.array(valid))
    for i in range(len(valid)):
        # finiteness is checked before range, sum and monotonicity
        with pytest.raises(InputError, match=r"entries must be finite$"):
            cls(_with_entry(valid, i, bad))


@pytest.mark.parametrize("cls, valid, what", WRAPPERS, ids=WRAPPER_IDS)
@pytest.mark.parametrize("bad", [-1e-12, -0.5, 1.0 + 1e-12, 1.5])
def test_wrappers_reject_entries_outside_the_unit_interval(cls, valid, what, bad):
    for i in range(len(valid)):
        # range is checked before sum and monotonicity
        with pytest.raises(InputError, match=rf"^{what} must lie in \[0, 1\]$"):
            cls(_with_entry(valid, i, bad))


@pytest.mark.parametrize("cls", [RatingDistribution, ClassDistribution])
def test_distributions_reject_a_sum_off_one(cls):
    cls(np.array([0.25, 0.25, 0.5]))
    with pytest.raises(InputError, match=r"sum to .*, not 1$"):
        cls(np.array([0.25, 0.25, 0.25]))
    with pytest.raises(InputError, match=r"sum to .*, not 1$"):
        cls(np.array([0.5, 0.5, 1e-6]))


def test_task_probabilities_allow_saturated_endpoints():
    # sigmoid saturates to exactly 0.0/1.0 in float for large logits
    TaskProbabilities(np.array([1.0, 0.5, 0.0]))
    with pytest.raises(InputError):
        TaskProbabilities(np.array([1.5, 0.5]))


# ---- exceedance_from_soft ----


def test_exceedance_is_tail_mass():
    got = exceedance_from_soft(dist(0, 1 / 3, 2 / 3, 0))
    np.testing.assert_allclose(got.exceed, [1.0, 2 / 3, 0.0])


def test_exceedance_of_lowest_one_hot_is_zero():
    np.testing.assert_array_equal(exceedance_from_soft(dist(1, 0, 0, 0)).exceed, [0, 0, 0])


def test_exceedance_of_highest_one_hot_is_one():
    np.testing.assert_array_equal(exceedance_from_soft(dist(0, 0, 0, 1)).exceed, [1, 1, 1])


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8).filter(
        lambda v: sum(v) > 1e-6
    )
)
def test_exceedance_entries_equal_one_minus_cdf(raw):
    p = np.asarray(raw) / sum(raw)
    d = RatingDistribution(p)
    exc = exceedance_from_soft(d).exceed
    for k in range(1, len(raw)):
        cdf = float(p[:k].sum())
        assert exc[k - 1] == pytest.approx(1.0 - cdf, abs=1e-9)
    assert np.all(np.diff(exc) <= 0.0)


@given(st.integers(min_value=2, max_value=8), st.data())
def test_one_hot_exceedance_is_the_hard_indicator_vector(k, data):
    y = data.draw(st.integers(min_value=1, max_value=k))
    probs = np.zeros(k)
    probs[y - 1] = 1.0
    exc = exceedance_from_soft(RatingDistribution(probs)).exceed
    expected = (y > np.arange(1, k)).astype(float)
    np.testing.assert_array_equal(exc, expected)


# ---- class_distribution_from_tasks ----


def test_consistent_tasks_give_adjacent_differences():
    got = class_distribution_from_tasks(TaskProbabilities(np.array([0.9, 0.7, 0.2])))
    np.testing.assert_allclose(got.probs, [0.1, 0.2, 0.5, 0.2])


def test_inconsistent_tasks_are_clamped_then_renormalized():
    # raw differences [0.6, -0.2, 0.6]; the negative entry is clamped away
    got = class_distribution_from_tasks(TaskProbabilities(np.array([0.4, 0.6])))
    np.testing.assert_allclose(got.probs, [0.5, 0.0, 0.5])


def test_saturated_tasks_give_one_hot_within_epsilon():
    eps = 1e-9
    got = class_distribution_from_tasks(
        TaskProbabilities(np.array([1 - eps, 1 - eps, eps]))
    )
    assert got.probs[2] == pytest.approx(1.0, abs=1e-8)


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1 - 1e-6), min_size=1, max_size=7)
)
def test_consistent_tasks_round_trip_through_exceedance(raw):
    tasks = np.sort(np.asarray(raw))[::-1].copy()
    d = class_distribution_from_tasks(TaskProbabilities(tasks))
    back = exceedance_from_soft(d).exceed
    np.testing.assert_allclose(back, tasks, atol=1e-12)


# ---- decodes ----


def test_counting_decode_counts_entries_above_half():
    assert decode_count(TaskProbabilities(np.array([0.9, 0.7, 0.2]))) == 3


def test_counting_decode_extremes():
    assert decode_count(TaskProbabilities(np.array([0.4, 0.3, 0.1]))) == 1
    assert decode_count(TaskProbabilities(np.array([0.9, 0.8, 0.6]))) == 4


def test_counting_decode_treats_exact_half_as_not_exceeding():
    assert decode_count(TaskProbabilities(np.array([0.5, 0.5]))) == 1


def test_argmax_decode_picks_largest_entry():
    assert decode_argmax(ClassDistribution(np.array([0.1, 0.2, 0.5, 0.2]))) == 3


def test_argmax_decode_of_near_tied_distribution():
    assert decode_argmax(ClassDistribution(np.array([0.4, 0.05, 0.5, 0.05]))) == 3


def test_decode_rules_can_disagree_on_inconsistent_tasks():
    # one task vector, two defensible answers: counting says 2, the class
    # distribution built from the same tasks argmaxes to 4
    tasks = TaskProbabilities(np.array([0.6, 0.45, 0.44]))
    assert decode_count(tasks) == 2
    d = class_distribution_from_tasks(tasks)
    np.testing.assert_allclose(d.probs, [0.4, 0.15, 0.01, 0.44])
    assert decode_argmax(d) == 4


def test_argmax_decode_uniform_tie_follows_policy():
    uniform = ClassDistribution(np.array([0.25] * 4))
    assert decode_argmax(uniform) == 1


@given(st.integers(min_value=2, max_value=7), st.data())
def test_decodes_agree_on_well_separated_consistent_tasks(k, data):
    y = data.draw(st.integers(min_value=1, max_value=k))
    high = data.draw(
        st.lists(st.floats(min_value=0.9, max_value=0.99), min_size=y - 1, max_size=y - 1)
    )
    low = data.draw(
        st.lists(st.floats(min_value=0.01, max_value=0.1), min_size=k - y, max_size=k - y)
    )
    tasks = np.concatenate([np.sort(high)[::-1], np.sort(low)[::-1]])
    t = TaskProbabilities(tasks)
    assert decode_count(t) == y
    assert decode_argmax(class_distribution_from_tasks(t)) == y


# ---- sord_soft_label ----


def test_sord_absolute_distance_weights():
    got = sord_soft_label(2, K4, distance="ae")
    w = np.array([math.exp(-1), 1.0, math.exp(-1), math.exp(-2)])
    np.testing.assert_allclose(got.probs, w / w.sum(), atol=1e-12)
    np.testing.assert_allclose(
        got.probs, [0.1966, 0.5344, 0.1966, 0.0723], atol=5e-5
    )


def test_sord_squared_distance_weights():
    got = sord_soft_label(2, K4, distance="se")
    w = np.array([math.exp(-1), 1.0, math.exp(-1), math.exp(-4)])
    np.testing.assert_allclose(got.probs, w / w.sum(), atol=1e-12)


def test_sord_two_class_closed_form():
    w = np.array([1.0, math.exp(-1)])
    np.testing.assert_allclose(
        sord_soft_label(1, ProblemSpec(2)).probs, w / w.sum(), atol=1e-12
    )
    np.testing.assert_allclose(
        sord_soft_label(2, ProblemSpec(2)).probs, (w / w.sum())[::-1], atol=1e-12
    )


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=9), st.data(), st.sampled_from(["ae", "se"]))
def test_sord_labels_are_unimodal_at_the_true_class(k, data, distance):
    y = data.draw(st.integers(min_value=1, max_value=k))
    p = sord_soft_label(y, ProblemSpec(k), distance).probs
    assert int(np.argmax(p)) + 1 == y
    assert np.all(np.diff(p[: y - 1]) > 0) and np.all(np.diff(p[y - 1 :]) < 0)


def test_sord_labels_symmetric_for_centered_class():
    p = sord_soft_label(3, ProblemSpec(5)).probs
    np.testing.assert_allclose(p, p[::-1], atol=1e-15)


def test_sord_rejects_unknown_distance_and_bad_class():
    with pytest.raises(InputError):
        sord_soft_label(2, K4, distance="rmse")
    with pytest.raises(InputError):
        sord_soft_label(5, K4)


# ---- matrices of rows ----


def test_matrix_transforms_check_the_whole_array():
    good = np.array([[0.9, 0.4], [0.2, 0.7]])
    assert class_distribution_from_tasks(good).shape == (2, 3)
    for bad in (np.array([[0.9, np.nan]]), np.array([[0.9, 1.5]]), np.zeros((0, 2)), np.zeros(2)):
        with pytest.raises(InputError):
            class_distribution_from_tasks(bad)
        with pytest.raises(InputError):
            decode_count(bad)
    with pytest.raises(InputError, match="finite"):
        decode_argmax(np.array([[0.5, 0.5], [np.inf, 0.0]]))
    with pytest.raises(InputError, match="sum"):
        decode_argmax(np.array([[0.5, 0.5], [0.5, 0.6]]))
    with pytest.raises(InputError, match="sum"):
        exceedance_from_soft(np.array([[0.2, 0.2, 0.2]]))


def test_sord_matrix_checks_every_class_index():
    assert sord_soft_label(np.array([1, 4]), K4).shape == (2, 4)
    for bad in (np.array([1, 5]), np.array([0]), np.array([1.5]), np.array([], dtype=int)):
        with pytest.raises(InputError):
            sord_soft_label(bad, K4)


# ---- class-axis max and min ----


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("shape", [(), (40,), (3, 5)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_class_max_and_min_equal_the_reductions_over_the_last_axis(k, shape, dtype):
    rng = np.random.default_rng(k)
    if dtype is np.float64:
        pool = [0.0, -0.0, np.inf, -np.inf, np.nan, 0.25, -3.5, 1.0]
    else:
        pool = [0, -1, 7, np.iinfo(np.int64).min, np.iinfo(np.int64).max]
    a = rng.choice(np.array(pool, dtype=dtype), size=(*shape, k))
    for got, want in ((class_max(a), a.max(axis=-1)), (class_min(a), a.min(axis=-1))):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous  # a sum over it adds in the same order
        assert np.array_equal(got, want, equal_nan=dtype is np.float64)
