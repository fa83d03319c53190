import math
import re
import warnings

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
    check_choice,
    check_class_index,
    check_class_indices,
    check_int,
    class_distribution_from_tasks,
    class_max,
    class_min,
    decode_argmax,
    decode_count,
    exceedance_from_soft,
    sord_soft_label,
)
from ordreg.data import (
    ALL_TIE_POLICIES,
    SyntheticConfig,
    dataset_from_votes,
    generate_synthetic,
    resolve_ties,
    stratified_k_fold,
    train_val_split,
)
from ordreg.harness import (
    ALL_DECODES,
    METHODS,
    TrainConfig,
    compare_methods,
    decode_distribution,
    train_one,
)
from ordreg.losses import ALL_LOSS_KINDS
from ordreg.metrics import (
    MAX_NUM_BINS,
    EvalRecord,
    _METRIC_NAMES,
    calibration_curve,
    ece,
    paired_t_test_one_sided,
)
from ordreg.model import HEAD_SOFTMAX, EncoderConfig, init_params, loss_and_gradient

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


def test_a_rating_distribution_is_a_vector_of_at_least_two_classes():
    with pytest.raises(InputError, match=r"^RatingDistribution\.probs must be a 1-d vector,"
                                         r" got shape \(1, 2\)$"):
        RatingDistribution(np.array([[0.5, 0.5]]))
    with pytest.raises(InputError, match="^a rating distribution needs at least two classes$"):
        RatingDistribution(np.array([1.0]))


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


# ---- class indices ----


@pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf, None, "a", "2", 1.5, 0, 5,
                                   np.float64(math.nan), np.int64(5)], ids=repr)
def test_every_bad_class_index_raises_input_error_naming_it(label):
    shown = label.item() if isinstance(label, np.generic) else label
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=rf"^class index {re.escape(repr(shown))} outside 1\.\.4$"):
            check_class_index(label, 4)


def test_a_whole_class_index_comes_back_as_an_int():
    for label in (1, 4, 2.0, np.int64(3), np.float64(3.0), True):
        got = check_class_index(label, 4)
        assert type(got) is int and got == label
    got = check_class_indices([1.0, 4.0, 2.0], 4)
    assert got.dtype == np.int64 and got.tolist() == [1, 4, 2]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e20, -1e20, 2.5, 0.0, 5.0],
                         ids=repr)
def test_a_class_index_array_names_its_first_bad_entry_without_a_cast_warning(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=rf"^class index {re.escape(repr(bad))} outside 1\.\.4$"):
            check_class_indices(np.array([1.0, bad, 2.0, math.nan]), 4)


def test_class_index_arrays_must_be_non_empty_1d_integers():
    for bad, message in ((np.array([], dtype=np.int64), "non-empty 1-d array, got shape (0,)"),
                         (np.ones((2, 2)), "non-empty 1-d array, got shape (2, 2)"),
                         (np.array([1, None]), "class indices must be integers")):
        with pytest.raises(InputError, match=re.escape(message)):
            check_class_indices(bad, 4)


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


# ---- one rule per kind of setting: check_int and check_choice ----


def _two_class_set():
    votes = [(1,)] * 4 + [(2,)] * 4
    return dataset_from_votes(ProblemSpec(2), np.arange(16.0).reshape(8, 2), votes)


def _record():
    return EvalRecord(soft=RatingDistribution(np.array([0.75, 0.25])), hard=1,
                      pred_dist=ClassDistribution(np.array([0.6, 0.4])), pred_hard=1,
                      weight=0.75, example_id="a")


def _synthetic(**fields):
    base = dict(n_examples=10, n_features=2, num_classes=3, n_raters=3,
                thresholds=(-0.5, 0.5), feature_noise_sd=0.1, rater_noise_sd=0.3, seed=0)
    config = SyntheticConfig(**{**base, **fields})
    return config, generate_synthetic(config).counts.tolist()


_ENCODER = EncoderConfig(2, (3,))

# (name in the message, low, high, a valid value, the call that takes the setting); each
# call's result is plain data, so a NumPy integer must give what the Python int gives
_INT_SETTINGS = [
    ("num_classes", 2, None, 3, ProblemSpec),
    ("input_dim", 1, None, 4, EncoderConfig),
    ("hidden_dims[1]", 1, None, 4, lambda v: EncoderConfig(3, (2, v))),
    ("epochs", 1, None, 3, lambda v: TrainConfig("ce", _ENCODER, epochs=v)),
    ("batch_size", 1, None, 3, lambda v: TrainConfig("ce", _ENCODER, batch_size=v)),
    ("seeds[0]", 0, None, 1, lambda v: TrainConfig("ce", _ENCODER, seeds=(v, 5))),
    ("seeds[1]", 0, None, 1, lambda v: TrainConfig("ce", _ENCODER, seeds=(5, v))),
    ("num_bins", 1, MAX_NUM_BINS, 3, lambda v: TrainConfig("ce", _ENCODER, num_bins=v)),
    ("num_bins", 1, MAX_NUM_BINS, 3, lambda v: ece([_record(), _record()], v)),
    ("num_bins", 1, MAX_NUM_BINS, 3, lambda v: calibration_curve([_record()], v)),
    ("n_examples", 1, None, 12, lambda v: _synthetic(n_examples=v)),
    ("n_features", 1, None, 3, lambda v: _synthetic(n_features=v)),
    ("n_raters", 1, None, 4, lambda v: _synthetic(n_raters=v)),
    ("num_classes", 2, None, 3,
     lambda v: _synthetic(num_classes=v, thresholds=(-0.5, 0.5) if v == 3 else (0.0,))),
    ("seed", 0, None, 7, lambda v: _synthetic(seed=v)),
    ("split seed", 0, None, 3, lambda v: train_val_split(range(8), _two_class_set().hard, seed=v)),
    ("split seed", 0, None, 3, lambda v: stratified_k_fold(_two_class_set(), 2, v)),
    ("k", 2, None, 3, lambda v: stratified_k_fold(_two_class_set(), v, 0)),
    ("seed", 0, None, 2, lambda v: init_params(_ENCODER, HEAD_SOFTMAX, ProblemSpec(3),
                                                v).bundle.flat.tolist()),
    ("seed", 0, None, 2, lambda v: train_one(
        _two_class_set(), TrainConfig("ce", EncoderConfig(2), epochs=2, seeds=(0,)),
        [0, 1, 2, 4, 5, 6], [3, 7], v).params.bundle.flat.tolist()),
]
_INT_IDS = [f"{name}-{i}" for i, (name, *_) in enumerate(_INT_SETTINGS)]


def _bad_ints(low, high):
    """Values an integer setting refuses; 1.5 and 10.5 name a fraction that int() truncates."""
    values = [2.5, low + 0.5, 1.5, 10.5, float(low), True, False, "3", None, low - 1]
    values += [] if high is None else [high + 1]
    return list({repr(v): v for v in values}.values())


@pytest.mark.parametrize("name,low,high,bad,call", [
    pytest.param(name, low, high, bad, call, id=f"{setting_id}-{bad!r}")
    for setting_id, (name, low, high, _, call) in zip(_INT_IDS, _INT_SETTINGS)
    for bad in _bad_ints(low, high) if not (bad is False and low == 0)
])
def test_an_integer_setting_refuses_anything_but_an_integer_in_range(name, low, high, bad,
                                                                     call):
    bound = f">= {low}" if high is None else f"in {low}..{high}"
    message = f"{name} must be an integer {bound}, got {bad!r}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("name,low,high,good,call", _INT_SETTINGS, ids=_INT_IDS)
def test_an_integer_setting_takes_a_numpy_integer_as_the_python_int(name, low, high, good, call):
    for value in {low, good} - {0} if name.startswith("seeds") else {low, good}:
        assert call(np.int64(value)) == call(value)
        assert call(np.int32(value)) == call(value)


def test_a_numpy_integer_setting_is_stored_as_a_python_int():
    assert type(ProblemSpec(np.int64(3)).num_classes) is int
    config = TrainConfig("ce", _ENCODER, epochs=np.int64(2), seeds=(np.int64(1),),
                         num_bins=np.int16(5))
    assert [type(v) for v in (config.epochs, config.seeds[0], config.num_bins)] == [int] * 3
    synthetic, _ = _synthetic(seed=np.uint8(4), n_examples=np.int64(10))
    assert synthetic == _synthetic(seed=4)[0] and type(synthetic.seed) is int


def test_check_int_shows_a_numpy_value_as_python_shows_it():
    with pytest.raises(InputError, match=r"^k must be an integer >= 2, got 1$"):
        check_int("k", np.int64(1), 2)
    with pytest.raises(InputError, match=r"^k must be an integer >= 2, got 2\.0$"):
        check_int("k", np.float64(2.0), 2)
    assert check_int("k", np.uint64(2**63), 2) == 2**63


_RESULTS = (None, None)  # an unknown metric is refused before the results are read
_CHOICES = [
    ("method", tuple(METHODS), lambda v: TrainConfig(v, _ENCODER)),
    ("decode", ALL_DECODES, lambda v: TrainConfig("ce", _ENCODER, decode=v)),
    ("tie_policy", ALL_TIE_POLICIES, lambda v: TrainConfig("ce", _ENCODER, tie_policy=v)),
    ("activation", ("relu", "tanh"), lambda v: EncoderConfig(2, (3,), activation=v)),
    ("loss_kind", ALL_LOSS_KINDS, lambda v: loss_and_gradient(
        init_params(_ENCODER, HEAD_SOFTMAX, ProblemSpec(3), 0), [(np.zeros(2), 1)], v)),
    ("decode", ALL_DECODES, lambda v: decode_distribution(np.array([[0.5, 0.5]]), v)),
    ("tie policy", ALL_TIE_POLICIES, lambda v: resolve_ties(_two_class_set(), v)),
    ("metric", _METRIC_NAMES, lambda v: compare_methods(*_RESULTS, v, "lower")),
    ("direction", ("lower", "higher"),
     lambda v: paired_t_test_one_sided([0.1, 0.2], [0.2, 0.4], v)),
]


@pytest.mark.parametrize("name,choices,call,bad", [
    pytest.param(name, choices, call, bad, id=f"{name}-{i}-{bad!r}")
    for i, (name, choices, call) in enumerate(_CHOICES)
    for bad in ("nope", "", "Lower", None, 1) if not (bad is None and i == 1)  # None: the default
])
def test_a_named_option_refuses_an_unknown_value_listing_the_choices(name, choices, call, bad):
    message = f"{name} must be one of {choices}, got {bad!r}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(bad)


def test_each_named_option_takes_every_choice_it_lists():
    # a loss kind needs its own head, and a metric needs results to compare
    for name, choices, call in _CHOICES:
        for choice in choices if name not in ("loss_kind", "metric") else ():
            call(choice)
    assert check_choice("k", np.str_("a"), ("a",)) == "a"
