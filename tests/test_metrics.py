import math
import pickle
import re
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ordreg import metrics
from ordreg.core import PROB_SUM_TOL, ClassDistribution, InputError, RatingDistribution
from ordreg.metrics import (
    MAX_NUM_BINS,
    CalibrationBin,
    EvalRecord,
    MetricReport,
    RecordRowError,
    RecordTable,
    _METRIC_NAMES,
    _WEIGHT_TOL,
    _average_ranks,
    _failing_rows,
    accuracy,
    any_rater_accuracy,
    aurc,
    auroc_macro,
    brier,
    calibration_curve,
    compute_metric_report,
    confusion_matrix,
    coverage_error,
    cross_entropy_metric,
    ece,
    eval_record,
    mae,
    missing_classes,
    paired_t_test_one_sided,
    qwk,
    qwk_from_pairs,
    risk_coverage,
    spearman,
    student_t_cdf,
)


def rec(soft, pred, pred_hard=None, example_id=""):
    return eval_record(np.asarray(soft, float), np.asarray(pred, float), pred_hard, example_id)


def one_hot(k, y):
    v = np.zeros(k)
    v[y - 1] = 1.0
    return v


def _random_records(rng, n, k, one_hot_soft=False):
    records = []
    for _ in range(n):
        if one_hot_soft:
            soft = one_hot(k, int(rng.integers(1, k + 1)))
        else:
            raw = rng.uniform(0.05, 1.0, size=k)
            soft = raw / raw.sum()
        raw_p = rng.uniform(0.05, 1.0, size=k)
        pred = raw_p / raw_p.sum()
        records.append(rec(soft, pred))
    return records


# ---- EvalRecord ----


def test_record_derives_mode_weight_and_rater_classes():
    r = rec([0.0, 2 / 3, 1 / 3, 0.0], [0.1, 0.2, 0.5, 0.2])
    assert r.hard == 2
    assert r.pred_hard == 3
    assert r.weight == pytest.approx(2 / 3)
    assert r.rater_classes == frozenset({2, 3})


def test_record_rejects_weight_not_matching_the_soft_maximum():
    with pytest.raises(InputError):
        EvalRecord(
            soft=RatingDistribution(np.array([0.6, 0.4])),
            hard=1,
            pred_dist=ClassDistribution(np.array([0.5, 0.5])),
            pred_hard=1,
            weight=0.9,
        )


def test_record_rejects_mode_outside_rater_classes():
    with pytest.raises(InputError, match="rater classes"):
        EvalRecord(
            soft=RatingDistribution(np.array([1.0, 0.0])),
            hard=2,  # no rater chose class 2
            pred_dist=ClassDistribution(np.array([0.5, 0.5])),
            pred_hard=1,
            weight=1.0,
        )


_SOFT2, _PRED2 = np.array([[0.5, 0.5], [0.6, 0.4]]), np.full((2, 2), 0.5)
_COLUMNS2 = dict(ids=("a", "b"), soft=_SOFT2, pred=_PRED2, hard=[1, 1], pred_hard=[1, 1],
                 weight=[0.5, 0.6])


def _record2(hard, pred_hard):
    return EvalRecord(soft=RatingDistribution(_SOFT2[0]), hard=hard,
                      pred_dist=ClassDistribution(_PRED2[0]), pred_hard=pred_hard, weight=0.5)


@pytest.mark.parametrize("make,shown", [
    (lambda: _record2(1, 1.5), "1.5"),
    (lambda: _record2(math.nan, 1), "nan"),
    (lambda: RecordTable(**{**_COLUMNS2, "hard": [1.7, 2]}), "1.7"),
    (lambda: RecordTable(**{**_COLUMNS2, "pred_hard": [1, math.nan]}), "nan"),
    (lambda: eval_record(_SOFT2, _PRED2, pred_hard=[1.5, 2.0]), "1.5"),
    (lambda: eval_record(_SOFT2[0], _PRED2[0], pred_hard=1.5), "1.5"),
], ids=["record-pred-hard", "record-hard-nan", "table-hard", "table-pred-hard-nan",
        "eval-record-table", "eval-record-one"])
def test_record_labels_are_checked_as_class_indices_not_truncated(make, shown):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN label raises no cast warning first
        with pytest.raises(InputError, match=f"^class index {re.escape(shown)} outside 1..2$"):
            make()


@pytest.mark.parametrize("labels", [["1", "2"], [1, None]], ids=["strings", "none"])
def test_a_record_table_refuses_labels_that_are_not_numbers(labels):
    with pytest.raises(InputError, match="^class indices must be integers$"):
        RecordTable(**{**_COLUMNS2, "pred_hard": labels})


def test_whole_number_labels_are_kept_as_ints():
    assert RecordTable(**{**_COLUMNS2, "hard": [1.0, 1.0]}).hard.tolist() == [1, 1]
    record = _record2(np.int64(1), 2.0)
    assert (record.hard, record.pred_hard) == (1, 2)
    assert type(record.hard) is int and type(record.pred_hard) is int


def test_a_record_row_error_survives_pickling_with_its_row():
    err = pickle.loads(pickle.dumps(RecordRowError(3, "weight 0.9 is not the soft maximum")))
    assert type(err) is RecordRowError and err.row == 3
    assert str(err) == "weight 0.9 is not the soft maximum"


# ---- weighted means ----


def test_weighted_mae_formula():
    records = [
        rec(one_hot(3, 1), one_hot(3, 1)),          # weight 1, error 0
        rec([0.5, 0.25, 0.25], [0.1, 0.1, 0.8]),    # weight 0.5, error 2
    ]
    assert mae(records, use_weights=True) == pytest.approx(1.0 / 1.5)
    assert mae(records, use_weights=False) == pytest.approx(1.0)


def test_weighted_mean_reduces_to_plain_mean_at_unit_weights():
    rng = np.random.default_rng(0)
    records = _random_records(rng, 40, 4, one_hot_soft=True)
    assert mae(records, True) == mae(records, False)
    assert accuracy(records, True) == accuracy(records, False)


def test_accuracy_is_one_when_all_predictions_match_regardless_of_weights():
    records = [
        rec([0.5, 0.25, 0.25], one_hot(3, 1)),
        rec([0.2, 0.7, 0.1], one_hot(3, 2)),
    ]
    assert accuracy(records, use_weights=True) == 1.0


def test_empty_records_rejected():
    with pytest.raises(InputError):
        mae([], use_weights=True)


# ---- qwk ----


def test_qwk_perfect_agreement_is_one():
    assert qwk_from_pairs([1, 2, 3, 4, 2], [1, 2, 3, 4, 2], 4) == pytest.approx(1.0)


def test_qwk_full_reversal_is_exactly_minus_one():
    assert qwk_from_pairs([1, 2, 3, 4], [4, 3, 2, 1], 4) == -1.0


def test_qwk_with_unit_weights_equals_unweighted():
    labels = [1, 3, 2, 4, 4, 1]
    preds = [2, 3, 2, 4, 3, 1]
    assert qwk_from_pairs(labels, preds, 4, [1.0] * 6) == qwk_from_pairs(labels, preds, 4)


def test_qwk_undefined_when_all_mass_in_one_cell():
    assert qwk_from_pairs([2, 2, 2], [2, 2, 2], 4) is None


def test_qwk_labels_are_checked_as_class_indices_not_truncated():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN label raises no cast warning first
        for a, b, k, message in (([1.5, 2, 1], [1, 2, 2], 2, "class index 1.5 outside 1..2"),
                                 ([1, 2], [2, math.nan], 4, "class index nan outside 1..4"),
                                 ([1, 2], [2, 5], 4, "class index 5 outside 1..4"),
                                 ([], [], 4, "got shape (0,)"),
                                 ([1, 2], [1, 2, 2], 4, "must be equal-length, got 2 and 3")):
            with pytest.raises(InputError, match=re.escape(message)):
                qwk_from_pairs(a, b, k)
    assert qwk_from_pairs([1.0, 2.0, 1.0], [1, 2, 2], 2) == qwk_from_pairs([1, 2, 1], [1, 2, 2], 2)
    assert qwk_from_pairs([1, 1], [1, 1], 1) is None


def test_qwk_is_symmetric_in_its_two_label_sequences():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = rng.integers(1, 5, size=12).tolist()
        b = rng.integers(1, 5, size=12).tolist()
        ka = qwk_from_pairs(a, b, 4)
        kb = qwk_from_pairs(b, a, 4)
        assert (ka is None and kb is None) or ka == pytest.approx(kb, abs=1e-15)


def _qwk_oracle(labels, preds, k, weights=None):
    """Direct evaluation of kappa with normalized quadratic penalties."""
    w = [1.0] * len(labels) if weights is None else list(weights)
    table = {}
    for a, b, wi in zip(labels, preds, w):
        table[(a, b)] = table.get((a, b), 0.0) + wi
    mass = sum(table.values())
    row = {i: 0.0 for i in range(1, k + 1)}
    col = {j: 0.0 for j in range(1, k + 1)}
    for (a, b), m in table.items():
        row[a] += m
        col[b] += m
    omega = lambda i, j: (i - j) ** 2 / (k - 1) ** 2
    s_obs = sum(omega(a, b) * m for (a, b), m in table.items())
    s_exp = sum(
        omega(i, j) * row[i] * col[j] / mass
        for i in range(1, k + 1)
        for j in range(1, k + 1)
    )
    if s_exp == 0.0:
        return None
    return 1.0 - s_obs / s_exp


def test_qwk_matches_brute_force_formula_including_weights():
    rng = np.random.default_rng(2)
    for _ in range(60):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2, 30))
        labels = rng.integers(1, k + 1, size=n).tolist()
        preds = rng.integers(1, k + 1, size=n).tolist()
        weights = rng.uniform(0.2, 1.0, size=n).tolist()
        got = qwk_from_pairs(labels, preds, k, weights)
        want = _qwk_oracle(labels, preds, k, weights)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-10)


def _qwk_add_at(labels, preds, k, weights):
    """``qwk_from_pairs`` as it was with its table built by ``np.add.at``."""
    a, b = np.asarray(labels) - 1, np.asarray(preds) - 1
    table = np.zeros((k, k))
    np.add.at(table, (a, b), np.asarray(weights, dtype=np.float64))
    idx = np.arange(k, dtype=np.float64)
    penalty = (idx[:, None] - idx[None, :]) ** 2
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    s_exp = float((penalty * expected).sum())
    return None if s_exp == 0.0 else 1.0 - float((penalty * table).sum()) / s_exp


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.integers(1, 400), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-3, 1.0, 1e3]))
def test_qwk_table_has_the_bits_of_the_add_at_table(k, n, seed, scale):
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, k + 1, size=n)
    preds = rng.integers(1, k + 1, size=n)
    weights = rng.uniform(0.0, 1.0, size=n) * scale
    got = qwk_from_pairs(labels, preds, k, weights)
    want = _qwk_add_at(labels, preds, k, weights)
    if want is None:
        assert got is None
    else:
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


def test_record_level_qwk_uses_hard_labels_and_predictions():
    records = [rec(one_hot(3, y), one_hot(3, p)) for y, p in [(1, 1), (2, 3), (3, 3)]]
    assert qwk(records, use_weights=False) == pytest.approx(
        _qwk_oracle([1, 2, 3], [1, 3, 3], 3)
    )


# ---- any-rater accuracy ----


def test_prediction_matching_a_minority_rater_counts():
    r = rec([1 / 3, 1 / 3, 1 / 3, 0.0], one_hot(4, 2))
    assert any_rater_accuracy([r]) == 1.0


def test_prediction_outside_all_rater_classes_misses():
    r = rec([1 / 3, 1 / 3, 1 / 3, 0.0], one_hot(4, 4))
    assert any_rater_accuracy([r]) == 0.0


def test_any_rater_accuracy_reduces_to_accuracy_on_one_hot_labels():
    rng = np.random.default_rng(3)
    records = _random_records(rng, 50, 4, one_hot_soft=True)
    assert any_rater_accuracy(records) == accuracy(records, use_weights=False)


# ---- ece / calibration ----


def test_oracle_predictor_has_exactly_zero_ece():
    rng = np.random.default_rng(4)
    for _ in range(20):
        records = []
        for _ in range(int(rng.integers(1, 40))):
            raw = rng.uniform(0.05, 1.0, size=4)
            soft = raw / raw.sum()
            records.append(rec(soft, soft))
        assert ece(records) == 0.0
        assert ece(records, num_bins=3) == 0.0


def test_single_record_one_bin_ece_is_the_confidence_gap():
    r = rec([0.5, 0.3, 0.2], [0.9, 0.05, 0.05])
    assert r.pred_hard == 1
    assert ece([r], num_bins=1) == pytest.approx(0.4, abs=1e-12)


def test_confident_correct_one_hot_predictions_have_zero_ece():
    records = [rec(one_hot(4, y), one_hot(4, y)) for y in (1, 2, 3, 4)]
    assert ece(records) == 0.0


def test_exact_bin_edges_belong_to_the_lower_bin():
    # confidence exactly 0.5 must land in the (0.4, 0.5] bin, not (0.5, 0.6]
    r = rec([0.5, 0.25, 0.25], [0.5, 0.25, 0.25])
    bins = calibration_curve([r], num_bins=10)
    assert bins[4].count == 1 and bins[5].count == 0


def test_calibration_curve_reports_bin_means_and_counts():
    records = [
        rec([0.5, 0.3, 0.2], [0.9, 0.05, 0.05]),
        rec([0.8, 0.1, 0.1], [0.85, 0.1, 0.05]),
    ]
    bins = calibration_curve(records, num_bins=2)
    assert [b.count for b in bins] == [0, 2]
    assert bins[0].mean_confidence is None
    assert bins[1].mean_confidence == pytest.approx((0.9 + 0.85) / 2)
    assert bins[1].mean_true_accuracy == pytest.approx((0.5 + 0.8) / 2)
    assert (bins[1].bin_low, bins[1].bin_high) == (0.5, 1.0)
    total = sum(
        (b.count / 2) * abs(b.mean_confidence - b.mean_true_accuracy)
        for b in bins
        if b.count
    )
    assert ece(records, num_bins=2) == pytest.approx(total, abs=1e-15)


# ---- risk-coverage ----


def _two_record_set(correct_first):
    a = rec(one_hot(2, 1), [0.9, 0.1])          # confidence 0.9, predicts 1
    b = rec(one_hot(2, 2 if correct_first else 1), [0.6, 0.4])  # confidence 0.6
    return [a, b] if correct_first else [
        rec(one_hot(2, 2), [0.9, 0.1]),          # wrong at high confidence
        rec(one_hot(2, 1), [0.6, 0.4]),          # right at low confidence
    ]


def test_all_correct_predictions_give_zero_aurc():
    records = [rec(one_hot(3, y), one_hot(3, y)) for y in (1, 2, 3)]
    assert aurc(records) == 0.0


def test_two_record_risk_coverage_enumeration():
    points, area = risk_coverage(_two_record_set(correct_first=True))
    assert points == [(0.5, 0.0), (1.0, 0.5)]
    assert area == 0.25


def test_misranked_confidence_raises_aurc():
    points, area = risk_coverage(_two_record_set(correct_first=False))
    assert points == [(0.5, 1.0), (1.0, 0.5)]
    assert area == 0.75


def test_confidence_ties_keep_stable_input_order():
    right = rec(one_hot(2, 1), [0.7, 0.3])
    wrong = rec(one_hot(2, 2), [0.7, 0.3])
    _, area_right_first = risk_coverage([right, wrong])
    _, area_wrong_first = risk_coverage([wrong, right])
    assert area_right_first == 0.25
    assert area_wrong_first == 0.75


def test_promoting_a_correct_prediction_never_raises_aurc():
    # swap confidences between a correct and a less-confident incorrect record
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        confs = np.sort(rng.uniform(0.55, 0.95, size=n))[::-1]
        correct = rng.integers(0, 2, size=n)
        def build(c_order):
            out = []
            for conf, ok in zip(confs, c_order):
                y = 1 if ok else 2
                out.append(rec(one_hot(2, y), [conf, 1 - conf]))
            return out
        base = list(correct)
        for i in range(n - 1):
            if base[i] == 0 and base[i + 1] == 1:
                swapped = base.copy()
                swapped[i], swapped[i + 1] = 1, 0
                assert aurc(build(swapped)) <= aurc(build(base)) + 1e-12


# ---- brier / cross entropy ----


def test_brier_zero_and_ce_entropy_for_the_oracle_predictor():
    soft = np.array([0.5, 0.3, 0.2])
    r = rec(soft, soft)
    assert brier([r]) == 0.0
    assert cross_entropy_metric([r]) == pytest.approx(-(soft * np.log(soft)).sum())


def test_brier_and_ce_for_a_uniform_guess_on_certain_label():
    r = rec([1.0, 0.0], [0.5, 0.5])
    assert brier([r]) == pytest.approx(0.5)
    assert cross_entropy_metric([r]) == pytest.approx(math.log(2))


def test_brier_maximal_for_confidently_wrong_one_hot():
    r = rec([1.0, 0.0], [0.0, 1.0])
    assert brier([r]) == pytest.approx(2.0)


# ---- coverage error / auroc / spearman ----


def test_coverage_error_is_one_when_top_prediction_covers_all_raters():
    records = [rec(one_hot(3, 2), one_hot(3, 2))]
    assert coverage_error(records) == 1.0


def test_coverage_error_counts_rank_of_deepest_rater_class():
    r = rec([0.5, 0.25, 0.25], [0.5, 0.3, 0.2])
    # predicted ranking is 1, 2, 3; rater classes {1,2,3}; worst rank 3
    assert coverage_error([r]) == 3.0


def test_auroc_is_one_for_perfectly_separated_scores():
    records = [
        rec(one_hot(2, 1), [0.9, 0.1]),
        rec(one_hot(2, 1), [0.8, 0.2]),
        rec(one_hot(2, 2), [0.3, 0.7]),
        rec(one_hot(2, 2), [0.2, 0.8]),
    ]
    assert auroc_macro(records) == 1.0


def test_auroc_skips_classes_absent_from_labels():
    records = [
        rec(one_hot(3, 1), [0.7, 0.2, 0.1]),
        rec(one_hot(3, 2), [0.3, 0.6, 0.1]),
    ]
    # class 3 never appears; macro average covers classes 1 and 2 only
    assert auroc_macro(records) == pytest.approx(1.0)
    assert missing_classes(records) == (3,)


def test_auroc_undefined_when_labels_are_constant():
    records = [rec(one_hot(2, 1), [0.9, 0.1]), rec(one_hot(2, 1), [0.6, 0.4])]
    assert auroc_macro(records) is None


def test_auroc_matches_scipy_rank_statistic():
    rng = np.random.default_rng(6)
    records = _random_records(rng, 60, 3)
    hard = np.array([r.hard for r in records])
    per_class = []
    for cls in (1, 2, 3):
        pos = hard == cls
        if pos.sum() in (0, len(records)):
            continue
        scores = np.array([r.pred_dist.probs[cls - 1] for r in records])
        auc = scipy.stats.mannwhitneyu(scores[pos], scores[~pos]).statistic / (
            pos.sum() * (~pos).sum()
        )
        per_class.append(auc)
    assert auroc_macro(records) == pytest.approx(np.mean(per_class), abs=1e-12)


def test_spearman_is_one_for_identical_rankings():
    records = [rec(one_hot(3, y), one_hot(3, y)) for y in (1, 2, 3, 2)]
    assert spearman(records) == pytest.approx(1.0)


def test_spearman_undefined_for_constant_predictions():
    records = [rec(one_hot(3, y), one_hot(3, 2)) for y in (1, 2, 3)]
    assert spearman(records) is None


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(7)
    for _ in range(25):
        ys = rng.integers(1, 5, size=20)
        ps = rng.integers(1, 5, size=20)
        if len(set(ys)) < 2 or len(set(ps)) < 2:
            continue
        records = [rec(one_hot(4, y), one_hot(4, p)) for y, p in zip(ys, ps)]
        want = scipy.stats.spearmanr(ps, ys).statistic
        assert spearman(records) == pytest.approx(want, abs=1e-12)


def _stable_average_ranks(x):
    """The average ranks as they were computed with a stable sort."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    last = np.append(first[1:], x.size) - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


@st.composite
def _tie_heavy_values(draw):
    """1-300 values from a pool of at most six floats that holds -0.0 and 0.0."""
    others = draw(st.lists(st.floats(allow_nan=False), max_size=4))
    return np.array(draw(st.lists(st.sampled_from([-0.0, 0.0, *others]), min_size=1,
                                  max_size=300)))


@settings(max_examples=200, deadline=None)
@given(_tie_heavy_values())
def test_average_ranks_equal_scipy_rankdata_bit_for_bit(x):
    want = scipy.stats.rankdata(x, method="average")
    assert np.array_equal(_average_ranks(x).view(np.int64), want.view(np.int64))


def _tie_heavy_table(seed, n, k, pool_size):
    """Soft labels of 1-4 raters; every prediction is one of ``pool_size`` distributions."""
    rng = np.random.default_rng(seed)
    soft = np.stack([np.bincount(rng.integers(0, k, size=int(rng.integers(1, 5))),
                                 minlength=k) for _ in range(n)])
    soft = soft / soft.sum(axis=1, keepdims=True)
    pool = rng.uniform(0.0, 1.0, size=(pool_size, k))
    pool[rng.random(pool.shape) < 0.3] = 0.0
    pool[:, 0] += 0.01
    pool /= pool.sum(axis=1, keepdims=True)
    pred = pool[rng.integers(0, pool_size, size=n)]
    return eval_record(soft, pred, rng.integers(1, k + 1, size=n))


@pytest.mark.parametrize("seed, n, k, pool_size", [
    *((seed, 12 + 9 * seed, 2 + seed % 4, 1 + seed % 6) for seed in range(30)),
    (100, 20000, 5, 200),
    (101, 20000, 5, 20000),
])
def test_auroc_and_spearman_equal_their_stable_sort_values(seed, n, k, pool_size, monkeypatch):
    table = _tie_heavy_table(seed, n, k, pool_size)
    got = auroc_macro(table), spearman(table)
    monkeypatch.setattr(metrics, "_average_ranks", _stable_average_ranks)
    assert got == (auroc_macro(table), spearman(table))


# ---- confusion matrix ----


def test_perfect_predictions_normalize_to_identity():
    records = [rec(one_hot(3, y), one_hot(3, y)) for y in (1, 2, 3, 3)]
    np.testing.assert_array_equal(confusion_matrix(records, row_normalize=True), np.eye(3))


def test_single_record_fills_one_off_diagonal_cell():
    table = confusion_matrix([rec(one_hot(3, 2), one_hot(3, 3))])
    expected = np.zeros((3, 3))
    expected[1, 2] = 1.0
    np.testing.assert_array_equal(table, expected)


def test_absent_class_row_stays_zero_after_normalization():
    records = [rec(one_hot(3, 1), one_hot(3, 1))]
    table = confusion_matrix(records, row_normalize=True)
    np.testing.assert_array_equal(table[1], [0, 0, 0])
    assert missing_classes(records) == (2, 3)


# ---- student t machinery ----


def test_t_cdf_matches_scipy_across_the_range():
    for dof in (1, 2, 3, 4, 9, 30):
        for t in (-6.0, -2.5, -0.7, 0.0, 0.3, 1.9, 4.2):
            want = scipy.stats.t.cdf(t, dof)
            assert student_t_cdf(t, dof) == pytest.approx(want, abs=1e-12)


def test_t_cdf_matches_numerical_integration_of_the_density():
    def density(x, dof):
        c = math.gamma((dof + 1) / 2) / (math.sqrt(dof * math.pi) * math.gamma(dof / 2))
        return c * (1 + x * x / dof) ** (-(dof + 1) / 2)

    for dof, t in ((4, 1.3), (7, -0.9), (2, 2.2)):
        tail, _ = scipy.integrate.quad(density, -np.inf, t, args=(dof,))
        assert student_t_cdf(t, dof) == pytest.approx(tail, abs=1e-9)


def test_t_cdf_is_exact_for_large_dof_and_far_tails():
    for dof in (*range(1, 60), 100, 999):
        for t in (-40.0, -12.0, -3.3, -0.05, 0.8, 12.0, 40.0):
            assert student_t_cdf(t, dof) == pytest.approx(scipy.stats.t.cdf(t, dof), abs=1e-13)
    assert student_t_cdf(4.0, np.int64(3)) == student_t_cdf(4.0, 3.0) == student_t_cdf(4.0, 3)


@pytest.mark.parametrize("dof", [0, -1, 2.5, float("nan"), float("inf")])
def test_t_cdf_rejects_a_dof_that_is_not_an_integer_of_one_or_more(dof):
    with pytest.raises(InputError, match="dof"):
        student_t_cdf(1.0, dof)


def test_constant_positive_differences_are_certain_improvement():
    a = [1.0, 1.0, 1.0, 1.0, 1.0]
    b = [0.0, 0.0, 0.0, 0.0, 0.0]
    assert paired_t_test_one_sided(a, b, "higher") == 0.0
    assert paired_t_test_one_sided(a, b, "lower") == 1.0


def test_identical_sequences_give_p_half():
    a = [0.3, 0.4, 0.5]
    assert paired_t_test_one_sided(a, a, "lower") == 0.5


def test_t_test_matches_scipy_on_the_worked_example():
    d = [0.3, -0.1, 0.2, 0.1, 0.0]
    a = list(d)
    b = [0.0] * 5
    want_greater = scipy.stats.ttest_rel(a, b, alternative="greater").pvalue
    want_less = scipy.stats.ttest_rel(a, b, alternative="less").pvalue
    assert paired_t_test_one_sided(a, b, "higher") == pytest.approx(want_greater, abs=1e-6)
    assert paired_t_test_one_sided(a, b, "lower") == pytest.approx(want_less, abs=1e-6)


def test_t_test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        if np.std(a - b, ddof=1) == 0.0:
            continue
        want = scipy.stats.ttest_rel(a, b, alternative="less").pvalue
        assert paired_t_test_one_sided(a, b, "lower") == pytest.approx(want, abs=1e-6)


def test_t_test_input_validation():
    with pytest.raises(InputError):
        paired_t_test_one_sided([1.0], [0.5], "lower")
    with pytest.raises(InputError):
        paired_t_test_one_sided([1.0, 2.0], [0.5, 0.6], "sideways")


# ---- report assembly ----


def test_report_contains_every_metric_and_round_trips():
    rng = np.random.default_rng(10)
    records = _random_records(rng, 30, 4)
    report = compute_metric_report(records)
    assert set(report.values) == set(_METRIC_NAMES)
    assert report.num_records == 30
    doc = report.to_dict()
    again = MetricReport.from_dict(doc)
    assert again.values == report.values
    assert again.to_dict() == doc


def test_a_report_carries_exactly_the_suite_metrics():
    values = dict.fromkeys(_METRIC_NAMES, 0.5)
    with pytest.raises(InputError, match=r"^unknown metric names: \['f1'\]$"):
        MetricReport(values={**values, "f1": 0.5}, num_records=1)
    del values["ece"]
    with pytest.raises(InputError, match="^a MetricReport must carry every suite metric$"):
        MetricReport(values=values, num_records=1)


def test_a_malformed_metrics_document_is_named_malformed():
    for doc in ({"metrics": [], "num_records": 1}, {"metrics": 3, "num_records": 1}):
        with pytest.raises(InputError, match="^malformed metric report$"):
            MetricReport.from_dict(doc)


def test_records_of_different_class_counts_are_rejected():
    records = [rec(one_hot(3, 1), one_hot(3, 1)), rec(one_hot(4, 2), one_hot(4, 2))]
    with pytest.raises(InputError, match="^records disagree on the number of classes$"):
        mae(records, use_weights=True)


def test_a_record_table_checks_its_column_shapes():
    soft, hard = np.array([[1.0, 0.0]] * 2), np.array([1, 1])
    columns = dict(ids=("a", "b"), soft=soft, pred=soft, hard=hard, pred_hard=hard,
                   weight=np.ones(2))
    RecordTable(**columns)
    for change in (dict(pred=soft[:1]), dict(soft=soft[0]), dict(ids=("a",))):
        with pytest.raises(InputError, match=r"^a record table needs \(N, K\) soft and pred"):
            RecordTable(**{**columns, **change})
    for name in ("hard", "pred_hard", "weight"):
        with pytest.raises(InputError, match="^hard, pred_hard and weight must each hold 2 entries$"):
            RecordTable(**{**columns, name: columns[name][:1]})


def test_ece_needs_at_least_one_bin():
    with pytest.raises(InputError, match=rf"^num_bins must be an integer in 1\.\.{MAX_NUM_BINS}, got 0$"):
        ece([rec(one_hot(3, 1), one_hot(3, 1))], 0)


@pytest.mark.parametrize("binned", [ece, calibration_curve, compute_metric_report])
def test_binned_metrics_take_at_most_max_num_bins(binned):
    over = MAX_NUM_BINS + 1
    with pytest.raises(InputError, match=rf"^num_bins must be an integer in 1\.\.{MAX_NUM_BINS}, got {over}$"):
        binned([rec(one_hot(3, 1), one_hot(3, 1))], over)


def test_report_flags_undefined_metrics():
    records = [rec(one_hot(3, 1), one_hot(3, 1)), rec(one_hot(3, 1), one_hot(3, 1))]
    report = compute_metric_report(records)
    assert report["spearman"] is None
    assert "spearman" in report.undefined
    assert "auroc_macro" in report.undefined
    assert report.missing_classes == (2, 3)


def test_report_bounds_on_random_records():
    rng = np.random.default_rng(11)
    report = compute_metric_report(_random_records(rng, 80, 5))
    assert 0.0 <= report["mae_uw"] <= 4.0
    for name in ("accuracy", "accuracy_uw", "accuracy_ar", "ece", "aurc"):
        assert 0.0 <= report[name] <= 1.0
    if report["qwk_uw"] is not None:
        assert -1.0 <= report["qwk_uw"] <= 1.0
    assert report["coverage_error"] >= 1.0


def test_metrics_are_invariant_to_record_order():
    rng = np.random.default_rng(12)
    records = _random_records(rng, 25, 3)
    shuffled = [records[i] for i in rng.permutation(25)]
    a = compute_metric_report(records)
    b = compute_metric_report(shuffled)
    for name in _METRIC_NAMES:
        if name == "aurc":
            continue  # stable-order tie handling is order-dependent by design
        va, vb = a[name], b[name]
        if va is None:
            assert vb is None
        else:
            assert va == pytest.approx(vb, abs=1e-12)


# ---- the table checks ----


def _old_failing_rows(soft, pred, hard, pred_hard, weight):
    """The row checks as they were written with ndarray.max and ndarray.min."""
    n, k = soft.shape
    with np.errstate(invalid="ignore"):
        bad = ~(np.isfinite(soft).all(axis=1) & np.isfinite(pred).all(axis=1))
        for probs in (soft, pred):
            bad |= (probs.min(axis=1) < 0.0) | (probs.max(axis=1) > 1.0)
            bad |= np.abs(probs.sum(axis=1) - 1.0) > PROB_SUM_TOL
        bad |= (hard < 1) | (hard > k) | (pred_hard < 1) | (pred_hard > k)
        bad |= np.abs(weight - soft.max(axis=1)) > _WEIGHT_TOL
        bad |= ~((weight > 0.0) & (weight <= 1.0))
        bad |= ~(soft[np.arange(n), np.clip(hard, 1, k) - 1] > 0.0)
    return bad


_ODD_ENTRIES = (np.nan, np.inf, -np.inf, -0.0, -0.25, -1.0, 1.5, 1e-12, 2.0)


def test_failing_rows_flags_what_the_old_expression_flagged():
    flagged = passed = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 60)), int(rng.integers(2, 7))
        table = _tie_heavy_table(seed, n, k, 4)
        soft, pred, weight = table.soft.copy(), table.pred.copy(), table.weight.copy()
        rate = rng.choice([0.01, 0.05, 0.2])
        for arr in (soft, pred, weight):
            odd = rng.random(arr.shape) < rate
            arr[odd] = rng.choice(_ODD_ENTRIES, size=int(odd.sum()))
        hard = np.where(rng.random(n) < 0.9, table.hard, rng.integers(-1, k + 3, size=n))
        pred_hard = np.where(rng.random(n) < 0.9, table.pred_hard, 0)
        want = _old_failing_rows(soft, pred, hard, pred_hard, weight)
        assert np.array_equal(_failing_rows(soft, pred, hard, pred_hard, weight), want)
        flagged, passed = flagged + int(want.sum()), passed + int((~want).sum())
    assert flagged > 100 and passed > 100
