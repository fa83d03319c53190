"""The columnar records path against the per-record code it replaced.

The ``_ref_*`` functions below are the earlier implementation: every metric
walks a list of EvalRecords one record at a time, ``records_csv_text`` formats
one record per line, and ``read_records_csv`` builds one EvalRecord per row.
The RecordTable code must give exactly the same results: ``==`` on every
value, ``array_equal`` on arrays, the same text, and the same accept/reject
decision with the same message on every records file.
"""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordreg import harness
from ordreg.cli import run
from ordreg.core import ClassDistribution, InputError, RatingDistribution
from ordreg.harness import read_records_csv, records_csv_text
from ordreg.losses import ce_soft_loss
from ordreg.metrics import (
    EvalRecord,
    RecordTable,
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
    qwk,
    qwk_from_pairs,
    risk_coverage,
    spearman,
)

# ---- the per-record reference ----


def _ref_weighted_mean(records, per_example, use_weights):
    values = np.asarray([per_example(r) for r in records])
    if not use_weights:
        return float(values.sum() / len(records))
    w = np.asarray([r.weight for r in records])
    return float((w * values).sum() / w.sum())


def _ref_mae(records, use_weights):
    return _ref_weighted_mean(records, lambda r: float(abs(r.pred_hard - r.hard)), use_weights)


def _ref_accuracy(records, use_weights):
    return _ref_weighted_mean(
        records, lambda r: 1.0 if r.pred_hard == r.hard else 0.0, use_weights
    )


def _ref_qwk(records, use_weights):
    k = records[0].soft.num_classes
    weights = [r.weight for r in records] if use_weights else None
    return qwk_from_pairs([r.hard for r in records], [r.pred_hard for r in records], k, weights)


def _ref_any_rater_accuracy(records):
    return sum(1 for r in records if r.pred_hard in r.rater_classes) / len(records)


def _ref_confidences(records):
    return np.asarray([float(r.pred_dist.probs.max()) for r in records])


def _ref_true_accuracies(records):
    return np.asarray([float(r.soft.probs[r.pred_hard - 1]) for r in records])


def _ref_bin_indices(conf, num_bins):
    uppers = np.linspace(0.0, 1.0, num_bins + 1)[1:]
    return np.searchsorted(uppers, conf, side="left")


def _ref_ece(records, num_bins):
    conf = _ref_confidences(records)
    acc = _ref_true_accuracies(records)
    idx = _ref_bin_indices(conf, num_bins)
    total = 0.0
    for b in range(num_bins):
        members = idx == b
        n = int(members.sum())
        if n == 0:
            continue
        gap = abs(float(conf[members].mean()) - float(acc[members].mean()))
        total += (n / len(records)) * gap
    return total


def _ref_calibration_curve(records, num_bins):
    conf = _ref_confidences(records)
    acc = _ref_true_accuracies(records)
    idx = _ref_bin_indices(conf, num_bins)
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    rows = []
    for b in range(num_bins):
        members = idx == b
        n = int(members.sum())
        rows.append((
            float(edges[b]),
            float(edges[b + 1]),
            float(conf[members].mean()) if n else None,
            float(acc[members].mean()) if n else None,
            n,
        ))
    return rows


def _ref_risk_coverage(records):
    conf = _ref_confidences(records)
    order = np.argsort(-conf, kind="stable")
    w = np.asarray([records[i].weight for i in order])
    correct = np.asarray([1.0 if records[i].pred_hard == records[i].hard else 0.0 for i in order])
    risks = 1.0 - np.cumsum(w * correct) / np.cumsum(w)
    n = len(records)
    return [((i + 1) / n, float(risks[i])) for i in range(n)], float(risks.mean())


def _ref_brier(records):
    return float(np.mean([np.sum((r.pred_dist.probs - r.soft.probs) ** 2) for r in records]))


def _ref_cross_entropy(records):
    return float(np.mean([ce_soft_loss(r.pred_dist, r.soft) for r in records]))


def _ref_coverage_error(records):
    total = 0.0
    for r in records:
        order = np.argsort(-r.pred_dist.probs, kind="stable")
        rank_of = np.empty(order.size, dtype=np.int64)
        rank_of[order] = np.arange(1, order.size + 1)
        total += max(int(rank_of[c - 1]) for c in r.rater_classes)
    return total / len(records)


def _ref_average_ranks(x):
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for pos in range(i, j + 1):
            ranks[order[pos]] = avg
        i = j + 1
    return ranks


def _ref_auroc_macro(records):
    k = records[0].soft.num_classes
    hard = np.asarray([r.hard for r in records])
    per_class = []
    for cls in range(1, k + 1):
        pos = hard == cls
        n_pos = int(pos.sum())
        n_neg = len(records) - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        scores = np.asarray([float(r.pred_dist.probs[cls - 1]) for r in records])
        ranks = _ref_average_ranks(scores)
        per_class.append((float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return float(np.mean(per_class)) if per_class else None


def _ref_spearman(records):
    preds = np.asarray([float(r.pred_hard) for r in records])
    hard = np.asarray([float(r.hard) for r in records])
    if np.all(preds == preds[0]) or np.all(hard == hard[0]):
        return None
    ra = _ref_average_ranks(preds)
    rb = _ref_average_ranks(hard)
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    denom = math.sqrt(float((ra * ra).sum()) * float((rb * rb).sum()))
    return float((ra * rb).sum() / denom)


def _ref_confusion_matrix(records, row_normalize):
    k = records[0].soft.num_classes
    table = np.zeros((k, k))
    for r in records:
        table[r.hard - 1, r.pred_hard - 1] += 1.0
    if row_normalize:
        sums = table.sum(axis=1, keepdims=True)
        nonzero = sums[:, 0] > 0
        table[nonzero] = table[nonzero] / sums[nonzero]
    return table


def _ref_missing_classes(records):
    k = records[0].soft.num_classes
    present = {r.hard for r in records}
    return tuple(c for c in range(1, k + 1) if c not in present)


def _ref_report(records, num_bins):
    return {
        "mae_uw": _ref_mae(records, True),
        "qwk_uw": _ref_qwk(records, True),
        "accuracy_uw": _ref_accuracy(records, True),
        "accuracy_ar": _ref_any_rater_accuracy(records),
        "ece": _ref_ece(records, num_bins),
        "aurc": _ref_risk_coverage(records)[1],
        "brier": _ref_brier(records),
        "cross_entropy": _ref_cross_entropy(records),
        "coverage_error": _ref_coverage_error(records),
        "auroc_macro": _ref_auroc_macro(records),
        "spearman": _ref_spearman(records),
        "mae": _ref_mae(records, False),
        "qwk": _ref_qwk(records, False),
        "accuracy": _ref_accuracy(records, False),
    }


def _ref_fmt(x):
    return repr(float(x))


def _ref_records_csv_text(records):
    k = records[0].soft.num_classes
    header = (
        ["id", "hard", "pred_hard", "weight"]
        + [f"soft_{c}" for c in range(1, k + 1)]
        + [f"pred_{c}" for c in range(1, k + 1)]
    )
    lines = [",".join(header)]
    for r in records:
        fields = [r.example_id, str(r.hard), str(r.pred_hard), _ref_fmt(r.weight)]
        fields += [_ref_fmt(x) for x in r.soft.probs]
        fields += [_ref_fmt(x) for x in r.pred_dist.probs]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _ref_read_records_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: line 1: empty file") from None
        soft_cols = [i for i, name in enumerate(header) if name.startswith("soft_")]
        pred_cols = [i for i, name in enumerate(header)
                     if name.startswith("pred_") and name != "pred_hard"]
        try:
            id_col = header.index("id")
            hard_col = header.index("hard")
            pred_hard_col = header.index("pred_hard")
            weight_col = header.index("weight")
        except ValueError as missing:
            raise InputError(f"{path}: records header is missing a column: {missing}") from None
        if not soft_cols or len(soft_cols) != len(pred_cols):
            raise InputError(f"{path}: records header needs matching soft_/pred_ columns")
        k = len(soft_cols)
        names = [f"soft_{c}" for c in range(1, k + 1)] + [f"pred_{c}" for c in range(1, k + 1)]
        where = {}
        for i, name in enumerate(header):
            if i in soft_cols or i in pred_cols:
                rule = f"the class columns are soft_1..soft_{k} and pred_1..pred_{k}"
                if name not in names:
                    raise InputError(f"{path}: records header has column {name!r}; {rule}")
                if name in where:
                    raise InputError(f"{path}: records header repeats column {name!r}; {rule}")
                where[name] = i
        soft_cols = [where[name] for name in names[:k]]
        pred_cols = [where[name] for name in names[k:]]
        records = []
        read = reader.line_num
        for row in reader:
            line_no, read = read + 1, reader.line_num  # the line the row starts on
            if not row:
                continue
            try:
                soft = np.asarray([float(row[i]) for i in soft_cols])
                pred = np.asarray([float(row[i]) for i in pred_cols])
                records.append(
                    EvalRecord(
                        soft=RatingDistribution(soft),
                        hard=int(row[hard_col]),
                        pred_dist=ClassDistribution(pred),
                        pred_hard=int(row[pred_hard_col]),
                        weight=float(row[weight_col]),
                        example_id=row[id_col],
                    )
                )
            except (ValueError, InputError) as err:
                raise InputError(f"{path}: line {line_no}: {err}") from None
    if not records:
        raise InputError(f"{path}: no records")
    return records


# ---- record sets ----


def _votes_soft(rng, k, n_raters):
    counts = np.bincount(rng.integers(1, k + 1, size=n_raters), minlength=k + 1)[1:]
    return counts / n_raters


def _random_pred(rng, k):
    raw = rng.uniform(0.0, 1.0, size=k) ** 3
    return raw / raw.sum()


def _records(softs, preds, pred_hards=None):
    pred_hards = pred_hards or [None] * len(softs)
    return [
        eval_record(s, p, ph, f"e{i:03d}")
        for i, (s, p, ph) in enumerate(zip(softs, preds, pred_hards))
    ]


def _random_set(seed, n, k):
    rng = np.random.default_rng(seed)
    softs = [_votes_soft(rng, k, int(rng.integers(1, 8))) for _ in range(n)]
    preds = [_random_pred(rng, k) for _ in range(n)]
    pred_hards = [int(rng.integers(1, k + 1)) if rng.random() < 0.3 else None for _ in range(n)]
    return _records(softs, preds, pred_hards)


def _confidence_ties(seed):
    # few distinct predicted rows, so many records share a confidence
    rng = np.random.default_rng(seed)
    rows = [np.array([0.5, 0.25, 0.25]), np.array([0.25, 0.5, 0.25]), np.array([0.6, 0.2, 0.2])]
    picks = rng.integers(0, len(rows), size=40)
    return _records([_votes_soft(rng, 3, 4) for _ in picks], [rows[i] for i in picks])


def _bin_edges(k, num_bins):
    # predicted maxima exactly on the bin edges, each edge that can be a maximum
    edges = [e for e in np.linspace(0.0, 1.0, num_bins + 1) if e >= 1.0 / k]
    rng = np.random.default_rng(num_bins * 10 + k)
    preds = [np.array([e] + [(1.0 - e) / (k - 1)] * (k - 1)) for e in edges]
    return _records([_votes_soft(rng, k, 5) for _ in preds], preds)


def _argmax_ties(seed):
    rng = np.random.default_rng(seed)
    preds = [np.array([0.4, 0.4, 0.2]), np.array([0.2, 0.4, 0.4]), np.array([1 / 3, 1 / 3, 1 / 3]),
             np.array([0.3, 0.2, 0.3, 0.2])[:3] / 0.8]
    preds = [preds[i] for i in rng.integers(0, len(preds), size=25)]
    return _records([_votes_soft(rng, 3, 3) for _ in preds], preds)


def _constant_labels(seed):
    # every mode is class 2 and every prediction class 2: spearman and qwk are None
    rng = np.random.default_rng(seed)
    softs = [np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.25, 0.5, 0.25, 0.0])] * 6
    preds = [np.array([0.1, 0.7, 0.1, 0.1]) + rng.uniform(0, 0.01, 4) for _ in softs]
    preds = [p / p.sum() for p in preds]
    return _records(softs, preds)


def _absent_classes(seed):
    # modes only ever 1 or 3 of K = 5
    rng = np.random.default_rng(seed)
    softs = [np.array([0.6, 0.4, 0.0, 0.0, 0.0]), np.array([0.0, 0.2, 0.8, 0.0, 0.0])] * 5
    return _records(softs, [_random_pred(rng, 5) for _ in softs])


CASES = {
    **{f"random-{seed}-n{n}-k{k}": (lambda seed=seed, n=n, k=k: _random_set(seed, n, k))
       for seed, n, k in [(0, 50, 2), (1, 200, 3), (2, 120, 4), (3, 300, 5), (4, 80, 6),
                          (5, 2, 4), (6, 7, 3)]},
    "one-record": lambda: _random_set(7, 1, 4),
    "one-record-k2": lambda: _random_set(8, 1, 2),
    "confidence-ties": lambda: _confidence_ties(9),
    "argmax-ties": lambda: _argmax_ties(10),
    "constant-labels": lambda: _constant_labels(11),
    "absent-classes": lambda: _absent_classes(12),
    **{f"bin-edges-k{k}-b{b}": (lambda k=k, b=b: _bin_edges(k, b))
       for k in (2, 3, 5) for b in (1, 3, 10, 15)},
}


def _views(records, tmp_path):
    """The same records as a list, a table built from matrices, and a table read back."""
    table = eval_record(
        np.stack([r.soft.probs for r in records]),
        np.stack([r.pred_dist.probs for r in records]),
        np.array([r.pred_hard for r in records]),
        [r.example_id for r in records],
    )
    path = tmp_path / "records.csv"
    path.write_text(records_csv_text(table))
    return {"list": records, "table": table, "read": read_records_csv(path)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_metric_equals_the_per_record_code(case, tmp_path):
    records = CASES[case]()
    for view, got in _views(records, tmp_path).items():
        for num_bins in (1, 3, 10, 15):
            expected = _ref_report(records, num_bins)
            assert compute_metric_report(got, num_bins).values == expected, (view, num_bins)
            assert ece(got, num_bins) == expected["ece"]
            assert [
                (b.bin_low, b.bin_high, b.mean_confidence, b.mean_true_accuracy, b.count)
                for b in calibration_curve(got, num_bins)
            ] == _ref_calibration_curve(records, num_bins)
        assert compute_metric_report(got).missing_classes == _ref_missing_classes(records)
        assert missing_classes(got) == _ref_missing_classes(records)
        assert risk_coverage(got) == _ref_risk_coverage(records)
        assert aurc(got) == _ref_risk_coverage(records)[1]
        for use_weights in (True, False):
            assert mae(got, use_weights) == _ref_mae(records, use_weights)
            assert accuracy(got, use_weights) == _ref_accuracy(records, use_weights)
            assert qwk(got, use_weights) == _ref_qwk(records, use_weights)
        assert any_rater_accuracy(got) == _ref_any_rater_accuracy(records)
        assert brier(got) == _ref_brier(records)
        assert cross_entropy_metric(got) == _ref_cross_entropy(records)
        assert coverage_error(got) == _ref_coverage_error(records)
        assert auroc_macro(got) == _ref_auroc_macro(records)
        assert spearman(got) == _ref_spearman(records)
        for normalize in (False, True):
            np.testing.assert_array_equal(
                confusion_matrix(got, row_normalize=normalize),
                _ref_confusion_matrix(records, normalize),
            )
        assert records_csv_text(got) == _ref_records_csv_text(records)


def test_the_special_cases_reach_their_branches():
    assert _ref_spearman(CASES["constant-labels"]()) is None
    assert _ref_qwk(CASES["constant-labels"](), True) is None
    assert _ref_missing_classes(CASES["absent-classes"]()) == (2, 4, 5)
    ties = CASES["argmax-ties"]()
    assert any(r.pred_dist.probs[0] == r.pred_dist.probs[1] and r.pred_hard == 1 for r in ties)
    conf = _ref_confidences(CASES["confidence-ties"]())
    assert len(set(conf.tolist())) < conf.size
    assert 0.5 in _ref_confidences(CASES["bin-edges-k2-b10"]()).tolist()


def test_iterating_a_table_gives_the_records_it_was_built_from(tmp_path):
    records = CASES["random-2-n120-k4"]()
    for view in _views(records, tmp_path).values():
        assert len(view) == len(records)
        for got, want in zip(view, records):
            np.testing.assert_array_equal(got.soft.probs, want.soft.probs)
            np.testing.assert_array_equal(got.pred_dist.probs, want.pred_dist.probs)
            assert (got.hard, got.pred_hard, got.weight, got.rater_classes, got.example_id) == (
                want.hard, want.pred_hard, want.weight, want.rater_classes, want.example_id)


def test_a_table_rejects_the_first_bad_row_with_the_record_message():
    soft = np.array([[0.5, 0.5], [0.6, 0.4], [1.0, 0.0], [0.2, 0.8]])
    pred = np.full((4, 2), 0.5)
    columns = dict(ids=("a", "b", "c", "d"), soft=soft, pred=pred, hard=[1, 1, 1, 2],
                   pred_hard=[1, 1, 1, 1], weight=[0.5, 0.6, 1.0, 0.8])
    RecordTable(**columns)
    for change, row, message in [
        (dict(weight=[0.5, 0.6, 0.95, 0.8]), 2, "weight must equal"),
        (dict(hard=[1, 1, 2, 2]), 2, "mode class"),
        (dict(pred_hard=[1, 3, 1, 0]), 1, "class index 3 outside 1..2"),
        (dict(soft=np.vstack([soft[:3], [[0.2, 0.81]]])), 3, "rating probabilities sum to"),
        (dict(pred=np.vstack([pred[:1], [[np.nan, 0.5]], pred[2:]])), 1,
         "ClassDistribution.probs entries must be finite"),
    ]:
        with pytest.raises(InputError, match=message) as err:
            RecordTable(**{**columns, **change})
        assert err.value.row == row


# ---- the records.csv boundary ----

_BAD_FLOATS = ("x", "", "1.5e", "nan", "inf", "-inf", "1e400", "-0.1", "1.0000001", "0x1")
_BAD_LABELS = ("0", "-1", "1.0", "abc", "", "99999999999999999999999")


@st.composite
def _records_files(draw):
    """A valid records.csv as text lines, then a few random faults in random rows."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    softs = [_votes_soft(rng, k, int(rng.integers(1, 6))) for _ in range(n)]
    records = _records(softs, [_random_pred(rng, k) for _ in range(n)])
    lines = [line.split(",") for line in _ref_records_csv_text(records).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(1, n))
        fields = lines[row]
        kind = draw(st.sampled_from([
            "float", "label", "short", "header", "sum", "weight", "mode", "blank",
        ]))
        if len(fields) < 4 + 2 * k or len(lines[0]) < 2:
            continue  # already cut short by an earlier fault
        record = records[row - 1]
        numbers = record.soft.probs.tolist() + record.pred_dist.probs.tolist()
        if kind == "float":
            col = draw(st.sampled_from([3] + list(range(4, 4 + 2 * k))))
            fields[col] = draw(st.sampled_from(_BAD_FLOATS))
        elif kind == "label":
            col = draw(st.sampled_from([1, 2]))
            fields[col] = draw(st.sampled_from(_BAD_LABELS + (str(k + 1),)))
        elif kind == "short":
            del fields[draw(st.integers(0, len(fields) - 1)):]
        elif kind == "header":
            del lines[0][draw(st.integers(0, len(lines[0]) - 1))]
        elif kind == "sum":
            col = draw(st.sampled_from(list(range(4, 4 + 2 * k))))
            step = draw(st.sampled_from([2e-9, -2e-9, 1e-6, 5e-10]))
            fields[col] = repr(numbers[col - 4] + step)
        elif kind == "weight":
            fields[3] = repr(record.weight - draw(st.sampled_from([2e-9, 0.1, 5e-10])))
        elif kind == "mode":
            zero = [c for c in range(1, k + 1) if record.soft.probs[c - 1] == 0.0]
            if zero:
                fields[1] = str(draw(st.sampled_from(zero)))
        else:
            lines[row] = []
    for _ in range(draw(st.integers(0, 3))):
        _reformat(draw, lines, k)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(",".join(fields) for fields in lines) + draw(st.sampled_from([newline, ""]))


_AWKWARD_IDS = ("a,b", 'say "hi"', "two\nlines", "cr\r\nlf", '"', ",")
_NON_ASCII_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _reformat(draw, lines, k):
    """One change of form that the csv reader accepts: the file may no longer be
    its lines split at commas, or a number is written another way."""
    kind = draw(st.sampled_from([
        "quoted-id", "extra-one", "extra-all", "extra-all-named", "id-last", "blank-line",
        "spaces", "underscore", "non-ascii",
    ]))
    row = draw(st.integers(1, len(lines) - 1))
    fields = lines[row]
    if kind == "quoted-id":
        if fields:
            fields[0] = '"' + draw(st.sampled_from(_AWKWARD_IDS)).replace('"', '""') + '"'
    elif kind == "extra-one":
        fields.append(draw(st.sampled_from(["x", "", "0.5"])))
    elif kind in ("extra-all", "extra-all-named"):
        for other in lines[0 if kind == "extra-all-named" else 1 :]:
            other.append("note")
    elif kind == "id-last":
        for other in lines:
            other[:] = other[1:] + other[:1]
    elif kind == "blank-line":
        lines.insert(row, [])
    else:
        col = draw(st.sampled_from([1, 2, 3] + list(range(4, 4 + 2 * k))))
        if col >= len(fields):
            return
        if kind == "spaces":
            fields[col] = draw(st.sampled_from([" ", "\t", "  "])) + fields[col] + " "
        elif kind == "underscore":
            fields[col] = draw(st.sampled_from(["1_0", "0_1", "1_0.0", "0.2_5"]))
        else:
            fields[col] = fields[col].translate(_NON_ASCII_DIGITS)


def _outcome(read, path):
    try:
        return "ok", records_csv_text(read(path))
    except InputError as err:
        return "InputError", str(err)
    except IndexError:
        return "IndexError", None
    except csv.Error as err:
        return "csv.Error", str(err)


def _write(path, text):
    path.write_bytes(text.encode("utf-8"))


def _assert_read_as_the_per_row_reader(path):
    expected = _outcome(_ref_read_records_csv, path)
    got = _outcome(read_records_csv, path)
    if expected[0] == "IndexError":
        # the per-row reader crashed on a short row; now it names the row's line
        with open(path, encoding="utf-8", newline="") as fh:
            line = _first_bad_line(fh.read())
        assert got[0] == "InputError"
        assert f" line {line}: " in got[1] and "fields" in got[1]
    elif expected[0] == "csv.Error":
        assert got[0] == "InputError" and got[1].endswith(f": {expected[1]}")
    else:
        assert got == expected


@settings(max_examples=300, deadline=None)
@given(_records_files())
def test_reading_accepts_and_rejects_what_the_per_row_reader_did(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        _write(path, text)
        _assert_read_as_the_per_row_reader(path)


def _plain_lines():
    """Six records (K = 3) as lists of fields, with numeric ids."""
    rng = np.random.default_rng(8)
    records = _records([_votes_soft(rng, 3, 4) for _ in range(6)],
                       [_random_pred(rng, 3) for _ in range(6)])
    lines = [line.split(",") for line in _ref_records_csv_text(records).splitlines()]
    return [lines[0]] + [[str(i)] + fields[1:] for i, fields in enumerate(lines[1:], start=1)]


def _text(lines, newline="\n", end=None):
    return newline.join(",".join(fields) for fields in lines) + (newline if end is None else end)


def _with(row, col, value):
    def edit(lines):
        lines[row][col] = value
        return _text(lines)
    return edit


def _id_last(lines):
    return [fields[1:] + fields[:1] for fields in lines]


def _short_then_long_row_that_parse_shifted(lines):
    lines = [fields + ["0"] for fields in lines]  # an unused last column
    long_row = "7 1 1 1 1 0 0 1 0 0 0 0".split()  # each field parses one column to the right
    return _text(lines[:2] + [lines[2][:-1], long_row] + lines[4:])


def _two_short_rows_that_parse_as_one(lines):
    halves = ["7 1 1 1 1".split(), "0 0 1 0 0".split()]  # end to end, one valid row of K = 3
    return _text(lines[:3] + halves + lines[3:], "\r\n")


def _crlf_after_the_header(lines):
    lines = _id_last(lines)
    return _text(lines[:1]) + _text(lines[1:], "\r\n")


def _quoted_newline_then_bad_weight(lines):
    lines[1][0] = '"a\nb"'
    return _with(4, 3, "7")(lines)  # named by the line its row starts on


def _quoted_newline_then_short_row(lines):
    lines[1][0] = '"a\nb"'
    lines[4] = lines[4][:5]
    return _text(lines)


def _quoted_newline_then_unparsable_field(lines):
    lines[1][0] = '"a\nb"'
    return _with(4, 5, "x")(lines)


def _bad_weight_then_long_id(lines):
    lines[5][0] = "x" * 140_000  # over the csv module's field limit
    return _with(2, 3, "7")(lines)  # a weight the per-row reader rejects first


_EDGE_CASES = {
    "plain": _text,
    "quoted-id": _with(2, 0, '"say ""hi"""'),
    "quoted-id-comma": _with(2, 0, '"a,b"'),
    "quoted-id-newline": _with(2, 0, '"a\nb"'),
    "quoted-id-newline-then-bad-weight": _quoted_newline_then_bad_weight,
    "quoted-id-newline-then-short-row": _quoted_newline_then_short_row,
    "quoted-id-newline-then-unparsable-field": _quoted_newline_then_unparsable_field,
    "quoted-number": _with(3, 4, '"0.25"'),
    "crlf": lambda lines: _text(lines, "\r\n"),
    "crlf-id-last": lambda lines: _text(_id_last(lines), "\r\n"),
    "crlf-after-the-header-id-last": _crlf_after_the_header,
    "cr-only": lambda lines: _text(lines, "\r"),
    "cr-in-id": _with(2, 0, "a\rb"),
    "id-last": lambda lines: _text(_id_last(lines)),
    "no-final-newline": lambda lines: _text(lines, end=""),
    "extra-column": lambda lines: _text([fields + ["note"] for fields in lines]),
    "extra-field": lambda lines: _text(lines[:2] + [lines[2] + ["1"]] + lines[3:]),
    "double-row": lambda lines: _text(lines[:2] + [lines[2] * 2] + lines[3:]),
    "blank-line": lambda lines: _text(lines[:3] + [[]] + lines[3:]),
    "blank-last-line": lambda lines: _text(lines + [[]]),
    "space-line": lambda lines: _text(lines[:3] + [[" "]] + lines[3:]),
    "short-and-long-row": lambda lines: _text(
        lines[:2] + [lines[2][:-1], lines[3], lines[4] + ["1"]] + lines[5:]),
    "short-and-long-row-that-parse-shifted": _short_then_long_row_that_parse_shifted,
    "crlf-two-short-rows-that-parse-as-one": _two_short_rows_that_parse_as_one,
    "nul-in-id": _with(2, 0, "a\0b"),
    "long-id": _with(2, 0, "x" * 140_000),
    "bad-weight-then-long-id": _bad_weight_then_long_id,
    "spaces": _with(2, 4, " 0.25 "),
    "underscore": _with(2, 1, "1_0"),
    "non-ascii-digit": _with(2, 2, "٢"),
    "reversed-columns": lambda lines: _text([fields[::-1] for fields in lines]),
    "two-bad-class-columns": lambda lines: _text(
        [[{"soft_1": "soft_x", "pred_1": "pred_x"}.get(f, f) for f in fields[::-1]]
         for fields in lines]),
    "bom": lambda lines: "\ufeff" + _text(lines),
    "header-only": lambda lines: _text(lines[:1]),
    "empty": lambda lines: "",
}


@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
def test_an_edge_case_file_reads_as_the_per_row_reader_did(case, tmp_path):
    path = tmp_path / "records.csv"
    _write(path, _EDGE_CASES[case](_plain_lines()))
    _assert_read_as_the_per_row_reader(path)


def _first_bad_line(text):
    """The line on which the row starts where the per-row reader stops, reading longer
    and longer prefixes of its rows."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, starts, read = [], [], 0
    for row in reader:
        rows.append(row)
        starts.append(read + 1)
        read = reader.line_num
    for end in range(2, len(rows) + 1):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows[:end])
            if _outcome(_ref_read_records_csv, path)[0] == "IndexError":
                return starts[end - 1]
    return None


@settings(max_examples=100, deadline=None)
@given(_records_files())
@example(_quoted_newline_then_short_row(_plain_lines()))  # the bad row starts on line 6
@example(_quoted_newline_then_unparsable_field(_plain_lines()))
def test_evaluate_exits_one_naming_the_first_bad_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        _write(path, text)
        expected = _outcome(_ref_read_records_csv, path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = run(["evaluate", "--data", str(path)])
    if expected[0] == "ok":
        assert rc == 0
    elif expected[0] == "InputError":
        assert (rc, err.getvalue()) == (1, f"error: {expected[1]}\n")
    else:
        assert rc == 1
        assert err.getvalue().startswith("error: ")
        assert f" line {_first_bad_line(text)}: " in err.getvalue()


def test_a_written_records_file_is_read_without_the_csv_reader(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    n, k = 3000, 4  # several blocks of lines
    soft = np.stack([_votes_soft(rng, k, 5) for _ in range(n)])
    table = eval_record(soft, np.stack([_random_pred(rng, k) for _ in range(n)]), None,
                        [f"e{i}" for i in range(n)])
    text = records_csv_text(table)
    path = tmp_path / "records.csv"
    path.write_text(text)

    def no_csv_reader(path):
        raise AssertionError(f"{path} went to the csv reader")

    monkeypatch.setattr(harness, "csv_rows", no_csv_reader)
    assert records_csv_text(read_records_csv(path)) == text
    # a failing record check far into the file is named by its line on this path too
    lines = text.splitlines()
    weight = lines[2500].split(",")[3]
    lines[2500] = lines[2500].replace(f",{weight},", f",{float(weight) / 2!r},", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match=f"^{path}: line 2501: weight must equal"):
        read_records_csv(path)
    path.write_text(text.replace("e7,", '"e,7",', 1))
    with pytest.raises(AssertionError, match="went to the csv reader"):
        read_records_csv(path)


# vote fractions of two or four raters, each number written several ways
_SPELLINGS = {
    0.0: ("0.0", "-0.0", "0", "0e0"),
    0.25: ("0.25", ".25", "2.5e-1", "+0.250"),
    0.5: ("0.5", "0.50", "5e-1", "+0.5"),
    0.75: ("0.75", "7.5e-1", "0.750"),
    1.0: ("1.0", "1", "1e0", "+1.00"),
}
_LABEL_SPELLINGS = ("{}", "+{}", "0{}", "{} ")


def _field_by_field(path):
    """The columns of a records file, each field read alone with ``float`` or ``int``."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    k = sum(name.startswith("soft_") for name in header)

    def column(name, convert):
        i = header.index(name)
        return [convert(row[i]) for row in rows]

    return {
        "soft": np.array([column(f"soft_{c}", float) for c in range(1, k + 1)]).T,
        "pred": np.array([column(f"pred_{c}", float) for c in range(1, k + 1)]).T,
        "weight": np.array(column("weight", float)),
        "hard": np.array(column("hard", int), np.int64),
        "pred_hard": np.array(column("pred_hard", int), np.int64),
        "ids": tuple(column("id", str)),
    }


def _assert_read_field_by_field(path, monkeypatch):
    def no_csv_reader(path):
        raise AssertionError(f"{path} went to the csv reader")

    monkeypatch.setattr(harness, "csv_rows", no_csv_reader)
    table = read_records_csv(path)
    expected = _field_by_field(path)
    assert table.ids == expected["ids"]
    for name in ("soft", "pred", "weight"):  # bit for bit, so -0.0 is not 0.0
        got = getattr(table, name)
        assert got.shape == expected[name].shape
        assert np.array_equal(got.view(np.int64), expected[name].view(np.int64)), name
    for name in ("hard", "pred_hard"):
        assert np.array_equal(getattr(table, name), expected[name]), name


def test_repeated_fields_in_several_spellings_read_as_each_field_alone(tmp_path, monkeypatch):
    rng = np.random.default_rng(17)
    n, k = 3200, 4  # several blocks of lines
    lines = ["id,hard,pred_hard,weight," + ",".join(
        [f"soft_{c}" for c in range(1, k + 1)] + [f"pred_{c}" for c in range(1, k + 1)])]
    for i in range(n):
        soft = _votes_soft(rng, k, int(rng.choice([2, 4])))
        pred = _random_pred(rng, k)
        hard, pred_hard = int(np.argmax(soft)) + 1, int(rng.integers(1, k + 1))
        spell = [str(rng.choice(_SPELLINGS[float(v)])) for v in (soft.max(), *soft)]
        labels = [str(rng.choice(_LABEL_SPELLINGS)).format(c) for c in (hard, pred_hard)]
        lines.append(",".join([f"e{i}", *labels, *spell, *map(repr, pred.tolist())]))
    path = tmp_path / "records.csv"
    path.write_text("\n".join(lines) + "\n")
    fields = [line.split(",") for line in lines[1:]]
    assert {"0.0", "-0.0"} <= {row[4] for row in fields}
    assert {"0.5", "0.50", "5e-1", "+0.5"} <= {row[3] for row in fields}
    _assert_read_field_by_field(path, monkeypatch)


def test_soft_columns_with_no_repeated_field_read_as_each_field_alone(tmp_path, monkeypatch):
    rng = np.random.default_rng(18)
    n, k = 3000, 3
    soft = np.stack([_random_pred(rng, k) for _ in range(n)])
    table = eval_record(soft, np.stack([_random_pred(rng, k) for _ in range(n)]), None,
                        [f"e{i}" for i in range(n)])
    path = tmp_path / "records.csv"
    path.write_text(records_csv_text(table))
    assert all(len(set(soft[:, c].tolist())) == n for c in range(k))
    _assert_read_field_by_field(path, monkeypatch)
