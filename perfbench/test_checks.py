"""Tests of the benchmark's output checks.

Each checker must pass a correct program output and reject a corrupted copy
of it; the independent metric code must match values worked out by hand.
Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from ordreg.cli import run as cli_run  # noqa: E402

METHODS = ("or_soft", "ce")
FOLDS = 3


# ===== hand-worked fixture =====
# K = 3. Record 4 has confidence 0.65 and record 1 sits exactly on the 0.7
# bin edge, so the two share a bin only if an edge value goes to the lower bin.
SOFT = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.4], [0.2, 0.8, 0.0], [0.0, 0.75, 0.25]])
PRED = np.array([[0.7, 0.3, 0.0], [0.1, 0.3, 0.6], [0.2, 0.5, 0.3], [0.05, 0.3, 0.65]])
PRED_HARD = np.array([1, 3, 2, 3])
# hard = [1, 2, 2, 2], weights = [1, 0.6, 0.8, 0.75], total weight 3.15
HAND = {
    "mae": 2 / 4,
    "mae_uw": (0.6 + 0.75) / 3.15,
    "accuracy": 2 / 4,
    "accuracy_uw": (1 + 0.8) / 3.15,
    "accuracy_ar": 1.0,
    # bin (0.6, 0.7] holds records 1 and 4; records 2 and 3 are alone in theirs
    "ece": 2 / 4 * abs((0.7 + 0.65) / 2 - (1.0 + 0.25) / 2) + 1 / 4 * 0.2 + 1 / 4 * 0.3,
    # by confidence: records 1, 4, 2, 3; cumulative weight 1, 1.75, 2.35, 3.15
    "aurc": (0.0 + (1 - 1 / 1.75) + (1 - 1 / 2.35) + (1 - 1.8 / 3.15)) / 4,
    "brier": (0.18 + 0.14 + 0.18 + 0.365) / 4,
    "cross_entropy": (-math.log(0.7) - (0.6 * math.log(0.3) + 0.4 * math.log(0.6))
                      - (0.2 * math.log(0.2) + 0.8 * math.log(0.5))
                      - (0.75 * math.log(0.3) + 0.25 * math.log(0.65))) / 4,
    "coverage_error": (1 + 2 + 3 + 2) / 4,
    # class 1: AUC 1; class 2: positives 0.3, 0.5, 0.3 against negative 0.3 -> 2/3; class 3 absent
    "auroc_macro": (1.0 + 2 / 3) / 2,
    # centred ranks (-1.5, 1, -0.5, 1) and (-1.5, 0.5, 0.5, 0.5)
    "spearman": 3.0 / math.sqrt(4.5 * 3.0),
    # table: (1,1) 1, (2,2) 1, (2,3) 2; S_obs = 2, S_exp = 4.5
    "qwk": 1 - 2 / 4.5,
    # weighted: (1,1) 1, (2,2) 0.8, (2,3) 1.35; S_obs = 1.35, S_exp = 11.2525 / 3.15
    "qwk_uw": 1 - 1.35 * 3.15 / 11.2525,
}


def test_metric_suite_matches_hand_values():
    got = checks.metric_suite(SOFT, PRED, PRED_HARD)
    assert got["num_records"] == 4
    assert got["missing_classes"] == [3]
    for name, value in HAND.items():
        assert got["metrics"][name] == pytest.approx(value, abs=1e-12), name
    assert set(got["metrics"]) == set(checks.METRIC_NAMES)


def test_undefined_metrics_are_none():
    soft = np.array([[0.0, 1.0, 0.0], [0.0, 0.8, 0.2]])
    pred = np.array([[0.2, 0.6, 0.2], [0.1, 0.5, 0.4]])
    got = checks.metric_suite(soft, pred, np.array([2, 2]))["metrics"]
    assert got["spearman"] is None and got["auroc_macro"] is None and got["qwk"] is None


def test_average_ranks_share_ties():
    x = np.array([3.0, 1.0, 3.0, 2.0, 3.0])
    assert checks.average_ranks(x).tolist() == [4.0, 1.0, 4.0, 2.0, 4.0]
    stats = pytest.importorskip("scipy.stats")
    y = np.random.default_rng(0).integers(0, 6, size=200).astype(float)
    assert np.array_equal(checks.average_ranks(y), stats.rankdata(y))


def test_bin_edges_go_to_the_lower_bin():
    conf = np.array([0.1, 0.10000000000000002, 0.7, 1.0, 0.05])
    assert checks.bin_index(conf, 10).tolist() == [0, 1, 6, 9, 0]


def test_decode_rules():
    pred = np.array([[0.4, 0.4, 0.2], [0.2, 0.3, 0.5]])
    assert checks.decode(pred, "ce")[0].tolist() == [1, 3]
    # tails: row 1 (0.6, 0.2) -> 2; row 2 (0.8, 0.5) -> 2, 0.5 is not above 0.5
    decoded, unsure = checks.decode(pred, "or_soft")
    assert decoded.tolist() == [2, 2] and unsure.tolist() == [False, True]


# ===== cv checker =====


@pytest.fixture(scope="module")
def cv_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("cv")
    table = inputs.vote_table(5, 150, inputs.QUARTILES, 5, 0.68)
    inputs.write_counts_csv(table, work / "data.csv")
    config = {"data": str(work / "data.csv"), "methods": list(METHODS), "folds": FOLDS,
              "seeds": [0], "epochs": 15, "batch_size": 16, "lr": 0.01, "num_classes": 4}
    (work / "config.json").write_text(json.dumps(config))
    assert cli_run(["cv", "--config", str(work / "config.json"), "--out", str(work / "out")]) == 0
    return work / "out", table


@pytest.fixture
def cv_copy(cv_run, tmp_path):
    out, table = cv_run
    shutil.copytree(out, tmp_path / "out")
    return tmp_path / "out", table


def _check(out, table):
    checks.check_cv(out, table.ids, table.counts, METHODS, FOLDS)


def _edit_records(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_cv_checker_passes_the_program_output(cv_run):
    _check(*cv_run)


def test_cv_checker_rejects_a_flipped_pred_hard(cv_copy):
    out, table = cv_copy

    def flip(rows):
        col = rows[0].index("pred_hard")
        rows[1][col] = "1" if rows[1][col] != "1" else "2"

    _edit_records(out / "or_soft" / "fold_1" / "records.csv", flip)
    with pytest.raises(checks.CheckError, match="decode rule"):
        _check(out, table)


def test_cv_checker_rejects_a_metric_beyond_tolerance(cv_copy):
    out, table = cv_copy
    path = out / "ce" / "fold_2" / "metrics.json"
    doc = json.loads(path.read_text())
    doc["metrics"]["ece"] += 1e-6
    path.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckError, match="metric ece"):
        _check(out, table)


def test_cv_checker_rejects_a_tie_excluded_example(cv_copy):
    out, table = cv_copy
    counts = table.counts
    tied = [i for i, c in enumerate(counts) if (c == c.max()).sum() > 1]
    i = tied[0]
    soft = counts[i] / counts[i].sum()

    def add(rows):
        rows.append([table.ids[i], str(int(np.argmax(soft)) + 1), "1", repr(float(soft.max()))]
                    + [repr(float(x)) for x in soft] + ["0.25"] * 4)

    _edit_records(out / "ce" / "fold_1" / "records.csv", add)
    with pytest.raises(checks.CheckError, match="tie-excluded"):
        _check(out, table)


def test_cv_checker_rejects_a_missing_fold(cv_copy):
    out, table = cv_copy
    shutil.rmtree(out / "or_soft" / "fold_3")
    with pytest.raises(checks.CheckError, match="fold_3"):
        _check(out, table)


def test_cv_checker_rejects_a_wrong_soft_k(cv_copy):
    out, table = cv_copy

    def shift(rows):
        a, b = rows[0].index("soft_1"), rows[0].index("soft_2")
        rows[1][a], rows[1][b] = repr(float(rows[1][a]) + 0.2), repr(float(rows[1][b]) - 0.2)

    _edit_records(out / "ce" / "fold_2" / "records.csv", shift)
    with pytest.raises(checks.CheckError, match="soft_k"):
        _check(out, table)


def test_cv_checker_rejects_an_unfinished_fold(cv_copy):
    out, table = cv_copy
    path = out / "summary.json"
    doc = json.loads(path.read_text())
    doc["methods"]["ce"]["folds"][0]["status"] = "failed"
    path.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckError, match="fold statuses"):
        _check(out, table)


# ===== evaluate-records checker =====


@pytest.fixture(scope="module")
def evaluate_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("evaluate")
    records = inputs.record_table(3, 400, inputs.QUINTILES, 7)
    inputs.write_records_csv(records, work / "records.csv")
    assert cli_run(["evaluate", "--data", str(work / "records.csv"),
                    "--out", str(work / "report.json")]) == 0
    assert cli_run(["curves", "--data", str(work / "records.csv"), "--out", str(work / "curves")]) == 0
    return work, records


@pytest.fixture
def evaluate_copy(evaluate_run, tmp_path):
    work, records = evaluate_run
    shutil.copytree(work, tmp_path / "w")
    return tmp_path / "w", records


def _check_evaluate(work, records):
    checks.check_evaluate(work / "report.json", work / "curves", records.soft, records.pred,
                          records.pred_hard)


def test_evaluate_checker_passes_the_program_output(evaluate_run):
    _check_evaluate(*evaluate_run)


@pytest.mark.parametrize("metric", ["spearman", "auroc_macro", "coverage_error", "qwk_uw"])
def test_evaluate_checker_rejects_a_changed_metric(evaluate_copy, metric):
    work, records = evaluate_copy
    doc = json.loads((work / "report.json").read_text())
    doc["metrics"][metric] += 1e-7
    (work / "report.json").write_text(json.dumps(doc))
    with pytest.raises(checks.CheckError, match=f"metric {metric}"):
        _check_evaluate(work, records)


@pytest.mark.parametrize("name, pattern", [
    ("confusion.csv", "confusion.csv"),
    ("calibration.csv", "calibration.csv"),
    ("aurc.txt", "aurc.txt"),
])
def test_evaluate_checker_rejects_changed_curves(evaluate_copy, name, pattern):
    work, records = evaluate_copy
    path = work / "curves" / name
    if name == "aurc.txt":
        path.write_text(repr(float(path.read_text()) + 1e-6) + "\n")
    elif name == "confusion.csv":
        lines = path.read_text().splitlines()
        cells = lines[0].split(",")
        cells[0] = repr(float(cells[0]) + 1.0)
        lines[0] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    else:
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[-1] = str(int(cells[-1]) + 1)
        lines[-1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match=pattern):
        _check_evaluate(work, records)
